//! `dp_lint` — registry-free static analysis for this workspace's
//! determinism, panic-freedom, and codec-safety contracts.
//!
//! The repo's value is its bit-exact contract: same seed, same bytes,
//! across batch widths, thread counts, concurrent load, and the wire.
//! The test suites check that contract *dynamically*; this crate checks
//! it *statically*, so a violation fails CI at the source line that
//! introduced it instead of whenever a test happens to notice. With no
//! registry access, the analyzer is hand-rolled the same way as the
//! `rand`/`proptest`/`criterion` shims: a string/comment-aware lexer
//! ([`lexer`]), a directive parser ([`directives`]), a rule registry
//! with path scoping ([`rules`]), and a per-file engine plus workspace
//! walker ([`engine`]) that emits deterministic human and JSON reports
//! ([`report`]).
//!
//! # Rules
//!
//! | rule | contract it guards |
//! |------|--------------------|
//! | `nondeterministic-time` | no wall-clock reads outside serving/bench timing sites |
//! | `unordered-iteration` | no `HashMap`/`HashSet` where order can reach disk or wire |
//! | `panic-in-serving-tier` | no `unwrap`/`expect`/`panic!` family in request paths |
//! | `rng-discipline` | lane RNGs only via the sanctioned splitmix64 derivation |
//! | `truncating-cast-in-codec` | no bare `as` integer casts in wire/storage codecs |
//! | `zero-alloc-region` | no heap allocation in `dp-lint: zero-alloc` blocks |
//! | `invalid-directive` | directive hygiene (unsuppressible) |
//!
//! # Directives
//!
//! Suppression is inline, per-line, and must carry a reason:
//!
//! ```text
//! let m = HashMap::new(); // dp-lint: allow(unordered-iteration): keyed lookup, never iterated
//! ```
//!
//! A standalone directive comment applies to the next code line. An
//! allow without a reason, with an unknown rule name, or that
//! suppresses nothing is itself a finding — so exemptions stay
//! documented and stale ones cannot accumulate. `#[cfg(test)]` items
//! and `tests/`/`benches/`/`examples/` trees are skipped entirely.
//!
//! # Adding a rule
//!
//! Add a [`rules::RuleDef`] to [`rules::RULES`] (id, summary, path
//! scope), extend [`rules::run_matchers`] with the token pattern, add a
//! `bad`/`good` fixture pair under `tests/fixtures/`, and regenerate
//! the golden JSON. The rule id is immediately valid in allow
//! directives; nothing else needs registering.

pub mod directives;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;

pub use engine::{analyze_source, analyze_tree};
pub use report::{Finding, Report};
