//! Rule registry: ids, scopes, and the token-level matchers.
//!
//! Each rule is a lexical pattern plus a *path scope* — the set of
//! workspace files where the pattern is a contract violation rather
//! than ordinary code. Scopes are prefix matches on the normalized
//! (forward-slash, root-relative) path; an empty include list means
//! "every walked file". The matchers run on the comment-free token
//! stream, so strings, comments and doc examples can never trigger
//! them; suppression is per-line via `// dp-lint: allow(<rule>): <why>`
//! directives (see [`crate::directives`]).

use crate::lexer::{Token, TokenKind};

/// The synthetic rule id for directive-hygiene findings (unknown rule
/// name, missing reason, unused allow). Never suppressible.
pub const INVALID_DIRECTIVE: &str = "invalid-directive";

/// One rule's identity and scope.
#[derive(Debug, Clone, Copy)]
pub struct RuleDef {
    /// Stable kebab-case id, used in reports and allow directives.
    pub id: &'static str,
    /// One-line description for `--list-rules` and the README table.
    pub summary: &'static str,
    /// Path prefixes the rule applies to (empty = all walked files).
    pub include: &'static [&'static str],
    /// Path prefixes exempt from the rule.
    pub exclude: &'static [&'static str],
}

/// Every rule the engine knows, in report order.
pub const RULES: &[RuleDef] = &[
    RuleDef {
        id: "nondeterministic-time",
        summary: "Instant::now / SystemTime::now outside the serving/bench allowlist breaks \
                  same-seed-same-bytes reproducibility",
        include: &[],
        exclude: &[
            // Deadlines and latency histograms are the serving tier's job.
            "crates/serve/",
            // Benches and the table2 efficiency harness measure time by design.
            "crates/bench/",
            "crates/core/src/table2.rs",
            // The criterion shim is a timing harness.
            "shims/",
        ],
    },
    RuleDef {
        id: "unordered-iteration",
        summary: "HashMap/HashSet in output-producing crates: iteration order can reach bytes \
                  on disk or the wire — use BTreeMap/BTreeSet or an explicit sort",
        include: &[
            "crates/library/src/",
            "crates/serve/src/",
            "crates/core/src/",
            // Baseline generators feed the Table I rows.
            "crates/baselines/src/",
        ],
        exclude: &[],
    },
    RuleDef {
        id: "panic-in-serving-tier",
        summary: "unwrap/expect/panic!/unreachable!/todo!/unimplemented! in the serving tier: \
                  one hostile request must not take down a worker",
        include: &[
            "crates/serve/src/",
            "crates/core/src/engine.rs",
            "crates/core/src/service.rs",
        ],
        exclude: &[],
    },
    RuleDef {
        id: "rng-discipline",
        summary: "RNG construction/seeding in generation paths outside the sanctioned \
                  splitmix64 lane-derivation helper breaks the bit-exact contract",
        include: &[
            "crates/core/src/engine.rs",
            "crates/core/src/service.rs",
            "crates/core/src/table1.rs",
            "crates/diffusion/src/",
        ],
        exclude: &[],
    },
    RuleDef {
        id: "truncating-cast-in-codec",
        summary: "bare `as` integer cast in wire/storage codecs: silent truncation corrupts \
                  frames — use From/TryFrom with typed errors",
        include: &[
            "crates/serve/src/json.rs",
            "crates/serve/src/proto.rs",
            "crates/serve/src/http.rs",
            "crates/library/src/codec.rs",
        ],
        exclude: &[],
    },
    RuleDef {
        id: "zero-alloc-region",
        summary: "heap allocation inside a `// dp-lint: zero-alloc` region — the static \
                  complement of the counting-allocator steady-state tests",
        include: &[],
        exclude: &[],
    },
    RuleDef {
        id: INVALID_DIRECTIVE,
        summary: "malformed dp-lint directive: unknown rule name, allow without a reason, or \
                  an allow that suppresses nothing",
        include: &[],
        exclude: &[],
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static RuleDef> {
    RULES.iter().find(|r| r.id == id)
}

/// Whether `path` (normalized, root-relative) is in a rule's scope.
pub fn in_scope(def: &RuleDef, path: &str) -> bool {
    let included = def.include.is_empty() || def.include.iter().any(|p| path.starts_with(p));
    included && !def.exclude.iter().any(|p| path.starts_with(p))
}

/// A rule hit before allow-filtering: the rule id, the byte offset it
/// anchors to, and the message.
#[derive(Debug, Clone)]
pub struct Match {
    /// The violated rule's id.
    pub rule: &'static str,
    /// Byte offset of the offending token.
    pub offset: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// Integer types an `as` cast can narrow to (or between).
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// RNG constructors/seeders the discipline rule watches for.
const RNG_CONSTRUCTORS: &[&str] = &[
    "seed_from_u64",
    "from_seed",
    "from_entropy",
    "from_rng",
    "thread_rng",
];

/// Method calls that allocate, banned inside zero-alloc regions.
const ALLOC_METHODS: &[&str] = &[
    "clone",
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "with_capacity",
];

/// Runs every scoped rule's matcher over a file's comment-free token
/// stream. `code` must contain no comment tokens; `zero_alloc_regions`
/// are the byte ranges marked by `// dp-lint: zero-alloc` directives.
pub fn run_matchers(
    path: &str,
    src: &str,
    code: &[Token],
    zero_alloc_regions: &[(usize, usize)],
) -> Vec<Match> {
    let mut out = Vec::new();
    let ident = |i: usize| -> Option<&str> {
        code.get(i)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text(src))
    };
    let punct =
        |i: usize, c: char| -> bool { code.get(i).is_some_and(|t| t.kind == TokenKind::Punct(c)) };
    let scoped = |id: &str| rule(id).is_some_and(|def| in_scope(def, path));

    let time = scoped("nondeterministic-time");
    let unordered = scoped("unordered-iteration");
    let panic_free = scoped("panic-in-serving-tier");
    let rng = scoped("rng-discipline");
    let cast = scoped("truncating-cast-in-codec");

    for i in 0..code.len() {
        let Some(name) = ident(i) else { continue };
        let at = code[i].start;

        if time
            && name == "now"
            && punct(i.wrapping_sub(1), ':')
            && punct(i.wrapping_sub(2), ':')
            && i >= 3
            && matches!(ident(i - 3), Some("Instant") | Some("SystemTime"))
        {
            out.push(Match {
                rule: "nondeterministic-time",
                offset: code[i - 3].start,
                message: format!(
                    "`{}::now` outside the timing allowlist: wall-clock reads make output \
                     depend on when it ran, not just the seed",
                    ident(i - 3).unwrap_or("?")
                ),
            });
        }

        if unordered && (name == "HashMap" || name == "HashSet") {
            out.push(Match {
                rule: "unordered-iteration",
                offset: at,
                message: format!(
                    "`{name}` in an output-producing crate: iteration order is randomized per \
                     process and can reach bytes on disk or the wire — use the BTree \
                     equivalent, or sort before iterating and allow with a reason"
                ),
            });
        }

        if panic_free {
            let method_call = i >= 1 && punct(i - 1, '.') && punct(i + 1, '(');
            if method_call && (name == "unwrap" || name == "expect") {
                out.push(Match {
                    rule: "panic-in-serving-tier",
                    offset: at,
                    message: format!(
                        "`.{name}(...)` in the serving tier: convert to a typed error \
                         (bad_request / internal) so a hostile request cannot kill a worker"
                    ),
                });
            }
            if punct(i + 1, '!')
                && matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
                && !punct(i.wrapping_sub(1), '.')
            {
                out.push(Match {
                    rule: "panic-in-serving-tier",
                    offset: at,
                    message: format!("`{name}!` in the serving tier: return a typed error instead"),
                });
            }
        }

        if rng && RNG_CONSTRUCTORS.contains(&name) {
            out.push(Match {
                rule: "rng-discipline",
                offset: at,
                message: format!(
                    "`{name}` in a generation path: lane RNGs must come from the sanctioned \
                     splitmix64 derivation (`engine::lane_rng`), or output depends on \
                     scheduling instead of (seed, index)"
                ),
            });
        }

        if cast && name == "as" {
            if let Some(target) = ident(i + 1) {
                if INT_TYPES.contains(&target) {
                    out.push(Match {
                        rule: "truncating-cast-in-codec",
                        offset: at,
                        message: format!(
                            "bare `as {target}` in a codec: silent truncation corrupts frames — \
                             use `{target}::from`/`{target}::try_from` with a typed error (or a \
                             masked helper carrying an allow directive)"
                        ),
                    });
                }
            }
        }
    }

    for &(start, end) in zero_alloc_regions {
        let in_region = |t: &Token| t.start >= start && t.end <= end;
        for (i, tok) in code.iter().enumerate() {
            if !in_region(tok) {
                continue;
            }
            let Some(name) = ident(i) else { continue };
            let hit = (punct(i + 1, '!') && (name == "vec" || name == "format"))
                || (i >= 1
                    && punct(i - 1, '.')
                    && punct(i + 1, '(')
                    && ALLOC_METHODS.contains(&name))
                || (punct(i + 1, ':')
                    && punct(i + 2, ':')
                    && matches!(name, "Vec" | "String" | "Box")
                    && matches!(
                        ident(i + 3),
                        Some("new") | Some("with_capacity") | Some("from")
                    ));
            if hit {
                out.push(Match {
                    rule: "zero-alloc-region",
                    offset: code[i].start,
                    message: format!(
                        "`{name}` allocates inside a `dp-lint: zero-alloc` region — this loop \
                         is pinned allocation-free by the counting-allocator tests"
                    ),
                });
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn matches_in(path: &str, src: &str) -> Vec<&'static str> {
        let toks: Vec<_> = lex(src).into_iter().filter(|t| !t.is_comment()).collect();
        run_matchers(path, src, &toks, &[])
            .into_iter()
            .map(|m| m.rule)
            .collect()
    }

    #[test]
    fn time_rule_respects_scope_and_strings() {
        let src = "let t = Instant::now(); let s = \"Instant::now()\";";
        assert_eq!(
            matches_in("crates/core/src/engine.rs", src),
            ["nondeterministic-time"]
        );
        // Serve and bench are allowlisted.
        assert!(matches_in("crates/serve/src/server.rs", src).is_empty());
        assert!(matches_in("crates/bench/src/lib.rs", src).is_empty());
        assert!(matches_in("crates/core/src/table2.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_does_not_match_unwrap_or_variants() {
        let path = "crates/serve/src/proto.rs";
        assert!(matches_in(
            path,
            "x.unwrap_or(0); x.unwrap_or_else(f); x.unwrap_or_default();"
        )
        .is_empty());
        assert_eq!(matches_in(path, "x.unwrap();"), ["panic-in-serving-tier"]);
        assert_eq!(
            matches_in(path, "x.expect(\"boom\");"),
            ["panic-in-serving-tier"]
        );
        // A *method named* expect being defined is not a call on a value.
        assert!(matches_in(path, "fn expect(&mut self) {}").is_empty());
        assert_eq!(
            matches_in(path, "unreachable!()"),
            ["panic-in-serving-tier"]
        );
        // Out of scope: the library crate may panic on internal invariants.
        assert!(matches_in("crates/library/src/store.rs", "x.unwrap();").is_empty());
    }

    #[test]
    fn cast_rule_only_fires_on_integer_targets_in_codecs() {
        let path = "crates/serve/src/proto.rs";
        assert_eq!(
            matches_in(path, "let x = y as u8;"),
            ["truncating-cast-in-codec"]
        );
        assert!(matches_in(path, "let x = y as f64; let c = b as char;").is_empty());
        assert!(matches_in(path, "use std::io::Read as ReadExt;").is_empty());
        assert!(matches_in("crates/serve/src/server.rs", "let x = y as u8;").is_empty());
    }

    #[test]
    fn rng_rule_names_the_sanctioned_helper() {
        let got = run_matchers(
            "crates/core/src/engine.rs",
            "StdRng::seed_from_u64(seed)",
            &lex("StdRng::seed_from_u64(seed)"),
            &[],
        );
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("lane_rng"));
    }

    #[test]
    fn zero_alloc_region_bounds_are_respected() {
        let src = "fn f() { let a = x.clone(); } fn g() { let b = y.clone(); }";
        let toks: Vec<_> = lex(src).into_iter().filter(|t| !t.is_comment()).collect();
        let region_end = src.find('}').unwrap() + 1;
        let got = run_matchers("crates/nn/src/x.rs", src, &toks, &[(0, region_end)]);
        assert_eq!(got.len(), 1, "only the first clone is inside the region");
        assert!(got[0].offset < region_end);
    }

    #[test]
    fn every_scoped_path_exists_in_the_workspace() {
        // A deleted or renamed file must not silently drop out of a
        // contract rule's scope.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for def in RULES {
            for path in def.include.iter().chain(def.exclude) {
                assert!(
                    root.join(path).exists(),
                    "rule `{}` scopes `{path}`, which does not exist",
                    def.id
                );
            }
        }
    }
}
