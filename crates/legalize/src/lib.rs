//! 2-D legal pattern assessment (paper §III-D).
//!
//! Given a generated topology matrix and a set of design rules, DiffPattern
//! restores a *legal* layout pattern by solving for geometric vectors Δx,
//! Δy satisfying the nonlinear system of paper Eq. 14:
//!
//! ```text
//! δx_i, δy_j > 0                                   positivity
//! Σ δx_i = √C·M,  Σ δy_j = √C·M                     window pinning
//! Σ_{i∈[a,b)} δ ≥ Space_min      ∀ (a,b) ∈ Set_S    spacing
//! Σ_{i∈[a,b)} δ ≥ Width_min      ∀ (a,b) ∈ Set_W    width
//! Σ δx_i·δy_j ∈ [Area_min, Area_max]  ∀ polygon     area
//! ```
//!
//! Everything except the bilinear area family is linear, so the solver uses
//! alternating projections (deficit spreading + sum re-projection) with an
//! exact first-order correction step for the area constraints, then rounds
//! to the integer nanometre grid with sum preservation. A solution is only
//! returned after it passes the *independent* oracle
//! [`dp_drc::ConstraintSet::is_satisfied`], so "legal by construction"
//! really holds (this is cross-checked against the full DRC engine in the
//! tests).
//!
//! Two entry points mirror the paper's Table II:
//!
//! * **Solving-R** — random initialisation ([`Solver::solve`] with
//!   [`Init::Random`]),
//! * **Solving-E** — initialisation from an existing pattern's geometric
//!   vectors, which the paper reports converging ~2.3x faster
//!   ([`Init::Existing`]).
//!
//! Multiple distinct solutions for a single topology (paper Fig. 7,
//! DiffPattern-L) come from [`Solver::solve_many`].
//!
//! # Example
//!
//! ```
//! use dp_drc::DesignRules;
//! use dp_geometry::BitGrid;
//! use dp_legalize::{Init, Solver, SolverConfig};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topology = BitGrid::from_ascii(
//!     ".....
//!      .#.#.
//!      .#.#.
//!      .....",
//! )?;
//! let rules = DesignRules::standard();
//! let solver = Solver::new(rules, SolverConfig::for_window(2048, 2048));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let solution = solver.solve(&topology, Init::Random, &mut rng)?;
//! assert_eq!(solution.dx.iter().sum::<i64>(), 2048);
//! assert_eq!(solution.dy.iter().sum::<i64>(), 2048);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod rounding;
mod solver;

pub use error::SolveError;
pub use rounding::round_preserving_sum;
pub use solver::{Init, Solution, SolveStats, Solver, SolverConfig};
