use crate::rounding::round_preserving_sum;
use crate::SolveError;
use dp_drc::{ConstraintSet, DesignRules};
use dp_geometry::{BitGrid, Coord};
use dp_squish::SquishPattern;
use rand::Rng;

/// Projection iterations per attempt.
const MAX_ITERATIONS: usize = 500;
/// Random restarts before reporting infeasibility.
const MAX_RESTARTS: usize = 8;
/// Slack in nm added to the linear minima during the continuous solve
/// so integer rounding cannot break them.
const MARGIN: f64 = 2.0;

/// Solver configuration: the window the Δ vectors must fill. The
/// budget is fixed at 9 attempts of 500 projection passes, so no
/// configuration can make one solve run unboundedly long.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Required Σ Δx (the tile width, paper: 2048 nm).
    pub target_width: Coord,
    /// Required Σ Δy.
    pub target_height: Coord,
}

impl SolverConfig {
    /// The configuration for a `width x height` window.
    pub fn for_window(width: Coord, height: Coord) -> Self {
        SolverConfig {
            target_width: width,
            target_height: height,
        }
    }
}

/// Initialisation strategy — the Solving-R / Solving-E distinction of
/// paper Table II.
#[derive(Debug, Clone, Copy)]
pub enum Init<'a> {
    /// Solving-R: random positive intervals, scaled to the window.
    Random,
    /// Solving-E: start from an existing pattern's geometric vectors
    /// (resampled to the topology's variable counts when lengths differ).
    /// The paper reports this converging ~2.3x faster.
    Existing(&'a [Coord], &'a [Coord]),
}

/// Convergence statistics for one successful solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Projection iterations spent (across restarts).
    pub iterations: usize,
    /// Restarts used (0 = first attempt succeeded).
    pub restarts: usize,
}

/// A legal geometric-vector assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// Interval lengths along x (sum = `target_width`).
    pub dx: Vec<Coord>,
    /// Interval lengths along y (sum = `target_height`).
    pub dy: Vec<Coord>,
    /// Convergence statistics.
    pub stats: SolveStats,
}

/// The white-box legalization solver (paper §III-D).
#[derive(Debug, Clone)]
pub struct Solver {
    rules: DesignRules,
    config: SolverConfig,
}

impl Solver {
    /// Creates a solver for the given rules and window configuration.
    pub fn new(rules: DesignRules, config: SolverConfig) -> Self {
        Solver { rules, config }
    }

    /// The rules in force.
    pub fn rules(&self) -> &DesignRules {
        &self.rules
    }

    /// The configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Solves Eq. 14 for `topology`, returning integer Δ vectors that the
    /// independent DRC oracle accepts.
    ///
    /// # Errors
    ///
    /// * [`SolveError::WindowTooSmall`] when the topology has more scan
    ///   intervals than nanometres available,
    /// * [`SolveError::Infeasible`] when the iteration/restart budget is
    ///   exhausted (the caller should drop the topology, as the paper
    ///   does).
    pub fn solve(
        &self,
        topology: &BitGrid,
        init: Init<'_>,
        rng: &mut impl Rng,
    ) -> Result<Solution, SolveError> {
        let cols = topology.width();
        let rows = topology.height();
        if (cols as i64) > self.config.target_width {
            return Err(SolveError::WindowTooSmall {
                variables: cols,
                target: self.config.target_width,
            });
        }
        if (rows as i64) > self.config.target_height {
            return Err(SolveError::WindowTooSmall {
                variables: rows,
                target: self.config.target_height,
            });
        }
        let constraints = ConstraintSet::extract(topology, &self.rules);

        let mut total_iterations = 0;
        for restart in 0..=MAX_RESTARTS {
            // Solving-E applies to the first attempt; restarts re-randomise.
            let (mut u, mut v) = match (restart, init) {
                (0, Init::Existing(dx, dy)) => (
                    resample(dx, cols, self.config.target_width as f64),
                    resample(dy, rows, self.config.target_height as f64),
                ),
                _ => (
                    random_intervals(cols, self.config.target_width as f64, rng),
                    random_intervals(rows, self.config.target_height as f64, rng),
                ),
            };

            for iteration in 0..MAX_ITERATIONS {
                total_iterations += 1;
                let satisfied = self.projection_pass(&constraints, &mut u, &mut v);
                if satisfied {
                    if let Some(solution) = self.round_and_validate(&constraints, &u, &v) {
                        return Ok(Solution {
                            stats: SolveStats {
                                iterations: total_iterations,
                                restarts: restart,
                            },
                            ..solution
                        });
                    }
                    // Rounding broke a constraint: jitter slightly and keep
                    // iterating with the margin doing its work.
                    let _ = iteration;
                }
            }
        }
        Err(SolveError::Infeasible {
            iterations: MAX_ITERATIONS,
            restarts: MAX_RESTARTS,
        })
    }

    /// Draws up to `count` *distinct* legal assignments for one topology
    /// (paper Fig. 7 / DiffPattern-L), making `count` attempts. Attempts
    /// that fail or duplicate an earlier solution are dropped, so the
    /// result can be shorter than `count`.
    pub fn solve_many(
        &self,
        topology: &BitGrid,
        count: usize,
        rng: &mut impl Rng,
    ) -> Vec<Solution> {
        let mut solutions: Vec<Solution> = Vec::new();
        for _ in 0..count {
            if let Ok(s) = self.solve(topology, Init::Random, rng) {
                if !solutions.iter().any(|o| o.dx == s.dx && o.dy == s.dy) {
                    solutions.push(s);
                }
            }
        }
        solutions
    }

    /// Convenience: solve and assemble the full squish pattern.
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from [`Solver::solve`].
    pub fn legal_pattern(
        &self,
        topology: &BitGrid,
        init: Init<'_>,
        rng: &mut impl Rng,
    ) -> Result<SquishPattern, SolveError> {
        let solution = self.solve(topology, init, rng)?;
        Ok(
            SquishPattern::new(topology.clone(), solution.dx, solution.dy)
                .expect("solver output matches topology shape"),
        )
    }

    /// One alternating-projection pass. Returns `true` when every
    /// constraint already held (with margin) *before* any fix was applied.
    fn projection_pass(&self, cs: &ConstraintSet, u: &mut [f64], v: &mut [f64]) -> bool {
        let mut satisfied = true;
        let width_req = self.rules.width_min() as f64 + MARGIN;
        let space_req = self.rules.space_min() as f64 + MARGIN;

        for &(a, b) in cs.x_width() {
            satisfied &= !raise_range(u, a, b, width_req);
        }
        for &(a, b) in cs.x_space() {
            satisfied &= !raise_range(u, a, b, space_req);
        }
        project_sum(u, self.config.target_width as f64);
        for &(a, b) in cs.y_width() {
            satisfied &= !raise_range(v, a, b, width_req);
        }
        for &(a, b) in cs.y_space() {
            satisfied &= !raise_range(v, a, b, space_req);
        }
        project_sum(v, self.config.target_height as f64);

        // Area constraints: one exact first-order correction per polygon.
        let span = (self.rules.area_max() - self.rules.area_min()) as f64;
        let area_margin = (span * 0.02).min(64.0) + MARGIN;
        let lo = self.rules.area_min() as f64 + area_margin;
        let hi = self.rules.area_max() as f64 - area_margin;
        for cells in cs.polygons() {
            let area: f64 = cells.iter().map(|&(c, r)| u[c] * v[r]).sum();
            let target = if area < lo {
                lo
            } else if area > hi {
                hi
            } else {
                continue;
            };
            satisfied = false;
            area_step(cells, u, v, area, target);
        }
        if !satisfied {
            project_sum(u, self.config.target_width as f64);
            project_sum(v, self.config.target_height as f64);
        }
        satisfied
    }

    /// Rounds the continuous point to the integer grid and validates it
    /// against the independent oracle.
    fn round_and_validate(&self, cs: &ConstraintSet, u: &[f64], v: &[f64]) -> Option<Solution> {
        let dx = round_preserving_sum(u, self.config.target_width, 1)?;
        let dy = round_preserving_sum(v, self.config.target_height, 1)?;
        cs.is_satisfied(&dx, &dy, &self.rules).then(|| Solution {
            dx,
            dy,
            stats: SolveStats::default(),
        })
    }
}

/// Raises `values[a..b]` so their sum reaches `required`; returns `true`
/// when a fix was needed.
fn raise_range(values: &mut [f64], a: usize, b: usize, required: f64) -> bool {
    let sum: f64 = values[a..b].iter().sum();
    if sum >= required {
        return false;
    }
    let bump = (required - sum) / (b - a) as f64;
    for value in &mut values[a..b] {
        *value += bump;
    }
    true
}

/// Projects onto `{ x >= 1, Σx = target }`.
fn project_sum(values: &mut [f64], target: f64) {
    const MIN: f64 = 1.0;
    for _ in 0..16 {
        let sum: f64 = values.iter().sum();
        let err = target - sum;
        if err.abs() < 1e-9 {
            return;
        }
        if err > 0.0 {
            let each = err / values.len() as f64;
            for v in values.iter_mut() {
                *v += each;
            }
        } else {
            let slack: f64 = values.iter().map(|v| (v - MIN).max(0.0)).sum();
            if slack <= 0.0 {
                for v in values.iter_mut() {
                    *v = MIN;
                }
                return;
            }
            let ratio = ((slack + err).max(0.0)) / slack;
            for v in values.iter_mut() {
                *v = MIN + (*v - MIN).max(0.0) * ratio;
            }
        }
    }
}

/// Moves a polygon's area to `target` with one first-order step along the
/// area gradient, clamping entries at 1.
fn area_step(cells: &[(usize, usize)], u: &mut [f64], v: &mut [f64], area: f64, target: f64) {
    let mut gu = vec![0.0f64; u.len()];
    let mut gv = vec![0.0f64; v.len()];
    for &(c, r) in cells {
        gu[c] += v[r];
        gv[r] += u[c];
    }
    let norm_sq: f64 =
        gu.iter().map(|g| g * g).sum::<f64>() + gv.iter().map(|g| g * g).sum::<f64>();
    if norm_sq <= 1e-12 {
        return;
    }
    let t = (target - area) / norm_sq;
    for (value, g) in u.iter_mut().zip(&gu) {
        *value = (*value + t * g).max(1.0);
    }
    for (value, g) in v.iter_mut().zip(&gv) {
        *value = (*value + t * g).max(1.0);
    }
}

/// Random positive intervals scaled to sum to `target`.
fn random_intervals(n: usize, target: f64, rng: &mut impl Rng) -> Vec<f64> {
    let mut values: Vec<f64> = (0..n).map(|_| rng.gen_range(0.2..1.8)).collect();
    let sum: f64 = values.iter().sum();
    for v in &mut values {
        *v *= target / sum;
        *v = v.max(1.0);
    }
    values
}

/// Resamples an existing Δ vector onto `n` variables, preserving the
/// profile shape, then scales to `target` (Solving-E initialisation).
fn resample(existing: &[Coord], n: usize, target: f64) -> Vec<f64> {
    if existing.is_empty() {
        return vec![target / n as f64; n];
    }
    let mut values: Vec<f64> = (0..n)
        .map(|i| {
            let src = i * existing.len() / n;
            existing[src] as f64
        })
        .collect();
    let sum: f64 = values.iter().sum();
    if sum <= 0.0 {
        return vec![target / n as f64; n];
    }
    for v in &mut values {
        *v *= target / sum;
        *v = v.max(1.0);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rules() -> DesignRules {
        DesignRules::standard()
    }

    fn solver() -> Solver {
        Solver::new(rules(), SolverConfig::for_window(2048, 2048))
    }

    fn two_bars() -> BitGrid {
        BitGrid::from_ascii(
            ".....
             .#.#.
             .#.#.
             .....",
        )
        .unwrap()
    }

    #[test]
    fn solves_simple_topology() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let s = solver().solve(&two_bars(), Init::Random, &mut rng).unwrap();
        assert_eq!(s.dx.len(), 5);
        assert_eq!(s.dy.len(), 4);
        assert_eq!(s.dx.iter().sum::<Coord>(), 2048);
        assert_eq!(s.dy.iter().sum::<Coord>(), 2048);
        let cs = ConstraintSet::extract(&two_bars(), &rules());
        assert!(cs.is_satisfied(&s.dx, &s.dy, &rules()));
    }

    #[test]
    fn solutions_pass_full_drc() {
        // The decisive cross-check: a solved pattern must be clean under the
        // *complete* DRC engine, not just the constraint oracle.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let topo = BitGrid::from_ascii(
            ".......
             .##.##.
             .#...#.
             .#.###.
             .......",
        )
        .unwrap();
        let pattern = solver()
            .legal_pattern(&topo, Init::Random, &mut rng)
            .unwrap();
        let report = dp_drc::check_pattern(&pattern, &rules());
        assert!(report.is_clean(), "{:?}", report.violations());
    }

    #[test]
    fn empty_topology_is_trivially_legal() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let topo = BitGrid::new(8, 8).unwrap();
        let s = solver().solve(&topo, Init::Random, &mut rng).unwrap();
        assert_eq!(s.dx.iter().sum::<Coord>(), 2048);
        assert!(s.dx.iter().all(|&d| d >= 1));
    }

    #[test]
    fn window_too_small_is_detected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let topo = BitGrid::new(16, 16).unwrap();
        let tiny = Solver::new(rules(), SolverConfig::for_window(8, 2048));
        assert!(matches!(
            tiny.solve(&topo, Init::Random, &mut rng),
            Err(SolveError::WindowTooSmall { .. })
        ));
    }

    #[test]
    fn infeasible_rules_are_reported() {
        // space_min + width_min far beyond what the window can hold for a
        // dense comb topology.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let topo = BitGrid::from_ascii(
            "........
             .#.#.#.#
             .#.#.#.#
             ........",
        )
        .unwrap();
        let harsh = DesignRules::builder()
            .space_min(400)
            .width_min(400)
            .area_range(1, i128::MAX / 4)
            .build()
            .unwrap();
        let s = Solver::new(harsh, SolverConfig::for_window(1000, 1000));
        assert!(matches!(
            s.solve(&topo, Init::Random, &mut rng),
            Err(SolveError::Infeasible { .. })
        ));
    }

    #[test]
    fn infeasible_solve_stops_at_the_fixed_budget() {
        // In any window a solve gives up after 9 attempts of 500 passes;
        // the default spec's output bytes depend on these numbers.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let topo = BitGrid::from_ascii(
            ".#.#.#.#
             .#.#.#.#",
        )
        .unwrap();
        let harsh = DesignRules::builder()
            .space_min(400)
            .width_min(400)
            .area_range(1, i128::MAX / 4)
            .build()
            .unwrap();
        for (w, h) in [(1000, 1000), (2048, 2048)] {
            let s = Solver::new(harsh, SolverConfig::for_window(w, h));
            assert_eq!(
                s.solve(&topo, Init::Random, &mut rng),
                Err(SolveError::Infeasible {
                    iterations: 500,
                    restarts: 8
                })
            );
        }
    }

    #[test]
    fn solving_e_initialisation_works() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        // Use a legal existing pattern's deltas (same shape here).
        let dx = vec![400, 300, 300, 300, 748];
        let dy = vec![500, 500, 500, 548];
        let s = solver()
            .solve(&two_bars(), Init::Existing(&dx, &dy), &mut rng)
            .unwrap();
        let cs = ConstraintSet::extract(&two_bars(), &rules());
        assert!(cs.is_satisfied(&s.dx, &s.dy, &rules()));
    }

    #[test]
    fn solving_e_with_mismatched_lengths() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let dx = vec![1024, 1024];
        let dy = vec![2048];
        let s = solver()
            .solve(&two_bars(), Init::Existing(&dx, &dy), &mut rng)
            .unwrap();
        assert_eq!(s.dx.len(), 5);
        assert_eq!(s.dy.len(), 4);
    }

    #[test]
    fn solve_many_returns_at_most_count_and_none_when_infeasible() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let solutions = solver().solve_many(&two_bars(), 6, &mut rng);
        assert!(!solutions.is_empty() && solutions.len() <= 6);
        // Infeasible rules: every attempt fails, so nothing comes back.
        let harsh = DesignRules::builder()
            .space_min(400)
            .width_min(400)
            .area_range(1, i128::MAX / 4)
            .build()
            .unwrap();
        let s = Solver::new(harsh, SolverConfig::for_window(1000, 1000));
        let topo = BitGrid::from_ascii(
            "........
             .#.#.#.#
             .#.#.#.#
             ........",
        )
        .unwrap();
        assert!(s.solve_many(&topo, 4, &mut rng).is_empty());
    }

    #[test]
    fn solve_many_produces_distinct_solutions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let solutions = solver().solve_many(&two_bars(), 6, &mut rng);
        assert!(solutions.len() >= 4, "only {} solutions", solutions.len());
        for (i, a) in solutions.iter().enumerate() {
            for b in &solutions[i + 1..] {
                assert!(a.dx != b.dx || a.dy != b.dy, "duplicate solutions");
            }
        }
        let cs = ConstraintSet::extract(&two_bars(), &rules());
        for s in &solutions {
            assert!(cs.is_satisfied(&s.dx, &s.dy, &rules()));
        }
    }

    #[test]
    fn different_rules_give_legal_patterns_from_same_topology() {
        // Paper Fig. 8: same topology, three rule sets.
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let topo = two_bars();
        for rules in [
            DesignRules::standard(),
            DesignRules::larger_space(),
            DesignRules::smaller_area(),
        ] {
            let s = Solver::new(rules, SolverConfig::for_window(2048, 2048));
            let pattern = s.legal_pattern(&topo, Init::Random, &mut rng).unwrap();
            let report = dp_drc::check_pattern(&pattern, &rules);
            assert!(
                report.is_clean(),
                "rules {rules}: {:?}",
                report.violations()
            );
        }
    }

    #[test]
    fn stats_are_recorded() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let s = solver().solve(&two_bars(), Init::Random, &mut rng).unwrap();
        assert!(s.stats.iterations >= 1);
        assert_eq!(s.stats.restarts, 0);
    }
}
