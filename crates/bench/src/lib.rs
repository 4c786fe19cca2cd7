//! Shared fixtures for the benchmark harness.
//!
//! Each bench target regenerates one paper table or measures one design
//! choice:
//!
//! * `table1_generation` — per-pattern generation cost of every method in
//!   Table I (the quality numbers themselves come from
//!   `examples/table1_comparison.rs`),
//! * `table2_efficiency` — paper Table II: topology sampling time and
//!   Solving-R vs Solving-E,
//! * `ablation_fold` — the Deep Squish fold (paper §III-B): U-Net step
//!   cost as a function of the channel count at fixed information
//!   content,
//! * `ablation_schedule` — the noise schedule (paper Eq. 7–8):
//!   reverse-sampling cost vs K and mixing speed of linear vs constant β
//!   schedules,
//! * `solver_scaling` — Eq. 14 solve cost vs topology size, the context
//!   for Table II's absolute solving numbers.

use dp_geometry::{bowtie, BitGrid};
use rand::{Rng, SeedableRng};

/// A deterministic bow-tie-free topology with a few rectangles, shaped
/// like pre-filtered DiffPattern output.
pub fn bench_topology(seed: u64, side: usize) -> BitGrid {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut grid = BitGrid::new(side, side).expect("side > 0");
    for _ in 0..4 {
        let w = rng.gen_range(1..=side / 2);
        let h = rng.gen_range(1..=side / 2);
        let c0 = rng.gen_range(0..side - w + 1);
        let r0 = rng.gen_range(0..side - h + 1);
        grid.fill_cells(c0, r0, c0 + w, r0 + h);
    }
    bowtie::repair_bowties(&mut grid);
    grid
}

/// A small training set of squish patterns for Solving-E donors and the
/// sequence baseline.
pub fn bench_patterns() -> Vec<dp_squish::SquishPattern> {
    use dp_datagen::{split_into_tiles, GeneratorConfig, LayoutMapGenerator};
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let map = LayoutMapGenerator::new(GeneratorConfig::small()).generate(&mut rng);
    split_into_tiles(&map, 2048)
        .iter()
        .map(dp_squish::SquishPattern::encode)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_valid() {
        let t = bench_topology(0, 16);
        assert!(bowtie::is_bowtie_free(&t));
        assert!(!bench_patterns().is_empty());
    }
}
