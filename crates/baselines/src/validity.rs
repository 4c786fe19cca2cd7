//! The *pattern validity* metric of Zhang et al. (paper ref. \[8\]) — and
//! the reason DiffPattern refuses to be scored by it (paper §IV-F).
//!
//! Validity scores a generated pattern by how well an encoder-decoder
//! model *pre-trained on the training set* can reconstruct it: patterns
//! that share features with the training distribution reconstruct well and
//! score high. The paper's §IV-F argues the metric is counterproductive
//! for pattern libraries — legal-but-novel patterns (the whole point of
//! generation) score *worse* than memorised ones, and prior work's
//! generated sets even outscored the held-out test set, a tell-tale sign
//! the metric rewards overfitting. This module implements the metric
//! faithfully so the critique can be demonstrated quantitatively (see
//! `examples/validity_critique.rs`).

use crate::{AeConfig, Cae};
use dp_geometry::BitGrid;
use rand::Rng;

/// An encoder-decoder validity scorer in the style of paper ref. \[8\]: a
/// [`Cae`] trained on the training set, plus its calibrated threshold.
#[derive(Debug, Clone)]
pub struct ValidityScorer {
    cae: Cae,
    /// Reconstruction-error threshold calibrated on the training set
    /// (95th percentile); patterns below it count as "valid".
    threshold: f64,
}

impl ValidityScorer {
    /// Pre-trains the scorer on the training grids.
    ///
    /// # Panics
    ///
    /// Panics on an empty training set or mismatched grid sides.
    pub fn fit(
        config: AeConfig,
        training: &[BitGrid],
        iterations: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!training.is_empty(), "empty training set");
        let mut cae = Cae::new(config, rng);
        cae.train(training, iterations, 8, rng);
        // Calibrate: the 95th percentile of training reconstruction errors.
        let mut errors: Vec<f64> = training
            .iter()
            .map(|g| cae.reconstruction_error(g))
            .collect();
        errors.sort_by(|a, b| a.partial_cmp(b).expect("finite BCE"));
        let idx = (errors.len() * 95) / 100;
        let threshold = errors[idx.min(errors.len() - 1)];
        ValidityScorer { cae, threshold }
    }

    /// Reconstruction error (mean BCE) of one topology — lower = "more
    /// valid" under the metric's logic.
    ///
    /// # Panics
    ///
    /// Panics when the grid side does not match the configuration.
    pub fn error(&mut self, grid: &BitGrid) -> f64 {
        self.cae.reconstruction_error(grid)
    }

    /// Fraction of a set scoring "valid" — the percentage prior work
    /// reports.
    pub fn validity_pct(&mut self, grids: &[BitGrid]) -> f64 {
        if grids.is_empty() {
            return 0.0;
        }
        let valid = grids
            .iter()
            .filter(|g| self.error(g) <= self.threshold)
            .count();
        100.0 * valid as f64 / grids.len() as f64
    }

    /// The calibrated error threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn bars(side: usize, start: usize) -> BitGrid {
        let mut g = BitGrid::new(side, side).unwrap();
        g.fill_cells(start, 2, start + 2, side - 2);
        g
    }

    #[test]
    fn training_patterns_score_better_than_noise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let config = AeConfig {
            side: 16,
            features: 4,
            latent: 8,
        };
        let training: Vec<BitGrid> = (2..12).map(|s| bars(16, s)).collect();
        let mut scorer = ValidityScorer::fit(config, &training, 150, &mut rng);

        let train_err = scorer.error(&training[0]);
        let mut noise = BitGrid::new(16, 16).unwrap();
        use rand::Rng;
        for r in 0..16 {
            for c in 0..16 {
                noise.set(c, r, rng.gen_bool(0.5));
            }
        }
        let noise_err = scorer.error(&noise);
        assert!(
            train_err < noise_err,
            "training {train_err} vs noise {noise_err}"
        );
    }

    #[test]
    fn calibration_accepts_most_training_patterns() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let config = AeConfig {
            side: 16,
            features: 4,
            latent: 8,
        };
        let training: Vec<BitGrid> = (2..12).map(|s| bars(16, s)).collect();
        let mut scorer = ValidityScorer::fit(config, &training, 150, &mut rng);
        let pct = scorer.validity_pct(&training);
        assert!(pct >= 90.0, "training validity {pct}%");
    }

    #[test]
    fn novel_legal_patterns_can_score_worse_than_memorised() {
        // The paper's §IV-F critique in miniature: a perfectly legal but
        // *novel* pattern family (horizontal bars) scores worse under a
        // scorer trained only on vertical bars — the metric punishes
        // exactly the novelty a pattern library needs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let config = AeConfig {
            side: 16,
            features: 4,
            latent: 8,
        };
        let training: Vec<BitGrid> = (2..12).map(|s| bars(16, s)).collect();
        let mut scorer = ValidityScorer::fit(config, &training, 200, &mut rng);

        let memorised_err: f64 =
            training.iter().map(|g| scorer.error(g)).sum::<f64>() / training.len() as f64;
        // Novel family: transposed bars.
        let novel: Vec<BitGrid> = training.iter().map(|g| g.transposed()).collect();
        let novel_err: f64 =
            novel.iter().map(|g| scorer.error(g)).sum::<f64>() / novel.len() as f64;
        assert!(
            novel_err > memorised_err,
            "novel {novel_err} should score worse than memorised {memorised_err}"
        );
    }
}
