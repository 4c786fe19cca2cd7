//! The CAE baseline (paper ref. \[7\], "DeePattern"): a convolutional
//! auto-encoder over squish topology matrices. New topologies are produced
//! by perturbing the latent code of a training sample and thresholding the
//! decoder's continuous output — the "clip a grayscale image" pipeline the
//! paper argues against.

use crate::ae::{bce_with_logits, grids_to_tensor, logits_to_grid, AeConfig, Decoder, Encoder};
use dp_geometry::BitGrid;
use dp_nn::{Adam, AdamConfig, Tensor};
use rand::Rng;

/// The convolutional auto-encoder baseline.
#[derive(Debug, Clone)]
pub struct Cae {
    encoder: Encoder,
    decoder: Decoder,
    adam: Adam,
    config: AeConfig,
}

impl Cae {
    /// Creates an untrained model.
    pub fn new(config: AeConfig, rng: &mut impl Rng) -> Self {
        Cae {
            encoder: Encoder::new(config, config.latent, rng),
            decoder: Decoder::new(config, rng),
            adam: Adam::new(AdamConfig {
                lr: 2e-3,
                ..AdamConfig::default()
            }),
            config,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &AeConfig {
        &self.config
    }

    /// Trains the reconstruction objective for `iterations` mini-batches;
    /// returns the per-iteration BCE losses.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset or grids that do not match the
    /// configured side.
    pub fn train(
        &mut self,
        dataset: &[BitGrid],
        iterations: usize,
        batch: usize,
        rng: &mut impl Rng,
    ) -> Vec<f64> {
        assert!(!dataset.is_empty(), "empty dataset");
        let mut losses = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            let items: Vec<&BitGrid> = (0..batch.max(1))
                .map(|_| &dataset[rng.gen_range(0..dataset.len())])
                .collect();
            let x = grids_to_tensor(&items, self.config.side);
            let z = self.encoder.forward(&x);
            let logits = self.decoder.forward(&z);
            let (loss, grad) = bce_with_logits(&logits, &x);
            losses.push(loss);
            let gz = self.decoder.backward(&grad);
            let _ = self.encoder.backward(&gz);
            let mut params = self.encoder.params_mut();
            params.extend(self.decoder.params_mut());
            self.adam.step(&mut params);
        }
        losses
    }

    /// Generates a topology by encoding a random training sample, adding
    /// Gaussian noise of scale `noise_std` to the latent, decoding and
    /// thresholding.
    ///
    /// # Panics
    ///
    /// Panics on an empty seed set.
    pub fn generate(&mut self, seeds: &[BitGrid], noise_std: f32, rng: &mut impl Rng) -> BitGrid {
        assert!(!seeds.is_empty(), "empty seed set");
        let seed = &seeds[rng.gen_range(0..seeds.len())];
        let x = grids_to_tensor(&[seed], self.config.side);
        let z = self.encoder.forward(&x);
        let noise = Tensor::randn(z.shape(), noise_std, rng);
        let z = z.add(&noise);
        let logits = self.decoder.forward(&z);
        logits_to_grid(&logits, 0, self.config.side)
    }

    /// Mean BCE of reconstructing `grid` without noise — the validity
    /// metric's score.
    pub(crate) fn reconstruction_error(&mut self, grid: &BitGrid) -> f64 {
        let x = grids_to_tensor(&[grid], self.config.side);
        let z = self.encoder.forward(&x);
        let logits = self.decoder.forward(&z);
        bce_with_logits(&logits, &x).0
    }

    /// Reconstructs a grid without noise (diagnostic).
    pub fn reconstruct(&mut self, grid: &BitGrid) -> BitGrid {
        let x = grids_to_tensor(&[grid], self.config.side);
        let z = self.encoder.forward(&x);
        let logits = self.decoder.forward(&z);
        logits_to_grid(&logits, 0, self.config.side)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn dataset(side: usize) -> Vec<BitGrid> {
        // Bar patterns at several positions/widths.
        let mut out = Vec::new();
        for start in (2..side - 4).step_by(3) {
            let mut g = BitGrid::new(side, side).unwrap();
            g.fill_cells(start, 2, start + 2, side - 2);
            out.push(g);
        }
        out
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let config = AeConfig {
            side: 16,
            features: 4,
            latent: 8,
        };
        let mut cae = Cae::new(config, &mut rng);
        let data = dataset(16);
        let losses = cae.train(&data, 60, 4, &mut rng);
        let head: f64 = losses[..10].iter().sum::<f64>() / 10.0;
        let tail: f64 = losses[losses.len() - 10..].iter().sum::<f64>() / 10.0;
        assert!(tail < head * 0.8, "head {head} tail {tail}");
    }

    #[test]
    fn generation_has_plausible_shape() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let config = AeConfig {
            side: 16,
            features: 4,
            latent: 8,
        };
        let mut cae = Cae::new(config, &mut rng);
        let data = dataset(16);
        let _ = cae.train(&data, 80, 4, &mut rng);
        let g = cae.generate(&data, 0.3, &mut rng);
        assert_eq!((g.width(), g.height()), (16, 16));
    }

    #[test]
    fn trained_reconstruction_beats_untrained() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let config = AeConfig {
            side: 16,
            features: 4,
            latent: 16,
        };
        let data = dataset(16);
        let mut untrained = Cae::new(config, &mut rng);
        let mut trained = untrained.clone();
        let _ = trained.train(&data, 120, 4, &mut rng);
        let err = |cae: &mut Cae| -> usize {
            data.iter()
                .map(|g| {
                    let r = cae.reconstruct(g);
                    g.cells()
                        .iter()
                        .zip(r.cells())
                        .filter(|(a, b)| a != b)
                        .count()
                })
                .sum()
        };
        let e_trained = err(&mut trained);
        let e_untrained = err(&mut untrained);
        assert!(
            e_trained < e_untrained,
            "trained {e_trained} vs untrained {e_untrained}"
        );
    }
}
