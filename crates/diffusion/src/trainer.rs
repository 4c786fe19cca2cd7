use crate::loss::{vb_loss_and_grad, LossReport};
use crate::schedule::{forward_sample, NoiseSchedule};
use crate::{DiffusionError, NeuralDenoiser, TrainedModel};
use dp_nn::{Adam, AdamConfig, UNet, UNetConfig};
use dp_squish::DeepSquishTensor;
use rand::Rng;

/// Training configuration (defaults mirror the paper's §IV-A setup at
/// reduced scale: Adam, learning rate 2e-4, gradient clip 1.0, λ = 0.001,
/// K = 1000 with β linearly 0.01 → 0.5).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Mini-batch size (paper: 128).
    pub batch_size: usize,
    /// Loss balance λ between the KL and auxiliary CE terms.
    pub lambda: f64,
    /// Diffusion steps `K`.
    pub diffusion_steps: usize,
    /// β at step 1.
    pub beta1: f64,
    /// β at step K.
    pub beta_k: f64,
    /// Optimizer settings.
    pub adam: AdamConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            batch_size: 16,
            lambda: 0.001,
            diffusion_steps: 1000,
            beta1: 0.01,
            beta_k: 0.5,
            adam: AdamConfig::default(),
        }
    }
}

/// Loss history of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Per-iteration loss summaries.
    pub losses: Vec<LossReport>,
}

impl TrainReport {
    /// Mean total loss over the first `n` iterations; NaN for an empty
    /// report, as zero training iterations leave. The window is capped at
    /// half the run (at least one iteration), so on two or more
    /// iterations it never overlaps [`TrainReport::tail_mean`]'s.
    pub fn head_mean(&self, n: usize) -> f64 {
        mean_total(&self.losses[..self.window(n)])
    }

    /// Mean total loss over the last `n` iterations, windowed as
    /// [`TrainReport::head_mean`].
    pub fn tail_mean(&self, n: usize) -> f64 {
        mean_total(&self.losses[self.losses.len() - self.window(n)..])
    }

    /// `n` capped at half the run, at least one iteration (zero for an
    /// empty report).
    fn window(&self, n: usize) -> usize {
        n.min(self.losses.len() / 2).max(1).min(self.losses.len())
    }
}

/// Mean total loss, `0 / 0 = NaN` for no losses.
fn mean_total(losses: &[LossReport]) -> f64 {
    losses.iter().map(|l| l.total).sum::<f64>() / losses.len() as f64
}

/// Drives discrete-diffusion training of a [`NeuralDenoiser`]: per
/// iteration it samples clean tensors from the dataset, corrupts them with
/// the closed-form forward process (Eq. 10), and descends the exact
/// variational-bound gradient (Eq. 9).
#[derive(Debug, Clone)]
pub struct Trainer {
    denoiser: NeuralDenoiser,
    adam: Adam,
    schedule: NoiseSchedule,
    config: TrainConfig,
    /// `(channels, side)` of the dataset last trained on — what
    /// [`Trainer::finish`] needs to freeze the fold geometry.
    trained_shape: Option<(usize, usize)>,
}

impl Trainer {
    /// Builds a trainer around a freshly initialised U-Net.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::BadSchedule`] for invalid schedule
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics when `unet_config.out_channels != 2 * unet_config.in_channels`
    /// (the denoiser head contract).
    pub fn new(
        unet_config: &UNetConfig,
        config: TrainConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, DiffusionError> {
        let schedule = NoiseSchedule::linear(config.diffusion_steps, config.beta1, config.beta_k)?;
        let denoiser = NeuralDenoiser::new(UNet::new(unet_config, rng));
        let adam = Adam::new(config.adam);
        Ok(Trainer {
            denoiser,
            adam,
            schedule,
            config,
            trained_shape: None,
        })
    }

    /// The noise schedule in use.
    pub fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }

    /// Shared access to the denoiser (for `&self` inference).
    pub fn denoiser(&self) -> &NeuralDenoiser {
        &self.denoiser
    }

    /// Consumes the trainer and freezes its state into an immutable,
    /// shareable [`TrainedModel`] — the training/inference hand-off point.
    ///
    /// # Errors
    ///
    /// [`DiffusionError::NotTrained`] when [`Trainer::train`] never ran
    /// (the fold geometry is unknown), [`DiffusionError::BadModelBlob`]
    /// when the trained channel count is not a perfect square.
    pub fn finish(self) -> Result<TrainedModel, DiffusionError> {
        let (_, side) = self.trained_shape.ok_or(DiffusionError::NotTrained)?;
        TrainedModel::new(self.denoiser, self.schedule, side)
    }

    /// Runs `iterations` optimisation steps over `dataset`.
    ///
    /// The steps run on the calling thread, GEMMs included.
    ///
    /// # Errors
    ///
    /// * [`DiffusionError::EmptyDataset`] for an empty dataset,
    /// * [`DiffusionError::ShapeMismatch`] when tensors disagree in shape or
    ///   do not match the network's input channels.
    pub fn train(
        &mut self,
        dataset: &[DeepSquishTensor],
        iterations: usize,
        rng: &mut impl Rng,
    ) -> Result<TrainReport, DiffusionError> {
        if dataset.is_empty() {
            return Err(DiffusionError::EmptyDataset);
        }
        let channels = dataset[0].channels();
        let side = dataset[0].side();
        for t in dataset {
            if (t.channels(), t.side()) != (channels, side) {
                return Err(DiffusionError::ShapeMismatch {
                    expected: (channels, side),
                    actual: (t.channels(), t.side()),
                });
            }
        }
        if channels != self.denoiser.channels() {
            return Err(DiffusionError::ShapeMismatch {
                expected: (self.denoiser.channels(), side),
                actual: (channels, side),
            });
        }

        self.trained_shape = Some((channels, side));
        // Dropout is active only while optimising (paper §IV-A trains with
        // dropout 0.1); sampling afterwards runs the deterministic network.
        self.denoiser.unet_mut().set_training(true);
        let mut report = TrainReport::default();
        for _ in 0..iterations {
            report.losses.push(self.train_step(dataset, rng));
        }
        self.denoiser.unet_mut().set_training(false);
        Ok(report)
    }

    /// One optimisation step; returns its loss summary.
    fn train_step(&mut self, dataset: &[DeepSquishTensor], rng: &mut impl Rng) -> LossReport {
        let batch = self.config.batch_size.min(dataset.len()).max(1);
        let mut x0s = Vec::with_capacity(batch);
        let mut xks = Vec::with_capacity(batch);
        let mut ks = Vec::with_capacity(batch);
        for _ in 0..batch {
            let x0 = dataset[rng.gen_range(0..dataset.len())].clone();
            let k = rng.gen_range(1..=self.schedule.steps());
            xks.push(forward_sample(&x0, &self.schedule, k, rng));
            ks.push(k);
            x0s.push(x0);
        }
        let logits = self.denoiser.forward_logits(&xks, &ks);
        let (loss, grad) =
            vb_loss_and_grad(&x0s, &xks, &ks, &logits, &self.schedule, self.config.lambda);
        let _ = self.denoiser.unet_mut().backward(&grad);
        self.adam.step(&mut self.denoiser.unet_mut().params_mut());
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny_unet(channels: usize) -> UNetConfig {
        UNetConfig {
            in_channels: channels,
            out_channels: 2 * channels,
            base_channels: 8,
            channel_mults: vec![1, 2],
            num_res_blocks: 1,
            attn_resolutions: vec![1],
            time_dim: 16,
            groups: 4,
            dropout: 0.0,
        }
    }

    fn striped_dataset(side: usize) -> Vec<DeepSquishTensor> {
        // Two simple structured patterns: vertical and horizontal stripes.
        let mut data = Vec::new();
        for phase in 0..2 {
            let bits: Vec<bool> = (0..side * side).map(|i| (i % side) % 2 == phase).collect();
            data.push(DeepSquishTensor::from_bits(1, side, bits).unwrap());
            let bits: Vec<bool> = (0..side * side).map(|i| (i / side) % 2 == phase).collect();
            data.push(DeepSquishTensor::from_bits(1, side, bits).unwrap());
        }
        data
    }

    #[test]
    fn report_windows_cap_at_half_the_run_and_are_nan_when_empty() {
        let report = |totals: &[f64]| TrainReport {
            losses: totals
                .iter()
                .map(|&total| LossReport {
                    total,
                    kl: 0.0,
                    ce: 0.0,
                })
                .collect(),
        };
        let empty = report(&[]);
        assert!(empty.head_mean(50).is_nan());
        assert!(empty.tail_mean(50).is_nan());
        let one = report(&[5.0]);
        assert_eq!((one.head_mean(50), one.tail_mean(50)), (5.0, 5.0));
        let three = report(&[4.0, 2.0, 1.0]);
        assert_eq!(three.head_mean(2), 4.0);
        assert_eq!(three.tail_mean(2), 1.0);
        assert_eq!(three.head_mean(0), 4.0);
        assert_eq!(three.tail_mean(9), 1.0);
        // A falling 30-iteration run with a 50-iteration window: each
        // mean covers its own half, so the trend shows.
        let falling: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        let falling = report(&falling);
        assert_eq!(falling.head_mean(50), 23.0);
        assert_eq!(falling.tail_mean(50), 8.0);
        assert_eq!(falling.head_mean(4), 28.5);
        assert_eq!(falling.tail_mean(4), 2.5);
    }

    #[test]
    fn rejects_empty_dataset() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut t = Trainer::new(&tiny_unet(1), TrainConfig::default(), &mut rng).unwrap();
        assert!(matches!(
            t.train(&[], 1, &mut rng),
            Err(DiffusionError::EmptyDataset)
        ));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut t = Trainer::new(&tiny_unet(1), TrainConfig::default(), &mut rng).unwrap();
        let a = DeepSquishTensor::from_bits(1, 4, vec![false; 16]).unwrap();
        let b = DeepSquishTensor::from_bits(1, 8, vec![false; 64]).unwrap();
        assert!(matches!(
            t.train(&[a.clone(), b], 1, &mut rng),
            Err(DiffusionError::ShapeMismatch { .. })
        ));
        // Channel mismatch against the network.
        let c4 = DeepSquishTensor::from_bits(4, 4, vec![false; 64]).unwrap();
        assert!(matches!(
            t.train(&[c4], 1, &mut rng),
            Err(DiffusionError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn loss_decreases_on_tiny_dataset() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let config = TrainConfig {
            batch_size: 4,
            diffusion_steps: 50,
            adam: AdamConfig {
                lr: 3e-3,
                ..AdamConfig::default()
            },
            ..TrainConfig::default()
        };
        let mut trainer = Trainer::new(&tiny_unet(1), config, &mut rng).unwrap();
        let dataset = striped_dataset(8);
        let report = trainer.train(&dataset, 40, &mut rng).unwrap();
        let head = report.head_mean(8);
        let tail = report.tail_mean(8);
        assert!(
            tail < head * 0.9,
            "loss did not decrease: head {head} tail {tail}"
        );
    }

    #[test]
    fn trained_model_beats_uniform_at_denoising() {
        // After training, generated samples should be meaningfully more
        // structured (closer to the dataset) than uniform noise.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let config = TrainConfig {
            batch_size: 8,
            diffusion_steps: 30,
            adam: AdamConfig {
                lr: 3e-3,
                ..AdamConfig::default()
            },
            ..TrainConfig::default()
        };
        let mut trainer = Trainer::new(&tiny_unet(1), config, &mut rng).unwrap();
        let dataset = striped_dataset(8);
        let _ = trainer.train(&dataset, 60, &mut rng).unwrap();
        let model = trainer.finish().unwrap();
        let sampler = model.sampler();

        let min_dist = |t: &DeepSquishTensor| -> usize {
            dataset
                .iter()
                .map(|d| {
                    t.bits()
                        .iter()
                        .zip(d.bits())
                        .filter(|(a, b)| a != b)
                        .count()
                })
                .min()
                .unwrap()
        };
        let full = sampler.strided_steps(1);
        let mut draw = |d: &dyn crate::InferenceDenoiser| {
            let mut rngs: Vec<_> = (0..4)
                .map(|_| rand::rngs::StdRng::seed_from_u64(rng.gen()))
                .collect();
            sampler.sample_conditioned_batch_with(
                d,
                1,
                8,
                &full,
                &crate::Conditioning::none(),
                &mut rngs,
                &mut crate::BatchScratch::new(),
            )
        };
        let samples = draw(&model);
        let trained: usize = samples.iter().map(&min_dist).sum();
        let noise = draw(&crate::UniformDenoiser::new());
        let baseline: usize = noise.iter().map(min_dist).sum();
        assert!(
            trained < baseline,
            "trained distance {trained} not below uniform baseline {baseline}"
        );
    }
}
