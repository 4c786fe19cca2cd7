use crate::{ConfigError, PipelineError, RequestSpec};
use dp_datagen::{
    build_dataset, split_into_tiles, Dataset, DatasetConfig, GeneratorConfig, LayoutMapGenerator,
};
use dp_diffusion::{TrainConfig, TrainReport, TrainedModel, Trainer};
use dp_geometry::{Coord, Layout};
use dp_nn::UNetConfig;
use rand::Rng;

/// U-Net backbone hyper-parameters.
///
/// Deliberately *without* channel counts: the network's input width is
/// derived from [`DatasetConfig::channels`] (`in = C`, `out = 2C`, the
/// denoiser head contract), so the fold/width mismatch that the old
/// `validated()` assertion guarded against can no longer be constructed.
#[derive(Debug, Clone, PartialEq)]
pub struct BackboneConfig {
    /// Base feature width.
    pub base_channels: usize,
    /// Per-level channel multipliers; the number of levels is the length.
    pub channel_mults: Vec<usize>,
    /// Residual blocks per level.
    pub num_res_blocks: usize,
    /// Levels (0 = full resolution) that get self-attention blocks.
    pub attn_resolutions: Vec<usize>,
    /// Sinusoidal time-embedding dimensionality (must be even).
    pub time_dim: usize,
    /// GroupNorm group count.
    pub groups: usize,
    /// Dropout rate inside each residual block.
    pub dropout: f32,
}

/// Training configuration of the DiffPattern pipeline: the dataset, the
/// U-Net and the trainer. Generation settings (rules, solver window,
/// sampling stride, pre-filter policy) belong to each [`RequestSpec`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Synthetic-map generator settings (the dataset substitute).
    pub generator: GeneratorConfig,
    /// Tile side in nm (paper: 2048).
    pub tile: Coord,
    /// Dataset extension/folding settings.
    pub dataset: DatasetConfig,
    /// U-Net backbone shape; channel counts are derived from `dataset`.
    pub unet: BackboneConfig,
    /// Diffusion training settings.
    pub train: TrainConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            generator: GeneratorConfig::small(),
            tile: 2048,
            dataset: DatasetConfig {
                matrix_side: 32,
                channels: 4,
            },
            unet: BackboneConfig {
                base_channels: 32,
                channel_mults: vec![1, 2],
                num_res_blocks: 2,
                attn_resolutions: vec![1],
                time_dim: 64,
                groups: 8,
                dropout: 0.0,
            },
            train: TrainConfig {
                batch_size: 8,
                diffusion_steps: 100,
                ..TrainConfig::default()
            },
        }
    }
}

impl PipelineConfig {
    /// A deliberately tiny configuration for unit tests and doc examples:
    /// the same 32x32 topology matrices as the default, folded deeper
    /// (C = 16) so the U-Net works on 8x8 feature maps.
    pub fn tiny() -> Self {
        PipelineConfig {
            dataset: DatasetConfig {
                matrix_side: 32,
                channels: 16,
            },
            unet: BackboneConfig {
                base_channels: 8,
                channel_mults: vec![1, 2],
                num_res_blocks: 1,
                attn_resolutions: vec![1],
                time_dim: 16,
                groups: 4,
                dropout: 0.0,
            },
            train: TrainConfig {
                batch_size: 4,
                diffusion_steps: 30,
                ..TrainConfig::default()
            },
            ..PipelineConfig::default()
        }
    }

    /// The full U-Net configuration, with channel counts derived from the
    /// dataset fold (`in = C`, `out = 2C`).
    pub fn unet_config(&self) -> UNetConfig {
        UNetConfig {
            in_channels: self.dataset.channels,
            out_channels: 2 * self.dataset.channels,
            base_channels: self.unet.base_channels,
            channel_mults: self.unet.channel_mults.clone(),
            num_res_blocks: self.unet.num_res_blocks,
            attn_resolutions: self.unet.attn_resolutions.clone(),
            time_dim: self.unet.time_dim,
            groups: self.unet.groups,
            dropout: self.unet.dropout,
        }
    }

    /// Spatial side of the folded topology tensors (`matrix_side / √C`).
    pub fn fold_side(&self) -> usize {
        self.dataset.matrix_side / self.fold_patch()
    }

    fn fold_patch(&self) -> usize {
        (self.dataset.channels as f64).sqrt() as usize
    }

    /// Checks the configuration for inconsistencies the type system cannot
    /// rule out.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] for a non-square fold channel count or a matrix
    /// side the fold patch does not divide.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let patch = self.fold_patch();
        if patch * patch != self.dataset.channels {
            return Err(ConfigError::ChannelsNotSquare {
                channels: self.dataset.channels,
            });
        }
        if !self.dataset.matrix_side.is_multiple_of(patch) || self.dataset.matrix_side == 0 {
            return Err(ConfigError::SideNotDivisible {
                matrix_side: self.dataset.matrix_side,
                patch,
            });
        }
        Ok(())
    }
}

/// Cumulative pipeline statistics (the §IV-C claims: pre-filter rejection
/// below 0.1 %, zero unsolvable topologies in practice).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Topology tensors drawn from the diffusion sampler.
    pub topologies_sampled: usize,
    /// Topologies rejected by the bow-tie pre-filter.
    pub prefilter_rejected: usize,
    /// Topologies whose bow-ties were repaired instead of rejected
    /// (only with [`RequestSpec::repair_bowties`]).
    pub prefilter_repaired: usize,
    /// Topologies the solver could not legalize.
    pub solver_failures: usize,
    /// Legal patterns produced.
    pub legal_patterns: usize,
    /// Requested batch slots that exhausted their attempt budget and
    /// produced nothing — the previously silent gap between what was
    /// asked for and what came back.
    pub shortfall: usize,
}

impl PipelineReport {
    /// Pre-filter rejection rate in `[0, 1]`.
    pub fn prefilter_rate(&self) -> f64 {
        if self.topologies_sampled == 0 {
            0.0
        } else {
            self.prefilter_rejected as f64 / self.topologies_sampled as f64
        }
    }

    /// Accumulates another report into this one (per-worker aggregation).
    pub fn merge(&mut self, other: &PipelineReport) {
        self.topologies_sampled += other.topologies_sampled;
        self.prefilter_rejected += other.prefilter_rejected;
        self.prefilter_repaired += other.prefilter_repaired;
        self.solver_failures += other.solver_failures;
        self.legal_patterns += other.legal_patterns;
        self.shortfall += other.shortfall;
    }
}

/// The DiffPattern pipeline (paper Fig. 4): dataset → discrete diffusion →
/// pre-filter → white-box legalization.
///
/// `Pipeline` is the *training* facade: it builds the dataset and drives
/// the trainer. For inference, freeze the trained state with
/// [`Pipeline::trained_model`] (or [`Pipeline::into_trained_model`]) and
/// generate through a [`crate::PatternService`], with requests built by
/// [`Pipeline::request_spec`].
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineConfig,
    dataset: Dataset,
    trainer: Trainer,
    trained: bool,
}

impl Pipeline {
    /// Builds the pipeline on a freshly generated synthetic layout map.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Config`] for an invalid configuration,
    /// [`PipelineError::EmptyDataset`] when no tile survives extension;
    /// diffusion configuration errors are propagated.
    pub fn from_synthetic_map(
        config: PipelineConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, PipelineError> {
        let map = LayoutMapGenerator::new(config.generator).generate(rng);
        let tiles = split_into_tiles(&map, config.tile);
        Self::from_tiles(config, &tiles, rng)
    }

    /// Builds the pipeline on caller-provided layout tiles.
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::from_synthetic_map`].
    pub fn from_tiles(
        config: PipelineConfig,
        tiles: &[Layout],
        rng: &mut impl Rng,
    ) -> Result<Self, PipelineError> {
        config.validate()?;
        let dataset = build_dataset(tiles, config.dataset);
        if dataset.tensors.is_empty() {
            return Err(PipelineError::EmptyDataset);
        }
        let trainer = Trainer::new(&config.unet_config(), config.train.clone(), rng)?;
        Ok(Pipeline {
            config,
            dataset,
            trainer,
            trained: false,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The training dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The diffusion noise schedule in use.
    pub fn schedule(&self) -> &dp_diffusion::NoiseSchedule {
        self.trainer.schedule()
    }

    /// Trains the diffusion model for `iterations` steps on the calling
    /// thread (see [`Trainer::train`]).
    ///
    /// # Errors
    ///
    /// Propagates dataset/shape errors from the diffusion trainer.
    pub fn train(
        &mut self,
        iterations: usize,
        rng: &mut impl Rng,
    ) -> Result<TrainReport, PipelineError> {
        let report = self.trainer.train(&self.dataset.tensors, iterations, rng)?;
        self.trained = true;
        Ok(report)
    }

    /// Freezes the trained state into an immutable, shareable
    /// [`TrainedModel`] (the pipeline itself stays usable for further
    /// training).
    ///
    /// # Errors
    ///
    /// [`PipelineError::NotTrained`] before [`Pipeline::train`].
    pub fn trained_model(&self) -> Result<TrainedModel, PipelineError> {
        if !self.trained {
            return Err(PipelineError::NotTrained);
        }
        Ok(TrainedModel::new(
            self.trainer.denoiser().clone(),
            self.trainer.schedule().clone(),
            self.config.fold_side(),
        )?)
    }

    /// Consumes the pipeline into a [`TrainedModel`], avoiding the weight
    /// clone of [`Pipeline::trained_model`].
    ///
    /// # Errors
    ///
    /// [`PipelineError::NotTrained`] before [`Pipeline::train`].
    pub fn into_trained_model(self) -> Result<TrainedModel, PipelineError> {
        if !self.trained {
            return Err(PipelineError::NotTrained);
        }
        Ok(self.trainer.finish()?)
    }

    /// [`RequestSpec::new`]`(count)` with this dataset's Solving-E donors
    /// (the extended dataset patterns, as the paper prescribes).
    pub fn request_spec(&self, count: usize) -> RequestSpec {
        RequestSpec {
            donors: self.dataset.extended.clone().into(),
            ..RequestSpec::new(count)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PatternService;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn tiny_pipeline(seed: u64) -> (Pipeline, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng).unwrap();
        (pipeline, rng)
    }

    fn service(pipeline: &Pipeline) -> PatternService {
        let model = Arc::new(pipeline.trained_model().unwrap());
        PatternService::builder(model).build().unwrap()
    }

    #[test]
    fn builds_with_nonempty_dataset() {
        let (pipeline, _) = tiny_pipeline(0);
        assert!(!pipeline.dataset().tensors.is_empty());
        assert!(pipeline.dataset().report.accepted > 0);
    }

    #[test]
    fn freezing_before_training_errors() {
        let (pipeline, _) = tiny_pipeline(1);
        assert!(matches!(
            pipeline.trained_model(),
            Err(PipelineError::NotTrained)
        ));
        assert!(matches!(
            pipeline.into_trained_model(),
            Err(PipelineError::NotTrained)
        ));
    }

    #[test]
    fn end_to_end_tiny_run_yields_legal_patterns() {
        let (mut pipeline, mut rng) = tiny_pipeline(2);
        let report = pipeline.train(6, &mut rng).unwrap();
        assert_eq!(report.losses.len(), 6);
        let spec = pipeline.request_spec(3).seed(2);
        let batch = service(&pipeline).generate(&spec).unwrap();
        // Every returned pattern must be DRC-clean: the 100 % legality
        // claim is structural.
        for g in &batch.items {
            let drc = dp_drc::check_pattern(&g.pattern, &spec.rules);
            assert!(drc.is_clean(), "{:?}", drc.violations());
        }
        let r = batch.report;
        assert_eq!(r.legal_patterns, batch.items.len());
        assert!(r.topologies_sampled >= 3);
        assert_eq!(batch.items.len() + r.shortfall, 3);
    }

    #[test]
    fn prefilter_rate_is_tracked() {
        let (mut pipeline, mut rng) = tiny_pipeline(4);
        let _ = pipeline.train(4, &mut rng).unwrap();
        let (topos, r) = service(&pipeline)
            .sample_topologies(&pipeline.request_spec(4).seed(4))
            .unwrap();
        assert!(r.prefilter_rate() >= 0.0 && r.prefilter_rate() <= 1.0);
        // Exact accounting: in topology-only mode every sampled attempt is
        // either delivered (repaired ones are delivered) or rejected.
        assert_eq!(r.topologies_sampled, topos.len() + r.prefilter_rejected);
        // The shortfall invariant: whatever was not delivered is recorded.
        assert_eq!(r.shortfall, 4 - topos.len());
    }

    #[test]
    fn respaced_pipeline_sampling_works() {
        let (mut pipeline, mut rng) = tiny_pipeline(5);
        let _ = pipeline.train(4, &mut rng).unwrap();
        let spec = RequestSpec {
            sample_stride: 5,
            ..pipeline.request_spec(2).seed(5)
        };
        let (topos, _) = service(&pipeline).sample_topologies(&spec).unwrap();
        assert_eq!(topos.len(), 2);
        for t in &topos {
            assert_eq!((t.width(), t.height()), (32, 32));
        }
    }

    #[test]
    fn request_spec_mirrors_the_pipeline_config() {
        // The pipeline contributes only the dataset's donors; every
        // generation setting is `RequestSpec::new`'s default.
        let (pipeline, _) = tiny_pipeline(8);
        let spec = pipeline.request_spec(5).seed(9);
        let defaults = RequestSpec::new(5).seed(9);
        assert_eq!(spec.count, 5);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.rules, defaults.rules);
        assert_eq!(spec.solver, defaults.solver);
        assert_eq!(spec.sample_stride, defaults.sample_stride);
        assert_eq!(spec.max_attempts, defaults.max_attempts);
        assert_eq!(spec.repair_bowties, defaults.repair_bowties);
        assert_eq!(spec.donors[..], pipeline.dataset().extended[..]);
    }

    #[test]
    fn invalid_configs_are_rejected_not_panicked() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        // Non-square channel count: impossible to express a channel
        // mismatch any more, but the fold itself can still be invalid.
        let mut config = PipelineConfig::tiny();
        config.dataset.channels = 3;
        assert!(matches!(
            Pipeline::from_synthetic_map(config, &mut rng),
            Err(PipelineError::Config(ConfigError::ChannelsNotSquare {
                channels: 3
            }))
        ));
        let mut config = PipelineConfig::tiny();
        config.dataset.matrix_side = 30;
        assert!(matches!(
            Pipeline::from_synthetic_map(config, &mut rng),
            Err(PipelineError::Config(ConfigError::SideNotDivisible {
                matrix_side: 30,
                patch: 4
            }))
        ));
    }

    #[test]
    fn report_merge_adds_fields() {
        let a = PipelineReport {
            topologies_sampled: 3,
            prefilter_rejected: 1,
            prefilter_repaired: 1,
            solver_failures: 2,
            legal_patterns: 1,
            shortfall: 1,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.topologies_sampled, 6);
        assert_eq!(b.solver_failures, 4);
        assert_eq!(b.shortfall, 2);
    }
}
