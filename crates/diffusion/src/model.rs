//! The immutable, shareable artifact of training: [`TrainedModel`].
//!
//! The paper's workflow trains once (17 GPU-hours) and then samples from
//! the frozen model indefinitely. `TrainedModel` makes that split explicit
//! in the type system: it owns the U-Net weights, the noise schedule and
//! the fold geometry, exposes only `&self` operations (so one model can
//! serve any number of sampling threads simultaneously), and serialises to
//! a single self-describing blob — architecture, schedule, geometry and
//! weights together — replacing the old "save raw weights, rebuild the
//! pipeline, `load_params`, `mark_trained`" dance.

use crate::{DiffusionError, InferenceDenoiser, NeuralDenoiser, NoiseSchedule, Sampler};
use dp_nn::{load_params, save_params, UNet, UNetConfig};
use dp_squish::DeepSquishTensor;
use rand::SeedableRng;

/// Magic bytes identifying a serialised model blob.
const MAGIC: &[u8; 8] = b"DPMODEL\x01";
/// Blob format version. Version 2 added a precision word after the
/// spatial side. Blobs store f32 master weights whatever that word says,
/// so words 0 and 1 both load as the one exact model, and version-1 blobs
/// (no word) do too.
const VERSION: u32 = 2;

/// A trained discrete-diffusion model: U-Net weights, noise schedule and
/// fold geometry, frozen into an immutable value.
///
/// Everything on this type takes `&self` and the type is `Sync`, so a
/// single instance can be shared by reference across worker threads —
/// the foundation of `PatternService`'s persistent worker pool in the
/// facade crate.
///
/// Obtain one from [`crate::Trainer::finish`] after training, or restore a
/// previously saved model with [`TrainedModel::load`].
#[derive(Debug, Clone)]
pub struct TrainedModel {
    denoiser: NeuralDenoiser,
    schedule: NoiseSchedule,
    side: usize,
}

impl TrainedModel {
    /// Assembles a model from its parts. `side` is the spatial side of the
    /// folded topology tensors the network was trained on.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::BadModelBlob`] when `side` is zero or the
    /// fold channel count is not a perfect square.
    pub fn new(
        mut denoiser: NeuralDenoiser,
        schedule: NoiseSchedule,
        side: usize,
    ) -> Result<Self, DiffusionError> {
        if side == 0 {
            return Err(DiffusionError::BadModelBlob {
                reason: "zero spatial side".into(),
            });
        }
        let channels = denoiser.channels();
        let patch = (channels as f64).sqrt() as usize;
        if patch * patch != channels {
            return Err(DiffusionError::BadModelBlob {
                reason: format!("fold channel count {channels} is not a perfect square"),
            });
        }
        // Freeze point: the weights are final, so precompute every
        // layer's packed/transposed GEMM operand once. Sampling then
        // never re-reshapes a kernel tensor.
        denoiser.unet_mut().prepack();
        Ok(TrainedModel {
            denoiser,
            schedule,
            side,
        })
    }

    /// Fold channel count `C` of the Deep Squish tensors.
    pub fn channels(&self) -> usize {
        self.denoiser.channels()
    }

    /// Spatial side of the folded tensors the model samples.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Side of the unfolded topology matrix (`side * √C`) — the scan-line
    /// grid the legalization solver works on.
    pub fn matrix_side(&self) -> usize {
        self.side * (self.channels() as f64).sqrt() as usize
    }

    /// The noise schedule the model was trained under.
    pub fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }

    /// The wrapped denoiser.
    pub fn denoiser(&self) -> &NeuralDenoiser {
        &self.denoiser
    }

    /// A sampler over this model's schedule.
    pub fn sampler(&self) -> Sampler {
        Sampler::new(self.schedule.clone())
    }

    /// Serialises the model — architecture, schedule, geometry and weights
    /// — into one self-describing little-endian blob.
    pub fn save(&self) -> Vec<u8> {
        let config = self.denoiser.unet().config();
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        let push = |buf: &mut Vec<u8>, v: usize| buf.extend_from_slice(&(v as u32).to_le_bytes());
        push(&mut buf, config.in_channels);
        push(&mut buf, config.out_channels);
        push(&mut buf, config.base_channels);
        push(&mut buf, config.channel_mults.len());
        for &m in &config.channel_mults {
            push(&mut buf, m);
        }
        push(&mut buf, config.num_res_blocks);
        push(&mut buf, config.attn_resolutions.len());
        for &a in &config.attn_resolutions {
            push(&mut buf, a);
        }
        push(&mut buf, config.time_dim);
        push(&mut buf, config.groups);
        buf.extend_from_slice(&config.dropout.to_le_bytes());
        push(&mut buf, self.side);
        // The version-2 precision word; see `VERSION`.
        push(&mut buf, 0);
        push(&mut buf, self.schedule.steps());
        for &b in self.schedule.betas() {
            buf.extend_from_slice(&b.to_le_bytes());
        }
        buf.extend_from_slice(&save_params(&self.denoiser.unet().params()));
        buf
    }

    /// Restores a model from a blob produced by [`TrainedModel::save`].
    ///
    /// # Errors
    ///
    /// * [`DiffusionError::BadModelBlob`] for header/geometry corruption,
    /// * [`DiffusionError::BadSchedule`] for invalid schedule values,
    /// * [`DiffusionError::Weights`] when the weight payload does not match
    ///   the declared architecture.
    pub fn load(blob: &[u8]) -> Result<Self, DiffusionError> {
        let mut r = Reader::new(blob);
        if blob.len() < 12 || &blob[..8] != MAGIC {
            return Err(bad("missing DPMODEL header"));
        }
        r.skip(8);
        let version = r.u32()?;
        if version == 0 || version > VERSION {
            return Err(bad("unsupported format version"));
        }
        let in_channels = r.u32()? as usize;
        let out_channels = r.u32()? as usize;
        if in_channels == 0 {
            return Err(bad("zero input channels"));
        }
        if out_channels != 2 * in_channels {
            return Err(bad(
                "head contract violated: out_channels != 2 * in_channels",
            ));
        }
        let base_channels = r.u32()? as usize;
        if base_channels == 0 || base_channels > 8192 {
            return Err(bad("implausible base channel count"));
        }
        let mults_len = r.u32()? as usize;
        if mults_len == 0 || mults_len > 16 {
            return Err(bad("implausible channel_mults length"));
        }
        let channel_mults = (0..mults_len)
            .map(|_| r.u32().map(|v| v as usize))
            .collect::<Result<Vec<_>, _>>()?;
        if channel_mults.iter().any(|&m| m == 0 || m > 64) {
            return Err(bad("implausible channel multiplier"));
        }
        let num_res_blocks = r.u32()? as usize;
        if num_res_blocks == 0 || num_res_blocks > 64 {
            return Err(bad("implausible residual block count"));
        }
        let attn_len = r.u32()? as usize;
        if attn_len > 16 {
            return Err(bad("implausible attn_resolutions length"));
        }
        let attn_resolutions = (0..attn_len)
            .map(|_| r.u32().map(|v| v as usize))
            .collect::<Result<Vec<_>, _>>()?;
        let time_dim = r.u32()? as usize;
        if time_dim == 0 || !time_dim.is_multiple_of(2) || time_dim > 65_536 {
            return Err(bad("implausible time embedding dimension"));
        }
        let groups = r.u32()? as usize;
        if groups == 0 || groups > 8192 {
            return Err(bad("implausible group count"));
        }
        let dropout = f32::from_bits(r.u32()?);
        if !(0.0..1.0).contains(&dropout) {
            return Err(bad("dropout outside [0, 1)"));
        }
        let side = r.u32()? as usize;
        if side == 0 || side > 65_536 {
            return Err(bad("implausible spatial side"));
        }
        // Version 1 predates the precision word. Word 1 marked a
        // reduced-precision prepack; the weights themselves are f32.
        if version >= 2 {
            match r.u32()? {
                0 | 1 => {}
                other => return Err(bad(&format!("unknown precision tag {other}"))),
            }
        }
        let steps = r.u32()? as usize;
        if steps == 0 || steps > 1 << 20 {
            return Err(bad("implausible diffusion step count"));
        }
        let betas = (0..steps).map(|_| r.f64()).collect::<Result<Vec<_>, _>>()?;
        let schedule = NoiseSchedule::from_beta_values(betas)?;

        let config = UNetConfig {
            in_channels,
            out_channels,
            base_channels,
            channel_mults,
            num_res_blocks,
            attn_resolutions,
            time_dim,
            groups,
            dropout,
        };
        // Weight values are fully overwritten below; the init RNG only
        // determines the (discarded) random starting point. Construction
        // asserts internal consistency rules (e.g. GroupNorm divisibility)
        // that the field checks above cannot cheaply enumerate, so a
        // corrupt header that slipped past them is converted into an error
        // here instead of tearing the process down.
        let mut unet = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // dp-lint: allow(rng-discipline): fixed-seed init RNG whose output is fully overwritten by load_params below
            let mut init_rng = rand::rngs::StdRng::seed_from_u64(0);
            UNet::new(&config, &mut init_rng)
        }))
        .map_err(|_| bad("architecture declared by the blob is inconsistent"))?;
        load_params(&mut unet.params_mut(), r.rest())?;
        TrainedModel::new(NeuralDenoiser::new(unet), schedule, side)
    }
}

impl InferenceDenoiser for TrainedModel {
    fn infer_p1_batch_into(
        &self,
        xks: &[DeepSquishTensor],
        k: usize,
        ws: &mut dp_nn::Workspace,
        out: &mut Vec<f64>,
    ) {
        self.denoiser.infer_p1_batch_into(xks, k, ws, out);
    }
}

fn bad(reason: &str) -> DiffusionError {
    DiffusionError::BadModelBlob {
        reason: reason.into(),
    }
}

/// Bounds-checked little-endian read cursor.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn skip(&mut self, n: usize) {
        self.buf = &self.buf[n..];
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DiffusionError> {
        if self.buf.len() < n {
            return Err(bad("truncated blob"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, DiffusionError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, DiffusionError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn rest(&self) -> &'a [u8] {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchScratch, Conditioning, TrainConfig, Trainer};
    use dp_nn::AdamConfig;
    use rand::SeedableRng;

    /// One full-chain sample through the sampling core (a batch of one).
    fn sample(model: &TrainedModel, seed: u64) -> DeepSquishTensor {
        let sampler = model.sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        sampler
            .sample_conditioned_batch_with(
                model,
                model.channels(),
                model.side(),
                &sampler.strided_steps(1),
                &Conditioning::none(),
                std::slice::from_mut(&mut rng),
                &mut BatchScratch::new(),
            )
            .remove(0)
    }

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

    fn trained_tiny_model(seed: u64) -> TrainedModel {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let config = TrainConfig {
            batch_size: 4,
            diffusion_steps: 20,
            adam: AdamConfig::default(),
            ..TrainConfig::default()
        };
        let mut trainer = Trainer::new(&tiny_unet(1), config, &mut rng).unwrap();
        let data: Vec<DeepSquishTensor> = (0..2)
            .map(|phase| {
                let bits = (0..64).map(|i| (i % 8) % 2 == phase).collect();
                DeepSquishTensor::from_bits(1, 8, bits).unwrap()
            })
            .collect();
        let _ = trainer.train(&data, 4, &mut rng).unwrap();
        trainer.finish().unwrap()
    }

    #[test]
    fn save_load_sample_round_trip_is_bit_identical() {
        let model = trained_tiny_model(0);
        let blob = model.save();
        let restored = TrainedModel::load(&blob).unwrap();
        assert_eq!(restored.channels(), model.channels());
        assert_eq!(restored.side(), model.side());
        assert_eq!(restored.schedule(), model.schedule());

        let a = sample(&model, 9);
        let b = sample(&restored, 9);
        assert_eq!(a, b, "round-tripped model must sample identically");
    }

    #[test]
    fn precision_word_one_loads_as_the_exact_model() {
        // tiny_unet(1) layout: ... dropout 56..60, side 60..64, precision
        // word 64..68. A reduced-precision blob (word 1) holds the same f32
        // master weights, so it must load and sample exactly like word 0.
        let model = trained_tiny_model(7);
        let blob = model.save();
        assert_eq!(blob[64..68], 0u32.to_le_bytes());
        let mut tagged = blob.clone();
        tagged[64..68].copy_from_slice(&1u32.to_le_bytes());
        let restored = TrainedModel::load(&tagged).unwrap();
        assert_eq!(
            sample(&restored, 11),
            sample(&TrainedModel::load(&blob).unwrap(), 11),
            "a word-1 blob must sample exactly like its word-0 twin"
        );
        assert_eq!(restored.save(), blob, "re-saving writes word 0");
    }

    #[test]
    fn unknown_precision_words_are_rejected() {
        // Format v2 defines precision words 0 and 1 only; any other word
        // is a corrupt blob, rejected cleanly rather than defaulted.
        let blob = trained_tiny_model(7).save();
        for word in [2u32, 7, u32::MAX] {
            let mut tagged = blob.clone();
            tagged[64..68].copy_from_slice(&word.to_le_bytes());
            assert!(
                matches!(
                    TrainedModel::load(&tagged),
                    Err(DiffusionError::BadModelBlob { .. })
                ),
                "precision word {word} must be rejected"
            );
        }
    }

    #[test]
    fn version1_blob_without_precision_field_loads_as_exact() {
        // A v1 blob is the v2 blob with the version field rewritten and
        // the precision word removed.
        let model = trained_tiny_model(6);
        let mut v1 = model.save();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        v1.drain(64..68);
        let restored = TrainedModel::load(&v1).unwrap();
        assert_eq!(
            sample(&model, 13),
            sample(&restored, 13),
            "v1 blob must load as the exact model"
        );
    }

    #[test]
    fn finish_before_training_errors() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let trainer = Trainer::new(&tiny_unet(1), TrainConfig::default(), &mut rng).unwrap();
        assert!(matches!(trainer.finish(), Err(DiffusionError::NotTrained)));
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        let model = trained_tiny_model(2);
        let blob = model.save();
        assert!(matches!(
            TrainedModel::load(b"not a model"),
            Err(DiffusionError::BadModelBlob { .. })
        ));
        assert!(matches!(
            TrainedModel::load(&blob[..blob.len() / 3]),
            Err(DiffusionError::BadModelBlob { .. }) | Err(DiffusionError::Weights(_))
        ));
        let mut broken = blob.clone();
        broken[8] ^= 0xff; // version field
        assert!(TrainedModel::load(&broken).is_err());
    }

    #[test]
    fn corrupt_header_fields_error_instead_of_panicking() {
        // tiny_unet(1) header layout: magic 0..8, version 8..12,
        // in 12..16, out 16..20, base 20..24, mults_len 24..28,
        // mults 28..36, num_res 36..40, attn_len 40..44, attn 44..48,
        // time_dim 48..52, groups 52..56.
        let blob = trained_tiny_model(5).save();
        let patch = |offset: usize, value: u32| {
            let mut b = blob.clone();
            b[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
            b
        };
        for (offset, value) in [
            (12, 0),       // zero input channels
            (20, 0),       // zero base channels
            (28, 0),       // zero channel multiplier
            (48, 7),       // odd time_dim
            (52, 0),       // zero groups
            (52, 3),       // groups violating GroupNorm divisibility
            (20, 100_000), // absurd base channel count
        ] {
            assert!(
                matches!(
                    TrainedModel::load(&patch(offset, value)),
                    Err(DiffusionError::BadModelBlob { .. })
                ),
                "field at {offset} = {value} must be rejected cleanly"
            );
        }
    }

    #[test]
    fn matrix_side_accounts_for_fold_patch() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let denoiser = NeuralDenoiser::new(UNet::new(&tiny_unet(4), &mut rng));
        let schedule = NoiseSchedule::linear(10, 0.05, 0.5).unwrap();
        let model = TrainedModel::new(denoiser, schedule, 8).unwrap();
        assert_eq!(model.channels(), 4);
        assert_eq!(model.matrix_side(), 16);
    }

    #[test]
    fn non_square_channel_count_is_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let denoiser = NeuralDenoiser::new(UNet::new(&tiny_unet(2), &mut rng));
        let schedule = NoiseSchedule::linear(10, 0.05, 0.5).unwrap();
        assert!(matches!(
            TrainedModel::new(denoiser, schedule, 8),
            Err(DiffusionError::BadModelBlob { .. })
        ));
    }
}
