use crate::loss::p1_of_logits_append;
use dp_nn::{Tensor, UNet, Workspace};
use dp_squish::DeepSquishTensor;

/// A reverse-process model: predicts, for every entry of a noisy topology
/// tensor, the probability that the *clean* entry is one — from a *shared*
/// reference, with no gradient caching and no internal mutation, so one
/// model can serve many threads simultaneously (`Sync`).
///
/// Abstracting the network behind this trait lets the sampler and its tests
/// validate the diffusion mathematics with closed-form denoisers
/// ([`OracleDenoiser`], [`UniformDenoiser`]) before any training happens.
/// [`crate::TrainedModel`] and the generation engine build on it;
/// [`NeuralDenoiser`] implements it through the U-Net's dedicated `&self`
/// forward path ([`dp_nn::UNet::infer`]).
pub trait InferenceDenoiser: Sync {
    /// Lock-step micro-batch prediction: all of `xks` sit at the **same**
    /// 1-based diffusion step `k`, and `out` is replaced by every item's
    /// per-entry `p_θ(x̃0 = 1 | x_k)` in the [`DeepSquishTensor::bits`]
    /// order, concatenated in item order (`out.len() == xks.len() *
    /// entries`). The contract is that item `i`'s slice is
    /// **bit-identical** to a batch of that item alone — the batched
    /// sampler relies on this to keep micro-batched chains equal to
    /// single-lane ones. Neural implementations run one stacked,
    /// allocation-free model evaluation drawing scratch memory from `ws`.
    fn infer_p1_batch_into(
        &self,
        xks: &[DeepSquishTensor],
        k: usize,
        ws: &mut Workspace,
        out: &mut Vec<f64>,
    );

    /// For each batch item `i`, returns `p_θ(x̃0 = 1 | x_k)` per entry at
    /// the item's own 1-based step `ks[i]`: each item runs through
    /// [`InferenceDenoiser::infer_p1_batch_into`] as a batch of one.
    ///
    /// # Panics
    ///
    /// Panics when `xks` and `ks` differ in length.
    fn infer_p1(&self, xks: &[DeepSquishTensor], ks: &[usize]) -> Vec<Vec<f64>> {
        assert_eq!(xks.len(), ks.len(), "one step per item");
        let mut ws = Workspace::new();
        xks.iter()
            .zip(ks)
            .map(|(xk, &k)| {
                let mut p1 = Vec::new();
                self.infer_p1_batch_into(std::slice::from_ref(xk), k, &mut ws, &mut p1);
                p1
            })
            .collect()
    }
}

/// The production denoiser: a [`UNet`] consuming `±1`-mapped bits and
/// producing two logits per entry.
#[derive(Debug, Clone)]
pub struct NeuralDenoiser {
    unet: UNet,
    channels: usize,
}

impl NeuralDenoiser {
    /// Wraps a U-Net whose input channel count is the squish channel count
    /// `C` and whose output channel count is `2C`.
    ///
    /// # Panics
    ///
    /// Panics when the network's channel counts violate that contract.
    pub fn new(unet: UNet) -> Self {
        let channels = unet.config().in_channels;
        assert_eq!(
            unet.config().out_channels,
            2 * channels,
            "denoiser U-Net must output 2 logits per input channel"
        );
        NeuralDenoiser { unet, channels }
    }

    /// Squish channel count `C`.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The wrapped network.
    pub fn unet(&self) -> &UNet {
        &self.unet
    }

    /// Mutable access to the wrapped network (for the trainer).
    pub fn unet_mut(&mut self) -> &mut UNet {
        &mut self.unet
    }

    /// Maps a batch of bit tensors to the network input (`false → -1`,
    /// `true → +1`), the conditioning the trainer also uses.
    pub fn batch_to_input(xks: &[DeepSquishTensor]) -> Tensor {
        signed_input(xks, Tensor::zeros)
    }

    /// Runs the network's training forward pass and returns the raw logit
    /// tensor `(n, 2C, M, M)` — used by the trainer, which needs logits
    /// rather than probabilities.
    pub fn forward_logits(&mut self, xks: &[DeepSquishTensor], ks: &[usize]) -> Tensor {
        let input = Self::batch_to_input(xks);
        self.unet.forward(&input, ks)
    }
}

impl InferenceDenoiser for NeuralDenoiser {
    fn infer_p1_batch_into(
        &self,
        xks: &[DeepSquishTensor],
        k: usize,
        ws: &mut Workspace,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        if xks.is_empty() {
            return;
        }
        // One stacked evaluation: the U-Net's per-item bit-equality
        // guarantee (see `dp_nn::UNet::infer`, "Batch invariance") makes
        // each lane's probabilities equal to a single-item call.
        let input = signed_input(xks, |shape| ws.take_uninit(shape));
        let steps = ws.take_steps(k, xks.len());
        let logits = self.unet.infer(&input, &steps, ws);
        ws.put_steps(steps);
        ws.recycle(input);
        for ni in 0..xks.len() {
            p1_of_logits_append(&logits, ni, self.channels, out);
        }
        ws.recycle(logits);
    }
}

/// Writes a non-empty batch of equally shaped bit tensors as `±1` into
/// the `(n, C, M, M)` tensor that `alloc` provides for that shape.
fn signed_input(xks: &[DeepSquishTensor], alloc: impl FnOnce(&[usize]) -> Tensor) -> Tensor {
    let first = xks.first().expect("empty batch");
    let (c, side) = (first.channels(), first.side());
    let mut input = alloc(&[xks.len(), c, side, side]);
    for (lane, xk) in input.data_mut().chunks_exact_mut(c * side * side).zip(xks) {
        assert_eq!(
            (xk.channels(), xk.side()),
            (c, side),
            "batch shape mismatch"
        );
        for (v, &b) in lane.iter_mut().zip(xk.bits()) {
            *v = if b { 1.0 } else { -1.0 };
        }
    }
    input
}

/// A denoiser that knows the true clean sample — used to validate the
/// sampler: with high confidence, ancestral sampling from pure noise must
/// reconstruct `x0` (see the sampler tests).
#[derive(Debug, Clone)]
pub struct OracleDenoiser {
    x0: DeepSquishTensor,
    confidence: f64,
}

impl OracleDenoiser {
    /// Creates an oracle believing in `x0` with probability `confidence`.
    ///
    /// # Panics
    ///
    /// Panics when `confidence` is not in `(0, 1)`.
    pub fn new(x0: DeepSquishTensor, confidence: f64) -> Self {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0, 1)"
        );
        OracleDenoiser { x0, confidence }
    }
}

impl InferenceDenoiser for OracleDenoiser {
    fn infer_p1_batch_into(
        &self,
        xks: &[DeepSquishTensor],
        _k: usize,
        _ws: &mut Workspace,
        out: &mut Vec<f64>,
    ) {
        let (hit, miss) = (self.confidence, 1.0 - self.confidence);
        let p1 = |&b: &bool| if b { hit } else { miss };
        out.clear();
        out.extend(xks.iter().flat_map(|_| self.x0.bits().iter().map(p1)));
    }
}

/// A denoiser with no information: `p1 = 0.5` everywhere. Sampling with it
/// keeps the chain at the uniform stationary distribution — the null model
/// for statistical tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformDenoiser;

impl UniformDenoiser {
    /// Creates the denoiser.
    pub fn new() -> Self {
        UniformDenoiser
    }
}

impl InferenceDenoiser for UniformDenoiser {
    fn infer_p1_batch_into(
        &self,
        xks: &[DeepSquishTensor],
        _k: usize,
        _ws: &mut Workspace,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(xks.iter().map(|xk| xk.bits().len()).sum(), 0.5);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_nn::UNetConfig;
    use rand::SeedableRng;

    #[test]
    fn batch_to_input_maps_signs() {
        let t = DeepSquishTensor::from_bits(1, 2, vec![true, false, false, true]).unwrap();
        let x = NeuralDenoiser::batch_to_input(&[t]);
        assert_eq!(x.shape(), &[1, 1, 2, 2]);
        assert_eq!(x.data(), &[1.0, -1.0, -1.0, 1.0]);
    }

    #[test]
    fn neural_denoiser_output_shape() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let config = UNetConfig {
            in_channels: 4,
            out_channels: 8,
            base_channels: 4,
            channel_mults: vec![1, 1],
            num_res_blocks: 1,
            attn_resolutions: vec![],
            time_dim: 8,
            groups: 2,
            dropout: 0.0,
        };
        let d = NeuralDenoiser::new(dp_nn::UNet::new(&config, &mut rng));
        let t = DeepSquishTensor::from_bits(4, 4, vec![false; 64]).unwrap();
        let p = d.infer_p1(&[t.clone(), t], &[1, 5]);
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].len(), 64);
        assert!(p[0].iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    #[should_panic(expected = "2 logits")]
    fn neural_denoiser_rejects_bad_head() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let config = UNetConfig {
            in_channels: 2,
            out_channels: 3,
            base_channels: 4,
            channel_mults: vec![1],
            num_res_blocks: 1,
            attn_resolutions: vec![],
            time_dim: 8,
            groups: 2,
            dropout: 0.0,
        };
        let _ = NeuralDenoiser::new(dp_nn::UNet::new(&config, &mut rng));
    }

    #[test]
    fn infer_p1_matches_eval_predict_p1() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let config = UNetConfig {
            in_channels: 4,
            out_channels: 8,
            base_channels: 4,
            channel_mults: vec![1, 1],
            num_res_blocks: 1,
            attn_resolutions: vec![],
            time_dim: 8,
            groups: 2,
            dropout: 0.3, // identity in both eval paths
        };
        let mut d = NeuralDenoiser::new(dp_nn::UNet::new(&config, &mut rng));
        let t = DeepSquishTensor::from_bits(4, 4, vec![true; 64]).unwrap();
        let shared = d.infer_p1(std::slice::from_ref(&t), &[3]);
        let logits = d.forward_logits(std::slice::from_ref(&t), &[3]);
        let mut exclusive = Vec::new();
        p1_of_logits_append(&logits, 0, d.channels(), &mut exclusive);
        assert_eq!(shared, [exclusive]);
    }

    #[test]
    fn neural_batched_infer_matches_per_item_infer_bitwise() {
        // The override must honour the `infer_p1_batch_into` contract:
        // each lane's slice equals the single-item path bit-for-bit.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let config = UNetConfig {
            in_channels: 4,
            out_channels: 8,
            base_channels: 4,
            channel_mults: vec![1, 1],
            num_res_blocks: 1,
            attn_resolutions: vec![1],
            time_dim: 8,
            groups: 2,
            dropout: 0.0,
        };
        let d = NeuralDenoiser::new(dp_nn::UNet::new(&config, &mut rng));
        for n in [1usize, 3, 8] {
            let xks: Vec<DeepSquishTensor> = (0..n)
                .map(|i| {
                    let bits = (0..64).map(|j| (i * 7 + j) % 3 == 0).collect();
                    DeepSquishTensor::from_bits(4, 4, bits).unwrap()
                })
                .collect();
            let mut ws = Workspace::new();
            let mut batched = Vec::new();
            d.infer_p1_batch_into(&xks, 5, &mut ws, &mut batched);
            assert_eq!(batched.len(), n * 64);
            for (li, xk) in xks.iter().enumerate() {
                let solo = d.infer_p1(std::slice::from_ref(xk), &[5]).remove(0);
                assert_eq!(&batched[li * 64..(li + 1) * 64], &solo[..], "lane {li}");
            }
        }
        // Empty batch: clears the buffer, touches nothing.
        let mut ws = Workspace::new();
        let mut out = vec![0.5; 3];
        d.infer_p1_batch_into(&[], 5, &mut ws, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn provided_infer_p1_runs_each_item_at_its_own_step() {
        // Echoes `10·k + batch size`: the provided `infer_p1` must run
        // item `i` as a batch of one at `ks[i]`.
        struct StepEcho;
        impl InferenceDenoiser for StepEcho {
            fn infer_p1_batch_into(
                &self,
                xks: &[DeepSquishTensor],
                k: usize,
                _ws: &mut Workspace,
                out: &mut Vec<f64>,
            ) {
                out.clear();
                out.resize(xks.len() * 4, (10 * k + xks.len()) as f64);
            }
        }
        let t = DeepSquishTensor::from_bits(1, 2, vec![false; 4]).unwrap();
        let p = StepEcho.infer_p1(&[t.clone(), t.clone(), t], &[1, 4, 2]);
        assert_eq!(p, [[11.0; 4], [41.0; 4], [21.0; 4]]);
        assert!(StepEcho.infer_p1(&[], &[]).is_empty());
    }

    #[test]
    fn oracle_reports_x0() {
        let x0 = DeepSquishTensor::from_bits(1, 2, vec![true, false, true, false]).unwrap();
        let oracle = OracleDenoiser::new(x0.clone(), 0.9);
        let noisy = DeepSquishTensor::from_bits(1, 2, vec![false; 4]).unwrap();
        let p = oracle.infer_p1(&[noisy], &[3]);
        let expected = [0.9, 0.1, 0.9, 0.1];
        for (a, b) in p[0].iter().zip(expected) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_is_half() {
        let t = DeepSquishTensor::from_bits(1, 2, vec![true; 4]).unwrap();
        let p = UniformDenoiser::new().infer_p1(&[t], &[1]);
        assert!(p[0].iter().all(|&v| v == 0.5));
    }
}
