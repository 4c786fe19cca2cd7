use crate::activation::{silu_in_place, Silu};
use crate::dropout::Dropout;
use crate::embedding::{sinusoidal_embedding, sinusoidal_embedding_ws};
use crate::tensor::{cat_channels_into, cat_channels_shape};
use crate::upsample::{upsample_nearest2, upsample_nearest2_backward, upsample_nearest2_ws};
use crate::{Conv2d, GroupNorm, Linear, Param, SelfAttention2d, Tensor, Workspace};
use rand::rngs::StdRng;
use rand::Rng;

/// Configuration of the DDPM-style U-Net backbone (paper §IV-A).
///
/// The paper's full-scale instance uses four feature resolutions
/// (32x32 → 4x4), channel counts `[128, 256, 256, 256]`, two residual
/// blocks per level and self-attention at the 16x16 level. The
/// reproduction defaults to a reduced CPU-sized instance; the architecture
/// family is identical.
#[derive(Debug, Clone, PartialEq)]
pub struct UNetConfig {
    /// Input channels (the Deep Squish tensor's `C`).
    pub in_channels: usize,
    /// Output channels (`2 * C` logits for binary per-entry posteriors).
    pub out_channels: usize,
    /// Base feature width.
    pub base_channels: usize,
    /// Per-level channel multipliers; the number of levels is the length.
    pub channel_mults: Vec<usize>,
    /// Residual blocks per level.
    pub num_res_blocks: usize,
    /// Levels (0 = full resolution) that get a self-attention block after
    /// each residual block. Level `i` has spatial side `input_side / 2^i`;
    /// for the paper's 32x32 inputs, attention at 16x16 means level 1.
    pub attn_resolutions: Vec<usize>,
    /// Sinusoidal time-embedding dimensionality (must be even).
    pub time_dim: usize,
    /// GroupNorm group count (must divide every channel width).
    pub groups: usize,
    /// Dropout rate inside each residual block (paper trains with 0.1;
    /// dropout is active only in training mode, see [`UNet::set_training`]).
    pub dropout: f32,
}

impl Default for UNetConfig {
    fn default() -> Self {
        UNetConfig {
            in_channels: 4,
            out_channels: 8,
            base_channels: 32,
            channel_mults: vec![1, 2],
            num_res_blocks: 2,
            attn_resolutions: vec![1],
            time_dim: 64,
            groups: 8,
            dropout: 0.1,
        }
    }
}

/// A DDPM residual block: two norm-SiLU-conv stages with an additive
/// time-embedding projection and a (possibly projected) skip connection.
#[derive(Debug, Clone)]
struct ResBlock {
    norm1: GroupNorm,
    silu1: Silu,
    conv1: Conv2d,
    silu_t: Silu,
    temb_proj: Linear,
    norm2: GroupNorm,
    silu2: Silu,
    dropout: Dropout,
    conv2: Conv2d,
    skip: Option<Conv2d>,
}

impl ResBlock {
    fn new(in_c: usize, out_c: usize, config: &UNetConfig, rng: &mut impl Rng) -> Self {
        let groups = config.groups;
        ResBlock {
            norm1: GroupNorm::new(groups.min(in_c), in_c),
            silu1: Silu::new(),
            conv1: Conv2d::new(in_c, out_c, 3, 1, 1, rng),
            silu_t: Silu::new(),
            temb_proj: Linear::new(config.time_dim, out_c, rng),
            norm2: GroupNorm::new(groups.min(out_c), out_c),
            silu2: Silu::new(),
            dropout: Dropout::new(config.dropout),
            conv2: Conv2d::new(out_c, out_c, 3, 1, 1, rng),
            skip: (in_c != out_c).then(|| Conv2d::new_1x1(in_c, out_c, rng)),
        }
    }

    fn forward(&mut self, x: &Tensor, temb: &Tensor, rng: &mut StdRng) -> Tensor {
        let mut out = self
            .conv1
            .forward(&self.silu1.forward(&self.norm1.forward(x)));
        let t = self.temb_proj.forward(&self.silu_t.forward(temb)); // (n, out_c)
        add_time_bias(&mut out, &t);
        let pre = self
            .dropout
            .forward(&self.silu2.forward(&self.norm2.forward(&out)), rng);
        let out = self.conv2.forward(&pre);
        let skipped = match &mut self.skip {
            Some(proj) => proj.forward(x),
            None => x.clone(),
        };
        out.add(&skipped)
    }

    /// Inference-only forward from a shared reference: the layer sequence
    /// of [`ResBlock::forward`] without caches, with dropout as the
    /// identity (evaluation semantics) and scratch from `ws`.
    ///
    /// `stemb` is the **already SiLU-activated** time embedding: every
    /// block applies the same activation to the same tensor, so the
    /// U-Net computes it once per call instead of copy+SiLU per block.
    // dp-lint: zero-alloc
    fn infer(&self, x: &Tensor, stemb: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut hn = self.norm1.infer(x, ws);
        silu_in_place(&mut hn);
        let mut h = self.conv1.infer(&hn, ws);
        ws.recycle(hn);
        let t = self.temb_proj.infer(stemb, ws);
        add_time_bias(&mut h, &t);
        ws.recycle(t);
        let mut hn = self.norm2.infer(&h, ws);
        ws.recycle(h);
        silu_in_place(&mut hn);
        let mut out = self.conv2.infer(&hn, ws);
        ws.recycle(hn);
        match &self.skip {
            Some(proj) => {
                let skipped = proj.infer(x, ws);
                out.add_assign(&skipped);
                ws.recycle(skipped);
            }
            None => out.add_assign(x),
        }
        out
    }

    /// Prepacks the weights of every GEMM-backed sublayer (see
    /// [`Conv2d::prepack`]).
    fn prepack(&mut self) {
        self.conv1.prepack();
        self.temb_proj.prepack();
        self.conv2.prepack();
        if let Some(skip) = &mut self.skip {
            skip.prepack();
        }
    }

    /// Returns `(grad_x, grad_temb)`.
    fn backward(&mut self, grad_y: &Tensor) -> (Tensor, Tensor) {
        // Skip path.
        let grad_x_skip = match &mut self.skip {
            Some(proj) => proj.backward(grad_y),
            None => grad_y.clone(),
        };
        // Main path, second stage.
        let g = self.conv2.backward(grad_y);
        let g = self.dropout.backward(&g);
        let g = self.silu2.backward(&g);
        let grad_mid = self.norm2.backward(&g);
        // Time branch: grad is the HW-sum per (n, c).
        let shape = grad_mid.shape();
        let mut grad_t = Tensor::zeros(&shape[..2]);
        for (t, plane) in grad_t
            .data_mut()
            .iter_mut()
            .zip(grad_mid.data().chunks(shape[2] * shape[3]))
        {
            let mut s = 0.0;
            for &v in plane {
                s += v;
            }
            *t = s;
        }
        let g_t = self.temb_proj.backward(&grad_t);
        let grad_temb = self.silu_t.backward(&g_t);
        // Main path, first stage.
        let g = self.conv1.backward(&grad_mid);
        let g = self.silu1.backward(&g);
        let grad_x_main = self.norm1.backward(&g);
        (grad_x_main.add(&grad_x_skip), grad_temb)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.norm1.params_mut();
        params.extend(self.conv1.params_mut());
        params.extend(self.temb_proj.params_mut());
        params.extend(self.norm2.params_mut());
        params.extend(self.conv2.params_mut());
        if let Some(skip) = &mut self.skip {
            params.extend(skip.params_mut());
        }
        params
    }

    fn params(&self) -> Vec<&Param> {
        let mut params = self.norm1.params();
        params.extend(self.conv1.params());
        params.extend(self.temb_proj.params());
        params.extend(self.norm2.params());
        params.extend(self.conv2.params());
        if let Some(skip) = &self.skip {
            params.extend(skip.params());
        }
        params
    }
}

/// Broadcast-adds the `(n, c)` time projection over the HW plane of an
/// `(n, c, h, w)` feature map.
fn add_time_bias(out: &mut Tensor, t: &Tensor) {
    let (h, w) = (out.shape()[2], out.shape()[3]);
    let hw = h * w;
    assert_eq!(out.len(), t.len() * hw, "time bias shape mismatch");
    for (plane, row) in out.data_mut().chunks_mut(hw).enumerate() {
        let tv = t.data()[plane]; // planes iterate in (n, c) order
        for v in row {
            *v += tv;
        }
    }
}

/// One single-layer block of the U-Net body.
#[derive(Debug, Clone)]
enum Layer {
    Res(Box<ResBlock>),
    Attn(Box<SelfAttention2d>),
    /// A 3x3 convolution: the stem, or a stride-2 downsampling.
    Conv(Conv2d),
    /// Nearest-neighbour 2x upsampling, then a 3x3 convolution.
    Up(Conv2d),
}

impl Layer {
    fn res(in_c: usize, out_c: usize, config: &UNetConfig, rng: &mut impl Rng) -> Self {
        Layer::Res(Box::new(ResBlock::new(in_c, out_c, config, rng)))
    }

    fn attn(ch: usize, config: &UNetConfig, rng: &mut impl Rng) -> Self {
        let groups = config.groups.min(ch);
        Layer::Attn(Box::new(SelfAttention2d::new(ch, groups, rng)))
    }

    fn forward(&mut self, x: &Tensor, temb: &Tensor, rng: &mut StdRng) -> Tensor {
        match self {
            Layer::Res(res) => res.forward(x, temb, rng),
            Layer::Attn(attn) => attn.forward(x),
            Layer::Conv(conv) => conv.forward(x),
            Layer::Up(conv) => conv.forward(&upsample_nearest2(x)),
        }
    }

    /// `stemb` is the SiLU-activated time embedding [`ResBlock::infer`]
    /// takes.
    fn infer(&self, x: &Tensor, stemb: &Tensor, ws: &mut Workspace) -> Tensor {
        match self {
            Layer::Res(res) => res.infer(x, stemb, ws),
            Layer::Attn(attn) => attn.infer(x, ws),
            Layer::Conv(conv) => conv.infer(x, ws),
            Layer::Up(conv) => {
                let u = upsample_nearest2_ws(x, ws);
                let out = conv.infer(&u, ws);
                ws.recycle(u);
                out
            }
        }
    }

    /// Returns the input gradient and, for a residual block, the
    /// time-embedding gradient.
    fn backward(&mut self, grad: &Tensor) -> (Tensor, Option<Tensor>) {
        match self {
            Layer::Res(res) => {
                let (gx, gt) = res.backward(grad);
                (gx, Some(gt))
            }
            Layer::Attn(attn) => (attn.backward(grad), None),
            Layer::Conv(conv) => (conv.backward(grad), None),
            Layer::Up(conv) => (upsample_nearest2_backward(&conv.backward(grad)), None),
        }
    }

    fn prepack(&mut self) {
        match self {
            Layer::Res(res) => res.prepack(),
            Layer::Attn(attn) => attn.prepack(),
            Layer::Conv(conv) | Layer::Up(conv) => conv.prepack(),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            Layer::Res(res) => res.params_mut(),
            Layer::Attn(attn) => attn.params_mut(),
            Layer::Conv(conv) | Layer::Up(conv) => conv.params_mut(),
        }
    }

    fn params(&self) -> Vec<&Param> {
        match self {
            Layer::Res(res) => res.params(),
            Layer::Attn(attn) => attn.params(),
            Layer::Conv(conv) | Layer::Up(conv) => conv.params(),
        }
    }
}

/// What a body block does with the skip connections.
#[derive(Debug, Clone, Copy)]
enum Skip {
    None,
    /// Keeps its output as a skip connection (encoder).
    Keep,
    /// Concatenates the latest kept skip, of this many channels, onto its
    /// input (decoder).
    Cat(usize),
}

/// The full U-Net: time MLP, encoder, attention-equipped bottleneck,
/// skip-connected decoder and output head.
#[derive(Debug, Clone)]
pub struct UNet {
    config: UNetConfig,
    time_lin1: Linear,
    time_silu: Silu,
    time_lin2: Linear,
    /// The body, stem to last decoder block, in forward order.
    blocks: Vec<(Layer, Skip)>,
    head_norm: GroupNorm,
    head_silu: Silu,
    head_conv: Conv2d,
    dropout_rng: StdRng,
}

impl UNet {
    /// Builds the network from a configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is inconsistent (zero channels, odd
    /// `time_dim`, group counts that do not divide channel widths, empty
    /// `channel_mults`).
    pub fn new(config: &UNetConfig, rng: &mut impl Rng) -> Self {
        assert!(!config.channel_mults.is_empty(), "need at least one level");
        assert!(config.time_dim.is_multiple_of(2), "time_dim must be even");
        assert!(config.base_channels > 0 && config.in_channels > 0);
        let base = config.base_channels;
        let levels = config.channel_mults.len();

        let time_lin1 = Linear::new(config.time_dim, config.time_dim, rng);
        let time_lin2 = Linear::new(config.time_dim, config.time_dim, rng);

        // The body is built, so initialised and listed by `params`, in
        // forward order; `save_params` writes that order.
        let stem = Conv2d::new(config.in_channels, base, 3, 1, 1, rng);
        let mut blocks = vec![(Layer::Conv(stem), Skip::Keep)];
        let mut kept = vec![base];
        let mut ch = base;
        for (level, &mult) in config.channel_mults.iter().enumerate() {
            for _ in 0..config.num_res_blocks {
                blocks.push((Layer::res(ch, base * mult, config, rng), Skip::None));
                ch = base * mult;
                if config.attn_resolutions.contains(&level) {
                    blocks.push((Layer::attn(ch, config, rng), Skip::None));
                }
                blocks.last_mut().expect("just pushed").1 = Skip::Keep;
                kept.push(ch);
            }
            if level + 1 < levels {
                let down = Conv2d::new(ch, ch, 3, 2, 1, rng);
                blocks.push((Layer::Conv(down), Skip::Keep));
                kept.push(ch);
            }
        }

        blocks.push((Layer::res(ch, ch, config, rng), Skip::None));
        blocks.push((Layer::attn(ch, config, rng), Skip::None));
        blocks.push((Layer::res(ch, ch, config, rng), Skip::None));

        for (level, &mult) in config.channel_mults.iter().enumerate().rev() {
            for _ in 0..=config.num_res_blocks {
                let skip_ch = kept.pop().expect("skip bookkeeping broke");
                let res = Layer::res(ch + skip_ch, base * mult, config, rng);
                blocks.push((res, Skip::Cat(skip_ch)));
                ch = base * mult;
                if config.attn_resolutions.contains(&level) {
                    blocks.push((Layer::attn(ch, config, rng), Skip::None));
                }
            }
            if level != 0 {
                let up = Conv2d::new(ch, ch, 3, 1, 1, rng);
                blocks.push((Layer::Up(up), Skip::None));
            }
        }
        assert!(kept.is_empty(), "skip bookkeeping broke");

        UNet {
            config: config.clone(),
            time_lin1,
            time_silu: Silu::new(),
            time_lin2,
            blocks,
            head_norm: GroupNorm::new(config.groups.min(ch), ch),
            head_silu: Silu::new(),
            head_conv: Conv2d::new(ch, config.out_channels, 3, 1, 1, rng),
            dropout_rng: rand::SeedableRng::seed_from_u64(rng.gen()),
        }
    }

    /// Switches every dropout layer between training (stochastic) and
    /// evaluation (identity) mode. Networks start in evaluation mode; the
    /// diffusion trainer enables training mode for its optimisation steps.
    pub fn set_training(&mut self, training: bool) {
        for (layer, _) in &mut self.blocks {
            if let Layer::Res(res) = layer {
                res.dropout.set_training(training);
            }
        }
    }

    /// The configuration the network was built from.
    pub fn config(&self) -> &UNetConfig {
        &self.config
    }

    /// Total scalar parameter count.
    pub fn parameter_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    fn check_input(&self, x: &Tensor, steps: &[usize]) {
        assert_eq!(x.shape().len(), 4, "expected NCHW input");
        assert_eq!(x.shape()[0], steps.len(), "batch/steps mismatch");
        let levels = self.config.channel_mults.len();
        assert!(
            x.shape()[2].is_multiple_of(1 << (levels - 1)),
            "spatial side must be divisible by 2^(levels-1)"
        );
    }

    /// Forward pass over a batch: `x` is `(n, in_channels, s, s)` and
    /// `steps[i]` is the diffusion step index of batch item `i`.
    ///
    /// # Panics
    ///
    /// Panics when the batch size disagrees with `steps.len()`, the spatial
    /// side is not divisible by `2^(levels-1)`, or channels mismatch.
    pub fn forward(&mut self, x: &Tensor, steps: &[usize]) -> Tensor {
        self.check_input(x, steps);
        let emb = sinusoidal_embedding(steps, self.config.time_dim);
        let temb = self
            .time_lin2
            .forward(&self.time_silu.forward(&self.time_lin1.forward(&emb)));

        let mut skips = Vec::new();
        let mut h = x.clone();
        for (layer, skip) in &mut self.blocks {
            if let Skip::Cat(_) = skip {
                h = h.cat_channels(&skips.pop().expect("skip stack underflow"));
            }
            h = layer.forward(&h, &temb, &mut self.dropout_rng);
            if let Skip::Keep = skip {
                skips.push(h.clone());
            }
        }
        debug_assert!(skips.is_empty());

        self.head_conv
            .forward(&self.head_silu.forward(&self.head_norm.forward(&h)))
    }

    /// Prepacks every GEMM-backed layer's weights (reshaped/packed weight
    /// matrices, pre-transposed linear weights) so [`UNet::infer`] skips
    /// all per-call weight preparation. Idempotent.
    ///
    /// Intended for frozen weights — after training or after loading a
    /// model. Resuming training is safe: every layer's `forward` discards
    /// its packed copy before computing, so the training path always uses
    /// the live weights (re-run `prepack` once training ends). Mutating
    /// parameters directly and then calling [`UNet::infer`] without a
    /// fresh `prepack`, however, leaves the packed copies stale.
    pub fn prepack(&mut self) {
        self.time_lin1.prepack();
        self.time_lin2.prepack();
        for (layer, _) in &mut self.blocks {
            layer.prepack();
        }
        self.head_conv.prepack();
    }

    /// Inference-only forward pass from a shared reference.
    ///
    /// Computes exactly what [`UNet::forward`] computes in evaluation mode
    /// (dropout is the identity; outputs are bit-equal), but caches
    /// nothing and draws every intermediate tensor from `ws`: no backward
    /// pass is possible and no internal state changes, so a `UNet` can be
    /// shared across threads (`&self`) with one [`Workspace`] per thread.
    /// After the first call warms the workspace, steady-state calls
    /// perform no heap allocation. The returned tensor is pool-backed —
    /// recycle it into `ws` when done to keep the pool in steady state.
    ///
    /// # Batch invariance
    ///
    /// Every layer processes batch items independently with a fixed
    /// per-element accumulation order (convolutions and attention run one
    /// GEMM per item; the linear layers' GEMM grows only its M dimension,
    /// which never reorders a row's inner product; GroupNorm statistics
    /// are per `(item, group)`). Item `i` of a batched call is therefore
    /// **bit-identical** to a single-item call on the same input and
    /// step — the contract the micro-batched diffusion sampler relies on,
    /// pinned by `tests/golden_infer.rs`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`UNet::forward`].
    pub fn infer(&self, x: &Tensor, steps: &[usize], ws: &mut Workspace) -> Tensor {
        self.check_input(x, steps);
        let emb = sinusoidal_embedding_ws(steps, self.config.time_dim, ws);
        // The final embedding is activated once here (every residual
        // block consumes silu(temb), so per-block copies are pure waste).
        let mut t1 = self.time_lin1.infer(&emb, ws);
        ws.recycle(emb);
        silu_in_place(&mut t1);
        let mut temb = self.time_lin2.infer(&t1, ws);
        ws.recycle(t1);
        silu_in_place(&mut temb);

        // A kept output doubles as the next block's input, so it is pushed
        // (not copied) and read back from the top of the stack: `h` is
        // `None` while the stack top (or, before the stem, `x`) is the
        // current activation.
        let mut skips = ws.take_skip_stack();
        let mut h: Option<Tensor> = None;
        // dp-lint: zero-alloc
        for (layer, skip) in &self.blocks {
            let out = if let Skip::Cat(_) = skip {
                let main = h.take().expect("the decoder follows the middle blocks");
                let skip = skips.pop().expect("skip stack underflow");
                let mut cat = ws.take_uninit(&cat_channels_shape(&main, &skip));
                cat_channels_into(&main, &skip, &mut cat);
                ws.recycle(main);
                ws.recycle(skip);
                let out = layer.infer(&cat, &temb, ws);
                ws.recycle(cat);
                out
            } else {
                let out = layer.infer(h.as_ref().or(skips.last()).unwrap_or(x), &temb, ws);
                if let Some(h) = h.take() {
                    ws.recycle(h);
                }
                out
            };
            match skip {
                Skip::Keep => skips.push(out),
                _ => h = Some(out),
            }
        }
        debug_assert!(skips.is_empty());
        ws.put_skip_stack(skips);
        ws.recycle(temb);

        let h = h.expect("the body ends in a decoder block");
        let mut hn = self.head_norm.infer(&h, ws);
        ws.recycle(h);
        silu_in_place(&mut hn);
        let out = self.head_conv.infer(&hn, ws);
        ws.recycle(hn);
        out
    }

    /// Backward pass: accumulates every parameter gradient and returns the
    /// gradient with respect to the input.
    ///
    /// # Panics
    ///
    /// Panics with "backward before forward" unless a `forward` ran since
    /// the last `backward`: each layer's backward consumes the cache its
    /// forward left.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.head_conv.backward(grad_out);
        let g = self.head_silu.backward(&g);
        let mut g = self.head_norm.backward(&g);

        // The reverse walk meets the decoder's concatenations in the order
        // the encoder kept their skips, so the last-kept skip's gradient
        // ends on top of the stack, where the encoder's reverse walk
        // needs it first.
        let mut skip_grads: Vec<Tensor> = Vec::new();
        let mut grad_temb: Option<Tensor> = None;
        for (layer, skip) in self.blocks.iter_mut().rev() {
            if let Skip::Keep = skip {
                g.add_assign(&skip_grads.pop().expect("skip grad underflow"));
            }
            let (gx, gt) = layer.backward(&g);
            g = gx;
            if let Some(gt) = gt {
                match &mut grad_temb {
                    Some(total) => total.add_assign(&gt),
                    None => grad_temb = Some(gt),
                }
            }
            if let Skip::Cat(skip_ch) = *skip {
                let (gm, gs) = g.split_channels(g.shape()[1] - skip_ch);
                skip_grads.push(gs);
                g = gm;
            }
        }
        debug_assert!(skip_grads.is_empty());

        // Time MLP.
        let gt = grad_temb.expect("at least one res block");
        let gt = self.time_lin2.backward(&gt);
        let gt = self.time_silu.backward(&gt);
        let _ = self.time_lin1.backward(&gt);
        g
    }

    /// Every trainable parameter in a stable order (safe to pair with one
    /// [`crate::Adam`] instance across steps).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.time_lin1.params_mut();
        params.extend(self.time_lin2.params_mut());
        for (layer, _) in &mut self.blocks {
            params.extend(layer.params_mut());
        }
        params.extend(self.head_norm.params_mut());
        params.extend(self.head_conv.params_mut());
        params
    }

    /// Every trainable parameter behind shared references, in the same
    /// stable order as [`UNet::params_mut`] — the order
    /// [`crate::save_params`] serialises.
    pub fn params(&self) -> Vec<&Param> {
        let mut params = self.time_lin1.params();
        params.extend(self.time_lin2.params());
        for (layer, _) in &self.blocks {
            params.extend(layer.params());
        }
        params.extend(self.head_norm.params());
        params.extend(self.head_conv.params());
        params
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{assert_close, finite_diff};
    use rand::SeedableRng;

    fn tiny_config() -> UNetConfig {
        UNetConfig {
            in_channels: 2,
            out_channels: 4,
            base_channels: 4,
            channel_mults: vec![1, 2],
            num_res_blocks: 1,
            attn_resolutions: vec![1],
            time_dim: 8,
            groups: 2,
            dropout: 0.0,
        }
    }

    #[test]
    fn forward_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut net = UNet::new(&tiny_config(), &mut rng);
        let x = Tensor::randn(&[2, 2, 8, 8], 1.0, &mut rng);
        let y = net.forward(&x, &[0, 999]);
        assert_eq!(y.shape(), &[2, 4, 8, 8]);
    }

    #[test]
    fn single_level_config_works() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let config = UNetConfig {
            channel_mults: vec![1],
            attn_resolutions: vec![],
            ..tiny_config()
        };
        let mut net = UNet::new(&config, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let y = net.forward(&x, &[5]);
        assert_eq!(y.shape(), &[1, 4, 4, 4]);
    }

    #[test]
    fn three_level_config_works() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let config = UNetConfig {
            channel_mults: vec![1, 1, 2],
            attn_resolutions: vec![2],
            ..tiny_config()
        };
        let mut net = UNet::new(&config, &mut rng);
        let x = Tensor::randn(&[1, 2, 8, 8], 1.0, &mut rng);
        let y = net.forward(&x, &[10]);
        assert_eq!(y.shape(), &[1, 4, 8, 8]);
        let g = net.backward(&Tensor::full(y.shape(), 1.0));
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn time_step_changes_output() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut net = UNet::new(&tiny_config(), &mut rng);
        let x = Tensor::randn(&[1, 2, 8, 8], 1.0, &mut rng);
        let y0 = net.forward(&x, &[0]);
        let y1 = net.forward(&x, &[500]);
        assert!(y0.sub(&y1).max_abs() > 1e-4);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let config = UNetConfig {
            in_channels: 1,
            out_channels: 2,
            base_channels: 2,
            channel_mults: vec![1, 1],
            num_res_blocks: 1,
            attn_resolutions: vec![],
            time_dim: 4,
            groups: 1,
            dropout: 0.0,
        };
        let net = UNet::new(&config, &mut rng);
        let x = Tensor::randn(&[1, 1, 4, 4], 1.0, &mut rng);
        let mut live = net.clone();
        let y = live.forward(&x, &[3]);
        let analytic = live.backward(&Tensor::full(y.shape(), 1.0));
        let base = net.clone();
        let numeric = finite_diff(&x, move |t| {
            let mut n = base.clone();
            n.forward(t, &[3]).sum()
        });
        assert_close(&analytic, &numeric, 8e-2, "unet dx");
    }

    #[test]
    fn parameter_gradient_matches_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let config = UNetConfig {
            in_channels: 1,
            out_channels: 2,
            base_channels: 2,
            channel_mults: vec![1, 1],
            num_res_blocks: 1,
            attn_resolutions: vec![],
            time_dim: 4,
            groups: 1,
            dropout: 0.0,
        };
        let net = UNet::new(&config, &mut rng);
        let x = Tensor::randn(&[1, 1, 4, 4], 1.0, &mut rng);
        let mut live = net.clone();
        let y = live.forward(&x, &[3]);
        let _ = live.backward(&Tensor::full(y.shape(), 1.0));

        // Check the stem weight gradient end to end (the stem follows the
        // time MLP's two weight/bias pairs).
        const STEM_WEIGHT: usize = 4;
        let base = net.clone();
        let x2 = x.clone();
        let numeric = finite_diff(&net.params()[STEM_WEIGHT].value, move |w| {
            let mut n = base.clone();
            n.params_mut()[STEM_WEIGHT].value = w.clone();
            n.forward(&x2, &[3]).sum()
        });
        let stem_grad = &live.params()[STEM_WEIGHT].grad;
        assert_close(stem_grad, &numeric, 8e-2, "unet stem dW");

        // And the time MLP weight gradient (exercises temb accumulation).
        let base = net.clone();
        let x2 = x.clone();
        let numeric = finite_diff(&net.time_lin1.weight.value, move |w| {
            let mut n = base.clone();
            n.time_lin1.weight.value = w.clone();
            n.forward(&x2, &[3]).sum()
        });
        assert_close(&live.time_lin1.weight.grad, &numeric, 8e-2, "unet time dW");
    }

    #[test]
    fn training_step_reduces_simple_loss() {
        use crate::{Adam, AdamConfig};
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut net = UNet::new(&tiny_config(), &mut rng);
        let x = Tensor::randn(&[2, 2, 8, 8], 1.0, &mut rng);
        let target = Tensor::randn(&[2, 4, 8, 8], 1.0, &mut rng);
        let mut adam = Adam::new(AdamConfig {
            lr: 1e-2,
            ..AdamConfig::default()
        });
        let mut losses = Vec::new();
        for _ in 0..20 {
            let y = net.forward(&x, &[1, 2]);
            let diff = y.sub(&target);
            let loss = diff.data().iter().map(|d| d * d).sum::<f32>() / diff.len() as f32;
            losses.push(loss);
            let grad = diff.scale(2.0 / diff.len() as f32);
            let _ = net.backward(&grad);
            adam.step(&mut net.params_mut());
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.8),
            "loss did not drop: {losses:?}"
        );
    }

    #[test]
    fn dropout_is_stochastic_in_training_deterministic_in_eval() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let config = UNetConfig {
            dropout: 0.5,
            ..tiny_config()
        };
        let mut net = UNet::new(&config, &mut rng);
        let x = Tensor::randn(&[1, 2, 8, 8], 1.0, &mut rng);
        // Evaluation mode (the default): repeated forwards agree exactly.
        let a = net.forward(&x, &[3]);
        let b = net.forward(&x, &[3]);
        assert_eq!(a, b);
        // Training mode: fresh masks change the output.
        net.set_training(true);
        let c = net.forward(&x, &[3]);
        let d = net.forward(&x, &[3]);
        assert!(c.sub(&d).max_abs() > 1e-6, "dropout had no effect");
        // Back to eval: deterministic again and equal to the original.
        net.set_training(false);
        let e = net.forward(&x, &[3]);
        assert_eq!(a, e);
    }

    #[test]
    fn parameter_count_is_stable() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let net = UNet::new(&tiny_config(), &mut rng);
        let a = net.parameter_count();
        let b = net.parameter_count();
        assert_eq!(a, b);
        assert!(a > 1000, "unexpectedly small network: {a}");
    }

    #[test]
    fn infer_matches_eval_forward_exactly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let config = UNetConfig {
            dropout: 0.5, // must be ignored in both eval forward and infer
            ..tiny_config()
        };
        let mut net = UNet::new(&config, &mut rng);
        let x = Tensor::randn(&[2, 2, 8, 8], 1.0, &mut rng);
        let mut ws = Workspace::new();
        let via_infer = net.infer(&x, &[1, 77], &mut ws);
        let via_forward = net.forward(&x, &[1, 77]);
        assert_eq!(via_infer, via_forward);
        // infer is stateless: repeated calls agree bit-for-bit, with or
        // without prepacked weights, warm or cold workspace.
        assert_eq!(net.infer(&x, &[1, 77], &mut ws), via_infer);
        net.prepack();
        assert_eq!(net.infer(&x, &[1, 77], &mut ws), via_infer);
        assert_eq!(net.infer(&x, &[1, 77], &mut Workspace::new()), via_infer);
    }

    #[test]
    fn res_block_infer_matches_forward_bit_exactly() {
        // `ResBlock::infer` runs `forward`'s layer sequence one kernel per
        // layer; with and without the 1x1 skip projection, and with
        // non-trivial biases and affine norms so every layer moves values.
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let config = UNetConfig {
            dropout: 0.5, // evaluation semantics: identity on both paths
            ..tiny_config()
        };
        for (in_c, out_c) in [(4, 4), (4, 8)] {
            let mut block = ResBlock::new(in_c, out_c, &config, &mut rng);
            for p in block.params_mut() {
                if p.value.shape().len() == 1 {
                    for v in p.value.data_mut() {
                        *v += rng.gen_range(-0.5f32..0.5);
                    }
                }
            }
            let x = Tensor::randn(&[2, in_c, 6, 6], 1.0, &mut rng);
            let temb = Tensor::randn(&[2, config.time_dim], 1.0, &mut rng);
            let mut stemb = temb.clone();
            silu_in_place(&mut stemb);
            let reference = block.forward(&x, &temb, &mut rng);
            let mut ws = Workspace::new();
            let label = format!("{in_c}->{out_c}");
            assert_eq!(block.infer(&x, &stemb, &mut ws), reference, "{label}");
            block.prepack();
            assert_eq!(block.infer(&x, &stemb, &mut ws), reference, "{label}");
        }
    }

    #[test]
    fn shared_and_mut_param_orders_agree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut net = UNet::new(&tiny_config(), &mut rng);
        let shapes: Vec<Vec<usize>> = net
            .params()
            .iter()
            .map(|p| p.value.shape().to_vec())
            .collect();
        let shapes_mut: Vec<Vec<usize>> = net
            .params_mut()
            .iter()
            .map(|p| p.value.shape().to_vec())
            .collect();
        assert_eq!(shapes, shapes_mut);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn second_backward_after_one_forward_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut net = UNet::new(&tiny_config(), &mut rng);
        let y = net.forward(&Tensor::randn(&[1, 2, 8, 8], 1.0, &mut rng), &[4]);
        let g = Tensor::full(y.shape(), 1.0);
        let _ = net.backward(&g);
        let _ = net.backward(&g);
    }
}
