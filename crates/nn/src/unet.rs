use crate::activation::{silu_in_place, Silu};
use crate::dropout::Dropout;
use crate::embedding::{sinusoidal_embedding, sinusoidal_embedding_ws};
use crate::tensor::{cat_channels_into, cat_channels_shape};
use crate::upsample::{upsample_nearest2, upsample_nearest2_backward, upsample_nearest2_ws};
use crate::{Conv2d, GroupNorm, Linear, Param, SelfAttention2d, Tensor, Workspace};
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
    cache_hw: Option<(usize, usize)>,
}

impl ResBlock {
    fn new(
        in_c: usize,
        out_c: usize,
        time_dim: usize,
        groups: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        ResBlock {
            norm1: GroupNorm::new(groups.min(in_c), in_c),
            silu1: Silu::new(),
            conv1: Conv2d::new(in_c, out_c, 3, 1, 1, rng),
            silu_t: Silu::new(),
            temb_proj: Linear::new(time_dim, out_c, rng),
            norm2: GroupNorm::new(groups.min(out_c), out_c),
            silu2: Silu::new(),
            dropout: Dropout::new(dropout),
            conv2: Conv2d::new(out_c, out_c, 3, 1, 1, rng),
            skip: (in_c != out_c).then(|| Conv2d::new_1x1(in_c, out_c, rng)),
            cache_hw: None,
        }
    }

    fn forward(&mut self, x: &Tensor, temb: &Tensor, rng: &mut rand::rngs::StdRng) -> Tensor {
        let (h, w) = (x.shape()[2], x.shape()[3]);
        self.cache_hw = Some((h, w));
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

    /// Inference-only forward from a shared reference: no caches, dropout
    /// is the identity (evaluation semantics), scratch from `ws`.
    ///
    /// `stemb` is the **already SiLU-activated** time embedding: every
    /// block applies the same activation to the same tensor, so the
    /// U-Net computes it once per call instead of copy+SiLU per block.
    /// The whole norm→SiLU→conv→time-bias→norm→SiLU mid-section runs as
    /// two fused kernels ([`GroupNorm::infer_silu`] and
    /// [`Conv2d::infer_bias_norm_silu`]), each bit-identical to the layer
    /// sequence it replaces; conv2 and the skip add are unchanged.
    fn infer(&self, x: &Tensor, stemb: &Tensor, ws: &mut Workspace) -> Tensor {
        let hn = self.norm1.infer_silu(x, ws);
        let t = self.temb_proj.infer(stemb, ws);
        let h = self.conv1.infer_bias_norm_silu(&hn, &t, &self.norm2, ws);
        ws.recycle(hn);
        ws.recycle(t);
        let mut out = self.conv2.infer(&h, ws);
        ws.recycle(h);
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
        let (h, w) = self.cache_hw.expect("backward before forward");
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
        let (n, c) = (grad_mid.shape()[0], grad_mid.shape()[1]);
        let mut grad_t = Tensor::zeros(&[n, c]);
        for (t, plane) in grad_t
            .data_mut()
            .iter_mut()
            .zip(grad_mid.data().chunks(h * w))
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

/// One encoder level: residual (+ optional attention) blocks, then an
/// optional stride-2 downsampling convolution.
#[derive(Debug, Clone)]
struct DownStage {
    blocks: Vec<(ResBlock, Option<SelfAttention2d>)>,
    down: Option<Conv2d>,
}

/// One decoder level: residual (+ optional attention) blocks consuming skip
/// connections, then an optional upsampling convolution.
#[derive(Debug, Clone)]
struct UpStage {
    blocks: Vec<(ResBlock, Option<SelfAttention2d>)>,
    up: Option<Conv2d>,
}

/// The full U-Net: time MLP, encoder, attention-equipped bottleneck,
/// skip-connected decoder and output head.
#[derive(Debug, Clone)]
pub struct UNet {
    config: UNetConfig,
    time_lin1: Linear,
    time_silu: Silu,
    time_lin2: Linear,
    stem: Conv2d,
    down: Vec<DownStage>,
    mid1: ResBlock,
    mid_attn: SelfAttention2d,
    mid2: ResBlock,
    up: Vec<UpStage>,
    head_norm: GroupNorm,
    head_silu: Silu,
    head_conv: Conv2d,
    cache_skip_channels: Vec<usize>,
    dropout_rng: rand::rngs::StdRng,
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
        let stem = Conv2d::new(config.in_channels, base, 3, 1, 1, rng);

        let mut chs: Vec<usize> = vec![base];
        let mut ch = base;
        let mut down = Vec::with_capacity(levels);
        for (level, &mult) in config.channel_mults.iter().enumerate() {
            let mut blocks = Vec::with_capacity(config.num_res_blocks);
            for _ in 0..config.num_res_blocks {
                let out_c = base * mult;
                let res = ResBlock::new(
                    ch,
                    out_c,
                    config.time_dim,
                    config.groups,
                    config.dropout,
                    rng,
                );
                ch = out_c;
                let attn = config
                    .attn_resolutions
                    .contains(&level)
                    .then(|| SelfAttention2d::new(ch, config.groups.min(ch), rng));
                blocks.push((res, attn));
                chs.push(ch);
            }
            let is_last = level == levels - 1;
            let down_conv = (!is_last).then(|| {
                chs.push(ch);
                Conv2d::new(ch, ch, 3, 2, 1, rng)
            });
            down.push(DownStage {
                blocks,
                down: down_conv,
            });
        }

        let mid1 = ResBlock::new(ch, ch, config.time_dim, config.groups, config.dropout, rng);
        let mid_attn = SelfAttention2d::new(ch, config.groups.min(ch), rng);
        let mid2 = ResBlock::new(ch, ch, config.time_dim, config.groups, config.dropout, rng);

        let mut up = Vec::with_capacity(levels);
        for (level, &mult) in config.channel_mults.iter().enumerate().rev() {
            let mut blocks = Vec::with_capacity(config.num_res_blocks + 1);
            for _ in 0..config.num_res_blocks + 1 {
                let skip_ch = chs.pop().expect("skip bookkeeping broke");
                let out_c = base * mult;
                let res = ResBlock::new(
                    ch + skip_ch,
                    out_c,
                    config.time_dim,
                    config.groups,
                    config.dropout,
                    rng,
                );
                ch = out_c;
                let attn = config
                    .attn_resolutions
                    .contains(&level)
                    .then(|| SelfAttention2d::new(ch, config.groups.min(ch), rng));
                blocks.push((res, attn));
            }
            let up_conv = (level != 0).then(|| Conv2d::new(ch, ch, 3, 1, 1, rng));
            up.push(UpStage {
                blocks,
                up: up_conv,
            });
        }
        assert!(chs.is_empty(), "skip bookkeeping broke");

        UNet {
            config: config.clone(),
            time_lin1,
            time_silu: Silu::new(),
            time_lin2,
            stem,
            down,
            mid1,
            mid_attn,
            mid2,
            up,
            head_norm: GroupNorm::new(config.groups.min(ch), ch),
            head_silu: Silu::new(),
            head_conv: Conv2d::new(ch, config.out_channels, 3, 1, 1, rng),
            cache_skip_channels: Vec::new(),
            dropout_rng: rand::SeedableRng::seed_from_u64(rng.gen()),
        }
    }

    /// Switches every dropout layer between training (stochastic) and
    /// evaluation (identity) mode. Networks start in evaluation mode; the
    /// diffusion trainer enables training mode for its optimisation steps.
    pub fn set_training(&mut self, training: bool) {
        for stage in &mut self.down {
            for (res, _) in &mut stage.blocks {
                res.dropout.set_training(training);
            }
        }
        self.mid1.dropout.set_training(training);
        self.mid2.dropout.set_training(training);
        for stage in &mut self.up {
            for (res, _) in &mut stage.blocks {
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

    /// Forward pass over a batch: `x` is `(n, in_channels, s, s)` and
    /// `steps[i]` is the diffusion step index of batch item `i`.
    ///
    /// # Panics
    ///
    /// Panics when the batch size disagrees with `steps.len()`, the spatial
    /// side is not divisible by `2^(levels-1)`, or channels mismatch.
    pub fn forward(&mut self, x: &Tensor, steps: &[usize]) -> Tensor {
        assert_eq!(x.shape().len(), 4, "expected NCHW input");
        assert_eq!(x.shape()[0], steps.len(), "batch/steps mismatch");
        let levels = self.config.channel_mults.len();
        assert!(
            x.shape()[2].is_multiple_of(1 << (levels - 1)),
            "spatial side must be divisible by 2^(levels-1)"
        );

        let emb = sinusoidal_embedding(steps, self.config.time_dim);
        let temb = self
            .time_lin2
            .forward(&self.time_silu.forward(&self.time_lin1.forward(&emb)));

        let mut drop_rng = self.dropout_rng.clone();
        let mut h = self.stem.forward(x);
        let mut skips: Vec<Tensor> = vec![h.clone()];
        for stage in &mut self.down {
            for (res, attn) in &mut stage.blocks {
                h = res.forward(&h, &temb, &mut drop_rng);
                if let Some(attn) = attn {
                    h = attn.forward(&h);
                }
                skips.push(h.clone());
            }
            if let Some(down) = &mut stage.down {
                h = down.forward(&h);
                skips.push(h.clone());
            }
        }

        h = self.mid1.forward(&h, &temb, &mut drop_rng);
        h = self.mid_attn.forward(&h);
        h = self.mid2.forward(&h, &temb, &mut drop_rng);

        self.cache_skip_channels = skips.iter().map(|s| s.shape()[1]).collect();
        for stage in &mut self.up {
            for (res, attn) in &mut stage.blocks {
                let skip = skips.pop().expect("skip stack underflow");
                let cat = h.cat_channels(&skip);
                h = res.forward(&cat, &temb, &mut drop_rng);
                if let Some(attn) = attn {
                    h = attn.forward(&h);
                }
            }
            if let Some(upc) = &mut stage.up {
                h = upc.forward(&upsample_nearest2(&h));
            }
        }
        debug_assert!(skips.is_empty());
        self.dropout_rng = drop_rng;

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
        self.stem.prepack();
        for stage in &mut self.down {
            for (res, attn) in &mut stage.blocks {
                res.prepack();
                if let Some(attn) = attn {
                    attn.prepack();
                }
            }
            if let Some(down) = &mut stage.down {
                down.prepack();
            }
        }
        self.mid1.prepack();
        self.mid_attn.prepack();
        self.mid2.prepack();
        for stage in &mut self.up {
            for (res, attn) in &mut stage.blocks {
                res.prepack();
                if let Some(attn) = attn {
                    attn.prepack();
                }
            }
            if let Some(upc) = &mut stage.up {
                upc.prepack();
            }
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
        assert_eq!(x.shape().len(), 4, "expected NCHW input");
        assert_eq!(x.shape()[0], steps.len(), "batch/steps mismatch");
        let levels = self.config.channel_mults.len();
        assert!(
            x.shape()[2].is_multiple_of(1 << (levels - 1)),
            "spatial side must be divisible by 2^(levels-1)"
        );

        let emb = sinusoidal_embedding_ws(steps, self.config.time_dim, ws);
        // Hidden-layer SiLU fused into the GEMM epilogue; the final
        // embedding is activated once here (every residual block consumes
        // silu(temb), so per-block copies are pure waste).
        let t1 = self.time_lin1.infer_silu(&emb, ws);
        ws.recycle(emb);
        let mut temb = self.time_lin2.infer(&t1, ws);
        ws.recycle(t1);
        silu_in_place(&mut temb);

        // Encoder: each produced feature map doubles as the next stage's
        // input and a skip connection, so it is pushed (not copied) and
        // borrowed back from the stack.
        let mut skips = ws.take_skip_stack();
        skips.push(self.stem.infer(x, ws));
        for stage in &self.down {
            for (res, attn) in &stage.blocks {
                let mut h = res.infer(skips.last().expect("stem pushed"), &temb, ws);
                if let Some(attn) = attn {
                    let a = attn.infer(&h, ws);
                    ws.recycle(h);
                    h = a;
                }
                skips.push(h);
            }
            if let Some(down) = &stage.down {
                let h = down.infer(skips.last().expect("blocks pushed"), ws);
                skips.push(h);
            }
        }

        let m1 = self
            .mid1
            .infer(skips.last().expect("encoder pushed"), &temb, ws);
        let ma = self.mid_attn.infer(&m1, ws);
        ws.recycle(m1);
        let mut h = self.mid2.infer(&ma, &temb, ws);
        ws.recycle(ma);

        for stage in &self.up {
            for (res, attn) in &stage.blocks {
                let skip = skips.pop().expect("skip stack underflow");
                let mut cat = ws.take_uninit(&cat_channels_shape(&h, &skip));
                cat_channels_into(&h, &skip, &mut cat);
                ws.recycle(h);
                ws.recycle(skip);
                h = res.infer(&cat, &temb, ws);
                ws.recycle(cat);
                if let Some(attn) = attn {
                    let a = attn.infer(&h, ws);
                    ws.recycle(h);
                    h = a;
                }
            }
            if let Some(upc) = &stage.up {
                let u = upsample_nearest2_ws(&h, ws);
                ws.recycle(h);
                h = upc.infer(&u, ws);
                ws.recycle(u);
            }
        }
        debug_assert!(skips.is_empty());
        ws.put_skip_stack(skips);
        ws.recycle(temb);

        let hn = self.head_norm.infer_silu(&h, ws);
        ws.recycle(h);
        let out = self.head_conv.infer(&hn, ws);
        ws.recycle(hn);
        out
    }

    /// Backward pass: accumulates every parameter gradient and returns the
    /// gradient with respect to the input.
    ///
    /// # Panics
    ///
    /// Panics when called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut grad_temb_total: Option<Tensor> = None;
        let accumulate_temb = |grad: Tensor, total: &mut Option<Tensor>| match total {
            Some(t) => t.add_assign(&grad),
            None => *total = Some(grad),
        };

        // Head.
        let g = self.head_conv.backward(grad_out);
        let g = self.head_silu.backward(&g);
        let mut g = self.head_norm.backward(&g);

        // Decoder in reverse; collect skip grads in pop order reversed.
        //
        // Forward pushed skips s_0..s_{K-1} and the decoder consumed them
        // last-first (s_{K-1} at the first cat). Backward therefore visits
        // the cat that consumed s_0 FIRST, so skip channel counts are read
        // from the front of the recorded list, and the grads collected here
        // come out in push order (g(s_0), g(s_1), ...).
        let mut skip_ch_front = 0usize;
        let mut skip_grads: Vec<Tensor> = Vec::new();
        for stage in self.up.iter_mut().rev() {
            if let Some(upc) = &mut stage.up {
                let gu = upc.backward(&g);
                g = upsample_nearest2_backward(&gu);
            }
            for (res, attn) in stage.blocks.iter_mut().rev() {
                if let Some(attn) = attn {
                    g = attn.backward(&g);
                }
                let (gcat, gt) = res.backward(&g);
                accumulate_temb(gt, &mut grad_temb_total);
                // Split cat gradient into main and skip parts.
                let skip_ch = self.cache_skip_channels[skip_ch_front];
                skip_ch_front += 1;
                let main_ch = gcat.shape()[1] - skip_ch;
                let (gm, gs) = gcat.split_channels(main_ch);
                skip_grads.push(gs);
                g = gm;
            }
        }

        // Middle.
        let (gm, gt) = self.mid2.backward(&g);
        accumulate_temb(gt, &mut grad_temb_total);
        let gm = self.mid_attn.backward(&gm);
        let (mut g, gt) = self.mid1.backward(&gm);
        accumulate_temb(gt, &mut grad_temb_total);

        // Encoder in reverse. skip_grads currently holds grads in the order
        // the decoder consumed them backwards, i.e. skip_grads[k] matches the
        // (K-1-k)-th pushed skip... pops happened from the end, and backward
        // visited cat operations in reverse, so the first entry of skip_grads
        // corresponds to the FIRST pushed skip. Encoder backward needs them
        // last-pushed-first, so pop from the end of skip_grads.
        for stage in self.down.iter_mut().rev() {
            if let Some(down) = &mut stage.down {
                let gs = skip_grads.pop().expect("skip grad underflow");
                g.add_assign(&gs);
                g = down.backward(&g);
            }
            for (res, attn) in stage.blocks.iter_mut().rev() {
                let gs = skip_grads.pop().expect("skip grad underflow");
                g.add_assign(&gs);
                if let Some(attn) = attn {
                    g = attn.backward(&g);
                }
                let (gx, gt) = res.backward(&g);
                accumulate_temb(gt, &mut grad_temb_total);
                g = gx;
            }
        }
        // Stem skip.
        let gs = skip_grads.pop().expect("skip grad underflow");
        g.add_assign(&gs);
        debug_assert!(skip_grads.is_empty());
        let grad_input = self.stem.backward(&g);

        // Time MLP.
        let gt = grad_temb_total.expect("at least one res block");
        let gt = self.time_lin2.backward(&gt);
        let gt = self.time_silu.backward(&gt);
        let _ = self.time_lin1.backward(&gt);

        grad_input
    }

    /// Every trainable parameter in a stable order (safe to pair with one
    /// [`crate::Adam`] instance across steps).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.time_lin1.params_mut();
        params.extend(self.time_lin2.params_mut());
        params.extend(self.stem.params_mut());
        for stage in &mut self.down {
            for (res, attn) in &mut stage.blocks {
                params.extend(res.params_mut());
                if let Some(attn) = attn {
                    params.extend(attn.params_mut());
                }
            }
            if let Some(down) = &mut stage.down {
                params.extend(down.params_mut());
            }
        }
        params.extend(self.mid1.params_mut());
        params.extend(self.mid_attn.params_mut());
        params.extend(self.mid2.params_mut());
        for stage in &mut self.up {
            for (res, attn) in &mut stage.blocks {
                params.extend(res.params_mut());
                if let Some(attn) = attn {
                    params.extend(attn.params_mut());
                }
            }
            if let Some(upc) = &mut stage.up {
                params.extend(upc.params_mut());
            }
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
        params.extend(self.stem.params());
        for stage in &self.down {
            for (res, attn) in &stage.blocks {
                params.extend(res.params());
                if let Some(attn) = attn {
                    params.extend(attn.params());
                }
            }
            if let Some(down) = &stage.down {
                params.extend(down.params());
            }
        }
        params.extend(self.mid1.params());
        params.extend(self.mid_attn.params());
        params.extend(self.mid2.params());
        for stage in &self.up {
            for (res, attn) in &stage.blocks {
                params.extend(res.params());
                if let Some(attn) = attn {
                    params.extend(attn.params());
                }
            }
            if let Some(upc) = &stage.up {
                params.extend(upc.params());
            }
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

        // Check the stem weight gradient end to end.
        let base = net.clone();
        let x2 = x.clone();
        let numeric = finite_diff(&net.stem.weight.value, move |w| {
            let mut n = base.clone();
            n.stem.weight.value = w.clone();
            n.forward(&x2, &[3]).sum()
        });
        assert_close(&live.stem.weight.grad, &numeric, 8e-2, "unet stem dW");

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
}
