//! Layer-level microbenchmarks for the `dp_nn` inference engine, so GEMM /
//! conv / attention regressions are visible independently of the
//! end-to-end paper tables.
//!
//! The GEMM shapes are the products the shipped U-Net
//! (`PipelineConfig::default()`) issues, derived from its config so they
//! cannot drift (`(m, k, n)` = weight rows, im2col depth, spatial
//! positions): the stem, a level-0 feature conv, a level-1 feature conv,
//! the widest decoder conv, the output head, and the attention score
//! product. Layer benches run prepacked with a warm workspace — the
//! steady-state configuration of the sampling hot loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diffpattern::PipelineConfig;
use dp_diffusion::{
    categorical_draw_in_place, posterior_jump_same_prob, reverse_update_in_place, NoiseSchedule,
};
use dp_nn::{
    matmul, silu_in_place, softmax_rows_in_place, upsample_nearest2_ws, Conv2d, GroupNorm, Linear,
    SelfAttention2d, Tensor, UNet, UNetConfig, Workspace,
};
use rand::SeedableRng;

fn gemm(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut group = c.benchmark_group("nn_micro/gemm");
    group.sample_size(10);
    // Channels and spatial positions of the two levels; attention runs at
    // level 1, where the decoder's first conv also reads the level's skip.
    let (unet, c0, c1, s0, s1) = shipped_levels();
    let (l0, l1) = (s0 * s0, s1 * s1);
    for (name, m, k, n) in [
        ("stem", c0, 9 * unet.in_channels, l0),
        ("feature", c0, 9 * c0, l0),
        ("level1", c1, 9 * c1, l1),
        ("decoder", c1, 9 * 2 * c1, l1),
        ("head", unet.out_channels, 9 * c0, l0),
        ("attn_scores", l1, c1, l1),
    ] {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let label = format!("{name}_{m}x{k}x{n}");
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |bch, ()| {
            bch.iter(|| matmul(&a, &b))
        });
    }
    group.finish();
}

/// The shipped U-Net's widths and feature-map sides: base (level-0)
/// channels, level-1 channels, level-0 side and level-1 side, derived from
/// `PipelineConfig::default()` so the layer rows cannot drift from it.
fn shipped_levels() -> (UNetConfig, usize, usize, usize, usize) {
    let pipeline = PipelineConfig::default();
    let unet = pipeline.unet_config();
    let (c0, c1) = (
        unet.base_channels * unet.channel_mults[0],
        unet.base_channels * unet.channel_mults[1],
    );
    let (s0, s1) = (pipeline.fold_side(), pipeline.fold_side() / 2);
    (unet, c0, c1, s0, s1)
}

fn conv_infer(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut ws = Workspace::new();
    let mut group = c.benchmark_group("nn_micro/conv_infer");
    group.sample_size(10);
    let (_, c0, c1, s0, s1) = shipped_levels();
    // A level-0 feature conv, the downsampling conv and a level-1 1x1
    // projection.
    for (label, ic, oc, k, stride, pad, side) in [
        (format!("feature_3x3_{c0}ch_{s0}x{s0}"), c0, c0, 3, 1, 1, s0),
        (format!("down_3x3_s2_{c0}ch_{s0}x{s0}"), c0, c0, 3, 2, 1, s0),
        (format!("proj_1x1_{c1}ch_{s1}x{s1}"), c1, c1, 1, 1, 0, s1),
    ] {
        let mut conv = Conv2d::new(ic, oc, k, stride, pad, &mut rng);
        conv.prepack();
        let x = Tensor::randn(&[1, ic, side, side], 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |bch, ()| {
            bch.iter(|| {
                let y = conv.infer(&x, &mut ws);
                ws.recycle(y);
            })
        });
    }
    group.finish();
}

fn attention_infer(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let mut ws = Workspace::new();
    // Attention runs at level 1.
    let (unet, _, c1, _, s1) = shipped_levels();
    let mut attn = SelfAttention2d::new(c1, unet.groups.min(c1), &mut rng);
    attn.prepack();
    let x = Tensor::randn(&[1, c1, s1, s1], 1.0, &mut rng);
    let mut group = c.benchmark_group("nn_micro/attention_infer");
    group.sample_size(10);
    group.bench_function(format!("c{c1}_{s1}x{s1}"), |bch| {
        bch.iter(|| {
            let y = attn.infer(&x, &mut ws);
            ws.recycle(y);
        })
    });
    group.finish();
}

fn layers(c: &mut Criterion) {
    // Per-layer accounting for the non-GEMM layers of the shipped U-Net,
    // at the shapes its forward pass issues. Together with
    // `gemm`/`conv_infer`/`attention_infer` this splits a `unet_infer`
    // regression into named layer budgets instead of one opaque
    // end-to-end number.
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut ws = Workspace::new();
    let mut group = c.benchmark_group("nn_micro/layers");
    group.sample_size(10);
    let (unet, c0, c1, s0, s1) = shipped_levels();

    // GroupNorm at the level-0 and level-1 feature maps.
    for (channels, side) in [(c0, s0), (c1, s1)] {
        let norm = GroupNorm::new(unet.groups.min(channels), channels);
        let x = Tensor::randn(&[1, channels, side, side], 1.0, &mut rng);
        let label = format!("groupnorm_{channels}ch_{side}x{side}");
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |bch, ()| {
            bch.iter(|| {
                let y = norm.infer(&x, &mut ws);
                ws.recycle(y);
            })
        });
    }

    // SiLU over the widest activation, the first level-0 decoder block's
    // input (level-1 output concatenated with a level-0 skip). Every pass
    // starts from the same fresh input (the copy is timed too): SiLU's own
    // output fed back in would shrink towards zero through the subnormals
    // over many passes, so the work would depend on the pass count.
    let silu_in = Tensor::randn(&[1, c1 + c0, s0, s0], 1.0, &mut rng);
    let mut silu_x = silu_in.clone();
    group.bench_function(format!("silu_{}ch_{s0}x{s0}", c1 + c0), |bch| {
        bch.iter(|| {
            silu_x.data_mut().copy_from_slice(silu_in.data());
            silu_in_place(&mut silu_x)
        })
    });

    // Attention softmax at the level-1 map: one row of logits per
    // position. Softmax output is a valid input, so in-place
    // re-application is steady-state.
    let l1 = s1 * s1;
    let mut softmax_rows = vec![0.5f32; l1 * l1];
    group.bench_function(format!("softmax_rows_{l1}x{l1}"), |bch| {
        bch.iter(|| softmax_rows_in_place(&mut softmax_rows, l1))
    });

    // A time-embedding MLP layer.
    let td = unet.time_dim;
    let mut linear = Linear::new(td, td, &mut rng);
    linear.prepack();
    let t = Tensor::randn(&[1, td], 1.0, &mut rng);
    group.bench_function(format!("linear_time_{td}to{td}"), |bch| {
        bch.iter(|| {
            let y = linear.infer(&t, &mut ws);
            ws.recycle(y);
        })
    });

    // Decoder upsample from the level-1 map back to level 0.
    let up_in = Tensor::randn(&[1, c1, s1, s1], 1.0, &mut rng);
    group.bench_function(format!("upsample2_{c1}ch_{s1}to{s0}"), |bch| {
        bch.iter(|| {
            let y = upsample_nearest2_ws(&up_in, &mut ws);
            ws.recycle(y);
        })
    });

    group.finish();
}

fn unet_infer(c: &mut Criterion) {
    // The same C4 16x16 instance as `ablation_fold/unet_forward`, but on
    // the packed + workspace inference path the sampler actually runs.
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let config = UNetConfig {
        in_channels: 4,
        out_channels: 8,
        base_channels: 16,
        channel_mults: vec![1, 2],
        num_res_blocks: 1,
        attn_resolutions: vec![1],
        time_dim: 16,
        groups: 4,
        dropout: 0.0,
    };
    let mut net = UNet::new(&config, &mut rng);
    net.prepack();
    let x = Tensor::randn(&[1, 4, 16, 16], 1.0, &mut rng);
    let mut ws = Workspace::new();
    let mut group = c.benchmark_group("nn_micro/unet_infer");
    group.sample_size(10);
    group.bench_function("C4_16x16_prepacked_warm", |bch| {
        bch.iter(|| {
            let y = net.infer(&x, &[10], &mut ws);
            ws.recycle(y);
        })
    });
    group.finish();
}

fn unet_infer_batched(c: &mut Criterion) {
    // The micro-batched sampler's configuration: the same C4 16x16
    // prepacked instance evaluated on B lock-step lanes per call. Reported
    // medians are per *call*; divide by B for the per-item cost the
    // `topology_per_sample` anchor feels (the B=1 row doubles as the
    // single-lane baseline).
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let config = UNetConfig {
        in_channels: 4,
        out_channels: 8,
        base_channels: 16,
        channel_mults: vec![1, 2],
        num_res_blocks: 1,
        attn_resolutions: vec![1],
        time_dim: 16,
        groups: 4,
        dropout: 0.0,
    };
    let mut net = UNet::new(&config, &mut rng);
    net.prepack();
    let mut group = c.benchmark_group("nn_micro/unet_infer_batched");
    group.sample_size(10);
    for b in [1usize, 4, 8] {
        let x = Tensor::randn(&[b, 4, 16, 16], 1.0, &mut rng);
        let steps = vec![10usize; b];
        let mut ws = Workspace::new();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("C4_16x16_B{b}")),
            &(),
            |bch, ()| {
                bch.iter(|| {
                    let y = net.infer(&x, &steps, &mut ws);
                    ws.recycle(y);
                })
            },
        );
    }
    group.finish();
}

fn sampler(c: &mut Criterion) {
    // The per-pixel tail of every denoising step, at the C4 16x16
    // topology size (4 x 16 x 16 = 1024 bits per lane). `posterior_step`
    // is the Eq. 12 mixing + draw the reverse chain runs K times per
    // sample; `categorical_draw` is the bare Bernoulli draw it bottoms
    // out in (and the chain's k = 1 final step).
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let schedule = NoiseSchedule::linear(1000, 0.01, 0.5).unwrap();
    let n = 4 * 16 * 16;
    let p1: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
    let mut bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    let mut group = c.benchmark_group("nn_micro/sampler");
    group.sample_size(10);
    group.bench_function("categorical_draw", |bch| {
        bch.iter(|| categorical_draw_in_place(&mut bits, &p1, &mut rng))
    });
    let k = 500;
    let eq = posterior_jump_same_prob(&schedule, k - 1, k, true);
    let ne = posterior_jump_same_prob(&schedule, k - 1, k, false);
    group.bench_function("posterior_step", |bch| {
        bch.iter(|| reverse_update_in_place(eq, ne, &mut bits, &p1, &mut rng))
    });
    group.finish();
}

criterion_group!(
    benches,
    gemm,
    conv_infer,
    attention_infer,
    layers,
    unet_infer,
    unet_infer_batched,
    sampler
);
criterion_main!(benches);
