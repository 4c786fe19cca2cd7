//! Layer-level microbenchmarks for the `dp_nn` inference engine, so GEMM /
//! conv / attention regressions are visible independently of the
//! end-to-end paper tables.
//!
//! The GEMM shapes are the actual products the C4 16x16 U-Net issues
//! (`(m, k, n)` = weight rows, im2col depth, spatial positions): the stem,
//! a level-0 feature conv, a level-1 feature conv, the widest decoder
//! conv, and an attention score product. Layer benches run prepacked with
//! a warm workspace — the steady-state configuration of the sampling hot
//! loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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
    for (label, m, k, n) in [
        ("stem_16x36x256", 16usize, 36usize, 256usize),
        ("feature_16x144x256", 16, 144, 256),
        ("level1_32x288x64", 32, 288, 64),
        ("decoder_16x432x256", 16, 432, 256),
        ("attn_scores_64x32x64", 64, 32, 64),
    ] {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |bch, ()| {
            bch.iter(|| matmul(&a, &b))
        });
    }
    group.finish();
}

fn conv_infer(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut ws = Workspace::new();
    let mut group = c.benchmark_group("nn_micro/conv_infer");
    group.sample_size(10);
    for (label, ic, oc, k, stride, pad, side) in [
        (
            "feature_3x3_16ch_16x16",
            16usize,
            16usize,
            3usize,
            1usize,
            1usize,
            16usize,
        ),
        ("down_3x3_s2_16ch_16x16", 16, 16, 3, 2, 1, 16),
        ("proj_1x1_32ch_8x8", 32, 32, 1, 1, 0, 8),
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
    let mut attn = SelfAttention2d::new(32, 4, &mut rng);
    attn.prepack();
    let x = Tensor::randn(&[1, 32, 8, 8], 1.0, &mut rng);
    let mut group = c.benchmark_group("nn_micro/attention_infer");
    group.sample_size(10);
    group.bench_function("c32_8x8", |bch| {
        bch.iter(|| {
            let y = attn.infer(&x, &mut ws);
            ws.recycle(y);
        })
    });
    group.finish();
}

fn layers(c: &mut Criterion) {
    // Per-layer accounting for the non-GEMM layers of the C4 16x16
    // U-Net, at the exact shapes its forward pass issues. Together with
    // `gemm`/`conv_infer`/`attention_infer` this splits a
    // `unet_infer` regression into named layer budgets instead of one
    // opaque end-to-end number.
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut ws = Workspace::new();
    let mut group = c.benchmark_group("nn_micro/layers");
    group.sample_size(10);

    // GroupNorm at the level-0 (16ch 16x16) and level-1 (32ch 8x8)
    // feature maps.
    for (label, channels, side) in [
        ("groupnorm_16ch_16x16", 16usize, 16usize),
        ("groupnorm_32ch_8x8", 32, 8),
    ] {
        let norm = GroupNorm::new(4, channels);
        let x = Tensor::randn(&[1, channels, side, side], 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |bch, ()| {
            bch.iter(|| {
                let y = norm.infer(&x, &mut ws);
                ws.recycle(y);
            })
        });
    }

    // SiLU over the widest activation (decoder concat, 32ch 16x16).
    // Element-wise with value-independent cost, so re-applying in place
    // measures the same work as a fresh tensor without realloc noise.
    let mut silu_x = Tensor::randn(&[1, 32, 16, 16], 1.0, &mut rng);
    group.bench_function("silu_32ch_16x16", |bch| {
        bch.iter(|| silu_in_place(&mut silu_x))
    });

    // Attention softmax at the 8x8 map: 64 rows (head-major positions)
    // of 64 logits. Softmax output is a valid input, so in-place
    // re-application is steady-state.
    let mut softmax_rows = vec![0.5f32; 64 * 64];
    group.bench_function("softmax_rows_64x64", |bch| {
        bch.iter(|| softmax_rows_in_place(&mut softmax_rows, 64))
    });

    // The time-embedding MLP layers (time_dim 16).
    let linear = Linear::new(16, 64, &mut rng);
    let t = Tensor::randn(&[1, 16], 1.0, &mut rng);
    group.bench_function("linear_time_16to64", |bch| {
        bch.iter(|| {
            let y = linear.infer(&t, &mut ws);
            ws.recycle(y);
        })
    });

    // Decoder upsample from the 8x8 bottleneck back to 16x16.
    let up_in = Tensor::randn(&[1, 32, 8, 8], 1.0, &mut rng);
    group.bench_function("upsample2_32ch_8to16", |bch| {
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
