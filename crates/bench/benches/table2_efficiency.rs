//! Paper Table II: average time per sample for (a) drawing one topology
//! from the diffusion model and (b) solving Eq. 14 with Solving-R versus
//! Solving-E initialisation. The paper reports 0.544 s sampling (GPU),
//! 0.269 s Solving-R and 0.117 s Solving-E (2.30x); the absolute numbers
//! here differ (CPU, reduced scale) but the *ordering and the R/E ratio
//! shape* are the reproduction target. A third group times one training
//! step of the shipped profile, the cost that bounds the model scale this
//! CPU stack can train.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diffpattern::{Pipeline, PipelineConfig};
use dp_bench::{bench_patterns, bench_topology};
use dp_diffusion::{BatchScratch, Conditioning, NoiseSchedule, Sampler, UniformDenoiser};
use dp_drc::DesignRules;
use dp_legalize::{Init, Solver, SolverConfig};
use dp_nn::{UNet, UNetConfig};
use rand::SeedableRng;

fn sampling(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    // The sampling cost is architecture-bound, not weight-bound, so an
    // untrained U-Net measures the same per-topology time as a trained one.
    let config = UNetConfig {
        in_channels: 16,
        out_channels: 32,
        base_channels: 8,
        channel_mults: vec![1, 2],
        num_res_blocks: 1,
        attn_resolutions: vec![1],
        time_dim: 16,
        groups: 4,
        dropout: 0.0,
    };
    let mut denoiser = dp_diffusion::NeuralDenoiser::new(UNet::new(&config, &mut rng));
    denoiser.unet_mut().prepack();
    let sampler = Sampler::new(NoiseSchedule::linear(30, 0.01, 0.5).unwrap());
    let full = sampler.strided_steps(1);
    let none = Conditioning::none();

    let mut group = c.benchmark_group("table2/sampling");
    group.sample_size(10);
    // The headline row: prepacked weights and a warm scratch, exactly the
    // steady-state a `PatternService` worker runs a single-lane chunk in.
    let mut scratch = BatchScratch::new();
    group.bench_function("topology_per_sample", |b| {
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            let mut rngs = vec![rand::rngs::StdRng::seed_from_u64(round)];
            sampler.sample_conditioned_batch_with(
                &denoiser,
                16,
                8,
                &full,
                &none,
                &mut rngs,
                &mut scratch,
            )
        })
    });
    // The micro-batched inference path a `PatternService` worker runs
    // under load: 8 lock-step chains per U-Net call, prepacked weights,
    // warm scratch. The reported time is per *call* — divide by 8 for the
    // per-topology cost comparable to `topology_per_sample`.
    group.bench_function("topology_batched8_per_call", |b| {
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            let mut rngs: Vec<rand::rngs::StdRng> = (0..8)
                .map(|i| rand::rngs::StdRng::seed_from_u64(round * 8 + i))
                .collect();
            sampler.sample_conditioned_batch_with(
                &denoiser,
                16,
                8,
                &full,
                &none,
                &mut rngs,
                &mut scratch,
            )
        })
    });
    // The conditioned single-lane steady-state path: a quarter of the
    // tensor frozen (diffusion inpainting) plus hotspot-avoidance
    // guidance. The per-step overhead over `topology_per_sample` is the
    // re-clamp + logit reweight — budgeted at ≤ 15 % of the
    // unconditioned floor.
    let entries = 16 * 8 * 8;
    let frozen = dp_diffusion::FrozenRegion::new(
        (0..entries).map(|i| i < entries / 4).collect(),
        (0..entries).map(|i| i % 3 == 0).collect(),
    )
    .unwrap();
    let guidance =
        dp_diffusion::MotifGuidance::new(dp_diffusion::Motif::IsolatedCell, 4.0).unwrap();
    let conditioning = Conditioning::none()
        .with_frozen(frozen)
        .with_avoid(guidance);
    group.bench_function("topology_conditioned_per_sample", |b| {
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            let mut rngs = vec![rand::rngs::StdRng::seed_from_u64(round)];
            sampler.sample_conditioned_batch_with(
                &denoiser,
                16,
                8,
                &full,
                &conditioning,
                &mut rngs,
                &mut scratch,
            )
        })
    });
    // Null-model baseline showing the network cost dominates the chain.
    let uniform = UniformDenoiser::new();
    group.bench_function("chain_overhead_only", |b| {
        b.iter(|| {
            sampler.sample_conditioned_batch_with(
                &uniform,
                16,
                8,
                &full,
                &none,
                std::slice::from_mut(&mut rng),
                &mut scratch,
            )
        })
    });
    group.finish();
}

fn solving(c: &mut Criterion) {
    let rules = DesignRules::standard();
    let solver = Solver::new(rules, SolverConfig::for_window(2048, 2048));
    let donors = bench_patterns();
    let topologies: Vec<_> = (0..8).map(|s| bench_topology(s, 32)).collect();

    let mut group = c.benchmark_group("table2/solving");
    group.sample_size(20);
    for (label, existing) in [("Solving-R", false), ("Solving-E", true)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &existing, |b, &e| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            let mut i = 0usize;
            b.iter(|| {
                let topo = &topologies[i % topologies.len()];
                i += 1;
                let init = if e {
                    let donor = &donors[i % donors.len()];
                    Init::Existing(donor.dx(), donor.dy())
                } else {
                    Init::Random
                };
                solver.solve(topo, init, &mut rng)
            })
        });
    }
    group.finish();
}

/// One optimisation step of `PipelineConfig::default()`, the shipped
/// profile: `Pipeline::train(1, ..)` on its synthetic dataset — forward,
/// VB loss, backward and Adam at the shipped batch width. The
/// shipped-profile benchmark's set-up repeats exactly this step.
fn training(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let config = PipelineConfig::default();
    let label = format!("step_shipped_B{}", config.train.batch_size);
    let mut pipeline =
        Pipeline::from_synthetic_map(config, &mut rng).expect("the shipped profile is valid");

    let mut group = c.benchmark_group("table2/training");
    group.sample_size(10);
    group.bench_function(label, |b| {
        b.iter(|| {
            pipeline
                .train(1, &mut rng)
                .expect("the shipped dataset trains")
        })
    });
    group.finish();
}

criterion_group!(benches, sampling, solving, training);
criterion_main!(benches);
