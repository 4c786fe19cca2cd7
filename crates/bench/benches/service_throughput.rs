//! Serving throughput: eight concurrent `count = 2` requests through one
//! [`PatternService`] versus eight sequential blocking
//! [`PatternService::generate`] calls — the same 16 items with the same
//! seeds either way (bit-identical by the determinism contract), but
//! concurrent submission fills each denoising micro-batch with lanes from
//! *several* requests, so the U-Net runs at batch ≈ 8 instead of batch 2.
//!
//! Two service rows pin the two mechanisms separately:
//!
//! * `service_8x_count2_concurrent` uses **one** worker, so the only
//!   difference from the sequential row is cross-request batch filling
//!   (B ≈ 8 vs B = 2 per U-Net call). On a single-CPU container this is
//!   bounded by the per-item batch scaling of the network itself
//!   (`nn_micro`'s batched rows: a few percent — elementwise work is
//!   linear in B), so the measured gain here tracks that ceiling.
//! * `service_8x_count2_pool` uses one worker per CPU. A sequential
//!   `generate(2)` call structurally caps at one worker — `count = 2`
//!   fits in a single micro-batch chunk, so extra workers have nothing
//!   to claim — while the pool spreads the 16 queued lanes across every
//!   core. On ≥ 2 cores this is where the ≥ 1.2x
//!   per-item acceptance floor comes from; on a 1-CPU container the row
//!   collapses to the single-worker one.

use criterion::{criterion_group, criterion_main, Criterion};
use diffpattern::{PatternService, RequestSpec, TrainedModel};
use dp_diffusion::{NeuralDenoiser, NoiseSchedule};
use dp_nn::{UNet, UNetConfig};
use rand::SeedableRng;
use std::sync::Arc;

const REQUESTS: usize = 8;
const COUNT_PER_REQUEST: usize = 2;

/// The `table2` bench geometry: C16 fold on 8x8 features, K = 30. The
/// sampling cost is architecture-bound, not weight-bound, so an untrained
/// U-Net measures the same per-topology time as a trained one.
fn model() -> Arc<TrainedModel> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
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
    let denoiser = NeuralDenoiser::new(UNet::new(&config, &mut rng));
    let schedule = NoiseSchedule::linear(30, 0.01, 0.5).unwrap();
    Arc::new(TrainedModel::new(denoiser, schedule, 8).unwrap())
}

fn spec(seed: u64) -> RequestSpec {
    RequestSpec::new(COUNT_PER_REQUEST).seed(seed)
}

fn service_throughput(c: &mut Criterion) {
    let model = model();
    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);

    let service = |threads: usize| {
        PatternService::builder(Arc::clone(&model))
            .threads(threads)
            .micro_batch(8)
            .build()
            .unwrap()
    };

    // Baseline: the 8 requests served one after another on one worker,
    // each batching only within itself (B = 2 denoising lanes per U-Net
    // call).
    group.bench_function("sequential_8x_generate2", |b| {
        let service = service(1);
        b.iter(|| {
            let mut produced = 0usize;
            for i in 0..REQUESTS as u64 {
                produced += service.generate(&spec(1000 + i)).unwrap().items.len();
            }
            produced
        })
    });

    // All 8 requests admitted up front, micro-batches filled across
    // requests (B ≈ 8 lanes per U-Net call). Output is bit-identical to
    // the sequential row seed for seed.
    let run_service = |b: &mut criterion::Bencher, threads: usize| {
        let service = service(threads);
        b.iter(|| {
            let handles: Vec<_> = (0..REQUESTS as u64)
                .map(|i| service.submit(&spec(1000 + i)).unwrap())
                .collect();
            let mut produced = 0usize;
            for handle in handles {
                produced += handle.wait().unwrap().items.len();
            }
            produced
        })
    };
    group.bench_function("service_8x_count2_concurrent", |b| run_service(b, 1));
    group.bench_function("service_8x_count2_pool", |b| run_service(b, 0));
    group.finish();
}

criterion_group!(benches, service_throughput);
criterion_main!(benches);
