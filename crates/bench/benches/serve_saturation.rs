//! Network serving overhead and saturation: the PR 6 acceptance
//! benchmark. Three rows around one fixed workload (requests of
//! `count = 2` against the `table2` bench geometry):
//!
//! * `inprocess_4x_count2` — four requests through
//!   [`PatternService::generate`] directly: the serving floor, no
//!   sockets, no JSON.
//! * `wire_1client_4x_count2` — the same four requests sequentially
//!   over one keep-alive `dpserve` connection. The delta against the
//!   in-process row is the whole wire stack (HTTP framing, JSON codec,
//!   chunked streaming) — it should be small against generation cost.
//! * `wire_4clients_concurrent` — the four requests issued by four
//!   concurrent client threads. The engine fills its micro-batches
//!   across the connections, so this row tracks the in-process
//!   concurrent figure, not 4x the sequential one.
//!
//! With `DP_BENCH_JSON` set, medians land in the shared medians file
//! (the CI quick-bench writes `BENCH_ci.json`).

use criterion::{criterion_group, criterion_main, Criterion};
use diffpattern::{PatternService, RequestSpec, TrainedModel};
use dp_diffusion::{NeuralDenoiser, NoiseSchedule};
use dp_nn::{UNet, UNetConfig};
use dp_serve::{serve, Client, ServeConfig};
use rand::SeedableRng;
use std::sync::Arc;

const REQUESTS: usize = 4;
const COUNT_PER_REQUEST: usize = 2;

/// The `table2` bench geometry: C16 fold on 8x8 features, K = 30 (cost
/// is architecture-bound, so an untrained U-Net measures the same
/// per-topology time as a trained one).
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

fn serve_saturation(c: &mut Criterion) {
    let model = model();
    let service = PatternService::builder(Arc::clone(&model))
        .micro_batch(8)
        .build()
        .unwrap();
    let server = serve(service.clone(), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr();

    let mut group = c.benchmark_group("serve_saturation");
    group.sample_size(10);

    group.bench_function("inprocess_4x_count2", |b| {
        b.iter(|| {
            let mut produced = 0usize;
            for i in 0..REQUESTS as u64 {
                produced += service.generate(&spec(2000 + i)).unwrap().items.len();
            }
            produced
        })
    });

    group.bench_function("wire_1client_4x_count2", |b| {
        let mut client = Client::connect(addr).unwrap();
        b.iter(|| {
            let mut produced = 0usize;
            for i in 0..REQUESTS as u64 {
                produced += client.generate(&spec(2000 + i)).unwrap().items.len();
            }
            produced
        })
    });

    group.bench_function("wire_4clients_concurrent", |b| {
        b.iter(|| {
            let threads: Vec<_> = (0..REQUESTS as u64)
                .map(|i| {
                    std::thread::spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        client.generate(&spec(2000 + i)).unwrap().items.len()
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().unwrap())
                .sum::<usize>()
        })
    });
    group.finish();
    drop(server);
}

criterion_group!(benches, serve_saturation);
criterion_main!(benches);
