//! Load generator for `dpserve`: sweeps client concurrency against one
//! server and prints the saturation curve — requests/second, items/
//! second, and per-request latency medians at each level.
//!
//! ```text
//! cargo run --release --example serve_load
//! DP_LOAD_LEVELS=1,2,4,8 DP_LOAD_REQUESTS=8 cargo run --release --example serve_load
//! ```
//!
//! The server runs in-process (same engine the binary would host), so
//! the numbers isolate protocol + scheduling behaviour from container
//! networking. What to look for: requests/second should *rise* with
//! concurrency until the generation pool saturates (the engine fills
//! its micro-batches across connections), then flatten — while
//! per-request latency grows roughly linearly past that knee. A 429 row
//! appears only if `DP_LOAD_MAX_QUEUED` bounds the admission queue.

use diffpattern::{PatternService, Pipeline, PipelineConfig, RequestSpec};
use diffpattern_suite::env_knob;
use dp_serve::{serve, Client, ClientError, ServeConfig};
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let iters = env_knob("DP_LOAD_TRAIN_ITERS", 60);
    let per_client = env_knob("DP_LOAD_REQUESTS", 4);
    let count = env_knob("DP_LOAD_COUNT", 2);
    let max_queued = env_knob("DP_LOAD_MAX_QUEUED", 0);
    let levels = std::env::var("DP_LOAD_LEVELS")
        .unwrap_or_else(|_| "1,2,4,8".to_string())
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|_| format!("DP_LOAD_LEVELS entry {v:?} is not a non-negative integer"))
        })
        .collect::<Result<Vec<usize>, _>>()?;

    eprintln!("training a tiny model ({iters} iterations)...");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng)?;
    pipeline.train(iters, &mut rng)?;
    let base = pipeline.request_spec(count);
    let model = Arc::new(pipeline.into_trained_model()?);
    let service = PatternService::builder(model)
        .max_queued_requests(max_queued)
        .build()?;
    let server = serve(service, "127.0.0.1:0", ServeConfig::default())?;
    let addr = server.addr();
    eprintln!("server on {addr}; sweeping concurrency levels {levels:?}\n");

    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>12} {:>8}",
        "clients", "req/s", "items/s", "p50_ms", "max_ms", "429s"
    );
    for &clients in &levels {
        let started = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|who| {
                let base = base.clone();
                std::thread::spawn(move || -> Result<_, ClientError> {
                    let mut client = Client::connect(addr)?;
                    let mut latencies = Vec::with_capacity(per_client);
                    let mut items = 0usize;
                    let mut rejected = 0usize;
                    for r in 0..per_client {
                        let spec = RequestSpec {
                            seed: (who * 1000 + r) as u64,
                            ..base.clone()
                        };
                        let t = Instant::now();
                        match client.generate(&spec) {
                            Ok(outcome) => {
                                items += outcome.items.len();
                                latencies.push(t.elapsed());
                            }
                            Err(ClientError::Rejected { status: 429, .. }) => {
                                rejected += 1;
                                std::thread::sleep(Duration::from_millis(20));
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    Ok((latencies, items, rejected))
                })
            })
            .collect();
        let mut latencies = Vec::new();
        let mut items = 0usize;
        let mut rejected = 0usize;
        for worker in workers {
            let (l, i, r) = worker.join().expect("load worker panicked")?;
            latencies.extend(l);
            items += i;
            rejected += r;
        }
        let wall = started.elapsed().as_secs_f64();
        latencies.sort();
        let p50 = latencies
            .get(latencies.len() / 2)
            .copied()
            .unwrap_or_default();
        let max = latencies.last().copied().unwrap_or_default();
        println!(
            "{clients:>8} {:>10.2} {:>10.2} {:>12.1} {:>12.1} {rejected:>8}",
            latencies.len() as f64 / wall,
            items as f64 / wall,
            p50.as_secs_f64() * 1e3,
            max.as_secs_f64() * 1e3,
        );
    }

    // Close with the server's own view of the run.
    let metrics = Client::connect(addr)?.metrics()?;
    let counter = |k: &str| metrics.get(k).and_then(dp_serve::Json::as_int).unwrap_or(0);
    eprintln!(
        "\nserver totals: {} requests, {} items streamed, {} completed, {} queue-full",
        counter("requests_total"),
        counter("items_streamed"),
        counter("requests_completed"),
        counter("rejected_queue_full"),
    );
    Ok(())
}
