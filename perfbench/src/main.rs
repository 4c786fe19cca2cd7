//! `perfbench`: the repository's benchmark. Runs one workload against the
//! shipped profile (`PipelineConfig::default()`), checks every output,
//! and prints its metrics as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload library_build --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced, replays every delivered item of
//! the traced pass through the public per-lane chain, and prints the
//! per-layer metrics. See README.md in this directory.

mod gate;
mod host;
mod load;
mod run;
mod spec;
mod stats;
mod trace;

use run::{Outcome, Res, Stack};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// The workloads, in the order BENCHMARK.json lists them.
const WORKLOADS: [&str; 3] = ["library_build", "serve_wire", "bulk_contention"];

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.into_iter().find(|w| *w == value).ok_or_else(|| {
                    format!("unknown workload `{value}` (expected one of {WORKLOADS:?})")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (expected 0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A named metric with its unit.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn bench(args: &Args) -> Res<()> {
    let root = std::env::current_dir()?;
    let work = root.join(".perfbench_work");
    std::fs::create_dir_all(&work)?;
    print_provenance(args, &root);
    let wire = args.workload == "serve_wire";
    let (correct, tally, metrics) = if args.trace {
        traced(args, wire, &work)?
    } else {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut stack = None;
        for _ in 0..SETUPS {
            // Drop the previous stack first: its workers and server stop
            // and join before the next set-up is timed.
            drop(stack.take());
            let t = host::now();
            stack = Some(run::setup(wire)?);
            setups.push(t.elapsed().as_secs_f64());
        }
        let mut stack = stack.ok_or("no set-up ran")?;
        let out = run_workload(args, &mut stack, None, &work)?;
        print_details(args, &stack, &out);
        let (p50, tail) = latency(&out)?;
        let metrics = vec![
            metric("setup_s", "s", stats::median(&setups).unwrap_or(0.0)),
            metric(
                "patterns_per_s",
                "1/s",
                out.throughput.0 as f64 / out.throughput.1,
            ),
            metric("latency_p50_ms", "ms", p50),
            metric("latency_tail_ms", "ms", tail.value),
            metric(
                "on_time_share",
                "ratio",
                ratio(out.on_time.0, out.on_time.1),
            ),
            metric("peak_rss_mb", "MB", host::peak_rss_mb()),
        ];
        (out.tally.correct() && out.rounds.1, out.tally, metrics)
    };
    print_result(correct, &tally, &metrics);
    Ok(())
}

fn run_workload(
    args: &Args,
    stack: &mut Stack,
    tracer: Option<&Tracer>,
    work: &Path,
) -> Res<Outcome> {
    match args.workload {
        "library_build" => run::library_build(stack, args.seed, args.seconds, work, tracer),
        "serve_wire" => run::serve_wire(stack, args.seed, args.seconds, tracer),
        _ => run::bulk_contention(stack, args.seed, args.seconds, tracer),
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The median and the supported tail of the latency samples.
fn latency(out: &Outcome) -> Res<(f64, stats::Tail)> {
    let n = out.latencies_ms.len();
    let p50 = stats::median(&out.latencies_ms).ok_or("no latency samples")?;
    let tail = stats::tail(&out.latencies_ms)
        .ok_or_else(|| format!("{n} latency samples cannot support a tail percentile"))?;
    Ok((p50, tail))
}

/// The traced run: an untraced pass, a traced pass of the same length,
/// the replay of the traced pass's deliveries, and the per-layer probes.
fn traced(args: &Args, wire: bool, work: &Path) -> Res<(bool, gate::Tally, Vec<Metric>)> {
    let mut stack = run::setup(wire)?;
    let untraced = run_workload(args, &mut stack, None, work)?;
    let tracer = Tracer::default();
    let out = run_workload(args, &mut stack, Some(&tracer), work)?;
    let model = std::sync::Arc::clone(stack.service.model());
    let workers = stack.service.threads();
    let micro_batch = stack.service.micro_batch();
    let replay = trace::replay(&model, &out, workers, micro_batch, &tracer, work)?;
    let (wire_overhead_ms, wire_identical) = run::wire_overhead(&mut stack, args.seed)?;
    tracer.write(&work.join(format!("trace-{}-{}.jsonl", args.workload, args.seed)))?;

    // U-Net calls as a worker of the multi-worker pool runs them (inner
    // GEMM threading off), then as a single worker runs them (GEMMs
    // threaded) and as two workers side by side: the GEMM-threading gap.
    let pool_worker = |batch, calls| {
        diffpattern::nn::with_inner_gemm_parallelism(false, || {
            trace::unet_call_ms(&model, batch, calls)
        })
    };
    let b1 = pool_worker(1, 40);
    let b8 = pool_worker(8, 12);
    let b8_gemm_threads = trace::unet_call_ms(&model, 8, 12);
    let b8_two = std::thread::scope(|s| {
        let runs: Vec<_> = (0..2).map(|_| s.spawn(|| pool_worker(8, 12))).collect();
        let times: Vec<f64> = runs
            .into_iter()
            .map(|r| r.join().expect("a probe thread panicked"))
            .collect();
        stats::mean(&times)
    });

    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    let layer = |name: &str| trace::total_s(&selfs, name);
    let sample_s: f64 = spans
        .iter()
        .filter(|s| s.name == "diffusion.sample")
        .map(|s| (s.end_us - s.start_us) / 1e6)
        .sum();
    let max_attempts = out.jobs.first().map_or(4, |j| j.spec.max_attempts) as f64;
    // Slots of the replayed work that delivered nothing (for
    // library_build, the first round: the one the replay covers).
    let requested: usize = out.jobs.iter().map(|j| j.spec.count).sum();
    let shortfall = requested.saturating_sub(out.delivered.len()) as f64;
    let sample_ms_per_item = sample_s * 1e3 / replay.attempts.max(1) as f64;
    let per_attempt_s = (sample_s + layer("geometry.prefilter") + layer("legalize.solve"))
        / replay.attempts.max(1) as f64;
    let accounted: f64 = [
        "nn.infer",
        "diffusion.sample",
        "geometry.prefilter",
        "legalize.solve",
        "squish.assemble",
        "drc.check",
        "serve.codec",
        "library.ingest",
    ]
    .iter()
    .map(|n| layer(n))
    .sum::<f64>()
        + shortfall * max_attempts * per_attempt_s;
    let capacity = workers as f64 * out.round_walls.first().copied().unwrap_or(out.wall_s);
    // Where the transport exposes the engine's report, count from it;
    // LibrarySink does not, so library_build counts replayed attempts
    // plus the whole attempt budget of every shortfall slot.
    let (sampled, legal, solver_failures) = if out.report.topologies_sampled > 0 {
        let r = out.report;
        (r.topologies_sampled, r.legal_patterns, r.solver_failures)
    } else {
        let shortfall_attempts = (shortfall * max_attempts) as usize;
        (
            replay.attempts + shortfall_attempts,
            replay.lanes,
            replay.solves.1 + shortfall_attempts,
        )
    };
    let lanes_submitted = (requested * out.rounds.0) as u64;
    let (queued_mean, in_flight_mean) = out.poller.means();
    // Shortfall slots spent their whole attempt budget at the mean
    // denoiser steps of a replayed attempt.
    let steps_per_attempt = replay.unet_calls.1 as f64 / replay.attempts.max(1) as f64;
    let steps_per_pattern = (replay.unet_calls.1 as f64
        + shortfall * max_attempts * steps_per_attempt)
        / replay.lanes.max(1) as f64;
    let untraced_pps = untraced.throughput.0 as f64 / untraced.throughput.1;
    let traced_pps = out.throughput.0 as f64 / out.throughput.1;

    let metrics = vec![
        metric("nn.unet_call_ms.b1", "ms", b1),
        metric("nn.unet_call_ms.b8", "ms", b8),
        metric("nn.unet_call_ms.b8_gemm_threads", "ms", b8_gemm_threads),
        metric("nn.unet_call_ms.b8_two_workers", "ms", b8_two),
        metric("nn.unet_calls_per_pattern", "count", steps_per_pattern),
        metric("diffusion.sample_ms_per_item", "ms", sample_ms_per_item),
        metric(
            "diffusion.bookkeeping_ms_per_item",
            "ms",
            layer("diffusion.sample") * 1e3 / replay.attempts.max(1) as f64,
        ),
        metric("diffusion.train_iter_ms", "ms", stack.train_iter_ms),
        metric(
            "engine.occupancy",
            "ratio",
            in_flight_mean / (workers * micro_batch) as f64,
        ),
        metric("engine.queued_lanes_mean", "count", queued_mean),
        metric(
            "engine.wait_ms",
            "ms",
            out.poller.queued_lane_seconds() * 1e3 / lanes_submitted.max(1) as f64,
        ),
        metric(
            "engine.useful_share",
            "ratio",
            ratio(legal as u64, sampled as u64),
        ),
        metric(
            "engine.shortfall_share",
            "ratio",
            shortfall / requested.max(1) as f64,
        ),
        metric(
            "geometry.prefilter_us_per_item",
            "us",
            trace::us_per(&selfs, "geometry.prefilter"),
        ),
        metric(
            "geometry.repaired_share",
            "ratio",
            ratio(replay.repaired as u64, replay.attempts as u64),
        ),
        metric(
            "legalize.solve_us_per_item",
            "us",
            trace::us_per(&selfs, "legalize.solve"),
        ),
        metric(
            "legalize.iterations_per_solve",
            "count",
            replay.solve_iterations as f64 / (replay.solves.0 - replay.solves.1).max(1) as f64,
        ),
        metric(
            "legalize.failed_solve_share",
            "ratio",
            ratio(solver_failures as u64, (solver_failures + legal) as u64),
        ),
        metric(
            "drc.check_us_per_item",
            "us",
            trace::us_per(&selfs, "drc.check"),
        ),
        metric("drc.violations", "count", replay.drc_violations as f64),
        metric(
            "serve.codec_us_per_item",
            "us",
            trace::us_per(&selfs, "serve.codec"),
        ),
        metric(
            "serve.bytes_per_item",
            "count",
            replay.codec_bytes as f64 / replay.lanes.max(1) as f64,
        ),
        metric("serve.wire_overhead_ms", "ms", wire_overhead_ms),
        metric(
            "library.ingest_us_per_item",
            "us",
            trace::us_per(&selfs, "library.ingest"),
        ),
        metric(
            "library.checkpoint_ms",
            "ms",
            stats::median(&out.checkpoint_ms).unwrap_or(replay.checkpoint_ms),
        ),
        metric(
            "loadgen.lateness_max_ms",
            "ms",
            out.lateness_ms.iter().copied().fold(0.0, f64::max),
        ),
        metric("library.diversity_bits", "bits", out.diversity_bits()),
        metric(
            "ledger.unaccounted_share",
            "ratio",
            1.0 - accounted / capacity,
        ),
        metric(
            "ledger.replay_mismatches",
            "count",
            (replay.mismatches + replay.seed_mismatches) as f64,
        ),
        metric(
            "trace.overhead_share",
            "ratio",
            untraced_pps / traced_pps - 1.0,
        ),
    ];
    println!(
        "replay: lanes {} attempts {} mismatches {} seed mismatches {} wall {:.2}s; wire bytes identical {}; \
         traced {:.3} vs untraced {:.3} patterns/s",
        replay.lanes,
        replay.attempts,
        replay.mismatches,
        replay.seed_mismatches,
        replay.wall_s,
        wire_identical,
        traced_pps,
        untraced_pps
    );
    let correct = out.tally.correct()
        && untraced.tally.correct()
        && out.rounds.1
        && untraced.rounds.1
        && out.digest.agrees_with(&untraced.digest)
        && replay.mismatches == 0
        && replay.seed_mismatches == 0
        && replay.drc_violations == 0
        && wire_identical;
    let mut tally = out.tally;
    tally.attempted += untraced.tally.attempted;
    tally.failed += untraced.tally.failed;
    Ok((correct, tally, metrics))
}

fn print_provenance(args: &Args, root: &Path) {
    let config = diffpattern::PipelineConfig::default();
    println!(
        "provenance: workload={} seed={} seconds={} trace={} host_nproc={} cpu=\"{}\" \
         commit={} crates_digest={:016x} profile=\"C{} {}x{} fold of {}x{}, base {}, {} res blocks, K={}\" \
         train_seed={} train_iters={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        host::cpu_model(),
        host::git_commit(root),
        host::tree_digest(&PathBuf::from(root).join("crates")),
        config.dataset.channels,
        config.fold_side(),
        config.fold_side(),
        config.dataset.matrix_side,
        config.dataset.matrix_side,
        config.unet.base_channels,
        config.unet.num_res_blocks,
        config.train.diffusion_steps,
        run::TRAIN_SEED,
        run::TRAIN_ITERS,
    );
}

fn print_details(args: &Args, stack: &Stack, out: &Outcome) {
    let mut by_kind: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for (kind, count, ms) in &out.kind_ms {
        by_kind
            .entry(format!("{kind:?}/{count}"))
            .or_default()
            .push(*ms);
    }
    for (kind, mut ms) in by_kind {
        ms.sort_by(f64::total_cmp);
        println!(
            "kind: {kind} requests={} latency_ms min={:.1} p50={:.1} max={:.1}",
            ms.len(),
            ms[0],
            stats::median(&ms).unwrap_or(0.0),
            ms[ms.len() - 1]
        );
    }
    let mut sorted = out.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let deciles: Vec<String> = (1..10)
        .filter_map(|d| sorted.get(d * sorted.len() / 10).map(|v| format!("{v:.0}")))
        .collect();
    println!("latency deciles (ms): {}", deciles.join(" "));
    let t = &out.tally;
    let tail = stats::tail(&out.latencies_ms);
    println!(
        "details: digest={:016x} outputs={} rounds={} stable={} model_digest={:016x} workers={} \
         attempted={} failed={} delivered={} shortfall={} refused={} errored={} drc_dirty={} frozen_broken={} \
         shortfall_share={:.4} failed_share={:.4} latency_samples={} tail_percentile=p{} tail_beyond={} \
         limit_ms={} lateness_max_ms={:.3} wall_s={:.3} diversity_bits={:.4} capacity_per_s={:.3}",
        out.digest.value(),
        out.digest.len(),
        out.rounds.0,
        out.rounds.1,
        stack.model_digest,
        stack.service.threads(),
        t.attempted,
        t.failed,
        t.delivered,
        t.shortfall,
        t.refused,
        t.errored,
        t.drc_dirty,
        t.frozen_broken,
        ratio(t.shortfall, t.attempted),
        ratio(t.failed, t.attempted),
        out.latencies_ms.len(),
        tail.map_or(0, |t| t.percentile),
        tail.map_or(0, |t| t.beyond),
        run::latency_limit_ms(args.workload),
        out.lateness_ms.iter().copied().fold(0.0, f64::max),
        out.wall_s,
        out.diversity_bits(),
        out.capacity_per_s,
    );
}

fn print_result(correct: bool, tally: &gate::Tally, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
