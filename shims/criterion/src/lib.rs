//! Offline stand-in for the `criterion` benchmark harness, exposing the
//! API subset this workspace uses: [`Criterion`], [`BenchmarkGroup`],
//! [`BenchmarkId`], [`Bencher::iter`], [`black_box`] and the
//! [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! The build environment has no cargo registry access, so the workspace
//! pins `criterion` to this path shim (see the root `Cargo.toml` and
//! README). Bench sources are source-compatible with the real crate; the
//! measurement model is simpler: each benchmark runs a fixed number of
//! timed samples (one closure batch per sample) and prints min / median /
//! mean wall-clock times. No statistical regression analysis, plots or
//! HTML reports. Sample count respects `sample_size` capped at
//! [`MAX_SAMPLES`], overridable via the `DP_BENCH_SAMPLES` env var.
//!
//! # Machine-readable medians
//!
//! When `DP_BENCH_JSON` names a file, every completed benchmark also
//! records its **median** there as JSON (one `"label": {"median_ns": …,
//! "samples": …}` entry per benchmark). The file is re-merged on every
//! write: entries produced by *other* bench binaries are preserved, and
//! entries this process re-measures are replaced — so running several
//! `cargo bench` targets against the same path accumulates one combined
//! snapshot (e.g. CI's quick-bench smoke writing `BENCH_ci.json`). Only
//! medians are recorded on purpose: single-sample wall clocks on shared
//! CPUs swing far too much to be comparable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Hard cap on samples per benchmark so `cargo bench` stays quick.
pub const MAX_SAMPLES: usize = 10;

/// Opaque value barrier preventing the optimizer from deleting benchmarked
/// work; forwards to [`std::hint::black_box`].
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

fn configured_samples(requested: usize) -> usize {
    std::env::var("DP_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(|v: usize| v.clamp(1, 1000))
        .unwrap_or_else(|| requested.clamp(1, MAX_SAMPLES))
}

/// Identifies one benchmark within a group, mirroring
/// `criterion::BenchmarkId`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter value.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id carrying only a parameter value.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// Conversion into a benchmark label, so `bench_function` accepts both
/// string names and [`BenchmarkId`]s like the real crate.
pub trait IntoBenchmarkId {
    /// The display label for the benchmark.
    fn into_label(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_label(self) -> String {
        self.label
    }
}

impl IntoBenchmarkId for &str {
    fn into_label(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_label(self) -> String {
        self
    }
}

/// Times one benchmark body, mirroring `criterion::Bencher`.
pub struct Bencher {
    samples: usize,
    timings: Vec<Duration>,
}

impl Bencher {
    /// Runs `body` once per sample, timing each call.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut body: F) {
        // Untimed warm-up call.
        black_box(body());
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(body());
            self.timings.push(start.elapsed());
        }
    }
}

fn report(label: &str, timings: &[Duration]) {
    if timings.is_empty() {
        println!("{label:50} (no samples recorded)");
        return;
    }
    let mut sorted = timings.to_vec();
    sorted.sort();
    let min = sorted[0];
    let median = sorted[sorted.len() / 2];
    let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
    println!(
        "{label:50} min {min:>12.3?}   median {median:>12.3?}   mean {mean:>12.3?}   ({} samples)",
        sorted.len()
    );
    if let Ok(path) = std::env::var("DP_BENCH_JSON") {
        if !path.is_empty() {
            record_median(&path, label, median.as_nanos(), sorted.len());
        }
    }
}

/// Median entries recorded by this process, in completion order.
static RECORDED: Mutex<Vec<(String, u128, usize)>> = Mutex::new(Vec::new());

/// Records one benchmark's median and rewrites `path`, merging with
/// entries recorded there by other processes (ours win on label clashes).
fn record_median(path: &str, label: &str, median_ns: u128, samples: usize) {
    let mut recorded = RECORDED.lock().expect("bench results poisoned");
    recorded.retain(|(l, _, _)| l != label);
    recorded.push((label.to_string(), median_ns, samples));

    let mut merged: Vec<(String, u128, usize)> = std::fs::read_to_string(path)
        .map(|existing| parse_medians(&existing))
        .unwrap_or_default();
    merged.retain(|(l, _, _)| recorded.iter().all(|(r, _, _)| r != l));
    merged.extend(recorded.iter().cloned());
    merged.sort_by(|a, b| a.0.cmp(&b.0));

    let mut out = String::from(
        "{\n  \"schema\": \"dp-bench-medians/1\",\n  \"unit\": \"ns\",\n  \"results\": {\n",
    );
    for (i, (l, m, s)) in merged.iter().enumerate() {
        let comma = if i + 1 == merged.len() { "" } else { "," };
        out.push_str(&format!(
            "    \"{l}\": {{\"median_ns\": {m}, \"samples\": {s}}}{comma}\n"
        ));
    }
    out.push_str("  }\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("DP_BENCH_JSON: cannot write {path}: {e}");
    }
}

/// Parses the entry lines this shim itself writes (label, median,
/// samples); anything unrecognised is skipped, so a hand-edited file
/// degrades gracefully instead of aborting the bench run.
fn parse_medians(text: &str) -> Vec<(String, u128, usize)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim_start().strip_prefix('"') else {
            continue;
        };
        let Some((label, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some((_, rest)) = rest.split_once("\"median_ns\": ") else {
            continue;
        };
        let Some((median, rest)) = rest.split_once(',') else {
            continue;
        };
        let Some((_, rest)) = rest.split_once("\"samples\": ") else {
            continue;
        };
        let samples: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if let (Ok(m), Ok(s)) = (median.trim().parse(), samples.parse()) {
            out.push((label.to_string(), m, s));
        }
    }
    out
}

fn run_bench(label: &str, samples: usize, f: impl FnOnce(&mut Bencher)) {
    let mut bencher = Bencher {
        samples,
        timings: Vec::new(),
    };
    f(&mut bencher);
    report(label, &bencher.timings);
}

/// A named set of related benchmarks, mirroring
/// `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the requested number of samples for subsequent benchmarks.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_label());
        run_bench(&label, configured_samples(self.sample_size), f);
        self
    }

    /// Benchmarks `f` under `id`, passing `input` through to the body.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.label);
        run_bench(&label, configured_samples(self.sample_size), |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group. Reports are printed eagerly, so this only marks the
    /// group boundary in the output.
    pub fn finish(self) {
        println!();
    }
}

/// The benchmark driver, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Benchmarks `f` as a stand-alone (ungrouped) benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        run_bench(name, configured_samples(MAX_SAMPLES), f);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group: {name}");
        BenchmarkGroup {
            name,
            sample_size: MAX_SAMPLES,
            _criterion: self,
        }
    }
}

/// Bundles benchmark functions into a runnable group function, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        #[doc = concat!("Criterion benchmark group `", stringify!($name), "`.")]
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        #[doc = concat!("Criterion benchmark group `", stringify!($name), "`.")]
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the given groups, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_requested_samples() {
        let mut recorded = 0;
        run_bench("smoke", 3, |b| {
            b.iter(|| black_box(1 + 1));
            recorded = 3;
        });
        assert_eq!(recorded, 3);
    }

    #[test]
    fn json_medians_round_trip_and_merge_across_processes() {
        let dir = std::env::temp_dir().join(format!("dp_bench_json_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("medians.json");
        let path_str = path.to_str().unwrap();
        // Simulate an earlier bench binary's snapshot on disk.
        record_median(path_str, "other_target/existing", 111, 2);
        RECORDED.lock().unwrap().clear(); // forget it: now it is "foreign"
        record_median(path_str, "this_target/a", 500, 10);
        record_median(path_str, "this_target/b", 700, 10);
        // Re-measuring a label replaces it instead of duplicating.
        record_median(path_str, "this_target/a", 600, 10);
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = parse_medians(&text);
        assert_eq!(
            parsed,
            vec![
                ("other_target/existing".to_string(), 111, 2),
                ("this_target/a".to_string(), 600, 10),
                ("this_target/b".to_string(), 700, 10),
            ]
        );
        assert!(text.starts_with("{\n"));
        assert!(text.trim_end().ends_with('}'));
        RECORDED.lock().unwrap().clear();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_runs_benches() {
        let mut criterion = Criterion::default();
        let mut group = criterion.benchmark_group("g");
        group.sample_size(2);
        let mut ran = false;
        group.bench_function(BenchmarkId::from_parameter(42), |b| {
            b.iter(|| black_box(0u64));
            ran = true;
        });
        group.finish();
        assert!(ran);
    }
}
