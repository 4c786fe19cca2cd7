//! `dpserve` — the DiffPattern network front-end.
//!
//! ```text
//! dpserve --model model.dpm [--addr 127.0.0.1:7878] [--threads N]
//!         [--micro-batch N] [--max-queued N] [--default-deadline-ms N]
//!         [--max-body-kib N]
//! dpserve --demo [--iters N] [--seed N] [...same serving flags]
//! ```
//!
//! Loads a frozen model (or, with `--demo`, trains a tiny one in
//! process), builds one long-lived [`PatternService`], and serves the
//! JSON protocol documented in `dp_serve::proto`:
//!
//! * `POST /v1/generate` — NDJSON stream of generated patterns plus a
//!   closing report record;
//! * `GET /metrics` — counters, latency histograms, scheduler state;
//! * `GET /healthz` — liveness.
//!
//! The bound address is printed to stdout as `listening on ADDR` once
//! the listener is up (with `--addr` port 0 the line is how scripts
//! learn the real port). The process serves until killed. The argument
//! parser is strict: an option `dpserve` does not take, a missing value
//! or a malformed number is a usage error.

use diffpattern::library::LibraryConfig;
use diffpattern::{PatternService, Pipeline, PipelineConfig, TrainedModel};
use dp_serve::{serve, ServeConfig, ServeLibrary};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage:
  dpserve --model FILE [serving flags]
  dpserve --demo [--iters N] [--seed N] [serving flags]

serving flags:
  --addr HOST:PORT         bind address (default 127.0.0.1:7878; port 0 picks a free port)
  --threads N              generation worker threads (default: available parallelism)
  --micro-batch N          denoising lanes per U-Net call (default 8)
  --max-queued N           admission bound; further requests get HTTP 429 (default 0 = unbounded)
  --default-deadline-ms N  deadline for requests that set none (default: none)
  --max-body-kib N         largest accepted request body (default 1024)
  --library DIR            also append every streamed pattern to the durable
                           library at DIR (created if missing, resumed if
                           present); ingest counters appear in /metrics

endpoints: POST /v1/generate (NDJSON stream), GET /metrics, GET /healthz";

/// Every option `dpserve` takes.
const OPTIONS: &[&str] = &[
    "model",
    "demo",
    "iters",
    "seed",
    "addr",
    "threads",
    "micro-batch",
    "max-queued",
    "default-deadline-ms",
    "max-body-kib",
    "library",
];

/// Options whose value must be a non-negative integer.
const NUMERIC: &[&str] = &[
    "iters",
    "seed",
    "threads",
    "micro-batch",
    "max-queued",
    "default-deadline-ms",
    "max-body-kib",
];

/// Parsed options; the last occurrence of a repeated option wins.
// `BTreeMap` so any diagnostic listing of options is deterministic.
#[derive(Debug, Default)]
struct Options {
    /// `--demo`, the one value-less flag.
    demo: bool,
    /// Text options by name.
    text: BTreeMap<&'static str, String>,
    /// [`NUMERIC`] options by name, already parsed.
    numbers: BTreeMap<&'static str, usize>,
}

impl Options {
    fn number(&self, key: &str, default: usize) -> usize {
        self.numbers.get(key).copied().unwrap_or(default)
    }

    fn text(&self, key: &str) -> Option<&str> {
        self.text.get(key).map(String::as_str)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--key value` pairs, except `--demo` which is a bare flag. An option
/// not in [`OPTIONS`], a missing value or a malformed number is an error.
fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .and_then(|key| OPTIONS.iter().copied().find(|&o| o == key))
            .ok_or_else(|| format!("unknown option `{arg}`"))?;
        if key == "demo" {
            options.demo = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        if NUMERIC.contains(&key) {
            let n = value
                .parse()
                .map_err(|_| format!("--{key} expects a non-negative integer, got `{value}`"))?;
            options.numbers.insert(key, n);
        } else {
            options.text.insert(key, value.clone());
        }
    }
    Ok(options)
}

/// The largest accepted request body in bytes (`--max-body-kib`, default
/// 1024 KiB).
fn max_body_bytes(options: &Options) -> Result<usize, String> {
    let kib = options.number("max-body-kib", 1024);
    kib.checked_mul(1024)
        .ok_or_else(|| format!("--max-body-kib {kib} is too large"))
}

fn load_model(options: &Options) -> Result<Arc<TrainedModel>, Box<dyn std::error::Error>> {
    if let Some(path) = options.text("model") {
        return Ok(Arc::new(TrainedModel::load(&std::fs::read(path)?)?));
    }
    if !options.demo {
        return Err("pass --model FILE or --demo (see --help)".into());
    }
    let iters = options.number("iters", 300);
    let seed = options.number("seed", 42) as u64;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    eprintln!("demo mode: training a tiny model for {iters} iterations...");
    let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng)?;
    pipeline.train(iters, &mut rng)?;
    Ok(Arc::new(pipeline.into_trained_model()?))
}

fn run(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let max_body_bytes = max_body_bytes(options)?;
    let model = load_model(options)?;
    let mut builder = PatternService::builder(model)
        .threads(options.number("threads", 0))
        .micro_batch(options.number("micro-batch", 8))
        .max_queued_requests(options.number("max-queued", 0));
    if let Some(&ms) = options.numbers.get("default-deadline-ms") {
        builder = builder.default_deadline(Duration::from_millis(ms as u64));
    }
    let service = builder.build()?;
    let library = match options.text("library") {
        Some(dir) => {
            let lib = ServeLibrary::open(dir, LibraryConfig::default())?;
            eprintln!("library sink: {dir} ({:?})", lib.counters());
            Some(Arc::new(lib))
        }
        None => None,
    };
    let config = ServeConfig {
        max_body_bytes,
        library,
    };
    let addr = options.text("addr").unwrap_or("127.0.0.1:7878");
    let handle = serve(service, addr, config)?;
    // Scripts (the CI smoke step, the load generator) wait for this
    // exact line to learn the bound port; keep it stable and flushed.
    println!("listening on {}", handle.addr());
    std::io::stdout().flush()?;
    eprintln!("endpoints: POST /v1/generate, GET /metrics, GET /healthz (ctrl-c to stop)");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn rejected(line: &str) -> String {
        parse(&args(line)).unwrap_err()
    }

    #[test]
    fn known_options_parse_with_the_last_occurrence_winning() {
        let options = parse(&args(
            "--demo --iters 5 --addr 127.0.0.1:0 --threads 2 --threads 3 \
             --default-deadline-ms 250 --library lib",
        ))
        .unwrap();
        assert!(options.demo);
        assert_eq!(options.number("iters", 300), 5);
        assert_eq!(options.number("threads", 0), 3);
        assert_eq!(options.number("micro-batch", 8), 8);
        assert_eq!(options.numbers.get("default-deadline-ms"), Some(&250));
        assert_eq!(options.text("addr"), Some("127.0.0.1:0"));
        assert_eq!(options.text("library"), Some("lib"));
        assert_eq!(options.text("model"), None);
        let options = parse(&args("--model m.dpm")).unwrap();
        assert!(!options.demo);
        assert_eq!(options.text("model"), Some("m.dpm"));
        assert!(parse(&[]).unwrap().text.is_empty());
    }

    #[test]
    fn unknown_options_and_missing_values_are_rejected() {
        for line in [
            "--demo --thread 2",
            "--model m --precision exact",
            "--model m extra",
            "-demo",
        ] {
            assert!(rejected(line).contains("unknown option"), "{line}");
        }
        for line in ["--model", "--demo --addr", "--demo --iters"] {
            assert!(rejected(line).contains("needs a value"), "{line}");
        }
    }

    #[test]
    fn malformed_numbers_are_rejected() {
        for key in NUMERIC {
            for bad in ["1O", "-1", "", "2.5", "99999999999999999999999"] {
                let line = vec!["--demo".to_string(), format!("--{key}"), bad.to_string()];
                let err = parse(&line).unwrap_err();
                assert!(err.contains("non-negative integer"), "--{key} {bad}: {err}");
            }
        }
    }

    #[test]
    fn an_overflowing_body_limit_is_an_error() {
        let options = parse(&args("--demo")).unwrap();
        assert_eq!(max_body_bytes(&options), Ok(1024 * 1024));
        let huge = format!("--demo --max-body-kib {}", usize::MAX / 1024 + 1);
        let options = parse(&args(&huge)).unwrap();
        assert!(max_body_bytes(&options).unwrap_err().contains("too large"));
    }
}
