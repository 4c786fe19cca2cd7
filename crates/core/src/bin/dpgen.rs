//! `dpgen` — command-line front end for the DiffPattern pipeline.
//!
//! ```text
//! dpgen train   --iters 20000 --model model.dpm [--seed 42]
//! dpgen gen     --model model.dpm --count 50 --out library/ [--stride 5] [--threads 4]
//!               [--micro-batch 8] [--rules standard --rules larger-space ...]
//! dpgen demo    [--iters 4000 --count 8 --threads 2]
//! ```
//!
//! `train` fits the discrete diffusion model on a freshly generated
//! synthetic metal layer and saves the frozen [`TrainedModel`] (weights +
//! schedule + fold geometry in one self-describing file); `gen` reloads it
//! and emits a DRC-clean pattern library (PGM images + CSV manifest)
//! through a [`diffpattern::PatternService`] — one model load and one
//! persistent worker pool, however many rule sets are requested. Passing
//! `--rules` more than once serves every preset concurrently from that
//! single engine (the requests fill each other's denoising micro-batches)
//! and writes one manifest per rule set under `OUT/<preset>/`. `demo`
//! trains and generates in one go and prints ASCII art. The argument
//! parser is deliberately dependency-free (`--key value` pairs only) and
//! strict: an option the (sub)command does not take, or a number that
//! does not parse, is a usage error.

use diffpattern::drc::{check_pattern, DesignRules};
use diffpattern::geometry::BitGrid;
use diffpattern::library::{merge_libraries, Library, LibraryConfig, LibraryWriter};
use diffpattern::render::{layout_to_pgm, pattern_to_ascii};
use diffpattern::squish::{extend_to_side, DeepSquishTensor};
use diffpattern::{
    hotspot_guidance, repair_conditioning, Conditioning, FrozenRegion, Generation, LibrarySink,
    PatternService, Pipeline, PipelineConfig, RequestSpec, TrainedModel,
};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (run, options) = match parse(&args) {
        Ok(parsed) => parsed,
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

const USAGE: &str = "usage:
  dpgen train --iters N --model FILE [--seed N] [--steps K]
  dpgen gen   --model FILE --count N --out DIR [--seed N] [--stride N] [--threads N]
              [--micro-batch N] [--rules PRESET]...
              [--freeze-rect X,Y,W,H] [--freeze-from FILE] [--avoid-hotspots]
  dpgen demo  [--iters N] [--count N] [--seed N] [--threads N] [--steps K] [--stride N]
  dpgen library build --model FILE --out DIR [--count N] [--seed N] [--rules PRESET]...
              [--first-index N] [--segment-bytes N] [--stop-after N] [--threads N]
              [--micro-batch N] [--iters N] [--steps K] [--stride N]
  dpgen library repair --model FILE --dir DIR [--rules PRESET] [--method NAME]
              [--bucket RULESET] [--seed N] [--threads N] [--micro-batch N] [--stride N]
  dpgen library stat  --dir DIR
  dpgen library merge --out DIR --shard DIR [--shard DIR]... [--segment-bytes N]

rule presets: standard, larger-space, smaller-area
(repeat --rules to serve several rule sets from one engine; each preset
gets its own manifest under OUT/<preset>/)

--steps K sets the diffusion step count of a model the command trains
(default 30; library build trains only when --model is missing). --stride N
sets the reverse-sampling stride of the patterns it generates (default 1,
the full chain).

conditional generation (gen): --freeze-rect X,Y,W,H freezes the cells of
that topology-matrix rectangle (cell coordinates, row 0 at the bottom)
through the whole reverse chain — diffusion inpainting. The frozen bits
come from --freeze-from FILE (an ASCII topology: '#'/'1' filled, '.'/'0'
empty, top row first, exactly matrix-side lines) or, without it, from a
base topology the model samples deterministically from the request seed.
--avoid-hotspots adds rule-derived guidance steering the draw away from
isolated-cell hotspot motifs. dpgen verifies every delivered pattern
carries the frozen bits exactly and exits non-zero otherwise.

`library build` appends to a durable content-addressed store (resumable:
re-running continues from the last valid record); a missing --model file
is trained first (--iters N) and saved there. --stop-after N dies
with exit code 3 after N settled slots, simulating a crash for recovery
testing. `library repair` re-checks a bucket under a rules preset and
regenerates every DRC-flagged entry by inpainting: the violating
neighbourhood is redrawn, the legal remainder is frozen, and repairs
land in the same store under method `repair`. `stat` prints a
deterministic, timestamp-free summary; `merge` combines disjoint-index
shard builds into a fresh store.";

/// Parsed options: every `--key value` pair, with repeated keys collected
/// in order (`--rules a --rules b`).
// `BTreeMap` so any diagnostic listing of options is deterministic.
type Options = BTreeMap<String, Vec<String>>;

/// A (sub)command's body.
type Run = fn(&Options) -> Result<(), Box<dyn std::error::Error>>;

/// Every (sub)command with the options it takes and its body.
const COMMANDS: &[(&str, &[&str], Run)] = &[
    ("train", &["iters", "model", "seed", "steps"], train),
    (
        "gen",
        &[
            "model",
            "count",
            "out",
            "seed",
            "threads",
            "micro-batch",
            "rules",
            "freeze-rect",
            "freeze-from",
            "avoid-hotspots",
            "stride",
        ],
        generate,
    ),
    (
        "demo",
        &["iters", "count", "seed", "threads", "steps", "stride"],
        demo,
    ),
    (
        "library build",
        &[
            "model",
            "out",
            "count",
            "first-index",
            "seed",
            "threads",
            "micro-batch",
            "segment-bytes",
            "stop-after",
            "rules",
            "iters",
            "steps",
            "stride",
        ],
        library_build,
    ),
    (
        "library repair",
        &[
            "model",
            "dir",
            "rules",
            "method",
            "bucket",
            "seed",
            "threads",
            "micro-batch",
            "stride",
        ],
        library_repair,
    ),
    ("library stat", &["dir"], library_stat),
    (
        "library merge",
        &["out", "shard", "segment-bytes"],
        library_merge,
    ),
];

/// Value-less boolean options: present means `true`.
const FLAGS: &[&str] = &["avoid-hotspots"];

/// Options whose value must be a non-negative integer.
const NUMERIC: &[&str] = &[
    "iters",
    "seed",
    "steps",
    "stride",
    "count",
    "threads",
    "micro-batch",
    "first-index",
    "segment-bytes",
    "stop-after",
];

/// Finds the (sub)command `args` names (`library` carries a positional
/// action before its options) and checks its options: a key the command
/// does not take, a missing value or a malformed number is an error, the
/// same strictness as the wire codec.
fn parse(args: &[String]) -> Result<(Run, Options), String> {
    let (name, rest) = match args {
        [library, action, rest @ ..] if library == "library" => (format!("library {action}"), rest),
        [command, rest @ ..] => (command.clone(), rest),
        [] => return Err("missing command".into()),
    };
    let &(_, allowed, run) = COMMANDS
        .iter()
        .find(|(n, ..)| *n == name)
        .ok_or_else(|| format!("unknown command `{name}`"))?;
    let mut options = Options::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("`{name}`: unexpected argument `{arg}`"))?;
        if !allowed.contains(&key) {
            return Err(format!("`{name}` does not take --{key}"));
        }
        let value = if FLAGS.contains(&key) {
            "true".to_string()
        } else {
            it.next()
                .ok_or_else(|| format!("`{name}`: --{key} needs a value"))?
                .clone()
        };
        if NUMERIC.contains(&key) && value.parse::<usize>().is_err() {
            return Err(format!(
                "`{name}`: --{key} expects a non-negative integer, got `{value}`"
            ));
        }
        options.entry(key.to_string()).or_default().push(value);
    }
    Ok((run, options))
}

/// Last occurrence wins for single-valued numeric options (all checked
/// by [`parse`]).
fn opt_usize(options: &Options, key: &str, default: usize) -> usize {
    options
        .get(key)
        .and_then(|v| v.last())
        .map_or(default, |v| {
            v.parse()
                .expect("parse rejects numeric options that do not parse")
        })
}

fn opt_str<'o>(options: &'o Options, key: &str) -> Option<&'o str> {
    options.get(key).and_then(|v| v.last()).map(String::as_str)
}

fn model_path(options: &Options, command: &str) -> Result<String, Box<dyn std::error::Error>> {
    opt_str(options, "model")
        .map(str::to_string)
        .ok_or_else(|| format!("`{command}` needs --model FILE").into())
}

fn rules_preset(name: &str) -> Result<DesignRules, Box<dyn std::error::Error>> {
    match name {
        "standard" | "normal" => Ok(DesignRules::standard()),
        "larger-space" | "larger_space" => Ok(DesignRules::larger_space()),
        "smaller-area" | "smaller_area" => Ok(DesignRules::smaller_area()),
        _ => Err(format!(
            "unknown rules preset `{name}` (expected standard, larger-space or smaller-area)"
        )
        .into()),
    }
}

/// Parses `X,Y,W,H` (topology-matrix cell coordinates, row 0 at the
/// bottom) and checks it fits the `side × side` matrix.
fn parse_rect(s: &str, side: usize) -> Result<(usize, usize, usize, usize), String> {
    let parts: Vec<usize> = s
        .split(',')
        .map(|p| p.trim().parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("--freeze-rect expects X,Y,W,H (got `{s}`)"))?;
    let [x, y, w, h] = parts[..] else {
        return Err(format!("--freeze-rect expects four values (got `{s}`)"));
    };
    let fits = |start: usize, len: usize| start.checked_add(len).is_some_and(|end| end <= side);
    if w == 0 || h == 0 || !fits(x, w) || !fits(y, h) {
        return Err(format!(
            "--freeze-rect {x},{y},{w},{h} does not fit the {side}x{side} topology matrix"
        ));
    }
    Ok((x, y, w, h))
}

/// Parses an ASCII topology (`#`/`1` filled, `.`/`0` empty, top row
/// first) into a `side × side` grid.
fn parse_topology(text: &str, side: usize) -> Result<BitGrid, String> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.len() != side {
        return Err(format!(
            "--freeze-from needs {side} rows of {side} cells (got {} rows)",
            lines.len()
        ));
    }
    let mut grid = BitGrid::new(side, side).expect("side > 0");
    for (li, line) in lines.iter().enumerate() {
        let cells: Vec<char> = line.trim().chars().collect();
        if cells.len() != side {
            return Err(format!(
                "--freeze-from row {li} has {} cells, expected {side}",
                cells.len()
            ));
        }
        for (col, &c) in cells.iter().enumerate() {
            let filled = match c {
                '#' | '1' => true,
                '.' | '0' => false,
                other => return Err(format!("--freeze-from: unexpected cell `{other}`")),
            };
            // Text rows run top-down; BitGrid rows bottom-up.
            grid.set(col, side - 1 - li, filled);
        }
    }
    Ok(grid)
}

/// Builds the frozen region for `gen`: `--freeze-rect` selects the cells,
/// the bits come from `--freeze-from` or a deterministically sampled base
/// topology.
fn freeze_region(
    service: &PatternService,
    base: &RequestSpec,
    options: &Options,
) -> Result<Option<FrozenRegion>, Box<dyn std::error::Error>> {
    let Some(rect) = opt_str(options, "freeze-rect") else {
        if options.contains_key("freeze-from") {
            return Err("--freeze-from needs --freeze-rect X,Y,W,H".into());
        }
        return Ok(None);
    };
    let model = service.model();
    let side = model.matrix_side();
    let (x, y, w, h) = parse_rect(rect, side)?;
    let donor = match opt_str(options, "freeze-from") {
        Some(file) => parse_topology(&std::fs::read_to_string(file)?, side)?,
        None => {
            // No donor file: the model itself supplies the base topology,
            // deterministically from the request seed.
            let spec = RequestSpec {
                count: 1,
                ..base.clone()
            }
            .seed(base.seed ^ 0x5EED);
            let (topologies, _) = service.sample_topologies(&spec)?;
            topologies
                .into_iter()
                .next()
                .ok_or("sampling the base topology fell short")?
        }
    };
    let mut mask = BitGrid::new(side, side).expect("side > 0");
    for row in y..y + h {
        for col in x..x + w {
            mask.set(col, row, true);
        }
    }
    let mask_t = DeepSquishTensor::fold(&mask, model.channels())?;
    let bits_t = DeepSquishTensor::fold(&donor, model.channels())?;
    Ok(Some(FrozenRegion::new(
        mask_t.bits().to_vec(),
        bits_t.bits().to_vec(),
    )?))
}

/// Every delivered pattern must carry the frozen bits exactly; a
/// mismatch is a contract violation worth a non-zero exit.
fn verify_frozen(
    batch: &Generation,
    region: &FrozenRegion,
    channels: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    for g in &batch.items {
        let tensor = DeepSquishTensor::fold(g.pattern.topology(), channels)?;
        if !region.holds(tensor.bits()) {
            return Err(
                format!("pattern {} clobbered the frozen region", g.provenance.index).into(),
            );
        }
    }
    Ok(())
}

fn build_pipeline(
    options: &Options,
    rng: &mut rand::rngs::StdRng,
) -> Result<Pipeline, Box<dyn std::error::Error>> {
    let mut config = PipelineConfig::tiny();
    config.train.diffusion_steps = opt_usize(options, "steps", 30);
    Ok(Pipeline::from_synthetic_map(config, rng)?)
}

/// The pipeline's request for `count` patterns under `--seed` and
/// `--stride`.
fn base_spec(pipeline: &Pipeline, options: &Options, count: usize, seed: u64) -> RequestSpec {
    RequestSpec {
        sample_stride: opt_usize(options, "stride", 1),
        ..pipeline.request_spec(count).seed(seed)
    }
}

fn train(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let iters = opt_usize(options, "iters", 20_000);
    let model_file = model_path(options, "train")?;
    let seed = opt_usize(options, "seed", 42) as u64;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    let mut pipeline = build_pipeline(options, &mut rng)?;
    eprintln!(
        "dataset: {} tiles (H = {:.3} bits); training {iters} iterations...",
        pipeline.dataset().report.accepted,
        pipeline.dataset().library().diversity()
    );
    let report = pipeline.train(iters, &mut rng)?;
    eprintln!(
        "loss {:.4} -> {:.4}",
        report.head_mean(50),
        report.tail_mean(50)
    );
    let model = pipeline.into_trained_model()?;
    let blob = model.save();
    std::fs::write(&model_file, &blob)?;
    eprintln!("saved {} bytes of model to {model_file}", blob.len());
    Ok(())
}

fn generate(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let model_file = model_path(options, "gen")?;
    let count = opt_usize(options, "count", 50);
    let out = PathBuf::from(opt_str(options, "out").ok_or("`gen` needs --out DIR")?);
    let seed = opt_usize(options, "seed", 43) as u64;
    let threads = opt_usize(options, "threads", 0);
    let micro_batch = opt_usize(options, "micro-batch", 8);
    let presets: Vec<String> = options
        .get("rules")
        .cloned()
        .unwrap_or_else(|| vec!["standard".to_string()]);
    let rule_sets: Vec<(String, DesignRules)> = presets
        .iter()
        .map(|p| rules_preset(p).map(|r| (p.clone(), r)))
        .collect::<Result<_, _>>()?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    // The pipeline supplies the dataset (Solving-E donors and config); the
    // trained weights come from the frozen model file — loaded once and
    // shared by every rule set's request.
    let pipeline = build_pipeline(options, &mut rng)?;
    let model = Arc::new(TrainedModel::load(&std::fs::read(&model_file)?)?);
    let service = PatternService::builder(model)
        .threads(threads)
        .micro_batch(micro_batch)
        .build()?;
    let base = base_spec(&pipeline, options, count, seed);
    let frozen = freeze_region(&service, &base, options)?;
    let avoid = options.contains_key("avoid-hotspots");
    let channels = service.model().channels();

    // Submit every rule set up front: one engine, one pool, and the
    // requests fill each other's denoising micro-batches.
    let mut handles = Vec::with_capacity(rule_sets.len());
    for (preset, rules) in &rule_sets {
        let mut cond = Conditioning::none();
        if let Some(region) = &frozen {
            cond = cond.with_frozen(region.clone());
        }
        if avoid {
            cond = cond.with_avoid(hotspot_guidance(rules));
        }
        let spec = RequestSpec {
            rules: *rules,
            ..base.clone()
        }
        .conditioning(cond);
        handles.push((preset.clone(), *rules, service.submit(&spec)?));
    }

    let single = rule_sets.len() == 1;
    for (preset, rules, handle) in handles {
        let dir = if single {
            out.clone()
        } else {
            out.join(&preset)
        };
        let batch = handle.wait()?;
        if let Some(region) = &frozen {
            verify_frozen(&batch, region, channels)?;
            eprintln!(
                "[{preset}] frozen bits verified on {} patterns",
                batch.items.len()
            );
        }
        write_library(&dir, &batch, &rules)?;
        let r = batch.report;
        eprintln!(
            "[{preset}] wrote {} patterns to {} with {} threads (sampled {}, repaired {}, \
             solver failures {}, shortfall {})",
            batch.items.len(),
            dir.display(),
            service.threads(),
            r.topologies_sampled,
            r.prefilter_repaired,
            r.solver_failures,
            r.shortfall
        );
    }
    Ok(())
}

/// Writes one rule set's library: PGM images plus a CSV manifest.
fn write_library(
    dir: &Path,
    batch: &Generation,
    rules: &DesignRules,
) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::create_dir_all(dir)?;
    let mut manifest = std::fs::File::create(dir.join("manifest.csv"))?;
    writeln!(manifest, "file,cx,cy,width_nm,height_nm,drc_clean,attempts")?;
    for g in &batch.items {
        let i = g.provenance.index;
        let p = &g.pattern;
        let file = format!("pattern_{i:05}.pgm");
        layout_to_pgm(&p.decode()?, 256, &dir.join(&file))?;
        let core = diffpattern::squish::squish_to_core(p.topology());
        let clean = check_pattern(p, rules).is_clean();
        writeln!(
            manifest,
            "{file},{},{},{},{},{clean},{}",
            core.width(),
            core.height(),
            p.width(),
            p.height(),
            g.provenance.attempts
        )?;
    }
    Ok(())
}

/// The conditioned repair flow: re-check one bucket of a durable store
/// under a rules preset, and for every DRC-flagged entry regenerate the
/// pattern by inpainting — the violating neighbourhood is thawed, the
/// legal remainder frozen to the entry's own bits
/// ([`repair_conditioning`]) — draining the conditioned requests through
/// a [`LibrarySink`] into the same store under method `repair`.
fn library_repair(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let model_file = model_path(options, "library repair")?;
    let dir = opt_str(options, "dir").ok_or("`library repair` needs --dir DIR")?;
    let preset = opt_str(options, "rules").unwrap_or("standard").to_string();
    let rules = rules_preset(&preset)?;
    let method = opt_str(options, "method")
        .unwrap_or("diffpattern")
        .to_string();
    // The source bucket's ruleset name: re-checking a bucket built under
    // one preset against another is the curation workload.
    let bucket = opt_str(options, "bucket").unwrap_or("standard").to_string();
    let seed = opt_usize(options, "seed", 47) as u64;
    let threads = opt_usize(options, "threads", 0);
    let micro_batch = opt_usize(options, "micro-batch", 8);

    let model = Arc::new(TrainedModel::load(&std::fs::read(&model_file)?)?);
    let channels = model.channels();
    let side = model.matrix_side();

    // Scan pass (read-only): collect the flagged entries and build each
    // one's inpainting constraint.
    let lib = Library::open(dir)?;
    let records = lib
        .records(&method, &bucket)
        .ok_or_else(|| format!("no bucket {method}/{bucket} in {dir}"))?
        .to_vec();
    let total = records.len();
    let mut scratch = Vec::new();
    let mut flagged = Vec::new();
    let mut skipped = 0usize;
    for r in &records {
        let rec = lib.read(r, &mut scratch)?;
        if check_pattern(&rec.pattern, &rules).is_clean() {
            continue;
        }
        // Entries too complex for the model's matrix (or whose violating
        // cells do not survive the extension) cannot be inpainted.
        let cond = extend_to_side(&rec.pattern, side)
            .ok()
            .and_then(|(ext, _)| repair_conditioning(&ext, &rules, channels));
        match cond {
            Some(cond) => flagged.push(cond),
            None => skipped += 1,
        }
    }
    drop(lib);
    eprintln!(
        "bucket {method}/{bucket}: {total} entries, {} flagged under `{preset}` rules, \
         {skipped} not repairable",
        flagged.len() + skipped
    );
    if flagged.is_empty() {
        return Ok(());
    }

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let pipeline = build_pipeline(options, &mut rng)?;
    let service = PatternService::builder(Arc::clone(&model))
        .threads(threads)
        .micro_batch(micro_batch)
        .build()?;
    let base = base_spec(&pipeline, options, 1, seed);

    let mut writer = LibraryWriter::open(dir, LibraryConfig::default())?;
    let cursor = writer.open_bucket("repair", &preset, 0)?;

    // One conditioned single-slot request per flagged entry, submitted up
    // front; each lane's constraint differs, so they run as independent
    // plans on the shared pool.
    let mut handles = Vec::with_capacity(flagged.len());
    for (i, cond) in flagged.iter().enumerate() {
        let spec = RequestSpec {
            count: 1,
            first_index: cursor as usize + i,
            rules,
            ..base.clone()
        }
        .conditioning(cond.clone());
        handles.push(service.submit(&spec)?);
    }
    let mut report = diffpattern::SinkReport::default();
    let mut sink = LibrarySink::new(&mut writer, "repair", &preset);
    for handle in handles {
        let r = sink.drain(handle)?;
        report.accepted += r.accepted;
        report.duplicates += r.duplicates;
        report.skipped += r.skipped;
        report.next_index = r.next_index;
    }
    let lib = writer.finish()?;

    // Verify the stored repairs: DRC-clean under the target rules and
    // frozen-bit exact against each entry's constraint.
    let mut clean = 0u64;
    let mut scratch = Vec::new();
    for r in lib.records("repair", &preset).unwrap_or(&[]) {
        let rec = lib.read(r, &mut scratch)?;
        if rec.source_index < cursor {
            continue;
        }
        let cond = &flagged[(rec.source_index - cursor) as usize];
        let region = cond.frozen().expect("repair conditioning always freezes");
        let tensor = DeepSquishTensor::fold(rec.pattern.topology(), channels)?;
        if !region.holds(tensor.bits()) {
            return Err(format!(
                "repair of slot {} clobbered the frozen region",
                rec.source_index
            )
            .into());
        }
        if check_pattern(&rec.pattern, &rules).is_clean() {
            clean += 1;
        }
    }
    // A duplicate repair was byte-identical to an already-stored clean
    // pattern, so it counts as a success; only shortfall slots fail.
    let succeeded = clean + report.duplicates;
    let goal = flagged.len() as u64;
    eprintln!(
        "repaired {succeeded}/{goal} flagged entries to DRC-clean \
         ({} stored, {} duplicates, {} shortfall)",
        report.accepted, report.duplicates, report.skipped
    );
    if succeeded * 20 < goal * 19 {
        return Err(format!("repair success rate {succeeded}/{goal} is below 95%").into());
    }
    Ok(())
}

/// Deterministic (timestamp-free) store summary, printed to stdout so CI
/// can diff the output of resumed vs uninterrupted builds.
fn print_stat(lib: &Library) {
    println!("segments: {}", lib.segment_count());
    println!("records: {}", lib.len());
    println!("content_hash: {:016x}", lib.content_hash());
    let keys: Vec<(String, String)> = lib
        .buckets()
        .map(|(m, r)| (m.to_string(), r.to_string()))
        .collect();
    for (m, r) in keys {
        let s = lib.stats(&m, &r).expect("listed bucket");
        println!(
            "bucket {m}/{r}: base {} next {} accepted {} dup {} skip {} legal {} \
             topologies {} distinct {} diversity {:.6} bits ({:016x})",
            s.base,
            s.next_index,
            s.accepted,
            s.duplicates,
            s.skipped,
            s.legal,
            s.topologies,
            s.distinct_complexities,
            s.diversity,
            s.diversity.to_bits()
        );
    }
}

fn library_build(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let model_file = model_path(options, "library build")?;
    let out = PathBuf::from(opt_str(options, "out").ok_or("`library build` needs --out DIR")?);
    let count = opt_usize(options, "count", 50);
    let first_index = opt_usize(options, "first-index", 0);
    let seed = opt_usize(options, "seed", 43) as u64;
    let threads = opt_usize(options, "threads", 0);
    let micro_batch = opt_usize(options, "micro-batch", 8);
    let segment_bytes = opt_usize(options, "segment-bytes", 256 * 1024) as u64;
    let stop_after = options
        .contains_key("stop-after")
        .then(|| opt_usize(options, "stop-after", 0) as u64);
    let presets: Vec<String> = options
        .get("rules")
        .cloned()
        .unwrap_or_else(|| vec!["standard".to_string()]);
    let rule_sets: Vec<(String, DesignRules)> = presets
        .iter()
        .map(|p| rules_preset(p).map(|r| (p.clone(), r)))
        .collect::<Result<_, _>>()?;

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let pipeline = build_pipeline(options, &mut rng)?;
    // Train-or-load: a missing model file is trained in place so shard
    // and resume invocations can share it afterwards.
    let model = if Path::new(&model_file).exists() {
        Arc::new(TrainedModel::load(&std::fs::read(&model_file)?)?)
    } else {
        let iters = opt_usize(options, "iters", 4_000);
        eprintln!("model {model_file} not found; training {iters} iterations first...");
        let mut train_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut train_pipeline = build_pipeline(options, &mut train_rng)?;
        train_pipeline.train(iters, &mut train_rng)?;
        let trained = train_pipeline.into_trained_model()?;
        std::fs::write(&model_file, trained.save())?;
        Arc::new(trained)
    };
    let service = PatternService::builder(model)
        .threads(threads)
        .micro_batch(micro_batch)
        .build()?;
    let mut writer = LibraryWriter::open(
        &out,
        LibraryConfig {
            segment_bytes,
            ..LibraryConfig::default()
        },
    )?;
    let base = base_spec(&pipeline, options, count, seed);

    // Open every bucket first and submit all remainders up front: one
    // engine, one pool, requests fill each other's micro-batches; a
    // resumed build only asks for the sub-range past its cursor.
    let end = (first_index + count) as u64;
    let mut jobs = Vec::with_capacity(rule_sets.len());
    for (preset, rules) in &rule_sets {
        let cursor = writer.open_bucket("diffpattern", preset, first_index as u64)?;
        if cursor < end {
            let spec = RequestSpec {
                rules: *rules,
                count: (end - cursor) as usize,
                first_index: cursor as usize,
                ..base.clone()
            };
            jobs.push((preset.clone(), Some(service.submit(&spec)?)));
        } else {
            jobs.push((preset.clone(), None));
        }
    }

    let mut settled = 0u64;
    for (preset, handle) in jobs {
        let Some(handle) = handle else {
            eprintln!("[{preset}] already complete (cursor at {end})");
            continue;
        };
        let mut sink = LibrarySink::new(&mut writer, "diffpattern", &preset);
        let report = sink.drain_with(handle, |_| {
            settled += 1;
            if stop_after.is_some_and(|n| settled >= n) {
                eprintln!("--stop-after {settled}: simulating a crash (no checkpoint flush)");
                std::process::exit(3);
            }
        })?;
        eprintln!(
            "[{preset}] +{} patterns ({} duplicates, {} skipped), cursor now {}",
            report.accepted, report.duplicates, report.skipped, report.next_index
        );
    }
    let lib = writer.finish()?;
    print_stat(&lib);
    Ok(())
}

fn library_stat(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let dir = opt_str(options, "dir").ok_or("`library stat` needs --dir DIR")?;
    print_stat(&Library::open(dir)?);
    Ok(())
}

fn library_merge(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let out = opt_str(options, "out").ok_or("`library merge` needs --out DIR")?;
    let shard_dirs = options
        .get("shard")
        .filter(|v| !v.is_empty())
        .ok_or("`library merge` needs --shard DIR (repeatable)")?;
    let shards: Vec<Library> = shard_dirs
        .iter()
        .map(Library::open)
        .collect::<Result<_, _>>()?;
    let segment_bytes = opt_usize(options, "segment-bytes", 256 * 1024) as u64;
    let merged = merge_libraries(
        out,
        &shards,
        LibraryConfig {
            segment_bytes,
            ..LibraryConfig::default()
        },
    )?;
    print_stat(&merged);
    Ok(())
}

fn demo(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let iters = opt_usize(options, "iters", 4_000);
    let count = opt_usize(options, "count", 4);
    let seed = opt_usize(options, "seed", 42) as u64;
    let threads = opt_usize(options, "threads", 0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    let mut pipeline = build_pipeline(options, &mut rng)?;
    eprintln!("training {iters} iterations...");
    let _ = pipeline.train(iters, &mut rng)?;
    let spec = base_spec(&pipeline, options, count, seed);
    let service = PatternService::builder(Arc::new(pipeline.into_trained_model()?))
        .threads(threads)
        .build()?;
    let batch = service.generate(&spec)?;
    for g in &batch.items {
        println!(
            "--- pattern {} (DRC clean: {}, attempts {}) ---",
            g.provenance.index,
            check_pattern(&g.pattern, &spec.rules).is_clean(),
            g.provenance.attempts
        );
        println!("{}", pattern_to_ascii(&g.pattern, 48, 20));
    }
    if batch.report.shortfall > 0 {
        eprintln!("note: {} slots fell short", batch.report.shortfall);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn parsed(line: &str) -> Options {
        parse(&args(line)).map(|(_, options)| options).unwrap()
    }

    fn rejected(line: &str) -> String {
        parse(&args(line)).map(|_| ()).unwrap_err()
    }

    #[test]
    fn known_options_parse_with_repeats_and_flags() {
        let options = parsed(
            "gen --model m.dpm --count 3 --rules standard --rules larger-space \
             --avoid-hotspots --seed 9",
        );
        assert_eq!(opt_str(&options, "model"), Some("m.dpm"));
        assert_eq!(opt_usize(&options, "count", 50), 3);
        assert_eq!(opt_usize(&options, "threads", 7), 7);
        assert_eq!(options["rules"], ["standard", "larger-space"]);
        assert_eq!(opt_str(&options, "avoid-hotspots"), Some("true"));
        let options = parsed("library build --model m --out d --stop-after 4 --count 2 --count 5");
        assert_eq!(opt_usize(&options, "count", 0), 5);
        assert_eq!(opt_usize(&options, "stop-after", 0), 4);
        assert!(parsed("library stat --dir d").contains_key("dir"));
        assert!(parsed("demo").is_empty());
    }

    #[test]
    fn unknown_options_are_rejected_per_command() {
        for line in [
            "gen --model m --out d --precision exact",
            "gen --model m --out d --dir x",
            "train --model m --count 3",
            "demo --out d",
            "library stat --dir d --count 1",
            "library merge --out d --shard s --threads 2",
            "library repair --model m --dir d --first-index 3",
            // Options that would change nothing: training never samples,
            // and generation uses the loaded model's schedule.
            "train --model m --stride 5",
            "gen --model m --out d --steps 7",
            "library repair --model m --dir d --steps 7",
            // `--weights` is not an alias of `--model`.
            "train --weights m",
            "gen --weights m --out d",
            "library build --weights m --out d",
            "library repair --weights m --dir d",
        ] {
            assert!(rejected(line).contains("does not take"), "{line}");
        }
    }

    #[test]
    fn malformed_numbers_and_shapes_are_rejected() {
        for (line, why) in [
            ("gen --model m --out d --count 1O", "non-negative integer"),
            ("demo --threads -1", "non-negative integer"),
            (
                "library build --model m --out d --stop-after x",
                "non-negative integer",
            ),
            ("train --model", "needs a value"),
            ("gen model.dpm", "unexpected argument"),
            ("frobnicate --count 1", "unknown command"),
            ("library", "unknown command"),
            ("library compact --dir d", "unknown command"),
            ("", "missing command"),
        ] {
            assert!(rejected(line).contains(why), "{line}: {}", rejected(line));
        }
    }

    #[test]
    fn freeze_rects_that_overflow_are_rejected() {
        assert_eq!(parse_rect("0,0,8,8", 32), Ok((0, 0, 8, 8)));
        for rect in ["18446744073709551615,0,2,1", "0,18446744073709551615,1,2"] {
            let err = parse_rect(rect, 32).unwrap_err();
            assert!(err.contains("does not fit"), "{rect}: {err}");
        }
    }

    #[test]
    fn usage_documents_every_option_each_command_takes() {
        // The option tables and the usage text must not drift apart: each
        // command's usage entry names exactly the options it takes, and
        // every numeric option and flag belongs to a command.
        for (name, allowed, _) in COMMANDS {
            let start = USAGE
                .find(&format!("dpgen {name} "))
                .unwrap_or_else(|| panic!("no usage entry for `{name}`"));
            let entry = &USAGE[start..];
            let end = ["\n  dpgen", "\n\n"]
                .iter()
                .filter_map(|sep| entry.find(sep))
                .min()
                .unwrap_or(entry.len());
            let words: Vec<&str> = entry[..end]
                .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
                .collect();
            for key in *allowed {
                assert!(
                    words.contains(&format!("--{key}").as_str()),
                    "usage of `{name}` does not mention --{key}"
                );
            }
            for word in words.iter().filter_map(|w| w.strip_prefix("--")) {
                assert!(
                    allowed.contains(&word),
                    "usage of `{name}` mentions --{word}, which it does not take"
                );
            }
        }
        for key in NUMERIC.iter().chain(FLAGS) {
            assert!(
                COMMANDS.iter().any(|(_, allowed, _)| allowed.contains(key)),
                "--{key} belongs to no command"
            );
        }
    }
}
