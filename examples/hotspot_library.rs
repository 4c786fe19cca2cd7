//! Domain-specific example: building a labelled pattern library for
//! lithography hotspot-detection research — the downstream task the
//! paper's introduction motivates (DFM teams need large, diverse, *legal*
//! pattern libraries to train hotspot detectors).
//!
//! The example generates a DiffPattern library into the durable
//! content-addressed store (`dp_library`) — deduplicated at ingest,
//! resumable across runs — then reads it **back from disk**, labels each
//! stored pattern with a simple lithography-stress proxy (minimum
//! interior space and width over the tile — patterns sitting close to
//! the rule limits print worst), and writes PGM images plus a CSV
//! manifest, the typical input format of an ML hotspot-detection
//! pipeline.
//!
//! ```text
//! cargo run --release --example hotspot_library
//! ```
//!
//! Environment knobs: `DP_TRAIN_ITERS` (default 200), `DP_GENERATE`
//! (default 12), `DP_OUT_DIR` (default `hotspot_library/`). The store
//! lives at `DP_OUT_DIR/library/`; rerunning with a larger
//! `DP_GENERATE` resumes it instead of starting over.

use diffpattern::geometry::runs;
use diffpattern::library::{LibraryConfig, LibraryWriter};
use diffpattern::squish::{complexity_of_grid, SquishPattern};
use diffpattern::{PatternService, Pipeline, PipelineConfig};
use diffpattern_suite::{env_knob, example_rng};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

const METHOD: &str = "diffpattern";
const RULESET: &str = "tiny";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = example_rng();
    let train_iters = env_knob("DP_TRAIN_ITERS", 200);
    let generate = env_knob("DP_GENERATE", 12);
    let out_dir =
        PathBuf::from(std::env::var("DP_OUT_DIR").unwrap_or_else(|_| "hotspot_library".into()));
    std::fs::create_dir_all(&out_dir)?;

    let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng)?;
    println!("training for {train_iters} iterations...");
    let _ = pipeline.train(train_iters, &mut rng)?;
    let spec = pipeline
        .request_spec(generate)
        .seed(env_knob("DP_SEED", 42) as u64);

    // Phase 1: build (or resume) the durable library. The bucket cursor
    // tells us where the last run stopped; generation restarts from that
    // item index, so the store converges on the same content no matter
    // how many runs it took to get there.
    let mut writer = LibraryWriter::open(out_dir.join("library"), LibraryConfig::default())?;
    let cursor = writer.open_bucket(METHOD, RULESET, 0)? as usize;
    if cursor < generate {
        println!("generating items {cursor}..{generate} into the store...");
        let service = PatternService::builder(Arc::new(pipeline.trained_model()?)).build()?;
        let batch = service.generate(&spec)?;
        for generated in batch.items.iter().skip(cursor) {
            writer.ingest_arrival(METHOD, RULESET, &generated.pattern, true)?;
        }
    } else {
        println!("store already holds items 0..{cursor}; nothing to generate");
    }
    let store = writer.finish()?;

    // Phase 2: read the library back from disk and derive the artifacts
    // from the *stored* records (post-dedup, checksum-verified).
    let stats = store.stats(METHOD, RULESET).expect("bucket exists");
    println!(
        "store: {} patterns ({} duplicates absorbed), H = {:.4} bits",
        stats.accepted, stats.duplicates, stats.diversity
    );
    let manifest_path = out_dir.join("manifest.csv");
    let mut manifest = std::fs::File::create(&manifest_path)?;
    writeln!(manifest, "file,cx,cy,min_space,min_width,stress,label")?;

    let mut scratch = Vec::new();
    let mut hotspots = 0usize;
    let mut written = 0usize;
    for record_ref in store.records(METHOD, RULESET).expect("bucket exists") {
        let record = store.read(record_ref, &mut scratch)?;
        let pattern = &record.pattern;
        let (min_space, min_width) = stress_metrics(pattern);
        // Proxy label: a pattern whose tightest feature sits within 25 % of
        // the rule limit is "hotspot-suspect".
        let space_slack = min_space as f64 / spec.rules.space_min() as f64;
        let width_slack = min_width as f64 / spec.rules.width_min() as f64;
        let stress = 1.0 / space_slack.min(width_slack);
        let label = if stress > 0.8 { "hotspot" } else { "clean" };
        if label == "hotspot" {
            hotspots += 1;
        }

        let file = format!("pattern_{:04}.pgm", record.source_index);
        let layout = pattern.decode()?;
        diffpattern::render::layout_to_pgm(&layout, 256, &out_dir.join(&file))?;
        let (cx, cy) = complexity_of_grid(pattern.topology());
        writeln!(
            manifest,
            "{file},{cx},{cy},{min_space},{min_width},{stress:.3},{label}"
        )?;
        written += 1;
    }
    println!(
        "wrote {} patterns ({} hotspot-suspect) to {} with manifest {}",
        written,
        hotspots,
        out_dir.display(),
        manifest_path.display()
    );
    Ok(())
}

/// Minimum interior space and width (nm) over both axes of a pattern —
/// the lithography-stress proxy.
fn stress_metrics(pattern: &SquishPattern) -> (i64, i64) {
    let topo = pattern.topology();
    let xs = pattern.x_scan_lines();
    let ys = pattern.y_scan_lines();
    let mut min_space = i64::MAX;
    let mut min_width = i64::MAX;
    for row in 0..topo.height() {
        let cells: Vec<bool> = topo.row(row).collect();
        for run in runs::filled_runs(cells.iter().copied()) {
            if !run.touches_border(topo.width()) {
                min_width = min_width.min(xs[run.end] - xs[run.start]);
            }
        }
        for run in runs::interior_space_runs(cells.iter().copied(), topo.width()) {
            min_space = min_space.min(xs[run.end] - xs[run.start]);
        }
    }
    for col in 0..topo.width() {
        let cells: Vec<bool> = topo.column(col).collect();
        for run in runs::filled_runs(cells.iter().copied()) {
            if !run.touches_border(topo.height()) {
                min_width = min_width.min(ys[run.end] - ys[run.start]);
            }
        }
        for run in runs::interior_space_runs(cells.iter().copied(), topo.height()) {
            min_space = min_space.min(ys[run.end] - ys[run.start]);
        }
    }
    (
        if min_space == i64::MAX { 0 } else { min_space },
        if min_width == i64::MAX { 0 } else { min_width },
    )
}
