//! Reproduces paper Fig. 9: the joint complexity distribution (c_x, c_y)
//! of the real pattern library versus DiffPattern's generated library,
//! printed as ASCII heat maps and written as CSV for external plotting.
//!
//! The generated side is built through the durable pattern store
//! (`dp_library`): legal patterns are ingested (deduplicated, CRC-framed)
//! into `DP_LIBRARY` and the figure is derived from the store's own
//! incremental complexity histogram — the same numbers `dpgen library
//! stat` and `results.md` report, so the figure and the accounting can
//! never disagree. Rerunning resumes the store instead of regenerating.
//!
//! ```text
//! cargo run --release --example fig9_complexity_distribution
//! ```
//!
//! Environment knobs: `DP_TRAIN_ITERS` (default 200), `DP_GENERATE`
//! (default 64), `DP_CSV` (output path, default `fig9_complexity.csv`),
//! `DP_LIBRARY` (store directory, default `fig9_library/`).

use diffpattern::datagen::PatternLibrary;
use diffpattern::library::{LibraryConfig, LibraryWriter};
use diffpattern::{PatternService, Pipeline, PipelineConfig};
use diffpattern_suite::{env_knob, example_rng};
use std::io::Write;
use std::sync::Arc;

const METHOD: &str = "diffpattern";
const RULESET: &str = "tiny";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = example_rng();
    let train_iters = env_knob("DP_TRAIN_ITERS", 200);
    let generate = env_knob("DP_GENERATE", 64);

    let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng)?;
    let real = pipeline.dataset().library();
    println!(
        "real library: {} patterns, H = {:.4} bits",
        real.len(),
        real.diversity()
    );

    println!("training for {train_iters} iterations...");
    let _ = pipeline.train(train_iters, &mut rng)?;
    let lib_dir = std::env::var("DP_LIBRARY").unwrap_or_else(|_| "fig9_library".into());
    let mut writer = LibraryWriter::open(&lib_dir, LibraryConfig::default())?;
    let cursor = writer.open_bucket(METHOD, RULESET, 0)? as usize;
    if cursor < generate {
        println!("generating items {cursor}..{generate} into {lib_dir}...");
        let spec = pipeline
            .request_spec(generate)
            .seed(env_knob("DP_SEED", 42) as u64);
        let service = PatternService::builder(Arc::new(pipeline.trained_model()?)).build()?;
        let batch = service.generate(&spec)?;
        for generated in batch.items.iter().skip(cursor) {
            writer.ingest_arrival(METHOD, RULESET, &generated.pattern, true)?;
        }
    } else {
        println!("{lib_dir} already holds items 0..{cursor}; nothing to generate");
    }
    let store = writer.finish()?;
    let stats = store.stats(METHOD, RULESET).expect("bucket exists");
    let generated = store.histogram(METHOD, RULESET).expect("bucket exists");
    println!(
        "generated library: {} stored patterns ({} duplicates absorbed), H = {:.4} bits",
        stats.accepted,
        stats.duplicates,
        generated.diversity()
    );

    let max_side = pipeline.config().dataset.matrix_side;
    println!("\nReal Patterns (log density):");
    print_heatmap(&real, max_side);
    println!("\nDiffPattern (log density):");
    print_heatmap(generated, max_side);

    // CSV: library,cx,cy,count
    let path = std::env::var("DP_CSV").unwrap_or_else(|_| "fig9_complexity.csv".into());
    let mut file = std::fs::File::create(&path)?;
    writeln!(file, "library,cx,cy,count")?;
    for ((cx, cy), n) in real.histogram() {
        writeln!(file, "real,{cx},{cy},{n}")?;
    }
    for ((cx, cy), n) in generated.histogram() {
        writeln!(file, "diffpattern,{cx},{cy},{n}")?;
    }
    println!("\nwrote {path}");
    Ok(())
}

/// Prints a coarse ASCII heat map of the complexity histogram, binned to a
/// 16x16 grid over [0, max_side]².
fn print_heatmap(lib: &PatternLibrary, max_side: usize) {
    const BINS: usize = 16;
    let mut grid = vec![0usize; BINS * BINS];
    for ((cx, cy), n) in lib.histogram() {
        let bx = (cx * BINS / (max_side + 1)).min(BINS - 1);
        let by = (cy * BINS / (max_side + 1)).min(BINS - 1);
        grid[by * BINS + bx] += n;
    }
    let shades = [' ', '.', ':', '+', '*', '#', '@'];
    let max = grid.iter().copied().max().unwrap_or(1).max(1);
    for by in (0..BINS).rev() {
        let mut line = String::new();
        for bx in 0..BINS {
            let v = grid[by * BINS + bx];
            let shade = if v == 0 {
                0
            } else {
                // Log scale, like the paper's colour bar.
                let f = (v as f64).ln() / (max as f64).ln().max(1.0);
                1 + ((shades.len() - 2) as f64 * f).round() as usize
            };
            line.push(shades[shade.min(shades.len() - 1)]);
        }
        println!("  cy bin {by:2} |{line}|");
    }
}
