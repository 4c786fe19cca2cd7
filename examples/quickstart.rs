//! Quickstart: the full DiffPattern loop on a small synthetic dataset,
//! through the train/infer split — train a [`Pipeline`], freeze a
//! [`TrainedModel`], batch-generate with a [`PatternService`].
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Environment knobs: `DP_TRAIN_ITERS` (default 150), `DP_GENERATE`
//! (default 8), `DP_THREADS` (default 0 = all cores), `DP_SEED`.

use diffpattern::render::pattern_to_ascii;
use diffpattern::squish::complexity_of_grid;
use diffpattern::{PatternService, Pipeline, PipelineConfig};
use diffpattern_suite::{env_knob, example_rng};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = example_rng();
    let train_iters = env_knob("DP_TRAIN_ITERS", 150);
    let generate = env_knob("DP_GENERATE", 8);
    let threads = env_knob("DP_THREADS", 0);

    println!("=== DiffPattern quickstart ===");
    let config = PipelineConfig::tiny();
    let mut pipeline = Pipeline::from_synthetic_map(config, &mut rng)?;
    let ds = pipeline.dataset().report;
    println!(
        "dataset: {} tiles accepted ({} too complex, {} unsplittable)",
        ds.accepted, ds.too_complex, ds.unsplittable
    );
    println!(
        "real-pattern library: {} patterns, diversity H = {:.4} bits",
        pipeline.dataset().library().len(),
        pipeline.dataset().library().diversity()
    );

    println!("training the discrete diffusion model for {train_iters} iterations...");
    let report = pipeline.train(train_iters, &mut rng)?;
    println!(
        "loss: {:.4} -> {:.4}",
        report.head_mean(10),
        report.tail_mean(10)
    );

    // Freeze training into an immutable, shareable model, then generate
    // through a service: sample -> pre-filter -> solve, across threads.
    let spec = pipeline
        .request_spec(generate)
        .seed(env_knob("DP_SEED", 42) as u64);
    let service = PatternService::builder(Arc::new(pipeline.into_trained_model()?))
        .threads(threads)
        .build()?;
    println!(
        "generating {generate} legal patterns on {} threads...",
        service.threads()
    );
    let batch = service.generate(&spec)?;
    let r = batch.report;
    println!(
        "sampled {} topologies, pre-filter rejected {} / repaired {}, solver failures {}, \
         legal patterns {}, shortfall {}",
        r.topologies_sampled,
        r.prefilter_rejected,
        r.prefilter_repaired,
        r.solver_failures,
        r.legal_patterns,
        r.shortfall
    );

    for g in batch.items.iter().take(2) {
        let drc = diffpattern::drc::check_pattern(&g.pattern, &spec.rules);
        println!(
            "\npattern {} (seed {:#x}, {} attempts): complexity {:?}, DRC clean = {}",
            g.provenance.index,
            g.provenance.seed,
            g.provenance.attempts,
            complexity_of_grid(g.pattern.topology()),
            drc.is_clean()
        );
        println!("{}", pattern_to_ascii(&g.pattern, 48, 24));
    }
    Ok(())
}
