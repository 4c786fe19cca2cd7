//! Regenerates paper Table I: pattern diversity and legality for every
//! method (Real / CAE / VCAE / CAE+LegalGAN / VCAE+LegalGAN /
//! LayouTransformer / DiffPattern-S / DiffPattern-L) through
//! [`diffpattern::table1::run`], which fits the baselines itself and runs
//! both DiffPattern rows through one [`diffpattern::PatternService`].
//!
//! ```text
//! cargo run --release --example table1_comparison
//! ```
//!
//! Environment knobs: `DP_TRAIN_ITERS` (diffusion, default 300),
//! `DP_GENERATE` (patterns per method, default 100; the paper uses
//! 100 000), `DP_AE_ITERS` (baseline training, default 300),
//! `DP_VARIANTS` (DiffPattern-L patterns per topology, default 10),
//! `DP_THREADS` (default 0 = all cores), `DP_SEED`. The output depends
//! only on the knobs: two runs with the same settings print the same
//! table.

use diffpattern::table1::{self, Table1Config};
use diffpattern::{metrics, PatternService, Pipeline, PipelineConfig};
use diffpattern_suite::{env_knob, example_rng};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = example_rng();
    let train_iters = env_knob("DP_TRAIN_ITERS", 300);
    let generate = env_knob("DP_GENERATE", 100);
    let ae_iterations = env_knob("DP_AE_ITERS", 300);

    let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng)?;
    println!(
        "dataset: {} tiles, real diversity H = {:.4}",
        pipeline.dataset().report.accepted,
        pipeline.dataset().library().diversity()
    );
    println!("training the diffusion model for {train_iters} iterations...");
    let report = pipeline.train(train_iters, &mut rng)?;
    println!(
        "diffusion loss: {:.4} -> {:.4}",
        report.head_mean(20),
        report.tail_mean(20)
    );

    let model = Arc::new(pipeline.trained_model()?);
    let service = PatternService::builder(model)
        .threads(env_knob("DP_THREADS", 0))
        .build()?;
    let spec = pipeline
        .request_spec(0)
        .seed(env_knob("DP_SEED", 42) as u64);

    let config = Table1Config {
        generate,
        ae_iterations,
        ae: diffpattern::baselines::AeConfig {
            side: pipeline.config().dataset.matrix_side,
            features: 8,
            latent: 32,
        },
        variants_per_topology: env_knob("DP_VARIANTS", 10),
    };
    println!("running all Table I rows ({generate} patterns per method)...\n");
    let rows = table1::run(&service, &spec, pipeline.dataset(), config, &mut rng)?;

    println!("{}", metrics::table_header());
    for row in &rows {
        println!("{row}");
    }
    Ok(())
}
