//! Reproduces paper Fig. 6: flattened samples along the reverse denoising
//! chain T_K -> T_k -> T-hat_0.
//!
//! ```text
//! cargo run --release --example fig6_denoising_chain
//! ```
//!
//! Prints ASCII snapshots of one reverse trajectory: pure uniform noise at
//! k = K progressively denoising into a binary layout topology, with no
//! thresholding anywhere — the visual argument of the paper's Fig. 6.

use diffpattern::render::grid_to_ascii;
use diffpattern::{Pipeline, PipelineConfig};
use diffpattern_suite::{env_knob, example_rng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = example_rng();
    let train_iters = env_knob("DP_TRAIN_ITERS", 150);

    let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng)?;
    println!("training for {train_iters} iterations...");
    let _ = pipeline.train(train_iters, &mut rng)?;

    // Freeze the trained state; tracing runs on the immutable model.
    let model = pipeline.into_trained_model()?;
    let steps = model.schedule().steps();
    let sampler = model.sampler();

    // Snapshot at 3K/4, K/2 and K/4 like the paper's strip (K and 0 are
    // always included by the tracer).
    let snaps = vec![3 * steps / 4, steps / 2, steps / 4];
    let trace = sampler.sample_with_trace(&model, model.channels(), model.side(), &snaps, &mut rng);

    for (k, tensor) in &trace.snapshots {
        let grid = tensor.unfold();
        let filled = grid.count_ones();
        println!(
            "--- step k = {k} (filled {} / {}) ---",
            filled,
            grid.width() * grid.height()
        );
        println!("{}", grid_to_ascii(&grid));
    }
    println!(
        "final sample bow-tie free: {}",
        diffpattern::geometry::bowtie::is_bowtie_free(&trace.sample.unfold())
    );
    Ok(())
}
