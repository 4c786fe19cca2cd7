//! Schedule ablation: the noise schedule (paper Eq. 7–8).
//!
//! Measures (a) reverse-sampling cost as a function of the step count K —
//! the knob trading sample quality for time — and (b) prints the mixing
//! step (first k with |b̄_k − 0.5| < tol) of the paper's linear schedule
//! versus constant schedules, demonstrating why the linear ramp is used.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dp_diffusion::{BatchScratch, Conditioning, NoiseSchedule, Sampler, UniformDenoiser};
use rand::SeedableRng;

fn reverse_cost_vs_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_schedule/reverse_cost");
    group.sample_size(10);
    for steps in [10usize, 50, 100] {
        let sampler = Sampler::new(NoiseSchedule::linear(steps, 0.01, 0.5).unwrap());
        let full = sampler.strided_steps(1);
        let d = UniformDenoiser::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut scratch = BatchScratch::new();
        group.bench_with_input(BenchmarkId::from_parameter(steps), &steps, |b, _| {
            b.iter(|| {
                sampler.sample_conditioned_batch_with(
                    &d,
                    4,
                    16,
                    &full,
                    &Conditioning::none(),
                    std::slice::from_mut(&mut rng),
                    &mut scratch,
                )
            })
        });
    }
    group.finish();
}

fn mixing_report(_c: &mut Criterion) {
    // Not a timing measurement: a convergence report printed once per
    // bench run, recorded in EXPERIMENTS.md.
    println!("\n=== schedule mixing steps (|cumulative_flip - 0.5| < 1e-6) ===");
    let linear = NoiseSchedule::linear(1000, 0.01, 0.5).unwrap();
    println!(
        "linear 0.01->0.5 (paper): mixes at k = {:?}",
        linear.mixing_step(1e-6)
    );
    for beta in [0.01f64, 0.05, 0.2] {
        let constant = NoiseSchedule::constant(1000, beta).unwrap();
        println!(
            "constant beta = {beta}: mixes at k = {:?}",
            constant.mixing_step(1e-6)
        );
    }
}

criterion_group!(benches, reverse_cost_vs_steps, mixing_report);
criterion_main!(benches);
