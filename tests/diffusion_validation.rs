//! Integration validation of the diffusion mathematics at the paper's
//! full schedule scale (K = 1000, β: 0.01 → 0.5), independent of any
//! neural network.

use diffpattern::diffusion::{
    forward_sample, BatchScratch, Conditioning, InferenceDenoiser, NoiseSchedule, OracleDenoiser,
    Sampler, UniformDenoiser,
};
use diffpattern::squish::DeepSquishTensor;
use rand::SeedableRng;

/// One full-chain sample on `rng` (the sampling core at B = 1).
fn draw(
    sampler: &Sampler,
    denoiser: &dyn InferenceDenoiser,
    channels: usize,
    side: usize,
    rng: &mut rand::rngs::StdRng,
) -> DeepSquishTensor {
    sampler
        .sample_conditioned_batch_with(
            denoiser,
            channels,
            side,
            &sampler.strided_steps(1),
            &Conditioning::none(),
            std::slice::from_mut(rng),
            &mut BatchScratch::new(),
        )
        .remove(0)
}

#[test]
fn paper_schedule_converges_to_uniform() {
    // Paper Eq. 6 with the §IV-A hyperparameters.
    let schedule = NoiseSchedule::linear(1000, 0.01, 0.5).unwrap();
    assert!((schedule.cumulative_flip(1000) - 0.5).abs() < 1e-9);
    // Convergence happens well before K, as the linearly-increasing
    // schedule intends.
    let mix = schedule.mixing_step(1e-6).expect("must mix");
    assert!(mix < 500, "mixed only at step {mix}");
}

#[test]
fn oracle_reconstruction_at_paper_scale() {
    // Reverse ancestral sampling with a confident oracle over the full
    // 1000-step schedule reconstructs the target almost exactly — the
    // posterior/mixture algebra is correct end to end.
    let schedule = NoiseSchedule::linear(1000, 0.01, 0.5).unwrap();
    let sampler = Sampler::new(schedule);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let bits: Vec<bool> = (0..256).map(|i| (i % 7) < 3).collect();
    let x0 = DeepSquishTensor::from_bits(4, 8, bits).unwrap();
    let oracle = OracleDenoiser::new(x0.clone(), 0.999);
    let out = draw(&sampler, &oracle, 4, 8, &mut rng);
    let hamming: usize = out
        .bits()
        .iter()
        .zip(x0.bits())
        .filter(|(a, b)| a != b)
        .count();
    assert!(hamming <= 2, "hamming distance {hamming}");
}

#[test]
fn forward_noise_increases_monotonically_in_expectation() {
    let schedule = NoiseSchedule::linear(1000, 0.01, 0.5).unwrap();
    let x0 = DeepSquishTensor::from_bits(1, 16, vec![true; 256]).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let mut prev_flips = 0usize;
    for k in [1usize, 50, 200, 1000] {
        // Average over a few draws to tame variance.
        let mut flips = 0usize;
        for _ in 0..8 {
            let xk = forward_sample(&x0, &schedule, k, &mut rng);
            flips += xk.bits().iter().filter(|&&b| !b).count();
        }
        flips /= 8;
        assert!(
            flips + 20 >= prev_flips,
            "noise decreased: {prev_flips} -> {flips} at k={k}"
        );
        prev_flips = flips;
    }
    // At k = K the sample is essentially a fair coin.
    assert!(
        (prev_flips as i64 - 128).abs() < 40,
        "final flips {prev_flips}"
    );
}

#[test]
fn uniform_denoiser_yields_half_density() {
    let schedule = NoiseSchedule::linear(100, 0.01, 0.5).unwrap();
    let sampler = Sampler::new(schedule);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let d = UniformDenoiser::new();
    let ones: usize = (0..8)
        .map(|_| draw(&sampler, &d, 1, 16, &mut rng))
        .map(|s| s.bits().iter().filter(|&&b| b).count())
        .sum();
    let frac = ones as f64 / (8.0 * 256.0);
    assert!((frac - 0.5).abs() < 0.05, "{frac}");
}
