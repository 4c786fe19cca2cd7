//! Proves the zero-allocation claim of the inference engine for a single
//! chain: once a worker's [`BatchScratch`] is warm, the K-step denoising
//! loop of one chain (a batch of one through the sampling core) performs
//! **no per-step heap allocations**.
//!
//! Method: a counting global allocator tallies allocation events while one
//! sample is drawn through a 10-step chain and while one is drawn through
//! a 60-step chain (same model, same warm scratch). If any allocation
//! happened per denoising step, the 60-step count would exceed the
//! 10-step count by at least 50; the test asserts the counts are equal,
//! pinning the per-step allocation count to exactly zero without having
//! to hardcode the (small, constant) per-sample overhead. It then makes
//! the same comparison, 1 step against 2, on the shipped network
//! (`PipelineConfig::default()`), whose multiplies are the ones a
//! `PatternService` worker runs.
//! `alloc_steady_state_batched.rs` makes the same claim for several
//! lock-step lanes.
//!
//! The allocator needs `unsafe` to delegate to the system allocator; the
//! workspace itself denies `unsafe_code` everywhere but `dp_nn`'s two
//! AVX-512 modules, `avx512` (the vector `exp` of SiLU and softmax, and
//! the masked loads and stores) and the GEMM tile (`gemm::avx512`), which
//! enter code compiled for AVX-512F and load and store through masks.

#![allow(unsafe_code)]

use diffpattern::diffusion::{
    BatchScratch, Conditioning, NeuralDenoiser, NoiseSchedule, TrainedModel,
};
use diffpattern::nn::{UNet, UNetConfig};
use diffpattern::PipelineConfig;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn counted<R>(f: impl FnOnce() -> R) -> (usize, R) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::SeqCst), out)
}

fn model(config: &UNetConfig, side: usize, steps: usize) -> TrainedModel {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    // Untrained weights: sampling cost and allocation behaviour are
    // architecture-bound, not weight-bound.
    let denoiser = NeuralDenoiser::new(UNet::new(config, &mut rng));
    let schedule = NoiseSchedule::linear(steps, 0.01, 0.5).unwrap();
    TrainedModel::new(denoiser, schedule, side).unwrap()
}

/// Allocation events of one full-chain sample (the sampler, its step list
/// and the conditioning are built outside the count).
fn draw(model: &TrainedModel, rng: &mut rand::rngs::StdRng, scratch: &mut BatchScratch) -> usize {
    let sampler = model.sampler();
    let full = sampler.strided_steps(1);
    let none = Conditioning::none();
    counted(|| {
        sampler.sample_conditioned_batch_with(
            model,
            model.channels(),
            model.side(),
            &full,
            &none,
            std::slice::from_mut(rng),
            scratch,
        )
    })
    .0
}

/// Warms one scratch, then asserts that a chain of `long_steps` allocates
/// exactly as often as a chain of `short_steps`.
fn assert_no_per_step_allocations(
    config: &UNetConfig,
    side: usize,
    short_steps: usize,
    long_steps: usize,
) {
    let short = model(config, side, short_steps);
    let long = model(config, side, long_steps);
    let mut scratch = BatchScratch::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    // Warm-up: the first samples size the workspace pool and the p1
    // buffer; the pool's first-fit reuse settles within two rounds.
    for _ in 0..2 {
        let _ = draw(&short, &mut rng, &mut scratch);
        let _ = draw(&long, &mut rng, &mut scratch);
    }

    let short_allocs = draw(&short, &mut rng, &mut scratch);
    let long_allocs = draw(&long, &mut rng, &mut scratch);

    // Extra denoising steps, zero extra allocations: the whole loop runs
    // out of the warm scratch. (The small constant is the per-sample
    // cost: the state tensor and the returned vector.)
    assert_eq!(
        long_allocs, short_allocs,
        "per-step allocations detected: {short_steps}-step chain allocated {short_allocs}, \
         {long_steps}-step chain allocated {long_allocs}"
    );
    assert!(
        short_allocs <= 4,
        "per-sample allocation overhead unexpectedly large: {short_allocs}"
    );
}

/// This file holds exactly one test so no sibling test thread can pollute
/// the global allocation counter.
#[test]
fn steady_state_sampling_allocates_nothing_per_denoising_step() {
    let small = UNetConfig {
        in_channels: 4,
        out_channels: 8,
        base_channels: 8,
        channel_mults: vec![1, 2],
        num_res_blocks: 1,
        attn_resolutions: vec![1],
        time_dim: 16,
        groups: 4,
        dropout: 0.0,
    };
    assert_no_per_step_allocations(&small, 8, 10, 60);

    // The shipped width: its GEMMs are large enough that any per-call
    // thread or buffer would show as allocations per U-Net call. One
    // extra step keeps the debug build fast.
    let shipped = PipelineConfig::default();
    assert_no_per_step_allocations(&shipped.unet_config(), shipped.fold_side(), 1, 2);
}
