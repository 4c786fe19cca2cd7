//! The micro-batched counterpart of `alloc_steady_state.rs`: once a
//! worker's [`BatchScratch`] is warm, advancing B lock-step denoising
//! chains performs **no per-step heap allocations** either — the stacked
//! network evaluation draws from the workspace pool and the concatenated
//! probability buffer reuses its capacity.
//!
//! Method: identical to the single-chain test — compare the allocation
//! count of a 10-step batched chain against a 60-step one at the same lane
//! count; any per-step allocation would separate them by at least
//! 50 events. The small constant that remains is the per-*chain* cost
//! (one state tensor per lane plus the returned vector).
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

fn model(steps: usize) -> TrainedModel {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let config = UNetConfig {
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
    // Untrained weights: allocation behaviour is architecture-bound.
    let denoiser = NeuralDenoiser::new(UNet::new(&config, &mut rng));
    let schedule = NoiseSchedule::linear(steps, 0.01, 0.5).unwrap();
    TrainedModel::new(denoiser, schedule, 8).unwrap()
}

/// This file holds exactly one test so no sibling test thread can pollute
/// the global allocation counter.
#[test]
fn steady_state_batched_sampling_allocates_nothing_per_denoising_step() {
    const LANES: u64 = 3;
    let short = model(10);
    let long = model(60);
    let none = Conditioning::none();
    let mut scratch = BatchScratch::new();
    // Allocation events of one full-chain batch of LANES chains (sampler,
    // step list and RNGs are built outside the count).
    let mut draw = |model: &TrainedModel, base: u64| {
        let sampler = model.sampler();
        let full = sampler.strided_steps(1);
        let mut rngs: Vec<rand::rngs::StdRng> = (0..LANES)
            .map(|i| rand::rngs::StdRng::seed_from_u64(base + i))
            .collect();
        counted(|| {
            sampler.sample_conditioned_batch_with(
                model,
                4,
                8,
                &full,
                &none,
                &mut rngs,
                &mut scratch,
            )
        })
        .0
    };

    // Warm-up: size the workspace pool and the concatenated p1 buffer.
    for round in 0..2u64 {
        let _ = draw(&short, round);
        let _ = draw(&long, round);
    }

    let short_allocs = draw(&short, 10);
    let long_allocs = draw(&long, 11);

    // 50 extra lock-step denoising rounds, zero extra allocations.
    assert_eq!(
        long_allocs, short_allocs,
        "per-step allocations detected: 10-step batch allocated {short_allocs}, \
         60-step batch allocated {long_allocs}"
    );
    // The constant is per chain, not per step: a few allocations per
    // lane (state bits + tensor) plus the returned vector.
    assert!(
        short_allocs <= 4 * LANES as usize + 4,
        "per-batch allocation overhead unexpectedly large: {short_allocs}"
    );
}
