//! Ingest-path microbenchmarks for the durable pattern library
//! (`dp_library`); the CI quick-bench records their medians in
//! `BENCH_ci.json`.
//!
//! Two rows, both per *batch of 64 patterns* against a live on-disk
//! store (real `pwrite`s, real CRC framing):
//!
//! * `fresh_batch64` — 64 never-seen patterns: topology hash, variant
//!   hash, frame encode, append, index + diversity update. The store
//!   grows across iterations, so a median that drifts with store size
//!   would expose super-constant ingest cost.
//! * `dedup_hit_batch64` — 64 byte-identical resubmissions of a stored
//!   pattern: hash probe plus the read-back verification that keeps
//!   dedup honest against hash collisions, no write amplification.

use criterion::{criterion_group, criterion_main, Criterion};
use diffpattern::library::{LibraryConfig, LibraryWriter};
use dp_geometry::BitGrid;
use dp_squish::SquishPattern;
use std::path::PathBuf;

const BATCH: usize = 64;

/// Deterministic unique patterns: an 8x8 topology from mixed seed bits,
/// with the seed folded into the Δ vectors so every call yields a new
/// byte-level variant even when a topology repeats.
fn pattern(seed: u64) -> SquishPattern {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut cells = Vec::with_capacity(64);
    for _ in 0..64 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        cells.push(state >> 62 > 1);
    }
    let grid = BitGrid::from_cells(8, 8, cells).unwrap();
    let dx: Vec<i64> = (0..8)
        .map(|i| 16 + ((seed >> (i * 4)) & 0xF) as i64)
        .collect();
    let dy: Vec<i64> = (0..8)
        .map(|i| 24 + ((seed >> (i * 3)) & 0x7) as i64)
        .collect();
    SquishPattern::new(grid, dx, dy).unwrap()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dp-bench-library-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn library_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("library_ingest");
    group.sample_size(10);

    let dir = scratch_dir("fresh");
    let mut writer = LibraryWriter::open(&dir, LibraryConfig::default()).unwrap();
    let mut next_seed = 0u64;
    group.bench_function("fresh_batch64", |b| {
        b.iter(|| {
            let mut accepted = 0usize;
            for _ in 0..BATCH {
                let p = pattern(next_seed);
                next_seed += 1;
                writer
                    .ingest_arrival("diffpattern", "bench", &p, true)
                    .unwrap();
                accepted += 1;
            }
            accepted
        })
    });
    writer.checkpoint().unwrap();
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch_dir("dedup");
    let mut writer = LibraryWriter::open(&dir, LibraryConfig::default()).unwrap();
    let hit = pattern(u64::MAX);
    writer
        .ingest_arrival("diffpattern", "bench", &hit, true)
        .unwrap();
    group.bench_function("dedup_hit_batch64", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                writer
                    .ingest_arrival("diffpattern", "bench", &hit, true)
                    .unwrap();
            }
            BATCH
        })
    });
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);

    group.finish();
}

criterion_group!(benches, library_ingest);
criterion_main!(benches);
