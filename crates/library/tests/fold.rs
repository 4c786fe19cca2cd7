//! Ingest and `Library::open` count a record through the same fold: a
//! reopened store reports the live writer's counters after every event,
//! and recordless events reach the next stored record's deltas.

use dp_datagen::PatternLibrary;
use dp_library::{IngestOutcome, Library, LibraryConfig, LibraryWriter};
use dp_squish::{BitGrid, SquishPattern};
use std::fs;
use std::path::{Path, PathBuf};

const M: &str = "diffpattern";
const R: &str = "standard";

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dp_fold_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> LibraryWriter {
    let config = LibraryConfig {
        segment_bytes: 1 << 20,
        timestamp_override: Some("2026-08-08 - 00:00:00".to_string()),
    };
    LibraryWriter::open(dir, config).unwrap()
}

/// Topology `t` of a family with four complexities, Δ-variant `v`.
fn pattern(t: usize, v: i64) -> SquishPattern {
    let rows = ["#.\n.#", "#..\n.##", "#.#\n.#.\n##.", "#..#\n.##.\n#..#"];
    let topology = BitGrid::from_ascii(rows[t % 4]).unwrap();
    let (w, h) = (topology.width(), topology.height());
    SquishPattern::new(topology, vec![10 + v; w], vec![20; h]).unwrap()
}

/// One step of a stream: store a pattern, or replay `(dups, skips)`
/// recordless events (`(0, 1)` is one generator shortfall).
enum Event {
    Store(SquishPattern, bool),
    Gap(u64, u64),
}

/// New topologies, new variants, near and far duplicates, skips, gaps.
fn stream() -> Vec<Event> {
    (0..36usize)
        .map(|i| match i % 9 {
            4 => Event::Gap(0, 1),
            7 => Event::Gap(i as u64 % 4, i as u64 % 3),
            _ => Event::Store(pattern(i * 5 % 7, i as i64 % 3), i % 4 != 1),
        })
        .collect()
}

fn apply(w: &mut LibraryWriter, event: &Event) -> Option<IngestOutcome> {
    match event {
        Event::Store(p, legal) => return Some(w.ingest_arrival(M, R, p, *legal).unwrap()),
        Event::Gap(0, 1) => w.record_skip(M, R).unwrap(),
        Event::Gap(dups, skips) => w.replay_gap(M, R, *dups, *skips).unwrap(),
    }
    None
}

#[test]
fn reopened_counters_equal_live_counters_after_every_event() {
    let dir = tmp("lockstep");
    let mut w = open(&dir);
    w.open_bucket(M, R, 3).unwrap();
    let mut outcomes = Vec::new();
    for (step, event) in stream().iter().enumerate() {
        outcomes.extend(apply(&mut w, event));
        w.checkpoint().unwrap();
        let reopened = Library::open(&dir).unwrap();
        assert_eq!(reopened.stats(M, R), w.library().stats(M, R), "{step}");
        assert_eq!(reopened.content_hash(), w.library().content_hash());
    }
    for want in [
        IngestOutcome::NewTopology,
        IngestOutcome::NewVariant,
        IngestOutcome::Duplicate,
    ] {
        assert!(outcomes.contains(&want), "stream never produced {want:?}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tail_events_ride_on_the_next_record_after_resume() {
    let before = [
        Event::Store(pattern(0, 0), true),
        Event::Store(pattern(0, 0), true),
        Event::Gap(0, 1),
        Event::Gap(2, 1),
    ];
    let after = Event::Store(pattern(1, 0), false);
    let (straight, resumed) = (tmp("straight"), tmp("resumed"));
    let mut w = open(&straight);
    for e in before.iter().chain([&after]) {
        apply(&mut w, e);
    }
    let straight_lib = w.finish().unwrap();
    // The writer stops with only recordless events after its last record.
    let mut w = open(&resumed);
    for e in &before {
        apply(&mut w, e);
    }
    w.finish().unwrap();
    let mut w = open(&resumed);
    assert_eq!(w.next_index(M, R), Some(6));
    apply(&mut w, &after);
    let lib = w.finish().unwrap();

    let last = lib.records(M, R).unwrap()[1];
    let rec = lib.read(&last, &mut Vec::new()).unwrap();
    let deltas = (rec.source_index, rec.dups_since_prev, rec.skips_since_prev);
    assert_eq!(deltas, (6, 3, 2));
    assert_eq!(lib.stats(M, R), straight_lib.stats(M, R));
    let seg = |d: &PathBuf| fs::read(d.join("segments/seg-000000.dpl")).unwrap();
    assert_eq!(seg(&straight), seg(&resumed));
    fs::remove_dir_all(&straight).unwrap();
    fs::remove_dir_all(&resumed).unwrap();
}

#[test]
fn events_before_the_first_record_fix_the_base_without_a_checkpoint() {
    let dir = tmp("base");
    let mut w = open(&dir);
    w.open_bucket(M, R, 10).unwrap();
    w.record_skip(M, R).unwrap();
    w.replay_gap(M, R, 1, 1).unwrap();
    w.ingest(M, R, 13, &pattern(2, 0), true).unwrap();
    let live = w.library().stats(M, R).unwrap();
    drop(w); // killed before any checkpoint: only the record is left
    assert!(!dir.join("checkpoint.dpl").exists());
    let s = Library::open(&dir).unwrap().stats(M, R).unwrap();
    let counts = (s.base, s.next_index, s.accepted, s.duplicates, s.skipped);
    assert_eq!(counts, (10, 14, 1, 1, 2));
    assert_eq!(s, live);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn live_entropy_matches_one_shot_after_every_ingest() {
    let dir = tmp("entropy");
    let mut w = open(&dir);
    w.open_bucket(M, R, 0).unwrap();
    for event in stream() {
        apply(&mut w, &event);
        let (lib, mut oneshot) = (w.library(), PatternLibrary::new());
        for rr in lib.records(M, R).unwrap() {
            oneshot.add(rr.complexity.0.into(), rr.complexity.1.into());
        }
        let s = lib.stats(M, R).unwrap();
        assert_eq!(s.diversity.to_bits(), oneshot.diversity().to_bits());
        assert_eq!(s.distinct_complexities, oneshot.distinct() as u64);
        assert_eq!(lib.histogram(M, R).unwrap().len(), oneshot.len());
    }
    fs::remove_dir_all(&dir).unwrap();
}
