//! Durability-contract tests: codec round-trips under proptest,
//! fault-injected torn tails, committed-byte damage, kill/resume
//! convergence, and shard merge.

use dp_datagen::PatternLibrary;
use dp_library::{
    merge_libraries, scan_frame, FrameScan, IngestOutcome, Library, LibraryConfig, LibraryError,
    LibraryWriter, Record,
};
use dp_squish::{BitGrid, SquishPattern};
use proptest::prelude::*;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

const METHOD: &str = "diffpattern";
const RULESET: &str = "standard";

/// Fresh unique temp directory (removed by each test on success; leaks
/// on failure are intentional debugging aids in `$TMPDIR`).
fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dp_library_{tag}_{}_{}",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "_")
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cfg(segment_bytes: u64) -> LibraryConfig {
    LibraryConfig {
        segment_bytes,
        // Fixed stamp so interrupted and uninterrupted runs produce
        // byte-identical results.md files.
        timestamp_override: Some("2026-08-08 - 00:00:00".to_string()),
    }
}

/// Deterministic small pattern from a seed (splitmix-style scatter).
fn pattern(seed: u64) -> SquishPattern {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xA5A5);
    let mut next = move || {
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 29;
        x
    };
    let w = (next() % 4 + 1) as usize;
    let h = (next() % 4 + 1) as usize;
    let cells: Vec<bool> = (0..w * h).map(|_| next() % 2 == 0).collect();
    let topology = BitGrid::from_cells(w, h, cells).unwrap();
    let dx: Vec<i64> = (0..w).map(|_| (next() % 8 + 1) as i64).collect();
    let dy: Vec<i64> = (0..h).map(|_| (next() % 8 + 1) as i64).collect();
    SquishPattern::new(topology, dx, dy).unwrap()
}

/// The reference generation stream: `None` is a generator shortfall
/// (skip); seeds cycle with period 23 so indices past the first cycle
/// produce duplicates, both near and far apart.
fn item(i: u64) -> Option<(SquishPattern, bool)> {
    if i % 13 == 5 {
        return None;
    }
    let seed = i * 7 % 23;
    Some((pattern(seed), !seed.is_multiple_of(3)))
}

fn feed(w: &mut LibraryWriter, range: Range<u64>) {
    for i in range {
        match item(i) {
            Some((p, legal)) => {
                w.ingest(METHOD, RULESET, i, &p, legal).unwrap();
            }
            None => w.record_skip(METHOD, RULESET).unwrap(),
        }
    }
}

fn build(dir: &Path, count: u64, segment_bytes: u64) -> Library {
    let mut w = LibraryWriter::open(dir, cfg(segment_bytes)).unwrap();
    w.open_bucket(METHOD, RULESET, 0).unwrap();
    feed(&mut w, 0..count);
    w.finish().unwrap()
}

fn last_segment(dir: &Path) -> PathBuf {
    let mut v: Vec<PathBuf> = fs::read_dir(dir.join("segments"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    v.sort();
    v.pop().unwrap()
}

/// Byte offsets of every frame boundary in a segment (starting after
/// the 8-byte magic).
fn frame_boundaries(path: &Path) -> Vec<usize> {
    let bytes = fs::read(path).unwrap();
    let mut offs = vec![8usize];
    while let FrameScan::Valid { next, .. } = scan_frame(&bytes, *offs.last().unwrap()) {
        offs.push(next);
    }
    offs
}

fn assert_same_content(a: &Library, b: &Library) {
    assert_eq!(a.content_hash(), b.content_hash(), "record sets differ");
    let (sa, sb) = (
        a.stats(METHOD, RULESET).unwrap(),
        b.stats(METHOD, RULESET).unwrap(),
    );
    assert_eq!(sa, sb, "bucket accounting differs");
    assert_eq!(
        sa.diversity.to_bits(),
        sb.diversity.to_bits(),
        "diversity not bit-identical"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any representable record survives encode → frame → scan → decode
    /// byte-for-byte.
    fn record_codec_round_trips(
        w in 1usize..=6,
        h in 1usize..=6,
        fill in proptest::collection::vec(proptest::strategy::any::<bool>(), 36),
        deltas in proptest::collection::vec(1i64..=1_000_000, 12),
        source_index in proptest::strategy::any::<u64>(),
        dups in proptest::strategy::any::<u32>(),
        skips in proptest::strategy::any::<u32>(),
        legal in proptest::strategy::any::<bool>(),
        cx in proptest::strategy::any::<u16>(),
        cy in proptest::strategy::any::<u16>(),
    ) {
        let cells: Vec<bool> = (0..w * h).map(|i| fill[i % fill.len()]).collect();
        let topology = BitGrid::from_cells(w, h, cells).unwrap();
        let dx: Vec<i64> = (0..w).map(|i| deltas[i % deltas.len()]).collect();
        let dy: Vec<i64> = (0..h).map(|i| deltas[(i + w) % deltas.len()]).collect();
        let rec = Record {
            method: "m".to_string(),
            ruleset: "standard-α".to_string(),
            source_index,
            dups_since_prev: dups,
            skips_since_prev: skips,
            legal,
            complexity: (cx, cy),
            pattern: SquishPattern::new(topology, dx, dy).unwrap(),
        };
        let payload = rec.encode().unwrap();
        prop_assert_eq!(&Record::decode(&payload).unwrap(), &rec);
        // And through the frame layer.
        let frame = rec.frame().unwrap();
        match scan_frame(&frame, 0) {
            FrameScan::Valid { payload: range, next, .. } => {
                prop_assert_eq!(next, frame.len());
                prop_assert_eq!(&Record::decode(&frame[range]).unwrap(), &rec);
            }
            other => return Err(TestCaseError::Fail(format!("scan failed: {other:?}"))),
        }
    }
}

#[test]
fn reopen_matches_writer_state_across_segments() {
    let dir = tmp("reopen");
    let built = build(&dir, 60, 1024);
    assert!(built.segment_count() > 1, "want a multi-segment library");
    let reopened = Library::open(&dir).unwrap();
    assert_same_content(&built, &reopened);

    // Every stored record reads back equal to what the stream produced.
    let mut scratch = Vec::new();
    for rr in reopened.records(METHOD, RULESET).unwrap() {
        let rec = reopened.read(rr, &mut scratch).unwrap();
        let (expect, legal) = item(rr.source_index).unwrap();
        assert_eq!(rec.pattern, expect);
        assert_eq!(rec.legal, legal);
        assert_eq!(rec.source_index, rr.source_index);
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dedup_outcomes_distinguish_topology_variant_duplicate() {
    let dir = tmp("outcomes");
    let mut w = LibraryWriter::open(&dir, cfg(1 << 20)).unwrap();
    let p = pattern(1);
    assert_eq!(
        w.ingest(METHOD, RULESET, 0, &p, true).unwrap(),
        IngestOutcome::NewTopology
    );
    // Same topology, different Δs: a new variant, not a duplicate.
    let dx: Vec<i64> = p.dx().iter().map(|d| d + 1).collect();
    let variant = SquishPattern::new(p.topology().clone(), dx, p.dy().to_vec()).unwrap();
    assert_eq!(
        w.ingest(METHOD, RULESET, 1, &variant, true).unwrap(),
        IngestOutcome::NewVariant
    );
    assert_eq!(
        w.ingest(METHOD, RULESET, 2, &p, true).unwrap(),
        IngestOutcome::Duplicate
    );
    // Out-of-order ingest is rejected: dedup determinism depends on it.
    match w.ingest(METHOD, RULESET, 2, &p, true) {
        Err(LibraryError::OutOfOrder {
            expected: 3,
            got: 2,
            ..
        }) => {}
        other => panic!("expected OutOfOrder, got {other:?}"),
    }
    let lib = w.finish().unwrap();
    let s = lib.stats(METHOD, RULESET).unwrap();
    assert_eq!((s.accepted, s.duplicates, s.topologies), (2, 1, 1));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_tail_truncates_to_last_good_record_with_closed_accounting() {
    for cut_into_record in [true, false] {
        let dir = tmp(if cut_into_record {
            "torn_mid"
        } else {
            "torn_bound"
        });
        // Build without ever checkpointing, then drop: everything is an
        // uncommitted tail.
        let mut w = LibraryWriter::open(&dir, cfg(1 << 20)).unwrap();
        w.open_bucket(METHOD, RULESET, 0).unwrap();
        feed(&mut w, 0..30);
        drop(w);

        let seg = last_segment(&dir);
        let bounds = frame_boundaries(&seg);
        assert!(bounds.len() > 3, "want several records to cut between");
        let keep = bounds.len() - 2; // drop the final record...
        let cut = bounds[keep] + if cut_into_record { 5 } else { 0 }; // ...cleanly or mid-frame
        let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);

        let lib = Library::open(&dir).unwrap();
        let survivors = lib.records(METHOD, RULESET).unwrap();
        assert_eq!(survivors.len(), keep, "one frame per boundary gap");
        let s = lib.stats(METHOD, RULESET).unwrap();
        // Accounting is closed over the surviving prefix: counters are
        // exactly what replaying the stream up to the last survivor gives.
        assert_eq!(s.accepted, survivors.len() as u64);
        assert_eq!(s.next_index, survivors.last().unwrap().source_index + 1);
        let mut dups = 0;
        let mut skips = 0;
        let mut seen: Vec<SquishPattern> = Vec::new();
        for i in 0..s.next_index {
            match item(i) {
                None => skips += 1,
                Some((p, _)) if seen.contains(&p) => dups += 1,
                Some((p, _)) => seen.push(p),
            }
        }
        assert_eq!((s.duplicates, s.skipped), (dups, skips));
        assert_eq!(s.accepted, seen.len() as u64);
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn interrupted_then_resumed_build_is_content_identical() {
    let straight_dir = tmp("straight");
    let straight = build(&straight_dir, 80, 1 << 20);

    let crashed_dir = tmp("crashed");
    let mut w = LibraryWriter::open(&crashed_dir, cfg(1 << 20)).unwrap();
    w.open_bucket(METHOD, RULESET, 0).unwrap();
    // Stop mid-first-cycle so the post-checkpoint range still produces
    // fresh records (past one full seed cycle everything is a dup).
    feed(&mut w, 0..20);
    w.checkpoint().unwrap();
    let committed = fs::metadata(last_segment(&crashed_dir)).unwrap().len();
    feed(&mut w, 20..35);
    drop(w); // kill without flushing the checkpoint

    // Tear the uncommitted tail mid-record.
    let seg = last_segment(&crashed_dir);
    let cut = frame_boundaries(&seg)
        .into_iter()
        .map(|b| b as u64)
        .filter(|&b| b > committed)
        .nth(2)
        .unwrap()
        + 3;
    fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(cut)
        .unwrap();

    // Resume from whatever survived and run to completion.
    let mut w = LibraryWriter::open(&crashed_dir, cfg(1 << 20)).unwrap();
    let cursor = w.open_bucket(METHOD, RULESET, 0).unwrap();
    assert!(
        (20..35).contains(&cursor),
        "cursor {cursor} should be in the torn range"
    );
    feed(&mut w, cursor..80);
    let resumed = w.finish().unwrap();

    assert_same_content(&straight, &resumed);
    // With pinned timestamps the human-readable matrices agree too.
    assert_eq!(
        fs::read_to_string(straight_dir.join("results.md")).unwrap(),
        fs::read_to_string(crashed_dir.join("results.md")).unwrap()
    );
    fs::remove_dir_all(&straight_dir).unwrap();
    fs::remove_dir_all(&crashed_dir).unwrap();
}

#[test]
fn kill_and_resume_with_multi_segment_store_converges() {
    let straight_dir = tmp("ms_straight");
    let straight = build(&straight_dir, 80, 1024);

    let crashed_dir = tmp("ms_crashed");
    let mut w = LibraryWriter::open(&crashed_dir, cfg(1024)).unwrap();
    w.open_bucket(METHOD, RULESET, 0).unwrap();
    feed(&mut w, 0..63);
    drop(w); // kill; intact-but-uncommitted tail stays valid on reopen

    let mut w = LibraryWriter::open(&crashed_dir, cfg(1024)).unwrap();
    let cursor = w.open_bucket(METHOD, RULESET, 0).unwrap();
    // The cursor resumes after the last *record*; trailing dup/skip
    // events had no record to ride on and replay deterministically.
    assert!(cursor <= 63, "cursor {cursor} past the kill point");
    feed(&mut w, cursor..80);
    let resumed = w.finish().unwrap();

    assert!(resumed.segment_count() > 1);
    assert_same_content(&straight, &resumed);
    fs::remove_dir_all(&straight_dir).unwrap();
    fs::remove_dir_all(&crashed_dir).unwrap();
}

#[test]
fn damage_to_committed_bytes_is_data_loss_not_silent_truncation() {
    let dir = tmp("dataloss");
    build(&dir, 40, 1 << 20);
    let seg = last_segment(&dir);
    let mut bytes = fs::read(&seg).unwrap();
    bytes[12] ^= 0x40; // inside the first (committed) record
    fs::write(&seg, &bytes).unwrap();
    match Library::open(&dir) {
        Err(LibraryError::DataLoss { .. }) => {}
        other => panic!("expected DataLoss, got {other:?}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sealed_segment_damage_is_corrupt_even_without_checkpoint() {
    let dir = tmp("sealed");
    let built = build(&dir, 60, 1024);
    assert!(built.segment_count() > 1);
    fs::remove_file(dir.join("checkpoint.dpl")).unwrap();
    let first = dir.join("segments").join("seg-000000.dpl");
    let mut bytes = fs::read(&first).unwrap();
    let last = bytes.len() - 4;
    bytes[last] ^= 0xFF;
    fs::write(&first, &bytes).unwrap();
    match Library::open(&dir) {
        Err(LibraryError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn index_rebuilds_from_segments_alone() {
    let dir = tmp("nockpt");
    let built = build(&dir, 60, 1024);
    fs::remove_file(dir.join("checkpoint.dpl")).unwrap();
    let rebuilt = Library::open(&dir).unwrap();
    // Without the checkpoint only recordless tail events could be lost;
    // the record set and everything derived from it is identical.
    assert_eq!(built.content_hash(), rebuilt.content_hash());
    let (a, b) = (
        built.stats(METHOD, RULESET).unwrap(),
        rebuilt.stats(METHOD, RULESET).unwrap(),
    );
    assert_eq!(a.accepted, b.accepted);
    assert_eq!(a.legal, b.legal);
    assert_eq!(a.topologies, b.topologies);
    assert_eq!(a.diversity.to_bits(), b.diversity.to_bits());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn merge_of_seed_space_shards_equals_single_build() {
    let single_dir = tmp("merge_single");
    let single = build(&single_dir, 60, 1024);

    let s1_dir = tmp("merge_s1");
    let s1 = build(&s1_dir, 35, 1024);
    let s2_dir = tmp("merge_s2");
    let mut w = LibraryWriter::open(&s2_dir, cfg(1024)).unwrap();
    w.open_bucket(METHOD, RULESET, 35).unwrap();
    feed(&mut w, 35..60);
    let s2 = w.finish().unwrap();

    let out_dir = tmp("merge_out");
    // Shard order must not matter: merge sorts by base index.
    let merged = merge_libraries(&out_dir, &[s2, s1], cfg(1024)).unwrap();
    assert_same_content(&single, &merged);

    for d in [single_dir, s1_dir, s2_dir, out_dir] {
        fs::remove_dir_all(&d).unwrap();
    }
}

#[test]
fn incremental_entropy_matches_one_shot_bit_for_bit() {
    let dir = tmp("entropy");
    let lib = build(&dir, 80, 1 << 20);
    let mut oneshot = PatternLibrary::new();
    for rr in lib.records(METHOD, RULESET).unwrap() {
        oneshot.add_complexity(rr.complexity.0 as usize, rr.complexity.1 as usize);
    }
    let s = lib.stats(METHOD, RULESET).unwrap();
    assert_eq!(s.diversity.to_bits(), oneshot.diversity().to_bits());
    assert_eq!(
        lib.histogram(METHOD, RULESET)
            .unwrap()
            .diversity()
            .to_bits(),
        oneshot.diversity().to_bits()
    );
    fs::remove_dir_all(&dir).unwrap();
}
