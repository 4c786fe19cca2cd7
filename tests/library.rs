//! Full-stack integration tests for the durable pattern library: a
//! trained model served by [`PatternService`], drained through
//! [`LibrarySink`] into `dp_library` stores on real disk.
//!
//! The store-level durability contract (torn tails, checkpoint folding,
//! corruption detection) is pinned by `crates/library/tests/recovery.rs`
//! with synthetic streams; this suite pins the *system-level* claims
//! with real generated patterns:
//!
//! 1. a build interrupted at a checkpoint and resumed via
//!    `RequestSpec::first_index` converges on content **identical** to
//!    an uninterrupted build — same records, same accounting, same
//!    diversity bits, same `results.md`;
//! 2. shard builds over disjoint index sub-ranges merge into exactly
//!    the single-build library;
//! 3. the diversity of the store's per-bucket complexity histogram,
//!    built up at ingest, equals the one-shot [`PatternLibrary`]
//!    computation over the stored records bit for bit (paper
//!    Definition 1, the `table1` harness's number).

use diffpattern::datagen::PatternLibrary;
use diffpattern::library::{merge_libraries, Library, LibraryConfig, LibraryWriter};
use diffpattern::{
    LibrarySink, PatternService, Pipeline, PipelineConfig, RequestSpec, TrainedModel,
};
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

const METHOD: &str = "diffpattern";
const RULESET: &str = "tiny";

/// Self-cleaning scratch directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("dplib-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One trained tiny model plus the pipeline-derived base spec.
fn trained(seed: u64, iters: usize) -> (Arc<TrainedModel>, RequestSpec) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng).unwrap();
    let _ = pipeline.train(iters, &mut rng).unwrap();
    let model = Arc::new(pipeline.trained_model().unwrap());
    let spec = pipeline.request_spec(0);
    (model, spec)
}

/// Fixed timestamp so interrupted/resumed and one-shot builds can be
/// compared down to the `results.md` bytes.
fn config() -> LibraryConfig {
    LibraryConfig {
        timestamp_override: Some("2026-08-08 - 00:00:00".to_string()),
        ..LibraryConfig::default()
    }
}

/// Drains `spec` (count/first_index already set) into the bucket.
fn drain(service: &PatternService, writer: &mut LibraryWriter, spec: &RequestSpec) {
    let cursor = writer.open_bucket(METHOD, RULESET, 0).unwrap();
    assert_eq!(cursor, spec.first_index as u64, "resume cursor mismatch");
    let handle = service.submit(spec).unwrap();
    LibrarySink::new(writer, METHOD, RULESET)
        .drain(handle)
        .unwrap();
}

/// Content identity: record-level hash, full accounting, diversity bits.
fn assert_same_content(a: &Library, b: &Library) {
    assert_eq!(a.content_hash(), b.content_hash());
    assert_eq!(a.len(), b.len());
    let sa = a.stats(METHOD, RULESET).unwrap();
    let sb = b.stats(METHOD, RULESET).unwrap();
    assert_eq!(sa, sb);
    assert_eq!(sa.diversity.to_bits(), sb.diversity.to_bits());
}

#[test]
fn interrupted_resumed_service_build_matches_one_shot() {
    let (model, base) = trained(82, 4);
    let service = PatternService::builder(Arc::clone(&model))
        .threads(2)
        .build()
        .unwrap();
    let tmp = TempDir::new("resume");
    let total = 12usize;
    let cut = 5usize;

    // Reference: one uninterrupted build.
    let mut writer = LibraryWriter::open(tmp.path("oneshot"), config()).unwrap();
    drain(
        &service,
        &mut writer,
        &RequestSpec {
            count: total,
            ..base.clone()
        }
        .seed(23),
    );
    let oneshot = writer.finish().unwrap();

    // Interrupted build: first `cut` items, a durable checkpoint, then
    // the writer is dropped cold (anything after the checkpoint would be
    // recovered from the records themselves; here the drop IS the kill).
    let mut writer = LibraryWriter::open(tmp.path("resumed"), config()).unwrap();
    drain(
        &service,
        &mut writer,
        &RequestSpec {
            count: cut,
            ..base.clone()
        }
        .seed(23),
    );
    writer.checkpoint().unwrap();
    drop(writer);

    // Resume: reopen, ask the bucket where to restart, generate the
    // remaining sub-range via `first_index`.
    let mut writer = LibraryWriter::open(tmp.path("resumed"), config()).unwrap();
    let cursor = writer.open_bucket(METHOD, RULESET, 0).unwrap() as usize;
    assert_eq!(cursor, cut, "checkpoint must preserve the cursor");
    drain(
        &service,
        &mut writer,
        &RequestSpec {
            count: total - cursor,
            ..base.clone()
        }
        .seed(23)
        .first_index(cursor),
    );
    let resumed = writer.finish().unwrap();

    assert_same_content(&oneshot, &resumed);
    // Down to the rendered results matrix (timestamps pinned).
    let oneshot_md = std::fs::read_to_string(tmp.path("oneshot").join("results.md")).unwrap();
    let resumed_md = std::fs::read_to_string(tmp.path("resumed").join("results.md")).unwrap();
    assert_eq!(oneshot_md, resumed_md);
}

#[test]
fn first_index_shard_builds_merge_into_the_single_build() {
    let (model, base) = trained(83, 4);
    let service = PatternService::builder(Arc::clone(&model))
        .threads(2)
        .build()
        .unwrap();
    let tmp = TempDir::new("merge");
    let total = 10usize;
    let split = 4usize;

    let mut writer = LibraryWriter::open(tmp.path("single"), config()).unwrap();
    drain(
        &service,
        &mut writer,
        &RequestSpec {
            count: total,
            ..base.clone()
        }
        .seed(29),
    );
    let single = writer.finish().unwrap();

    // Two shards over disjoint sub-ranges of the same seed space. The
    // second shard's bucket base is its first_index.
    let mut writer = LibraryWriter::open(tmp.path("shard0"), config()).unwrap();
    drain(
        &service,
        &mut writer,
        &RequestSpec {
            count: split,
            ..base.clone()
        }
        .seed(29),
    );
    writer.finish().unwrap();
    let mut writer = LibraryWriter::open(tmp.path("shard1"), config()).unwrap();
    let cursor = writer.open_bucket(METHOD, RULESET, split as u64).unwrap();
    assert_eq!(cursor, split as u64);
    let handle = service
        .submit(
            &RequestSpec {
                count: total - split,
                ..base.clone()
            }
            .seed(29)
            .first_index(split),
        )
        .unwrap();
    LibrarySink::new(&mut writer, METHOD, RULESET)
        .drain(handle)
        .unwrap();
    writer.finish().unwrap();

    let shards = [
        Library::open(tmp.path("shard1")).unwrap(),
        Library::open(tmp.path("shard0")).unwrap(),
    ];
    let merged = merge_libraries(tmp.path("merged"), &shards, config()).unwrap();
    assert_same_content(&single, &merged);
}

#[test]
fn incremental_store_entropy_matches_one_shot_library_bit_for_bit() {
    let (model, base) = trained(84, 4);
    let service = PatternService::builder(Arc::clone(&model))
        .threads(1)
        .build()
        .unwrap();
    let tmp = TempDir::new("entropy");

    let mut writer = LibraryWriter::open(tmp.path("store"), config()).unwrap();
    drain(
        &service,
        &mut writer,
        &RequestSpec {
            count: 16,
            ..base.clone()
        }
        .seed(37),
    );
    let store = writer.finish().unwrap();

    // One-shot: rebuild the paper's PatternLibrary from the stored
    // records read back off disk and compare Definition 1 exactly.
    let mut oneshot = PatternLibrary::new();
    let mut scratch = Vec::new();
    for record_ref in store.records(METHOD, RULESET).unwrap() {
        let record = store.read(record_ref, &mut scratch).unwrap();
        oneshot.add_topology(record.pattern.topology());
    }
    let stats = store.stats(METHOD, RULESET).unwrap();
    assert_eq!(oneshot.len() as u64, stats.accepted);
    assert_eq!(
        oneshot.diversity().to_bits(),
        stats.diversity.to_bits(),
        "incremental entropy must equal the one-shot computation exactly"
    );
    assert_eq!(
        store
            .histogram(METHOD, RULESET)
            .unwrap()
            .diversity()
            .to_bits(),
        oneshot.diversity().to_bits()
    );
}
