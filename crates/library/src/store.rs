//! The durable, append-only, content-addressed pattern store.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/segments/seg-000000.dpl   8-byte magic, then framed records
//! <dir>/segments/seg-000001.dpl   ...
//! <dir>/checkpoint.dpl            durability marker (tmp + rename)
//! <dir>/results.md                human-readable matrix (regenerated)
//! ```
//!
//! Records are keyed by topology hash; each topology bucket holds its
//! legal Δ-variants. Reads are buffered positional reads (`pread`) —
//! the workspace forbids `unsafe`, so no `mmap` — against long-lived
//! per-segment file handles.
//!
//! # Durability contract
//!
//! The durable state of a library is *the longest valid checksummed
//! record prefix of its segment chain*. [`LibraryWriter`] commits at
//! segment boundaries (fsync + checkpoint rename); the checkpoint
//! accelerates opening and marks which bytes are *committed* — losing
//! committed bytes is a hard [`LibraryError::DataLoss`], while torn or
//! truncated bytes past the committed length are silently discarded as
//! an ordinary crash tail. Every counter the store reports is derivable
//! from the record prefix (records carry their bucket, the source
//! index, and the dedup/skip deltas since the previous record), so a
//! killed build resumes from `next_index` and converges to content
//! identical to an uninterrupted run.

use crate::codec::{
    crc32, fnv1a, scan_frame, topology_hash, variant_hash, Cursor, FrameScan, Record, FNV_OFFSET,
};
use crate::diversity::DiversityMeter;
use crate::error::LibraryError;
use crate::matrix::{format_utc_timestamp, write_matrix, MatrixRow};
use dp_datagen::PatternLibrary;
use dp_squish::{complexity_of_grid, SquishPattern};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

const SEG_MAGIC: &[u8; 8] = b"DPLSEG1\0";
const CKPT_MAGIC: &[u8; 8] = b"DPLCKPT1";
const CKPT_VERSION: u8 = 1;

/// Tuning knobs for [`LibraryWriter`].
#[derive(Debug, Clone)]
pub struct LibraryConfig {
    /// Segment size threshold: once the active segment reaches this many
    /// bytes it is sealed (fsync + checkpoint) and a new one is opened.
    pub segment_bytes: u64,
    /// Fixed timestamp string for the results matrix, used by tests and
    /// reproducible builds; `None` means wall-clock UTC.
    pub timestamp_override: Option<String>,
}

impl Default for LibraryConfig {
    fn default() -> Self {
        LibraryConfig {
            segment_bytes: 256 * 1024,
            timestamp_override: None,
        }
    }
}

/// Locator plus pre-decoded identity of one stored record.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef {
    seg: u32,
    offset: u64,
    len: u32,
    crc: u32,
    variant_hash: u64,
    /// Index of this pattern in its bucket's generation stream.
    pub source_index: u64,
    /// Whether the pattern was DRC-clean at ingest.
    pub legal: bool,
    /// Complexity of the squished core.
    pub complexity: (u16, u16),
}

/// What happened to an ingested pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// First pattern with this topology in its bucket.
    NewTopology,
    /// New Δ-variant of an already-stored topology (Fig. 7's
    /// one-topology-many-patterns path).
    NewVariant,
    /// Byte-identical to a stored record; dropped, counted.
    Duplicate,
}

/// Snapshot of one `(method, ruleset)` bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketStats {
    /// First source index this bucket ever ingested.
    pub base: u64,
    /// Next source index the bucket expects (the resume cursor).
    pub next_index: u64,
    /// Stored (post-dedup) records.
    pub accepted: u64,
    /// Duplicates dropped at ingest.
    pub duplicates: u64,
    /// Source indices skipped (generator shortfall).
    pub skipped: u64,
    /// Stored records that were DRC-clean.
    pub legal: u64,
    /// Distinct stored topologies.
    pub topologies: u64,
    /// Distinct complexity pairs.
    pub distinct_complexities: u64,
    /// Exact diversity (paper Definition 1), bits.
    pub diversity: f64,
    /// Timestamp of the last change, from the checkpoint.
    pub updated: String,
}

/// Lifetime-of-this-process writer counters, for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriterTotals {
    /// Records appended by this writer instance.
    pub accepted: u64,
    /// Duplicates dropped by this writer instance.
    pub duplicates: u64,
    /// Bytes appended by this writer instance.
    pub bytes_written: u64,
}

#[derive(Debug, Default)]
struct TopoGroup {
    refs: Vec<RecordRef>,
}

#[derive(Debug, Default)]
struct BucketState {
    base: u64,
    cursor: u64,
    accepted: u64,
    duplicates: u64,
    skipped: u64,
    legal: u64,
    /// Σ `dups_since_prev` over stored records (the *attached* events).
    dup_delta_total: u64,
    /// Σ `skips_since_prev` over stored records.
    skip_delta_total: u64,
    /// Events since the last stored record, to be attached to the next.
    pending_dups: u64,
    pending_skips: u64,
    meter: DiversityMeter,
    /// Dedup groups keyed by topology hash; `BTreeMap` so stats that
    /// fold over groups visit them in one deterministic order.
    topos: BTreeMap<u64, Vec<TopoGroup>>,
    order: Vec<RecordRef>,
    updated: String,
    last_ckpt: (u64, u64, u64, u64),
}

impl BucketState {
    fn new_at(base: u64) -> Self {
        BucketState {
            base,
            cursor: base,
            // Force a timestamp refresh at the first checkpoint.
            last_ckpt: (u64::MAX, 0, 0, 0),
            ..Default::default()
        }
    }

    fn sig(&self) -> (u64, u64, u64, u64) {
        (self.cursor, self.accepted, self.duplicates, self.skipped)
    }

    fn stats(&self) -> BucketStats {
        BucketStats {
            base: self.base,
            next_index: self.cursor,
            accepted: self.accepted,
            duplicates: self.duplicates,
            skipped: self.skipped,
            legal: self.legal,
            topologies: self.topos.values().map(|g| g.len() as u64).sum(),
            distinct_complexities: self.meter.distinct() as u64,
            diversity: self.meter.diversity(),
            updated: self.updated.clone(),
        }
    }
}

struct CkptBucket {
    method: String,
    ruleset: String,
    base: u64,
    cursor: u64,
    accepted: u64,
    duplicates: u64,
    skipped: u64,
    legal: u64,
    updated: String,
}

struct Checkpoint {
    segments: Vec<u64>,
    buckets: Vec<CkptBucket>,
}

/// A read-only view of a pattern library on disk.
///
/// Opening scans every segment, validates checksums, truncates torn
/// tails (in the last segment only), rebuilds the content-addressed
/// index and the diversity accounting, and cross-checks the checkpoint.
/// The index is rebuildable from segments alone: a missing checkpoint
/// only costs the dedup/skip events that happened after the last
/// accepted record (which a resumed build replays deterministically).
pub struct Library {
    dir: PathBuf,
    segments: Vec<u64>,
    files: Vec<File>,
    buckets: BTreeMap<(String, String), BucketState>,
}

impl std::fmt::Debug for Library {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Library")
            .field("dir", &self.dir)
            .field("segments", &self.segments)
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

fn corrupt(detail: String) -> LibraryError {
    LibraryError::Corrupt { detail }
}

fn data_loss(detail: String) -> LibraryError {
    LibraryError::DataLoss { detail }
}

fn segment_name(i: usize) -> String {
    format!("seg-{i:06}.dpl")
}

fn pread_exact(file: &File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, offset)
    }
    #[cfg(windows)]
    {
        use std::os::windows::fs::FileExt;
        let mut done = 0;
        while done < buf.len() {
            let n = file.seek_read(&mut buf[done..], offset + done as u64)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            done += n;
        }
        Ok(())
    }
}

fn pwrite_all(file: &File, offset: u64, buf: &[u8]) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.write_all_at(buf, offset)
    }
    #[cfg(windows)]
    {
        use std::os::windows::fs::FileExt;
        let mut done = 0;
        while done < buf.len() {
            done += file.seek_write(&buf[done..], offset + done as u64)?;
        }
        Ok(())
    }
}

fn read_record(
    files: &[File],
    r: &RecordRef,
    scratch: &mut Vec<u8>,
) -> Result<Record, LibraryError> {
    let file = files
        .get(r.seg as usize)
        .ok_or_else(|| corrupt(format!("record reference to unknown segment {}", r.seg)))?;
    scratch.resize(r.len as usize, 0);
    pread_exact(file, r.offset, scratch)?;
    if crc32(scratch) != r.crc {
        return Err(corrupt(format!(
            "segment {} offset {}: payload no longer matches its checksum",
            r.seg, r.offset
        )));
    }
    Record::decode(scratch)
}

impl Library {
    /// Opens a library read-only. Fails with [`LibraryError::Invalid`]
    /// when `dir` does not hold a library.
    pub fn open(dir: impl AsRef<Path>) -> Result<Library, LibraryError> {
        let dir = dir.as_ref().to_path_buf();
        if !dir.join("segments").is_dir() {
            return Err(LibraryError::Invalid {
                detail: format!("{} is not a pattern library (no segments/)", dir.display()),
            });
        }
        let (lib, _) = load_state(dir)?;
        Ok(lib)
    }

    /// The library's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// All `(method, ruleset)` buckets, in sorted order.
    pub fn buckets(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.buckets.keys().map(|(m, r)| (m.as_str(), r.as_str()))
    }

    /// Snapshot of one bucket's accounting.
    pub fn stats(&self, method: &str, ruleset: &str) -> Option<BucketStats> {
        self.bucket(method, ruleset).map(BucketState::stats)
    }

    /// The complexity histogram of one bucket — the very
    /// [`PatternLibrary`] type the table1 harness aggregates into, so
    /// its `diversity()` is the paper's Definition 1 verbatim.
    pub fn histogram(&self, method: &str, ruleset: &str) -> Option<&PatternLibrary> {
        self.bucket(method, ruleset).map(|b| b.meter.histogram())
    }

    /// One bucket's records in ascending `source_index` order.
    pub fn records(&self, method: &str, ruleset: &str) -> Option<&[RecordRef]> {
        self.bucket(method, ruleset).map(|b| b.order.as_slice())
    }

    /// Reads one record back, verifying its checksum. `scratch` is the
    /// caller-provided read buffer, reused across calls so a scan over
    /// the library allocates nothing per record beyond the decode.
    pub fn read(&self, r: &RecordRef, scratch: &mut Vec<u8>) -> Result<Record, LibraryError> {
        read_record(&self.files, r, scratch)
    }

    /// Total stored records across all buckets.
    pub fn len(&self) -> u64 {
        self.buckets.values().map(|b| b.accepted).sum()
    }

    /// `true` when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of segment files.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Order-sensitive fingerprint of the full record set (bucket names,
    /// source indices, payload lengths and checksums, in canonical
    /// order). Two libraries with equal content hash and equal stats are
    /// content-identical for the durability contract's purposes.
    pub fn content_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for ((m, r), b) in &self.buckets {
            h = fnv1a(h, m.as_bytes());
            h = fnv1a(h, &[0]);
            h = fnv1a(h, r.as_bytes());
            h = fnv1a(h, &[0]);
            for rr in &b.order {
                h = fnv1a(h, &rr.source_index.to_le_bytes());
                h = fnv1a(h, &rr.len.to_le_bytes());
                h = fnv1a(h, &rr.crc.to_le_bytes());
            }
        }
        h
    }

    /// Rows for the results matrix, one per bucket.
    pub fn matrix_rows(&self) -> Vec<MatrixRow> {
        self.buckets
            .iter()
            .map(|((m, r), b)| {
                let s = b.stats();
                MatrixRow {
                    method: m.clone(),
                    ruleset: r.clone(),
                    updated: if s.updated.is_empty() {
                        "(uncheckpointed)".to_string()
                    } else {
                        s.updated.clone()
                    },
                    patterns: s.accepted,
                    topologies: s.topologies,
                    duplicates: s.duplicates,
                    skipped: s.skipped,
                    diversity: s.diversity,
                    legality: if s.accepted == 0 {
                        1.0
                    } else {
                        s.legal as f64 / s.accepted as f64
                    },
                }
            })
            .collect()
    }

    fn bucket(&self, method: &str, ruleset: &str) -> Option<&BucketState> {
        // BTreeMap<(String, String)> cannot be probed with (&str, &str);
        // a linear walk is fine at bucket counts (methods × rulesets).
        self.buckets
            .iter()
            .find(|((m, r), _)| m.as_str() == method && r.as_str() == ruleset)
            .map(|(_, b)| b)
    }
}

struct RefLoc {
    seg: u32,
    offset: u64,
    len: u32,
    crc: u32,
}

/// Folds one scanned record into the in-memory state, validating stream
/// continuity: each record's `source_index` must equal the bucket
/// cursor plus the dedup/skip events it attaches.
fn apply_record(
    buckets: &mut BTreeMap<(String, String), BucketState>,
    rec: Record,
    loc: RefLoc,
) -> Result<(), LibraryError> {
    let gap = rec.dups_since_prev as u64 + rec.skips_since_prev as u64;
    if rec.source_index < gap {
        return Err(corrupt(format!(
            "bucket {}/{}: record at index {} claims {} prior events",
            rec.method, rec.ruleset, rec.source_index, gap
        )));
    }
    let key = (rec.method.clone(), rec.ruleset.clone());
    let b = buckets
        .entry(key)
        .or_insert_with(|| BucketState::new_at(rec.source_index - gap));
    if rec.source_index != b.cursor + gap {
        return Err(corrupt(format!(
            "bucket {}/{}: record index {} breaks stream continuity (expected {})",
            rec.method,
            rec.ruleset,
            rec.source_index,
            b.cursor + gap
        )));
    }
    b.duplicates += rec.dups_since_prev as u64;
    b.skipped += rec.skips_since_prev as u64;
    b.dup_delta_total += rec.dups_since_prev as u64;
    b.skip_delta_total += rec.skips_since_prev as u64;
    b.accepted += 1;
    if rec.legal {
        b.legal += 1;
    }
    b.cursor = rec.source_index + 1;
    b.meter
        .add(rec.complexity.0 as usize, rec.complexity.1 as usize);
    let rr = RecordRef {
        seg: loc.seg,
        offset: loc.offset,
        len: loc.len,
        crc: loc.crc,
        variant_hash: variant_hash(rec.pattern.dx(), rec.pattern.dy()),
        source_index: rec.source_index,
        legal: rec.legal,
        complexity: rec.complexity,
    };
    b.order.push(rr);
    // Records were deduplicated at ingest by byte comparison, so within
    // one bucket a topology hash almost surely names one topology; a
    // colliding distinct topology landing in the same group is harmless
    // because every dedup probe re-verifies bytes before dropping.
    let groups = b
        .topos
        .entry(topology_hash(rec.pattern.topology()))
        .or_default();
    if let Some(g) = groups.first_mut() {
        g.refs.push(rr);
    } else {
        groups.push(TopoGroup { refs: vec![rr] });
    }
    Ok(())
}

/// Scans `dir`, returning the loaded library plus the valid byte length
/// of the last segment (what a writer must truncate to; `0` means the
/// segment header itself was torn and must be rewritten).
fn load_state(dir: PathBuf) -> Result<(Library, u64), LibraryError> {
    let seg_dir = dir.join("segments");
    let mut indices = Vec::new();
    for entry in std::fs::read_dir(&seg_dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        let Some(num) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".dpl"))
        else {
            continue;
        };
        let i: usize = num
            .parse()
            .map_err(|_| corrupt(format!("unparseable segment name {name}")))?;
        indices.push(i);
    }
    indices.sort_unstable();
    for (want, &got) in indices.iter().enumerate() {
        if want != got {
            return Err(corrupt(format!(
                "segment chain has a gap: expected {}, found {}",
                segment_name(want),
                segment_name(got)
            )));
        }
    }
    let ckpt = read_checkpoint(&dir)?;
    if let Some(ck) = &ckpt {
        if ck.segments.len() > indices.len() {
            return Err(data_loss(format!(
                "checkpoint lists {} segments but only {} exist",
                ck.segments.len(),
                indices.len()
            )));
        }
    }

    let mut segments = Vec::with_capacity(indices.len());
    let mut files = Vec::with_capacity(indices.len());
    let mut buckets: BTreeMap<(String, String), BucketState> = BTreeMap::new();
    let last = indices.len().saturating_sub(1);
    for &i in &indices {
        let path = seg_dir.join(segment_name(i));
        let bytes = std::fs::read(&path)?;
        let committed = ckpt
            .as_ref()
            .and_then(|c| c.segments.get(i))
            .copied()
            .unwrap_or(0);
        let is_last = i == last;
        let valid;
        if bytes.len() < SEG_MAGIC.len() || &bytes[..SEG_MAGIC.len()] != SEG_MAGIC {
            if committed > 0 {
                return Err(data_loss(format!(
                    "{}: committed header damaged",
                    path.display()
                )));
            }
            if !is_last || bytes.len() >= SEG_MAGIC.len() {
                return Err(corrupt(format!("{}: bad segment magic", path.display())));
            }
            // A crash between create and header write: recover as empty.
            valid = 0;
        } else {
            let mut offset = SEG_MAGIC.len();
            loop {
                match scan_frame(&bytes, offset) {
                    FrameScan::End => {
                        valid = offset;
                        break;
                    }
                    FrameScan::Valid { payload, crc, next } => {
                        match Record::decode(&bytes[payload.clone()]) {
                            Ok(rec) => {
                                apply_record(
                                    &mut buckets,
                                    rec,
                                    RefLoc {
                                        seg: i as u32,
                                        offset: payload.start as u64,
                                        len: payload.len() as u32,
                                        crc,
                                    },
                                )?;
                                offset = next;
                            }
                            Err(e) if (offset as u64) < committed => {
                                return Err(data_loss(format!(
                                    "{} offset {offset}: committed record undecodable: {e}",
                                    path.display()
                                )))
                            }
                            Err(_) if is_last => {
                                // Checksummed but undecodable uncommitted
                                // tail: treat like a torn frame.
                                valid = offset;
                                break;
                            }
                            Err(e) => {
                                return Err(corrupt(format!(
                                    "{} offset {offset}: sealed record undecodable: {e}",
                                    path.display()
                                )))
                            }
                        }
                    }
                    FrameScan::Invalid { reason } => {
                        if (offset as u64) < committed {
                            return Err(data_loss(format!(
                                "{} offset {offset}: committed bytes damaged: {reason}",
                                path.display()
                            )));
                        }
                        if !is_last {
                            return Err(corrupt(format!(
                                "{} offset {offset}: sealed segment has a torn tail: {reason}",
                                path.display()
                            )));
                        }
                        valid = offset;
                        break;
                    }
                }
            }
            if (valid as u64) < committed {
                return Err(data_loss(format!(
                    "{}: valid prefix {} is shorter than committed length {}",
                    path.display(),
                    valid,
                    committed
                )));
            }
        }
        segments.push(valid as u64);
        files.push(File::open(&path)?);
    }

    // Fold in the checkpoint: counters it saw that no record carries
    // (dedup/skip events after the last accepted record of a bucket).
    if let Some(ck) = &ckpt {
        for cb in &ck.buckets {
            let key = (cb.method.clone(), cb.ruleset.clone());
            let b = buckets
                .entry(key)
                .or_insert_with(|| BucketState::new_at(cb.base));
            if cb.accepted > b.accepted {
                return Err(data_loss(format!(
                    "bucket {}/{}: checkpoint committed {} records but only {} survive",
                    cb.method, cb.ruleset, cb.accepted, b.accepted
                )));
            }
            if cb.accepted == b.accepted && cb.legal != b.legal {
                return Err(corrupt(format!(
                    "bucket {}/{}: records count {} legal patterns but checkpoint says {}",
                    cb.method, cb.ruleset, b.legal, cb.legal
                )));
            }
            if b.accepted > 0 && b.base != cb.base {
                return Err(corrupt(format!(
                    "bucket {}/{}: records imply base {} but checkpoint says {}",
                    cb.method, cb.ruleset, b.base, cb.base
                )));
            }
            b.base = cb.base;
            b.cursor = b.cursor.max(cb.cursor);
            b.duplicates = b.duplicates.max(cb.duplicates);
            b.skipped = b.skipped.max(cb.skipped);
            b.updated = cb.updated.clone();
            b.last_ckpt = b.sig();
        }
    }
    // Tail events (between the last record and the cursor) have no
    // record of their own; re-arm the pending counters so the *next*
    // accepted record's deltas keep Σ deltas + pending == totals.
    for b in buckets.values_mut() {
        b.pending_dups = b.duplicates - b.dup_delta_total;
        b.pending_skips = b.skipped - b.skip_delta_total;
        let counted = b.order.last().map(|r| r.source_index + 1).unwrap_or(b.base);
        debug_assert_eq!(b.pending_dups + b.pending_skips, b.cursor - counted);
    }

    let last_valid = segments.last().copied().unwrap_or(0);
    let lib = Library {
        dir,
        segments,
        files,
        buckets,
    };
    Ok((lib, last_valid))
}

fn read_checkpoint(dir: &Path) -> Result<Option<Checkpoint>, LibraryError> {
    let path = dir.join("checkpoint.dpl");
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < 8 || &bytes[..8] != CKPT_MAGIC {
        return Err(corrupt("checkpoint file has bad magic".to_string()));
    }
    let payload = match scan_frame(&bytes, 8) {
        FrameScan::Valid { payload, next, .. } => {
            if next != bytes.len() {
                return Err(corrupt("checkpoint has trailing bytes".to_string()));
            }
            &bytes[payload]
        }
        _ => return Err(corrupt("checkpoint frame damaged".to_string())),
    };
    parse_checkpoint(payload).map(Some)
}

fn parse_checkpoint(p: &[u8]) -> Result<Checkpoint, LibraryError> {
    let mut r = Cursor::new(p);
    if r.u8()? != CKPT_VERSION {
        return Err(corrupt("unknown checkpoint version".to_string()));
    }
    let nseg = r.u32()? as usize;
    let mut segments = Vec::with_capacity(nseg);
    for _ in 0..nseg {
        segments.push(r.u64()?);
    }
    let nb = r.u32()? as usize;
    let mut bucket_entries = Vec::with_capacity(nb);
    for _ in 0..nb {
        bucket_entries.push(CkptBucket {
            method: r.label()?,
            ruleset: r.label()?,
            base: r.u64()?,
            cursor: r.u64()?,
            accepted: r.u64()?,
            duplicates: r.u64()?,
            skipped: r.u64()?,
            legal: r.u64()?,
            updated: r.label()?,
        });
    }
    r.finish()?;
    Ok(Checkpoint {
        segments,
        buckets: bucket_entries,
    })
}

fn encode_checkpoint(
    segments: &[u64],
    buckets: &BTreeMap<(String, String), BucketState>,
) -> Vec<u8> {
    let mut p = Vec::new();
    p.push(CKPT_VERSION);
    p.extend_from_slice(&(segments.len() as u32).to_le_bytes());
    for &len in segments {
        p.extend_from_slice(&len.to_le_bytes());
    }
    p.extend_from_slice(&(buckets.len() as u32).to_le_bytes());
    for ((m, r), b) in buckets {
        for label in [m.as_str(), r.as_str()] {
            p.push(label.len() as u8);
            p.extend_from_slice(label.as_bytes());
        }
        for v in [
            b.base,
            b.cursor,
            b.accepted,
            b.duplicates,
            b.skipped,
            b.legal,
        ] {
            p.extend_from_slice(&v.to_le_bytes());
        }
        p.push(b.updated.len() as u8);
        p.extend_from_slice(b.updated.as_bytes());
    }
    let mut out = Vec::with_capacity(16 + p.len());
    out.extend_from_slice(CKPT_MAGIC);
    out.extend_from_slice(&(p.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&p).to_le_bytes());
    out.extend_from_slice(&p);
    out
}

/// An append handle over a [`Library`].
///
/// Ingest order per bucket is strictly ascending `source_index` — that
/// is what makes first-occurrence-wins dedup, and therefore the whole
/// store, deterministic under resume and shard-merge.
pub struct LibraryWriter {
    lib: Library,
    active: File,
    config: LibraryConfig,
    totals: WriterTotals,
    scratch: Vec<u8>,
}

impl std::fmt::Debug for LibraryWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LibraryWriter")
            .field("lib", &self.lib)
            .field("totals", &self.totals)
            .finish()
    }
}

impl LibraryWriter {
    /// Opens a library for appending, creating it if absent, resuming
    /// (with torn-tail truncation) if present.
    pub fn open(dir: impl AsRef<Path>, config: LibraryConfig) -> Result<Self, LibraryError> {
        let dir = dir.as_ref().to_path_buf();
        let seg_dir = dir.join("segments");
        std::fs::create_dir_all(&seg_dir)?;
        if std::fs::read_dir(&seg_dir)?.next().is_none() {
            let mut f = File::create(seg_dir.join(segment_name(0)))?;
            f.write_all(SEG_MAGIC)?;
            f.sync_all()?;
        }
        let (lib, valid) = load_state(dir)?;
        let last = lib.segments.len() - 1;
        let path = lib.dir.join("segments").join(segment_name(last));
        let active = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut writer = LibraryWriter {
            lib,
            active,
            config,
            totals: WriterTotals::default(),
            scratch: Vec::new(),
        };
        if valid == 0 {
            // Torn segment header: rewrite it.
            writer.active.set_len(0)?;
            pwrite_all(&writer.active, 0, SEG_MAGIC)?;
            *writer.lib.segments.last_mut().unwrap() = SEG_MAGIC.len() as u64;
        } else {
            writer.active.set_len(valid)?;
        }
        Ok(writer)
    }

    /// Like [`LibraryWriter::open`] but fails if a library already
    /// exists at `dir` (used by `merge`, whose output must be fresh).
    pub fn create_new(dir: impl AsRef<Path>, config: LibraryConfig) -> Result<Self, LibraryError> {
        let dir = dir.as_ref();
        if dir.join("segments").is_dir() || dir.join("checkpoint.dpl").exists() {
            return Err(LibraryError::Invalid {
                detail: format!("{} already holds a library", dir.display()),
            });
        }
        Self::open(dir, config)
    }

    /// Read-only view of the store being written. Reflects everything
    /// appended so far (appends are write-through).
    pub fn library(&self) -> &Library {
        &self.lib
    }

    /// Lifetime-of-this-writer counters for `/metrics`.
    pub fn totals(&self) -> WriterTotals {
        self.totals
    }

    /// Ensures a bucket exists with the given base index and returns its
    /// resume cursor (the next source index it expects). Fails if the
    /// bucket exists with a different base — shards must agree on their
    /// index ranges.
    pub fn open_bucket(
        &mut self,
        method: &str,
        ruleset: &str,
        base: u64,
    ) -> Result<u64, LibraryError> {
        let key = (method.to_string(), ruleset.to_string());
        let b = self
            .lib
            .buckets
            .entry(key)
            .or_insert_with(|| BucketState::new_at(base));
        if b.base != base {
            return Err(LibraryError::Invalid {
                detail: format!(
                    "bucket {method}/{ruleset} exists with base {}, requested {base}",
                    b.base
                ),
            });
        }
        Ok(b.cursor)
    }

    /// The next source index a bucket expects, if it exists.
    pub fn next_index(&self, method: &str, ruleset: &str) -> Option<u64> {
        self.lib.bucket(method, ruleset).map(|b| b.cursor)
    }

    /// Ingests one pattern at `source_index` (which must equal the
    /// bucket's cursor). Duplicates — byte-identical topology *and*
    /// Δ vectors, verified by read-back, never by hash alone — are
    /// dropped and counted. Creates the bucket (based at
    /// `source_index`) on first use.
    pub fn ingest(
        &mut self,
        method: &str,
        ruleset: &str,
        source_index: u64,
        pattern: &SquishPattern,
        legal: bool,
    ) -> Result<IngestOutcome, LibraryError> {
        let key = (method.to_string(), ruleset.to_string());
        if !self.lib.buckets.contains_key(&key) {
            self.lib
                .buckets
                .insert(key.clone(), BucketState::new_at(source_index));
        }
        let th = topology_hash(pattern.topology());
        let vh = variant_hash(pattern.dx(), pattern.dy());

        // Split-borrow: dedup probes read records (files) while the
        // bucket (buckets) is held mutably.
        let scratch = &mut self.scratch;
        let Library { buckets, files, .. } = &mut self.lib;
        let b = buckets.get_mut(&key).unwrap();
        if source_index != b.cursor {
            return Err(LibraryError::OutOfOrder {
                method: method.to_string(),
                ruleset: ruleset.to_string(),
                expected: b.cursor,
                got: source_index,
            });
        }
        let mut group_index = None;
        if let Some(groups) = b.topos.get(&th) {
            'groups: for (gi, g) in groups.iter().enumerate() {
                let rep = read_record(files, &g.refs[0], scratch)?;
                if rep.pattern.topology() != pattern.topology() {
                    continue; // topology-hash collision: different shape
                }
                for r in &g.refs {
                    if r.variant_hash == vh {
                        let cand = if r.offset == g.refs[0].offset && r.seg == g.refs[0].seg {
                            rep.clone()
                        } else {
                            read_record(files, r, scratch)?
                        };
                        if cand.pattern == *pattern {
                            b.duplicates += 1;
                            b.pending_dups += 1;
                            b.cursor += 1;
                            self.totals.duplicates += 1;
                            return Ok(IngestOutcome::Duplicate);
                        }
                    }
                }
                group_index = Some(gi);
                break 'groups;
            }
        }

        let (cx, cy) = complexity_of_grid(pattern.topology());
        let to_u16 = |v: usize| {
            u16::try_from(v).map_err(|_| LibraryError::Invalid {
                detail: "complexity out of u16 range".to_string(),
            })
        };
        let complexity = (to_u16(cx)?, to_u16(cy)?);
        let to_u32 = |v: u64, what: &str| {
            u32::try_from(v).map_err(|_| LibraryError::Invalid {
                detail: format!("more than u32::MAX {what} between records"),
            })
        };
        let dups32 = to_u32(b.pending_dups, "duplicates")?;
        let skips32 = to_u32(b.pending_skips, "skips")?;
        let record = Record {
            method: method.to_string(),
            ruleset: ruleset.to_string(),
            source_index,
            dups_since_prev: dups32,
            skips_since_prev: skips32,
            legal,
            complexity,
            pattern: pattern.clone(),
        };
        let frame = record.frame()?;
        let payload_crc = crc32(&frame[8..]);
        let seg = (self.lib.segments.len() - 1) as u32;
        let offset = *self.lib.segments.last().unwrap();
        pwrite_all(&self.active, offset, &frame)?;
        *self.lib.segments.last_mut().unwrap() = offset + frame.len() as u64;
        self.totals.bytes_written += frame.len() as u64;
        self.totals.accepted += 1;

        let b = self.lib.buckets.get_mut(&key).unwrap();
        let rr = RecordRef {
            seg,
            offset: offset + 8,
            len: (frame.len() - 8) as u32,
            crc: payload_crc,
            variant_hash: vh,
            source_index,
            legal,
            complexity,
        };
        b.accepted += 1;
        if legal {
            b.legal += 1;
        }
        b.dup_delta_total += dups32 as u64;
        b.skip_delta_total += skips32 as u64;
        b.pending_dups = 0;
        b.pending_skips = 0;
        b.cursor += 1;
        b.meter.add(cx, cy);
        b.order.push(rr);
        let groups = b.topos.entry(th).or_default();
        let outcome = match group_index {
            Some(gi) => {
                groups[gi].refs.push(rr);
                IngestOutcome::NewVariant
            }
            None => {
                groups.push(TopoGroup { refs: vec![rr] });
                IngestOutcome::NewTopology
            }
        };
        if *self.lib.segments.last().unwrap() >= self.config.segment_bytes {
            self.seal()?;
        }
        Ok(outcome)
    }

    /// Convenience for arrival-ordered feeds (the network server): the
    /// bucket cursor itself is the source index.
    pub fn ingest_arrival(
        &mut self,
        method: &str,
        ruleset: &str,
        pattern: &SquishPattern,
        legal: bool,
    ) -> Result<IngestOutcome, LibraryError> {
        let at = self.next_index(method, ruleset).unwrap_or(0);
        self.ingest(method, ruleset, at, pattern, legal)
    }

    /// Records that the bucket's cursor index produced no pattern
    /// (generator shortfall). The bucket must exist.
    pub fn record_skip(&mut self, method: &str, ruleset: &str) -> Result<(), LibraryError> {
        let b = self.bucket_mut(method, ruleset)?;
        b.skipped += 1;
        b.pending_skips += 1;
        b.cursor += 1;
        Ok(())
    }

    /// Replays `dups` duplicate events and `skips` skip events without
    /// content — the merge path's way of carrying a shard's accounting
    /// for items whose bytes were (correctly) never stored.
    pub fn replay_gap(
        &mut self,
        method: &str,
        ruleset: &str,
        dups: u64,
        skips: u64,
    ) -> Result<(), LibraryError> {
        let b = self.bucket_mut(method, ruleset)?;
        b.duplicates += dups;
        b.pending_dups += dups;
        b.skipped += skips;
        b.pending_skips += skips;
        b.cursor += dups + skips;
        Ok(())
    }

    /// Forces a durability point: fsync the active segment, stamp and
    /// persist the checkpoint (tmp + rename + dir sync), regenerate
    /// `results.md`.
    pub fn checkpoint(&mut self) -> Result<(), LibraryError> {
        self.active.sync_all()?;
        let now = match &self.config.timestamp_override {
            Some(t) => t.clone(),
            None => {
                // dp-lint: allow(nondeterministic-time): checkpoint timestamps are metadata; tests pin bytes via timestamp_override
                let secs = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0);
                format_utc_timestamp(secs)
            }
        };
        for b in self.lib.buckets.values_mut() {
            if b.sig() != b.last_ckpt {
                b.updated = now.clone();
                b.last_ckpt = b.sig();
            }
        }
        let bytes = encode_checkpoint(&self.lib.segments, &self.lib.buckets);
        let tmp = self.lib.dir.join("checkpoint.tmp");
        let path = self.lib.dir.join("checkpoint.dpl");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        if let Ok(d) = File::open(&self.lib.dir) {
            let _ = d.sync_all();
        }
        write_matrix(&self.lib.dir, &self.lib.matrix_rows())?;
        Ok(())
    }

    /// Seals the active segment (checkpointing first, so its final
    /// length is committed) and opens the next one.
    fn seal(&mut self) -> Result<(), LibraryError> {
        self.checkpoint()?;
        let next = self.lib.segments.len();
        let path = self.lib.dir.join("segments").join(segment_name(next));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        pwrite_all(&file, 0, SEG_MAGIC)?;
        self.lib.files.push(file.try_clone()?);
        self.active = file;
        self.lib.segments.push(SEG_MAGIC.len() as u64);
        Ok(())
    }

    /// Final durability point; consumes the writer and returns the
    /// read-only library.
    pub fn finish(mut self) -> Result<Library, LibraryError> {
        self.checkpoint()?;
        Ok(self.lib)
    }

    fn bucket_mut(
        &mut self,
        method: &str,
        ruleset: &str,
    ) -> Result<&mut BucketState, LibraryError> {
        self.lib
            .buckets
            .iter_mut()
            .find(|((m, r), _)| m.as_str() == method && r.as_str() == ruleset)
            .map(|(_, b)| b)
            .ok_or_else(|| LibraryError::Invalid {
                detail: format!("bucket {method}/{ruleset} does not exist"),
            })
    }
}

/// Merges `shards` into a fresh library at `out`. Per bucket, shard
/// record streams are re-ingested in ascending global source order with
/// full dedup, and each shard's recordless accounting (duplicates,
/// skips) is replayed, so merging seed-space shards reproduces the
/// single-process library — same record set, same counters, same
/// entropy. Shard index ranges must tile without overlap.
pub fn merge_libraries(
    out: impl AsRef<Path>,
    shards: &[Library],
    config: LibraryConfig,
) -> Result<Library, LibraryError> {
    let mut writer = LibraryWriter::create_new(out, config)?;
    let mut keys: Vec<(String, String)> = Vec::new();
    for s in shards {
        for (m, r) in s.buckets() {
            let k = (m.to_string(), r.to_string());
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
    }
    keys.sort();
    let mut scratch = Vec::new();
    for (m, r) in &keys {
        let mut parts: Vec<(&Library, BucketStats)> = shards
            .iter()
            .filter_map(|s| s.stats(m, r).map(|st| (s, st)))
            .collect();
        parts.sort_by_key(|(_, st)| st.base);
        for window in parts.windows(2) {
            if window[1].1.base < window[0].1.next_index {
                return Err(LibraryError::Invalid {
                    detail: format!(
                        "bucket {m}/{r}: shard ranges overlap ({}..{} vs {}..)",
                        window[0].1.base, window[0].1.next_index, window[1].1.base
                    ),
                });
            }
        }
        writer.open_bucket(m, r, parts.first().map(|(_, st)| st.base).unwrap_or(0))?;
        for (shard, st) in parts {
            let refs = shard.records(m, r).unwrap_or(&[]);
            let (mut rec_dups, mut rec_skips) = (0u64, 0u64);
            for rr in refs {
                let rec = shard.read(rr, &mut scratch)?;
                rec_dups += rec.dups_since_prev as u64;
                rec_skips += rec.skips_since_prev as u64;
                writer.replay_gap(
                    m,
                    r,
                    rec.dups_since_prev as u64,
                    rec.skips_since_prev as u64,
                )?;
                writer.ingest(m, r, rec.source_index, &rec.pattern, rec.legal)?;
            }
            // The shard's tail: events after its last record, durable
            // only through its checkpoint totals.
            let tail_dups = st.duplicates.checked_sub(rec_dups).ok_or_else(|| {
                corrupt(format!("bucket {m}/{r}: shard deltas exceed its totals"))
            })?;
            let tail_skips = st.skipped.checked_sub(rec_skips).ok_or_else(|| {
                corrupt(format!("bucket {m}/{r}: shard deltas exceed its totals"))
            })?;
            writer.replay_gap(m, r, tail_dups, tail_skips)?;
        }
    }
    writer.finish()
}
