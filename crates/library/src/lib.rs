//! `dp_library` — a durable, append-only, content-addressed store for
//! squish pattern libraries.
//!
//! The DiffPattern pipeline (DAC 2023) ends in a *library*: the
//! deduplicated, DRC-legal pattern set whose complexity-distribution
//! entropy is the paper's diversity metric (Definition 1). Earlier
//! layers of this repo built libraries in memory and threw them away;
//! this crate makes the library a first-class on-disk artifact:
//!
//! * **Content-addressed segments** — append-only segment files of
//!   length-prefixed, CRC-checksummed records, keyed by topology hash;
//!   each topology bucket holds its legal Δ-variants. Reads are
//!   zero-copy-in-spirit buffered positional reads; the index is
//!   rebuildable from segments alone.
//! * **Streaming dedup** — a pattern is dropped only when a stored
//!   record with the same topology and Δ hashes is byte-identical to it
//!   (hashes only prune candidates, they never decide).
//! * **Diversity accounting** — each bucket keeps a
//!   [`dp_datagen::PatternLibrary`] complexity histogram, updated at
//!   every ingest, so its Shannon entropy is the one-shot table1 figure
//!   bit for bit; a timestamped `results.md`-style matrix is regenerated
//!   at every checkpoint. Ingest and open count a record through the
//!   same code, so a reopened store reports the writer's counters.
//! * **Checkpoint/resume** — [`LibraryWriter`] commits durably at
//!   segment boundaries; a killed build resumes from the last
//!   checkpoint and converges to a library content-identical to an
//!   uninterrupted run. Torn tail records are detected by checksum and
//!   safely discarded; loss of *committed* bytes is a hard
//!   [`LibraryError::DataLoss`].
//!
//! [`merge_libraries`] combines seed-space shard libraries
//! deterministically into the same store a single process would have
//! produced.

pub mod codec;
pub mod error;
pub mod matrix;
pub mod store;

pub use codec::{crc32, scan_frame, topology_hash, variant_hash, FrameScan, Record};
/// The per-bucket complexity histogram under its earlier name in this
/// crate; new code names [`dp_datagen::PatternLibrary`] directly.
pub use dp_datagen::PatternLibrary as DiversityMeter;
pub use error::LibraryError;
pub use matrix::{format_utc_timestamp, render_matrix, write_matrix, MatrixRow};
pub use store::{
    merge_libraries, BucketStats, IngestOutcome, Library, LibraryConfig, LibraryWriter, RecordRef,
    WriterTotals,
};
