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
//! * **Streaming dedup** — exact topology-level and Δ-variant-level
//!   dedup at ingest, always confirmed by byte comparison (hashes only
//!   prune candidates, they never decide).
//! * **Diversity accounting** — a per-bucket complexity histogram
//!   updated at every ingest, whose Shannon entropy is computed by the
//!   same code as the one-shot table1 figure (so bit-for-bit identical
//!   to it), with a timestamped `results.md`-style matrix regenerated at
//!   every checkpoint.
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
pub mod diversity;
pub mod error;
pub mod matrix;
pub mod store;

pub use codec::{crc32, scan_frame, topology_hash, variant_hash, FrameScan, Record};
pub use diversity::DiversityMeter;
pub use error::LibraryError;
pub use matrix::{format_utc_timestamp, render_matrix, write_matrix, MatrixRow};
pub use store::{
    merge_libraries, BucketStats, IngestOutcome, Library, LibraryConfig, LibraryWriter, RecordRef,
    WriterTotals,
};
