//! Draining a [`RequestHandle`] stream into a durable pattern library.
//!
//! [`PatternService`](crate::PatternService) streams items in
//! *completion* order, while [`dp_library::LibraryWriter`] requires
//! *ascending source-index* order per bucket (that is what makes
//! first-occurrence-wins dedup deterministic under resume and merge).
//! [`LibrarySink`] bridges the two with a reorder buffer: items are
//! held until their index is next, shortfall indices (slots the
//! generator never delivered) are recorded as skips once the stream
//! ends, and every delivered pattern lands in the store at its absolute
//! index `first_index + Provenance::index`.
//!
//! The sink never checkpoints — callers decide their durability points
//! (typically [`dp_library::LibraryWriter::checkpoint`] periodically
//! and `finish` at the end), which keeps a simulated kill in tests and
//! the `dpgen library build --stop-after` path honest: dropping
//! mid-drain loses exactly the uncommitted tail, nothing else.

use crate::service::{Generated, RequestHandle};
use dp_library::{IngestOutcome, LibraryError, LibraryWriter};
use std::collections::BTreeMap;

/// What a drain did, with running totals (also passed to the observer
/// after every slot, delivered or skipped).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkReport {
    /// Patterns stored (new topologies + new variants).
    pub accepted: u64,
    /// Byte-identical patterns dropped and counted by the store.
    pub duplicates: u64,
    /// Slots the generator never delivered, recorded as skips.
    pub skipped: u64,
    /// The bucket's next source index after the drain.
    pub next_index: u64,
}

/// Error draining a request stream into a library.
#[derive(Debug)]
#[non_exhaustive]
pub enum SinkError {
    /// The store rejected or failed an ingest.
    Library(LibraryError),
    /// The generation request itself failed.
    Generate {
        /// Rendered [`crate::GenerateError`].
        detail: String,
    },
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkError::Library(e) => write!(f, "library sink: {e}"),
            SinkError::Generate { detail } => write!(f, "library sink: request failed: {detail}"),
        }
    }
}

impl std::error::Error for SinkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SinkError::Library(e) => Some(e),
            SinkError::Generate { .. } => None,
        }
    }
}

impl From<LibraryError> for SinkError {
    fn from(e: LibraryError) -> Self {
        SinkError::Library(e)
    }
}

/// Index-ordered ingest of request streams into one library bucket.
pub struct LibrarySink<'a> {
    writer: &'a mut LibraryWriter,
    method: String,
    ruleset: String,
}

impl std::fmt::Debug for LibrarySink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LibrarySink")
            .field("method", &self.method)
            .field("ruleset", &self.ruleset)
            .finish()
    }
}

impl<'a> LibrarySink<'a> {
    /// A sink feeding the `(method, ruleset)` bucket of `writer`.
    pub fn new(writer: &'a mut LibraryWriter, method: &str, ruleset: &str) -> Self {
        LibrarySink {
            writer,
            method: method.to_string(),
            ruleset: ruleset.to_string(),
        }
    }

    /// Drains a request stream into the bucket. `first_index` must be
    /// the spec's [`crate::RequestSpec::first_index`], which must in
    /// turn equal the bucket's cursor
    /// ([`dp_library::LibraryWriter::open_bucket`] returns it) — the
    /// store rejects anything else as out-of-order.
    ///
    /// Patterns from the service are DRC-clean by construction, so they
    /// are stored with `legal = true`.
    pub fn drain(&mut self, handle: RequestHandle) -> Result<SinkReport, SinkError> {
        self.drain_with(handle, |_| {})
    }

    /// Like [`LibrarySink::drain`], with an observer called after every
    /// settled slot (accept, dedup, or skip) with the running totals —
    /// the hook `dpgen library build --stop-after` uses to die at an
    /// exact point, and `dpserve` uses to bump its metrics counters.
    pub fn drain_with(
        &mut self,
        mut handle: RequestHandle,
        mut observer: impl FnMut(&SinkReport),
    ) -> Result<SinkReport, SinkError> {
        let first_index = handle.first_index() as u64;
        let mut report = SinkReport {
            next_index: first_index,
            ..SinkReport::default()
        };
        let mut buffered: BTreeMap<usize, Generated> = BTreeMap::new();
        let mut next = 0usize;
        let mut delivered = 0usize;
        while let Some(item) = handle.recv() {
            delivered += 1;
            buffered.insert(item.provenance.index, item);
            while let Some(ready) = buffered.remove(&next) {
                self.ingest_one(first_index, next, &ready, &mut report)?;
                next += 1;
                observer(&report);
            }
        }
        if let Some(e) = handle.error() {
            return Err(SinkError::Generate {
                detail: e.to_string(),
            });
        }
        // Stream over: `delivered + shortfall == count`, so the slots
        // past the last deliverable are exactly the shortfall. Interior
        // gaps still buffered past them drain in index order.
        let count = delivered + handle.report().shortfall;
        for i in next..count {
            match buffered.remove(&i) {
                Some(ready) => self.ingest_one(first_index, i, &ready, &mut report)?,
                None => {
                    self.writer.record_skip(&self.method, &self.ruleset)?;
                    report.skipped += 1;
                    report.next_index += 1;
                }
            }
            observer(&report);
        }
        Ok(report)
    }

    fn ingest_one(
        &mut self,
        first_index: u64,
        index: usize,
        item: &Generated,
        report: &mut SinkReport,
    ) -> Result<(), SinkError> {
        let outcome = self.writer.ingest(
            &self.method,
            &self.ruleset,
            first_index + index as u64,
            &item.pattern,
            true,
        )?;
        match outcome {
            IngestOutcome::NewTopology | IngestOutcome::NewVariant => report.accepted += 1,
            IngestOutcome::Duplicate => report.duplicates += 1,
        }
        report.next_index += 1;
        Ok(())
    }
}
