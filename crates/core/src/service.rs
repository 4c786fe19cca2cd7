//! [`PatternService`]: the generation API — a long-lived, multi-request
//! engine with **cross-request micro-batching**.
//!
//! A service *owns* an [`Arc<TrainedModel>`] and keeps a **persistent
//! worker pool** that multiplexes many concurrent requests: every
//! denoising micro-batch is filled with lanes drawn from as many pending
//! requests as needed, so eight concurrent `count = 2` requests sample at
//! batch 8 instead of eight times at batch 2. Handles are `'static` and
//! `Send`, the service itself is cheaply clonable (clones share the
//! engine), and dropping a [`RequestHandle`] cancels its remaining work.
//!
//! # Determinism under load
//!
//! A request's output is **bit-identical regardless of concurrent load,
//! worker count, micro-batch size, or admission order**. The argument has
//! three independent layers:
//!
//! 1. every lane (batch slot) derives its RNG from
//!    `splitmix64(request seed, item index)` — nothing it draws depends on
//!    scheduling;
//! 2. the stacked U-Net evaluation is bit-identical per item
//!    (`dp_nn` batch invariance), so a lane's samples do not depend on
//!    which other lanes share its micro-batch;
//! 3. solver and donor draws happen per lane on the lane's own RNG, in the
//!    same order the single-item path used.
//!
//! Scheduling — priorities, the worker count, who else is queued — decides
//! only *when* a lane runs, never *what* it produces.
//!
//! ```no_run
//! use diffpattern::{PatternService, Pipeline, PipelineConfig, RequestSpec};
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::default(), &mut rng)?;
//! pipeline.train(200, &mut rng)?;
//! let spec = pipeline.request_spec(16).seed(7);
//! let model = Arc::new(pipeline.into_trained_model()?);
//!
//! // One engine, shared by every request for the process lifetime.
//! let service = PatternService::builder(model).threads(4).build()?;
//!
//! // Submit many requests; they share the worker pool and fill each
//! // other's micro-batches. Each handle streams its own items.
//! let fast = service.submit(&RequestSpec { seed: 1, priority: 1, ..spec.clone() })?;
//! let slow = service.submit(&RequestSpec { seed: 2, ..spec.clone() })?;
//! for generated in fast {
//!     println!("pattern {} after {} attempts", generated.provenance.index,
//!              generated.provenance.attempts);
//! }
//! let batch = slow.wait()?;
//! println!("{} legal patterns, shortfall {}", batch.items.len(), batch.report.shortfall);
//! # Ok(())
//! # }
//! ```

use crate::engine::{self, Engine, LaneMsg, Mode, Payload, RequestJob};
use crate::{ConfigError, GenerateError, PipelineError, PipelineReport};
use dp_diffusion::{Conditioning, TrainedModel};
use dp_drc::DesignRules;
use dp_geometry::BitGrid;
use dp_legalize::{SolveStats, Solver, SolverConfig};
use dp_squish::SquishPattern;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where a generated pattern came from: enough to reproduce it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    /// Position of this item in the requested batch.
    pub index: usize,
    /// The per-item RNG seed (derived from the request seed and `index`).
    pub seed: u64,
    /// Sampling attempts consumed, including the successful one.
    pub attempts: usize,
    /// Whether the bow-tie pre-filter repaired the topology.
    pub repaired: bool,
    /// Convergence statistics of the legalization solve.
    pub solve: SolveStats,
}

/// One streamed generation result: a DRC-clean pattern plus its
/// [`Provenance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generated {
    /// The legal squish pattern.
    pub pattern: SquishPattern,
    /// How it was produced.
    pub provenance: Provenance,
}

/// A completed batch: items in batch-index order plus the aggregated
/// per-lane reports.
#[derive(Debug, Clone)]
pub struct Generation {
    /// The generated patterns, sorted by [`Provenance::index`].
    pub items: Vec<Generated>,
    /// Merged statistics of every lane, including the
    /// [`PipelineReport::shortfall`] count of batch slots that exhausted
    /// their attempt budget.
    pub report: PipelineReport,
}

/// Everything one generation request carries: what to generate, under
/// which rules, and how urgently. Plain data — build one with
/// [`RequestSpec::new`] (or [`crate::Pipeline::request_spec`]) and adjust
/// fields directly or by struct update:
///
/// ```
/// use diffpattern::RequestSpec;
/// let base = RequestSpec::new(8).seed(42);
/// let hurried = RequestSpec { priority: 10, ..base.clone() };
/// assert_eq!(hurried.count, 8);
/// ```
///
/// Validation happens at [`PatternService::submit`], which rejects a zero
/// stride or attempt budget and a solver window smaller than the model's
/// topology matrix.
#[derive(Debug, Clone)]
pub struct RequestSpec {
    /// How many legal patterns to generate.
    pub count: usize,
    /// The request seed: together with an item's index it fully determines
    /// that item, independent of everything else the service is doing.
    pub seed: u64,
    /// Offset into the request's item-index space: item `i` of this
    /// request is generated exactly as item `first_index + i` of an
    /// equivalent request with `first_index: 0` (same derived per-item
    /// seed, bit-identical content). This is what makes resumed library
    /// builds and seed-space shards exact sub-ranges of one logical
    /// stream rather than approximations of it. Streamed
    /// [`crate::Provenance::index`] values stay `0..count`-relative; add
    /// `first_index` to recover the absolute index.
    pub first_index: usize,
    /// Scheduling priority — higher runs earlier when the pool is
    /// contended. Affects latency only, never content.
    pub priority: i32,
    /// Design rules for legalization.
    pub rules: DesignRules,
    /// Legalization window: the Σ Δx and Σ Δy every pattern fills.
    pub solver: SolverConfig,
    /// Reverse-sampling stride: 1 runs the full ancestral chain (paper
    /// Eq. 13), larger values use the respaced sampler with `K / stride`
    /// denoiser calls (see [`dp_diffusion::Sampler::strided_steps`]).
    pub sample_stride: usize,
    /// Per-item sampling attempt budget before the slot is counted as
    /// shortfall.
    pub max_attempts: usize,
    /// Pre-filter policy. `false` is the paper's behaviour: topologies
    /// with bow-ties are rejected outright (the paper reports < 0.1 %
    /// rejection at its 0.5 M-iteration GPU training scale). `true` (the
    /// default) repairs bow-ties instead, which keeps CPU-scale models
    /// productive; repaired counts are reported separately
    /// ([`PipelineReport::prefilter_repaired`]).
    pub repair_bowties: bool,
    /// Donor patterns for Solving-E initialisation; empty falls back to
    /// Solving-R. Shared (`Arc`) so specs clone cheaply.
    pub donors: Arc<[SquishPattern]>,
    /// Per-lane sampling constraints: a frozen region (inpainting — the
    /// masked entries of every sampled topology tensor are clamped to the
    /// given bits) and/or motif-avoidance guidance. The default
    /// [`Conditioning::none`] is the unconditioned path, bit-identical to
    /// pre-conditioning releases. Each lane samples under its own
    /// request's conditioning, so requests with different conditionings
    /// (or none) share micro-batches without changing each other's bytes;
    /// only the stride splits batches. A frozen region's shape is
    /// validated against the model's tensor at submit
    /// ([`ConfigError::ConditioningShape`]). Shared (`Arc`) so specs
    /// clone cheaply.
    pub conditioning: Arc<Conditioning>,
    /// Wall-clock budget measured from [`PatternService::submit`]. Lanes
    /// not delivered in time are converted to shortfall — unclaimed lanes
    /// at the next scheduling pass, in-flight lanes between denoising
    /// rounds — so the request still terminates with a complete, partial
    /// report (`items delivered + shortfall == count`). Items that *do*
    /// complete in time keep the bit-exact determinism contract; the
    /// deadline only decides how many of them there are. `None` (the
    /// default) never expires; [`ServiceBuilder::default_deadline`] fills
    /// it service-wide.
    pub deadline: Option<Duration>,
}

impl RequestSpec {
    /// A spec for `count` patterns with working defaults: standard rules,
    /// the paper's 2048 nm window, full-chain sampling, 4 attempts, repair
    /// on, priority 0, seed 0, first index 0, no donors, no conditioning,
    /// no deadline.
    pub fn new(count: usize) -> Self {
        RequestSpec {
            count,
            seed: 0,
            first_index: 0,
            priority: 0,
            rules: DesignRules::standard(),
            solver: SolverConfig::for_window(2048, 2048),
            sample_stride: 1,
            max_attempts: 4,
            repair_bowties: true,
            donors: Arc::from([]),
            conditioning: Arc::new(Conditioning::none()),
            deadline: None,
        }
    }

    /// Returns the spec with the given seed (chainable convenience for the
    /// most commonly varied field).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the spec with the given wall-clock deadline (see the
    /// [`RequestSpec::deadline`] field for the expiry semantics).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns the spec offset to start at absolute item index
    /// `first_index` (see the [`RequestSpec::first_index`] field for the
    /// sub-range determinism contract).
    pub fn first_index(mut self, first_index: usize) -> Self {
        self.first_index = first_index;
        self
    }

    /// Returns the spec sampling under the given conditioning (see the
    /// [`RequestSpec::conditioning`] field for the constraint semantics).
    pub fn conditioning(mut self, conditioning: Conditioning) -> Self {
        self.conditioning = Arc::new(conditioning);
        self
    }
}

impl Default for RequestSpec {
    fn default() -> Self {
        RequestSpec::new(0)
    }
}

/// Builder for [`PatternService`].
#[derive(Debug)]
pub struct ServiceBuilder {
    model: Arc<TrainedModel>,
    threads: usize,
    micro_batch: usize,
    max_queued: usize,
    default_deadline: Option<Duration>,
}

impl ServiceBuilder {
    /// Persistent worker thread count; 0 (the default) uses the machine's
    /// available parallelism. Each worker runs its GEMMs single-threaded:
    /// the pool is the parallelism.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sampling micro-batch: how many denoising lanes each worker advances
    /// in lock-step per U-Net call (default 8). The scheduler fills each
    /// micro-batch across requests, so this is the cross-request batching
    /// knob. Output is bit-identical at every setting.
    pub fn micro_batch(mut self, micro_batch: usize) -> Self {
        self.micro_batch = micro_batch;
        self
    }

    /// Bounds the admission queue: at most this many requests may be
    /// pending (admitted but not yet fully claimed by workers) at once;
    /// further [`PatternService::submit`] calls are rejected with
    /// [`ConfigError::QueueFull`] instead of queueing unboundedly — the
    /// backpressure signal a serving front-end maps to HTTP 429. The
    /// default 0 means unbounded, the pre-0.4 behaviour.
    pub fn max_queued_requests(mut self, max_queued: usize) -> Self {
        self.max_queued = max_queued;
        self
    }

    /// Wall-clock deadline applied to every submitted spec whose
    /// [`RequestSpec::deadline`] is `None` (a per-request deadline always
    /// wins). Default: no deadline.
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Validates the configuration, builds the engine and spawns the
    /// worker pool.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroMicroBatch`] when `micro_batch` is 0.
    pub fn build(self) -> Result<PatternService, ConfigError> {
        if self.micro_batch == 0 {
            return Err(ConfigError::ZeroMicroBatch);
        }
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            n => n,
        };
        let engine = Arc::new(Engine::new(
            self.model.sampler(),
            self.model.channels(),
            self.model.side(),
            self.micro_batch,
            self.max_queued,
        ));
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let model = Arc::clone(&self.model);
            let engine = Arc::clone(&engine);
            // GEMMs run on the worker's own thread, so the pool is the
            // only parallelism.
            workers.push(std::thread::spawn(move || {
                engine::run_worker(&model, &engine)
            }));
        }
        Ok(PatternService {
            core: Arc::new(ServiceCore {
                model: self.model,
                engine,
                threads,
                micro_batch: self.micro_batch,
                max_queued: self.max_queued,
                default_deadline: self.default_deadline,
                workers: Mutex::new(workers),
            }),
        })
    }
}

struct ServiceCore {
    model: Arc<TrainedModel>,
    engine: Arc<Engine>,
    threads: usize,
    micro_batch: usize,
    max_queued: usize,
    default_deadline: Option<Duration>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for ServiceCore {
    fn drop(&mut self) {
        // Last service handle gone: stop the pool and join every worker,
        // so dropping a service never leaks threads. Outstanding request
        // handles see their channels disconnect and terminate early.
        self.engine.shutdown();
        // The registry is only written at construction and here; a
        // poisoned lock means a thread panicked holding it, and tearing
        // down is exactly what Drop is already doing.
        // dp-lint: allow(panic-in-serving-tier): Drop-path join; a poisoned registry propagates the original worker panic
        let mut workers = self.workers.lock().expect("worker registry poisoned");
        for worker in workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A long-lived, multi-request generation engine over an owned
/// [`Arc<TrainedModel>`]: submit [`RequestSpec`]s from any thread, stream
/// results through [`RequestHandle`]s, share the persistent worker pool's
/// cross-request micro-batches. A request's output is bit-identical
/// regardless of concurrent load, worker count, or admission order (the
/// determinism contract laid out at the top of this module's
/// documentation).
///
/// Cloning is cheap and shares the engine; the pool shuts down (and every
/// worker is joined) when the last clone is dropped.
#[derive(Clone)]
pub struct PatternService {
    core: Arc<ServiceCore>,
}

impl std::fmt::Debug for PatternService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatternService")
            .field("threads", &self.core.threads)
            .field("micro_batch", &self.core.micro_batch)
            .finish_non_exhaustive()
    }
}

impl PatternService {
    /// Starts a builder over `model` with default settings.
    pub fn builder(model: Arc<TrainedModel>) -> ServiceBuilder {
        ServiceBuilder {
            model,
            threads: 0,
            micro_batch: 8,
            max_queued: 0,
            default_deadline: None,
        }
    }

    /// The shared model.
    pub fn model(&self) -> &Arc<TrainedModel> {
        &self.core.model
    }

    /// Persistent worker thread count.
    pub fn threads(&self) -> usize {
        self.core.threads
    }

    /// Lock-step denoising lanes per U-Net call (filled across requests).
    pub fn micro_batch(&self) -> usize {
        self.core.micro_batch
    }

    /// Admission bound on pending requests (0 = unbounded).
    pub fn max_queued_requests(&self) -> usize {
        self.core.max_queued
    }

    /// A point-in-time load snapshot of the shared scheduler — the
    /// figures a `/metrics` endpoint exposes.
    pub fn stats(&self) -> ServiceStats {
        let stats = self.core.engine.stats();
        ServiceStats {
            queued_requests: stats.queued_requests,
            queued_lanes: stats.queued_lanes,
            lanes_in_flight: stats.lanes_in_flight,
        }
    }

    /// Admits a generation request. Returns immediately; the request's
    /// lanes are interleaved into the pool's micro-batches alongside every
    /// other pending request's.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroStride`], [`ConfigError::ZeroAttempts`],
    /// [`ConfigError::WindowTooSmall`] when the spec's solver window
    /// cannot hold the model's topology matrix, or
    /// [`ConfigError::ConditioningShape`] when the spec's frozen region
    /// does not span the model's topology tensor.
    pub fn submit(&self, spec: &RequestSpec) -> Result<RequestHandle, ConfigError> {
        self.submit_mode(spec, Mode::Generate)
    }

    /// Blocking convenience: [`PatternService::submit`] plus
    /// [`RequestHandle::wait`].
    ///
    /// # Errors
    ///
    /// [`PipelineError::Config`] for a rejected spec,
    /// [`PipelineError::Generate`] for structural generation failures.
    pub fn generate(&self, spec: &RequestSpec) -> Result<Generation, PipelineError> {
        Ok(self.submit(spec)?.wait()?)
    }

    /// Samples `spec.count` topology matrices (pre-filtered, no
    /// legalization) through the shared pool, blocking until done.
    /// Topologies come back in index order with the aggregated report;
    /// determinism matches [`PatternService::submit`].
    ///
    /// # Errors
    ///
    /// As [`PatternService::submit`].
    pub fn sample_topologies(
        &self,
        spec: &RequestSpec,
    ) -> Result<(Vec<BitGrid>, PipelineReport), ConfigError> {
        let mut handle = self.submit_mode(spec, Mode::TopologyOnly)?;
        let mut out: Vec<(usize, BitGrid)> = Vec::with_capacity(spec.count);
        while let Some(payload) = handle.recv_payload() {
            if let Payload::Topology(index, grid) = payload {
                out.push((index, grid));
            }
        }
        out.sort_by_key(|(index, _)| *index);
        Ok((
            out.into_iter().map(|(_, grid)| grid).collect(),
            handle.report,
        ))
    }

    fn submit_mode(&self, spec: &RequestSpec, mode: Mode) -> Result<RequestHandle, ConfigError> {
        if spec.sample_stride == 0 {
            return Err(ConfigError::ZeroStride);
        }
        if spec.max_attempts == 0 {
            return Err(ConfigError::ZeroAttempts);
        }
        let matrix_side = self.core.model.matrix_side();
        let (width, height) = (spec.solver.target_width, spec.solver.target_height);
        if (matrix_side as i64) > width || (matrix_side as i64) > height {
            return Err(ConfigError::WindowTooSmall {
                matrix_side,
                target_width: width,
                target_height: height,
            });
        }
        if spec.first_index.checked_add(spec.count).is_none() {
            return Err(ConfigError::IndexOverflow {
                first_index: spec.first_index,
                count: spec.count,
            });
        }
        let model = &self.core.model;
        let entries = model.channels() * model.side() * model.side();
        if !spec.conditioning.matches_entries(entries) {
            return Err(ConfigError::ConditioningShape {
                expected: entries,
                mask: spec.conditioning.frozen().map_or(0, |f| f.len()),
            });
        }
        let deadline = spec
            .deadline
            .or(self.core.default_deadline)
            .map(|d| Instant::now() + d); // dp-lint: allow(nondeterministic-time): anchoring a relative deadline; never reaches pattern bytes
        let job = RequestJob {
            mode,
            seed: spec.seed,
            count: spec.count,
            first_index: spec.first_index,
            stride: spec.sample_stride,
            retained: self.core.engine.strided_steps(spec.sample_stride).into(),
            max_attempts: spec.max_attempts,
            repair_bowties: spec.repair_bowties,
            solver: Solver::new(spec.rules, spec.solver),
            donors: Arc::clone(&spec.donors),
            conditioning: Arc::clone(&spec.conditioning),
            deadline,
        };
        let cancel = Arc::new(AtomicBool::new(false));
        let rx = self
            .core
            .engine
            .submit(job, spec.priority, Arc::clone(&cancel))
            .map_err(|full| ConfigError::QueueFull {
                queued: full.queued,
                max_queued: self.core.max_queued,
            })?;
        Ok(RequestHandle {
            rx,
            cancel_flag: cancel,
            engine: Arc::downgrade(&self.core.engine),
            count: spec.count,
            first_index: spec.first_index,
            lanes_done: 0,
            report: PipelineReport::default(),
            error: None,
            finished: false,
        })
    }
}

/// A point-in-time load snapshot of a [`PatternService`] scheduler,
/// from [`PatternService::stats`] — the queue-depth and in-flight
/// figures a `/metrics` endpoint exposes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceStats {
    /// Requests admitted but not yet fully claimed by workers.
    pub queued_requests: usize,
    /// Lanes (requested items) waiting to be claimed.
    pub queued_lanes: usize,
    /// Lanes claimed by workers whose result has not been delivered yet.
    pub lanes_in_flight: usize,
}

/// Outcome of one [`RequestHandle::recv_timeout`] poll.
#[derive(Debug)]
pub enum RecvPoll {
    /// The next generated item.
    Item(Generated),
    /// The stream has ended: every lane accounted, cancelled, or the
    /// service was dropped. Subsequent polls return this immediately.
    Finished,
    /// Nothing arrived within the timeout; the request is still running.
    TimedOut,
}

/// The receiving end of one submitted request: stream items with
/// [`RequestHandle::recv`] or the [`Iterator`] impl, or collect everything
/// with [`RequestHandle::wait`]. `'static` and `Send`, so it can be moved
/// to whatever thread consumes the results.
///
/// **Dropping the handle cancels the request**: lanes not yet started
/// never run, in-flight lanes drain (their results are discarded), and
/// every other request is untouched — by the determinism contract their
/// outputs do not change by a single bit.
#[derive(Debug)]
pub struct RequestHandle {
    rx: mpsc::Receiver<LaneMsg>,
    cancel_flag: Arc<AtomicBool>,
    /// Weak so an outstanding handle never keeps a dropped service's
    /// engine alive; used to wake parked workers on cancellation so they
    /// prune the cancelled request instead of retaining it until the next
    /// submit.
    engine: std::sync::Weak<Engine>,
    count: usize,
    first_index: usize,
    lanes_done: usize,
    report: PipelineReport,
    error: Option<GenerateError>,
    finished: bool,
}

impl RequestHandle {
    /// Receives the next generated pattern, blocking until one is ready.
    /// Returns `None` when the request is complete (every lane delivered
    /// or counted as shortfall), cancelled, or the service was dropped.
    /// Items arrive in completion order; [`crate::Provenance::index`]
    /// gives each item's position in the request.
    pub fn recv(&mut self) -> Option<Generated> {
        loop {
            match self.recv_payload()? {
                Payload::Pattern(generated) => return Some(generated),
                // Topology payloads belong to the internal sampling mode
                // and are consumed by `sample_topologies`.
                Payload::Topology(..) => continue,
            }
        }
    }

    /// Like [`RequestHandle::recv`], but gives up after `timeout` instead
    /// of blocking indefinitely — the polling primitive a network server
    /// needs to interleave item delivery with client-liveness checks.
    pub fn recv_timeout(&mut self, timeout: Duration) -> RecvPoll {
        // dp-lint: allow(nondeterministic-time): polling timeout anchor; never reaches pattern bytes
        let deadline = Instant::now() + timeout;
        loop {
            if self.finished {
                return RecvPoll::Finished;
            }
            // dp-lint: allow(nondeterministic-time): polling timeout remainder; never reaches pattern bytes
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(remaining) {
                Ok(msg) => match self.absorb(msg) {
                    Some(Payload::Pattern(generated)) => return RecvPoll::Item(generated),
                    // Topology payloads belong to the internal sampling
                    // mode (`sample_topologies` drains them itself).
                    Some(Payload::Topology(..)) | None => continue,
                },
                Err(mpsc::RecvTimeoutError::Timeout) => return RecvPoll::TimedOut,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    self.finished = true;
                    return RecvPoll::Finished;
                }
            }
        }
    }

    /// The lane-level receive shared by patterns and topologies.
    fn recv_payload(&mut self) -> Option<Payload> {
        loop {
            if self.finished {
                return None;
            }
            match self.rx.recv() {
                Ok(msg) => {
                    if let Some(payload) = self.absorb(msg) {
                        return Some(payload);
                    }
                }
                Err(mpsc::RecvError) => {
                    self.finished = true;
                    return None;
                }
            }
        }
    }

    /// Folds one lane message (settling `msg.lanes` lanes) into the
    /// running report; returns its payload when it carried one.
    fn absorb(&mut self, msg: LaneMsg) -> Option<Payload> {
        self.report.merge(&msg.delta);
        self.lanes_done += msg.lanes;
        if self.lanes_done >= self.count {
            self.finished = true;
        }
        match msg.payload {
            Ok(Some(payload)) => Some(payload),
            Ok(None) => {
                self.report.shortfall += msg.lanes;
                None
            }
            Err(e) => {
                if self.error.is_none() {
                    self.error = Some(e);
                }
                None
            }
        }
    }

    /// Drains the request to completion and returns the items in index
    /// order with the aggregated report.
    ///
    /// # Errors
    ///
    /// The first structural [`GenerateError`] any lane hit.
    pub fn wait(mut self) -> Result<Generation, GenerateError> {
        let mut items = Vec::new();
        while let Some(generated) = self.recv() {
            items.push(generated);
        }
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        items.sort_by_key(|g| g.provenance.index);
        Ok(Generation {
            items,
            report: self.report,
        })
    }

    /// Cancels the request now (the destructor does the same): remaining
    /// lanes stop, already-received items stay valid, subsequent
    /// [`RequestHandle::recv`] calls return `None`.
    pub fn cancel(&mut self) {
        self.cancel_flag.store(true, Ordering::Relaxed);
        self.finished = true;
        // Wake parked workers so an idle pool prunes the cancelled
        // request's queue entry now rather than at the next submit.
        if let Some(engine) = self.engine.upgrade() {
            engine.nudge();
        }
    }

    /// Statistics accumulated so far (complete once the stream has ended).
    /// Shortfall counts lanes that exhausted their attempt budget.
    pub fn report(&self) -> PipelineReport {
        self.report
    }

    /// Whether the stream has ended (all lanes accounted, cancelled, or
    /// disconnected).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The spec's [`RequestSpec::first_index`]: streamed
    /// [`crate::Provenance::index`] values are `0..count`-relative;
    /// `first_index + index` is the absolute item index.
    pub fn first_index(&self) -> usize {
        self.first_index
    }

    /// The first structural error a lane reported, if any (also surfaced
    /// by [`RequestHandle::wait`]).
    pub fn error(&self) -> Option<&GenerateError> {
        self.error.as_ref()
    }
}

impl Iterator for RequestHandle {
    type Item = Generated;

    fn next(&mut self) -> Option<Generated> {
        self.recv()
    }
}

impl Drop for RequestHandle {
    fn drop(&mut self) {
        self.cancel_flag.store(true, Ordering::Relaxed);
        if let Some(engine) = self.engine.upgrade() {
            engine.nudge();
        }
    }
}
