//! The generation engine behind [`crate::PatternService`]: a request
//! scheduler whose workers fill each denoising micro-batch with lanes
//! drawn from **multiple pending requests**.
//!
//! Every requested item is a *lane* with its own RNG derived from
//! `(request seed, item index)` (splitmix64 finaliser). Because the
//! batched sampler advances each lane on exactly the random stream a solo
//! chain would consume, and the stacked U-Net evaluation is bit-identical
//! per item, a lane's outcome does not depend on which other lanes —
//! from the same request or any other — happen to share its micro-batch.
//! That is the whole determinism argument: scheduling (worker count,
//! admission order, concurrent load, priorities) chooses *when* a lane
//! runs, never *what* it produces.
//!
//! Each lane also carries its request's [`Conditioning`] into the
//! sampler ([`Sampler::sample_lanes_with`]), so the only thing lanes of
//! one lock-step chunk must agree on is the stride, which fixes the
//! denoising steps they run. Unconditioned, frozen-region and guided
//! lanes share chunks, and no lane ever samples under another request's
//! conditioning.
//!
//! The module is internal; its public face is [`crate::PatternService`],
//! whose persistent workers over an owned `Arc<TrainedModel>` each run
//! [`run_worker`].

use crate::{GenerateError, Generated, PipelineReport, Provenance};
use dp_diffusion::{BatchScratch, Conditioning, Sampler, TrainedModel};
use dp_geometry::{bowtie, BitGrid};
use dp_legalize::{Init, Solver};
use dp_squish::{DeepSquishTensor, SquishPattern};
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// What a finished lane hands back through its request's channel.
#[derive(Debug, PartialEq)]
pub(crate) enum Payload {
    /// A fully legalized pattern with provenance.
    Pattern(Generated),
    /// A pre-filtered topology (no legalization), tagged with its index.
    Topology(usize, BitGrid),
}

/// One completed lane, or every lane a deadline expired before a worker
/// claimed it: the statistics delta plus the outcome. `Ok(None)` means
/// the lanes exhausted their attempt budgets — shortfall, accounted by
/// the receiver.
pub(crate) struct LaneMsg {
    /// How many lanes the message settles: 1 from a worker; a request's
    /// unclaimed lanes from deadline expiry, so expiry costs one message
    /// whatever the request's count.
    pub(crate) lanes: usize,
    pub(crate) delta: PipelineReport,
    pub(crate) payload: Result<Option<Payload>, GenerateError>,
}

/// What the lanes of a request produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Sample → pre-filter → legalize into [`Payload::Pattern`]s.
    Generate,
    /// Sample → pre-filter only, into [`Payload::Topology`]s.
    TopologyOnly,
}

/// The immutable description of one admitted request, shared between the
/// scheduler queue and every in-flight lane.
pub(crate) struct RequestJob {
    pub(crate) mode: Mode,
    pub(crate) seed: u64,
    pub(crate) count: usize,
    /// Absolute index of the request's first item: lane `i` derives its
    /// RNG stream from `item_seed(seed, first_index + i)`, so a request
    /// is an exact sub-range of the `(seed, index)` item space.
    pub(crate) first_index: usize,
    /// Reverse-sampling stride, the chunk key: lanes may share a
    /// lock-step micro-batch only when they traverse the same denoising
    /// step sequence.
    pub(crate) stride: usize,
    /// The retained denoising steps for `stride` (precomputed once).
    pub(crate) retained: Arc<[usize]>,
    /// Per-lane sampling constraints (frozen region, motif guidance) —
    /// every lane of the request samples under this conditioning, whatever
    /// other requests share its chunk. [`Conditioning::none`] is the
    /// unconditioned path and draws the exact random sequence the
    /// pre-conditioning sampler drew.
    pub(crate) conditioning: Arc<Conditioning>,
    pub(crate) max_attempts: usize,
    pub(crate) repair_bowties: bool,
    pub(crate) solver: Solver,
    pub(crate) donors: Arc<[SquishPattern]>,
    /// Absolute deadline. Lanes not delivered by this instant are
    /// converted to shortfall: unclaimed lanes at claim time, in-flight
    /// lanes between denoising rounds. `None` never expires.
    pub(crate) deadline: Option<Instant>,
}

struct Request {
    job: RequestJob,
    priority: i32,
    /// Admission sequence number: the FIFO tie-break within a priority.
    seq: u64,
    cancel: Arc<AtomicBool>,
    tx: mpsc::Sender<LaneMsg>,
}

/// A claimed work item: one batch slot of one request, with its own RNG
/// stream and attempt budget.
struct Lane {
    req: Arc<Request>,
    index: usize,
    seed: u64,
    rng: rand::rngs::StdRng,
    attempts: usize,
    report: PipelineReport,
    outcome: Option<Payload>,
    error: Option<GenerateError>,
    active: bool,
}

/// A request still holding unclaimed lanes.
struct PendingRequest {
    req: Arc<Request>,
    next_lane: usize,
}

struct Sched {
    /// Pending requests, kept sorted by `(priority desc, seq asc)`.
    queue: Vec<PendingRequest>,
    next_seq: u64,
    shutdown: bool,
}

/// The scheduler: a queue of admitted requests plus the sampling
/// geometry workers need to draw lanes. Idle workers park on the condvar
/// until work arrives or the engine shuts down.
pub(crate) struct Engine {
    sampler: Sampler,
    channels: usize,
    side: usize,
    micro_batch: usize,
    /// Admission bound on *pending* (not yet fully claimed) requests;
    /// 0 means unbounded.
    max_queued: usize,
    /// Lanes claimed by workers whose result message has not been
    /// delivered yet — the live load figure `/metrics` exposes.
    lanes_in_flight: AtomicUsize,
    sched: Mutex<Sched>,
    work: Condvar,
}

/// A point-in-time view of the scheduler, surfaced as
/// [`crate::ServiceStats`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EngineStats {
    pub(crate) queued_requests: usize,
    pub(crate) queued_lanes: usize,
    pub(crate) lanes_in_flight: usize,
}

/// Admission rejected: the pending-request queue is at its bound.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueFull {
    pub(crate) queued: usize,
}

impl Engine {
    pub(crate) fn new(
        sampler: Sampler,
        channels: usize,
        side: usize,
        micro_batch: usize,
        max_queued: usize,
    ) -> Self {
        Engine {
            sampler,
            channels,
            side,
            micro_batch: micro_batch.max(1),
            max_queued,
            lanes_in_flight: AtomicUsize::new(0),
            sched: Mutex::new(Sched {
                queue: Vec::new(),
                next_seq: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
        }
    }

    /// The one place the scheduler mutex is acquired. Poisoning means a
    /// worker panicked mid-rearrangement and the queue may be torn;
    /// resuming over it could duplicate or drop lanes, so propagating
    /// the original panic (and letting the supervisor restart) is the
    /// safer failure mode.
    fn lock_sched(&self) -> std::sync::MutexGuard<'_, Sched> {
        // dp-lint: allow(panic-in-serving-tier): poisoned scheduler state must not be resumed — propagate the worker panic
        self.sched.lock().expect("scheduler lock poisoned")
    }

    /// Parks on the work condvar, optionally with a timeout, reacquiring
    /// the scheduler lock (same poisoning policy as [`Engine::lock_sched`]).
    fn wait_work<'e>(
        &'e self,
        guard: std::sync::MutexGuard<'e, Sched>,
        timeout: Option<std::time::Duration>,
    ) -> std::sync::MutexGuard<'e, Sched> {
        let reacquired = match timeout {
            Some(t) => self
                .work
                .wait_timeout(guard, t)
                .map(|(g, _)| g)
                .map_err(|_| ()),
            None => self.work.wait(guard).map_err(|_| ()),
        };
        // dp-lint: allow(panic-in-serving-tier): poisoned scheduler state must not be resumed — propagate the worker panic
        reacquired.expect("scheduler lock poisoned while waiting")
    }

    /// Queue depth and in-flight lane count right now. The two reads are
    /// not one atomic snapshot — a lane can move from queued to in-flight
    /// between them — but each figure is individually exact.
    pub(crate) fn stats(&self) -> EngineStats {
        let sched = self.lock_sched();
        EngineStats {
            queued_requests: sched.queue.len(),
            queued_lanes: sched
                .queue
                .iter()
                .map(|p| p.req.job.count - p.next_lane)
                .sum(),
            lanes_in_flight: self.lanes_in_flight.load(Ordering::Relaxed),
        }
    }

    /// The retained-step subset for a request stride (the per-request
    /// sampling plan).
    pub(crate) fn strided_steps(&self, stride: usize) -> Vec<usize> {
        self.sampler.strided_steps(stride)
    }

    /// Admits a request. The returned receiver yields [`LaneMsg`]s whose
    /// lane counts sum to the requested items, and disconnects when the
    /// last lane has been delivered (or the engine shuts down / the
    /// request is cancelled before its lanes are claimed). A zero-count
    /// request disconnects immediately.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the engine was built with a pending-request
    /// bound and that many requests are already waiting — the admission
    /// backpressure the serving layer maps to HTTP 429.
    pub(crate) fn submit(
        &self,
        job: RequestJob,
        priority: i32,
        cancel: Arc<AtomicBool>,
    ) -> Result<mpsc::Receiver<LaneMsg>, QueueFull> {
        let (tx, rx) = mpsc::channel();
        if job.count == 0 {
            return Ok(rx);
        }
        {
            let mut sched = self.lock_sched();
            // Cancelled entries do not count against the bound (they are
            // dead weight a claim pass will drop), expired ones neither —
            // sweep both before judging fullness.
            sched
                .queue
                .retain(|p| !p.req.cancel.load(Ordering::Relaxed));
            Self::expire_due(&mut sched);
            if self.max_queued != 0 && sched.queue.len() >= self.max_queued {
                return Err(QueueFull {
                    queued: sched.queue.len(),
                });
            }
            let seq = sched.next_seq;
            sched.next_seq += 1;
            let req = Arc::new(Request {
                job,
                priority,
                seq,
                cancel,
                tx,
            });
            // Keep the queue sorted: higher priority first, then admission
            // order. Scheduling order affects only latency — per-lane RNGs
            // make every outcome independent of it.
            use std::cmp::Reverse;
            let pos = sched
                .queue
                .iter()
                .position(|p| (Reverse(p.req.priority), p.req.seq) > (Reverse(priority), seq))
                .unwrap_or(sched.queue.len());
            sched
                .queue
                .insert(pos, PendingRequest { req, next_lane: 0 });
        }
        self.work.notify_all();
        Ok(rx)
    }

    /// Converts every queued request whose deadline has passed into
    /// shortfall: its unclaimed lanes get one `Ok(None)` message carrying
    /// their count (counted by the receiver exactly like as many exhausted
    /// attempt budgets) and the entry leaves the queue. One message per
    /// request, not per lane, keeps the scheduler lock's hold time
    /// independent of the request's count. Returns the nearest *future*
    /// deadline among the survivors, so parked workers know how long they
    /// may sleep.
    fn expire_due(sched: &mut Sched) -> Option<Instant> {
        // dp-lint: allow(nondeterministic-time): deadline expiry is wall-clock by definition and never reaches pattern bytes
        let now = Instant::now();
        let mut nearest: Option<Instant> = None;
        sched.queue.retain_mut(|p| {
            let Some(deadline) = p.req.job.deadline else {
                return true;
            };
            if deadline > now {
                nearest = Some(nearest.map_or(deadline, |n| n.min(deadline)));
                return true;
            }
            let _ = p.req.tx.send(LaneMsg {
                lanes: p.req.job.count - p.next_lane,
                delta: PipelineReport::default(),
                payload: Ok(None),
            });
            false
        });
        nearest
    }

    /// Wakes every parked worker without changing any state. Used after a
    /// request is cancelled so an otherwise-idle pool runs a claim pass,
    /// which prunes the cancelled entry (dropping its solver, donors and
    /// channel sender) instead of retaining it until the next submit.
    pub(crate) fn nudge(&self) {
        self.work.notify_all();
    }

    /// Wakes every worker and makes all future/parked [`Engine::claim`]
    /// calls return `None`. Queued-but-unclaimed lanes are dropped; their
    /// requests' channels disconnect.
    pub(crate) fn shutdown(&self) {
        let mut sched = self.lock_sched();
        sched.shutdown = true;
        sched.queue.clear();
        drop(sched);
        self.work.notify_all();
    }

    /// Claims the next micro-batch of lanes, drawing from as many pending
    /// requests as needed to fill it (the cross-request batching at the
    /// heart of the service). All claimed lanes share one stride, whatever
    /// their conditioning; requests on a different stride wait for their
    /// own batch.
    ///
    /// Parks while nothing is claimable; returns `None` once the engine
    /// is shut down.
    fn claim(&self) -> Option<Vec<Lane>> {
        let mut sched = self.lock_sched();
        loop {
            if sched.shutdown {
                return None;
            }
            // Cancelled requests are pruned at claim time: their unclaimed
            // lanes simply never run (in-flight lanes drain in the worker
            // loop). Deadline-expired requests are converted to shortfall
            // in the same pass.
            sched
                .queue
                .retain(|p| !p.req.cancel.load(Ordering::Relaxed));
            let nearest_deadline = Self::expire_due(&mut sched);

            let mut lanes: Vec<Lane> = Vec::new();
            let mut stride = 0;
            let mut i = 0;
            while i < sched.queue.len() && lanes.len() < self.micro_batch {
                let pending = &mut sched.queue[i];
                if lanes.is_empty() {
                    stride = pending.req.job.stride;
                } else if pending.req.job.stride != stride {
                    i += 1;
                    continue;
                }
                while pending.next_lane < pending.req.job.count && lanes.len() < self.micro_batch {
                    let index = pending.next_lane;
                    pending.next_lane += 1;
                    let seed = item_seed(pending.req.job.seed, pending.req.job.first_index + index);
                    lanes.push(Lane {
                        req: Arc::clone(&pending.req),
                        index,
                        seed,
                        rng: lane_rng(seed),
                        attempts: 0,
                        report: PipelineReport::default(),
                        outcome: None,
                        error: None,
                        active: true,
                    });
                }
                if pending.next_lane >= pending.req.job.count {
                    sched.queue.remove(i);
                } else {
                    i += 1;
                }
            }
            if !lanes.is_empty() {
                self.lanes_in_flight
                    .fetch_add(lanes.len(), Ordering::Relaxed);
                return Some(lanes);
            }
            // Park until new work arrives — or, when some queued request
            // carries a deadline, at most until that deadline, so expiry
            // is observed by an otherwise idle pool.
            sched = match nearest_deadline {
                Some(deadline) => {
                    // dp-lint: allow(nondeterministic-time): bounding a park by a wall-clock deadline; never reaches pattern bytes
                    let wait = deadline.saturating_duration_since(Instant::now());
                    self.wait_work(sched, Some(wait))
                }
                None => self.wait_work(sched, None),
            };
        }
    }

    /// Runs a claimed chunk to completion: per round, all still-active
    /// lanes draw one topology together through the batched sampler (one
    /// U-Net evaluation per denoising step for the whole round), each
    /// under its own request's conditioning; each lane then runs its
    /// request's bow-tie pre-filter and — when the sample survives — its
    /// finish stage (donor pick + solve for [`Mode::Generate`], a no-op
    /// for [`Mode::TopologyOnly`]) on its own RNG. Lanes leave the round
    /// set on success, error or a spent attempt budget, so a chunk's
    /// denoising batch only ever shrinks.
    ///
    /// A lane's RNG sees exactly the draw sequence a solo run would
    /// consume (sample bits, then donor/solver draws, then the next
    /// attempt), so outcomes are bit-identical for every batch
    /// composition — including the degenerate single-lane one.
    ///
    /// Cancellation is observed between rounds: in-flight lanes of a
    /// cancelled request stop sampling further attempts, and whatever they
    /// produced is discarded by the dead channel.
    fn process_chunk(&self, model: &TrainedModel, lanes: &mut [Lane], scratch: &mut BatchScratch) {
        let (channels, side) = (self.channels, self.side);
        loop {
            // dp-lint: allow(nondeterministic-time): deadline observation between rounds; never reaches pattern bytes
            let now = Instant::now();
            for lane in lanes.iter_mut().filter(|l| l.active) {
                // Cancellation and deadline expiry share an exit: the lane
                // stops sampling with `outcome = None`. A cancelled lane's
                // message lands in a dead channel; an expired one is
                // delivered and counted as shortfall by the receiver.
                if lane.req.cancel.load(Ordering::Relaxed)
                    || lane.req.job.deadline.is_some_and(|d| d <= now)
                {
                    lane.active = false;
                }
            }
            // All active lanes share one stride (claim's invariant), so the
            // first active lane's retained steps describe the whole round:
            // the full `1..=K` chain for stride 1 and the respaced subset
            // otherwise. Conditioning stays per lane.
            let Some(retained) = lanes
                .iter()
                .find(|l| l.active)
                .map(|l| Arc::clone(&l.req.job.retained))
            else {
                return;
            };

            let tensors = {
                let (mut rngs, conditioning): (Vec<&mut rand::rngs::StdRng>, Vec<&Conditioning>) =
                    lanes
                        .iter_mut()
                        .filter(|l| l.active)
                        .map(|l| (&mut l.rng, &*l.req.job.conditioning))
                        .unzip();
                self.sampler.sample_lanes_with(
                    model,
                    channels,
                    side,
                    &retained,
                    &conditioning,
                    &mut rngs,
                    scratch,
                )
            };

            let mut tensors = tensors.into_iter();
            for lane in lanes.iter_mut().filter(|l| l.active) {
                // dp-lint: allow(panic-in-serving-tier): the sampler returns exactly one tensor per lane RNG by construction
                let tensor = tensors.next().expect("one sample per active lane");
                lane.attempts += 1;
                lane.report.topologies_sampled += 1;
                let mut grid = tensor.unfold();
                let filtered = if bowtie::is_bowtie_free(&grid) {
                    Some((grid, false))
                } else if lane.req.job.repair_bowties {
                    // Bow-tie repair edits cells without regard for the
                    // request's frozen region; a repair that clobbers a
                    // frozen bit is rejected like any other bad sample
                    // (the inpainting contract outranks repair).
                    bowtie::repair_bowties(&mut grid);
                    if frozen_preserved(&lane.req.job.conditioning, &grid, channels) {
                        lane.report.prefilter_repaired += 1;
                        Some((grid, true))
                    } else {
                        lane.report.prefilter_rejected += 1;
                        None
                    }
                } else {
                    lane.report.prefilter_rejected += 1;
                    None
                };
                if let Some((grid, repaired)) = filtered {
                    match finish_lane(lane, grid, repaired) {
                        Ok(Some(payload)) => {
                            lane.outcome = Some(payload);
                            lane.active = false;
                            continue;
                        }
                        Ok(None) => {}
                        Err(e) => {
                            lane.error = Some(e);
                            lane.active = false;
                            continue;
                        }
                    }
                }
                if lane.attempts >= lane.req.job.max_attempts {
                    lane.active = false;
                }
            }
        }
    }
}

/// Whether `grid` still carries every frozen bit of the request's
/// conditioning — checked after bow-tie repair, the one stage that may
/// edit cells after the sampler's exact clamp. Unconditioned requests
/// (and unfrozen ones) pass trivially without folding.
fn frozen_preserved(conditioning: &Conditioning, grid: &BitGrid, channels: usize) -> bool {
    let Some(region) = conditioning.frozen() else {
        return true;
    };
    DeepSquishTensor::fold(grid, channels).is_ok_and(|tensor| region.holds(tensor.bits()))
}

/// The per-lane finish stage after a sample survived the pre-filter.
fn finish_lane(
    lane: &mut Lane,
    grid: BitGrid,
    repaired: bool,
) -> Result<Option<Payload>, GenerateError> {
    match lane.req.job.mode {
        Mode::TopologyOnly => Ok(Some(Payload::Topology(lane.index, grid))),
        Mode::Generate => {
            let job = &lane.req.job;
            let init_donor = (!job.donors.is_empty())
                .then(|| &job.donors[lane.rng.gen_range(0..job.donors.len())]);
            let solve = match init_donor {
                Some(donor) => {
                    job.solver
                        .solve(&grid, Init::Existing(donor.dx(), donor.dy()), &mut lane.rng)
                }
                None => job.solver.solve(&grid, Init::Random, &mut lane.rng),
            };
            match solve {
                Ok(solution) => {
                    let stats = solution.stats;
                    let pattern = SquishPattern::new(grid, solution.dx, solution.dy)
                        .map_err(GenerateError::Assembly)?;
                    lane.report.legal_patterns += 1;
                    Ok(Some(Payload::Pattern(Generated {
                        pattern,
                        provenance: Provenance {
                            index: lane.index,
                            seed: lane.seed,
                            attempts: lane.attempts,
                            repaired,
                            solve: stats,
                        },
                    })))
                }
                Err(_) => {
                    lane.report.solver_failures += 1;
                    Ok(None)
                }
            }
        }
    }
}

/// The worker loop: claim a cross-request micro-batch, drive it to
/// completion with one reused [`BatchScratch`], deliver each lane's
/// message to its own request, repeat until the engine shuts down.
///
/// Messages are sent in lane order, so a single worker serving a single
/// request streams items in index order.
///
/// If the loop unwinds (a panic anywhere in sampling or solving), the
/// engine is shut down on the way out: queued requests' senders drop, so
/// outstanding `RequestHandle`s disconnect instead of blocking forever
/// on a pool that lost its worker. The panic still propagates.
pub(crate) fn run_worker(model: &TrainedModel, engine: &Engine) {
    struct PanicGuard<'e> {
        engine: &'e Engine,
        finished: bool,
    }
    impl Drop for PanicGuard<'_> {
        fn drop(&mut self) {
            if !self.finished {
                self.engine.shutdown();
            }
        }
    }
    let mut guard = PanicGuard {
        engine,
        finished: false,
    };

    let mut scratch = BatchScratch::new();
    while let Some(mut lanes) = engine.claim() {
        engine.process_chunk(model, &mut lanes, &mut scratch);
        for lane in lanes {
            let payload = match lane.error {
                Some(e) => Err(e),
                None => Ok(lane.outcome),
            };
            // A dead receiver (dropped handle) just discards the message;
            // the lane's work is already done and nobody is owed it.
            let _ = lane.req.tx.send(LaneMsg {
                lanes: 1,
                delta: lane.report,
                payload,
            });
            engine.lanes_in_flight.fetch_sub(1, Ordering::Relaxed);
        }
    }
    guard.finished = true;
}

/// Derives the per-item RNG seed from the request seed and item index
/// (splitmix64 finaliser): items are independent of each other and of the
/// worker/batch that happens to run them.
pub(crate) fn item_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The one sanctioned lane-RNG construction site: a lane's generator is
/// seeded with the [`item_seed`] splitmix64 derivation and nothing else,
/// so a lane's draw sequence depends only on (request seed, item index)
/// — never on scheduling, batching or worker identity.
pub(crate) fn lane_rng(lane_seed: u64) -> rand::rngs::StdRng {
    // dp-lint: allow(rng-discipline): this helper is the sanctioned splitmix64 lane-derivation site the rule points everyone at
    rand::rngs::StdRng::seed_from_u64(lane_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hotspot_guidance, Pipeline, PipelineConfig, RequestSpec};
    use dp_diffusion::FrozenRegion;

    #[test]
    fn item_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|i| item_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(item_seed(1, 0), item_seed(2, 0));
    }

    /// What one finished lane produced, keyed by `(request seed, index)`.
    type LaneResult = ((u64, usize), Option<Payload>, PipelineReport);

    /// Submits `specs` to a worker-less `engine`, claims exactly one chunk
    /// and runs it; returns the chunk's lane results and how many distinct
    /// requests it held.
    fn run_one_chunk(
        engine: &Engine,
        model: &TrainedModel,
        specs: &[&RequestSpec],
    ) -> (Vec<LaneResult>, usize) {
        let receivers: Vec<_> = specs
            .iter()
            .map(|spec| {
                let job = RequestJob {
                    mode: Mode::TopologyOnly,
                    seed: spec.seed,
                    count: spec.count,
                    first_index: spec.first_index,
                    stride: spec.sample_stride,
                    retained: engine.strided_steps(spec.sample_stride).into(),
                    conditioning: Arc::clone(&spec.conditioning),
                    max_attempts: spec.max_attempts,
                    repair_bowties: spec.repair_bowties,
                    solver: Solver::new(spec.rules, spec.solver),
                    donors: Arc::clone(&spec.donors),
                    deadline: None,
                };
                let cancel = Arc::new(AtomicBool::new(false));
                engine.submit(job, spec.priority, cancel).unwrap()
            })
            .collect();
        let mut lanes = engine.claim().expect("work was submitted");
        let requests: std::collections::HashSet<u64> = lanes.iter().map(|l| l.req.seq).collect();
        engine.process_chunk(model, &mut lanes, &mut BatchScratch::new());
        drop(receivers);
        let results = lanes
            .into_iter()
            .map(|lane| {
                assert!(lane.error.is_none());
                ((lane.req.job.seed, lane.index), lane.outcome, lane.report)
            })
            .collect();
        (results, requests.len())
    }

    #[test]
    fn differently_conditioned_requests_share_a_chunk_and_keep_their_bytes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng).unwrap();
        let _ = pipeline.train(2, &mut rng).unwrap();
        let base = RequestSpec {
            sample_stride: 3,
            max_attempts: 2,
            ..pipeline.request_spec(2)
        };
        let model = pipeline.into_trained_model().unwrap();
        let (channels, side) = (model.channels(), model.side());
        // Freeze a dataset topology everywhere but its upper-right
        // quadrant, which the model redraws.
        let donor = base.donors[0].topology();
        let half = model.matrix_side() / 2;
        let mut mask = BitGrid::new(donor.width(), donor.height()).unwrap();
        for row in 0..donor.height() {
            for col in 0..donor.width() {
                mask.set(col, row, row < half || col < half);
            }
        }
        let fold = |grid: &BitGrid| {
            let tensor = DeepSquishTensor::fold(grid, channels).unwrap();
            tensor.bits().to_vec()
        };
        let frozen = FrozenRegion::new(fold(&mask), fold(donor)).unwrap();
        let specs = [
            base.clone().seed(1),
            base.clone()
                .seed(2)
                .conditioning(Conditioning::none().with_frozen(frozen)),
            base.clone()
                .seed(3)
                .conditioning(Conditioning::none().with_avoid(hotspot_guidance(&base.rules))),
        ];
        let engine = || Engine::new(model.sampler(), channels, side, 8, 0);

        // One claim takes all six lanes of the three requests.
        let all: Vec<&RequestSpec> = specs.iter().collect();
        let (mut together, requests) = run_one_chunk(&engine(), &model, &all);
        assert_eq!(requests, 3, "same-stride requests must share one chunk");
        assert_eq!(together.len(), 6);
        assert!(together.iter().all(|(_, payload, _)| payload.is_some()));

        // Each lane equals its request run alone.
        let mut alone: Vec<LaneResult> = specs
            .iter()
            .flat_map(|spec| run_one_chunk(&engine(), &model, &[spec]).0)
            .collect();
        alone.sort_by_key(|(key, _, _)| *key);
        together.sort_by_key(|(key, _, _)| *key);
        assert_eq!(together, alone);
    }
}
