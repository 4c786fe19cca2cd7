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
pub(crate) enum Payload {
    /// A fully legalized pattern with provenance.
    Pattern(Generated),
    /// A pre-filtered topology (no legalization), tagged with its index.
    Topology(usize, BitGrid),
}

/// One completed lane: the statistics delta it accumulated plus its
/// outcome. `Ok(None)` means the lane exhausted its attempt budget —
/// shortfall, accounted by the receiver.
pub(crate) struct LaneMsg {
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
    /// Reverse-sampling stride; with the conditioning hash it forms the
    /// [`LanePlan`] key: lanes may share a lock-step micro-batch only when
    /// they traverse the same denoising step sequence under the same
    /// constraints.
    pub(crate) stride: usize,
    /// The retained denoising steps for `stride` (precomputed once).
    pub(crate) retained: Arc<[usize]>,
    /// Per-lane sampling constraints (frozen region, motif guidance) —
    /// every lane of the request samples under the same conditioning.
    /// [`Conditioning::none`] is the unconditioned path and draws the
    /// exact random sequence the pre-conditioning sampler drew.
    pub(crate) conditioning: Arc<Conditioning>,
    /// [`Conditioning::plan_hash`] of `conditioning`, precomputed at
    /// submit: the second component of the micro-batch plan key (lanes
    /// only share a lock-step batch when their conditioning matches).
    pub(crate) cond_hash: u64,
    pub(crate) max_attempts: usize,
    pub(crate) repair_bowties: bool,
    pub(crate) solver: Solver,
    pub(crate) donors: Arc<[SquishPattern]>,
    /// Absolute deadline. Lanes not delivered by this instant are
    /// converted to shortfall: unclaimed lanes at claim time, in-flight
    /// lanes between denoising rounds. `None` never expires.
    pub(crate) deadline: Option<Instant>,
}

/// The micro-batch *plan key*: the sampling parameters every lane of a
/// lock-step chunk must agree on. The stride decides which denoising
/// steps run; the conditioning hash keeps differently-constrained lanes
/// out of each other's batches (the batched sampler applies one
/// [`Conditioning`] to the whole chunk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LanePlan {
    stride: usize,
    cond_hash: u64,
}

impl LanePlan {
    fn of(job: &RequestJob) -> Self {
        LanePlan {
            stride: job.stride,
            cond_hash: job.cond_hash,
        }
    }
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

    /// Admits a request. The returned receiver yields one [`LaneMsg`] per
    /// requested item and disconnects when the last lane has been
    /// delivered (or the engine shuts down / the request is cancelled
    /// before its lanes are claimed). A zero-count request disconnects
    /// immediately.
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
    /// shortfall: each unclaimed lane gets an `Ok(None)` message (counted
    /// by the receiver exactly like an exhausted attempt budget) and the
    /// entry leaves the queue. Returns the nearest *future* deadline among
    /// the survivors, so parked workers know how long they may sleep.
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
            for _ in p.next_lane..p.req.job.count {
                let _ = p.req.tx.send(LaneMsg {
                    delta: PipelineReport::default(),
                    payload: Ok(None),
                });
            }
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
    /// heart of the service). All claimed lanes share one [`LanePlan`]
    /// (stride and conditioning); requests on a different plan wait for
    /// their own batch.
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
            let mut plan = LanePlan {
                stride: 0,
                cond_hash: 0,
            };
            let mut i = 0;
            while i < sched.queue.len() && lanes.len() < self.micro_batch {
                let pending = &mut sched.queue[i];
                if lanes.is_empty() {
                    plan = LanePlan::of(&pending.req.job);
                } else if LanePlan::of(&pending.req.job) != plan {
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
    /// U-Net evaluation per denoising step for the whole round); each lane
    /// then runs its request's bow-tie pre-filter and — when the sample
    /// survives — its finish stage (donor pick + solve for
    /// [`Mode::Generate`], a no-op for [`Mode::TopologyOnly`]) on its own
    /// RNG. Lanes leave the round set on success, error or a spent attempt
    /// budget, so a chunk's denoising batch only ever shrinks.
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
            // All active lanes share one plan (claim's invariant), so the
            // first active lane's retained steps and conditioning describe
            // the whole round. `retained` is the full `1..=K` chain for
            // stride 1 and the respaced subset otherwise.
            let Some(plan) = lanes.iter().find(|l| l.active).map(|l| {
                (
                    Arc::clone(&l.req.job.retained),
                    Arc::clone(&l.req.job.conditioning),
                )
            }) else {
                return;
            };
            let (retained, conditioning) = plan;

            let mut rngs: Vec<&mut rand::rngs::StdRng> = lanes
                .iter_mut()
                .filter(|l| l.active)
                .map(|l| &mut l.rng)
                .collect();
            let tensors = self.sampler.sample_conditioned_batch_with(
                model,
                channels,
                side,
                &retained,
                &conditioning,
                &mut rngs,
                scratch,
            );
            drop(rngs);

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
    let Ok(tensor) = DeepSquishTensor::fold(grid, channels) else {
        return false;
    };
    region
        .mask()
        .iter()
        .zip(region.bits().iter().zip(tensor.bits()))
        .all(|(&frozen, (&want, &got))| !frozen || want == got)
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

    #[test]
    fn item_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|i| item_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(item_seed(1, 0), item_seed(2, 0));
    }
}
