//! The traced run: in-memory spans recorded around calls into each
//! layer from the benchmark's own code, engine load sampling, and the
//! replay that re-runs every delivered item through the public per-lane
//! chain to price each layer and prove it priced the same work.

use crate::gate::frozen_grid_kept;
use crate::host::{self, ms_since};
use crate::run::{Delivered, Outcome, Res, METHOD};
use diffpattern::diffusion::{BatchScratch, InferenceDenoiser};
use diffpattern::drc::check_pattern;
use diffpattern::geometry::bowtie;
use diffpattern::legalize::Init;
use diffpattern::library::{LibraryConfig, LibraryWriter};
use diffpattern::nn::Workspace;
use diffpattern::squish::{DeepSquishTensor, SquishPattern};
use diffpattern::{Generated, PatternService, Provenance, TrainedModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `legalize.solve`.
    pub name: &'static str,
    /// Request the work belongs to.
    pub request: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Start and end, µs since the tracer was created.
    pub start_us: f64,
    /// End, µs since the tracer was created (NaN while open).
    pub end_us: f64,
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span recorder shared by every thread of a traced run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.origin.elapsed().as_secs_f64() * 1e6;
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[self.index].end_us = end;
        }
        OPEN.with(|open| open.borrow_mut().pop());
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: host::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Opens a span; the innermost open span of this thread is its parent.
    pub fn span(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start = self.origin.elapsed().as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().expect("span log poisoned");
        let index = spans.len();
        spans.push(Span {
            name,
            request,
            parent,
            start_us: start,
            end_us: f64::NAN,
        });
        drop(spans);
        OPEN.with(|open| open.borrow_mut().push(index));
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Writes the span log as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name,
                s.request,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_us,
                s.end_us
            )?;
        }
        out.flush()
    }
}

/// Self time per span name, µs: each span's duration minus the time its
/// children cover (children of one span run on its thread, one after
/// another, so their durations add).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.end_us - s.start_us;
        }
    }
    let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_us) {
        let e = out.entry(s.name).or_default();
        e.0 += s.end_us - s.start_us - children;
        e.1 += 1;
    }
    out
}

/// One `PatternService::stats()` sample: time (s), queued lanes, lanes
/// in flight.
type Sample = (f64, usize, usize);

/// How often the engine's load is sampled while tracing.
const POLL_PERIOD: std::time::Duration = std::time::Duration::from_millis(10);

/// Periodic engine load samples.
#[derive(Debug, Default)]
pub struct Poller {
    samples: Vec<Sample>,
    origin: Option<Instant>,
    stop: Option<(Arc<AtomicBool>, std::thread::JoinHandle<Vec<Sample>>)>,
}

impl Poller {
    /// Samples `service` every [`POLL_PERIOD`] on a thread of its own.
    pub fn start(service: PatternService) -> Poller {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let origin = host::now();
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::SeqCst) {
                let s = service.stats();
                samples.push((
                    origin.elapsed().as_secs_f64(),
                    s.queued_lanes,
                    s.lanes_in_flight,
                ));
                std::thread::sleep(POLL_PERIOD);
            }
            samples
        });
        Poller {
            samples: Vec::new(),
            origin: Some(origin),
            stop: Some((stop, thread)),
        }
    }

    /// Stops the sampling thread and keeps its samples.
    pub fn stop(mut self) -> Poller {
        if let Some((flag, thread)) = self.stop.take() {
            flag.store(true, Ordering::SeqCst);
            self.samples = thread.join().expect("the stats poller panicked");
        }
        self
    }

    /// Takes a sample if [`POLL_PERIOD`] has passed since the last one
    /// (for a caller that polls on its own thread).
    pub fn sample(&mut self, service: &PatternService) {
        let origin = *self.origin.get_or_insert_with(host::now);
        let since = origin.elapsed().as_secs_f64() - self.samples.last().map_or(f64::MIN, |s| s.0);
        if since < POLL_PERIOD.as_secs_f64() {
            return;
        }
        let s = service.stats();
        self.samples.push((
            origin.elapsed().as_secs_f64(),
            s.queued_lanes,
            s.lanes_in_flight,
        ));
    }

    /// Time-weighted means of (queued lanes, lanes in flight).
    pub fn means(&self) -> (f64, f64) {
        let mut area = (0.0, 0.0);
        let mut span = 0.0;
        for w in self.samples.windows(2) {
            let dt = w[1].0 - w[0].0;
            area.0 += w[0].1 as f64 * dt;
            area.1 += w[0].2 as f64 * dt;
            span += dt;
        }
        if span > 0.0 {
            (area.0 / span, area.1 / span)
        } else {
            (0.0, 0.0)
        }
    }

    /// Integral of queued lanes over time, lane-seconds.
    pub fn queued_lane_seconds(&self) -> f64 {
        self.samples
            .windows(2)
            .map(|w| w[0].1 as f64 * (w[1].0 - w[0].0))
            .sum()
    }
}

/// The engine's per-item seed derivation (splitmix64 of request seed and
/// absolute item index), needed to rebuild lanes whose provenance the
/// transport does not expose (`LibrarySink` stores patterns only). The
/// replay checks it against `Provenance::seed` wherever that is visible.
pub fn lane_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A denoiser that times every batched U-Net call into the tracer.
struct TimedModel<'a> {
    model: &'a TrainedModel,
    tracer: &'a Tracer,
    request: u64,
}

impl InferenceDenoiser for TimedModel<'_> {
    fn infer_p1(&self, xks: &[DeepSquishTensor], ks: &[usize]) -> Vec<Vec<f64>> {
        let _s = self.tracer.span("nn.infer", self.request);
        self.model.infer_p1(xks, ks)
    }

    fn infer_p1_batch_into(
        &self,
        xks: &[DeepSquishTensor],
        k: usize,
        ws: &mut Workspace,
        out: &mut Vec<f64>,
    ) {
        let _s = self.tracer.span("nn.infer", self.request);
        self.model.infer_p1_batch_into(xks, k, ws, out);
    }
}

/// One lane being replayed.
struct Lane<'o> {
    index: usize,
    delivered: &'o Delivered,
    rng: StdRng,
    seed: u64,
    attempts: usize,
    result: Option<Generated>,
    done: bool,
}

/// What the replay found.
#[derive(Debug, Default)]
pub struct Replay {
    /// Lanes replayed (every delivered item).
    pub lanes: usize,
    /// Lanes whose replayed bytes differ from the delivered bytes.
    pub mismatches: usize,
    /// Delivered provenance seeds that differ from the derivation.
    pub seed_mismatches: usize,
    /// Sampling attempts replayed.
    pub attempts: usize,
    /// Attempts whose bow-ties were repaired.
    pub repaired: usize,
    /// Attempts the pre-filter rejected.
    pub rejected: usize,
    /// Solver calls and the ones that failed.
    pub solves: (usize, usize),
    /// Solver iterations of the successful solves.
    pub solve_iterations: usize,
    /// Batched U-Net calls and the lane-evaluations they carried.
    pub unet_calls: (usize, usize),
    /// DRC violations found on replayed patterns.
    pub drc_violations: usize,
    /// Codec bytes written for replayed items.
    pub codec_bytes: usize,
    /// Library checkpoint of the replay store, ms.
    pub checkpoint_ms: f64,
    /// Replay wall time, s.
    pub wall_s: f64,
}

/// Replays every delivered item of `out` through the public per-lane
/// chain on `threads` threads (GEMM threading off, as in a multi-worker
/// pool), in chunks of up to `micro_batch` consecutive lanes of one
/// request — the way the engine claims them.
pub fn replay(
    model: &TrainedModel,
    out: &Outcome,
    threads: usize,
    micro_batch: usize,
    tracer: &Tracer,
    work: &Path,
) -> Res<Replay> {
    let mut chunks: Vec<Vec<usize>> = Vec::new();
    let mut by_job: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, d) in out.delivered.iter().enumerate() {
        by_job.entry(d.job).or_default().push(i);
    }
    for (_, mut lanes) in by_job {
        lanes.sort_by_key(|&i| out.delivered[i].slot);
        chunks.extend(lanes.chunks(micro_batch).map(<[_]>::to_vec));
    }
    // Reversed so that `pop` hands chunks out in request order.
    chunks.reverse();
    let queue = Mutex::new(chunks);
    let t0 = host::now();
    let results: Vec<(Replay, Vec<(usize, Generated)>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    diffpattern::nn::with_inner_gemm_parallelism(false, || {
                        let mut stats = Replay::default();
                        let mut produced = Vec::new();
                        let mut scratch = BatchScratch::new();
                        loop {
                            let next = queue.lock().expect("replay queue poisoned").pop();
                            let Some(chunk) = next else { break };
                            replay_chunk(
                                model,
                                out,
                                &chunk,
                                tracer,
                                &mut scratch,
                                &mut stats,
                                &mut produced,
                            );
                        }
                        (stats, produced)
                    })
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a replay thread panicked"))
            .collect()
    });
    let mut total = Replay::default();
    let mut produced: Vec<(usize, Generated)> = Vec::new();
    for (r, p) in results {
        total.merge(&r);
        produced.extend(p);
    }
    total.wall_s = t0.elapsed().as_secs_f64();

    // Step 5 on one thread: DRC, codec and ingest, in the store's
    // required slot order.
    produced.sort_by_key(|(i, g)| (out.delivered[*i].job, g.provenance.index));
    let dir = work.join("replay-library");
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    let mut writer = LibraryWriter::open(&dir, LibraryConfig::default())?;
    let mut next_slot: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, g) in &produced {
        let d = &out.delivered[*i];
        let job = &out.jobs[d.job];
        {
            let _s = tracer.span("drc.check", job.id);
            total.drc_violations += check_pattern(&g.pattern, &job.spec.rules)
                .violations()
                .len();
        }
        let bytes = {
            let _s = tracer.span("serve.codec", job.id);
            dp_serve::proto::item_to_json(g).to_string()
        };
        total.codec_bytes += bytes.len() + 1;
        let matches = match &d.item {
            Some(item) => bytes == dp_serve::proto::item_to_json(item).to_string(),
            None => g.pattern == d.pattern,
        };
        if !matches {
            total.mismatches += 1;
        }
        let bucket = format!("{}-{}", job.preset, job.id);
        let cursor = next_slot.entry(d.job).or_insert(0);
        writer.open_bucket(METHOD, &bucket, 0)?;
        // Shortfall gaps before this slot are skips, as LibrarySink records them.
        while *cursor < g.provenance.index as u64 {
            writer.record_skip(METHOD, &bucket)?;
            *cursor += 1;
        }
        {
            let _s = tracer.span("library.ingest", job.id);
            writer.ingest(METHOD, &bucket, *cursor, &g.pattern, true)?;
        }
        *cursor += 1;
    }
    let t_ck = host::now();
    {
        let _s = tracer.span("library.checkpoint", 0);
        writer.checkpoint()?;
    }
    total.checkpoint_ms = ms_since(t_ck);
    drop(writer);
    std::fs::remove_dir_all(&dir)?;
    total.lanes = produced.len();
    total.mismatches += out.delivered.len() - produced.len();
    Ok(total)
}

impl Replay {
    fn merge(&mut self, o: &Replay) {
        self.mismatches += o.mismatches;
        self.seed_mismatches += o.seed_mismatches;
        self.attempts += o.attempts;
        self.repaired += o.repaired;
        self.rejected += o.rejected;
        self.solves.0 += o.solves.0;
        self.solves.1 += o.solves.1;
        self.solve_iterations += o.solve_iterations;
        self.unet_calls.0 += o.unet_calls.0;
        self.unet_calls.1 += o.unet_calls.1;
    }
}

/// Steps 1-4 for one chunk: rebuild each lane's RNG, then per round
/// sample all active lanes together and run each through unfold, the
/// bow-tie filter, the donor pick, the solve and pattern assembly.
fn replay_chunk(
    model: &TrainedModel,
    out: &Outcome,
    chunk: &[usize],
    tracer: &Tracer,
    scratch: &mut BatchScratch,
    stats: &mut Replay,
    produced: &mut Vec<(usize, Generated)>,
) {
    let job = &out.jobs[out.delivered[chunk[0]].job];
    let spec = &job.spec;
    let sampler = model.sampler();
    let retained = sampler.strided_steps(spec.sample_stride);
    let (channels, side) = (model.channels(), model.side());
    let solver = diffpattern::legalize::Solver::new(spec.rules, spec.solver);
    let timed = TimedModel {
        model,
        tracer,
        request: job.id,
    };
    let mut lanes: Vec<Lane> = chunk
        .iter()
        .map(|&index| {
            let d = &out.delivered[index];
            let derived = lane_seed(spec.seed, spec.first_index + d.slot);
            let seed = d.item.as_ref().map_or(derived, |g| g.provenance.seed);
            if seed != derived {
                stats.seed_mismatches += 1;
            }
            Lane {
                index,
                delivered: d,
                rng: StdRng::seed_from_u64(seed),
                seed,
                attempts: 0,
                result: None,
                done: false,
            }
        })
        .collect();
    let _chunk_span = tracer.span("replay.chunk", job.id);
    while lanes.iter().any(|l| !l.done) {
        let mut rngs: Vec<&mut StdRng> = lanes
            .iter_mut()
            .filter(|l| !l.done)
            .map(|l| &mut l.rng)
            .collect();
        let width = rngs.len();
        let tensors = {
            let _s = tracer.span("diffusion.sample", job.id);
            sampler.sample_conditioned_batch_with(
                &timed,
                channels,
                side,
                &retained,
                &spec.conditioning,
                &mut rngs,
                scratch,
            )
        };
        drop(rngs);
        stats.unet_calls.0 += retained.len();
        stats.unet_calls.1 += retained.len() * width;
        for (lane, tensor) in lanes.iter_mut().filter(|l| !l.done).zip(tensors) {
            lane.attempts += 1;
            stats.attempts += 1;
            let filtered = {
                let _s = tracer.span("geometry.prefilter", job.id);
                let mut grid = tensor.unfold();
                if bowtie::is_bowtie_free(&grid) {
                    Some((grid, false))
                } else if spec.repair_bowties {
                    bowtie::repair_bowties(&mut grid);
                    spec.conditioning
                        .frozen()
                        .is_none_or(|r| frozen_grid_kept(&grid, r, channels))
                        .then_some((grid, true))
                } else {
                    None
                }
            };
            match &filtered {
                Some((_, true)) => stats.repaired += 1,
                None => stats.rejected += 1,
                _ => {}
            }
            if let Some((grid, repaired)) = filtered {
                let solved = {
                    let _s = tracer.span("legalize.solve", job.id);
                    let donor = (!spec.donors.is_empty())
                        .then(|| &spec.donors[lane.rng.gen_range(0..spec.donors.len())]);
                    match donor {
                        Some(d) => {
                            solver.solve(&grid, Init::Existing(d.dx(), d.dy()), &mut lane.rng)
                        }
                        None => solver.solve(&grid, Init::Random, &mut lane.rng),
                    }
                };
                stats.solves.0 += 1;
                match solved {
                    Ok(solution) => {
                        let _s = tracer.span("squish.assemble", job.id);
                        stats.solve_iterations += solution.stats.iterations;
                        if let Ok(pattern) = SquishPattern::new(grid, solution.dx, solution.dy) {
                            lane.result = Some(Generated {
                                pattern,
                                provenance: Provenance {
                                    index: lane.delivered.slot,
                                    seed: lane.seed,
                                    attempts: lane.attempts,
                                    repaired,
                                    solve: solution.stats,
                                },
                            });
                        }
                        lane.done = true;
                        continue;
                    }
                    Err(_) => stats.solves.1 += 1,
                }
            }
            if lane.attempts >= spec.max_attempts {
                lane.done = true;
            }
        }
    }
    for lane in lanes {
        if let Some(g) = lane.result {
            produced.push((lane.index, g));
        }
    }
}

/// Times `UNet::infer` on a warm workspace at batch width `batch`:
/// median ms per call over `calls` calls.
pub fn unet_call_ms(model: &TrainedModel, batch: usize, calls: usize) -> f64 {
    let unet = model.denoiser().unet();
    let (c, side) = (model.channels(), model.side());
    let mut rng = StdRng::seed_from_u64(batch as u64);
    let data: Vec<f32> = (0..batch * c * side * side)
        .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
        .collect();
    let input = diffpattern::nn::Tensor::from_vec(&[batch, c, side, side], data);
    let steps = vec![model.schedule().steps() / 2; batch];
    let mut ws = Workspace::new();
    let warm = unet.infer(&input, &steps, &mut ws);
    ws.recycle(warm);
    let mut times = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t = host::now();
        let out = unet.infer(std::hint::black_box(&input), &steps, &mut ws);
        times.push(ms_since(t));
        ws.recycle(std::hint::black_box(out));
    }
    crate::stats::median(&times).unwrap_or(0.0)
}

/// Mean of a per-name self time in µs per span, 0 when absent.
pub fn us_per(selfs: &BTreeMap<&'static str, (f64, usize)>, name: &str) -> f64 {
    selfs.get(name).map_or(0.0, |&(us, n)| us / n.max(1) as f64)
}

/// Total self time of a span name, s.
pub fn total_s(selfs: &BTreeMap<&'static str, (f64, usize)>, name: &str) -> f64 {
    selfs.get(name).map_or(0.0, |&(us, _)| us / 1e6)
}
