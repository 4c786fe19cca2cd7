//! Set-up of the shipped profile and the three workloads, run against
//! the program's public API.

use crate::gate::{Digest, Tally};
use crate::host::{self, ms_since};
use crate::load::{self, OpenLoop};
use crate::spec::{self, Inputs, Job, Kind};
use crate::trace::{Poller, Tracer};
use diffpattern::library::{DiversityMeter, LibraryConfig, LibraryWriter};
use diffpattern::squish::{complexity_of_grid, SquishPattern};
use diffpattern::{
    Generated, LibrarySink, PatternService, Pipeline, PipelineConfig, PipelineReport, RecvPoll,
    RequestHandle, RequestSpec,
};
use dp_serve::{serve, Client, ClientError, ServeConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result type of the runners.
pub type Res<T> = Result<T, Box<dyn Error + Send + Sync>>;

/// Seed of the fixed training run every set-up repeats.
pub const TRAIN_SEED: u64 = 7;
/// Training iterations of the fixed training run.
pub const TRAIN_ITERS: usize = 30;
/// Library bucket method name, as `dpgen library build` writes it.
pub const METHOD: &str = "diffpattern";

/// Interactive requests per second of `--seconds` in `bulk_contention`
/// (the run's request count; the pace comes from the measured capacity).
pub const INTERACTIVE_PER_SECOND: f64 = 5.0;

/// Solo count-1 requests timed on the idle pool to measure its capacity.
pub const CAPACITY_PROBES: usize = 9;

/// Requests per connection whose outputs `serve_wire` digests.
pub const WIRE_DIGEST_REQUESTS: u64 = 20;

/// Latency limit for `on_time_share`, per workload: a library slot must
/// be stored, a wire request or an interactive request must finish,
/// within it.
pub fn latency_limit_ms(workload: &str) -> f64 {
    match workload {
        "library_build" => 30_000.0,
        "serve_wire" => 3_000.0,
        _ => 7_000.0,
    }
}

/// Everything a workload runs against: the service over the frozen
/// shipped-profile model, its optional loopback server and clients, and
/// the generator inputs.
pub struct Stack {
    /// Generator inputs derived from the trained pipeline.
    pub inputs: Inputs,
    /// The in-process service (`threads(0)`, `micro_batch(8)`).
    pub service: PatternService,
    /// Loopback `dpserve` server, for `serve_wire`.
    pub server: Option<ServerHandle>,
    /// One keep-alive client per worker, for `serve_wire`.
    pub clients: Vec<Client>,
    /// Mean wall time of one training iteration, ms.
    pub train_iter_ms: f64,
    /// FNV-1a of the frozen model blob.
    pub model_digest: u64,
}

/// Builds the dataset, runs the fixed training, freezes the model and
/// starts the service (and, with `wire`, the server and its clients).
pub fn setup(wire: bool) -> Res<Stack> {
    let mut rng = StdRng::seed_from_u64(TRAIN_SEED);
    let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::default(), &mut rng)?;
    let t = host::now();
    pipeline.train(TRAIN_ITERS, &mut rng)?;
    let train_iter_ms = ms_since(t) / TRAIN_ITERS as f64;
    let base = pipeline.request_spec(0);
    let topologies: Arc<[_]> = pipeline
        .dataset()
        .extended
        .iter()
        .map(|p| p.topology().clone())
        .collect();
    let model = pipeline.into_trained_model()?;
    let model_digest =
        diffpattern::library::codec::fnv1a(diffpattern::library::codec::FNV_OFFSET, &model.save());
    let channels = model.channels();
    let service = PatternService::builder(Arc::new(model)).build()?;
    let (server, clients) = if wire {
        let server = serve(service.clone(), "127.0.0.1:0", ServeConfig::default())?;
        let clients = (0..service.threads())
            .map(|_| Client::connect(server.addr()))
            .collect::<Result<_, _>>()?;
        (Some(server), clients)
    } else {
        (None, Vec::new())
    };
    Ok(Stack {
        inputs: Inputs {
            base,
            topologies,
            channels,
        },
        service,
        server,
        clients,
        train_iter_ms,
        model_digest,
    })
}

/// One delivered pattern, kept for the gate, the digest and the replay.
#[derive(Debug, Clone)]
pub struct Delivered {
    /// Index into [`Outcome::jobs`].
    pub job: usize,
    /// Slot within the request.
    pub slot: usize,
    /// The pattern as delivered (read back from the store for
    /// `library_build`).
    pub pattern: SquishPattern,
    /// The streamed item, where the transport exposes provenance.
    pub item: Option<Generated>,
}

/// What one measured phase produced.
#[derive(Default)]
pub struct Outcome {
    /// Every request submitted, in submission order.
    pub jobs: Vec<Job>,
    /// Failure accounting.
    pub tally: Tally,
    /// Output digest.
    pub digest: Digest,
    /// Delivered patterns of the digested work (the first round for
    /// `library_build`, everything otherwise).
    pub delivered: Vec<Delivered>,
    /// Wall time of the measured phase, s.
    pub wall_s: f64,
    /// Wall time of each library round, s.
    pub round_walls: Vec<f64>,
    /// Patterns counted by `patterns_per_s` and the seconds they took.
    pub throughput: (u64, f64),
    /// Latency samples, ms: per requested slot until it settled (stored
    /// or skipped as shortfall) for `library_build`, per request
    /// otherwise.
    pub latencies_ms: Vec<f64>,
    /// Request latencies by kind and count, ms (requests that completed).
    pub kind_ms: Vec<(Kind, usize, f64)>,
    /// Units within the latency limit, and units attempted.
    pub on_time: (u64, u64),
    /// Generator lateness: how late a request went out against its due
    /// time (open loop) or against the previous reply (closed loop), ms.
    pub lateness_ms: Vec<f64>,
    /// Merged engine reports, where the transport exposes them.
    pub report: PipelineReport,
    /// Library checkpoint times, ms.
    pub checkpoint_ms: Vec<f64>,
    /// Rounds run (`library_build`) and whether every round reproduced
    /// the first one's bytes.
    pub rounds: (usize, bool),
    /// Engine load samples taken while tracing.
    pub poller: Poller,
    /// `bulk_contention`: the idle pool's measured count-1 capacity, 1/s.
    pub capacity_per_s: f64,
}

impl Outcome {
    /// Definition-1 entropy of the digested deliveries, bits.
    pub fn diversity_bits(&self) -> f64 {
        let mut meter = DiversityMeter::new();
        for d in &self.delivered {
            let (cx, cy) = complexity_of_grid(d.pattern.topology());
            meter.add(cx, cy);
        }
        meter.diversity()
    }

    /// Gate-checks a delivered pattern of `jobs[job]` and keeps it.
    fn deliver(
        &mut self,
        job: usize,
        slot: usize,
        pattern: SquishPattern,
        item: Option<Generated>,
    ) {
        let j = &self.jobs[job];
        let bytes = match &item {
            Some(g) => dp_serve::proto::item_to_json(g).to_string(),
            None => dp_serve::proto::pattern_to_json(&pattern).to_string(),
        };
        self.digest.add(j.id, slot, bytes);
        self.delivered.push(Delivered {
            job,
            slot,
            pattern,
            item,
        });
    }

    /// Runs the gate over every kept delivery.
    fn gate(&mut self, channels: usize) {
        for d in &self.delivered {
            let j = &self.jobs[d.job];
            self.tally
                .check(&d.pattern, &j.spec.rules, j.frozen(), channels);
        }
    }
}

/// `library_build`: the three preset requests submitted together and
/// drained through `LibrarySink` into a fresh store, checkpointed at the
/// end; repeated with the same specs until `seconds` have passed.
pub fn library_build(
    stack: &Stack,
    seed: u64,
    seconds: f64,
    work: &Path,
    tracer: Option<&Tracer>,
) -> Res<Outcome> {
    let mut out = Outcome {
        jobs: spec::library_jobs(&stack.inputs, seed),
        ..Outcome::default()
    };
    let limit = latency_limit_ms("library_build");
    let start = host::now();
    let poll = tracer.map(|_| Poller::start(stack.service.clone()));
    let mut first_digest = None;
    let mut stable = true;
    let mut rounds = 0;
    let mut delivered_total = 0u64;
    // Start another round only while it is expected to end before
    // `seconds` plus half a round, so a run measures whole rounds and
    // overshoots its budget by less than half of one.
    while rounds == 0 || start.elapsed().as_secs_f64() + 0.5 * out.wall_s / rounds as f64 <= seconds
    {
        let dir = work.join(format!("library-{rounds}"));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        let mut writer = LibraryWriter::open(
            &dir,
            LibraryConfig {
                timestamp_override: Some("perfbench".to_string()),
                ..LibraryConfig::default()
            },
        )?;
        let t0 = host::now();
        let mut handles = Vec::new();
        for (i, job) in out.jobs.iter().enumerate() {
            writer.open_bucket(METHOD, job.preset, 0)?;
            let _span = tracer.map(|t| t.span("service.submit", job.id));
            match stack.service.submit(&job.spec) {
                Ok(handle) => handles.push((i, handle)),
                Err(_) => out.tally.refused(job.spec.count),
            }
        }
        let mut settled = Vec::new();
        let mut on_time = 0;
        for (i, handle) in handles {
            let job = &out.jobs[i];
            let _span = tracer.map(|t| t.span("library.drain", job.id));
            let mut sink = LibrarySink::new(&mut writer, METHOD, job.preset);
            // Every slot settles once: stored, deduplicated or skipped as
            // shortfall. Only stored slots can be on time.
            let mut skipped = 0;
            let drained = sink.drain_with(handle, |r| {
                let ms = ms_since(t0);
                settled.push(ms);
                if r.skipped == skipped && ms <= limit {
                    on_time += 1;
                }
                skipped = r.skipped;
            });
            match drained {
                Ok(r) => out.tally.completed(job.spec.count, r.skipped as usize),
                Err(_) => out.tally.errored(job.spec.count),
            }
        }
        let t_ck = host::now();
        {
            let _span = tracer.map(|t| t.span("library.checkpoint", 0));
            writer.checkpoint()?;
        }
        out.checkpoint_ms.push(ms_since(t_ck));
        let round_s = t0.elapsed().as_secs_f64();
        out.on_time.0 += on_time;
        out.on_time.1 += out.jobs.iter().map(|j| j.spec.count as u64).sum::<u64>();
        out.latencies_ms.extend(settled);

        // Read the store back: what the gate checks is what was persisted.
        let mut round = Digest::default();
        let mut scratch = Vec::new();
        let lib = writer.library();
        for (i, job) in out.jobs.iter().enumerate() {
            for r in lib.records(METHOD, job.preset).unwrap_or(&[]) {
                let record = lib.read(r, &mut scratch)?;
                let slot = usize::try_from(record.source_index)?;
                delivered_total += 1;
                round.add(
                    job.id,
                    slot,
                    dp_serve::proto::pattern_to_json(&record.pattern).to_string(),
                );
                if rounds == 0 {
                    out.delivered.push(Delivered {
                        job: i,
                        slot,
                        pattern: record.pattern,
                        item: None,
                    });
                }
            }
        }
        match first_digest {
            None => first_digest = Some(round),
            Some(ref first) => stable &= first.value() == round.value(),
        }
        drop(writer);
        std::fs::remove_dir_all(&dir)?;
        out.wall_s += round_s;
        out.round_walls.push(round_s);
        rounds += 1;
    }
    out.poller = poll.map(Poller::stop).unwrap_or_default();
    out.digest = first_digest.unwrap_or_default();
    out.throughput = (delivered_total, out.wall_s);
    out.rounds = (rounds, stable);
    out.gate(stack.inputs.channels);
    Ok(out)
}

/// `serve_wire`: one closed loop per keep-alive connection, each sending
/// its seeded sequence of small requests back to back until `seconds`
/// have passed.
pub fn serve_wire(
    stack: &mut Stack,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Res<Outcome> {
    let inputs = stack.inputs.clone();
    // Far more requests than a connection completes in a run.
    let mut sequences: Vec<Vec<Job>> = (0..stack.clients.len() as u64)
        .map(|c| spec::wire_jobs(&inputs, seed, c, 1_000))
        .collect();
    let poll = tracer.map(|_| Poller::start(stack.service.clone()));
    let start = host::now();
    // Per connection: (job, reply, latency ms, gap since previous reply ms).
    type Sent = (Job, Result<dp_serve::WireOutcome, ClientError>, f64, f64);
    let results: Vec<Vec<Sent>> = std::thread::scope(|scope| {
        let workers: Vec<_> = stack
            .clients
            .iter_mut()
            .zip(sequences.drain(..))
            .map(|(client, jobs)| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut last_reply = start;
                    for job in jobs {
                        if start.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        let t = host::now();
                        let gap = t.duration_since(last_reply).as_secs_f64() * 1e3;
                        let reply = {
                            let _span = tracer.map(|tr| tr.span("serve.request", job.id));
                            client.generate(&job.spec)
                        };
                        last_reply = host::now();
                        let latency = last_reply.duration_since(t).as_secs_f64() * 1e3;
                        done.push((job, reply, latency, gap));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut out = Outcome {
        wall_s,
        poller: poll.map(Poller::stop).unwrap_or_default(),
        ..Outcome::default()
    };
    let limit = latency_limit_ms("serve_wire");
    for (job, reply, latency, gap) in results.into_iter().flatten() {
        let count = job.spec.count;
        let i = out.jobs.len();
        out.jobs.push(job);
        out.lateness_ms.push(gap);
        out.on_time.1 += 1;
        match reply {
            Ok(wire) if wire.error.is_none() => {
                out.tally.completed(count, wire.report.shortfall);
                out.report.merge(&wire.report);
                out.latencies_ms.push(latency);
                out.kind_ms.push((out.jobs[i].kind, count, latency));
                if latency <= limit {
                    out.on_time.0 += 1;
                }
                for item in wire.items {
                    out.deliver(i, item.provenance.index, item.pattern.clone(), Some(item));
                }
            }
            Ok(_) => out.tally.errored(count),
            Err(ClientError::Rejected { .. }) => out.tally.refused(count),
            Err(_) => out.tally.errored(count),
        }
    }
    // A time-bounded loop completes a varying number of requests; the
    // digest covers a prefix every run of one seed completes.
    out.digest
        .retain_requests(|id| id & 0xFFFF_FFFF < WIRE_DIGEST_REQUESTS);
    out.throughput = (out.delivered.len() as u64, wall_s);
    out.rounds = (1, true);
    out.gate(inputs.channels);
    Ok(out)
}

/// An interactive request the generator is still polling.
struct Pending {
    job: usize,
    due: Instant,
    handle: RequestHandle,
    items: Vec<Generated>,
}

/// `bulk_contention`: one generator thread submits a bulk request at 0
/// and count-1 requests on the seeded schedule, polling every handle
/// with `recv_timeout`. Latency runs from each request's due time.
pub fn bulk_contention(
    stack: &Stack,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Res<Outcome> {
    // Pace: half the idle pool's count-1 capacity, measured now as
    // workers over the median solo latency of the run's first requests.
    // A slower or faster host keeps the same relative load.
    let count = (seconds * INTERACTIVE_PER_SECOND).round() as usize;
    let (_, probes) = spec::contention_jobs(&stack.inputs, seed, CAPACITY_PROBES, Duration::ZERO);
    let mut solo_ms = Vec::with_capacity(CAPACITY_PROBES);
    for probe in &probes {
        let t = host::now();
        stack.service.generate(&probe.job.spec)?;
        solo_ms.push(ms_since(t));
    }
    let solo_ms = crate::stats::median(&solo_ms).unwrap_or(0.0);
    let period = Duration::from_secs_f64(2.0 * solo_ms / 1e3 / stack.service.threads() as f64);
    let (bulk, arrivals) = spec::contention_jobs(&stack.inputs, seed, count, period);
    let mut out = Outcome {
        capacity_per_s: 1e3 * stack.service.threads() as f64 / solo_ms,
        ..Outcome::default()
    };
    let limit = latency_limit_ms("bulk_contention");
    let mut poller = tracer.map(|_| Poller::default());
    let start = host::now();
    out.jobs.push(bulk);
    let mut bulk_handle = Some(stack.service.submit(&out.jobs[0].spec)?);
    let mut bulk_items: Vec<Generated> = Vec::new();
    let mut bulk_done_s = 0.0;
    let mut pending: Vec<Pending> = Vec::new();
    let mut clock = OpenLoop::new(start, arrivals.iter().map(|a| a.due).collect());
    let mut finished: Vec<(usize, RequestHandle, Vec<Generated>, f64)> = Vec::new();
    loop {
        for r in clock.release(host::now()) {
            out.lateness_ms.push(r.lateness_ms);
            let i = out.jobs.len();
            out.jobs.push(arrivals[r.index].job.clone());
            let _span = tracer.map(|t| t.span("service.submit", out.jobs[i].id));
            match stack.service.submit(&out.jobs[i].spec) {
                Ok(handle) => pending.push(Pending {
                    job: i,
                    due: r.due,
                    handle,
                    items: Vec::new(),
                }),
                Err(_) => {
                    out.tally.refused(1);
                    out.on_time.1 += 1;
                }
            }
        }
        // Poll: wait on the oldest interactive request until the next
        // arrival is due (at most 2 ms), sweep the rest without waiting.
        let tick = Duration::from_millis(2);
        let mut timeout = clock.until_next(host::now()).map_or(tick, |d| d.min(tick));
        let mut k = 0;
        while k < pending.len() {
            let p = &mut pending[k];
            let done = loop {
                match p.handle.recv_timeout(timeout) {
                    RecvPoll::Item(g) => p.items.push(g),
                    RecvPoll::Finished => break true,
                    RecvPoll::TimedOut => break false,
                }
            };
            timeout = Duration::ZERO;
            if done {
                let p = pending.swap_remove(k);
                let latency = load::latency_ms(p.due, host::now());
                finished.push((p.job, p.handle, p.items, latency));
            } else {
                k += 1;
            }
        }
        if let Some(h) = bulk_handle.as_mut() {
            let done = loop {
                match h.recv_timeout(timeout) {
                    RecvPoll::Item(g) => bulk_items.push(g),
                    RecvPoll::Finished => break true,
                    RecvPoll::TimedOut => break false,
                }
            };
            if done {
                bulk_done_s = start.elapsed().as_secs_f64();
                let report = h.report();
                out.report.merge(&report);
                match h.error() {
                    None => out
                        .tally
                        .completed(out.jobs[0].spec.count, report.shortfall),
                    Some(_) => out.tally.errored(out.jobs[0].spec.count),
                }
                bulk_handle = None;
            }
        }
        if pending.is_empty() && bulk_handle.is_none() {
            // Nothing to poll: sleep until the next arrival is due.
            std::thread::sleep(timeout);
        }
        if let Some(p) = poller.as_mut() {
            p.sample(&stack.service);
        }
        if clock.until_next(host::now()).is_none() && pending.is_empty() && bulk_handle.is_none() {
            break;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    for g in std::mem::take(&mut bulk_items) {
        out.deliver(0, g.provenance.index, g.pattern.clone(), Some(g));
    }
    out.throughput = (out.delivered.len() as u64, bulk_done_s);
    for (job, handle, items, latency) in finished {
        let report = handle.report();
        out.report.merge(&report);
        out.on_time.1 += 1;
        match handle.error() {
            None => {
                out.tally.completed(1, report.shortfall);
                out.latencies_ms.push(latency);
                out.kind_ms.push((Kind::Plain, 1, latency));
                if latency <= limit {
                    out.on_time.0 += 1;
                }
            }
            Some(_) => out.tally.errored(1),
        }
        for g in items {
            out.deliver(job, g.provenance.index, g.pattern.clone(), Some(g));
        }
    }
    out.poller = poller.unwrap_or_default();
    out.rounds = (1, true);
    out.gate(stack.inputs.channels);
    Ok(out)
}

/// `serve.wire_overhead_ms`: one stride-10, count-2 spec run in-process
/// and over loopback `dpserve` on the idle pool, five times each; the
/// median latency difference, and whether the wire delivered the same
/// item bytes as in-process generation.
pub fn wire_overhead(stack: &mut Stack, seed: u64) -> Res<(f64, bool)> {
    if stack.server.is_none() {
        let server = serve(stack.service.clone(), "127.0.0.1:0", ServeConfig::default())?;
        stack.clients = vec![Client::connect(server.addr())?];
        stack.server = Some(server);
    }
    let spec = RequestSpec {
        count: 2,
        sample_stride: 10,
        ..stack.inputs.base.clone()
    }
    .seed(seed ^ 0x0E7E_0000);
    let encode = |items: &[Generated]| {
        let mut lines: Vec<(usize, String)> = items
            .iter()
            .map(|g| {
                (
                    g.provenance.index,
                    dp_serve::proto::item_to_json(g).to_string(),
                )
            })
            .collect();
        lines.sort();
        lines
    };
    // One warm-up each way, then five pairs in alternating order.
    let reference = encode(&stack.service.generate(&spec)?.items);
    let mut identical = encode(&stack.clients[0].generate(&spec)?.items) == reference;
    let (mut local, mut remote) = (Vec::new(), Vec::new());
    for rep in 0..5 {
        for wire in [rep % 2 == 0, rep % 2 == 1] {
            let t = host::now();
            let items = if wire {
                stack.clients[0].generate(&spec)?.items
            } else {
                stack.service.generate(&spec)?.items
            };
            if wire { &mut remote } else { &mut local }.push(ms_since(t));
            identical &= encode(&items) == reference;
        }
    }
    let median = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    Ok((median(&remote) - median(&local), identical))
}
