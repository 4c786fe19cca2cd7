//! Protocol conformance and fault-injection tests for `dpserve`, the
//! network front-end over [`PatternService`].
//!
//! The suite pins the three serving contracts end to end over real
//! sockets:
//!
//! 1. **transparency** — a spec submitted over the wire produces items
//!    byte-identical to the same spec through the in-process API;
//! 2. **robustness** — malformed JSON, unknown fields, invalid specs,
//!    oversized bodies and raw garbage get structured error responses
//!    with the right status code, and never wedge the server;
//! 3. **lifecycle** — client disconnects cancel the request's remaining
//!    lanes (visible in `/metrics`), deadlines convert undelivered
//!    items to accounted shortfall, and admission bounds answer 429.

use diffpattern::drc::DesignRules;
use diffpattern::geometry::BitGrid;
use diffpattern::legalize::{SolveStats, SolverConfig};
use diffpattern::library::{Library, LibraryConfig};
use diffpattern::squish::{DeepSquishTensor, SquishPattern};
use diffpattern::{
    Conditioning, FrozenRegion, Generated, Motif, MotifGuidance, PatternService, Pipeline,
    PipelineConfig, Provenance, RequestSpec, TrainedModel,
};
use dp_serve::http::Conn;
use dp_serve::json::{self, Json};
use dp_serve::{serve, Client, ClientError, ServeConfig, ServeLibrary, ServerHandle};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One trained tiny model plus the pipeline-derived base spec.
fn trained(seed: u64, iters: usize) -> (Arc<TrainedModel>, RequestSpec) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::tiny(), &mut rng).unwrap();
    let _ = pipeline.train(iters, &mut rng).unwrap();
    let model = Arc::new(pipeline.trained_model().unwrap());
    let spec = pipeline.request_spec(0);
    (model, spec)
}

/// Starts a server over a fresh service; returns the handle plus a
/// clone of the service for in-process comparison and live stats.
fn start(
    model: &Arc<TrainedModel>,
    threads: usize,
    micro_batch: usize,
    max_queued: usize,
    config: ServeConfig,
) -> (ServerHandle, PatternService) {
    let service = PatternService::builder(Arc::clone(model))
        .threads(threads)
        .micro_batch(micro_batch)
        .max_queued_requests(max_queued)
        .build()
        .unwrap();
    let server = serve(service.clone(), "127.0.0.1:0", config).unwrap();
    (server, service)
}

fn client(server: &ServerHandle) -> Client {
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    client
}

// ---------------------------------------------------------------------
// Transparency
// ---------------------------------------------------------------------

#[test]
fn wire_output_is_byte_identical_to_in_process() {
    let (model, base) = trained(70, 4);
    let (server, service) = start(&model, 2, 4, 0, ServeConfig::default());
    let spec = RequestSpec {
        count: 4,
        ..base.clone()
    }
    .seed(31);

    let local = service.generate(&spec).unwrap();
    let mut wire = client(&server).generate(&spec).unwrap();
    assert_eq!(wire.requested, 4);
    assert!(wire.error.is_none());
    assert!(!wire.deadline_expired);

    // Wire items arrive in completion order; the in-process wait() sorts
    // by index. Align and compare — `Generated` equality is exact
    // (topology bits, Δ vectors, full provenance).
    wire.items.sort_by_key(|g| g.provenance.index);
    assert_eq!(local.items, wire.items);
    assert_eq!(local.report, wire.report);

    // And the wire is repeatable: a second run of the same spec over a
    // fresh connection is identical again.
    let mut again = client(&server).generate(&spec).unwrap();
    again.items.sort_by_key(|g| g.provenance.index);
    assert_eq!(wire.items, again.items);
    assert_eq!(wire.report, again.report);
}

#[test]
fn conditioned_wire_output_is_byte_identical_to_in_process() {
    let (model, base) = trained(70, 4);
    let (server, service) = start(&model, 2, 4, 0, ServeConfig::default());

    // Freeze the first quarter of the topology tensor to zeros and steer
    // the rest away from isolated cells — both constraint families ride
    // the wire together.
    let entries = model.channels() * model.side() * model.side();
    let mask: Vec<bool> = (0..entries).map(|i| i < entries / 4).collect();
    let bits = vec![false; entries];
    let cond = Conditioning::none()
        .with_frozen(FrozenRegion::new(mask.clone(), bits.clone()).unwrap())
        .with_avoid(MotifGuidance::new(Motif::IsolatedCell, 2.5).unwrap());
    let spec = RequestSpec {
        count: 3,
        ..base.clone()
    }
    .seed(41)
    .conditioning(cond);

    let local = service.generate(&spec).unwrap();
    let mut wire = client(&server).generate(&spec).unwrap();
    assert!(wire.error.is_none());
    wire.items.sort_by_key(|g| g.provenance.index);
    assert_eq!(local.items, wire.items);
    assert_eq!(local.report, wire.report);

    // Every delivered pattern honours the frozen region exactly — the
    // constraint was live across the socket, not dropped in transit.
    for item in &wire.items {
        let tensor = DeepSquishTensor::fold(item.pattern.topology(), model.channels()).unwrap();
        for (i, (&frozen, &want)) in mask.iter().zip(&bits).enumerate() {
            if frozen {
                assert_eq!(tensor.bits()[i], want, "frozen entry {i} diverged");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Conformance: every bad input gets a structured error, nothing wedges
// ---------------------------------------------------------------------

#[test]
fn invalid_bodies_get_structured_errors_and_connection_survives() {
    let (model, _) = trained(71, 2);
    let (server, _) = start(&model, 1, 4, 0, ServeConfig::default());
    let mut c = client(&server);

    // (body, expected status, expected code) — all on ONE connection;
    // these are well-formed HTTP, so the server keeps the session open.
    let cases: &[(&str, u16, &str)] = &[
        ("{\"count\": 1, \"cuont\": 2}", 400, "unknown_field"),
        // `precision` is not a spec field: an unknown field like any other.
        (
            "{\"count\": 1, \"precision\": \"exact\"}",
            400,
            "unknown_field",
        ),
        ("{\"count\": 1", 400, "malformed_json"),
        ("not json at all", 400, "malformed_json"),
        ("{\"count\": 0}", 422, "invalid_spec"),
        ("{\"seed\": 9}", 400, "bad_request"),
        ("{\"count\": -3}", 400, "bad_request"),
        (
            "{\"count\": 1, \"rules\": {\"space_min\": -60}}",
            422,
            "invalid_spec",
        ),
        (
            "{\"count\": 1, \"solver\": {\"target_width\": \"wide\"}}",
            400,
            "bad_request",
        ),
        // The solver's iteration budget is not client input.
        (
            "{\"count\": 1, \"solver\": {\"max_iterations\": 1000000000000}}",
            400,
            "unknown_field",
        ),
        (
            "{\"count\": 1, \"donors\": [{\"topology\": [\"01\", \"0\"], \
             \"dx\": [1, 1], \"dy\": [1, 1]}]}",
            422,
            "invalid_spec",
        ),
        // A typo inside the conditioning object is caught at parse time.
        (
            "{\"count\": 1, \"conditioning\": {\"freze_len\": 4}}",
            400,
            "unknown_field",
        ),
        // A well-formed frozen region whose mask does not span the
        // model's tensor is rejected at submit (shape validation).
        (
            "{\"count\": 1, \"conditioning\": {\"freeze_len\": 8, \
             \"freeze_mask\": \"Dw==\", \"freeze_bits\": \"Cw==\"}}",
            422,
            "invalid_spec",
        ),
    ];
    for (body, status, code) in cases {
        let (got_status, got_body) = c.post_raw("/v1/generate", body.as_bytes()).unwrap();
        assert_eq!(got_status, *status, "{body}");
        let parsed = json::parse(std::str::from_utf8(&got_body).unwrap()).unwrap();
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some("error"));
        assert_eq!(
            parsed.get("code").and_then(Json::as_str),
            Some(*code),
            "{body}"
        );
    }

    // Routing errors are structured too.
    let (status, _) = c.get_raw("/no/such/endpoint").unwrap();
    assert_eq!(status, 404);
    let (status, _) = c.get_raw("/v1/generate").unwrap();
    assert_eq!(status, 405);

    // After all that abuse the same connection still serves real work.
    let (status, _) = c.get_raw("/healthz").unwrap();
    assert_eq!(status, 200);
}

#[test]
fn raw_garbage_and_oversized_bodies_close_cleanly() {
    let (model, _) = trained(72, 2);
    let config = ServeConfig {
        max_body_bytes: 256,
        ..ServeConfig::default()
    };
    let (server, _) = start(&model, 1, 4, 0, config);

    // Unparseable HTTP: 400 and the connection closes.
    let mut c = client(&server);
    c.send_raw(b"THIS IS NOT HTTP\r\n\r\n").unwrap();
    let (status, _) = c.read_response().unwrap();
    assert_eq!(status, 400);
    assert!(c.get_raw("/healthz").is_err(), "connection must be closed");

    // A body over the cap: 413 without reading the body, then close.
    let mut c = client(&server);
    let huge = format!("{{\"count\": 1, \"seed\": {}}}", "9".repeat(300));
    let (status, body) = c.post_raw("/v1/generate", huge.as_bytes()).unwrap();
    assert_eq!(status, 413);
    let parsed = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(
        parsed.get("code").and_then(Json::as_str),
        Some("body_too_large")
    );

    // The server survives: a fresh connection works.
    let (status, _) = client(&server).get_raw("/healthz").unwrap();
    assert_eq!(status, 200);
}

#[test]
fn pipelined_requests_on_one_connection_are_answered_in_order() {
    let (model, base) = trained(73, 3);
    let (server, _) = start(&model, 1, 4, 0, ServeConfig::default());
    let mut c = client(&server);

    // Three requests written back to back before reading anything:
    // two trivial GETs and a real generation.
    let spec_body = dp_serve::proto::spec_to_json(&RequestSpec {
        count: 1,
        ..base.clone()
    })
    .to_string();
    let mut wire = Vec::new();
    wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\n\r\n");
    wire.extend_from_slice(b"GET /metrics HTTP/1.1\r\ncontent-length: 0\r\n\r\n");
    wire.extend_from_slice(
        format!(
            "POST /v1/generate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            spec_body.len(),
            spec_body
        )
        .as_bytes(),
    );
    c.send_raw(&wire).unwrap();

    let (status, body) = c.read_response().unwrap();
    assert_eq!(status, 200);
    assert!(body.starts_with(b"{\"status\""));
    let (status, body) = c.read_response().unwrap();
    assert_eq!(status, 200);
    assert!(json::parse(std::str::from_utf8(&body).unwrap()).is_ok());
    // The third response is the NDJSON stream; its final record is the
    // report.
    let (status, body) = c.read_response().unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    let last = text.lines().last().unwrap();
    let report = json::parse(last).unwrap();
    assert_eq!(report.get("type").and_then(Json::as_str), Some("report"));
}

// ---------------------------------------------------------------------
// Lifecycle: disconnect cancellation, deadlines, backpressure
// ---------------------------------------------------------------------

/// Polls `/metrics` until `accept` returns true or the timeout expires;
/// returns the last snapshot either way.
fn wait_for_metrics(server: &ServerHandle, accept: impl Fn(&Json) -> bool) -> Json {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut c = client(server);
    loop {
        let snapshot = c.metrics().unwrap();
        if accept(&snapshot) || Instant::now() >= deadline {
            return snapshot;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn scheduler_field(snapshot: &Json, field: &str) -> i128 {
    snapshot
        .get("scheduler")
        .and_then(|s| s.get(field))
        .and_then(Json::as_int)
        .unwrap()
}

fn counter(snapshot: &Json, field: &str) -> i128 {
    snapshot.get(field).and_then(Json::as_int).unwrap()
}

#[test]
fn client_disconnect_mid_stream_cancels_remaining_lanes() {
    let (model, base) = trained(74, 3);
    let (server, service) = start(&model, 1, 2, 0, ServeConfig::default());

    // A request big enough that it is still running when we hang up.
    let spec = RequestSpec {
        count: 48,
        ..base.clone()
    }
    .seed(5);
    let body = dp_serve::proto::spec_to_json(&spec).to_string();
    {
        let socket = TcpStream::connect(server.addr()).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        let mut conn = Conn::new(socket);
        conn.write_request("POST", "/v1/generate", body.as_bytes())
            .unwrap();
        let (status, _) = conn.read_response_head().unwrap();
        assert_eq!(status, 200);
        // Read one item record to prove the stream was live, then
        // vanish (socket drops here).
        let first = conn.next_chunk().unwrap().unwrap();
        assert!(std::str::from_utf8(&first).unwrap().contains("\"item\""));
    }

    // The handler notices within a poll tick, drops the handle, and the
    // engine abandons the queued lanes: scheduler counters drain to
    // zero long before 47 more items could have been generated.
    let snapshot = wait_for_metrics(&server, |m| {
        counter(m, "disconnect_cancelled") >= 1
            && scheduler_field(m, "queued_lanes") == 0
            && scheduler_field(m, "lanes_in_flight") == 0
    });
    assert!(
        counter(&snapshot, "disconnect_cancelled") >= 1,
        "{snapshot:?}"
    );
    assert_eq!(scheduler_field(&snapshot, "queued_lanes"), 0);
    assert_eq!(scheduler_field(&snapshot, "lanes_in_flight"), 0);
    // Far fewer items were generated than requested.
    assert!(counter(&snapshot, "items_streamed") < 24, "{snapshot:?}");
    // The engine is still healthy: the same service serves new work.
    let generation = service
        .generate(&RequestSpec {
            count: 1,
            ..base.clone()
        })
        .unwrap();
    assert_eq!(
        generation.items.len() + generation.report.shortfall,
        1,
        "post-cancel request must close its accounting"
    );
}

#[test]
fn slow_reader_does_not_stall_other_connections() {
    let (model, base) = trained(75, 3);
    let (server, _) = start(&model, 2, 2, 0, ServeConfig::default());

    // Connection A submits a big request and then never reads.
    let slow_spec = RequestSpec {
        count: 32,
        ..base.clone()
    }
    .seed(9);
    let body = dp_serve::proto::spec_to_json(&slow_spec).to_string();
    let slow_socket = TcpStream::connect(server.addr()).unwrap();
    let mut slow_conn = Conn::new(slow_socket);
    slow_conn
        .write_request("POST", "/v1/generate", body.as_bytes())
        .unwrap();
    // (not reading anything from slow_conn)

    // Connection B gets served anyway, while A is mid-stream.
    let outcome = client(&server)
        .generate(&RequestSpec {
            count: 2,
            ..base.clone()
        })
        .unwrap();
    assert_eq!(outcome.items.len() + outcome.report.shortfall, 2);
    drop(slow_conn);
}

#[test]
fn expired_deadline_converts_undelivered_items_to_shortfall() {
    let (model, base) = trained(76, 3);
    let (server, service) = start(&model, 1, 2, 0, ServeConfig::default());

    // A deadline that is already over at admission: every lane becomes
    // shortfall, no item is ever generated, and the stream still closes
    // with a complete report.
    let spec = RequestSpec {
        count: 6,
        ..base.clone()
    }
    .deadline(Duration::ZERO);
    let outcome = client(&server).generate(&spec).unwrap();
    assert_eq!(outcome.items.len(), 0);
    assert_eq!(outcome.report.shortfall, 6);
    assert!(outcome.deadline_expired);

    // A deadline that expires mid-generation: whatever was delivered is
    // real, everything else is accounted shortfall — the accounting
    // closes exactly, never hangs.
    let spec = RequestSpec {
        count: 24,
        ..base.clone()
    }
    .seed(3)
    .deadline(Duration::from_millis(60));
    let outcome = client(&server).generate(&spec).unwrap();
    assert_eq!(
        outcome.items.len() + outcome.report.shortfall,
        24,
        "partial report must close its accounting"
    );

    // The in-process path agrees on the semantics (same engine sweep).
    let local = service.generate(&spec).unwrap();
    assert_eq!(local.items.len() + local.report.shortfall, 24);

    // Delivered items obey the bit-exactness contract: every item that
    // did complete matches the no-deadline run of the same spec.
    let full = service
        .generate(&RequestSpec {
            deadline: None,
            ..spec.clone()
        })
        .unwrap();
    for item in outcome.items.iter().chain(&local.items) {
        let reference = full
            .items
            .iter()
            .find(|g| g.provenance.index == item.provenance.index)
            .expect("delivered item must exist in the full run");
        assert_eq!(reference, item);
    }
    let snapshot = wait_for_metrics(&server, |m| counter(m, "deadline_expired") >= 1);
    assert!(counter(&snapshot, "deadline_expired") >= 1);
}

#[test]
fn full_admission_queue_answers_429_and_recovers() {
    let (model, base) = trained(77, 3);
    // One worker claiming one lane at a time keeps the first request in
    // the admission queue for its whole lifetime; bound the queue at 1.
    let (server, _) = start(&model, 1, 1, 1, ServeConfig::default());

    // Occupy the queue with a long request (admitted = 200 streamed).
    let long_spec = RequestSpec {
        count: 32,
        ..base.clone()
    }
    .seed(11);
    let body = dp_serve::proto::spec_to_json(&long_spec).to_string();
    let socket = TcpStream::connect(server.addr()).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut occupant = Conn::new(socket);
    occupant
        .write_request("POST", "/v1/generate", body.as_bytes())
        .unwrap();
    let (status, _) = occupant.read_response_head().unwrap();
    assert_eq!(status, 200);

    // The next submission bounces with the structured 429.
    let err = client(&server)
        .generate(&RequestSpec {
            count: 1,
            ..base.clone()
        })
        .unwrap_err();
    match err {
        ClientError::Rejected {
            status,
            code,
            message,
        } => {
            assert_eq!(status, 429);
            assert_eq!(code, "queue_full");
            assert!(message.contains("retry"), "{message}");
        }
        other => panic!("expected a 429 rejection, got {other:?}"),
    }
    let snapshot = wait_for_metrics(&server, |m| counter(m, "rejected_queue_full") >= 1);
    assert!(counter(&snapshot, "rejected_queue_full") >= 1);

    // Cancel the occupant (disconnect) and the queue drains; the same
    // spec is now admitted.
    drop(occupant);
    let deadline = Instant::now() + Duration::from_secs(30);
    let outcome = loop {
        match client(&server).generate(&RequestSpec {
            count: 1,
            ..base.clone()
        }) {
            Ok(outcome) => break outcome,
            Err(ClientError::Rejected { status: 429, .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(other) => panic!("unexpected error while recovering: {other:?}"),
        }
    };
    assert_eq!(outcome.requested, 1);
}

#[test]
fn metrics_reflect_served_traffic() {
    let (model, base) = trained(78, 3);
    let (server, _) = start(&model, 1, 4, 0, ServeConfig::default());
    let mut c = client(&server);
    let outcome = c
        .generate(&RequestSpec {
            count: 2,
            ..base.clone()
        })
        .unwrap();
    let delivered = outcome.items.len() as i128;
    let snapshot = c.metrics().unwrap();
    assert!(counter(&snapshot, "connections_total") >= 1);
    assert!(counter(&snapshot, "requests_total") >= 2);
    assert_eq!(counter(&snapshot, "requests_completed"), 1);
    assert_eq!(counter(&snapshot, "items_streamed"), delivered);
    // Latency histograms recorded the stream.
    let stream_count = snapshot
        .get("latency")
        .and_then(|l| l.get("stream"))
        .and_then(|s| s.get("count"))
        .and_then(Json::as_int)
        .unwrap();
    assert_eq!(stream_count, 1);
    // No library sink attached → no library section.
    assert!(snapshot.get("library").is_none());
}

/// Self-cleaning scratch directory for the library-sink test.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("dpserve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn library_counter(snapshot: &Json, field: &str) -> i128 {
    snapshot
        .get("library")
        .expect("library section")
        .get(field)
        .and_then(Json::as_int)
        .unwrap()
}

#[test]
fn attached_library_ingests_streamed_items_and_surfaces_counters() {
    let (model, base) = trained(79, 3);
    let tmp = TempDir::new("library-sink");
    let library = Arc::new(ServeLibrary::open(&tmp.0, LibraryConfig::default()).unwrap());
    let config = ServeConfig {
        library: Some(Arc::clone(&library)),
        ..ServeConfig::default()
    };
    let (mut server, _) = start(&model, 1, 4, 0, config);

    // Before any traffic the section exists and reads zero.
    let snapshot = client(&server).metrics().unwrap();
    assert_eq!(library_counter(&snapshot, "accepted"), 0);
    assert_eq!(library_counter(&snapshot, "deduplicated"), 0);

    // One stream: every delivered item lands in the store (accepted or
    // deduplicated — nothing vanishes).
    let spec = RequestSpec {
        count: 6,
        ..base.clone()
    }
    .seed(17);
    let outcome = client(&server).generate(&spec).unwrap();
    let delivered = outcome.items.len() as i128;
    assert!(delivered > 0, "need at least one item for the test to bite");
    let snapshot = client(&server).metrics().unwrap();
    let accepted = library_counter(&snapshot, "accepted");
    let deduplicated = library_counter(&snapshot, "deduplicated");
    assert_eq!(accepted + deduplicated, delivered, "{snapshot:?}");
    assert!(accepted >= 1);
    assert!(library_counter(&snapshot, "bytes_written") > 0);

    // Replaying the identical spec streams identical patterns: the
    // dedup layer absorbs all of them, accepted stays put.
    let again = client(&server).generate(&spec).unwrap();
    assert_eq!(again.items.len() as i128, delivered);
    let snapshot = client(&server).metrics().unwrap();
    assert_eq!(library_counter(&snapshot, "accepted"), accepted);
    assert_eq!(
        library_counter(&snapshot, "deduplicated"),
        deduplicated + delivered
    );

    // A clean stop checkpoints the store; reopening read-only sees every
    // accepted pattern under the synthesized ruleset bucket.
    server.stop();
    assert!(tmp.0.join("checkpoint.dpl").is_file());
    let store = Library::open(&tmp.0).unwrap();
    let buckets: Vec<(&str, &str)> = store.buckets().collect();
    assert_eq!(buckets.len(), 1, "{buckets:?}");
    assert_eq!(buckets[0].0, "diffpattern");
    let stats = store.stats(buckets[0].0, buckets[0].1).unwrap();
    assert_eq!(stats.accepted as i128, accepted);
    assert_eq!(stats.duplicates as i128, deduplicated + delivered);
}

// ---------------------------------------------------------------------
// Codec round-trip properties (no sockets — pure wire-format checks)
// ---------------------------------------------------------------------

/// A random but structurally valid squish pattern for donor lists.
fn random_donor(seed: u64) -> SquishPattern {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (w, h) = (rng.gen_range(1usize..6), rng.gen_range(1usize..6));
    let cells: Vec<bool> = (0..w * h).map(|_| rng.gen()).collect();
    let dx: Vec<i64> = (0..w).map(|_| rng.gen_range(1i64..2_000)).collect();
    let dy: Vec<i64> = (0..h).map(|_| rng.gen_range(1i64..2_000)).collect();
    SquishPattern::new(BitGrid::from_cells(w, h, cells).unwrap(), dx, dy).unwrap()
}

/// A random conditioning of every composable shape: none, frozen-only,
/// guidance-only, frozen + guidance.
fn random_conditioning(seed: u64, frozen_len: usize, kind: u8) -> Conditioning {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD17A_C0DE);
    let mut cond = Conditioning::none();
    if kind & 1 != 0 {
        let mask: Vec<bool> = (0..frozen_len).map(|_| rng.gen()).collect();
        let bits: Vec<bool> = (0..frozen_len).map(|_| rng.gen()).collect();
        cond = cond.with_frozen(FrozenRegion::new(mask, bits).unwrap());
    }
    if kind & 2 != 0 {
        let weight = f64::from(rng.gen_range(1u32..1_000_000)) / 1_000.0;
        cond = cond.with_avoid(MotifGuidance::new(Motif::IsolatedCell, weight).unwrap());
    }
    cond
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any structurally valid RequestSpec survives
    /// serialize → print → parse → deserialize without changing a single
    /// generation-relevant bit (deadlines travel as whole milliseconds,
    /// so they are sampled as such).
    #[test]
    fn request_spec_round_trips_through_the_wire_codec(
        count in 1usize..100_000,
        first_index in 0usize..1_000_000,
        seed in any::<u64>(),
        priority in any::<i32>(),
        stride in 1usize..64,
        attempts in 1usize..64,
        repair in any::<bool>(),
        space in 1i64..500,
        width in 1i64..500,
        area_min in 0i64..10_000,
        area_span in 1i64..2_000_000,
        exempt in any::<bool>(),
        window_w in 100i64..1_000_000,
        window_h in 100i64..1_000_000,
        deadline_ms in any::<u64>(),
        has_deadline in any::<bool>(),
        donor_seed in any::<u64>(),
        donor_n in 0usize..3,
        frozen_len in 1usize..64,
        frozen_kind in 0u8..4,
    ) {
        let rules = DesignRules::builder()
            .space_min(space)
            .width_min(width)
            .area_range(area_min as i128, (area_min + area_span) as i128)
            .exempt_border(exempt)
            .build()
            .unwrap();
        let donors: Vec<SquishPattern> = (0..donor_n)
            .map(|i| random_donor(donor_seed.wrapping_add(i as u64)))
            .collect();
        let spec = RequestSpec {
            count,
            first_index,
            seed,
            priority,
            rules,
            solver: SolverConfig::for_window(window_w, window_h),
            sample_stride: stride,
            max_attempts: attempts,
            repair_bowties: repair,
            donors: Arc::from(donors.into_boxed_slice()),
            conditioning: Arc::new(random_conditioning(seed, frozen_len, frozen_kind)),
            deadline: has_deadline.then(|| Duration::from_millis(deadline_ms)),
        };

        let wire = dp_serve::proto::spec_to_json(&spec).to_string();
        let back = dp_serve::proto::spec_from_json(&json::parse(&wire).unwrap()).unwrap();

        prop_assert_eq!(spec.count, back.count);
        prop_assert_eq!(spec.first_index, back.first_index);
        prop_assert_eq!(spec.seed, back.seed);
        prop_assert_eq!(spec.priority, back.priority);
        prop_assert_eq!(spec.rules, back.rules);
        prop_assert_eq!(spec.solver.target_width, back.solver.target_width);
        prop_assert_eq!(spec.solver.target_height, back.solver.target_height);
        prop_assert_eq!(spec.sample_stride, back.sample_stride);
        prop_assert_eq!(spec.max_attempts, back.max_attempts);
        prop_assert_eq!(spec.repair_bowties, back.repair_bowties);
        prop_assert_eq!(spec.donors.as_ref(), back.donors.as_ref());
        prop_assert_eq!(spec.deadline, back.deadline);
        // Conditioning survives exactly: frozen mask/bits bit-for-bit,
        // motif preset and guidance weight to the last ulp (weights are
        // finite and positive, so `==` on them is bit equality).
        prop_assert_eq!(&spec.conditioning, &back.conditioning);
    }

    /// Item records (pattern + full provenance) survive the NDJSON
    /// round-trip exactly — the property behind the byte-equality test.
    #[test]
    fn item_records_round_trip_exactly(
        pattern_seed in any::<u64>(),
        index in any::<u64>(),
        item_seed in any::<u64>(),
        attempts in 0usize..100,
        repaired in any::<bool>(),
        iterations in 0usize..100_000,
        restarts in 0usize..64,
    ) {
        let generated = Generated {
            pattern: random_donor(pattern_seed),
            provenance: Provenance {
                index: index as usize,
                seed: item_seed,
                attempts,
                repaired,
                solve: SolveStats {
                    iterations,
                    restarts,
                },
            },
        };
        let wire = dp_serve::proto::item_to_json(&generated).to_string();
        let back = dp_serve::proto::item_from_json(&json::parse(&wire).unwrap()).unwrap();
        prop_assert_eq!(generated, back);
    }
}
