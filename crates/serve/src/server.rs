//! The `dpserve` server loop: a std-only, thread-per-connection HTTP
//! front-end over a shared [`PatternService`].
//!
//! # Design
//!
//! * **Accept loop** on its own thread; every accepted socket gets a
//!   handler thread. The 1-CPU container this repo targets makes a
//!   thread pool pointless — the generation workers are the bottleneck,
//!   and handler threads spend their lives parked in `recv_timeout`.
//! * **Streaming** interleaves [`RequestHandle::recv_timeout`](diffpattern::RequestHandle::recv_timeout) polls
//!   with client-liveness checks (a non-blocking `peek`), so a client
//!   that disconnects mid-stream drops its handle within one poll
//!   interval — cancel-on-drop end-to-end over a socket.
//! * **Shutdown**: [`ServerHandle::stop`] sets a flag and pokes the
//!   listener with a wake-up connection; connection threads notice the
//!   flag at their next read timeout or poll tick.
//! * **Determinism**: the server adds nothing to the generation path —
//!   the spec decoded from the wire goes through the same
//!   [`PatternService::submit`] as an in-process caller, so the streamed
//!   items are byte-identical to a local `generate` (pinned by
//!   `tests/serve.rs`).

use crate::http::{Conn, HttpError, Request};
use crate::json;
use crate::metrics::{LibraryCounters, ServerMetrics};
use crate::proto::{self, ProtoError};
use diffpattern::drc::DesignRules;
use diffpattern::library::{LibraryConfig, LibraryError, LibraryWriter};
use diffpattern::squish::SquishPattern;
use diffpattern::{ConfigError, PatternService, RecvPoll, RequestSpec};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A durable pattern library attached to the server: every item
/// streamed to any client is also appended (through the store's
/// streaming dedup) to one shared [`LibraryWriter`], and the ingest
/// counters surface in `/metrics` under `"library"`.
///
/// Patterns land in a per-ruleset bucket (method `"diffpattern"`,
/// ruleset label synthesized from the request's design rules) in
/// arrival order across all connections. Ingest failures are absorbed —
/// a sick disk must not fail a generation stream — but the counters
/// stop advancing, which is the observable symptom.
pub struct ServeLibrary {
    writer: Mutex<LibraryWriter>,
    accepted: AtomicU64,
    deduplicated: AtomicU64,
    bytes_written: AtomicU64,
}

impl std::fmt::Debug for ServeLibrary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.counters();
        f.debug_struct("ServeLibrary")
            .field("accepted", &c.accepted)
            .field("deduplicated", &c.deduplicated)
            .field("bytes_written", &c.bytes_written)
            .finish_non_exhaustive()
    }
}

impl ServeLibrary {
    /// Opens (or creates) the library at `dir` for server-side ingest.
    ///
    /// # Errors
    ///
    /// Forwards [`LibraryWriter::open`] failures (I/O, corruption,
    /// data-loss detection).
    pub fn open(dir: impl AsRef<Path>, config: LibraryConfig) -> Result<Self, LibraryError> {
        let writer = LibraryWriter::open(dir, config)?;
        let totals = writer.totals();
        Ok(ServeLibrary {
            writer: Mutex::new(writer),
            accepted: AtomicU64::new(totals.accepted),
            deduplicated: AtomicU64::new(totals.duplicates),
            bytes_written: AtomicU64::new(totals.bytes_written),
        })
    }

    /// Lock-free snapshot of the ingest counters (for `/metrics`).
    pub fn counters(&self) -> LibraryCounters {
        LibraryCounters {
            accepted: self.accepted.load(Ordering::Relaxed),
            deduplicated: self.deduplicated.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Appends one streamed pattern in arrival order; errors are
    /// absorbed (see the type-level contract).
    fn ingest(&self, ruleset: &str, pattern: &SquishPattern) {
        let mut writer = match self.writer.lock() {
            Ok(writer) => writer,
            Err(poisoned) => poisoned.into_inner(),
        };
        let _ = writer.ingest_arrival("diffpattern", ruleset, pattern, true);
        let totals = writer.totals();
        self.accepted.store(totals.accepted, Ordering::Relaxed);
        self.deduplicated
            .store(totals.duplicates, Ordering::Relaxed);
        self.bytes_written
            .store(totals.bytes_written, Ordering::Relaxed);
    }

    /// Flushes a durable checkpoint (called by [`ServerHandle::stop`];
    /// callers running long may also invoke it on a timer).
    ///
    /// # Errors
    ///
    /// Forwards the store's checkpoint failure (I/O).
    pub fn checkpoint(&self) -> Result<(), LibraryError> {
        let mut writer = match self.writer.lock() {
            Ok(writer) => writer,
            Err(poisoned) => poisoned.into_inner(),
        };
        writer.checkpoint()
    }
}

/// The bucket label for a request's design rules: compact, readable,
/// and injective over the rule fields, so distinct rulesets never share
/// a dedup domain.
fn ruleset_label(rules: &DesignRules) -> String {
    format!(
        "s{}w{}a{}-{}{}",
        rules.space_min(),
        rules.width_min(),
        rules.area_min(),
        rules.area_max(),
        if rules.exempt_border() { "x" } else { "b" }
    )
}

/// How often a streaming handler wakes to check client liveness and the
/// shutdown flag. Bounds cancellation latency.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Socket read timeout while waiting for the next request on a
/// keep-alive connection (also bounds shutdown latency for idle
/// connections).
const READ_TIMEOUT: Duration = Duration::from_millis(250);

/// Tuning knobs for [`serve`]. `Default` suits tests and the demo
/// binary; production would mostly raise `max_body_bytes`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest accepted request body; anything larger is refused with
    /// HTTP 413 before it is read. Default 1 MiB.
    pub max_body_bytes: usize,
    /// When set, every streamed item is also ingested into this
    /// library, and `/metrics` grows a `"library"` section. Default
    /// `None` (the server stores nothing).
    pub library: Option<Arc<ServeLibrary>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_body_bytes: 1024 * 1024,
            library: None,
        }
    }
}

/// A running server: its bound address, shared metrics, and the stop
/// switch. Dropping the handle stops the server and joins the accept
/// thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    library: Option<Arc<ServeLibrary>>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener is bound to (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry (the live objects, not a snapshot).
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// Signals shutdown and joins the accept thread. Connection threads
    /// exit on their next poll tick; they hold their own service clone,
    /// so in-flight streams terminate cleanly even after this returns.
    /// An attached library gets a durable checkpoint (best effort) so a
    /// clean stop commits the dedup/diversity accelerator alongside the
    /// records.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        if let Some(library) = self.library.take() {
            let _ = library.checkpoint();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `addr` and serves `service` until [`ServerHandle::stop`].
///
/// # Errors
///
/// Forwards the bind error (address in use, permission).
pub fn serve(service: PatternService, addr: &str, config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let metrics = Arc::new(ServerMetrics::default());
    let library = config.library.clone();
    let accept_stop = Arc::clone(&stop);
    let accept_metrics = Arc::clone(&metrics);
    let accept_thread = std::thread::spawn(move || {
        accept_loop(listener, service, config, accept_stop, accept_metrics);
    });
    Ok(ServerHandle {
        addr,
        stop,
        metrics,
        library,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(
    listener: TcpListener,
    service: PatternService,
    config: ServeConfig,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
) {
    for incoming in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(socket) = incoming else { continue };
        ServerMetrics::bump(&metrics.connections_total);
        ServerMetrics::bump(&metrics.active_connections);
        let service = service.clone();
        let config = config.clone();
        let stop = Arc::clone(&stop);
        let metrics = Arc::clone(&metrics);
        std::thread::spawn(move || {
            let _ = handle_connection(socket, &service, &config, &stop, &metrics);
            ServerMetrics::drop_gauge(&metrics.active_connections);
        });
    }
}

/// Runs one keep-alive connection until close, fatal error, or
/// shutdown (connection accounting lives in the spawner).
fn handle_connection(
    socket: TcpStream,
    service: &PatternService,
    config: &ServeConfig,
    stop: &AtomicBool,
    metrics: &ServerMetrics,
) -> io::Result<()> {
    socket.set_read_timeout(Some(READ_TIMEOUT))?;
    socket.set_nodelay(true)?;
    let mut conn = Conn::new(socket);
    loop {
        let request = match conn.read_request(config.max_body_bytes) {
            Ok(request) => request,
            Err(HttpError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(HttpError::Closed) | Err(HttpError::TruncatedMessage) | Err(HttpError::Io(_)) => {
                return Ok(());
            }
            Err(HttpError::BodyTooLarge { declared, limit }) => {
                // The oversized body was never read, so the connection
                // cannot be reused: respond and close.
                ServerMetrics::bump(&metrics.requests_total);
                ServerMetrics::bump(&metrics.rejected_too_large);
                let body = proto::error_to_json(
                    "body_too_large",
                    &format!("declared body of {declared} bytes exceeds limit {limit}"),
                );
                let _ = conn.write_response(413, body.to_string().as_bytes());
                return Ok(());
            }
            Err(e @ (HttpError::HeadTooLarge | HttpError::Malformed(_))) => {
                ServerMetrics::bump(&metrics.requests_total);
                ServerMetrics::bump(&metrics.rejected_malformed);
                let body = proto::error_to_json("malformed_http", &e.to_string());
                let _ = conn.write_response(400, body.to_string().as_bytes());
                return Ok(());
            }
        };
        ServerMetrics::bump(&metrics.requests_total);
        let keep_alive = route(&mut conn, request, service, config, stop, metrics)?;
        if !keep_alive || stop.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

/// Dispatches one parsed request; returns whether to keep the
/// connection alive.
fn route(
    conn: &mut Conn<TcpStream>,
    request: Request,
    service: &PatternService,
    config: &ServeConfig,
    stop: &AtomicBool,
    metrics: &ServerMetrics,
) -> io::Result<bool> {
    let path = request.target.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("POST", "/v1/generate") => handle_generate(conn, &request, service, config, stop, metrics),
        ("GET", "/metrics") => {
            let counters = config.library.as_deref().map(ServeLibrary::counters);
            let body = metrics.to_json(service.stats(), counters).to_string();
            conn.write_response(200, body.as_bytes())?;
            Ok(true)
        }
        ("GET", "/healthz") => {
            conn.write_response(200, b"{\"status\":\"ok\"}")?;
            Ok(true)
        }
        (_, "/v1/generate") | (_, "/metrics") | (_, "/healthz") => {
            let body = proto::error_to_json(
                "method_not_allowed",
                &format!("{} is not supported on {path}", request.method),
            );
            conn.write_response(405, body.to_string().as_bytes())?;
            Ok(true)
        }
        _ => {
            let body = proto::error_to_json("not_found", &format!("no such endpoint: {path}"));
            conn.write_response(404, body.to_string().as_bytes())?;
            Ok(true)
        }
    }
}

/// Decodes, admits and streams one generation request.
fn handle_generate(
    conn: &mut Conn<TcpStream>,
    request: &Request,
    service: &PatternService,
    config: &ServeConfig,
    stop: &AtomicBool,
    metrics: &ServerMetrics,
) -> io::Result<bool> {
    let received = Instant::now();
    let spec = match decode_spec(&request.body) {
        Ok(spec) => spec,
        Err(e) => {
            let (status, counter) = if e.is_semantic() {
                (422, &metrics.rejected_invalid)
            } else {
                (400, &metrics.rejected_malformed)
            };
            ServerMetrics::bump(counter);
            let body = proto::error_to_json(e.code(), &e.to_string());
            conn.write_response(status, body.to_string().as_bytes())?;
            return Ok(true);
        }
    };
    let handle = match service.submit(&spec) {
        Ok(handle) => handle,
        Err(e @ ConfigError::QueueFull { .. }) => {
            ServerMetrics::bump(&metrics.rejected_queue_full);
            let body = proto::error_to_json("queue_full", &e.to_string());
            conn.write_response_with(429, &[("retry-after", "1")], body.to_string().as_bytes())?;
            return Ok(true);
        }
        Err(e) => {
            ServerMetrics::bump(&metrics.rejected_invalid);
            let body = proto::error_to_json("invalid_spec", &e.to_string());
            conn.write_response(422, body.to_string().as_bytes())?;
            return Ok(true);
        }
    };
    metrics.admit_latency.record(received.elapsed());
    stream_items(conn, handle, &spec, config, stop, metrics)
}

fn decode_spec(body: &[u8]) -> Result<RequestSpec, ProtoError> {
    let text = std::str::from_utf8(body).map_err(|_| {
        ProtoError::Json(json::ParseError {
            offset: 0,
            message: "body is not UTF-8",
        })
    })?;
    proto::spec_from_json(&json::parse(text)?)
}

/// The streaming loop: NDJSON item records as they complete, a report
/// record to close. Returns whether the connection may be reused.
fn stream_items(
    conn: &mut Conn<TcpStream>,
    mut handle: diffpattern::RequestHandle,
    spec: &RequestSpec,
    config: &ServeConfig,
    stop: &AtomicBool,
    metrics: &ServerMetrics,
) -> io::Result<bool> {
    let started = Instant::now();
    conn.start_chunked(200, "application/x-ndjson")?;
    let bucket = config
        .library
        .as_deref()
        .map(|library| (library, ruleset_label(&spec.rules)));
    let mut delivered = 0usize;
    loop {
        match handle.recv_timeout(POLL_INTERVAL) {
            RecvPoll::Item(generated) => {
                if delivered == 0 {
                    metrics.first_item_latency.record(started.elapsed());
                }
                if let Some((library, ruleset)) = &bucket {
                    library.ingest(ruleset, &generated.pattern);
                }
                let mut line = proto::item_to_json(&generated).to_string();
                line.push('\n');
                if conn.write_chunk(line.as_bytes()).is_err() {
                    // Client gone mid-stream: dropping the handle below
                    // cancels every remaining lane.
                    ServerMetrics::bump(&metrics.disconnect_cancelled);
                    return Ok(false);
                }
                delivered += 1;
                ServerMetrics::bump(&metrics.items_streamed);
            }
            RecvPoll::TimedOut => {
                if stop.load(Ordering::SeqCst) {
                    // Server shutting down: abort the stream (the client
                    // sees a truncated chunked body, the handle drop
                    // cancels the request).
                    return Ok(false);
                }
                if client_gone(conn) {
                    ServerMetrics::bump(&metrics.disconnect_cancelled);
                    return Ok(false);
                }
            }
            RecvPoll::Finished => break,
        }
    }
    let report = handle.report();
    let deadline_expired =
        spec.deadline.is_some_and(|d| started.elapsed() >= d) && report.shortfall > 0;
    if deadline_expired {
        ServerMetrics::bump(&metrics.deadline_expired);
    }
    let error = handle.error().map(|e| e.to_string());
    let mut line = proto::report_to_json(
        spec.count,
        delivered,
        deadline_expired,
        &report,
        error.as_deref(),
    )
    .to_string();
    line.push('\n');
    if conn.write_chunk(line.as_bytes()).is_err() || conn.finish_chunked().is_err() {
        ServerMetrics::bump(&metrics.disconnect_cancelled);
        return Ok(false);
    }
    metrics.stream_latency.record(started.elapsed());
    ServerMetrics::bump(&metrics.requests_completed);
    Ok(true)
}

/// Non-destructive client-liveness probe: a non-blocking `peek` that
/// sees EOF (`Ok(0)`) when the peer closed. Buffered pipelined data or
/// `WouldBlock` both mean the peer is still there.
fn client_gone(conn: &Conn<TcpStream>) -> bool {
    let socket = conn.stream();
    if socket.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match socket.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    // Restore blocking mode with the read timeout still in force.
    if socket.set_nonblocking(false).is_err() {
        return true;
    }
    gone
}
