//! `duplo serve` — a single-flight simulation service over HTTP/1.1 + JSON.
//!
//! A zero-dependency daemon (std [`TcpListener`] + the in-tree
//! [`crate::json`] codec) that accepts experiment submissions and serves
//! results and Perfetto traces by content digest:
//!
//! * `GET /v1/health` — liveness probe with worker/experiment counts,
//! * `GET /v1/experiments` — the registry (name, paper anchor, title),
//! * `POST /v1/submit` — run a registry experiment (by name) or an inline
//!   wtrace document, with a strict per-request [`RunOptions`] overlay,
//! * `GET /v1/results/<digest>` — re-fetch a previously computed result
//!   body by its content digest,
//! * `GET /v1/artifacts/<digest>` — fetch a Chrome trace-event document
//!   captured by a `"trace": true` submission,
//! * `GET /v1/metrics` — the [`crate::metrics`] registry as Prometheus
//!   text (or JSON with `?format=json`),
//! * `GET /v1/progress/<digest>` — live lifecycle of one submission
//!   (`queued → running → done | failed`, with a cycles-simulated
//!   gauge); long-poll with `?since=<seq>&wait_ms=<ms>`. The digest is
//!   the content digest of the submission's request body, so any client
//!   holding the same body can watch the job. Returned to the submitter
//!   in the `X-Duplo-Job` response header.
//! * `POST /v1/shutdown` — drain the worker pool and exit cleanly.
//!
//! Every request is assigned a short ID (`req-xxxxxx`), echoed in the
//! `X-Duplo-Request-Id` response header, in error bodies as
//! `error.request_id`, and as the `[serve/req-xxxxxx]` tag on the
//! daemon's `DUPLO_LOG` lines, so a failure in a storm correlates to one
//! request. The in-memory result/artifact stores are LRU-bounded (256
//! entries and 64 MiB each); evictions are counted in the metrics
//! registry.
//!
//! Submissions are executed through [`crate::GpuSim::with_options`], so
//! every run-affecting knob travels by value: two in-flight requests can
//! sample differently, pick different memory sides, or run the
//! tick-by-tick reference loop, without touching process globals. Trace
//! capture is a per-submission [`trace::TraceSink`], so a traced
//! submission runs concurrently with untraced ones. All
//! requests share the process run cache — its single-flight in-memory
//! tier plus the disk tier — so N concurrent identical submissions cost
//! one simulation, and a warm daemon answers from the cache entirely.
//!
//! Every error is a structured JSON body with the matching 4xx/5xx
//! status, `{"error": {"status": .., "kind": "..", "message": ".."}}` —
//! the daemon never panics a connection away and never drops one without
//! a response. Handler panics are caught and surface as 500s.
//!
//! Response bodies are the *stable* result form ([`crate::results`]
//! without the volatile `host` block), byte-identical to
//! `duplo run <name> --json` under `DUPLO_JSON_STABLE` — the CI serve
//! gate diffs the two.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::{Json, parse};
use crate::metrics;
use crate::options::RunOptions;
use crate::progress::{JobState, ProgressHandle};
use crate::{cache, digest, experiments, log, trace, wtrace};

/// Maximum accepted request-head size (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Most progress handles retained; the oldest is dropped beyond this.
const MAX_JOBS: usize = 256;

/// Upper bound on one `/v1/progress` long-poll (`wait_ms` is clamped).
const MAX_WAIT_MS: u64 = 30_000;

/// Maximum accepted request-body size in bytes.
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Entry cap per in-memory store (results, artifacts); the least recently
/// used entry is evicted beyond it.
const STORE_MAX_ENTRIES: usize = 256;

/// Byte cap per in-memory store; LRU eviction beyond it.
const STORE_MAX_BYTES: usize = 64 * 1024 * 1024;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Baseline run options for submissions; each request overlays its
    /// `options` object on a clone of these
    /// ([`RunOptions::merge_wire`]). A submission that sets neither
    /// `sample_ctas` nor `full` samples as these do — full CTA shares
    /// unless the daemon was started with `--sample N`, the same rule
    /// `duplo run <name>` applies.
    pub defaults: RunOptions,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            defaults: RunOptions::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// The daemon's registry metrics. All volatile: they describe this
/// process's external traffic, not the simulated work.
struct ServeMetrics {
    /// Requests currently inside a handler.
    in_flight: metrics::Gauge,
    /// Accepted connections waiting for a worker.
    queue_depth: metrics::Gauge,
    /// Workers currently occupied with a connection.
    workers_busy: metrics::Gauge,
    /// Accept-to-done latency, microseconds.
    latency_us: metrics::Histogram,
}

fn sm() -> &'static ServeMetrics {
    static SM: OnceLock<ServeMetrics> = OnceLock::new();
    SM.get_or_init(|| ServeMetrics {
        in_flight: metrics::volatile_gauge(
            "duplo_serve_in_flight",
            "Requests currently inside a handler",
        ),
        queue_depth: metrics::volatile_gauge(
            "duplo_serve_queue_depth",
            "Accepted connections waiting for a worker",
        ),
        workers_busy: metrics::volatile_gauge(
            "duplo_serve_workers_busy",
            "Workers currently occupied with a connection",
        ),
        latency_us: metrics::histogram(
            "duplo_serve_latency_us",
            "Accept-to-done request latency, microseconds",
            &[1_000, 10_000, 100_000, 1_000_000, 10_000_000, 60_000_000],
        ),
    })
}

/// The bounded route vocabulary for `duplo_serve_requests_total` labels
/// (digests and junk paths must not mint unbounded metric names).
fn route_label(path: &str) -> &'static str {
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/v1/health" => "/v1/health",
        "/v1/experiments" => "/v1/experiments",
        "/v1/submit" => "/v1/submit",
        "/v1/shutdown" => "/v1/shutdown",
        "/v1/metrics" => "/v1/metrics",
        p if p.starts_with("/v1/results/") => "/v1/results",
        p if p.starts_with("/v1/artifacts/") => "/v1/artifacts",
        p if p.starts_with("/v1/progress/") => "/v1/progress",
        _ => "other",
    }
}

/// The `duplo_serve_requests_total{route=..,status=..}` counter for one
/// (route, status) pair.
fn request_counter(route: &str, status: u16) -> metrics::Counter {
    metrics::volatile_counter(
        &metrics::labeled(
            "duplo_serve_requests_total",
            &[("route", route), ("status", &status.to_string())],
        ),
        "Requests handled, by route and status",
    )
}

// ---------------------------------------------------------------------------
// Request IDs
// ---------------------------------------------------------------------------

thread_local! {
    /// The request ID the current worker thread is handling; picked up by
    /// [`error_response`] and [`slog`] so every error body and log line
    /// correlates to one request without threading the ID everywhere.
    static REQUEST_ID: RefCell<String> = const { RefCell::new(String::new()) };
}

fn next_request_id() -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    format!("req-{:06x}", NEXT.fetch_add(1, Ordering::Relaxed) + 1)
}

fn set_request_id(rid: &str) {
    REQUEST_ID.with(|slot| rid.clone_into(&mut slot.borrow_mut()));
}

fn current_request_id() -> String {
    REQUEST_ID.with(|slot| slot.borrow().clone())
}

/// Info-level daemon log line tagged `[serve/<request-id>]` (plain
/// `[serve]` outside a request).
fn slog(args: std::fmt::Arguments<'_>) {
    let rid = current_request_id();
    if rid.is_empty() {
        log::info("serve", args);
    } else {
        log::info(&format!("serve/{rid}"), args);
    }
}

// ---------------------------------------------------------------------------
// LRU blob stores
// ---------------------------------------------------------------------------

struct BlobEntry {
    data: Arc<Vec<u8>>,
    last_used: u64,
}

struct BlobInner {
    map: HashMap<String, BlobEntry>,
    bytes: usize,
    /// Logical clock for LRU ordering (bumped on every touch).
    tick: u64,
}

/// Digest-addressed in-memory store with size- and entry-capped LRU
/// eviction. Gauges track occupancy; evictions are counted.
struct BlobStore {
    inner: Mutex<BlobInner>,
    max_entries: usize,
    max_bytes: usize,
    entries_gauge: metrics::Gauge,
    bytes_gauge: metrics::Gauge,
    evictions: metrics::Counter,
}

impl BlobStore {
    fn new(kind: &'static str, max_entries: usize, max_bytes: usize) -> BlobStore {
        BlobStore {
            inner: Mutex::new(BlobInner {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            max_entries: max_entries.max(1),
            max_bytes: max_bytes.max(1),
            entries_gauge: metrics::volatile_gauge(
                &metrics::labeled("duplo_serve_store_entries", &[("store", kind)]),
                "Entries in the in-memory blob stores, by store",
            ),
            bytes_gauge: metrics::volatile_gauge(
                &metrics::labeled("duplo_serve_store_bytes", &[("store", kind)]),
                "Bytes in the in-memory blob stores, by store",
            ),
            evictions: metrics::volatile_counter(
                &metrics::labeled("duplo_serve_store_evictions_total", &[("store", kind)]),
                "LRU evictions from the in-memory blob stores, by store",
            ),
        }
    }

    fn get(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.get_mut(key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.data)
        })
    }

    /// Stores `body` by content digest, evicting least-recently-used
    /// entries beyond the caps, and returns the digest hex.
    fn insert(&self, body: &[u8]) -> String {
        let key = digest::hex(digest::digest_bytes(body));
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(e) => e.last_used = tick,
            None => {
                inner.bytes += body.len();
                inner.map.insert(
                    key.clone(),
                    BlobEntry {
                        data: Arc::new(body.to_vec()),
                        last_used: tick,
                    },
                );
                // Evict LRU entries beyond the caps — but never the entry
                // just inserted, so an oversized blob still serves once.
                while inner.map.len() > self.max_entries
                    || (inner.bytes > self.max_bytes && inner.map.len() > 1)
                {
                    let victim = inner
                        .map
                        .iter()
                        .filter(|(k, _)| *k != &key)
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(k, _)| k.clone());
                    let Some(victim) = victim else { break };
                    if let Some(e) = inner.map.remove(&victim) {
                        inner.bytes -= e.data.len();
                        self.evictions.inc();
                    }
                }
            }
        }
        self.entries_gauge.set(inner.map.len() as i64);
        self.bytes_gauge.set(inner.bytes as i64);
        key
    }
}

/// Progress handles by job digest, insertion-ordered for eviction.
struct JobsInner {
    map: HashMap<String, ProgressHandle>,
    order: VecDeque<String>,
}

/// Shared daemon state.
struct ServerState {
    opts: ServeOptions,
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Pending accepted connections (with their accept time, for the
    /// latency histogram), drained oldest first by the worker pool.
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    queue_cv: Condvar,
    /// Digest-addressed result bodies (`/v1/results/<digest>`).
    results: BlobStore,
    /// Digest-addressed trace documents (`/v1/artifacts/<digest>`).
    artifacts: BlobStore,
    /// Submission lifecycles by job digest (`/v1/progress/<digest>`).
    jobs: Mutex<JobsInner>,
}

/// A running daemon; [`Server::join`] blocks until shutdown completes.
pub struct Server {
    state: Arc<ServerState>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the daemon: one listener thread plus
    /// `opts.workers` connection workers.
    pub fn start(opts: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        let workers = opts.workers.max(1);
        // Pre-register the traffic metrics so a scrape of an idle daemon
        // already lists every family.
        let _ = sm();
        let state = Arc::new(ServerState {
            results: BlobStore::new("results", STORE_MAX_ENTRIES, STORE_MAX_BYTES),
            artifacts: BlobStore::new("artifacts", STORE_MAX_ENTRIES, STORE_MAX_BYTES),
            opts,
            addr,
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(JobsInner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
        });
        let mut threads = Vec::new();
        {
            let state = Arc::clone(&state);
            threads.push(std::thread::spawn(move || listen_loop(&state, &listener)));
        }
        for _ in 0..workers {
            let state = Arc::clone(&state);
            threads.push(std::thread::spawn(move || worker_loop(&state)));
        }
        log::info(
            "serve",
            format_args!("listening on {addr} ({workers} workers)"),
        );
        Ok(Server { state, threads })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Requests shutdown (idempotent): stop accepting, drain the queue.
    pub fn shutdown(&self) {
        request_shutdown(&self.state);
    }

    /// Waits for the listener and every worker to exit. Call
    /// [`Server::shutdown`] first (or POST `/v1/shutdown`) or this blocks
    /// forever.
    pub fn join(self) {
        for t in self.threads {
            t.join().expect("server thread panicked");
        }
    }
}

fn request_shutdown(state: &ServerState) {
    if state.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    // The listener blocks in accept(); poke it awake so it observes the
    // flag. The connection itself is discarded by the accept loop.
    drop(TcpStream::connect(state.addr));
    state.queue_cv.notify_all();
}

fn listen_loop(state: &ServerState, listener: &TcpListener) {
    for conn in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                let mut q = state.queue.lock().unwrap_or_else(|e| e.into_inner());
                q.push_back((stream, Instant::now()));
                sm().queue_depth.set(q.len() as i64);
                drop(q);
                state.queue_cv.notify_one();
            }
            Err(e) => log::info("serve", format_args!("accept error: {e}")),
        }
    }
    // No more connections will be queued; release any idle workers.
    state.queue_cv.notify_all();
}

fn worker_loop(state: &ServerState) {
    loop {
        let stream = {
            let mut q = state.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(s) = q.pop_front() {
                    sm().queue_depth.set(q.len() as i64);
                    break Some(s);
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = state.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some((stream, accepted)) = stream else {
            return;
        };
        sm().workers_busy.add(1);
        handle_connection(state, stream, accepted);
        sm().workers_busy.sub(1);
    }
}

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

/// A parsed request.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// An outgoing response; `extra` carries endpoint-specific headers.
struct Response {
    status: u16,
    body: Vec<u8>,
    extra: Vec<(String, String)>,
    content_type: &'static str,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            body: body.into_bytes(),
            extra: Vec::new(),
            content_type: "application/json",
        }
    }

    /// Plain-text response (the Prometheus exposition format).
    fn text(status: u16, body: String) -> Response {
        Response {
            status,
            body: body.into_bytes(),
            extra: Vec::new(),
            content_type: "text/plain; version=0.0.4",
        }
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        _ => "Unknown",
    }
}

fn error_kind(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        404 => "not_found",
        405 => "method_not_allowed",
        413 => "payload_too_large",
        500 => "internal",
        501 => "not_implemented",
        _ => "error",
    }
}

/// The structured error body every failure path produces. Carries the
/// current request's ID (when one is set) so a failing client can quote
/// the exact `[serve/req-xxxxxx]` log lines.
fn error_response(status: u16, message: &str) -> Response {
    let rid = current_request_id();
    let body = Json::obj()
        .field(
            "error",
            Json::obj()
                .field("status", u64::from(status))
                .field("kind", error_kind(status))
                .field("message", message)
                .field_opt("request_id", (!rid.is_empty()).then_some(rid))
                .build(),
        )
        .build()
        .to_pretty();
    Response::json(status, body)
}

/// An HTTP/1.x message head: the start line and the header fields.
struct Head {
    /// The request line (`GET /v1/health HTTP/1.1`) or the status line
    /// (`HTTP/1.1 200 OK`).
    start: String,
    /// Header fields in order, names lowercased, names and values trimmed.
    headers: Vec<(String, String)>,
}

impl Head {
    /// `(method, target)` of a request line `METHOD TARGET HTTP/1.x`.
    fn request(&self) -> Option<(&str, &str)> {
        let mut parts = self.start.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => Some((m, p)),
            _ => None,
        }
    }

    /// The code of a status line `HTTP/1.x CODE REASON`.
    fn status(&self) -> Option<u16> {
        self.start.split_whitespace().nth(1)?.parse().ok()
    }
}

/// Parses an HTTP/1.x head: the bytes before the blank line that ends it.
/// Pure (no socket) and total: invalid UTF-8 decodes lossily and lines
/// without a colon are skipped, so any input yields a [`Head`] whose start
/// line the caller judges ([`Head::request`], [`Head::status`]).
fn parse_head(bytes: &[u8]) -> Head {
    let text = String::from_utf8_lossy(bytes);
    let mut lines = text.split("\r\n");
    let start = lines.next().unwrap_or("").to_string();
    let headers = lines
        .filter_map(|l| {
            let (name, value) = l.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    Head { start, headers }
}

/// Reads one request from the stream. Errors come back as ready-made
/// responses so malformed input never tears the connection down silently.
fn read_request(stream: &mut TcpStream) -> Result<Request, Response> {
    // Head: request line + headers, up to the CRLFCRLF separator, which
    // only the bytes a read adds (and the 3 before them) can complete.
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    let head_len;
    loop {
        if head.len() > MAX_HEAD_BYTES {
            return Err(error_response(400, "request head exceeds 16 KiB"));
        }
        let n = stream
            .read(&mut buf)
            .map_err(|e| error_response(400, &format!("read error: {e}")))?;
        if n == 0 {
            return Err(error_response(400, "connection closed mid-request"));
        }
        let from = head.len().saturating_sub(3);
        head.extend_from_slice(&buf[..n]);
        if let Some(pos) = find_crlfcrlf(&head[from..]) {
            head_len = from + pos;
            break;
        }
    }
    let parsed = parse_head(&head[..head_len]);
    let Some((method, path)) = parsed.request() else {
        return Err(error_response(
            400,
            &format!("malformed request line: {:?}", parsed.start),
        ));
    };
    let (method, path) = (method.to_string(), path.to_string());
    let mut content_length = 0usize;
    for (name, value) in &parsed.headers {
        if name == "transfer-encoding" {
            return Err(error_response(
                501,
                "chunked transfer encoding is not supported; send Content-Length",
            ));
        }
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| error_response(400, &format!("invalid Content-Length: {value:?}")))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(error_response(
            413,
            &format!(
                "request body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            ),
        ));
    }
    let mut body = head[head_len + 4..].to_vec();
    while body.len() < content_length {
        let n = stream
            .read(&mut buf)
            .map_err(|e| error_response(400, &format!("read error: {e}")))?;
        if n == 0 {
            return Err(error_response(400, "connection closed mid-body"));
        }
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(content_length);
    Ok(Request { method, path, body })
}

fn find_crlfcrlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The status line and headers of `resp`, through the blank line.
fn response_head(resp: &Response) -> String {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len()
    );
    for (name, value) in &resp.extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head
}

fn write_response(stream: &mut TcpStream, resp: &Response) {
    // A peer that hung up early is its own problem; nothing to salvage.
    let _ = stream.write_all(response_head(resp).as_bytes());
    let _ = stream.write_all(&resp.body);
    let _ = stream.flush();
}

fn handle_connection(state: &ServerState, mut stream: TcpStream, accepted: Instant) {
    let rid = next_request_id();
    set_request_id(&rid);
    let m = sm();
    m.in_flight.add(1);
    let (mut resp, route) = match read_request(&mut stream) {
        Ok(req) => {
            let label = route_label(&req.path);
            // A handler panic must answer the request, not kill the
            // worker: surface it as a structured 500.
            let resp =
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(state, &req)))
                {
                    Ok(resp) => resp,
                    Err(payload) => {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "unknown panic".to_string());
                        error_response(500, &format!("internal error: {msg}"))
                    }
                };
            (resp, label)
        }
        Err(resp) => (resp, "other"),
    };
    resp.extra
        .push(("X-Duplo-Request-Id".to_string(), rid.clone()));
    request_counter(route, resp.status).inc();
    write_response(&mut stream, &resp);
    m.in_flight.sub(1);
    m.latency_us
        .observe(u64::try_from(accepted.elapsed().as_micros()).unwrap_or(u64::MAX));
    set_request_id("");
}

// ---------------------------------------------------------------------------
// Routing and handlers
// ---------------------------------------------------------------------------

/// The value of one `k=v` query parameter, if present.
fn query_param<'a>(query: &'a str, name: &str) -> Option<&'a str> {
    query.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == name).then_some(v)
    })
}

fn route(state: &ServerState, req: &Request) -> Response {
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.path.as_str(), ""),
    };
    match (req.method.as_str(), path) {
        ("GET", "/v1/health") => handle_health(state),
        ("GET", "/v1/experiments") => handle_experiments(),
        ("GET", "/v1/metrics") => handle_metrics(query),
        ("POST", "/v1/submit") => handle_submit(state, &req.body),
        ("POST", "/v1/shutdown") => {
            request_shutdown(state);
            Response::json(
                200,
                Json::obj()
                    .field("status", "shutting down")
                    .build()
                    .to_pretty(),
            )
        }
        ("GET", p) if p.starts_with("/v1/results/") => serve_blob(
            &state.results,
            p.trim_start_matches("/v1/results/"),
            "result",
        ),
        ("GET", p) if p.starts_with("/v1/artifacts/") => serve_blob(
            &state.artifacts,
            p.trim_start_matches("/v1/artifacts/"),
            "artifact",
        ),
        ("GET", p) if p.starts_with("/v1/progress/") => {
            handle_progress(state, p.trim_start_matches("/v1/progress/"), query)
        }
        (_, "/v1/health" | "/v1/experiments" | "/v1/metrics") => error_response(405, "use GET"),
        (_, "/v1/submit" | "/v1/shutdown") => error_response(405, "use POST"),
        (_, p)
            if p.starts_with("/v1/results/")
                || p.starts_with("/v1/artifacts/")
                || p.starts_with("/v1/progress/") =>
        {
            error_response(405, "use GET")
        }
        (_, p) => error_response(404, &format!("no such endpoint: {p}")),
    }
}

/// `GET /v1/metrics` — the registry as Prometheus text, or as the JSON
/// snapshot with `?format=json`. Under `DUPLO_JSON_STABLE` only the
/// stable (thread-count-invariant) metrics are listed.
fn handle_metrics(query: &str) -> Response {
    let stable_only = metrics::json_stable();
    match query_param(query, "format") {
        Some("json") => Response::json(200, metrics::snapshot_json(stable_only).to_pretty()),
        Some(other) => error_response(400, &format!("unknown format {other:?} (try json)")),
        None => Response::text(200, metrics::render_prometheus(stable_only)),
    }
}

/// `GET /v1/progress/<digest>` — snapshot (or long-poll with
/// `?since=<seq>&wait_ms=<ms>`) of one submission's lifecycle.
fn handle_progress(state: &ServerState, key: &str, query: &str) -> Response {
    let handle = state
        .jobs
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .map
        .get(key)
        .cloned();
    let Some(handle) = handle else {
        return error_response(404, &format!("no job with digest {key:?}"));
    };
    let since = query_param(query, "since")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    let wait_ms = query_param(query, "wait_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
        .min(MAX_WAIT_MS);
    let snap = handle.wait_past(since, Duration::from_millis(wait_ms));
    Response::json(200, snap.to_json(key).to_pretty())
}

/// Registers a fresh progress handle for `key` (replacing any previous
/// run of the same body), evicting the oldest beyond [`MAX_JOBS`].
fn register_job(state: &ServerState, key: &str) -> ProgressHandle {
    let handle = ProgressHandle::new();
    let mut jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
    if jobs.map.insert(key.to_string(), handle.clone()).is_none() {
        jobs.order.push_back(key.to_string());
        while jobs.order.len() > MAX_JOBS {
            if let Some(old) = jobs.order.pop_front() {
                jobs.map.remove(&old);
            }
        }
    }
    handle
}

/// Fails the job on drop unless a terminal state was already set — the
/// success path sets `Done` first, and terminal states are sticky, so
/// only panics and error returns actually mark `Failed`.
struct JobGuard(ProgressHandle);

impl Drop for JobGuard {
    fn drop(&mut self) {
        self.0.set_state(JobState::Failed);
    }
}

fn handle_health(state: &ServerState) -> Response {
    let body = Json::obj()
        .field("status", "ok")
        .field("experiments", experiments::registry().len() as u64)
        .field("workers", state.opts.workers.max(1) as u64)
        .build()
        .to_pretty();
    Response::json(200, body)
}

fn handle_experiments() -> Response {
    let rows: Vec<Json> = experiments::registry()
        .iter()
        .map(|s| {
            Json::obj()
                .field("name", s.name)
                .field("title", s.title)
                .field("paper_ref", s.paper_ref)
                .build()
        })
        .collect();
    let body = Json::obj()
        .field("experiments", Json::Arr(rows))
        .build()
        .to_pretty();
    Response::json(200, body)
}

fn serve_blob(store: &BlobStore, key: &str, what: &str) -> Response {
    match store.get(key) {
        Some(b) => Response {
            status: 200,
            body: b.as_ref().clone(),
            extra: vec![("X-Duplo-Digest".to_string(), key.to_string())],
            content_type: "application/json",
        },
        None => error_response(404, &format!("no {what} with digest {key:?}")),
    }
}

fn handle_submit(state: &ServerState, body: &[u8]) -> Response {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(e) => return error_response(400, &format!("body is not UTF-8: {e}")),
    };
    // Strict decode: the parser's positional error goes out verbatim.
    let doc = match parse(text) {
        Ok(d) => d,
        Err(e) => return error_response(400, &format!("body is not valid JSON: {e}")),
    };
    let Json::Obj(fields) = &doc else {
        return error_response(400, "submission must be a JSON object");
    };
    let mut experiment = None;
    let mut wtrace_doc = None;
    let mut options = None;
    let mut want_trace = false;
    for (key, val) in fields {
        match key.as_str() {
            "experiment" => match val.as_str() {
                Some(s) => experiment = Some(s.to_string()),
                None => return error_response(400, "experiment must be a string"),
            },
            "wtrace" => wtrace_doc = Some(val.clone()),
            "options" => options = Some(val.clone()),
            "trace" => match val {
                Json::Bool(b) => want_trace = *b,
                _ => return error_response(400, "trace must be a boolean"),
            },
            other => return error_response(400, &format!("{other}: unknown field")),
        }
    }
    // The job digest is the content digest of the raw request body, so
    // any client holding the same bytes can watch `/v1/progress/<digest>`.
    let job_key = digest::hex(digest::digest_bytes(body));
    let handle = register_job(state, &job_key);
    let guard = JobGuard(handle.clone());
    let mut resp = match (experiment, wtrace_doc) {
        (Some(_), Some(_)) => error_response(400, "experiment and wtrace are mutually exclusive"),
        (None, None) => error_response(400, "submission needs an experiment name or a wtrace"),
        (Some(name), None) => {
            submit_experiment(state, &name, options.as_ref(), want_trace, &handle)
        }
        (None, Some(doc)) => {
            if want_trace {
                error_response(400, "trace capture is not supported for wtrace submissions")
            } else {
                submit_wtrace(state, &doc, options.as_ref(), &handle)
            }
        }
    };
    drop(guard);
    resp.extra.push(("X-Duplo-Job".to_string(), job_key));
    resp
}

/// Resolves the per-submission options: the server defaults with the
/// request overlay on top.
fn submission_options(state: &ServerState, wire: Option<&Json>) -> Result<RunOptions, String> {
    match wire {
        Some(v) => state.opts.defaults.merge_wire(v),
        None => Ok(state.opts.defaults.clone()),
    }
}

fn submit_experiment(
    state: &ServerState,
    name: &str,
    wire: Option<&Json>,
    want_trace: bool,
    progress: &ProgressHandle,
) -> Response {
    let Some(spec) = experiments::find_experiment(name) else {
        let msg = match experiments::suggest_experiment(name) {
            Some(hint) => format!("unknown experiment {name:?} (did you mean {hint:?}?)"),
            None => format!("unknown experiment {name:?}"),
        };
        return error_response(404, &msg);
    };
    let mut opts = match submission_options(state, wire) {
        Ok(o) => o,
        Err(msg) => return error_response(400, &msg),
    };
    // Thread the lifecycle handle into the simulation so per-kernel cycle
    // counts stream out while the run is in flight.
    opts.progress = Some(progress.clone());
    opts.trace_sink = want_trace.then(|| trace::TraceSink::for_interval(opts.trace_interval));
    progress.set_state(JobState::Running);
    let out = (spec.run)(&opts);
    let artifact = opts.trace_sink.as_ref().map(|sink| {
        let data = sink.finish();
        let mut bytes = Vec::new();
        data.write_chrome(&mut bytes)
            .expect("writing to memory cannot fail");
        let key = state.artifacts.insert(&bytes);
        slog(format_args!(
            "traced {} ({} runs) -> artifact {key}",
            spec.name,
            data.runs.len()
        ));
        key
    });
    // The stable result form: no host block, ever — responses must be
    // byte-identical across cache states and thread counts.
    let mut resp = finish_submission(state, progress, spec.name, out.result.to_pretty());
    if let Some(a) = artifact {
        resp.extra.push(("X-Duplo-Artifact".to_string(), a));
    }
    resp
}

fn submit_wtrace(
    state: &ServerState,
    doc: &Json,
    wire: Option<&Json>,
    progress: &ProgressHandle,
) -> Response {
    let records = match wtrace::decode(doc) {
        Ok(r) => r,
        Err(e) => return error_response(400, &format!("wtrace: {e}")),
    };
    let mut opts = match submission_options(state, wire) {
        Ok(o) => o,
        Err(msg) => return error_response(400, &msg),
    };
    opts.progress = Some(progress.clone());
    progress.set_state(JobState::Running);
    let cfg = opts.apply(crate::GpuConfig::titan_v());
    let mut rows = Vec::new();
    for record in records {
        let num_ctas = record.num_ctas;
        let kernel = wtrace::TraceKernel::new(record);
        let r = crate::GpuSim::with_options(cfg.clone(), opts.clone()).run(&kernel);
        rows.push(
            Json::obj()
                .field("name", duplo_isa::Kernel::name(&kernel))
                .field("num_ctas", num_ctas as u64)
                .field("result", cache::result_to_json(&r))
                .build(),
        );
    }
    let what = format!("wtrace of {} kernels", rows.len());
    let body = Json::obj()
        .field("schema", u64::from(crate::results::SCHEMA_VERSION))
        .field("kernels", Json::Arr(rows))
        .build()
        .to_pretty();
    finish_submission(state, progress, &what, body)
}

/// The shared tail of a successful submission: marks the job done, stores
/// `body` by digest, and answers with it. The cache headers and the `ran`
/// log line carry the submission's own lookups, read from its progress
/// handle, so concurrent submissions never see each other's.
fn finish_submission(
    state: &ServerState,
    progress: &ProgressHandle,
    what: &str,
    body: String,
) -> Response {
    progress.set_state(JobState::Done);
    let cache = progress.snapshot().cache;
    let key = state.results.insert(body.as_bytes());
    slog(format_args!(
        "ran {what} (cache hits={} misses={}) -> {key}",
        cache.hits, cache.misses
    ));
    Response {
        status: 200,
        body: body.into_bytes(),
        extra: vec![
            ("X-Duplo-Digest".to_string(), key),
            ("X-Duplo-Cache-Hits".to_string(), cache.hits.to_string()),
            ("X-Duplo-Cache-Misses".to_string(), cache.misses.to_string()),
        ],
        content_type: "application/json",
    }
}

// ---------------------------------------------------------------------------
// Minimal HTTP client (for `duplo submit`, CI, and the soak test)
// ---------------------------------------------------------------------------

/// A client-side view of one HTTP exchange.
#[derive(Clone, Debug)]
pub struct HttpReply {
    /// Response status code.
    pub status: u16,
    /// Response headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpReply {
    /// First header value with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Performs one `Connection: close` HTTP/1.1 exchange against `addr`.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<HttpReply, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let body = body.unwrap_or(&[]);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("cannot read response: {e}"))?;
    let sep = find_crlfcrlf(&raw).ok_or("malformed response: no header terminator")?;
    let head = parse_head(&raw[..sep]);
    let status = head
        .status()
        .ok_or_else(|| format!("malformed status line: {:?}", head.start))?;
    Ok(HttpReply {
        status,
        headers: head.headers,
        body: raw[sep + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start_quiet() -> Server {
        Server::start(ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        })
        .expect("bind ephemeral port")
    }

    fn addr_of(server: &Server) -> String {
        server.local_addr().to_string()
    }

    fn parse_error(reply: &HttpReply) -> (u64, String, String) {
        let doc = parse(std::str::from_utf8(&reply.body).unwrap()).expect("error body parses");
        let err = doc.get("error").expect("error object");
        (
            err.get("status").and_then(Json::as_u64).unwrap(),
            err.get("kind").and_then(Json::as_str).unwrap().to_string(),
            err.get("message")
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
        )
    }

    #[test]
    fn health_and_experiments_respond() {
        let server = start_quiet();
        let addr = addr_of(&server);
        let reply = http_request(&addr, "GET", "/v1/health", None).unwrap();
        assert_eq!(reply.status, 200);
        let doc = parse(std::str::from_utf8(&reply.body).unwrap()).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        let reply = http_request(&addr, "GET", "/v1/experiments", None).unwrap();
        assert_eq!(reply.status, 200);
        let doc = parse(std::str::from_utf8(&reply.body).unwrap()).unwrap();
        assert_eq!(
            doc.get("experiments")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(experiments::registry().len())
        );
        server.shutdown();
        server.join();
    }

    #[test]
    fn malformed_submissions_get_structured_errors_never_dropped_connections() {
        let server = start_quiet();
        let addr = addr_of(&server);
        // Invalid JSON: parse error verbatim, 400.
        let reply = http_request(&addr, "POST", "/v1/submit", Some(b"{nope")).unwrap();
        let (status, kind, msg) = parse_error(&reply);
        assert_eq!((reply.status, status), (400, 400));
        assert_eq!(kind, "bad_request");
        assert!(msg.contains("not valid JSON"), "{msg}");
        // Wrong shape.
        let reply = http_request(&addr, "POST", "/v1/submit", Some(b"[1,2]")).unwrap();
        assert_eq!(reply.status, 400);
        // Unknown experiment: 404 with a suggestion.
        let reply = http_request(
            &addr,
            "POST",
            "/v1/submit",
            Some(br#"{"experiment": "smem_polcy"}"#),
        )
        .unwrap();
        let (_, kind, msg) = parse_error(&reply);
        assert_eq!((reply.status, kind.as_str()), (404, "not_found"));
        assert!(msg.contains("smem_policy"), "suggestion expected: {msg}");
        // Strict options overlay.
        let reply = http_request(
            &addr,
            "POST",
            "/v1/submit",
            Some(br#"{"experiment": "smem_policy", "options": {"smaple_ctas": 1}}"#),
        )
        .unwrap();
        let (_, _, msg) = parse_error(&reply);
        assert_eq!(reply.status, 400);
        assert!(msg.contains("unknown field"), "{msg}");
        // Unknown endpoint and wrong method.
        let reply = http_request(&addr, "GET", "/v1/nope", None).unwrap();
        assert_eq!(reply.status, 404);
        let reply = http_request(&addr, "GET", "/v1/submit", None).unwrap();
        assert_eq!(reply.status, 405);
        // Oversized declared body.
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .write_all(b"POST /v1/submit HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
            .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 413"), "{text}");
        // Chunked transfer encoding is refused, not mis-parsed.
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .write_all(b"POST /v1/submit HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
            .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 501"), "{text}");
        server.shutdown();
        server.join();
    }

    #[test]
    fn blob_store_evicts_least_recently_used() {
        // The assertions read metric handles: keep the kill switch (which
        // another unit test flips) off for the duration.
        let _metrics_on = metrics::override_enabled(true);
        let store = BlobStore::new("unit_entries", 2, usize::MAX);
        let a = store.insert(b"aaaa");
        let b = store.insert(b"bbbb");
        assert_eq!(store.evictions.get(), 0);
        // Touch `a` so `b` is the LRU entry when `c` arrives.
        assert!(store.get(&a).is_some());
        let c = store.insert(b"cccc");
        assert_eq!(store.evictions.get(), 1);
        assert!(store.get(&b).is_none(), "LRU entry should be evicted");
        assert!(store.get(&a).is_some());
        assert!(store.get(&c).is_some());
        assert_eq!(store.entries_gauge.get(), 2);
        assert_eq!(store.bytes_gauge.get(), 8);
    }

    #[test]
    fn blob_store_byte_cap_keeps_the_newest_blob() {
        let store = BlobStore::new("unit_bytes", 100, 10);
        let a = store.insert(&[1u8; 8]);
        let b = store.insert(&[2u8; 8]);
        // 16 bytes > 10: `a` goes, the fresh insert survives even though
        // it alone still exceeds the cap.
        assert!(store.get(&a).is_none());
        assert!(store.get(&b).is_some());
        let big = store.insert(&[3u8; 64]);
        assert!(store.get(&big).is_some(), "oversized blob still serves");
        assert!(store.get(&b).is_none());
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text_and_json() {
        let server = start_quiet();
        let addr = addr_of(&server);
        // Generate one known request before scraping.
        let reply = http_request(&addr, "GET", "/v1/health", None).unwrap();
        let rid = reply.header("x-duplo-request-id").expect("request id");
        assert!(rid.starts_with("req-"), "{rid}");
        let reply = http_request(&addr, "GET", "/v1/metrics", None).unwrap();
        assert_eq!(reply.status, 200);
        let text = String::from_utf8_lossy(&reply.body).to_string();
        assert!(
            text.contains("# TYPE duplo_serve_in_flight gauge"),
            "{text}"
        );
        // Counters are process-global and other tests also probe /v1/health,
        // so assert the labeled family exists rather than an exact count.
        assert!(
            text.contains("duplo_serve_requests_total{route=\"/v1/health\",status=\"200\"}"),
            "{text}"
        );
        assert!(text.contains("duplo_serve_latency_us_bucket"), "{text}");
        let reply = http_request(&addr, "GET", "/v1/metrics?format=json", None).unwrap();
        assert_eq!(reply.status, 200);
        let doc = parse(std::str::from_utf8(&reply.body).unwrap()).unwrap();
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("duplo_metrics")
        );
        assert!(doc.get("metrics").and_then(Json::as_arr).is_some());
        let reply = http_request(&addr, "GET", "/v1/metrics?format=xml", None).unwrap();
        assert_eq!(reply.status, 400);
        server.shutdown();
        server.join();
    }

    #[test]
    fn errors_carry_the_request_id() {
        let server = start_quiet();
        let addr = addr_of(&server);
        let reply = http_request(&addr, "GET", "/v1/nope", None).unwrap();
        assert_eq!(reply.status, 404);
        let header_rid = reply
            .header("x-duplo-request-id")
            .expect("request id header")
            .to_string();
        let doc = parse(std::str::from_utf8(&reply.body).unwrap()).unwrap();
        let body_rid = doc
            .get("error")
            .and_then(|e| e.get("request_id"))
            .and_then(Json::as_str)
            .expect("error.request_id");
        assert_eq!(body_rid, header_rid);
        server.shutdown();
        server.join();
    }

    #[test]
    fn progress_endpoint_tracks_a_submission() {
        let server = start_quiet();
        let addr = addr_of(&server);
        let body = br#"{"experiment": "smem_polcy"}"#;
        // Unknown digest: 404.
        let reply = http_request(&addr, "GET", "/v1/progress/deadbeef", None).unwrap();
        assert_eq!(reply.status, 404);
        // A failed submission (unknown experiment) still registers a job
        // and ends in `failed`.
        let reply = http_request(&addr, "POST", "/v1/submit", Some(body)).unwrap();
        assert_eq!(reply.status, 404);
        let job = reply.header("x-duplo-job").expect("job digest").to_string();
        let reply = http_request(&addr, "GET", &format!("/v1/progress/{job}"), None).unwrap();
        assert_eq!(reply.status, 200);
        let doc = parse(std::str::from_utf8(&reply.body).unwrap()).unwrap();
        assert_eq!(doc.get("state").and_then(Json::as_str), Some("failed"));
        assert_eq!(doc.get("job").and_then(Json::as_str), Some(job.as_str()));
        server.shutdown();
        server.join();
    }

    #[test]
    fn traced_and_untraced_submissions_run_concurrently() {
        let server = start_quiet();
        let addr = addr_of(&server);
        let submit = |trace: bool| {
            let body = format!(
                r#"{{"experiment": "smem_policy", "options": {{"sample_ctas": 1, "no_cache": true}}, "trace": {trace}}}"#
            );
            let reply = http_request(&addr, "POST", "/v1/submit", Some(body.as_bytes())).unwrap();
            assert_eq!(
                reply.status,
                200,
                "{}",
                String::from_utf8_lossy(&reply.body)
            );
            reply
        };
        // Kernel records in a traced submission's artifact.
        let runs_in_artifact = |reply: &HttpReply| {
            let digest = reply.header("x-duplo-artifact").expect("trace artifact");
            let art = http_request(&addr, "GET", &format!("/v1/artifacts/{digest}"), None).unwrap();
            let doc = parse(std::str::from_utf8(&art.body).unwrap()).unwrap();
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .filter(|e| e.get("cat").and_then(Json::as_str) == Some("kernel"))
                .count()
        };
        let solo = runs_in_artifact(&submit(true));
        assert!(solo > 0, "a traced submission records its runs");
        // Start both together: neither may wait for the other.
        let barrier = std::sync::Barrier::new(2);
        let (traced, plain) = std::thread::scope(|s| {
            let traced = s.spawn(|| {
                barrier.wait();
                submit(true)
            });
            let plain = s.spawn(|| {
                barrier.wait();
                submit(false)
            });
            (traced.join().unwrap(), plain.join().unwrap())
        });
        assert!(plain.header("x-duplo-artifact").is_none());
        assert_eq!(
            runs_in_artifact(&traced),
            solo,
            "the untraced run must not leak into the traced artifact"
        );
        let spec = experiments::find_experiment("smem_policy").unwrap();
        let opts = RunOptions {
            sample_ctas: Some(1),
            no_cache: true,
            ..RunOptions::default()
        };
        let expected = (spec.run)(&opts).result.to_pretty();
        assert_eq!(traced.body, expected.as_bytes());
        assert_eq!(plain.body, expected.as_bytes());
        server.shutdown();
        server.join();
    }

    #[test]
    fn concurrent_submissions_report_their_own_cache_lookups() {
        // Two cold submissions started together (sample sizes no other
        // test uses, so neither key is warm): each reply's cache headers
        // must be its solo values — smem_policy's 3 kernels, all missed —
        // however the two runs overlap.
        let server = start_quiet();
        let addr = addr_of(&server);
        let submit = |sample: usize| {
            let body = format!(
                r#"{{"experiment": "smem_policy", "options": {{"sample_ctas": {sample}}}}}"#
            );
            let reply = http_request(&addr, "POST", "/v1/submit", Some(body.as_bytes())).unwrap();
            assert_eq!(
                reply.status,
                200,
                "{}",
                String::from_utf8_lossy(&reply.body)
            );
            let header = |name| reply.header(name).map(str::to_string);
            (header("x-duplo-cache-hits"), header("x-duplo-cache-misses"))
        };
        let barrier = std::sync::Barrier::new(2);
        let (submit, barrier) = (&submit, &barrier);
        let replies: Vec<_> = std::thread::scope(|s| {
            let runs: Vec<_> = [5, 7]
                .into_iter()
                .map(|sample| {
                    s.spawn(move || {
                        barrier.wait();
                        submit(sample)
                    })
                })
                .collect();
            runs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (hits, misses) in replies {
            assert_eq!((hits.as_deref(), misses.as_deref()), (Some("0"), Some("3")));
        }
        server.shutdown();
        server.join();
    }

    #[test]
    fn submissions_without_options_sample_like_the_cli() {
        // No `options` on a default daemon means what no flag means to
        // `duplo run`: full CTA shares. The daemon resolves its defaults
        // the way `duplo serve` does, so both sides see one environment.
        let cli = RunOptions::from_cli(&[]).unwrap();
        let server = Server::start(ServeOptions {
            workers: 2,
            defaults: cli.clone(),
            ..ServeOptions::default()
        })
        .expect("bind ephemeral port");
        let addr = addr_of(&server);
        let reply = http_request(
            &addr,
            "POST",
            "/v1/submit",
            Some(br#"{"experiment": "wl_membound"}"#),
        )
        .unwrap();
        assert_eq!(
            reply.status,
            200,
            "{}",
            String::from_utf8_lossy(&reply.body)
        );
        let spec = experiments::find_experiment("wl_membound").unwrap();
        let expected = (spec.run)(&cli).result.to_pretty();
        let body = std::str::from_utf8(&reply.body).unwrap();
        assert_eq!(body, expected);
        let doc = parse(body).unwrap();
        let sample = doc.get("config").and_then(|c| c.get("sample_ctas"));
        assert_eq!(sample, Some(&Json::Null));
        server.shutdown();
        server.join();
    }

    #[test]
    fn garbage_bytes_get_a_400_not_a_hang() {
        let server = start_quiet();
        let addr = addr_of(&server);
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(b"\x00\x01\x02 garbage\r\n\r\n").unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        server.shutdown();
        server.join();
    }

    #[test]
    fn parse_head_is_total_and_reads_back_written_heads() {
        use duplo_testkit::{prop, require_eq};
        // Mostly the bytes a head is made of, so lines and colons occur.
        let alphabet = b"\r\n: \tGET/1.HTTP\x00\xff";
        prop::check(
            "parse_head never panics",
            512,
            |rng| {
                let len = rng.gen_range(0usize..48);
                let mut bytes: Vec<u8> = (0..len)
                    .map(|_| alphabet[rng.gen_index(alphabet.len())])
                    .collect();
                if rng.gen_bool(0.25) {
                    rng.fill_bytes(&mut bytes);
                }
                Some(bytes)
            },
            |bytes| {
                let head = parse_head(bytes);
                let _ = (head.request(), head.status());
                Ok(())
            },
        );
        let statuses = [200u16, 400, 404, 405, 413, 500, 501];
        prop::check(
            "a written head parses back",
            256,
            |rng| {
                let status = statuses[rng.gen_index(statuses.len())];
                let extra: Vec<(String, String)> = (0..rng.gen_range(0usize..4))
                    .map(|i| {
                        let inner: String = (0..rng.gen_range(0usize..6))
                            .map(|_| char::from(b"a: /-9"[rng.gen_index(6)]))
                            .collect();
                        (format!("X-Duplo-H{i}"), format!("v{inner}v"))
                    })
                    .collect();
                Some((status, extra, rng.gen_range(0usize..100)))
            },
            |(status, extra, len)| {
                let resp = Response {
                    status: *status,
                    body: vec![b'x'; *len],
                    extra: extra.clone(),
                    content_type: "application/json",
                };
                let text = response_head(&resp);
                let head = parse_head(text.strip_suffix("\r\n\r\n").unwrap().as_bytes());
                require_eq!(head.status(), Some(*status));
                let mut want = vec![
                    ("content-type".to_string(), "application/json".to_string()),
                    ("content-length".to_string(), len.to_string()),
                    ("connection".to_string(), "close".to_string()),
                ];
                want.extend(
                    extra
                        .iter()
                        .map(|(n, v)| (n.to_ascii_lowercase(), v.clone())),
                );
                require_eq!(head.headers, want);
                Ok(())
            },
        );
    }

    #[test]
    fn queued_connections_are_served_in_connect_order() {
        let server = Server::start(ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        })
        .expect("bind ephemeral port");
        let addr = addr_of(&server);
        // Hold the only worker on a request head that is not finished yet.
        // It is the oldest connection, so a FIFO queue hands it out first
        // whenever the worker wakes.
        let mut holder = TcpStream::connect(&addr).unwrap();
        holder.write_all(b"GET /v1/health HTTP/1.1\r\n").unwrap();
        let mut queued: Vec<TcpStream> = (0..3)
            .map(|_| {
                let mut s = TcpStream::connect(&addr).unwrap();
                s.write_all(b"GET /v1/health HTTP/1.1\r\n\r\n").unwrap();
                s
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.state.queue.lock().unwrap().len() < 3 {
            assert!(Instant::now() < deadline, "connections never queued");
            std::thread::sleep(Duration::from_millis(10));
        }
        // Release the worker; it must then take the queue oldest first.
        holder.write_all(b"\r\n").unwrap();
        let ids: Vec<u64> = queued
            .iter_mut()
            .map(|s| {
                let mut raw = Vec::new();
                s.read_to_end(&mut raw).unwrap();
                let text = String::from_utf8_lossy(&raw);
                let rid = text
                    .lines()
                    .find_map(|l| l.strip_prefix("X-Duplo-Request-Id: req-"))
                    .unwrap_or_else(|| panic!("no request id in {text}"));
                u64::from_str_radix(rid.trim(), 16).unwrap()
            })
            .collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "served out of connect order: {ids:?}"
        );
        server.shutdown();
        server.join();
    }
}
