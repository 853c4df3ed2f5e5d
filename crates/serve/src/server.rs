//! The multi-tenant server: accept loop, bounded worker pool, session
//! protocol, `/metrics` endpoint, graceful shutdown.
//!
//! Concurrency model: one acceptor thread owns the listener and feeds a
//! bounded pool of worker threads through a queue; each worker serves one
//! connection at a time to completion, so at most `workers` sessions run
//! concurrently and the rest wait in the accept queue. Tenants live behind
//! individual mutexes — two sessions of *different* tenants proceed in
//! parallel, two sessions of the same tenant serialize at its lock, and a
//! panic while serving one tenant (caught at the worker boundary) cannot
//! corrupt another tenant's accountant or rate bucket.
//!
//! Shutdown is graceful: [`ServerHandle::shutdown`] stops the acceptor,
//! lets every queued and in-flight session finish its current request,
//! answers anything a draining session sends next with `SO-SHUTDOWN`, and
//! joins the pool.
//!
//! Frames are decoded with [`Request::decode`] and answered with
//! [`Response::write_frame`]: the typed codec, which builds no `Json` tree
//! on the way in or out.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::flight::{slowlog_line, slowlog_micros_from_env, RequestRecord};
use crate::limit::TickSource;
use crate::proto::{
    read_payload, ProtoError, Request, Response, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use crate::tenant::{Tenant, TenantConfig, WorkloadOutcome};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker-pool size (max concurrent sessions).
    pub workers: usize,
    /// Frame-size cap enforced on every read.
    pub max_frame: usize,
    /// When true, the logical clock advances by one tick per processed
    /// request — fully deterministic rate-limit behavior for a fixed
    /// request sequence. The standalone daemon turns this off and drives
    /// the clock from a timer thread instead.
    pub tick_per_request: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_frame: DEFAULT_MAX_FRAME,
            tick_per_request: true,
        }
    }
}

struct Shared {
    tenants: BTreeMap<String, Mutex<Tenant>>,
    tick: TickSource,
    shutdown: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    max_frame: usize,
    tick_per_request: bool,
    /// Source of server-assigned request ids (`srv-N`): deterministic for a
    /// sequential request stream, merely unique under concurrency.
    request_seq: AtomicU64,
    /// `SO_SLOWLOG_MICROS` threshold, read once at spawn; `None` disables
    /// the stderr slow log.
    slowlog_micros: Option<u64>,
}

/// A handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Binds to `127.0.0.1:0` (or the given address) and spawns the server.
pub fn spawn(
    tenants: Vec<TenantConfig>,
    config: ServerConfig,
    bind: Option<&str>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(bind.unwrap_or("127.0.0.1:0"))?;
    let addr = listener.local_addr()?;
    let tenants: BTreeMap<String, Mutex<Tenant>> = tenants
        .into_iter()
        .map(|c| (c.name.clone(), Mutex::new(Tenant::new(c))))
        .collect();
    let shared = Arc::new(Shared {
        tenants,
        tick: TickSource::new(),
        shutdown: AtomicBool::new(false),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        max_frame: config.max_frame,
        tick_per_request: config.tick_per_request,
        request_seq: AtomicU64::new(0),
        slowlog_micros: slowlog_micros_from_env(),
    });

    let accept_shared = Arc::clone(&shared);
    let acceptor = std::thread::Builder::new()
        .name("so-serve-accept".to_owned())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                crate::obs::serve_metrics().sessions.inc();
                let mut q = lock_clean(&accept_shared.queue);
                q.push_back(stream);
                drop(q);
                accept_shared.queue_cv.notify_one();
            }
        })?;

    let workers = (0..config.workers.max(1))
        .map(|i| {
            let w = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("so-serve-worker-{i}"))
                .spawn(move || worker_loop(&w))
        })
        .collect::<std::io::Result<Vec<_>>>()?;

    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        workers,
    })
}

impl ServerHandle {
    /// The bound address (the OS-assigned port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's logical clock (advance it externally when
    /// `tick_per_request` is off).
    pub fn tick(&self) -> TickSource {
        self.shared.tick.clone()
    }

    /// Runs `f` on a tenant's state under its lock — the experiment
    /// harness uses this to read ground truth (secret column, audit trail)
    /// server-side. Returns `None` for an unknown tenant.
    pub fn with_tenant<T>(&self, name: &str, f: impl FnOnce(&Tenant) -> T) -> Option<T> {
        self.shared.tenants.get(name).map(|t| f(&lock_clean(t)))
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// sessions, join every thread. Idempotent.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake the acceptor with a throwaway connection; it re-checks the
        // flag after every accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        self.shared.queue_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Locks a mutex, recovering from poisoning — a panic in one session must
/// not wedge the tenant (or the queue) for everyone else.
fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let stream = {
            let mut q = lock_clean(&shared.queue);
            loop {
                if let Some(s) = q.pop_front() {
                    break s;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = shared.queue_cv.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        };
        crate::obs::serve_metrics().active_sessions.add(1.0);
        // A panic while serving one session must not take down the pool or
        // leak into another tenant: tenant locks recover from poisoning,
        // and the worker survives to pick up the next connection.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_connection(shared, stream);
        }));
        crate::obs::serve_metrics().active_sessions.add(-1.0);
        if r.is_err() {
            crate::obs::serve_metrics().proto_errors.inc();
        }
    }
}

/// A reader that survives read timeouts until the server starts draining.
///
/// Workers block reading the next frame of an open session; with plain
/// blocking reads a client that simply holds its connection open would pin
/// its worker through shutdown and deadlock the join. Instead every session
/// socket gets a short read timeout, and this wrapper absorbs the timeouts
/// (retrying, so partial frames reassemble transparently under
/// `read_exact`) until the shutdown flag flips — then it returns an error
/// and the session ends cleanly, with any in-flight request already
/// answered.
struct DrainingReader<'a> {
    stream: &'a TcpStream,
    shutdown: &'a AtomicBool,
}

impl Read for DrainingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match (&mut &*self.stream).read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.shutdown.load(Ordering::Acquire) {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::ConnectionAborted,
                            "server draining",
                        ));
                    }
                }
                r => return r,
            }
        }
    }
}

/// Serves one connection to completion.
fn serve_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(50)));
    // Responses are complete messages; never let Nagle hold one back.
    let _ = stream.set_nodelay(true);
    // Sniff the first 4 bytes: "GET " or "HEAD" means a plain-HTTP request
    // sharing the port; anything else is a frame-length prefix.
    let mut first = [0u8; 4];
    {
        let mut reader = DrainingReader {
            stream: &stream,
            shutdown: &shared.shutdown,
        };
        if reader.read_exact(&mut first).is_err() {
            return; // closed (or drained) before a full prefix
        }
    }
    if &first == b"GET " || &first == b"HEAD" {
        serve_http(shared, &mut stream, first);
        return;
    }

    let mut session_tenant: Option<String> = None;
    let mut prefix = Some(first);
    loop {
        let payload = {
            let mut reader = DrainingReader {
                stream: &stream,
                shutdown: &shared.shutdown,
            };
            read_payload(&mut reader, prefix.take(), shared.max_frame)
        };
        // The correlation id is validated with the request, so a malformed
        // id is an SO-PROTO answer; it is assigned (`srv-N`) when the
        // client sent none.
        let decoded = payload.and_then(|p| Request::decode(&p));
        let (request, supplied) = match decoded {
            Ok(r) => r,
            Err(ProtoError::Closed) => return,
            Err(e @ ProtoError::Truncated(_)) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    // Not a peer failure: the draining reader aborted an
                    // idle wait. Tell the session (best-effort) and end it.
                    let _ = respond(&mut stream, &shutdown_error(), None);
                    return;
                }
                // Mid-request disconnect: the peer is likely gone; report
                // best-effort and close.
                crate::obs::serve_metrics().proto_errors.inc();
                let _ = respond(&mut stream, &proto_error(&e), None);
                return;
            }
            Err(e @ ProtoError::Oversized { .. }) => {
                // The payload was not consumed — the stream is out of
                // sync. Answer, then close.
                crate::obs::serve_metrics().proto_errors.inc();
                let _ = respond(&mut stream, &proto_error(&e), None);
                return;
            }
            Err(e) => {
                // Garbage bytes with a believable length, a non-JSON
                // payload or a malformed request: the declared payload
                // *was* consumed, so framing is still in sync — answer and
                // keep the session.
                crate::obs::serve_metrics().proto_errors.inc();
                if respond(&mut stream, &proto_error(&e), None).is_err() {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            let _ = respond(&mut stream, &shutdown_error(), None);
            return;
        }
        let request_id = supplied.unwrap_or_else(|| {
            format!(
                "srv-{}",
                shared.request_seq.fetch_add(1, Ordering::Relaxed) + 1
            )
        });
        let response = handle_request(shared, &mut session_tenant, request, &request_id);
        if respond(&mut stream, &response, Some(&request_id)).is_err() {
            return;
        }
    }
}

/// What one dispatched request leaves behind for the flight recorder and
/// the labeled metrics. `tenant == None` means the request ran outside any
/// tenant binding (nothing to record against).
#[derive(Debug, Default)]
struct FlightDraft {
    tenant: Option<String>,
    /// False for pure introspection (`flight`): recording the act of
    /// reading the recorder would make every inspection shift the ring.
    record: bool,
    outcome: &'static str,
    codes: Vec<String>,
    evidence: String,
    epsilon_spent: f64,
    rows_scanned: u64,
    cache_hits: u64,
}

fn handle_request(
    shared: &Arc<Shared>,
    session_tenant: &mut Option<String>,
    request: Request,
    request_id: &str,
) -> Response {
    // The wall clock below is export-only: it feeds the `*_micros`
    // histograms, the flight record's latency field, and the stderr slow
    // log — never a response body or transcript value.
    let started = Instant::now();
    let _rid = so_obs::with_request_id(request_id);
    let span = so_obs::span("serve.request");
    let op = request.op_name();
    let mut draft = FlightDraft::default();
    let response = dispatch(shared, session_tenant, request, &mut draft);
    let micros = started.elapsed().as_micros() as u64;

    let sm = crate::obs::serve_metrics();
    sm.request_micros.observe(micros as f64);
    let tenant_label = draft.tenant.as_deref().unwrap_or("none");
    crate::obs::serve_requests_by_op(op, tenant_label).inc();
    crate::obs::serve_op_latency(op, tenant_label).observe(micros as f64);

    if draft.record {
        if let Some(name) = &draft.tenant {
            if let Some(tenant) = shared.tenants.get(name) {
                let record = RequestRecord {
                    tenant: name.clone(),
                    op: op.to_owned(),
                    request_id: request_id.to_owned(),
                    outcome: draft.outcome.to_owned(),
                    codes: std::mem::take(&mut draft.codes),
                    evidence: std::mem::take(&mut draft.evidence),
                    epsilon_spent: draft.epsilon_spent,
                    rows_scanned: draft.rows_scanned,
                    cache_hits: draft.cache_hits,
                    latency_micros: micros,
                };
                if shared.slowlog_micros.is_some_and(|t| micros >= t) {
                    sm.slowlog_emitted.inc();
                    eprintln!("{}", slowlog_line(&record));
                }
                sm.flight_records.inc();
                lock_clean(tenant).flight_mut().push(record);
            }
        }
    }
    if so_obs::enabled() {
        span.finish_with(&[
            ("op", op.to_owned()),
            ("tenant", tenant_label.to_owned()),
            ("outcome", draft.outcome.to_owned()),
        ]);
    }
    response
}

fn dispatch(
    shared: &Arc<Shared>,
    session_tenant: &mut Option<String>,
    request: Request,
    draft: &mut FlightDraft,
) -> Response {
    crate::obs::serve_metrics().requests.inc();
    draft.outcome = "ok";
    let tick = if shared.tick_per_request {
        shared.tick.advance(1)
    } else {
        shared.tick.now()
    };
    match request {
        Request::Hello { tenant } => match shared.tenants.get(&tenant) {
            Some(t) => {
                let t = lock_clean(t);
                *session_tenant = Some(tenant.clone());
                draft.tenant = Some(tenant.clone());
                draft.record = true;
                Response::Welcome {
                    tenant,
                    gated: t.gated(),
                    n_rows: t.n_rows(),
                    version: PROTOCOL_VERSION.to_owned(),
                }
            }
            None => {
                draft.outcome = "error";
                draft.codes = vec!["SO-TENANT".to_owned()];
                Response::Error {
                    code: "SO-TENANT".to_owned(),
                    detail: format!("unknown tenant {tenant:?}"),
                    retry_after_ticks: None,
                }
            }
        },
        Request::Ping => Response::Pong,
        Request::Metrics => Response::MetricsDump {
            text: so_obs::global().render(),
        },
        Request::Budget | Request::Workload { .. } | Request::Flight => {
            let Some(name) = session_tenant.as_ref() else {
                draft.outcome = "error";
                draft.codes = vec!["SO-TENANT".to_owned()];
                return Response::Error {
                    code: "SO-TENANT".to_owned(),
                    detail: "no tenant bound; send hello first".to_owned(),
                    retry_after_ticks: None,
                };
            };
            let tenant = shared
                .tenants
                .get(name)
                .expect("session tenant exists: hello validated it");
            let mut tenant = lock_clean(tenant);
            draft.tenant = Some(name.clone());
            if matches!(request, Request::Flight) {
                // Introspection is never rate-limited (a throttled tenant
                // must still be inspectable) and never recorded.
                return Response::FlightDump {
                    tenant: name.clone(),
                    cap: tenant.flight().cap(),
                    total: tenant.flight().total(),
                    records: tenant.flight().records(),
                };
            }
            draft.record = true;
            if let Err(retry_after) = tenant.admit(tick) {
                crate::obs::serve_metrics().rate_limited.inc();
                draft.outcome = "rate_limited";
                draft.codes = vec!["SO-RATE".to_owned()];
                return Response::Error {
                    code: "SO-RATE".to_owned(),
                    detail: format!("tenant {name:?} over rate limit"),
                    retry_after_ticks: Some(retry_after),
                };
            }
            match request {
                Request::Budget => {
                    let (accounting, spent, remaining, version) = tenant.budget();
                    tenant.publish_epsilon_gauges();
                    Response::BudgetState {
                        accounting,
                        spent,
                        remaining,
                        version,
                    }
                }
                Request::Workload { queries, noise } => {
                    let outcome = tenant.run_workload(&queries, noise);
                    let profile = tenant.last_profile().clone();
                    draft.codes = profile.codes;
                    draft.evidence = profile.evidence;
                    draft.epsilon_spent = profile.epsilon_spent;
                    draft.rows_scanned = profile.rows_scanned;
                    draft.cache_hits = profile.cache_hits;
                    tenant.publish_epsilon_gauges();
                    match outcome {
                        Ok(WorkloadOutcome::Answered(answers)) => {
                            draft.outcome = "answered";
                            Response::Answers { answers }
                        }
                        Ok(WorkloadOutcome::Refused(refusals)) => {
                            draft.outcome = "refused";
                            Response::Refused {
                                refusals,
                                queries: queries.len(),
                            }
                        }
                        Err(e) => {
                            crate::obs::serve_metrics().proto_errors.inc();
                            draft.outcome = "error";
                            draft.codes = vec!["SO-PROTO".to_owned()];
                            proto_error(&e)
                        }
                    }
                }
                _ => unreachable!("outer match covers the rest"),
            }
        }
    }
}

fn proto_error(e: &ProtoError) -> Response {
    Response::Error {
        code: "SO-PROTO".to_owned(),
        detail: e.to_string(),
        retry_after_ticks: None,
    }
}

fn shutdown_error() -> Response {
    Response::Error {
        code: "SO-SHUTDOWN".to_owned(),
        detail: "server is draining".to_owned(),
        retry_after_ticks: None,
    }
}

/// Writes `response` as one frame, tagged with the request id it answers
/// (when known) so a client can correlate frames with its own trace.
fn respond(
    stream: &mut TcpStream,
    response: &Response,
    request_id: Option<&str>,
) -> std::io::Result<()> {
    let mut frame = Vec::new();
    response.write_frame(request_id, &mut frame);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Answers one plain-HTTP `GET`/`HEAD` request and closes. Routes:
///
/// * `/metrics` — the live [`so_obs::global`] registry, Prometheus text;
/// * `/healthz` — `ok` while the acceptor is up (liveness probe);
/// * `/flight/<tenant>` — that tenant's flight-recorder dump as JSON lines
///   (includes `latency_micros`: HTTP output is export-only, never diffed).
///
/// `HEAD` returns the same status and `content-length` with an empty body.
fn serve_http(shared: &Arc<Shared>, stream: &mut TcpStream, first: [u8; 4]) {
    // Drain the request head (best effort — probes and scrapers send a
    // small header block; stop at the blank line or EOF).
    let mut buf = [0u8; 512];
    let mut head: Vec<u8> = first.to_vec();
    loop {
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
        }
    }
    let path: Vec<u8> = head
        .split(|&b| b == b' ')
        .nth(1)
        .map(|p| p.split(|&b| b == b'?').next().unwrap_or(p).to_vec())
        .unwrap_or_default();
    let (status, body) = route_http(shared, &path);
    let response = format!(
        "HTTP/1.1 {status}\r\ncontent-type: text/plain; version=0.0.4\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    if &first != b"HEAD" {
        let _ = stream.write_all(body.as_bytes());
    }
}

/// The pure routing rule behind [`serve_http`], separated for tests:
/// `(status line, body)` for a query-stripped request path.
fn route_http(shared: &Arc<Shared>, path: &[u8]) -> (&'static str, String) {
    match path {
        b"/metrics" => ("200 OK", so_obs::global().render()),
        b"/healthz" => ("200 OK", "ok\n".to_owned()),
        _ if path.starts_with(b"/flight/") => {
            let name = String::from_utf8_lossy(&path[b"/flight/".len()..]).into_owned();
            match shared.tenants.get(&name) {
                Some(tenant) => {
                    let tenant = lock_clean(tenant);
                    let mut body = String::new();
                    for record in tenant.flight().records() {
                        body.push_str(&record.to_json().render());
                        body.push('\n');
                    }
                    ("200 OK", body)
                }
                None => ("404 Not Found", format!("unknown tenant {name:?}\n")),
            }
        }
        _ => (
            "404 Not Found",
            "routes: /metrics /healthz /flight/<tenant>\n".to_owned(),
        ),
    }
}
