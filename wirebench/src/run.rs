//! One benchmark run: set up the server, warm it, drive the closed-loop
//! sessions for the window, check every response, and reduce what was
//! measured to metrics.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use so_plan::SubsetQuery;
use so_serve::proto::DEFAULT_MAX_FRAME;
use so_serve::{spawn, Request, Response, ServerConfig, ServerHandle, WireQuery};

use crate::registry::Snapshot;
use crate::stats::{median, percentile};
use crate::trace::{SpanRecord, Trace};
use crate::wire::{decode, Session};
use crate::workload::{check_subset_sums, classify, Input, Verdict, Workload, LP_ROWS};

/// Server worker threads: one per session of the widest workload
/// (`dashboard_dp`), so no session ever queues for a worker.
pub const WORKERS: usize = 2;

/// Server set-ups per run: at least `MIN_SETUPS`, then more until
/// `SETUP_BUDGET` of set-up time has passed, at most `MAX_SETUPS`.
/// `setup_s` is their median. A 1M-row set-up takes ~50 ms, so `scan_1m`
/// stops at the minimum; an LP set-up takes ~0.2 ms, so the LP workloads
/// take a median over hundreds, which a single slow thread start barely
/// moves.
pub const MIN_SETUPS: usize = 21;
/// See [`MIN_SETUPS`].
pub const MAX_SETUPS: usize = 1001;
/// See [`MIN_SETUPS`].
pub const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// Untimed warm-up before the window: lazy state (packed columns, metric
/// handles, allocator pools) is built here, not inside the measurement.
pub const WARMUP: Duration = Duration::from_millis(500);

/// Request frames per session kept for the after-window codec replay.
const REPLAY_FRAMES: usize = 32;

/// Codec replay passes over the kept frames.
const REPLAY_PASSES: usize = 5;

/// `lp_decode` on one answered battery must recover at least this share
/// of rows (E20.1's claim at n = 48, m = 192).
const LP_ACCURACY: f64 = 0.95;

/// Failure messages printed per run (the count is always complete).
const FAILURES_SHOWN: usize = 5;

/// A live server with one bound session per tenant.
pub struct Bench {
    /// The workload being driven.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    server: ServerHandle,
    sessions: Vec<Session>,
    /// Per session: the next request index (inputs are a function of it).
    next_index: Vec<u64>,
    /// Per session: requests the tenant has recorded (for the flight check).
    sent: Vec<u64>,
    /// Per session: the tenant's secret column (LP tenants fit one word).
    secrets: Vec<u64>,
}

/// Spawns the server and binds one session per tenant. Returns the bench
/// and the time from `spawn` until the first `hello` was answered.
pub fn set_up(workload: Workload, seed: u64) -> Result<(Bench, Duration), String> {
    let config = ServerConfig {
        workers: WORKERS,
        max_frame: DEFAULT_MAX_FRAME,
        tick_per_request: true,
    };
    let started = Instant::now();
    let server = spawn(workload.tenants(seed), config, None).map_err(|e| format!("spawn: {e}"))?;
    let mut setup = None;
    let mut sessions = Vec::new();
    for s in 0..workload.sessions() {
        let mut session =
            Session::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let tenant = workload.tenant_name(s);
        let hello = Request::Hello {
            tenant: tenant.clone(),
        };
        match session.call(&hello, &format!("hello-{s}"))?.response {
            Response::Welcome { .. } => {}
            other => return Err(format!("hello {tenant}: {other:?}")),
        }
        setup.get_or_insert_with(|| started.elapsed());
        sessions.push(session);
    }
    let secrets = (0..workload.sessions())
        .map(|s| {
            server
                .with_tenant(&workload.tenant_name(s), |t| {
                    t.secret().words().first().copied().unwrap_or(0)
                })
                .ok_or("tenant vanished")
        })
        .collect::<Result<Vec<u64>, _>>()?;
    let n = workload.sessions();
    let bench = Bench {
        workload,
        seed,
        server,
        sessions,
        next_index: vec![0; n],
        sent: vec![1; n],
        secrets,
    };
    Ok((bench, setup.expect("at least one session")))
}

/// What one phase of closed-loop sessions measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time from the start barrier until the last session stopped.
    pub elapsed: Duration,
    /// Process CPU over the same interval, ms.
    pub cpu_ms: f64,
    /// Host CPU steal over the same interval, as a share of all ticks.
    pub steal_frac: f64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests completed (any verdict).
    pub completed: u64,
    /// Requests whose verdict was wrong, or that failed in transport.
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Per-request latency, ms (encode start to decoded response).
    pub latencies_ms: Vec<f64>,
    /// Σ client encode, µs.
    pub encode_us: f64,
    /// Σ frame written → response read, µs.
    pub wait_us: f64,
    /// Σ response decode, µs.
    pub decode_us: f64,
    /// Σ request payload bytes.
    pub request_bytes: u64,
    /// Σ response payload bytes.
    pub response_bytes: u64,
    /// Kept `(request payload, response payload)` pairs for the replay.
    pub frames: Vec<(Vec<u8>, Vec<u8>)>,
    /// Client and program spans (traced phases only).
    pub spans: Vec<SpanRecord>,
    /// Program spans that carried no request id (traced phases only).
    pub unattributed_spans: u64,
    /// The last answered LP battery: masks and answers.
    pub last_battery: Option<(Vec<u64>, Vec<f64>)>,
    /// Registry before the phase.
    pub before: Snapshot,
    /// Registry after the phase.
    pub after: Snapshot,
}

impl Phase {
    /// Completed requests per second.
    pub fn throughput_rps(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64()
    }

    /// p95 latency, ms: `None` when fewer than 10 samples lie beyond it.
    pub fn p95_ms(&self) -> Option<f64> {
        percentile(&self.latencies_ms, 0.95, 10)
    }

    /// Process CPU per completed request, ms.
    pub fn cpu_ms_per_req(&self) -> f64 {
        self.cpu_ms / self.completed.max(1) as f64
    }

    /// Median latency, ms.
    pub fn p50_ms(&self) -> f64 {
        median(&self.latencies_ms)
    }

    /// Registry delta of `name` over the phase.
    pub fn delta(&self, name: &str) -> f64 {
        self.before.delta(&self.after, name)
    }

    fn absorb(&mut self, s: SessionOutcome) {
        self.attempted += s.attempted;
        self.completed += s.latencies_ms.len() as u64;
        self.failed += s.failed;
        let room = FAILURES_SHOWN.saturating_sub(self.failures.len());
        self.failures.extend(s.failures.into_iter().take(room));
        self.latencies_ms.extend(s.latencies_ms);
        self.encode_us += s.encode_us;
        self.wait_us += s.wait_us;
        self.decode_us += s.decode_us;
        self.request_bytes += s.request_bytes;
        self.response_bytes += s.response_bytes;
        self.frames.extend(s.frames);
        self.spans.extend(s.spans);
        if s.last_battery.is_some() {
            self.last_battery = s.last_battery;
        }
    }
}

#[derive(Default)]
struct SessionOutcome {
    attempted: u64,
    latencies_ms: Vec<f64>,
    failed: u64,
    failures: Vec<String>,
    encode_us: f64,
    wait_us: f64,
    decode_us: f64,
    request_bytes: u64,
    response_bytes: u64,
    frames: Vec<(Vec<u8>, Vec<u8>)>,
    spans: Vec<SpanRecord>,
    last_battery: Option<(Vec<u64>, Vec<f64>)>,
}

/// Everything a session thread needs, borrowed from the bench.
struct SessionJob<'a> {
    workload: Workload,
    seed: u64,
    index: usize,
    session: &'a mut Session,
    next_index: &'a mut u64,
    sent: &'a mut u64,
    secret: u64,
}

impl Bench {
    /// Drives every session in a closed loop for `length`: each sends its
    /// next request only after the previous response is read and checked.
    /// Inputs are generated before each request's clock starts.
    pub fn run_phase(&mut self, length: Duration, trace: Option<&Trace>) -> Phase {
        let barrier = Barrier::new(self.sessions.len() + 1);
        let mut phase = Phase {
            before: Snapshot::take(),
            ..Phase::default()
        };
        let jobs: Vec<SessionJob<'_>> = self
            .sessions
            .iter_mut()
            .zip(self.next_index.iter_mut())
            .zip(self.sent.iter_mut())
            .zip(self.secrets.iter())
            .enumerate()
            .map(
                |(index, (((session, next_index), sent), &secret))| SessionJob {
                    workload: self.workload,
                    seed: self.seed,
                    index,
                    session,
                    next_index,
                    sent,
                    secret,
                },
            )
            .collect();
        let (outcomes, started, cpu_before, steal_before) = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|job| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        drive(job, Instant::now() + length, trace)
                    })
                })
                .collect();
            let cpu_before = crate::sys::cpu_ms();
            let steal_before = crate::sys::cpu_steal_ticks();
            let started = Instant::now();
            barrier.wait();
            let outcomes: Vec<SessionOutcome> = handles
                .into_iter()
                .map(|h| h.join().expect("session thread panicked"))
                .collect();
            (outcomes, started, cpu_before, steal_before)
        });
        phase.elapsed = started.elapsed();
        phase.cpu_ms = crate::sys::cpu_ms() - cpu_before;
        let steal_after = crate::sys::cpu_steal_ticks();
        phase.steal_frac = (steal_after.0 - steal_before.0) as f64
            / (steal_after.1 - steal_before.1).max(1) as f64;
        phase.after = Snapshot::take();
        for o in outcomes {
            phase.absorb(o);
        }
        if let Some(trace) = trace {
            let (spans, lost) = trace.take_program_spans();
            phase.spans.extend(spans);
            phase.unattributed_spans = lost;
        }
        phase
    }

    /// After-window checks through the public interfaces: the accountant
    /// charged exactly what was released, and the flight recorder saw every
    /// request. Returns failure reasons.
    pub fn final_checks(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        for s in 0..self.sessions.len() {
            let tenant = self.workload.tenant_name(s);
            if self.workload.accounted() {
                let id = format!("budget-{s}");
                match self.sessions[s].call(&Request::Budget, &id) {
                    Ok(x) => match x.response {
                        Response::BudgetState { spent, .. } => {
                            // Every workload request sent after `hello` was
                            // answered, each charging queries × ε.
                            let charged = (self.sent[s] - 1) as f64
                                * self.workload.queries_per_request() as f64
                                * crate::workload::EPSILON_PER_QUERY;
                            if (spent - charged).abs() > 1e-9 * charged.max(1.0) {
                                problems.push(format!(
                                    "{tenant}: ε spent {spent} ≠ ε released {charged}"
                                ));
                            }
                        }
                        other => problems.push(format!("{tenant}: budget answered {other:?}")),
                    },
                    Err(e) => problems.push(format!("{tenant}: budget: {e}")),
                }
                self.sent[s] += 1;
            }
            let total = self
                .server
                .with_tenant(&tenant, |t| t.flight().total())
                .unwrap_or(0);
            if total != self.sent[s] {
                problems.push(format!(
                    "{tenant}: flight recorded {total} requests, {} were sent",
                    self.sent[s]
                ));
            }
        }
        problems
    }

    /// Mean rows scanned per workload request, from the flight records the
    /// tenants kept (the most recent ones; every workload request of a run
    /// has the same shape).
    pub fn rows_scanned_per_req(&self) -> f64 {
        let (rows, n) = (0..self.sessions.len())
            .filter_map(|s| {
                self.server.with_tenant(&self.workload.tenant_name(s), |t| {
                    t.flight()
                        .records()
                        .iter()
                        .filter(|r| r.op == "workload")
                        .fold((0u64, 0u64), |(rows, n), r| (rows + r.rows_scanned, n + 1))
                })
            })
            .fold((0, 0), |(a, b), (rows, n)| (a + rows, b + n));
        rows as f64 / n.max(1) as f64
    }

    /// The share of window predicates already sent earlier in the run
    /// (warm-up included, any session), replaying the seeded inputs.
    pub fn seen_predicate_share(&self, window_start: &[u64]) -> f64 {
        // 64-bit digests: an LP run sends ~10^6 distinct subset queries,
        // too many to keep whole.
        let digest = |q: &WireQuery| {
            let mut h = DefaultHasher::new();
            match q {
                WireQuery::Subset(rows) => (0u8, rows).hash(&mut h),
                WireQuery::IntRange { col, lo, hi } => (1u8, col, lo, hi).hash(&mut h),
                WireQuery::ValueEq { col, value } => (2u8, col, value).hash(&mut h),
            }
            h.finish()
        };
        let mut seen: HashSet<u64> = HashSet::new();
        let (mut repeated, mut counted) = (0u64, 0u64);
        let longest = self.next_index.iter().copied().max().unwrap_or(0);
        for i in 0..longest {
            for (s, (&sent, &start)) in self.next_index.iter().zip(window_start).enumerate() {
                if i >= sent {
                    continue;
                }
                if let Request::Workload { queries, .. } =
                    self.workload.input(self.seed, s, i).request
                {
                    for q in queries {
                        let fresh = seen.insert(digest(&q));
                        if i >= start {
                            counted += 1;
                            repeated += u64::from(!fresh);
                        }
                    }
                }
            }
        }
        repeated as f64 / counted.max(1) as f64
    }

    /// Session `s`'s tenant secret column as one word (LP tenants only).
    pub fn secret(&self, s: usize) -> u64 {
        self.secrets[s]
    }

    /// Per-session next request index (the window starts here).
    pub fn next_indices(&self) -> Vec<u64> {
        self.next_index.clone()
    }

    /// Closes the sessions and shuts the server down.
    pub fn shut_down(self) {
        drop(self.sessions);
        self.server.shutdown();
    }
}

/// One session's closed loop.
fn drive(job: SessionJob<'_>, deadline: Instant, trace: Option<&Trace>) -> SessionOutcome {
    let mut out = SessionOutcome::default();
    let expected = job.workload.expected();
    let queries = job.workload.queries_per_request();
    while Instant::now() < deadline {
        let i = *job.next_index;
        *job.next_index += 1;
        let Input { request, masks } = job.workload.input(job.seed, job.index, i);
        let id = format!("{}-{}-{i}", job.workload.name(), job.index);
        out.attempted += 1;
        let exchange = match job.session.call(&request, &id) {
            Ok(x) => x,
            Err(e) => {
                // The stream is out of step or gone: this session is over.
                out.failed += 1;
                out.failures.push(format!("{id}: transport: {e}"));
                break;
            }
        };
        *job.sent += 1;
        let t = exchange.timing;
        out.latencies_ms.push(t.latency().as_secs_f64() * 1e3);
        out.encode_us += t.encode.as_secs_f64() * 1e6;
        out.wait_us += t.wait.as_secs_f64() * 1e6;
        out.decode_us += t.decode.as_secs_f64() * 1e6;
        out.request_bytes += exchange.request_payload().len() as u64;
        out.response_bytes += exchange.response_payload.len() as u64;
        let mut verdict = classify(&exchange.response, expected, queries);
        if let (Ok(()), Response::Answers { answers }) = (&verdict, &exchange.response) {
            if !masks.is_empty() {
                verdict = check_subset_sums(answers, &masks, job.secret);
                out.last_battery = Some((masks, answers.clone()));
            }
        }
        if let Err(why) = verdict {
            out.failed += 1;
            if out.failures.len() < FAILURES_SHOWN {
                out.failures.push(format!("{id}: {why}"));
            }
        }
        if let Some(trace) = trace {
            let at = |d: Duration| trace.at(t.start + d);
            let span = |name: &str, from: f64, to: f64, parent: Option<&str>| SpanRecord {
                name: name.to_owned(),
                start_us: from,
                end_us: to,
                parent: parent.map(str::to_owned),
                request_id: id.clone(),
            };
            let (e, w) = (at(t.encode), at(t.encode + t.wait));
            let (s, end) = (at(Duration::ZERO), at(t.latency()));
            out.spans.extend([
                span("client.request", s, end, None),
                span("client.encode", s, e, Some("client.request")),
                span("client.wait", e, w, Some("client.request")),
                span("client.decode", w, end, Some("client.request")),
            ]);
        }
        if out.frames.len() < REPLAY_FRAMES {
            let request = exchange.request_payload().to_vec();
            out.frames.push((request, exchange.response_payload));
        }
    }
    out
}

/// Mean µs per frame of the server's codec work, replayed after the window
/// on kept frames: request decode (`json::parse` + `Request::from_json`)
/// and response encode (`Response::to_json` + `render`).
pub fn replay_codec(frames: &[(Vec<u8>, Vec<u8>)]) -> (f64, f64) {
    let responses: Vec<Response> = frames
        .iter()
        .map(|(_, r)| decode(r).expect("kept responses decoded once already"))
        .collect();
    let (mut decode_us, mut encode_us) = (0.0, 0.0);
    for _ in 0..REPLAY_PASSES {
        for ((request, _), response) in frames.iter().zip(&responses) {
            let t0 = Instant::now();
            let text = std::str::from_utf8(request).expect("sent frames are UTF-8");
            let value = so_serve::json::parse(text).expect("sent frames parse");
            let parsed = Request::from_json(&value).expect("sent frames are requests");
            let t1 = Instant::now();
            let rendered = response.to_json().render();
            let t2 = Instant::now();
            std::hint::black_box((parsed, rendered));
            decode_us += (t1 - t0).as_secs_f64() * 1e6;
            encode_us += (t2 - t1).as_secs_f64() * 1e6;
        }
    }
    let n = (frames.len() * REPLAY_PASSES).max(1) as f64;
    (decode_us / n, encode_us / n)
}

/// E20.1's claim, checked once after the window: LP decoding one answered
/// battery recovers ≥ 95 % of the tenant's secret rows.
pub fn check_lp_decode(battery: &(Vec<u64>, Vec<f64>), secret: u64) -> Result<f64, String> {
    let (masks, answers) = battery;
    let queries: Vec<SubsetQuery> = masks
        .iter()
        .map(|&m| {
            let rows: Vec<usize> = (0..LP_ROWS).filter(|&r| m >> r & 1 == 1).collect();
            SubsetQuery::from_indices(LP_ROWS, &rows)
        })
        .collect();
    let result =
        so_recon::lp_decode(LP_ROWS, &queries, answers).map_err(|e| format!("lp_decode: {e:?}"))?;
    let recovered = (0..LP_ROWS)
        .filter(|&r| result.reconstruction.get(r) == (secret >> r & 1 == 1))
        .count();
    let accuracy = recovered as f64 / LP_ROWS as f64;
    if accuracy >= LP_ACCURACY {
        Ok(accuracy)
    } else {
        Err(format!(
            "lp_decode recovered {accuracy:.3} of rows (< {LP_ACCURACY})"
        ))
    }
}

/// The expected verdict's display name.
pub fn verdict_name(v: Verdict) -> &'static str {
    match v {
        Verdict::Answered => "answered",
        Verdict::Refused => "refused (workload-level SO-RECON + per-index entries)",
    }
}
