//! The traced run: spans kept in memory, joined by request id, reduced to
//! per-layer self time.
//!
//! Client spans are recorded by the benchmark around its own calls
//! (`client.request` ⊃ `client.encode`, `client.wait`, `client.decode`).
//! The program's existing spans (`serve.request → gate.lint |
//! engine.workload → plan.execute`) arrive through an in-memory
//! [`so_obs::TraceSubscriber`] — the hook `SO_TRACE` installs a file writer
//! on — carrying the request id the client attached to the frame. A
//! program span reports only its duration on completion, so its start is
//! taken as completion time minus duration.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name.
    pub name: String,
    /// Start, µs since the trace epoch.
    pub start_us: f64,
    /// End, µs since the trace epoch.
    pub end_us: f64,
    /// The span that caused it, by name (`None` for a request's root).
    pub parent: Option<String>,
    /// The request the span belongs to.
    pub request_id: String,
}

impl SpanRecord {
    /// Wall-clock duration in µs.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The causal parent of each program span (the program reports no parent
/// links; its call structure is fixed).
pub fn program_parent(name: &str) -> Option<&'static str> {
    match name {
        "serve.request" => Some("client.wait"),
        "gate.lint" | "engine.workload" => Some("serve.request"),
        "plan.execute" => Some("engine.workload"),
        _ => None,
    }
}

/// Collects program spans in memory; installed once per process.
struct Collector {
    epoch: Instant,
    spans: Arc<Mutex<Vec<SpanRecord>>>,
    unattributed: Arc<Mutex<u64>>,
}

impl so_obs::TraceSubscriber for Collector {
    fn on_span(&self, name: &str, micros: u64, fields: &[so_obs::Field]) {
        let end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let request_id = fields
            .iter()
            .find(|(k, _)| *k == "request_id")
            .map(|(_, v)| v.clone());
        match request_id {
            Some(request_id) => self
                .spans
                .lock()
                .expect("span sink poisoned")
                .push(SpanRecord {
                    name: name.to_owned(),
                    start_us: end_us - micros as f64,
                    end_us,
                    parent: program_parent(name).map(str::to_owned),
                    request_id,
                }),
            None => *self.unattributed.lock().expect("span sink poisoned") += 1,
        }
    }

    fn on_event(&self, _name: &str, _fields: &[so_obs::Field]) {}
}

/// The in-memory trace: program spans from the subscriber plus client
/// spans the sessions hand in.
pub struct Trace {
    epoch: Instant,
    spans: Arc<Mutex<Vec<SpanRecord>>>,
    unattributed: Arc<Mutex<u64>>,
}

impl Trace {
    /// Turns on the program's spans, delivered to memory. `None` if a
    /// subscriber is already installed (at most one per process).
    pub fn install() -> Option<Trace> {
        let epoch = Instant::now();
        let spans = Arc::new(Mutex::new(Vec::new()));
        let unattributed = Arc::new(Mutex::new(0));
        let collector = Collector {
            epoch,
            spans: Arc::clone(&spans),
            unattributed: Arc::clone(&unattributed),
        };
        so_obs::set_subscriber(Box::new(collector)).then_some(Trace {
            epoch,
            spans,
            unattributed,
        })
    }

    /// µs since the trace epoch.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Drains every program span recorded so far, plus the count of spans
    /// that carried no request id.
    pub fn take_program_spans(&self) -> (Vec<SpanRecord>, u64) {
        let spans = std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"));
        let lost = std::mem::take(&mut *self.unattributed.lock().expect("span sink poisoned"));
        (spans, lost)
    }
}

/// Per span name: total self time (µs) and span count.
pub type SelfTimes = BTreeMap<String, (f64, u64)>;

/// A span's self time is its duration minus the part of it its child spans
/// cover. Children are matched to the parent instance of the same request
/// that encloses them (within 2 µs: program durations are whole µs).
pub fn self_times(spans: &[SpanRecord]) -> SelfTimes {
    let mut by_request: BTreeMap<&str, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        by_request.entry(&s.request_id).or_default().push(s);
    }
    let mut out = SelfTimes::new();
    for group in by_request.values() {
        let mut covered = vec![0.0f64; group.len()];
        for child in group {
            let Some(parent) = &child.parent else {
                continue;
            };
            let enclosing = group
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    &p.name == parent
                        && p.start_us <= child.start_us + 2.0
                        && child.end_us <= p.end_us + 2.0
                })
                .min_by(|(_, a), (_, b)| a.duration_us().total_cmp(&b.duration_us()));
            if let Some((i, _)) = enclosing {
                covered[i] += child.duration_us();
            }
        }
        for (s, cover) in group.iter().zip(covered) {
            let entry = out.entry(s.name.clone()).or_insert((0.0, 0));
            entry.0 += (s.duration_us() - cover).max(0.0);
            entry.1 += 1;
        }
    }
    out
}
