//! The per-tenant flight recorder: a bounded ring of structured
//! [`RequestRecord`]s, one per tenant-bound request.
//!
//! The Cohen–Nissim production attack succeeded partly because the
//! operators had no per-request visibility — nothing tied the flood of
//! subset queries back to one principal. The flight recorder is that
//! visibility: every admitted, refused, or rate-limited request leaves a
//! record (op, request id, lint codes fired, refusal evidence, ε spent,
//! rows scanned, cache hits, latency), and the last `SO_FLIGHT_CAP`
//! records per tenant are queryable live over the `flight` wire op and
//! `GET /flight/<tenant>`.
//!
//! Determinism contract: every field except `latency_micros` derives from
//! deterministic counts, so experiment transcripts may print them. The
//! `latency_micros` field is **export-only** wall clock — it reaches the
//! wire dump, the slow log, and the `*_micros` histograms, never a
//! transcript. Likewise the ring *capacity* must never leak into a
//! transcript: experiments print the cumulative [`FlightRecorder::total`]
//! and the newest few records only, so `SO_FLIGHT_CAP=4` and the default
//! 256 produce byte-identical output (CI's `verify_matrix` proves it).

use crate::json::{write_array, write_escaped, Json, ObjectWriter};
use crate::proto::ProtoError;

/// Environment variable setting the per-tenant ring capacity.
pub const FLIGHT_CAP_ENV: &str = "SO_FLIGHT_CAP";

/// Environment variable setting the slow-log threshold in microseconds;
/// unset (or unparsable) disables the slow log.
pub const SLOWLOG_ENV: &str = "SO_SLOWLOG_MICROS";

/// Ring capacity when `SO_FLIGHT_CAP` is unset or unparsable.
pub const DEFAULT_FLIGHT_CAP: usize = 256;

/// Parses a raw `SO_FLIGHT_CAP` value: a positive integer wins, anything
/// else (unset, garbage, zero — a ring that records nothing would be a
/// silent observability hole) falls back to [`DEFAULT_FLIGHT_CAP`].
pub fn parse_flight_cap(raw: Option<&str>) -> usize {
    match raw.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(cap) if cap >= 1 => cap,
        _ => DEFAULT_FLIGHT_CAP,
    }
}

/// The ring capacity from the environment ([`FLIGHT_CAP_ENV`]).
pub fn flight_cap_from_env() -> usize {
    parse_flight_cap(std::env::var(FLIGHT_CAP_ENV).ok().as_deref())
}

/// Parses a raw `SO_SLOWLOG_MICROS` value: a parsable integer enables the
/// slow log at that threshold (0 logs every recorded request), anything
/// else disables it.
pub fn parse_slowlog_micros(raw: Option<&str>) -> Option<u64> {
    raw.and_then(|s| s.trim().parse::<u64>().ok())
}

/// The slow-log threshold from the environment ([`SLOWLOG_ENV`]).
pub fn slowlog_micros_from_env() -> Option<u64> {
    parse_slowlog_micros(std::env::var(SLOWLOG_ENV).ok().as_deref())
}

/// What one request did, as the flight recorder remembers it.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// The tenant the request ran against.
    pub tenant: String,
    /// The wire op (`hello`, `workload`, `budget`, …).
    pub op: String,
    /// The correlation id echoed to the client (client-supplied or
    /// server-assigned `srv-N`).
    pub request_id: String,
    /// How the request ended: `ok`, `answered`, `refused`, `rate_limited`,
    /// or `error`.
    pub outcome: String,
    /// Distinct lint/error codes fired, sorted (`SO-RECON`, `SO-RATE`, …).
    pub codes: Vec<String>,
    /// First refusal's evidence payload (empty when none fired).
    pub evidence: String,
    /// ε this request spent against the tenant's accountant.
    pub epsilon_spent: f64,
    /// Rows the engine touched answering it (scans × rows + subset sweeps).
    pub rows_scanned: u64,
    /// Plan-cache hits while answering.
    pub cache_hits: u64,
    /// Wall-clock handling latency. **Export-only**: dumps and the slow
    /// log may show it, transcripts must not.
    pub latency_micros: u64,
}

impl RequestRecord {
    /// Renders to the wire/HTTP JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tenant", Json::str(&self.tenant)),
            ("op", Json::str(&self.op)),
            ("request_id", Json::str(&self.request_id)),
            ("outcome", Json::str(&self.outcome)),
            (
                "codes",
                Json::Arr(self.codes.iter().map(|c| Json::str(c)).collect()),
            ),
            ("evidence", Json::str(&self.evidence)),
            ("epsilon_spent", Json::num(self.epsilon_spent)),
            ("rows_scanned", Json::num(self.rows_scanned as f64)),
            ("cache_hits", Json::num(self.cache_hits as f64)),
            ("latency_micros", Json::num(self.latency_micros as f64)),
        ])
    }

    /// Appends [`RequestRecord::to_json`]'s rendering to `out`, without
    /// building the tree (the server's flight dump).
    pub(crate) fn write_json(&self, out: &mut Vec<u8>) {
        let mut o = ObjectWriter::open(out);
        o.num("cache_hits", self.cache_hits as f64);
        write_array(o.key("codes"), &self.codes, |c, out| write_escaped(c, out));
        o.num("epsilon_spent", self.epsilon_spent);
        o.str("evidence", &self.evidence);
        o.num("latency_micros", self.latency_micros as f64);
        o.str("op", &self.op);
        o.str("outcome", &self.outcome);
        o.str("request_id", &self.request_id);
        o.num("rows_scanned", self.rows_scanned as f64);
        o.str("tenant", &self.tenant);
        o.close();
    }

    /// Parses the wire/HTTP JSON form.
    pub fn from_json(v: &Json) -> Result<RequestRecord, ProtoError> {
        let shape = |m: &str| ProtoError::BadShape(m.to_owned());
        let text = |k: &str| -> Result<String, ProtoError> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| shape(&format!("flight record needs string `{k}`")))
        };
        let codes = v
            .get("codes")
            .and_then(Json::as_arr)
            .ok_or_else(|| shape("flight record needs `codes` array"))?
            .iter()
            .map(|c| {
                c.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| shape("flight codes must be strings"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RequestRecord {
            tenant: text("tenant")?,
            op: text("op")?,
            request_id: text("request_id")?,
            outcome: text("outcome")?,
            codes,
            evidence: text("evidence")?,
            epsilon_spent: v.get("epsilon_spent").and_then(Json::as_f64).unwrap_or(0.0),
            rows_scanned: v.get("rows_scanned").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            cache_hits: v.get("cache_hits").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            latency_micros: v
                .get("latency_micros")
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64,
        })
    }

    /// Deterministic fields only — what a transcript may print. Everything
    /// here derives from counts; `latency_micros` is deliberately absent.
    pub fn transcript_fields(&self) -> String {
        format!(
            "op={} id={} outcome={} codes=[{}] eps={:.4} rows={} cache_hits={}",
            self.op,
            self.request_id,
            self.outcome,
            self.codes.join(","),
            self.epsilon_spent,
            self.rows_scanned,
            self.cache_hits,
        )
    }
}

/// One stderr slow-log line for a record that crossed the
/// `SO_SLOWLOG_MICROS` threshold. Wall clock appears here by design —
/// stderr is export-only, like the `*_micros` histograms.
pub fn slowlog_line(r: &RequestRecord) -> String {
    format!(
        "so-serve slow: tenant={} op={} request_id={} outcome={} latency_micros={} rows_scanned={} codes=[{}]",
        r.tenant,
        r.op,
        r.request_id,
        r.outcome,
        r.latency_micros,
        r.rows_scanned,
        r.codes.join(","),
    )
}

/// What the engine measured for one request, before it becomes a record.
/// Filled by [`crate::tenant::Tenant::run_workload`]; zeros for ops that
/// touch no data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestProfile {
    /// Distinct lint codes fired, sorted.
    pub codes: Vec<String>,
    /// First non-empty refusal evidence.
    pub evidence: String,
    /// ε spent against the accountant.
    pub epsilon_spent: f64,
    /// Rows touched (dataset scans × rows + subset sweeps × rows).
    pub rows_scanned: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
}

/// A bounded ring of [`RequestRecord`]s. Pushes are O(1) and allocation-free
/// once the ring is warm; the cumulative total survives wrap-around, so a
/// caller can report "N requests recorded" without the cap leaking into the
/// number.
///
/// No interior locking: each recorder lives inside a [`crate::tenant::Tenant`],
/// which the server already serializes behind a per-tenant mutex.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    /// Slot the next push lands in (`total % cap` once warm).
    next: usize,
    /// All-time pushes — cap-invariant.
    total: u64,
    ring: Vec<RequestRecord>,
}

impl FlightRecorder {
    /// A recorder holding at most `cap` records (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRecorder {
            cap,
            next: 0,
            total: 0,
            ring: Vec::with_capacity(cap.min(DEFAULT_FLIGHT_CAP)),
        }
    }

    /// A recorder sized by `SO_FLIGHT_CAP` (default 256).
    pub fn from_env() -> Self {
        Self::new(flight_cap_from_env())
    }

    /// The ring capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// All-time recorded requests (does not shrink when the ring wraps).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records one request, evicting the oldest record when full.
    pub fn push(&mut self, record: RequestRecord) {
        if self.ring.len() < self.cap {
            self.ring.push(record);
        } else {
            self.ring[self.next] = record;
        }
        self.next = (self.next + 1) % self.cap;
        self.total += 1;
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> Vec<RequestRecord> {
        if self.ring.len() < self.cap {
            return self.ring.clone();
        }
        let mut out = Vec::with_capacity(self.cap);
        out.extend_from_slice(&self.ring[self.next..]);
        out.extend_from_slice(&self.ring[..self.next]);
        out
    }

    /// The newest `k` records, oldest of those first — what a transcript
    /// prints (with `k` below every cap CI sweeps, the output is
    /// cap-invariant).
    pub fn last(&self, k: usize) -> Vec<RequestRecord> {
        let all = self.records();
        let skip = all.len().saturating_sub(k);
        all[skip..].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: usize) -> RequestRecord {
        RequestRecord {
            tenant: "open".to_owned(),
            op: "workload".to_owned(),
            request_id: format!("req-{i}"),
            outcome: "answered".to_owned(),
            codes: Vec::new(),
            evidence: String::new(),
            epsilon_spent: 0.0,
            rows_scanned: 64,
            cache_hits: 1,
            latency_micros: 123,
        }
    }

    #[test]
    fn cap_parsing_is_pinned() {
        assert_eq!(parse_flight_cap(None), DEFAULT_FLIGHT_CAP);
        assert_eq!(parse_flight_cap(Some("")), DEFAULT_FLIGHT_CAP);
        assert_eq!(parse_flight_cap(Some("banana")), DEFAULT_FLIGHT_CAP);
        assert_eq!(parse_flight_cap(Some("0")), DEFAULT_FLIGHT_CAP);
        assert_eq!(parse_flight_cap(Some("4")), 4);
        assert_eq!(parse_flight_cap(Some(" 17 ")), 17);
    }

    #[test]
    fn slowlog_parsing_is_pinned() {
        assert_eq!(parse_slowlog_micros(None), None);
        assert_eq!(parse_slowlog_micros(Some("nope")), None);
        assert_eq!(parse_slowlog_micros(Some("0")), Some(0));
        assert_eq!(parse_slowlog_micros(Some("2500")), Some(2500));
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_total() {
        let mut f = FlightRecorder::new(3);
        assert_eq!((f.cap(), f.total()), (3, 0));
        for i in 0..5 {
            f.push(rec(i));
        }
        assert_eq!(f.total(), 5, "total survives eviction");
        let ids: Vec<String> = f.records().into_iter().map(|r| r.request_id).collect();
        assert_eq!(ids, ["req-2", "req-3", "req-4"], "oldest first");
        let last: Vec<String> = f.last(2).into_iter().map(|r| r.request_id).collect();
        assert_eq!(last, ["req-3", "req-4"]);
        // Asking for more than retained returns what's there.
        assert_eq!(f.last(99).len(), 3);
    }

    #[test]
    fn last_k_is_cap_invariant_above_k() {
        // The transcript-facing view: identical for every cap > k.
        let views: Vec<Vec<String>> = [3usize, 4, 256]
            .iter()
            .map(|&cap| {
                let mut f = FlightRecorder::new(cap);
                for i in 0..10 {
                    f.push(rec(i));
                }
                f.last(3).into_iter().map(|r| r.request_id).collect()
            })
            .collect();
        assert_eq!(views[0], views[1]);
        assert_eq!(views[1], views[2]);
    }

    #[test]
    fn records_roundtrip_json() {
        let r = RequestRecord {
            tenant: "guarded".to_owned(),
            op: "workload".to_owned(),
            request_id: "att-7".to_owned(),
            outcome: "refused".to_owned(),
            codes: vec!["SO-LINREC".to_owned(), "SO-RECON".to_owned()],
            evidence: "m=96 alpha<=0".to_owned(),
            epsilon_spent: 0.25,
            rows_scanned: 1024,
            cache_hits: 3,
            latency_micros: 456,
        };
        let parsed = RequestRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn transcript_fields_omit_wall_clock() {
        let line = rec(1).transcript_fields();
        assert!(!line.contains("micros"), "{line}");
        assert!(line.contains("op=workload") && line.contains("id=req-1"));
        let slow = slowlog_line(&rec(1));
        assert!(slow.contains("latency_micros=123"), "{slow}");
        assert!(slow.starts_with("so-serve slow: tenant=open"));
    }
}
