//! The wire protocol: length-prefixed JSON frames and their typed forms.
//!
//! Every message — request or response — is one **frame**: a 4-byte
//! big-endian length `N` followed by `N` bytes of UTF-8 JSON (one object).
//! Framing keeps the stream self-synchronizing under partial reads, and the
//! length prefix lets the server refuse oversized requests *before* reading
//! them (an adversarial client cannot make the server buffer gigabytes).
//!
//! Requests carry an `"op"` discriminator:
//!
//! | op         | fields                               | answer                  |
//! |------------|--------------------------------------|-------------------------|
//! | `hello`    | `tenant`                             | tenant facts            |
//! | `ping`     | —                                    | `pong`                  |
//! | `workload` | `queries` (subset / int_range /      | `answers` array, or a   |
//! |            | value_eq), `noise`                   | structured refusal      |
//! | `budget`   | —                                    | accountant state        |
//! | `metrics`  | —                                    | registry dump           |
//! | `flight`   | —                                    | flight-recorder dump    |
//!
//! Any request may carry an optional `request_id` string (≤ 128 chars);
//! the server echoes it — or a deterministic server-assigned `srv-N` — in
//! every response, and the same id tags every trace span the request
//! produces, so one trace file reconstructs per-request span trees.
//!
//! Responses always carry `"ok"`. Failures carry `error.code` — `SO-PROTO`
//! (malformed frame or request), `SO-TENANT` (unknown tenant / no hello),
//! `SO-RATE` (token bucket empty; `retry_after_ticks` says when to come
//! back), `SO-SHUTDOWN` (server draining) — and a refused workload carries
//! the *gate's* lint codes (`SO-RECON`, `SO-CBUDGET`, …) with per-query
//! evidence, so a refusal over the wire is as citable as one in the audit
//! trail.
//!
//! Two codecs speak this format. The server's is typed:
//! [`Request::decode`] reads a request frame straight off the
//! [`crate::json`] lexer, and [`Response::write_frame`] renders a response
//! straight into its frame. The [`Json`] tree ([`Request::to_json`],
//! [`Response::from_json`], [`read_frame`], [`write_frame`]) is the
//! client's and the introspection surfaces' codec, and the reference the
//! typed one is tested against: the same bytes out, the same request or
//! [`ProtoError`] in.

use std::io::{Read, Write};

use so_plan::workload::Noise;
use so_query::SubsetQuery;

use crate::flight::RequestRecord;
use crate::json::{self, parse, Json, JsonError, ObjectWriter, Parser};

/// Protocol version string echoed by `hello`.
pub const PROTOCOL_VERSION: &str = "so-serve/1";

/// Longest client-supplied `request_id` the server accepts. Correlation
/// ids are labels, not payloads; an unbounded id would let a client stuff
/// kilobytes into every trace span and flight record.
pub const MAX_REQUEST_ID_LEN: usize = 128;

/// Pulls the optional `request_id` out of a raw request object.
///
/// Returns `Ok(None)` when absent (the server then assigns `srv-N`),
/// `Err` when present but not a non-empty string of at most
/// [`MAX_REQUEST_ID_LEN`] characters.
pub fn extract_request_id(v: &Json) -> Result<Option<String>, ProtoError> {
    match v.get("request_id") {
        None => Ok(None),
        Some(Json::Str(s)) if !s.is_empty() && s.chars().count() <= MAX_REQUEST_ID_LEN => {
            Ok(Some(s.clone()))
        }
        Some(Json::Str(_)) => Err(ProtoError::BadShape(format!(
            "request_id must be 1..={MAX_REQUEST_ID_LEN} characters"
        ))),
        Some(_) => Err(ProtoError::BadShape(
            "request_id must be a string".to_owned(),
        )),
    }
}

/// Stamps `request_id` onto a rendered message object (requests on the way
/// out of the client, responses on the way out of the server). Non-objects
/// pass through untouched.
pub fn attach_request_id(v: Json, id: &str) -> Json {
    match v {
        Json::Obj(mut m) => {
            m.insert("request_id".to_owned(), Json::Str(id.to_owned()));
            Json::Obj(m)
        }
        other => other,
    }
}

/// Default cap on a frame's payload length (1 MiB).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Hard cap the reader enforces regardless of configuration (16 MiB): a
/// length prefix above this is treated as garbage rather than a request to
/// allocate.
pub const ABSOLUTE_MAX_FRAME: usize = 16 << 20;

/// A framing or protocol-shape failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The stream died mid-frame (partial read / reset).
    Truncated(String),
    /// The frame's declared length exceeds the cap.
    Oversized {
        /// Declared payload length.
        declared: usize,
        /// The enforced cap.
        cap: usize,
    },
    /// The payload is not valid JSON / UTF-8.
    BadJson(String),
    /// The JSON is valid but not a well-formed request/response.
    BadShape(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "peer closed the stream"),
            ProtoError::Truncated(e) => write!(f, "stream truncated mid-frame: {e}"),
            ProtoError::Oversized { declared, cap } => {
                write!(f, "frame of {declared} bytes exceeds the {cap}-byte cap")
            }
            ProtoError::BadJson(e) => write!(f, "payload is not JSON: {e}"),
            ProtoError::BadShape(e) => write!(f, "malformed request: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Writes one frame: 4-byte big-endian length, then the JSON bytes. The
/// whole frame goes out as a single `write_all` — a separate length write
/// would hand Nagle's algorithm a tiny segment to sit on and cost a
/// delayed-ACK round trip per request.
pub fn write_frame<W: Write>(w: &mut W, value: &Json) -> std::io::Result<()> {
    let mut frame = Vec::new();
    framed(&mut frame, |out| value.write(out));
    w.write_all(&frame)?;
    w.flush()
}

/// Appends one frame to `out`: a 4-byte big-endian length, then whatever
/// `payload` writes.
fn framed(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    payload(out);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
}

/// Reads one frame and parses its JSON payload.
///
/// `max_frame` bounds the payload length this reader will allocate for; it
/// is clamped to [`ABSOLUTE_MAX_FRAME`]. On [`ProtoError::Oversized`] the
/// payload has **not** been consumed — the connection is unrecoverable and
/// should be closed after reporting the error.
pub fn read_frame<R: Read>(r: &mut R, max_frame: usize) -> Result<Json, ProtoError> {
    let payload = read_payload(r, None, max_frame)?;
    parse(utf8(&payload)?).map_err(|e| ProtoError::BadJson(e.to_string()))
}

/// Reads one frame's payload bytes, with [`read_frame`]'s framing errors.
///
/// `prefix` is a 4-byte length prefix already taken off the stream: the
/// server reads the first 4 bytes of a connection itself to sniff
/// `"GET "` (plain-HTTP `/metrics` scrapes share the port), then resumes
/// framing here.
pub fn read_payload<R: Read>(
    r: &mut R,
    prefix: Option<[u8; 4]>,
    max_frame: usize,
) -> Result<Vec<u8>, ProtoError> {
    let len_buf = match prefix {
        Some(p) => p,
        None => {
            let mut len_buf = [0u8; 4];
            match r.read_exact(&mut len_buf) {
                Ok(()) => len_buf,
                // A clean EOF before any length byte is a normal close; EOF
                // with 1–3 bytes read also lands here — either way no frame.
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                    return Err(ProtoError::Closed)
                }
                Err(e) => return Err(ProtoError::Truncated(e.to_string())),
            }
        }
    };
    let declared = u32::from_be_bytes(len_buf) as usize;
    let cap = max_frame.min(ABSOLUTE_MAX_FRAME);
    if declared > cap {
        return Err(ProtoError::Oversized { declared, cap });
    }
    if declared == 0 {
        return Err(ProtoError::BadJson("empty frame".to_owned()));
    }
    let mut payload = vec![0u8; declared];
    r.read_exact(&mut payload)
        .map_err(|e| ProtoError::Truncated(e.to_string()))?;
    Ok(payload)
}

fn utf8(payload: &[u8]) -> Result<&str, ProtoError> {
    std::str::from_utf8(payload).map_err(|e| ProtoError::BadJson(e.to_string()))
}

/// One query inside a `workload` request.
#[derive(Debug, Clone, PartialEq)]
pub enum WireQuery {
    /// A subset-sum query over the tenant's secret column: the listed row
    /// indices (deduplicated by the bitmask representation).
    Subset(Vec<usize>),
    /// A counting query `lo ≤ col ≤ hi` over the tenant's tabular columns.
    IntRange {
        /// Column index.
        col: usize,
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// A counting query `col == value` (integer values only on the wire).
    ValueEq {
        /// Column index.
        col: usize,
        /// The matched integer value.
        value: i64,
    },
}

impl WireQuery {
    /// Renders to the protocol JSON form.
    pub fn to_json(&self) -> Json {
        match self {
            WireQuery::Subset(rows) => Json::obj(vec![
                ("kind", Json::str("subset")),
                (
                    "rows",
                    Json::Arr(rows.iter().map(|&r| Json::num(r as f64)).collect()),
                ),
            ]),
            WireQuery::IntRange { col, lo, hi } => Json::obj(vec![
                ("kind", Json::str("int_range")),
                ("col", Json::num(*col as f64)),
                ("lo", Json::num(*lo as f64)),
                ("hi", Json::num(*hi as f64)),
            ]),
            WireQuery::ValueEq { col, value } => Json::obj(vec![
                ("kind", Json::str("value_eq")),
                ("col", Json::num(*col as f64)),
                ("value", Json::num(*value as f64)),
            ]),
        }
    }

    /// Parses the protocol JSON form.
    pub fn from_json(v: &Json) -> Result<WireQuery, ProtoError> {
        let shape = |m: &str| ProtoError::BadShape(m.to_owned());
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| shape("query needs a string `kind`"))?;
        match kind {
            "subset" => {
                let rows = v
                    .get("rows")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| shape("subset query needs a `rows` array"))?;
                let rows = rows
                    .iter()
                    .map(|r| {
                        r.as_usize()
                            .ok_or_else(|| shape("subset rows must be non-negative integers"))
                    })
                    .collect::<Result<Vec<usize>, _>>()?;
                Ok(WireQuery::Subset(rows))
            }
            "int_range" => Ok(WireQuery::IntRange {
                col: v
                    .get("col")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| shape("int_range needs integer `col`"))?,
                lo: v
                    .get("lo")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| shape("int_range needs integer `lo`"))?,
                hi: v
                    .get("hi")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| shape("int_range needs integer `hi`"))?,
            }),
            "value_eq" => Ok(WireQuery::ValueEq {
                col: v
                    .get("col")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| shape("value_eq needs integer `col`"))?,
                value: v
                    .get("value")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| shape("value_eq needs integer `value`"))?,
            }),
            other => Err(shape(&format!("unknown query kind {other:?}"))),
        }
    }

    /// Converts a subset wire query into the engine's form.
    ///
    /// Returns `BadShape` when an index is out of the tenant's row range.
    pub fn to_subset(&self, n_rows: usize) -> Result<Option<SubsetQuery>, ProtoError> {
        match self {
            WireQuery::Subset(rows) => {
                for &r in rows {
                    if r >= n_rows {
                        return Err(ProtoError::BadShape(format!(
                            "subset row {r} out of range (n = {n_rows})"
                        )));
                    }
                }
                Ok(Some(SubsetQuery::from_indices(n_rows, rows)))
            }
            _ => Ok(None),
        }
    }
}

/// Renders a [`Noise`] annotation to the protocol JSON form.
pub fn noise_to_json(noise: Noise) -> Json {
    match noise {
        Noise::Exact => Json::obj(vec![("kind", Json::str("exact"))]),
        Noise::Bounded { alpha } => Json::obj(vec![
            ("kind", Json::str("bounded")),
            ("alpha", Json::num(alpha)),
        ]),
        Noise::PureDp { epsilon } => Json::obj(vec![
            ("kind", Json::str("dp")),
            ("epsilon", Json::num(epsilon)),
        ]),
    }
}

/// Parses a [`Noise`] annotation from the protocol JSON form.
pub fn noise_from_json(v: &Json) -> Result<Noise, ProtoError> {
    let shape = |m: &str| ProtoError::BadShape(m.to_owned());
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| shape("noise needs a string `kind`"))?;
    match kind {
        "exact" => Ok(Noise::Exact),
        "bounded" => {
            let alpha = v
                .get("alpha")
                .and_then(Json::as_f64)
                .ok_or_else(|| shape("bounded noise needs `alpha`"))?;
            if !(alpha.is_finite() && alpha >= 0.0) {
                return Err(shape("bounded noise needs finite alpha >= 0"));
            }
            Ok(Noise::Bounded { alpha })
        }
        "dp" => {
            let epsilon = v
                .get("epsilon")
                .and_then(Json::as_f64)
                .ok_or_else(|| shape("dp noise needs `epsilon`"))?;
            if !(epsilon.is_finite() && epsilon > 0.0) {
                return Err(shape("dp noise needs finite epsilon > 0"));
            }
            Ok(Noise::PureDp { epsilon })
        }
        other => Err(shape(&format!("unknown noise kind {other:?}"))),
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Bind this session to a tenant.
    Hello {
        /// The tenant name.
        tenant: String,
    },
    /// Liveness check (still rate-limited, so it doubles as the
    /// token-bucket demo op).
    Ping,
    /// A declared workload: every query shares one noise annotation.
    Workload {
        /// The declared queries.
        queries: Vec<WireQuery>,
        /// The release mechanism the client asks for.
        noise: Noise,
    },
    /// The session tenant's budget accounting state.
    Budget,
    /// The live `so-obs` registry, rendered in the Prometheus text format.
    Metrics,
    /// The session tenant's flight-recorder dump (not rate-limited:
    /// introspection must stay reachable while a tenant is being throttled).
    Flight,
}

impl Request {
    /// Renders to the protocol JSON form.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Hello { tenant } => Json::obj(vec![
                ("op", Json::str("hello")),
                ("tenant", Json::str(tenant)),
            ]),
            Request::Ping => Json::obj(vec![("op", Json::str("ping"))]),
            Request::Workload { queries, noise } => Json::obj(vec![
                ("op", Json::str("workload")),
                (
                    "queries",
                    Json::Arr(queries.iter().map(WireQuery::to_json).collect()),
                ),
                ("noise", noise_to_json(*noise)),
            ]),
            Request::Budget => Json::obj(vec![("op", Json::str("budget"))]),
            Request::Metrics => Json::obj(vec![("op", Json::str("metrics"))]),
            Request::Flight => Json::obj(vec![("op", Json::str("flight"))]),
        }
    }

    /// The wire op discriminator — the `op` label on per-op metrics and
    /// flight records.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Ping => "ping",
            Request::Workload { .. } => "workload",
            Request::Budget => "budget",
            Request::Metrics => "metrics",
            Request::Flight => "flight",
        }
    }

    /// Parses the protocol JSON form.
    pub fn from_json(v: &Json) -> Result<Request, ProtoError> {
        let shape = |m: &str| ProtoError::BadShape(m.to_owned());
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| shape("request needs a string `op`"))?;
        match op {
            "hello" => Ok(Request::Hello {
                tenant: v
                    .get("tenant")
                    .and_then(Json::as_str)
                    .ok_or_else(|| shape("hello needs a `tenant` string"))?
                    .to_owned(),
            }),
            "ping" => Ok(Request::Ping),
            "budget" => Ok(Request::Budget),
            "metrics" => Ok(Request::Metrics),
            "flight" => Ok(Request::Flight),
            "workload" => {
                let queries = v
                    .get("queries")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| shape("workload needs a `queries` array"))?;
                if queries.is_empty() {
                    return Err(shape("workload needs at least one query"));
                }
                let queries = queries
                    .iter()
                    .map(WireQuery::from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                let noise = noise_from_json(
                    v.get("noise")
                        .ok_or_else(|| shape("workload needs a `noise` object"))?,
                )?;
                Ok(Request::Workload { queries, noise })
            }
            other => Err(shape(&format!("unknown op {other:?}"))),
        }
    }

    /// Decodes a request frame's payload, and its optional `request_id`:
    /// the server's one decode. A well-formed request is read straight off
    /// the lexer into its typed form, with no [`Json`] tree; anything else
    /// is re-parsed through the tree path (`parse` →
    /// [`extract_request_id`] → [`Request::from_json`]), so every
    /// rejection carries exactly that path's [`ProtoError`].
    pub fn decode(payload: &[u8]) -> Result<(Request, Option<String>), ProtoError> {
        let text = utf8(payload)?;
        if let Some(decoded) = decode_typed(text) {
            return Ok(decoded);
        }
        let value = parse(text).map_err(|e| ProtoError::BadJson(e.to_string()))?;
        let request_id = extract_request_id(&value)?;
        Ok((Request::from_json(&value)?, request_id))
    }
}

/// The typed half of [`Request::decode`]: `Some` only for a syntactically
/// valid request object whose fields all have their wire types, with
/// duplicate keys resolved last-wins and unknown keys skipped, as the tree
/// path resolves them. It gives up (`None`) at the first surprise,
/// including shapes the tree path would still accept.
fn decode_typed(text: &str) -> Option<(Request, Option<String>)> {
    let (mut op, mut tenant, mut request_id, mut queries, mut noise) =
        (None, None, None, None, None);
    json::document(text, |p| {
        p.object(0, |p, key, depth| {
            match &*key {
                "op" => op = Some(p.string()?),
                "tenant" => tenant = Some(p.string()?),
                "request_id" => request_id = Some(p.string()?),
                "queries" => {
                    let mut qs = Vec::new();
                    p.array(depth, |p, d| {
                        qs.push(decode_query(p, d)?);
                        Ok(())
                    })?;
                    queries = Some(qs);
                }
                "noise" => noise = Some(decode_noise(p, depth)?),
                _ => p.skip_value(depth)?,
            }
            Ok(())
        })
    })
    .ok()?;
    let request = match op?.as_ref() {
        "hello" => Request::Hello {
            tenant: tenant?.into_owned(),
        },
        "ping" => Request::Ping,
        "budget" => Request::Budget,
        "metrics" => Request::Metrics,
        "flight" => Request::Flight,
        "workload" => Request::Workload {
            queries: queries.filter(|qs| !qs.is_empty())?,
            noise: noise?,
        },
        _ => return None,
    };
    let request_id = match request_id {
        None => None,
        Some(id) if !id.is_empty() && id.chars().count() <= MAX_REQUEST_ID_LEN => {
            Some(id.into_owned())
        }
        Some(_) => return None,
    };
    Some((request, request_id))
}

/// One `queries` element for [`decode_typed`].
fn decode_query(p: &mut Parser<'_>, depth: usize) -> Result<WireQuery, JsonError> {
    let (mut kind, mut rows, mut col, mut lo, mut hi, mut value) =
        (None, None, None, None, None, None);
    p.object(depth, |p, key, d| {
        match &*key {
            "kind" => kind = Some(p.string()?),
            "rows" => {
                let mut rs = Vec::new();
                p.array(d, |p, _| {
                    let row = json::f64_as_usize(p.number()?);
                    rs.push(row.ok_or_else(|| p.err("not a row index"))?);
                    Ok(())
                })?;
                rows = Some(rs);
            }
            "col" => col = Some(p.number()?),
            "lo" => lo = Some(p.number()?),
            "hi" => hi = Some(p.number()?),
            "value" => value = Some(p.number()?),
            _ => p.skip_value(d)?,
        }
        Ok(())
    })?;
    let query = match kind.as_deref() {
        Some("subset") => rows.map(WireQuery::Subset),
        Some("int_range") => (|| {
            Some(WireQuery::IntRange {
                col: json::f64_as_usize(col?)?,
                lo: json::f64_as_i64(lo?)?,
                hi: json::f64_as_i64(hi?)?,
            })
        })(),
        Some("value_eq") => (|| {
            Some(WireQuery::ValueEq {
                col: json::f64_as_usize(col?)?,
                value: json::f64_as_i64(value?)?,
            })
        })(),
        _ => None,
    };
    query.ok_or_else(|| p.err("not a wire query"))
}

/// The `noise` object for [`decode_typed`].
fn decode_noise(p: &mut Parser<'_>, depth: usize) -> Result<Noise, JsonError> {
    let (mut kind, mut alpha, mut epsilon) = (None, None, None);
    p.object(depth, |p, key, d| {
        match &*key {
            "kind" => kind = Some(p.string()?),
            "alpha" => alpha = Some(p.number()?),
            "epsilon" => epsilon = Some(p.number()?),
            _ => p.skip_value(d)?,
        }
        Ok(())
    })?;
    // `number` already refuses non-finite values.
    let noise = match kind.as_deref() {
        Some("exact") => Some(Noise::Exact),
        Some("bounded") => alpha
            .filter(|&a| a >= 0.0)
            .map(|alpha| Noise::Bounded { alpha }),
        Some("dp") => epsilon
            .filter(|&e| e > 0.0)
            .map(|epsilon| Noise::PureDp { epsilon }),
        _ => None,
    };
    noise.ok_or_else(|| p.err("not a noise annotation"))
}

/// One refusal inside a refused-workload response: the gate's own
/// [`so_analyze::Refusal`], so the wire and the audit trail carry the same
/// fields.
pub use so_analyze::admission::Refusal as WireRefusal;

/// A parsed response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `hello` acknowledged.
    Welcome {
        /// Echoed tenant name.
        tenant: String,
        /// Whether this tenant sits behind the workload gate.
        gated: bool,
        /// Tenant row count (the `n` of its secret column).
        n_rows: usize,
        /// Protocol version.
        version: String,
    },
    /// `ping` acknowledged.
    Pong,
    /// An admitted, executed workload.
    Answers {
        /// Released answers, in declaration order.
        answers: Vec<f64>,
    },
    /// A refused workload: no query executed.
    Refused {
        /// Per-offending-query refusals, ascending by index.
        refusals: Vec<WireRefusal>,
        /// Number of queries the refused workload declared.
        queries: usize,
    },
    /// Budget accounting state (zeros when the tenant has no accountant).
    BudgetState {
        /// Whether an accountant is attached.
        accounting: bool,
        /// ε spent within the accounting window.
        spent: f64,
        /// ε remaining.
        remaining: f64,
        /// The accountant's dataset-version cursor.
        version: u64,
    },
    /// The metrics dump.
    MetricsDump {
        /// Prometheus-format registry render.
        text: String,
    },
    /// The session tenant's flight-recorder dump.
    FlightDump {
        /// The tenant the records belong to.
        tenant: String,
        /// The ring capacity in force (`SO_FLIGHT_CAP`).
        cap: usize,
        /// All-time recorded requests (cap-invariant).
        total: u64,
        /// Retained records, oldest first.
        records: Vec<RequestRecord>,
    },
    /// Any error, including rate-limit pushback.
    Error {
        /// Error code (`SO-PROTO`, `SO-TENANT`, `SO-RATE`, `SO-SHUTDOWN`).
        code: String,
        /// Human-readable detail.
        detail: String,
        /// For `SO-RATE`: ticks until the bucket refills.
        retry_after_ticks: Option<u64>,
    },
}

impl Response {
    /// Renders to the protocol JSON form.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Welcome {
                tenant,
                gated,
                n_rows,
                version,
            } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("tenant", Json::str(tenant)),
                ("gated", Json::Bool(*gated)),
                ("n_rows", Json::num(*n_rows as f64)),
                ("version", Json::str(version)),
            ]),
            Response::Pong => Json::obj(vec![("ok", Json::Bool(true)), ("pong", Json::Bool(true))]),
            Response::Answers { answers } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                (
                    "answers",
                    Json::Arr(answers.iter().map(|&a| Json::num(a)).collect()),
                ),
            ]),
            Response::Refused { refusals, queries } => Json::obj(vec![
                ("ok", Json::Bool(false)),
                (
                    "error",
                    Json::obj(vec![
                        ("code", Json::str("SO-REFUSED")),
                        ("detail", Json::str("workload refused by the gate")),
                    ]),
                ),
                ("queries", Json::num(*queries as f64)),
                (
                    "refusals",
                    Json::Arr(
                        refusals
                            .iter()
                            .map(|r| {
                                let mut fields = Vec::with_capacity(3);
                                if let Some(q) = r.query {
                                    fields.push(("query", Json::num(q as f64)));
                                }
                                fields.push(("code", Json::str(&r.code)));
                                fields.push(("evidence", Json::str(&r.evidence)));
                                Json::obj(fields)
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::BudgetState {
                accounting,
                spent,
                remaining,
                version,
            } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("accounting", Json::Bool(*accounting)),
                ("spent", Json::num(*spent)),
                ("remaining", Json::num(*remaining)),
                ("version", Json::num(*version as f64)),
            ]),
            Response::MetricsDump { text } => {
                Json::obj(vec![("ok", Json::Bool(true)), ("metrics", Json::str(text))])
            }
            Response::FlightDump {
                tenant,
                cap,
                total,
                records,
            } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                (
                    "flight",
                    Json::obj(vec![
                        ("tenant", Json::str(tenant)),
                        ("cap", Json::num(*cap as f64)),
                        ("total", Json::num(*total as f64)),
                        (
                            "records",
                            Json::Arr(records.iter().map(RequestRecord::to_json).collect()),
                        ),
                    ]),
                ),
            ]),
            Response::Error {
                code,
                detail,
                retry_after_ticks,
            } => {
                let mut err = vec![("code", Json::str(code)), ("detail", Json::str(detail))];
                if let Some(t) = retry_after_ticks {
                    err.push(("retry_after_ticks", Json::num(*t as f64)));
                }
                Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::obj(err))])
            }
        }
    }

    /// Appends this response to `out` as one frame, tagged with
    /// `request_id` when given: the server's one encode. The bytes are
    /// those of [`write_frame`] over [`Response::to_json`] (through
    /// [`attach_request_id`]), rendered without building the tree.
    pub fn write_frame(&self, request_id: Option<&str>, out: &mut Vec<u8>) {
        framed(out, |out| self.write_json(request_id, out));
    }

    /// The payload of [`Response::write_frame`]: keys in the sorted order
    /// a [`Json::Obj`] renders them in.
    fn write_json(&self, request_id: Option<&str>, out: &mut Vec<u8>) {
        let mut o = ObjectWriter::open(out);
        match self {
            Response::Welcome {
                tenant,
                gated,
                n_rows,
                version,
            } => {
                o.bool("gated", *gated);
                o.num("n_rows", *n_rows as f64);
                o.bool("ok", true);
                o.opt_str("request_id", request_id);
                o.str("tenant", tenant);
                o.str("version", version);
            }
            Response::Pong => {
                o.bool("ok", true);
                o.bool("pong", true);
                o.opt_str("request_id", request_id);
            }
            Response::Answers { answers } => {
                json::write_array(o.key("answers"), answers, |&a, out| {
                    json::write_num(a, out);
                });
                o.bool("ok", true);
                o.opt_str("request_id", request_id);
            }
            Response::Refused { refusals, queries } => {
                let mut error = ObjectWriter::open(o.key("error"));
                error.str("code", "SO-REFUSED");
                error.str("detail", "workload refused by the gate");
                error.close();
                o.bool("ok", false);
                o.num("queries", *queries as f64);
                json::write_array(o.key("refusals"), refusals, |r, out| {
                    let mut f = ObjectWriter::open(out);
                    f.str("code", &r.code);
                    f.str("evidence", &r.evidence);
                    if let Some(q) = r.query {
                        f.num("query", q as f64);
                    }
                    f.close();
                });
                o.opt_str("request_id", request_id);
            }
            Response::BudgetState {
                accounting,
                spent,
                remaining,
                version,
            } => {
                o.bool("accounting", *accounting);
                o.bool("ok", true);
                o.num("remaining", *remaining);
                o.opt_str("request_id", request_id);
                o.num("spent", *spent);
                o.num("version", *version as f64);
            }
            Response::MetricsDump { text } => {
                o.str("metrics", text);
                o.bool("ok", true);
                o.opt_str("request_id", request_id);
            }
            Response::FlightDump {
                tenant,
                cap,
                total,
                records,
            } => {
                let mut flight = ObjectWriter::open(o.key("flight"));
                flight.num("cap", *cap as f64);
                json::write_array(flight.key("records"), records, RequestRecord::write_json);
                flight.str("tenant", tenant);
                flight.num("total", *total as f64);
                flight.close();
                o.bool("ok", true);
                o.opt_str("request_id", request_id);
            }
            Response::Error {
                code,
                detail,
                retry_after_ticks,
            } => {
                let mut error = ObjectWriter::open(o.key("error"));
                error.str("code", code);
                error.str("detail", detail);
                if let Some(t) = retry_after_ticks {
                    error.num("retry_after_ticks", *t as f64);
                }
                error.close();
                o.bool("ok", false);
                o.opt_str("request_id", request_id);
            }
        }
        o.close();
    }

    /// Parses the protocol JSON form.
    pub fn from_json(v: &Json) -> Result<Response, ProtoError> {
        let shape = |m: &str| ProtoError::BadShape(m.to_owned());
        let ok = v
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| shape("response needs a bool `ok`"))?;
        if !ok {
            let err = v.get("error").ok_or_else(|| shape("needs `error`"))?;
            let code = err
                .get("code")
                .and_then(Json::as_str)
                .ok_or_else(|| shape("error needs a `code`"))?
                .to_owned();
            if code == "SO-REFUSED" {
                let refusals = v
                    .get("refusals")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| shape("refusal needs `refusals`"))?
                    .iter()
                    .map(|r| {
                        Ok(WireRefusal {
                            query: r.get("query").and_then(Json::as_usize),
                            code: r
                                .get("code")
                                .and_then(Json::as_str)
                                .ok_or_else(|| shape("refusal needs `code`"))?
                                .to_owned(),
                            evidence: r
                                .get("evidence")
                                .and_then(Json::as_str)
                                .unwrap_or("")
                                .to_owned(),
                        })
                    })
                    .collect::<Result<Vec<_>, ProtoError>>()?;
                let queries = v
                    .get("queries")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| shape("refusal needs `queries`"))?;
                return Ok(Response::Refused { refusals, queries });
            }
            return Ok(Response::Error {
                code,
                detail: err
                    .get("detail")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                retry_after_ticks: err
                    .get("retry_after_ticks")
                    .and_then(Json::as_f64)
                    .map(|t| t as u64),
            });
        }
        if v.get("pong").is_some() {
            return Ok(Response::Pong);
        }
        if let Some(answers) = v.get("answers").and_then(Json::as_arr) {
            let answers = answers
                .iter()
                .map(|a| a.as_f64().ok_or_else(|| shape("answers must be numbers")))
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Response::Answers { answers });
        }
        if let Some(text) = v.get("metrics").and_then(Json::as_str) {
            return Ok(Response::MetricsDump {
                text: text.to_owned(),
            });
        }
        if let Some(fl) = v.get("flight") {
            let records = fl
                .get("records")
                .and_then(Json::as_arr)
                .ok_or_else(|| shape("flight dump needs `records`"))?
                .iter()
                .map(RequestRecord::from_json)
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Response::FlightDump {
                tenant: fl
                    .get("tenant")
                    .and_then(Json::as_str)
                    .ok_or_else(|| shape("flight dump needs `tenant`"))?
                    .to_owned(),
                cap: fl.get("cap").and_then(Json::as_usize).unwrap_or(0),
                total: fl.get("total").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                records,
            });
        }
        if let Some(accounting) = v.get("accounting").and_then(Json::as_bool) {
            return Ok(Response::BudgetState {
                accounting,
                spent: v.get("spent").and_then(Json::as_f64).unwrap_or(0.0),
                remaining: v.get("remaining").and_then(Json::as_f64).unwrap_or(0.0),
                version: v.get("version").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            });
        }
        if let Some(tenant) = v.get("tenant").and_then(Json::as_str) {
            return Ok(Response::Welcome {
                tenant: tenant.to_owned(),
                gated: v
                    .get("gated")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| shape("welcome needs `gated`"))?,
                n_rows: v
                    .get("n_rows")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| shape("welcome needs `n_rows`"))?,
                version: v
                    .get("version")
                    .and_then(Json::as_str)
                    .unwrap_or(PROTOCOL_VERSION)
                    .to_owned(),
            });
        }
        Err(shape("unrecognized response shape"))
    }
}

#[cfg(test)]
mod codec_tests;

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(r: Request) {
        let v = r.to_json();
        assert_eq!(Request::from_json(&v).unwrap(), r, "{}", v.render());
    }

    fn roundtrip_resp(r: Response) {
        let v = r.to_json();
        assert_eq!(Response::from_json(&v).unwrap(), r, "{}", v.render());
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Hello {
            tenant: "acme".to_owned(),
        });
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Budget);
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::Workload {
            queries: vec![
                WireQuery::Subset(vec![0, 3, 5]),
                WireQuery::IntRange {
                    col: 0,
                    lo: -5,
                    hi: 40,
                },
                WireQuery::ValueEq { col: 1, value: 7 },
            ],
            noise: Noise::Bounded { alpha: 2.5 },
        });
        roundtrip_req(Request::Workload {
            queries: vec![WireQuery::Subset(vec![])],
            noise: Noise::PureDp { epsilon: 0.1 },
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Welcome {
            tenant: "acme".to_owned(),
            gated: true,
            n_rows: 128,
            version: PROTOCOL_VERSION.to_owned(),
        });
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::Answers {
            answers: vec![1.0, 2.5, -0.75],
        });
        roundtrip_resp(Response::Refused {
            refusals: vec![
                WireRefusal {
                    query: Some(2),
                    code: "SO-LINREC".to_owned(),
                    evidence: "rank=24/24".to_owned(),
                },
                WireRefusal {
                    query: None,
                    code: "SO-RECON".to_owned(),
                    evidence: "m=384 alpha<=3.5".to_owned(),
                },
            ],
            queries: 384,
        });
        roundtrip_resp(Response::BudgetState {
            accounting: true,
            spent: 0.4,
            remaining: 0.6,
            version: 3,
        });
        roundtrip_resp(Response::MetricsDump {
            text: "so_serve_requests_total 4\n".to_owned(),
        });
        roundtrip_resp(Response::Error {
            code: "SO-RATE".to_owned(),
            detail: "bucket empty".to_owned(),
            retry_after_ticks: Some(9),
        });
        roundtrip_resp(Response::Error {
            code: "SO-PROTO".to_owned(),
            detail: "bad frame".to_owned(),
            retry_after_ticks: None,
        });
    }

    #[test]
    fn flight_op_and_dump_roundtrip() {
        roundtrip_req(Request::Flight);
        assert_eq!(Request::Flight.op_name(), "flight");
        roundtrip_resp(Response::FlightDump {
            tenant: "open".to_owned(),
            cap: 256,
            total: 999,
            records: vec![crate::flight::RequestRecord {
                tenant: "open".to_owned(),
                op: "workload".to_owned(),
                request_id: "att-1".to_owned(),
                outcome: "answered".to_owned(),
                codes: Vec::new(),
                evidence: String::new(),
                epsilon_spent: 0.5,
                rows_scanned: 2048,
                cache_hits: 7,
                latency_micros: 321,
            }],
        });
    }

    #[test]
    fn request_id_extraction_and_echo() {
        let bare = Request::Ping.to_json();
        assert_eq!(extract_request_id(&bare).unwrap(), None);
        let tagged = attach_request_id(bare, "att-42");
        assert_eq!(
            extract_request_id(&tagged).unwrap().as_deref(),
            Some("att-42")
        );
        // The tagged frame still parses as the same request.
        assert_eq!(Request::from_json(&tagged).unwrap(), Request::Ping);
        // Responses carry the echo without breaking shape-based parsing.
        let resp = attach_request_id(Response::Pong.to_json(), "att-42");
        assert_eq!(Response::from_json(&resp).unwrap(), Response::Pong);
        assert_eq!(
            resp.get("request_id").and_then(Json::as_str),
            Some("att-42")
        );
        // Bad shapes are refused: empty, oversized, non-string.
        let empty = attach_request_id(Request::Ping.to_json(), "");
        assert!(extract_request_id(&empty).is_err());
        let long = attach_request_id(Request::Ping.to_json(), &"x".repeat(200));
        assert!(extract_request_id(&long).is_err());
        let nonstr = Json::obj(vec![
            ("op", Json::str("ping")),
            ("request_id", Json::num(7.0)),
        ]);
        assert!(extract_request_id(&nonstr).is_err());
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        let msg = Request::Ping.to_json();
        write_frame(&mut buf, &msg).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(), msg);
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap_err(),
            ProtoError::Closed
        );
    }

    #[test]
    fn oversized_frame_is_refused_without_reading() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"whatever");
        let mut cursor = std::io::Cursor::new(buf);
        match read_frame(&mut cursor, 1024).unwrap_err() {
            ProtoError::Oversized { declared, cap } => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(cap, 1024);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_and_garbage_frames_are_clean_errors() {
        // Length promises 10 bytes, stream has 3.
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor, 1024).unwrap_err(),
            ProtoError::Truncated(_)
        ));
        // Valid length, payload is not JSON.
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(b"\xff\xfe\x00");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor, 1024).unwrap_err(),
            ProtoError::BadJson(_)
        ));
        // Zero-length frame.
        let mut cursor = std::io::Cursor::new(0u32.to_be_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut cursor, 1024).unwrap_err(),
            ProtoError::BadJson(_)
        ));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "{}",
            "{\"op\":\"nope\"}",
            "{\"op\":\"hello\"}",
            "{\"op\":\"workload\"}",
            "{\"op\":\"workload\",\"queries\":[],\"noise\":{\"kind\":\"exact\"}}",
            "{\"op\":\"workload\",\"queries\":[{\"kind\":\"subset\"}],\"noise\":{\"kind\":\"exact\"}}",
            "{\"op\":\"workload\",\"queries\":[{\"kind\":\"subset\",\"rows\":[1.5]}],\"noise\":{\"kind\":\"exact\"}}",
            "{\"op\":\"workload\",\"queries\":[{\"kind\":\"subset\",\"rows\":[]}],\"noise\":{\"kind\":\"dp\",\"epsilon\":0}}",
            "{\"op\":\"workload\",\"queries\":[{\"kind\":\"subset\",\"rows\":[]}],\"noise\":{\"kind\":\"bounded\",\"alpha\":-1}}",
        ] {
            let v = crate::json::parse(bad).unwrap();
            assert!(Request::from_json(&v).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn subset_bounds_are_checked() {
        let q = WireQuery::Subset(vec![0, 7]);
        assert!(q.to_subset(8).unwrap().is_some());
        assert!(q.to_subset(7).is_err());
        assert!(WireQuery::IntRange {
            col: 0,
            lo: 0,
            hi: 1
        }
        .to_subset(8)
        .unwrap()
        .is_none());
    }
}
