//! Differential tests of the server's typed codec against the tree codec:
//! [`Request::decode`] against `parse` → [`extract_request_id`] →
//! [`Request::from_json`], and [`Response::write_frame`] against
//! [`write_frame`] over [`attach_request_id`]. Requests are rendered with
//! permuted keys, stray whitespace, escaped strings, alternative number
//! spellings, unknown keys and duplicate keys; frames are truncated and
//! corrupted; neither path may panic, and both must give the same result.

use proptest::prelude::*;
use rand::Rng;
use so_data::rng::seeded_rng;
use so_plan::workload::Noise;

use super::*;
use crate::flight::RequestRecord;

/// The tree path: the reference every decode is held to.
fn tree_decode(payload: &[u8]) -> Result<(Request, Option<String>), ProtoError> {
    let value = parse(utf8(payload)?).map_err(|e| ProtoError::BadJson(e.to_string()))?;
    let request_id = extract_request_id(&value)?;
    Ok((Request::from_json(&value)?, request_id))
}

/// Decodes `payload` both ways and checks they agree. The typed half on
/// its own must never accept a frame the tree rejects, nor read it
/// differently. Returns what the typed half accepted.
fn check_decode(payload: &[u8]) -> Option<(Request, Option<String>)> {
    let want = tree_decode(payload);
    assert_eq!(
        Request::decode(payload),
        want,
        "{:?}",
        String::from_utf8_lossy(payload)
    );
    let typed = std::str::from_utf8(payload).ok().and_then(decode_typed);
    if let Some(got) = &typed {
        assert_eq!(
            Ok(got),
            want.as_ref(),
            "{:?}",
            String::from_utf8_lossy(payload)
        );
    }
    // The lexer's skip accepts and rejects exactly what its parse does.
    if let Ok(text) = std::str::from_utf8(payload) {
        assert_eq!(
            json::document(text, |p| p.skip_value(0)),
            parse(text).map(drop),
            "{text:?}"
        );
    }
    typed
}

/// Strings heavy in what JSON must escape or may spell differently:
/// quotes, backslashes, slashes, control bytes, non-ASCII and non-BMP
/// scalars.
fn arb_string() -> impl Strategy<Value = String> {
    let ch = (0u32..8, any::<u32>()).prop_map(|(class, x)| match class {
        0..=3 => char::from(b'a' + (x % 26) as u8),
        4 => ['"', '\\', '/', '😀', 'é', '\u{7f}', '\u{2028}', '\u{ffff}'][x as usize % 8],
        5 => char::from((x % 0x20) as u8),
        6 => char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}'),
        _ => char::from_u32(0x1_0000 + x % 0x10_0000).expect("a supplementary scalar"),
    });
    proptest::collection::vec(ch, 0..10).prop_map(String::from_iter)
}

fn option_of<S: Strategy + 'static>(inner: S) -> impl Strategy<Value = Option<S::Value>>
where
    S::Value: Clone + 'static,
{
    prop_oneof![1 => Just(None), 3 => inner.prop_map(Some)]
}

fn shuffle<T>(rng: &mut impl Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn choose<'a, T>(rng: &mut impl Rng, items: &'a [T]) -> Option<&'a T> {
    (!items.is_empty()).then(|| &items[rng.gen_range(0..items.len())])
}

/// Valid, empty and over-long ids, so rejections are compared too.
fn arb_request_id() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        2 => Just(None),
        4 => arb_string().prop_map(Some),
        1 => (125usize..132).prop_map(|n| Some("é".repeat(n))),
    ]
}

fn arb_query() -> impl Strategy<Value = WireQuery> {
    prop_oneof![
        proptest::collection::vec(0usize..200, 0..30).prop_map(WireQuery::Subset),
        (0usize..1000, any::<i64>(), -1_000_000i64..1_000_000)
            .prop_map(|(col, lo, hi)| WireQuery::IntRange { col, lo, hi }),
        (0usize..1000, any::<i64>()).prop_map(|(col, value)| WireQuery::ValueEq { col, value }),
    ]
}

fn arb_noise() -> impl Strategy<Value = Noise> {
    prop_oneof![
        Just(Noise::Exact),
        prop_oneof![Just(0.0), 0.0..100.0f64].prop_map(|alpha| Noise::Bounded { alpha }),
        prop_oneof![Just(1e-7), 1e-3..10.0f64].prop_map(|epsilon| Noise::PureDp { epsilon }),
    ]
}

/// Every op, with workloads of up to `max_queries` queries.
fn arb_request(max_queries: usize) -> impl Strategy<Value = Request> {
    prop_oneof![
        arb_string().prop_map(|tenant| Request::Hello { tenant }),
        Just(Request::Ping),
        Just(Request::Budget),
        Just(Request::Metrics),
        Just(Request::Flight),
        (
            proptest::collection::vec(arb_query(), 0..max_queries),
            arb_noise()
        )
            .prop_map(|(queries, noise)| Request::Workload { queries, noise }),
    ]
}

/// What a messy rendering may add beyond reordering and respelling.
#[derive(Clone, Copy, PartialEq)]
enum Extras {
    /// Only permuted keys, whitespace, escapes and number spellings.
    None,
    /// Also unknown keys, and earlier duplicates of string fields: the
    /// request still decodes to the same value.
    Benign,
    /// Also duplicates with arbitrary values anywhere.
    Hostile,
}

/// Keys the protocol reads; unknown keys must avoid them.
const KNOWN: [&str; 13] = [
    "op",
    "tenant",
    "request_id",
    "queries",
    "noise",
    "kind",
    "rows",
    "col",
    "lo",
    "hi",
    "value",
    "alpha",
    "epsilon",
];

struct Messy<R> {
    rng: R,
    extras: Extras,
    out: String,
}

impl<R: Rng> Messy<R> {
    fn ws(&mut self) {
        while self.rng.gen_bool(0.2) {
            let c = *choose(&mut self.rng, &[' ', '\t', '\n', '\r']).unwrap();
            self.out.push(c);
        }
    }

    fn string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            let escape = self.rng.gen_bool(0.25);
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '/' if escape => self.out.push_str("\\/"),
                c if escape || (c as u32) < 0x20 => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        if self.rng.gen_bool(0.5) {
                            self.out.push_str(&format!("\\u{unit:04X}"));
                        } else {
                            self.out.push_str(&format!("\\u{unit:04x}"));
                        }
                    }
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn number(&mut self, v: f64) {
        let whole = v.fract() == 0.0 && v.abs() < 1e15;
        let text = match self.rng.gen_range(0..4) {
            0 if whole => format!("{}.0", v as i64),
            1 if whole => format!("{}e0", v as i64),
            2 if whole => format!("{}E+0", v as i64),
            3 => format!("{v:e}"),
            _ => Json::Num(v).render(),
        };
        self.out.push_str(&text);
    }

    fn junk(&mut self, depth: usize) -> Json {
        match self.rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(self.rng.gen_bool(0.5)),
            2 => Json::Num(self.rng.gen_range(-1e6..1e6f64).round()),
            3 => Json::str("junk"),
            4 => Json::Arr(
                (0..self.rng.gen_range(0..3))
                    .map(|_| self.junk(depth - 1))
                    .collect(),
            ),
            _ => Json::obj(vec![("x", self.junk(depth - 1))]),
        }
    }

    fn value(&mut self, v: &Json) {
        match v {
            Json::Null | Json::Bool(_) => self.out.push_str(&v.render()),
            Json::Num(n) => self.number(*n),
            Json::Str(s) => self.string(s),
            Json::Arr(items) => {
                self.out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.ws();
                    self.value(item);
                    self.ws();
                }
                self.out.push(']');
            }
            Json::Obj(map) => {
                let mut fields: Vec<(String, Json)> =
                    map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                shuffle(&mut self.rng, &mut fields);
                if self.extras != Extras::None {
                    for i in 0..self.rng.gen_range(0..3) {
                        let at = self.rng.gen_range(0..=fields.len());
                        let junk = self.junk(2);
                        fields.insert(at, (format!("zz{i}"), junk));
                    }
                    // An earlier string decoy loses to the real field.
                    let strings: Vec<usize> = (0..fields.len())
                        .filter(|&i| KNOWN.contains(&fields[i].0.as_str()))
                        .filter(|&i| matches!(fields[i].1, Json::Str(_)))
                        .collect();
                    if let Some(&i) = choose(&mut self.rng, &strings) {
                        let decoy = (fields[i].0.clone(), Json::str("decoy"));
                        let at = self.rng.gen_range(0..=i);
                        fields.insert(at, decoy);
                    }
                }
                if self.extras == Extras::Hostile && self.rng.gen_bool(0.5) {
                    let key = choose(&mut self.rng, &KNOWN).unwrap().to_string();
                    let at = self.rng.gen_range(0..=fields.len());
                    let junk = self.junk(2);
                    fields.insert(at, (key, junk));
                }
                self.out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.ws();
                    self.string(k);
                    self.ws();
                    self.out.push(':');
                    self.ws();
                    self.value(v);
                    self.ws();
                }
                self.out.push('}');
            }
        }
    }
}

/// `request` (tagged with `id`) rendered messily from `seed`.
fn messy(request: &Request, id: Option<&str>, seed: u64, extras: Extras) -> String {
    let mut v = request.to_json();
    if let Some(id) = id {
        v = attach_request_id(v, id);
    }
    let mut m = Messy {
        rng: seeded_rng(seed),
        extras,
        out: String::new(),
    };
    m.ws();
    m.value(&v);
    m.ws();
    m.out
}

fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(-0.0),
        Just(1e-7),
        Just(1e300),
        Just(0.1),
        Just(1e15),
        Just(-999_999_999_999_999.0),
        Just(9_007_199_254_740_993.0),
        -1e6..1e6f64,
        any::<i32>().prop_map(f64::from),
        proptest::num::f64::NORMAL,
        any::<u64>().prop_map(|bits| f64::from_bits(bits & ((1 << 52) - 1))),
    ]
}

fn arb_record() -> impl Strategy<Value = RequestRecord> {
    (
        (arb_string(), arb_string(), arb_string(), arb_string()),
        proptest::collection::vec(arb_string(), 0..3),
        arb_string(),
        arb_f64(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((tenant, op, request_id, outcome), codes, evidence, eps, (rows, hits, micros))| {
                RequestRecord {
                    tenant,
                    op,
                    request_id,
                    outcome,
                    codes,
                    evidence,
                    epsilon_spent: eps,
                    rows_scanned: rows,
                    cache_hits: hits,
                    latency_micros: micros,
                }
            },
        )
}

fn arb_response() -> impl Strategy<Value = Response> {
    let refusal =
        (option_of(0usize..500), arb_string(), arb_string()).prop_map(|(query, code, evidence)| {
            WireRefusal {
                query,
                code,
                evidence,
            }
        });
    prop_oneof![
        (arb_string(), any::<bool>(), any::<usize>(), arb_string()).prop_map(
            |(tenant, gated, n_rows, version)| Response::Welcome {
                tenant,
                gated,
                n_rows,
                version,
            }
        ),
        Just(Response::Pong),
        proptest::collection::vec(arb_f64(), 0..20)
            .prop_map(|answers| Response::Answers { answers }),
        (proptest::collection::vec(refusal, 0..8), 0usize..1000)
            .prop_map(|(refusals, queries)| Response::Refused { refusals, queries }),
        (any::<bool>(), arb_f64(), arb_f64(), any::<u64>()).prop_map(
            |(accounting, spent, remaining, version)| Response::BudgetState {
                accounting,
                spent,
                remaining,
                version,
            }
        ),
        arb_string().prop_map(|text| Response::MetricsDump { text }),
        (
            arb_string(),
            any::<usize>(),
            any::<u64>(),
            proptest::collection::vec(arb_record(), 0..3)
        )
            .prop_map(|(tenant, cap, total, records)| Response::FlightDump {
                tenant,
                cap,
                total,
                records,
            }),
        (arb_string(), arb_string(), option_of(any::<u64>())).prop_map(
            |(code, detail, retry_after_ticks)| Response::Error {
                code,
                detail,
                retry_after_ticks,
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn typed_decode_matches_the_tree(
        request in arb_request(12),
        id in arb_request_id(),
        seed in any::<u64>(),
    ) {
        let valid_id = id
            .as_deref()
            .map_or(true, |s| !s.is_empty() && s.chars().count() <= MAX_REQUEST_ID_LEN);
        let valid_request = !matches!(&request, Request::Workload { queries, .. } if queries.is_empty());
        for extras in [Extras::None, Extras::Benign, Extras::Hostile] {
            let text = messy(&request, id.as_deref(), seed, extras);
            let typed = check_decode(text.as_bytes());
            // Without hostile duplicates, every well-formed request stays on
            // the typed path.
            if extras != Extras::Hostile && valid_id && valid_request {
                prop_assert!(typed.is_some(), "{}", text);
            }
        }
    }

    #[test]
    fn typed_encode_matches_the_tree(
        response in arb_response(),
        id in option_of(arb_string()),
    ) {
        let mut typed = Vec::new();
        response.write_frame(id.as_deref(), &mut typed);
        let mut tree = Vec::new();
        let value = match id.as_deref() {
            Some(id) => attach_request_id(response.to_json(), id),
            None => response.to_json(),
        };
        write_frame(&mut tree, &value).unwrap();
        prop_assert_eq!(
            String::from_utf8_lossy(&typed),
            String::from_utf8_lossy(&tree)
        );
        // The strict parser reads back every spelling the encoder writes.
        prop_assert_eq!(parse(std::str::from_utf8(&typed[4..]).unwrap()), Ok(value));
        prop_assert_eq!(typed, tree);
    }

    #[test]
    fn truncated_and_corrupted_frames_decode_alike(
        request in arb_request(4),
        id in arb_request_id(),
        seed in any::<u64>(),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let text = messy(&request, id.as_deref(), seed, Extras::Benign);
        let bytes = text.as_bytes();
        for cut in 0..bytes.len() {
            check_decode(&bytes[..cut]);
        }
        let mut corrupted = bytes.to_vec();
        for (at, b) in flips {
            let at = at % corrupted.len();
            corrupted[at] = b;
            check_decode(&corrupted);
        }
    }
}

#[test]
fn nesting_at_the_cap_decodes_alike_under_an_unknown_key() {
    for depth in 30..=34 {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let text = format!(
                "{{\"op\":\"ping\",\"zz\":{}1{}}}",
                open.repeat(depth),
                close.repeat(depth)
            );
            let typed = check_decode(text.as_bytes());
            // The root object is depth 0, so the innermost `1` sits at
            // `depth + 1`: past the cap of 32 from 32 levels on.
            assert_eq!(typed.is_some(), depth < 32, "{text}");
        }
    }
}

#[test]
fn number_spellings_decode_alike() {
    let workload = |rows: &str, lo: &str| {
        format!(
            "{{\"op\":\"workload\",\"noise\":{{\"kind\":\"exact\"}},\"queries\":[\
             {{\"kind\":\"subset\",\"rows\":[{rows}]}},\
             {{\"kind\":\"int_range\",\"col\":0,\"lo\":{lo},\"hi\":5}}]}}"
        )
    };
    for rows in [
        "01",
        "1.",
        "2.0",
        "1e1",
        "-0",
        "1.5",
        "-1",
        "4294967295",
        "4294967296",
        "1234567890123456",
        "12345678901234567890",
        "1e400",
        ".5",
        "+1",
        "1e",
        "--1",
    ] {
        for lo in [
            "9007199254740993",
            "-9223372036854775808",
            "9223372036854775807",
            "1e19",
            "0.5",
            "-0",
        ] {
            check_decode(workload(rows, lo).as_bytes());
        }
    }
    // Spellings outside RFC 8259 are refused by both codecs as bad JSON,
    // which the server answers with SO-PROTO.
    for rows in ["01", "1.", "-01", "1e", ".5", "+1", "--1"] {
        let payload = workload(rows, "1");
        assert!(check_decode(payload.as_bytes()).is_none(), "{rows}");
        let err = Request::decode(payload.as_bytes()).expect_err(rows);
        assert!(matches!(err, ProtoError::BadJson(_)), "{rows}: {err}");
    }
    let (request, _) = check_decode(workload("1,2.0,1e1", "9007199254740993").as_bytes())
        .expect("alternative spellings stay typed");
    assert_eq!(
        request,
        Request::Workload {
            queries: vec![
                WireQuery::Subset(vec![1, 2, 10]),
                WireQuery::IntRange {
                    col: 0,
                    lo: 9_007_199_254_740_992,
                    hi: 5,
                },
            ],
            noise: Noise::Exact,
        }
    );
}

#[test]
fn noise_and_field_edges_decode_alike() {
    let workload = |query: &str, noise: &str| {
        format!("{{\"op\":\"workload\",\"queries\":[{query}],\"noise\":{noise}}}")
    };
    let queries = [
        "{\"kind\":\"subset\",\"rows\":[]}",
        "{\"kind\":\"subset\",\"rows\":[1,\"2\"]}",
        "{\"kind\":\"subset\",\"rows\":{}}",
        "{\"kind\":\"value_eq\",\"col\":-1,\"value\":3}",
        "{\"kind\":\"value_eq\",\"col\":1.5,\"value\":3}",
        "{\"kind\":\"value_eq\",\"col\":4294967296,\"value\":3}",
        "{\"kind\":\"value_eq\",\"col\":2}",
        "{\"kind\":\"int_range\",\"col\":0,\"lo\":null,\"hi\":1}",
        "{\"kind\":\"int_range\",\"col\":0,\"lo\":-1e19,\"hi\":1}",
        "{\"kind\":\"nope\"}",
        "{\"kind\":7}",
        "[]",
        "3",
    ];
    let noises = [
        "{\"kind\":\"exact\",\"alpha\":\"x\"}",
        "{\"kind\":\"bounded\",\"alpha\":-1}",
        "{\"kind\":\"bounded\",\"alpha\":-0.0}",
        "{\"kind\":\"bounded\",\"alpha\":0}",
        "{\"kind\":\"bounded\"}",
        "{\"kind\":\"dp\",\"epsilon\":0}",
        "{\"kind\":\"dp\",\"epsilon\":-0.5}",
        "{\"kind\":\"dp\",\"epsilon\":1e-320}",
        "{\"kind\":\"dp\",\"epsilon\":true}",
        "{\"kind\":\"laplace\"}",
        "{}",
        "null",
    ];
    for query in queries {
        for noise in noises {
            check_decode(workload(query, noise).as_bytes());
        }
    }
}

#[test]
fn escaped_request_ids_decode_to_their_scalars() {
    let text = "{\"op\":\"ping\",\"request_id\":\"r\\ud83d\\ude00\"}";
    let (request, id) = check_decode(text.as_bytes()).expect("typed");
    assert_eq!(request, Request::Ping);
    assert_eq!(id.as_deref(), Some("r😀"));
    // 128 escaped scalars are 128 characters, however long the escapes.
    let long = format!(
        "{{\"op\":\"ping\",\"request_id\":\"{}\"}}",
        "\\ud83d\\ude00".repeat(MAX_REQUEST_ID_LEN)
    );
    assert!(check_decode(long.as_bytes()).is_some());
    let longer = long.replacen("\"request_id\":\"", "\"request_id\":\"x", 1);
    assert!(check_decode(longer.as_bytes()).is_none());
}
