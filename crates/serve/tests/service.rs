//! End-to-end service tests over real loopback sockets: session protocol,
//! adversarial framing, tenant isolation, rate limiting, graceful shutdown,
//! and the HTTP `/metrics` endpoint.

use std::io::{Read, Write};
use std::net::TcpStream;

use so_plan::workload::Noise;
use so_serve::proto::{read_frame, write_frame, Request, Response, DEFAULT_MAX_FRAME};
use so_serve::{
    lp_attack, AttackOutcome, ServerConfig, ServerHandle, ServiceClient, TenantConfig, WireQuery,
};

fn boot(tenants: Vec<TenantConfig>) -> ServerHandle {
    so_serve::spawn(tenants, ServerConfig::default(), None).expect("bind loopback")
}

fn demo_tenants() -> Vec<TenantConfig> {
    vec![
        TenantConfig::ungated("open", 32, 7),
        TenantConfig::gated("guarded", 32, 7),
    ]
}

#[test]
fn hello_workload_budget_roundtrip() {
    let server = boot(vec![
        TenantConfig::ungated("open", 16, 3),
        TenantConfig::gated("metered", 16, 3).with_continual_budget(1.0),
    ]);
    let mut c = ServiceClient::connect(server.local_addr()).unwrap();
    assert_eq!(c.hello("open").unwrap(), (false, 16));
    c.ping().unwrap();

    // Exact subset sums against the ungated tenant match server truth.
    let answers = match c
        .workload(vec![WireQuery::Subset((0..16).collect())], Noise::Exact)
        .unwrap()
    {
        Response::Answers { answers } => answers,
        other => panic!("{other:?}"),
    };
    let truth = server
        .with_tenant("open", |t| t.secret().count_ones())
        .unwrap();
    assert_eq!(answers, vec![truth as f64]);

    // Re-bind the same session to the metered tenant and check accounting.
    assert_eq!(c.hello("metered").unwrap(), (true, 16));
    match c
        .workload(
            vec![WireQuery::Subset(vec![0, 1])],
            Noise::PureDp { epsilon: 0.25 },
        )
        .unwrap()
    {
        Response::Answers { .. } => {}
        other => panic!("{other:?}"),
    }
    match c.budget().unwrap() {
        Response::BudgetState {
            accounting,
            spent,
            remaining,
            ..
        } => {
            assert!(accounting);
            assert!((spent - 0.25).abs() < 1e-12);
            assert!((remaining - 0.75).abs() < 1e-12);
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn unknown_tenant_and_missing_hello_are_so_tenant() {
    let server = boot(demo_tenants());
    let mut c = ServiceClient::connect(server.local_addr()).unwrap();
    match c.call(&Request::Hello {
        tenant: "nobody".to_owned(),
    }) {
        Ok(Response::Error { code, .. }) => assert_eq!(code, "SO-TENANT"),
        other => panic!("{other:?}"),
    }
    match c.call(&Request::Budget) {
        Ok(Response::Error { code, detail, .. }) => {
            assert_eq!(code, "SO-TENANT");
            assert!(detail.contains("hello"), "{detail}");
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn remote_lp_attack_reconstructs_open_and_is_refused_gated() {
    let n = 24;
    let server = boot(vec![
        TenantConfig::ungated("open", n, 7),
        TenantConfig::gated("guarded", n, 7),
    ]);

    // Ungated: exact answers + LP decoding = full reconstruction.
    let mut c = ServiceClient::connect(server.local_addr()).unwrap();
    c.hello("open").unwrap();
    let mut rng = so_data::rng::seeded_rng(99);
    match lp_attack(&mut c, n, 4 * n, Noise::Exact, &mut rng).unwrap() {
        AttackOutcome::Reconstructed { reconstruction, .. } => {
            let acc = server
                .with_tenant("open", |t| {
                    so_recon::reconstruction_accuracy(t.secret(), &reconstruction)
                })
                .unwrap();
            assert!(acc >= 0.95, "accuracy {acc}");
        }
        other => panic!("{other:?}"),
    }

    // Gated: the same workload is refused with reconstruction evidence,
    // and the tenant's audit log records citable entries.
    let mut c = ServiceClient::connect(server.local_addr()).unwrap();
    c.hello("guarded").unwrap();
    let mut rng = so_data::rng::seeded_rng(99);
    match lp_attack(&mut c, n, 4 * n, Noise::Exact, &mut rng).unwrap() {
        AttackOutcome::Refused { codes, .. } => {
            assert!(codes.iter().any(|c| c == "SO-RECON"), "{codes:?}");
        }
        other => panic!("{other:?}"),
    }
    let log_len = server
        .with_tenant("guarded", |t| t.auditor().trail_len())
        .unwrap();
    assert!(log_len > 0, "refusals are audited server-side");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Adversarial framing: raw sockets, no client library.
// ---------------------------------------------------------------------------

fn raw(server: &ServerHandle) -> TcpStream {
    TcpStream::connect(server.local_addr()).unwrap()
}

#[test]
fn oversized_frame_is_refused_and_closed() {
    let server = boot(demo_tenants());
    let mut s = raw(&server);
    // Declare a frame bigger than the cap; send nothing else.
    s.write_all(&(64u32 << 20).to_be_bytes()).unwrap();
    let resp = read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap();
    match Response::from_json(&resp).unwrap() {
        Response::Error { code, detail, .. } => {
            assert_eq!(code, "SO-PROTO");
            assert!(detail.contains("exceeds"), "{detail}");
        }
        other => panic!("{other:?}"),
    }
    // The server closes after an oversized frame (the stream is out of
    // sync); the next read sees EOF.
    let mut buf = [0u8; 1];
    assert_eq!(s.read(&mut buf).unwrap(), 0);
    server.shutdown();
}

#[test]
fn garbage_payload_keeps_the_session_alive() {
    let server = boot(demo_tenants());
    let mut s = raw(&server);
    // A well-framed payload of non-JSON garbage: SO-PROTO, session lives.
    let garbage = b"\x01\x02\x03\x04not json";
    s.write_all(&(garbage.len() as u32).to_be_bytes()).unwrap();
    s.write_all(garbage).unwrap();
    let resp = read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap();
    match Response::from_json(&resp).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, "SO-PROTO"),
        other => panic!("{other:?}"),
    }
    // Valid JSON, malformed request: still SO-PROTO, still alive.
    let bad = b"{\"op\":\"no-such-op\"}";
    s.write_all(&(bad.len() as u32).to_be_bytes()).unwrap();
    s.write_all(bad).unwrap();
    let resp = read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap();
    match Response::from_json(&resp).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, "SO-PROTO"),
        other => panic!("{other:?}"),
    }
    // And a real request on the same socket succeeds.
    write_frame(&mut s, &Request::Ping.to_json()).unwrap();
    let resp = read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(
        Response::from_json(&resp).unwrap(),
        Response::Pong
    ));
    server.shutdown();
}

#[test]
fn escaped_request_id_and_tenant_are_echoed_as_decoded() {
    let server = boot(demo_tenants());
    let mut s = raw(&server);
    // What Python's default `json.dumps` sends for "r😀" and "guarded".
    for (frame, want_tenant) in [
        (
            &b"{\"op\":\"ping\",\"request_id\":\"r\\ud83d\\ude00\"}"[..],
            None,
        ),
        (
            &b"{\"op\":\"hello\",\"tenant\":\"gu\\u0061rded\",\"request_id\":\"r\\ud83d\\ude00\"}"
                [..],
            Some("guarded"),
        ),
    ] {
        s.write_all(&(frame.len() as u32).to_be_bytes()).unwrap();
        s.write_all(frame).unwrap();
        let resp = read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(
            resp.get("request_id").and_then(|v| v.as_str()),
            Some("r😀"),
            "{}",
            resp.render()
        );
        match (Response::from_json(&resp).unwrap(), want_tenant) {
            (Response::Pong, None) => {}
            (Response::Welcome { tenant, .. }, Some(want)) => assert_eq!(tenant, want),
            (other, _) => panic!("{other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn partial_writes_are_reassembled() {
    let server = boot(demo_tenants());
    let mut s = raw(&server);
    // Dribble a ping frame byte by byte; the blocking reader reassembles.
    let payload = Request::Ping.to_json().render();
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(payload.as_bytes());
    for b in frame {
        s.write_all(&[b]).unwrap();
        s.flush().unwrap();
    }
    let resp = read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(
        Response::from_json(&resp).unwrap(),
        Response::Pong
    ));
    server.shutdown();
}

#[test]
fn mid_request_disconnect_does_not_corrupt_other_sessions() {
    let server = boot(vec![
        TenantConfig::gated("metered", 16, 3).with_continual_budget(1.0)
    ]);

    // Session A starts spending budget.
    let mut a = ServiceClient::connect(server.local_addr()).unwrap();
    a.hello("metered").unwrap();
    a.workload(
        vec![WireQuery::Subset(vec![0])],
        Noise::PureDp { epsilon: 0.25 },
    )
    .unwrap();

    // Session B declares a large frame, sends half of it, and vanishes.
    {
        let mut b = raw(&server);
        b.write_all(&(1000u32).to_be_bytes()).unwrap();
        b.write_all(&[b'{'; 400]).unwrap();
        // Dropped here: mid-request disconnect.
    }

    // Session A continues unharmed, and the accountant saw exactly A's
    // spends — the truncated session charged nothing.
    a.workload(
        vec![WireQuery::Subset(vec![1])],
        Noise::PureDp { epsilon: 0.25 },
    )
    .unwrap();
    match a.budget().unwrap() {
        Response::BudgetState { spent, .. } => assert!((spent - 0.5).abs() < 1e-12),
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn immediate_disconnects_and_prefix_fragments_never_wedge_the_pool() {
    let server = boot(demo_tenants());
    // A burst of degenerate sessions: instant close, 1-byte prefix, 3-byte
    // prefix.
    for _ in 0..3 {
        drop(raw(&server));
        let mut s = raw(&server);
        s.write_all(&[0]).unwrap();
        drop(s);
        let mut s = raw(&server);
        s.write_all(&[0, 0, 9]).unwrap();
        drop(s);
    }
    // Workers all survive: a real session still gets served.
    let mut c = ServiceClient::connect(server.local_addr()).unwrap();
    c.ping().unwrap();
    server.shutdown();
}

#[test]
fn rate_limit_pushes_back_with_retry_after() {
    let server = boot(vec![TenantConfig::ungated("tiny", 8, 1).with_rate(2, 10)]);
    let mut c = ServiceClient::connect(server.local_addr()).unwrap();
    c.hello("tiny").unwrap();
    let q = || vec![WireQuery::Subset(vec![0])];
    assert!(matches!(
        c.workload(q(), Noise::Exact).unwrap(),
        Response::Answers { .. }
    ));
    assert!(matches!(
        c.workload(q(), Noise::Exact).unwrap(),
        Response::Answers { .. }
    ));
    // Bucket empty: SO-RATE with honest retry-after.
    let retry = match c.workload(q(), Noise::Exact).unwrap() {
        Response::Error {
            code,
            retry_after_ticks,
            ..
        } => {
            assert_eq!(code, "SO-RATE");
            retry_after_ticks.expect("rate refusals carry retry_after")
        }
        other => panic!("{other:?}"),
    };
    assert!(retry > 0 && retry <= 10, "{retry}");
    // In tick-per-request mode each request advances the clock once, so
    // `retry` further requests later the bucket has earned a token.
    for _ in 0..retry.saturating_sub(1) {
        let _ = c.workload(q(), Noise::Exact).unwrap();
    }
    assert!(matches!(
        c.workload(q(), Noise::Exact).unwrap(),
        Response::Answers { .. }
    ));
    server.shutdown();
}

#[test]
fn http_metrics_endpoint_serves_the_registry() {
    let server = boot(demo_tenants());
    // Generate some traffic first.
    let mut c = ServiceClient::connect(server.local_addr()).unwrap();
    c.ping().unwrap();

    let mut s = raw(&server);
    s.write_all(b"GET /metrics HTTP/1.1\r\nhost: localhost\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    s.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
    assert!(body.contains("so_serve_requests_total"), "{body}");
    assert!(body.contains("so_serve_sessions_total"), "{body}");

    // Unknown paths 404 without touching the registry.
    let mut s = raw(&server);
    s.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
    let mut body = String::new();
    s.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 404"), "{body}");
    server.shutdown();
}

#[test]
fn healthz_and_head_requests_through_the_sniffing_path() {
    let server = boot(demo_tenants());

    // GET /healthz answers a bare liveness probe.
    let mut s = raw(&server);
    s.write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    s.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
    assert!(body.ends_with("\r\n\r\nok\n"), "{body}");

    // HEAD /metrics: same status + content-length, empty body.
    let mut s = raw(&server);
    s.write_all(b"HEAD /metrics HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    let mut head = String::new();
    s.read_to_string(&mut head).unwrap();
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(
        head.ends_with("\r\n\r\n"),
        "HEAD body must be empty: {head}"
    );
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .expect("content-length header")
        .trim()
        .parse()
        .unwrap();
    assert!(len > 0, "HEAD still advertises the GET body length");

    // HEAD of an unknown path is a body-less 404.
    let mut s = raw(&server);
    s.write_all(b"HEAD /nope HTTP/1.1\r\n\r\n").unwrap();
    let mut head = String::new();
    s.read_to_string(&mut head).unwrap();
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    assert!(head.ends_with("\r\n\r\n"), "{head}");
    server.shutdown();
}

#[test]
fn request_ids_echo_and_server_assigns_sequence_numbers() {
    let server = boot(demo_tenants());
    let mut c = ServiceClient::connect(server.local_addr()).unwrap();

    // Client-supplied id comes back verbatim.
    c.set_next_request_id("probe-42");
    c.ping().unwrap();
    assert_eq!(c.last_request_id(), Some("probe-42"));

    // Untagged requests get server-assigned `srv-N` ids, monotonic per
    // server (the assignment counter only advances for untagged frames).
    c.ping().unwrap();
    let first = c.last_request_id().unwrap().to_owned();
    c.ping().unwrap();
    let second = c.last_request_id().unwrap().to_owned();
    assert!(first.starts_with("srv-"), "{first}");
    assert!(second.starts_with("srv-"), "{second}");
    let n1: u64 = first["srv-".len()..].parse().unwrap();
    let n2: u64 = second["srv-".len()..].parse().unwrap();
    assert_eq!(
        n2,
        n1 + 1,
        "sequential untagged requests get consecutive ids"
    );

    // A malformed id (wrong type) is refused as SO-PROTO without killing
    // the session.
    let mut s = raw(&server);
    let bad = b"{\"op\":\"ping\",\"request_id\":7}";
    s.write_all(&(bad.len() as u32).to_be_bytes()).unwrap();
    s.write_all(bad).unwrap();
    let resp = read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap();
    match Response::from_json(&resp).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, "SO-PROTO"),
        other => panic!("{other:?}"),
    }
    write_frame(&mut s, &Request::Ping.to_json()).unwrap();
    let resp = read_frame(&mut s, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(
        Response::from_json(&resp).unwrap(),
        Response::Pong
    ));
    server.shutdown();
}

#[test]
fn flight_recorder_captures_requests_and_serves_wire_and_http_dumps() {
    let n = 24;
    let server = boot(vec![
        TenantConfig::ungated("open", n, 7).with_flight_cap(8),
        TenantConfig::gated("guarded", n, 7).with_flight_cap(8),
    ]);

    // Drive one answered workload (tagged) and one refused attack.
    let mut c = ServiceClient::connect(server.local_addr()).unwrap();
    c.hello("guarded").unwrap();
    c.set_next_request_id("atk-1");
    let mut rng = so_data::rng::seeded_rng(99);
    match lp_attack(&mut c, n, 4 * n, Noise::Exact, &mut rng).unwrap() {
        AttackOutcome::Refused { .. } => {}
        other => panic!("{other:?}"),
    }

    // The flight op reads the ring over the wire — and is itself absent
    // from it (introspection is never recorded).
    let (cap, total, records) = c.flight().unwrap();
    assert_eq!(cap, 8);
    assert_eq!(total, 2, "hello + workload; the flight op is not recorded");
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].op, "hello");
    assert_eq!(records[0].outcome, "ok");
    let wl = &records[1];
    assert_eq!(wl.op, "workload");
    assert_eq!(wl.request_id, "atk-1");
    assert_eq!(wl.outcome, "refused");
    assert!(wl.codes.iter().any(|c| c == "SO-RECON"), "{:?}", wl.codes);
    assert!(!wl.evidence.is_empty(), "refusal evidence rides along");
    assert_eq!(wl.rows_scanned, 0, "refused workloads never touch the data");
    let (_, _, again) = c.flight().unwrap();
    assert_eq!(again.len(), 2, "reading the recorder does not grow it");

    // The same dump is one JSON line per record over HTTP.
    let mut s = raw(&server);
    s.write_all(b"GET /flight/guarded HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    s.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
    let payload = body.split("\r\n\r\n").nth(1).unwrap();
    assert_eq!(payload.lines().count(), 2, "{payload}");
    assert!(payload.contains("\"request_id\":\"atk-1\""), "{payload}");
    assert!(payload.contains("\"latency_micros\""), "{payload}");

    // Unknown tenant: 404. Tenants never leak across dumps.
    let mut s = raw(&server);
    s.write_all(b"GET /flight/nobody HTTP/1.1\r\n\r\n").unwrap();
    let mut body = String::new();
    s.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 404"), "{body}");

    // The labeled metrics saw the same traffic.
    let text = c.metrics().unwrap();
    assert!(
        text.contains("so_serve_requests_by_op_total{op=\"workload\",tenant=\"guarded\"}"),
        "{text}"
    );
    assert!(
        text.contains("so_serve_tenant_refusals_total{code=\"SO-RECON\",tenant=\"guarded\"}"),
        "{text}"
    );
    server.shutdown();
}

#[test]
fn flight_ring_evicts_oldest_but_total_keeps_counting() {
    let server = boot(vec![TenantConfig::ungated("open", 8, 3).with_flight_cap(2)]);
    let mut c = ServiceClient::connect(server.local_addr()).unwrap();
    c.hello("open").unwrap();
    for _ in 0..4 {
        c.workload(vec![WireQuery::Subset(vec![0])], Noise::Exact)
            .unwrap();
    }
    let (cap, total, records) = c.flight().unwrap();
    assert_eq!(cap, 2);
    assert_eq!(total, 5, "hello + 4 workloads, evictions included");
    assert_eq!(records.len(), 2, "ring holds only the newest cap records");
    assert!(records.iter().all(|r| r.op == "workload"));
    assert!(
        records.iter().all(|r| r.rows_scanned == 8),
        "one subset query over 8 rows: {records:?}"
    );
    server.shutdown();
}

#[test]
fn flight_requires_a_bound_tenant_but_ignores_rate_limits() {
    let server = boot(vec![TenantConfig::ungated("tiny", 8, 1).with_rate(1, 1000)]);
    let mut c = ServiceClient::connect(server.local_addr()).unwrap();

    // No hello yet: introspection has no tenant to read.
    match c.call(&Request::Flight).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, "SO-TENANT"),
        other => panic!("{other:?}"),
    }

    c.hello("tiny").unwrap();
    let q = || vec![WireQuery::Subset(vec![0])];
    c.workload(q(), Noise::Exact).unwrap();
    // Bucket is now empty; workloads bounce…
    match c.workload(q(), Noise::Exact).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, "SO-RATE"),
        other => panic!("{other:?}"),
    }
    // …but the throttled tenant can still inspect its own recorder, and the
    // rate-limited attempt is itself on record.
    let (_, _, records) = c.flight().unwrap();
    let last = records.last().unwrap();
    assert_eq!(last.outcome, "rate_limited");
    assert_eq!(last.codes, vec!["SO-RATE".to_owned()]);
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_sessions_and_refuses_late_requests() {
    let server = boot(demo_tenants());
    let addr = server.local_addr();
    let mut c = ServiceClient::connect(addr).unwrap();
    c.hello("open").unwrap();
    c.ping().unwrap();
    server.shutdown();
    // The drained session's next request is answered with SO-SHUTDOWN (or
    // the socket is already closed — both are clean ends, never a hang).
    match c.call(&Request::Ping) {
        Ok(Response::Error { code, .. }) => assert_eq!(code, "SO-SHUTDOWN"),
        Ok(other) => panic!("{other:?}"),
        Err(_) => {} // connection closed during drain: acceptable
    }
    // New connections are refused once the listener is gone.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // Rare: the OS may still accept briefly; a request must then fail.
            let mut late = ServiceClient::connect(addr).unwrap();
            late.ping().is_err()
        }
    );
}

#[test]
fn concurrent_tenants_do_not_interleave_noise_streams() {
    // Two tenants hammered from two threads: each tenant's seeded noise
    // stream must depend only on its own request order, not on scheduling.
    let run = || {
        let server = boot(vec![
            TenantConfig::ungated("a", 16, 1),
            TenantConfig::ungated("b", 16, 2),
        ]);
        let addr = server.local_addr();
        let spawn_client = |tenant: &'static str| {
            std::thread::spawn(move || {
                let mut c = ServiceClient::connect(addr).unwrap();
                c.hello(tenant).unwrap();
                let mut out = Vec::new();
                for _ in 0..5 {
                    match c
                        .workload(
                            vec![WireQuery::Subset(vec![0, 1, 2])],
                            Noise::Bounded { alpha: 4.0 },
                        )
                        .unwrap()
                    {
                        Response::Answers { answers } => out.extend(answers),
                        other => panic!("{other:?}"),
                    }
                }
                out
            })
        };
        let ta = spawn_client("a");
        let tb = spawn_client("b");
        let (a, b) = (ta.join().unwrap(), tb.join().unwrap());
        server.shutdown();
        (a, b)
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "per-tenant answer streams are deterministic");
}
