//! Criterion bench for the serving layer: end-to-end request throughput of
//! the framed wire protocol over real loopback sockets. Each iteration
//! boots nothing — a multi-tenant [`so_serve`] instance is spawned once per
//! case — and times N concurrent tenant sessions each submitting a fixed
//! batch of subset-count workloads through its own TCP connection. Divide
//! requests-per-iteration (stated in the transcript commentary) by the
//! reported time for requests/sec; the 1→4→8 curve shows how the bounded
//! worker pool multiplexes tenants.
//!
//! The `wire_codec` group times the server's frame codec alone on the
//! `lp_refused` shapes: decoding one LP-battery request frame and encoding
//! the gate's refusal of it, each through the `Json` tree (the reference
//! and client codec) and through the server's typed codec.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use so_plan::workload::Noise;
use so_serve::json::{self, Json};
use so_serve::proto::{attach_request_id, extract_request_id, write_frame, Request};
use so_serve::{
    spawn, Response, ServerConfig, ServiceClient, Tenant, TenantConfig, WireQuery, WorkloadOutcome,
};

/// Rows per tenant dataset (kept small: this bench times the wire, the
/// worker pool, and the engine dispatch — not a large scan).
const N_ROWS: usize = 256;

/// Workload requests each session submits per iteration.
const REQUESTS_PER_SESSION: usize = 50;

fn tenant_name(i: usize) -> String {
    format!("tenant{i}")
}

/// One tenant session: connect, `hello`, then the full request batch.
/// Returns a checksum so the transfers cannot be optimized away.
fn run_session(addr: std::net::SocketAddr, tenant: usize) -> f64 {
    let mut client = ServiceClient::connect(addr).expect("connect");
    client.hello(&tenant_name(tenant)).expect("hello");
    let mut acc = 0.0;
    for r in 0..REQUESTS_PER_SESSION {
        let members: Vec<usize> = (0..N_ROWS).filter(|x| (x + r) % 2 == 0).collect();
        let queries = vec![WireQuery::Subset(members)];
        match client.workload(queries, Noise::Exact).expect("workload") {
            Response::Answers { answers } => acc += answers[0],
            other => panic!("expected answers, got {other:?}"),
        }
    }
    acc
}

fn bench_service_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);
    for tenants in [1usize, 4, 8] {
        let configs: Vec<TenantConfig> = (0..tenants)
            .map(|i| TenantConfig::ungated(&tenant_name(i), N_ROWS, 0xBE_7C + i as u64))
            .collect();
        let server = spawn(
            configs,
            ServerConfig {
                workers: tenants,
                ..ServerConfig::default()
            },
            None,
        )
        .expect("server boots");
        let addr = server.local_addr();
        group.bench_function(format!("{tenants}_tenants"), |b| {
            b.iter(|| {
                let sessions: Vec<std::thread::JoinHandle<f64>> = (0..tenants)
                    .map(|i| std::thread::spawn(move || run_session(addr, i)))
                    .collect();
                sessions
                    .into_iter()
                    .map(|h| h.join().expect("session thread"))
                    .sum::<f64>()
            });
        });
        server.shutdown();
    }
    group.finish();
}

/// Rows of the LP tenant (E20.1 scale) and subset queries per battery.
const LP_ROWS: usize = 48;
const LP_QUERIES: usize = 4 * LP_ROWS;

/// The tree decode (`parse` → `extract_request_id` → `from_json`): the
/// client-side and reference path.
fn tree_decode(payload: &[u8]) -> (Request, Option<String>) {
    let value: Json = json::parse(std::str::from_utf8(payload).expect("UTF-8")).expect("JSON");
    let id = extract_request_id(&value).expect("request id");
    (Request::from_json(&value).expect("request"), id)
}

/// The tree encode (`to_json` → `attach_request_id` → `write_frame`): the
/// reference path.
fn tree_encode(response: &Response, id: &str, out: &mut Vec<u8>) {
    write_frame(out, &attach_request_id(response.to_json(), id)).expect("Vec write");
}

fn bench_wire_codec(c: &mut Criterion) {
    let mut rng = so_data::rng::seeded_rng(0x1CE);
    let queries: Vec<WireQuery> = so_recon::lp_attack_queries(LP_ROWS, LP_QUERIES, &mut rng)
        .iter()
        .map(|q| WireQuery::Subset(q.members().iter_ones().collect()))
        .collect();
    let id = "wire-codec-1";
    let request = Request::Workload {
        queries: queries.clone(),
        noise: Noise::Exact,
    };
    let payload = attach_request_id(request.to_json(), id)
        .render()
        .into_bytes();
    let mut tenant = Tenant::new(TenantConfig::gated("guarded", LP_ROWS, 7));
    let refusals = match tenant.run_workload(&queries, Noise::Exact) {
        Ok(WorkloadOutcome::Refused(refusals)) => refusals,
        other => panic!("the gate must refuse an LP battery: {other:?}"),
    };
    let n_refusals = refusals.len();
    let response = Response::Refused {
        refusals,
        queries: queries.len(),
    };
    // Both paths must agree before either is timed.
    let decoded = Request::decode(&payload).expect("typed decode");
    assert_eq!(decoded, tree_decode(&payload));
    assert_eq!(decoded, (request, Some(id.to_owned())));
    let (mut typed, mut tree) = (Vec::new(), Vec::new());
    response.write_frame(Some(id), &mut typed);
    tree_encode(&response, id, &mut tree);
    assert_eq!(typed, tree);
    println!(
        "# wire_codec: request {} B, response {} B with {n_refusals} refusals",
        payload.len(),
        typed.len() - 4,
    );

    let mut group = c.benchmark_group("wire_codec");
    group.bench_function("decode_tree", |b| {
        b.iter(|| black_box(tree_decode(black_box(&payload))))
    });
    group.bench_function("decode_typed", |b| {
        b.iter(|| black_box(Request::decode(black_box(&payload)).expect("typed decode")))
    });
    group.bench_function("encode_tree", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            tree_encode(black_box(&response), id, &mut out);
            black_box(out)
        })
    });
    group.bench_function("encode_typed", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            black_box(&response).write_frame(Some(id), &mut out);
            black_box(out)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_service_throughput, bench_wire_codec);
criterion_main!(benches);
