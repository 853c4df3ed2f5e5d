//! E21 — request observability at the service edge: wire-propagated
//! correlation ids, the per-tenant flight recorder, and the labeled metric
//! views an operator of the Cohen–Nissim target system would have needed.
//! The production LP attack ("Linear Program Reconstruction in Practice",
//! arXiv:1810.05692) went unnoticed partly because nothing tied the flood
//! of subset queries back to one principal; this experiment drives the
//! [`so_serve`] service through a mixed episode — tagged and untagged
//! requests, answered workloads, a refused reconstruction attempt, metered
//! DP releases — and prints what the observability surface retained:
//! echoed request ids, flight-recorder records (codes, evidence, ε, rows),
//! and per-`{tenant, op}` / per-`{tenant, code}` counter deltas.
//!
//! Determinism: sessions are strictly sequential, so server-assigned ids
//! are `srv-1`, `srv-2`, … in request order whatever the worker count; the
//! transcript prints the recorder's cumulative total and the newest three
//! records only (never the ring length, the cap, or any `*_micros` field),
//! so `SO_FLIGHT_CAP=4` and the default 256 render byte-identical tables.
//! CI replays this experiment across `SO_THREADS`, tracing, and
//! `SO_FLIGHT_CAP` and diffs the output
//! against the checked-in `experiments/e21_transcript.txt` artifact.

use so_data::rng::{derive_seed, seeded_rng};
use so_plan::workload::Noise;
use so_serve::obs::{serve_requests_by_op, serve_tenant_refusals};
use so_serve::{
    lp_attack, serve_metrics, spawn, AttackOutcome, Response, ServerConfig, ServiceClient,
    TenantConfig, WireQuery,
};

use crate::table::clip;
use crate::{Scale, Table};

/// Master seed for every E21 stream.
const MASTER_SEED: u64 = 0xE21;

/// One correlation row: issue `op` (optionally tagged) and report the id
/// that came back.
fn correlate(
    table: &mut Table,
    client: &mut ServiceClient,
    seq: usize,
    op: &str,
    supplied: Option<&str>,
    call: impl FnOnce(&mut ServiceClient),
) {
    if let Some(id) = supplied {
        client.set_next_request_id(id);
    }
    call(client);
    table.row(Vec::from([
        format!("#{seq}"),
        op.to_owned(),
        supplied.unwrap_or("—").to_owned(),
        client.last_request_id().unwrap_or("—").to_owned(),
    ]));
}

/// Runs E21 at `scale` and renders the tables.
pub fn run(scale: Scale) -> Vec<Table> {
    let n = scale.pick(24, 48);
    let m = 4 * n;
    let one = || vec![WireQuery::Subset(vec![0])];

    // Counter deltas, not absolutes: the registry is process-global and
    // `exp all` executes every experiment in one process. Tenant names are
    // E21-scoped so labeled series never collide with other experiments.
    let sm = serve_metrics();
    let flight_base = sm.flight_records.get();
    let by_op_base = [
        serve_requests_by_op("workload", "e21-open").get(),
        serve_requests_by_op("workload", "e21-metered").get(),
        serve_requests_by_op("flight", "e21-open").get(),
    ];
    let refusal_base = serve_tenant_refusals("SO-RECON", "e21-metered").get();

    let tenants = Vec::from([
        TenantConfig::ungated("e21-open", n, derive_seed(MASTER_SEED, 10)),
        TenantConfig::gated("e21-metered", n, derive_seed(MASTER_SEED, 11))
            .with_continual_budget(1.0),
    ]);
    let server = spawn(tenants, ServerConfig::default(), None).expect("server boots");

    // ---- E21.1: request-id correlation over the wire ---------------------
    // Client-supplied ids echo verbatim; untagged requests get the server's
    // deterministic `srv-N` sequence.
    let mut correlation = Table::new(
        "E21.1 request-id correlation (client-tagged vs server-assigned)",
        &["request", "op", "supplied id", "echoed id"],
    );
    let mut c = ServiceClient::connect(server.local_addr()).expect("connect");
    correlate(&mut correlation, &mut c, 1, "hello", Some("boot-1"), |c| {
        c.hello("e21-open").expect("hello");
    });
    correlate(&mut correlation, &mut c, 2, "ping", None, |c| {
        c.ping().expect("ping");
    });
    correlate(&mut correlation, &mut c, 3, "workload", Some("wl-1"), |c| {
        c.workload(one(), Noise::Exact).expect("workload");
    });
    correlate(&mut correlation, &mut c, 4, "ping", None, |c| {
        c.ping().expect("ping");
    });

    // ---- E21.2: the flight recorder after a burst ------------------------
    // Four more answered workloads, then a `flight` dump on the same
    // session. The table shows the cumulative total and the newest three
    // records — cap-invariant by construction.
    for i in 1..=4 {
        c.set_next_request_id(&format!("q-{i}"));
        c.workload(one(), Noise::Exact).expect("workload");
    }
    c.set_next_request_id("dump-1");
    let (_, total, records) = c.flight().expect("flight dump");
    let mut recorder = Table::new(
        "E21.2 flight recorder, e21-open tenant (cumulative total + newest 3)",
        &["record", "deterministic fields"],
    );
    recorder.row(Vec::from([
        "recorded (all-time)".to_owned(),
        total.to_string(),
    ]));
    let newest = records.iter().rev().take(3).rev();
    for (i, r) in newest.enumerate() {
        recorder.row(Vec::from([
            format!("newest-{}", 3 - i),
            r.transcript_fields(),
        ]));
    }

    // ---- E21.3: refusal forensics + metered releases ---------------------
    // A reconstruction attempt against the gated tenant leaves a refusal
    // record with codes and evidence; a budget-fitting DP workload leaves
    // an answered record with its ε debit.
    let mut forensics = Table::new(
        "E21.3 flight-recorder forensics, e21-metered tenant",
        &["stage", "record"],
    );
    let mut g = ServiceClient::connect(server.local_addr()).expect("connect");
    g.set_next_request_id("atk-hello");
    g.hello("e21-metered").expect("hello");
    let mut rng = seeded_rng(derive_seed(MASTER_SEED, 20));
    g.set_next_request_id("atk-1");
    match lp_attack(&mut g, n, m, Noise::Exact, &mut rng).expect("attack ran") {
        AttackOutcome::Refused { .. } => {}
        other => panic!("gated tenant must refuse: {other:?}"),
    }
    g.set_next_request_id("dp-1");
    match g
        .workload(
            vec![WireQuery::Subset(vec![0]), WireQuery::Subset(vec![1, 2])],
            Noise::PureDp { epsilon: 0.1 },
        )
        .expect("dp workload")
    {
        Response::Answers { .. } => {}
        other => panic!("fitting DP workload must be answered: {other:?}"),
    }
    let (_, g_total, g_records) = g.flight().expect("flight dump");
    forensics.row(Vec::from([
        "recorded (all-time)".to_owned(),
        g_total.to_string(),
    ]));
    for r in g_records.iter().rev().take(2).rev() {
        forensics.row(Vec::from([
            format!("{} ({})", r.request_id, r.outcome),
            r.transcript_fields(),
        ]));
    }
    if let Some(refused) = g_records.iter().find(|r| r.outcome == "refused") {
        forensics.row(Vec::from([
            "refusal evidence".to_owned(),
            clip(&refused.evidence, 72),
        ]));
    }

    // ---- E21.4: the labeled metric views ---------------------------------
    let mut labeled = Table::new(
        "E21.4 per-tenant labeled metrics (deltas; gauges absolute)",
        &["series", "value"],
    );
    let by_op_now = [
        serve_requests_by_op("workload", "e21-open").get(),
        serve_requests_by_op("workload", "e21-metered").get(),
        serve_requests_by_op("flight", "e21-open").get(),
    ];
    let by_op_names = [
        "so_serve_requests_by_op_total{op=workload,tenant=e21-open}",
        "so_serve_requests_by_op_total{op=workload,tenant=e21-metered}",
        "so_serve_requests_by_op_total{op=flight,tenant=e21-open}",
    ];
    for (i, name) in by_op_names.iter().enumerate() {
        labeled.row(Vec::from([
            (*name).to_owned(),
            (by_op_now[i] - by_op_base[i]).to_string(),
        ]));
    }
    labeled.row(Vec::from([
        "so_serve_tenant_refusals_total{code=SO-RECON,tenant=e21-metered}".to_owned(),
        (serve_tenant_refusals("SO-RECON", "e21-metered").get() - refusal_base).to_string(),
    ]));
    labeled.row(Vec::from([
        "so_serve_flight_records_total".to_owned(),
        (sm.flight_records.get() - flight_base).to_string(),
    ]));
    let reg = so_obs::global();
    let spent = reg
        .gauge_value_with(
            "so_serve_tenant_epsilon_spent",
            &[("tenant", "e21-metered")],
        )
        .unwrap_or(0.0);
    let remaining = reg
        .gauge_value_with(
            "so_serve_tenant_epsilon_remaining",
            &[("tenant", "e21-metered")],
        )
        .unwrap_or(0.0);
    labeled.row(Vec::from([
        "so_serve_tenant_epsilon_spent{tenant=e21-metered}".to_owned(),
        format!("{spent:.4}"),
    ]));
    labeled.row(Vec::from([
        "so_serve_tenant_epsilon_remaining{tenant=e21-metered}".to_owned(),
        format!("{remaining:.4}"),
    ]));

    server.shutdown();
    Vec::from([correlation, recorder, forensics, labeled])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e21_correlates_records_and_meters() {
        let tables = run(Scale::Quick);
        let rendered: Vec<String> = tables.iter().map(|t| t.render()).collect();
        // Tagged ids echo; untagged requests draw the srv-N sequence.
        assert!(rendered[0].contains("boot-1"), "{}", rendered[0]);
        assert!(rendered[0].contains("srv-1"), "{}", rendered[0]);
        assert!(rendered[0].contains("srv-2"), "{}", rendered[0]);
        // The recorder keeps counting past what it retains, and the newest
        // records carry the client's ids.
        assert!(rendered[1].contains("id=q-4"), "{}", rendered[1]);
        assert!(!rendered[1].contains("micros"), "{}", rendered[1]);
        // Refusal forensics carry codes + evidence; the DP release its ε.
        assert!(rendered[2].contains("SO-RECON"), "{}", rendered[2]);
        assert!(rendered[2].contains("eps=0.2000"), "{}", rendered[2]);
        // Labeled views saw the episode.
        assert!(rendered[3].contains("e21-metered"), "{}", rendered[3]);
        assert!(
            rendered[3].contains("so_serve_tenant_epsilon_remaining{tenant=e21-metered} | 0.8000")
                || rendered[3].contains("0.8000"),
            "{}",
            rendered[3]
        );
    }

    #[test]
    fn e21_transcript_is_reproducible() {
        let a: Vec<String> = run(Scale::Quick).iter().map(|t| t.render()).collect();
        let b: Vec<String> = run(Scale::Quick).iter().map(|t| t.render()).collect();
        assert_eq!(a, b, "same seed, same tables");
    }
}
