//! E20 — linear program reconstruction against a *production-style* query
//! API (Cohen–Nissim, "Linear Program Reconstruction in Practice"): the
//! attack of E2 re-run with the attacker on the wrong side of a socket. A
//! multi-tenant [`so_serve`] instance is booted on the loopback interface
//! and the [`so_serve::lp_attack`] client speaks the length-prefixed wire
//! protocol to it — declaring the Dinur–Nissim density-½ subset workload,
//! submitting it as a remote query batch, and LP-decoding whatever the
//! service chooses to release. Against the ungated tenant the decoded
//! secret matches ≥95 % of rows; against the gated tenants the same
//! workload is refused at the service edge with citable `SO-LINREC` /
//! `SO-RECON` / `SO-CBUDGET` evidence, and the continual accountant meters
//! the only releases that do go out.
//!
//! Determinism: the server runs with `tick_per_request` logical time (no
//! wall clock anywhere in the serving path), client sessions are strictly
//! sequential, every RNG is seeded, and the ephemeral port never appears in
//! the output — so the rendered tables are byte-identical across
//! `SO_THREADS` and tracing. CI replays this
//! experiment under every configuration axis and diffs the output against
//! the checked-in `experiments/e20_transcript.txt` artifact.

use so_data::rng::{derive_seed, seeded_rng};
use so_plan::workload::Noise;
use so_recon::reconstruction_accuracy;
use so_serve::{
    lp_attack, serve_metrics, serve_refusals, spawn, AttackOutcome, Response, ServerConfig,
    ServiceClient, TenantConfig,
};

use crate::{Scale, Table};

/// Master seed for every E20 stream (tenants and attack generators draw
/// derived streams, so stages never perturb each other).
const MASTER_SEED: u64 = 0xE20;

/// Renders the noise annotation the attacker declares.
fn noise_label(noise: Noise) -> String {
    match noise {
        Noise::Exact => "exact".to_owned(),
        Noise::Bounded { alpha } => format!("bounded α={alpha:.2}"),
        Noise::PureDp { epsilon } => format!("ε={epsilon:.4}/query"),
    }
}

/// Truncates an audit record for the transcript (deterministically).
fn clip(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_owned()
    } else {
        let head: String = s.chars().take(max).collect();
        format!("{head}…")
    }
}

/// One remote attack stage: fresh session, `hello`, the full LP workload,
/// then a row for the table. Accuracy is scored server-side against the
/// tenant's secret column — the attacker itself never sees it.
#[allow(clippy::too_many_arguments)]
fn attack_row(
    server: &so_serve::ServerHandle,
    tenant: &str,
    gate_label: &str,
    n: usize,
    m: usize,
    noise: Noise,
    stream: u64,
    target: f64,
) -> Vec<String> {
    let mut rng = seeded_rng(derive_seed(MASTER_SEED, stream));
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");
    client.hello(tenant).expect("hello");
    let outcome = lp_attack(&mut client, n, m, noise, &mut rng).expect("attack ran");
    match outcome {
        AttackOutcome::Reconstructed { reconstruction, .. } => {
            let accuracy = server
                .with_tenant(tenant, |t| {
                    reconstruction_accuracy(t.secret(), &reconstruction)
                })
                .expect("tenant exists");
            let verdict = if accuracy >= target {
                "reconstructed — breach"
            } else if accuracy >= 0.75 {
                "partial reconstruction"
            } else {
                "decode defeated"
            };
            Vec::from([
                tenant.to_owned(),
                gate_label.to_owned(),
                noise_label(noise),
                m.to_string(),
                "answered".to_owned(),
                format!("{accuracy:.3}"),
                verdict.to_owned(),
            ])
        }
        AttackOutcome::Refused {
            codes, refusals, ..
        } => Vec::from([
            tenant.to_owned(),
            gate_label.to_owned(),
            noise_label(noise),
            m.to_string(),
            format!("refused ({refusals} refusals)"),
            "—".to_owned(),
            format!("defense held [{}]", codes.join(", ")),
        ]),
    }
}

/// The session tenant's budget state as a table row.
fn budget_row(server: &so_serve::ServerHandle, tenant: &str, stage: &str) -> Vec<String> {
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");
    client.hello(tenant).expect("hello");
    match client.budget().expect("budget") {
        Response::BudgetState {
            accounting,
            spent,
            remaining,
            version,
        } => Vec::from([
            stage.to_owned(),
            if accounting { "continual" } else { "none" }.to_owned(),
            format!("{spent:.4}"),
            format!("{remaining:.4}"),
            format!("v{version}"),
        ]),
        other => panic!("unexpected budget response: {other:?}"),
    }
}

/// Runs E20 at `scale` and renders the tables.
pub fn run(scale: Scale) -> Vec<Table> {
    let n = scale.pick(24, 48);
    let m = 4 * n;
    let alpha = (n as f64).sqrt() / 2.0;
    let budget = 1.0;
    // Per-query ε that fits the continual budget at either scale …
    let eps_fit = budget * 0.75 / m as f64;
    // … and one that blows through it.
    let eps_over = 0.05;

    // Counter deltas, not absolutes: the registry is process-global and
    // `run_all` executes every experiment in one process.
    let sm = serve_metrics();
    let base = [
        sm.sessions.get(),
        sm.requests.get(),
        sm.workloads_answered.get(),
        sm.workloads_refused.get(),
        sm.rate_limited.get(),
        sm.proto_errors.get(),
    ];
    let refusal_base = [
        serve_refusals("SO-LINREC").get(),
        serve_refusals("SO-RECON").get(),
        serve_refusals("SO-CBUDGET").get(),
    ];

    let tenants = Vec::from([
        TenantConfig::ungated("open", n, derive_seed(MASTER_SEED, 10)),
        TenantConfig::gated("guarded", n, derive_seed(MASTER_SEED, 11)),
        TenantConfig::gated("metered", n, derive_seed(MASTER_SEED, 12))
            .with_continual_budget(budget),
        TenantConfig::ungated("burst", n, derive_seed(MASTER_SEED, 13)).with_rate(3, 5),
    ]);
    let server = spawn(tenants, ServerConfig::default(), None).expect("server boots");

    // ---- E20.1: the remote LP attack, tenant by tenant -------------------
    let mut attacks = Table::new(
        &format!("E20.1 remote LP reconstruction over the wire (n = {n} rows, m = {m} queries)"),
        &[
            "tenant", "gate", "noise", "m", "service", "accuracy", "verdict",
        ],
    );
    let stages: [(&str, &str, Noise, u64); 7] = [
        ("open", "none", Noise::Exact, 20),
        ("open", "none", Noise::Bounded { alpha }, 21),
        ("open", "none", Noise::PureDp { epsilon: eps_fit }, 22),
        ("guarded", "lint", Noise::Exact, 23),
        ("metered", "lint+ε", Noise::Exact, 24),
        ("metered", "lint+ε", Noise::PureDp { epsilon: eps_over }, 25),
        ("metered", "lint+ε", Noise::PureDp { epsilon: eps_fit }, 26),
    ];
    for (tenant, gate, noise, stream) in stages {
        attacks.row(attack_row(&server, tenant, gate, n, m, noise, stream, 0.95));
    }

    // ---- E20.2: the audit trail the gated tenant kept --------------------
    let mut audit = Table::new(
        "E20.2 service-edge audit trail (guarded tenant)",
        &["entry", "audit record"],
    );
    server
        .with_tenant("guarded", |t| {
            let log: Vec<&str> = t
                .auditor()
                .trail()
                .map(|r| r.description.as_str())
                .collect();
            let total = log.len();
            let mut rows: Vec<(String, String)> = Vec::new();
            if let Some(first) = log.first() {
                rows.push(("first".to_owned(), clip(first, 96)));
            }
            if let Some(recon) = log.iter().find(|e| e.contains("SO-RECON")) {
                rows.push(("workload-level".to_owned(), clip(recon, 96)));
            }
            rows.push(("entries kept".to_owned(), total.to_string()));
            rows
        })
        .expect("tenant exists")
        .into_iter()
        .for_each(|(k, v)| {
            audit.row(Vec::from([k, v]));
        });

    // ---- E20.3: continual accounting on the metered tenant ---------------
    let mut budgets = Table::new(
        "E20.3 continual-release accounting (metered tenant, ε budget = 1.0)",
        &["stage", "accounting", "ε spent", "ε remaining", "version"],
    );
    budgets.row(budget_row(&server, "metered", "after the episode"));
    budgets.row(budget_row(&server, "open", "open tenant (control)"));

    // ---- E20.4: deterministic rate limiting ------------------------------
    let mut rate = Table::new(
        "E20.4 token-bucket rate limiting (burst tenant: capacity 3, +1 token / 5 ticks)",
        &["request", "op", "outcome"],
    );
    {
        let mut client = ServiceClient::connect(server.local_addr()).expect("connect");
        client.hello("burst").expect("hello");
        let mut seq = 0usize;
        let mut retry_hint = 0u64;
        for _ in 0..6 {
            seq += 1;
            match client.budget().expect("call") {
                Response::BudgetState { .. } => {
                    rate.row(Vec::from([
                        format!("#{seq}"),
                        "budget".to_owned(),
                        "admitted".to_owned(),
                    ]));
                }
                Response::Error {
                    code,
                    retry_after_ticks,
                    ..
                } => {
                    retry_hint = retry_after_ticks.unwrap_or(0);
                    rate.row(Vec::from([
                        format!("#{seq}"),
                        "budget".to_owned(),
                        format!("{code}, retry after {retry_hint} ticks"),
                    ]));
                    break;
                }
                other => panic!("unexpected rate response: {other:?}"),
            }
        }
        // Honest retry-after: pings advance the logical clock without
        // touching the bucket; after `retry_hint` of them the next budget
        // request must be admitted.
        for _ in 0..retry_hint {
            client.ping().expect("ping");
        }
        seq += 1;
        let outcome = match client.budget().expect("call") {
            Response::BudgetState { .. } => format!("admitted after {retry_hint} ticks"),
            Response::Error { code, .. } => format!("{code} (retry hint was dishonest)"),
            other => panic!("unexpected rate response: {other:?}"),
        };
        rate.row(Vec::from([format!("#{seq}"), "budget".to_owned(), outcome]));
    }

    // ---- E20.5: what the live registry saw -------------------------------
    let mut counters = Table::new(
        "E20.5 service counters for the episode (deltas from the live registry)",
        &["metric", "count"],
    );
    let now = [
        sm.sessions.get(),
        sm.requests.get(),
        sm.workloads_answered.get(),
        sm.workloads_refused.get(),
        sm.rate_limited.get(),
        sm.proto_errors.get(),
    ];
    let refusal_now = [
        serve_refusals("SO-LINREC").get(),
        serve_refusals("SO-RECON").get(),
        serve_refusals("SO-CBUDGET").get(),
    ];
    let names = [
        "so_serve_sessions_total",
        "so_serve_requests_total",
        "so_serve_workloads_answered_total",
        "so_serve_workloads_refused_total",
        "so_serve_rate_limited_total",
        "so_serve_proto_errors_total",
    ];
    for (i, name) in names.iter().enumerate() {
        counters.row(Vec::from([
            (*name).to_owned(),
            (now[i] - base[i]).to_string(),
        ]));
    }
    for (i, code) in ["SO-LINREC", "SO-RECON", "SO-CBUDGET"].iter().enumerate() {
        counters.row(Vec::from([
            format!("so_serve_query_refusals_total{{code={code}}}"),
            (refusal_now[i] - refusal_base[i]).to_string(),
        ]));
    }

    server.shutdown();
    Vec::from([attacks, audit, budgets, rate, counters])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e20_reconstructs_open_and_is_refused_gated() {
        let tables = run(Scale::Quick);
        let rendered: Vec<String> = tables.iter().map(|t| t.render()).collect();
        let attacks = &rendered[0];
        assert!(attacks.contains("reconstructed — breach"));
        assert!(attacks.contains("SO-RECON"));
        assert!(attacks.contains("SO-CBUDGET"));
        assert!(rendered[1].contains("SO-RECON"));
        assert!(rendered[3].contains("SO-RATE"));
    }

    #[test]
    fn e20_transcript_is_reproducible() {
        let a: Vec<String> = run(Scale::Quick).iter().map(|t| t.render()).collect();
        let b: Vec<String> = run(Scale::Quick).iter().map(|t| t.render()).collect();
        assert_eq!(a, b, "same seed, same tables");
    }
}
