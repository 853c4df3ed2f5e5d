//! Differential test of the one admission path: the same workloads through
//! the in-process gate (`IncrementalGate`) and through a gated tenant over a
//! real socket must refuse with identical codes, indices and evidence, and
//! leave identical audit lines. The gate runs over a one-segment dataset
//! (the tenant's shape) and over a mutated one of three segments with
//! tombstones and the same live row count.
//!
//! The in-process gate reports refusals only as audit lines. A line
//! `[gate: CODE] query #i: <query> [evidence]` spells out all three fields,
//! so the wire refusals rendered with `Refusal::audit_line` must equal the
//! in-process lines, and the tenant's own trail must hold the same lines.

use rand::Rng;

use so_analyze::{IncrementalGate, LintConfig, Refusal};
use so_data::rng::seeded_rng;
use so_data::{
    AttributeDef, AttributeRole, DataType, Dataset, DatasetBuilder, Schema, Value, VersionedDataset,
};
use so_dp::ContinualAccountant;
use so_plan::shape::PredShape;
use so_plan::workload::{Noise, WorkloadSpec};
use so_query::audit::QueryAuditor;
use so_query::engine::{CountingEngine, WorkloadAnswer};
use so_serve::{Response, ServerConfig, ServerHandle, ServiceClient, TenantConfig, WireQuery};

/// Odd, so the cycle release over every row has full rational rank.
const N: usize = 25;
const BUDGET: f64 = 1.0;

fn dataset() -> Dataset {
    let schema = Schema::new(vec![AttributeDef::new(
        "age",
        DataType::Int,
        AttributeRole::QuasiIdentifier,
    )]);
    let mut b = DatasetBuilder::new(schema);
    for i in 0..N {
        b.push_row(vec![Value::Int((i * 7 % 90) as i64)]);
    }
    b.finish()
}

/// A gate over [`dataset`]: as built (one segment, version 0), or
/// `mutated` — two delta segments inserted and then tombstoned again, so
/// the same `N` live rows sit in three segments at version 3.
fn gate(accountant: Option<ContinualAccountant>, mutated: bool) -> IncrementalGate {
    let mut engine = CountingEngine::new(
        VersionedDataset::with_compact_threshold(dataset(), 1_000_000),
        None,
    );
    if mutated {
        let extra = so_data::DELTA_SEGMENT_ROWS + 3;
        let rows: Vec<Vec<Value>> = (0..extra)
            .map(|i| vec![Value::Int((i % 90) as i64)])
            .collect();
        engine.insert_rows(&rows[..so_data::DELTA_SEGMENT_ROWS]);
        engine.insert_rows(&rows[so_data::DELTA_SEGMENT_ROWS..]);
        engine.delete_live(&(N..N + extra).collect::<Vec<_>>());
        let data = engine.dataset();
        assert_eq!(
            (data.n_segments(), data.n_live(), data.version()),
            (3, N, 3)
        );
    }
    match accountant {
        Some(a) => IncrementalGate::with_accountant(engine, LintConfig::default(), a),
        None => IncrementalGate::new(engine, LintConfig::default()),
    }
}

/// The spec a tenant builds from the same wire queries.
fn spec(queries: &[WireQuery], noise: Noise) -> WorkloadSpec {
    let mut w = WorkloadSpec::new(N);
    for q in queries {
        match q {
            WireQuery::Subset(_) => {
                w.push_subset(&q.to_subset(N).unwrap().unwrap(), noise);
            }
            WireQuery::IntRange { col, lo, hi } => {
                w.push_shape(
                    &PredShape::IntRange {
                        col: *col,
                        lo: *lo,
                        hi: *hi,
                    },
                    noise,
                );
            }
            WireQuery::ValueEq { col, value } => {
                w.push_shape(
                    &PredShape::ValueEquals {
                        col: *col,
                        value: Value::Int(*value),
                    },
                    noise,
                );
            }
        }
    }
    w
}

/// Trail lines `auditor` recorded after the first `skip`.
fn lines_after(auditor: &QueryAuditor, skip: usize) -> Vec<String> {
    auditor
        .trail()
        .skip(skip)
        .map(|r| r.description.clone())
        .collect()
}

/// One workload over the wire: the refusals the client decoded and the
/// audit lines the tenant recorded for them.
fn over_the_wire(
    server: &ServerHandle,
    client: &mut ServiceClient,
    tenant: &str,
    queries: &[WireQuery],
    noise: Noise,
) -> (Vec<Refusal>, Vec<String>) {
    let before = server
        .with_tenant(tenant, |t| t.auditor().trail_len())
        .unwrap();
    let refusals = match client.workload(queries.to_vec(), noise).unwrap() {
        Response::Refused {
            refusals,
            queries: declared,
        } => {
            assert_eq!(declared, queries.len(), "declared count echoed");
            refusals
        }
        other => panic!("{tenant}: expected a refusal, got {other:?}"),
    };
    let lines = server
        .with_tenant(tenant, |t| lines_after(t.auditor(), before))
        .unwrap();
    (refusals, lines)
}

/// Asserts every surface agrees, and returns the wire refusals.
fn assert_parity(
    label: &str,
    spec: &WorkloadSpec,
    wire: (Vec<Refusal>, Vec<String>),
    in_process: &[(&str, Vec<String>)],
) -> Vec<Refusal> {
    let (refusals, server_lines) = wire;
    assert!(!refusals.is_empty(), "{label}: refused");
    let rendered: Vec<String> = refusals.iter().map(|r| r.audit_line(spec)).collect();
    assert_eq!(rendered, server_lines, "{label}: wire vs tenant trail");
    for (gate, lines) in in_process {
        assert_eq!(&rendered, lines, "{label}: wire vs {gate}");
    }
    refusals
}

/// Runs `queries` through `gate`, which must refuse every one, and
/// returns the audit lines the refusal left.
fn refused_lines(gate: &mut IncrementalGate, queries: &[WireQuery], noise: Noise) -> Vec<String> {
    let before = gate.engine().auditor().trail_len();
    let out = gate.execute(spec(queries, noise));
    assert!(out.answers.iter().all(|a| *a == WorkloadAnswer::Refused));
    lines_after(gate.engine().auditor(), before)
}

/// Runs a lint battery through both gates and the gated tenant.
fn lint_battery(
    server: &ServerHandle,
    client: &mut ServiceClient,
    gates: &mut [IncrementalGate; 2],
    label: &str,
    queries: &[WireQuery],
    noise: Noise,
) -> Vec<Refusal> {
    let w = spec(queries, noise);
    let [one_segment, mutated] = gates;
    let one_segment = refused_lines(one_segment, queries, noise);
    let mutated = refused_lines(mutated, queries, noise);
    let wire = over_the_wire(server, client, "guarded", queries, noise);
    assert_parity(
        label,
        &w,
        wire,
        &[("one-segment gate", one_segment), ("mutated gate", mutated)],
    )
}

fn codes(refusals: &[Refusal]) -> Vec<&str> {
    let mut c: Vec<&str> = refusals.iter().map(|r| r.code.as_str()).collect();
    c.sort_unstable();
    c.dedup();
    c
}

#[test]
fn wire_and_in_process_refusals_are_identical() {
    let server = so_serve::spawn(
        vec![
            TenantConfig::gated("guarded", N, 7),
            TenantConfig::gated("metered", N, 7).with_continual_budget(BUDGET),
        ],
        ServerConfig::default(),
        None,
    )
    .expect("bind loopback");
    let mut client = ServiceClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.hello("guarded").unwrap(), (true, N));
    let mut gates = [gate(None, false), gate(None, true)];

    // The tracker pair: the population and the population minus one row.
    let tracker = [
        WireQuery::Subset((0..N).collect()),
        WireQuery::Subset((0..N).filter(|&i| i != 5).collect()),
    ];
    let r = lint_battery(
        &server,
        &mut client,
        &mut gates,
        "tracker pair",
        &tracker,
        Noise::Exact,
    );
    assert!(codes(&r).contains(&"SO-DIFF"), "{r:?}");
    let idx: Vec<Option<usize>> = r.iter().map(|r| r.query).collect();
    assert_eq!(idx, vec![Some(0), Some(1)]);

    // The odd-cycle release: full rational rank, no containment anywhere.
    let cycle: Vec<WireQuery> = (0..N)
        .map(|i| WireQuery::Subset(vec![i, (i + 1) % N]))
        .collect();
    let r = lint_battery(
        &server,
        &mut client,
        &mut gates,
        "odd cycle",
        &cycle,
        Noise::Exact,
    );
    assert!(codes(&r).contains(&"SO-LINREC"), "{r:?}");

    // A density-½ LP battery: SO-RECON refuses it at workload level.
    let mut rng = seeded_rng(11);
    let battery: Vec<WireQuery> = (0..4 * N)
        .map(|_| WireQuery::Subset((0..N).filter(|_| rng.gen::<bool>()).collect()))
        .collect();
    let r = lint_battery(
        &server,
        &mut client,
        &mut gates,
        "density-1/2 battery",
        &battery,
        Noise::Exact,
    );
    let recon = r.iter().find(|r| r.code == "SO-RECON").expect("SO-RECON");
    assert_eq!(recon.query, None, "workload-level");
    assert_eq!(r.last(), Some(recon), "workload-level entries come last");

    // Continual accounting: the metered tenant against gates with the same
    // budget. The over-budget evidence names the version decided at, which
    // is v3 on the mutated gate.
    assert_eq!(client.hello("metered").unwrap(), (true, N));
    let mut metered = gate(Some(ContinualAccountant::new(BUDGET)), false);
    let mut mutated = gate(Some(ContinualAccountant::new(BUDGET)), true);
    let benign = [
        WireQuery::IntRange {
            col: 0,
            lo: 10,
            hi: 40,
        },
        WireQuery::ValueEq { col: 0, value: 3 },
    ];
    let mut budgeted = |label: &str, noise: Noise, mutated_evidence: &str| {
        let w = spec(&benign, noise);
        let lines = refused_lines(&mut metered, &benign, noise);
        let mutated_lines = refused_lines(&mut mutated, &benign, noise);
        let wire = over_the_wire(&server, &mut client, "metered", &benign, noise);
        let r = assert_parity(label, &w, wire, &[("one-segment gate", lines)]);
        let expected: Vec<String> = r
            .iter()
            .map(|refusal| {
                let mut at_v3 = refusal.clone();
                at_v3.evidence = mutated_evidence.to_owned();
                at_v3.audit_line(&w)
            })
            .collect();
        assert_eq!(mutated_lines, expected, "{label}: wire vs mutated gate");
        assert_eq!(codes(&r), vec!["SO-CBUDGET"]);
        assert_eq!(
            r.iter().map(|r| r.query).collect::<Vec<_>>(),
            vec![Some(0), Some(1)]
        );
        r
    };
    let non_dp = "non-DP release under continual accounting";
    let r = budgeted("exact under an accountant", Noise::Exact, non_dp);
    assert_eq!(r[0].evidence, non_dp);
    let r = budgeted(
        "over budget",
        Noise::PureDp { epsilon: 0.6 },
        "workload ε 1.2000 > remaining 1.0000 at v3",
    );
    assert_eq!(r[0].evidence, "workload ε 1.2000 > remaining 1.0000 at v0");
    assert_eq!(metered.accountant().unwrap().spent(), 0.0);
    assert_eq!(mutated.accountant().unwrap().spent(), 0.0);
    assert_eq!(
        server.with_tenant("metered", |t| t.budget().1).unwrap(),
        0.0,
        "refusals spend nothing on either side"
    );
    server.shutdown();
}
