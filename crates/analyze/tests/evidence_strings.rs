//! Pins the exact evidence text of the query-matrix findings (`SO-LINREC`,
//! `SO-TRACKER`, `SO-COVER`): the cell-region labels and the messages that
//! quote them. No checked-in transcript prints a predicate-sign cell label,
//! so these are the only guard on how a cell is rendered.

use so_analyze::matrix::{lower_predicates, Lowered, MatrixCaps, MatrixKind};
use so_analyze::{
    lint_workload, Finding, LintConfig, LintId, LintReport, Noise, QueryKind, WorkloadSpec,
};
use so_plan::ir::{Atom, ExprId, PredPool};
use so_plan::shape::PredShape;
use so_query::query::SubsetQuery;

fn region(f: &Finding) -> &str {
    f.evidence
        .as_ref()
        .and_then(|ev| ev.region.as_deref())
        .expect("matrix findings carry a region")
}

fn regions(r: &LintReport, id: LintId) -> Vec<&str> {
    r.findings_for(id).into_iter().map(region).collect()
}

/// The designed atom `bit[i] == 1` (weight ½).
fn bit(pool: &mut PredPool, i: usize) -> ExprId {
    pool.atom(Atom::BitExtract {
        bit: i,
        value: true,
    })
}

/// `bit0`, `bit1`, `bit0 ∧ bit1` and `everything`, exact, over 4 rows: four
/// sign cells of one expected row each, full rank.
fn two_bit_workload() -> WorkloadSpec {
    let mut w = WorkloadSpec::new(4);
    let exprs = {
        let pool = w.pool_mut();
        let b0 = bit(pool, 0);
        let b1 = bit(pool, 1);
        let both = pool.and([b0, b1]);
        [b0, b1, both, pool.tru()]
    };
    for e in exprs {
        w.push_expr(e, Noise::Exact);
    }
    w
}

#[test]
fn sign_cell_linrec_names_the_narrow_region_with_not_atoms() {
    let r = lint_workload(&mut two_bit_workload(), &LintConfig::default());
    let lr = r.findings_for(LintId::LinearReconstruction);
    assert_eq!(lr.len(), 1, "findings: {:?}", r.findings);
    assert_eq!(region(lr[0]), "NOT bit[0] == 1 ∧ NOT bit[1] == 1");
    assert_eq!(
        lr[0].message,
        "the 4 sufficiently-accurate queries have full structural rank 4 over the 4 disjoint \
         cells their atoms induce: the released answers determine every cell count, including \
         the region [NOT bit[0] == 1 ∧ NOT bit[1] == 1] of ≤ 1.00 expected rows — the KRS \
         linear-reconstruction feasibility criterion (arXiv:1210.2381)"
    );
}

#[test]
fn sign_cell_cover_renders_every_cited_cell() {
    let r = lint_workload(&mut two_bit_workload(), &LintConfig::default());
    assert_eq!(
        regions(&r, LintId::CellCover),
        vec![
            "NOT bit[0] == 1 ∧ NOT bit[1] == 1",
            "NOT bit[0] == 1 ∧ bit[1] == 1",
            "bit[0] == 1 ∧ NOT bit[1] == 1",
            "bit[0] == 1 ∧ bit[1] == 1",
        ]
    );
    let cv = r.findings_for(LintId::CellCover);
    assert_eq!(
        cv[3].message,
        "cell [bit[0] == 1 ∧ bit[1] == 1] (≤ 1.00 expected rows) is isolated by an admitted \
         combination: a rational combination of the exact answers to 1 query equals its count \
         — the static precursor of an online cover attack"
    );
    assert_eq!(
        regions(&r, LintId::TrackerChain),
        vec![
            "bit[0] == 1 ∧ NOT bit[1] == 1",
            "NOT bit[0] == 1 ∧ bit[1] == 1",
            "NOT bit[0] == 1 ∧ NOT bit[1] == 1",
        ]
    );
}

#[test]
fn unconstrained_sign_cell_renders_as_everything() {
    let mut w = WorkloadSpec::new(1);
    let tru = w.pool_mut().tru();
    w.push_expr(tru, Noise::Exact);
    let r = lint_workload(&mut w, &LintConfig::default());
    assert_eq!(regions(&r, LintId::CellCover), vec!["everything"]);
}

#[test]
fn tracker_region_joins_its_cells_with_union() {
    // bit0 and bit0 ∧ bit1 ∧ bit2 over 2 rows: their difference is two
    // cells (0.5 + 0.25 expected rows) that no query separates.
    let mut w = WorkloadSpec::new(2);
    let (a, b) = {
        let pool = w.pool_mut();
        let b0 = bit(pool, 0);
        let b1 = bit(pool, 1);
        let b2 = bit(pool, 2);
        (b0, pool.and([b0, b1, b2]))
    };
    w.push_expr(a, Noise::Exact);
    w.push_expr(b, Noise::Exact);
    let r = lint_workload(&mut w, &LintConfig::default());
    let tr = r.findings_for(LintId::TrackerChain);
    assert_eq!(tr.len(), 1, "findings: {:?}", r.findings);
    assert_eq!(
        region(tr[0]),
        "bit[0] == 1 ∧ NOT bit[2] == 1 ∪ bit[0] == 1 ∧ NOT bit[1] == 1 ∧ bit[2] == 1"
    );
    assert_eq!(
        tr[0].message,
        "tracker chain of 2 admitted queries: repeated differencing of their answers derives \
         the count of [bit[0] == 1 ∧ NOT bit[2] == 1 ∪ bit[0] == 1 ∧ NOT bit[1] == 1 ∧ bit[2] \
         == 1], bounded by design to ≤ 0.75 expected rows with total answer error < 0.5 — the \
         tracker composition of Theorem 2.8, generalized over the cell lattice"
    );
    assert_eq!(
        regions(&r, LintId::CellCover),
        vec!["bit[0] == 1 ∧ bit[1] == 1 ∧ bit[2] == 1"]
    );
}

#[test]
fn mask_cells_name_their_first_row_and_count() {
    let mut w = WorkloadSpec::new(10);
    for idx in [[0usize, 1], [1, 2], [0, 2]] {
        w.push_subset(&SubsetQuery::from_indices(10, &idx), Noise::Exact);
    }
    let r = lint_workload(&mut w, &LintConfig::default());
    assert_eq!(
        regions(&r, LintId::CellCover),
        vec![
            "rows≡0 (1 row(s))",
            "rows≡1 (1 row(s))",
            "rows≡2 (1 row(s))"
        ]
    );
    assert_eq!(
        r.findings_for(LintId::CellCover)[0].message,
        "cell [rows≡0 (1 row(s))] (≤ 1.00 expected rows) is isolated by an admitted \
         combination: a rational combination of the exact answers to 3 queries equals its \
         count — the static precursor of an online cover attack"
    );

    // Multi-row cells, reachable once the isolation threshold is 2.
    let mut w = WorkloadSpec::new(10);
    w.push_subset(&SubsetQuery::from_indices(10, &[0, 1, 2, 3]), Noise::Exact);
    w.push_subset(&SubsetQuery::from_indices(10, &[0, 1]), Noise::Exact);
    let cfg = LintConfig {
        isolation_threshold: 2,
        ..LintConfig::default()
    };
    let r = lint_workload(&mut w, &cfg);
    assert_eq!(
        regions(&r, LintId::CellCover),
        vec!["rows≡0 (2 row(s))", "rows≡2 (2 row(s))"]
    );
}

#[test]
fn dp_range_dashboard_lowers_to_sign_cells_without_findings() {
    // The shape of a 1M-row range dashboard: eight distinct ranges over an
    // age column at ε = 0.1. Its effective α (≈ 69) is inside the √n cut,
    // so the predicates are lowered, but no DP row can reach a finding.
    let n = 1_000_000;
    let ranges = [
        (3, 71),
        (12, 40),
        (0, 89),
        (25, 26),
        (44, 88),
        (7, 7),
        (30, 65),
        (51, 80),
    ];
    let mut w = WorkloadSpec::new(n);
    for (lo, hi) in ranges {
        w.push_shape(
            &PredShape::IntRange { col: 0, lo, hi },
            Noise::PureDp { epsilon: 0.1 },
        );
    }
    let nnf: Vec<Option<ExprId>> = w
        .queries()
        .iter()
        .map(|q| match &q.kind {
            QueryKind::Pred(id) => Some(*id),
            QueryKind::Subset(_) => None,
        })
        .collect();
    let cfg = LintConfig::default();
    let caps = MatrixCaps {
        max_cells: cfg.matrix_max_cells,
        bit_budget: cfg.matrix_bit_budget,
    };
    let alpha_cut = cfg.lp_alpha_factor * (n as f64).sqrt();
    let Lowered::Built(m) = lower_predicates(&w, &nnf, alpha_cut, caps) else {
        panic!("the ranges are inside the α cut and under the cell cap");
    };
    assert_eq!(m.kind, MatrixKind::PredicateSigns);
    assert_eq!(m.queries, (0..ranges.len()).collect::<Vec<_>>());

    let r = lint_workload(&mut w, &cfg);
    assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
    assert!(!r.truncated);
}
