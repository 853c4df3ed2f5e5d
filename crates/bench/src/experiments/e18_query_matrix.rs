//! E18 — query-matrix structural passes: linear releases and trackers the
//! pairwise lints cannot see.
//!
//! E16 showed the *pairwise* shapes (differencing, density). This
//! experiment exercises the query-matrix abstraction of `so_analyze`: each
//! workload is lowered to an abstract 0/1 matrix over atom-partition cells
//! (no data access) and three structural passes run over it — `SO-LINREC`
//! (full structural rank over a partition with a narrow cell, the KRS
//! linear-reconstruction feasibility criterion), `SO-TRACKER` (a chain of
//! admitted differences reaching a narrow region), and `SO-COVER` (a narrow
//! cell in the rational row span of the exact releases). The first table
//! lints four attack batteries that are pairwise-blind to varying degrees
//! alongside honest exact and DP cross-tabs; the second table runs the
//! batteries through a gatekeeper-mode engine and shows the refusal code,
//! the offending indices, and the structured evidence that lands in the
//! audit trail.
//!
//! The cycle release is the star: adjacent-pair masks `{i, i+1 mod n}` for
//! odd `n` have no nested pair (popcount bucketing examines zero pairs), no
//! cell-level containment (no tracker chain), and GF(2) rank only `n − 1` —
//! yet their rational rank is `n`, so the released answers determine every
//! singleton cell count. Only the rational-rank fallback of `SO-LINREC`
//! (and the row-span witness of `SO-COVER`) can refuse it.

use so_analyze::{
    lint_workload, IncrementalGate, LintConfig, LintId, LintReport, Noise, WorkloadSpec,
};
use so_data::{Value, VersionedDataset};
use so_plan::ir::Atom;
use so_query::predicate::{AllRowPredicate, RowPredicate, ValueEqualsPredicate};
use so_query::query::SubsetQuery;
use so_query::CountingEngine;

use crate::models::crosstab_dataset;
use crate::table::Table;
use crate::Scale;

/// The cycle release: every adjacent-pair subset `{i, (i+1) mod n}` for odd
/// `n`. Full rational rank over the `n` singleton cells, but GF(2) rank
/// `n − 1` and no containment anywhere — invisible to every pairwise pass.
pub fn cycle_release_spec(n: usize, noise: Noise) -> WorkloadSpec {
    assert!(n % 2 == 1, "the cycle is full-rank only for odd n");
    let mut w = WorkloadSpec::new(n);
    for i in 0..n {
        w.push_subset(&SubsetQuery::from_indices(n, &[i, (i + 1) % n]), noise);
    }
    w
}

/// The classic complement tracker: the population total plus every
/// complement-of-one (fires `SO-DIFF` too — kept as the baseline battery).
pub fn complement_tracker_spec(n: usize, noise: Noise) -> WorkloadSpec {
    let mut w = WorkloadSpec::new(n);
    w.push_subset(
        &SubsetQuery::from_indices(n, &(0..n).collect::<Vec<_>>()),
        noise,
    );
    for i in 0..n {
        let others: Vec<usize> = (0..n).filter(|&j| j != i).collect();
        w.push_subset(&SubsetQuery::from_indices(n, &others), noise);
    }
    w
}

/// The predicate tracker trio: `Q0` = a 2-bit prefix (design weight ¼),
/// `Q1` = a keyed-hash residue (weight 1/32), `Q2 = Q0 ∨ Q1`. No conjunct
/// refinement exists, so `SO-DIFF` is blind; the chain
/// `Q1 − (Q2 − Q0) = count(prefix ∧ hash)` pins ≤ `n/128` expected rows.
pub fn pred_tracker_trio(n: usize, noise: Noise) -> WorkloadSpec {
    let mut w = WorkloadSpec::new(n);
    let prefix = {
        let pool = w.pool_mut();
        let b0 = pool.atom(Atom::BitExtract {
            bit: 0,
            value: true,
        });
        let b1 = pool.atom(Atom::BitExtract {
            bit: 1,
            value: false,
        });
        pool.and([b0, b1])
    };
    let hash = w.pool_mut().atom(Atom::KeyedHash {
        key: 0xFEED,
        modulus: 32,
        target: 7,
    });
    let union = w.pool_mut().or([prefix, hash]);
    w.push_expr(prefix, noise);
    w.push_expr(hash, noise);
    w.push_expr(union, noise);
    w
}

/// The overlap cover: subsets `{0,1}`, `{1,2}`, `{0,2}`. No containment, no
/// chain — but `e₀ = ½(Q0 − Q1 + Q2)`, a rational combination only
/// `SO-COVER` reports.
pub fn overlap_cover_spec(n: usize, noise: Noise) -> WorkloadSpec {
    let mut w = WorkloadSpec::new(n);
    for idx in [[0usize, 1], [1, 2], [0, 2]] {
        w.push_subset(&SubsetQuery::from_indices(n, &idx), noise);
    }
    w
}

/// An honest statistical workload: department counts plus department × sex
/// drill-downs (a textbook cross-tab) at the given release noise.
pub fn honest_crosstab_spec(n_rows: usize, noise: Noise) -> WorkloadSpec {
    let mut w = WorkloadSpec::new(n_rows);
    for p in honest_crosstab_preds() {
        w.push_predicate(p.as_ref(), noise);
    }
    w
}

fn honest_crosstab_preds() -> Vec<Box<dyn RowPredicate>> {
    let mut preds: Vec<Box<dyn RowPredicate>> = Vec::new();
    for dept in 0..5i64 {
        preds.push(Box::new(ValueEqualsPredicate {
            col: 0,
            value: Value::Int(dept),
        }));
        for sex in 0..2i64 {
            preds.push(Box::new(AllRowPredicate {
                parts: vec![
                    Box::new(ValueEqualsPredicate {
                        col: 0,
                        value: Value::Int(dept),
                    }),
                    Box::new(ValueEqualsPredicate {
                        col: 1,
                        value: Value::Int(sex),
                    }),
                ],
            }));
        }
    }
    preds
}

fn lint_row(t: &mut Table, label: &str, w: &mut WorkloadSpec, cfg: &LintConfig) -> LintReport {
    let r = lint_workload(w, cfg);
    let (rank, cells) = r
        .findings_for(LintId::LinearReconstruction)
        .first()
        .and_then(|f| f.evidence.as_ref())
        .map_or(("-".to_owned(), "-".to_owned()), |ev| {
            (
                ev.rank.map_or("-".to_owned(), |r| r.to_string()),
                ev.cells.map_or("-".to_owned(), |c| c.to_string()),
            )
        });
    t.row(vec![
        label.to_owned(),
        w.n_rows().to_string(),
        w.len().to_string(),
        r.count(LintId::Differencing).to_string(),
        r.count(LintId::LinearReconstruction).to_string(),
        r.count(LintId::TrackerChain).to_string(),
        r.count(LintId::CellCover).to_string(),
        rank,
        cells,
        r.verdict().to_owned(),
    ]);
    r
}

/// Compact, comma-free rendering of a finding's evidence for the gate
/// table (the full payload is in the audit trail).
fn evidence_summary(r: &LintReport) -> String {
    let Some(f) = r.findings.iter().find(|f| f.evidence.is_some()) else {
        return "-".to_owned();
    };
    let ev = f.evidence.as_ref().expect("checked");
    let mut parts: Vec<String> = Vec::new();
    if let (Some(rank), Some(cells)) = (ev.rank, ev.cells) {
        parts.push(format!("rank={rank}/{cells}"));
    }
    if !ev.chain.is_empty() {
        let idx: Vec<String> = ev.chain.iter().map(usize::to_string).collect();
        parts.push(format!("chain={}", idx.join("+")));
    }
    if let Some(w) = ev.width_hi {
        parts.push(format!("width≤{w:.2}"));
    }
    parts.join(" ")
}

/// Runs E18.
pub fn run(scale: Scale) -> Vec<Table> {
    let cfg = LintConfig::default();
    let n_cyc = scale.pick(7usize, 11);
    let n_cmp = scale.pick(6usize, 10);

    let mut t = Table::new(
        "E18: query-matrix passes — structural rank, tracker chains, cell covers (t = 1)",
        &[
            "workload",
            "n",
            "queries",
            LintId::Differencing.code(),
            LintId::LinearReconstruction.code(),
            LintId::TrackerChain.code(),
            LintId::CellCover.code(),
            "rank",
            "cells",
            "verdict",
        ],
    );
    lint_row(
        &mut t,
        "cycle release / exact",
        &mut cycle_release_spec(n_cyc, Noise::Exact),
        &cfg,
    );
    lint_row(
        &mut t,
        "cycle release / DP eps=0.5",
        &mut cycle_release_spec(n_cyc, Noise::PureDp { epsilon: 0.5 }),
        &cfg,
    );
    lint_row(
        &mut t,
        "complement tracker / exact",
        &mut complement_tracker_spec(n_cmp, Noise::Exact),
        &cfg,
    );
    lint_row(
        &mut t,
        "complement tracker / alpha=1",
        &mut complement_tracker_spec(n_cmp, Noise::Bounded { alpha: 1.0 }),
        &cfg,
    );
    lint_row(
        &mut t,
        "pred tracker trio / exact",
        &mut pred_tracker_trio(100, Noise::Exact),
        &cfg,
    );
    lint_row(
        &mut t,
        "overlap cover / exact",
        &mut overlap_cover_spec(10, Noise::Exact),
        &cfg,
    );
    lint_row(
        &mut t,
        "honest cross-tab / exact",
        &mut honest_crosstab_spec(500, Noise::Exact),
        &cfg,
    );
    lint_row(
        &mut t,
        "honest cross-tab / DP eps=0.1",
        &mut honest_crosstab_spec(500, Noise::PureDp { epsilon: 0.1 }),
        &cfg,
    );

    // Gatekeeper mode: the batteries behind a gated engine. The refusal
    // trail gets one entry per offending index, prefixed with the vetoing
    // code and carrying the finding's evidence payload.
    let data = crosstab_dataset(scale.pick(200, 1000));
    let mut t2 = Table::new(
        "E18b: gatekeeper refusals carry the evidence — code, indices, rank/chain/width",
        &[
            "workload",
            "gate",
            "code",
            "offending",
            "answered",
            "refused",
            "evidence",
        ],
    );
    let runs: Vec<(&str, WorkloadSpec)> = vec![
        (
            "cycle release / exact",
            cycle_release_spec(n_cyc, Noise::Exact),
        ),
        // n = 100 keeps the trio's derived region under t = 1 expected rows.
        (
            "pred tracker trio / exact",
            pred_tracker_trio(100, Noise::Exact),
        ),
        (
            "overlap cover / exact",
            overlap_cover_spec(data.n_rows(), Noise::Exact),
        ),
        (
            "honest cross-tab / exact",
            honest_crosstab_spec(data.n_rows(), Noise::Exact),
        ),
    ];
    for (label, w) in runs {
        // Subset workloads carry their own n; the engine only executes
        // admitted (predicate) workloads, so the dataset arity is safe.
        let engine = CountingEngine::new(VersionedDataset::new(data.clone()), None);
        let mut gated = IncrementalGate::new(engine, cfg.clone());
        let _ = gated.execute(w);
        let report = gated.report().expect("a workload ran");
        let code = report
            .findings
            .iter()
            .find(|f| f.severity == so_analyze::Severity::Deny)
            .map_or("-".to_owned(), |f| f.lint.code().to_owned());
        let offending: std::collections::BTreeSet<usize> = report
            .findings
            .iter()
            .filter(|f| f.severity == so_analyze::Severity::Deny)
            .flat_map(|f| f.queries.iter().copied())
            .collect();
        let idx: Vec<String> = offending.iter().map(usize::to_string).collect();
        t2.row(vec![
            label.to_owned(),
            if report.denies() { "closed" } else { "open" }.to_owned(),
            code,
            if idx.is_empty() {
                "-".to_owned()
            } else {
                idx.join("+")
            },
            gated.engine().auditor().queries_answered().to_string(),
            gated.engine().auditor().queries_refused().to_string(),
            evidence_summary(report),
        ]);
    }
    vec![t, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batteries_and_honest_workloads_get_the_expected_codes() {
        let cfg = LintConfig::default();
        // Cycle release: pairwise-blind, caught by the rational-rank
        // fallback and the span witness.
        let r = lint_workload(&mut cycle_release_spec(7, Noise::Exact), &cfg);
        assert_eq!(r.pairs_examined, 0, "no popcount gap anywhere");
        assert_eq!(r.count(LintId::Differencing), 0);
        assert_eq!(r.count(LintId::TrackerChain), 0, "{:?}", r.findings);
        assert_eq!(r.count(LintId::LinearReconstruction), 1);
        assert!(r.count(LintId::CellCover) >= 1);
        let ev = r.findings_for(LintId::LinearReconstruction)[0]
            .evidence
            .as_ref()
            .expect("evidence");
        assert_eq!(ev.rank, Some(7), "rational rank is full");
        assert_eq!(ev.cells, Some(7));
        // Tracker trio: only the chain passes see it.
        let r = lint_workload(&mut pred_tracker_trio(100, Noise::Exact), &cfg);
        assert_eq!(r.count(LintId::Differencing), 0);
        assert!(r.count(LintId::TrackerChain) >= 1, "{:?}", r.findings);
        // Honest cross-tabs pass at any noise level.
        for noise in [Noise::Exact, Noise::PureDp { epsilon: 0.1 }] {
            let r = lint_workload(&mut honest_crosstab_spec(500, noise), &cfg);
            assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
        }
        // DP silences the batteries.
        let r = lint_workload(
            &mut cycle_release_spec(7, Noise::PureDp { epsilon: 0.5 }),
            &cfg,
        );
        assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
    }

    #[test]
    fn quick_run_verdicts_and_gate_codes() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        let rows: Vec<Vec<String>> = tables[0]
            .to_csv()
            .lines()
            .skip(2)
            .map(|l| l.split(',').map(str::to_owned).collect())
            .collect();
        let verdict = |label: &str| -> String {
            let row = rows
                .iter()
                .find(|r| r[0].starts_with(label))
                .unwrap_or_else(|| panic!("row {label}"));
            row[row.len() - 1].clone()
        };
        assert_eq!(verdict("cycle release / exact"), "REFUSE");
        assert_eq!(verdict("cycle release / DP"), "PASS");
        assert_eq!(verdict("complement tracker / exact"), "REFUSE");
        assert_eq!(verdict("complement tracker / alpha"), "REFUSE");
        assert_eq!(verdict("pred tracker trio"), "REFUSE");
        assert_eq!(verdict("overlap cover"), "REFUSE");
        assert_eq!(verdict("honest cross-tab / exact"), "PASS");
        assert_eq!(verdict("honest cross-tab / DP"), "PASS");

        // Gate table: each new code is the primary refusal code somewhere,
        // honest workloads flow through, refused batteries answer nothing.
        let g: Vec<Vec<String>> = tables[1]
            .to_csv()
            .lines()
            .skip(2)
            .map(|l| l.split(',').map(str::to_owned).collect())
            .collect();
        assert_eq!(g[0][1], "closed");
        assert_eq!(g[0][2], LintId::LinearReconstruction.code());
        assert_eq!(g[0][4], "0", "refused battery answers nothing");
        assert_eq!(g[1][2], LintId::TrackerChain.code());
        assert_eq!(g[2][2], LintId::CellCover.code());
        assert_eq!(g[2][3], "0+1+2", "exact offending indices");
        assert_eq!(g[3][1], "open");
        assert_eq!(g[3][4], "15", "honest cross-tab fully answered");
        assert!(g[0][6].contains("rank=7/7"), "evidence: {}", g[0][6]);
    }
}
