//! E16 — static workload linting: attack shapes are recognizable before
//! execution.
//!
//! The `so-analyze` linter runs over *declared* workloads — no query is
//! answered. The first table lints the attack workloads of E1 (exhaustive
//! reconstruction), E2 (LP reconstruction), E6 (prefix-descent composition)
//! and the classic differencing tracker, alongside the E7 DP workload and an
//! honest cross-tab, reporting per-lint finding counts and the verdict. The
//! second table demonstrates gatekeeper mode: a `CountingEngine` behind the
//! lint verdict refuses a flagged workload before answering a single query
//! (one citable refusal per offending query index), while the honest
//! workload flows through the whole-workload planner untouched —
//! `IncrementalGate::execute` runs the identical plan the linter saw.

use so_analyze::{
    lint_workload, IncrementalGate, LintConfig, LintId, LintReport, Noise, Severity, WorkloadSpec,
};
use so_data::rng::seeded_rng;
use so_data::{Value, VersionedDataset};
use so_plan::shape::PredShape;
use so_query::predicate::{
    AllRowPredicate, IntRangePredicate, KeyedHashPredicate, NotRowPredicate, RowHashPredicate,
    RowPredicate, ValueEqualsPredicate,
};
use so_query::workload::{all_subsets_workload, random_subset_workload, tracker_workload};
use so_query::CountingEngine;

use crate::models::crosstab_dataset;
use crate::table::Table;
use crate::Scale;

/// The E1 workload: every subset of `[n]`, one answer each.
pub fn exhaustive_spec(n: usize, noise: Noise) -> WorkloadSpec {
    let mut w = WorkloadSpec::new(n);
    w.push_subsets(&all_subsets_workload(n), noise);
    w
}

/// The E2 workload: `m` random density-1/2 subsets with bounded noise `α`.
pub fn lp_spec(n: usize, m: usize, alpha: f64, seed: u64) -> WorkloadSpec {
    let mut rng = seeded_rng(seed);
    let mut w = WorkloadSpec::new(n);
    w.push_subsets(
        &random_subset_workload(n, m, 0.5, &mut rng),
        Noise::Bounded { alpha },
    );
    w
}

/// The E6 composition-attack workload: the Theorem 2.8 prefix-descent chain
/// (one count per prefix depth `0..=depth` of a target record's bits).
pub fn prefix_descent_spec(n_rows: usize, depth: usize, noise: Noise) -> WorkloadSpec {
    let bits: Vec<bool> = (0..depth).map(|i| i % 3 == 0).collect();
    let mut w = WorkloadSpec::new(n_rows);
    for d in 0..=depth {
        w.push_shape(
            &PredShape::Prefix {
                bits: bits[..d].to_vec(),
            },
            noise,
        );
    }
    w
}

/// The differencing-tracker workload: the full set, then every
/// complement-of-singleton, all exact.
pub fn tracker_spec(n: usize) -> WorkloadSpec {
    let mut w = WorkloadSpec::new(n);
    w.push_subsets(&tracker_workload(n), Noise::Exact);
    w
}

/// An honest statistical workload: department counts plus department × sex
/// drill-downs (a textbook cross-tab), exact answers.
pub fn honest_crosstab(n_rows: usize) -> (Vec<Box<dyn RowPredicate>>, WorkloadSpec) {
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
    let mut w = WorkloadSpec::new(n_rows);
    for p in &preds {
        w.push_predicate(p.as_ref(), Noise::Exact);
    }
    (preds, w)
}

/// The hash-tracker differencing pair over tabular data: `A` and
/// `A ∧ ¬H` where `H` is a keyed-hash residue of design weight `1/4096`,
/// so the exact pair isolates an expected `n/4096 < 1` rows.
pub fn hash_tracker_pair(n_rows: usize) -> (Vec<Box<dyn RowPredicate>>, WorkloadSpec) {
    let range = IntRangePredicate {
        col: 0,
        lo: 0,
        hi: 1000,
    };
    let hash = RowHashPredicate {
        hash: KeyedHashPredicate::new(0xE16, 4096, 0),
        cols: vec![0, 1],
    };
    let preds: Vec<Box<dyn RowPredicate>> = vec![
        Box::new(AllRowPredicate {
            parts: vec![Box::new(range)],
        }),
        Box::new(AllRowPredicate {
            parts: vec![
                Box::new(range),
                Box::new(NotRowPredicate {
                    inner: Box::new(hash),
                }),
            ],
        }),
    ];
    let mut w = WorkloadSpec::new(n_rows);
    for p in &preds {
        w.push_predicate(p.as_ref(), Noise::Exact);
    }
    (preds, w)
}

fn lint_row(t: &mut Table, label: &str, w: &mut WorkloadSpec, cfg: &LintConfig) -> LintReport {
    let r = lint_workload(w, cfg);
    let warns = r
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Warn)
        .count();
    t.row(vec![
        label.to_owned(),
        w.n_rows().to_string(),
        w.len().to_string(),
        r.count(LintId::Differencing).to_string(),
        r.count(LintId::ReconstructionDensity).to_string(),
        r.count(LintId::BudgetExceeded).to_string(),
        warns.to_string(),
        r.truncated.to_string(),
        r.verdict().to_owned(),
    ]);
    r
}

/// Runs E16.
pub fn run(scale: Scale) -> Vec<Table> {
    let cfg = LintConfig::default();
    let n_exh = scale.pick(8usize, 12);
    let n_lp = scale.pick(64usize, 200);
    let depth = 14usize; // ⌈2 log₂ 100⌉, the E6 negligibility threshold

    let mut t = Table::new(
        "E16: static workload lints — attack shapes flagged before execution (t = 1)",
        &[
            "workload",
            "n",
            "queries",
            LintId::Differencing.code(),
            LintId::ReconstructionDensity.code(),
            LintId::BudgetExceeded.code(),
            "warns",
            "truncated",
            "verdict",
        ],
    );
    lint_row(
        &mut t,
        "E1 exhaustive / exact",
        &mut exhaustive_spec(n_exh, Noise::Exact),
        &cfg,
    );
    lint_row(
        &mut t,
        "E1 exhaustive / alpha=n/8",
        &mut exhaustive_spec(
            n_exh,
            Noise::Bounded {
                alpha: n_exh as f64 / 8.0,
            },
        ),
        &cfg,
    );
    lint_row(
        &mut t,
        "E2 LP 4n queries / alpha~0.8sqrt(n)",
        &mut lp_spec(n_lp, 4 * n_lp, 0.8 * (n_lp as f64).sqrt(), 0xE162),
        &cfg,
    );
    lint_row(
        &mut t,
        "E6 prefix descent / exact",
        &mut prefix_descent_spec(100, depth, Noise::Exact),
        &cfg,
    );
    lint_row(&mut t, "tracker / exact", &mut tracker_spec(50), &cfg);
    lint_row(
        &mut t,
        "E7 prefix descent / DP eps=0.1",
        &mut prefix_descent_spec(100, depth, Noise::PureDp { epsilon: 0.1 }),
        &cfg,
    );
    lint_row(
        &mut t,
        "honest cross-tab / exact",
        &mut honest_crosstab(500).1,
        &cfg,
    );
    // The ε-budget precheck: the same DP descent against two gate budgets.
    // 15 queries at ε = 0.1 compose to 1.5 under basic composition.
    for budget in [1.0f64, 2.0] {
        let bcfg = LintConfig {
            epsilon_budget: Some(budget),
            ..LintConfig::default()
        };
        lint_row(
            &mut t,
            &format!("E7 DP descent / eps-budget {budget:.1}"),
            &mut prefix_descent_spec(100, depth, Noise::PureDp { epsilon: 0.1 }),
            &bcfg,
        );
    }

    // Gatekeeper mode: the lint verdict wired in front of a CountingEngine.
    let data = crosstab_dataset(scale.pick(200, 1000));
    let mut t2 = Table::new(
        "E16b: gatekeeper-mode CountingEngine — flagged workloads refused before any answer",
        &["workload", "gate", "reason", "answered", "refused"],
    );
    let runs = [
        (
            "hash tracker pair / exact",
            hash_tracker_pair(data.n_rows()).1,
        ),
        ("honest cross-tab / exact", honest_crosstab(data.n_rows()).1),
    ];
    for (label, w) in runs {
        let engine = CountingEngine::new(VersionedDataset::new(data.clone()), None);
        let mut gated = IncrementalGate::new(engine, cfg.clone());
        let _ = gated.execute(w);
        let report = gated.report().expect("a workload ran");
        let reason = report
            .findings
            .iter()
            .find(|f| f.severity == Severity::Deny)
            .map_or("-".to_owned(), |f| f.lint.code().to_owned());
        t2.row(vec![
            label.to_owned(),
            if report.denies() { "closed" } else { "open" }.to_owned(),
            reason,
            gated.engine().auditor().queries_answered().to_string(),
            gated.engine().auditor().queries_refused().to_string(),
        ]);
    }
    vec![t, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linter_flags_attack_workloads_with_correct_indices() {
        let cfg = LintConfig::default();
        // E1 exhaustive, exact: differencing names the ({0}, ∅) pair first,
        // and the density pass recognizes the exhaustive regime.
        let r = lint_workload(&mut exhaustive_spec(8, Noise::Exact), &cfg);
        assert!(r.denies());
        let d = r.findings_for(LintId::Differencing);
        assert!(!d.is_empty());
        assert_eq!(
            d[0].queries,
            vec![1, 0],
            "superset {{0}} ⊃ ∅ differ on row 0"
        );
        assert!(r.count(LintId::ReconstructionDensity) >= 1);

        // E6 prefix descent, exact: the adjacent pair at the weight gate.
        let r = lint_workload(&mut prefix_descent_spec(100, 14, Noise::Exact), &cfg);
        assert!(r.denies());
        let d = r.findings_for(LintId::Differencing);
        assert_eq!(d[0].queries, vec![6, 7], "first flagged pair at the gate");

        // Tracker: every finding pairs the full set with a complement.
        let r = lint_workload(&mut tracker_spec(50), &cfg);
        assert!(r.denies());
        for f in r.findings_for(LintId::Differencing) {
            assert_eq!(f.queries[0], 0, "full set is the superset: {f}");
        }

        // E7 DP descent: zero findings.
        let r = lint_workload(
            &mut prefix_descent_spec(100, 14, Noise::PureDp { epsilon: 0.1 }),
            &cfg,
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn quick_run_verdicts() {
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
        assert_eq!(verdict("E1 exhaustive / exact"), "REFUSE");
        assert_eq!(verdict("E1 exhaustive / alpha"), "REFUSE");
        assert_eq!(verdict("E2 LP"), "REFUSE");
        assert_eq!(verdict("E6 prefix descent"), "REFUSE");
        assert_eq!(verdict("tracker"), "REFUSE");
        assert_eq!(verdict("E7 prefix descent / DP"), "PASS");
        assert_eq!(verdict("honest cross-tab"), "PASS");
        assert_eq!(verdict("E7 DP descent / eps-budget 1.0"), "REFUSE");
        assert_eq!(verdict("E7 DP descent / eps-budget 2.0"), "PASS");

        // Gatekeeper: flagged workload answers nothing; honest answers all.
        let g: Vec<Vec<String>> = tables[1]
            .to_csv()
            .lines()
            .skip(2)
            .map(|l| l.split(',').map(str::to_owned).collect())
            .collect();
        assert_eq!(g[0][1], "closed");
        assert_eq!(g[0][2], LintId::Differencing.code());
        assert_eq!(g[0][3], "0", "no query of the flagged workload answered");
        assert_eq!(g[0][4], "2");
        assert_eq!(g[1][1], "open");
        assert_eq!(g[1][3], "15");
        assert_eq!(g[1][4], "0");
    }
}
