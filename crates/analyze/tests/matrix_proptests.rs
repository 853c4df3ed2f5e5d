//! Property-based tests for the query-matrix lint passes (`SO-LINREC`,
//! `SO-TRACKER`, `SO-COVER`): honest tabular workloads are never flagged,
//! the attack batteries always are, DP noise past the accuracy cut silences
//! every matrix pass, and lint reports are invariant under query
//! permutation and under the execution-tuning environment knobs
//! (`SO_THREADS` / `SO_SCHEDULE`) — the linter is static and
//! data-free, so nothing about *how* queries would execute may leak into
//! its verdicts.

use proptest::prelude::*;
use rand::Rng;
use so_analyze::{lint_workload, LintConfig, LintId, LintReport, Noise, WorkloadSpec};
use so_data::rng::seeded_rng;
use so_data::Value;
use so_query::predicate::{
    AllRowPredicate, AnyRowPredicate, IntRangePredicate, NotRowPredicate, RowPredicate,
    ValueEqualsPredicate,
};
use so_query::query::SubsetQuery;

/// The three structural matrix codes under test.
const MATRIX_CODES: [LintId; 3] = [
    LintId::LinearReconstruction,
    LintId::TrackerChain,
    LintId::CellCover,
];

fn matrix_findings(r: &LintReport) -> usize {
    MATRIX_CODES.iter().map(|&id| r.count(id)).sum()
}

/// A random honest predicate tree: nested And/Or/Not over tabular range and
/// value-equality atoms only — every atom's design weight is vacuous, so no
/// region is ever *provably* narrow.
fn honest_tree(rng: &mut impl Rng, depth: usize) -> Box<dyn RowPredicate> {
    let leaf_only = depth == 0;
    match rng.gen_range(0..if leaf_only { 2u32 } else { 5 }) {
        0 => {
            let lo = rng.gen_range(-25i64..20);
            Box::new(IntRangePredicate {
                col: 0,
                lo,
                hi: lo + rng.gen_range(0i64..20),
            })
        }
        1 => Box::new(ValueEqualsPredicate {
            col: 1,
            value: Value::Int(rng.gen_range(0i64..4)),
        }),
        2 => Box::new(AllRowPredicate {
            parts: (0..rng.gen_range(1usize..4))
                .map(|_| honest_tree(rng, depth - 1))
                .collect(),
        }),
        3 => Box::new(AnyRowPredicate {
            parts: (0..rng.gen_range(1usize..4))
                .map(|_| honest_tree(rng, depth - 1))
                .collect(),
        }),
        _ => Box::new(NotRowPredicate {
            inner: honest_tree(rng, depth - 1),
        }),
    }
}

fn arb_noise(rng: &mut impl Rng) -> Noise {
    match rng.gen_range(0..3u32) {
        0 => Noise::Exact,
        1 => Noise::Bounded {
            alpha: rng.gen_range(1..20) as f64 / 10.0,
        },
        _ => Noise::PureDp {
            epsilon: rng.gen_range(1..20) as f64 / 20.0,
        },
    }
}

/// The cycle release of E18: adjacent pairs `{i, (i+1) mod n}`, odd `n`.
fn cycle_release(n: usize, noise: Noise) -> WorkloadSpec {
    let mut w = WorkloadSpec::new(n);
    for i in 0..n {
        w.push_subset(&SubsetQuery::from_indices(n, &[i, (i + 1) % n]), noise);
    }
    w
}

/// The complement tracker: the total plus every complement-of-one.
fn complement_tracker(n: usize, noise: Noise) -> WorkloadSpec {
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

proptest! {
    /// Honest tabular workloads — arbitrary drill-downs, unions, negations
    /// over data-dependent atoms, at any mix of release noises — are never
    /// flagged by a matrix pass: their cells all have the vacuous width
    /// bound `n`, which can't certify isolation.
    #[test]
    fn honest_workloads_never_fire_matrix_codes(
        seed in any::<u64>(),
        n in 8usize..150,
        m in 1usize..12,
    ) {
        let mut rng = seeded_rng(seed);
        let mut w = WorkloadSpec::new(n);
        for _ in 0..m {
            let p = honest_tree(&mut rng, 2);
            let noise = arb_noise(&mut rng);
            w.push_predicate(p.as_ref(), noise);
        }
        let r = lint_workload(&mut w, &LintConfig::default());
        for id in MATRIX_CODES {
            prop_assert_eq!(r.count(id), 0, "{} fired on an honest workload: {:?}", id, r.findings);
        }
    }

    /// The attack batteries always fire, and DP noise always silences them:
    /// the cycle release is pairwise-blind but `SO-LINREC` catches its full
    /// rational rank; the complement tracker fires all three codes.
    #[test]
    fn batteries_always_fire_and_dp_always_silences(
        k in 0usize..5,
        eps_tenths in 1u32..10,
    ) {
        let cfg = LintConfig::default();
        let n = 2 * k + 3; // odd, ≥ 3
        let r = lint_workload(&mut cycle_release(n, Noise::Exact), &cfg);
        prop_assert_eq!(r.count(LintId::Differencing), 0);
        prop_assert_eq!(r.count(LintId::LinearReconstruction), 1, "{:?}", r.findings);
        prop_assert!(r.denies());

        let r = lint_workload(&mut complement_tracker(n, Noise::Exact), &cfg);
        prop_assert!(r.count(LintId::LinearReconstruction) >= 1, "{:?}", r.findings);
        prop_assert!(r.count(LintId::TrackerChain) >= 1, "{:?}", r.findings);
        prop_assert!(r.count(LintId::CellCover) >= 1, "{:?}", r.findings);

        // DP at any ε ≤ 1 has effective α ≥ ln(1000) > √n for these n:
        // every row misses the accuracy cut, the matrix is empty.
        let dp = Noise::PureDp { epsilon: f64::from(eps_tenths) / 10.0 };
        let r = lint_workload(&mut cycle_release(n, dp), &cfg);
        prop_assert_eq!(matrix_findings(&r), 0, "{:?}", r.findings);
        let r = lint_workload(&mut complement_tracker(n, dp), &cfg);
        prop_assert_eq!(matrix_findings(&r), 0, "{:?}", r.findings);
    }

    /// Per-code finding counts are invariant under query permutation: the
    /// cell partition is canonical and the searches run over sets, so
    /// declaration order can't change the verdict.
    #[test]
    fn lint_counts_are_permutation_invariant(
        seed in any::<u64>(),
        n in 4usize..32,
        m in 2usize..7,
    ) {
        let mut rng = seeded_rng(seed);
        let masks: Vec<Vec<usize>> = (0..m)
            .map(|_| {
                let len = rng.gen_range(1..=n);
                (0..n).filter(|_| rng.gen_range(0..n) < len).collect()
            })
            .collect();
        let mut order: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let lint_in = |idx: &[usize]| {
            let mut w = WorkloadSpec::new(n);
            for &k in idx {
                w.push_subset(&SubsetQuery::from_indices(n, &masks[k]), Noise::Exact);
            }
            lint_workload(&mut w, &LintConfig::default())
        };
        let a = lint_in(&(0..m).collect::<Vec<_>>());
        let b = lint_in(&order);
        for id in LintId::ALL {
            prop_assert_eq!(a.count(id), b.count(id), "{} differs across orders", id);
        }
        prop_assert_eq!(a.denies(), b.denies());
    }
}

/// The execution-tuning environment knobs must not perturb lint verdicts:
/// the linter never executes anything, so thread count and scheduler
/// selection are invisible to it. (Single `#[test]`, sequential
/// env mutation — env vars are process-global.)
#[test]
fn lint_reports_are_invariant_under_execution_env_knobs() {
    let render = |w: &mut WorkloadSpec| {
        let r = lint_workload(w, &LintConfig::default());
        format!("{:?}", r)
    };
    let run_all = || {
        let mut out = Vec::new();
        out.push(render(&mut cycle_release(7, Noise::Exact)));
        out.push(render(&mut complement_tracker(6, Noise::Exact)));
        let mut rng = seeded_rng(0xE18);
        let mut w = WorkloadSpec::new(60);
        for _ in 0..6 {
            let p = honest_tree(&mut rng, 2);
            w.push_predicate(p.as_ref(), Noise::Exact);
        }
        out.push(render(&mut w));
        out
    };
    let baseline = run_all();
    for (threads, schedule) in [("1", "static"), ("8", "static"), ("8", "morsel")] {
        std::env::set_var("SO_THREADS", threads);
        std::env::set_var("SO_SCHEDULE", schedule);
        assert_eq!(
            run_all(),
            baseline,
            "lint drifted under SO_THREADS={threads} SO_SCHEDULE={schedule}"
        );
    }
    for var in ["SO_THREADS", "SO_SCHEDULE"] {
        std::env::remove_var(var);
    }
}
