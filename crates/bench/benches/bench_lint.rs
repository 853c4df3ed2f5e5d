//! Criterion benches for the static workload linter: what `lint_workload`
//! costs on an honest cross-tab batch (the pass-everything common case) and
//! on the E18 attack batteries that exercise the matrix passes end to end
//! (cell partition, GF(2)/rational rank, tracker lattice search, covers),
//! on the range dashboard a gated 1M-row service tenant answers, and on
//! the LP battery a gated 48-row tenant refuses.
//! No dataset is ever touched — the linter is purely structural, so these
//! numbers are the full admission-control overhead a gated engine adds per
//! workload.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::Rng;
use so_analyze::{lint_workload, LintConfig, Noise, WorkloadSpec};
use so_bench::experiments::e18_query_matrix::{
    complement_tracker_spec, cycle_release_spec, honest_crosstab_spec, pred_tracker_trio,
};
use so_data::rng::seeded_rng;
use so_plan::shape::PredShape;

/// Eight distinct random age ranges (ages 0..=89), as one request of the
/// wire benchmark's `scan_1m` workload draws them.
fn dashboard_ranges() -> Vec<PredShape> {
    let mut rng = seeded_rng(1);
    let mut out: Vec<PredShape> = Vec::new();
    while out.len() < 8 {
        let (a, b) = (rng.gen_range(0..=89i64), rng.gen_range(0..=89i64));
        let range = PredShape::IntRange {
            col: 0,
            lo: a.min(b),
            hi: a.max(b),
        };
        if !out.contains(&range) {
            out.push(range);
        }
    }
    out
}

fn bench_lint_cost(c: &mut Criterion) {
    let cfg = LintConfig::default();
    let mut group = c.benchmark_group("lint_cost");
    group.sample_size(10);

    // The honest path: a department × sex cross-tab over 10 000 rows under
    // pure DP. Every pass runs to completion and finds nothing.
    group.bench_function("honest_crosstab_dp_10k_rows", |b| {
        b.iter(|| {
            let mut w = honest_crosstab_spec(10_000, Noise::PureDp { epsilon: 0.5 });
            lint_workload(&mut w, &cfg).findings.len()
        });
    });

    // The rank fallback at its worst: 101 adjacent-pair queries with no
    // popcount gaps and no containments, so only the f64 elimination over
    // the 101-cell partition certifies full rational rank.
    group.bench_function("cycle_release_rank_101_queries", |b| {
        b.iter(|| {
            let mut w = cycle_release_spec(101, Noise::Exact);
            lint_workload(&mut w, &cfg).findings.len()
        });
    });

    // The tracker lattice under fire: the total plus 64 complements-of-one
    // derives every singleton, driving the BFS chain search and covers.
    group.bench_function("complement_tracker_64_queries", |b| {
        b.iter(|| {
            let mut w = complement_tracker_spec(64, Noise::Exact);
            lint_workload(&mut w, &cfg).findings.len()
        });
    });

    // Predicate lowering: the hash/bit-extract trio goes through NNF,
    // sign-cell refinement, and design-weight intervals before the chain.
    group.bench_function("pred_tracker_trio_lowering", |b| {
        b.iter(|| {
            let mut w = pred_tracker_trio(100, Noise::Exact);
            lint_workload(&mut w, &cfg).findings.len()
        });
    });

    // The range dashboard of a 1M-row tenant at ε = 0.1: the effective α
    // (≈ 69) is inside the √n cut, but every range atom reads data, so each
    // sign cell would be 1M rows wide and no DP row can start a tracker
    // chain. No matrix pass can fire, and the family is not lowered.
    let ranges = dashboard_ranges();
    group.bench_function("dp_ranges_8_1m_rows", |b| {
        b.iter(|| {
            let mut w = WorkloadSpec::new(1_000_000);
            for r in &ranges {
                w.push_shape(r, Noise::PureDp { epsilon: 0.1 });
            }
            lint_workload(&mut w, &cfg).findings.len()
        });
    });

    // One request of the wire benchmark's lp_refused workload: a
    // density-½ battery of 4n = 192 exact subset queries over 48 rows
    // (drawn once, from E20's seed). Differencing, the mask lowering,
    // rank, the tracker lattice and covers all run; the density pass
    // refuses it.
    let battery = so_recon::lp_attack_queries(48, 192, &mut seeded_rng(11));
    group.bench_function("lp_battery_48_rows_192_queries", |b| {
        b.iter(|| {
            let mut w = WorkloadSpec::new(48);
            w.push_subsets(&battery, Noise::Exact);
            lint_workload(&mut w, &cfg).findings.len()
        });
    });

    group.finish();
}

criterion_group!(benches, bench_lint_cost);
criterion_main!(benches);
