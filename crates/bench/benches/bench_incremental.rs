//! Criterion benches for the counting engine's delta-repair path.
//!
//! The `incremental_scan` group records the cost of answering a counting
//! workload over a 1 000 000-row relation with ≤ 1 % of its rows mutated
//! (6 000 inserted through delta segments, 2 000 tombstoned), two ways:
//!
//! * `delta_repair` — steady state of an owning [`so_query::CountingEngine`]:
//!   each iteration inserts one row and re-runs the workload, so only the
//!   open tail delta (≤ 1 024 rows) is rescanned; every frozen segment is
//!   a cache hit masked against its tombstones.
//! * `full_rescan` — the from-scratch baseline: the same workload executed
//!   over an immutable rebuild of the identical logical relation with a
//!   fresh node cache per iteration.
//!
//! Before timing, the incremental answers are asserted bit-identical to a
//! fresh engine run over the rebuilt one-segment relation — repair
//! changes the cost of a scan, never its answer. Compaction is pushed out
//! of reach (threshold 1 000) so the timing isolates repair, not one-time
//! base rebuilds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use so_data::{
    AttributeDef, AttributeRole, DataType, Dataset, DatasetBuilder, Schema, Value, VersionedDataset,
};
use so_plan::shape::PredShape;
use so_plan::workload::{Noise, WorkloadSpec};
use so_plan::{NodeCache, ParallelExecutor, QueryPlan};
use so_query::{CountingEngine, QueryAuditor};

const N_ROWS: usize = 1_000_000;
const N_INSERTS: usize = 6_000;
const N_DELETES: usize = 2_000;
const N_QUERIES: usize = 50;

fn row(i: usize) -> Vec<Value> {
    vec![
        Value::Int((i * 37 % 90) as i64),
        Value::Int((i % 25) as i64),
    ]
}

fn base_dataset() -> Dataset {
    let schema = Schema::new(vec![
        AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("dept", DataType::Int, AttributeRole::QuasiIdentifier),
    ]);
    let mut b = DatasetBuilder::new(schema);
    for i in 0..N_ROWS {
        b.push_row(row(i));
    }
    b.finish()
}

/// The E1-shaped batch: every query is `age ∈ [lo, lo+9] ∧ dept = d`, so
/// the workload shares its atoms and timing is dominated by atom scans.
fn overlapping_spec(n_rows: usize) -> WorkloadSpec {
    let mut spec = WorkloadSpec::new(n_rows);
    for q in 0..N_QUERIES {
        let lo = ((q % 40) * 2) as i64;
        let shape = PredShape::And(vec![
            PredShape::IntRange {
                col: 0,
                lo,
                hi: lo + 9,
            },
            PredShape::ValueEquals {
                col: 1,
                value: Value::Int((q % 25) as i64),
            },
        ]);
        spec.push_shape(&shape, Noise::Exact);
    }
    spec
}

/// Live indices tombstoned from the base region (all < `N_ROWS`).
fn deleted_live() -> Vec<usize> {
    (0..N_DELETES).map(|i| i * 400).collect()
}

/// Rebuilds the mutated logical relation as an immutable dataset: base
/// rows minus the tombstoned live indices, then the delta rows appended —
/// the exact live ordering `VersionedDataset` serves.
fn rebuilt_dataset() -> Dataset {
    let mut live: Vec<usize> = (0..N_ROWS).collect();
    for idx in deleted_live().into_iter().rev() {
        live.remove(idx);
    }
    let schema = Schema::new(vec![
        AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("dept", DataType::Int, AttributeRole::QuasiIdentifier),
    ]);
    let mut b = DatasetBuilder::new(schema);
    for i in live {
        b.push_row(row(i));
    }
    for i in 0..N_INSERTS {
        b.push_row(row(N_ROWS + i));
    }
    b.finish()
}

fn bench_incremental_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_scan");
    group.sample_size(10);

    let rebuilt = rebuilt_dataset();
    let n_live = rebuilt.n_rows();
    let spec = overlapping_spec(n_live);
    let plan = QueryPlan::from_spec(&spec);

    // The from-scratch oracle every configuration must reproduce.
    let mut oracle_eng = CountingEngine::new(VersionedDataset::new(rebuilt.clone()), None);
    let oracle = oracle_eng.execute_workload(&spec).answers;

    for &threads in &[1usize, 8] {
        // Incremental: 1M-row base + ≤1% mutations through the versioned
        // path, caches warmed by one pre-timing execution.
        let data = VersionedDataset::with_compact_threshold(base_dataset(), 1_000);
        let mut eng = CountingEngine::with_auditor(data, QueryAuditor::with_trail_cap(None, 64));
        eng.set_threads(threads);
        let inserts: Vec<Vec<Value>> = (0..N_INSERTS).map(|i| row(N_ROWS + i)).collect();
        eng.insert_rows(&inserts);
        eng.delete_live(&deleted_live());
        let answers = eng.execute_workload(&spec).answers;
        assert_eq!(
            answers, oracle,
            "incremental answers diverged from the rebuilt oracle at {threads} threads"
        );

        let mut next = 0usize;
        group.bench_function(
            BenchmarkId::new("delta_repair", format!("{threads}_threads")),
            |b| {
                b.iter(|| {
                    eng.insert_rows(std::slice::from_ref(&row(N_ROWS + N_INSERTS + next)));
                    next += 1;
                    eng.execute_workload(&spec).answers.len()
                });
            },
        );

        // Full rescan of the rebuilt relation, fresh cache per iteration.
        let exec = ParallelExecutor::with_threads(threads);
        group.bench_function(
            BenchmarkId::new("full_rescan", format!("{threads}_threads")),
            |b| {
                b.iter(|| {
                    let mut cache = NodeCache::new();
                    let (outcomes, _) =
                        exec.execute(&plan, spec.pool(), &rebuilt, spec.evaluators(), &mut cache);
                    outcomes.len()
                });
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_incremental_scan);
criterion_main!(benches);
