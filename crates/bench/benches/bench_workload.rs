//! Criterion benches for whole-workload planning.
//!
//! The headline comparison: an E1-shaped batch of 1 000 overlapping
//! conjunction queries over 100 000 rows, answered query-at-a-time with a
//! fresh scan per query (the pre-planner baseline) versus compiled into one
//! `QueryPlan` whose hash-consed shared subexpressions are scanned once and
//! combined with word-level bitmap operations. Its 100 000 rows hold 450
//! distinct (age, dept) pairs, at most `n / 64`, so the planned side runs
//! over the dataset's distinct-row form.
//!
//! The `distinct_rows` group records the rule that picks the form: a
//! fresh engine answering 8 ranges over 1M rows with 90, `n / 64` (form)
//! and `n / 64 + 1` (full bitmap path) distinct rows, and the one-time
//! build of the form, each checked against the full bitmap path first.

use criterion::{criterion_group, criterion_main, Criterion};
use so_data::{
    AttributeDef, AttributeRole, DataType, Dataset, DatasetBuilder, Schema, Value, VersionedDataset,
};
use so_plan::workload::{Noise, WorkloadSpec};
use so_plan::{NodeCache, PlanOutcome, PredShape, QueryPlan};
use so_query::predicate::{AllRowPredicate, IntRangePredicate, RowPredicate, ValueEqualsPredicate};
use so_query::{CountingEngine, WorkloadAnswer};

const N_ROWS: usize = 100_000;
const N_QUERIES: usize = 1_000;

fn dataset(n: usize) -> Dataset {
    let schema = Schema::new(vec![
        AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("dept", DataType::Int, AttributeRole::QuasiIdentifier),
    ]);
    let mut b = DatasetBuilder::new(schema);
    for i in 0..n {
        b.push_row(vec![
            Value::Int((i * 37 % 90) as i64),
            Value::Int((i % 25) as i64),
        ]);
    }
    b.finish()
}

/// The E1-shaped workload: every query is `age ∈ [lo, lo+9] ∧ dept = d`,
/// cycling through 40 distinct age decades and 25 departments, so the 1 000
/// queries share 65 atoms between them and repeat each conjunction.
fn overlapping_queries(n_queries: usize) -> Vec<AllRowPredicate> {
    (0..n_queries)
        .map(|q| {
            let lo = ((q % 40) * 2) as i64;
            AllRowPredicate {
                parts: vec![
                    Box::new(IntRangePredicate {
                        col: 0,
                        lo,
                        hi: lo + 9,
                    }),
                    Box::new(ValueEqualsPredicate {
                        col: 1,
                        value: Value::Int((q % 25) as i64),
                    }),
                ],
            }
        })
        .collect()
}

fn bench_workload_planning(c: &mut Criterion) {
    let data = VersionedDataset::new(dataset(N_ROWS));
    let ds = data.segment(0);
    let queries = overlapping_queries(N_QUERIES);

    let mut group = c.benchmark_group("workload_planning");
    group.sample_size(10);

    // Baseline: one fresh scan per query, no sharing — what a query-at-a-time
    // loop over `p.scan(ds)` costs.
    group.bench_function("query_at_a_time_100k_rows_1k_queries", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|p| p.scan(ds).count_ones())
                .sum::<usize>()
        });
    });

    // Planned: the whole batch through `execute_workload` — hash-consing
    // dedups repeated conjunctions, shared atoms are scanned once, and every
    // conjunction is a word-level AND over cached bitmaps.
    group.bench_function("execute_workload_100k_rows_1k_queries", |b| {
        b.iter(|| {
            let mut spec = WorkloadSpec::new(ds.n_rows());
            for p in &queries {
                spec.push_predicate(p, Noise::Exact);
            }
            let mut engine = CountingEngine::new(&data, None);
            engine.execute_workload(&spec).answers.len()
        });
    });

    group.finish();
}

const FORM_ROWS: usize = 1_000_000;

/// `n` rows of one Int column holding `distinct` values, each first seen
/// within the first `distinct` rows (7919 is prime, so `i * 7919 % d`
/// cycles through every residue).
fn one_column(n: usize, distinct: usize) -> Dataset {
    let schema = Schema::new(vec![AttributeDef::new(
        "age",
        DataType::Int,
        AttributeRole::QuasiIdentifier,
    )]);
    let mut b = DatasetBuilder::new(schema);
    for i in 0..n {
        b.push_row(vec![Value::Int((i * 7919 % distinct) as i64)]);
    }
    b.finish()
}

/// Eight ranges, each a quarter of the value domain `0..distinct`.
fn eight_ranges(n: usize, distinct: usize) -> WorkloadSpec {
    let d = distinct as i64;
    let mut spec = WorkloadSpec::new(n);
    for k in 0..8 {
        let lo = k * d / 10;
        spec.push_shape(
            &PredShape::IntRange {
                col: 0,
                lo,
                hi: lo + d / 4,
            },
            Noise::Exact,
        );
    }
    spec
}

fn bench_distinct_rows(c: &mut Criterion) {
    let cap = FORM_ROWS / 64;
    let mut group = c.benchmark_group("distinct_rows");
    group.sample_size(10);
    for distinct in [90, cap, cap + 1] {
        let data = VersionedDataset::new(one_column(FORM_ROWS, distinct));
        let ds = data.segment(0);
        let spec = eight_ranges(FORM_ROWS, distinct);
        // The full bitmap path is the oracle.
        let plan = QueryPlan::from_spec(&spec);
        let (oracle, _) = plan.execute(spec.pool(), ds, spec.evaluators(), &mut NodeCache::new());
        let answers = CountingEngine::new(&data, None)
            .execute_workload(&spec)
            .answers;
        for (a, o) in answers.iter().zip(&oracle) {
            let PlanOutcome::Count(o) = o else {
                panic!("ranges are answerable")
            };
            assert_eq!(*a, WorkloadAnswer::Count(*o));
        }
        assert_eq!(ds.distinct_rows().is_some(), distinct <= cap);
        // Like a served request: a fresh engine, the form (if any) already
        // built on the dataset.
        group.bench_function(format!("8_ranges_1m_rows_{distinct}_distinct"), |b| {
            b.iter(|| {
                let mut engine = CountingEngine::new(&data, None);
                engine.execute_workload(&spec).answers.len()
            });
        });
    }
    // The one-time build: a clone has no form yet, so each iteration
    // clones the rows and builds (or gives up on) the form; the clone
    // alone is timed as the baseline to subtract.
    for distinct in [90, cap, cap + 1] {
        let ds = one_column(FORM_ROWS, distinct);
        group.bench_function(format!("build_1m_rows_{distinct}_distinct"), |b| {
            b.iter(|| ds.clone().distinct_rows().map(|f| f.rows().n_rows()));
        });
        if distinct == 90 {
            group.bench_function("clone_1m_rows", |b| b.iter(|| ds.clone().n_rows()));
        }
    }
    group.finish();
}

criterion_group!(benches, bench_workload_planning, bench_distinct_rows);
criterion_main!(benches);
