//! Criterion benches for the columnar scan path.
//!
//! The `storage_scan` group records the scan curve: an E1-shaped batch of
//! overlapping conjunction queries executed over 1 000 000 and 10 000 000
//! rows at 1, 2, 4, and 8 worker threads. Before timing anything, every
//! configuration is asserted **bit-identical** to the serial plan's answers
//! — the thread count changes the cost of a scan, never its answer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use so_data::{AttributeDef, AttributeRole, DataType, Dataset, DatasetBuilder, Schema, Value};
use so_plan::workload::{Noise, WorkloadSpec};
use so_plan::{NodeCache, ParallelExecutor, QueryPlan, SchedulePolicy};
use so_query::predicate::{AllRowPredicate, IntRangePredicate, ValueEqualsPredicate};

const N_QUERIES: usize = 200;

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

/// The E1-shaped workload of `bench_shard`, scaled down: every query is
/// `age ∈ [lo, lo+9] ∧ dept = d`, so the batch shares its 65 atoms and the
/// timing is dominated by the atom scans.
fn overlapping_spec(n_rows: usize) -> WorkloadSpec {
    let mut spec = WorkloadSpec::new(n_rows);
    for q in 0..N_QUERIES {
        let lo = ((q % 40) * 2) as i64;
        let p = AllRowPredicate {
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
        };
        spec.push_predicate(&p, Noise::Exact);
    }
    spec
}

fn bench_storage_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage_scan");
    group.sample_size(10);

    for &n_rows in &[1_000_000usize, 10_000_000] {
        let spec = overlapping_spec(n_rows);
        let plan = QueryPlan::from_spec(&spec);

        // Serial answers are the oracle every thread configuration must
        // reproduce bit-for-bit.
        let ds = dataset(n_rows);
        let mut oracle_cache = NodeCache::new();
        let (oracle, _) = plan.execute(spec.pool(), &ds, spec.evaluators(), &mut oracle_cache);
        drop(oracle_cache);
        let label = format!("{}m_rows", n_rows / 1_000_000);

        for &threads in &[1usize, 2, 4, 8] {
            let exec = ParallelExecutor::with_threads_and_policy(threads, SchedulePolicy::Auto);
            let mut check = NodeCache::new();
            let (out, _) = exec.execute(&plan, spec.pool(), &ds, spec.evaluators(), &mut check);
            assert_eq!(
                out, oracle,
                "diverged from the oracle at {n_rows} rows, {threads} threads"
            );
            drop(check);

            group.bench_function(
                BenchmarkId::new(&label, format!("{threads}_threads")),
                |b| {
                    b.iter(|| {
                        let mut cache = NodeCache::new();
                        let (outcomes, _) =
                            exec.execute(&plan, spec.pool(), &ds, spec.evaluators(), &mut cache);
                        outcomes.len()
                    });
                },
            );
        }
    }

    group.finish();
}

criterion_group!(benches, bench_storage_scan);
criterion_main!(benches);
