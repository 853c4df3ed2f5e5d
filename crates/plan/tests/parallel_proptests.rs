//! Property tests for sharded parallel plan execution.
//!
//! The contract under test is the determinism gate's foundation: for any
//! dataset size (including sizes that do not divide 64 and datasets smaller
//! than the thread count), any workload mixing typed atoms, boolean
//! structure, and opaque closure predicates, and any thread count from 1 to
//! 8, [`ParallelExecutor::execute`] must produce **bit-identical** outcomes,
//! stats, and cache contents to the serial [`QueryPlan::execute`].

use proptest::prelude::*;
use std::sync::Arc;

use so_data::{
    AttributeDef, AttributeRole, BitVec, DataType, Dataset, DatasetBuilder, Schema, Value,
};
use so_plan::{
    NodeCache, Noise, ParallelExecutor, PredShape, QueryPlan, RowPredicate, WorkloadSpec,
};

fn build_ds(ages: &[i64]) -> Dataset {
    let schema = Schema::new(vec![
        AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("dept", DataType::Int, AttributeRole::QuasiIdentifier),
    ]);
    let mut b = DatasetBuilder::new(schema);
    for (i, &a) in ages.iter().enumerate() {
        b.push_row(vec![Value::Int(a), Value::Int((i % 5) as i64)]);
    }
    b.finish()
}

/// An opaque closure predicate: invisible to the typed scan kernels, so the
/// parallel path must evaluate it per-shard through `eval_row`.
struct EveryKth {
    k: usize,
}

impl RowPredicate for EveryKth {
    fn eval_row(&self, _ds: &Dataset, row: usize) -> bool {
        row % self.k == 0
    }
}

fn build_workload(n_rows: usize, ranges: &[(i64, i64)], opaque_k: usize) -> WorkloadSpec {
    let mut w = WorkloadSpec::new(n_rows);
    for &(lo, hi) in ranges {
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        w.push_shape(&PredShape::IntRange { col: 0, lo, hi }, Noise::Exact);
        // Boolean structure over shared conjuncts, so AND/OR/NOT nodes (and
        // the cross-shard child fetch) are exercised, not just atoms.
        w.push_shape(
            &PredShape::And(vec![
                PredShape::IntRange { col: 0, lo, hi },
                PredShape::Not(Box::new(PredShape::ValueEquals {
                    col: 1,
                    value: Value::Int((lo % 5).abs()),
                })),
            ]),
            Noise::Exact,
        );
    }
    w.push_predicate_arc(Arc::new(EveryKth { k: opaque_k }), Noise::Exact);
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parallel ≡ serial: outcomes, stats, and every cached bitmap, for all
    /// thread counts 1–8, on datasets whose sizes land on and off word
    /// boundaries — including datasets with fewer rows than threads.
    #[test]
    fn parallel_execution_is_thread_count_invariant(
        ages in proptest::collection::vec(0i64..100, 1..300),
        ranges in proptest::collection::vec((0i64..100, 0i64..100), 1..6),
        opaque_k in 1usize..7,
    ) {
        let ds = build_ds(&ages);
        let w = build_workload(ds.n_rows(), &ranges, opaque_k);
        let plan = QueryPlan::from_spec(&w);
        let mut serial_cache = NodeCache::new();
        let (serial, serial_stats) =
            plan.execute(w.pool(), &ds, w.evaluators(), &mut serial_cache);
        for threads in 1..=8usize {
            let mut cache = NodeCache::new();
            let (out, stats) = ParallelExecutor::with_threads(threads)
                .execute(&plan, w.pool(), &ds, w.evaluators(), &mut cache);
            prop_assert_eq!(&out, &serial, "threads={}", threads);
            prop_assert_eq!(stats, serial_stats, "threads={}", threads);
            prop_assert_eq!(cache.len(), serial_cache.len(), "threads={}", threads);
            for (id, bitmap) in &serial_cache {
                prop_assert_eq!(
                    cache.get(id),
                    Some(bitmap),
                    "node {:?} diverged at threads={}",
                    id,
                    threads
                );
            }
        }
    }

    /// Word-aligned slicing and shard-order concatenation round-trip any
    /// bitmap — the merge algebra the executor is built on.
    #[test]
    fn shard_slices_reassemble_exactly(
        bits in proptest::collection::vec(any::<bool>(), 1..400),
        max_shards in 1usize..9,
    ) {
        let full = BitVec::from_fn(bits.len(), |i| bits[i]);
        let ranges = so_plan::parallel::word_aligned_ranges(bits.len(), max_shards);
        let merged = BitVec::concat_aligned(
            ranges.iter().map(|r| full.slice_aligned(r.clone())),
        );
        prop_assert_eq!(&merged, &full);
        prop_assert_eq!(merged.count_ones(), bits.iter().filter(|&&b| b).count());
    }

    /// Chunked fan-out over an item list is order-preserving and complete
    /// for every thread count (the `map_chunks` contract the mechanisms,
    /// k-anonymity merge, and PSO game loop rely on).
    #[test]
    fn map_chunks_equals_sequential_map(
        n_items in 0usize..500,
        threads in 1usize..9,
    ) {
        let exec = ParallelExecutor::with_threads(threads);
        let got: Vec<usize> = exec
            .map_chunks(n_items, |r| r.map(|i| i * i).collect::<Vec<_>>())
            .concat();
        let want: Vec<usize> = (0..n_items).map(|i| i * i).collect();
        prop_assert_eq!(got, want);
    }
}
