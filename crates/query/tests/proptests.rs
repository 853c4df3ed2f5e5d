//! Property-based tests for the query engine.

use proptest::prelude::*;
use so_data::BitVec;
use so_query::{
    count, AndPredicate, BitExtractPredicate, FnPredicate, NotPredicate, OrPredicate, Predicate,
    PrefixPredicate, SubsetQuery,
};

fn arb_bits(len: usize) -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(any::<bool>(), len).prop_map(|b| BitVec::from_bools(&b))
}

proptest! {
    /// Subset-sum answers match a naive per-index loop.
    #[test]
    fn subset_sum_matches_naive(
        x in proptest::collection::vec(any::<bool>(), 1..200),
        picks in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        let n = x.len().min(picks.len());
        let xv = BitVec::from_bools(&x[..n]);
        let indices: Vec<usize> = (0..n).filter(|&i| picks[i]).collect();
        let q = SubsetQuery::from_indices(n, &indices);
        let naive: u64 = indices.iter().filter(|&&i| x[i]).count() as u64;
        prop_assert_eq!(q.true_answer(&xv), naive);
        prop_assert_eq!(q.size(), indices.len());
    }

    /// De Morgan: NOT(a AND b) == (NOT a) OR (NOT b) pointwise.
    #[test]
    fn de_morgan(r in arb_bits(16), i in 0usize..16, j in 0usize..16) {
        let a = BitExtractPredicate { bit: i, value: true };
        let b = BitExtractPredicate { bit: j, value: false };
        let lhs = NotPredicate { inner: AndPredicate { left: a, right: b } };
        let rhs = OrPredicate {
            left: NotPredicate { inner: a },
            right: NotPredicate { inner: b },
        };
        prop_assert_eq!(lhs.eval(&r), rhs.eval(&r));
    }

    /// Prefix predicates nest: if the longer prefix matches, so does every
    /// shorter one.
    #[test]
    fn prefix_nesting(r in arb_bits(32), bits in proptest::collection::vec(any::<bool>(), 1..16)) {
        let long = PrefixPredicate { prefix: bits.clone() };
        for cut in 0..bits.len() {
            let short = PrefixPredicate { prefix: bits[..cut].to_vec() };
            if long.eval(&r) {
                prop_assert!(short.eval(&r), "short prefix must match too");
            }
        }
        // Weight is 2^-len.
        prop_assert!((long.uniform_weight() - 0.5f64.powi(bits.len() as i32)).abs() < 1e-15);
    }

    /// count() over complement predicates sums to the record count.
    #[test]
    fn count_partitions(records in proptest::collection::vec(arb_bits(8), 0..40), bit in 0usize..8) {
        let yes = BitExtractPredicate { bit, value: true };
        let no = BitExtractPredicate { bit, value: false };
        prop_assert_eq!(count(&records, &yes) + count(&records, &no), records.len());
    }

    /// FnPredicate is a transparent wrapper.
    #[test]
    fn fn_predicate_transparent(r in arb_bits(8), bit in 0usize..8) {
        let direct = BitExtractPredicate { bit, value: true };
        let wrapped = FnPredicate::<BitVec>::new("wrap", move |x| x.get(bit));
        prop_assert_eq!(direct.eval(&r), wrapped.eval(&r));
    }
}

// ---------------------------------------------------------------------------
// Bitmap scan kernels vs the row-at-a-time oracle.
// ---------------------------------------------------------------------------

use so_data::{AttributeDef, AttributeRole, DataType, Dataset, DatasetBuilder, Schema, Value};
use so_query::{
    count_dataset, count_dataset_scalar, scan_dataset, select_dataset, select_dataset_scalar,
    AllRowPredicate, IntRangePredicate, RowPredicate, ValueEqualsPredicate,
};

/// Arbitrary two-column dataset (Int with missings, Str with missings).
/// Row counts range over 1..200, so tail words with `n % 64 != 0` are the
/// common case and exact multiples of 64 are exercised too.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    arb_rows().prop_map(build_dataset)
}

type RowRecipe = (Option<i64>, Option<usize>);

fn arb_rows() -> impl Strategy<Value = Vec<RowRecipe>> {
    // (present?, value) pairs stand in for Option strategies.
    proptest::collection::vec(
        (
            (any::<bool>(), -50i64..50).prop_map(|(p, v)| p.then_some(v)),
            (any::<bool>(), 0usize..4).prop_map(|(p, v)| p.then_some(v)),
        ),
        1..200,
    )
}

fn build_dataset(rows: Vec<RowRecipe>) -> Dataset {
    let schema = Schema::new(vec![
        AttributeDef::new("a", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("s", DataType::Str, AttributeRole::Sensitive),
    ]);
    let mut b = DatasetBuilder::new(schema);
    let syms: Vec<_> = (0..4).map(|i| b.intern(&format!("v{i}"))).collect();
    for (a, s) in rows {
        b.push_row(vec![
            a.map_or(Value::Missing, Value::Int),
            s.map_or(Value::Missing, |i| Value::Str(syms[i])),
        ]);
    }
    b.finish()
}

/// The oracle bitmap: evaluate `eval_row` on every row.
fn oracle_scan(ds: &Dataset, p: &dyn RowPredicate) -> BitVec {
    BitVec::from_fn(ds.n_rows(), |r| p.eval_row(ds, r))
}

proptest! {
    /// The typed int-range kernel agrees with the row-at-a-time oracle on
    /// count, selection, and every individual bit.
    #[test]
    fn int_range_scan_matches_oracle(
        ds in arb_dataset(),
        lo in -60i64..60,
        span in 0i64..60,
    ) {
        let p = IntRangePredicate { col: 0, lo, hi: lo + span };
        let bitmap = scan_dataset(&ds, &p);
        prop_assert_eq!(&bitmap, &oracle_scan(&ds, &p));
        prop_assert_eq!(count_dataset(&ds, &p), count_dataset_scalar(&ds, &p));
        prop_assert_eq!(select_dataset(&ds, &p), select_dataset_scalar(&ds, &p));
    }

    /// The value-equality kernel (Str and Missing targets) agrees with the
    /// oracle. Matching `Value::Missing` selects exactly the masked rows.
    #[test]
    fn value_equals_scan_matches_oracle(ds in arb_dataset(), pick in 0usize..5) {
        let value = if pick == 4 {
            Value::Missing
        } else {
            // A symbol actually present in the dataset's interner.
            match (0..ds.n_rows()).map(|r| ds.get(r, 1)).find(|v| *v != Value::Missing) {
                Some(v) => v,
                None => Value::Missing,
            }
        };
        let p = ValueEqualsPredicate { col: 1, value };
        prop_assert_eq!(&scan_dataset(&ds, &p), &oracle_scan(&ds, &p));
        prop_assert_eq!(count_dataset(&ds, &p), count_dataset_scalar(&ds, &p));
    }

    /// Word-level AND/OR/NOT on scan bitmaps equals pointwise boolean
    /// algebra on the oracle, including the tail word.
    #[test]
    fn bitmap_algebra_matches_pointwise(
        ds in arb_dataset(),
        lo in -60i64..60,
        span in 0i64..60,
    ) {
        let a = IntRangePredicate { col: 0, lo, hi: lo + span };
        let b = IntRangePredicate { col: 0, lo: lo + span / 2, hi: lo + span + 10 };
        let (va, vb) = (scan_dataset(&ds, &a), scan_dataset(&ds, &b));
        let and = va.and(&vb);
        let or = va.or(&vb);
        let not_a = va.not();
        for r in 0..ds.n_rows() {
            let (ea, eb) = (a.eval_row(&ds, r), b.eval_row(&ds, r));
            prop_assert_eq!(and.get(r), ea && eb, "AND row {}", r);
            prop_assert_eq!(or.get(r), ea || eb, "OR row {}", r);
            prop_assert_eq!(not_a.get(r), !ea, "NOT row {}", r);
        }
        // Tail invariant: complements never leak bits past n_rows.
        prop_assert_eq!(not_a.count_ones(), ds.n_rows() - va.count_ones());
    }

    /// The conjunction scan (word-level AND with early exit) equals the
    /// row-at-a-time conjunction.
    #[test]
    fn all_predicate_scan_matches_oracle(
        ds in arb_dataset(),
        lo in -60i64..60,
        span in 0i64..60,
    ) {
        let p = AllRowPredicate {
            parts: vec![
                Box::new(IntRangePredicate { col: 0, lo, hi: lo + span }),
                Box::new(IntRangePredicate { col: 0, lo: lo - 5, hi: lo + span / 2 }),
            ],
        };
        prop_assert_eq!(&scan_dataset(&ds, &p), &oracle_scan(&ds, &p));
        prop_assert_eq!(count_dataset(&ds, &p), count_dataset_scalar(&ds, &p));
        prop_assert_eq!(select_dataset(&ds, &p), select_dataset_scalar(&ds, &p));
    }
}

// ---------------------------------------------------------------------------
// Whole-workload planning vs the scalar oracle.
// ---------------------------------------------------------------------------

use std::sync::Arc;

use so_data::VersionedDataset;
use so_plan::workload::{Noise, WorkloadSpec};
use so_query::{CountingEngine, FnRowPredicate, NotRowPredicate, WorkloadAnswer};

/// A generated workload entry: a predicate over the two-column dataset of
/// [`arb_dataset`], possibly negated, possibly a duplicate of an earlier
/// entry, possibly an opaque closure.
#[derive(Debug, Clone)]
enum Entry {
    Range { lo: i64, span: i64, negate: bool },
    DuplicateOf(usize),
    Opaque { modulus: i64 },
}

fn arb_entries() -> impl Strategy<Value = Vec<Entry>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (-60i64..60, 0i64..60, any::<bool>())
                .prop_map(|(lo, span, negate)| Entry::Range { lo, span, negate }),
            1 => (0usize..64).prop_map(Entry::DuplicateOf),
            1 => (1i64..5).prop_map(|modulus| Entry::Opaque { modulus }),
        ],
        1..24,
    )
}

fn entry_predicate(e: &Entry, entries: &[Entry]) -> Box<dyn RowPredicate> {
    match e {
        Entry::Range { lo, span, negate } => {
            let inner = IntRangePredicate {
                col: 0,
                lo: *lo,
                hi: lo + span,
            };
            if *negate {
                Box::new(NotRowPredicate {
                    inner: Box::new(inner),
                })
            } else {
                Box::new(inner)
            }
        }
        // Duplicates resolve to another range entry so structurally equal
        // predicates genuinely repeat in the workload (opaque closures are
        // identity-keyed, so duplicating one would not be structural).
        Entry::DuplicateOf(i) => {
            let target = &entries[i % entries.len()];
            match target {
                Entry::Range { .. } => entry_predicate(target, entries),
                _ => Box::new(IntRangePredicate {
                    col: 0,
                    lo: 0,
                    hi: 10,
                }),
            }
        }
        Entry::Opaque { modulus } => {
            let m = *modulus;
            Box::new(FnRowPredicate::new(
                "mod-test",
                move |ds, r| matches!(ds.get(r, 0), Value::Int(v) if v.rem_euclid(m) == 0),
            ))
        }
    }
}

proptest! {
    /// `execute_workload` answers every query exactly as the row-at-a-time
    /// scalar oracle does — across duplicate and negated entries, opaque
    /// closure predicates, and row counts with `n % 64 != 0` tails.
    #[test]
    fn execute_workload_matches_scalar_oracle(
        ds in arb_dataset(),
        entries in arb_entries(),
    ) {
        let preds: Vec<Box<dyn RowPredicate>> = entries
            .iter()
            .map(|e| entry_predicate(e, &entries))
            .collect();
        let mut spec = WorkloadSpec::new(ds.n_rows());
        for (e, p) in entries.iter().zip(&preds) {
            match e {
                // Opaque closures must go in by Arc so the planner can
                // execute them; structural predicates take the lift path.
                Entry::Opaque { modulus } => {
                    let m = *modulus;
                    spec.push_predicate_arc(
                        Arc::new(FnRowPredicate::new("mod-test", move |ds, r| {
                            matches!(ds.get(r, 0), Value::Int(v) if v.rem_euclid(m) == 0)
                        })),
                        Noise::Exact,
                    );
                }
                _ => {
                    spec.push_predicate(p.as_ref(), Noise::Exact);
                }
            }
        }
        let mut engine = CountingEngine::new(VersionedDataset::new(ds.clone()), None);
        let out = engine.execute_workload(&spec);
        prop_assert_eq!(out.answers.len(), preds.len());
        for (i, (p, answer)) in preds.iter().zip(&out.answers).enumerate() {
            let oracle = (0..ds.n_rows()).filter(|&r| p.eval_row(&ds, r)).count();
            prop_assert_eq!(
                answer,
                &WorkloadAnswer::Count(oracle),
                "query {} ({}) diverged from the scalar oracle",
                i,
                p.describe()
            );
        }
        // Every Pred query got a target in the engine pool, and duplicates
        // never inflate the distinct-target count.
        prop_assert!(out.targets.iter().all(Option::is_some));
        prop_assert!(out.stats.distinct_targets <= preds.len());
    }

    /// Engine answers are invariant to the worker thread count: the same
    /// workload (typed atoms, negations, duplicates, and opaque
    /// `FnRowPredicate` closures) executed by a single-threaded engine and
    /// a multi-threaded one produces identical answers, targets, and
    /// execution stats — on row counts above and below the thread count and
    /// off word boundaries.
    #[test]
    fn engine_answers_are_thread_count_invariant(
        ds in arb_dataset(),
        entries in arb_entries(),
        threads in 2usize..9,
    ) {
        let preds: Vec<Box<dyn RowPredicate>> = entries
            .iter()
            .map(|e| entry_predicate(e, &entries))
            .collect();
        let mut spec = WorkloadSpec::new(ds.n_rows());
        for (e, p) in entries.iter().zip(&preds) {
            match e {
                Entry::Opaque { modulus } => {
                    let m = *modulus;
                    spec.push_predicate_arc(
                        Arc::new(FnRowPredicate::new("mod-test", move |ds, r| {
                            matches!(ds.get(r, 0), Value::Int(v) if v.rem_euclid(m) == 0)
                        })),
                        Noise::Exact,
                    );
                }
                _ => {
                    spec.push_predicate(p.as_ref(), Noise::Exact);
                }
            }
        }
        let data = VersionedDataset::new(ds.clone());
        let mut serial = CountingEngine::new(&data, None);
        serial.set_threads(1);
        let a = serial.execute_workload(&spec);
        let mut parallel = CountingEngine::new(&data, None);
        parallel.set_threads(threads);
        prop_assert_eq!(parallel.threads(), threads);
        let b = parallel.execute_workload(&spec);
        prop_assert_eq!(&a.answers, &b.answers, "threads={}", threads);
        prop_assert_eq!(&a.targets, &b.targets, "threads={}", threads);
        prop_assert_eq!(a.stats, b.stats, "threads={}", threads);
        // The single-query path shards too: same count, uncached and then
        // from the cache.
        let probe = IntRangePredicate { col: 0, lo: -10, hi: 10 };
        prop_assert_eq!(serial.count(&probe), parallel.count(&probe));
        prop_assert_eq!(serial.count(&probe), parallel.count(&probe));
    }
}
