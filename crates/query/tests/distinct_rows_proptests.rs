//! Oracle test for counting over the distinct-row form.
//!
//! `CountingEngine` answers plans with no opaque atom from a dataset's
//! weighted distinct-row form when it has at most `n / 64` distinct rows.
//! Here every answer must equal `QueryPlan::execute` over the full dataset
//! — the bitmap path, which stays the oracle — on random Int/Float/Str
//! datasets with Missing cells, NaN and −0.0, `n % 64 != 0`, and exactly
//! `n / 64` (a form exists) or `n / 64 + 1` (no form) distinct rows, under
//! random AND/OR/NOT trees over all four tabular atoms, at `SO_THREADS` 1
//! and 8.
//!
//! This file holds one test, so setting `SO_THREADS` cannot race with
//! another test in the same binary.

use std::collections::HashSet;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use so_data::{
    AttributeDef, AttributeRole, DataType, Dataset, DatasetBuilder, Schema, Symbol, Value,
};
use so_plan::workload::{Noise, WorkloadSpec};
use so_plan::{NodeCache, PlanOutcome, PredShape, QueryPlan};
use so_query::{CountingEngine, WorkloadAnswer};

const FLOATS: [f64; 5] = [0.0, -0.0, f64::NAN, 1.5, -2.0];

/// One row recipe: `None` is a Missing cell; the Float and Str cells index
/// [`FLOATS`] and the interned strings.
type Pattern = (Option<i64>, Option<usize>, Option<usize>);

/// A cell present four times in five.
fn arb_cell<S: Strategy>(values: S) -> impl Strategy<Value = Option<S::Value>> {
    (0u32..5, values).prop_map(|(p, v)| (p != 0).then_some(v))
}

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    (
        arb_cell(-3i64..4),
        arb_cell(0usize..FLOATS.len()),
        arb_cell(0usize..3),
    )
}

/// `(n, distinct, patterns, picks)`: `n = 64k + r` with `r ≠ 0`, and
/// `distinct` is `n / 64` or `n / 64 + 1`.
fn arb_layout() -> impl Strategy<Value = (usize, usize, Vec<Pattern>, Vec<usize>)> {
    (2usize..10, 1usize..64, any::<bool>()).prop_flat_map(|(k, r, over)| {
        let n = 64 * k + r;
        let distinct = k + usize::from(over);
        (
            Just(n),
            Just(distinct),
            proptest::collection::vec(arb_pattern(), 4 * distinct),
            proptest::collection::vec(0..distinct, n),
        )
    })
}

/// A builder over the Int/Float/Str schema, with the three strings
/// interned in a fixed order (so any two builders agree on the symbols).
fn builder() -> (DatasetBuilder, [Symbol; 3]) {
    let schema = Schema::new(vec![
        AttributeDef::new("a", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("x", DataType::Float, AttributeRole::QuasiIdentifier),
        AttributeDef::new("s", DataType::Str, AttributeRole::Sensitive),
    ]);
    let mut b = DatasetBuilder::new(schema);
    let syms = ["p", "q", "r"].map(|s| b.intern(s));
    (b, syms)
}

/// Builds a dataset of `n` rows with exactly `distinct` distinct rows:
/// deduplicated candidate patterns (topped up with fresh Int values), each
/// placed at least once, the rest of the rows picked at random.
fn build(n: usize, distinct: usize, candidates: Vec<Pattern>, mut picks: Vec<usize>) -> Dataset {
    let mut seen = HashSet::new();
    let mut patterns: Vec<Pattern> = Vec::new();
    for p in candidates {
        let key = (p.0, p.1.map(|f| FLOATS[f].to_bits()), p.2);
        if patterns.len() < distinct && seen.insert(key) {
            patterns.push(p);
        }
    }
    let mut fresh = 100;
    while patterns.len() < distinct {
        patterns.push((Some(fresh), None, None));
        fresh += 1;
    }
    for j in 0..distinct {
        picks[j * (n / distinct)] = j;
    }
    let (mut b, syms) = builder();
    for &pick in &picks {
        let (a, x, s) = patterns[pick];
        b.push_row(vec![
            a.map_or(Value::Missing, Value::Int),
            x.map_or(Value::Missing, |f| Value::Float(FLOATS[f])),
            s.map_or(Value::Missing, |i| Value::Str(syms[i])),
        ]);
    }
    b.finish()
}

/// A cell value for `ValueEquals`, over every column's domain plus Missing.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3i64..4).prop_map(Value::Int),
        (0usize..FLOATS.len()).prop_map(|f| Value::Float(FLOATS[f])),
        (0usize..3).prop_map(|i| Value::Str(builder().1[i])),
        Just(Value::Missing),
    ]
}

fn arb_atom() -> impl Strategy<Value = PredShape> {
    prop_oneof![
        (0usize..3, -4i64..4, 0i64..4).prop_map(|(col, lo, span)| PredShape::IntRange {
            col,
            lo,
            hi: lo + span,
        }),
        (0usize..3, arb_value()).prop_map(|(col, value)| PredShape::ValueEquals { col, value }),
        (
            any::<u64>(),
            2u64..4,
            proptest::collection::vec(0usize..3, 1..3)
        )
            .prop_map(|(key, modulus, cols)| PredShape::RowHash {
                key,
                modulus,
                target: key % modulus,
                cols,
            }),
        (any::<u64>(), 2u64..4).prop_map(|(key, modulus)| PredShape::KeyedHash {
            key,
            modulus,
            target: key % modulus,
        }),
    ]
}

/// AND/OR/NOT trees over [`arb_atom`], at most `.0` levels of operators.
struct Tree(u32);

impl Strategy for Tree {
    type Value = PredShape;

    fn generate(&self, rng: &mut TestRng) -> PredShape {
        let children = |rng: &mut TestRng| -> Vec<PredShape> {
            (0..2 + rng.below(2))
                .map(|_| Tree(self.0 - 1).generate(rng))
                .collect()
        };
        match if self.0 == 0 { 0 } else { rng.below(4) } {
            0 => arb_atom().generate(rng),
            1 => PredShape::And(children(rng)),
            2 => PredShape::Or(children(rng)),
            _ => PredShape::Not(Box::new(Tree(self.0 - 1).generate(rng))),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn counts_over_the_distinct_row_form_equal_the_full_bitmap_path(
        (n, distinct, candidates, picks) in arb_layout(),
        shapes in proptest::collection::vec(Tree(3), 1..10),
    ) {
        let ds = build(n, distinct, candidates, picks);
        prop_assert!(n % 64 != 0);
        let form = ds.distinct_rows();
        prop_assert_eq!(form.is_some(), distinct == n / 64, "n {} distinct {}", n, distinct);
        let mut spec = WorkloadSpec::new(n);
        for s in &shapes {
            spec.push_shape(s, Noise::Exact);
        }
        let plan = QueryPlan::from_spec(&spec);
        let (oracle, _) = plan.execute(spec.pool(), &ds, spec.evaluators(), &mut NodeCache::new());
        let oracle: Vec<WorkloadAnswer> = oracle
            .iter()
            .map(|o| match o {
                PlanOutcome::Count(c) => WorkloadAnswer::Count(*c),
                PlanOutcome::Unanswerable => WorkloadAnswer::Unanswerable,
            })
            .collect();
        let relation_rows = form.map_or(n, |f| f.rows().n_rows());
        for threads in ["1", "8"] {
            std::env::set_var("SO_THREADS", threads);
            let mut engine = CountingEngine::new(&ds, None);
            prop_assert_eq!(engine.threads(), threads.parse::<usize>().unwrap());
            let first = engine.execute_workload(&spec);
            prop_assert_eq!(&first.answers, &oracle, "SO_THREADS={}", threads);
            prop_assert_eq!(
                first.rows_scanned,
                (first.stats.atom_scans * relation_rows) as u64
            );
            // Cached: same answers, nothing rescanned.
            let again = engine.execute_workload(&spec);
            prop_assert_eq!(&again.answers, &oracle, "SO_THREADS={} cached", threads);
            prop_assert_eq!(again.stats.atom_scans, 0);
        }
        std::env::remove_var("SO_THREADS");
    }
}
