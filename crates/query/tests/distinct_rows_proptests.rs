//! Oracle tests for counting over the distinct-row form.
//!
//! `CountingEngine` answers plans with no opaque atom from a segment's
//! weighted distinct-row form when it has at most `n / 64` distinct rows
//! and no tombstones. Here every answer must equal `QueryPlan::execute`
//! over the full live relation — the bitmap path, which stays the oracle —
//! on random Int/Float/Str datasets with Missing cells, NaN and −0.0,
//! `n % 64 != 0`, and exactly `n / 64` (a form exists) or `n / 64 + 1` (no
//! form) distinct rows, under random AND/OR/NOT trees over all four
//! tabular atoms:
//!
//! * over one segment, at `SO_THREADS` 1 and 8;
//! * over a form-eligible base mutated by inserts that open and freeze
//!   delta segments (some with forms, some leaving whole columns Missing),
//!   deletes, and compaction, at 1 and 4 threads, after every op.
//!
//! Only the first test sets `SO_THREADS`; the others set their thread
//! counts explicitly, so the variable cannot change what they run.

use std::collections::HashSet;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use so_data::{
    AttributeDef, AttributeRole, DataType, Dataset, DatasetBuilder, Schema, Symbol, Value,
    VersionedDataset, DELTA_SEGMENT_ROWS,
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
/// `distinct` is `n / 64`, or `n / 64 + 1` when `over`.
fn arb_layout(
    over: impl Strategy<Value = bool>,
) -> impl Strategy<Value = (usize, usize, Vec<Pattern>, Vec<usize>)> {
    (2usize..10, 1usize..64, over).prop_flat_map(|(k, r, over)| {
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

/// The cells of one row recipe.
fn row(pattern: Pattern, syms: [Symbol; 3]) -> Vec<Value> {
    let (a, x, s) = pattern;
    vec![
        a.map_or(Value::Missing, Value::Int),
        x.map_or(Value::Missing, |f| Value::Float(FLOATS[f])),
        s.map_or(Value::Missing, |i| Value::Str(syms[i])),
    ]
}

/// Builds a dataset of `n` rows with exactly `distinct` distinct rows:
/// deduplicated candidate patterns (topped up with fresh Int values), each
/// placed at least once, the rest of the rows picked at random. Also
/// returns the patterns.
fn build(
    n: usize,
    distinct: usize,
    candidates: Vec<Pattern>,
    mut picks: Vec<usize>,
) -> (Dataset, Vec<Pattern>) {
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
        b.push_row(row(patterns[pick], syms));
    }
    (b.finish(), patterns)
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

/// One mutation of a segmented dataset.
#[derive(Debug, Clone)]
enum Op {
    /// Insert `count` rows drawn from the first `1 + width` patterns,
    /// column `blank` (if below 3) Missing in every one of them.
    Insert {
        count: usize,
        width: usize,
        seed: u64,
        blank: usize,
    },
    /// Delete the live rows at these positions, each modulo the live count.
    Delete(Vec<u64>),
}

/// Small batches, and batches that fill and freeze a delta segment.
fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            prop_oneof![1usize..80, DELTA_SEGMENT_ROWS - 8..DELTA_SEGMENT_ROWS + 80],
            0usize..8,
            any::<u64>(),
            0usize..4,
        )
            .prop_map(|(count, width, seed, blank)| Op::Insert {
                count,
                width,
                seed,
                blank,
            }),
        proptest::collection::vec(any::<u64>(), 1..12).prop_map(Op::Delete),
    ]
}

fn apply(engine: &mut CountingEngine<VersionedDataset>, op: &Op, patterns: &[Pattern]) {
    match op {
        Op::Insert {
            count,
            width,
            seed,
            blank,
        } => {
            let syms = builder().1;
            let width = (width + 1).min(patterns.len()) as u64;
            let rows: Vec<Vec<Value>> = (0..*count as u64)
                .map(|i| {
                    let pick = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 40;
                    let mut cells = row(patterns[(pick % width) as usize], syms);
                    if let Some(cell) = cells.get_mut(*blank) {
                        *cell = Value::Missing;
                    }
                    cells
                })
                .collect();
            engine.insert_rows(&rows);
        }
        Op::Delete(positions) => {
            let live = engine.dataset().n_live();
            if live > 0 {
                let idx: Vec<usize> = positions
                    .iter()
                    .map(|&p| (p % live as u64) as usize)
                    .collect();
                engine.delete_live(&idx);
            }
        }
    }
}

/// The oracle: the full bitmap path over a one-segment snapshot of the
/// live rows.
fn snapshot_oracle(data: &VersionedDataset, spec: &WorkloadSpec) -> Vec<WorkloadAnswer> {
    let snap = data.snapshot();
    let plan = QueryPlan::from_spec(spec);
    let (outcomes, _) = plan.execute(spec.pool(), &snap, spec.evaluators(), &mut NodeCache::new());
    outcomes
        .iter()
        .map(|o| match o {
            PlanOutcome::Count(c) => WorkloadAnswer::Count(*c),
            PlanOutcome::Unanswerable => WorkloadAnswer::Unanswerable,
        })
        .collect()
}

fn spec_of(shapes: &[PredShape], n_rows: usize) -> WorkloadSpec {
    let mut spec = WorkloadSpec::new(n_rows);
    for s in shapes {
        spec.push_shape(s, Noise::Exact);
    }
    spec
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
        (n, distinct, candidates, picks) in arb_layout(any::<bool>()),
        shapes in proptest::collection::vec(Tree(3), 1..10),
    ) {
        let (ds, _) = build(n, distinct, candidates, picks);
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
            let mut engine = CountingEngine::new(VersionedDataset::new(ds.clone()), None);
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

    #[test]
    fn segmented_counts_equal_the_snapshot_oracle(
        (n, distinct, candidates, picks) in arb_layout(Just(false)),
        shapes in proptest::collection::vec(Tree(3), 1..6),
        ops in proptest::collection::vec(arb_op(), 1..6),
        threshold in 1usize..4,
    ) {
        let (base, patterns) = build(n, distinct, candidates, picks);
        prop_assert!(n % 64 != 0 && base.distinct_rows().is_some());
        let mut engines: Vec<CountingEngine<VersionedDataset>> = [1, 4]
            .into_iter()
            .map(|threads| {
                let data = VersionedDataset::with_compact_threshold(base.clone(), threshold);
                let mut engine = CountingEngine::new(data, None);
                engine.set_threads(threads);
                engine
            })
            .collect();
        for step in 0..=ops.len() {
            if step > 0 {
                for engine in &mut engines {
                    apply(engine, &ops[step - 1], &patterns);
                }
            }
            let spec = spec_of(&shapes, engines[0].dataset().n_live());
            let oracle = snapshot_oracle(engines[0].dataset(), &spec);
            for engine in &mut engines {
                let out = engine.execute_workload(&spec);
                prop_assert_eq!(
                    &out.answers,
                    &oracle,
                    "after {} ops at {} threads",
                    step,
                    engine.threads()
                );
            }
        }
    }
}

/// A form-eligible base that gains its first tombstone leaves the form
/// (its plans rescan the full rows, masked), stays exact, and counts over
/// a form again once compaction folds the tombstone away.
#[test]
fn a_tombstone_moves_the_base_off_its_form_until_compaction() {
    let patterns: Vec<Pattern> = (0..5).map(|a| (Some(a), None, Some(0))).collect();
    let syms = builder().1;
    let (mut b, _) = builder();
    for i in 0..650 {
        b.push_row(row(patterns[i % 5], syms));
    }
    let base = b.finish();
    assert_eq!(base.distinct_rows().map(|f| f.rows().n_rows()), Some(5));
    let shapes = [
        PredShape::IntRange {
            col: 0,
            lo: 1,
            hi: 3,
        },
        PredShape::Not(Box::new(PredShape::ValueEquals {
            col: 0,
            value: Value::Int(4),
        })),
    ];
    // Threshold 1: the first insert compacts.
    let mut engine = CountingEngine::new(VersionedDataset::with_compact_threshold(base, 1), None);
    let run = |engine: &mut CountingEngine<VersionedDataset>| {
        let spec = spec_of(&shapes, engine.dataset().n_live());
        let out = engine.execute_workload(&spec);
        assert_eq!(out.answers, snapshot_oracle(engine.dataset(), &spec));
        assert!(out.stats.atom_scans > 0);
        out.rows_scanned / out.stats.atom_scans as u64
    };
    assert_eq!(run(&mut engine), 5, "scans read the 5-row form");
    engine.delete_live(&[0]);
    assert_eq!(run(&mut engine), 650, "a tombstone moves scans to the rows");
    let eff = engine.insert_rows(&[row(patterns[1], syms)]);
    assert!(eff.compacted);
    assert_eq!(engine.dataset().n_segments(), 1);
    assert_eq!(run(&mut engine), 5, "compaction brings the form back");
}
