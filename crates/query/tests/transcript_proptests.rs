//! Property tests for mutation-transcript replay: any generated
//! interleaving of inserts, deletes, and workloads must (a) answer exactly
//! like a from-scratch rebuild of the final logical relation, and (b)
//! produce byte-identical logs and answers across thread counts — and
//! answer-identical across compaction thresholds.

use std::sync::Arc;

use proptest::prelude::*;
use so_data::{AttributeDef, AttributeRole, DataType, Schema, Value, DELTA_SEGMENT_ROWS};
use so_plan::shape::PredShape;
use so_plan::workload::Noise;
use so_query::{MutationOp, MutationTranscript, ReplayConfig};

fn schema() -> Arc<Schema> {
    Schema::new(vec![
        AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("score", DataType::Int, AttributeRole::Sensitive),
    ])
}

/// A cell: mostly small ints, sometimes Missing (exercises the
/// touched-column shortcuts).
fn arb_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        4 => (0i64..50).prop_map(Value::Int),
        1 => Just(Value::Missing),
    ]
}

fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(arb_cell(), 2)
}

fn arb_atom() -> impl Strategy<Value = PredShape> {
    prop_oneof![
        (0usize..2, 0i64..50, 0i64..50).prop_map(|(col, a, b)| PredShape::IntRange {
            col,
            lo: a.min(b),
            hi: a.max(b),
        }),
        (0usize..2, arb_cell()).prop_map(|(col, value)| PredShape::ValueEquals { col, value }),
    ]
}

fn arb_shape() -> impl Strategy<Value = PredShape> {
    // Depth-1 boolean structure over the atoms is enough to exercise
    // shared-node caching without exploding the plan.
    prop_oneof![
        3 => arb_atom(),
        1 => proptest::collection::vec(arb_atom(), 2..4).prop_map(PredShape::And),
        1 => arb_atom().prop_map(|a| PredShape::Not(Box::new(a))),
    ]
}

/// Ops carry *relative* delete positions (fractions of the current live
/// count) so the generator never has to know the live count in advance;
/// they are resolved into absolute live indices while assembling the
/// transcript.
#[derive(Debug, Clone)]
enum RelOp {
    Insert(Vec<Vec<Value>>),
    /// Delete up to 3 rows at positions `num/den` of the live count.
    Delete(Vec<(usize, usize)>),
    Workload(Vec<PredShape>),
}

fn arb_rel_op() -> impl Strategy<Value = RelOp> {
    prop_oneof![
        proptest::collection::vec(arb_row(), 1..30).prop_map(RelOp::Insert),
        proptest::collection::vec((0usize..100, Just(100usize)), 1..4).prop_map(RelOp::Delete),
        proptest::collection::vec(arb_shape(), 1..4).prop_map(RelOp::Workload),
    ]
}

fn assemble(initial: Vec<Vec<Value>>, rel_ops: Vec<RelOp>) -> MutationTranscript {
    let mut live = initial.len();
    let mut ops = Vec::with_capacity(rel_ops.len());
    for op in rel_ops {
        match op {
            RelOp::Insert(rows) => {
                live += rows.len();
                ops.push(MutationOp::Insert { rows });
            }
            RelOp::Delete(fracs) => {
                if live == 0 {
                    continue;
                }
                let mut indices: Vec<usize> =
                    fracs.iter().map(|&(num, den)| num * live / den).collect();
                indices.sort_unstable();
                indices.dedup();
                live -= indices.len();
                ops.push(MutationOp::DeleteLive { indices });
            }
            RelOp::Workload(shapes) => ops.push(MutationOp::Workload {
                shapes,
                noise: Noise::Exact,
            }),
        }
    }
    MutationTranscript {
        schema: schema(),
        initial,
        ops,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replay equals the from-scratch oracle, byte-identically, under every
    /// thread count; answers are further
    /// invariant across compaction thresholds (eager vs never).
    #[test]
    fn replay_is_deterministic_and_matches_rebuild(
        initial in proptest::collection::vec(arb_row(), 0..120),
        rel_ops in proptest::collection::vec(arb_rel_op(), 1..8),
    ) {
        let t = assemble(initial, rel_ops);
        let reference = t.replay(&ReplayConfig::default());
        prop_assert_eq!(
            &reference.answers,
            &t.oracle_answers(),
            "incremental replay diverged from the from-scratch rebuild"
        );
        prop_assert_eq!(reference.n_live, t.final_live_rows());
        for threads in [1usize, 2, 8] {
            let out = t.replay(&ReplayConfig {
                threads,
                compact_threshold: so_data::DEFAULT_COMPACT_THRESHOLD,
            });
            prop_assert_eq!(&out, &reference, "diverged at {} threads", threads);
        }
        let eager = t.replay(&ReplayConfig { compact_threshold: 1, ..ReplayConfig::default() });
        let lazy = t.replay(&ReplayConfig {
            compact_threshold: 1_000_000,
            ..ReplayConfig::default()
        });
        prop_assert_eq!(&eager.answers, &reference.answers);
        prop_assert_eq!(&lazy.answers, &reference.answers);
        prop_assert_eq!(eager.version, lazy.version);
        prop_assert_eq!(eager.n_live, lazy.n_live);
    }

    /// Inserts large enough to roll delta segments keep the same contract.
    #[test]
    fn segment_rollover_stays_consistent(
        extra in 1usize..3,
        shapes in proptest::collection::vec(arb_shape(), 1..3),
    ) {
        let initial: Vec<Vec<Value>> = (0..64i64)
            .map(|i| vec![Value::Int(i % 50), Value::Int(i % 7)])
            .collect();
        let big: Vec<Vec<Value>> = (0..DELTA_SEGMENT_ROWS as i64 + 5)
            .map(|i| vec![Value::Int(i % 50), Value::Missing])
            .collect();
        let mut ops = vec![
            MutationOp::Workload { shapes: shapes.clone(), noise: Noise::Exact },
            MutationOp::Insert { rows: big },
        ];
        for _ in 0..extra {
            ops.push(MutationOp::Insert {
                rows: vec![vec![Value::Int(1), Value::Int(1)]],
            });
            ops.push(MutationOp::Workload { shapes: shapes.clone(), noise: Noise::Exact });
        }
        ops.push(MutationOp::DeleteLive { indices: vec![0, 64, 70] });
        ops.push(MutationOp::Workload { shapes, noise: Noise::Exact });
        let t = MutationTranscript { schema: schema(), initial, ops };
        let reference = t.replay(&ReplayConfig::default());
        prop_assert_eq!(
            &reference.answers,
            &t.oracle_answers()
        );
        for threads in [2usize, 8] {
            let out = t.replay(&ReplayConfig {
                threads,
                compact_threshold: 2,
            });
            prop_assert_eq!(&out.answers, &reference.answers);
        }
    }
}
