//! E19 — incremental engine: a checked-in mutation transcript replayed
//! through [`so_query::IncrementalEngine`], the repair economics of
//! delta-segment caches versus from-scratch rebuilds, and the
//! [`so_analyze::IncrementalGate`]'s continual-release ε accounting and
//! lint memo across dataset versions.
//!
//! Everything here is deterministic arithmetic — no RNG, no clock — so the
//! rendered tables are byte-identical across `SO_THREADS`. CI replays this experiment under every configuration
//! axis and diffs the output against the checked-in
//! `experiments/e19_transcript.txt` artifact.

use std::sync::Arc;

use so_analyze::{IncrementalGate, LintConfig};
use so_data::{
    AttributeDef, AttributeRole, DataType, DatasetBuilder, Schema, Value, VersionedDataset,
};
use so_dp::ContinualAccountant;
use so_plan::parallel::ParallelExecutor;
use so_plan::shape::PredShape;
use so_plan::workload::{Noise, WorkloadSpec};
use so_query::{IncrementalEngine, MutationOp, MutationTranscript, ReplayConfig, WorkloadAnswer};

use crate::{Scale, Table};

/// Two-column Int schema shared by every E19 relation.
fn schema() -> Arc<Schema> {
    Schema::new(vec![
        AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("score", DataType::Int, AttributeRole::Sensitive),
    ])
}

/// Deterministic row `i` of the synthetic relation.
fn row(i: usize) -> Vec<Value> {
    Vec::from([Value::Int((i % 90) as i64), Value::Int((i % 25) as i64)])
}

/// A late-arriving row: the sensitive column is missing, so delta segments
/// built from these rows leave column 1 untouched and the engine can
/// synthesize column-1 atom bitmaps without scanning (shortcut atoms).
fn delta_row(i: usize) -> Vec<Value> {
    Vec::from([Value::Int((i % 90) as i64), Value::Missing])
}

/// The recurring counting workload: a range scan, a point lookup, and a
/// small range on the sensitive column.
fn probe_shapes() -> Vec<PredShape> {
    Vec::from([
        PredShape::IntRange {
            col: 0,
            lo: 10,
            hi: 40,
        },
        PredShape::ValueEquals {
            col: 1,
            value: Value::Int(7),
        },
        PredShape::IntRange {
            col: 1,
            lo: 0,
            hi: 4,
        },
    ])
}

/// The E19 mutation transcript: workloads interleaved with inserts and
/// deletes, ending in a pure-DP release. Pure data; see
/// [`MutationTranscript`].
fn e19_transcript(n_initial: usize, batch: usize) -> MutationTranscript {
    let initial: Vec<Vec<Value>> = (0..n_initial).map(row).collect();
    let batch1: Vec<Vec<Value>> = (0..batch).map(|i| delta_row(n_initial + i)).collect();
    let batch2: Vec<Vec<Value>> = (0..batch)
        .map(|i| delta_row(n_initial + batch + i))
        .collect();
    let ops = Vec::from([
        MutationOp::Workload {
            shapes: probe_shapes(),
            noise: Noise::Exact,
        },
        MutationOp::Insert { rows: batch1 },
        MutationOp::Workload {
            shapes: probe_shapes(),
            noise: Noise::Exact,
        },
        MutationOp::DeleteLive {
            indices: Vec::from([0, 1, n_initial / 2, n_initial - 1]),
        },
        MutationOp::Workload {
            shapes: probe_shapes(),
            noise: Noise::Exact,
        },
        MutationOp::Insert { rows: batch2 },
        MutationOp::Workload {
            shapes: Vec::from([
                PredShape::IntRange {
                    col: 0,
                    lo: 0,
                    hi: 89,
                },
                PredShape::ValueEquals {
                    col: 1,
                    value: Value::Int(7),
                },
                PredShape::IntRange {
                    col: 1,
                    lo: 0,
                    hi: 4,
                },
            ]),
            noise: Noise::PureDp { epsilon: 0.1 },
        },
    ]);
    MutationTranscript {
        schema: schema(),
        initial,
        ops,
    }
}

/// Live row count immediately before each workload op, in op order.
fn live_at_workloads(t: &MutationTranscript) -> Vec<usize> {
    let mut live = t.initial.len();
    let mut at = Vec::new();
    for op in &t.ops {
        match op {
            MutationOp::Insert { rows } => live += rows.len(),
            MutationOp::DeleteLive { indices } => {
                let dedup: std::collections::BTreeSet<usize> = indices.iter().copied().collect();
                live -= dedup.len();
            }
            MutationOp::Workload { .. } => at.push(live),
        }
    }
    at
}

/// Renders one workload verdict for a table cell.
fn verdict(answers: &[WorkloadAnswer]) -> &'static str {
    if answers.iter().any(|a| matches!(a, WorkloadAnswer::Refused)) {
        "refused"
    } else if answers
        .iter()
        .any(|a| matches!(a, WorkloadAnswer::Unanswerable))
    {
        "unanswerable"
    } else {
        "answered"
    }
}

/// A benign two-query pure-DP workload over `n_rows` live rows.
fn dp_workload(n_rows: usize, epsilon: f64) -> WorkloadSpec {
    let mut spec = WorkloadSpec::new(n_rows);
    let noise = Noise::PureDp { epsilon };
    spec.push_shape(
        &PredShape::IntRange {
            col: 0,
            lo: 10,
            hi: 40,
        },
        noise,
    );
    spec.push_shape(
        &PredShape::ValueEquals {
            col: 1,
            value: Value::Int(3),
        },
        noise,
    );
    spec
}

/// A differencing-tracker workload (wide range plus a hash-residue
/// refinement of it) that the lint layer denies: the residue's design
/// weight `1/65536` provably isolates ≤ 1 row at either scale.
fn tracker_workload(n_rows: usize) -> WorkloadSpec {
    let wide = PredShape::IntRange {
        col: 0,
        lo: 0,
        hi: 1000,
    };
    let tracker = PredShape::And(Vec::from([
        wide.clone(),
        PredShape::Not(Box::new(PredShape::RowHash {
            key: 0xBEEF,
            modulus: 65_536,
            target: 0,
            cols: Vec::from([0]),
        })),
    ]));
    let mut spec = WorkloadSpec::new(n_rows);
    spec.push_shape(&wide, Noise::Exact);
    spec.push_shape(&tracker, Noise::Exact);
    spec
}

/// Builds the gated relation for the accountant / memo tables.
fn gate_engine(n_rows: usize) -> IncrementalEngine {
    let mut b = DatasetBuilder::new(schema());
    for i in 0..n_rows {
        b.push_row(row(i));
    }
    let ds = b.finish();
    IncrementalEngine::new(VersionedDataset::new(ds), None)
}

/// Table E19.1+2: replay the transcript under the env-selected
/// configuration and compare the repair economics against the
/// from-scratch oracle.
fn replay_tables(scale: Scale) -> (Table, Table) {
    let n_initial = scale.pick(600, 12_000);
    let batch = scale.pick(40, 400);
    let t = e19_transcript(n_initial, batch);
    let exec = ParallelExecutor::from_env();
    let cfg = ReplayConfig {
        threads: exec.threads(),
        compact_threshold: so_data::compact_threshold_from_env(),
    };
    let outcome = t.replay(&cfg);

    let mut log_table = Table::new(
        "E19.1 mutation transcript replay (env-selected config)",
        &["step", "event"],
    );
    for (i, line) in outcome.log.lines().enumerate() {
        log_table.row(Vec::from([i.to_string(), line.to_owned()]));
    }

    // From-scratch oracle: rebuild the live relation for every workload and
    // confirm the incremental answers bit-for-bit.
    let oracle = t.oracle_answers();
    let identical = oracle == outcome.answers;
    let rescanned: usize = live_at_workloads(&t).iter().sum();
    let s = outcome.stats;
    let mut econ = Table::new(
        "E19.2 cache repair economics (incremental vs from-scratch rebuild)",
        &[
            "mode",
            "workloads",
            "rows rescanned",
            "segment repairs",
            "segment cache hits",
            "shortcut atoms",
            "answers",
        ],
    );
    econ.row(Vec::from([
        "incremental".to_owned(),
        s.workloads.to_string(),
        s.repaired_rows.to_string(),
        s.segment_repairs.to_string(),
        s.segment_hits.to_string(),
        s.shortcut_atoms.to_string(),
        "baseline".to_owned(),
    ]));
    econ.row(Vec::from([
        "full rescan oracle".to_owned(),
        oracle.len().to_string(),
        rescanned.to_string(),
        "-".to_owned(),
        "-".to_owned(),
        "-".to_owned(),
        if identical { "identical" } else { "MISMATCH" }.to_owned(),
    ]));
    (log_table, econ)
}

/// Table E19.3: continual-release ε accounting across dataset versions,
/// lifetime and windowed.
fn accountant_table(scale: Scale) -> Table {
    let n_rows = scale.pick(400, 4_000);
    let mut table = Table::new(
        "E19.3 continual-release budget across versions",
        &[
            "accountant",
            "step",
            "version",
            "live rows",
            "workload ε",
            "spent",
            "remaining",
            "verdict",
        ],
    );

    // Lifetime accountant: ε composes forever; budget 1.0 admits three
    // 0.3-ε workloads and refuses the rest.
    let mut gate = IncrementalGate::with_accountant(
        gate_engine(n_rows),
        LintConfig::default(),
        ContinualAccountant::new(1.0),
    );
    for step in 0..5usize {
        if step > 0 {
            gate.insert_rows(&[row(n_rows + 2 * step), row(n_rows + 2 * step + 1)]);
        }
        let live = gate.engine().dataset().n_live();
        let w = gate.execute(dp_workload(live, 0.15));
        let acct = gate.accountant().expect("accountant attached");
        table.row(Vec::from([
            "lifetime(1.0)".to_owned(),
            step.to_string(),
            format!("v{}", acct.version()),
            live.to_string(),
            "0.30".to_owned(),
            format!("{:.2}", acct.spent()),
            format!("{:.2}", acct.remaining()),
            verdict(&w.answers).to_owned(),
        ]));
    }

    // Windowed accountant: only the last two versions count, so refused
    // expenditure ages out and later versions are re-admitted.
    let mut gate = IncrementalGate::with_accountant(
        gate_engine(n_rows),
        LintConfig::default(),
        ContinualAccountant::with_window(0.5, 2),
    );
    for step in 0..4usize {
        if step > 0 {
            gate.insert_rows(&[row(n_rows + 100 + step)]);
        }
        let live = gate.engine().dataset().n_live();
        let w = gate.execute(dp_workload(live, 0.15));
        let acct = gate.accountant().expect("accountant attached");
        table.row(Vec::from([
            "window=2(0.5)".to_owned(),
            step.to_string(),
            format!("v{}", acct.version()),
            live.to_string(),
            "0.30".to_owned(),
            format!("{:.2}", acct.spent()),
            format!("{:.2}", acct.remaining()),
            verdict(&w.answers).to_owned(),
        ]));
    }
    table
}

/// Table E19.4: the lint memo — verdicts are recomputed only when the
/// lint-relevant signature (structural hashes, noise, live row count)
/// changes, and memoized refusals still refuse.
fn memo_table(scale: Scale) -> Table {
    let n_rows = scale.pick(400, 4_000);
    let mut gate = IncrementalGate::new(gate_engine(n_rows), LintConfig::default());
    let mut table = Table::new(
        "E19.4 lint memo across versions",
        &[
            "step",
            "action",
            "lint",
            "verdict",
            "fresh lints",
            "memo hits",
        ],
    );
    let mut step = 0usize;
    let mut run =
        |gate: &mut IncrementalGate, table: &mut Table, action: &str, spec: WorkloadSpec| {
            let before = (gate.relints(), gate.relints_skipped());
            let w = gate.execute(spec);
            let lint = if gate.relints() > before.0 {
                "fresh"
            } else {
                "memo"
            };
            table.row(Vec::from([
                step.to_string(),
                action.to_owned(),
                lint.to_owned(),
                verdict(&w.answers).to_owned(),
                gate.relints().to_string(),
                gate.relints_skipped().to_string(),
            ]));
            step += 1;
        };
    let live = gate.engine().dataset().n_live();
    run(
        &mut gate,
        &mut table,
        "benign workload",
        dp_workload(live, 0.05),
    );
    run(
        &mut gate,
        &mut table,
        "same workload again",
        dp_workload(live, 0.05),
    );
    run(
        &mut gate,
        &mut table,
        "tracker workload",
        tracker_workload(live),
    );
    run(
        &mut gate,
        &mut table,
        "tracker workload again",
        tracker_workload(live),
    );
    gate.insert_rows(&[row(n_rows), row(n_rows + 1)]);
    let live = gate.engine().dataset().n_live();
    run(
        &mut gate,
        &mut table,
        "benign after insert (new n)",
        dp_workload(live, 0.05),
    );
    run(
        &mut gate,
        &mut table,
        "same workload again",
        dp_workload(live, 0.05),
    );
    table
}

/// Runs E19 and returns its tables.
pub fn run(scale: Scale) -> Vec<Table> {
    let (log_table, econ) = replay_tables(scale);
    Vec::from([log_table, econ, accountant_table(scale), memo_table(scale)])
}
