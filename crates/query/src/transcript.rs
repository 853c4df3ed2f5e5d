//! Mutation transcripts: replayable interleavings of inserts, deletes, and
//! workloads against an owning [`CountingEngine`].
//!
//! A [`MutationTranscript`] is pure data — a starting relation plus an
//! ordered op list — and [`MutationTranscript::replay`] is a pure function
//! of (transcript, [`ReplayConfig`]): the textual log and the per-workload
//! answers it produces must be *byte-identical* across thread counts, and
//! the answers must further be identical across compaction thresholds (the
//! log may differ there, since it narrates segment layout). The E19 experiment checks a transcript of
//! this shape into the repo and CI replays it under every configuration
//! axis; the proptests in `tests/transcript_proptests.rs` do the same for
//! *arbitrary* generated transcripts, and additionally compare every answer
//! against a from-scratch rebuild of the final logical relation.
//!
//! Transcripts deliberately carry no randomness and no clock: determinism
//! is the whole point. Rows are plain [`Value`] vectors; `Str` values are
//! only replayable if their symbols appear in the initial rows (the
//! interner is frozen once the base dataset is built — see
//! [`so_data::Dataset::append_rows`]).

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

use so_data::{Dataset, DatasetBuilder, Schema, Value, VersionedDataset};
use so_plan::shape::PredShape;
use so_plan::workload::{Noise, WorkloadSpec};

use crate::engine::{CountingEngine, IncrementalStats, WorkloadAnswer};

/// One step of a mutation transcript.
#[derive(Debug, Clone)]
pub enum MutationOp {
    /// Append rows (each row must match the schema arity).
    Insert {
        /// Rows to append, in order.
        rows: Vec<Vec<Value>>,
    },
    /// Tombstone rows addressed by *live index* at the time the op runs.
    /// Indices address the pre-delete live ordering; out-of-range indices
    /// are clamped away by the generator, never by replay (replay panics,
    /// matching [`VersionedDataset::delete_live`]).
    DeleteLive {
        /// Live indices to delete (duplicates collapse).
        indices: Vec<usize>,
    },
    /// Execute a counting workload over the current live rows.
    Workload {
        /// Query shapes, pushed in order.
        shapes: Vec<PredShape>,
        /// Noise annotation applied to every query in this workload.
        noise: Noise,
    },
}

/// A replayable interleaving of mutations and workloads.
#[derive(Debug, Clone)]
pub struct MutationTranscript {
    /// Schema of the relation.
    pub schema: Arc<Schema>,
    /// Rows of the initial (version 0) dataset.
    pub initial: Vec<Vec<Value>>,
    /// Ordered operations.
    pub ops: Vec<MutationOp>,
}

/// The explicit execution configuration for a replay. Env knobs
/// (`SO_THREADS`, `SO_COMPACT_THRESHOLD`) are
/// process-global; tests sweep configurations by passing them here instead.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Worker threads for per-segment plan execution.
    pub threads: usize,
    /// Delta-segment count that triggers compaction.
    pub compact_threshold: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            threads: 1,
            compact_threshold: so_data::DEFAULT_COMPACT_THRESHOLD,
        }
    }
}

/// Everything a replay produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Human-readable narration, one line per op plus a trailing summary.
    /// Byte-identical across thread counts for a fixed
    /// compaction threshold.
    pub log: String,
    /// Per-workload answers, in op order.
    pub answers: Vec<Vec<WorkloadAnswer>>,
    /// The engine's deterministic repair/shortcut tallies.
    pub stats: IncrementalStats,
    /// Final dataset version.
    pub version: u64,
    /// Final live row count.
    pub n_live: usize,
}

impl MutationTranscript {
    /// Replays the transcript through an owning [`CountingEngine`] under an
    /// explicit configuration.
    pub fn replay(&self, cfg: &ReplayConfig) -> ReplayOutcome {
        let ds = self.build_initial();
        let mut eng = CountingEngine::new(
            VersionedDataset::with_compact_threshold(ds, cfg.compact_threshold),
            None,
        );
        eng.set_threads(cfg.threads);
        let mut log = String::new();
        let mut answers = Vec::new();
        for op in &self.ops {
            match op {
                MutationOp::Insert { rows } => {
                    let eff = eng.insert_rows(rows);
                    let _ = writeln!(
                        log,
                        "insert {} rows -> v{} ({} segments, {} live)",
                        eff.rows_inserted,
                        eff.version,
                        eng.dataset().n_segments(),
                        eng.dataset().n_live(),
                    );
                }
                MutationOp::DeleteLive { indices } => {
                    let eff = eng.delete_live(indices);
                    let _ = writeln!(
                        log,
                        "delete {} live rows -> v{} ({} live)",
                        eff.rows_deleted,
                        eff.version,
                        eng.dataset().n_live(),
                    );
                }
                MutationOp::Workload { shapes, noise } => {
                    let spec = build_workload(eng.dataset().n_live(), shapes, *noise);
                    let w = eng.execute_workload(&spec);
                    let rendered: Vec<String> = w
                        .answers
                        .iter()
                        .map(|a| match a {
                            WorkloadAnswer::Count(c) => c.to_string(),
                            WorkloadAnswer::Refused => "refused".to_owned(),
                            WorkloadAnswer::Unanswerable => "unanswerable".to_owned(),
                        })
                        .collect();
                    let _ = writeln!(
                        log,
                        "workload {} queries -> [{}]",
                        w.answers.len(),
                        rendered.join(", "),
                    );
                    answers.push(w.answers);
                }
            }
        }
        let stats = eng.incremental_stats();
        let _ = writeln!(
            log,
            "final v{} ({} live); repairs={} hits={} shortcut_atoms={} compactions={}",
            eng.dataset().version(),
            eng.dataset().n_live(),
            stats.segment_repairs,
            stats.segment_hits,
            stats.shortcut_atoms,
            stats.compactions,
        );
        ReplayOutcome {
            log,
            answers,
            stats,
            version: eng.dataset().version(),
            n_live: eng.dataset().n_live(),
        }
    }

    /// The from-scratch oracle: maintains the logical live relation as a
    /// plain row vector, and answers each workload by rebuilding an
    /// one-segment dataset of the current live rows and executing the
    /// workload through a fresh [`CountingEngine`]. Shares no segment,
    /// tombstone or cache state with the replayed engine.
    pub fn oracle_answers(&self) -> Vec<Vec<WorkloadAnswer>> {
        let mut live: Vec<Vec<Value>> = self.initial.clone();
        let mut answers = Vec::new();
        for op in &self.ops {
            match op {
                MutationOp::Insert { rows } => live.extend(rows.iter().cloned()),
                MutationOp::DeleteLive { indices } => {
                    // Indices address the pre-delete ordering; collapse
                    // duplicates and remove back-to-front so earlier
                    // removals don't shift later targets.
                    let dedup: BTreeSet<usize> = indices.iter().copied().collect();
                    for &idx in dedup.iter().rev() {
                        assert!(idx < live.len(), "oracle: live index {idx} out of range");
                        live.remove(idx);
                    }
                }
                MutationOp::Workload { shapes, noise } => {
                    let mut b = DatasetBuilder::new(self.schema.clone());
                    for row in &live {
                        b.push_row(row.clone());
                    }
                    let ds = b.finish();
                    let spec = build_workload(ds.n_rows(), shapes, *noise);
                    let mut eng = CountingEngine::new(VersionedDataset::new(ds), None);
                    answers.push(eng.execute_workload(&spec).answers);
                }
            }
        }
        answers
    }

    /// Number of live rows after every op has run (without replaying plans).
    pub fn final_live_rows(&self) -> usize {
        let mut live = self.initial.len();
        for op in &self.ops {
            match op {
                MutationOp::Insert { rows } => live += rows.len(),
                MutationOp::DeleteLive { indices } => {
                    let dedup: BTreeSet<usize> = indices.iter().copied().collect();
                    live -= dedup.len();
                }
                MutationOp::Workload { .. } => {}
            }
        }
        live
    }

    fn build_initial(&self) -> Dataset {
        let mut b = DatasetBuilder::new(self.schema.clone());
        for row in &self.initial {
            b.push_row(row.clone());
        }
        b.finish()
    }
}

fn build_workload(n_rows: usize, shapes: &[PredShape], noise: Noise) -> WorkloadSpec {
    let mut spec = WorkloadSpec::new(n_rows);
    for s in shapes {
        spec.push_shape(s, noise);
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_data::{AttributeDef, AttributeRole, DataType};

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("score", DataType::Int, AttributeRole::Sensitive),
        ])
    }

    fn sample_transcript() -> MutationTranscript {
        let initial: Vec<Vec<Value>> = (0..150)
            .map(|i| vec![Value::Int(i % 90), Value::Int(i % 25)])
            .collect();
        let shapes = vec![
            PredShape::IntRange {
                col: 0,
                lo: 10,
                hi: 40,
            },
            PredShape::And(vec![
                PredShape::IntRange {
                    col: 0,
                    lo: 0,
                    hi: 60,
                },
                PredShape::ValueEquals {
                    col: 1,
                    value: Value::Int(3),
                },
            ]),
            PredShape::ValueEquals {
                col: 1,
                value: Value::Missing,
            },
        ];
        MutationTranscript {
            schema: schema(),
            initial,
            ops: vec![
                MutationOp::Workload {
                    shapes: shapes.clone(),
                    noise: Noise::Exact,
                },
                MutationOp::Insert {
                    rows: vec![
                        vec![Value::Int(20), Value::Int(3)],
                        vec![Value::Missing, Value::Int(3)],
                    ],
                },
                MutationOp::DeleteLive {
                    indices: vec![0, 5, 5, 149],
                },
                MutationOp::Workload {
                    shapes: shapes.clone(),
                    noise: Noise::Exact,
                },
                MutationOp::Insert {
                    rows: vec![vec![Value::Int(33), Value::Int(3)]],
                },
                MutationOp::Workload {
                    shapes,
                    noise: Noise::PureDp { epsilon: 0.5 },
                },
            ],
        }
    }

    #[test]
    fn replay_matches_oracle_and_is_config_invariant() {
        let t = sample_transcript();
        let reference = t.replay(&ReplayConfig::default());
        assert_eq!(
            reference.answers,
            t.oracle_answers(),
            "incremental replay diverged from the from-scratch oracle"
        );
        assert_eq!(reference.n_live, t.final_live_rows());
        for threads in [1usize, 3, 8] {
            let out = t.replay(&ReplayConfig {
                threads,
                compact_threshold: so_data::DEFAULT_COMPACT_THRESHOLD,
            });
            assert_eq!(out, reference, "replay diverged at {threads} threads");
        }
    }

    #[test]
    fn answers_are_invariant_across_compaction_thresholds() {
        let t = sample_transcript();
        let a1 = t.replay(&ReplayConfig {
            compact_threshold: 1,
            ..ReplayConfig::default()
        });
        let a_huge = t.replay(&ReplayConfig {
            compact_threshold: 1_000_000,
            ..ReplayConfig::default()
        });
        assert_eq!(a1.answers, a_huge.answers);
        assert_eq!(a1.version, a_huge.version, "versions count mutations only");
        assert_eq!(a1.n_live, a_huge.n_live);
        assert!(a1.stats.compactions > 0);
        assert_eq!(a_huge.stats.compactions, 0);
    }

    #[test]
    fn log_narrates_every_op() {
        let t = sample_transcript();
        let out = t.replay(&ReplayConfig::default());
        let lines: Vec<&str> = out.log.lines().collect();
        assert_eq!(lines.len(), t.ops.len() + 1, "one line per op plus summary");
        assert!(lines[0].starts_with("workload 3 queries -> ["));
        assert!(lines[1].starts_with("insert 2 rows -> v1"));
        assert!(lines[2].starts_with("delete 3 live rows -> v2"));
        assert!(lines.last().unwrap().starts_with("final v"));
    }
}
