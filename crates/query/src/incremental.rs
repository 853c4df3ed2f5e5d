//! Incremental counting engine over a versioned mutable dataset.
//!
//! [`CountingEngine`](crate::engine::CountingEngine) serves an *immutable*
//! [`Dataset`](so_data::Dataset): its node cache never needs invalidation.
//! This module lifts the same compiled-plan machinery over a
//! [`VersionedDataset`] — a base plus delta segments plus tombstones — and
//! makes the cache *repairable* instead of throwaway:
//!
//! * **Per-segment caches.** Each segment (base or delta) gets its own
//!   [`NodeCache`] stamped with the segment's [`Dataset::version`]. A
//!   workload answer is the sum, over segments, of the target bitmap's
//!   popcount masked by that segment's tombstones
//!   ([`SelectionVector::count_and_not`]).
//! * **Delta-scan repair.** Inserts bump only the open tail segment's
//!   version, so repair re-executes the plan over that one small segment;
//!   frozen deltas and the base answer from their warm caches. Deletes flip
//!   tombstone bits without moving rows, so they invalidate *nothing* — the
//!   mask is applied at popcount time. Compaction bumps the dataset's
//!   `base_epoch`, which discards every per-segment cache at once.
//! * **Touched-column shortcuts.** A delta segment records which columns any
//!   of its rows ever set. An atom over an *untouched* column needs no scan:
//!   every cell is `Missing`, so `IntRange` matches nothing and
//!   `ValueEquals` matches all rows iff it tests for `Missing`. Those
//!   selections are synthesized straight into the segment cache before plan
//!   execution.
//!
//! Per-segment plan execution goes through the same
//! [`ParallelExecutor`] as everything else, so answers stay bit-identical
//! across `SO_THREADS` — the property the
//! [`MutationTranscript`](crate::transcript::MutationTranscript) proptests
//! and the E19 CI job enforce.
//!
//! [`Dataset::version`]: so_data::Dataset::version

use so_data::{MutationEffect, SelectionVector, Value, VersionedDataset};
use so_plan::ir::{Atom, PredNode, PredPool};
use so_plan::parallel::ParallelExecutor;
use so_plan::plan::{NodeCache, PlanStats, QueryPlan};
use so_plan::workload::WorkloadSpec;

use crate::audit::QueryAuditor;
use crate::engine::{lower_workload, WorkloadAnswer, WorkloadAnswers};

/// One segment's compiled bitmaps, stamped with the segment dataset version
/// they were computed at (`None` = never built).
#[derive(Debug, Default)]
struct SegmentCache {
    version: Option<u64>,
    nodes: NodeCache,
}

/// Deterministic tallies of what the incremental engine did. Every field is
/// a pure function of the mutation/workload sequence — invariant across
/// thread counts — so transcripts may print
/// them verbatim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Workloads executed.
    pub workloads: usize,
    /// Segment caches (re)built because the segment version moved —
    /// first-time builds included.
    pub segment_repairs: usize,
    /// Segments served from a warm cache (version unchanged).
    pub segment_hits: usize,
    /// Rows in segments whose cache was rebuilt — the volume eligible for
    /// delta re-scanning (a from-scratch engine would rescan every live row
    /// of every segment per workload).
    pub repaired_rows: usize,
    /// Atom selections synthesized from touched-column sets instead of
    /// scanned.
    pub shortcut_atoms: usize,
    /// Rows inserted through this engine.
    pub rows_inserted: usize,
    /// Live rows deleted through this engine.
    pub rows_deleted: usize,
    /// Compactions triggered by mutations through this engine.
    pub compactions: usize,
}

/// A counting-query server over a [`VersionedDataset`], with auditing,
/// per-segment cache repair, and touched-column scan shortcuts.
///
/// Unlike [`CountingEngine`](crate::engine::CountingEngine), this engine
/// *owns* its dataset: mutations ([`IncrementalEngine::insert_rows`],
/// [`IncrementalEngine::delete_live`]) and workloads interleave through one
/// handle, and every mutation leaves a version-bump annotation in the audit
/// trail ([`QueryAuditor::note_version_bump`]).
pub struct IncrementalEngine {
    data: VersionedDataset,
    auditor: QueryAuditor,
    pool: PredPool,
    executor: ParallelExecutor,
    seg_caches: Vec<SegmentCache>,
    epoch: u64,
    plan_stats: PlanStats,
    stats: IncrementalStats,
}

impl IncrementalEngine {
    /// Serves `data` with an optional cap on the number of queries.
    pub fn new(data: VersionedDataset, max_queries: Option<usize>) -> Self {
        Self::with_auditor(data, QueryAuditor::new(max_queries))
    }

    /// Serves `data` with a pre-configured auditor.
    pub fn with_auditor(data: VersionedDataset, auditor: QueryAuditor) -> Self {
        IncrementalEngine {
            data,
            auditor,
            pool: PredPool::new(),
            executor: ParallelExecutor::from_env(),
            seg_caches: Vec::new(),
            epoch: 0,
            plan_stats: PlanStats::default(),
            stats: IncrementalStats::default(),
        }
    }

    /// Sets the worker thread count for per-segment plan execution.
    pub fn set_threads(&mut self, threads: usize) {
        self.executor = ParallelExecutor::with_threads(threads);
    }

    /// The underlying versioned dataset.
    pub fn dataset(&self) -> &VersionedDataset {
        &self.data
    }

    /// The query auditor (trail of queries and version bumps).
    pub fn auditor(&self) -> &QueryAuditor {
        &self.auditor
    }

    /// Mutable auditor access (for policy layers that record refusals).
    pub fn auditor_mut(&mut self) -> &mut QueryAuditor {
        &mut self.auditor
    }

    /// Deterministic repair/shortcut tallies over the engine's lifetime.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Cumulative plan-execution counters (scans, node evaluations, cache
    /// hits) over the engine's lifetime.
    pub fn plan_stats(&self) -> PlanStats {
        self.plan_stats
    }

    /// Consumes the engine, returning the dataset and auditor.
    pub fn into_parts(self) -> (VersionedDataset, QueryAuditor) {
        (self.data, self.auditor)
    }

    /// Inserts rows (see [`VersionedDataset::insert_rows`]; `Str` values
    /// must already be interned in the shared interner) and annotates the
    /// audit trail with the version bump.
    pub fn insert_rows(&mut self, rows: &[Vec<Value>]) -> MutationEffect {
        let eff = self.data.insert_rows(rows);
        self.note_mutation(&eff);
        eff
    }

    /// Tombstones live rows by *live index* (see
    /// [`VersionedDataset::delete_live`]) and annotates the audit trail
    /// with the version bump.
    pub fn delete_live(&mut self, live: &[usize]) -> MutationEffect {
        let eff = self.data.delete_live(live);
        self.note_mutation(&eff);
        eff
    }

    fn note_mutation(&mut self, eff: &MutationEffect) {
        if eff.rows_inserted == 0 && eff.rows_deleted == 0 {
            return;
        }
        self.stats.rows_inserted += eff.rows_inserted;
        self.stats.rows_deleted += eff.rows_deleted;
        if eff.compacted {
            self.stats.compactions += 1;
        }
        self.auditor.note_version_bump(eff.version, &eff.touched);
    }

    /// Plans and executes a whole workload against the dataset's current
    /// version, repairing stale segment caches along the way.
    ///
    /// Admission mirrors
    /// [`CountingEngine::execute_workload`](crate::engine::CountingEngine::execute_workload):
    /// per query the auditor admits or refuses in declaration order, subset
    /// queries are unanswerable, and answers come back in declaration
    /// order. Counts are over *live* rows only — tombstoned rows are masked
    /// out at popcount time, never rescanned.
    pub fn execute_workload(&mut self, spec: &WorkloadSpec) -> WorkloadAnswers {
        crate::obs::query_metrics().workloads.inc();
        self.stats.workloads += 1;
        self.refresh_segment_caches();

        let (plan, mut answers, targets) = lower_workload(spec, &mut self.pool, &mut self.auditor);
        let mut stats = PlanStats::default();
        for i in 0..self.data.n_segments() {
            self.seed_shortcuts(&plan, i);
            let seg = self.data.segment(i);
            let (_, seg_stats) = self.executor.execute(
                &plan,
                &self.pool,
                seg,
                spec.evaluators(),
                &mut self.seg_caches[i].nodes,
            );
            stats.nodes_evaluated += seg_stats.nodes_evaluated;
            stats.atom_scans += seg_stats.atom_scans;
            stats.cache_hits += seg_stats.cache_hits;
        }

        for (answer, target) in answers.iter_mut().zip(&targets) {
            if !matches!(answer, WorkloadAnswer::Count(_)) {
                continue;
            }
            let tid = target.expect("placeholder answers always have a target");
            let mut total = 0usize;
            let mut available = true;
            for (i, cache) in self.seg_caches.iter().enumerate() {
                match cache.nodes.get(&tid) {
                    Some(b) => total += b.count_and_not(self.data.tombstones(i)),
                    None => {
                        available = false;
                        break;
                    }
                }
            }
            *answer = if available {
                WorkloadAnswer::Count(total)
            } else {
                WorkloadAnswer::Unanswerable
            };
        }

        self.plan_stats.nodes_evaluated += stats.nodes_evaluated;
        self.plan_stats.atom_scans += stats.atom_scans;
        self.plan_stats.cache_hits += stats.cache_hits;
        WorkloadAnswers::settle(answers, targets, stats)
    }

    /// Aligns the per-segment caches with the dataset's current shape:
    /// discards everything on an epoch change (compaction), grows the cache
    /// vector for newly opened deltas, and clears any cache whose segment
    /// version moved since it was built.
    fn refresh_segment_caches(&mut self) {
        if self.epoch != self.data.base_epoch() {
            self.seg_caches.clear();
            self.epoch = self.data.base_epoch();
        }
        let n = self.data.n_segments();
        self.seg_caches.truncate(n);
        while self.seg_caches.len() < n {
            self.seg_caches.push(SegmentCache::default());
        }
        let m = crate::obs::query_metrics();
        for i in 0..n {
            let v = self.data.segment(i).version();
            let cache = &mut self.seg_caches[i];
            if cache.version == Some(v) {
                self.stats.segment_hits += 1;
                m.delta_segment_hits.inc();
            } else {
                cache.nodes.clear();
                cache.version = Some(v);
                self.stats.segment_repairs += 1;
                self.stats.repaired_rows += self.data.segment(i).n_rows();
                m.delta_repairs.inc();
            }
        }
    }

    /// Pre-seeds synthesized atom selections into a delta segment's cache:
    /// an atom over a column the segment never touched sees only `Missing`
    /// cells, so its selection is known without scanning. `IntRange` never
    /// matches `Missing`; `ValueEquals` matches it iff the tested value *is*
    /// `Missing`. Hash and bit atoms read actual cell contents and are
    /// never shortcut.
    fn seed_shortcuts(&mut self, plan: &QueryPlan, seg_idx: usize) {
        let touched = match self.data.touched_columns(seg_idx) {
            Some(t) => t,
            None => return, // base segment: every column counts as touched
        };
        let n_rows = self.data.segment(seg_idx).n_rows();
        let nodes = &mut self.seg_caches[seg_idx].nodes;
        let mut seeded = 0usize;
        for &id in plan.order() {
            if nodes.contains_key(&id) {
                continue;
            }
            let synthesized = match self.pool.node(id) {
                PredNode::Atom(Atom::IntRange { col, .. }) if !touched.contains(col) => {
                    Some(SelectionVector::none(n_rows))
                }
                PredNode::Atom(Atom::ValueEquals { col, value }) if !touched.contains(col) => {
                    Some(match value {
                        Value::Missing => SelectionVector::all(n_rows),
                        _ => SelectionVector::none(n_rows),
                    })
                }
                _ => None,
            };
            if let Some(b) = synthesized {
                nodes.insert(id, b);
                seeded += 1;
            }
        }
        if seeded > 0 {
            self.stats.shortcut_atoms += seeded;
            crate::obs::query_metrics()
                .shortcut_atoms
                .add(seeded as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{count_dataset_scalar, CountingEngine};
    use crate::predicate::RowPredicate;
    use so_data::{AttributeDef, AttributeRole, DataType, Dataset, DatasetBuilder, Schema};
    use so_plan::shape::PredShape;
    use so_plan::workload::Noise;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("score", DataType::Int, AttributeRole::Sensitive),
        ])
    }

    fn base(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new(schema());
        for i in 0..n {
            b.push_row(vec![
                Value::Int((i % 90) as i64),
                Value::Int((i % 25) as i64),
            ]);
        }
        b.finish()
    }

    fn workload(n_rows: usize) -> WorkloadSpec {
        let mut spec = WorkloadSpec::new(n_rows);
        spec.push_shape(
            &PredShape::IntRange {
                col: 0,
                lo: 10,
                hi: 40,
            },
            Noise::Exact,
        );
        spec.push_shape(
            &PredShape::And(vec![
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
            Noise::Exact,
        );
        spec.push_shape(
            &PredShape::ValueEquals {
                col: 1,
                value: Value::Missing,
            },
            Noise::Exact,
        );
        spec
    }

    /// From-scratch oracle: rebuild the final snapshot and run the same
    /// workload through the immutable engine.
    fn oracle_counts(data: &VersionedDataset, spec: &WorkloadSpec) -> Vec<WorkloadAnswer> {
        let snap = data.snapshot();
        let mut eng = CountingEngine::new(&snap, None);
        eng.execute_workload(spec).answers
    }

    #[test]
    fn answers_match_from_scratch_rebuild_after_mutations() {
        let mut eng = IncrementalEngine::new(
            VersionedDataset::with_compact_threshold(base(500), 1_000_000),
            None,
        );
        let w0 = eng.execute_workload(&workload(eng.dataset().n_live()));
        assert_eq!(w0.answers, oracle_counts(eng.dataset(), &workload(500)));

        eng.insert_rows(&[
            vec![Value::Int(20), Value::Int(3)],
            vec![Value::Int(99), Value::Missing],
        ]);
        eng.delete_live(&[0, 13, 499]);
        let spec = workload(eng.dataset().n_live());
        let w1 = eng.execute_workload(&spec);
        assert_eq!(w1.answers, oracle_counts(eng.dataset(), &spec));

        // More interleaving, including a row that is itself later deleted.
        eng.insert_rows(&[vec![Value::Int(20), Value::Int(3)]]);
        let last = eng.dataset().n_live() - 1;
        eng.delete_live(&[last]);
        let w2 = eng.execute_workload(&spec);
        assert_eq!(w2.answers, oracle_counts(eng.dataset(), &spec));
    }

    #[test]
    fn deletes_do_not_invalidate_segment_caches() {
        let mut eng = IncrementalEngine::new(
            VersionedDataset::with_compact_threshold(base(300), 1_000_000),
            None,
        );
        let spec = workload(300);
        eng.execute_workload(&spec);
        let repairs_before = eng.stats().segment_repairs;
        eng.delete_live(&[5, 6, 7]);
        let w = eng.execute_workload(&spec);
        let s = eng.stats();
        assert_eq!(
            s.segment_repairs, repairs_before,
            "a delete must not trigger any cache repair"
        );
        assert_eq!(s.segment_hits, 1, "the base cache stayed warm");
        assert_eq!(w.answers, oracle_counts(eng.dataset(), &spec));
    }

    #[test]
    fn inserts_repair_only_the_open_tail_segment() {
        let mut eng = IncrementalEngine::new(
            VersionedDataset::with_compact_threshold(base(400), 1_000_000),
            None,
        );
        let spec = workload(400);
        eng.execute_workload(&spec); // builds base cache (1 repair, 400 rows)
        eng.insert_rows(&[vec![Value::Int(20), Value::Int(3)]]);
        eng.execute_workload(&spec); // base warm, new delta built
        eng.insert_rows(&[vec![Value::Int(21), Value::Int(3)]]);
        eng.execute_workload(&spec); // base + nothing else warm; tail rebuilt
        let s = eng.stats();
        assert_eq!(s.segment_repairs, 3, "base once, tail delta twice");
        assert_eq!(
            s.repaired_rows,
            400 + 1 + 2,
            "repairs rescan only the mutated delta, not the base"
        );
        assert_eq!(s.segment_hits, 2, "base served warm in workloads 2 and 3");
    }

    #[test]
    fn compaction_discards_every_segment_cache() {
        let mut eng =
            IncrementalEngine::new(VersionedDataset::with_compact_threshold(base(100), 1), None);
        let spec = workload(100);
        eng.execute_workload(&spec);
        let eff = eng.insert_rows(&[vec![Value::Int(20), Value::Int(3)]]);
        assert!(eff.compacted, "threshold 1 compacts on every insert");
        let w = eng.execute_workload(&spec);
        let s = eng.stats();
        assert_eq!(s.compactions, 1);
        assert_eq!(
            s.segment_repairs, 2,
            "epoch change rebuilt the (new) base from scratch"
        );
        assert_eq!(w.answers, oracle_counts(eng.dataset(), &spec));
    }

    #[test]
    fn shortcut_atoms_match_real_scans() {
        // Insert rows that never touch column 0: every atom over column 0
        // must be synthesized, and the answers must equal a real rebuild
        // (which scans the Missing cells for real).
        let mut eng = IncrementalEngine::new(
            VersionedDataset::with_compact_threshold(base(200), 1_000_000),
            None,
        );
        eng.insert_rows(&[
            vec![Value::Missing, Value::Int(3)],
            vec![Value::Missing, Value::Int(9)],
        ]);
        let mut spec = WorkloadSpec::new(eng.dataset().n_live());
        // IntRange over untouched col 0 -> none; ValueEquals Missing over
        // untouched col 0 -> all; ValueEquals Int over untouched col 0 ->
        // none; atoms over touched col 1 -> scanned for real.
        spec.push_shape(
            &PredShape::IntRange {
                col: 0,
                lo: 0,
                hi: 1000,
            },
            Noise::Exact,
        );
        spec.push_shape(
            &PredShape::ValueEquals {
                col: 0,
                value: Value::Missing,
            },
            Noise::Exact,
        );
        spec.push_shape(
            &PredShape::ValueEquals {
                col: 0,
                value: Value::Int(20),
            },
            Noise::Exact,
        );
        spec.push_shape(
            &PredShape::ValueEquals {
                col: 1,
                value: Value::Int(3),
            },
            Noise::Exact,
        );
        let w = eng.execute_workload(&spec);
        assert!(
            eng.stats().shortcut_atoms >= 3,
            "column-0 atoms synthesized"
        );
        assert_eq!(w.answers, oracle_counts(eng.dataset(), &spec));
    }

    #[test]
    fn answers_are_identical_across_threads() {
        let mut reference: Option<Vec<WorkloadAnswer>> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut eng = IncrementalEngine::new(
                VersionedDataset::with_compact_threshold(base(500), 2),
                None,
            );
            eng.set_threads(threads);
            eng.insert_rows(&[vec![Value::Int(20), Value::Int(3)]]);
            eng.delete_live(&[0, 250]);
            eng.insert_rows(&[vec![Value::Missing, Value::Int(3)]]);
            let spec = workload(eng.dataset().n_live());
            let mut all = eng.execute_workload(&spec).answers;
            all.extend(eng.execute_workload(&spec).answers);
            match &reference {
                None => reference = Some(all),
                Some(r) => assert_eq!(&all, r, "answers diverged at {threads} threads"),
            }
        }
    }

    #[test]
    fn auditor_cap_and_version_bumps_interleave() {
        let mut eng = IncrementalEngine::new(
            VersionedDataset::with_compact_threshold(base(50), 1_000_000),
            Some(4),
        );
        eng.insert_rows(&[vec![Value::Int(1), Value::Int(1)]]);
        let spec = workload(eng.dataset().n_live());
        let w1 = eng.execute_workload(&spec); // 3 queries admitted
        let w2 = eng.execute_workload(&spec); // 1 admitted, 2 refused
        assert!(w1
            .answers
            .iter()
            .all(|a| matches!(a, WorkloadAnswer::Count(_))));
        assert_eq!(
            w2.answers
                .iter()
                .filter(|a| matches!(a, WorkloadAnswer::Refused))
                .count(),
            2
        );
        let trail: Vec<_> = eng.auditor().trail().collect();
        assert!(trail[0].description.starts_with("[version] v1"));
        assert_eq!(eng.auditor().queries_answered(), 4);
        assert_eq!(eng.auditor().queries_refused(), 2);
        // 1 version bump + 6 query attempts.
        assert_eq!(eng.auditor().queries_seen(), 7);
    }

    #[test]
    fn unanswerable_opaque_predicates_stay_unanswerable() {
        #[derive(Debug)]
        struct Odd;
        impl RowPredicate for Odd {
            fn eval_row(&self, ds: &Dataset, row: usize) -> bool {
                ds.get(row, 1).as_int().is_some_and(|v| v % 2 == 1)
            }
            fn describe(&self) -> String {
                "odd score".into()
            }
        }
        let mut eng = IncrementalEngine::new(
            VersionedDataset::with_compact_threshold(base(64), 1_000_000),
            None,
        );
        // Opaque predicate *without* a registered evaluator: the plan can't
        // evaluate it on any segment.
        let mut spec = WorkloadSpec::new(64);
        spec.push_predicate(&Odd, Noise::Exact);
        let w = eng.execute_workload(&spec);
        assert_eq!(w.answers, vec![WorkloadAnswer::Unanswerable]);

        // With the evaluator registered, the count matches the scalar
        // oracle over the snapshot, across mutations.
        let mut spec2 = WorkloadSpec::new(64);
        spec2.push_predicate_arc(Arc::new(Odd), Noise::Exact);
        eng.insert_rows(&[vec![Value::Int(5), Value::Int(7)]]);
        eng.delete_live(&[3]);
        let w2 = eng.execute_workload(&spec2);
        let snap = eng.dataset().snapshot();
        assert_eq!(
            w2.answers,
            vec![WorkloadAnswer::Count(count_dataset_scalar(&snap, &Odd))]
        );
    }
}
