//! Counting engine over tabular datasets.
//!
//! A thin execution layer that evaluates [`RowPredicate`]s over a
//! [`Dataset`]: selection vectors, counts, and a [`CountingEngine`] that
//! serves counting queries while recording them in a [`QueryAuditor`]. This
//! is the "statistical tables" interface the paper's introduction describes —
//! an analyst asks how many individuals in a sub-population have a trait, and
//! the engine answers.
//!
//! Execution goes through the `so-plan` compilation pipeline: a predicate's
//! structural shape is lifted into the engine's hash-consed [`PredPool`],
//! and the resulting [`ExprId`]-keyed node cache holds one compiled bitmap
//! per distinct (sub)expression. Structurally equal predicates — however
//! they were constructed, whoever asked them — share one entry, shared
//! conjuncts are scanned once, and NOT/AND/OR evaluate as word-ops over
//! child bitmaps. Whole workloads go through
//! [`CountingEngine::execute_workload`], which plans a batch at once. The
//! row-at-a-time implementations survive as `*_scalar` reference oracles.
//!
//! Plan execution is sharded across worker threads
//! ([`so_plan::parallel::ParallelExecutor`], `SO_THREADS` override): rows
//! split into word-aligned ranges — one per thread, or fixed-size morsels
//! claimed from a cursor when the relation is large — each worker scans its
//! ranges, and bitmaps merge in range order, so answers are bit-identical
//! to serial execution at every thread count. Atom scans read the dataset's
//! typed column slices directly.

use std::collections::HashMap;

use so_data::{Dataset, SelectionVector};
use so_plan::ir::{ExprId, PredPool};
use so_plan::parallel::ParallelExecutor;
use so_plan::plan::{NodeCache, PlanOutcome, PlanStats, QueryPlan};
use so_plan::workload::{QueryKind, WorkloadSpec};

use crate::audit::QueryAuditor;
use crate::predicate::RowPredicate;

/// Compiles `p` into a selection bitmap over the rows of `ds`.
pub fn scan_dataset(ds: &Dataset, p: &dyn RowPredicate) -> SelectionVector {
    p.scan(ds)
}

/// Counts rows of `ds` matching `p` (bitmap scan + popcount).
pub fn count_dataset(ds: &Dataset, p: &dyn RowPredicate) -> usize {
    p.scan(ds).count()
}

/// Returns the indices of rows matching `p` (bitmap scan + bit-walk).
pub fn select_dataset(ds: &Dataset, p: &dyn RowPredicate) -> Vec<usize> {
    p.scan(ds).indices()
}

/// Row-at-a-time count — the reference oracle for [`count_dataset`].
pub fn count_dataset_scalar(ds: &Dataset, p: &dyn RowPredicate) -> usize {
    (0..ds.n_rows()).filter(|&r| p.eval_row(ds, r)).count()
}

/// Row-at-a-time selection — the reference oracle for [`select_dataset`].
pub fn select_dataset_scalar(ds: &Dataset, p: &dyn RowPredicate) -> Vec<usize> {
    (0..ds.n_rows()).filter(|&r| p.eval_row(ds, r)).collect()
}

/// The engine's answer to one workload query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadAnswer {
    /// Exact count of matching rows.
    ///
    /// The engine always answers exactly; the workload's
    /// [`so_plan::workload::Noise`] annotations describe how the *caller's
    /// release mechanism* will perturb these counts (and are what the
    /// `so-analyze` lints reason about) — they are not applied here.
    Count(usize),
    /// Refused by the query auditor (cap exhausted, or a policy layer such
    /// as `so-analyze`'s `GatedEngine` denied the workload).
    Refused,
    /// Not answerable by the tabular engine: subset-sum queries (answer
    /// those with a `SubsetSumMechanism` against the bit dataset) and
    /// opaque predicates with no registered evaluator.
    Unanswerable,
}

/// The result of executing a whole workload.
pub struct WorkloadAnswers {
    /// Per-query answers, in workload declaration order.
    pub answers: Vec<WorkloadAnswer>,
    /// Per-query target expressions in the *engine's* pool (`None` for
    /// subset queries). Structurally equal queries share a target; the
    /// targets' [`PredPool::structural_hash`] values equal those of the
    /// workload's own pool, which is how `GatedEngine` asserts it executed
    /// exactly the plan it linted.
    pub targets: Vec<Option<ExprId>>,
    /// What executing the plan actually did (scans, cache hits, …).
    pub stats: PlanStats,
}

impl WorkloadAnswers {
    /// Packs a finished workload. The plan counts refused and subset
    /// queries (no plan target) as unanswerable; `stats.queries` and
    /// `stats.unanswerable` report the real per-answer split instead.
    pub(crate) fn settle(
        answers: Vec<WorkloadAnswer>,
        targets: Vec<Option<ExprId>>,
        mut stats: PlanStats,
    ) -> Self {
        stats.queries = answers.len();
        stats.unanswerable = answers
            .iter()
            .filter(|a| matches!(a, WorkloadAnswer::Unanswerable))
            .count();
        WorkloadAnswers {
            answers,
            targets,
            stats,
        }
    }
}

/// Lowers `spec` into an engine's pool and admits it query by query, as if
/// the queries had been asked one at a time. Subset-sum queries are
/// recorded as refusals and answered [`WorkloadAnswer::Unanswerable`];
/// every predicate query is imported into `pool` (its target), and the
/// auditor either admits it — a `Count(0)` placeholder the caller fills in
/// from the plan — or refuses it. Returns the plan over the admitted
/// targets, the answers, and the per-query targets, in declaration order.
pub(crate) fn lower_workload(
    spec: &WorkloadSpec,
    pool: &mut PredPool,
    auditor: &mut QueryAuditor,
) -> (QueryPlan, Vec<WorkloadAnswer>, Vec<Option<ExprId>>) {
    let mut memo = HashMap::new();
    let n_queries = spec.len();
    let mut targets: Vec<Option<ExprId>> = Vec::with_capacity(n_queries);
    let mut plan_targets: Vec<Option<ExprId>> = Vec::with_capacity(n_queries);
    let mut answers: Vec<WorkloadAnswer> = Vec::with_capacity(n_queries);
    for q in spec.queries() {
        match &q.kind {
            QueryKind::Subset(members) => {
                let size = members.count_ones();
                auditor.refuse_with(|| {
                    format!(
                        "unanswerable: subset-sum query (|q| = {size}) \
                         against a counting engine"
                    )
                });
                targets.push(None);
                plan_targets.push(None);
                answers.push(WorkloadAnswer::Unanswerable);
            }
            QueryKind::Pred(id) => {
                let tid = pool.import(spec.pool(), *id, &mut memo);
                targets.push(Some(tid));
                if auditor.admit_with(|| spec.pool().render(*id)) {
                    plan_targets.push(Some(tid));
                    answers.push(WorkloadAnswer::Count(0));
                } else {
                    plan_targets.push(None);
                    answers.push(WorkloadAnswer::Refused);
                }
            }
        }
    }
    (QueryPlan::compile(pool, plan_targets), answers, targets)
}

static NO_EVALUATORS: std::sync::OnceLock<HashMap<u64, std::sync::Arc<dyn RowPredicate>>> =
    std::sync::OnceLock::new();

/// A counting-query server over one dataset, with auditing.
///
/// Compiled predicate bitmaps are cached in an [`ExprId`]-keyed node cache
/// over the engine's persistent [`PredPool`]: a repeated query (the shape of
/// every reconstruction attack — the same subset predicates asked over and
/// over) answers from a popcount of the cached bitmap without rescanning,
/// and *structurally* equal predicates share an entry even when they are
/// distinct objects from distinct call sites. The cache never needs
/// invalidation because [`Dataset`] is immutable.
///
/// Structural keys are what make the cache *sound*: equal expressions select
/// equal rows by construction (closure-backed predicates carry a unique
/// identity in their shape), unlike the human-facing `describe()` strings,
/// where two differently-behaving predicates can share a label. Predicates
/// whose shape is [`so_plan::PredShape::Volatile`] (no structure, no stable
/// identity) are answered correctly but never interned or cached.
pub struct CountingEngine<'a> {
    ds: &'a Dataset,
    auditor: QueryAuditor,
    pool: PredPool,
    cache: NodeCache,
    stats: PlanStats,
    executor: ParallelExecutor,
}

impl<'a> CountingEngine<'a> {
    /// Serves `ds` with an optional cap on the number of queries.
    pub fn new(ds: &'a Dataset, max_queries: Option<usize>) -> Self {
        Self::with_auditor(ds, QueryAuditor::new(max_queries))
    }

    /// Serves `ds` with a pre-configured auditor (e.g. one with a bounded
    /// or disabled audit trail for long attack loops).
    pub fn with_auditor(ds: &'a Dataset, auditor: QueryAuditor) -> Self {
        CountingEngine {
            ds,
            auditor,
            pool: PredPool::new(),
            cache: NodeCache::new(),
            stats: PlanStats::default(),
            executor: ParallelExecutor::from_env(),
        }
    }

    /// Sets the worker thread count for plan execution (both single-query
    /// compilation and whole workloads). Answers are bit-identical at every
    /// thread count — sharding is word-aligned and merges in shard order —
    /// so this is purely a throughput knob. The default comes from
    /// [`ParallelExecutor::from_env`] (`SO_THREADS`, else available
    /// parallelism).
    pub fn set_threads(&mut self, threads: usize) {
        self.executor = ParallelExecutor::with_threads(threads);
    }

    /// The worker thread count plan execution currently uses.
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// Answers a counting query exactly; returns `None` once the query cap
    /// is exhausted (the "limit the number of queries" defence the paper
    /// mentions as one of the two ways to escape blatant non-privacy).
    pub fn count(&mut self, p: &dyn RowPredicate) -> Option<usize> {
        if !self.auditor.admit_with(|| p.describe()) {
            return None;
        }
        crate::obs::query_metrics().count_calls.inc();
        let shape = p.shape();
        if !shape.is_cache_stable() {
            // No sound cache key — evaluate fresh; interning a volatile
            // shape would mint a fresh opaque atom per call and grow the
            // pool without bound.
            crate::obs::query_metrics().volatile_scans.inc();
            return Some(p.scan(self.ds).count());
        }
        let id = self.pool.lift(&shape);
        if let Some(b) = self.cache.get(&id) {
            self.stats.cache_hits += 1;
            so_plan::obs::publish_stats(&PlanStats {
                cache_hits: 1,
                ..PlanStats::default()
            });
            return Some(b.count());
        }
        if shape.is_fully_structural() {
            // Node-by-node bitmap evaluation: subexpressions land in the
            // cache individually, so later queries sharing a conjunct reuse
            // its bitmap even if the full query is new.
            let plan = QueryPlan::compile(&self.pool, vec![Some(id)]);
            let evals = NO_EVALUATORS.get_or_init(HashMap::new);
            let (outcomes, stats) =
                self.executor
                    .execute(&plan, &self.pool, self.ds, evals, &mut self.cache);
            self.absorb(stats);
            match outcomes[0] {
                PlanOutcome::Count(c) => Some(c),
                // Structural but non-tabular (bit-string shapes on a custom
                // row predicate): fall back to the predicate's own scan.
                PlanOutcome::Unanswerable => Some(p.scan(self.ds).count()),
            }
        } else {
            // Contains an opaque atom: the closure itself is the only
            // evaluator, so compile the whole predicate as one scan, cached
            // under its (stable) lifted expression.
            let b = p.scan(self.ds);
            self.stats.atom_scans += 1;
            self.stats.nodes_evaluated += 1;
            so_plan::obs::publish_stats(&PlanStats {
                atom_scans: 1,
                nodes_evaluated: 1,
                ..PlanStats::default()
            });
            let c = b.count();
            self.cache.insert(id, b);
            Some(c)
        }
    }

    /// Plans and executes a whole workload in one pass.
    ///
    /// Every predicate query is imported into the engine's pool —
    /// hash-consing dedups structurally equal queries across the workload
    /// *and* against everything the engine has already compiled — then a
    /// single [`QueryPlan`] evaluates the distinct expressions bottom-up:
    /// each shared subexpression is scanned once and each boolean node is
    /// word-ops over child bitmaps. Answers come back in declaration order.
    ///
    /// Per query, the auditor admits or refuses as if the queries had been
    /// asked one at a time, so a query cap bites mid-workload exactly where
    /// it would have in a loop. Subset-sum queries are recorded as refusals
    /// and answered [`WorkloadAnswer::Unanswerable`] — this engine serves
    /// tabular counts; answer those against the bit dataset with a
    /// `SubsetSumMechanism` (see `answer_all`).
    pub fn execute_workload(&mut self, spec: &WorkloadSpec) -> WorkloadAnswers {
        crate::obs::query_metrics().workloads.inc();
        let span = so_obs::span("engine.workload");
        let (plan, mut answers, targets) = lower_workload(spec, &mut self.pool, &mut self.auditor);
        let (outcomes, stats) = self.executor.execute(
            &plan,
            &self.pool,
            self.ds,
            spec.evaluators(),
            &mut self.cache,
        );
        for (answer, outcome) in answers.iter_mut().zip(&outcomes) {
            if matches!(answer, WorkloadAnswer::Count(_)) {
                *answer = match outcome {
                    PlanOutcome::Count(c) => WorkloadAnswer::Count(*c),
                    PlanOutcome::Unanswerable => WorkloadAnswer::Unanswerable,
                };
            }
        }
        let out = WorkloadAnswers::settle(answers, targets, stats);
        self.absorb(out.stats);
        if so_obs::enabled() {
            span.finish_with(&[
                ("queries", out.stats.queries.to_string()),
                ("atom_scans", out.stats.atom_scans.to_string()),
                ("cache_hits", out.stats.cache_hits.to_string()),
                ("unanswerable", out.stats.unanswerable.to_string()),
            ]);
        }
        out
    }

    fn absorb(&mut self, stats: PlanStats) {
        self.stats.nodes_evaluated += stats.nodes_evaluated;
        self.stats.atom_scans += stats.atom_scans;
        self.stats.cache_hits += stats.cache_hits;
    }

    /// Number of distinct compiled bitmaps currently cached (one per
    /// distinct IR node the engine has evaluated, subexpressions included).
    pub fn cached_predicates(&self) -> usize {
        self.cache.len()
    }

    /// Cumulative execution counters (scans, node evaluations, cache hits)
    /// over the engine's lifetime.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// The engine's persistent predicate pool.
    pub fn pool(&self) -> &PredPool {
        &self.pool
    }

    /// Read access to the audit trail.
    pub fn auditor(&self) -> &QueryAuditor {
        &self.auditor
    }

    /// Mutable access to the auditor, so policy layers (e.g. the static
    /// workload gate in `so-analyze`) can record their own refusals in the
    /// same trail the answered queries land in.
    pub fn auditor_mut(&mut self) -> &mut QueryAuditor {
        &mut self.auditor
    }

    /// The served dataset.
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{
        AllRowPredicate, FnRowPredicate, IntRangePredicate, KeyedHashPredicate, NotRowPredicate,
        RowHashPredicate,
    };
    use so_data::{AttributeDef, AttributeRole, DataType, DatasetBuilder, Schema, Value};
    use so_plan::workload::Noise;
    use so_plan::PredShape;
    use so_plan::SubsetQuery;

    fn ds() -> Dataset {
        let schema = Schema::new(vec![AttributeDef::new(
            "age",
            DataType::Int,
            AttributeRole::QuasiIdentifier,
        )]);
        let mut b = DatasetBuilder::new(schema);
        for age in [10, 20, 30, 40, 50] {
            b.push_row(vec![Value::Int(age)]);
        }
        b.finish()
    }

    #[test]
    fn count_and_select_agree() {
        let ds = ds();
        let p = IntRangePredicate {
            col: 0,
            lo: 15,
            hi: 45,
        };
        assert_eq!(count_dataset(&ds, &p), 3);
        assert_eq!(select_dataset(&ds, &p), vec![1, 2, 3]);
    }

    #[test]
    fn bitmap_and_scalar_paths_agree() {
        let ds = ds();
        let p = IntRangePredicate {
            col: 0,
            lo: 15,
            hi: 45,
        };
        assert_eq!(count_dataset(&ds, &p), count_dataset_scalar(&ds, &p));
        assert_eq!(select_dataset(&ds, &p), select_dataset_scalar(&ds, &p));
        assert_eq!(scan_dataset(&ds, &p).indices(), select_dataset(&ds, &p));
    }

    #[test]
    fn engine_counts_until_cap() {
        let ds = ds();
        let mut e = CountingEngine::new(&ds, Some(2));
        let p = IntRangePredicate {
            col: 0,
            lo: 0,
            hi: 100,
        };
        assert_eq!(e.count(&p), Some(5));
        assert_eq!(e.count(&p), Some(5));
        assert_eq!(e.count(&p), None, "third query must be refused");
        assert_eq!(e.auditor().queries_answered(), 2);
        assert_eq!(e.auditor().queries_refused(), 1);
    }

    #[test]
    fn engine_without_cap_is_unlimited() {
        let ds = ds();
        let mut e = CountingEngine::new(&ds, None);
        let p = IntRangePredicate {
            col: 0,
            lo: 25,
            hi: 100,
        };
        for _ in 0..100 {
            assert_eq!(e.count(&p), Some(3));
        }
        assert_eq!(e.auditor().queries_answered(), 100);
    }

    #[test]
    fn repeated_queries_hit_the_bitmap_cache() {
        let ds = ds();
        let mut e = CountingEngine::new(&ds, None);
        let p = IntRangePredicate {
            col: 0,
            lo: 25,
            hi: 100,
        };
        let q = IntRangePredicate {
            col: 0,
            lo: 0,
            hi: 15,
        };
        for _ in 0..10 {
            assert_eq!(e.count(&p), Some(3));
            assert_eq!(e.count(&q), Some(1));
        }
        // Two distinct predicates → exactly two cached bitmaps.
        assert_eq!(e.cached_predicates(), 2);
        assert_eq!(e.auditor().queries_answered(), 20);
        // 2 scans, 18 cache hits.
        assert_eq!(e.stats().atom_scans, 2);
        assert_eq!(e.stats().cache_hits, 18);
    }

    /// Regression test for the describe()-keyed cache unsoundness: two
    /// differently-behaving closure predicates sharing one label must not
    /// return each other's cached counts. Under the old `describe()` key
    /// scheme the second query aliased the first's bitmap and answered 5;
    /// structural identity (per-instance opaque id, now interned as distinct
    /// `Atom::Opaque` expressions) keeps them apart.
    #[test]
    fn same_label_different_closures_do_not_alias_the_cache() {
        let ds = ds();
        let mut e = CountingEngine::new(&ds, None);
        let everyone = FnRowPredicate::new("cohort", |_, _| true);
        let nobody = FnRowPredicate::new("cohort", |_, _| false);
        assert_eq!(everyone.describe(), nobody.describe());
        assert_eq!(e.count(&everyone), Some(5));
        assert_eq!(
            e.count(&nobody),
            Some(0),
            "label collision returned the wrong predicate's cached count"
        );
        // And the cached entries stay distinct on repeat queries.
        assert_eq!(e.count(&everyone), Some(5));
        assert_eq!(e.count(&nobody), Some(0));
        assert_eq!(e.cached_predicates(), 2);
    }

    /// Predicates that opt out of shape reflection entirely (default
    /// `Volatile` shape) are answered correctly and never cached.
    #[test]
    fn volatile_shapes_are_answered_but_not_cached() {
        struct Bare(i64);
        impl RowPredicate for Bare {
            fn eval_row(&self, ds: &Dataset, row: usize) -> bool {
                ds.get(row, 0).as_int().is_some_and(|v| v >= self.0)
            }
        }
        let ds = ds();
        let mut e = CountingEngine::new(&ds, None);
        assert_eq!(e.count(&Bare(15)), Some(4));
        assert_eq!(e.count(&Bare(45)), Some(1), "distinct despite same shape");
        assert_eq!(e.cached_predicates(), 0);
        // And the pool stays clean too — no per-call opaque pollution.
        assert!(e.pool().is_empty());
    }

    /// Structurally equal predicates share one cache entry even across the
    /// single-query and workload paths.
    #[test]
    fn workload_and_single_query_paths_share_the_cache() {
        let ds = ds();
        let mut e = CountingEngine::new(&ds, None);
        let p = IntRangePredicate {
            col: 0,
            lo: 15,
            hi: 45,
        };
        assert_eq!(e.count(&p), Some(3));
        let mut w = WorkloadSpec::new(ds.n_rows());
        w.push_predicate(&p, Noise::Exact);
        let out = e.execute_workload(&w);
        assert_eq!(out.answers, vec![WorkloadAnswer::Count(3)]);
        // The workload answered from the single-query path's bitmap.
        assert_eq!(out.stats.atom_scans, 0);
        assert_eq!(out.stats.cache_hits, 1);
        assert_eq!(e.cached_predicates(), 1);
    }

    /// A planned tracker pair (`A`, `A ∧ ¬B`) scans the shared conjunct `A`
    /// exactly once; the pair's second query is word-ops on top of it.
    #[test]
    fn planned_tracker_pair_scans_shared_conjunct_once() {
        let ds = ds();
        let range = || IntRangePredicate {
            col: 0,
            lo: 15,
            hi: 45,
        };
        let hash = || RowHashPredicate {
            hash: KeyedHashPredicate::new(0xBEEF, 256, 0),
            cols: vec![0],
        };
        let mut w = WorkloadSpec::new(ds.n_rows());
        w.push_predicate(&range(), Noise::Exact);
        w.push_predicate(
            &AllRowPredicate {
                parts: vec![
                    Box::new(range()),
                    Box::new(NotRowPredicate {
                        inner: Box::new(hash()),
                    }),
                ],
            },
            Noise::Exact,
        );
        let mut e = CountingEngine::new(&ds, None);
        let out = e.execute_workload(&w);
        // Exactly two dataset scans: the shared range atom and the hash
        // atom. NOT and AND are word-ops, not scans.
        assert_eq!(out.stats.atom_scans, 2, "shared conjunct scanned once");
        let (WorkloadAnswer::Count(a), WorkloadAnswer::Count(b)) = (out.answers[0], out.answers[1])
        else {
            panic!("both queries answerable");
        };
        assert_eq!(a, 3);
        assert!(b <= a, "A ∧ ¬B can't exceed A");
        assert_eq!(
            b,
            count_dataset_scalar(
                &ds,
                &AllRowPredicate {
                    parts: vec![
                        Box::new(range()),
                        Box::new(NotRowPredicate {
                            inner: Box::new(hash()),
                        }),
                    ],
                }
            )
        );
    }

    /// Workload execution respects the auditor cap mid-batch.
    #[test]
    fn workload_respects_query_cap() {
        let ds = ds();
        let mut e = CountingEngine::new(&ds, Some(2));
        let mut w = WorkloadSpec::new(ds.n_rows());
        for hi in [20, 30, 40] {
            w.push_shape(&PredShape::IntRange { col: 0, lo: 0, hi }, Noise::Exact);
        }
        let out = e.execute_workload(&w);
        assert_eq!(
            out.answers,
            vec![
                WorkloadAnswer::Count(2),
                WorkloadAnswer::Count(3),
                WorkloadAnswer::Refused
            ]
        );
        assert_eq!(e.auditor().queries_refused(), 1);
    }

    /// Subset queries are not answerable against a tabular engine and are
    /// recorded as refusals in the audit trail.
    #[test]
    fn subset_queries_are_unanswerable_in_the_tabular_engine() {
        let ds = ds();
        let mut e = CountingEngine::new(&ds, None);
        let mut w = WorkloadSpec::new(ds.n_rows());
        w.push_subset(
            &SubsetQuery::from_indices(ds.n_rows(), &[0, 2]),
            Noise::Exact,
        );
        w.push_shape(
            &PredShape::IntRange {
                col: 0,
                lo: 0,
                hi: 100,
            },
            Noise::Exact,
        );
        let out = e.execute_workload(&w);
        assert_eq!(out.answers[0], WorkloadAnswer::Unanswerable);
        assert_eq!(out.answers[1], WorkloadAnswer::Count(5));
        assert_eq!(out.targets[0], None);
        assert!(out.targets[1].is_some());
        assert_eq!(e.auditor().queries_refused(), 1);
        assert_eq!(e.auditor().queries_answered(), 1);
    }

    /// Workload targets carry the same stable structural hashes as the
    /// spec's own pool — the executed plan is the declared plan.
    #[test]
    fn workload_targets_match_spec_hashes() {
        let ds = ds();
        let mut e = CountingEngine::new(&ds, None);
        let mut w = WorkloadSpec::new(ds.n_rows());
        let shape = PredShape::Not(Box::new(PredShape::IntRange {
            col: 0,
            lo: 15,
            hi: 45,
        }));
        w.push_shape(&shape, Noise::Exact);
        let out = e.execute_workload(&w);
        let spec_id = match &w.queries()[0].kind {
            QueryKind::Pred(id) => *id,
            _ => unreachable!(),
        };
        assert_eq!(
            e.pool().structural_hash(out.targets[0].unwrap()),
            w.pool().structural_hash(spec_id)
        );
    }
}
