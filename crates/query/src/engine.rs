//! Counting engine over tabular datasets.
//!
//! A thin execution layer that evaluates [`RowPredicate`]s over a
//! [`VersionedDataset`]: selection vectors, counts, and a
//! [`CountingEngine`] that serves counting queries while recording them in
//! a [`QueryAuditor`]. This is the "statistical tables" interface the
//! paper's introduction describes — an analyst asks how many individuals
//! in a sub-population have a trait, and the engine answers. An immutable
//! dataset is a [`VersionedDataset`] with one segment and no tombstones.
//!
//! Execution goes through the `so-plan` compilation pipeline: a predicate's
//! structural shape is lifted into the engine's hash-consed [`PredPool`],
//! and each segment's [`ExprId`]-keyed node cache holds one compiled bitmap
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
//!
//! ## Segments
//!
//! A [`VersionedDataset`] is a base plus delta segments plus tombstones.
//! The engine runs each plan once per segment and sums the segments'
//! live counts:
//!
//! * **Per-segment caches.** Each segment gets its own node caches, stamped
//!   with the segment's [`Dataset::version`]. Inserts bump only the open
//!   tail segment's version, so only that small segment is rescanned;
//!   frozen deltas and the base answer from their warm caches. Deletes set
//!   tombstone bits without moving rows, so they invalidate nothing: a
//!   segment's count is its bitmap's popcount masked by its tombstones
//!   ([`BitVec::count_and_not`]). Compaction bumps the dataset's
//!   `base_epoch`, which discards every segment cache at once.
//! * **Touched-column shortcuts.** A delta segment records which columns
//!   any of its rows ever set. An atom over an *untouched* column needs no
//!   scan: every cell is `Missing`, so `IntRange` matches nothing and
//!   `ValueEquals` matches all rows iff it tests for `Missing`. Those
//!   selections are synthesized straight into the segment's cache before
//!   plan execution.
//!
//! ## Counting over distinct rows
//!
//! When a segment has a weighted distinct-row form
//! ([`Dataset::distinct_rows`]: at most `n_rows / 64` distinct rows) and no
//! tombstones, every plan with no opaque atom runs on it through the same
//! [`QueryPlan::execute`] and kernels, serially, with a second node cache
//! for the form's bitmaps; the segment's count is the weighted popcount
//! ([`BitVec::weighted_count`]) of its target's bitmap. This is exact
//! because every tabular atom is a function of a row's cell values, so
//! equal rows are selected together. Plans with an opaque atom (whose
//! closure may read the row index), segments over the cap and segments
//! with tombstones take the full bitmap path above, which stays the oracle.
//!
//! [`Dataset::version`]: so_data::Dataset::version

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

use so_data::{BitVec, Dataset, DistinctRows, MutationEffect, Value, VersionedDataset};
use so_plan::ir::{Atom, ExprId, PredNode, PredPool};
use so_plan::parallel::ParallelExecutor;
use so_plan::plan::{NodeCache, PlanOutcome, PlanStats, QueryPlan};
use so_plan::workload::{QueryKind, WorkloadSpec};

use crate::audit::QueryAuditor;
use crate::predicate::RowPredicate;

/// Compiles `p` into a selection bitmap over the rows of `ds`.
pub fn scan_dataset(ds: &Dataset, p: &dyn RowPredicate) -> BitVec {
    p.scan(ds)
}

/// Counts rows of `ds` matching `p` (bitmap scan + popcount).
pub fn count_dataset(ds: &Dataset, p: &dyn RowPredicate) -> usize {
    p.scan(ds).count_ones()
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
    /// as `so-analyze`'s `IncrementalGate` denied the workload).
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
    /// workload's own pool, which is how a gate can assert it executed
    /// exactly the plan it linted.
    pub targets: Vec<Option<ExprId>>,
    /// What executing the plan actually did (scans, cache hits, …).
    pub stats: PlanStats,
    /// Rows the atom scans read: each scan times the rows of the relation
    /// it ran against (a segment or its distinct-row form).
    pub rows_scanned: u64,
}

impl WorkloadAnswers {
    /// Packs a finished workload. The plan counts refused and subset
    /// queries (no plan target) as unanswerable; `stats.queries` and
    /// `stats.unanswerable` report the real per-answer split instead.
    pub(crate) fn settle(
        answers: Vec<WorkloadAnswer>,
        targets: Vec<Option<ExprId>>,
        mut stats: PlanStats,
        rows_scanned: u64,
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
            rows_scanned,
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

/// Opaque-atom evaluators, keyed by opaque id (see
/// [`WorkloadSpec::evaluators`]).
type Evaluators = HashMap<u64, Arc<dyn RowPredicate>>;

static NO_EVALUATORS: std::sync::OnceLock<Evaluators> = std::sync::OnceLock::new();

/// One segment's compiled bitmaps, over its rows and over its distinct-row
/// form, stamped with the segment version they were computed at (`None` =
/// never built).
#[derive(Debug, Default)]
struct SegmentCache {
    version: Option<u64>,
    rows: NodeCache,
    form: NodeCache,
}

/// The relation a plan runs on in one segment, and how its bitmaps turn
/// into live-row counts.
struct Relation<'d> {
    /// The segment's distinct-row form, when the plan runs on it.
    form: Option<&'d DistinctRows>,
    /// The segment's tombstones, when it has any (a form never does).
    tombs: Option<&'d BitVec>,
    /// The rows scanned: the form's, else the segment's.
    rows: &'d Dataset,
}

impl<'d> Relation<'d> {
    /// Segment `i` of `data`: its distinct-row form when `form_ok` (the
    /// plan reads no opaque atom), the segment has one and it has no
    /// tombstones; else its rows, masked by its tombstones if any.
    fn of(data: &'d VersionedDataset, i: usize, form_ok: bool) -> Self {
        let seg = data.segment(i);
        // A kept count: O(1), no popcount of the tombstone mask.
        let tombs = (data.live_in_segment(i) < seg.n_rows()).then(|| data.tombstones(i));
        let form = if form_ok && tombs.is_none() {
            seg.distinct_rows()
        } else {
            None
        };
        Relation {
            form,
            tombs,
            rows: form.map_or(seg, DistinctRows::rows),
        }
    }

    /// The node cache this relation's bitmaps live in.
    fn cache<'c>(&self, seg: &'c mut SegmentCache) -> &'c mut NodeCache {
        if self.form.is_some() {
            &mut seg.form
        } else {
            &mut seg.rows
        }
    }

    /// The live rows a bitmap over this relation stands for.
    fn count(&self, bitmap: &BitVec) -> usize {
        match (self.form, self.tombs) {
            (Some(f), _) => bitmap.weighted_count(f.weights()) as usize,
            (None, Some(t)) => bitmap.count_and_not(t),
            (None, None) => bitmap.count_ones(),
        }
    }
}

/// Deterministic tallies of what the engine did across segments. Every
/// field is a pure function of the mutation/workload sequence — invariant
/// across thread counts — so transcripts may print them verbatim.
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

/// A counting-query server over one [`VersionedDataset`], with auditing.
///
/// `D` is how the engine holds the data. A borrowing engine
/// (`CountingEngine<&VersionedDataset>`) serves data it can never mutate,
/// such as one request against a tenant's relation. An owning engine
/// (`CountingEngine<VersionedDataset>`) also takes mutations
/// ([`CountingEngine::insert_rows`], [`CountingEngine::delete_live`]),
/// interleaved with queries through one handle; each leaves a version-bump
/// annotation in the audit trail ([`QueryAuditor::note_version_bump`]).
/// Either way the caches belong to one dataset by construction.
///
/// Compiled predicate bitmaps are cached per segment in [`ExprId`]-keyed
/// node caches over the engine's persistent [`PredPool`]: a repeated query
/// (the shape of every reconstruction attack — the same subset predicates
/// asked over and over) answers from a popcount of the cached bitmap
/// without rescanning, and *structurally* equal predicates share an entry
/// even when they are distinct objects from distinct call sites.
///
/// Structural keys are what make the cache *sound*: equal expressions select
/// equal rows by construction (closure-backed predicates carry a unique
/// identity in their shape), unlike the human-facing `describe()` strings,
/// where two differently-behaving predicates can share a label. Predicates
/// whose shape is [`so_plan::PredShape::Volatile`] (no structure, no stable
/// identity) are answered correctly but never interned or cached.
///
/// On a segment with a distinct-row form and no tombstones, plans with no
/// opaque atom run against the form instead (see the module docs), cached
/// in a second node cache that [`CountingEngine::count`] and
/// [`CountingEngine::execute_workload`] share.
pub struct CountingEngine<D: Borrow<VersionedDataset>> {
    data: D,
    auditor: QueryAuditor,
    pool: PredPool,
    executor: ParallelExecutor,
    seg_caches: Vec<SegmentCache>,
    epoch: u64,
    plan_stats: PlanStats,
    stats: IncrementalStats,
}

impl<D: Borrow<VersionedDataset>> CountingEngine<D> {
    /// Serves `data` with an optional cap on the number of queries.
    pub fn new(data: D, max_queries: Option<usize>) -> Self {
        Self::with_auditor(data, QueryAuditor::new(max_queries))
    }

    /// Serves `data` with a pre-configured auditor (e.g. one with a bounded
    /// or disabled audit trail for long attack loops).
    pub fn with_auditor(data: D, auditor: QueryAuditor) -> Self {
        CountingEngine {
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

    /// Answers a counting query exactly over the live rows; returns `None`
    /// once the query cap is exhausted (the "limit the number of queries"
    /// defence the paper mentions as one of the two ways to escape blatant
    /// non-privacy).
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
            let n_segments = self.data.borrow().n_segments();
            return Some((0..n_segments).map(|i| self.scan_live(p, i)).sum());
        }
        self.refresh_segment_caches();
        let id = self.pool.lift(&shape);
        let structural = shape.is_fully_structural();
        let n_segments = self.data.borrow().n_segments();
        Some(
            (0..n_segments)
                .map(|i| self.count_segment(p, id, structural, i))
                .sum(),
        )
    }

    /// The live rows of segment `i` that `p`'s own scan selects.
    fn scan_live(&self, p: &dyn RowPredicate, i: usize) -> usize {
        let data = self.data.borrow();
        Relation::of(data, i, false).count(&p.scan(data.segment(i)))
    }

    /// [`CountingEngine::count`]'s answer over segment `i`.
    fn count_segment(
        &mut self,
        p: &dyn RowPredicate,
        id: ExprId,
        structural: bool,
        i: usize,
    ) -> usize {
        let rel = Relation::of(self.data.borrow(), i, structural);
        if let Some(b) = rel.cache(&mut self.seg_caches[i]).get(&id) {
            self.plan_stats.cache_hits += 1;
            so_plan::obs::publish_stats(&PlanStats {
                cache_hits: 1,
                ..PlanStats::default()
            });
            return rel.count(b);
        }
        if structural {
            // Node-by-node bitmap evaluation: subexpressions land in the
            // cache individually, so later queries sharing a conjunct reuse
            // its bitmap even if the full query is new.
            let plan = QueryPlan::compile(&self.pool, vec![Some(id)]);
            let evals = NO_EVALUATORS.get_or_init(HashMap::new);
            let (outcomes, stats, _) = self.run_segment(i, &plan, evals);
            self.absorb(stats);
            match outcomes[0] {
                PlanOutcome::Count(c) => c,
                // Structural but non-tabular (bit-string shapes on a custom
                // row predicate): fall back to the predicate's own scan.
                PlanOutcome::Unanswerable => self.scan_live(p, i),
            }
        } else {
            // Contains an opaque atom: the closure itself is the only
            // evaluator, so compile the whole predicate as one scan, cached
            // under its (stable) lifted expression.
            let b = p.scan(self.data.borrow().segment(i));
            let c = rel.count(&b);
            self.seg_caches[i].rows.insert(id, b);
            let stats = PlanStats {
                atom_scans: 1,
                nodes_evaluated: 1,
                ..PlanStats::default()
            };
            self.absorb(stats);
            so_plan::obs::publish_stats(&stats);
            c
        }
    }

    /// Plans and executes a whole workload in one pass over the dataset's
    /// current version.
    ///
    /// Every predicate query is imported into the engine's pool —
    /// hash-consing dedups structurally equal queries across the workload
    /// *and* against everything the engine has already compiled — then a
    /// single [`QueryPlan`] evaluates the distinct expressions bottom-up in
    /// each segment: each shared subexpression is scanned once per segment
    /// and each boolean node is word-ops over child bitmaps. Answers come
    /// back in declaration order and count *live* rows only — tombstoned
    /// rows are masked out at popcount time, never rescanned.
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
        self.stats.workloads += 1;
        self.refresh_segment_caches();
        let (plan, mut answers, targets) = lower_workload(spec, &mut self.pool, &mut self.auditor);
        let mut totals: Vec<Option<usize>> = vec![Some(0); answers.len()];
        let mut stats = PlanStats::default();
        let mut rows_scanned = 0u64;
        for i in 0..self.data.borrow().n_segments() {
            let (outcomes, seg_stats, rows_per_scan) =
                self.run_segment(i, &plan, spec.evaluators());
            for (total, outcome) in totals.iter_mut().zip(&outcomes) {
                *total = match (*total, outcome) {
                    (Some(t), PlanOutcome::Count(c)) => Some(t + c),
                    _ => None,
                };
            }
            stats.distinct_targets = seg_stats.distinct_targets;
            stats.nodes_evaluated += seg_stats.nodes_evaluated;
            stats.atom_scans += seg_stats.atom_scans;
            stats.cache_hits += seg_stats.cache_hits;
            rows_scanned += (seg_stats.atom_scans * rows_per_scan) as u64;
        }
        for (answer, total) in answers.iter_mut().zip(totals) {
            if matches!(answer, WorkloadAnswer::Count(_)) {
                *answer = total.map_or(WorkloadAnswer::Unanswerable, WorkloadAnswer::Count);
            }
        }
        let out = WorkloadAnswers::settle(answers, targets, stats, rows_scanned);
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

    /// Executes `plan` over segment `i`: against its distinct-row form
    /// when the plan reads no opaque atom and the segment has a form and no
    /// tombstones (serially, into the form's cache, counts weighed by
    /// multiplicity), else against the segment's rows through the executor
    /// (counts masked by its tombstones). Also returns the rows of the
    /// relation each atom scan read.
    fn run_segment(
        &mut self,
        i: usize,
        plan: &QueryPlan,
        evaluators: &Evaluators,
    ) -> (Vec<PlanOutcome>, PlanStats, usize) {
        let opaque = plan
            .order()
            .iter()
            .any(|&id| matches!(self.pool.node(id), PredNode::Atom(Atom::Opaque { .. })));
        let data = self.data.borrow();
        let rel = Relation::of(data, i, !plan.order().is_empty() && !opaque);
        let cache = rel.cache(&mut self.seg_caches[i]);
        let seeded = seed_shortcuts(
            plan,
            &self.pool,
            data.touched_columns(i),
            rel.rows.n_rows(),
            cache,
        );
        if seeded > 0 {
            self.stats.shortcut_atoms += seeded;
            crate::obs::query_metrics()
                .shortcut_atoms
                .add(seeded as u64);
        }
        let (mut outcomes, stats) = if rel.form.is_some() {
            plan.execute(&self.pool, rel.rows, evaluators, cache)
        } else {
            self.executor
                .execute(plan, &self.pool, rel.rows, evaluators, cache)
        };
        if rel.form.is_some() || rel.tombs.is_some() {
            for (outcome, target) in outcomes.iter_mut().zip(plan.targets()) {
                if let (PlanOutcome::Count(c), Some(id)) = (outcome, target) {
                    *c = rel.count(&cache[id]);
                }
            }
        }
        (outcomes, stats, rel.rows.n_rows())
    }

    /// Aligns the per-segment caches with the dataset's current shape:
    /// discards everything on an epoch change (compaction), grows the cache
    /// vector for newly opened deltas, and clears any cache whose segment
    /// version moved since it was built.
    fn refresh_segment_caches(&mut self) {
        let data = self.data.borrow();
        if self.epoch != data.base_epoch() {
            self.seg_caches.clear();
            self.epoch = data.base_epoch();
        }
        let n = data.n_segments();
        self.seg_caches.truncate(n);
        self.seg_caches.resize_with(n, SegmentCache::default);
        let m = crate::obs::query_metrics();
        for (i, cache) in self.seg_caches.iter_mut().enumerate() {
            let seg = data.segment(i);
            if cache.version == Some(seg.version()) {
                self.stats.segment_hits += 1;
                m.delta_segment_hits.inc();
            } else {
                cache.rows.clear();
                cache.form.clear();
                cache.version = Some(seg.version());
                self.stats.segment_repairs += 1;
                self.stats.repaired_rows += seg.n_rows();
                m.delta_repairs.inc();
            }
        }
    }

    fn absorb(&mut self, stats: PlanStats) {
        self.plan_stats.nodes_evaluated += stats.nodes_evaluated;
        self.plan_stats.atom_scans += stats.atom_scans;
        self.plan_stats.cache_hits += stats.cache_hits;
    }

    /// Number of distinct compiled bitmaps currently cached (one per
    /// distinct IR node the engine has evaluated, subexpressions included),
    /// over every segment's rows and distinct-row form together.
    pub fn cached_predicates(&self) -> usize {
        self.seg_caches
            .iter()
            .map(|c| c.rows.len() + c.form.len())
            .sum()
    }

    /// Cumulative execution counters (scans, node evaluations, cache hits)
    /// over the engine's lifetime.
    pub fn stats(&self) -> PlanStats {
        self.plan_stats
    }

    /// Deterministic segment repair/shortcut and mutation tallies over the
    /// engine's lifetime.
    pub fn incremental_stats(&self) -> IncrementalStats {
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
    pub fn dataset(&self) -> &VersionedDataset {
        self.data.borrow()
    }
}

impl CountingEngine<VersionedDataset> {
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
}

/// Pre-seeds synthesized atom selections into a delta segment's `cache`
/// over a relation of `n_rows` rows, and returns how many: an atom over a
/// column the segment never touched sees only `Missing` cells, so its
/// selection is known without scanning. `IntRange` never matches
/// `Missing`; `ValueEquals` matches it iff the tested value *is* `Missing`.
/// Hash and bit atoms read actual cell contents and are never shortcut. The
/// base segment (`touched` is `None`) counts every column as touched.
fn seed_shortcuts(
    plan: &QueryPlan,
    pool: &PredPool,
    touched: Option<&std::collections::BTreeSet<usize>>,
    n_rows: usize,
    cache: &mut NodeCache,
) -> usize {
    let Some(touched) = touched else {
        return 0;
    };
    let mut seeded = 0usize;
    for &id in plan.order() {
        if cache.contains_key(&id) {
            continue;
        }
        let synthesized = match pool.node(id) {
            PredNode::Atom(Atom::IntRange { col, .. }) if !touched.contains(col) => {
                Some(BitVec::zeros(n_rows))
            }
            PredNode::Atom(Atom::ValueEquals { col, value }) if !touched.contains(col) => {
                Some(match value {
                    Value::Missing => BitVec::ones(n_rows),
                    _ => BitVec::zeros(n_rows),
                })
            }
            _ => None,
        };
        if let Some(b) = synthesized {
            cache.insert(id, b);
            seeded += 1;
        }
    }
    seeded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{
        AllRowPredicate, FnRowPredicate, IntRangePredicate, KeyedHashPredicate, NotRowPredicate,
        RowHashPredicate,
    };
    use so_data::{AttributeDef, AttributeRole, DataType, DatasetBuilder, Schema};
    use so_plan::workload::Noise;
    use so_plan::PredShape;
    use so_plan::SubsetQuery;
    use std::sync::Arc;

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
        let mut e = CountingEngine::new(VersionedDataset::new(ds.clone()), Some(2));
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
        let mut e = CountingEngine::new(VersionedDataset::new(ds.clone()), None);
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
        let mut e = CountingEngine::new(VersionedDataset::new(ds.clone()), None);
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
        let mut e = CountingEngine::new(VersionedDataset::new(ds.clone()), None);
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
        let mut e = CountingEngine::new(VersionedDataset::new(ds.clone()), None);
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
        let mut e = CountingEngine::new(VersionedDataset::new(ds.clone()), None);
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
        let mut e = CountingEngine::new(VersionedDataset::new(ds.clone()), None);
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
        let mut e = CountingEngine::new(VersionedDataset::new(ds.clone()), Some(2));
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
        let mut e = CountingEngine::new(VersionedDataset::new(ds.clone()), None);
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

    /// 640 rows over the 5 ages of [`ds`]: 5 distinct rows ≤ 640 / 64, so
    /// the dataset has a distinct-row form.
    fn ds_with_form() -> Dataset {
        let schema = Schema::new(vec![AttributeDef::new(
            "age",
            DataType::Int,
            AttributeRole::QuasiIdentifier,
        )]);
        let mut b = DatasetBuilder::new(schema);
        for i in 0..640 {
            b.push_row(vec![Value::Int(10 * (1 + i % 5))]);
        }
        b.finish()
    }

    fn mixed_workload(n: usize) -> WorkloadSpec {
        let range = |lo, hi| PredShape::IntRange { col: 0, lo, hi };
        let mut w = WorkloadSpec::new(n);
        w.push_shape(&range(15, 45), Noise::Exact);
        w.push_shape(
            &PredShape::And(vec![range(15, 45), PredShape::Not(Box::new(range(25, 35)))]),
            Noise::Exact,
        );
        w.push_shape(
            &PredShape::Or(vec![range(0, 10), range(50, 50)]),
            Noise::Exact,
        );
        w
    }

    /// On a dataset with a distinct-row form, a repeated workload scans
    /// nothing and reports the same scans, nodes and cache hits as the full
    /// path does on a dataset without one.
    #[test]
    fn repeated_workload_over_the_form_scans_nothing() {
        let small = ds();
        let big = ds_with_form();
        assert!(small.distinct_rows().is_none());
        assert_eq!(big.distinct_rows().unwrap().rows().n_rows(), 5);
        let mut full = CountingEngine::new(VersionedDataset::new(small.clone()), None);
        let mut form = CountingEngine::new(VersionedDataset::new(big.clone()), None);
        for round in 0..2 {
            let a = full.execute_workload(&mixed_workload(small.n_rows()));
            let b = form.execute_workload(&mixed_workload(big.n_rows()));
            assert_eq!(a.stats, b.stats, "round {round}");
            assert_eq!(a.rows_scanned, (a.stats.atom_scans * 5) as u64);
            assert_eq!(b.rows_scanned, (b.stats.atom_scans * 5) as u64);
            let scaled: Vec<WorkloadAnswer> = a
                .answers
                .iter()
                .map(|x| match x {
                    WorkloadAnswer::Count(c) => WorkloadAnswer::Count(c * 128),
                    other => *other,
                })
                .collect();
            assert_eq!(b.answers, scaled, "round {round}");
            if round == 1 {
                assert_eq!(b.stats.atom_scans, 0);
                assert_eq!(b.stats.nodes_evaluated, 0);
                assert!(b.stats.cache_hits > 0);
            }
        }
        assert_eq!(form.stats(), full.stats());
        assert_eq!(form.cached_predicates(), full.cached_predicates());
    }

    /// `count` and `execute_workload` answer from one form cache, in
    /// either order.
    #[test]
    fn count_and_workload_share_the_form_cache() {
        let ds = ds_with_form();
        let p = IntRangePredicate {
            col: 0,
            lo: 15,
            hi: 45,
        };
        let mut e = CountingEngine::new(VersionedDataset::new(ds.clone()), None);
        assert_eq!(e.count(&p), Some(384));
        let mut w = WorkloadSpec::new(ds.n_rows());
        w.push_predicate(&p, Noise::Exact);
        let out = e.execute_workload(&w);
        assert_eq!(out.answers, vec![WorkloadAnswer::Count(384)]);
        assert_eq!((out.stats.atom_scans, out.stats.cache_hits), (0, 1));
        assert_eq!(out.rows_scanned, 0);

        let mut e = CountingEngine::new(VersionedDataset::new(ds.clone()), None);
        let q = IntRangePredicate {
            col: 0,
            lo: 0,
            hi: 20,
        };
        let mut w = WorkloadSpec::new(ds.n_rows());
        w.push_predicate(&q, Noise::Exact);
        let out = e.execute_workload(&w);
        assert_eq!(out.answers, vec![WorkloadAnswer::Count(256)]);
        assert_eq!(out.rows_scanned, 5, "one scan of the 5-row form");
        assert_eq!(e.count(&q), Some(256));
        assert_eq!(e.stats().atom_scans, 1);
        assert_eq!(e.stats().cache_hits, 1);
        assert_eq!(e.cached_predicates(), 1);
    }

    /// A plan with an opaque atom may read the row index, so it runs over
    /// the full dataset even when a form exists.
    #[test]
    fn opaque_plans_take_the_full_path() {
        let ds = ds_with_form();
        let even = std::sync::Arc::new(FnRowPredicate::new("even rows", |_, row| row % 2 == 0));
        let mut e = CountingEngine::new(VersionedDataset::new(ds.clone()), None);
        assert_eq!(e.count(&*even), Some(320));
        let mut w = WorkloadSpec::new(ds.n_rows());
        w.push_predicate_arc(even, Noise::Exact);
        w.push_shape(
            &PredShape::IntRange {
                col: 0,
                lo: 15,
                hi: 45,
            },
            Noise::Exact,
        );
        let out = e.execute_workload(&w);
        assert_eq!(
            out.answers,
            vec![WorkloadAnswer::Count(320), WorkloadAnswer::Count(384)]
        );
        // The opaque bitmap comes from `count`'s full-path cache entry, and
        // the range atom sharing its plan is scanned over all 640 rows.
        assert_eq!((out.stats.atom_scans, out.stats.cache_hits), (1, 1));
        assert_eq!(out.rows_scanned, 640);
    }

    /// A dataset that gains rows loses its form; an engine over the grown
    /// dataset counts the new rows.
    #[test]
    fn append_rows_drops_the_form_an_engine_uses() {
        let mut ds = ds_with_form();
        let p = IntRangePredicate {
            col: 0,
            lo: 0,
            hi: 1000,
        };
        assert_eq!(
            CountingEngine::new(VersionedDataset::new(ds.clone()), None).count(&p),
            Some(640)
        );
        let extra: Vec<Vec<Value>> = (0..10).map(|i| vec![Value::Int(100 + i)]).collect();
        ds.append_rows(&extra);
        assert!(ds.distinct_rows().is_none(), "15 distinct rows > 650 / 64");
        let mut e = CountingEngine::new(VersionedDataset::new(ds.clone()), None);
        assert_eq!(e.count(&p), Some(650));
        let mut w = WorkloadSpec::new(ds.n_rows());
        w.push_predicate(&p, Noise::Exact);
        assert_eq!(e.execute_workload(&w).rows_scanned, 0, "cached by count");
    }

    /// Workload targets carry the same stable structural hashes as the
    /// spec's own pool — the executed plan is the declared plan.
    #[test]
    fn workload_targets_match_spec_hashes() {
        let ds = ds();
        let mut e = CountingEngine::new(VersionedDataset::new(ds.clone()), None);
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
        let mut eng = CountingEngine::new(VersionedDataset::new(data.snapshot()), None);
        eng.execute_workload(spec).answers
    }

    #[test]
    fn answers_match_from_scratch_rebuild_after_mutations() {
        let mut eng = CountingEngine::new(
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
        let mut eng = CountingEngine::new(
            VersionedDataset::with_compact_threshold(base(300), 1_000_000),
            None,
        );
        let spec = workload(300);
        eng.execute_workload(&spec);
        let repairs_before = eng.incremental_stats().segment_repairs;
        eng.delete_live(&[5, 6, 7]);
        let w = eng.execute_workload(&spec);
        let s = eng.incremental_stats();
        assert_eq!(
            s.segment_repairs, repairs_before,
            "a delete must not trigger any cache repair"
        );
        assert_eq!(s.segment_hits, 1, "the base cache stayed warm");
        assert_eq!(w.answers, oracle_counts(eng.dataset(), &spec));
    }

    #[test]
    fn inserts_repair_only_the_open_tail_segment() {
        let mut eng = CountingEngine::new(
            VersionedDataset::with_compact_threshold(base(400), 1_000_000),
            None,
        );
        let spec = workload(400);
        eng.execute_workload(&spec); // builds base cache (1 repair, 400 rows)
        eng.insert_rows(&[vec![Value::Int(20), Value::Int(3)]]);
        eng.execute_workload(&spec); // base warm, new delta built
        eng.insert_rows(&[vec![Value::Int(21), Value::Int(3)]]);
        eng.execute_workload(&spec); // base + nothing else warm; tail rebuilt
        let s = eng.incremental_stats();
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
            CountingEngine::new(VersionedDataset::with_compact_threshold(base(100), 1), None);
        let spec = workload(100);
        eng.execute_workload(&spec);
        let eff = eng.insert_rows(&[vec![Value::Int(20), Value::Int(3)]]);
        assert!(eff.compacted, "threshold 1 compacts on every insert");
        let w = eng.execute_workload(&spec);
        let s = eng.incremental_stats();
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
        let mut eng = CountingEngine::new(
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
            eng.incremental_stats().shortcut_atoms >= 3,
            "column-0 atoms synthesized"
        );
        assert_eq!(w.answers, oracle_counts(eng.dataset(), &spec));
    }

    #[test]
    fn answers_are_identical_across_threads() {
        let mut reference: Option<Vec<WorkloadAnswer>> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut eng =
                CountingEngine::new(VersionedDataset::with_compact_threshold(base(500), 2), None);
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
        let mut eng = CountingEngine::new(
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
        let mut eng = CountingEngine::new(
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
