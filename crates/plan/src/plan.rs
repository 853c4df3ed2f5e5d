//! Compiled whole-workload execution plans.
//!
//! A [`QueryPlan`] is a [`crate::workload::WorkloadSpec`] after compilation:
//! the distinct IR expressions reachable from the workload's predicate
//! queries, in bottom-up evaluation order. Hash-consing has already
//! deduplicated structurally equal queries and shared subexpressions, so
//! executing the plan
//!
//! * scans each distinct atom **once** (the expensive part — a pass over a
//!   column or a row-hash loop),
//! * evaluates each AND/OR/NOT node **once** as pure word-ops over its
//!   children's bitmaps,
//! * answers every query as a popcount of its target bitmap.
//!
//! The [`NodeCache`] is caller-owned, so an engine can keep it across
//! workloads: a predicate the engine has already compiled — via a previous
//! workload or a single-query `count` — is never rescanned.
//!
//! Interning order guarantees a child's [`ExprId`] is smaller than its
//! parent's, so increasing-id order over the reachable set is a valid
//! evaluation schedule; no explicit topological sort is needed.
//!
//! A plan does not care which relation it runs over. `so-query`'s
//! `CountingEngine` executes one plan per segment of a versioned dataset,
//! with node caches per segment. On a segment with a weighted distinct-row
//! form ([`so_data::Dataset::distinct_rows`]) and no tombstones, plans with
//! no opaque atom run against the form, with a node cache of its own, and
//! each target's bitmap is weighed by row multiplicity
//! ([`BitVec::weighted_count`]); the popcounts [`QueryPlan::execute`]
//! returns then count distinct rows, and [`PlanStats`] counts scans of the
//! form.

use std::collections::HashMap;
use std::sync::Arc;

use so_data::{BitVec, Dataset};

use crate::ir::{Atom, ExprId, PredNode, PredPool};
use crate::kernels::scan_atom;
use crate::predicate::RowPredicate;
use crate::workload::{QueryKind, WorkloadSpec};

/// Per-expression compiled bitmaps, keyed by the owning pool's [`ExprId`].
/// Caller-owned so it can persist across plan executions (and across
/// single-query engine calls) against the same dataset.
pub type NodeCache = HashMap<ExprId, BitVec>;

/// Counters describing what executing a plan actually did.
///
/// Each execution tallies its own `PlanStats` locally (the deterministic
/// value engines and transcripts consume) and publishes the same counts to
/// the [`so_obs::global`] metrics registry; the cumulative process-wide view
/// is available as [`crate::obs::registry_plan_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Queries in the workload.
    pub queries: usize,
    /// Distinct target expressions after hash-consing (≤ `queries`).
    pub distinct_targets: usize,
    /// IR nodes evaluated fresh this execution (not served by the cache).
    pub nodes_evaluated: usize,
    /// Dataset scans performed (atom scans + opaque evaluator scans) — the
    /// expensive part; everything else is word-ops over existing bitmaps.
    pub atom_scans: usize,
    /// Node lookups served by the [`NodeCache`].
    pub cache_hits: usize,
    /// Queries with no tabular answer (subset queries, bit-string atoms,
    /// opaque atoms without a registered evaluator).
    pub unanswerable: usize,
}

/// The answer the plan produced for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOutcome {
    /// Exact count of matching rows.
    Count(usize),
    /// The query cannot be answered by the tabular bitmap engine: subset
    /// queries (answer those against a bit dataset with
    /// `SubsetSumMechanism`), predicates over bit-string records, or opaque
    /// predicates with no registered evaluator.
    Unanswerable,
}

/// A compiled workload: per-query target expressions plus the distinct
/// reachable IR nodes in bottom-up evaluation order.
pub struct QueryPlan {
    targets: Vec<Option<ExprId>>,
    order: Vec<ExprId>,
}

impl QueryPlan {
    /// Compiles a plan for explicit per-query targets (`None` marks a query
    /// with no predicate target, e.g. a subset query) against the pool that
    /// owns them.
    pub fn compile(pool: &PredPool, targets: Vec<Option<ExprId>>) -> Self {
        let mut reachable: Vec<bool> = vec![false; pool.len()];
        let mut stack: Vec<ExprId> = targets.iter().flatten().copied().collect();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut reachable[id.index()], true) {
                continue;
            }
            match pool.node(id) {
                PredNode::True | PredNode::False | PredNode::Atom(_) => {}
                PredNode::And(children) | PredNode::Or(children) => {
                    stack.extend(children.iter().copied());
                }
                PredNode::Not(inner) => stack.push(*inner),
            }
        }
        // Increasing index = children before parents (interning invariant),
        // so ascending order over the reachable set is the schedule.
        let order: Vec<ExprId> = (0..pool.len())
            .filter(|&i| reachable[i])
            .map(ExprId::from_index)
            .collect();
        QueryPlan { targets, order }
    }

    /// Compiles a workload spec against its own pool. Subset queries get a
    /// `None` target (they have no tabular predicate; see [`PlanOutcome`]).
    pub fn from_spec(spec: &WorkloadSpec) -> Self {
        let targets: Vec<Option<ExprId>> = spec
            .queries()
            .iter()
            .map(|q| match &q.kind {
                QueryKind::Pred(id) => Some(*id),
                QueryKind::Subset(_) => None,
            })
            .collect();
        Self::compile(spec.pool(), targets)
    }

    /// Per-query target expressions (`None` for subset queries).
    pub fn targets(&self) -> &[Option<ExprId>] {
        &self.targets
    }

    /// The distinct reachable IR nodes in evaluation (increasing-id) order.
    pub fn order(&self) -> &[ExprId] {
        &self.order
    }

    /// Executes the plan against a dataset, filling `cache` bottom-up and
    /// answering each query as a popcount of its target bitmap.
    ///
    /// `evaluators` supplies closure scans for [`Atom::Opaque`] atoms (see
    /// [`WorkloadSpec::push_predicate_arc`]); opaque atoms without one, and
    /// bit-string atoms, make the nodes above them unanswerable. The cache
    /// must be keyed by the same `pool` and must have been built against the
    /// same `ds` — engines guarantee both by owning pool, cache, and dataset
    /// together.
    pub fn execute(
        &self,
        pool: &PredPool,
        ds: &Dataset,
        evaluators: &HashMap<u64, Arc<dyn RowPredicate>>,
        cache: &mut NodeCache,
    ) -> (Vec<PlanOutcome>, PlanStats) {
        let started = std::time::Instant::now();
        let span = so_obs::span("plan.execute");
        let n = ds.n_rows();
        let mut stats = PlanStats {
            queries: self.targets.len(),
            distinct_targets: {
                let mut t: Vec<ExprId> = self.targets.iter().flatten().copied().collect();
                t.sort_unstable();
                t.dedup();
                t.len()
            },
            ..PlanStats::default()
        };
        // Nodes with no tabular semantics *this execution* (an opaque atom
        // may gain an evaluator in a later workload, so this is not cached).
        let mut unavailable: Vec<bool> = Vec::new();
        let is_unavailable = |v: &Vec<bool>, id: ExprId| id.index() < v.len() && v[id.index()];
        for &id in &self.order {
            if unavailable.len() <= id.index() {
                unavailable.resize(id.index() + 1, false);
            }
            if cache.contains_key(&id) {
                stats.cache_hits += 1;
                continue;
            }
            let bitmap: Option<BitVec> = match pool.node(id) {
                PredNode::True => Some(BitVec::ones(n)),
                PredNode::False => Some(BitVec::zeros(n)),
                PredNode::Atom(atom) => match scan_atom(atom, ds) {
                    Some(b) => {
                        stats.atom_scans += 1;
                        Some(b)
                    }
                    None => match atom {
                        Atom::Opaque { id: opaque_id } => evaluators.get(opaque_id).map(|p| {
                            stats.atom_scans += 1;
                            p.scan(ds)
                        }),
                        _ => None,
                    },
                },
                PredNode::And(children) => {
                    if children.iter().any(|&c| is_unavailable(&unavailable, c)) {
                        None
                    } else {
                        let mut acc = cache[&children[0]].clone();
                        for c in &children[1..] {
                            acc.and_assign(&cache[c]);
                        }
                        Some(acc)
                    }
                }
                PredNode::Or(children) => {
                    if children.iter().any(|&c| is_unavailable(&unavailable, c)) {
                        None
                    } else {
                        let mut acc = cache[&children[0]].clone();
                        for c in &children[1..] {
                            acc.or_assign(&cache[c]);
                        }
                        Some(acc)
                    }
                }
                PredNode::Not(inner) => {
                    if is_unavailable(&unavailable, *inner) {
                        None
                    } else {
                        let mut b = cache[inner].clone();
                        b.not_assign();
                        Some(b)
                    }
                }
            };
            match bitmap {
                Some(b) => {
                    stats.nodes_evaluated += 1;
                    cache.insert(id, b);
                }
                None => unavailable[id.index()] = true,
            }
        }
        let outcomes: Vec<PlanOutcome> = self
            .targets
            .iter()
            .map(|t| match t {
                Some(id) => match cache.get(id) {
                    Some(b) => PlanOutcome::Count(b.count_ones()),
                    None => {
                        stats.unanswerable += 1;
                        PlanOutcome::Unanswerable
                    }
                },
                None => {
                    stats.unanswerable += 1;
                    PlanOutcome::Unanswerable
                }
            })
            .collect();
        crate::obs::record_execution(&stats, started.elapsed().as_micros() as u64);
        if so_obs::enabled() {
            span.finish_with(&[
                ("queries", stats.queries.to_string()),
                ("atom_scans", stats.atom_scans.to_string()),
                ("cache_hits", stats.cache_hits.to_string()),
                ("nodes_evaluated", stats.nodes_evaluated.to_string()),
            ]);
        }
        (outcomes, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::PredShape;
    use crate::workload::Noise;
    use so_data::{AttributeDef, AttributeRole, DataType, DatasetBuilder, Schema, Value};

    fn ds() -> Dataset {
        let schema = Schema::new(vec![
            AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("score", DataType::Int, AttributeRole::Sensitive),
        ]);
        let mut b = DatasetBuilder::new(schema);
        for i in 0..70i64 {
            b.push_row(vec![Value::Int(20 + (i % 50)), Value::Int(i)]);
        }
        b.finish()
    }

    fn range(col: usize, lo: i64, hi: i64) -> PredShape {
        PredShape::IntRange { col, lo, hi }
    }

    #[test]
    fn shared_conjunct_is_scanned_once() {
        let ds = ds();
        let mut w = WorkloadSpec::new(ds.n_rows());
        let shared = range(0, 30, 60);
        // Ten queries all refining the same base range.
        for i in 0..10 {
            w.push_shape(
                &PredShape::And(vec![shared.clone(), range(1, 0, 10 + i)]),
                Noise::Exact,
            );
        }
        let plan = QueryPlan::from_spec(&w);
        let mut cache = NodeCache::new();
        let (outcomes, stats) = plan.execute(w.pool(), &ds, w.evaluators(), &mut cache);
        assert_eq!(outcomes.len(), 10);
        // 1 shared atom + 10 refinement atoms, each scanned exactly once.
        assert_eq!(stats.atom_scans, 11);
        assert_eq!(stats.unanswerable, 0);
        // Every answer matches a scalar re-count.
        for (i, o) in outcomes.iter().enumerate() {
            let expected = (0..ds.n_rows())
                .filter(|&r| {
                    let age = ds.get(r, 0).as_int().unwrap();
                    let score = ds.get(r, 1).as_int().unwrap();
                    (30..=60).contains(&age) && (0..=10 + i as i64).contains(&score)
                })
                .count();
            assert_eq!(*o, PlanOutcome::Count(expected), "query {i}");
        }
        // Re-executing against the same cache does zero new work.
        let (again, stats2) = plan.execute(w.pool(), &ds, w.evaluators(), &mut cache);
        assert_eq!(again, outcomes);
        assert_eq!(stats2.atom_scans, 0);
        assert_eq!(stats2.nodes_evaluated, 0);
        assert_eq!(stats2.cache_hits, stats.nodes_evaluated);
    }

    #[test]
    fn duplicate_queries_collapse_to_one_target() {
        let ds = ds();
        let mut w = WorkloadSpec::new(ds.n_rows());
        for _ in 0..5 {
            w.push_shape(&range(0, 25, 45), Noise::Exact);
        }
        let plan = QueryPlan::from_spec(&w);
        let mut cache = NodeCache::new();
        let (outcomes, stats) = plan.execute(w.pool(), &ds, w.evaluators(), &mut cache);
        assert_eq!(stats.queries, 5);
        assert_eq!(stats.distinct_targets, 1);
        assert_eq!(stats.atom_scans, 1);
        assert!(outcomes.windows(2).all(|p| p[0] == p[1]));
    }

    #[test]
    fn negation_is_word_ops_not_a_second_scan() {
        let ds = ds();
        let mut w = WorkloadSpec::new(ds.n_rows());
        let r = range(0, 30, 60);
        let a = w.push_shape(&r, Noise::Exact);
        let b = w.push_shape(&PredShape::Not(Box::new(r)), Noise::Exact);
        let plan = QueryPlan::from_spec(&w);
        let mut cache = NodeCache::new();
        let (outcomes, stats) = plan.execute(w.pool(), &ds, w.evaluators(), &mut cache);
        assert_eq!(stats.atom_scans, 1, "NOT reuses the positive bitmap");
        let (PlanOutcome::Count(pos), PlanOutcome::Count(neg)) = (outcomes[a], outcomes[b]) else {
            panic!("both answerable");
        };
        assert_eq!(pos + neg, ds.n_rows());
    }

    #[test]
    fn subset_and_unregistered_opaque_are_unanswerable() {
        let ds = ds();
        let mut w = WorkloadSpec::new(ds.n_rows());
        let s = crate::subset::SubsetQuery::from_indices(ds.n_rows(), &[0, 1, 2]);
        let i_subset = w.push_subset(&s, Noise::Exact);
        let i_opaque = w.push_shape(&PredShape::Opaque { id: u64::MAX }, Noise::Exact);
        let i_ok = w.push_shape(&range(0, 0, 200), Noise::Exact);
        let plan = QueryPlan::from_spec(&w);
        let mut cache = NodeCache::new();
        let (outcomes, stats) = plan.execute(w.pool(), &ds, w.evaluators(), &mut cache);
        assert_eq!(outcomes[i_subset], PlanOutcome::Unanswerable);
        assert_eq!(outcomes[i_opaque], PlanOutcome::Unanswerable);
        assert_eq!(outcomes[i_ok], PlanOutcome::Count(ds.n_rows()));
        assert_eq!(stats.unanswerable, 2);
    }

    #[test]
    fn registered_evaluator_executes_opaque_queries() {
        struct EvenRows;
        impl RowPredicate for EvenRows {
            fn eval_row(&self, _ds: &Dataset, row: usize) -> bool {
                row % 2 == 0
            }
        }
        let ds = ds();
        let mut w = WorkloadSpec::new(ds.n_rows());
        let i = w.push_predicate_arc(Arc::new(EvenRows), Noise::Exact);
        let plan = QueryPlan::from_spec(&w);
        let mut cache = NodeCache::new();
        let (outcomes, stats) = plan.execute(w.pool(), &ds, w.evaluators(), &mut cache);
        assert_eq!(outcomes[i], PlanOutcome::Count(ds.n_rows().div_ceil(2)));
        assert_eq!(stats.atom_scans, 1);
        assert_eq!(stats.unanswerable, 0);
    }
}
