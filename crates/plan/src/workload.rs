//! Workload declarations — the input to both the linter and the planner.
//!
//! A [`WorkloadSpec`] is the *plan* of a query workload — what will be
//! asked, and with how much noise — declared before anything executes.
//! Subset-sum queries are kept as their membership masks (the lints can do
//! exact set arithmetic on those); predicate queries are lifted into the
//! canonical IR of [`crate::ir`], so structurally equal predicates share an
//! id and refinement relationships are visible symbolically.
//!
//! The same spec then drives execution: `so-analyze`'s gate lints it, and
//! `so-query`'s `CountingEngine::execute_workload` compiles it into one
//! [`crate::plan::QueryPlan`] and answers it with bitmap kernels, run once
//! per segment of the engine's versioned dataset. Closure
//! predicates that cannot expose structure are carried as *registered
//! evaluators* ([`WorkloadSpec::push_predicate_arc`]) keyed by their opaque
//! id, so the planner can still execute them (as whole-predicate scans)
//! while the linter conservatively treats them as unknowns.

use std::collections::HashMap;
use std::sync::Arc;

use so_data::BitVec;

use crate::ir::{Atom, ExprId, PredPool};
use crate::noise::laplace_tail_quantile;
use crate::predicate::RowPredicate;
use crate::shape::{next_opaque_id, PredShape};
use crate::subset::SubsetQuery;

/// How a query's answers will be released — the noise annotation the lints
/// reason about.
///
/// This is *declared* release noise, consumed by the static lints (e.g. the
/// reconstruction-density lint compares workload size against
/// [`Noise::effective_alpha`]); the executing engine returns exact counts
/// and leaves noise addition to the caller's release mechanism, so the
/// annotation here must match whatever mechanism actually publishes the
/// answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Noise {
    /// Exact answers (no noise). Differencing on exact pairs is arithmetic.
    Exact,
    /// Answers with worst-case additive error at most `alpha` (the `α` of
    /// Theorem 1.1's bounded-error mechanisms).
    Bounded {
        /// Worst-case additive error bound.
        alpha: f64,
    },
    /// Answers through a pure ε-DP mechanism (e.g. Laplace counts).
    PureDp {
        /// Per-query privacy-loss parameter.
        epsilon: f64,
    },
}

/// The tail probability behind [`Noise::effective_alpha`]'s pure-DP arm:
/// the Laplace noise exceeds the effective α on a given query with
/// probability `1e-3`.
pub const EFFECTIVE_ALPHA_TAIL: f64 = 1e-3;

impl Noise {
    /// Effective worst-case-style error magnitude used by the
    /// reconstruction-density lint: 0 for exact answers, `α` for bounded
    /// noise, and for pure DP the 99.9% quantile of the Laplace noise
    /// ([`laplace_tail_quantile`] at [`EFFECTIVE_ALPHA_TAIL`], i.e.
    /// `ln(1000)/ε`) — the scale at which Theorem 1.1's "within α of the
    /// true answer" premise effectively holds for the whole workload.
    pub fn effective_alpha(&self) -> f64 {
        match *self {
            Noise::Exact => 0.0,
            Noise::Bounded { alpha } => alpha,
            Noise::PureDp { epsilon } => laplace_tail_quantile(epsilon, EFFECTIVE_ALPHA_TAIL),
        }
    }
}

/// What a query asks.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryKind {
    /// A Dinur–Nissim subset-sum query, kept as its membership mask.
    Subset(BitVec),
    /// A predicate counting query, lifted into the pool.
    Pred(ExprId),
}

/// One planned query: what is asked and how it will be answered.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The question.
    pub kind: QueryKind,
    /// The release mechanism's noise annotation.
    pub noise: Noise,
}

/// A declared workload over a dataset of `n_rows` (live) records: the one
/// object that flows through `so-analyze`'s `lint_workload` *and*
/// `so-query`'s `CountingEngine::execute_workload`.
pub struct WorkloadSpec {
    n_rows: usize,
    queries: Vec<QuerySpec>,
    pool: PredPool,
    evaluators: HashMap<u64, Arc<dyn RowPredicate>>,
}

impl WorkloadSpec {
    /// An empty workload against a dataset of `n_rows` records.
    pub fn new(n_rows: usize) -> Self {
        WorkloadSpec {
            n_rows,
            queries: Vec::new(),
            pool: PredPool::new(),
            evaluators: HashMap::new(),
        }
    }

    /// Number of records in the target dataset.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of planned queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True iff no queries are planned.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The planned queries, in declaration order.
    pub fn queries(&self) -> &[QuerySpec] {
        &self.queries
    }

    /// The predicate pool backing `Pred` queries.
    pub fn pool(&self) -> &PredPool {
        &self.pool
    }

    /// Mutable access to the pool (for building expressions directly).
    pub fn pool_mut(&mut self) -> &mut PredPool {
        &mut self.pool
    }

    /// The registered closure evaluator for an opaque atom id, if any.
    pub fn evaluator(&self, opaque_id: u64) -> Option<&Arc<dyn RowPredicate>> {
        self.evaluators.get(&opaque_id)
    }

    /// All registered closure evaluators, keyed by opaque atom id.
    pub fn evaluators(&self) -> &HashMap<u64, Arc<dyn RowPredicate>> {
        &self.evaluators
    }

    /// Plans a subset-sum query. Returns its index.
    ///
    /// # Panics
    /// Panics if the query's universe size disagrees with `n_rows`.
    pub fn push_subset(&mut self, q: &SubsetQuery, noise: Noise) -> usize {
        assert_eq!(
            q.n(),
            self.n_rows,
            "subset query over universe of {} rows pushed into a workload over {}",
            q.n(),
            self.n_rows
        );
        self.push_kind(QueryKind::Subset(q.members().clone()), noise)
    }

    /// Plans every query of a subset workload in order.
    pub fn push_subsets(&mut self, qs: &[SubsetQuery], noise: Noise) {
        for q in qs {
            self.push_subset(q, noise);
        }
    }

    /// Plans a predicate counting query via its structural shape. Returns
    /// its index.
    ///
    /// Declares the *shape* only: an opaque or volatile predicate pushed
    /// this way is visible to the lints but has no registered evaluator, so
    /// execution reports it unanswerable. Use
    /// [`WorkloadSpec::push_predicate_arc`] when the workload will also be
    /// executed.
    pub fn push_predicate(&mut self, p: &dyn RowPredicate, noise: Noise) -> usize {
        let id = self.pool.lift_row_predicate(p);
        self.push_kind(QueryKind::Pred(id), noise)
    }

    /// Plans a predicate counting query *and* keeps the predicate around so
    /// the planner can execute it. Returns its index.
    ///
    /// * Fully structural shapes (no opaque/volatile node) are lifted into
    ///   the IR as usual — the bitmap kernels execute them and hash-consing
    ///   shares their subexpressions; the `Arc` is not retained.
    /// * A top-level [`PredShape::Opaque`] registers the predicate as the
    ///   evaluator for its stable id, so repeated pushes of the *same
    ///   instance* still dedupe to one expression.
    /// * Anything else (volatile, or structure mixed with opaque nodes) is
    ///   wrapped whole as a single fresh opaque atom with the predicate as
    ///   its evaluator: sound — never aliases another predicate's bitmap —
    ///   at the cost of sub-expression sharing for that query.
    pub fn push_predicate_arc(&mut self, p: Arc<dyn RowPredicate>, noise: Noise) -> usize {
        let shape = p.shape();
        let id = if shape.is_fully_structural() {
            self.pool.lift(&shape)
        } else {
            let opaque_id = match shape {
                PredShape::Opaque { id } => id,
                _ => next_opaque_id(),
            };
            self.evaluators.insert(opaque_id, p);
            self.pool.atom(Atom::Opaque { id: opaque_id })
        };
        self.push_kind(QueryKind::Pred(id), noise)
    }

    /// Plans a predicate counting query from an explicit shape.
    pub fn push_shape(&mut self, shape: &PredShape, noise: Noise) -> usize {
        let id = self.pool.lift(shape);
        self.push_kind(QueryKind::Pred(id), noise)
    }

    /// Plans a predicate counting query from an already-interned expression.
    pub fn push_expr(&mut self, id: ExprId, noise: Noise) -> usize {
        self.push_kind(QueryKind::Pred(id), noise)
    }

    fn push_kind(&mut self, kind: QueryKind, noise: Noise) -> usize {
        self.queries.push(QuerySpec { kind, noise });
        self.queries.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_data::Dataset;

    #[test]
    fn structurally_equal_predicates_share_an_id() {
        let mut w = WorkloadSpec::new(10);
        let shape = PredShape::IntRange {
            col: 0,
            lo: 1,
            hi: 5,
        };
        w.push_shape(&shape, Noise::Exact);
        w.push_shape(&shape.clone(), Noise::Exact);
        let ids: Vec<_> = w
            .queries()
            .iter()
            .map(|s| match &s.kind {
                QueryKind::Pred(id) => *id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids[0], ids[1]);
    }

    #[test]
    #[should_panic(expected = "universe")]
    fn subset_universe_mismatch_panics() {
        let mut w = WorkloadSpec::new(10);
        let q = SubsetQuery::from_indices(5, &[0, 1]);
        w.push_subset(&q, Noise::Exact);
    }

    #[test]
    fn effective_alpha_orders_mechanisms() {
        assert_eq!(Noise::Exact.effective_alpha(), 0.0);
        assert_eq!(Noise::Bounded { alpha: 3.0 }.effective_alpha(), 3.0);
        let dp = Noise::PureDp { epsilon: 0.5 }.effective_alpha();
        assert!(dp > 13.0 && dp < 14.0, "ln(1000)/0.5 ≈ 13.8, got {dp}");
    }

    struct StatelessTrue;
    impl RowPredicate for StatelessTrue {
        fn eval_row(&self, _ds: &Dataset, _row: usize) -> bool {
            true
        }
        // Default shape: Volatile.
    }

    struct Stable {
        id: u64,
    }
    impl RowPredicate for Stable {
        fn eval_row(&self, _ds: &Dataset, _row: usize) -> bool {
            true
        }
        fn shape(&self) -> PredShape {
            PredShape::Opaque { id: self.id }
        }
    }

    #[test]
    fn volatile_arcs_get_distinct_evaluators() {
        let mut w = WorkloadSpec::new(4);
        w.push_predicate_arc(Arc::new(StatelessTrue), Noise::Exact);
        w.push_predicate_arc(Arc::new(StatelessTrue), Noise::Exact);
        let ids: Vec<_> = w
            .queries()
            .iter()
            .map(|s| match &s.kind {
                QueryKind::Pred(id) => *id,
                _ => unreachable!(),
            })
            .collect();
        assert_ne!(ids[0], ids[1], "volatile predicates must never alias");
        assert_eq!(w.evaluators().len(), 2);
    }

    #[test]
    fn stable_opaque_arcs_dedupe_by_identity() {
        let mut w = WorkloadSpec::new(4);
        let p: Arc<dyn RowPredicate> = Arc::new(Stable {
            id: next_opaque_id(),
        });
        let i = w.push_predicate_arc(Arc::clone(&p), Noise::Exact);
        let j = w.push_predicate_arc(Arc::clone(&p), Noise::Exact);
        let ids: Vec<_> = w
            .queries()
            .iter()
            .map(|s| match &s.kind {
                QueryKind::Pred(id) => *id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids[i], ids[j], "same instance shares one expression");
        assert_eq!(w.evaluators().len(), 1);
    }

    #[test]
    fn structural_arcs_are_not_retained() {
        struct Range;
        impl RowPredicate for Range {
            fn eval_row(&self, ds: &Dataset, row: usize) -> bool {
                crate::kernels::eval_atom_row(
                    &Atom::IntRange {
                        col: 0,
                        lo: 0,
                        hi: 9,
                    },
                    ds,
                    row,
                )
                .unwrap_or(false)
            }
            fn shape(&self) -> PredShape {
                PredShape::IntRange {
                    col: 0,
                    lo: 0,
                    hi: 9,
                }
            }
        }
        let mut w = WorkloadSpec::new(4);
        w.push_predicate_arc(Arc::new(Range), Noise::Exact);
        assert!(
            w.evaluators().is_empty(),
            "structural shapes need no evaluator"
        );
    }
}
