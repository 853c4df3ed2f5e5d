#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # so-plan — the predicate compilation pipeline
//!
//! Every attack in the paper — Dinur–Nissim reconstruction (Theorem 1.1),
//! the differencing / tracker shapes of Theorems 2.5–2.10, the census
//! tabulation replay — is a *workload* of thousands of structurally
//! overlapping predicates. This crate is the single canonical
//! representation and compilation pipeline those workloads flow through:
//!
//! ```text
//! RowPredicate ──shape()──▶ PredShape ──lift──▶ ExprId (hash-consed IR)
//!                                                   │
//!                                 WorkloadSpec ──compile──▶ QueryPlan
//!                                                   │
//!                                  bitmap kernels ──▶ BitVec
//! ```
//!
//! * [`predicate`] — the [`Predicate`] / [`RowPredicate`] traits and the
//!   canonical row-byte encoding. The concrete typed predicates live in
//!   `so-query`; the traits live here so workload declarations can carry
//!   executable predicates.
//! * [`shape`] — [`PredShape`], the structural reflection of a predicate
//!   (what used to key the bitmap cache directly, now the on-ramp to the
//!   IR).
//! * [`ir`] — the hash-consed predicate algebra: [`PredPool`] / [`ExprId`]
//!   with constant folding, NNF, and a stable structural FNV hash. One pool
//!   is shared by the static linter (`so-analyze`) and the executing engine
//!   (`so-query`), so the plan that is linted is the plan that runs.
//! * [`kernels`] — columnar scan kernels giving each IR atom its bitmap
//!   semantics over a [`so_data::Dataset`]; `so-query`'s typed predicates
//!   delegate here, so there is exactly one implementation of each atom.
//! * [`subset`] — [`SubsetQuery`], the Dinur–Nissim subset-sum question.
//! * [`workload`] — [`WorkloadSpec`], the declared plan of a workload
//!   (queries + noise annotations + registered closure evaluators).
//! * [`plan`] — [`QueryPlan`], the compiled whole-workload execution plan:
//!   hash-consing deduplicates structurally equal queries, shared
//!   subexpressions are scanned once, and NOT/AND/OR evaluate as pure
//!   word-ops over child bitmaps.
//! * [`noise`] — the one shared copy of the Laplace tail-quantile /
//!   effective-α logic (see [`noise::laplace_tail_quantile`]).
//! * [`parallel`] — [`ParallelExecutor`], sharded multi-threaded plan
//!   execution over word-aligned row ranges (per-thread shards or
//!   [`MORSEL_ROWS`]-row morsels, chosen from the row count),
//!   bit-identical to the serial path at every thread count
//!   (`SO_THREADS` override).
//! * [`obs`] — the bridge to the `so-obs` global metrics registry: every
//!   execution publishes its [`PlanStats`] counters and (export-only)
//!   wall-clock histograms there.

pub mod ir;
pub mod kernels;
pub mod noise;
pub mod obs;
pub mod parallel;
pub mod plan;
pub mod predicate;
pub mod shape;
pub mod subset;
pub mod workload;

pub use ir::{Atom, ExprId, PredNode, PredPool};
pub use noise::laplace_tail_quantile;
pub use obs::{plan_metrics, registry_plan_stats, PlanMetrics};
pub use parallel::{ParallelExecutor, MORSEL_ROWS, THREADS_ENV};
pub use plan::{NodeCache, PlanOutcome, PlanStats, QueryPlan};
pub use predicate::{canonical_bytes, Predicate, RowPredicate};
pub use shape::{next_opaque_id, PredShape};
pub use subset::SubsetQuery;
pub use workload::{Noise, QueryKind, QuerySpec, WorkloadSpec};
