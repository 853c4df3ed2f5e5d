#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # so-query — statistical query engine
//!
//! The paper's attacks all interact with data through *statistical queries*:
//!
//! * the Dinur–Nissim reconstruction setting (§1, Theorem 1.1) issues
//!   **subset-sum queries** `q ⊆ [n]` against a binary dataset
//!   `x ∈ {0,1}^n`, answered by a mechanism with bounded error `α`;
//! * the predicate-singling-out framework (§2) evaluates **predicates**
//!   `p : X → {0,1}` on records and publishes **counts**
//!   `M_#q(x) = Σ_i q(x_i)` (Theorem 2.5).
//!
//! This crate provides both: concrete typed predicates with combinators and
//! keyed-hash random predicate families (the Leftover-Hash-Lemma-style
//! predicates of §2.2), row predicates over tabular [`so_data::Dataset`]s,
//! subset-sum queries with exact / bounded-noise answer mechanisms, and a
//! query auditor that tracks how much of the "fundamental law of information
//! recovery" budget a client has consumed.
//!
//! Compilation — predicate traits, structural shapes, the hash-consed IR,
//! workload specs, and the bitmap kernels — lives below this crate in
//! `so-plan`; the historical `so_query` paths for those items re-export it.
//! [`CountingEngine`] executes single queries and whole workloads
//! ([`CountingEngine::execute_workload`]) through that one pipeline, over a
//! [`so_data::VersionedDataset`]: one segment for immutable data, or a
//! base plus delta segments plus tombstones for mutable data, with
//! per-segment caches that survive mutation.

pub mod audit;
pub mod engine;
pub mod mechanism;
pub mod obs;
pub mod predicate;
pub mod query;
pub mod transcript;
pub mod workload;

pub use audit::{AuditRecord, QueryAuditor};
pub use engine::{
    count_dataset, count_dataset_scalar, scan_dataset, select_dataset, select_dataset_scalar,
    CountingEngine, IncrementalStats, WorkloadAnswer, WorkloadAnswers,
};
pub use mechanism::{BoundedNoiseSum, ExactSum, RoundingSum, SubsetSumMechanism};
pub use obs::{query_metrics, QueryMetrics};
pub use predicate::{
    canonical_bytes, AllRowPredicate, AndPredicate, AnyRowPredicate, BitExtractPredicate,
    FnPredicate, FnRowPredicate, IntRangePredicate, KeyedHashPredicate, NotPredicate,
    NotRowPredicate, OrPredicate, Predicate, PrefixPredicate, RowHashPredicate, RowPredicate,
    ValueEqualsPredicate,
};
pub use query::{count, matching_indices, CountQuery, SubsetQuery};
pub use so_plan::shape::PredShape;
pub use transcript::{MutationOp, MutationTranscript, ReplayConfig, ReplayOutcome};
pub use workload::{
    all_subsets_workload, prefix_workload, random_subset_workload, tracker_workload,
};
