#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # so-data — dataset substrate
//!
//! Foundation crate for the `singling-out` workspace: typed values, schemas,
//! columnar datasets, probability distributions over data universes, and the
//! synthetic data generators used by every experiment in the reproduction of
//! Nissim, *"Privacy: From Database Reconstruction to Legal Theorems"*
//! (PODS 2021).
//!
//! The paper models a dataset as a vector `x = (x_1, ..., x_n) ∈ X^n` of
//! records drawn from a data domain `X`. This crate provides three concrete
//! families of `X`:
//!
//! * **binary records** (`{0,1}`) and **bit-string records** (`{0,1}^d`) via
//!   [`bits::BitVec`] and [`bits::BitDataset`] — the domain of the
//!   Dinur–Nissim reconstruction attacks (Theorem 1.1) and of the
//!   predicate-singling-out composition attack (Theorem 2.8). The same
//!   [`bits::BitVec`] marks the rows a predicate selects;
//! * **tabular records** via [`dataset::Dataset`] with a typed
//!   [`schema::Schema`] — the domain of the k-anonymity analyses
//!   (Theorem 2.10), the Sweeney-style linkage experiments, and the census
//!   reconstruction;
//! * **sparse rating records** via [`ratings::RatingsData`] — the domain of
//!   the Narayanan–Shmatikov de-anonymization experiment.
//!
//! Sampling follows the paper's modelling choice (§2.2): records are drawn
//! i.i.d. from a fixed distribution `D ∈ Δ(X)`, represented by the
//! [`dist::RecordDistribution`] trait.

pub mod bits;
pub mod csv;
pub mod dataset;
pub mod date;
pub mod dist;
pub mod interner;
pub mod obs;
pub mod population;
pub mod ratings;
pub mod rng;
pub mod schema;
pub mod value;
pub mod versioned;

pub use bits::{column_counts, BitDataset, BitVec};
pub use dataset::{Dataset, DatasetBuilder, DistinctRows, RowRef};
pub use date::Date;
pub use dist::{
    Categorical, ProductBernoulli, RecordDistribution, RowDistribution, UniformBits, Zipf,
};
pub use interner::{Interner, Symbol};
pub use obs::{delta_metrics, DeltaMetrics};
pub use population::{Population, PopulationConfig};
pub use ratings::{RatingsConfig, RatingsData};
pub use schema::{AttributeDef, AttributeRole, DataType, Schema};
pub use value::Value;
pub use versioned::{
    compact_threshold_from_env, MutationEffect, VersionedDataset, DEFAULT_COMPACT_THRESHOLD,
    DELTA_SEGMENT_ROWS,
};
