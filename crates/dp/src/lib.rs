#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # so-dp — differential privacy
//!
//! Implementation of the technology the paper holds up as the remedy
//! (Definition 1.2, Theorem 1.3, Theorem 2.9): ε-differentially private
//! mechanisms built from scratch —
//!
//! * noise samplers ([`samplers`]): Laplace via inverse CDF, two-sided
//!   geometric (the discrete Laplace), Gaussian via Box–Muller;
//! * mechanisms ([`mechanisms`]): the Laplace counting mechanism of
//!   Theorem 1.3, noisy histograms, randomized response, and the exponential
//!   mechanism;
//! * composition accounting ([`accountant`]): basic and advanced composition
//!   with a spendable privacy budget — the property ("differential privacy is
//!   closed under composition") that §1.1 contrasts with k-anonymity's
//!   composition failure;
//! * a Laplace-noised subset-sum mechanism ([`laplace_sum`]) implementing
//!   `so_query::SubsetSumMechanism`, so the Dinur–Nissim reconstruction
//!   attacks can be aimed at DP-protected data and be seen to fail.
//!
//! Neighboring convention: throughout we use the paper's Definition 1.2 —
//! datasets `x, x'` *differ on a single entry* (substitution / bounded DP).
//! Sensitivities are stated under that convention: a counting query has
//! sensitivity 1, a full histogram has L1 sensitivity 2.

pub mod accountant;
pub mod laplace_sum;
pub mod mechanisms;
pub mod obs;
pub mod samplers;
pub mod svt;
pub mod verify;

pub use accountant::{AdvancedComposition, BasicComposition, BudgetPrecheck, ContinualAccountant};
pub use laplace_sum::LaplaceSum;
pub use mechanisms::{
    exponential_mechanism, noisy_histogram, randomized_response, GaussianCount, GeometricCount,
    LaplaceCount,
};
pub use obs::{dp_metrics, DpMetrics};
pub use samplers::{sample_gaussian, sample_laplace, sample_two_sided_geometric};
pub use svt::{SparseVector, SvtAnswer};
pub use verify::{audit_dp_pair, DpAuditConfig, DpAuditResult};
