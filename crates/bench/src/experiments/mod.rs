//! One module per experiment of DESIGN.md §3.

pub mod e01_exhaustive_reconstruction;
pub mod e02_lp_reconstruction;
pub mod e03_fundamental_law;
pub mod e04_baseline_isolation;
pub mod e05_count_pso;
pub mod e06_composition_attack;
pub mod e07_dp_pso;
pub mod e08_kanon_pso;
pub mod e09_downcoding;
pub mod e10_sweeney_linkage;
pub mod e11_netflix;
pub mod e12_census;
pub mod e13_membership;
pub mod e14_utility;
pub mod e15_kanon_composition;
pub mod e16_workload_lint;
pub mod e17_observability;
pub mod e18_query_matrix;
pub mod e19_incremental;
pub mod e20_service_attack;
pub mod e21_flight_recorder;
pub mod lt_legal_verdicts;

use crate::{Scale, Table};

/// An experiment's entry point: run at a scale, return its tables.
pub type Run = fn(Scale) -> Vec<Table>;

/// Every experiment, by the id `exp <id>` takes, in `exp all` order.
pub const ALL: &[(&str, Run)] = &[
    ("e01", e01_exhaustive_reconstruction::run),
    ("e02", e02_lp_reconstruction::run),
    ("e03", e03_fundamental_law::run),
    ("e04", e04_baseline_isolation::run),
    ("e05", e05_count_pso::run),
    ("e06", e06_composition_attack::run),
    ("e07", e07_dp_pso::run),
    ("e08", e08_kanon_pso::run),
    ("e09", e09_downcoding::run),
    ("e10", e10_sweeney_linkage::run),
    ("e11", e11_netflix::run),
    ("e12", e12_census::run),
    ("e13", e13_membership::run),
    ("e14", e14_utility::run),
    ("e15", e15_kanon_composition::run),
    ("e16", e16_workload_lint::run),
    ("e17", e17_observability::run),
    ("e18", e18_query_matrix::run),
    ("e19", e19_incremental::run),
    ("e20", e20_service_attack::run),
    ("e21", e21_flight_recorder::run),
    ("lt", lt_legal_verdicts::run),
];
