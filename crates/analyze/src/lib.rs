#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # so-analyze — pre-execution workload linter
//!
//! The paper's central observation is that singling-out risk is a property
//! of the *query workload*, not of any single answer: Dinur–Nissim
//! reconstruction (Theorem 1.1) and the differencing / composition attacks
//! (Theorems 2.7–2.10) are all recognizable in the structure of the queries
//! alone, before a single count is released. This crate makes that
//! recognition a first-class, pre-execution subsystem:
//!
//! * the predicate-algebra IR and workload declarations come from
//!   [`so_plan`] — the *same* hash-consed [`so_plan::ir::PredPool`] the
//!   `so-query` execution engine compiles
//!   bitmaps from, so the expressions the lints reason about are literally
//!   the expressions that run;
//! * [`matrix`] — the query-matrix abstraction: the workload lowered to an
//!   abstract 0/1 matrix over atom-partition cells (NNF/sign analysis on
//!   `ExprId`s, no data access), with GF(2)/rational structural-rank
//!   estimation and a row-span solver;
//! * [`lattice`] — budgeted tracker-chain search over the subset lattice of
//!   derivable cell sets;
//! * [`lint`] — the static passes: differencing / tracker detection, the
//!   matrix-rank (`SO-LINREC`), tracker-chain (`SO-TRACKER`) and
//!   cell-isolation (`SO-COVER`) passes, Dinur–Nissim reconstruction
//!   density, ε-budget precheck against the `so-dp` accountant, and
//!   tautology/contradiction/duplicate hygiene;
//! * [`admission`] — the one admission path every gate shares: lint
//!   refusal (first deny finding per query index, workload-level findings
//!   as `query: None`), the optional continual-release budget
//!   (`SO-CBUDGET`), and the single audit-line rendering of a
//!   [`admission::Refusal`];
//! * [`gate`] — [`gate::IncrementalGate`], the one gate: an owning
//!   [`so_query::CountingEngine`] behind the lint verdict of each workload,
//!   which either refuses it (one citable refusal per offending query in
//!   the audit trail, with the finding's evidence payload) or executes the
//!   identical plan via the whole-workload planner. It persists across
//!   mutations of its versioned dataset, memoizes lint verdicts, and
//!   optionally enforces a continual-release budget.

pub mod admission;
pub mod gate;
pub mod lattice;
pub mod lint;
pub mod matrix;
pub mod obs;

pub use admission::{Admission, Refusal, CBUDGET_CODE};
pub use gate::IncrementalGate;
pub use lint::{
    lint_workload, lint_workload_default, Evidence, Finding, LintConfig, LintId, LintReport,
    Severity,
};
pub use matrix::{Lowered, MatrixCaps, QueryMatrix};
pub use obs::{gate_metrics, lint_metrics, query_refusals, GateMetrics, LintMetrics};
pub use so_plan::ir::{Atom, ExprId, PredNode, PredPool};
pub use so_plan::workload::{Noise, QueryKind, QuerySpec, WorkloadSpec};
