//! so-analyze observability: gate admission and linter-cost metrics
//! published to the `so-obs` global registry.
//!
//! Workload-level verdicts land in two plain counters; per-query refusals
//! are labeled by the lint code that flagged the query
//! (`so_gate_query_refusals_total{code=...}` — the code strings come from
//! [`crate::lint::LintId::code`]), so a metrics dump shows *which* attack
//! shapes the gate is actually stopping. Linter cost is visible too: pair
//! and set-difference counts as counters, wall clock in the export-only
//! `so_analyze_lint_micros` histogram (never a transcript).

use std::sync::OnceLock;

use so_obs::{global, Counter, Histogram, MICRO_BOUNDS};

use crate::lint::LintReport;

/// Cached handles to the gate-layer metrics in the [`so_obs::global`]
/// registry. Fetch once via [`gate_metrics`]; updates are lock-free.
#[derive(Debug)]
pub struct GateMetrics {
    /// `so_gate_workloads_admitted_total` — workloads the gate let through
    /// to execution.
    pub workloads_admitted: Counter,
    /// `so_gate_workloads_refused_total` — workloads refused before any
    /// query executed.
    pub workloads_refused: Counter,
    /// `so_gate_relint_skipped_total` — workloads whose lint verdict was
    /// served from the gate's memo because the lint-relevant
    /// signature (structural hashes, noises, row count) was unchanged.
    pub relint_skipped: Counter,
}

/// The gate layer's global metric handles, registered on first use.
pub fn gate_metrics() -> &'static GateMetrics {
    static METRICS: OnceLock<GateMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        GateMetrics {
            workloads_admitted: r.counter("so_gate_workloads_admitted_total"),
            workloads_refused: r.counter("so_gate_workloads_refused_total"),
            relint_skipped: r.counter("so_gate_relint_skipped_total"),
        }
    })
}

/// The per-lint-code refusal counter
/// `so_gate_query_refusals_total{code=...}`. Looked up per call (refusal
/// paths are cold); one labeled counter exists per distinct code.
pub fn query_refusals(code: &str) -> Counter {
    global().counter_with("so_gate_query_refusals_total", &[("code", code)])
}

/// Cached handles to the linter-cost metrics. The quadratic-blowup guard
/// in the differencing pass and the budgeted lattice search both publish
/// here, so a `SO_METRICS` dump shows what the static analysis itself
/// costs.
#[derive(Debug)]
pub struct LintMetrics {
    /// `so_analyze_lint_runs_total` — complete [`crate::lint::lint_workload`]
    /// invocations.
    pub runs: Counter,
    /// `so_analyze_lint_pairs_examined_total` — candidate pairs the
    /// differencing pass examined after structural bucketing.
    pub pairs_examined: Counter,
    /// `so_analyze_lint_tracker_combos_total` — set differences the
    /// tracker-chain lattice search examined.
    pub tracker_combos: Counter,
    /// `so_analyze_lint_truncated_total` — runs that hit a pair budget,
    /// finding cap, or matrix cell cap.
    pub truncated: Counter,
    /// `so_analyze_lint_micros` — wall-clock per lint run (export-only:
    /// reaches `SO_METRICS` dumps, never findings or transcripts).
    pub lint_micros: Histogram,
}

/// The linter's global metric handles, registered on first use.
pub fn lint_metrics() -> &'static LintMetrics {
    static METRICS: OnceLock<LintMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        LintMetrics {
            runs: r.counter("so_analyze_lint_runs_total"),
            pairs_examined: r.counter("so_analyze_lint_pairs_examined_total"),
            tracker_combos: r.counter("so_analyze_lint_tracker_combos_total"),
            truncated: r.counter("so_analyze_lint_truncated_total"),
            lint_micros: r.histogram("so_analyze_lint_micros", &MICRO_BOUNDS),
        }
    })
}

/// Publishes one completed lint run: cost counters from the report plus the
/// (export-only) wall-clock histogram.
pub fn record_lint_run(report: &LintReport, micros: u64) {
    let m = lint_metrics();
    m.runs.inc();
    m.pairs_examined.add(report.pairs_examined as u64);
    m.tracker_combos.add(report.tracker_combos_examined as u64);
    if report.truncated {
        m.truncated.inc();
    }
    m.lint_micros.observe(micros as f64);
}
