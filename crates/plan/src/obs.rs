//! Bridge from the plan layer to the `so-obs` global registry.
//!
//! [`QueryPlan::execute`](crate::plan::QueryPlan::execute) and
//! [`ParallelExecutor::execute`](crate::parallel::ParallelExecutor::execute)
//! tally a local [`PlanStats`] per execution — the deterministic value
//! engines and transcripts consume — and *additionally* publish the same
//! counts here, so a `SO_METRICS` dump shows cumulative totals across the
//! whole process. [`registry_plan_stats`] reconstructs that cumulative view
//! as a [`PlanStats`], which is what lets a test assert registry parity with
//! locally tallied stats.
//!
//! Wall-clock data (the `*_micros` histograms) is export-only: it reaches
//! the `SO_METRICS` dump and `SO_TRACE` records, never a transcript.

use std::sync::OnceLock;

use so_obs::{global, Counter, Histogram, MICRO_BOUNDS};

use crate::plan::PlanStats;

/// Cached handles to the plan-layer metrics in the [`so_obs::global`]
/// registry. Fetch once via [`plan_metrics`]; updates are lock-free.
#[derive(Debug)]
pub struct PlanMetrics {
    /// `so_plan_executions_total` — completed plan executions (serial or
    /// sharded; single-scan engine fast paths do not count).
    pub executions: Counter,
    /// `so_plan_queries_total` — workload queries presented to executions.
    pub queries: Counter,
    /// `so_plan_distinct_targets_total` — distinct target expressions after
    /// hash-consing, summed over executions.
    pub distinct_targets: Counter,
    /// `so_plan_nodes_evaluated_total` — IR nodes evaluated fresh (not
    /// served by a cache).
    pub nodes_evaluated: Counter,
    /// `so_plan_atom_scans_total` — dataset scans, the expensive part of
    /// every execution.
    pub atom_scans: Counter,
    /// `so_plan_cache_hits_total` — node lookups served by a
    /// [`NodeCache`](crate::plan::NodeCache).
    pub cache_hits: Counter,
    /// `so_plan_unanswerable_total` — queries with no tabular answer.
    pub unanswerable: Counter,
    /// `so_plan_execute_micros` — wall-clock per plan execution
    /// (export-only).
    pub execute_micros: Histogram,
    /// `so_plan_shard_micros` — wall-clock per shard worker pass
    /// (export-only).
    pub shard_micros: Histogram,
}

/// The plan layer's global metric handles, registered on first use.
pub fn plan_metrics() -> &'static PlanMetrics {
    static METRICS: OnceLock<PlanMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        PlanMetrics {
            executions: r.counter("so_plan_executions_total"),
            queries: r.counter("so_plan_queries_total"),
            distinct_targets: r.counter("so_plan_distinct_targets_total"),
            nodes_evaluated: r.counter("so_plan_nodes_evaluated_total"),
            atom_scans: r.counter("so_plan_atom_scans_total"),
            cache_hits: r.counter("so_plan_cache_hits_total"),
            unanswerable: r.counter("so_plan_unanswerable_total"),
            execute_micros: r.histogram("so_plan_execute_micros", &MICRO_BOUNDS),
            shard_micros: r.histogram("so_plan_shard_micros", &MICRO_BOUNDS),
        }
    })
}

/// Adds one execution's (or one engine fast path's) counters to the global
/// registry without touching the execution counter or timings. Used by
/// `so-query` for single-scan paths that bypass plan execution.
pub fn publish_stats(stats: &PlanStats) {
    let m = plan_metrics();
    m.queries.add(stats.queries as u64);
    m.distinct_targets.add(stats.distinct_targets as u64);
    m.nodes_evaluated.add(stats.nodes_evaluated as u64);
    m.atom_scans.add(stats.atom_scans as u64);
    m.cache_hits.add(stats.cache_hits as u64);
    m.unanswerable.add(stats.unanswerable as u64);
}

/// Publishes one completed plan execution: all [`PlanStats`] counters, the
/// execution counter, and the (export-only) wall-clock histogram.
pub fn record_execution(stats: &PlanStats, micros: u64) {
    publish_stats(stats);
    let m = plan_metrics();
    m.executions.inc();
    m.execute_micros.observe(micros as f64);
}

/// The cumulative [`PlanStats`] view over the global registry: what every
/// execution (and engine fast path) in this process published so far.
/// Counters that were never touched read as zero.
pub fn registry_plan_stats() -> PlanStats {
    let r = global();
    let get = |name: &str| r.counter_value(name).unwrap_or(0) as usize;
    PlanStats {
        queries: get("so_plan_queries_total"),
        distinct_targets: get("so_plan_distinct_targets_total"),
        nodes_evaluated: get("so_plan_nodes_evaluated_total"),
        atom_scans: get("so_plan_atom_scans_total"),
        cache_hits: get("so_plan_cache_hits_total"),
        unanswerable: get("so_plan_unanswerable_total"),
    }
}
