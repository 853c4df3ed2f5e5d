//! so-query observability: engine call counters and audit-trail metrics
//! published to the `so-obs` global registry.
//!
//! Plan-level counters (scans, node evaluations, cache hits) are published
//! by `so-plan` itself; this module adds the engine-level view — how many
//! single-query calls were served, how many bypassed the cache as volatile,
//! how many workloads were executed — plus the [`QueryAuditor`] retention
//! metrics (`so_query_audit_dropped_total`, `so_query_audit_trail_len`).
//!
//! [`QueryAuditor`]: crate::audit::QueryAuditor

use std::sync::OnceLock;

use so_obs::{global, Counter, Gauge};

/// Cached handles to the query-layer metrics in the [`so_obs::global`]
/// registry. Fetch once via [`query_metrics`]; updates are lock-free.
#[derive(Debug)]
pub struct QueryMetrics {
    /// `so_query_count_calls_total` — single-query
    /// [`CountingEngine::count`](crate::engine::CountingEngine::count)
    /// calls admitted by the auditor.
    pub count_calls: Counter,
    /// `so_query_volatile_scans_total` — admitted calls answered by an
    /// uncached scan because the predicate's shape is not cache-stable.
    pub volatile_scans: Counter,
    /// `so_query_workloads_total` — whole workloads executed through
    /// [`CountingEngine::execute_workload`](crate::engine::CountingEngine::execute_workload).
    pub workloads: Counter,
    /// `so_query_audit_dropped_total` — audit-trail records not retained
    /// (cap evictions plus zero-retention records), summed over all
    /// auditors in the process.
    pub audit_dropped: Counter,
    /// `so_query_audit_trail_len` — retained trail depth of the most
    /// recently updated auditor (last writer wins across auditors).
    pub audit_trail_len: Gauge,
    /// `so_query_delta_repairs_total` — segment caches rebuilt by a
    /// counting engine because the segment's dataset version moved
    /// (delta-scan repair), including first-time builds.
    pub delta_repairs: Counter,
    /// `so_query_delta_hits_total` — segments served from a warm cache
    /// (version unchanged since the last workload) by a counting engine.
    pub delta_segment_hits: Counter,
    /// `so_query_shortcut_atoms_total` — atom selections synthesized from a
    /// delta segment's touched-column set instead of scanned.
    pub shortcut_atoms: Counter,
}

/// The query layer's global metric handles, registered on first use.
pub fn query_metrics() -> &'static QueryMetrics {
    static METRICS: OnceLock<QueryMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        QueryMetrics {
            count_calls: r.counter("so_query_count_calls_total"),
            volatile_scans: r.counter("so_query_volatile_scans_total"),
            workloads: r.counter("so_query_workloads_total"),
            audit_dropped: r.counter("so_query_audit_dropped_total"),
            audit_trail_len: r.gauge("so_query_audit_trail_len"),
            delta_repairs: r.counter("so_query_delta_repairs_total"),
            delta_segment_hits: r.counter("so_query_delta_hits_total"),
            shortcut_atoms: r.counter("so_query_shortcut_atoms_total"),
        }
    })
}
