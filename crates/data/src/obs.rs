//! so-data observability: delta-segment and compaction metrics for the
//! incremental (versioned) dataset layer, published to the `so-obs` global
//! registry.
//!
//! Every counter here is deterministic for a fixed mutation transcript —
//! mutations are applied serially by the owner of a
//! [`VersionedDataset`](crate::versioned::VersionedDataset), so segment
//! counts, compaction runs, and rewritten-row totals are invariant across
//! `SO_THREADS` / `SO_SCHEDULE` and may appear in diffed metric dumps.

use std::sync::OnceLock;

use so_obs::{global, Counter, Gauge};

/// Cached handles to the delta/compaction metrics in the
/// [`so_obs::global`] registry. Fetch once via [`delta_metrics`]; updates
/// are lock-free.
#[derive(Debug)]
pub struct DeltaMetrics {
    /// `so_delta_inserts_total` — rows inserted through delta segments,
    /// summed over every versioned dataset in the process.
    pub rows_inserted: Counter,
    /// `so_delta_deletes_total` — live rows tombstoned.
    pub rows_deleted: Counter,
    /// `so_delta_segments` — delta segment count of the most recently
    /// mutated versioned dataset (last writer wins across datasets).
    pub segments: Gauge,
    /// `so_delta_open_rows` — rows in the open (unfrozen) tail segment of
    /// the most recently mutated versioned dataset.
    pub open_rows: Gauge,
    /// `so_compaction_runs_total` — compactions triggered by the delta
    /// threshold (`SO_COMPACT_THRESHOLD`).
    pub compaction_runs: Counter,
    /// `so_compaction_rows_rewritten_total` — live rows gathered into a
    /// fresh base across all compactions.
    pub compaction_rows_rewritten: Counter,
    /// `so_compaction_rows_dropped_total` — tombstoned rows physically
    /// discarded by compactions.
    pub compaction_rows_dropped: Counter,
}

/// The versioned-dataset layer's global metric handles, registered on
/// first use.
pub fn delta_metrics() -> &'static DeltaMetrics {
    static METRICS: OnceLock<DeltaMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        DeltaMetrics {
            rows_inserted: r.counter("so_delta_inserts_total"),
            rows_deleted: r.counter("so_delta_deletes_total"),
            segments: r.gauge("so_delta_segments"),
            open_rows: r.gauge("so_delta_open_rows"),
            compaction_runs: r.counter("so_compaction_runs_total"),
            compaction_rows_rewritten: r.counter("so_compaction_rows_rewritten_total"),
            compaction_rows_dropped: r.counter("so_compaction_rows_dropped_total"),
        }
    })
}
