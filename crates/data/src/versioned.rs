//! Versioned mutable datasets: delta segments + tombstone bitmaps over an
//! immutable base.
//!
//! The paper's production story — and the attacks aimed at it — concern
//! *live* databases that keep answering as rows arrive and depart. A
//! [`VersionedDataset`] makes the repo's build-once [`Dataset`] mutable
//! without giving up any of the properties the query stack relies on:
//!
//! * the **base** dataset stays immutable (its cached selections remain
//!   valid for as long as the base exists);
//! * **inserts** append to an open tail **delta segment** — a small
//!   [`Dataset`] sharing the base's schema and interner — which freezes at
//!   [`DELTA_SEGMENT_ROWS`] rows, after which a new tail opens;
//! * **deletes** set bits in per-segment **tombstone bitmaps**
//!   ([`BitVec`]s); no row ever moves, so cached per-segment
//!   selections stay valid and a live count is just
//!   [`BitVec::count_and_not`] against the mask;
//! * once the delta count reaches the **compaction threshold**
//!   (`SO_COMPACT_THRESHOLD`, default [`DEFAULT_COMPACT_THRESHOLD`]), the
//!   live rows are gathered into a fresh base, tombstones are
//!   cleared, and [`VersionedDataset::base_epoch`] is bumped so downstream
//!   caches know the segment layout changed wholesale.
//!
//! Row identity follows **live indices**: position `k` in the live
//! ordering (base rows first, then delta segments in creation order,
//! tombstoned rows skipped). Mutations address live indices, which makes a
//! replayed mutation transcript independent of *when* compaction ran —
//! the answer to any counting query is invariant under the threshold.

use std::collections::BTreeSet;

use crate::bits::BitVec;
use crate::dataset::Dataset;
use crate::value::Value;

/// Rows after which the open tail delta freezes and a new one opens.
/// Small enough that a delta rescan (the repair step of the incremental
/// engine) is cheap; large enough that segment bookkeeping stays trivial.
pub const DELTA_SEGMENT_ROWS: usize = 1024;

/// Compaction threshold used when `SO_COMPACT_THRESHOLD` is unset or
/// unusable: compact once this many delta segments have accumulated.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 8;

/// Environment variable overriding the compaction threshold.
pub const COMPACT_ENV: &str = "SO_COMPACT_THRESHOLD";

/// Parses a compaction threshold the way [`compact_threshold_from_env`]
/// does, from an explicit optional string: a positive integer (surrounding
/// whitespace tolerated) wins, anything else — unset, empty, garbage, or
/// zero — falls back to [`DEFAULT_COMPACT_THRESHOLD`]. Mirrors the pinned
/// `SO_THREADS` fallback treatment.
fn threshold_from(env: Option<&str>) -> usize {
    match env.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(t) if t >= 1 => t,
        _ => DEFAULT_COMPACT_THRESHOLD,
    }
}

/// The process-default compaction threshold: `SO_COMPACT_THRESHOLD` if it
/// parses to a positive integer, else [`DEFAULT_COMPACT_THRESHOLD`].
pub fn compact_threshold_from_env() -> usize {
    threshold_from(std::env::var(COMPACT_ENV).ok().as_deref())
}

/// What one mutation did — returned by [`VersionedDataset::insert_rows`]
/// and [`VersionedDataset::delete_live`] so callers (auditors, incremental
/// caches) can react without diffing the dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationEffect {
    /// The dataset version after the mutation.
    pub version: u64,
    /// Columns with at least one non-missing cell among the newly inserted
    /// rows (empty for deletes: tombstoning invalidates no cached
    /// selection, only the masks).
    pub touched: BTreeSet<usize>,
    /// True iff this mutation tripped the compaction threshold.
    pub compacted: bool,
    /// Rows appended by this mutation.
    pub rows_inserted: usize,
    /// Rows tombstoned by this mutation.
    pub rows_deleted: usize,
}

/// A mutable dataset version: immutable base + ordered delta segments +
/// per-segment tombstones. See the module docs for the invariants.
#[derive(Debug, Clone)]
pub struct VersionedDataset {
    base: Dataset,
    deltas: Vec<Dataset>,
    /// Tombstone bitmaps, index 0 for the base, `1 + i` for delta `i`.
    /// Always sized to the owning segment's current row count.
    tombs: Vec<BitVec>,
    /// Set bits of each tombstone bitmap, kept so live counts (and the
    /// engine's per-request "any tombstones?" check) cost no popcount.
    dead: Vec<usize>,
    /// Per-delta touched-column sets: column `c` is present iff some row of
    /// that delta carries a non-missing cell in `c`. The base has no entry
    /// (every column counts as touched there).
    touched: Vec<BTreeSet<usize>>,
    version: u64,
    base_epoch: u64,
    compact_threshold: usize,
}

impl VersionedDataset {
    /// Wraps `base` as version 0, with the compaction threshold taken from
    /// `SO_COMPACT_THRESHOLD` (see [`compact_threshold_from_env`]).
    pub fn new(base: Dataset) -> Self {
        Self::with_compact_threshold(base, compact_threshold_from_env())
    }

    /// Wraps `base` with an explicit compaction threshold — the
    /// constructor tests use to compare compaction schedules
    /// deterministically, independent of the environment.
    ///
    /// # Panics
    /// Panics if `compact_threshold` is zero.
    pub fn with_compact_threshold(base: Dataset, compact_threshold: usize) -> Self {
        assert!(compact_threshold >= 1, "compaction threshold must be >= 1");
        let n = base.n_rows();
        VersionedDataset {
            base,
            deltas: Vec::new(),
            tombs: vec![BitVec::zeros(n)],
            dead: vec![0],
            touched: Vec::new(),
            version: 0,
            base_epoch: 0,
            compact_threshold,
        }
    }

    /// Monotone content version: 0 at wrap, +1 per mutation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Bumped once per compaction — the signal that the segment layout
    /// changed wholesale and per-segment caches must start over.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// The compaction threshold in effect.
    pub fn compact_threshold(&self) -> usize {
        self.compact_threshold
    }

    /// Number of segments: the base plus every delta.
    pub fn n_segments(&self) -> usize {
        1 + self.deltas.len()
    }

    /// Segment `i` as a plain dataset: 0 is the base, `1 + k` is delta `k`.
    ///
    /// # Panics
    /// Panics if `i >= n_segments()`.
    pub fn segment(&self, i: usize) -> &Dataset {
        if i == 0 {
            &self.base
        } else {
            &self.deltas[i - 1]
        }
    }

    /// The tombstone bitmap of segment `i` (always sized to the segment).
    ///
    /// # Panics
    /// Panics if `i >= n_segments()`.
    pub fn tombstones(&self, i: usize) -> &BitVec {
        &self.tombs[i]
    }

    /// The touched-column set of segment `i`: `None` for the base (every
    /// column counts as touched), `Some` for a delta — a column absent
    /// from the set holds [`Value::Missing`] in **every** row of that
    /// segment, which is what lets the counting engine synthesize atom
    /// selections there without scanning.
    ///
    /// # Panics
    /// Panics if `i >= n_segments()`.
    pub fn touched_columns(&self, i: usize) -> Option<&BTreeSet<usize>> {
        if i == 0 {
            assert!(i < self.n_segments());
            None
        } else {
            Some(&self.touched[i - 1])
        }
    }

    /// Rows alive in segment `i` (segment rows minus its tombstones).
    pub fn live_in_segment(&self, i: usize) -> usize {
        self.segment(i).n_rows() - self.dead[i]
    }

    /// Total live rows across all segments — the `n` of the current
    /// version.
    pub fn n_live(&self) -> usize {
        (0..self.n_segments())
            .map(|i| self.live_in_segment(i))
            .sum()
    }

    /// Maps a live index (position in the live ordering: base first, then
    /// deltas in order, tombstoned rows skipped) to its physical
    /// `(segment, row)` address, or `None` past the end.
    pub fn locate_live(&self, live: usize) -> Option<(usize, usize)> {
        let mut remaining = live;
        for seg in 0..self.n_segments() {
            let alive = self.live_in_segment(seg);
            if remaining < alive {
                // remaining-th non-tombstoned row of this segment.
                let tomb = &self.tombs[seg];
                let mut seen = 0usize;
                for row in 0..self.segment(seg).n_rows() {
                    if tomb.get(row) {
                        continue;
                    }
                    if seen == remaining {
                        return Some((seg, row));
                    }
                    seen += 1;
                }
                unreachable!("live count promised a row");
            }
            remaining -= alive;
        }
        None
    }

    /// Appends rows as a new version. Rows land in the open tail delta
    /// (opened or rolled over as needed); [`Value::Str`] cells must carry
    /// symbols already present in the shared interner (see
    /// [`Dataset::append_rows`]). An empty batch is a no-op that returns
    /// the current version untouched.
    ///
    /// # Panics
    /// Panics on arity or type mismatch, or on a foreign `Str` symbol.
    pub fn insert_rows(&mut self, rows: &[Vec<Value>]) -> MutationEffect {
        if rows.is_empty() {
            return MutationEffect {
                version: self.version,
                touched: BTreeSet::new(),
                compacted: false,
                rows_inserted: 0,
                rows_deleted: 0,
            };
        }
        let tail_frozen = match self.deltas.last() {
            Some(d) => d.n_rows() >= DELTA_SEGMENT_ROWS,
            None => true,
        };
        if tail_frozen {
            self.deltas.push(self.base.empty_like());
            self.tombs.push(BitVec::zeros(0));
            self.dead.push(0);
            self.touched.push(BTreeSet::new());
        }
        let tail = self.deltas.len() - 1;
        let mut touched = BTreeSet::new();
        for row in rows {
            for (c, v) in row.iter().enumerate() {
                if !v.is_missing() {
                    touched.insert(c);
                }
            }
        }
        self.deltas[tail].append_rows(rows);
        self.tombs[1 + tail].grow(self.deltas[tail].n_rows());
        self.touched[tail].extend(touched.iter().copied());
        self.version += 1;
        let m = crate::obs::delta_metrics();
        m.rows_inserted.add(rows.len() as u64);
        let compacted = self.maybe_compact();
        self.publish_gauges();
        MutationEffect {
            version: self.version,
            touched,
            compacted,
            rows_inserted: rows.len(),
            rows_deleted: 0,
        }
    }

    /// Tombstones the rows at the given **live indices** (all interpreted
    /// against the state at the start of the call; duplicates collapse) as
    /// a new version. Cached per-segment selections stay valid — only the
    /// tombstone masks change. An empty batch is a no-op.
    ///
    /// # Panics
    /// Panics if any index is `>= n_live()`.
    pub fn delete_live(&mut self, live: &[usize]) -> MutationEffect {
        if live.is_empty() {
            return MutationEffect {
                version: self.version,
                touched: BTreeSet::new(),
                compacted: false,
                rows_inserted: 0,
                rows_deleted: 0,
            };
        }
        let n_live = self.n_live();
        // Physical addresses first, then tombstone: the live ordering must
        // not shift under us mid-batch.
        let mut targets: BTreeSet<(usize, usize)> = BTreeSet::new();
        for &idx in live {
            assert!(idx < n_live, "live index {idx} out of range {n_live}");
            let addr = self.locate_live(idx).expect("index checked in range");
            targets.insert(addr);
        }
        let deleted = targets.len();
        for (seg, row) in targets {
            self.tombs[seg].set(row, true);
            self.dead[seg] += 1;
        }
        self.version += 1;
        crate::obs::delta_metrics().rows_deleted.add(deleted as u64);
        let compacted = self.maybe_compact();
        self.publish_gauges();
        MutationEffect {
            version: self.version,
            touched: BTreeSet::new(),
            compacted,
            rows_inserted: 0,
            rows_deleted: deleted,
        }
    }

    /// Materializes the live rows of the current version as one plain
    /// [`Dataset`] (live ordering, shared schema/interner/engine) — the
    /// from-scratch oracle the counting engine is checked against, and
    /// the gather step of compaction.
    pub fn snapshot(&self) -> Dataset {
        let live_base: Vec<usize> = (0..self.base.n_rows())
            .filter(|&r| !self.tombs[0].get(r))
            .collect();
        let mut out = self.base.select_rows(&live_base);
        for (k, delta) in self.deltas.iter().enumerate() {
            let tomb = &self.tombs[1 + k];
            let rows: Vec<Vec<Value>> = (0..delta.n_rows())
                .filter(|&r| !tomb.get(r))
                .map(|r| delta.row_values(r))
                .collect();
            out.append_rows(&rows);
        }
        out
    }

    /// Compacts if the delta count reached the threshold; true iff it did.
    fn maybe_compact(&mut self) -> bool {
        if self.deltas.len() < self.compact_threshold {
            return false;
        }
        let dropped: usize = self.dead.iter().sum();
        let fresh = self.snapshot();
        let m = crate::obs::delta_metrics();
        m.compaction_runs.inc();
        m.compaction_rows_rewritten.add(fresh.n_rows() as u64);
        m.compaction_rows_dropped.add(dropped as u64);
        let n = fresh.n_rows();
        self.base = fresh;
        self.deltas.clear();
        self.touched.clear();
        self.tombs = vec![BitVec::zeros(n)];
        self.dead = vec![0];
        self.base_epoch += 1;
        true
    }

    fn publish_gauges(&self) {
        let m = crate::obs::delta_metrics();
        m.segments.set(self.deltas.len() as f64);
        m.open_rows
            .set(self.deltas.last().map_or(0, Dataset::n_rows) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttributeDef, AttributeRole, DataType, Schema};
    use crate::DatasetBuilder;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("score", DataType::Int, AttributeRole::Sensitive),
        ])
    }

    fn base(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new(schema());
        for i in 0..n {
            b.push_row(vec![
                Value::Int((i % 90) as i64),
                Value::Int((i % 25) as i64),
            ]);
        }
        b.finish()
    }

    /// Scalar oracle: count of live rows with `age` in `[lo, hi]`.
    fn count_age(v: &VersionedDataset, lo: i64, hi: i64) -> usize {
        let snap = v.snapshot();
        (0..snap.n_rows())
            .filter(|&r| {
                snap.get(r, 0)
                    .as_int()
                    .is_some_and(|a| (lo..=hi).contains(&a))
            })
            .count()
    }

    #[test]
    fn threshold_parsing_mirrors_the_env_knob_contract() {
        assert_eq!(threshold_from(Some("4")), 4);
        assert_eq!(threshold_from(Some(" 2 ")), 2);
        assert_eq!(threshold_from(Some("1")), 1);
        assert_eq!(threshold_from(None), DEFAULT_COMPACT_THRESHOLD);
        assert_eq!(threshold_from(Some("")), DEFAULT_COMPACT_THRESHOLD);
        assert_eq!(threshold_from(Some("0")), DEFAULT_COMPACT_THRESHOLD);
        assert_eq!(threshold_from(Some("-3")), DEFAULT_COMPACT_THRESHOLD);
        assert_eq!(threshold_from(Some("lots")), DEFAULT_COMPACT_THRESHOLD);
    }

    #[test]
    fn insert_opens_and_rolls_delta_segments() {
        let mut v = VersionedDataset::with_compact_threshold(base(100), 100);
        assert_eq!(v.version(), 0);
        assert_eq!(v.n_segments(), 1);
        assert_eq!(v.n_live(), 100);
        let eff = v.insert_rows(&[vec![Value::Int(500), Value::Int(1)]]);
        assert_eq!(eff.version, 1);
        assert_eq!(eff.touched, BTreeSet::from([0, 1]));
        assert!(!eff.compacted);
        assert_eq!(v.n_segments(), 2);
        assert_eq!(v.n_live(), 101);
        // Fill past the freeze threshold: next insert opens segment 3.
        let filler: Vec<Vec<Value>> = (0..DELTA_SEGMENT_ROWS)
            .map(|i| vec![Value::Int(500), Value::Int(i as i64)])
            .collect();
        v.insert_rows(&filler);
        assert_eq!(v.n_segments(), 2, "one batch stays in one segment");
        v.insert_rows(&[vec![Value::Int(501), Value::Int(0)]]);
        assert_eq!(v.n_segments(), 3, "frozen tail rolled over");
        assert_eq!(v.n_live(), 100 + 1 + DELTA_SEGMENT_ROWS + 1);
        assert_eq!(count_age(&v, 500, 501), DELTA_SEGMENT_ROWS + 2);
    }

    #[test]
    fn touched_columns_track_non_missing_cells() {
        let mut v = VersionedDataset::with_compact_threshold(base(10), 100);
        let eff = v.insert_rows(&[vec![Value::Missing, Value::Int(7)]]);
        assert_eq!(eff.touched, BTreeSet::from([1]));
        assert_eq!(v.touched_columns(1), Some(&BTreeSet::from([1])));
        assert_eq!(v.touched_columns(0), None, "base counts as all-touched");
        // A later batch widens the same open segment's set.
        v.insert_rows(&[vec![Value::Int(3), Value::Missing]]);
        assert_eq!(v.touched_columns(1), Some(&BTreeSet::from([0, 1])));
    }

    #[test]
    fn delete_live_tombstones_across_segments() {
        let mut v = VersionedDataset::with_compact_threshold(base(100), 100);
        v.insert_rows(&[
            vec![Value::Int(200), Value::Int(0)],
            vec![Value::Int(201), Value::Int(0)],
        ]);
        assert_eq!(v.n_live(), 102);
        // Live index 0 = base row 0 (age 0); live index 100 = first delta
        // row (age 200). Duplicates collapse.
        let eff = v.delete_live(&[0, 100, 100]);
        assert_eq!(eff.rows_deleted, 2);
        assert_eq!(eff.touched, BTreeSet::new());
        assert_eq!(v.n_live(), 100);
        assert!(v.tombstones(0).get(0));
        assert!(v.tombstones(1).get(0));
        assert_eq!(count_age(&v, 200, 201), 1);
        // Live indices shifted: the old live 1 (base row 1) is now live 0.
        v.delete_live(&[0]);
        assert!(v.tombstones(0).get(1));
        assert_eq!(v.n_live(), 99);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn delete_live_rejects_out_of_range() {
        let mut v = VersionedDataset::with_compact_threshold(base(5), 100);
        v.delete_live(&[5]);
    }

    #[test]
    fn snapshot_matches_logical_state() {
        let mut v = VersionedDataset::with_compact_threshold(base(70), 100);
        v.insert_rows(&[vec![Value::Int(300), Value::Int(9)]]);
        v.delete_live(&[3, 70]);
        let snap = v.snapshot();
        assert_eq!(snap.n_rows(), 69);
        // Live ordering: base rows (minus row 3), delta rows (minus the
        // inserted one, which was deleted at live index 70).
        assert_eq!(snap.get(0, 0), Value::Int(0));
        assert_eq!(snap.get(3, 0), Value::Int(4), "row 3 skipped");
        assert!(Arc::ptr_eq(snap.interner(), v.segment(0).interner()));
    }

    #[test]
    fn compaction_preserves_answers_and_bumps_epoch() {
        // Threshold 2: the second delta segment triggers compaction.
        let mut v = VersionedDataset::with_compact_threshold(base(100), 2);
        let mut w = VersionedDataset::with_compact_threshold(base(100), 1_000_000);
        let filler: Vec<Vec<Value>> = (0..DELTA_SEGMENT_ROWS)
            .map(|i| vec![Value::Int(400), Value::Int(i as i64)])
            .collect();
        for vd in [&mut v, &mut w] {
            vd.insert_rows(&filler);
            vd.delete_live(&[0, 50]);
            vd.insert_rows(&[vec![Value::Int(401), Value::Int(1)]]);
        }
        assert_eq!(v.base_epoch(), 1, "threshold 2 compacted");
        assert_eq!(v.n_segments(), 1, "deltas folded into the base");
        assert_eq!(w.base_epoch(), 0, "huge threshold never compacts");
        assert_eq!(v.version(), w.version(), "versions advance identically");
        assert_eq!(v.n_live(), w.n_live());
        for (lo, hi) in [(0, 89), (400, 401), (0, i64::MAX)] {
            assert_eq!(count_age(&v, lo, hi), count_age(&w, lo, hi), "{lo}..{hi}");
        }
        // Tombstones were physically dropped by compaction.
        assert_eq!(v.tombstones(0).count_ones(), 0);
        assert_eq!(v.segment(0).n_rows(), v.n_live());
    }

    #[test]
    fn locate_live_walks_segments_and_tombstones() {
        let mut v = VersionedDataset::with_compact_threshold(base(3), 100);
        v.insert_rows(&[vec![Value::Int(9), Value::Int(9)]]);
        assert_eq!(v.locate_live(0), Some((0, 0)));
        assert_eq!(v.locate_live(3), Some((1, 0)));
        assert_eq!(v.locate_live(4), None);
        v.delete_live(&[1]);
        assert_eq!(v.locate_live(1), Some((0, 2)), "tombstoned row skipped");
        assert_eq!(v.locate_live(2), Some((1, 0)));
    }

    #[test]
    fn empty_mutations_are_no_ops() {
        let mut v = VersionedDataset::with_compact_threshold(base(10), 100);
        let a = v.insert_rows(&[]);
        let b = v.delete_live(&[]);
        assert_eq!(a.version, 0);
        assert_eq!(b.version, 0);
        assert_eq!(v.version(), 0);
        assert_eq!(v.n_segments(), 1);
    }

    #[test]
    fn empty_base_grows_from_nothing() {
        let mut v = VersionedDataset::with_compact_threshold(base(0), 100);
        assert_eq!(v.n_live(), 0);
        assert_eq!(v.snapshot().n_rows(), 0);
        v.insert_rows(&[vec![Value::Int(1), Value::Int(2)]]);
        assert_eq!(v.n_live(), 1);
        assert_eq!(count_age(&v, 1, 1), 1);
        v.delete_live(&[0]);
        assert_eq!(v.n_live(), 0);
    }
}
