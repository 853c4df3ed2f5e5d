//! Query auditing.
//!
//! "It turns out that such reconstruction is possible unless either the
//! mechanism introduces sufficiently large error in its answers or it limits
//! the number of queries asked (or both)." — §1. The auditor implements the
//! second defence: it admits queries up to a cap, keeps a trail of what was
//! asked, and reports usage, so experiments can show exactly when a query
//! interface crosses into blatant non-privacy.
//!
//! The trail itself is bounded: a reconstruction run asks `m = 8n` queries,
//! and retaining an owned description string for every one of them grows
//! memory without limit. [`QueryAuditor::with_trail_cap`] keeps only the
//! most recent records (dropping the oldest first) and
//! [`QueryAuditor::without_trail`] disables retention entirely; the
//! answered/refused counters stay exact in every configuration.

use std::collections::{BTreeSet, VecDeque};

/// One entry in the audit trail.
#[derive(Debug, Clone)]
pub struct AuditRecord {
    /// Sequence number (0-based, global — stable even after older records
    /// have been evicted from a capped trail).
    pub seq: usize,
    /// The query's self-description.
    pub description: String,
    /// Whether the query was answered (false = refused by cap).
    pub admitted: bool,
}

/// Tracks queries against an optional cap.
#[derive(Debug)]
pub struct QueryAuditor {
    max_queries: Option<usize>,
    /// `None` = unbounded retention; `Some(cap)` = keep the `cap` most
    /// recent records (`Some(0)` = retain nothing).
    trail_cap: Option<usize>,
    trail: VecDeque<AuditRecord>,
    seen: usize,
    answered: usize,
    refused: usize,
    dropped: usize,
}

impl QueryAuditor {
    /// Creates an auditor; `None` means unlimited queries. The trail is
    /// unbounded — prefer [`QueryAuditor::with_trail_cap`] or
    /// [`QueryAuditor::without_trail`] for long attack loops.
    pub fn new(max_queries: Option<usize>) -> Self {
        Self::with_capacity(max_queries, None)
    }

    /// Creates an auditor whose trail retains at most `trail_cap` records,
    /// evicting the oldest once full. Counters remain exact regardless.
    pub fn with_trail_cap(max_queries: Option<usize>, trail_cap: usize) -> Self {
        Self::with_capacity(max_queries, Some(trail_cap))
    }

    /// Creates an auditor that retains no trail at all (counters only) —
    /// the right configuration for `m = 8n` reconstruction loops where the
    /// per-query descriptions would dominate the attack's memory.
    pub fn without_trail(max_queries: Option<usize>) -> Self {
        Self::with_capacity(max_queries, Some(0))
    }

    fn with_capacity(max_queries: Option<usize>, trail_cap: Option<usize>) -> Self {
        QueryAuditor {
            max_queries,
            trail_cap,
            trail: VecDeque::new(),
            seen: 0,
            answered: 0,
            refused: 0,
            dropped: 0,
        }
    }

    /// Records a query attempt; returns whether it may be answered.
    ///
    /// Prefer [`QueryAuditor::admit_with`] when the description is not
    /// already rendered: it skips rendering entirely when the trail retains
    /// nothing.
    pub fn admit(&mut self, description: &str) -> bool {
        self.admit_with(|| description.to_owned())
    }

    /// Records a query attempt with a *lazy* description; returns whether it
    /// may be answered. The description closure runs only if a trail record
    /// will actually be retained, so callers in `m = 8n` attack loops with a
    /// disabled trail never pay for rendering.
    pub fn admit_with(&mut self, describe: impl FnOnce() -> String) -> bool {
        let admitted = self.max_queries.map_or(true, |cap| self.answered < cap);
        if admitted {
            self.answered += 1;
        } else {
            self.refused += 1;
        }
        self.record(describe, admitted);
        admitted
    }

    /// Records a query as *refused by policy* (e.g. a static workload gate
    /// vetoed it), independent of the query cap. The description closure
    /// runs only if a trail record will be retained.
    pub fn refuse_with(&mut self, describe: impl FnOnce() -> String) {
        self.refused += 1;
        self.record(describe, false);
    }

    /// Records a refusal that concerns a whole workload rather than one
    /// query (e.g. a reconstruction-density verdict). It is a trail record
    /// like any other, but no query is counted as refused for it.
    pub fn note_refusal_with(&mut self, describe: impl FnOnce() -> String) {
        self.record(describe, false);
    }

    /// Appends a trail record (honouring the retention policy) and advances
    /// the global sequence number. Records not retained — cap evictions and
    /// `Some(0)` non-retention — count as dropped, so
    /// `trail_len() + dropped_entries() == queries_seen()` always holds.
    fn record(&mut self, describe: impl FnOnce() -> String, admitted: bool) {
        let seq = self.seen;
        self.seen += 1;
        match self.trail_cap {
            Some(0) => {
                self.drop_entry();
                return;
            }
            Some(cap) if self.trail.len() == cap => {
                self.trail.pop_front();
                self.drop_entry();
            }
            Some(_) | None => {}
        }
        self.trail.push_back(AuditRecord {
            seq,
            description: describe(),
            admitted,
        });
        crate::obs::query_metrics()
            .audit_trail_len
            .set(self.trail.len() as f64);
    }

    fn drop_entry(&mut self) {
        self.dropped += 1;
        crate::obs::query_metrics().audit_dropped.inc();
    }

    /// Number of queries answered so far.
    pub fn queries_answered(&self) -> usize {
        self.answered
    }

    /// Number of queries refused by the cap.
    pub fn queries_refused(&self) -> usize {
        self.refused
    }

    /// Total trail events seen (query attempts plus version-bump
    /// annotations), independent of how many trail records are retained.
    pub fn queries_seen(&self) -> usize {
        self.seen
    }

    /// Records a dataset version bump in the audit trail so downstream
    /// analysis can correlate answered queries with the dataset state they
    /// ran against. The entry is informational — it does not count as a
    /// query attempt (answered/refused stay put) — but it is bounded by the
    /// trail cap like any other record and participates in the
    /// `trail_len() + dropped_entries() == queries_seen()` invariant.
    pub fn note_version_bump(&mut self, version: u64, touched: &BTreeSet<usize>) {
        self.record(
            || {
                let cols: Vec<String> = touched.iter().map(|c| c.to_string()).collect();
                format!("[version] v{version} touched columns [{}]", cols.join(", "))
            },
            true,
        );
    }

    /// Remaining budget (`None` = unlimited).
    pub fn remaining(&self) -> Option<usize> {
        self.max_queries
            .map(|cap| cap.saturating_sub(self.answered))
    }

    /// The retained audit trail, oldest first. With a trail cap this is the
    /// most recent window; check [`AuditRecord::seq`] against
    /// [`QueryAuditor::queries_seen`] to detect evictions.
    pub fn trail(&self) -> impl Iterator<Item = &AuditRecord> {
        self.trail.iter()
    }

    /// Number of records currently retained in the trail.
    pub fn trail_len(&self) -> usize {
        self.trail.len()
    }

    /// Number of attempts whose trail record was *not* retained: evictions
    /// from a full capped trail plus every record under `Some(0)`
    /// non-retention. Invariant:
    /// `trail_len() + dropped_entries() == queries_seen()`.
    pub fn dropped_entries(&self) -> usize {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trail_vec(a: &QueryAuditor) -> Vec<&AuditRecord> {
        a.trail().collect()
    }

    #[test]
    fn unlimited_auditor_always_admits() {
        let mut a = QueryAuditor::new(None);
        for i in 0..50 {
            assert!(a.admit(&format!("q{i}")));
        }
        assert_eq!(a.queries_answered(), 50);
        assert_eq!(a.queries_refused(), 0);
        assert_eq!(a.remaining(), None);
    }

    #[test]
    fn capped_auditor_refuses_after_budget() {
        let mut a = QueryAuditor::new(Some(3));
        assert!(a.admit("a"));
        assert!(a.admit("b"));
        assert_eq!(a.remaining(), Some(1));
        assert!(a.admit("c"));
        assert!(!a.admit("d"));
        assert!(!a.admit("e"));
        assert_eq!(a.queries_answered(), 3);
        assert_eq!(a.queries_refused(), 2);
        assert_eq!(a.remaining(), Some(0));
    }

    #[test]
    fn trail_records_everything_in_order() {
        let mut a = QueryAuditor::new(Some(1));
        a.admit("first");
        a.admit("second");
        let t = trail_vec(&a);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].seq, 0);
        assert!(t[0].admitted);
        assert_eq!(t[0].description, "first");
        assert!(!t[1].admitted);
    }

    #[test]
    fn zero_cap_refuses_everything() {
        let mut a = QueryAuditor::new(Some(0));
        assert!(!a.admit("q"));
        assert_eq!(a.queries_answered(), 0);
    }

    #[test]
    fn trail_cap_drops_oldest_but_counts_stay_exact() {
        let mut a = QueryAuditor::with_trail_cap(None, 3);
        for i in 0..10 {
            assert!(a.admit(&format!("q{i}")));
        }
        assert_eq!(a.queries_answered(), 10);
        assert_eq!(a.queries_seen(), 10);
        assert_eq!(a.trail_len(), 3);
        let t = trail_vec(&a);
        // The retained window is the most recent three, oldest first.
        assert_eq!(t[0].seq, 7);
        assert_eq!(t[0].description, "q7");
        assert_eq!(t[2].seq, 9);
        assert_eq!(t[2].description, "q9");
    }

    #[test]
    fn without_trail_retains_nothing() {
        let mut a = QueryAuditor::without_trail(Some(5));
        for i in 0..8 {
            a.admit(&format!("q{i}"));
        }
        assert_eq!(a.trail_len(), 0);
        assert_eq!(a.queries_answered(), 5);
        assert_eq!(a.queries_refused(), 3);
        assert_eq!(a.queries_seen(), 8);
        assert_eq!(a.remaining(), Some(0));
    }

    #[test]
    fn lazy_description_not_rendered_when_trail_disabled() {
        let mut a = QueryAuditor::without_trail(None);
        let rendered = std::cell::Cell::new(false);
        assert!(a.admit_with(|| {
            rendered.set(true);
            "expensive".to_owned()
        }));
        assert!(!rendered.get(), "description rendered despite no retention");
        // With retention on, the closure does run.
        let mut b = QueryAuditor::new(None);
        assert!(b.admit_with(|| {
            rendered.set(true);
            "expensive".to_owned()
        }));
        assert!(rendered.get());
    }

    #[test]
    fn version_bump_notes_land_in_the_trail_without_counting_as_queries() {
        let mut a = QueryAuditor::new(None);
        assert!(a.admit("q0"));
        let touched: BTreeSet<usize> = [2usize, 0].into_iter().collect();
        a.note_version_bump(7, &touched);
        assert!(a.admit("q1"));
        assert_eq!(a.queries_answered(), 2);
        assert_eq!(a.queries_refused(), 0);
        assert_eq!(a.queries_seen(), 3);
        let t = trail_vec(&a);
        assert_eq!(t.len(), 3);
        assert_eq!(t[1].seq, 1);
        assert!(t[1].admitted);
        assert_eq!(t[1].description, "[version] v7 touched columns [0, 2]");
    }

    #[test]
    fn version_bump_notes_respect_the_trail_cap() {
        let mut a = QueryAuditor::with_trail_cap(None, 2);
        let touched: BTreeSet<usize> = [1usize].into_iter().collect();
        for v in 0..5u64 {
            a.note_version_bump(v, &touched);
            assert_eq!(a.trail_len() + a.dropped_entries(), a.queries_seen());
        }
        assert_eq!(a.trail_len(), 2);
        assert_eq!(a.dropped_entries(), 3);
        assert_eq!(a.queries_answered(), 0);
        let t = trail_vec(&a);
        assert_eq!(t[0].description, "[version] v3 touched columns [1]");
        assert_eq!(t[1].description, "[version] v4 touched columns [1]");
    }

    #[test]
    fn policy_refusal_counts_and_leaves_a_record() {
        let mut a = QueryAuditor::new(None);
        assert!(a.admit("fine"));
        a.refuse_with(|| "vetoed by gate".to_owned());
        assert_eq!(a.queries_answered(), 1);
        assert_eq!(a.queries_refused(), 1);
        assert_eq!(a.queries_seen(), 2);
        let t = trail_vec(&a);
        assert_eq!(t.len(), 2);
        assert!(!t[1].admitted);
        assert_eq!(t[1].description, "vetoed by gate");
        assert_eq!(t[1].seq, 1);
    }

    #[test]
    fn workload_refusal_note_is_a_record_but_not_a_refused_query() {
        let mut a = QueryAuditor::with_trail_cap(None, 1);
        a.refuse_with(|| "query #0".to_owned());
        a.note_refusal_with(|| "workload".to_owned());
        assert_eq!(a.queries_refused(), 1);
        assert_eq!(a.queries_seen(), 2);
        let t = trail_vec(&a);
        assert_eq!(t.len(), 1, "the cap bounds workload notes too");
        assert!(!t[0].admitted);
        assert_eq!(t[0].description, "workload");
    }

    #[test]
    fn cap_overflow_accounting_tracks_evictions() {
        // Regression: evictions from a full capped trail must be counted,
        // and the invariant trail_len + dropped == seen must hold at every
        // step and in every retention configuration.
        let mut a = QueryAuditor::with_trail_cap(None, 3);
        for i in 0..10 {
            a.admit(&format!("q{i}"));
            assert_eq!(
                a.trail_len() + a.dropped_entries(),
                a.queries_seen(),
                "after query {i}"
            );
        }
        assert_eq!(a.trail_len(), 3);
        assert_eq!(a.dropped_entries(), 7, "10 seen, 3 retained");

        // Zero retention: every record is dropped.
        let mut b = QueryAuditor::without_trail(None);
        for i in 0..4 {
            b.admit(&format!("q{i}"));
        }
        assert_eq!(b.dropped_entries(), 4);
        assert_eq!(b.trail_len() + b.dropped_entries(), b.queries_seen());

        // Unbounded retention never drops.
        let mut c = QueryAuditor::new(None);
        for i in 0..4 {
            c.admit(&format!("q{i}"));
        }
        assert_eq!(c.dropped_entries(), 0);
        assert_eq!(c.trail_len() + c.dropped_entries(), c.queries_seen());

        // Policy refusals are attempts too; their records evict like any
        // other once the cap is hit.
        let mut d = QueryAuditor::with_trail_cap(None, 1);
        d.admit("kept-then-evicted");
        d.refuse_with(|| "vetoed".to_owned());
        assert_eq!(d.trail_len(), 1);
        assert_eq!(d.dropped_entries(), 1);
        assert_eq!(d.trail_len() + d.dropped_entries(), d.queries_seen());
    }

    #[test]
    fn trail_cap_interacts_with_query_cap() {
        let mut a = QueryAuditor::with_trail_cap(Some(2), 2);
        assert!(a.admit("a"));
        assert!(a.admit("b"));
        assert!(!a.admit("c"));
        let t = trail_vec(&a);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].description, "b");
        assert!(t[0].admitted);
        assert_eq!(t[1].description, "c");
        assert!(!t[1].admitted);
    }
}
