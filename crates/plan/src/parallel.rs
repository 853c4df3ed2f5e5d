//! Sharded multi-threaded plan execution.
//!
//! A [`ParallelExecutor`] runs a compiled [`QueryPlan`]'s bitmap kernels on
//! a [`std::thread::scope`] pool over word-aligned row ranges of the dataset
//! and merges the per-range results **deterministically in range order**:
//!
//! ```text
//!               ┌─ range 0 rows [0, 64k)     ── scan/AND/OR/NOT ─┐
//!   QueryPlan ──┼─ range 1 rows [64k, 128k)  ── scan/AND/OR/NOT ─┼─ concat
//!               └─ range 2 rows [128k, n)    ── scan/AND/OR/NOT ─┘   words
//!                                                                      │
//!                                                   NodeCache ◀────────┘
//! ```
//!
//! Because range boundaries are multiples of 64, a range-local
//! [`SelectionVector`] occupies whole words of the full bitmap and the merge
//! ([`SelectionVector::concat_aligned`]) is a pure word copy — answers are
//! **bit-identical to the serial path for every thread count**, which is
//! what lets a CI determinism gate diff transcripts across `SO_THREADS`
//! settings. Each worker evaluates the plan's node order into a range-local
//! cache; the shared [`NodeCache`] is only read during the scatter phase
//! (word-aligned slices of already-compiled bitmaps) and only written after
//! the join barrier, in plan order.
//!
//! ## The range schedule
//!
//! The ranges are a pure function of `(n_rows, threads)`. When the rows
//! make at least two [`MORSEL_ROWS`]-row morsels per worker, the row space
//! is cut into those morsels and workers *claim* the next morsel index from
//! a shared atomic cursor, so a descheduled worker simply claims fewer.
//! Otherwise each worker gets one contiguous range from
//! [`so_data::word_aligned_ranges`]: with fewer morsels than that there is
//! nothing to rebalance, and the `bench_shard` curve at 100k rows (two
//! unequal morsels) favours the equal split. Every result is tagged with
//! its range index and the merge sorts by index before concatenating, so
//! which worker ran what never shows.
//!
//! Thread count comes from the `SO_THREADS` environment variable
//! ([`THREADS_ENV`]), defaulting to [`std::thread::available_parallelism`];
//! no dependencies beyond `std` are involved. The executor also exposes
//! [`ParallelExecutor::map_chunks`], the generic deterministic fan-out used
//! by the subset-sum mechanisms, the k-anonymity class merge, and the PSO
//! game loop.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use so_data::{word_aligned_ranges, Dataset, SelectionVector};

use crate::ir::{Atom, ExprId, PredNode, PredPool};
use crate::kernels::scan_atom_range;
use crate::plan::{NodeCache, PlanOutcome, PlanStats, QueryPlan};
use crate::predicate::RowPredicate;

/// Environment variable overriding the worker thread count (a positive
/// integer). Unset or unparsable values fall back to the machine's available
/// parallelism.
pub const THREADS_ENV: &str = "SO_THREADS";

/// Rows per morsel under morsel-driven scheduling: 1024 words. Word-aligned
/// by construction, so morsel bitmaps merge by pure word copy, and small
/// enough that a skewed worker re-balances at fine grain.
pub const MORSEL_ROWS: usize = 1 << 16;

/// A deterministic scoped-thread executor with a fixed worker count.
///
/// Construction is cheap (no threads are kept alive between calls); workers
/// are spawned per execution with [`std::thread::scope`], so borrowed
/// datasets, pools, and caches flow in without `'static` bounds or new
/// dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelExecutor {
    threads: usize,
    morsel_rows: usize,
}

impl ParallelExecutor {
    /// An executor with an explicit worker count.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        ParallelExecutor {
            threads,
            morsel_rows: MORSEL_ROWS,
        }
    }

    /// An executor honouring the [`THREADS_ENV`] (`SO_THREADS`) override,
    /// defaulting to the machine's available parallelism.
    pub fn from_env() -> Self {
        Self::with_threads(threads_from(std::env::var(THREADS_ENV).ok().as_deref()))
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Overrides the morsel size, so small test datasets exercise
    /// multi-morsel claiming.
    ///
    /// # Panics
    /// Panics unless `rows` is a positive multiple of 64 (morsel boundaries
    /// must stay word-aligned for the merge to be a pure word copy).
    #[cfg(test)]
    fn with_morsel_rows(mut self, rows: usize) -> Self {
        assert!(
            rows > 0 && rows % 64 == 0,
            "morsel size must be a positive multiple of 64, got {rows}"
        );
        self.morsel_rows = rows;
        self
    }

    /// The worker ranges for `n_rows`, plus the schedule chosen (`"static"`
    /// / `"morsel"`, for traces): morsels when there are at least two per
    /// worker, else one word-aligned range per worker. A pure function of
    /// `(n_rows, threads)` — never of runtime timing — which is what keeps
    /// execution deterministic.
    fn plan_ranges(&self, n_rows: usize) -> (Vec<Range<usize>>, &'static str) {
        let n_morsels = n_rows.div_ceil(self.morsel_rows);
        if n_morsels >= 2 * self.threads {
            let ranges = (0..n_morsels)
                .map(|i| i * self.morsel_rows..((i + 1) * self.morsel_rows).min(n_rows))
                .collect();
            (ranges, "morsel")
        } else {
            (word_aligned_ranges(n_rows, self.threads), "static")
        }
    }

    /// Executes a compiled plan against `ds`, sharding rows across the
    /// worker pool and merging per-shard bitmaps into `cache` in shard
    /// order. Single-threaded executors (and datasets too small to split
    /// into multiple word-aligned shards) delegate to the serial
    /// [`QueryPlan::execute`] directly.
    ///
    /// Answers, the resulting cache contents, and the returned [`PlanStats`]
    /// are identical to the serial path for every thread count: scans are
    /// counted once per distinct atom (not once per shard), and opaque
    /// predicates are evaluated per-shard through
    /// [`RowPredicate::eval_row`], which the trait contract requires to
    /// agree exactly with [`RowPredicate::scan`].
    pub fn execute(
        &self,
        plan: &QueryPlan,
        pool: &PredPool,
        ds: &Dataset,
        evaluators: &HashMap<u64, Arc<dyn RowPredicate>>,
        cache: &mut NodeCache,
    ) -> (Vec<PlanOutcome>, PlanStats) {
        let (ranges, schedule) = self.plan_ranges(ds.n_rows());
        if self.threads == 1 || ranges.len() <= 1 {
            return plan.execute(pool, ds, evaluators, cache);
        }
        let started = std::time::Instant::now();
        let span = so_obs::span("plan.execute");
        let mut stats = PlanStats {
            queries: plan.targets().len(),
            distinct_targets: {
                let mut t: Vec<ExprId> = plan.targets().iter().flatten().copied().collect();
                t.sort_unstable();
                t.dedup();
                t.len()
            },
            ..PlanStats::default()
        };
        // Scatter-phase planning (mirrors the serial path's bookkeeping): a
        // node is evaluable iff it is already cached, is a constant, is an
        // atom with tabular semantics (or a registered opaque evaluator), or
        // is a boolean node over evaluable children. Increasing-id order
        // guarantees children are classified before parents.
        let mut available: Vec<bool> = vec![false; pool.len()];
        let mut eval_ids: Vec<ExprId> = Vec::new();
        for &id in plan.order() {
            if cache.contains_key(&id) {
                stats.cache_hits += 1;
                available[id.index()] = true;
                continue;
            }
            let ok = match pool.node(id) {
                PredNode::True | PredNode::False => true,
                PredNode::Atom(atom) => match atom {
                    Atom::BitExtract { .. } => false,
                    Atom::Opaque { id: oid } => evaluators.contains_key(oid),
                    _ => true,
                },
                PredNode::And(children) | PredNode::Or(children) => {
                    children.iter().all(|c| available[c.index()])
                }
                PredNode::Not(inner) => available[inner.index()],
            };
            available[id.index()] = ok;
            if ok {
                eval_ids.push(id);
            }
        }
        if !eval_ids.is_empty() {
            let shared_cache: &NodeCache = cache;
            let eval: &[ExprId] = &eval_ids;
            let range_slice: &[Range<usize>] = &ranges;
            // Workers claim the next unprocessed range index from a shared
            // cursor — under morsel scheduling a slow worker simply claims
            // fewer morsels. Each result is tagged with its range index so
            // the merge can restore deterministic range order regardless of
            // which worker ran what.
            let cursor = std::sync::atomic::AtomicUsize::new(0);
            let workers = self.threads.min(range_slice.len());
            let mut tagged: Vec<(usize, Vec<SelectionVector>, u64)> = std::thread::scope(|scope| {
                let cursor = &cursor;
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(move || {
                            let mut done: Vec<(usize, Vec<SelectionVector>, u64)> = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                let Some(rows) = range_slice.get(i) else {
                                    break;
                                };
                                let t0 = std::time::Instant::now();
                                let out = execute_shard(
                                    eval,
                                    pool,
                                    ds,
                                    evaluators,
                                    shared_cache,
                                    rows.clone(),
                                );
                                done.push((i, out, t0.elapsed().as_micros() as u64));
                            }
                            done
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            });
            tagged.sort_unstable_by_key(|&(i, _, _)| i);
            debug_assert!(tagged.iter().enumerate().all(|(k, t)| k == t.0));
            // Per-range observability is reported *after* the join barrier,
            // in range order, so trace files are deterministically ordered
            // even though workers finish in any order. (Timings themselves
            // are wall-clock and export-only.)
            let metrics = crate::obs::plan_metrics();
            for (i, _, micros) in &tagged {
                metrics.shard_micros.observe(*micros as f64);
                if so_obs::enabled() {
                    so_obs::event(
                        "plan.shard",
                        &[
                            ("shard", i.to_string()),
                            ("rows", range_slice[*i].len().to_string()),
                            ("us", micros.to_string()),
                        ],
                    );
                }
            }
            // Merge barrier: concatenate each node's range bitmaps in range
            // order and publish to the shared cache in plan order.
            let mut columns: Vec<std::vec::IntoIter<SelectionVector>> = tagged
                .into_iter()
                .map(|(_, bitmaps, _)| bitmaps.into_iter())
                .collect();
            for &id in &eval_ids {
                let merged = SelectionVector::concat_aligned(
                    columns.iter_mut().map(|c| c.next().expect("shard result")),
                );
                debug_assert_eq!(merged.len(), ds.n_rows());
                if matches!(pool.node(id), PredNode::Atom(_)) {
                    stats.atom_scans += 1;
                }
                stats.nodes_evaluated += 1;
                cache.insert(id, merged);
            }
        }
        let outcomes: Vec<PlanOutcome> = plan
            .targets()
            .iter()
            .map(|t| match t {
                Some(id) => match cache.get(id) {
                    Some(b) => PlanOutcome::Count(b.count()),
                    None => {
                        stats.unanswerable += 1;
                        PlanOutcome::Unanswerable
                    }
                },
                None => {
                    stats.unanswerable += 1;
                    PlanOutcome::Unanswerable
                }
            })
            .collect();
        crate::obs::record_execution(&stats, started.elapsed().as_micros() as u64);
        if so_obs::enabled() {
            span.finish_with(&[
                ("queries", stats.queries.to_string()),
                ("atom_scans", stats.atom_scans.to_string()),
                ("cache_hits", stats.cache_hits.to_string()),
                ("nodes_evaluated", stats.nodes_evaluated.to_string()),
                ("shards", ranges.len().to_string()),
                ("schedule", schedule.to_string()),
            ]);
        }
        (outcomes, stats)
    }

    /// Splits `0..n_items` into at most [`ParallelExecutor::threads`]
    /// contiguous chunks of (near-)equal size, ascending and non-empty. The
    /// partition depends only on `n_items` and the configured thread count —
    /// never on scheduling — which is what keeps [`Self::map_chunks`]
    /// deterministic.
    pub fn chunk_ranges(&self, n_items: usize) -> Vec<Range<usize>> {
        if n_items == 0 {
            return Vec::new();
        }
        let chunks = self.threads.min(n_items);
        let per = n_items.div_ceil(chunks);
        (0..chunks)
            .map(|i| i * per..((i + 1) * per).min(n_items))
            .filter(|r| !r.is_empty())
            .collect()
    }

    /// Applies `f` to each chunk of `0..n_items` (see
    /// [`Self::chunk_ranges`]) across the worker pool and returns the
    /// results **in ascending chunk order**, regardless of which worker
    /// finished first. With one thread (or one chunk) everything runs inline
    /// on the caller's thread.
    ///
    /// `f` must be a pure function of its range for the combined result to
    /// be independent of the thread count — give each item its own derived
    /// RNG seed rather than sharing a stream across items.
    pub fn map_chunks<T, F>(&self, n_items: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        let ranges = self.chunk_ranges(n_items);
        if ranges.len() <= 1 {
            return ranges.into_iter().map(f).collect();
        }
        std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|r| scope.spawn(move || f(r)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("chunk worker panicked"))
                .collect()
        })
    }
}

impl Default for ParallelExecutor {
    /// Equivalent to [`ParallelExecutor::from_env`].
    fn default() -> Self {
        Self::from_env()
    }
}

/// Resolves the worker count from an optional `SO_THREADS` value, falling
/// back to available parallelism (and 1 if that is unknown).
fn threads_from(env: Option<&str>) -> usize {
    env.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// One worker's pass: evaluates `eval_ids` (a valid bottom-up schedule) over
/// the rows `rows`, returning the shard-local bitmaps in `eval_ids` order.
/// Children resolve from the worker's own shard-local results or, for nodes
/// compiled by an earlier execution, from word-aligned slices of the shared
/// cache.
fn execute_shard(
    eval_ids: &[ExprId],
    pool: &PredPool,
    ds: &Dataset,
    evaluators: &HashMap<u64, Arc<dyn RowPredicate>>,
    cache: &NodeCache,
    rows: Range<usize>,
) -> Vec<SelectionVector> {
    let len = rows.len();
    let mut local: HashMap<ExprId, SelectionVector> = HashMap::with_capacity(eval_ids.len());
    // Owned copy of child `c`'s shard bitmap (clone from this pass's local
    // results, or an aligned slice of a previously cached full bitmap).
    let fetch = |local: &HashMap<ExprId, SelectionVector>, c: ExprId| -> SelectionVector {
        match local.get(&c) {
            Some(b) => b.clone(),
            None => cache[&c].slice_aligned(rows.clone()),
        }
    };
    for &id in eval_ids {
        let bitmap = match pool.node(id) {
            PredNode::True => SelectionVector::all(len),
            PredNode::False => SelectionVector::none(len),
            PredNode::Atom(atom) => match scan_atom_range(atom, ds, rows.clone()) {
                Some(b) => b,
                None => match atom {
                    Atom::Opaque { id: oid } => {
                        let p = &evaluators[oid];
                        SelectionVector::from_fn(len, |i| p.eval_row(ds, rows.start + i))
                    }
                    _ => unreachable!("non-evaluable atoms are filtered before the scatter"),
                },
            },
            PredNode::And(children) => {
                let mut acc = fetch(&local, children[0]);
                for &c in &children[1..] {
                    match local.get(&c) {
                        Some(b) => acc.and_assign(b),
                        None => acc.and_assign(&cache[&c].slice_aligned(rows.clone())),
                    }
                }
                acc
            }
            PredNode::Or(children) => {
                let mut acc = fetch(&local, children[0]);
                for &c in &children[1..] {
                    match local.get(&c) {
                        Some(b) => acc.or_assign(b),
                        None => acc.or_assign(&cache[&c].slice_aligned(rows.clone())),
                    }
                }
                acc
            }
            PredNode::Not(inner) => {
                let mut b = fetch(&local, *inner);
                b.not_assign();
                b
            }
        };
        local.insert(id, bitmap);
    }
    eval_ids
        .iter()
        .map(|id| local.remove(id).expect("evaluated above"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::PredShape;
    use crate::workload::{Noise, WorkloadSpec};
    use so_data::{AttributeDef, AttributeRole, DataType, DatasetBuilder, Schema, Value};

    fn ds(n: usize) -> Dataset {
        let schema = Schema::new(vec![
            AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("dept", DataType::Int, AttributeRole::QuasiIdentifier),
        ]);
        let mut b = DatasetBuilder::new(schema);
        for i in 0..n {
            b.push_row(vec![
                Value::Int((i * 37 % 90) as i64),
                Value::Int((i % 7) as i64),
            ]);
        }
        b.finish()
    }

    fn workload(n_rows: usize) -> WorkloadSpec {
        let mut w = WorkloadSpec::new(n_rows);
        for q in 0..40usize {
            let lo = (q % 9 * 10) as i64;
            let shape = PredShape::And(vec![
                PredShape::IntRange {
                    col: 0,
                    lo,
                    hi: lo + 19,
                },
                PredShape::Not(Box::new(PredShape::ValueEquals {
                    col: 1,
                    value: Value::Int((q % 7) as i64),
                })),
            ]);
            w.push_shape(&shape, Noise::Exact);
        }
        w
    }

    /// The cross-thread-count invariant the whole module exists for, under
    /// the one range schedule. 128-row morsels make the sweep take both
    /// branches: static ranges where rows are scarce, multi-morsel cursor
    /// claiming where there are at least two morsels per worker.
    #[test]
    fn parallel_matches_serial_for_every_thread_count() {
        let mut schedules = std::collections::BTreeSet::new();
        for n in [1usize, 63, 64, 65, 127, 130, 1000] {
            let data = ds(n);
            let w = workload(n);
            let plan = QueryPlan::from_spec(&w);
            let mut serial_cache = NodeCache::new();
            let (serial, serial_stats) =
                plan.execute(w.pool(), &data, w.evaluators(), &mut serial_cache);
            for threads in 1..=8 {
                let exec = ParallelExecutor::with_threads(threads).with_morsel_rows(128);
                let (ranges, schedule) = exec.plan_ranges(n);
                if threads > 1 && ranges.len() > 1 {
                    schedules.insert(schedule);
                }
                let mut cache = NodeCache::new();
                let (out, stats) = exec.execute(&plan, w.pool(), &data, w.evaluators(), &mut cache);
                let ctx = format!("n={n} threads={threads} {schedule}");
                assert_eq!(out, serial, "{ctx}");
                assert_eq!(stats, serial_stats, "{ctx}");
                // Cache contents are bit-identical too, not just counts.
                assert_eq!(cache.len(), serial_cache.len(), "{ctx}");
                for (id, bm) in &serial_cache {
                    assert_eq!(cache[id], *bm, "{ctx} node {id:?}");
                }
            }
        }
        assert_eq!(
            schedules.into_iter().collect::<Vec<_>>(),
            ["morsel", "static"],
            "the sweep must run both branches of the schedule"
        );
    }

    /// Word-sized (64-row) morsels answer exactly as the serial plan does:
    /// the smallest legal morsel maximises merge-barrier work.
    #[test]
    fn word_sized_morsels_match_serial() {
        let data = ds(1000);
        let w = workload(1000);
        let plan = QueryPlan::from_spec(&w);
        let mut serial_cache = NodeCache::new();
        let serial = plan.execute(w.pool(), &data, w.evaluators(), &mut serial_cache);
        let exec = ParallelExecutor::with_threads(4).with_morsel_rows(64);
        assert_eq!(exec.plan_ranges(1000).1, "morsel");
        let mut cache = NodeCache::new();
        let parallel = exec.execute(&plan, w.pool(), &data, w.evaluators(), &mut cache);
        assert_eq!(parallel, serial);
    }

    /// Both branches cut word-aligned ranges that cover every row exactly
    /// once, morsels never exceed the morsel size, and static ranges never
    /// outnumber the workers.
    #[test]
    fn ranges_are_word_aligned_and_cover() {
        for n in [0usize, 1, 64, 127, 128, 129, 1000, 65_536, 65_537] {
            for threads in 1..=8 {
                let exec = ParallelExecutor::with_threads(threads).with_morsel_rows(128);
                let (ranges, schedule) = exec.plan_ranges(n);
                let ctx = format!("n={n} threads={threads} {schedule}");
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next, "{ctx}");
                    assert_eq!(r.start % 64, 0, "{ctx}");
                    assert!(!r.is_empty(), "{ctx}");
                    if schedule == "morsel" {
                        assert!(r.len() <= 128, "{ctx}");
                    }
                    next = r.end;
                }
                assert_eq!(next, n, "{ctx}");
                if schedule == "static" {
                    assert!(ranges.len() <= threads, "{ctx}");
                }
            }
        }
    }

    /// Morsels only when there are at least two per worker.
    #[test]
    fn morsels_only_with_slack() {
        let two = ParallelExecutor::with_threads(2).with_morsel_rows(64);
        // 100 rows / 64-row morsels = 2 morsels < 2 * 2 workers → static.
        assert_eq!(two.plan_ranges(100).1, "static");
        // 256 rows = 4 morsels ≥ 2 * 2 workers → morsel.
        assert_eq!(two.plan_ranges(256).1, "morsel");
        // 255 rows still make 4 morsels (the last one short).
        assert_eq!(two.plan_ranges(255).1, "morsel");
        let eight = ParallelExecutor::with_threads(8).with_morsel_rows(64);
        // 960 rows = 15 morsels < 16; one row more opens the 16th.
        assert_eq!(eight.plan_ranges(960).1, "static");
        assert_eq!(eight.plan_ranges(961).1, "morsel");
    }

    /// The production morsel size: the ranges the benchmarked relations
    /// get, pinned. 1M rows make 16 morsels, so up to 8 workers claim
    /// morsels; 100k rows make 2, so every thread count splits statically.
    #[test]
    fn production_ranges_are_pinned() {
        let exec = ParallelExecutor::with_threads;
        let (ranges, schedule) = exec(2).plan_ranges(1_000_000);
        assert_eq!(schedule, "morsel");
        assert_eq!(ranges.len(), 16);
        assert_eq!(ranges[0], 0..MORSEL_ROWS);
        assert_eq!(ranges[15], 15 * MORSEL_ROWS..1_000_000);
        assert_eq!(exec(8).plan_ranges(1_000_000).1, "morsel");
        assert_eq!(
            exec(9).plan_ranges(1_000_000),
            (word_aligned_ranges(1_000_000, 9), "static")
        );
        for threads in [2, 4, 8] {
            assert_eq!(
                exec(threads).plan_ranges(100_000),
                (word_aligned_ranges(100_000, threads), "static")
            );
        }
        assert_eq!(exec(2).plan_ranges(100_000).0, [0..50_048, 50_048..100_000]);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn misaligned_morsel_size_panics() {
        let _ = ParallelExecutor::with_threads(2).with_morsel_rows(100);
    }

    /// A warm cache is reused: re-execution does zero scans and the
    /// parallel path reports the same cache hits as the serial one.
    #[test]
    fn warm_cache_short_circuits_in_parallel() {
        let data = ds(300);
        let w = workload(300);
        let plan = QueryPlan::from_spec(&w);
        let exec = ParallelExecutor::with_threads(4);
        let mut cache = NodeCache::new();
        let (first, stats1) = exec.execute(&plan, w.pool(), &data, w.evaluators(), &mut cache);
        assert!(stats1.atom_scans > 0);
        let (again, stats2) = exec.execute(&plan, w.pool(), &data, w.evaluators(), &mut cache);
        assert_eq!(first, again);
        assert_eq!(stats2.atom_scans, 0);
        assert_eq!(stats2.nodes_evaluated, 0);
        assert_eq!(stats2.cache_hits, stats1.nodes_evaluated);
    }

    /// Mixed-availability workloads: unanswerable queries stay unanswerable
    /// (and are not cached) while answerable ones still parallelize.
    #[test]
    fn unanswerable_nodes_survive_sharding() {
        let data = ds(200);
        let mut w = WorkloadSpec::new(200);
        let i_opaque = w.push_shape(&PredShape::Opaque { id: u64::MAX }, Noise::Exact);
        let i_ok = w.push_shape(
            &PredShape::IntRange {
                col: 0,
                lo: 0,
                hi: 44,
            },
            Noise::Exact,
        );
        let plan = QueryPlan::from_spec(&w);
        let mut cache = NodeCache::new();
        let (out, stats) = ParallelExecutor::with_threads(3).execute(
            &plan,
            w.pool(),
            &data,
            w.evaluators(),
            &mut cache,
        );
        assert_eq!(out[i_opaque], PlanOutcome::Unanswerable);
        assert!(matches!(out[i_ok], PlanOutcome::Count(_)));
        assert_eq!(stats.unanswerable, 1);
    }

    #[test]
    fn map_chunks_preserves_order_and_covers_everything() {
        for threads in 1..=8 {
            let exec = ParallelExecutor::with_threads(threads);
            for n in [0usize, 1, 5, 8, 100] {
                let ranges = exec.chunk_ranges(n);
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, n);
                // Concatenated chunk results equal the sequential map.
                let got: Vec<usize> = exec.map_chunks(n, |r| r.collect::<Vec<_>>()).concat();
                assert_eq!(got, (0..n).collect::<Vec<_>>(), "threads={threads} n={n}");
            }
        }
    }

    /// `SO_THREADS=0`, negative, and garbage values must all fall back to
    /// available parallelism — never reach `with_threads`'s `>= 1` assert.
    /// (`-3` fails the `usize` parse, `0` fails the `>= 1` filter.)
    #[test]
    fn threads_from_env_parsing() {
        assert_eq!(threads_from(Some("4")), 4);
        assert_eq!(threads_from(Some(" 2 ")), 2);
        let fallback = threads_from(None);
        assert!(fallback >= 1);
        assert_eq!(threads_from(Some("0")), fallback, "zero is ignored");
        assert_eq!(threads_from(Some("-3")), fallback, "negative is ignored");
        assert_eq!(threads_from(Some("lots")), fallback, "garbage is ignored");
        assert_eq!(threads_from(Some("")), fallback, "empty is ignored");
        // And the constructor path built on it cannot panic for any of
        // these: with_threads receives the fallback, which is >= 1.
        for v in [Some("0"), Some("-3"), Some("lots"), None] {
            let exec = ParallelExecutor::with_threads(threads_from(v));
            assert!(exec.threads() >= 1, "{v:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        ParallelExecutor::with_threads(0);
    }
}
