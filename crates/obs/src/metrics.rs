//! The metrics registry: monotonic counters, gauges, and fixed-bucket
//! histograms, keyed by name plus an optional label set and rendered in the
//! Prometheus text exposition format.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones of
//! the registered metric — hot paths fetch them once (typically into a
//! `OnceLock`-cached struct) and then update lock-free atomics. The registry
//! mutex is touched only at registration and render time.
//!
//! Determinism contract: counter values are derived from deterministic
//! program events (scans, admissions, draws), so any value that feeds an
//! experiment transcript is reproducible. Wall-clock observations (span
//! durations, per-shard timings) go only into histograms whose values are
//! **export-only** — they appear in the `SO_METRICS` dump and trace files,
//! never in transcripts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter not attached to any registry (useful as a
    /// struct field default and in tests).
    pub fn detached() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (stored as `f64`).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A free-standing gauge not attached to any registry.
    pub fn detached() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative) atomically.
    pub fn add(&self, delta: f64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the finite buckets, strictly increasing. An implicit
    /// `+Inf` bucket always follows.
    bounds: Vec<f64>,
    /// One slot per finite bound plus the `+Inf` overflow bucket.
    buckets: Vec<AtomicU64>,
    /// Total observation count.
    count: AtomicU64,
    /// Sum of observations, stored as `f64` bits.
    sum: AtomicU64,
}

/// Decade bucket bounds (µs) from 10 µs to 100 s, shared by the timing
/// histograms of the layers whose cost spans that whole range (a lint or a
/// plan execution takes µs on a toy workload and seconds on a large one).
pub const MICRO_BOUNDS: [f64; 8] = [
    10.0,
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
    10_000_000.0,
    100_000_000.0,
];

/// A histogram with buckets fixed at registration time.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// A free-standing histogram not attached to any registry.
    pub fn detached(bounds: &[f64]) -> Self {
        Self::new(bounds)
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let inner = &self.0;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let _ = inner
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum.load(Ordering::Relaxed))
    }

    /// Cumulative per-bucket counts in bound order, the `+Inf` bucket last.
    pub fn cumulative_buckets(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.0
            .buckets
            .iter()
            .map(|b| {
                acc += b.load(Ordering::Relaxed);
                acc
            })
            .collect()
    }

    /// An upper bound for the `q`-quantile of the observed distribution:
    /// the smallest registered bucket bound whose cumulative count reaches
    /// rank `ceil(q·count)`. Returns `None` with no observations, and
    /// `f64::INFINITY` when the quantile falls in the `+Inf` overflow
    /// bucket. Used by the serve slow-log summary ("p99 ≤ 500µs").
    pub fn quantile_upper_bound(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let cum = self.cumulative_buckets();
        for (i, &c) in cum.iter().enumerate() {
            if c >= rank {
                return Some(self.0.bounds.get(i).copied().unwrap_or(f64::INFINITY));
            }
        }
        Some(f64::INFINITY)
    }

    /// The finite bucket bounds this histogram was registered with.
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A metric identity: name plus an ordered label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    labels: Vec<(String, String)>,
}

/// Escapes a label value for the Prometheus text exposition format:
/// backslash, double-quote, and line-feed must be backslash-escaped or the
/// rendered line is unparsable (a raw `"` terminates the value early, a raw
/// newline splits the sample across lines).
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    Key {
        name: name.to_owned(),
        labels: labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect(),
    }
}

/// A named collection of metrics.
///
/// Most code uses the process-wide default via [`global`]; experiments and
/// tests can instantiate private registries to observe a scoped run.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<Key, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Gets or creates the counter `name` (no labels).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Gets or creates the counter `name` with the given label set.
    ///
    /// # Panics
    /// Panics if the key is already registered as a different metric type.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut m = self.metrics.lock().expect("metrics registry poisoned");
        match m
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Counter(Counter::detached()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Gets or creates the gauge `name` (no labels).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Gets or creates the gauge `name` with the given label set.
    ///
    /// # Panics
    /// Panics if the key is already registered as a different metric type.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut m = self.metrics.lock().expect("metrics registry poisoned");
        match m
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Gauge(Gauge::detached()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Gets or creates the histogram `name` with the given finite bucket
    /// bounds (an implicit `+Inf` bucket is appended). Bounds are fixed by
    /// the first registration; later calls return the existing histogram.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type, or
    /// if the bounds are not strictly increasing.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, bounds, &[])
    }

    /// Gets or creates the histogram `name` with the given label set (per-
    /// series bucket bounds are fixed by the first registration of that
    /// exact name+labels key).
    ///
    /// # Panics
    /// Panics if the key is already registered as a different metric type,
    /// or if the bounds are not strictly increasing.
    pub fn histogram_with(&self, name: &str, bounds: &[f64], labels: &[(&str, &str)]) -> Histogram {
        let mut m = self.metrics.lock().expect("metrics registry poisoned");
        match m
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Current value of a registered counter, if present.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counter_value_with(name, &[])
    }

    /// Current value of a registered labeled counter, if present.
    pub fn counter_value_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let m = self.metrics.lock().expect("metrics registry poisoned");
        match m.get(&key(name, labels)) {
            Some(Metric::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Current value of a registered gauge, if present.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauge_value_with(name, &[])
    }

    /// Current value of a registered labeled gauge, if present.
    pub fn gauge_value_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let m = self.metrics.lock().expect("metrics registry poisoned");
        match m.get(&key(name, labels)) {
            Some(Metric::Gauge(g)) => Some(g.get()),
            _ => None,
        }
    }

    /// Renders every registered metric in the Prometheus text exposition
    /// format, sorted by name and label set so output order is stable.
    pub fn render(&self) -> String {
        let m = self.metrics.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for (k, metric) in m.iter() {
            if last_name != Some(k.name.as_str()) {
                let ty = match metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {} {ty}", k.name);
                last_name = Some(k.name.as_str());
            }
            let labelset = |extra: Option<(&str, String)>| -> String {
                let mut parts: Vec<String> = k
                    .labels
                    .iter()
                    .map(|(lk, lv)| format!("{lk}=\"{}\"", escape_label_value(lv)))
                    .collect();
                if let Some((lk, lv)) = extra {
                    parts.push(format!("{lk}=\"{}\"", escape_label_value(&lv)));
                }
                if parts.is_empty() {
                    String::new()
                } else {
                    format!("{{{}}}", parts.join(","))
                }
            };
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{}{} {}", k.name, labelset(None), c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{}{} {}", k.name, labelset(None), g.get());
                }
                Metric::Histogram(h) => {
                    let cum = h.cumulative_buckets();
                    for (i, bound) in h.bounds().iter().enumerate() {
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            k.name,
                            labelset(Some(("le", format!("{bound}")))),
                            cum[i]
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        k.name,
                        labelset(Some(("le", "+Inf".to_owned()))),
                        cum[cum.len() - 1]
                    );
                    let _ = writeln!(out, "{}_sum{} {}", k.name, labelset(None), h.sum());
                    let _ = writeln!(out, "{}_count{} {}", k.name, labelset(None), h.count());
                }
            }
        }
        out
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide default registry. Instrumented crates publish here;
/// `SO_METRICS` and `--metrics` dumps render it.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_handles() {
        let r = Registry::new();
        let a = r.counter("hits_total");
        let b = r.counter("hits_total");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5, "both handles point at one metric");
        assert_eq!(r.counter_value("hits_total"), Some(5));
        assert_eq!(r.counter_value("missing"), None);
    }

    #[test]
    fn labeled_counters_are_distinct_metrics() {
        let r = Registry::new();
        r.counter_with("refusals_total", &[("code", "SO-DIFF")])
            .inc();
        r.counter_with("refusals_total", &[("code", "SO-RECON")])
            .add(2);
        assert_eq!(
            r.counter_value_with("refusals_total", &[("code", "SO-DIFF")]),
            Some(1)
        );
        assert_eq!(
            r.counter_value_with("refusals_total", &[("code", "SO-RECON")]),
            Some(2)
        );
        assert_eq!(r.counter_value("refusals_total"), None, "unlabeled absent");
    }

    #[test]
    fn gauge_set_and_add() {
        let r = Registry::new();
        let g = r.gauge("epsilon_spent");
        g.set(0.5);
        g.add(0.25);
        assert!((r.gauge_value("epsilon_spent").unwrap() - 0.75).abs() < 1e-12);
        g.add(-0.75);
        assert!(g.get().abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let r = Registry::new();
        let h = r.histogram("noise_abs", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 105.0).abs() < 1e-12);
        assert_eq!(h.cumulative_buckets(), vec![1, 2, 3, 4]);
        // Boundary value lands in its bucket (le semantics).
        h.observe(2.0);
        assert_eq!(h.cumulative_buckets(), vec![1, 3, 4, 5]);
    }

    #[test]
    fn render_is_sorted_and_prometheus_shaped() {
        let r = Registry::new();
        r.counter("z_total").add(3);
        r.counter("a_total").inc();
        r.gauge("mid_gauge").set(1.5);
        let h = r.histogram("lat_micros", &[10.0, 100.0]);
        h.observe(7.0);
        h.observe(250.0);
        let text = r.render();
        let a = text.find("a_total 1").expect("a_total rendered");
        let m = text.find("mid_gauge 1.5").expect("gauge rendered");
        let z = text.find("z_total 3").expect("z_total rendered");
        assert!(a < m && m < z, "sorted by name:\n{text}");
        assert!(text.contains("# TYPE lat_micros histogram"));
        assert!(text.contains("lat_micros_bucket{le=\"10\"} 1"));
        assert!(text.contains("lat_micros_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_micros_sum 257"));
        assert!(text.contains("lat_micros_count 2"));
    }

    #[test]
    fn label_values_are_escaped_in_render() {
        let r = Registry::new();
        r.counter_with("odd_total", &[("tenant", "a\"b")]).inc();
        r.counter_with("odd_total", &[("tenant", "c\\d")]).add(2);
        r.counter_with("odd_total", &[("tenant", "e\nf")]).add(3);
        let text = r.render();
        assert!(
            text.contains("odd_total{tenant=\"a\\\"b\"} 1"),
            "quote must be escaped:\n{text}"
        );
        assert!(
            text.contains("odd_total{tenant=\"c\\\\d\"} 2"),
            "backslash must be escaped:\n{text}"
        );
        assert!(
            text.contains("odd_total{tenant=\"e\\nf\"} 3"),
            "newline must be escaped:\n{text}"
        );
        // Every rendered line is a single sample — a raw newline in a label
        // value would have split one into two.
        assert_eq!(text.lines().count(), 4, "TYPE line + 3 samples:\n{text}");
    }

    #[test]
    fn labeled_gauges_and_histograms_are_distinct_series() {
        let r = Registry::new();
        r.gauge_with("eps_spent", &[("tenant", "open")]).set(1.5);
        r.gauge_with("eps_spent", &[("tenant", "gated")]).set(0.25);
        assert_eq!(
            r.gauge_value_with("eps_spent", &[("tenant", "open")]),
            Some(1.5)
        );
        assert_eq!(
            r.gauge_value_with("eps_spent", &[("tenant", "gated")]),
            Some(0.25)
        );
        assert_eq!(r.gauge_value("eps_spent"), None, "unlabeled absent");
        let ha = r.histogram_with("lat_micros", &[10.0], &[("op", "a")]);
        let hb = r.histogram_with("lat_micros", &[10.0], &[("op", "b")]);
        ha.observe(5.0);
        assert_eq!((ha.count(), hb.count()), (1, 0));
        let text = r.render();
        assert!(text.contains("lat_micros_bucket{op=\"a\",le=\"10\"} 1"));
        assert!(text.contains("lat_micros_count{op=\"b\"} 0"));
    }

    #[test]
    fn cumulative_buckets_with_empty_bounds() {
        // Zero finite bounds: only the implicit +Inf bucket exists.
        let h = Histogram::detached(&[]);
        assert_eq!(h.cumulative_buckets(), vec![0]);
        h.observe(3.0);
        h.observe(-1.0);
        assert_eq!(h.cumulative_buckets(), vec![2]);
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cumulative_buckets_all_overflow() {
        let h = Histogram::detached(&[1.0, 2.0]);
        for v in [10.0, 20.0, 30.0] {
            h.observe(v);
        }
        assert_eq!(h.cumulative_buckets(), vec![0, 0, 3]);
    }

    #[test]
    fn quantile_upper_bound_edges() {
        let h = Histogram::detached(&[10.0, 100.0, 1000.0]);
        assert_eq!(h.quantile_upper_bound(0.99), None, "no observations");
        for _ in 0..99 {
            h.observe(5.0);
        }
        assert_eq!(h.quantile_upper_bound(0.99), Some(10.0));
        h.observe(50.0);
        // Rank ceil(0.99·100)=99 still inside the first bucket.
        assert_eq!(h.quantile_upper_bound(0.99), Some(10.0));
        assert_eq!(h.quantile_upper_bound(1.0), Some(100.0));
        // All-overflow observations land in +Inf.
        let o = Histogram::detached(&[1.0]);
        o.observe(99.0);
        assert_eq!(o.quantile_upper_bound(0.5), Some(f64::INFINITY));
        // Empty bounds: every quantile is the overflow bucket.
        let e = Histogram::detached(&[]);
        e.observe(1.0);
        assert_eq!(e.quantile_upper_bound(0.0), Some(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_histogram_bounds_panic() {
        Histogram::detached(&[1.0, 1.0]);
    }
}
