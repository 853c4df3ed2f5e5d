//! Order statistics over latency samples.

/// The `q`-quantile (`0 < q < 1`) of `samples` by the nearest-rank rule,
/// reported only when at least `min_beyond` samples lie strictly above the
/// rank it picks — a tail percentile resting on fewer samples than that is
/// one noisy reading, not a percentile. Returns `None` when unsupported.
pub fn percentile(samples: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1)");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it (1-based rank ⌈q·n⌉).
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    (beyond >= min_beyond).then(|| sorted[rank - 1])
}

/// The median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
