//! so-dp observability: noise-draw counters, the noise-magnitude histogram,
//! and privacy-budget accounting metrics, published to the `so-obs` global
//! registry.
//!
//! Draw counts are deterministic for a fixed workload (every release draws
//! a fixed number of variates); the magnitude histogram reflects the seeded
//! RNG stream and, like all histograms here, is export-only — it reaches the
//! `SO_METRICS` dump, never a transcript.

use std::sync::OnceLock;

use so_obs::{global, Counter, Gauge, Histogram};

/// Cached handles to the DP-layer metrics in the [`so_obs::global`]
/// registry. Fetch once via [`dp_metrics`]; updates are lock-free.
#[derive(Debug)]
pub struct DpMetrics {
    /// `so_dp_noise_draws_total{dist="laplace"}` — Laplace variates drawn.
    pub laplace_draws: Counter,
    /// `so_dp_noise_draws_total{dist="geometric"}` — two-sided-geometric
    /// variates drawn.
    pub geometric_draws: Counter,
    /// `so_dp_noise_draws_total{dist="gaussian"}` — Gaussian variates drawn.
    pub gaussian_draws: Counter,
    /// `so_dp_noise_abs` — |noise| magnitudes across all samplers
    /// (export-only).
    pub noise_abs: Histogram,
    /// `so_dp_epsilon_spent` — cumulative ε spent by successful
    /// [`ContinualAccountant::try_spend`](crate::accountant::ContinualAccountant::try_spend)
    /// calls, summed over every accountant in the process.
    pub epsilon_spent: Gauge,
    /// `so_dp_budget_refusals_total` — spends refused because they would
    /// exceed an accountant's budget.
    pub budget_refusals: Counter,
}

/// The DP layer's global metric handles, registered on first use.
pub fn dp_metrics() -> &'static DpMetrics {
    static METRICS: OnceLock<DpMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        DpMetrics {
            laplace_draws: r.counter_with("so_dp_noise_draws_total", &[("dist", "laplace")]),
            geometric_draws: r.counter_with("so_dp_noise_draws_total", &[("dist", "geometric")]),
            gaussian_draws: r.counter_with("so_dp_noise_draws_total", &[("dist", "gaussian")]),
            noise_abs: r.histogram(
                "so_dp_noise_abs",
                &[0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
            ),
            epsilon_spent: r.gauge("so_dp_epsilon_spent"),
            budget_refusals: r.counter("so_dp_budget_refusals_total"),
        }
    })
}
