//! Differentially private mechanisms.
//!
//! Sensitivities are stated under the paper's substitution convention
//! (Definition 1.2: datasets differ on a single entry).

use rand::Rng;

use crate::samplers::{sample_laplace, sample_two_sided_geometric};

/// The Laplace counting mechanism of Theorem 1.3: on input `x ∈ {0,1}^n`
/// outputs `Σ x_i + Y` with `Y ~ Lap(1/ε)`. Substituting one record changes
/// the count by at most 1, so the mechanism is ε-DP.
///
/// ```
/// use so_dp::LaplaceCount;
/// use so_data::rng::seeded_rng;
/// let mechanism = LaplaceCount::new(1.0);
/// let noisy = mechanism.release(42, &mut seeded_rng(7));
/// assert!((noisy - 42.0).abs() < 20.0); // Lap(1) noise, huge tail margin
/// assert_eq!(mechanism.expected_absolute_error(), 1.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LaplaceCount {
    epsilon: f64,
}

impl LaplaceCount {
    /// Mechanism with privacy-loss parameter `ε > 0`.
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite ε.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon.is_finite(),
            "bad epsilon {epsilon}"
        );
        LaplaceCount { epsilon }
    }

    /// The privacy-loss parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Releases a noisy version of the exact count `true_count`.
    pub fn release<R: Rng + ?Sized>(&self, true_count: usize, rng: &mut R) -> f64 {
        true_count as f64 + sample_laplace(1.0 / self.epsilon, rng)
    }

    /// Expected absolute error of a release: `E|Lap(1/ε)| = 1/ε`.
    pub fn expected_absolute_error(&self) -> f64 {
        1.0 / self.epsilon
    }

    /// The two-sided `tail` quantile of the noise: the smallest `q` with
    /// `P(|noise| > q) = tail`.
    ///
    /// Delegates to [`so_plan::laplace_tail_quantile`] — the single home of
    /// this formula, shared with the workload planner's effective-α ordering
    /// ([`so_plan::workload::Noise::effective_alpha`]) so mechanism and
    /// planner can never disagree about a mechanism's error envelope.
    pub fn tail_quantile(&self, tail: f64) -> f64 {
        so_plan::laplace_tail_quantile(self.epsilon, tail)
    }
}

/// Integer-valued ε-DP counting via two-sided geometric noise (the discrete
/// analogue of [`LaplaceCount`]; ablation target in the utility benches).
#[derive(Debug, Clone, Copy)]
pub struct GeometricCount {
    epsilon: f64,
}

impl GeometricCount {
    /// Mechanism with privacy-loss parameter `ε > 0`.
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite ε.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon.is_finite(),
            "bad epsilon {epsilon}"
        );
        GeometricCount { epsilon }
    }

    /// The privacy-loss parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Releases an integer noisy count.
    pub fn release<R: Rng + ?Sized>(&self, true_count: usize, rng: &mut R) -> i64 {
        true_count as i64 + sample_two_sided_geometric(self.epsilon, rng)
    }
}

/// Releases an ε-DP histogram: each bucket gets independent `Lap(2/ε)` noise.
/// Under substitution, one record change moves one unit of mass between two
/// buckets, so the L1 sensitivity of the histogram is 2.
pub fn noisy_histogram<R: Rng + ?Sized>(counts: &[usize], epsilon: f64, rng: &mut R) -> Vec<f64> {
    assert!(
        epsilon > 0.0 && epsilon.is_finite(),
        "bad epsilon {epsilon}"
    );
    counts
        .iter()
        .map(|&c| c as f64 + sample_laplace(2.0 / epsilon, rng))
        .collect()
}

/// The Gaussian counting mechanism: `(ε, δ)`-DP with
/// `σ = √(2 ln(1.25/δ)) · Δ / ε` (the classic analytic calibration). The
/// relaxation the paper's DP literature uses when pure ε-DP is too rigid;
/// included as the approximate-DP ablation — [`crate::verify`]'s pure-DP
/// audit correctly *fails* it at the tails.
#[derive(Debug, Clone, Copy)]
pub struct GaussianCount {
    epsilon: f64,
    delta: f64,
    sigma: f64,
}

impl GaussianCount {
    /// Mechanism with parameters `ε ∈ (0, 1)`, `δ ∈ (0, 1)` and sensitivity 1.
    ///
    /// # Panics
    /// Panics on out-of-range parameters (the classic calibration needs
    /// ε < 1).
    pub fn new(epsilon: f64, delta: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "classic Gaussian calibration needs 0 < ε < 1 (got {epsilon})"
        );
        assert!(delta > 0.0 && delta < 1.0, "bad delta {delta}");
        let sigma = (2.0 * (1.25 / delta).ln()).sqrt() / epsilon;
        GaussianCount {
            epsilon,
            delta,
            sigma,
        }
    }

    /// The privacy parameters `(ε, δ)`.
    pub fn parameters(&self) -> (f64, f64) {
        (self.epsilon, self.delta)
    }

    /// The calibrated noise standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Releases a noisy count.
    pub fn release<R: Rng + ?Sized>(&self, true_count: usize, rng: &mut R) -> f64 {
        true_count as f64 + crate::samplers::sample_gaussian(self.sigma, rng)
    }
}

/// Randomized response on one private bit: report the truth with probability
/// `e^ε / (1 + e^ε)`, else the opposite. ε-DP *locally* (each individual
/// randomizes their own bit — the oldest DP mechanism, Warner 1965).
pub fn randomized_response<R: Rng + ?Sized>(bit: bool, epsilon: f64, rng: &mut R) -> bool {
    assert!(
        epsilon > 0.0 && epsilon.is_finite(),
        "bad epsilon {epsilon}"
    );
    let p_truth = epsilon.exp() / (1.0 + epsilon.exp());
    if rng.gen::<f64>() < p_truth {
        bit
    } else {
        !bit
    }
}

/// Unbiased population-frequency estimator from randomized responses.
pub fn randomized_response_estimate(responses: &[bool], epsilon: f64) -> f64 {
    let p = epsilon.exp() / (1.0 + epsilon.exp());
    let observed = responses.iter().filter(|&&b| b).count() as f64 / responses.len() as f64;
    (observed - (1.0 - p)) / (2.0 * p - 1.0)
}

/// The exponential mechanism over a finite candidate set: selects candidate
/// `i` with probability `∝ exp(ε · score_i / (2 Δ))` where `Δ` is the score
/// sensitivity. Returns the chosen index.
///
/// # Panics
/// Panics on empty candidates, bad ε/Δ, or non-finite scores.
pub fn exponential_mechanism<R: Rng + ?Sized>(
    scores: &[f64],
    epsilon: f64,
    sensitivity: f64,
    rng: &mut R,
) -> usize {
    assert!(!scores.is_empty(), "no candidates");
    assert!(
        epsilon > 0.0 && epsilon.is_finite(),
        "bad epsilon {epsilon}"
    );
    assert!(
        sensitivity > 0.0 && sensitivity.is_finite(),
        "bad sensitivity {sensitivity}"
    );
    // Normalize by max score for numerical stability.
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(max.is_finite(), "non-finite score");
    let weights: Vec<f64> = scores
        .iter()
        .map(|&s| (epsilon * (s - max) / (2.0 * sensitivity)).exp())
        .collect();
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    scores.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_data::rng::seeded_rng;

    #[test]
    fn laplace_count_is_unbiased() {
        let m = LaplaceCount::new(1.0);
        let mut rng = seeded_rng(200);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| m.release(50, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 50.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn laplace_count_error_scales_inversely_with_epsilon() {
        let mut rng = seeded_rng(201);
        let n = 50_000;
        let mae = |eps: f64, rng: &mut rand::rngs::StdRng| -> f64 {
            let m = LaplaceCount::new(eps);
            (0..n)
                .map(|_| (m.release(100, rng) - 100.0).abs())
                .sum::<f64>()
                / n as f64
        };
        let e_small = mae(0.1, &mut rng);
        let e_large = mae(1.0, &mut rng);
        // MAE at ε is 1/ε: 10 vs 1.
        assert!((e_small - 10.0).abs() < 0.5, "mae(0.1) = {e_small}");
        assert!((e_large - 1.0).abs() < 0.1, "mae(1.0) = {e_large}");
        assert_eq!(LaplaceCount::new(0.5).expected_absolute_error(), 2.0);
    }

    /// `tail_quantile` is the shared `so-plan` formula, and the empirical
    /// tail mass beyond it matches the requested level.
    #[test]
    fn laplace_count_tail_quantile_is_calibrated() {
        let m = LaplaceCount::new(0.5);
        assert_eq!(
            m.tail_quantile(1e-3),
            so_plan::laplace_tail_quantile(0.5, 1e-3)
        );
        let q = m.tail_quantile(0.05);
        let mut rng = seeded_rng(203);
        let n = 200_000;
        let beyond = (0..n)
            .filter(|_| (m.release(70, &mut rng) - 70.0).abs() > q)
            .count();
        let rate = beyond as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.005, "tail rate {rate}");
    }

    /// Empirical ε-DP check: the output distributions of the mechanism on
    /// neighboring counts (c and c+1) must have likelihood ratio ≤ e^ε on
    /// every (discretized) output bucket, up to sampling slack.
    #[test]
    fn laplace_count_empirical_dp_inequality() {
        let eps = 1.0;
        let m = LaplaceCount::new(eps);
        let mut rng = seeded_rng(202);
        let n = 400_000;
        let bucket = |x: f64| (x * 2.0).round() as i64; // width-0.5 buckets
        let mut h0 = std::collections::HashMap::new();
        let mut h1 = std::collections::HashMap::new();
        for _ in 0..n {
            *h0.entry(bucket(m.release(10, &mut rng))).or_insert(0usize) += 1;
            *h1.entry(bucket(m.release(11, &mut rng))).or_insert(0usize) += 1;
        }
        let mut checked = 0;
        for (k, &c0) in &h0 {
            let c1 = *h1.get(k).unwrap_or(&0);
            // Only test well-populated buckets to control sampling noise.
            if c0 > 2000 && c1 > 2000 {
                let ratio = c0 as f64 / c1 as f64;
                // Slack factor 1.25 over e^ε for bucketization + sampling.
                assert!(
                    ratio < eps.exp() * 1.25 && ratio > (-eps).exp() / 1.25,
                    "bucket {k}: ratio {ratio}"
                );
                checked += 1;
            }
        }
        assert!(checked >= 5, "too few buckets checked ({checked})");
    }

    #[test]
    fn geometric_count_integer_and_unbiased() {
        let m = GeometricCount::new(0.5);
        let mut rng = seeded_rng(203);
        let n = 100_000;
        let sum: i64 = (0..n).map(|_| m.release(42, &mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 42.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn noisy_histogram_shape_preserved() {
        let mut rng = seeded_rng(204);
        let counts = vec![1000usize, 0, 500];
        let noisy = noisy_histogram(&counts, 2.0, &mut rng);
        assert_eq!(noisy.len(), 3);
        // With ε=2 (scale 1), noise is tiny relative to 1000 vs 0.
        assert!(noisy[0] > noisy[1] + 100.0);
        assert!(noisy[2] > noisy[1] + 100.0);
    }

    #[test]
    fn randomized_response_estimator_consistent() {
        let mut rng = seeded_rng(205);
        let eps = 1.0;
        let n = 100_000;
        let true_frac = 0.3;
        let responses: Vec<bool> = (0..n)
            .map(|i| randomized_response(i < (n as f64 * true_frac) as usize, eps, &mut rng))
            .collect();
        let est = randomized_response_estimate(&responses, eps);
        assert!((est - true_frac).abs() < 0.02, "estimate {est}");
    }

    #[test]
    fn randomized_response_flips_at_expected_rate() {
        let mut rng = seeded_rng(206);
        let eps = f64::ln(3.0); // p_truth = 3/4
        let n = 100_000;
        let kept = (0..n)
            .filter(|_| randomized_response(true, eps, &mut rng))
            .count();
        let frac = kept as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "truth rate {frac}");
    }

    #[test]
    fn exponential_mechanism_prefers_high_scores() {
        let mut rng = seeded_rng(207);
        let scores = [0.0, 0.0, 10.0, 0.0];
        let n = 10_000;
        let wins = (0..n)
            .filter(|_| exponential_mechanism(&scores, 2.0, 1.0, &mut rng) == 2)
            .count();
        // exp(10) dominance: candidate 2 should win essentially always.
        assert!(wins as f64 / n as f64 > 0.98, "wins {wins}");
    }

    #[test]
    fn exponential_mechanism_uniform_on_equal_scores() {
        let mut rng = seeded_rng(208);
        let scores = [1.0, 1.0];
        let n = 20_000;
        let zeros = (0..n)
            .filter(|_| exponential_mechanism(&scores, 1.0, 1.0, &mut rng) == 0)
            .count();
        let frac = zeros as f64 / n as f64;
        assert!((0.48..=0.52).contains(&frac), "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "bad epsilon")]
    fn rejects_bad_epsilon() {
        LaplaceCount::new(-1.0);
    }

    #[test]
    fn gaussian_count_calibration_and_unbiasedness() {
        let m = GaussianCount::new(0.5, 1e-5);
        // σ = sqrt(2 ln(1.25/δ))/ε = sqrt(2·ln(125000))/0.5 ≈ 9.69.
        assert!((m.sigma() - (2.0f64 * (1.25 / 1e-5f64).ln()).sqrt() / 0.5).abs() < 1e-12);
        assert_eq!(m.parameters(), (0.5, 1e-5));
        let mut rng = seeded_rng(210);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| m.release(40, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 40.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "classic Gaussian calibration")]
    fn gaussian_rejects_large_epsilon() {
        GaussianCount::new(1.5, 1e-5);
    }
}
