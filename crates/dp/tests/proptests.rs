//! Property-based tests for the DP substrate.

use proptest::prelude::*;
use so_data::rng::seeded_rng;
use so_dp::{
    sample_laplace, sample_two_sided_geometric, AdvancedComposition, BasicComposition,
    ContinualAccountant, GeometricCount, LaplaceCount,
};

proptest! {
    /// Laplace samples are finite for any positive scale.
    #[test]
    fn laplace_samples_finite(scale_milli in 1u64..100_000, seed in any::<u64>()) {
        let b = scale_milli as f64 / 1000.0;
        let mut rng = seeded_rng(seed);
        for _ in 0..20 {
            let x = sample_laplace(b, &mut rng);
            prop_assert!(x.is_finite(), "non-finite sample {x}");
        }
    }

    /// Geometric samples are integers whose magnitude stays sane for
    /// moderate ε (tail bound sanity: P[|X| > 60/ε] is astronomically small).
    #[test]
    fn geometric_samples_bounded(eps_milli in 50u64..5_000, seed in any::<u64>()) {
        let eps = eps_milli as f64 / 1000.0;
        let mut rng = seeded_rng(seed);
        for _ in 0..20 {
            let x = sample_two_sided_geometric(eps, &mut rng);
            prop_assert!((x.abs() as f64) < 60.0 / eps + 1.0, "outlier {x} at eps {eps}");
        }
    }

    /// Noisy counts are unbiased in aggregate (loose bound, per-case).
    #[test]
    fn counts_center_on_truth(count in 0usize..1_000, seed in any::<u64>()) {
        let mut rng = seeded_rng(seed);
        let lap = LaplaceCount::new(1.0);
        let geo = GeometricCount::new(1.0);
        let n = 500;
        let lap_mean: f64 = (0..n).map(|_| lap.release(count, &mut rng)).sum::<f64>() / n as f64;
        let geo_mean: f64 = (0..n).map(|_| geo.release(count, &mut rng)).sum::<i64>() as f64 / n as f64;
        // stddev of the mean ≈ sqrt(2)/sqrt(500) ≈ 0.063; allow 6σ.
        prop_assert!((lap_mean - count as f64).abs() < 0.4, "laplace mean {lap_mean}");
        prop_assert!((geo_mean - count as f64).abs() < 0.5, "geometric mean {geo_mean}");
    }

    /// Basic composition is additive and permutation-invariant.
    #[test]
    fn basic_composition_additive(mut epsilons in proptest::collection::vec(0.001f64..2.0, 1..20)) {
        let total: f64 = epsilons.iter().sum();
        let c = BasicComposition.compose(&epsilons);
        prop_assert!((c.epsilon - total).abs() < 1e-9);
        epsilons.reverse();
        let c2 = BasicComposition.compose(&epsilons);
        prop_assert!((c.epsilon - c2.epsilon).abs() < 1e-9);
    }

    /// Advanced composition is monotone in k and ε.
    #[test]
    fn advanced_composition_monotone(eps_milli in 1u64..500, k in 1usize..1_000) {
        let eps = eps_milli as f64 / 1000.0;
        let rule = AdvancedComposition::new(1e-6);
        let a = rule.compose_uniform(eps, k);
        let b = rule.compose_uniform(eps, k + 1);
        let c = rule.compose_uniform(eps * 1.1, k);
        prop_assert!(b.epsilon >= a.epsilon);
        prop_assert!(c.epsilon >= a.epsilon);
    }

    /// The accountant never overspends.
    #[test]
    fn accountant_never_overspends(spends in proptest::collection::vec(0.01f64..0.5, 1..40)) {
        let budget = 1.0;
        let mut acc = ContinualAccountant::new(budget);
        for &e in &spends {
            acc.try_spend(e);
            prop_assert!(acc.spent() <= budget + 1e-9, "overspent {}", acc.spent());
        }
        prop_assert!((acc.spent() + acc.remaining() - budget).abs() < 1e-9);
    }
}
