//! Least-squares reconstruction: the scalable ablation of the LP decoder.
//!
//! Solves `min ‖A x − a‖²` over the box `[0,1]^n` by projected gradient
//! descent, where `A` is the 0/1 query-membership matrix, then rounds at ½.
//! Cheaper than the simplex (`O(iters · m · n)` with tiny constants), so the
//! fundamental-law sweeps can reach `n` in the thousands. Statistically it
//! behaves like the LP decoder for random queries with uniform noise — the
//! benchmarks quantify that claim (ablation called out in DESIGN.md).

use rand::Rng;

use so_data::BitVec;
use so_query::{SubsetQuery, SubsetSumMechanism};

/// Outcome of the least-squares attack.
#[derive(Debug, Clone)]
pub struct LsqReconResult {
    /// Rounded reconstruction.
    pub reconstruction: BitVec,
    /// Fractional iterate before rounding.
    pub fractional: Vec<f64>,
    /// Number of queries issued.
    pub queries_issued: usize,
    /// Final squared residual `‖Ax − a‖²`.
    pub residual: f64,
    /// Gradient iterations performed.
    pub iterations: usize,
}

/// Tuning for the projected-gradient solve.
#[derive(Debug, Clone)]
pub struct LsqConfig {
    /// Maximum gradient iterations.
    pub max_iterations: usize,
    /// Stop when the squared residual improves by less than this factor.
    pub relative_tolerance: f64,
}

impl Default for LsqConfig {
    fn default() -> Self {
        LsqConfig {
            max_iterations: 400,
            relative_tolerance: 1e-7,
        }
    }
}

/// Runs the least-squares attack with `m` random subset queries.
#[allow(clippy::needless_range_loop)] // parallel-array numeric kernel
pub fn least_squares_reconstruct<R: Rng>(
    mechanism: &mut dyn SubsetSumMechanism,
    m: usize,
    config: &LsqConfig,
    rng: &mut R,
) -> LsqReconResult {
    let n = mechanism.n();
    // Random queries; their member masks are the rows of A, walked by set
    // bit for a fast mat-vec. The query set is non-adaptive, so it is
    // declared in full and submitted as one batch.
    let mut queries = Vec::with_capacity(m);
    for _ in 0..m {
        let mut members = BitVec::zeros(n);
        for i in 0..n {
            members.set(i, rng.gen::<bool>());
        }
        queries.push(SubsetQuery::new(members));
    }
    let answers = mechanism.answer_all(&queries);

    let row = |j: usize| queries[j].members().iter_ones();
    let a_dot = |j: usize, x: &[f64]| -> f64 { row(j).fold(0.0, |s, i| s + x[i]) };

    // Lipschitz constant of the gradient: 2‖AᵀA‖ ≤ 2·(max row sum)·(max col
    // sum) is loose; a practical, safe estimate for random ½-dense A is
    // 2·(m·n/4 + m) / n ... instead use the standard bound ‖A‖² ≤ ‖A‖₁·‖A‖∞
    // = (max col sum)(max row sum).
    let mut row_sums = vec![0f64; m];
    let mut col_sums = vec![0f64; n];
    for j in 0..m {
        for i in row(j) {
            row_sums[j] += 1.0;
            col_sums[i] += 1.0;
        }
    }
    let norm_bound = row_sums.iter().fold(0.0f64, |a, &b| a.max(b))
        * col_sums.iter().fold(0.0f64, |a, &b| a.max(b));
    let step = if norm_bound > 0.0 {
        1.0 / norm_bound
    } else {
        1.0
    };

    let mut x = vec![0.5f64; n];
    let mut residuals = vec![0.0f64; m];
    let mut prev_obj = f64::INFINITY;
    let mut iterations = 0;
    for it in 0..config.max_iterations {
        iterations = it + 1;
        // r = Ax − a; objective = ‖r‖².
        let mut obj = 0.0;
        for j in 0..m {
            residuals[j] = a_dot(j, &x) - answers[j];
            obj += residuals[j] * residuals[j];
        }
        if prev_obj.is_finite() && (prev_obj - obj).abs() <= config.relative_tolerance * prev_obj {
            break;
        }
        prev_obj = obj;
        // grad = 2 Aᵀ r; projected step.
        let mut grad = vec![0.0f64; n];
        for j in 0..m {
            let rj = 2.0 * residuals[j];
            if rj == 0.0 {
                continue;
            }
            for i in row(j) {
                grad[i] += rj;
            }
        }
        for i in 0..n {
            x[i] = (x[i] - step * grad[i]).clamp(0.0, 1.0);
        }
    }

    let mut final_res = 0.0;
    for j in 0..m {
        let r = a_dot(j, &x) - answers[j];
        final_res += r * r;
    }
    let mut reconstruction = BitVec::zeros(n);
    for (i, &v) in x.iter().enumerate() {
        reconstruction.set(i, v >= 0.5);
    }
    LsqReconResult {
        reconstruction,
        fractional: x,
        queries_issued: m,
        residual: final_res,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstruction_accuracy;
    use so_data::dist::RecordDistribution;
    use so_data::rng::seeded_rng;
    use so_data::UniformBits;
    use so_query::{BoundedNoiseSum, ExactSum};

    fn random_secret(n: usize, seed: u64) -> BitVec {
        UniformBits::new(n).sample(&mut seeded_rng(seed))
    }

    #[test]
    fn exact_answers_reconstruct_exactly() {
        let n = 64;
        let x = random_secret(n, 20);
        let mut m = ExactSum::new(x.clone());
        let r = least_squares_reconstruct(
            &mut m,
            6 * n,
            &LsqConfig {
                max_iterations: 3000,
                relative_tolerance: 1e-12,
            },
            &mut seeded_rng(21),
        );
        let acc = reconstruction_accuracy(&x, &r.reconstruction);
        assert!(acc >= 0.98, "accuracy {acc}");
    }

    #[test]
    fn sqrt_n_noise_reconstructs_most_entries() {
        let n = 128;
        let alpha = 0.5 * (n as f64).sqrt();
        let x = random_secret(n, 22);
        let mut m = BoundedNoiseSum::new(x.clone(), alpha, seeded_rng(23));
        let r =
            least_squares_reconstruct(&mut m, 8 * n, &LsqConfig::default(), &mut seeded_rng(24));
        let acc = reconstruction_accuracy(&x, &r.reconstruction);
        assert!(acc >= 0.85, "accuracy {acc}");
    }

    #[test]
    fn iterate_stays_in_box() {
        let n = 32;
        let x = random_secret(n, 25);
        let mut m = BoundedNoiseSum::new(x, 3.0, seeded_rng(26));
        let r =
            least_squares_reconstruct(&mut m, 4 * n, &LsqConfig::default(), &mut seeded_rng(27));
        for &v in &r.fractional {
            assert!((0.0..=1.0).contains(&v));
        }
        assert!(r.iterations >= 1);
    }

    #[test]
    fn heavy_noise_degrades_accuracy() {
        let n = 128;
        let x = random_secret(n, 28);
        let light = {
            let mut m = BoundedNoiseSum::new(x.clone(), 1.0, seeded_rng(29));
            let r = least_squares_reconstruct(
                &mut m,
                6 * n,
                &LsqConfig::default(),
                &mut seeded_rng(30),
            );
            reconstruction_accuracy(&x, &r.reconstruction)
        };
        let heavy = {
            let mut m = BoundedNoiseSum::new(x.clone(), n as f64 / 2.0, seeded_rng(31));
            let r = least_squares_reconstruct(
                &mut m,
                6 * n,
                &LsqConfig::default(),
                &mut seeded_rng(32),
            );
            reconstruction_accuracy(&x, &r.reconstruction)
        };
        assert!(
            light > heavy + 0.1,
            "light-noise accuracy {light} should beat heavy-noise {heavy}"
        );
    }
}
