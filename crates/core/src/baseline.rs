//! Trivial (baseline) attackers — §2.2 of the paper.
//!
//! The paper's pivotal observation about Definition 2.3: *"There exist
//! trivial attackers, that do not even look at the outcome y of the
//! mechanism, and yet isolate with high probability!"* A predicate of weight
//! `w`, chosen independently of the data, isolates with probability
//! `n·w·(1−w)^{n−1} ≈ n·w·e^{−n·w}` — about 37% (`1/e`) at `w = 1/n`, as in
//! the birthday example (`n = 365`, one fixed date).
//!
//! This is why Definition 2.4 scores an attacker only when the isolating
//! predicate has *negligible* weight: the baseline success at negligible
//! weight is itself negligible, so any attacker beating it must be
//! extracting information from the mechanism output.

use rand::Rng;

use so_data::rng::keyed_hash;
use so_data::BitVec;

use crate::isolation::PsoPredicate;

/// Closed form for the probability that a data-independent predicate of
/// weight `w` isolates in an i.i.d. sample of size `n`:
/// `n · w · (1 − w)^{n−1}`.
///
/// ```
/// use singling_out_core::baseline::baseline_isolation_probability;
/// // The paper's birthday example: n = 365, uniform dates ⇒ ≈ 37%.
/// let p = baseline_isolation_probability(365, 1.0 / 365.0);
/// assert!((p - 0.368).abs() < 0.001);
/// ```
pub fn baseline_isolation_probability(n: usize, w: f64) -> f64 {
    assert!((0.0..=1.0).contains(&w), "weight out of range: {w}");
    if n == 0 {
        return 0.0;
    }
    n as f64 * w * (1.0 - w).powi(n as i32 - 1)
}

/// A keyed-hash predicate of designed weight `1/modulus` over generic
/// records, given a serialization function — the Leftover-Hash-Lemma-style
/// construction the paper invokes for building trivial attackers at any
/// target weight.
/// Boxed record-serialization closure.
type ToBytesFn<R> = Box<dyn Fn(&R) -> Vec<u8> + Send + Sync>;

/// A keyed-hash predicate of designed weight `1/modulus` over generic
/// records, given a serialization function — the Leftover-Hash-Lemma-style
/// construction the paper invokes for building trivial attackers at any
/// target weight.
pub struct HashSlicePredicate<R: ?Sized> {
    key: u64,
    modulus: u64,
    target: u64,
    to_bytes: ToBytesFn<R>,
}

impl<R: ?Sized> HashSlicePredicate<R> {
    /// Predicate of designed weight `1/modulus`.
    ///
    /// # Panics
    /// Panics on `modulus == 0` or `target >= modulus`.
    pub fn new(
        key: u64,
        modulus: u64,
        target: u64,
        to_bytes: impl Fn(&R) -> Vec<u8> + Send + Sync + 'static,
    ) -> Self {
        assert!(modulus > 0, "modulus must be positive");
        assert!(target < modulus, "target must be a residue");
        HashSlicePredicate {
            key,
            modulus,
            target,
            to_bytes: Box::new(to_bytes),
        }
    }
}

impl<R: ?Sized> PsoPredicate<R> for HashSlicePredicate<R> {
    fn matches(&self, record: &R) -> bool {
        keyed_hash(self.key, &(self.to_bytes)(record)) % self.modulus == self.target
    }

    fn weight_hint(&self) -> Option<f64> {
        Some(1.0 / self.modulus as f64)
    }

    fn describe(&self) -> String {
        format!(
            "H_{:#x}(record) mod {} == {}",
            self.key, self.modulus, self.target
        )
    }
}

/// The baseline attacker over bit-string records: ignores any mechanism
/// output and emits a hash-slice predicate of weight `1/modulus`.
#[derive(Debug, Clone, Copy)]
pub struct BaselineAttacker {
    /// Target weight denominator.
    pub modulus: u64,
}

impl BaselineAttacker {
    /// Builds the predicate for one game trial (fresh key per trial).
    pub fn predicate<R: Rng + ?Sized>(&self, rng: &mut R) -> Box<dyn PsoPredicate<BitVec>> {
        let key = rng.gen::<u64>();
        let modulus = self.modulus;
        Box::new(HashSlicePredicate::new(
            key,
            modulus,
            0,
            BitVec::to_le_bytes,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isolation::isolates;
    use so_data::dist::RecordDistribution;
    use so_data::rng::seeded_rng;
    use so_data::UniformBits;

    #[test]
    fn closed_form_peaks_near_one_over_e() {
        for n in [10usize, 100, 365, 10_000] {
            let p = baseline_isolation_probability(n, 1.0 / n as f64);
            assert!((0.34..=0.40).contains(&p), "n = {n}: peak {p} not near 1/e");
        }
    }

    #[test]
    fn birthday_example_matches_paper() {
        // §2.2: n = 365, uniform dates, one fixed date ⇒ ≈ 37%.
        let p = baseline_isolation_probability(365, 1.0 / 365.0);
        assert!((p - 0.3681).abs() < 0.001, "p = {p}");
    }

    #[test]
    fn closed_form_vanishes_at_extremes() {
        assert_eq!(baseline_isolation_probability(100, 0.0), 0.0);
        assert!(baseline_isolation_probability(100, 1.0) < 1e-12);
        // Negligible weight ⇒ negligible success.
        let p = baseline_isolation_probability(1000, 1e-6);
        assert!(p < 1e-3 + 1e-12, "p = {p}");
    }

    #[test]
    fn monte_carlo_agrees_with_closed_form() {
        let n = 50;
        let trials = 20_000;
        let d = UniformBits::new(64);
        let mut rng = seeded_rng(120);
        let attacker = BaselineAttacker { modulus: n as u64 };
        let mut hits = 0;
        for _ in 0..trials {
            let records = d.sample_n(n, &mut rng);
            let p = attacker.predicate(&mut rng);
            if isolates(&records, p.as_ref()) {
                hits += 1;
            }
        }
        let emp = f64::from(hits) / f64::from(trials as u32);
        let theory = baseline_isolation_probability(n, 1.0 / n as f64);
        assert!(
            (emp - theory).abs() < 0.02,
            "empirical {emp} vs theory {theory}"
        );
    }

    #[test]
    fn hash_slice_weight_hint() {
        let p: HashSlicePredicate<BitVec> =
            HashSlicePredicate::new(1, 128, 0, |r: &BitVec| vec![r.low_u64() as u8]);
        assert_eq!(p.weight_hint(), Some(1.0 / 128.0));
    }

    #[test]
    #[should_panic(expected = "weight out of range")]
    fn rejects_bad_weight() {
        baseline_isolation_probability(10, 1.5);
    }
}
