//! Probability distributions over data universes.
//!
//! Section 2.2 of the paper fixes the data-generation model: records are
//! sampled i.i.d. from a distribution `D ∈ Δ(X)` unknown to the attacker.
//! [`RecordDistribution`] is the abstract `D`; the implementations here cover
//! the domains used in the experiments:
//!
//! * [`UniformBits`] / [`ProductBernoulli`] — bit-string universes for the
//!   composition attack (Theorem 2.8) and baseline-isolation studies;
//! * [`Categorical`] / [`Zipf`] — finite domains such as the birthday
//!   example in §2.2 (uniform over 365 dates) and long-tailed title
//!   popularity for the Netflix-style experiment;
//! * [`RowDistribution`] — product distributions over tabular rows, the
//!   model under which the k-anonymity predicate-singling-out attack is
//!   analyzed (Theorem 2.10) and under which equivalence-class predicate
//!   weights can be computed *exactly* rather than by Monte Carlo.

use rand::Rng;

use crate::bits::{BitDataset, BitVec};
use crate::dataset::{Dataset, DatasetBuilder};
use crate::schema::Schema;
use crate::value::Value;
use std::sync::Arc;

/// A distribution `D ∈ Δ(X)` over records of type `X`.
pub trait RecordDistribution {
    /// The record type `X`.
    type Record;

    /// Samples one record.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Record;

    /// Samples a dataset `x ~ D^n` as a vector of records.
    fn sample_n<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Self::Record> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Uniform distribution over `{0,1}^width`.
#[derive(Debug, Clone, Copy)]
pub struct UniformBits {
    width: usize,
}

impl UniformBits {
    /// Uniform over bit strings of the given width.
    pub fn new(width: usize) -> Self {
        UniformBits { width }
    }

    /// Record width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Samples a whole [`BitDataset`] of `n` records.
    pub fn sample_dataset<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> BitDataset {
        BitDataset::from_rows(self.width, self.sample_n(n, rng))
    }

    /// Exact probability that a fixed record is drawn: `2^-width`.
    pub fn point_mass(&self) -> f64 {
        0.5f64.powi(self.width as i32)
    }
}

impl RecordDistribution for UniformBits {
    type Record = BitVec;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> BitVec {
        let mut v = BitVec::zeros(self.width);
        for i in 0..self.width {
            v.set(i, rng.gen::<bool>());
        }
        v
    }
}

/// Independent-bit distribution with per-bit probabilities `p_i`.
#[derive(Debug, Clone)]
pub struct ProductBernoulli {
    probs: Vec<f64>,
}

impl ProductBernoulli {
    /// Per-bit success probabilities (each must lie in `[0,1]`).
    ///
    /// # Panics
    /// Panics if any probability is outside `[0,1]` or non-finite.
    pub fn new(probs: Vec<f64>) -> Self {
        for &p in &probs {
            assert!(p.is_finite() && (0.0..=1.0).contains(&p), "bad prob {p}");
        }
        ProductBernoulli { probs }
    }

    /// Record width in bits.
    pub fn width(&self) -> usize {
        self.probs.len()
    }

    /// Exact probability of drawing exactly `record`.
    pub fn point_probability(&self, record: &BitVec) -> f64 {
        assert_eq!(record.len(), self.probs.len());
        self.probs
            .iter()
            .enumerate()
            .map(|(i, &p)| if record.get(i) { p } else { 1.0 - p })
            .product()
    }
}

impl RecordDistribution for ProductBernoulli {
    type Record = BitVec;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> BitVec {
        let mut v = BitVec::zeros(self.probs.len());
        for (i, &p) in self.probs.iter().enumerate() {
            v.set(i, rng.gen::<f64>() < p);
        }
        v
    }
}

/// A categorical distribution over `0..k` given by (unnormalized) weights.
#[derive(Debug, Clone)]
pub struct Categorical {
    cumulative: Vec<f64>,
    probs: Vec<f64>,
}

impl Categorical {
    /// Builds from non-negative weights (at least one strictly positive).
    ///
    /// # Panics
    /// Panics on empty/negative/non-finite weights or all-zero total.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "empty categorical");
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "categorical weights must sum to a positive finite value"
        );
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "bad weight {w}");
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        let mut probs = Vec::with_capacity(weights.len());
        for &w in weights {
            acc += w / total;
            cumulative.push(acc);
            probs.push(w / total);
        }
        // Guard against floating-point drift so sampling never falls off the end.
        *cumulative.last_mut().expect("nonempty") = 1.0;
        Categorical { cumulative, probs }
    }

    /// Uniform over `k` outcomes.
    pub fn uniform(k: usize) -> Self {
        Self::new(&vec![1.0; k])
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True iff there are no outcomes (impossible by construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Exact probability of outcome `i`.
    pub fn probability(&self, i: usize) -> f64 {
        self.probs[i]
    }
}

impl RecordDistribution for Categorical {
    type Record = usize;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // Binary search the cumulative table: first index with cdf >= u.
        self.cumulative.partition_point(|&c| c < u)
    }
}

/// Zipf distribution over ranks `0..k` with exponent `s`:
/// `P(rank i) ∝ 1/(i+1)^s`. Used for long-tailed title popularity.
#[derive(Debug, Clone)]
pub struct Zipf {
    inner: Categorical,
}

impl Zipf {
    /// Zipf over `k` ranks with exponent `s > 0`.
    pub fn new(k: usize, s: f64) -> Self {
        assert!(s > 0.0 && s.is_finite(), "bad Zipf exponent {s}");
        let weights: Vec<f64> = (0..k).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        Zipf {
            inner: Categorical::new(&weights),
        }
    }

    /// Exact probability of rank `i`.
    pub fn probability(&self, i: usize) -> f64 {
        self.inner.probability(i)
    }
}

impl RecordDistribution for Zipf {
    type Record = usize;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.inner.sample(rng)
    }
}

/// How to generate one tabular attribute.
#[derive(Debug, Clone)]
pub enum AttributeDistribution {
    /// Integer chosen from a fixed list with categorical weights.
    IntChoice {
        /// Candidate values.
        values: Vec<i64>,
        /// Matching categorical distribution (same length as `values`).
        dist: Categorical,
    },
    /// Integer uniform over an inclusive range.
    IntUniform {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// Interned string chosen from a fixed list with categorical weights.
    StrChoice {
        /// Candidate values (interned at dataset build time).
        values: Vec<String>,
        /// Matching categorical distribution.
        dist: Categorical,
    },
    /// Bernoulli boolean.
    BoolBernoulli {
        /// P(true).
        p: f64,
    },
}

impl AttributeDistribution {
    /// Exact point probability of a concrete value under this attribute
    /// distribution (0.0 for values outside the support).
    pub fn point_probability(&self, v: &Value, resolve: &dyn Fn(crate::Symbol) -> String) -> f64 {
        match (self, v) {
            (AttributeDistribution::IntChoice { values, dist }, Value::Int(x)) => values
                .iter()
                .position(|c| c == x)
                .map_or(0.0, |i| dist.probability(i)),
            (AttributeDistribution::IntUniform { lo, hi }, Value::Int(x)) if x >= lo && x <= hi => {
                1.0 / ((hi - lo + 1) as f64)
            }
            (AttributeDistribution::StrChoice { values, dist }, Value::Str(s)) => {
                let name = resolve(*s);
                values
                    .iter()
                    .position(|c| *c == name)
                    .map_or(0.0, |i| dist.probability(i))
            }
            (AttributeDistribution::BoolBernoulli { p }, Value::Bool(b)) => {
                if *b {
                    *p
                } else {
                    1.0 - *p
                }
            }
            _ => 0.0,
        }
    }

    /// Probability mass inside an inclusive integer interval (for interval
    /// predicates / generalization boxes). Zero for non-integer attributes.
    pub fn interval_probability(&self, lo: i64, hi: i64) -> f64 {
        match self {
            AttributeDistribution::IntChoice { values, dist } => values
                .iter()
                .enumerate()
                .filter(|(_, v)| **v >= lo && **v <= hi)
                .map(|(i, _)| dist.probability(i))
                .sum(),
            AttributeDistribution::IntUniform { lo: a, hi: b } => {
                let l = lo.max(*a);
                let h = hi.min(*b);
                if l > h {
                    0.0
                } else {
                    (h - l + 1) as f64 / (b - a + 1) as f64
                }
            }
            _ => 0.0,
        }
    }
}

/// A product distribution over tabular rows matching a [`Schema`].
#[derive(Debug, Clone)]
pub struct RowDistribution {
    schema: Arc<Schema>,
    attrs: Vec<AttributeDistribution>,
}

impl RowDistribution {
    /// Builds a product distribution; one attribute distribution per column.
    ///
    /// # Panics
    /// Panics if the arity does not match the schema.
    pub fn new(schema: Arc<Schema>, attrs: Vec<AttributeDistribution>) -> Self {
        assert_eq!(
            schema.len(),
            attrs.len(),
            "need one distribution per schema attribute"
        );
        RowDistribution { schema, attrs }
    }

    /// The schema rows are generated for.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Per-attribute distributions.
    pub fn attrs(&self) -> &[AttributeDistribution] {
        &self.attrs
    }

    /// Samples a full dataset `x ~ D^n`.
    pub fn sample_dataset<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Dataset {
        let mut b = DatasetBuilder::new(self.schema.clone());
        // Pre-intern all categorical values so sampling is allocation-free.
        let interned: Vec<Option<Vec<crate::Symbol>>> = self
            .attrs
            .iter()
            .map(|a| match a {
                AttributeDistribution::StrChoice { values, .. } => {
                    Some(values.iter().map(|v| b.intern(v)).collect())
                }
                _ => None,
            })
            .collect();
        for _ in 0..n {
            let row: Vec<Value> = self
                .attrs
                .iter()
                .enumerate()
                .map(|(c, a)| match a {
                    AttributeDistribution::IntChoice { values, dist } => {
                        Value::Int(values[dist.sample(rng)])
                    }
                    AttributeDistribution::IntUniform { lo, hi } => {
                        Value::Int(rng.gen_range(*lo..=*hi))
                    }
                    AttributeDistribution::StrChoice { dist, .. } => {
                        let syms = interned[c].as_ref().expect("interned");
                        Value::Str(syms[dist.sample(rng)])
                    }
                    AttributeDistribution::BoolBernoulli { p } => {
                        Value::Bool(rng.gen::<f64>() < *p)
                    }
                })
                .collect();
            b.push_row(row);
        }
        b.finish()
    }

    /// Builds a [`RowSampler`] with all categorical values pre-interned, for
    /// efficient record-at-a-time sampling (the PSO game loop).
    pub fn sampler(&self) -> RowSampler {
        let mut interner = crate::Interner::new();
        interner.intern(""); // reserve the missing-cell placeholder
        let interned: Vec<Option<Vec<crate::Symbol>>> = self
            .attrs
            .iter()
            .map(|a| match a {
                AttributeDistribution::StrChoice { values, .. } => {
                    Some(values.iter().map(|v| interner.intern(v)).collect())
                }
                _ => None,
            })
            .collect();
        RowSampler {
            dist: self.clone(),
            interner: Arc::new(interner),
            interned,
        }
    }

    /// Exact probability that a sampled row equals `row` cell-for-cell.
    pub fn point_probability(
        &self,
        row: &[Value],
        resolve: &dyn Fn(crate::Symbol) -> String,
    ) -> f64 {
        assert_eq!(row.len(), self.attrs.len());
        self.attrs
            .iter()
            .zip(row)
            .map(|(a, v)| a.point_probability(v, resolve))
            .product()
    }
}

/// Record-at-a-time sampler for a [`RowDistribution`] with a fixed, shared
/// interner (so symbols from different samples are comparable and the hot
/// loop allocates only the row vector).
#[derive(Debug, Clone)]
pub struct RowSampler {
    dist: RowDistribution,
    interner: Arc<crate::Interner>,
    interned: Vec<Option<Vec<crate::Symbol>>>,
}

impl RowSampler {
    /// The underlying distribution.
    pub fn distribution(&self) -> &RowDistribution {
        &self.dist
    }

    /// The interner binding this sampler's string symbols.
    pub fn interner(&self) -> &Arc<crate::Interner> {
        &self.interner
    }

    /// Samples one row.
    pub fn sample_row<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Value> {
        self.dist
            .attrs
            .iter()
            .enumerate()
            .map(|(c, a)| match a {
                AttributeDistribution::IntChoice { values, dist } => {
                    Value::Int(values[dist.sample(rng)])
                }
                AttributeDistribution::IntUniform { lo, hi } => {
                    Value::Int(rng.gen_range(*lo..=*hi))
                }
                AttributeDistribution::StrChoice { dist, .. } => {
                    let syms = self.interned[c].as_ref().expect("interned");
                    Value::Str(syms[dist.sample(rng)])
                }
                AttributeDistribution::BoolBernoulli { p } => Value::Bool(rng.gen::<f64>() < *p),
            })
            .collect()
    }

    /// Samples `n` rows.
    pub fn sample_rows<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Vec<Value>> {
        (0..n).map(|_| self.sample_row(rng)).collect()
    }

    /// Exact point probability of `row` (symbols must come from this
    /// sampler's interner).
    pub fn point_probability(&self, row: &[Value]) -> f64 {
        let interner = self.interner.clone();
        let resolve = move |s: crate::Symbol| interner.resolve(s).to_owned();
        self.dist.point_probability(row, &resolve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use crate::schema::{AttributeDef, AttributeRole, DataType};

    #[test]
    fn uniform_bits_balanced() {
        let d = UniformBits::new(16);
        let mut rng = seeded_rng(1);
        let samples = d.sample_n(2000, &mut rng);
        let mean_ones: f64 = samples.iter().map(|s| s.count_ones() as f64).sum::<f64>() / 2000.0;
        assert!((7.0..=9.0).contains(&mean_ones), "mean ones {mean_ones}");
        assert_eq!(d.point_mass(), 1.0 / 65536.0);
    }

    #[test]
    fn product_bernoulli_respects_probs() {
        let d = ProductBernoulli::new(vec![0.0, 1.0, 0.5]);
        let mut rng = seeded_rng(2);
        let mut ones = [0usize; 3];
        let n = 4000;
        for _ in 0..n {
            let s = d.sample(&mut rng);
            for (i, c) in ones.iter_mut().enumerate() {
                *c += usize::from(s.get(i));
            }
        }
        assert_eq!(ones[0], 0);
        assert_eq!(ones[1], n);
        let frac = ones[2] as f64 / n as f64;
        assert!((0.45..=0.55).contains(&frac), "frac {frac}");
    }

    #[test]
    fn product_bernoulli_point_probability() {
        let d = ProductBernoulli::new(vec![0.25, 0.5]);
        let r = BitVec::from_bools(&[true, false]);
        assert!((d.point_probability(&r) - 0.125).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bad prob")]
    fn bernoulli_rejects_bad_probability() {
        ProductBernoulli::new(vec![1.5]);
    }

    #[test]
    fn categorical_frequencies_match() {
        let d = Categorical::new(&[1.0, 3.0]);
        let mut rng = seeded_rng(3);
        let n = 20_000;
        let ones = (0..n).filter(|_| d.sample(&mut rng) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((0.72..=0.78).contains(&frac), "frac {frac}");
        assert!((d.probability(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn categorical_uniform_probabilities() {
        let d = Categorical::uniform(365);
        assert_eq!(d.len(), 365);
        assert!((d.probability(100) - 1.0 / 365.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty categorical")]
    fn categorical_rejects_empty() {
        Categorical::new(&[]);
    }

    #[test]
    fn zipf_is_monotone_decreasing() {
        let z = Zipf::new(100, 1.2);
        for i in 1..100 {
            assert!(z.probability(i) <= z.probability(i - 1));
        }
        let mut rng = seeded_rng(4);
        // Rank 0 should dominate noticeably.
        let n = 5000;
        let zeros = (0..n).filter(|_| z.sample(&mut rng) == 0).count();
        assert!(zeros > n / 10, "zeros {zeros}");
    }

    fn tiny_schema() -> Arc<Schema> {
        Schema::new(vec![
            AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("sex", DataType::Str, AttributeRole::QuasiIdentifier),
            AttributeDef::new("flag", DataType::Bool, AttributeRole::Sensitive),
        ])
    }

    fn tiny_dist() -> RowDistribution {
        RowDistribution::new(
            tiny_schema(),
            vec![
                AttributeDistribution::IntUniform { lo: 0, hi: 9 },
                AttributeDistribution::StrChoice {
                    values: vec!["F".into(), "M".into()],
                    dist: Categorical::new(&[0.5, 0.5]),
                },
                AttributeDistribution::BoolBernoulli { p: 0.1 },
            ],
        )
    }

    #[test]
    fn row_distribution_samples_valid_rows() {
        let d = tiny_dist();
        let mut rng = seeded_rng(5);
        let ds = d.sample_dataset(500, &mut rng);
        assert_eq!(ds.n_rows(), 500);
        for r in ds.rows() {
            let age = r.get(0).as_int().unwrap();
            assert!((0..=9).contains(&age));
            let sex = ds.resolve(r.get(1).as_str_symbol().unwrap()).to_owned();
            assert!(sex == "F" || sex == "M");
        }
    }

    #[test]
    fn row_point_probability_product() {
        let d = tiny_dist();
        let mut rng = seeded_rng(6);
        let ds = d.sample_dataset(1, &mut rng);
        let interner = ds.interner().clone();
        let resolve = move |s: crate::Symbol| interner.resolve(s).to_owned();
        let row = ds.row_values(0);
        let p = d.point_probability(&row, &resolve);
        // Each row has probability (1/10) * (1/2) * (0.1 or 0.9).
        assert!(p == 0.1 * 0.5 * 0.1 || p == 0.1 * 0.5 * 0.9, "p = {p}");
    }

    #[test]
    fn interval_probability_uniform() {
        let a = AttributeDistribution::IntUniform { lo: 0, hi: 99 };
        assert!((a.interval_probability(0, 9) - 0.1).abs() < 1e-12);
        assert_eq!(a.interval_probability(200, 300), 0.0);
        assert!((a.interval_probability(-50, 199) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn row_sampler_matches_distribution() {
        let d = tiny_dist();
        let sampler = d.sampler();
        let mut rng = seeded_rng(77);
        let rows = sampler.sample_rows(2_000, &mut rng);
        assert_eq!(rows.len(), 2_000);
        let mut trues = 0;
        for row in &rows {
            assert_eq!(row.len(), 3);
            let age = row[0].as_int().unwrap();
            assert!((0..=9).contains(&age));
            let sex = sampler.interner().resolve(row[1].as_str_symbol().unwrap());
            assert!(sex == "F" || sex == "M");
            if row[2].as_bool().unwrap() {
                trues += 1;
            }
        }
        let frac = f64::from(trues) / 2_000.0;
        assert!((0.07..=0.13).contains(&frac), "flag rate {frac}");
        // Point probability via the sampler's own interner.
        let p = sampler.point_probability(&rows[0]);
        assert!(p == 0.1 * 0.5 * 0.1 || p == 0.1 * 0.5 * 0.9, "p = {p}");
    }

    #[test]
    fn interval_probability_choice() {
        let a = AttributeDistribution::IntChoice {
            values: vec![10, 20, 30],
            dist: Categorical::new(&[1.0, 1.0, 2.0]),
        };
        assert!((a.interval_probability(15, 35) - 0.75).abs() < 1e-12);
    }
}
