//! PSO-game wrappers for the technologies analyzed in §2.3.
//!
//! * [`CountMechanism`] — the counting mechanism `M_#q` of Theorem 2.5;
//! * [`AdaptiveCountOracle`] — the *composition* of count mechanisms behind
//!   Theorems 2.7/2.8: it simulates the canonical adaptive prefix-descent
//!   interaction (each step is one count query; the composed output is the
//!   transcript) with optional per-query Laplace noise, which turns the same
//!   object into the ε-DP mechanism of Theorem 2.9;
//! * [`KAnonMechanism`] — release of a k-anonymized dataset (Mondrian or
//!   Datafly) as the equivalence-class boxes the adversary actually sees
//!   (Theorem 2.10).
//!
//! Deviation note (documented in DESIGN.md §4): Theorem 2.8 asserts a
//! *fixed* set of `ω(log n)` count queries; the oracle here fixes the
//! descent *strategy* instead and publishes the interaction transcript. The
//! information content is the same and every step is a count query, but the
//! queries are chosen adaptively.

use std::sync::Arc;

use rand::Rng;

use so_data::{Dataset, DatasetBuilder, Interner, Schema, Value};
use so_dp::sample_laplace;
use so_kanon::{
    datafly_anonymize, mondrian_anonymize, AttributeHierarchy, DataflyConfig, GenValue,
    MondrianConfig,
};

use crate::game::{BitModel, DataModel, PsoMechanism, TabularModel};
use crate::isolation::PsoPredicate;

/// Theorem 2.5's counting mechanism `M_#q(x) = Σ q(x_i)`.
pub struct CountMechanism<M: DataModel> {
    predicate: Arc<dyn PsoPredicate<M::Record>>,
}

impl<M: DataModel> CountMechanism<M> {
    /// Counts the given predicate.
    pub fn new(predicate: Arc<dyn PsoPredicate<M::Record>>) -> Self {
        CountMechanism { predicate }
    }
}

impl<M: DataModel> PsoMechanism<M> for CountMechanism<M> {
    type Output = usize;

    fn run<R: Rng + ?Sized>(&self, data: &[M::Record], _rng: &mut R) -> usize {
        data.iter().filter(|r| self.predicate.matches(r)).count()
    }

    fn name(&self) -> String {
        format!("count[{}]", self.predicate.describe())
    }
}

/// One step of the adaptive-count transcript: the prefix bit chosen and the
/// (possibly noisy) count observed for the extended prefix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranscriptStep {
    /// Bit appended to the prefix at this step.
    pub bit: bool,
    /// The answer of the count mechanism for the extended prefix.
    pub count: f64,
}

/// The composed count mechanism of Theorems 2.7/2.8 (exact) and the ε-DP
/// variant of Theorem 2.9 (noisy): simulates prefix descent over bit-string
/// records, one count query per level, and outputs the transcript.
///
/// Descent strategy at each level: query the count of `prefix ∥ 0`; infer
/// `count(prefix ∥ 1) = count(prefix) − count(prefix ∥ 0)` (so exactly one
/// fresh count query per level); go to the branch with the smaller
/// *nonzero* (rounded) count, preferring isolation.
pub struct AdaptiveCountOracle {
    /// Number of levels (count queries) — `ℓ` in Theorem 2.8.
    pub levels: usize,
    /// Per-query Laplace privacy loss; `None` answers exactly.
    pub epsilon_per_query: Option<f64>,
}

impl AdaptiveCountOracle {
    /// Exact oracle with `levels` queries.
    pub fn exact(levels: usize) -> Self {
        AdaptiveCountOracle {
            levels,
            epsilon_per_query: None,
        }
    }

    /// ε-DP oracle: each count answered with `Lap(1/ε_q)` noise. Total loss
    /// under basic composition: `levels · ε_q`.
    pub fn noisy(levels: usize, epsilon_per_query: f64) -> Self {
        assert!(epsilon_per_query > 0.0 && epsilon_per_query.is_finite());
        AdaptiveCountOracle {
            levels,
            epsilon_per_query: Some(epsilon_per_query),
        }
    }

    /// Total privacy loss of the composed release (∞ when exact).
    pub fn total_epsilon(&self) -> f64 {
        match self.epsilon_per_query {
            Some(e) => e * self.levels as f64,
            None => f64::INFINITY,
        }
    }
}

fn prefix_matches(record: &so_data::BitVec, prefix: &[bool]) -> bool {
    prefix.len() <= record.len() && prefix.iter().enumerate().all(|(i, &b)| record.get(i) == b)
}

impl PsoMechanism<BitModel> for AdaptiveCountOracle {
    type Output = Vec<TranscriptStep>;

    fn run<R: Rng + ?Sized>(&self, data: &[so_data::BitVec], rng: &mut R) -> Vec<TranscriptStep> {
        let width = data.first().map_or(0, |r| r.len());
        let mut prefix: Vec<bool> = Vec::with_capacity(self.levels);
        let mut transcript = Vec::with_capacity(self.levels);
        let mut parent_count = data.len() as f64;
        for _ in 0..self.levels.min(width) {
            prefix.push(false);
            let exact0 = data.iter().filter(|r| prefix_matches(r, &prefix)).count() as f64;
            let count0 = match self.epsilon_per_query {
                None => exact0,
                Some(eps) => exact0 + sample_laplace(1.0 / eps, rng),
            };
            let count1 = parent_count - count0;
            // Choose the branch with the smaller apparent nonzero count.
            let zeroish = |c: f64| c < 0.5;
            let take_zero = if zeroish(count0) {
                false
            } else if zeroish(count1) {
                true
            } else {
                count0 <= count1
            };
            let (bit, count) = if take_zero {
                (false, count0)
            } else {
                (true, count1)
            };
            *prefix.last_mut().expect("pushed") = bit;
            transcript.push(TranscriptStep { bit, count });
            parent_count = count;
        }
        transcript
    }

    fn name(&self) -> String {
        match self.epsilon_per_query {
            None => format!("composed-counts[levels={}]", self.levels),
            Some(e) => format!(
                "dp-composed-counts[levels={}, eps/q={e}, eps={}]",
                self.levels,
                self.total_epsilon()
            ),
        }
    }
}

/// The *non-adaptive* composed count mechanism for Theorem 2.8: a FIXED set
/// of `1 + bits` count queries chosen before seeing any data, exactly as the
/// theorem states ("there exist ℓ = ω(log n) count mechanisms ...").
///
/// Query 0 counts a keyed hash slice of designed weight `1/n`. Query
/// `1 + j` counts `slice(x) ∧ x[j] = 1`. When the slice captures exactly one
/// record — probability `≈ 1/e` by the §2.2 baseline — the per-bit counts
/// spell out that record's first `bits` bits verbatim, and the attacker can
/// write down a predicate of weight `(1/n)·2^{-bits}` matching it alone.
pub struct SliceFingerprintOracle {
    /// Slice modulus (designed slice weight `1/modulus`; pick `≈ n`).
    pub modulus: u64,
    /// Number of record bits counted inside the slice.
    pub bits: usize,
    /// Public seed fixing the slice hash key (part of the mechanism
    /// description, so the attacker knows the fixed queries).
    pub seed: u64,
}

impl SliceFingerprintOracle {
    /// Fixed oracle: weight-`1/modulus` slice, `bits` bit-counts.
    pub fn new(modulus: u64, bits: usize, seed: u64) -> Self {
        assert!(modulus > 0);
        SliceFingerprintOracle {
            modulus,
            bits,
            seed,
        }
    }

    /// Total number of composed count queries `ℓ`.
    pub fn queries(&self) -> usize {
        1 + self.bits
    }

    /// The fixed slice predicate.
    pub fn in_slice(&self, record: &so_data::BitVec) -> bool {
        so_data::rng::keyed_hash(self.seed, &record.to_le_bytes()) % self.modulus == 0
    }
}

impl PsoMechanism<BitModel> for SliceFingerprintOracle {
    type Output = Vec<usize>;

    fn run<R: Rng + ?Sized>(&self, data: &[so_data::BitVec], _rng: &mut R) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.queries());
        out.push(data.iter().filter(|r| self.in_slice(r)).count());
        for j in 0..self.bits {
            out.push(
                data.iter()
                    .filter(|r| self.in_slice(r) && r.len() > j && r.get(j))
                    .count(),
            );
        }
        out
    }

    fn name(&self) -> String {
        format!(
            "slice-fingerprint-counts[1/{} slice + {} bit counts]",
            self.modulus, self.bits
        )
    }
}

/// A released equivalence class as the adversary sees it: the generalized
/// QI box, the class size, and — because k-anonymity constrains *only* the
/// quasi-identifiers — the verbatim value multisets of every other column.
/// The paper's toy example makes exactly this point: the class predicate is
/// `ZIP ∈ {1234*} ∧ Age ∈ {30-39} ∧ Disease ∈ PULM`, where the last
/// conjunct comes from the released (non-generalized) sensitive column and
/// is what drives the class predicate's weight into negligible territory.
#[derive(Debug, Clone)]
pub struct ReleasedClass {
    /// Generalized values, one per QI column.
    pub qi_box: Vec<GenValue>,
    /// Class size `k' ≥ k`.
    pub size: usize,
    /// For each non-QI column: `(column index, distinct values released for
    /// this class)`.
    pub value_sets: Vec<(usize, Vec<Value>)>,
}

/// Which k-anonymizer the mechanism runs.
#[derive(Clone)]
pub enum Anonymizer {
    /// Mondrian multidimensional partitioning.
    Mondrian(MondrianConfig),
    /// Full-domain generalization with ladders.
    Datafly(DataflyConfig, Arc<Vec<AttributeHierarchy>>),
}

/// Theorem 2.10's mechanism: k-anonymize the sampled dataset and release
/// the equivalence-class boxes.
pub struct KAnonMechanism {
    schema: Arc<Schema>,
    interner: Arc<Interner>,
    qi_cols: Vec<usize>,
    anonymizer: Anonymizer,
    /// Optional ℓ-diversity post-processing: `(sensitive column, ℓ)`.
    enforce_l: Option<(usize, usize)>,
}

impl KAnonMechanism {
    /// Builds the mechanism for rows drawn by `model`.
    pub fn new(model: &TabularModel, qi_cols: Vec<usize>, anonymizer: Anonymizer) -> Self {
        KAnonMechanism {
            schema: model.sampler().distribution().schema().clone(),
            interner: model.sampler().interner().clone(),
            qi_cols,
            anonymizer,
            enforce_l: None,
        }
    }

    /// Additionally enforces distinct ℓ-diversity on `sensitive_col` by
    /// class merging (footnote 3 of the paper: the PSO analysis covers the
    /// ℓ-diversity variant too — this lets the games test that claim).
    pub fn with_l_diversity(mut self, sensitive_col: usize, l: usize) -> Self {
        self.enforce_l = Some((sensitive_col, l));
        self
    }

    /// QI columns the boxes refer to.
    pub fn qi_cols(&self) -> &[usize] {
        &self.qi_cols
    }

    fn build_dataset(&self, rows: &[Vec<Value>]) -> Dataset {
        let mut b = DatasetBuilder::from_parts(self.schema.clone(), (*self.interner).clone());
        for row in rows {
            b.push_row(row.clone());
        }
        b.finish()
    }
}

impl PsoMechanism<TabularModel> for KAnonMechanism {
    type Output = Vec<ReleasedClass>;

    fn run<R: Rng + ?Sized>(&self, data: &[Vec<Value>], _rng: &mut R) -> Vec<ReleasedClass> {
        let ds = self.build_dataset(data);
        let mut anon = match &self.anonymizer {
            Anonymizer::Mondrian(cfg) => mondrian_anonymize(&ds, &self.qi_cols, cfg),
            Anonymizer::Datafly(cfg, hierarchies) => {
                datafly_anonymize(&ds, &self.qi_cols, hierarchies, cfg)
            }
        };
        if let Some((col, l)) = self.enforce_l {
            anon = so_kanon::enforce_l_diversity(&anon, &ds, col, l);
        }
        let non_qi: Vec<usize> = (0..self.schema.len())
            .filter(|c| !self.qi_cols.contains(c))
            .collect();
        anon.classes()
            .iter()
            .map(|c| {
                let value_sets = non_qi
                    .iter()
                    .map(|&col| {
                        let mut vals: Vec<Value> = c.rows.iter().map(|&r| ds.get(r, col)).collect();
                        vals.sort();
                        vals.dedup();
                        (col, vals)
                    })
                    .collect();
                ReleasedClass {
                    qi_box: c.qi_box.clone(),
                    size: c.rows.len(),
                    value_sets,
                }
            })
            .collect()
    }

    fn name(&self) -> String {
        let base = match &self.anonymizer {
            Anonymizer::Mondrian(cfg) => format!("mondrian-k-anonymity[k={}]", cfg.k),
            Anonymizer::Datafly(cfg, _) => format!("datafly-k-anonymity[k={}]", cfg.k),
        };
        match self.enforce_l {
            Some((_, l)) => format!("{base}+{l}-diversity"),
            None => base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::BitModel;
    use crate::isolation::FnPsoPredicate;
    use so_data::dist::{AttributeDistribution, Categorical, RowDistribution};
    use so_data::rng::seeded_rng;
    use so_data::schema::{AttributeDef, AttributeRole, DataType};
    use so_data::BitVec;

    #[test]
    fn count_mechanism_counts_exactly() {
        let pred: Arc<dyn PsoPredicate<BitVec>> =
            Arc::new(FnPsoPredicate::new("bit0", Some(0.5), |r: &BitVec| {
                r.get(0)
            }));
        let mech: CountMechanism<BitModel> = CountMechanism::new(pred);
        let data = vec![
            BitVec::from_bools(&[true, false]),
            BitVec::from_bools(&[false, true]),
            BitVec::from_bools(&[true, true]),
        ];
        let out = mech.run(&data, &mut seeded_rng(150));
        assert_eq!(out, 2);
        assert!(mech.name().contains("count"));
    }

    #[test]
    fn exact_oracle_descends_to_a_single_record() {
        use so_data::dist::RecordDistribution;
        let model = BitModel::uniform(64);
        let mut rng = seeded_rng(151);
        let data = match &model {
            BitModel::Uniform(d) => d.sample_n(50, &mut rng),
            _ => unreachable!(),
        };
        let oracle = AdaptiveCountOracle::exact(30);
        let transcript = oracle.run(&data, &mut rng);
        assert_eq!(transcript.len(), 30);
        // Reconstruct the prefix; its exact count must be 1 at the end.
        let prefix: Vec<bool> = transcript.iter().map(|s| s.bit).collect();
        let matches = data.iter().filter(|r| prefix_matches(r, &prefix)).count();
        assert_eq!(matches, 1, "descent should isolate one record");
        // Counts along the way are non-increasing and end at 1.
        assert_eq!(transcript.last().unwrap().count, 1.0);
    }

    #[test]
    fn noisy_oracle_has_laplace_counts() {
        use so_data::dist::RecordDistribution;
        let model = BitModel::uniform(32);
        let mut rng = seeded_rng(152);
        let data = match &model {
            BitModel::Uniform(d) => d.sample_n(40, &mut rng),
            _ => unreachable!(),
        };
        let oracle = AdaptiveCountOracle::noisy(10, 0.1);
        let transcript = oracle.run(&data, &mut rng);
        assert_eq!(transcript.len(), 10);
        // Noisy counts are almost surely non-integers.
        assert!(transcript.iter().any(|s| s.count.fract().abs() > 1e-9));
        assert!((oracle.total_epsilon() - 1.0).abs() < 1e-12);
    }

    fn tabular_model() -> TabularModel {
        let schema = Schema::new(vec![
            AttributeDef::new("zip", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("disease", DataType::Str, AttributeRole::Sensitive),
        ]);
        let dist = RowDistribution::new(
            schema,
            vec![
                AttributeDistribution::IntUniform {
                    lo: 10_000,
                    hi: 10_999,
                },
                AttributeDistribution::IntUniform { lo: 0, hi: 99 },
                AttributeDistribution::StrChoice {
                    values: vec!["COVID".into(), "CF".into()],
                    dist: Categorical::new(&[3.0, 1.0]),
                },
            ],
        );
        TabularModel::new(dist.sampler())
    }

    #[test]
    fn kanon_mechanism_releases_k_sized_classes() {
        let model = tabular_model();
        let mech = KAnonMechanism::new(
            &model,
            vec![0, 1],
            Anonymizer::Mondrian(MondrianConfig { k: 5 }),
        );
        let mut rng = seeded_rng(153);
        let data = model.sample_dataset(200, &mut rng);
        let classes = mech.run(&data, &mut rng);
        assert!(!classes.is_empty());
        let total: usize = classes.iter().map(|c| c.size).sum();
        assert_eq!(total, 200);
        for c in &classes {
            assert!(c.size >= 5, "undersized class {}", c.size);
            assert_eq!(c.qi_box.len(), 2);
        }
    }

    #[test]
    fn kanon_mechanism_boxes_cover_their_members() {
        // The released boxes must cover fresh samples that fall inside
        // (smoke: box covers the members used to build it — verified through
        // so-kanon's own invariant; here check GenValue::covers integration).
        let model = tabular_model();
        let mech = KAnonMechanism::new(
            &model,
            vec![0, 1],
            Anonymizer::Mondrian(MondrianConfig { k: 3 }),
        );
        let mut rng = seeded_rng(154);
        let data = model.sample_dataset(60, &mut rng);
        let classes = mech.run(&data, &mut rng);
        // Every record is covered by exactly one released box (partitions
        // are disjoint in QI space for Mondrian's tight boxes... sibling
        // boxes may share boundary values only on non-split dims, so assert
        // "at least one").
        for row in &data {
            let covered = classes
                .iter()
                .filter(|c| c.qi_box[0].covers(&row[0], None) && c.qi_box[1].covers(&row[1], None))
                .count();
            assert!(covered >= 1, "record not covered by any released box");
        }
    }
}
