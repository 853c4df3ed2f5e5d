//! The attackers behind Theorems 2.5–2.10 and the k-anonymity composition
//! analysis.

use rand::Rng;

use so_data::dist::RowDistribution;
use so_data::rng::keyed_hash;
use so_data::{BitVec, Value};
use so_kanon::{AnonymizedDataset, GenValue};
use so_query::canonical_bytes;

use crate::game::{BitModel, PsoAttacker, TabularModel};
use crate::isolation::{FnPsoPredicate, PsoPredicate};
use crate::mechanisms::{ReleasedClass, TranscriptStep};
use crate::weight::box_weight;

// ---------------------------------------------------------------------------
// Theorem 2.8: composition of count mechanisms
// ---------------------------------------------------------------------------

/// Post-processor of the [`crate::mechanisms::AdaptiveCountOracle`]
/// transcript: rebuilds the descent prefix and outputs it as the isolating
/// predicate. With `ℓ = ω(log n)` exact count answers the prefix pins a
/// single record at weight `2^-ℓ` — the attack proving Theorem 2.8.
pub struct PrefixDescentAttacker;

impl PsoAttacker<BitModel, Vec<TranscriptStep>> for PrefixDescentAttacker {
    fn attack<R: Rng + ?Sized>(
        &self,
        output: &Vec<TranscriptStep>,
        _rng: &mut R,
    ) -> Box<dyn PsoPredicate<BitVec>> {
        let prefix: Vec<bool> = output.iter().map(|s| s.bit).collect();
        let weight = 0.5f64.powi(prefix.len() as i32);
        let label = format!(
            "prefix == {}",
            prefix
                .iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect::<String>()
        );
        FnPsoPredicate::boxed(&label, Some(weight), move |r: &BitVec| {
            prefix.len() <= r.len() && prefix.iter().enumerate().all(|(i, &b)| r.get(i) == b)
        })
    }

    fn name(&self) -> String {
        "prefix-descent".into()
    }
}

/// The non-adaptive counterpart of [`PrefixDescentAttacker`]: post-processes
/// the published counts of the FIXED queries of
/// [`crate::mechanisms::SliceFingerprintOracle`]. When the slice count is
/// exactly 1, the per-bit counts ARE the captured record's bits; the output
/// predicate is `in_slice ∧ (bits 0..λ match)` — weight `(1/n)·2^{-λ}`,
/// isolation certain. Otherwise the attacker abstains. Overall success is
/// the constant `≈ 1/e` slice-singleton probability, which breaks PSO
/// security with a genuinely fixed query set, as Theorem 2.8 states.
pub struct SliceFingerprintAttacker {
    /// Slice modulus (must match the mechanism's).
    pub modulus: u64,
    /// Number of fingerprint bits (must match the mechanism's).
    pub bits: usize,
    /// The public seed identifying the fixed queries.
    pub seed: u64,
}

impl PsoAttacker<BitModel, Vec<usize>> for SliceFingerprintAttacker {
    fn attack<R: Rng + ?Sized>(
        &self,
        output: &Vec<usize>,
        _rng: &mut R,
    ) -> Box<dyn PsoPredicate<BitVec>> {
        if output.first() != Some(&1) {
            // Slice captured 0 or ≥2 records: abstain.
            return FnPsoPredicate::boxed("abstain", Some(0.0), |_: &BitVec| false);
        }
        let oracle =
            crate::mechanisms::SliceFingerprintOracle::new(self.modulus, self.bits, self.seed);
        // With a unique slice member, count of (slice ∧ bit_j) is the bit.
        let fingerprint: Vec<bool> = output[1..].iter().map(|&c| c == 1).collect();
        let weight = (1.0 / self.modulus as f64) * 0.5f64.powi(self.bits as i32);
        let label = format!(
            "slice(1/{}) AND bits == {}",
            self.modulus,
            fingerprint
                .iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect::<String>()
        );
        FnPsoPredicate::boxed(&label, Some(weight), move |r: &BitVec| {
            oracle.in_slice(r)
                && fingerprint
                    .iter()
                    .enumerate()
                    .all(|(j, &b)| r.len() > j && r.get(j) == b)
        })
    }

    fn name(&self) -> String {
        "slice-fingerprint-postprocess".into()
    }
}

// ---------------------------------------------------------------------------
// Theorem 2.5: attackers against a single count output
// ---------------------------------------------------------------------------

/// The strongest generic thing an attacker can do with one count: condition
/// a random negligible-weight hash slice on it. Theorem 2.5 says nothing it
/// does can push PSO success above the negligible baseline; this attacker
/// exists so experiment E5 can *measure* that.
pub struct CountPostprocessAttacker {
    /// Hash-slice weight denominator (choose ≫ n² for negligible weight).
    pub modulus: u64,
}

impl PsoAttacker<BitModel, usize> for CountPostprocessAttacker {
    fn attack<R: Rng + ?Sized>(
        &self,
        output: &usize,
        rng: &mut R,
    ) -> Box<dyn PsoPredicate<BitVec>> {
        // Mix the observed count into the hash key — uses every bit of
        // information the mechanism leaked.
        let key = rng.gen::<u64>() ^ keyed_hash(0xC0_DE, &(*output as u64).to_le_bytes());
        let modulus = self.modulus;
        let weight = 1.0 / modulus as f64;
        FnPsoPredicate::boxed(
            &format!("H_count mod {modulus} == 0"),
            Some(weight),
            move |r: &BitVec| keyed_hash(key, &r.to_le_bytes()) % modulus == 0,
        )
    }

    fn name(&self) -> String {
        "count-postprocess".into()
    }
}

// ---------------------------------------------------------------------------
// Theorem 2.10: the equivalence-class attack on k-anonymity
// ---------------------------------------------------------------------------

/// The full equivalence-class predicate the paper's toy example describes:
/// "record lies in the generalized QI box AND every non-generalized column
/// takes one of the values released for this class"
/// (`ZIP ∈ 1234* ∧ Age ∈ 30-39 ∧ Disease ∈ PULM`).
pub struct ClassPredicate {
    /// QI column indices the box constrains.
    pub qi_cols: Vec<usize>,
    /// One generalized cell per QI column.
    pub qi_box: Vec<GenValue>,
    /// `(column, released values)` conjuncts for the non-QI columns.
    pub value_sets: Vec<(usize, Vec<Value>)>,
    /// Exact weight under the game's row distribution, if computed.
    pub weight: Option<f64>,
}

impl PsoPredicate<Vec<Value>> for ClassPredicate {
    fn matches(&self, record: &Vec<Value>) -> bool {
        self.qi_cols
            .iter()
            .zip(&self.qi_box)
            .all(|(&col, g)| g.covers(&record[col], None))
            && self
                .value_sets
                .iter()
                .all(|(col, set)| set.binary_search(&record[*col]).is_ok())
    }

    fn weight_hint(&self) -> Option<f64> {
        self.weight
    }

    fn describe(&self) -> String {
        let mut cells: Vec<String> = self
            .qi_cols
            .iter()
            .zip(&self.qi_box)
            .map(|(c, g)| format!("col{c} in {}", g.display(None)))
            .collect();
        for (c, set) in &self.value_sets {
            cells.push(format!("col{c} in released set ({} values)", set.len()));
        }
        cells.join(" AND ")
    }
}

/// Shared helper: the exact weight of a released class's full predicate
/// under the product distribution (QI box factors × non-QI value-set
/// factors).
fn full_class_weight(
    dist: &RowDistribution,
    qi_cols: &[usize],
    class: &ReleasedClass,
    resolve: &dyn Fn(so_data::Symbol) -> String,
) -> f64 {
    let taxonomies: Vec<Option<&so_kanon::Taxonomy>> = vec![None; qi_cols.len()];
    let qi_w = box_weight(dist, qi_cols, &class.qi_box, &taxonomies, resolve);
    let set_w: f64 = class
        .value_sets
        .iter()
        .map(|(col, set)| crate::weight::value_set_weight(&dist.attrs()[*col], set, resolve))
        .product();
    qi_w * set_w
}

/// The Theorem 2.10 attacker: pick the released equivalence class whose full
/// predicate has the smallest (exact) weight, and output `p ∧ p'` where `p`
/// is the class predicate and `p'` a fresh hash slice of weight `1/k'` —
/// isolating one of the `k'` class members with probability
/// `k'·(1/k')·(1−1/k')^{k'−1} ≈ 1/e ≈ 37%`, with overall predicate weight
/// `w(p)/k'`, negligible whenever the class-predicate weight is.
pub struct KAnonClassAttacker {
    /// The attacker's knowledge of `D` (§2.2 grants the k-anonymity
    /// analysis a known underlying distribution): used to choose the
    /// narrowest class and to report exact weight hints.
    pub dist: RowDistribution,
    /// QI columns of the release.
    pub qi_cols: Vec<usize>,
    /// Interner resolving string symbols in released value sets.
    pub interner: std::sync::Arc<so_data::Interner>,
}

impl KAnonClassAttacker {
    fn resolve_fn(&self) -> impl Fn(so_data::Symbol) -> String + '_ {
        move |s| self.interner.resolve(s).to_owned()
    }
}

impl PsoAttacker<TabularModel, Vec<ReleasedClass>> for KAnonClassAttacker {
    fn attack<R: Rng + ?Sized>(
        &self,
        output: &Vec<ReleasedClass>,
        rng: &mut R,
    ) -> Box<dyn PsoPredicate<Vec<Value>>> {
        let resolve = self.resolve_fn();
        // Choose the narrowest released class predicate.
        let Some((class, w)) = output
            .iter()
            .map(|c| (c, full_class_weight(&self.dist, &self.qi_cols, c, &resolve)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
        else {
            // Empty release: emit an unsatisfiable predicate.
            return FnPsoPredicate::boxed("false", Some(0.0), |_: &Vec<Value>| false);
        };
        let mut value_sets = class.value_sets.clone();
        for (_, set) in &mut value_sets {
            set.sort();
        }
        let class_pred = ClassPredicate {
            qi_cols: self.qi_cols.clone(),
            qi_box: class.qi_box.clone(),
            value_sets,
            weight: Some(w),
        };
        let k_prime = class.size.max(1) as u64;
        let key = rng.gen::<u64>();
        let combined_weight = w / k_prime as f64;
        let label = format!("({}) AND H mod {k_prime} == 0", class_pred.describe());
        FnPsoPredicate::boxed(&label, Some(combined_weight), move |r: &Vec<Value>| {
            class_pred.matches(r) && keyed_hash(key, &canonical_bytes(r)) % k_prime == 0
        })
    }

    fn name(&self) -> String {
        "kanon-equivalence-class".into()
    }
}

// ---------------------------------------------------------------------------
// Cohen [12]-style strengthening: boundary refinement ("downcoding" lite)
// ---------------------------------------------------------------------------

/// A strengthened attacker against generalization-based k-anonymity,
/// exploiting that greedy anonymizers emit *tight* boxes: the box's lower
/// endpoint on a numeric QI is attained by at least one member, and over
/// wide domains by exactly one with probability → 1. The predicate
/// `box ∧ (attr = lo)` then isolates far more often than 37%.
///
/// This is a simplified form of Cohen's downcoding attack (which reaches
/// ≈ 100% on hierarchical recodings); DESIGN.md §4 documents the gap.
pub struct BoundaryAttacker {
    /// Row distribution (for weight hints and for picking the best class).
    pub dist: RowDistribution,
    /// QI columns of the release.
    pub qi_cols: Vec<usize>,
    /// Interner resolving string symbols in released value sets.
    pub interner: std::sync::Arc<so_data::Interner>,
}

impl PsoAttacker<TabularModel, Vec<ReleasedClass>> for BoundaryAttacker {
    fn attack<R: Rng + ?Sized>(
        &self,
        output: &Vec<ReleasedClass>,
        _rng: &mut R,
    ) -> Box<dyn PsoPredicate<Vec<Value>>> {
        // Score each (class, numeric attribute) pair: prefer wide boxes
        // relative to class size — the regime where the minimum is unique
        // w.h.p.
        let mut best: Option<(usize, usize, i64, f64)> = None; // (class idx, qi idx, lo, score)
        for (ci, class) in output.iter().enumerate() {
            for (qi, g) in class.qi_box.iter().enumerate() {
                if let GenValue::IntRange { lo, hi } = g {
                    let span = (hi - lo + 1) as f64;
                    let score = span / class.size.max(1) as f64;
                    if best.map_or(true, |(_, _, _, s)| score > s) {
                        best = Some((ci, qi, *lo, score));
                    }
                }
            }
        }
        let Some((ci, qi, lo, _)) = best else {
            // No refinable box (all cells exact/suppressed): abstain.
            return FnPsoPredicate::boxed("false", Some(0.0), |_: &Vec<Value>| false);
        };
        let class = &output[ci];
        // Pin the chosen attribute to the box's lower endpoint; keep the
        // other conjuncts (box + released value sets) as in the class
        // predicate.
        let mut pinned_box = class.qi_box.clone();
        pinned_box[qi] = GenValue::Exact(Value::Int(lo));
        let pinned_class = ReleasedClass {
            qi_box: pinned_box,
            size: class.size,
            value_sets: class.value_sets.clone(),
        };
        let resolve = |s: so_data::Symbol| self.interner.resolve(s).to_owned();
        let w = full_class_weight(&self.dist, &self.qi_cols, &pinned_class, &resolve);
        let mut value_sets = pinned_class.value_sets.clone();
        for (_, set) in &mut value_sets {
            set.sort();
        }
        let pred = ClassPredicate {
            qi_cols: self.qi_cols.clone(),
            qi_box: pinned_class.qi_box,
            value_sets,
            weight: Some(w),
        };
        let label = format!("boundary: col{} == {lo} within class", self.qi_cols[qi]);
        FnPsoPredicate::boxed(&label, Some(w), move |r: &Vec<Value>| pred.matches(r))
    }

    fn name(&self) -> String {
        "boundary-downcoding".into()
    }
}

// ---------------------------------------------------------------------------
// §1.1 / E15: k-anonymity does not compose (intersection analysis)
// ---------------------------------------------------------------------------

/// Result of intersecting two k-anonymized releases of the same data.
#[derive(Debug, Clone, Copy)]
pub struct IntersectionExposure {
    /// Records whose joint (release-1 class ∩ release-2 class) is a
    /// singleton — uniquely identified by combining the releases.
    pub singled_out: usize,
    /// Smallest joint class size observed.
    pub min_joint_class: usize,
    /// Total records.
    pub n: usize,
}

impl IntersectionExposure {
    /// Fraction of records singled out by the intersection.
    pub fn singled_out_fraction(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.singled_out as f64 / self.n as f64
        }
    }
}

/// Intersects the class partitions of two releases of the *same* underlying
/// dataset (Ganta–Kasiviswanathan–Smith composition attacks, cited by the
/// paper as \[23\]; also \[12\]). Each release is k-anonymous on its own; the
/// joint classes `C₁ ∩ C₂` are what an adversary holding both releases
/// effectively sees.
pub fn intersection_exposure(
    anon1: &AnonymizedDataset,
    anon2: &AnonymizedDataset,
) -> IntersectionExposure {
    let n = anon1.n_original_rows();
    assert_eq!(n, anon2.n_original_rows(), "releases of different datasets");
    // Map each row to its class id in each release.
    let class_of = |anon: &AnonymizedDataset| -> Vec<Option<usize>> {
        let mut m = vec![None; n];
        for (ci, class) in anon.classes().iter().enumerate() {
            for &r in &class.rows {
                m[r] = Some(ci);
            }
        }
        m
    };
    let c1 = class_of(anon1);
    let c2 = class_of(anon2);
    let mut joint: std::collections::HashMap<(usize, usize), usize> =
        std::collections::HashMap::new();
    for r in 0..n {
        if let (Some(a), Some(b)) = (c1[r], c2[r]) {
            *joint.entry((a, b)).or_insert(0) += 1;
        }
    }
    let mut singled_out = 0usize;
    let mut min_joint = usize::MAX;
    for r in 0..n {
        if let (Some(a), Some(b)) = (c1[r], c2[r]) {
            let size = joint[&(a, b)];
            min_joint = min_joint.min(size);
            if size == 1 {
                singled_out += 1;
            }
        }
    }
    IntersectionExposure {
        singled_out,
        min_joint_class: if min_joint == usize::MAX {
            0
        } else {
            min_joint
        },
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{run_pso_game, DataModel, GameConfig};
    use crate::mechanisms::{AdaptiveCountOracle, Anonymizer, CountMechanism, KAnonMechanism};
    use crate::negligible::NegligibilityPolicy;
    use so_data::dist::{AttributeDistribution, Categorical};
    use so_data::rng::seeded_rng;
    use so_data::schema::{AttributeDef, AttributeRole, DataType};
    use so_data::Schema;
    use so_kanon::{mondrian_anonymize, MondrianConfig};
    use std::sync::Arc;

    /// A "typical dataset with many attributes" (the paper's words): two
    /// generalized quasi-identifiers plus several high-cardinality columns
    /// that k-anonymizers leave untouched. The untouched columns drive the
    /// class-predicate weight into negligible territory — the crux of
    /// Theorem 2.10's "hence it is typically the case that the predicates
    /// ... would have negligible weights".
    fn wide_tabular_model() -> TabularModel {
        let diseases: Vec<String> = (0..120).map(|i| format!("disease_{i}")).collect();
        let occupations: Vec<String> = (0..150).map(|i| format!("occupation_{i}")).collect();
        let schema = Schema::new(vec![
            AttributeDef::new("zip", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("disease", DataType::Str, AttributeRole::Sensitive),
            AttributeDef::new("occupation", DataType::Str, AttributeRole::Insensitive),
            AttributeDef::new("income_band", DataType::Int, AttributeRole::Insensitive),
        ]);
        let dist = RowDistribution::new(
            schema,
            vec![
                AttributeDistribution::IntUniform { lo: 0, hi: 99_999 },
                AttributeDistribution::IntUniform { lo: 0, hi: 36_499 },
                AttributeDistribution::StrChoice {
                    values: diseases,
                    dist: Categorical::uniform(120),
                },
                AttributeDistribution::StrChoice {
                    values: occupations,
                    dist: Categorical::uniform(150),
                },
                AttributeDistribution::IntChoice {
                    values: (0..80).collect(),
                    dist: Categorical::uniform(80),
                },
            ],
        );
        TabularModel::new(dist.sampler())
    }

    #[test]
    fn composition_attack_wins_with_enough_levels() {
        // Theorem 2.8: ℓ = ω(log n) exact counts ⇒ PSO success ≈ 1.
        let n = 100;
        let model = BitModel::uniform(64);
        let policy = NegligibilityPolicy::default();
        let levels = policy.required_prefix_bits(n) + 4;
        let cfg = GameConfig {
            policy,
            ..GameConfig::new(n, 150)
        };
        let res = run_pso_game(
            &model,
            &AdaptiveCountOracle::exact(levels),
            &PrefixDescentAttacker,
            &cfg,
            &mut seeded_rng(160),
        );
        assert!(
            res.success_rate() > 0.95,
            "success {} with {levels} levels",
            res.success_rate()
        );
        assert!(res.breaks_pso_security(crate::stats::Z999, 0.1));
    }

    #[test]
    fn composition_attack_fails_with_few_levels() {
        // With ℓ far below 2·log2(n) the prefix weight is not negligible, so
        // the weight gate rejects every isolation.
        let n = 256;
        let model = BitModel::uniform(64);
        let cfg = GameConfig::new(n, 60);
        let res = run_pso_game(
            &model,
            &AdaptiveCountOracle::exact(6),
            &PrefixDescentAttacker,
            &cfg,
            &mut seeded_rng(161),
        );
        assert_eq!(
            res.pso_successes, 0,
            "weight 2^-6 is not negligible at n=256"
        );
    }

    #[test]
    fn non_adaptive_composition_attack_succeeds_near_one_over_e() {
        // Theorem 2.8 with a genuinely FIXED query set: the slice +
        // fingerprint oracle. Success = P(slice singleton) ≈ 1/e.
        let n = 100usize;
        let model = BitModel::uniform(64);
        let policy = NegligibilityPolicy::default();
        // Weight (1/n)·2^-bits must clear n^-2: bits ≥ log2(n) + margin.
        let bits = 12usize;
        let cfg = GameConfig {
            policy,
            ..GameConfig::new(n, 400)
        };
        let res = run_pso_game(
            &model,
            &crate::mechanisms::SliceFingerprintOracle::new(n as u64, bits, 0xF1CED),
            &SliceFingerprintAttacker {
                modulus: n as u64,
                bits,
                seed: 0xF1CED,
            },
            &cfg,
            &mut seeded_rng(168),
        );
        let rate = res.success_rate();
        assert!(
            (0.25..=0.5).contains(&rate),
            "fixed-query composition attack should win ≈ 1/e, got {rate}"
        );
        assert!(res.breaks_pso_security(crate::stats::Z999, 0.05));
    }

    #[test]
    fn dp_noise_defeats_the_composition_attack() {
        // Theorem 2.9 in action: the same attack against the ε-DP oracle.
        let n = 100;
        let model = BitModel::uniform(64);
        let policy = NegligibilityPolicy::default();
        let levels = policy.required_prefix_bits(n) + 4;
        let cfg = GameConfig {
            policy,
            ..GameConfig::new(n, 150)
        };
        let res = run_pso_game(
            &model,
            &AdaptiveCountOracle::noisy(levels, 0.05),
            &PrefixDescentAttacker,
            &cfg,
            &mut seeded_rng(162),
        );
        assert!(
            res.success_rate() < 0.05,
            "DP should crush the attack, got {}",
            res.success_rate()
        );
    }

    #[test]
    fn count_mechanism_attacker_stays_at_baseline() {
        // Theorem 2.5: a single exact count gives the attacker nothing.
        let n = 100;
        let model = BitModel::uniform(64);
        let pred: Arc<dyn PsoPredicate<BitVec>> = Arc::new(crate::isolation::FnPsoPredicate::new(
            "bit0",
            Some(0.5),
            |r: &BitVec| r.get(0),
        ));
        let cfg = GameConfig::new(n, 2_000);
        let res = run_pso_game(
            &model,
            &CountMechanism::<BitModel>::new(pred),
            &CountPostprocessAttacker {
                modulus: (n * n * 100) as u64,
            },
            &cfg,
            &mut seeded_rng(163),
        );
        // Negligible-weight predicate ⇒ success within noise of the
        // (negligible) baseline.
        assert!(res.success_rate() < 0.01, "success {}", res.success_rate());
        assert!(!res.breaks_pso_security(crate::stats::Z999, 0.01));
    }

    #[test]
    fn kanon_class_attack_succeeds_around_37_percent() {
        // Theorem 2.10.
        let model = wide_tabular_model();
        let mech = KAnonMechanism::new(
            &model,
            vec![0, 1],
            Anonymizer::Mondrian(MondrianConfig { k: 5 }),
        );
        let attacker = KAnonClassAttacker {
            dist: model.sampler().distribution().clone(),
            qi_cols: vec![0, 1],
            interner: model.sampler().interner().clone(),
        };
        let cfg = GameConfig::new(200, 400);
        let res = run_pso_game(&model, &mech, &attacker, &cfg, &mut seeded_rng(164));
        let rate = res.success_rate();
        assert!(
            (0.25..=0.50).contains(&rate),
            "k-anonymity PSO success {rate}, expected ≈ 0.37"
        );
        assert!(res.breaks_pso_security(crate::stats::Z999, 0.05));
    }

    #[test]
    fn boundary_attack_beats_the_class_attack() {
        let model = wide_tabular_model();
        let mech = KAnonMechanism::new(
            &model,
            vec![0, 1],
            Anonymizer::Mondrian(MondrianConfig { k: 5 }),
        );
        let cfg = GameConfig::new(200, 300);
        let class_res = run_pso_game(
            &model,
            &mech,
            &KAnonClassAttacker {
                dist: model.sampler().distribution().clone(),
                qi_cols: vec![0, 1],
                interner: model.sampler().interner().clone(),
            },
            &cfg,
            &mut seeded_rng(165),
        );
        let boundary_res = run_pso_game(
            &model,
            &mech,
            &BoundaryAttacker {
                dist: model.sampler().distribution().clone(),
                qi_cols: vec![0, 1],
                interner: model.sampler().interner().clone(),
            },
            &cfg,
            &mut seeded_rng(166),
        );
        assert!(
            boundary_res.success_rate() > class_res.success_rate() + 0.15,
            "boundary {} vs class {}",
            boundary_res.success_rate(),
            class_res.success_rate()
        );
        assert!(
            boundary_res.success_rate() > 0.6,
            "boundary attack rate {}",
            boundary_res.success_rate()
        );
    }

    #[test]
    fn intersection_of_two_releases_singles_out() {
        // The same data k-anonymized twice by *different* anonymizers
        // (Mondrian partitioning vs Datafly full-domain generalization)
        // partitions differently; the intersection of the two partitions
        // shatters classes below k — the paper's "k-anonymity is not closed
        // under composition" ([12], [23]).
        let model = wide_tabular_model();
        let mut rng = seeded_rng(167);
        let rows = model.sample_dataset(300, &mut rng);
        let ds = {
            // Rebuild the dataset the same way the mechanism does.
            let mut b = so_data::DatasetBuilder::from_parts(
                model.sampler().distribution().schema().clone(),
                (**model.sampler().interner()).clone(),
            );
            for r in &rows {
                b.push_row(r.clone());
            }
            b.finish()
        };
        let anon1 = mondrian_anonymize(&ds, &[0, 1], &MondrianConfig { k: 5 });
        let hierarchies = vec![
            so_kanon::AttributeHierarchy::ZipPrefix { digits: 5 },
            so_kanon::AttributeHierarchy::Numeric {
                anchor: 0,
                widths: vec![365, 1_825, 3_650, 18_250],
            },
        ];
        let anon2 = so_kanon::datafly_anonymize(
            &ds,
            &[0, 1],
            &hierarchies,
            &so_kanon::DataflyConfig {
                k: 5,
                max_suppression_fraction: 0.05,
            },
        );
        assert!(so_kanon::is_k_anonymous(&anon1, 5));
        assert!(so_kanon::is_k_anonymous(&anon2, 5));
        let exposure = intersection_exposure(&anon1, &anon2);
        assert_eq!(exposure.n, 300);
        // Each release alone guarantees crowds of ≥ 5; jointly, classes
        // shrink below k.
        assert!(
            exposure.min_joint_class < 5,
            "joint classes should shrink below k (min = {})",
            exposure.min_joint_class
        );
    }
}
