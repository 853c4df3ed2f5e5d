//! Post-processing a k-anonymous release into an ℓ-diverse one.
//!
//! Footnote 3 of the paper: "The analysis of k-anonymity throughout also
//! holds for variants of k-anonymity such as ℓ-diversity and t-closeness."
//! To test that claim empirically (experiment E8), we need releases that
//! actually *are* ℓ-diverse. This pass greedily merges equivalence classes
//! whose sensitive column lacks diversity into their nearest neighbour
//! (by box-hull growth), widening boxes to the hull of the merged pair,
//! until every class carries at least `l` distinct sensitive values.

use so_data::{BitVec, Dataset, Value};

use crate::generalized::{AnonymizedDataset, EquivalenceClass, GenValue};

/// Hull of two generalized cells: the tightest cell covering both.
fn hull(a: &GenValue, b: &GenValue) -> GenValue {
    fn range_of(g: &GenValue) -> Option<(i64, i64)> {
        match g {
            GenValue::IntRange { lo, hi } => Some((*lo, *hi)),
            GenValue::Exact(Value::Int(v)) => Some((*v, *v)),
            GenValue::Exact(Value::Date(d)) => {
                let dn = i64::from(d.day_number());
                Some((dn, dn))
            }
            _ => None,
        }
    }
    if a == b {
        return a.clone();
    }
    match (range_of(a), range_of(b)) {
        (Some((alo, ahi)), Some((blo, bhi))) => GenValue::IntRange {
            lo: alo.min(blo),
            hi: ahi.max(bhi),
        },
        // Incomparable cells (different exact strings, taxonomy nodes from
        // different subtrees, ...) merge to full suppression — conservative
        // and always sound.
        _ => GenValue::Suppressed,
    }
}

fn distinct_sensitive(class: &EquivalenceClass, source: &Dataset, col: usize) -> usize {
    let mut vals: Vec<Value> = class.rows.iter().map(|&r| source.get(r, col)).collect();
    vals.sort();
    vals.dedup();
    vals.len()
}

/// Width proxy of a box (sum of log-spans), used to pick the merge partner
/// that grows the hull least.
fn merge_cost(a: &[GenValue], b: &[GenValue]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| match hull(x, y) {
            GenValue::Suppressed => 60.0, // ~ log2 of a huge domain
            GenValue::IntRange { lo, hi } => (((hi - lo + 1) as f64).max(1.0)).log2(),
            _ => 0.0,
        })
        .sum()
}

fn assert_attainable(
    classes: &[EquivalenceClass],
    source: &Dataset,
    sensitive_col: usize,
    l: usize,
) {
    let mut all: Vec<Value> = classes
        .iter()
        .flat_map(|c| c.rows.iter().map(|&r| source.get(r, sensitive_col)))
        .collect();
    all.sort();
    all.dedup();
    assert!(
        all.len() >= l,
        "only {} distinct sensitive values released; ℓ = {l} unattainable",
        all.len()
    );
}

/// Greedily merges classes until every class has at least `l` distinct
/// values of `sensitive_col`. Returns the new release.
///
/// Deficient classes are tracked in a [`BitVec`] over class slots:
/// a class's diversity only changes when it absorbs another, so after each
/// merge only the merged class is re-checked (plus a bit move mirroring the
/// `swap_remove`) instead of re-scanning every class's rows. The next class
/// to fix is found with a word-skipping [`BitVec::next_set_bit`],
/// which visits classes in the same ascending order as the full rescan in
/// [`enforce_l_diversity_scalar`] — the two produce identical releases.
///
/// # Panics
/// Panics if the total number of distinct sensitive values in the released
/// rows is below `l` (no release can then be ℓ-diverse).
pub fn enforce_l_diversity(
    anon: &AnonymizedDataset,
    source: &Dataset,
    sensitive_col: usize,
    l: usize,
) -> AnonymizedDataset {
    let mut classes: Vec<EquivalenceClass> = anon.classes().to_vec();
    assert_attainable(&classes, source, sensitive_col, l);
    // Bit i set ⇔ classes[i] currently lacks diversity. The vector keeps its
    // original length; bits at or beyond classes.len() are always clear.
    let mut deficient = BitVec::from_fn(classes.len(), |i| {
        distinct_sensitive(&classes[i], source, sensitive_col) < l
    });
    while let Some(bad_idx) = deficient.next_set_bit(0) {
        if classes.len() == 1 {
            break; // single class with < l distinct — cannot happen (asserted)
        }
        // Cheapest merge partner.
        let (partner, _) = classes
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != bad_idx)
            .map(|(i, c)| (i, merge_cost(&classes[bad_idx].qi_box, &c.qi_box)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least two classes");
        let removed = bad_idx.max(partner);
        let last = classes.len() - 1;
        let absorbed = classes.swap_remove(removed);
        // Mirror the swap_remove in the bitmap: the class formerly in the
        // last slot now lives in `removed`'s slot.
        if removed != last {
            deficient.set(removed, deficient.get(last));
        }
        deficient.set(last, false);
        let keeper_idx = bad_idx.min(partner);
        let keeper = &mut classes[keeper_idx];
        keeper.qi_box = keeper
            .qi_box
            .iter()
            .zip(&absorbed.qi_box)
            .map(|(a, b)| hull(a, b))
            .collect();
        keeper.rows.extend(absorbed.rows);
        // Only the merged class's diversity changed.
        deficient.set(
            keeper_idx,
            distinct_sensitive(&classes[keeper_idx], source, sensitive_col) < l,
        );
    }
    AnonymizedDataset::new(
        source,
        anon.qi_cols().to_vec(),
        classes,
        anon.suppressed_rows().to_vec(),
        (0..anon.qi_cols().len())
            .map(|qi| anon.taxonomy(qi).cloned())
            .collect(),
    )
}

/// Reference implementation of [`enforce_l_diversity`] that re-scans every
/// class for deficiency after each merge. Kept as the oracle the
/// bitmap-tracked version is tested against.
///
/// # Panics
/// Panics if the total number of distinct sensitive values in the released
/// rows is below `l`.
pub fn enforce_l_diversity_scalar(
    anon: &AnonymizedDataset,
    source: &Dataset,
    sensitive_col: usize,
    l: usize,
) -> AnonymizedDataset {
    let mut classes: Vec<EquivalenceClass> = anon.classes().to_vec();
    assert_attainable(&classes, source, sensitive_col, l);
    while let Some(bad_idx) = classes
        .iter()
        .position(|c| distinct_sensitive(c, source, sensitive_col) < l)
    {
        if classes.len() == 1 {
            break; // single class with < l distinct — cannot happen (asserted)
        }
        // Cheapest merge partner.
        let (partner, _) = classes
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != bad_idx)
            .map(|(i, c)| (i, merge_cost(&classes[bad_idx].qi_box, &c.qi_box)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least two classes");
        let absorbed = classes.swap_remove(bad_idx.max(partner));
        let keeper_idx = bad_idx.min(partner);
        let keeper = &mut classes[keeper_idx];
        keeper.qi_box = keeper
            .qi_box
            .iter()
            .zip(&absorbed.qi_box)
            .map(|(a, b)| hull(a, b))
            .collect();
        keeper.rows.extend(absorbed.rows);
    }
    AnonymizedDataset::new(
        source,
        anon.qi_cols().to_vec(),
        classes,
        anon.suppressed_rows().to_vec(),
        (0..anon.qi_cols().len())
            .map(|qi| anon.taxonomy(qi).cloned())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ldiversity::distinct_l_diversity;
    use crate::mondrian::{mondrian_anonymize, MondrianConfig};
    use crate::verify::is_k_anonymous;
    use rand::Rng;
    use so_data::rng::seeded_rng;
    use so_data::{AttributeDef, AttributeRole, DataType, DatasetBuilder, Schema};

    fn dataset(n: usize, n_diseases: usize, seed: u64) -> Dataset {
        let schema = Schema::new(vec![
            AttributeDef::new("zip", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("disease", DataType::Str, AttributeRole::Sensitive),
        ]);
        let mut b = DatasetBuilder::new(schema);
        let syms: Vec<_> = (0..n_diseases)
            .map(|i| b.intern(&format!("d{i}")))
            .collect();
        let mut rng = seeded_rng(seed);
        for _ in 0..n {
            b.push_row(vec![
                Value::Int(rng.gen_range(0..100_000)),
                Value::Int(rng.gen_range(0..36_500)),
                Value::Str(syms[rng.gen_range(0..n_diseases)]),
            ]);
        }
        b.finish()
    }

    #[test]
    fn enforcement_reaches_the_target_diversity() {
        let ds = dataset(400, 8, 900);
        let anon = mondrian_anonymize(&ds, &[0, 1], &MondrianConfig { k: 4 });
        let before = distinct_l_diversity(&anon, &ds, 2);
        let diverse = enforce_l_diversity(&anon, &ds, 2, 3);
        let after = distinct_l_diversity(&diverse, &ds, 2);
        assert!(after >= 3, "after {after} (before {before})");
        assert!(is_k_anonymous(&diverse, 4), "k-anonymity must survive");
        assert!(diverse.is_sound(&ds), "widened boxes must stay sound");
        assert!(diverse.is_partition());
    }

    #[test]
    fn already_diverse_release_is_untouched() {
        let ds = dataset(200, 40, 901);
        let anon = mondrian_anonymize(&ds, &[0, 1], &MondrianConfig { k: 10 });
        // With 40 uniform diseases and classes of ≥10, ℓ = 2 is essentially
        // always met already.
        let before_classes = anon.classes().len();
        let diverse = enforce_l_diversity(&anon, &ds, 2, 2);
        assert_eq!(diverse.classes().len(), before_classes);
    }

    #[test]
    #[should_panic(expected = "unattainable")]
    fn impossible_target_is_rejected() {
        let ds = dataset(50, 2, 902);
        let anon = mondrian_anonymize(&ds, &[0, 1], &MondrianConfig { k: 5 });
        let _ = enforce_l_diversity(&anon, &ds, 2, 5);
    }

    #[test]
    fn bitmap_tracking_matches_full_rescan() {
        // The bitmap-tracked merge loop must replay the oracle's merges
        // exactly: same classes, same rows, same widened boxes.
        for (n, n_diseases, k, l, seed) in [
            (400, 8, 4, 3, 900),
            (300, 5, 3, 4, 903),
            (120, 6, 2, 3, 904),
        ] {
            let ds = dataset(n, n_diseases, seed);
            let anon = mondrian_anonymize(&ds, &[0, 1], &MondrianConfig { k });
            let fast = enforce_l_diversity(&anon, &ds, 2, l);
            let slow = enforce_l_diversity_scalar(&anon, &ds, 2, l);
            assert_eq!(fast.classes().len(), slow.classes().len());
            for (a, b) in fast.classes().iter().zip(slow.classes()) {
                assert_eq!(a.rows, b.rows);
                assert_eq!(a.qi_box, b.qi_box);
            }
        }
    }

    #[test]
    fn hull_behaviour() {
        let a = GenValue::IntRange { lo: 0, hi: 9 };
        let b = GenValue::IntRange { lo: 20, hi: 29 };
        assert_eq!(hull(&a, &b), GenValue::IntRange { lo: 0, hi: 29 });
        let e = GenValue::Exact(Value::Int(5));
        assert_eq!(hull(&e, &b), GenValue::IntRange { lo: 5, hi: 29 });
        assert_eq!(hull(&a, &a), a.clone());
        // Incomparable → suppressed.
        let s1 = GenValue::Exact(Value::Bool(true));
        assert_eq!(hull(&s1, &a), GenValue::Suppressed);
    }
}
