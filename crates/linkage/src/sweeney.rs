//! Sweeney-style record linkage.
//!
//! The GIC attack: the published medical data had names redacted but kept
//! ZIP, birth date, and sex; the Cambridge voter registration listed those
//! same attributes *with* names. Joining the two on the quasi-identifier
//! tuple re-identified the medical records. [`link_releases`] reproduces the
//! join; [`LinkageOutcome`] scores it against ground truth.

use std::collections::HashMap;

use so_data::{BitVec, Dataset, Value};

/// A claimed link: released row `released_row` belongs to the person
/// identified by `claimed_id` in the identified dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Row index in the de-identified release.
    pub released_row: usize,
    /// The identity claimed for it (value of the identified dataset's id
    /// column).
    pub claimed_id: i64,
}

/// Result of a linkage attack.
#[derive(Debug, Clone)]
pub struct LinkageOutcome {
    /// All claimed links (one per released row that matched exactly one
    /// identified record).
    pub links: Vec<Link>,
    /// Released rows matching no identified record.
    pub unmatched: usize,
    /// Released rows matching more than one identified record (ambiguous —
    /// the attacker abstains).
    pub ambiguous: usize,
}

impl LinkageOutcome {
    /// Fraction of released rows confidently linked.
    pub fn link_rate(&self, n_released: usize) -> f64 {
        if n_released == 0 {
            0.0
        } else {
            self.links.len() as f64 / n_released as f64
        }
    }

    /// Precision against ground truth: `truth[released_row]` is the true id
    /// of each released row (`None` if the person is genuinely absent from
    /// the identified dataset).
    pub fn precision(&self, truth: &[Option<i64>]) -> f64 {
        if self.links.is_empty() {
            return 1.0;
        }
        let correct = self
            .links
            .iter()
            .filter(|l| truth[l.released_row] == Some(l.claimed_id))
            .count();
        correct as f64 / self.links.len() as f64
    }

    /// Recall against ground truth: fraction of linkable released rows
    /// (those whose true identity is present) that were correctly linked.
    pub fn recall(&self, truth: &[Option<i64>]) -> f64 {
        let linkable = truth.iter().filter(|t| t.is_some()).count();
        if linkable == 0 {
            return 1.0;
        }
        let correct = self
            .links
            .iter()
            .filter(|l| truth[l.released_row] == Some(l.claimed_id))
            .count();
        correct as f64 / linkable as f64
    }
}

/// Joins a de-identified `released` dataset with an `identified` dataset on
/// equality of the given quasi-identifier columns. `released_qi[i]` pairs
/// with `identified_qi[i]`; `id_col` is the identity column of `identified`.
///
/// A released row is linked only when exactly one identified record carries
/// its QI tuple — the unique-match criterion of Sweeney's attack.
///
/// # Panics
/// Panics if the QI column lists have different lengths.
pub fn link_releases(
    released: &Dataset,
    released_qi: &[usize],
    identified: &Dataset,
    identified_qi: &[usize],
    id_col: usize,
) -> LinkageOutcome {
    assert_eq!(released_qi.len(), identified_qi.len(), "QI arity mismatch");
    // Index the identified dataset by QI tuple.
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for r in 0..identified.n_rows() {
        let key: Vec<Value> = identified_qi
            .iter()
            .map(|&c| identified.get(r, c))
            .collect();
        index.entry(key).or_default().push(r);
    }
    let mut links = Vec::new();
    let mut unmatched = 0usize;
    let mut ambiguous = 0usize;
    for r in 0..released.n_rows() {
        let key: Vec<Value> = released_qi.iter().map(|&c| released.get(r, c)).collect();
        match index.get(&key).map(Vec::as_slice) {
            None | Some([]) => unmatched += 1,
            Some([single]) => {
                let id = identified
                    .get(*single, id_col)
                    .as_int()
                    .expect("identity column must be Int");
                links.push(Link {
                    released_row: r,
                    claimed_id: id,
                });
            }
            Some(_) => ambiguous += 1,
        }
    }
    LinkageOutcome {
        links,
        unmatched,
        ambiguous,
    }
}

/// Word-parallel variant of [`link_releases`]: builds one bitmap index per
/// QI column (value → [`BitVec`] over identified rows), then
/// resolves each released row by intersecting its per-column bitmaps with
/// word-level ANDs. The index is built once and the per-row work is
/// `O(arity · n_identified / 64)` word operations with early exit on an
/// empty intersection.
///
/// Produces exactly the same [`LinkageOutcome`] as the hash join, which
/// remains the reference implementation (see the equivalence test).
///
/// # Panics
/// Panics if the QI column lists have different lengths.
pub fn link_releases_bitmap(
    released: &Dataset,
    released_qi: &[usize],
    identified: &Dataset,
    identified_qi: &[usize],
    id_col: usize,
) -> LinkageOutcome {
    assert_eq!(released_qi.len(), identified_qi.len(), "QI arity mismatch");
    let n_id = identified.n_rows();
    // Per-column bitmap index of the identified dataset.
    let index: Vec<HashMap<Value, BitVec>> = identified_qi
        .iter()
        .map(|&c| {
            let mut by_value: HashMap<Value, BitVec> = HashMap::new();
            for r in 0..n_id {
                by_value
                    .entry(identified.get(r, c))
                    .or_insert_with(|| BitVec::zeros(n_id))
                    .set(r, true);
            }
            by_value
        })
        .collect();
    let mut links = Vec::new();
    let mut unmatched = 0usize;
    let mut ambiguous = 0usize;
    for r in 0..released.n_rows() {
        let mut acc: Option<BitVec> = None;
        let mut dead = false;
        for (by_value, &c) in index.iter().zip(released_qi) {
            let Some(bitmap) = by_value.get(&released.get(r, c)) else {
                dead = true;
                break;
            };
            match &mut acc {
                None => acc = Some(bitmap.clone()),
                Some(a) => {
                    a.and_assign(bitmap);
                    if a.is_zero() {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            unmatched += 1;
            continue;
        }
        // Zero QI columns ⇒ every identified row matches, as in the hash
        // join (whose empty key indexes the full dataset).
        let acc = acc.unwrap_or_else(|| BitVec::ones(n_id));
        match acc.count_ones() {
            0 => unmatched += 1,
            1 => {
                let row = acc.next_set_bit(0).expect("count is 1");
                let id = identified
                    .get(row, id_col)
                    .as_int()
                    .expect("identity column must be Int");
                links.push(Link {
                    released_row: r,
                    claimed_id: id,
                });
            }
            _ => ambiguous += 1,
        }
    }
    LinkageOutcome {
        links,
        unmatched,
        ambiguous,
    }
}

/// Workload-planned variant of [`link_releases`]: every released row's QI
/// tuple becomes one conjunction of [`so_plan::Atom::ValueEquals`] atoms in
/// a shared hash-consed [`so_plan::PredPool`], and the whole batch is
/// compiled into a single [`so_plan::QueryPlan`] over the identified
/// dataset.
///
/// The planner does the de-duplication the hash join does by hand: released
/// rows with equal QI tuples collapse to one target expression, each
/// distinct `(column, value)` atom is scanned exactly once, and every
/// intersection is a word-level AND of cached child bitmaps. A row's verdict
/// (unmatched / linked / ambiguous) is the popcount of its target bitmap.
///
/// Produces exactly the same [`LinkageOutcome`] as the hash join, which
/// remains the reference implementation (see the equivalence test).
///
/// # Panics
/// Panics if the QI column lists have different lengths.
pub fn link_releases_planned(
    released: &Dataset,
    released_qi: &[usize],
    identified: &Dataset,
    identified_qi: &[usize],
    id_col: usize,
) -> LinkageOutcome {
    use so_plan::{Atom, NodeCache, ParallelExecutor, PredPool, QueryPlan};

    assert_eq!(released_qi.len(), identified_qi.len(), "QI arity mismatch");
    let mut pool = PredPool::new();
    let targets: Vec<_> = (0..released.n_rows())
        .map(|r| {
            let atoms: Vec<_> = released_qi
                .iter()
                .zip(identified_qi)
                .map(|(&rc, &ic)| {
                    pool.atom(Atom::ValueEquals {
                        col: ic,
                        value: released.get(r, rc),
                    })
                })
                .collect();
            Some(pool.and(atoms))
        })
        .collect();
    let plan = QueryPlan::compile(&pool, targets);
    let mut cache = NodeCache::new();
    let no_evaluators = std::collections::HashMap::new();
    // Sharded execution (SO_THREADS override); bit-identical to serial.
    let _ =
        ParallelExecutor::from_env().execute(&plan, &pool, identified, &no_evaluators, &mut cache);

    let mut links = Vec::new();
    let mut unmatched = 0usize;
    let mut ambiguous = 0usize;
    for (r, target) in plan.targets().iter().enumerate() {
        let bitmap = &cache[&target.expect("every released row has a target")];
        match bitmap.count_ones() {
            0 => unmatched += 1,
            1 => {
                let row = bitmap.next_set_bit(0).expect("count is 1");
                let id = identified
                    .get(row, id_col)
                    .as_int()
                    .expect("identity column must be Int");
                links.push(Link {
                    released_row: r,
                    claimed_id: id,
                });
            }
            _ => ambiguous += 1,
        }
    }
    LinkageOutcome {
        links,
        unmatched,
        ambiguous,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_data::population::{Population, PopulationConfig};
    use so_data::rng::seeded_rng;
    use so_data::{AttributeDef, AttributeRole, DataType, DatasetBuilder, Schema};

    #[test]
    fn toy_join_links_unique_tuples() {
        let released_schema = Schema::new(vec![AttributeDef::new(
            "zip",
            DataType::Int,
            AttributeRole::QuasiIdentifier,
        )]);
        let mut rb = DatasetBuilder::new(released_schema);
        for z in [111, 222, 333, 444] {
            rb.push_row(vec![Value::Int(z)]);
        }
        let released = rb.finish();

        let id_schema = Schema::new(vec![
            AttributeDef::new("id", DataType::Int, AttributeRole::DirectIdentifier),
            AttributeDef::new("zip", DataType::Int, AttributeRole::QuasiIdentifier),
        ]);
        let mut ib = DatasetBuilder::new(id_schema);
        // 111 unique, 222 duplicated (ambiguous), 333 absent, 444 unique.
        for (id, z) in [(1, 111), (2, 222), (3, 222), (4, 444)] {
            ib.push_row(vec![Value::Int(id), Value::Int(z)]);
        }
        let identified = ib.finish();

        let out = link_releases(&released, &[0], &identified, &[1], 0);
        assert_eq!(out.links.len(), 2);
        assert_eq!(out.ambiguous, 1);
        assert_eq!(out.unmatched, 1);
        assert!(out.links.contains(&Link {
            released_row: 0,
            claimed_id: 1
        }));
        assert!(out.links.contains(&Link {
            released_row: 3,
            claimed_id: 4
        }));

        let truth = vec![Some(1), Some(2), None, Some(4)];
        assert_eq!(out.precision(&truth), 1.0);
        assert!((out.recall(&truth) - 2.0 / 3.0).abs() < 1e-12);

        // The bitmap-index join resolves the same links.
        let bm = link_releases_bitmap(&released, &[0], &identified, &[1], 0);
        assert_eq!(bm.links, out.links);
        assert_eq!(bm.unmatched, out.unmatched);
        assert_eq!(bm.ambiguous, out.ambiguous);

        // So does the workload-planned join.
        let pl = link_releases_planned(&released, &[0], &identified, &[1], 0);
        assert_eq!(pl.links, out.links);
        assert_eq!(pl.unmatched, out.unmatched);
        assert_eq!(pl.ambiguous, out.ambiguous);
    }

    #[test]
    fn gic_style_linkage_end_to_end() {
        // Population-scale: the medical release joins the voter registry on
        // (zip, birth_date, sex). With day-level dates the QI space dwarfs
        // n, so most voters are unique and precision is perfect (the join
        // only errs when a *different* person shares the full QI tuple).
        let cfg = PopulationConfig {
            n: 3_000,
            ..PopulationConfig::default()
        };
        let pop = Population::generate(&cfg, &mut seeded_rng(50));
        let med = pop.medical_release();
        let voters = pop.voter_registry();
        let (mz, md, ms) = (
            med.column_index("zip").unwrap(),
            med.column_index("birth_date").unwrap(),
            med.column_index("sex").unwrap(),
        );
        let (vz, vd, vs, vid) = (
            voters.column_index("zip").unwrap(),
            voters.column_index("birth_date").unwrap(),
            voters.column_index("sex").unwrap(),
            voters.column_index("person_id").unwrap(),
        );
        let out = link_releases(&med, &[mz, md, ms], &voters, &[vz, vd, vs], vid);
        // Ground truth: medical row i is master row i; their id is i; the
        // person is linkable iff they are in the voter registry.
        let in_voters: std::collections::HashSet<usize> =
            pop.voter_rows().iter().copied().collect();
        let truth: Vec<Option<i64>> = (0..med.n_rows())
            .map(|i| in_voters.contains(&i).then_some(i as i64))
            .collect();
        let precision = out.precision(&truth);
        let recall = out.recall(&truth);
        let rate = out.link_rate(med.n_rows());
        // The attack should link the majority of records near-perfectly.
        assert!(rate > 0.5, "link rate {rate}");
        assert!(precision > 0.97, "precision {precision}");
        assert!(recall > 0.9, "recall {recall}");

        // Hash join, bitmap-index join, and the workload-planned join agree
        // on every row at scale.
        let bm = link_releases_bitmap(&med, &[mz, md, ms], &voters, &[vz, vd, vs], vid);
        assert_eq!(bm.links, out.links);
        assert_eq!(bm.unmatched, out.unmatched);
        assert_eq!(bm.ambiguous, out.ambiguous);
        let pl = link_releases_planned(&med, &[mz, md, ms], &voters, &[vz, vd, vs], vid);
        assert_eq!(pl.links, out.links);
        assert_eq!(pl.unmatched, out.unmatched);
        assert_eq!(pl.ambiguous, out.ambiguous);
    }
}
