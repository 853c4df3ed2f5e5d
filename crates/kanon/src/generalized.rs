//! Generalized (anonymized) datasets.
//!
//! The output of a k-anonymizer is the input dataset with quasi-identifier
//! cells replaced by *generalized* values — intervals, taxonomy nodes, digit
//! prefixes, or full suppression — such that every record's generalized QI
//! tuple is shared with at least k−1 others. [`GenValue`] is the cell type,
//! [`EquivalenceClass`] a maximal group of records with identical
//! generalized QI tuples, and [`AnonymizedDataset`] the released object.

use std::sync::Arc;

use so_data::{Dataset, Schema, Value};

use crate::hierarchy::Taxonomy;

/// A generalized cell value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GenValue {
    /// Ungeneralized value.
    Exact(Value),
    /// Inclusive integer interval (ages, day numbers, ZIP blocks).
    IntRange {
        /// Inclusive lower endpoint.
        lo: i64,
        /// Inclusive upper endpoint.
        hi: i64,
    },
    /// A node of the column's taxonomy (e.g. `PULM` covering COVID and
    /// Asthma in the paper's toy example).
    CategoryNode(usize),
    /// Fully suppressed (`*`).
    Suppressed,
}

impl GenValue {
    /// Does this generalized cell cover raw value `v`?
    ///
    /// Categorical nodes need the column's [`Taxonomy`]; pass `None` for
    /// non-taxonomy columns.
    pub fn covers(&self, v: &Value, taxonomy: Option<&Taxonomy>) -> bool {
        match self {
            GenValue::Exact(e) => e == v,
            GenValue::IntRange { lo, hi } => match v {
                Value::Int(x) => x >= lo && x <= hi,
                Value::Date(d) => {
                    let dn = i64::from(d.day_number());
                    dn >= *lo && dn <= *hi
                }
                _ => false,
            },
            GenValue::CategoryNode(node) => match (v, taxonomy) {
                (Value::Str(s), Some(tax)) => tax
                    .leaf_of_symbol(*s)
                    .is_some_and(|leaf| tax.node_contains(*node, leaf)),
                _ => false,
            },
            GenValue::Suppressed => true,
        }
    }

    /// Renders the cell for display; taxonomy nodes are labeled if the
    /// taxonomy is supplied.
    pub fn display(&self, taxonomy: Option<&Taxonomy>) -> String {
        match self {
            GenValue::Exact(v) => v.to_string(),
            GenValue::IntRange { lo, hi } => format!("[{lo}-{hi}]"),
            GenValue::CategoryNode(n) => taxonomy
                .map(|t| t.label(*n).to_owned())
                .unwrap_or_else(|| format!("node#{n}")),
            GenValue::Suppressed => "*".to_owned(),
        }
    }
}

/// A maximal set of records sharing one generalized QI tuple.
#[derive(Debug, Clone)]
pub struct EquivalenceClass {
    /// Indices into the original dataset.
    pub rows: Vec<usize>,
    /// Generalized value per quasi-identifier column, aligned with
    /// [`AnonymizedDataset::qi_cols`].
    pub qi_box: Vec<GenValue>,
}

impl EquivalenceClass {
    /// Class size `|class| (≥ k)`.
    pub fn size(&self) -> usize {
        self.rows.len()
    }
}

/// The released k-anonymized dataset: the original rows grouped into
/// equivalence classes with generalized QI boxes. Non-QI columns are
/// released unchanged (as in the paper's toy example, where `Disease`
/// survives generalization into `PULM` only because it was *also* treated by
/// the taxonomy; sensitive columns outside the QI set pass through).
#[derive(Debug, Clone)]
pub struct AnonymizedDataset {
    schema: Arc<Schema>,
    qi_cols: Vec<usize>,
    classes: Vec<EquivalenceClass>,
    /// Row indices of the original dataset that were suppressed outright
    /// (Datafly-style anonymizers may drop small leftover classes).
    suppressed_rows: Vec<usize>,
    /// Per-QI-column taxonomies (None for numeric columns).
    taxonomies: Vec<Option<Taxonomy>>,
    n_original_rows: usize,
}

impl AnonymizedDataset {
    /// Assembles a release.
    ///
    /// # Panics
    /// Panics if box arity differs from `qi_cols`, or taxonomy arity
    /// mismatches.
    pub fn new(
        source: &Dataset,
        qi_cols: Vec<usize>,
        classes: Vec<EquivalenceClass>,
        suppressed_rows: Vec<usize>,
        taxonomies: Vec<Option<Taxonomy>>,
    ) -> Self {
        assert_eq!(qi_cols.len(), taxonomies.len(), "taxonomy arity mismatch");
        for c in &classes {
            assert_eq!(c.qi_box.len(), qi_cols.len(), "box arity mismatch");
        }
        AnonymizedDataset {
            schema: source.schema().clone(),
            qi_cols,
            classes,
            suppressed_rows,
            taxonomies,
            n_original_rows: source.n_rows(),
        }
    }

    /// The source schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Quasi-identifier column indices (into the source schema).
    pub fn qi_cols(&self) -> &[usize] {
        &self.qi_cols
    }

    /// The equivalence classes.
    pub fn classes(&self) -> &[EquivalenceClass] {
        &self.classes
    }

    /// Rows dropped entirely.
    pub fn suppressed_rows(&self) -> &[usize] {
        &self.suppressed_rows
    }

    /// Taxonomy for QI position `qi_idx` (not column index), if categorical.
    pub fn taxonomy(&self, qi_idx: usize) -> Option<&Taxonomy> {
        self.taxonomies[qi_idx].as_ref()
    }

    /// Number of rows in the source dataset.
    pub fn n_original_rows(&self) -> usize {
        self.n_original_rows
    }

    /// Number of released (non-suppressed) rows.
    pub fn n_released_rows(&self) -> usize {
        self.classes.iter().map(EquivalenceClass::size).sum()
    }

    /// Checks that every class box actually covers every member row of
    /// `source` — the structural soundness invariant of any anonymizer.
    pub fn is_sound(&self, source: &Dataset) -> bool {
        self.classes.iter().all(|class| {
            class.rows.iter().all(|&r| {
                self.qi_cols.iter().enumerate().all(|(qi_idx, &col)| {
                    let raw = source.get(r, col);
                    class.qi_box[qi_idx].covers(&raw, self.taxonomy(qi_idx))
                })
            })
        })
    }

    /// Checks that classes + suppressed rows partition the source rows.
    pub fn is_partition(&self) -> bool {
        let mut seen = vec![false; self.n_original_rows];
        for r in self
            .classes
            .iter()
            .flat_map(|c| c.rows.iter())
            .chain(self.suppressed_rows.iter())
        {
            if *r >= self.n_original_rows || seen[*r] {
                return false;
            }
            seen[*r] = true;
        }
        seen.iter().all(|&s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_data::{AttributeDef, AttributeRole, DataType, DatasetBuilder, Date};

    fn tiny() -> Dataset {
        let schema = Schema::new(vec![
            AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("born", DataType::Date, AttributeRole::QuasiIdentifier),
        ]);
        let mut b = DatasetBuilder::new(schema);
        b.push_row(vec![
            Value::Int(30),
            Value::Date(Date::new(1990, 1, 1).unwrap()),
        ]);
        b.push_row(vec![
            Value::Int(35),
            Value::Date(Date::new(1991, 6, 1).unwrap()),
        ]);
        b.finish()
    }

    #[test]
    fn exact_covers_only_equal() {
        let g = GenValue::Exact(Value::Int(5));
        assert!(g.covers(&Value::Int(5), None));
        assert!(!g.covers(&Value::Int(6), None));
    }

    #[test]
    fn range_covers_ints_and_dates() {
        let g = GenValue::IntRange { lo: 30, hi: 39 };
        assert!(g.covers(&Value::Int(30), None));
        assert!(g.covers(&Value::Int(39), None));
        assert!(!g.covers(&Value::Int(40), None));
        let born = Date::new(1990, 1, 1).unwrap();
        let g2 = GenValue::IntRange {
            lo: i64::from(born.day_number()) - 10,
            hi: i64::from(born.day_number()) + 10,
        };
        assert!(g2.covers(&Value::Date(born), None));
    }

    #[test]
    fn suppressed_covers_anything() {
        let g = GenValue::Suppressed;
        assert!(g.covers(&Value::Int(1), None));
        assert!(g.covers(&Value::Missing, None));
        assert!(g.covers(&Value::Bool(true), None));
    }

    #[test]
    fn taxonomy_node_covers_descendant_leaves() {
        let mut tax = Taxonomy::new("ANY");
        let pulm = tax.add_child(tax.root(), "PULM");
        let covid = tax.add_child(pulm, "COVID");
        let asthma = tax.add_child(pulm, "Asthma");
        let other = tax.add_child(tax.root(), "CF");
        let mut interner = so_data::Interner::new();
        let covid_sym = interner.intern("COVID");
        let cf_sym = interner.intern("CF");
        tax.bind_symbols(&interner);
        let g = GenValue::CategoryNode(pulm);
        assert!(g.covers(&Value::Str(covid_sym), Some(&tax)));
        assert!(!g.covers(&Value::Str(cf_sym), Some(&tax)));
        // Leaf nodes cover themselves.
        let gc = GenValue::CategoryNode(covid);
        assert!(gc.covers(&Value::Str(covid_sym), Some(&tax)));
        let _ = (asthma, other);
    }

    #[test]
    fn soundness_and_partition_checks() {
        let ds = tiny();
        let day0 = i64::from(Date::new(1990, 1, 1).unwrap().day_number());
        let day1 = i64::from(Date::new(1991, 6, 1).unwrap().day_number());
        let anon = AnonymizedDataset::new(
            &ds,
            vec![0, 1],
            vec![EquivalenceClass {
                rows: vec![0, 1],
                qi_box: vec![
                    GenValue::IntRange { lo: 30, hi: 39 },
                    GenValue::IntRange { lo: day0, hi: day1 },
                ],
            }],
            vec![],
            vec![None, None],
        );
        assert!(anon.is_sound(&ds));
        assert!(anon.is_partition());
        assert_eq!(anon.n_released_rows(), 2);
    }

    #[test]
    fn unsound_box_detected() {
        let ds = tiny();
        let anon = AnonymizedDataset::new(
            &ds,
            vec![0],
            vec![EquivalenceClass {
                rows: vec![0, 1],
                qi_box: vec![GenValue::IntRange { lo: 0, hi: 31 }], // misses row 1 (35)
            }],
            vec![],
            vec![None],
        );
        assert!(!anon.is_sound(&ds));
    }

    #[test]
    fn non_partition_detected() {
        let ds = tiny();
        let mk = |rows: Vec<usize>, suppressed: Vec<usize>| {
            AnonymizedDataset::new(
                &ds,
                vec![0],
                vec![EquivalenceClass {
                    rows,
                    qi_box: vec![GenValue::Suppressed],
                }],
                suppressed,
                vec![None],
            )
        };
        assert!(!mk(vec![0], vec![]).is_partition()); // row 1 missing
        assert!(!mk(vec![0, 0], vec![1]).is_partition()); // duplicate
        assert!(mk(vec![0], vec![1]).is_partition());
        assert!(mk(vec![1, 0], vec![]).is_partition());
    }
}
