//! Concrete typed predicates `p : X → {0,1}` over records.
//!
//! The Article 29 Working Party defines singling out as "the possibility to
//! isolate some or all records which identify an individual in the dataset";
//! the paper formalizes the isolating object as a *predicate* on records
//! (Definition 2.1). The [`Predicate`] / [`RowPredicate`] traits live in
//! `so-plan` (the compilation pipeline sits below this crate); this module
//! provides the concrete typed implementations — range / value / keyed-hash
//! tests and the boolean combinators.
//!
//! Typed tabular predicates delegate their row evaluation and columnar scans
//! to [`so_plan::kernels`], the single implementation of each atom's
//! semantics — the same kernels the whole-workload planner executes — so a
//! predicate counted one query at a time and the same predicate compiled
//! inside a [`so_plan::QueryPlan`] can never disagree.

pub use so_plan::predicate::{canonical_bytes, Predicate, RowPredicate};

use so_data::rng::keyed_hash;
use so_data::{BitVec, Dataset, Value};
use so_plan::ir::Atom;
use so_plan::kernels;
use so_plan::shape::{next_opaque_id, PredShape};

/// Boxed predicate closure.
type EvalFn<R> = Box<dyn Fn(&R) -> bool + Send + Sync>;

/// Closure-backed predicate with a label.
///
/// The label is documentation only: two `FnPredicate`s may share one label
/// while computing different things, so each instance also carries a
/// process-unique identity that backs its [`Predicate::shape`]. Caches must
/// key on the shape, never on [`Predicate::describe`].
pub struct FnPredicate<R: ?Sized> {
    label: String,
    id: u64,
    f: EvalFn<R>,
}

impl<R: ?Sized> FnPredicate<R> {
    /// Wraps a closure.
    pub fn new(label: &str, f: impl Fn(&R) -> bool + Send + Sync + 'static) -> Self {
        FnPredicate {
            label: label.to_owned(),
            id: next_opaque_id(),
            f: Box::new(f),
        }
    }
}

impl<R: ?Sized> Predicate<R> for FnPredicate<R> {
    fn eval(&self, record: &R) -> bool {
        (self.f)(record)
    }

    fn describe(&self) -> String {
        self.label.clone()
    }

    fn shape(&self) -> PredShape {
        PredShape::Opaque { id: self.id }
    }
}

/// Conjunction `p ∧ q` — the combinator used in the k-anonymity attack
/// (Theorem 2.10), where an equivalence-class predicate is refined by a
/// within-class isolating predicate.
pub struct AndPredicate<P, Q> {
    /// Left conjunct.
    pub left: P,
    /// Right conjunct.
    pub right: Q,
}

impl<R: ?Sized, P: Predicate<R>, Q: Predicate<R>> Predicate<R> for AndPredicate<P, Q> {
    fn eval(&self, record: &R) -> bool {
        self.left.eval(record) && self.right.eval(record)
    }

    fn describe(&self) -> String {
        format!("({}) AND ({})", self.left.describe(), self.right.describe())
    }

    fn shape(&self) -> PredShape {
        PredShape::And(vec![self.left.shape(), self.right.shape()])
    }
}

/// Disjunction `p ∨ q`.
pub struct OrPredicate<P, Q> {
    /// Left disjunct.
    pub left: P,
    /// Right disjunct.
    pub right: Q,
}

impl<R: ?Sized, P: Predicate<R>, Q: Predicate<R>> Predicate<R> for OrPredicate<P, Q> {
    fn eval(&self, record: &R) -> bool {
        self.left.eval(record) || self.right.eval(record)
    }

    fn describe(&self) -> String {
        format!("({}) OR ({})", self.left.describe(), self.right.describe())
    }

    fn shape(&self) -> PredShape {
        PredShape::Or(vec![self.left.shape(), self.right.shape()])
    }
}

/// Negation `¬p`.
pub struct NotPredicate<P> {
    /// Negated predicate.
    pub inner: P,
}

impl<R: ?Sized, P: Predicate<R>> Predicate<R> for NotPredicate<P> {
    fn eval(&self, record: &R) -> bool {
        !self.inner.eval(record)
    }

    fn describe(&self) -> String {
        format!("NOT ({})", self.inner.describe())
    }

    fn shape(&self) -> PredShape {
        PredShape::Not(Box::new(self.inner.shape()))
    }
}

/// Extracts a single bit of a bit-string record: `p(x) = x[bit] == value`.
#[derive(Debug, Clone, Copy)]
pub struct BitExtractPredicate {
    /// Bit position.
    pub bit: usize,
    /// Required value.
    pub value: bool,
}

impl Predicate<BitVec> for BitExtractPredicate {
    fn eval(&self, record: &BitVec) -> bool {
        kernels::eval_atom_bits(
            &Atom::BitExtract {
                bit: self.bit,
                value: self.value,
            },
            record,
        )
        .expect("bit atoms have bit-string semantics")
    }

    fn describe(&self) -> String {
        format!("bit[{}] == {}", self.bit, u8::from(self.value))
    }

    fn shape(&self) -> PredShape {
        PredShape::BitExtract {
            bit: self.bit,
            value: self.value,
        }
    }
}

/// Matches bit-string records beginning with a fixed prefix. The weight of a
/// `k`-bit prefix under the uniform distribution is exactly `2^-k` —
/// negligible for `k = ω(log n)` — which is why prefix predicates drive the
/// composition attack of Theorem 2.8.
#[derive(Debug, Clone)]
pub struct PrefixPredicate {
    /// Required leading bits.
    pub prefix: Vec<bool>,
}

impl PrefixPredicate {
    /// Empty prefix (matches everything).
    pub fn empty() -> Self {
        PrefixPredicate { prefix: Vec::new() }
    }

    /// Returns a copy extended by one bit.
    pub fn extended(&self, bit: bool) -> Self {
        let mut prefix = self.prefix.clone();
        prefix.push(bit);
        PrefixPredicate { prefix }
    }

    /// Prefix length in bits.
    pub fn len(&self) -> usize {
        self.prefix.len()
    }

    /// True iff the prefix is empty.
    pub fn is_empty(&self) -> bool {
        self.prefix.is_empty()
    }

    /// Exact weight under the uniform distribution over `{0,1}^d`, `d ≥ len`.
    pub fn uniform_weight(&self) -> f64 {
        0.5f64.powi(self.prefix.len() as i32)
    }
}

impl Predicate<BitVec> for PrefixPredicate {
    fn eval(&self, record: &BitVec) -> bool {
        if record.len() < self.prefix.len() {
            return false;
        }
        self.prefix
            .iter()
            .enumerate()
            .all(|(i, &b)| record.get(i) == b)
    }

    fn describe(&self) -> String {
        let bits: String = self
            .prefix
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        format!("prefix == {bits}")
    }

    fn shape(&self) -> PredShape {
        PredShape::Prefix {
            bits: self.prefix.clone(),
        }
    }
}

/// A Leftover-Hash-Lemma-style random predicate: matches records whose keyed
/// hash lands in a `1/modulus` slice of the output space. Under any
/// distribution with enough min-entropy its weight is ≈ `1/modulus` — this is
/// the construction the paper invokes (via \[ILL89\]) to build trivial
/// attackers with weight exactly tuned to `1/n`, and the refinement predicate
/// `p'` in the k-anonymity attack.
#[derive(Debug, Clone, Copy)]
pub struct KeyedHashPredicate {
    /// Hash key (the "seed" of the universal hash).
    pub key: u64,
    /// Size of the hash-range partition.
    pub modulus: u64,
    /// Which residue class to accept.
    pub target: u64,
}

impl KeyedHashPredicate {
    /// Predicate of designed weight `1/modulus`.
    ///
    /// # Panics
    /// Panics if `modulus == 0` or `target >= modulus`.
    pub fn new(key: u64, modulus: u64, target: u64) -> Self {
        assert!(modulus > 0, "modulus must be positive");
        assert!(target < modulus, "target must be a residue");
        KeyedHashPredicate {
            key,
            modulus,
            target,
        }
    }

    /// Designed weight `1/modulus` (exact under a uniform hash image).
    pub fn design_weight(&self) -> f64 {
        1.0 / self.modulus as f64
    }

    fn accepts_bytes(&self, bytes: &[u8]) -> bool {
        keyed_hash(self.key, bytes) % self.modulus == self.target
    }
}

impl Predicate<BitVec> for KeyedHashPredicate {
    fn eval(&self, record: &BitVec) -> bool {
        kernels::eval_atom_bits(
            &Atom::KeyedHash {
                key: self.key,
                modulus: self.modulus,
                target: self.target,
            },
            record,
        )
        .expect("keyed-hash atoms have bit-string semantics")
    }

    fn describe(&self) -> String {
        format!(
            "H_{:#x}(record) mod {} == {}",
            self.key, self.modulus, self.target
        )
    }

    fn shape(&self) -> PredShape {
        PredShape::KeyedHash {
            key: self.key,
            modulus: self.modulus,
            target: self.target,
        }
    }
}

impl Predicate<[Value]> for KeyedHashPredicate {
    fn eval(&self, record: &[Value]) -> bool {
        self.accepts_bytes(&canonical_bytes(record))
    }

    fn describe(&self) -> String {
        format!(
            "H_{:#x}(row) mod {} == {}",
            self.key, self.modulus, self.target
        )
    }

    fn shape(&self) -> PredShape {
        PredShape::KeyedHash {
            key: self.key,
            modulus: self.modulus,
            target: self.target,
        }
    }
}

/// Integer range test on one column: `lo ≤ ds[row][col] ≤ hi`.
#[derive(Debug, Clone, Copy)]
pub struct IntRangePredicate {
    /// Column index.
    pub col: usize,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl IntRangePredicate {
    fn atom(&self) -> Atom {
        Atom::IntRange {
            col: self.col,
            lo: self.lo,
            hi: self.hi,
        }
    }
}

impl RowPredicate for IntRangePredicate {
    fn eval_row(&self, ds: &Dataset, row: usize) -> bool {
        kernels::eval_atom_row(&self.atom(), ds, row).expect("tabular atom")
    }

    fn scan(&self, ds: &Dataset) -> BitVec {
        kernels::scan_atom(&self.atom(), ds).expect("tabular atom")
    }

    fn describe(&self) -> String {
        format!("col{} in [{}, {}]", self.col, self.lo, self.hi)
    }

    fn shape(&self) -> PredShape {
        PredShape::IntRange {
            col: self.col,
            lo: self.lo,
            hi: self.hi,
        }
    }
}

/// Exact-value test on one column.
#[derive(Debug, Clone)]
pub struct ValueEqualsPredicate {
    /// Column index.
    pub col: usize,
    /// Required value.
    pub value: Value,
}

impl ValueEqualsPredicate {
    fn atom(&self) -> Atom {
        Atom::ValueEquals {
            col: self.col,
            value: self.value,
        }
    }
}

impl RowPredicate for ValueEqualsPredicate {
    fn eval_row(&self, ds: &Dataset, row: usize) -> bool {
        kernels::eval_atom_row(&self.atom(), ds, row).expect("tabular atom")
    }

    fn scan(&self, ds: &Dataset) -> BitVec {
        kernels::scan_atom(&self.atom(), ds).expect("tabular atom")
    }

    fn describe(&self) -> String {
        format!("col{} == {}", self.col, self.value)
    }

    fn shape(&self) -> PredShape {
        PredShape::ValueEquals {
            col: self.col,
            value: self.value,
        }
    }
}

/// Conjunction of row predicates.
pub struct AllRowPredicate {
    /// Conjuncts (all must hold).
    pub parts: Vec<Box<dyn RowPredicate>>,
}

impl RowPredicate for AllRowPredicate {
    fn eval_row(&self, ds: &Dataset, row: usize) -> bool {
        self.parts.iter().all(|p| p.eval_row(ds, row))
    }

    fn scan(&self, ds: &Dataset) -> BitVec {
        // Each conjunct scans its column once; the conjunction is a
        // word-level AND of the resulting bitmaps.
        let mut acc = BitVec::ones(ds.n_rows());
        for p in &self.parts {
            acc.and_assign(&p.scan(ds));
            if acc.is_zero() {
                break;
            }
        }
        acc
    }

    fn describe(&self) -> String {
        let parts: Vec<String> = self.parts.iter().map(|p| p.describe()).collect();
        parts.join(" AND ")
    }

    fn shape(&self) -> PredShape {
        PredShape::And(self.parts.iter().map(|p| p.shape()).collect())
    }
}

/// Disjunction of row predicates (word-level OR of the child bitmaps).
pub struct AnyRowPredicate {
    /// Disjuncts (at least one must hold; empty = matches nothing).
    pub parts: Vec<Box<dyn RowPredicate>>,
}

impl RowPredicate for AnyRowPredicate {
    fn eval_row(&self, ds: &Dataset, row: usize) -> bool {
        self.parts.iter().any(|p| p.eval_row(ds, row))
    }

    fn scan(&self, ds: &Dataset) -> BitVec {
        let mut acc = BitVec::zeros(ds.n_rows());
        for p in &self.parts {
            acc.or_assign(&p.scan(ds));
        }
        acc
    }

    fn describe(&self) -> String {
        let parts: Vec<String> = self.parts.iter().map(|p| p.describe()).collect();
        parts.join(" OR ")
    }

    fn shape(&self) -> PredShape {
        PredShape::Or(self.parts.iter().map(|p| p.shape()).collect())
    }
}

/// Negation of a row predicate (word-level NOT of the child bitmap) — the
/// `A ∧ ¬B` differencing shapes of Theorem 1.1 are built from this.
pub struct NotRowPredicate {
    /// The negated predicate.
    pub inner: Box<dyn RowPredicate>,
}

impl RowPredicate for NotRowPredicate {
    fn eval_row(&self, ds: &Dataset, row: usize) -> bool {
        !self.inner.eval_row(ds, row)
    }

    fn scan(&self, ds: &Dataset) -> BitVec {
        self.inner.scan(ds).not()
    }

    fn describe(&self) -> String {
        format!("NOT ({})", self.inner.describe())
    }

    fn shape(&self) -> PredShape {
        PredShape::Not(Box::new(self.inner.shape()))
    }
}

/// Boxed evaluation closure over a dataset row.
type RowEvalFn = Box<dyn Fn(&Dataset, usize) -> bool + Send + Sync>;

/// Closure-backed row predicate with a label and a stable process-unique
/// identity.
///
/// The identity — not the label — backs [`RowPredicate::shape`], so two
/// `FnRowPredicate`s that happen to share a label can never alias each
/// other's cached bitmaps in the [`crate::CountingEngine`].
pub struct FnRowPredicate {
    label: String,
    id: u64,
    f: RowEvalFn,
}

impl FnRowPredicate {
    /// Wraps a closure.
    pub fn new(label: &str, f: impl Fn(&Dataset, usize) -> bool + Send + Sync + 'static) -> Self {
        FnRowPredicate {
            label: label.to_owned(),
            id: next_opaque_id(),
            f: Box::new(f),
        }
    }

    /// The stable identity assigned at construction.
    pub fn opaque_id(&self) -> u64 {
        self.id
    }
}

impl RowPredicate for FnRowPredicate {
    fn eval_row(&self, ds: &Dataset, row: usize) -> bool {
        (self.f)(ds, row)
    }

    fn describe(&self) -> String {
        self.label.clone()
    }

    fn shape(&self) -> PredShape {
        PredShape::Opaque { id: self.id }
    }
}

/// Keyed-hash predicate over a subset of columns of a row — the tabular
/// counterpart of [`KeyedHashPredicate`], used to refine an equivalence-class
/// predicate to weight `1/k'` inside the class (Theorem 2.10's `p'`).
#[derive(Debug, Clone)]
pub struct RowHashPredicate {
    /// The hash test.
    pub hash: KeyedHashPredicate,
    /// Columns fed to the hash (in order).
    pub cols: Vec<usize>,
}

impl RowHashPredicate {
    fn atom(&self) -> Atom {
        Atom::RowHash {
            key: self.hash.key,
            modulus: self.hash.modulus,
            target: self.hash.target,
            cols: self.cols.clone(),
        }
    }
}

impl RowPredicate for RowHashPredicate {
    fn eval_row(&self, ds: &Dataset, row: usize) -> bool {
        kernels::eval_atom_row(&self.atom(), ds, row).expect("tabular atom")
    }

    fn scan(&self, ds: &Dataset) -> BitVec {
        kernels::scan_atom(&self.atom(), ds).expect("tabular atom")
    }

    fn describe(&self) -> String {
        format!(
            "{} over cols {:?}",
            <KeyedHashPredicate as Predicate<[Value]>>::describe(&self.hash),
            self.cols
        )
    }

    fn shape(&self) -> PredShape {
        PredShape::RowHash {
            key: self.hash.key,
            modulus: self.hash.modulus,
            target: self.hash.target,
            cols: self.cols.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_data::dist::RecordDistribution;
    use so_data::rng::seeded_rng;
    use so_data::{AttributeDef, AttributeRole, DataType, DatasetBuilder, Schema, UniformBits};

    #[test]
    fn combinators_follow_boolean_algebra() {
        let t = FnPredicate::<BitVec>::new("true", |_| true);
        let f = FnPredicate::<BitVec>::new("false", |_| false);
        let r = BitVec::zeros(4);
        assert!(AndPredicate {
            left: &t,
            right: &t
        }
        .eval(&r));
        assert!(!AndPredicate {
            left: &t,
            right: &f
        }
        .eval(&r));
        assert!(OrPredicate {
            left: &f,
            right: &t
        }
        .eval(&r));
        assert!(!OrPredicate {
            left: &f,
            right: &f
        }
        .eval(&r));
        assert!(NotPredicate { inner: &f }.eval(&r));
        assert!(!NotPredicate { inner: &t }.eval(&r));
    }

    #[test]
    fn describe_composes() {
        let a = BitExtractPredicate {
            bit: 0,
            value: true,
        };
        let b = BitExtractPredicate {
            bit: 1,
            value: false,
        };
        let c = AndPredicate { left: a, right: b };
        assert_eq!(c.describe(), "(bit[0] == 1) AND (bit[1] == 0)");
    }

    #[test]
    fn prefix_predicate_matches_prefixes() {
        let p = PrefixPredicate {
            prefix: vec![true, false],
        };
        assert!(p.eval(&BitVec::from_bools(&[true, false, true])));
        assert!(!p.eval(&BitVec::from_bools(&[true, true, true])));
        assert!(!p.eval(&BitVec::from_bools(&[true]))); // too short
        assert_eq!(p.uniform_weight(), 0.25);
        let q = p.extended(true);
        assert_eq!(q.len(), 3);
        assert!(q.eval(&BitVec::from_bools(&[true, false, true])));
    }

    #[test]
    fn keyed_hash_weight_close_to_design() {
        let d = UniformBits::new(64);
        let mut rng = seeded_rng(9);
        let p = KeyedHashPredicate::new(0xfeed, 8, 3);
        let n = 20_000;
        let hits = (0..n).filter(|_| p.eval(&d.sample(&mut rng))).count();
        let frac = hits as f64 / n as f64;
        assert!(
            (frac - p.design_weight()).abs() < 0.01,
            "weight {frac} vs design {}",
            p.design_weight()
        );
    }

    #[test]
    fn keyed_hash_partitions_cover_everything() {
        // The m residue classes partition the record space.
        let d = UniformBits::new(32);
        let mut rng = seeded_rng(10);
        let m = 5u64;
        let preds: Vec<_> = (0..m).map(|t| KeyedHashPredicate::new(1, m, t)).collect();
        for _ in 0..500 {
            let r = d.sample(&mut rng);
            let matches = preds.iter().filter(|p| p.eval(&r)).count();
            assert_eq!(matches, 1, "exactly one residue class per record");
        }
    }

    #[test]
    #[should_panic(expected = "target must be a residue")]
    fn keyed_hash_rejects_bad_target() {
        KeyedHashPredicate::new(1, 4, 4);
    }

    fn tiny_dataset() -> Dataset {
        let schema = Schema::new(vec![
            AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("sex", DataType::Str, AttributeRole::QuasiIdentifier),
        ]);
        let mut b = DatasetBuilder::new(schema);
        let f = b.intern("F");
        let m = b.intern("M");
        for (age, sex) in [(30, f), (40, m), (50, f)] {
            b.push_row(vec![Value::Int(age), Value::Str(sex)]);
        }
        b.finish()
    }

    #[test]
    fn int_range_row_predicate() {
        let ds = tiny_dataset();
        let p = IntRangePredicate {
            col: 0,
            lo: 35,
            hi: 50,
        };
        let matches: Vec<bool> = (0..3).map(|r| p.eval_row(&ds, r)).collect();
        assert_eq!(matches, vec![false, true, true]);
    }

    #[test]
    fn value_equals_row_predicate() {
        let ds = tiny_dataset();
        let f = ds.interner().get("F").unwrap();
        let p = ValueEqualsPredicate {
            col: 1,
            value: Value::Str(f),
        };
        assert!(p.eval_row(&ds, 0));
        assert!(!p.eval_row(&ds, 1));
        assert!(p.eval_row(&ds, 2));
    }

    #[test]
    fn all_row_predicate_conjunction() {
        let ds = tiny_dataset();
        let f = ds.interner().get("F").unwrap();
        let p = AllRowPredicate {
            parts: vec![
                Box::new(IntRangePredicate {
                    col: 0,
                    lo: 45,
                    hi: 60,
                }),
                Box::new(ValueEqualsPredicate {
                    col: 1,
                    value: Value::Str(f),
                }),
            ],
        };
        let matches: Vec<bool> = (0..3).map(|r| p.eval_row(&ds, r)).collect();
        assert_eq!(matches, vec![false, false, true]);
    }

    #[test]
    fn row_hash_predicate_depends_only_on_selected_cols() {
        let ds = tiny_dataset();
        // Hash over sex only: rows 0 and 2 share "F" so they agree.
        let p = RowHashPredicate {
            hash: KeyedHashPredicate::new(3, 2, 0),
            cols: vec![1],
        };
        assert_eq!(p.eval_row(&ds, 0), p.eval_row(&ds, 2));
    }

    #[test]
    fn typed_predicates_agree_with_plan_kernels() {
        // The delegation means this can't drift, but assert the contract
        // anyway: predicate scan == kernel scan == per-row kernel eval.
        let ds = tiny_dataset();
        let p = IntRangePredicate {
            col: 0,
            lo: 35,
            hi: 50,
        };
        let via_pred = p.scan(&ds);
        let via_kernel = so_plan::kernels::scan_atom(
            &Atom::IntRange {
                col: 0,
                lo: 35,
                hi: 50,
            },
            &ds,
        )
        .unwrap();
        for r in 0..ds.n_rows() {
            assert_eq!(via_pred.get(r), via_kernel.get(r));
        }
    }
}
