//! The canonical predicate-algebra IR.
//!
//! Predicates arrive as behaviour (trait objects) with a structural
//! reflection ([`PredShape`]); this module gives them an *algebra*: every
//! distinct expression is interned exactly once in a [`PredPool`]
//! (hash-consing), so structural equality is id equality, and the smart
//! constructors canonicalize as they build —
//!
//! * flattening (`And(And(a,b),c)` → `And(a,b,c)`) and child sorting
//!   (commutativity),
//! * constant folding (`p ∧ false` → `false`, `p ∨ ¬p` → `true`, …),
//! * double-negation elimination, with [`PredPool::nnf`] pushing the
//!   remaining negations down to atoms,
//! * prefix expansion (`prefix == b₀b₁…` → `bit[0]==b₀ ∧ bit[1]==b₁ ∧ …`),
//!   which is what makes the Theorem 2.8 prefix-descent chains visible to
//!   the conjunct-refinement differencing lint.
//!
//! Every interned expression carries a *stable* structural hash (FNV-1a over
//! a canonical encoding, invariant across runs and processes) that replaces
//! the fragile `describe()` strings wherever a machine-facing predicate
//! identity is needed.
//!
//! Interning is children-first: a node's children are always interned before
//! the node itself, so `a.index() < b.index()` whenever `a` is a
//! subexpression of `b` — increasing-[`ExprId`] order is a valid bottom-up
//! evaluation order, which is what [`crate::plan::QueryPlan`] exploits.

use std::collections::HashMap;

use so_data::{BitVec, Dataset, Value};

use crate::kernels::{eval_atom_bits, eval_atom_row};
use crate::predicate::{canonical_bytes, RowPredicate};
use crate::shape::{fnv1a, next_opaque_id, PredShape};

/// Handle to an interned expression in a [`PredPool`]. Within one pool,
/// equal ids ⇔ structurally equal expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// The raw pool index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(i: usize) -> Self {
        ExprId(u32::try_from(i).expect("pool overflow"))
    }
}

/// An atomic predicate: carries its full payload, so two atoms are the same
/// test iff they are equal.
///
/// **Contract:** a tabular atom (`IntRange`, `ValueEquals`, `RowHash`,
/// `KeyedHash`) is a function of the row's cell values alone, under
/// [`Value`]'s `Eq`/`Hash` — never of the row's index or of other rows.
/// Rows equal in every cell are therefore selected together, which is what
/// lets an engine count over a dataset's weighted distinct-row form
/// ([`so_data::Dataset::distinct_rows`]). Anything that reads the row index
/// must be an [`Atom::Opaque`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Atom {
    /// Integer range test `lo ≤ row[col] ≤ hi`.
    IntRange {
        /// Column index.
        col: usize,
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Exact-value test `row[col] == value`.
    ValueEquals {
        /// Column index.
        col: usize,
        /// Required value.
        value: Value,
    },
    /// Keyed-hash residue over selected columns (design weight `1/modulus`).
    RowHash {
        /// Hash key.
        key: u64,
        /// Residue modulus.
        modulus: u64,
        /// Accepted residue class.
        target: u64,
        /// Columns fed to the hash, in order.
        cols: Vec<usize>,
    },
    /// Keyed-hash residue over a whole record (design weight `1/modulus`).
    KeyedHash {
        /// Hash key.
        key: u64,
        /// Residue modulus.
        modulus: u64,
        /// Accepted residue class.
        target: u64,
    },
    /// Single-bit test over bit-string records (uniform weight `1/2`).
    BitExtract {
        /// Bit position.
        bit: usize,
        /// Required value.
        value: bool,
    },
    /// Opaque predicate known only by a unique identity — never equal to any
    /// other atom, weight unknown. Executable only when a closure evaluator
    /// is registered for the id (see
    /// [`crate::workload::WorkloadSpec::push_predicate_arc`]).
    Opaque {
        /// Stable unique identity.
        id: u64,
    },
}

/// One node of the interned predicate algebra.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PredNode {
    /// The tautology (matches every record).
    True,
    /// The contradiction (matches nothing).
    False,
    /// An atomic test.
    Atom(Atom),
    /// Conjunction of children (flattened, sorted, deduplicated).
    And(Vec<ExprId>),
    /// Disjunction of children (flattened, sorted, deduplicated).
    Or(Vec<ExprId>),
    /// Negation of a child.
    Not(ExprId),
}

/// A hash-consing arena of predicate expressions.
///
/// All construction goes through the smart constructors ([`PredPool::and`],
/// [`PredPool::or`], [`PredPool::not`], [`PredPool::atom`], …), which
/// canonicalize and constant-fold, so a tautology is *the* id
/// [`PredPool::tru`] and a contradiction is *the* id [`PredPool::fals`] —
/// the tautology/contradiction lint is an id comparison.
pub struct PredPool {
    nodes: Vec<PredNode>,
    hashes: Vec<u64>,
    interned: HashMap<PredNode, ExprId>,
    true_id: ExprId,
    false_id: ExprId,
}

impl Default for PredPool {
    fn default() -> Self {
        Self::new()
    }
}

impl PredPool {
    /// Creates an empty pool (with the two constants pre-interned).
    pub fn new() -> Self {
        let mut pool = PredPool {
            nodes: Vec::new(),
            hashes: Vec::new(),
            interned: HashMap::new(),
            true_id: ExprId(0),
            false_id: ExprId(0),
        };
        pool.true_id = pool.intern(PredNode::True);
        pool.false_id = pool.intern(PredNode::False);
        pool
    }

    /// Number of distinct interned expressions.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the pool holds only the two constants.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// The tautology id.
    pub fn tru(&self) -> ExprId {
        self.true_id
    }

    /// The contradiction id.
    pub fn fals(&self) -> ExprId {
        self.false_id
    }

    /// The node behind an id.
    pub fn node(&self, id: ExprId) -> &PredNode {
        &self.nodes[id.index()]
    }

    /// Stable structural hash of an expression: FNV-1a over a canonical
    /// encoding, identical across pools, runs, and processes for
    /// structurally equal expressions.
    pub fn structural_hash(&self, id: ExprId) -> u64 {
        self.hashes[id.index()]
    }

    fn intern(&mut self, node: PredNode) -> ExprId {
        if let Some(&id) = self.interned.get(&node) {
            return id;
        }
        let hash = self.compute_hash(&node);
        let id = ExprId(u32::try_from(self.nodes.len()).expect("pool overflow"));
        self.nodes.push(node.clone());
        self.hashes.push(hash);
        self.interned.insert(node, id);
        id
    }

    fn compute_hash(&self, node: &PredNode) -> u64 {
        let mut buf = Vec::with_capacity(32);
        match node {
            PredNode::True => buf.push(0),
            PredNode::False => buf.push(1),
            PredNode::Atom(a) => encode_atom(a, &mut buf),
            PredNode::And(children) | PredNode::Or(children) => {
                buf.push(if matches!(node, PredNode::And(_)) {
                    7
                } else {
                    8
                });
                buf.extend_from_slice(&(children.len() as u64).to_le_bytes());
                for &c in children {
                    buf.extend_from_slice(&self.hashes[c.index()].to_le_bytes());
                }
            }
            PredNode::Not(inner) => {
                buf.push(9);
                buf.extend_from_slice(&self.hashes[inner.index()].to_le_bytes());
            }
        }
        fnv1a(&buf)
    }

    /// Interns an atom.
    pub fn atom(&mut self, atom: Atom) -> ExprId {
        self.intern(PredNode::Atom(atom))
    }

    /// Canonical conjunction: flattens nested `And`s, drops `true`, folds to
    /// `false` on any `false` child or any `x ∧ ¬x` pair, deduplicates, and
    /// sorts children by structural hash. Zero children fold to `true`, one
    /// child to itself.
    pub fn and(&mut self, children: impl IntoIterator<Item = ExprId>) -> ExprId {
        let mut flat: Vec<ExprId> = Vec::new();
        for c in children {
            if c == self.false_id {
                return self.false_id;
            }
            if c == self.true_id {
                continue;
            }
            match self.node(c) {
                PredNode::And(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(c),
            }
        }
        self.finish_nary(flat, true)
    }

    /// Canonical disjunction (dual of [`PredPool::and`]): zero children fold
    /// to `false`, any `true` child or `x ∨ ¬x` pair folds to `true`.
    pub fn or(&mut self, children: impl IntoIterator<Item = ExprId>) -> ExprId {
        let mut flat: Vec<ExprId> = Vec::new();
        for c in children {
            if c == self.true_id {
                return self.true_id;
            }
            if c == self.false_id {
                continue;
            }
            match self.node(c) {
                PredNode::Or(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(c),
            }
        }
        self.finish_nary(flat, false)
    }

    /// Shared tail of `and`/`or`: dedupe, sort canonically, detect
    /// complementary pairs, unwrap trivial arities.
    fn finish_nary(&mut self, mut flat: Vec<ExprId>, is_and: bool) -> ExprId {
        flat.sort_by_key(|c| (self.hashes[c.index()], *c));
        flat.dedup();
        // x together with ¬x collapses to the absorbing constant.
        let present: std::collections::HashSet<ExprId> = flat.iter().copied().collect();
        for &c in &flat {
            if let PredNode::Not(inner) = self.node(c) {
                if present.contains(inner) {
                    return if is_and { self.false_id } else { self.true_id };
                }
            }
        }
        match flat.len() {
            0 => {
                if is_and {
                    self.true_id
                } else {
                    self.false_id
                }
            }
            1 => flat[0],
            _ => self.intern(if is_and {
                PredNode::And(flat)
            } else {
                PredNode::Or(flat)
            }),
        }
    }

    /// Canonical negation: folds constants and double negation.
    pub fn not(&mut self, id: ExprId) -> ExprId {
        if id == self.true_id {
            return self.false_id;
        }
        if id == self.false_id {
            return self.true_id;
        }
        if let PredNode::Not(inner) = self.node(id) {
            return *inner;
        }
        self.intern(PredNode::Not(id))
    }

    /// Negation-normal form: pushes every negation down to the atoms
    /// (`¬(a ∧ b)` → `¬a ∨ ¬b`, `¬¬x` → `x`), re-canonicalizing on the way
    /// up. After NNF, a conjunction's structure is exactly its conjunct set,
    /// which is what the differencing lint compares.
    pub fn nnf(&mut self, id: ExprId) -> ExprId {
        self.nnf_signed(id, false)
    }

    fn nnf_signed(&mut self, id: ExprId, negated: bool) -> ExprId {
        match self.node(id).clone() {
            PredNode::True => {
                if negated {
                    self.false_id
                } else {
                    self.true_id
                }
            }
            PredNode::False => {
                if negated {
                    self.true_id
                } else {
                    self.false_id
                }
            }
            PredNode::Atom(_) => {
                if negated {
                    self.not(id)
                } else {
                    id
                }
            }
            PredNode::And(children) => {
                let mapped: Vec<ExprId> = children
                    .into_iter()
                    .map(|c| self.nnf_signed(c, negated))
                    .collect();
                if negated {
                    self.or(mapped)
                } else {
                    self.and(mapped)
                }
            }
            PredNode::Or(children) => {
                let mapped: Vec<ExprId> = children
                    .into_iter()
                    .map(|c| self.nnf_signed(c, negated))
                    .collect();
                if negated {
                    self.and(mapped)
                } else {
                    self.or(mapped)
                }
            }
            PredNode::Not(inner) => self.nnf_signed(inner, !negated),
        }
    }

    /// Lifts a structural reflection into the pool. Prefix atoms are
    /// expanded into conjunctions of bit tests; [`PredShape::Volatile`]
    /// shapes (structure unknown, identity unstable) become fresh opaque
    /// atoms — conservatively unequal to everything, including their own
    /// later lifts.
    pub fn lift(&mut self, shape: &PredShape) -> ExprId {
        match shape {
            PredShape::IntRange { col, lo, hi } => self.atom(Atom::IntRange {
                col: *col,
                lo: *lo,
                hi: *hi,
            }),
            PredShape::ValueEquals { col, value } => self.atom(Atom::ValueEquals {
                col: *col,
                value: *value,
            }),
            PredShape::RowHash {
                key,
                modulus,
                target,
                cols,
            } => self.atom(Atom::RowHash {
                key: *key,
                modulus: *modulus,
                target: *target,
                cols: cols.clone(),
            }),
            PredShape::KeyedHash {
                key,
                modulus,
                target,
            } => self.atom(Atom::KeyedHash {
                key: *key,
                modulus: *modulus,
                target: *target,
            }),
            PredShape::BitExtract { bit, value } => self.atom(Atom::BitExtract {
                bit: *bit,
                value: *value,
            }),
            PredShape::Prefix { bits } => {
                let atoms: Vec<ExprId> = bits
                    .iter()
                    .enumerate()
                    .map(|(bit, &value)| self.atom(Atom::BitExtract { bit, value }))
                    .collect();
                self.and(atoms)
            }
            PredShape::And(children) => {
                let ids: Vec<ExprId> = children.iter().map(|c| self.lift(c)).collect();
                self.and(ids)
            }
            PredShape::Or(children) => {
                let ids: Vec<ExprId> = children.iter().map(|c| self.lift(c)).collect();
                self.or(ids)
            }
            PredShape::Not(inner) => {
                let i = self.lift(inner);
                self.not(i)
            }
            PredShape::Opaque { id } => self.atom(Atom::Opaque { id: *id }),
            PredShape::Volatile => self.atom(Atom::Opaque {
                id: next_opaque_id(),
            }),
        }
    }

    /// Lifts a row predicate via its [`RowPredicate::shape`].
    pub fn lift_row_predicate(&mut self, p: &dyn RowPredicate) -> ExprId {
        let shape = p.shape();
        self.lift(&shape)
    }

    /// Re-interns an expression from another pool into this one, preserving
    /// structure (and therefore the stable structural hash). `memo` caches
    /// translations so shared subexpressions stay shared; reuse one memo map
    /// for a whole workload import. This is how the executing engine adopts
    /// the exact expressions a workload declared (and the linter saw) while
    /// keeping its own persistent cross-workload pool.
    pub fn import(
        &mut self,
        other: &PredPool,
        id: ExprId,
        memo: &mut HashMap<ExprId, ExprId>,
    ) -> ExprId {
        if let Some(&translated) = memo.get(&id) {
            return translated;
        }
        let translated = match other.node(id).clone() {
            PredNode::True => self.true_id,
            PredNode::False => self.false_id,
            PredNode::Atom(a) => self.atom(a),
            PredNode::And(children) => {
                let mapped: Vec<ExprId> = children
                    .iter()
                    .map(|&c| self.import(other, c, memo))
                    .collect();
                self.and(mapped)
            }
            PredNode::Or(children) => {
                let mapped: Vec<ExprId> = children
                    .iter()
                    .map(|&c| self.import(other, c, memo))
                    .collect();
                self.or(mapped)
            }
            PredNode::Not(inner) => {
                let mapped = self.import(other, inner, memo);
                self.not(mapped)
            }
        };
        memo.insert(id, translated);
        translated
    }

    /// The conjunct set of an expression: the children if it is a
    /// conjunction, else the expression itself. Meaningful on NNF'd ids.
    pub fn conjuncts(&self, id: ExprId) -> Vec<ExprId> {
        match self.node(id) {
            PredNode::And(children) => children.clone(),
            _ => vec![id],
        }
    }

    /// Every distinct atom [`ExprId`] reachable from `id`, in increasing id
    /// order (which is deterministic: interning order). The sign analyses of
    /// `so-analyze`'s query-matrix layer partition the record space on
    /// exactly this atom set.
    pub fn collect_atoms(&self, id: ExprId) -> Vec<ExprId> {
        let mut out = Vec::new();
        self.collect_atoms_into(id, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_atoms_into(&self, id: ExprId, out: &mut Vec<ExprId>) {
        match self.node(id) {
            PredNode::True | PredNode::False => {}
            PredNode::Atom(_) => out.push(id),
            PredNode::And(children) | PredNode::Or(children) => {
                for &c in children {
                    self.collect_atoms_into(c, out);
                }
            }
            PredNode::Not(inner) => self.collect_atoms_into(*inner, out),
        }
    }

    /// The atom payload behind an id, if the node is an atom.
    pub fn atom_payload(&self, id: ExprId) -> Option<&Atom> {
        match self.node(id) {
            PredNode::Atom(a) => Some(a),
            _ => None,
        }
    }

    /// The *design* weight of an atom id, if it has one: bit tests are
    /// `1/2` under the uniform-bits model, keyed-hash residues `1/modulus`.
    /// Data-dependent atoms (ranges, value tests, opaque closures) have no
    /// design weight and return `None` — any bound derived from them must
    /// stay vacuous.
    pub fn atom_design_weight(&self, id: ExprId) -> Option<f64> {
        let (lo, hi) = self.weight_interval(id);
        (matches!(self.node(id), PredNode::Atom(_)) && lo == hi).then_some(hi)
    }

    /// Three-valued evaluation of an expression under a partial truth
    /// assignment to its atoms: `Ok(b)` when the assignment decides the
    /// expression, `Err(atom)` naming the first (in child order) blocking
    /// undetermined atom otherwise. `assign` returns `None` for atoms the
    /// assignment leaves open. This is the sign analysis the query-matrix
    /// cell refinement splits on: a cell is split on exactly the atom that
    /// blocks a query's membership from being decided.
    pub fn eval_signed(
        &self,
        id: ExprId,
        assign: &dyn Fn(ExprId) -> Option<bool>,
    ) -> Result<bool, ExprId> {
        match self.node(id) {
            PredNode::True => Ok(true),
            PredNode::False => Ok(false),
            PredNode::Atom(_) => assign(id).ok_or(id),
            PredNode::And(children) => self.eval_signed_nary(children, assign, true),
            PredNode::Or(children) => self.eval_signed_nary(children, assign, false),
            PredNode::Not(inner) => self.eval_signed(*inner, assign).map(|b| !b),
        }
    }

    /// Shared And/Or arm of [`PredPool::eval_signed`]: a decisive child
    /// (false for And, true for Or) wins even when siblings are
    /// undetermined; otherwise the first blocking atom is reported.
    fn eval_signed_nary(
        &self,
        children: &[ExprId],
        assign: &dyn Fn(ExprId) -> Option<bool>,
        strict_all: bool,
    ) -> Result<bool, ExprId> {
        let mut blocked: Option<ExprId> = None;
        for &c in children {
            match self.eval_signed(c, assign) {
                Ok(b) if b != strict_all => return Ok(b),
                Ok(_) => {}
                Err(atom) => {
                    blocked.get_or_insert(atom);
                }
            }
        }
        match blocked {
            Some(atom) => Err(atom),
            None => Ok(strict_all),
        }
    }

    /// True iff the expression contains an [`Atom::Opaque`] anywhere — i.e.
    /// it is executable only with a registered closure evaluator.
    pub fn contains_opaque(&self, id: ExprId) -> bool {
        match self.node(id) {
            PredNode::True | PredNode::False => false,
            PredNode::Atom(a) => matches!(a, Atom::Opaque { .. }),
            PredNode::And(children) | PredNode::Or(children) => {
                children.iter().any(|&c| self.contains_opaque(c))
            }
            PredNode::Not(inner) => self.contains_opaque(*inner),
        }
    }

    /// Evaluates an expression on one row of a tabular dataset. Returns
    /// `None` if the expression contains an atom that has no tabular
    /// semantics (bit-string atoms, opaque closures) *and* that atom's value
    /// is needed to decide the result.
    pub fn eval_row(&self, id: ExprId, ds: &Dataset, row: usize) -> Option<bool> {
        match self.node(id) {
            PredNode::True => Some(true),
            PredNode::False => Some(false),
            PredNode::Atom(a) => eval_atom_row(a, ds, row),
            PredNode::And(children) => {
                combine(children.iter().map(|&c| self.eval_row(c, ds, row)), true)
            }
            PredNode::Or(children) => {
                combine(children.iter().map(|&c| self.eval_row(c, ds, row)), false)
            }
            PredNode::Not(inner) => self.eval_row(*inner, ds, row).map(|b| !b),
        }
    }

    /// Evaluates an expression on one bit-string record. Returns `None` if
    /// an atom with no bit-string semantics is needed to decide the result.
    pub fn eval_bits(&self, id: ExprId, record: &BitVec) -> Option<bool> {
        match self.node(id) {
            PredNode::True => Some(true),
            PredNode::False => Some(false),
            PredNode::Atom(a) => eval_atom_bits(a, record),
            PredNode::And(children) => {
                combine(children.iter().map(|&c| self.eval_bits(c, record)), true)
            }
            PredNode::Or(children) => {
                combine(children.iter().map(|&c| self.eval_bits(c, record)), false)
            }
            PredNode::Not(inner) => self.eval_bits(*inner, record).map(|b| !b),
        }
    }

    /// Heuristic weight interval `[lo, hi]` of an expression under the
    /// product model: atoms with a *design* weight (bit tests `1/2` under
    /// the uniform-bits model, keyed-hash residues `1/modulus` by the
    /// Leftover Hash Lemma) contribute exactly, data-dependent atoms
    /// (ranges, value tests, opaque closures) contribute the vacuous
    /// `[0, 1]`, and conjunctions multiply as if independent — the same
    /// independence the paper's uniform-bit model grants the attack
    /// predicates. Lints treat the interval as evidence, not proof.
    pub fn weight_interval(&self, id: ExprId) -> (f64, f64) {
        match self.node(id) {
            PredNode::True => (1.0, 1.0),
            PredNode::False => (0.0, 0.0),
            PredNode::Atom(a) => match a {
                Atom::BitExtract { .. } => (0.5, 0.5),
                Atom::RowHash { modulus, .. } | Atom::KeyedHash { modulus, .. } => {
                    let w = 1.0 / (*modulus).max(1) as f64;
                    (w, w)
                }
                Atom::IntRange { lo, hi, .. } if lo > hi => (0.0, 0.0),
                Atom::IntRange { .. } | Atom::ValueEquals { .. } | Atom::Opaque { .. } => {
                    (0.0, 1.0)
                }
            },
            PredNode::And(children) => children.iter().fold((1.0, 1.0), |(lo, hi), &c| {
                let (clo, chi) = self.weight_interval(c);
                (lo * clo, hi * chi)
            }),
            PredNode::Or(children) => {
                let (mut lo, mut hi) = (0.0f64, 0.0f64);
                for &c in children {
                    let (clo, chi) = self.weight_interval(c);
                    lo = lo.max(clo);
                    hi += chi;
                }
                (lo, hi.min(1.0))
            }
            PredNode::Not(inner) => {
                let (lo, hi) = self.weight_interval(*inner);
                (1.0 - hi, 1.0 - lo)
            }
        }
    }

    /// Human-readable rendering for diagnostics.
    pub fn render(&self, id: ExprId) -> String {
        match self.node(id) {
            PredNode::True => "true".to_owned(),
            PredNode::False => "false".to_owned(),
            PredNode::Atom(a) => match a {
                Atom::IntRange { col, lo, hi } => format!("col{col} in [{lo}, {hi}]"),
                Atom::ValueEquals { col, value } => format!("col{col} == {value}"),
                Atom::RowHash {
                    key,
                    modulus,
                    target,
                    cols,
                } => format!("H_{key:#x}(cols {cols:?}) mod {modulus} == {target}"),
                Atom::KeyedHash {
                    key,
                    modulus,
                    target,
                } => format!("H_{key:#x}(record) mod {modulus} == {target}"),
                Atom::BitExtract { bit, value } => format!("bit[{bit}] == {}", u8::from(*value)),
                Atom::Opaque { id } => format!("<opaque #{id}>"),
            },
            PredNode::And(children) => {
                let parts: Vec<String> = children.iter().map(|&c| self.render(c)).collect();
                format!("({})", parts.join(" AND "))
            }
            PredNode::Or(children) => {
                let parts: Vec<String> = children.iter().map(|&c| self.render(c)).collect();
                format!("({})", parts.join(" OR "))
            }
            PredNode::Not(inner) => format!("NOT {}", self.render(*inner)),
        }
    }
}

/// Three-valued combine for And (`strict_all = true`) / Or (`false`):
/// a decisive child (false for And, true for Or) wins even when siblings
/// are unknown.
fn combine(results: impl Iterator<Item = Option<bool>>, strict_all: bool) -> Option<bool> {
    let mut saw_unknown = false;
    for r in results {
        match r {
            Some(b) if b != strict_all => return Some(b),
            Some(_) => {}
            None => saw_unknown = true,
        }
    }
    if saw_unknown {
        None
    } else {
        Some(strict_all)
    }
}

fn encode_atom(atom: &Atom, out: &mut Vec<u8>) {
    match atom {
        Atom::IntRange { col, lo, hi } => {
            out.push(16);
            out.extend_from_slice(&(*col as u64).to_le_bytes());
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
        }
        Atom::ValueEquals { col, value } => {
            out.push(17);
            out.extend_from_slice(&(*col as u64).to_le_bytes());
            out.extend_from_slice(&canonical_bytes(std::slice::from_ref(value)));
        }
        Atom::RowHash {
            key,
            modulus,
            target,
            cols,
        } => {
            out.push(18);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&modulus.to_le_bytes());
            out.extend_from_slice(&target.to_le_bytes());
            out.extend_from_slice(&(cols.len() as u64).to_le_bytes());
            for &c in cols {
                out.extend_from_slice(&(c as u64).to_le_bytes());
            }
        }
        Atom::KeyedHash {
            key,
            modulus,
            target,
        } => {
            out.push(19);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&modulus.to_le_bytes());
            out.extend_from_slice(&target.to_le_bytes());
        }
        Atom::BitExtract { bit, value } => {
            out.push(20);
            out.extend_from_slice(&(*bit as u64).to_le_bytes());
            out.push(u8::from(*value));
        }
        Atom::Opaque { id } => {
            out.push(21);
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bit(pool: &mut PredPool, b: usize, v: bool) -> ExprId {
        pool.atom(Atom::BitExtract { bit: b, value: v })
    }

    #[test]
    fn interning_dedupes_structurally() {
        let mut pool = PredPool::new();
        let a = bit(&mut pool, 0, true);
        let b = bit(&mut pool, 1, false);
        let left = pool.and([a, b]);
        let right = pool.and([b, a]);
        assert_eq!(left, right, "commutativity is canonicalized away");
        assert_eq!(
            pool.structural_hash(left),
            pool.structural_hash(right),
            "hashes agree"
        );
    }

    #[test]
    fn constant_folding() {
        let mut pool = PredPool::new();
        let a = bit(&mut pool, 0, true);
        let t = pool.tru();
        let f = pool.fals();
        assert_eq!(pool.and([a, f]), f);
        assert_eq!(pool.and([a, t]), a);
        assert_eq!(pool.or([a, t]), t);
        assert_eq!(pool.or([a, f]), a);
        assert_eq!(pool.and([]), t);
        assert_eq!(pool.or([]), f);
        let na = pool.not(a);
        assert_eq!(pool.and([a, na]), f, "x AND NOT x is false");
        assert_eq!(pool.or([a, na]), t, "x OR NOT x is true");
        assert_eq!(pool.not(na), a, "double negation");
    }

    #[test]
    fn nested_flattening() {
        let mut pool = PredPool::new();
        let a = bit(&mut pool, 0, true);
        let b = bit(&mut pool, 1, true);
        let c = bit(&mut pool, 2, true);
        let ab = pool.and([a, b]);
        let abc = pool.and([ab, c]);
        let flat = pool.and([a, b, c]);
        assert_eq!(abc, flat);
        assert_eq!(pool.conjuncts(abc).len(), 3);
    }

    #[test]
    fn nnf_pushes_negations_to_atoms() {
        let mut pool = PredPool::new();
        let a = bit(&mut pool, 0, true);
        let b = bit(&mut pool, 1, true);
        let ab = pool.and([a, b]);
        let neg = pool.not(ab);
        let nnf = pool.nnf(neg);
        // ¬(a ∧ b) = ¬a ∨ ¬b
        let na = pool.not(a);
        let nb = pool.not(b);
        let expected = pool.or([na, nb]);
        assert_eq!(nnf, expected);
        // NNF of an NNF is a fixpoint.
        assert_eq!(pool.nnf(nnf), nnf);
    }

    #[test]
    fn prefix_lifts_to_bit_conjunction() {
        let mut pool = PredPool::new();
        let lifted = pool.lift(&PredShape::Prefix {
            bits: vec![true, false],
        });
        let b0 = bit(&mut pool, 0, true);
        let b1 = bit(&mut pool, 1, false);
        let expected = pool.and([b0, b1]);
        assert_eq!(lifted, expected);
        // The empty prefix is the tautology.
        let empty = pool.lift(&PredShape::Prefix { bits: vec![] });
        assert_eq!(empty, pool.tru());
    }

    #[test]
    fn volatile_lifts_are_never_equal() {
        let mut pool = PredPool::new();
        let a = pool.lift(&PredShape::Volatile);
        let b = pool.lift(&PredShape::Volatile);
        assert_ne!(a, b);
    }

    #[test]
    fn weight_interval_product_model() {
        let mut pool = PredPool::new();
        let lifted = pool.lift(&PredShape::Prefix {
            bits: vec![true; 10],
        });
        let (lo, hi) = pool.weight_interval(lifted);
        assert!((lo - 2.0f64.powi(-10)).abs() < 1e-12);
        assert!((hi - 2.0f64.powi(-10)).abs() < 1e-12);
        let hash = pool.atom(Atom::KeyedHash {
            key: 1,
            modulus: 128,
            target: 0,
        });
        assert_eq!(pool.weight_interval(hash), (1.0 / 128.0, 1.0 / 128.0));
        let range = pool.atom(Atom::IntRange {
            col: 0,
            lo: 0,
            hi: 10,
        });
        assert_eq!(pool.weight_interval(range), (0.0, 1.0));
    }

    #[test]
    fn eval_bits_matches_prefix_semantics() {
        let mut pool = PredPool::new();
        let prefix = vec![true, false];
        let id = pool.lift(&PredShape::Prefix {
            bits: prefix.clone(),
        });
        for bools in [
            vec![true, false, true],
            vec![true, true, false],
            vec![false, false, false],
        ] {
            let r = BitVec::from_bools(&bools);
            let expected = prefix.iter().enumerate().all(|(i, &b)| r.get(i) == b);
            assert_eq!(pool.eval_bits(id, &r), Some(expected));
        }
    }

    #[test]
    fn structural_hash_is_stable_across_pools() {
        let shape = PredShape::And(vec![
            PredShape::BitExtract {
                bit: 3,
                value: true,
            },
            PredShape::KeyedHash {
                key: 0xfeed,
                modulus: 64,
                target: 5,
            },
        ]);
        let mut p1 = PredPool::new();
        let mut p2 = PredPool::new();
        // Warm p2 with unrelated junk so raw indices differ.
        for i in 0..5 {
            p2.atom(Atom::BitExtract {
                bit: 100 + i,
                value: false,
            });
        }
        let a = p1.lift(&shape);
        let b = p2.lift(&shape);
        assert_eq!(p1.structural_hash(a), p2.structural_hash(b));
    }

    #[test]
    fn import_preserves_structure_and_sharing() {
        let mut src = PredPool::new();
        let a = bit(&mut src, 0, true);
        let b = bit(&mut src, 1, false);
        let shared = src.and([a, b]);
        let nb = src.not(b);
        let second = src.and([shared, nb]); // folds: a ∧ b ∧ ¬b = false
        assert_eq!(second, src.fals());
        let tracker = src.not(shared);

        let mut dst = PredPool::new();
        // Warm dst so raw ids differ from src's.
        dst.atom(Atom::BitExtract {
            bit: 99,
            value: true,
        });
        let mut memo = HashMap::new();
        let shared_d = dst.import(&src, shared, &mut memo);
        let tracker_d = dst.import(&src, tracker, &mut memo);
        assert_eq!(
            dst.structural_hash(shared_d),
            src.structural_hash(shared),
            "import preserves the stable hash"
        );
        assert_eq!(dst.structural_hash(tracker_d), src.structural_hash(tracker));
        // The imported NOT shares its child with the imported conjunction.
        match dst.node(tracker_d) {
            PredNode::Not(inner) => assert_eq!(*inner, shared_d, "sharing survives import"),
            other => panic!("expected Not, got {other:?}"),
        }
        // Importing again is a no-op (hash-consing in the destination).
        let mut memo2 = HashMap::new();
        assert_eq!(dst.import(&src, shared, &mut memo2), shared_d);
    }

    #[test]
    fn collect_atoms_is_sorted_and_deduped() {
        let mut pool = PredPool::new();
        let a = bit(&mut pool, 0, true);
        let b = bit(&mut pool, 1, true);
        let na = pool.not(a);
        let e = pool.or([na, b]);
        let e2 = pool.and([a, e]);
        let atoms = pool.collect_atoms(e2);
        assert_eq!(atoms, vec![a, b], "a appears once despite two sites");
        assert!(pool.collect_atoms(pool.tru()).is_empty());
    }

    #[test]
    fn atom_design_weight_distinguishes_designed_from_data_dependent() {
        let mut pool = PredPool::new();
        let b = bit(&mut pool, 0, true);
        assert_eq!(pool.atom_design_weight(b), Some(0.5));
        let h = pool.atom(Atom::KeyedHash {
            key: 1,
            modulus: 64,
            target: 0,
        });
        assert_eq!(pool.atom_design_weight(h), Some(1.0 / 64.0));
        let r = pool.atom(Atom::IntRange {
            col: 0,
            lo: 0,
            hi: 9,
        });
        assert_eq!(pool.atom_design_weight(r), None, "data-dependent");
        let and = pool.and([b, h]);
        assert_eq!(pool.atom_design_weight(and), None, "not an atom");
    }

    #[test]
    fn eval_signed_reports_the_blocking_atom() {
        let mut pool = PredPool::new();
        let a = bit(&mut pool, 0, true);
        let b = bit(&mut pool, 1, true);
        let nb = pool.not(b);
        let e = pool.and([a, nb]);
        // A decisive false child wins even with b open.
        let decided = pool.eval_signed(e, &|id| (id == a).then_some(false));
        assert_eq!(decided, Ok(false));
        // a = true leaves ¬b blocking on atom b.
        let blocked = pool.eval_signed(e, &|id| (id == a).then_some(true));
        assert_eq!(blocked, Err(b));
        // Full assignment decides.
        let done = pool.eval_signed(e, &|_| Some(true));
        assert_eq!(done, Ok(false), "a ∧ ¬b with b=true is false");
    }

    #[test]
    fn contains_opaque_walks_the_tree() {
        let mut pool = PredPool::new();
        let structural = bit(&mut pool, 0, true);
        let opaque = pool.atom(Atom::Opaque { id: 42 });
        let mixed = pool.and([structural, opaque]);
        assert!(!pool.contains_opaque(structural));
        assert!(pool.contains_opaque(opaque));
        assert!(pool.contains_opaque(mixed));
        let not_mixed = pool.not(mixed);
        assert!(pool.contains_opaque(not_mixed));
    }
}
