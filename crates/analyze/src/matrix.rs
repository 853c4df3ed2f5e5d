//! The query-matrix abstraction: a declared workload lowered to an abstract
//! 0/1 matrix over *atom-partition cells*, with no data access.
//!
//! *The Power of Linear Reconstruction Attacks* (Kasiviswanathan–Rudelson–
//! Smith, arXiv:1210.2381) shows that reconstruction feasibility is a
//! linear-algebraic property of the released query set: attacks succeed
//! whenever the query matrix is well-conditioned on the secret column. This
//! module makes that matrix a static object the lints can reason about:
//!
//! * **rows** are the workload's sufficiently-accurate queries;
//! * **columns** are the disjoint *cells* the queries induce on the record
//!   space — for subset-sum queries the equivalence classes of rows under
//!   query membership (exact, from the masks), for predicate queries the
//!   satisfiable sign assignments to the predicates' atoms, built by
//!   NNF/sign analysis on [`ExprId`]s via [`PredPool::eval_signed`];
//! * **entries** record cell ⊆ query, exactly, by construction.
//!
//! Each cell carries an upper bound on its expected row count (exact counts
//! for mask cells; `n · Π` design weights for sign cells, vacuous when a
//! data-dependent atom is involved), so "this combination isolates ≤ t
//! rows" is a provable statement about the *design* of the workload, never
//! about the data. The structural passes over the matrix — GF(2)/rational
//! rank estimation ([`gf2_rank`], [`RowBasis`]), per-cell coverage, and the
//! chain search of [`crate::lattice`] — power the `SO-LINREC`, `SO-COVER`,
//! and `SO-TRACKER` lints.
//!
//! The passes can only act where their guards open: `SO-LINREC` and
//! `SO-COVER` on a *narrow* cell (`0 < width_hi ≤ t`), `SO-TRACKER` on rows
//! whose error `α < 0.5` can still certify a record. A sign cell's width is
//! `n` unless a design-weighted atom narrows it, and refinement never holds
//! more than `2^atoms` cells. So the lint collects the predicate family
//! first (its queries, error bounds and atom universe), decides from it
//! whether any pass could fire, and only then lowers it.
//!
//! A cell keeps its region (first row and size, or sign assignment) but not
//! its text: [`QueryMatrix::label`] renders it only for the cells a finding
//! cites, so a workload that produces no matrix finding never pays for
//! rendering.

use std::collections::HashMap;

use so_data::BitVec;
use so_plan::ir::{Atom, ExprId, PredPool};
use so_plan::workload::{QueryKind, WorkloadSpec};

/// Which lowering produced a matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixKind {
    /// Columns are row-equivalence classes of subset-sum masks; cell widths
    /// are exact row counts.
    SubsetMasks,
    /// Columns are satisfiable sign assignments over the predicate atoms;
    /// cell widths are `n · Π` design-weight bounds.
    PredicateSigns,
}

/// One column of the matrix: a disjoint region of the record space. Its
/// human-readable description is rendered on demand by
/// [`QueryMatrix::label`].
#[derive(Debug, Clone)]
pub struct Cell {
    /// Upper bound on the region's expected row count (exact for mask
    /// cells, `n · Π` design weights for sign cells; `n` when vacuous).
    pub width_hi: f64,
    region: Region,
}

/// What a cell covers, kept in the form the lowering built it in.
#[derive(Debug, Clone)]
enum Region {
    /// A row-equivalence class of subset masks: its first row and size.
    Rows { first: usize, count: usize },
    /// A sign assignment over the matrix's atom universe: `+1` / `-1` force
    /// the atom true / false, `0` leaves it open.
    Signs(Vec<i8>),
}

/// The abstract query matrix of one workload (one query family).
#[derive(Debug, Clone)]
pub struct QueryMatrix {
    /// Workload indices of the rows, in declaration order.
    pub queries: Vec<usize>,
    /// Per-row effective worst-case error bound
    /// ([`so_plan::workload::Noise::effective_alpha`]).
    pub alphas: Vec<f64>,
    /// Rows over cells: `rows[r]` has bit `c` set iff cell `c` lies inside
    /// query `r`.
    pub rows: Vec<BitVec>,
    /// The columns.
    pub cells: Vec<Cell>,
    /// Which lowering built this matrix.
    pub kind: MatrixKind,
    /// The atom universe the sign cells are assignments over, sorted by
    /// id; empty for mask matrices.
    atoms: Vec<ExprId>,
}

impl QueryMatrix {
    /// Renders cell `c`'s region for evidence payloads:
    /// `rows≡{first} ({count} row(s))` for a mask cell, the `∧`-joined
    /// signed atoms (`NOT` for a negative sign, `everything` for none) for a
    /// sign cell. `pool` is the workload's pool the matrix was lowered from.
    pub fn label(&self, c: usize, pool: &PredPool) -> String {
        match &self.cells[c].region {
            Region::Rows { first, count } => format!("rows≡{first} ({count} row(s))"),
            Region::Signs(signs) => sign_label(pool, &self.atoms, signs),
        }
    }
}

/// Outcome of lowering one query family.
#[derive(Debug)]
pub enum Lowered {
    /// The matrix was built completely.
    Built(QueryMatrix),
    /// The family has no sufficiently-accurate queries to lower.
    Empty,
    /// A cap (cell count, bit budget) was hit: the matrix is absent and the
    /// absence of findings is *not* evidence of safety.
    Truncated,
}

/// Caps on matrix construction, carried by
/// [`crate::lint::LintConfig`].
#[derive(Debug, Clone, Copy)]
pub struct MatrixCaps {
    /// Maximum number of cells before construction aborts.
    pub max_cells: usize,
    /// Maximum `n_rows × queries` bit volume for the subset lowering.
    pub bit_budget: usize,
}

// ---------------------------------------------------------------------------
// Subset-mask lowering.

/// Lowers the workload's subset-sum queries with `effective_alpha ≤
/// alpha_cut` into a matrix whose cells are the equivalence classes of rows
/// under query membership. Exact: entries and widths come straight from the
/// masks.
pub fn lower_subsets(workload: &WorkloadSpec, alpha_cut: f64, caps: MatrixCaps) -> Lowered {
    let n = workload.n_rows();
    let mut queries: Vec<usize> = Vec::new();
    let mut alphas: Vec<f64> = Vec::new();
    let mut masks: Vec<&BitVec> = Vec::new();
    for (i, q) in workload.queries().iter().enumerate() {
        if let QueryKind::Subset(mask) = &q.kind {
            let alpha = q.noise.effective_alpha();
            if alpha <= alpha_cut {
                queries.push(i);
                alphas.push(alpha);
                masks.push(mask);
            }
        }
    }
    if queries.is_empty() || n == 0 {
        return Lowered::Empty;
    }
    if n.saturating_mul(queries.len()) > caps.bit_budget {
        return Lowered::Truncated;
    }

    // Per-row membership signature over the selected queries.
    let mut sigs: Vec<BitVec> = vec![BitVec::zeros(queries.len()); n];
    for (qi, mask) in masks.iter().enumerate() {
        for row in mask.iter_ones() {
            sigs[row].set(qi, true);
        }
    }

    // Group rows by signature; cells are numbered by first-row order, so the
    // construction is deterministic. (The map is only probed per row — cell
    // order never depends on map iteration.)
    let mut index: HashMap<&BitVec, usize> = HashMap::new();
    let mut cell_sig: Vec<&BitVec> = Vec::new();
    let mut cell_first: Vec<usize> = Vec::new();
    let mut cell_count: Vec<usize> = Vec::new();
    for (row, sig) in sigs.iter().enumerate() {
        if let Some(&c) = index.get(sig) {
            cell_count[c] += 1;
        } else {
            let c = cell_sig.len();
            if c >= caps.max_cells {
                return Lowered::Truncated;
            }
            index.insert(sig, c);
            cell_sig.push(sig);
            cell_first.push(row);
            cell_count.push(1);
        }
    }

    let mut rows = vec![BitVec::zeros(cell_sig.len()); queries.len()];
    for (c, sig) in cell_sig.iter().enumerate() {
        for qi in sig.iter_ones() {
            rows[qi].set(c, true);
        }
    }
    let cells = cell_first
        .iter()
        .zip(&cell_count)
        .map(|(&first, &count)| Cell {
            width_hi: count as f64,
            region: Region::Rows { first, count },
        })
        .collect();
    Lowered::Built(QueryMatrix {
        queries,
        alphas,
        rows,
        cells,
        kind: MatrixKind::SubsetMasks,
        atoms: Vec::new(),
    })
}

// ---------------------------------------------------------------------------
// Predicate sign lowering.

/// A partial sign assignment over the atom universe: `0` = open, `+1` /
/// `-1` = the atom is forced true / false in this region.
#[derive(Clone)]
struct SignCell {
    signs: Vec<i8>,
    /// Membership bits over the queries processed so far.
    members: BitVec,
}

/// The predicate queries one sign lowering covers — those with
/// `effective_alpha ≤ alpha_cut` and no opaque atom — and the atom universe
/// their sign cells range over. It is collected once per lint: the lint
/// reads it to decide whether lowering could change the report at all, and
/// [`lower_family`] lowers it.
#[derive(Debug)]
pub(crate) struct PredicateFamily {
    queries: Vec<usize>,
    alphas: Vec<f64>,
    exprs: Vec<ExprId>,
    /// Sorted by id; an atom's position is its index in every sign vector.
    atoms: Vec<ExprId>,
}

impl PredicateFamily {
    /// Selects the workload's lowerable predicate queries (`nnf[i]` is
    /// query `i`'s canonical id) and collects their atoms.
    pub(crate) fn collect(workload: &WorkloadSpec, nnf: &[Option<ExprId>], alpha_cut: f64) -> Self {
        let pool = workload.pool();
        let mut family = PredicateFamily {
            queries: Vec::new(),
            alphas: Vec::new(),
            exprs: Vec::new(),
            atoms: Vec::new(),
        };
        for (i, q) in workload.queries().iter().enumerate() {
            if let QueryKind::Pred(_) = &q.kind {
                let id = nnf[i].expect("pred query has an nnf id");
                let alpha = q.noise.effective_alpha();
                if alpha <= alpha_cut && !pool.contains_opaque(id) {
                    family.queries.push(i);
                    family.alphas.push(alpha);
                    family.exprs.push(id);
                    family.atoms.extend(pool.collect_atoms(id));
                }
            }
        }
        family.atoms.sort_unstable();
        family.atoms.dedup();
        family
    }

    /// Per-query effective error bounds, in declaration order.
    pub(crate) fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// The width every sign cell of the lowering would have, when it is the
    /// same for all: `n` exactly iff no atom of the universe has a design
    /// weight (every factor of [`Cell::width_hi`]'s product is then 1).
    pub(crate) fn uniform_cell_width(&self, pool: &PredPool, n: usize) -> Option<f64> {
        self.atoms
            .iter()
            .all(|&a| pool.atom_design_weight(a).is_none())
            .then_some(n as f64)
    }

    /// An upper bound on the cells any lowering of the family holds at
    /// once: `2^atoms`, since every split forces one more open atom of a
    /// cell's sign vector (saturating at `usize::MAX`).
    pub(crate) fn cell_bound(&self) -> usize {
        u32::try_from(self.atoms.len())
            .ok()
            .and_then(|k| 1usize.checked_shl(k))
            .unwrap_or(usize::MAX)
    }
}

/// Lowers the workload's predicate queries with `effective_alpha ≤
/// alpha_cut` (and no opaque atoms) into a matrix whose cells are the
/// satisfiable sign assignments over the queries' atoms. Cells are built by
/// successive refinement: each query splits a cell only on the atom that
/// blocks its membership from being decided ([`PredPool::eval_signed`]), so
/// correlated workloads (prefix chains, drill-downs) stay at a handful of
/// cells instead of `2^atoms`. Assignments that are *provably* empty — two
/// positive value tests on one column, disjoint positive ranges,
/// complementary designed atoms — are dropped; anything else is kept, which
/// only ever over-counts cells (under-fires the rank lint: conservative).
pub fn lower_predicates(
    workload: &WorkloadSpec,
    nnf: &[Option<ExprId>],
    alpha_cut: f64,
    caps: MatrixCaps,
) -> Lowered {
    lower_family(
        workload,
        PredicateFamily::collect(workload, nnf, alpha_cut),
        caps,
    )
}

/// [`lower_predicates`] over an already collected family. Returns
/// [`Lowered::Truncated`] only once the refinement holds more than
/// `caps.max_cells` cells (the one being split included), so never when
/// [`PredicateFamily::cell_bound`] ≤ `caps.max_cells`.
pub(crate) fn lower_family(
    workload: &WorkloadSpec,
    family: PredicateFamily,
    caps: MatrixCaps,
) -> Lowered {
    let pool = workload.pool();
    let n = workload.n_rows();
    let PredicateFamily {
        queries,
        alphas,
        exprs,
        atoms,
    } = family;
    if queries.is_empty() || n == 0 {
        return Lowered::Empty;
    }
    let atom_index = |atom: ExprId| {
        atoms
            .binary_search(&atom)
            .expect("every atom of a lowered query is in the universe")
    };

    let mut cells = vec![SignCell {
        signs: vec![0i8; atoms.len()],
        members: BitVec::zeros(queries.len()),
    }];

    for (qi, &expr) in exprs.iter().enumerate() {
        let mut next: Vec<SignCell> = Vec::with_capacity(cells.len());
        // Worklist: cells still undecided on this query split until decided.
        let mut work: Vec<SignCell> = cells.drain(..).rev().collect();
        while let Some(cell) = work.pop() {
            if next.len() + work.len() >= caps.max_cells {
                return Lowered::Truncated;
            }
            let verdict = pool.eval_signed(expr, &|atom| match cell.signs[atom_index(atom)] {
                0 => None,
                s => Some(s > 0),
            });
            match verdict {
                Ok(is_member) => {
                    let mut cell = cell;
                    if is_member {
                        cell.members.set(qi, true);
                    }
                    next.push(cell);
                }
                Err(blocking) => {
                    // Split on the blocking atom: the positive half is a
                    // copy, kept only if satisfiable; the negative half
                    // reuses the cell. Positive first, so the negative
                    // half is refined next.
                    let ai = atom_index(blocking);
                    let mut cell = cell;
                    if signs_satisfiable(pool, &atoms, &cell.signs, ai) {
                        let mut positive = cell.clone();
                        positive.signs[ai] = 1;
                        work.push(positive);
                    }
                    cell.signs[ai] = -1;
                    work.push(cell);
                }
            }
        }
        cells = next;
    }

    let mut rows = vec![BitVec::zeros(cells.len()); queries.len()];
    let cells = cells
        .into_iter()
        .enumerate()
        .map(|(c, cell)| {
            for qi in cell.members.iter_ones() {
                rows[qi].set(c, true);
            }
            Cell {
                width_hi: n as f64 * sign_weight_hi(pool, &atoms, &cell.signs),
                region: Region::Signs(cell.signs),
            }
        })
        .collect();
    Lowered::Built(QueryMatrix {
        queries,
        alphas,
        rows,
        cells,
        kind: MatrixKind::PredicateSigns,
        atoms,
    })
}

/// Cheap per-column consistency check for forcing atom `changed` true on
/// top of `signs` (whatever `signs[changed]` holds is ignored): positive
/// constraints that provably cannot hold together make the assignment
/// unsatisfiable. Anything this cannot decide is kept
/// (conservative over-counting of cells).
fn signs_satisfiable(pool: &PredPool, atoms: &[ExprId], signs: &[i8], changed: usize) -> bool {
    let changed_atom = pool.atom_payload(atoms[changed]).expect("atom id");
    for (i, &sign) in signs.iter().enumerate() {
        if sign <= 0 || i == changed {
            continue;
        }
        let other = pool.atom_payload(atoms[i]).expect("atom id");
        if positive_pair_conflicts(changed_atom, other) {
            return false;
        }
    }
    true
}

/// True iff two atoms, both required to hold, provably conflict.
fn positive_pair_conflicts(a: &Atom, b: &Atom) -> bool {
    use Atom::*;
    match (a, b) {
        (ValueEquals { col: c1, value: v1 }, ValueEquals { col: c2, value: v2 }) => {
            c1 == c2 && v1 != v2
        }
        (ValueEquals { col: c1, value }, IntRange { col: c2, lo, hi })
        | (IntRange { col: c2, lo, hi }, ValueEquals { col: c1, value }) => {
            c1 == c2 && matches!(value, so_data::Value::Int(v) if v < lo || v > hi)
        }
        (
            IntRange {
                col: c1,
                lo: lo1,
                hi: hi1,
            },
            IntRange {
                col: c2,
                lo: lo2,
                hi: hi2,
            },
        ) => c1 == c2 && (lo1.max(lo2) > hi1.min(hi2)),
        (BitExtract { bit: b1, value: v1 }, BitExtract { bit: b2, value: v2 }) => {
            b1 == b2 && v1 != v2
        }
        (
            KeyedHash {
                key: k1,
                modulus: m1,
                target: t1,
            },
            KeyedHash {
                key: k2,
                modulus: m2,
                target: t2,
            },
        ) => k1 == k2 && m1 == m2 && t1 != t2,
        _ => false,
    }
}

/// Upper bound on the fraction of the record space in a sign cell, under
/// the product model: designed atoms contribute their weight (`w` positive,
/// `1 − w` negative), data-dependent atoms contribute 1 (vacuous).
fn sign_weight_hi(pool: &PredPool, atoms: &[ExprId], signs: &[i8]) -> f64 {
    let mut w = 1.0f64;
    for (i, &sign) in signs.iter().enumerate() {
        if sign == 0 {
            continue;
        }
        if let Some(dw) = pool.atom_design_weight(atoms[i]) {
            w *= if sign > 0 { dw } else { 1.0 - dw };
        }
    }
    w
}

/// Renders a sign assignment over `atoms` for evidence payloads.
fn sign_label(pool: &PredPool, atoms: &[ExprId], signs: &[i8]) -> String {
    let parts: Vec<String> = signs
        .iter()
        .enumerate()
        .filter(|&(_, &s)| s != 0)
        .map(|(i, &s)| {
            let rendered = pool.render(atoms[i]);
            if s > 0 {
                rendered
            } else {
                format!("NOT {rendered}")
            }
        })
        .collect();
    if parts.is_empty() {
        "everything".to_owned()
    } else {
        parts.join(" ∧ ")
    }
}

// ---------------------------------------------------------------------------
// Rank estimation.

/// GF(2) rank of the rows, with early exit once `limit` is reached.
/// For 0/1 matrices GF(2) rank never exceeds the rational rank, so full
/// GF(2) column rank is *proof* of full rational rank.
pub fn gf2_rank(rows: &[BitVec], limit: usize) -> usize {
    // pivots[k] = (leading bit index, reduced row).
    let mut pivots: Vec<(usize, BitVec)> = Vec::new();
    for row in rows {
        if pivots.len() >= limit {
            break;
        }
        let mut v = row.clone();
        for (lead, p) in &pivots {
            if v.get(*lead) {
                v.xor_assign(p);
            }
        }
        if let Some(lead) = v.next_set_bit(0) {
            pivots.push((lead, v));
        }
    }
    pivots.len()
}

/// Tolerance for treating an `f64` Gaussian-elimination residual as zero;
/// entries are 0/1 and the matrices are small, so this is generous.
const RANK_TOL: f64 = 1e-7;

/// A Gauss–Jordan row basis over the rationals (computed in `f64`), with
/// each basis vector's expression as a combination of the original rows —
/// the structure behind both the rational rank *estimate* and the
/// `SO-COVER` span test with citable contributing query indices.
pub struct RowBasis {
    n_cells: usize,
    n_rows: usize,
    /// `(pivot column, basis vector over cells, combination over rows)`.
    /// A combination stops at its last row that can be nonzero; later
    /// entries are zero.
    basis: Vec<(usize, Vec<f64>, Vec<f64>)>,
}

impl RowBasis {
    /// Builds the basis from the rows whose index passes `keep`.
    pub fn build(rows: &[BitVec], n_cells: usize, keep: impl Fn(usize) -> bool) -> RowBasis {
        let mut b = RowBasis {
            n_cells,
            n_rows: rows.len(),
            basis: Vec::new(),
        };
        for (ri, row) in rows.iter().enumerate() {
            if !keep(ri) || b.basis.len() >= n_cells {
                continue;
            }
            let mut v: Vec<f64> = (0..n_cells)
                .map(|c| if row.get(c) { 1.0 } else { 0.0 })
                .collect();
            // Only rows 0..=ri can take part in a combination so far, so
            // the vector stops there; older ones grow in the Jordan step.
            let mut combo = vec![0.0f64; ri + 1];
            combo[ri] = 1.0;
            b.reduce(&mut v, &mut combo);
            // Partial pivoting: the largest surviving entry becomes the pivot.
            let Some((pivot, mag)) = v
                .iter()
                .enumerate()
                .map(|(c, x)| (c, x.abs()))
                .max_by(|a, b| a.1.total_cmp(&b.1))
            else {
                continue;
            };
            if mag < RANK_TOL {
                continue;
            }
            let scale = v[pivot];
            for x in v.iter_mut() {
                *x /= scale;
            }
            for x in combo.iter_mut() {
                *x /= scale;
            }
            // Jordan step: clear the new pivot column from the older basis.
            for (_, bv, bc) in b.basis.iter_mut() {
                let coef = bv[pivot];
                if coef != 0.0 {
                    for (x, y) in bv.iter_mut().zip(&v) {
                        *x -= coef * y;
                    }
                    bc.resize(combo.len(), 0.0);
                    for (x, y) in bc.iter_mut().zip(&combo) {
                        *x -= coef * y;
                    }
                }
            }
            b.basis.push((pivot, v, combo));
        }
        b
    }

    /// Eliminates the basis pivots from `v`, carrying the row combination
    /// along; `combo` must be at least as long as every basis combination.
    fn reduce(&self, v: &mut [f64], combo: &mut [f64]) {
        for (pivot, bv, bc) in &self.basis {
            let coef = v[*pivot];
            if coef != 0.0 {
                for (x, y) in v.iter_mut().zip(bv) {
                    *x -= coef * y;
                }
                for (x, y) in combo.iter_mut().zip(bc) {
                    *x -= coef * y;
                }
            }
        }
    }

    /// The rational rank estimate: the basis size.
    pub fn rank(&self) -> usize {
        self.basis.len()
    }

    /// Tests whether the unit vector of `cell` lies in the row span. On
    /// success returns the indices of the rows with a nonzero coefficient
    /// in one witnessing combination — the queries whose answers isolate
    /// the cell.
    pub fn span_witness(&self, cell: usize) -> Option<Vec<usize>> {
        assert!(cell < self.n_cells);
        let mut v = vec![0.0f64; self.n_cells];
        v[cell] = 1.0;
        let mut combo = vec![0.0f64; self.n_rows];
        self.reduce(&mut v, &mut combo);
        if v.iter().any(|x| x.abs() > RANK_TOL) {
            return None;
        }
        // v was consumed into the basis: the accumulated combination (with
        // flipped sign) reproduces e_cell from the original rows.
        Some(
            combo
                .iter()
                .enumerate()
                .filter(|&(_, c)| c.abs() > 1e-6)
                .map(|(i, _)| i)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_plan::shape::PredShape;
    use so_plan::workload::Noise;
    use so_query::query::SubsetQuery;

    fn caps() -> MatrixCaps {
        MatrixCaps {
            max_cells: 1024,
            bit_budget: 1 << 23,
        }
    }

    #[test]
    fn subset_lowering_groups_rows_into_cells() {
        // {0,1}, {1,2}, {0,2} over 10 rows: rows 0/1/2 have distinct
        // signatures, rows 3..9 share the all-zero signature.
        let mut w = WorkloadSpec::new(10);
        for idx in [[0usize, 1], [1, 2], [0, 2]] {
            w.push_subset(&SubsetQuery::from_indices(10, &idx), Noise::Exact);
        }
        let Lowered::Built(m) = lower_subsets(&w, 0.0, caps()) else {
            panic!("expected a matrix");
        };
        assert_eq!(m.kind, MatrixKind::SubsetMasks);
        assert_eq!(m.cells.len(), 4);
        assert_eq!(m.queries, vec![0, 1, 2]);
        let widths: Vec<f64> = m.cells.iter().map(|c| c.width_hi).collect();
        assert_eq!(widths, vec![1.0, 1.0, 1.0, 7.0]);
        // Each query covers exactly its two singleton cells.
        for row in &m.rows {
            assert_eq!(row.count_ones(), 2);
        }
        // GF(2) rank is 2 (the three rows sum to zero mod 2); the rational
        // rank is 3 — exactly the case where GF(2) alone under-estimates.
        assert_eq!(gf2_rank(&m.rows, m.cells.len()), 2);
        let basis = RowBasis::build(&m.rows, m.cells.len(), |_| true);
        assert_eq!(basis.rank(), 3);
        // Cell 0 (= row 0) is isolated by the half-sum combination.
        let witness = basis.span_witness(0).expect("in span");
        assert_eq!(witness, vec![0, 1, 2]);
        // The wide zero cell is NOT isolated.
        assert!(basis.span_witness(3).is_none());
    }

    #[test]
    fn subset_lowering_respects_alpha_cut_and_budget() {
        let mut w = WorkloadSpec::new(10);
        w.push_subset(
            &SubsetQuery::from_indices(10, &[0, 1]),
            Noise::PureDp { epsilon: 0.1 },
        );
        assert!(matches!(lower_subsets(&w, 1.0, caps()), Lowered::Empty));
        let mut w = WorkloadSpec::new(10);
        w.push_subset(&SubsetQuery::from_indices(10, &[0, 1]), Noise::Exact);
        let tight = MatrixCaps {
            max_cells: 1,
            bit_budget: 1 << 23,
        };
        assert!(matches!(lower_subsets(&w, 0.0, tight), Lowered::Truncated));
    }

    #[test]
    fn predicate_lowering_builds_departure_cells_for_prefix_chains() {
        // Prefix descent of depth 4: refinement by queries yields the 5
        // departure-depth cells, not 2^4 assignments.
        let bits = [true, false, true, true];
        let mut w = WorkloadSpec::new(100);
        for d in 0..=bits.len() {
            w.push_shape(
                &PredShape::Prefix {
                    bits: bits[..d].to_vec(),
                },
                Noise::Exact,
            );
        }
        let nnf: Vec<Option<ExprId>> = w
            .queries()
            .iter()
            .map(|q| match &q.kind {
                QueryKind::Pred(id) => Some(*id),
                _ => None,
            })
            .collect();
        let Lowered::Built(m) = lower_predicates(&w, &nnf, 0.0, caps()) else {
            panic!("expected a matrix");
        };
        assert_eq!(m.kind, MatrixKind::PredicateSigns);
        assert_eq!(m.cells.len(), 5, "departure depths 1..4 plus the core");
        assert_eq!(gf2_rank(&m.rows, 5), 5, "triangular, full rank");
        // The deepest cell is the full prefix: width 100 · 2^-4.
        let narrowest = m
            .cells
            .iter()
            .map(|c| c.width_hi)
            .fold(f64::INFINITY, f64::min);
        assert!((narrowest - 100.0 * 2.0f64.powi(-4)).abs() < 1e-9);
    }

    #[test]
    fn predicate_lowering_prunes_conflicting_value_cells() {
        // dept=0..2 on one column: positive/positive conflicts are pruned,
        // so cells are {d0, d1, d2, none}, not 2^3 assignments.
        let mut w = WorkloadSpec::new(50);
        for d in 0..3i64 {
            w.push_shape(
                &PredShape::ValueEquals {
                    col: 0,
                    value: so_data::Value::Int(d),
                },
                Noise::Exact,
            );
        }
        let nnf: Vec<Option<ExprId>> = w
            .queries()
            .iter()
            .map(|q| match &q.kind {
                QueryKind::Pred(id) => Some(*id),
                _ => None,
            })
            .collect();
        let Lowered::Built(m) = lower_predicates(&w, &nnf, 0.0, caps()) else {
            panic!("expected a matrix");
        };
        assert_eq!(m.cells.len(), 4);
        // Data-dependent atoms: every width bound is vacuous (= n).
        assert!(m.cells.iter().all(|c| c.width_hi >= 50.0 - 1e-9));
    }

    #[test]
    fn gf2_rank_early_exit_and_duplicates() {
        let rows: Vec<BitVec> = [[true, false], [false, true], [true, true], [true, false]]
            .iter()
            .map(|r| BitVec::from_bools(r))
            .collect();
        assert_eq!(gf2_rank(&rows, 2), 2);
        assert_eq!(gf2_rank(&rows, 64), 2, "third/fourth rows dependent");
    }
}
