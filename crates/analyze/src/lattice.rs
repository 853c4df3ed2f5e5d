//! Tracker-chain search over the subset lattice of cell sets.
//!
//! A *tracker* (Denning–Denning–Schwartz's individual tracker, generalized
//! here to the query-matrix setting) is a sequence of individually
//! innocuous admitted queries whose answers, combined by repeated
//! differencing, pin down a region small enough to single out a record:
//! whenever the cell set of one released quantity strictly contains
//! another's, their difference is a new derivable quantity — `count(D) −
//! count(Q) = count(D ∖ Q)` exactly when `Q ⊆ D` — and the derivation can
//! chain. This module runs a budgeted breadth-first search over those
//! derivable cell sets and reports every chain that reaches a nonempty
//! region whose design width is at most the isolation threshold. The
//! `SO-DIFF` lint is the two-query special case restricted to syntactic
//! mask/conjunct containment; the lattice search subsumes shapes it cannot
//! see, e.g. differences that only exist at the cell level because a query
//! was built with disjunctions.
//!
//! Error tracking: each step adds the contributing query's worst-case
//! answer error (`effective_alpha`), and chains whose accumulated bound
//! reaches 0.5 are pruned — a derived count that may be off by half a row
//! either way no longer certifies a unique individual, so noisy (DP)
//! releases break the chain exactly as the paper prescribes.

use std::collections::HashSet;

use so_data::BitVec;

use crate::matrix::QueryMatrix;

/// One derivation found by the search.
#[derive(Debug, Clone)]
pub struct Chain {
    /// Matrix-row indices (positions in [`QueryMatrix::queries`]) of the
    /// contributing queries, in derivation order.
    pub rows: Vec<usize>,
    /// The derived region's cells.
    pub cells: Vec<usize>,
    /// Upper bound on the derived region's expected row count.
    pub width_hi: f64,
    /// Accumulated worst-case error of the derived count.
    pub err_bound: f64,
}

/// Search outcome: the chains found plus cost accounting.
#[derive(Debug, Default)]
pub struct TrackerSearch {
    /// Chains reaching a nonempty region of width ≤ threshold, in
    /// discovery (BFS) order.
    pub chains: Vec<Chain>,
    /// Set differences examined.
    pub combos_examined: usize,
    /// True iff the budget ran out before the frontier was exhausted.
    pub truncated: bool,
}

/// Accumulated error at which a chain stops certifying a unique record.
const ERR_CEILING: f64 = 0.5;

/// Breadth-first tracker-chain search over `matrix`.
///
/// * `threshold` — maximum design width of a reported region (the lint's
///   isolation threshold `t`).
/// * `budget` — maximum set differences to examine before giving up.
/// * `max_chain` — maximum queries per chain (bounds frontier depth).
/// * `max_found` — stop after this many chains (reporting cap).
pub fn search(
    matrix: &QueryMatrix,
    threshold: f64,
    budget: usize,
    max_chain: usize,
    max_found: usize,
) -> TrackerSearch {
    let mut out = TrackerSearch::default();
    let n_rows = matrix.rows.len();
    if n_rows < 2 || max_chain < 2 || max_found == 0 {
        return out;
    }
    // Rows eligible to contribute: finite error (DP rows never certify).
    let eligible: Vec<usize> = (0..n_rows)
        .filter(|&r| matrix.alphas[r].is_finite() && matrix.alphas[r] < ERR_CEILING)
        .collect();

    // The set membership test only — iteration never touches this, so the
    // search order (and therefore the report) is deterministic.
    let mut visited: HashSet<BitVec> = HashSet::new();
    struct Node {
        cells: BitVec,
        rows: Vec<usize>,
        err: f64,
    }
    let mut frontier: Vec<Node> = Vec::new();
    for &r in &eligible {
        visited.insert(matrix.rows[r].clone());
    }
    for &r in &eligible {
        frontier.push(Node {
            cells: matrix.rows[r].clone(),
            rows: vec![r],
            err: matrix.alphas[r],
        });
    }

    let mut head = 0usize;
    while head < frontier.len() {
        let node_cells = frontier[head].cells.clone();
        let node_rows = frontier[head].rows.clone();
        let node_err = frontier[head].err;
        head += 1;
        if node_rows.len() >= max_chain {
            continue;
        }
        for &r in &eligible {
            if node_rows.contains(&r) {
                continue;
            }
            if out.combos_examined >= budget {
                out.truncated = true;
                return out;
            }
            out.combos_examined += 1;
            let q = &matrix.rows[r];
            // Strict containment one way or the other yields a difference;
            // for nested sets it is their symmetric difference.
            if !q.is_subset_of(&node_cells) && !node_cells.is_subset_of(q) {
                continue;
            }
            let mut derived = node_cells.clone();
            derived.xor_assign(q);
            if derived.is_zero() || visited.contains(&derived) {
                continue;
            }
            let err = node_err + matrix.alphas[r];
            if err >= ERR_CEILING {
                continue;
            }
            visited.insert(derived.clone());
            let mut rows = node_rows.clone();
            rows.push(r);
            let width_hi: f64 = derived.iter_ones().map(|c| matrix.cells[c].width_hi).sum();
            if width_hi <= threshold {
                out.chains.push(Chain {
                    rows: rows.clone(),
                    cells: derived.indices(),
                    width_hi,
                    err_bound: err,
                });
                if out.chains.len() >= max_found {
                    return out;
                }
            }
            frontier.push(Node {
                cells: derived,
                rows,
                err,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{lower_subsets, Lowered, MatrixCaps};
    use so_plan::workload::{Noise, WorkloadSpec};
    use so_query::query::SubsetQuery;

    fn caps() -> MatrixCaps {
        MatrixCaps {
            max_cells: 1024,
            bit_budget: 1 << 23,
        }
    }

    fn matrix_of(w: &WorkloadSpec) -> QueryMatrix {
        match lower_subsets(w, 1.0, caps()) {
            Lowered::Built(m) => m,
            other => panic!("expected a matrix, got {other:?}"),
        }
    }

    #[test]
    fn classic_tracker_pair_is_found() {
        // Whole population minus a complement isolates one row.
        let mut w = WorkloadSpec::new(8);
        w.push_subset(
            &SubsetQuery::from_indices(8, &(0..8).collect::<Vec<_>>()),
            Noise::Exact,
        );
        w.push_subset(
            &SubsetQuery::from_indices(8, &(1..8).collect::<Vec<_>>()),
            Noise::Exact,
        );
        let m = matrix_of(&w);
        let found = search(&m, 1.0, 10_000, 8, 8);
        assert!(!found.truncated);
        assert_eq!(found.chains.len(), 1);
        assert_eq!(found.chains[0].rows, vec![0, 1]);
        assert!((found.chains[0].width_hi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn three_step_chain_through_an_intermediate_difference() {
        // A = {0..5}, B = {4..7}, C = {4,5,6}: no pair is nested, but
        // (B ∖ (B∖A)) … via cells: B∖C = {7}? C ⊂ B so B∖C = {7}, that's a
        // pair. Use A={0,1,2,3}, B={2,3,4,5}, C={2,3,4}: C ⊂ B gives
        // B∖C={5}; chain len 2. For a genuine 3-chain: A={0,1,2,3},
        // B={0,1}, C={2}: A∖B={2,3}, then ∖C={3}.
        let mut w = WorkloadSpec::new(12);
        w.push_subset(&SubsetQuery::from_indices(12, &[0, 1, 2, 3]), Noise::Exact);
        w.push_subset(&SubsetQuery::from_indices(12, &[0, 1]), Noise::Exact);
        w.push_subset(&SubsetQuery::from_indices(12, &[2]), Noise::Exact);
        let m = matrix_of(&w);
        let found = search(&m, 1.0, 10_000, 8, 8);
        assert!(found
            .chains
            .iter()
            .any(|c| c.rows == vec![0, 1, 2] && (c.width_hi - 1.0).abs() < 1e-12));
    }

    #[test]
    fn noisy_rows_break_the_chain() {
        let mut w = WorkloadSpec::new(8);
        let all: Vec<usize> = (0..8).collect();
        w.push_subset(
            &SubsetQuery::from_indices(8, &all),
            Noise::Bounded { alpha: 0.3 },
        );
        w.push_subset(
            &SubsetQuery::from_indices(8, &(1..8).collect::<Vec<_>>()),
            Noise::Bounded { alpha: 0.3 },
        );
        let m = matrix_of(&w);
        // 0.3 + 0.3 ≥ 0.5: the derived count no longer certifies a record.
        assert!(search(&m, 1.0, 10_000, 8, 8).chains.is_empty());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut w = WorkloadSpec::new(16);
        for i in 0..8 {
            w.push_subset(
                &SubsetQuery::from_indices(16, &(0..=i).collect::<Vec<_>>()),
                Noise::Exact,
            );
        }
        let m = matrix_of(&w);
        let found = search(&m, 0.0, 3, 8, 8);
        assert!(found.truncated);
        assert_eq!(found.combos_examined, 3);
    }
}
