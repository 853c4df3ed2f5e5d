//! Subset-sum queries over binary datasets.

use so_data::BitVec;

/// A subset query `q ⊆ [n]` in the Dinur–Nissim setting: membership is a bit
/// mask over record indices, and the true answer against `x ∈ {0,1}^n` is
/// `Σ_{i∈q} x_i`.
#[derive(Debug, Clone)]
pub struct SubsetQuery {
    members: BitVec,
}

impl SubsetQuery {
    /// Builds a query from a membership mask.
    pub fn new(members: BitVec) -> Self {
        SubsetQuery { members }
    }

    /// Builds from explicit indices.
    ///
    /// # Panics
    /// Panics if any index is `>= n`.
    pub fn from_indices(n: usize, indices: &[usize]) -> Self {
        let mut members = BitVec::zeros(n);
        for &i in indices {
            members.set(i, true);
        }
        SubsetQuery { members }
    }

    /// The membership mask.
    pub fn members(&self) -> &BitVec {
        &self.members
    }

    /// Universe size `n`.
    pub fn n(&self) -> usize {
        self.members.len()
    }

    /// Number of members `|q|`.
    pub fn size(&self) -> usize {
        self.members.count_ones()
    }

    /// True iff index `i` is in the subset.
    pub fn contains(&self, i: usize) -> bool {
        self.members.get(i)
    }

    /// Exact answer `Σ_{i∈q} x_i` against the secret dataset `x`.
    ///
    /// # Panics
    /// Panics if `x.len() != n`.
    pub fn true_answer(&self, x: &BitVec) -> u64 {
        assert_eq!(x.len(), self.members.len(), "dataset/query size mismatch");
        self.members.and_count(x) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_query_true_answer() {
        let x = BitVec::from_bools(&[true, false, true, true, false]);
        let q = SubsetQuery::from_indices(5, &[0, 1, 2]);
        assert_eq!(q.true_answer(&x), 2);
        assert_eq!(q.size(), 3);
        assert_eq!(q.n(), 5);
        assert!(q.contains(1));
        assert!(!q.contains(3));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_panics() {
        let x = BitVec::zeros(4);
        SubsetQuery::from_indices(5, &[0]).true_answer(&x);
    }
}
