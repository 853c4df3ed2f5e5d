//! Word-parallel selection bitmaps.
//!
//! A [`SelectionVector`] marks a subset of the rows of a dataset: bit `i` is
//! set iff row `i` is selected. Storage is packed `u64` blocks, so the
//! boolean algebra of predicates (AND/OR/NOT) and the counting queries built
//! on top of them (popcount) run 64 rows per instruction instead of one.
//! This is the execution currency of `so-query`'s columnar scan kernels:
//! each column predicate is evaluated once into a bitmap, and compound
//! predicates combine bitmaps with word ops.
//!
//! Invariant: bits at positions `>= len` in the last block are always zero,
//! so `count` and the combinators never see garbage in the tail word.

use std::fmt;

/// A packed bitmap over `len` row positions.
///
/// ```
/// use so_data::SelectionVector;
/// let evens = SelectionVector::from_fn(10, |i| i % 2 == 0);
/// let small = SelectionVector::from_fn(10, |i| i < 5);
/// let both = evens.and(&small);
/// assert_eq!(both.count(), 3); // rows 0, 2, 4
/// assert_eq!(both.indices(), vec![0, 2, 4]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SelectionVector {
    words: Vec<u64>,
    len: usize,
}

impl SelectionVector {
    /// Empty selection over `len` rows (no row selected).
    pub fn none(len: usize) -> Self {
        SelectionVector {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Full selection over `len` rows (every row selected).
    pub fn all(len: usize) -> Self {
        let mut v = SelectionVector {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Builds by evaluating `f` on every row index.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut words = Vec::with_capacity(len.div_ceil(64));
        let mut i = 0;
        while i < len {
            let mut word = 0u64;
            let block = 64.min(len - i);
            for b in 0..block {
                word |= u64::from(f(i + b)) << b;
            }
            words.push(word);
            i += 64;
        }
        SelectionVector { words, len }
    }

    /// Builds from a slice of bools.
    pub fn from_bools(bits: &[bool]) -> Self {
        Self::from_fn(bits.len(), |i| bits[i])
    }

    /// Columnar scan kernel: selects the non-missing rows of a typed column
    /// slice for which `f` holds. `vals` and `missing` run in row order.
    ///
    /// Packs 64 rows per word with zipped iteration (no per-row bounds
    /// checks), which is what lets the typed predicate kernels beat the
    /// row-at-a-time path.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn from_column<T>(vals: &[T], missing: &[bool], mut f: impl FnMut(&T) -> bool) -> Self {
        assert_eq!(vals.len(), missing.len(), "column slice length mismatch");
        let len = vals.len();
        let mut words = Vec::with_capacity(len.div_ceil(64));
        // chunks_exact gives the compiler a fixed 64 trip count per word, so
        // the shift-OR packing unrolls into a tree instead of a 64-deep
        // dependency chain.
        let mut cv = vals.chunks_exact(64);
        let mut cm = missing.chunks_exact(64);
        for (v64, m64) in (&mut cv).zip(&mut cm) {
            let mut word = 0u64;
            for b in 0..64 {
                word |= u64::from(!m64[b] & f(&v64[b])) << b;
            }
            words.push(word);
        }
        let (rv, rm) = (cv.remainder(), cm.remainder());
        if !rv.is_empty() {
            let mut word = 0u64;
            for (b, (v, &m)) in rv.iter().zip(rm).enumerate() {
                word |= u64::from(!m & f(v)) << b;
            }
            words.push(word);
        }
        SelectionVector { words, len }
    }

    /// Number of row positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff there are no row positions at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "row index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "row index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of selected rows (word-parallel popcount).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of rows selected in `self` but **not** in `mask` — the
    /// word-parallel popcount of `self ∧ ¬mask`, computed without allocating
    /// an intermediate bitmap. This is the tombstone-mask merge step of the
    /// incremental engine: a cached segment selection popcounted against the
    /// segment's tombstones yields the live match count directly.
    ///
    /// Because `self`'s tail bits beyond `len` are always zero, negating
    /// `mask`'s words needs no tail handling: stray ones in `!mask` past the
    /// end are annihilated by the AND.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn count_and_not(&self, mask: &SelectionVector) -> usize {
        assert_eq!(self.len, mask.len, "selection length mismatch");
        self.words
            .iter()
            .zip(&mask.words)
            .map(|(&a, &b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Sum of `weights[i]` over the selected rows `i` — the count over a
    /// dataset of the rows a selection over its distinct-row form picks
    /// (see [`crate::Dataset::distinct_rows`]). One word loop over the set
    /// bits.
    ///
    /// # Panics
    /// Panics if `weights.len()` differs from the selection length.
    pub fn weighted_count(&self, weights: &[u64]) -> u64 {
        assert_eq!(weights.len(), self.len, "weight length mismatch");
        let mut total = 0u64;
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                total += weights[w * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
            }
        }
        total
    }

    /// True iff no row is selected.
    pub fn is_none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place intersection.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn and_assign(&mut self, other: &SelectionVector) {
        assert_eq!(self.len, other.len, "selection length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn or_assign(&mut self, other: &SelectionVector) {
        assert_eq!(self.len, other.len, "selection length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place complement (tail bits stay zero).
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Intersection `self ∧ other`.
    pub fn and(&self, other: &SelectionVector) -> SelectionVector {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// Union `self ∨ other`.
    pub fn or(&self, other: &SelectionVector) -> SelectionVector {
        let mut out = self.clone();
        out.or_assign(other);
        out
    }

    /// Complement `¬self`.
    pub fn not(&self) -> SelectionVector {
        let mut out = self.clone();
        out.not_assign();
        out
    }

    /// Indices of the selected rows, ascending.
    pub fn indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count());
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                out.push(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
        out
    }

    /// Iterates over selected row indices without materializing them.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let next = w & (w - 1);
                (next != 0).then_some(next)
            })
            .map(move |w| wi * 64 + w.trailing_zeros() as usize)
        })
    }

    /// Smallest selected index `>= from`, or `None`. Word-parallel: skips
    /// clear words 64 rows at a time.
    pub fn next_set_bit(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let mut wi = from / 64;
        let mut word = self.words[wi] & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                return Some(wi * 64 + word.trailing_zeros() as usize);
            }
            wi += 1;
            if wi == self.words.len() {
                return None;
            }
            word = self.words[wi];
        }
    }

    /// The packed words (tail bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Concatenates word-aligned shard bitmaps, in order, into one vector —
    /// the deterministic merge step of sharded parallel execution. Shard
    /// `i`'s bitmap covers the next `parts[i].len()` rows, and every part
    /// except the last must end on a word (multiple-of-64) boundary, so the
    /// merge is a pure word copy with no shifting.
    ///
    /// The merged vector's tail bits beyond the combined length are masked
    /// to zero here regardless of what the final part's last word carried,
    /// so a non-multiple-of-64 final shard can never leak set bits past
    /// `n_rows` and over-count downstream popcounts.
    ///
    /// ```
    /// use so_data::SelectionVector;
    /// let a = SelectionVector::from_fn(64, |i| i % 2 == 0);
    /// let b = SelectionVector::from_fn(70, |i| i % 2 == 0);
    /// let merged = SelectionVector::concat_aligned([a, b]);
    /// assert_eq!(merged.len(), 134);
    /// assert_eq!(merged.count(), 67);
    /// ```
    ///
    /// Zero-row parts are skipped: a zero-row shard (an empty dataset, or a
    /// delta segment that has seen no rows yet) contributes no words and no
    /// rows, so it cannot trip the alignment requirement no matter where it
    /// appears in the sequence.
    ///
    /// # Panics
    /// Panics if any non-empty part other than the last starts at a row
    /// offset that is not a multiple of 64.
    pub fn concat_aligned<I: IntoIterator<Item = SelectionVector>>(parts: I) -> SelectionVector {
        let mut words: Vec<u64> = Vec::new();
        let mut len = 0usize;
        for part in parts {
            if part.len == 0 {
                continue;
            }
            assert_eq!(
                len % 64,
                0,
                "shard boundary at row {len} is not word-aligned"
            );
            words.extend_from_slice(&part.words);
            len += part.len;
        }
        let mut out = SelectionVector { words, len };
        out.mask_tail();
        out
    }

    /// The bitmap restricted to rows `[range.start, range.end)` of `self`,
    /// re-indexed from zero — a pure word copy thanks to the word-aligned
    /// start. This is how a shard worker reads an already-cached full-length
    /// bitmap for just its rows.
    ///
    /// # Panics
    /// Panics unless `range.start` is a multiple of 64 and the range lies
    /// within the vector.
    pub fn slice_aligned(&self, range: std::ops::Range<usize>) -> SelectionVector {
        assert_eq!(range.start % 64, 0, "slice start must be word-aligned");
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {}..{} out of range {}",
            range.start,
            range.end,
            self.len
        );
        let len = range.end - range.start;
        let w0 = range.start / 64;
        let words = self.words[w0..w0 + len.div_ceil(64)].to_vec();
        let mut out = SelectionVector { words, len };
        out.mask_tail();
        out
    }

    /// Extends the vector to `new_len` rows, the new positions unselected —
    /// how a tombstone bitmap tracks a delta segment that just grew. The
    /// existing bits are unchanged; growth is amortized O(new words).
    ///
    /// # Panics
    /// Panics if `new_len < len` (tombstones never shrink; compaction
    /// replaces them wholesale).
    pub fn grow(&mut self, new_len: usize) {
        assert!(
            new_len >= self.len,
            "cannot shrink a selection from {} to {new_len} rows",
            self.len
        );
        self.words.resize(new_len.div_ceil(64), 0);
        self.len = new_len;
    }

    /// Zeroes the bits of the last word at positions `>= len`.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl fmt::Debug for SelectionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SelectionVector[{}/{} set]", self.count(), self.len)
    }
}

impl std::ops::BitAnd for &SelectionVector {
    type Output = SelectionVector;

    fn bitand(self, rhs: &SelectionVector) -> SelectionVector {
        self.and(rhs)
    }
}

impl std::ops::BitOr for &SelectionVector {
    type Output = SelectionVector;

    fn bitor(self, rhs: &SelectionVector) -> SelectionVector {
        self.or(rhs)
    }
}

impl std::ops::Not for &SelectionVector {
    type Output = SelectionVector;

    fn not(self) -> SelectionVector {
        SelectionVector::not(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_none_and_tail_masking() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 130] {
            let all = SelectionVector::all(len);
            assert_eq!(all.count(), len, "len {len}");
            let none = SelectionVector::none(len);
            assert_eq!(none.count(), 0);
            // NOT(all) must be empty even when len % 64 != 0.
            assert_eq!(all.not().count(), 0, "len {len}");
            assert_eq!(none.not().count(), len, "len {len}");
        }
    }

    #[test]
    fn weighted_count_matches_the_naive_sum() {
        for len in [0usize, 1, 63, 64, 65, 130, 200] {
            let weights: Vec<u64> = (0..len as u64).map(|i| i * i % 17 + 1).collect();
            for stride in [1usize, 2, 3, 7, 64] {
                let sel = SelectionVector::from_fn(len, |i| i % stride == 0);
                let naive: u64 = (0..len).filter(|&i| sel.get(i)).map(|i| weights[i]).sum();
                assert_eq!(
                    sel.weighted_count(&weights),
                    naive,
                    "len {len} stride {stride}"
                );
            }
            assert_eq!(SelectionVector::none(len).weighted_count(&weights), 0);
            let ones = vec![1u64; len];
            assert_eq!(SelectionVector::all(len).weighted_count(&ones), len as u64);
        }
    }

    #[test]
    #[should_panic(expected = "weight length mismatch")]
    fn weighted_count_length_mismatch_panics() {
        SelectionVector::all(10).weighted_count(&[1; 9]);
    }

    #[test]
    fn from_fn_matches_get() {
        let v = SelectionVector::from_fn(100, |i| i % 3 == 0);
        for i in 0..100 {
            assert_eq!(v.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(v.count(), 34);
    }

    #[test]
    fn boolean_algebra() {
        let a = SelectionVector::from_fn(70, |i| i % 2 == 0);
        let b = SelectionVector::from_fn(70, |i| i % 3 == 0);
        let and = &a & &b;
        let or = &a | &b;
        let na = !&a;
        for i in 0..70 {
            assert_eq!(and.get(i), i % 6 == 0);
            assert_eq!(or.get(i), i % 2 == 0 || i % 3 == 0);
            assert_eq!(na.get(i), i % 2 == 1);
        }
    }

    #[test]
    fn indices_and_iter_ones_agree() {
        let v = SelectionVector::from_fn(150, |i| i % 7 == 0);
        let idx = v.indices();
        let it: Vec<usize> = v.iter_ones().collect();
        assert_eq!(idx, it);
        assert_eq!(idx, (0..150).filter(|i| i % 7 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn next_set_bit_skips_and_terminates() {
        let mut v = SelectionVector::none(200);
        v.set(0, true);
        v.set(65, true);
        v.set(199, true);
        assert_eq!(v.next_set_bit(0), Some(0));
        assert_eq!(v.next_set_bit(1), Some(65));
        assert_eq!(v.next_set_bit(66), Some(199));
        assert_eq!(v.next_set_bit(199), Some(199));
        v.set(199, false);
        assert_eq!(v.next_set_bit(66), None);
        assert_eq!(v.next_set_bit(500), None);
    }

    #[test]
    fn from_column_skips_missing() {
        let vals = [1i64, 5, 9, 5];
        let missing = [false, true, false, false];
        let v = SelectionVector::from_column(&vals, &missing, |&x| x == 5);
        assert_eq!(v.indices(), vec![3]);
    }

    #[test]
    fn set_and_clear_round_trip() {
        let mut v = SelectionVector::none(66);
        v.set(65, true);
        assert!(v.get(65));
        assert_eq!(v.count(), 1);
        v.set(65, false);
        assert!(v.is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        SelectionVector::none(10).get(10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_length_mismatch_panics() {
        let mut a = SelectionVector::none(10);
        a.and_assign(&SelectionVector::none(11));
    }

    #[test]
    fn concat_aligned_round_trips_any_split() {
        // Splitting a bitmap at word boundaries and merging it back must be
        // the identity, for totals on and off multiples of 64.
        for n in [1usize, 63, 64, 65, 127, 128, 130, 300] {
            let full = SelectionVector::from_fn(n, |i| i % 3 == 0);
            for cut_words in [1usize, 2] {
                let cut = cut_words * 64;
                let parts = if cut < n {
                    vec![full.slice_aligned(0..cut), full.slice_aligned(cut..n)]
                } else {
                    vec![full.slice_aligned(0..n)]
                };
                let merged = SelectionVector::concat_aligned(parts);
                assert_eq!(merged, full, "n={n} cut={cut}");
                assert_eq!(merged.count(), full.count(), "n={n} cut={cut}");
            }
        }
    }

    #[test]
    fn concat_aligned_masks_final_shard_tail() {
        // The final shard ends mid-word (70 % 64 != 0). A NOT on the merged
        // vector exercises the tail invariant: if merge left bits set past
        // n_rows the popcount would over-count.
        let a = SelectionVector::from_fn(64, |_| true);
        let b = SelectionVector::from_fn(70, |_| true);
        let merged = SelectionVector::concat_aligned([a, b]);
        assert_eq!(merged.len(), 134);
        assert_eq!(merged.count(), 134);
        assert_eq!(merged.not().count(), 0);
        // Tail word holds exactly 134 - 128 = 6 set bits, nothing above.
        assert_eq!(merged.words().last().unwrap() >> (134 % 64), 0);
    }

    #[test]
    fn concat_aligned_empty_and_single() {
        let empty = SelectionVector::concat_aligned(std::iter::empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.count(), 0);
        let one = SelectionVector::concat_aligned([SelectionVector::from_fn(10, |i| i < 3)]);
        assert_eq!(one.len(), 10);
        assert_eq!(one.count(), 3);
    }

    #[test]
    #[should_panic(expected = "not word-aligned")]
    fn concat_aligned_rejects_misaligned_interior_shard() {
        let _ = SelectionVector::concat_aligned([
            SelectionVector::none(10), // 10 % 64 != 0 and not the last part
            SelectionVector::none(64),
        ]);
    }

    #[test]
    fn concat_aligned_skips_zero_row_parts() {
        // A zero-row shard contributes nothing and must never trip the
        // alignment assert — including after a misaligned final-style part.
        let tail = SelectionVector::from_fn(10, |i| i < 4);
        let merged = SelectionVector::concat_aligned([
            SelectionVector::none(0),
            tail.clone(),
            SelectionVector::none(0),
        ]);
        assert_eq!(merged.len(), 10);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged, tail);
        // All-empty input: a well-formed zero-row vector.
        let empty =
            SelectionVector::concat_aligned([SelectionVector::none(0), SelectionVector::none(0)]);
        assert_eq!(empty.len(), 0);
        assert!(empty.is_none());
        // Zero-row parts interleaved with word-aligned parts stay aligned.
        let a = SelectionVector::from_fn(64, |i| i % 2 == 0);
        let b = SelectionVector::from_fn(30, |i| i % 2 == 1);
        let merged = SelectionVector::concat_aligned([
            SelectionVector::none(0),
            a.clone(),
            SelectionVector::none(0),
            b.clone(),
        ]);
        assert_eq!(merged.len(), 94);
        assert_eq!(merged.count(), a.count() + b.count());
    }

    #[test]
    fn concat_and_slice_aligned_handle_empty_datasets() {
        // Proptest-shaped sweep over zero-row shard placements: splitting a
        // bitmap (including the n=0 bitmap) at any word-aligned cuts, with
        // empty shards salted anywhere, must round-trip.
        for n in [0usize, 1, 63, 64, 65, 128, 200] {
            let full = SelectionVector::from_fn(n, |i| i % 5 == 0);
            for cut in [0usize, 64, 128] {
                let cut = cut.min(n);
                if cut % 64 != 0 {
                    continue;
                }
                let parts = vec![
                    SelectionVector::none(0),
                    full.slice_aligned(0..cut),
                    SelectionVector::none(0),
                    full.slice_aligned(cut..n),
                    SelectionVector::none(0),
                ];
                let merged = SelectionVector::concat_aligned(parts);
                assert_eq!(merged, full, "n={n} cut={cut}");
            }
            // slice_aligned at n=0 / empty aligned ranges is well-formed.
            let s = full.slice_aligned(0..0);
            assert_eq!(s.len(), 0);
            assert!(s.is_none());
            if n >= 64 {
                let s = full.slice_aligned(64..64);
                assert_eq!(s.len(), 0);
            }
        }
    }

    #[test]
    fn count_and_not_matches_materialized_difference() {
        for n in [0usize, 1, 63, 64, 65, 130, 300] {
            let sel = SelectionVector::from_fn(n, |i| i % 3 == 0);
            let tomb = SelectionVector::from_fn(n, |i| i % 4 == 0);
            let expect = sel.and(&tomb.not()).count();
            assert_eq!(sel.count_and_not(&tomb), expect, "n={n}");
            // Against no tombstones: the plain count.
            assert_eq!(sel.count_and_not(&SelectionVector::none(n)), sel.count());
            // Against all tombstones: zero survivors.
            assert_eq!(sel.count_and_not(&SelectionVector::all(n)), 0);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn count_and_not_length_mismatch_panics() {
        SelectionVector::none(10).count_and_not(&SelectionVector::none(11));
    }

    #[test]
    fn grow_preserves_bits_and_keeps_tail_clear() {
        let mut v = SelectionVector::from_fn(10, |i| i % 2 == 0);
        let before = v.indices();
        v.grow(10); // no-op growth
        assert_eq!(v.len(), 10);
        v.grow(130);
        assert_eq!(v.len(), 130);
        assert_eq!(v.indices(), before, "old bits survive");
        // New positions are unselected; NOT must select all of them.
        assert_eq!(v.not().count(), 130 - before.len());
        // From empty.
        let mut e = SelectionVector::none(0);
        e.grow(65);
        assert_eq!(e.len(), 65);
        assert!(e.is_none());
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn grow_rejects_shrinking() {
        SelectionVector::none(10).grow(9);
    }

    #[test]
    fn slice_aligned_matches_per_bit_reads() {
        let full = SelectionVector::from_fn(200, |i| i % 7 == 0);
        for (start, end) in [(0usize, 200usize), (64, 200), (128, 130), (64, 64)] {
            let s = full.slice_aligned(start..end);
            assert_eq!(s.len(), end - start);
            for i in 0..s.len() {
                assert_eq!(s.get(i), full.get(start + i), "start={start} i={i}");
            }
            // Slice tail must be masked even when end % 64 != 0.
            assert_eq!(s.count(), (start..end).filter(|i| i % 7 == 0).count());
        }
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn slice_aligned_rejects_misaligned_start() {
        SelectionVector::none(100).slice_aligned(10..20);
    }
}
