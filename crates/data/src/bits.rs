//! Bit vectors and bit-string datasets.
//!
//! Two of the paper's settings live over binary domains:
//!
//! * Theorem 1.1 (Dinur–Nissim) reconstructs a dataset
//!   `x ∈ {0,1}^n` from noisy subset-sum answers. We represent `x` as a
//!   [`BitVec`] of length `n`.
//! * Theorem 2.8's composition attack isolates one record in a dataset of
//!   `n` records each drawn from `{0,1}^d`; we represent that as a
//!   [`BitDataset`] (`n` rows × `d` bits).

use std::fmt;

/// A packed, fixed-length bit vector.
///
/// ```
/// use so_data::BitVec;
/// let mut x = BitVec::zeros(8);
/// x.set(0, true);
/// x.set(7, true);
/// assert_eq!(x.count_ones(), 2);
/// let y = BitVec::from_bools(&[true, false, false, false, false, false, false, false]);
/// assert_eq!(x.hamming_distance(&y), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// All-zero bit vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-one bit vector of length `len` (tail bits beyond `len` stay zero).
    pub fn ones(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        let tail = len % 64;
        if tail != 0 {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        BitVec { words, len }
    }

    /// Builds from a slice of bools, packing a whole word at a time (the
    /// old bit-at-a-time `set` loop re-read and re-wrote each word 64
    /// times). Tail bits beyond `len` stay zero.
    pub fn from_bools(bits: &[bool]) -> Self {
        fn pack_word(chunk: &[bool]) -> u64 {
            let mut word = 0u64;
            for (b, &bit) in chunk.iter().enumerate() {
                word |= u64::from(bit) << b;
            }
            word
        }
        let mut words = Vec::with_capacity(bits.len().div_ceil(64));
        let mut chunks = bits.chunks_exact(64);
        words.extend((&mut chunks).map(pack_word));
        let rem = chunks.remainder();
        if !rem.is_empty() {
            words.push(pack_word(rem));
        }
        BitVec {
            words,
            len: bits.len(),
        }
    }

    /// Builds from an iterator of bools, streaming 64 bits into each word
    /// without materializing an intermediate `Vec<bool>`.
    pub fn from_iter_bits<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut words = Vec::new();
        let mut word = 0u64;
        let mut len = 0usize;
        for bit in iter {
            word |= u64::from(bit) << (len % 64);
            len += 1;
            if len % 64 == 0 {
                words.push(word);
                word = 0;
            }
        }
        if len % 64 != 0 {
            words.push(word);
        }
        BitVec { words, len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn hamming_distance(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Number of positions set in both `self` and `other` — the subset sum
    /// `Σ_{i∈q} x_i` of a membership mask `q` against a secret column `x`,
    /// as word-parallel AND + popcount.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn and_count(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates over bits as bools.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// The underlying words (trailing bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Serializes the first `min(len, 64)` bits into a `u64`, bit `i` at
    /// position `i`. Useful as a compact record key when `len <= 64`.
    pub fn low_u64(&self) -> u64 {
        self.words.first().copied().unwrap_or(0)
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for b in self.iter() {
            write!(f, "{}", u8::from(b))?;
        }
        write!(f, "]")
    }
}

/// A dataset of `n` fixed-width bit-string records (`{0,1}^d` per record),
/// stored row-major in packed words.
#[derive(Clone, Debug)]
pub struct BitDataset {
    rows: Vec<BitVec>,
    width: usize,
}

impl BitDataset {
    /// Creates an empty dataset of records with `width` bits each.
    pub fn new(width: usize) -> Self {
        BitDataset {
            rows: Vec::new(),
            width,
        }
    }

    /// Creates from rows, checking uniform width.
    ///
    /// # Panics
    /// Panics if any row's length differs from `width`.
    pub fn from_rows(width: usize, rows: Vec<BitVec>) -> Self {
        for r in &rows {
            assert_eq!(r.len(), width, "row width mismatch");
        }
        BitDataset { rows, width }
    }

    /// Appends a record.
    ///
    /// # Panics
    /// Panics if the record width differs.
    pub fn push(&mut self, row: BitVec) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        self.rows.push(row);
    }

    /// Number of records `n`.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff there are no records.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Record width `d`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Borrow record `i`.
    pub fn row(&self, i: usize) -> &BitVec {
        &self.rows[i]
    }

    /// Iterate over records.
    pub fn rows(&self) -> impl Iterator<Item = &BitVec> {
        self.rows.iter()
    }

    /// Counts records matching `pred`.
    pub fn count_matching<F: Fn(&BitVec) -> bool>(&self, pred: F) -> usize {
        self.rows.iter().filter(|r| pred(r)).count()
    }

    /// Per-column popcounts: `result[j]` is the number of records whose bit
    /// `j` is set. Word-parallel — see [`column_counts`].
    pub fn column_counts(&self) -> Vec<usize> {
        column_counts(&self.rows, self.width)
    }
}

/// Transposes a 64×64 bit matrix in place (`a[i]` holds row `i`; on return
/// bit `i` of `a[j]` is the old bit `j` of `a[i]`). The recursive
/// block-swap runs in 6 rounds of word ops instead of 4096 bit moves.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = (a[k] ^ (a[k + j] >> j)) & m;
            a[k] ^= t;
            a[k + j] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Per-column popcounts over a slice of equal-width rows: `result[j]` is the
/// number of rows whose bit `j` is set.
///
/// Rows are processed 64 at a time: each 64×64 block of the row-major bit
/// matrix is transposed with word ops, after which one column of the block
/// is a single word whose popcount contributes directly to the counter.
/// This replaces the `rows × width` bit-at-a-time loop with
/// `rows × width / 64` word operations — the hot path of the membership
/// inference experiment's published-means computation.
///
/// # Panics
/// Panics if any row's length differs from `width`.
pub fn column_counts(rows: &[BitVec], width: usize) -> Vec<usize> {
    let mut counts = vec![0usize; width];
    let n_word_cols = width.div_ceil(64);
    let mut block = [0u64; 64];
    for chunk in rows.chunks(64) {
        for wc in 0..n_word_cols {
            for (bi, row) in chunk.iter().enumerate() {
                assert_eq!(row.len(), width, "row width mismatch");
                block[bi] = row.words[wc];
            }
            for slot in block.iter_mut().skip(chunk.len()) {
                *slot = 0;
            }
            transpose64(&mut block);
            // The butterfly above is written for MSB-first column order, so
            // under our LSB-first indexing output word `63 - j` holds column
            // `j`'s bits (row order permuted — irrelevant to a popcount).
            let cols = 64.min(width - wc * 64);
            for j in 0..cols {
                counts[wc * 64 + j] += block[63 - j].count_ones() as usize;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert_eq!(v.count_ones(), 0);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(63) && !v.get(128));
        assert_eq!(v.count_ones(), 3);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    fn from_bools_round_trip() {
        let bits = [true, false, true, true, false];
        let v = BitVec::from_bools(&bits);
        let back: Vec<bool> = v.iter().collect();
        assert_eq!(back, bits);
    }

    #[test]
    fn and_count_matches_the_bitwise_walk() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let a = BitVec::from_iter_bits((0..n).map(|i| i % 3 == 0));
            let b = BitVec::from_iter_bits((0..n).map(|i| i % 2 == 0));
            let walk = a.iter().zip(b.iter()).filter(|&(x, y)| x && y).count();
            assert_eq!(a.and_count(&b), walk, "n={n}");
            assert_eq!(a.and_count(&BitVec::ones(n)), a.count_ones(), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_count_length_mismatch_panics() {
        BitVec::zeros(3).and_count(&BitVec::zeros(4));
    }

    #[test]
    fn hamming_distance_counts_flips() {
        let a = BitVec::from_bools(&[true, false, true, false]);
        let b = BitVec::from_bools(&[true, true, false, false]);
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn hamming_distance_length_mismatch_panics() {
        let _ = BitVec::zeros(3).hamming_distance(&BitVec::zeros(4));
    }

    #[test]
    fn low_u64_packs_first_word() {
        let v = BitVec::from_bools(&[true, false, true]); // bits 0 and 2
        assert_eq!(v.low_u64(), 0b101);
    }

    #[test]
    fn bit_dataset_push_and_count() {
        let mut ds = BitDataset::new(3);
        ds.push(BitVec::from_bools(&[true, true, false]));
        ds.push(BitVec::from_bools(&[false, true, false]));
        ds.push(BitVec::from_bools(&[true, true, true]));
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.width(), 3);
        assert_eq!(ds.count_matching(|r| r.get(1)), 3);
        assert_eq!(ds.count_matching(|r| r.get(0)), 2);
        assert_eq!(ds.count_matching(|r| r.get(2)), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn bit_dataset_rejects_wrong_width() {
        let mut ds = BitDataset::new(4);
        ds.push(BitVec::zeros(5));
    }

    #[test]
    fn ones_sets_every_bit_and_masks_tail() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let v = BitVec::ones(len);
            assert_eq!(v.count_ones(), len, "len {len}");
            // Tail bits beyond len must be zero so word-level ops stay exact.
            if let Some(&last) = v.words().last() {
                if len % 64 != 0 {
                    assert_eq!(last >> (len % 64), 0, "len {len}");
                }
            }
        }
    }

    #[test]
    fn column_counts_matches_naive() {
        use crate::dist::RecordDistribution;
        use crate::rng::seeded_rng;
        let mut rng = seeded_rng(77);
        // Widths and row counts straddling word boundaries.
        for (n, d) in [
            (1usize, 1usize),
            (5, 70),
            (64, 64),
            (100, 130),
            (130, 64),
            (67, 257),
        ] {
            let dist = crate::dist::UniformBits::new(d);
            let rows: Vec<BitVec> = (0..n).map(|_| dist.sample(&mut rng)).collect();
            let fast = column_counts(&rows, d);
            let naive: Vec<usize> = (0..d)
                .map(|j| rows.iter().filter(|r| r.get(j)).count())
                .collect();
            assert_eq!(fast, naive, "n={n} d={d}");
        }
    }

    #[test]
    fn column_counts_empty_rows() {
        assert_eq!(column_counts(&[], 5), vec![0; 5]);
        assert_eq!(column_counts(&[], 0), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn column_counts_rejects_ragged_rows() {
        column_counts(&[BitVec::zeros(3), BitVec::zeros(4)], 3);
    }

    #[test]
    fn bit_dataset_column_counts() {
        let mut ds = BitDataset::new(3);
        ds.push(BitVec::from_bools(&[true, true, false]));
        ds.push(BitVec::from_bools(&[false, true, false]));
        ds.push(BitVec::from_bools(&[true, true, true]));
        assert_eq!(ds.column_counts(), vec![2, 3, 1]);
    }

    #[test]
    fn empty_bitvec_edge_cases() {
        let v = BitVec::zeros(0);
        assert!(v.is_empty());
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v.low_u64(), 0);
        assert_eq!(v.iter().count(), 0);
    }
}
