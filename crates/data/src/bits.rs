//! Bit vectors and bit-string datasets.
//!
//! The paper's query `q ⊆ [n]`, its secret `x ∈ {0,1}^n` and the rows a
//! predicate selects are one object, an indicator vector; every
//! Dinur–Nissim answer is `|q ∧ x|`. [`BitVec`] is that vector, packed 64
//! bits per `u64` word, and it is the only packed bit vector in the
//! workspace:
//!
//! * Theorem 1.1 (Dinur–Nissim) reconstructs a dataset `x ∈ {0,1}^n` from
//!   noisy subset-sum answers; `x` and each query mask are a [`BitVec`] of
//!   length `n`.
//! * A predicate's selection over the rows of a dataset is a [`BitVec`]:
//!   the columnar scan kernels emit one per atom
//!   ([`BitVec::from_column`]), compound predicates combine them with word
//!   ops, and counting is a popcount — 64 rows per instruction.
//! * The query matrix of a workload keeps its rows, cell signatures and
//!   reduced GF(2) pivots as [`BitVec`]s over cells or queries.
//! * Theorem 2.8's composition attack isolates one record in a dataset of
//!   `n` records each drawn from `{0,1}^d`; we represent that as a
//!   [`BitDataset`] (`n` rows × `d` bits).
//!
//! Invariant: bits at positions `>= len` in the last word are always zero,
//! so popcounts, equality, hashing and the combinators never see garbage
//! in the tail word.

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
///
/// let evens = BitVec::from_fn(10, |i| i % 2 == 0);
/// let small = BitVec::from_fn(10, |i| i < 5);
/// let both = &evens & &small;
/// assert_eq!(both.count_ones(), 3); // rows 0, 2, 4
/// assert_eq!(both.indices(), vec![0, 2, 4]);
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
        let mut v = BitVec {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        v.mask_tail();
        v
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

    /// Builds by evaluating `f` on every index.
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
        BitVec { words, len }
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

    // `get`, `set`, `is_zero`, `is_subset_of` and `xor_assign` are
    // `#[inline]`: so-analyze calls them per cell and per combination in
    // the lattice search and the GF(2) reduction, from another crate, and
    // without the hint a 48-row, 192-query lint ran ~15 % slower.

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits (word-parallel popcount).
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

    /// Number of positions set in `self` but **not** in `mask` — the
    /// word-parallel popcount of `self ∧ ¬mask`, computed without allocating
    /// an intermediate vector. This is the tombstone-mask merge step of the
    /// counting engine: a cached segment selection popcounted against the
    /// segment's tombstones yields the live match count directly.
    ///
    /// Because `self`'s tail bits beyond `len` are always zero, negating
    /// `mask`'s words needs no tail handling: stray ones in `!mask` past the
    /// end are annihilated by the AND.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn count_and_not(&self, mask: &BitVec) -> usize {
        assert_eq!(self.len, mask.len, "length mismatch");
        self.words
            .iter()
            .zip(&mask.words)
            .map(|(&a, &b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Sum of `weights[i]` over the set positions `i` — the count over a
    /// dataset of the rows a selection over its distinct-row form picks
    /// (see [`crate::Dataset::distinct_rows`]). One word loop over the set
    /// bits.
    ///
    /// # Panics
    /// Panics if `weights.len()` differs from the vector length.
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

    /// True iff no bit is set. Stops at the first nonzero word.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True iff every set position of `self` is set in `other` (`self ⊆
    /// other`). Stops at the first word that proves otherwise.
    ///
    /// # Panics
    /// Panics if lengths differ.
    #[inline]
    pub fn is_subset_of(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// In-place intersection.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn and_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn or_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place symmetric difference — addition over GF(2).
    ///
    /// # Panics
    /// Panics if lengths differ.
    #[inline]
    pub fn xor_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
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
    pub fn and(&self, other: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// Union `self ∨ other`.
    pub fn or(&self, other: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.or_assign(other);
        out
    }

    /// Complement `¬self`.
    pub fn not(&self) -> BitVec {
        let mut out = self.clone();
        out.not_assign();
        out
    }

    /// Iterates over bits as bools.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Indices of the set positions, ascending.
    pub fn indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                out.push(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
        out
    }

    /// Iterates over the set positions, ascending, without materializing
    /// them.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let next = w & (w - 1);
                (next != 0).then_some(next)
            })
            .map(move |w| wi * 64 + w.trailing_zeros() as usize)
        })
    }

    /// Smallest set position `>= from`, or `None`. Word-parallel: skips
    /// clear words 64 positions at a time.
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

    /// The underlying words (trailing bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Serializes the first `min(len, 64)` bits into a `u64`, bit `i` at
    /// position `i`. Useful as a compact record key when `len <= 64`.
    pub fn low_u64(&self) -> u64 {
        self.words.first().copied().unwrap_or(0)
    }

    /// The words as little-endian bytes, word after word — the canonical
    /// byte encoding of a bit-string record that keyed hashes consume.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        self.words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Concatenates word-aligned shard vectors, in order, into one vector —
    /// the deterministic merge step of sharded parallel execution. Shard
    /// `i`'s vector covers the next `parts[i].len()` rows, and every part
    /// except the last must end on a word (multiple-of-64) boundary, so the
    /// merge is a pure word copy with no shifting.
    ///
    /// The merged vector's tail bits beyond the combined length are masked
    /// to zero here regardless of what the final part's last word carried,
    /// so a non-multiple-of-64 final shard can never leak set bits past
    /// `n_rows` and over-count downstream popcounts.
    ///
    /// ```
    /// use so_data::BitVec;
    /// let a = BitVec::from_fn(64, |i| i % 2 == 0);
    /// let b = BitVec::from_fn(70, |i| i % 2 == 0);
    /// let merged = BitVec::concat_aligned([a, b]);
    /// assert_eq!(merged.len(), 134);
    /// assert_eq!(merged.count_ones(), 67);
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
    pub fn concat_aligned<I: IntoIterator<Item = BitVec>>(parts: I) -> BitVec {
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
        let mut out = BitVec { words, len };
        out.mask_tail();
        out
    }

    /// The vector restricted to positions `[range.start, range.end)` of
    /// `self`, re-indexed from zero — a pure word copy thanks to the
    /// word-aligned start. This is how a shard worker reads an
    /// already-cached full-length bitmap for just its rows.
    ///
    /// # Panics
    /// Panics unless `range.start` is a multiple of 64 and the range lies
    /// within the vector.
    pub fn slice_aligned(&self, range: std::ops::Range<usize>) -> BitVec {
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
        let mut out = BitVec { words, len };
        out.mask_tail();
        out
    }

    /// Extends the vector to `new_len` positions, the new ones clear — how
    /// a tombstone bitmap tracks a delta segment that just grew. The
    /// existing bits are unchanged; growth is amortized O(new words).
    ///
    /// # Panics
    /// Panics if `new_len < len` (tombstones never shrink; compaction
    /// replaces them wholesale).
    pub fn grow(&mut self, new_len: usize) {
        assert!(
            new_len >= self.len,
            "cannot shrink a bit vector from {} to {new_len} bits",
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

/// Bits `Debug` prints before eliding the rest.
const DEBUG_BITS: usize = 128;

impl fmt::Debug for BitVec {
    /// `BitVec[0110…; 2/130 set]`: the first `DEBUG_BITS` bits, then the
    /// popcount over the length, so a million-row selection in a failed
    /// assertion stays one line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for b in self.iter().take(DEBUG_BITS) {
            write!(f, "{}", u8::from(b))?;
        }
        if self.len > DEBUG_BITS {
            write!(f, "…")?;
        }
        write!(f, "; {}/{} set]", self.count_ones(), self.len)
    }
}

impl std::ops::BitAnd for &BitVec {
    type Output = BitVec;

    fn bitand(self, rhs: &BitVec) -> BitVec {
        self.and(rhs)
    }
}

impl std::ops::BitOr for &BitVec {
    type Output = BitVec;

    fn bitor(self, rhs: &BitVec) -> BitVec {
        self.or(rhs)
    }
}

impl std::ops::Not for &BitVec {
    type Output = BitVec;

    fn not(self) -> BitVec {
        BitVec::not(self)
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
    #[should_panic(expected = "length mismatch")]
    fn and_length_mismatch_panics() {
        BitVec::zeros(10).and_assign(&BitVec::zeros(11));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn count_and_not_length_mismatch_panics() {
        BitVec::zeros(10).count_and_not(&BitVec::zeros(11));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn is_subset_of_length_mismatch_panics() {
        BitVec::zeros(10).is_subset_of(&BitVec::zeros(11));
    }

    #[test]
    #[should_panic(expected = "weight length mismatch")]
    fn weighted_count_length_mismatch_panics() {
        BitVec::ones(10).weighted_count(&[1; 9]);
    }

    #[test]
    fn concat_aligned_masks_final_shard_tail() {
        // The final shard ends mid-word (70 % 64 != 0). A NOT on the merged
        // vector exercises the tail invariant: if merge left bits set past
        // n_rows the popcount would over-count.
        let a = BitVec::from_fn(64, |_| true);
        let b = BitVec::from_fn(70, |_| true);
        let merged = BitVec::concat_aligned([a, b]);
        assert_eq!(merged.len(), 134);
        assert_eq!(merged.count_ones(), 134);
        assert_eq!(merged.not().count_ones(), 0);
        // Tail word holds exactly 134 - 128 = 6 set bits, nothing above.
        assert_eq!(merged.words().last().unwrap() >> (134 % 64), 0);
    }

    #[test]
    fn concat_aligned_empty_and_single() {
        let empty = BitVec::concat_aligned(std::iter::empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.count_ones(), 0);
        let one = BitVec::concat_aligned([BitVec::from_fn(10, |i| i < 3)]);
        assert_eq!(one.len(), 10);
        assert_eq!(one.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "not word-aligned")]
    fn concat_aligned_rejects_misaligned_interior_shard() {
        let _ = BitVec::concat_aligned([
            BitVec::zeros(10), // 10 % 64 != 0 and not the last part
            BitVec::zeros(64),
        ]);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn grow_rejects_shrinking() {
        BitVec::zeros(10).grow(9);
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn slice_aligned_rejects_misaligned_start() {
        BitVec::zeros(100).slice_aligned(10..20);
    }

    #[test]
    fn debug_elides_long_vectors() {
        let short = BitVec::from_bools(&[true, false, true]);
        assert_eq!(format!("{short:?}"), "BitVec[101; 2/3 set]");
        let long = format!("{:?}", BitVec::ones(1000));
        assert!(long.ends_with("…; 1000/1000 set]"), "{long}");
        assert!(long.len() < 200, "{long}");
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
