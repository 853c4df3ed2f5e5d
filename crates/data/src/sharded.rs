//! Word-aligned row sharding — the row partition behind parallel execution.
//!
//! The paper's attack workloads (Dinur–Nissim reconstruction, census
//! tabulation replay, linkage joins) are embarrassingly parallel over rows:
//! every query is a predicate count, and a count over `n` rows is the sum of
//! counts over any partition of those rows. [`word_aligned_ranges`] fixes
//! one such partition: contiguous row ranges whose starts are multiples of
//! 64, so a range-local [`crate::BitVec`] occupies whole words of
//! the full-dataset bitmap and merging range results is a pure word copy in
//! range order ([`crate::BitVec::concat_aligned`]) — no bit
//! shifting, no overlap, and bit-identical output no matter how many ranges
//! the work was split into.

use std::ops::Range;

/// Splits `0..n_rows` into at most `max_shards` contiguous ranges, each
/// starting at a multiple of 64 (so shard bitmaps align to whole words of
/// the full bitmap). Every row is covered exactly once, ranges come back in
/// ascending order, and only the final range may end off a word boundary.
/// Returns fewer than `max_shards` ranges when `n_rows` spans fewer words;
/// returns no ranges for an empty dataset.
///
/// ```
/// use so_data::sharded::word_aligned_ranges;
/// let shards = word_aligned_ranges(200, 3);
/// assert_eq!(shards, vec![0..128, 128..200]);
/// assert!(shards.iter().all(|r| r.start % 64 == 0));
/// ```
///
/// # Panics
/// Panics if `max_shards` is zero.
pub fn word_aligned_ranges(n_rows: usize, max_shards: usize) -> Vec<Range<usize>> {
    assert!(max_shards >= 1, "need at least one shard");
    let words = n_rows.div_ceil(64);
    if words == 0 {
        return Vec::new();
    }
    let shards = max_shards.min(words);
    let rows_per_shard = words.div_ceil(shards) * 64;
    (0..shards)
        .map(|i| i * rows_per_shard..((i + 1) * rows_per_shard).min(n_rows))
        .filter(|r| !r.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_every_row_exactly_once() {
        for n in [0usize, 1, 63, 64, 65, 127, 128, 200, 1000] {
            for shards in [1usize, 2, 3, 4, 7, 8, 64] {
                let ranges = word_aligned_ranges(n, shards);
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next, "n={n} shards={shards}");
                    assert_eq!(r.start % 64, 0, "n={n} shards={shards}");
                    assert!(r.end > r.start, "n={n} shards={shards}");
                    next = r.end;
                }
                assert_eq!(next, n, "n={n} shards={shards}");
                assert!(ranges.len() <= shards);
            }
        }
    }

    #[test]
    fn tiny_datasets_collapse_to_one_shard() {
        // Fewer rows than one word per requested shard: no empty shards.
        assert_eq!(word_aligned_ranges(10, 8), vec![0..10]);
        assert_eq!(word_aligned_ranges(64, 8), vec![0..64]);
        assert_eq!(word_aligned_ranges(0, 8), Vec::<Range<usize>>::new());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        word_aligned_ranges(10, 0);
    }
}
