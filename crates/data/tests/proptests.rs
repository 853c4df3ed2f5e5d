//! Property-based tests for the dataset substrate.

use proptest::prelude::*;
use so_data::csv::{from_csv, to_csv};
use so_data::{
    AttributeDef, AttributeRole, BitVec, DataType, Dataset, DatasetBuilder, Date, Schema, Value,
};

fn arb_value(dtype: DataType) -> BoxedStrategy<ValueSpec> {
    match dtype {
        DataType::Int => (any::<i64>()).prop_map(ValueSpec::Int).boxed(),
        DataType::Float => proptest::num::f64::NORMAL
            .prop_map(ValueSpec::Float)
            .boxed(),
        DataType::Bool => any::<bool>().prop_map(ValueSpec::Bool).boxed(),
        DataType::Date => (-200_000i32..200_000)
            .prop_map(|d| ValueSpec::Date(Date::from_day_number(d)))
            .boxed(),
        DataType::Str => "[ -~]{0,12}".prop_map(ValueSpec::Str).boxed(),
    }
}

/// Owned value description (strings carried as text, interned at build time).
#[derive(Debug, Clone)]
enum ValueSpec {
    Int(i64),
    Float(f64),
    Bool(bool),
    Date(Date),
    Str(String),
    Missing,
}

fn build_dataset(dtypes: &[DataType], rows: &[Vec<ValueSpec>]) -> Dataset {
    let attrs = dtypes
        .iter()
        .enumerate()
        .map(|(i, &d)| AttributeDef::new(&format!("c{i}"), d, AttributeRole::Insensitive))
        .collect();
    let schema = Schema::new(attrs);
    let mut b = DatasetBuilder::new(schema);
    for row in rows {
        let vals: Vec<Value> = row
            .iter()
            .map(|v| match v {
                ValueSpec::Int(x) => Value::Int(*x),
                ValueSpec::Float(x) => Value::Float(*x),
                ValueSpec::Bool(x) => Value::Bool(*x),
                ValueSpec::Date(x) => Value::Date(*x),
                ValueSpec::Str(s) => Value::Str(b.intern(s)),
                ValueSpec::Missing => Value::Missing,
            })
            .collect();
        b.push_row(vals);
    }
    b.finish()
}

fn arb_dataset() -> impl Strategy<Value = (Vec<DataType>, Vec<Vec<ValueSpec>>)> {
    let dtype = prop_oneof![
        Just(DataType::Int),
        Just(DataType::Float),
        Just(DataType::Bool),
        Just(DataType::Date),
        Just(DataType::Str),
    ];
    proptest::collection::vec(dtype, 1..5).prop_flat_map(|dtypes| {
        let row_strategy: Vec<_> = dtypes
            .iter()
            .map(|&d| {
                prop_oneof![
                    9 => arb_value(d),
                    1 => Just(ValueSpec::Missing),
                ]
            })
            .collect();
        let rows = proptest::collection::vec(row_strategy, 0..20);
        (Just(dtypes), rows)
    })
}

proptest! {
    /// CSV round-trips preserve shape, schema, and every cell.
    #[test]
    fn csv_round_trip((dtypes, rows) in arb_dataset()) {
        // Empty-string Str cells are indistinguishable from Missing in CSV;
        // normalize the expectation accordingly.
        let ds = build_dataset(&dtypes, &rows);
        let back = from_csv(&to_csv(&ds)).unwrap();
        prop_assert_eq!(back.n_rows(), ds.n_rows());
        prop_assert_eq!(back.n_cols(), ds.n_cols());
        for r in 0..ds.n_rows() {
            for c in 0..ds.n_cols() {
                let a = ds.get(r, c);
                let b = back.get(r, c);
                match (a, b) {
                    (Value::Str(x), Value::Str(y)) => {
                        prop_assert_eq!(ds.resolve(x), back.resolve(y));
                    }
                    (Value::Missing, Value::Str(y)) => {
                        // Missing non-str is empty text; for Str columns the
                        // empty string is the canonical missing image.
                        prop_assert_eq!(back.resolve(y), "");
                    }
                    (a, b) => prop_assert_eq!(a, b),
                }
            }
        }
    }

    /// Date day-number round trip over a wide range.
    #[test]
    fn date_round_trip(dn in -500_000i32..500_000) {
        let d = Date::from_day_number(dn);
        let (y, m, day) = d.ymd();
        prop_assert_eq!(Date::new(y, m, day).unwrap().day_number(), dn);
    }

    /// Date ordering agrees with day-number ordering.
    #[test]
    fn date_order_consistent(a in -200_000i32..200_000, b in -200_000i32..200_000) {
        let (da, db) = (Date::from_day_number(a), Date::from_day_number(b));
        prop_assert_eq!(da.cmp(&db), a.cmp(&b));
    }

    /// group_by partitions the row set exactly.
    #[test]
    fn group_by_partitions((dtypes, rows) in arb_dataset()) {
        let ds = build_dataset(&dtypes, &rows);
        let groups = ds.group_by(&[0]);
        let mut all: Vec<usize> = groups.values().flatten().copied().collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..ds.n_rows()).collect();
        prop_assert_eq!(all, expected);
    }

    /// select_rows preserves the selected cells in order.
    #[test]
    fn select_rows_preserves_cells((dtypes, rows) in arb_dataset()) {
        let ds = build_dataset(&dtypes, &rows);
        if ds.n_rows() == 0 {
            return Ok(());
        }
        let idx: Vec<usize> = (0..ds.n_rows()).rev().collect();
        let sel = ds.select_rows(&idx);
        prop_assert_eq!(sel.n_rows(), ds.n_rows());
        for (new_i, &old_i) in idx.iter().enumerate() {
            for c in 0..ds.n_cols() {
                let a = ds.get(old_i, c);
                let b = sel.get(new_i, c);
                match (a, b) {
                    (Value::Str(x), Value::Str(y)) => {
                        prop_assert_eq!(ds.resolve(x), sel.resolve(y));
                    }
                    (a, b) => prop_assert_eq!(a, b),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// BitVec against a `Vec<bool>` model.
// ---------------------------------------------------------------------------

use so_data::column_counts;

/// Lengths on and around word boundaries, plus random ones.
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1),
        Just(63),
        Just(64),
        Just(65),
        Just(130),
        0usize..300,
    ]
}

/// Two operands, a missing-value mask and per-position weights, all of one
/// length.
fn arb_model() -> impl Strategy<Value = (Vec<bool>, Vec<bool>, Vec<bool>, Vec<u64>)> {
    use proptest::collection::vec;
    arb_len().prop_flat_map(|n| {
        (
            vec(any::<bool>(), n),
            vec(any::<bool>(), n),
            vec(any::<bool>(), n),
            vec(0u64..1000, n),
        )
    })
}

/// The bits of the last word at positions `>= len` are all zero.
fn tail_is_clear(v: &BitVec) -> bool {
    v.len() % 64 == 0 || v.words().last().is_some_and(|w| w >> (v.len() % 64) == 0)
}

fn bools(v: &BitVec) -> Vec<bool> {
    v.iter().collect()
}

fn zip_with(a: &[bool], b: &[bool], f: impl Fn(bool, bool) -> bool) -> Vec<bool> {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

fn count(bits: &[bool]) -> usize {
    bits.iter().filter(|&&b| b).count()
}

proptest! {
    /// Every operation of the packed vector agrees with the same operation
    /// on a plain `Vec<bool>`, and every result keeps the bits past `len`
    /// in its last word clear (so popcounts, equality and hashing stay
    /// exact).
    #[test]
    fn bitvec_matches_vec_bool_model((a, b, missing, weights) in arb_model()) {
        let n = a.len();
        let va = BitVec::from_bools(&a);
        let vb = BitVec::from_bools(&b);
        prop_assert!(tail_is_clear(&va));

        // Builders agree with bit-at-a-time `set` over `zeros`.
        let mut by_set = BitVec::zeros(n);
        for (i, &bit) in a.iter().enumerate() {
            by_set.set(i, bit);
        }
        prop_assert_eq!(&by_set, &va);
        prop_assert_eq!(&BitVec::from_iter_bits(a.iter().copied()), &va);
        prop_assert_eq!(&BitVec::from_fn(n, |i| a[i]), &va);
        let rows: Vec<usize> = (0..n).collect();
        let scanned = BitVec::from_column(&rows, &missing, |&i| a[i]);
        prop_assert_eq!(bools(&scanned), zip_with(&a, &missing, |x, m| x && !m));
        prop_assert!(tail_is_clear(&scanned));

        // Readers.
        let ones_a: Vec<usize> = (0..n).filter(|&i| a[i]).collect();
        prop_assert_eq!(va.len(), n);
        prop_assert_eq!(va.is_empty(), n == 0);
        prop_assert_eq!(bools(&va), a.clone());
        for (i, &bit) in a.iter().enumerate() {
            prop_assert_eq!(va.get(i), bit, "bit {}", i);
        }
        prop_assert_eq!(va.count_ones(), ones_a.len());
        prop_assert_eq!(va.is_zero(), ones_a.is_empty());
        prop_assert_eq!(va.indices(), ones_a.clone());
        prop_assert_eq!(va.iter_ones().collect::<Vec<_>>(), ones_a.clone());
        for from in 0..=n + 1 {
            let next = ones_a.iter().copied().find(|&i| i >= from);
            prop_assert_eq!(va.next_set_bit(from), next, "from {}", from);
        }
        let weighted: u64 = ones_a.iter().map(|&i| weights[i]).sum();
        prop_assert_eq!(va.weighted_count(&weights), weighted);
        let low = (0..n.min(64)).fold(0u64, |w, i| w | u64::from(a[i]) << i);
        prop_assert_eq!(va.low_u64(), low);
        let bytes = va.to_le_bytes();
        prop_assert_eq!(bytes.len(), n.div_ceil(64) * 8);
        for (i, &byte) in bytes.iter().enumerate() {
            for j in 0..8 {
                let bit = 8 * i + j;
                prop_assert_eq!(byte >> j & 1 == 1, bit < n && a[bit], "bit {}", bit);
            }
        }

        // Pairwise algebra and counts.
        let and = zip_with(&a, &b, |x, y| x && y);
        let or = zip_with(&a, &b, |x, y| x || y);
        let xor = zip_with(&a, &b, |x, y| x != y);
        let not: Vec<bool> = a.iter().map(|&x| !x).collect();
        for (got, want) in [
            (&va & &vb, &and),
            (va.and(&vb), &and),
            (&va | &vb, &or),
            (va.or(&vb), &or),
            (!&va, &not),
            (va.not(), &not),
        ] {
            prop_assert_eq!(bools(&got), want.clone());
            prop_assert!(tail_is_clear(&got));
        }
        let mut x = va.clone();
        x.xor_assign(&vb);
        prop_assert_eq!(bools(&x), xor.clone());
        let mut x = va.clone();
        x.and_assign(&vb);
        x.or_assign(&vb);
        x.not_assign();
        prop_assert_eq!(bools(&x), b.iter().map(|&y| !y).collect::<Vec<_>>());
        prop_assert!(tail_is_clear(&x));
        prop_assert_eq!(va.and_count(&vb), count(&and));
        prop_assert_eq!(va.count_and_not(&vb), count(&zip_with(&a, &b, |x, y| x && !y)));
        prop_assert_eq!(va.hamming_distance(&vb), count(&xor));
        prop_assert_eq!(va.is_subset_of(&vb), (0..n).all(|i| !a[i] || b[i]));
        prop_assert!(va.and(&vb).is_subset_of(&va));
        prop_assert!(va.is_subset_of(&va.or(&vb)));

        // Constants: `ones` and `!zeros` are all-true with a clear tail.
        let ones = BitVec::ones(n);
        prop_assert_eq!(bools(&ones), vec![true; n]);
        prop_assert!(tail_is_clear(&ones));
        prop_assert_eq!(&!&BitVec::zeros(n), &ones);
        prop_assert!((!&ones).is_zero());
        prop_assert!(BitVec::zeros(n).is_zero());

        // Word-aligned slices merge back into the whole, with zero-row
        // parts salted anywhere.
        for cut in (0..=n).step_by(64) {
            let head = va.slice_aligned(0..cut);
            let rest = va.slice_aligned(cut..n);
            prop_assert_eq!(bools(&head), a[..cut].to_vec());
            prop_assert_eq!(bools(&rest), a[cut..].to_vec());
            prop_assert!(tail_is_clear(&head) && tail_is_clear(&rest));
            let merged = BitVec::concat_aligned([
                BitVec::zeros(0),
                head,
                BitVec::zeros(0),
                rest,
                BitVec::zeros(0),
            ]);
            prop_assert_eq!(&merged, &va);
        }

        // Growth appends clear positions.
        let mut grown = va.clone();
        grown.grow(n + 70);
        let mut want = a.clone();
        want.extend([false; 70]);
        prop_assert_eq!(bools(&grown), want);
        prop_assert_eq!((!&grown).count_ones(), n + 70 - ones_a.len());
    }

    /// The transpose-based column_counts equals a per-bit count.
    #[test]
    fn column_counts_matches_per_bit(
        rows in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 70),
            0..70,
        ),
    ) {
        let width = 70;
        let bvs: Vec<BitVec> = rows.iter().map(|r| BitVec::from_bools(r)).collect();
        let counts = column_counts(&bvs, width);
        for j in 0..width {
            let naive = rows.iter().filter(|r| r[j]).count();
            prop_assert_eq!(counts[j], naive, "column {}", j);
        }
    }
}
