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

    /// BitVec set/get behaves like a Vec<bool>.
    #[test]
    fn bitvec_models_vec_bool(bits in proptest::collection::vec(any::<bool>(), 0..200)) {
        let v = BitVec::from_bools(&bits);
        prop_assert_eq!(v.len(), bits.len());
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(v.get(i), b);
        }
        prop_assert_eq!(v.count_ones(), bits.iter().filter(|&&b| b).count());
    }

    /// The word-at-a-time builders agree with a bit-at-a-time reference
    /// (`zeros` + `set`), including `len % 64 != 0` tails, and uphold the
    /// trailing-bits-are-zero invariant so `count_ones`, `low_u64`, and
    /// `hamming_distance` see no garbage.
    #[test]
    fn bitvec_builders_agree_with_bit_at_a_time(
        bits in proptest::collection::vec(any::<bool>(), 0..300),
    ) {
        let mut reference = BitVec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            reference.set(i, b);
        }
        let from_slice = BitVec::from_bools(&bits);
        let from_iter = BitVec::from_iter_bits(bits.iter().copied());
        prop_assert_eq!(&from_slice, &reference);
        prop_assert_eq!(&from_iter, &reference);
        prop_assert_eq!(from_slice.words(), reference.words());
        // Trailing bits beyond len are zero in the last word.
        let tail = bits.len() % 64;
        if tail != 0 {
            prop_assert_eq!(from_slice.words().last().unwrap() >> tail, 0);
            prop_assert_eq!(from_iter.words().last().unwrap() >> tail, 0);
        }
        prop_assert_eq!(from_slice.count_ones(), reference.count_ones());
        prop_assert_eq!(from_iter.low_u64(), reference.low_u64());
        prop_assert_eq!(from_slice.hamming_distance(&reference), 0);
        prop_assert_eq!(from_iter.hamming_distance(&reference), 0);
    }

    /// Hamming distance is a metric: symmetric, zero iff equal, triangle.
    #[test]
    fn hamming_is_a_metric(
        a in proptest::collection::vec(any::<bool>(), 32),
        b in proptest::collection::vec(any::<bool>(), 32),
        c in proptest::collection::vec(any::<bool>(), 32),
    ) {
        let (va, vb, vc) = (
            BitVec::from_bools(&a),
            BitVec::from_bools(&b),
            BitVec::from_bools(&c),
        );
        prop_assert_eq!(va.hamming_distance(&vb), vb.hamming_distance(&va));
        prop_assert_eq!(va.hamming_distance(&va), 0);
        prop_assert!(
            va.hamming_distance(&vc)
                <= va.hamming_distance(&vb) + vb.hamming_distance(&vc)
        );
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
// SelectionVector bitmap algebra vs naive boolean vectors.
// ---------------------------------------------------------------------------

use so_data::{column_counts, SelectionVector};

proptest! {
    /// Packed bitmaps agree with plain `Vec<bool>` semantics bit-for-bit:
    /// count, get, indices, and next_set_bit. Lengths straddle word
    /// boundaries, so the `len % 64 != 0` tail word is routinely hit.
    #[test]
    fn selection_matches_bool_vector(bits in proptest::collection::vec(any::<bool>(), 1..300)) {
        let v = SelectionVector::from_bools(&bits);
        prop_assert_eq!(v.len(), bits.len());
        prop_assert_eq!(v.count(), bits.iter().filter(|&&b| b).count());
        let expected: Vec<usize> =
            (0..bits.len()).filter(|&i| bits[i]).collect();
        prop_assert_eq!(v.indices(), expected.clone());
        prop_assert_eq!(v.next_set_bit(0), expected.first().copied());
        for (i, &bit) in bits.iter().enumerate() {
            prop_assert_eq!(v.get(i), bit, "bit {}", i);
        }
    }

    /// AND/OR/NOT match pointwise boolean algebra; NOT never leaks bits
    /// into the tail word.
    #[test]
    fn selection_algebra_matches_pointwise(
        a in proptest::collection::vec(any::<bool>(), 1..300),
        b in proptest::collection::vec(any::<bool>(), 1..300),
    ) {
        let n = a.len().min(b.len());
        let va = SelectionVector::from_bools(&a[..n]);
        let vb = SelectionVector::from_bools(&b[..n]);
        let (and, or, not) = (va.and(&vb), va.or(&vb), va.not());
        for i in 0..n {
            prop_assert_eq!(and.get(i), a[i] && b[i]);
            prop_assert_eq!(or.get(i), a[i] || b[i]);
            prop_assert_eq!(not.get(i), !a[i]);
        }
        prop_assert_eq!(not.count(), n - va.count());
        prop_assert_eq!(va.and(&va.not()).count(), 0);
        prop_assert_eq!(va.or(&va.not()).count(), n);
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
