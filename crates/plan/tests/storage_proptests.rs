//! Columnar scan kernels against the row-at-a-time semantics.
//!
//! For every atom, dataset, and row range, the bitmap scan must select
//! exactly the rows [`eval_atom_row`] selects, and a shard-local range scan
//! must be a word-aligned slice of the full scan. These properties also pin
//! the tricky corners of `scan_value_equals`:
//!
//! * `Value::Missing` selects exactly the masked rows;
//! * `Float` equality follows `total_cmp` (NaN is self-equal, `-0.0` and
//!   `+0.0` are distinct);
//! * a target whose type does not match the column selects nothing.

use proptest::prelude::*;

use so_data::{
    AttributeDef, AttributeRole, DataType, Dataset, DatasetBuilder, Date, Schema, Value,
};
use so_plan::kernels::{eval_atom_row, scan_atom, scan_atom_range};
use so_plan::Atom;

/// Cell recipe for one row of the 5-column test schema
/// (int, float, str, bool, date) — `None` means Missing.
#[derive(Debug, Clone)]
struct RowSpec {
    int: Option<i64>,
    float: Option<f64>,
    str_: Option<u8>,
    bool_: Option<bool>,
    date: Option<i32>,
}

fn arb_float() -> BoxedStrategy<f64> {
    prop_oneof![
        4 => proptest::num::f64::NORMAL,
        1 => Just(f64::NAN),
        1 => Just(-0.0f64),
        1 => Just(0.0f64),
        1 => Just(f64::INFINITY),
    ]
    .boxed()
}

/// `Some` with probability ~0.9, `None` (→ Missing cell) otherwise.
fn opt<T, S>(s: S) -> BoxedStrategy<Option<T>>
where
    T: std::fmt::Debug + Clone + 'static,
    S: Strategy<Value = T> + 'static,
{
    prop_oneof![
        9 => s.prop_map(Some),
        1 => Just(None),
    ]
    .boxed()
}

fn arb_row() -> impl Strategy<Value = RowSpec> {
    (
        opt(-50i64..50),
        opt(arb_float()),
        opt(0u8..6),
        opt(any::<bool>()),
        opt(-1000i32..1000),
    )
        .prop_map(|(int, float, str_, bool_, date)| RowSpec {
            int,
            float,
            str_,
            bool_,
            date,
        })
}

fn build(rows: &[RowSpec]) -> Dataset {
    let schema = Schema::new(vec![
        AttributeDef::new("i", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("f", DataType::Float, AttributeRole::QuasiIdentifier),
        AttributeDef::new("s", DataType::Str, AttributeRole::QuasiIdentifier),
        AttributeDef::new("b", DataType::Bool, AttributeRole::QuasiIdentifier),
        AttributeDef::new("d", DataType::Date, AttributeRole::QuasiIdentifier),
    ]);
    let mut b = DatasetBuilder::new(schema);
    let names = ["ant", "bee", "cat", "dog", "eel", "fox"];
    let syms: Vec<_> = names.iter().map(|n| b.intern(n)).collect();
    for r in rows {
        b.push_row(vec![
            r.int.map_or(Value::Missing, Value::Int),
            r.float.map_or(Value::Missing, Value::Float),
            r.str_
                .map_or(Value::Missing, |i| Value::Str(syms[i as usize])),
            r.bool_.map_or(Value::Missing, Value::Bool),
            r.date
                .map_or(Value::Missing, |d| Value::Date(Date::from_day_number(d))),
        ]);
    }
    b.finish()
}

/// Every ValueEquals/IntRange target this schema can be probed with,
/// including Missing, type-mismatched, and out-of-domain targets.
fn probe_atoms(ds: &Dataset) -> Vec<Atom> {
    let mut atoms = Vec::new();
    let nan = Value::Float(f64::NAN);
    let sym = ds.interner().get("cat").unwrap();
    let absent_sym = ds.interner().get("fox").unwrap();
    for col in 0..ds.n_cols() {
        atoms.push(Atom::ValueEquals {
            col,
            value: Value::Missing,
        });
        // Type-matched and deliberately type-MISmatched targets per column.
        for value in [
            Value::Int(7),
            Value::Float(-0.0),
            Value::Float(0.0),
            nan,
            Value::Str(sym),
            Value::Str(absent_sym),
            Value::Bool(true),
            Value::Date(Date::from_day_number(250)),
        ] {
            atoms.push(Atom::ValueEquals { col, value });
        }
        atoms.push(Atom::IntRange {
            col,
            lo: -10,
            hi: 25,
        });
        atoms.push(Atom::IntRange { col, lo: 5, hi: -5 }); // inverted
    }
    // Every value that actually occurs in the dataset is also a target, so
    // hits are exercised, not just misses.
    for row in 0..ds.n_rows().min(8) {
        for col in 0..ds.n_cols() {
            atoms.push(Atom::ValueEquals {
                col,
                value: ds.get(row, col),
            });
        }
    }
    atoms
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every probe atom: bitmap scan == row oracle, bit for bit, on
    /// arbitrary datasets with ~10% missing cells.
    #[test]
    fn scans_equal_row_semantics(
        rows in proptest::collection::vec(arb_row(), 0..120),
    ) {
        let ds = build(&rows);
        for atom in probe_atoms(&ds) {
            let a = scan_atom(&atom, &ds).expect("tabular atom");
            prop_assert_eq!(a.len(), ds.n_rows(), "atom {:?}", &atom);
            for row in 0..ds.n_rows() {
                prop_assert_eq!(
                    Some(a.get(row)),
                    eval_atom_row(&atom, &ds, row),
                    "atom {:?} row {}", &atom, row
                );
            }
        }
    }

    /// Shard-local scans hold exactly the word-aligned slices of the full
    /// scan — the property the parallel merge relies on.
    #[test]
    fn range_scans_are_aligned_slices(
        rows in proptest::collection::vec(arb_row(), 65..200),
        cut_words in 1usize..3,
    ) {
        let ds = build(&rows);
        let n = ds.n_rows();
        // Clamp to a word boundary within the dataset (n >= 65 here).
        let cut = (cut_words * 64).min(n / 64 * 64);
        for atom in [
            Atom::IntRange { col: 0, lo: -20, hi: 20 },
            Atom::ValueEquals { col: 0, value: Value::Int(3) },
            Atom::ValueEquals { col: 2, value: Value::Missing },
        ] {
            let full = scan_atom(&atom, &ds).expect("tabular");
            let head = scan_atom_range(&atom, &ds, 0..cut).expect("tabular");
            let tail = scan_atom_range(&atom, &ds, cut..n).expect("tabular");
            prop_assert_eq!(&head, &full.slice_aligned(0..cut), "atom {:?}", &atom);
            prop_assert_eq!(&tail, &full.slice_aligned(cut..n), "atom {:?}", &atom);
        }
    }
}

#[test]
fn float_total_cmp_missing_and_mismatch_corners() {
    let rows: Vec<RowSpec> = [f64::NAN, -0.0, 0.0, 1.5, f64::NAN]
        .into_iter()
        .map(|f| RowSpec {
            int: Some(1),
            float: Some(f),
            str_: None,
            bool_: None,
            date: None,
        })
        .collect();
    let ds = build(&rows);
    // NaN is self-equal under total_cmp: both NaN rows selected.
    let nan = scan_atom(
        &Atom::ValueEquals {
            col: 1,
            value: Value::Float(f64::NAN),
        },
        &ds,
    )
    .unwrap();
    assert_eq!(nan.indices(), vec![0, 4]);
    // -0.0 and +0.0 are distinct values.
    let neg = scan_atom(
        &Atom::ValueEquals {
            col: 1,
            value: Value::Float(-0.0),
        },
        &ds,
    )
    .unwrap();
    let pos = scan_atom(
        &Atom::ValueEquals {
            col: 1,
            value: Value::Float(0.0),
        },
        &ds,
    )
    .unwrap();
    assert_eq!(neg.indices(), vec![1]);
    assert_eq!(pos.indices(), vec![2]);
    // Str-typed probe of a Float column selects nothing; Missing
    // selects exactly the masked rows (here: the whole str column).
    let sym = ds.interner().get("cat").unwrap();
    let mismatched = scan_atom(
        &Atom::ValueEquals {
            col: 1,
            value: Value::Str(sym),
        },
        &ds,
    )
    .unwrap();
    assert!(mismatched.is_zero());
    let missing = scan_atom(
        &Atom::ValueEquals {
            col: 2,
            value: Value::Missing,
        },
        &ds,
    )
    .unwrap();
    assert_eq!(missing.count_ones(), ds.n_rows());
}
