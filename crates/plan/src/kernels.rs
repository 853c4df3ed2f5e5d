//! Bitmap scan kernels — the one implementation of each atom's semantics.
//!
//! Every [`Atom`] of the IR has exactly one row-level and one columnar
//! (bitmap) evaluation, defined here. `so-query`'s typed predicates
//! (`IntRangePredicate`, `ValueEqualsPredicate`, `RowHashPredicate`, …)
//! delegate to these kernels, and [`crate::plan::QueryPlan`] executes
//! compiled workloads with them — so the linter, the single-query engine
//! path, and the batched planner can never disagree about what a predicate
//! selects.
//!
//! Atoms whose record type does not match return `None` rather than a wrong
//! answer: bit-string atoms ([`Atom::BitExtract`]) have no tabular
//! semantics, tabular atoms have no bit-string semantics, and
//! [`Atom::Opaque`] atoms are executable only through a registered closure
//! evaluator (see [`crate::workload::WorkloadSpec::push_predicate_arc`]).
//!
//! Every tabular kernel reads only the cell values of the row it decides
//! (the [`Atom`] contract): the row index locates the cells and never
//! enters the test. That is what makes a scan of a dataset's distinct-row
//! form ([`so_data::Dataset::distinct_rows`]) plus a weighted popcount
//! equal to a full scan plus a popcount. A kernel that needs the row index
//! belongs behind an [`Atom::Opaque`] evaluator instead.

use so_data::rng::keyed_hash;
use so_data::{BitVec, Dataset, Value};

use crate::ir::Atom;
use crate::predicate::canonical_bytes;

/// Evaluates an atom on one row of a tabular dataset. `None` when the atom
/// has no tabular semantics ([`Atom::BitExtract`], [`Atom::Opaque`]).
pub fn eval_atom_row(atom: &Atom, ds: &Dataset, row: usize) -> Option<bool> {
    match atom {
        Atom::IntRange { col, lo, hi } => Some(
            ds.get(row, *col)
                .as_int()
                .is_some_and(|v| v >= *lo && v <= *hi),
        ),
        Atom::ValueEquals { col, value } => Some(ds.get(row, *col) == *value),
        Atom::RowHash {
            key,
            modulus,
            target,
            cols,
        } => {
            let vals: Vec<Value> = cols.iter().map(|&c| ds.get(row, c)).collect();
            Some(keyed_hash(*key, &canonical_bytes(&vals)) % *modulus == *target)
        }
        Atom::KeyedHash {
            key,
            modulus,
            target,
        } => {
            let vals: Vec<Value> = (0..ds.n_cols()).map(|c| ds.get(row, c)).collect();
            Some(keyed_hash(*key, &canonical_bytes(&vals)) % *modulus == *target)
        }
        Atom::BitExtract { .. } | Atom::Opaque { .. } => None,
    }
}

/// Evaluates an atom on one bit-string record. `None` when the atom has no
/// bit-string semantics (tabular and opaque atoms).
pub fn eval_atom_bits(atom: &Atom, record: &BitVec) -> Option<bool> {
    match atom {
        Atom::BitExtract { bit, value } => Some(record.get(*bit) == *value),
        Atom::KeyedHash {
            key,
            modulus,
            target,
        } => Some(keyed_hash(*key, &record.to_le_bytes()) % *modulus == *target),
        _ => None,
    }
}

/// Compiles an atom into a selection bitmap over the rows of `ds` — the
/// columnar scan kernel. `None` when the atom has no tabular semantics.
///
/// Typed atoms (`ValueEquals`, `IntRange`) read the column's typed slice
/// and pack 64 rows per word ([`BitVec::from_column`]). Hash atoms
/// walk rows (the hash is inherently row-at-a-time) but still emit a packed
/// bitmap so downstream boolean combination stays word-parallel.
pub fn scan_atom(atom: &Atom, ds: &Dataset) -> Option<BitVec> {
    scan_atom_range(atom, ds, 0..ds.n_rows())
}

/// The shard-local form of [`scan_atom`]: the same kernel restricted to the
/// row range `rows`, emitting a bitmap of length `rows.len()` whose bit `i`
/// is row `rows.start + i`. `scan_atom` is this over `0..n_rows`, so the
/// serial and sharded execution paths cannot disagree — a shard-local bitmap
/// over a word-aligned range holds exactly the corresponding words of the
/// full-dataset bitmap.
///
/// # Panics
/// Panics if the range extends past the dataset.
pub fn scan_atom_range(atom: &Atom, ds: &Dataset, rows: std::ops::Range<usize>) -> Option<BitVec> {
    assert!(
        rows.start <= rows.end && rows.end <= ds.n_rows(),
        "row range {}..{} out of range {}",
        rows.start,
        rows.end,
        ds.n_rows()
    );
    let len = rows.len();
    match atom {
        Atom::IntRange { col, lo, hi } => {
            let column = ds.column(*col);
            Some(match column.int_values() {
                Some(vals) => {
                    BitVec::from_column(&vals[rows.clone()], &column.missing_mask()[rows], |&v| {
                        v >= *lo && v <= *hi
                    })
                }
                // Non-Int column: as_int() is always None, nothing matches.
                None => BitVec::zeros(len),
            })
        }
        Atom::ValueEquals { col, value } => Some(scan_value_equals(ds, *col, value, rows)),
        Atom::RowHash { .. } | Atom::KeyedHash { .. } => Some(BitVec::from_fn(len, |i| {
            eval_atom_row(atom, ds, rows.start + i).expect("hash atoms have tabular semantics")
        })),
        Atom::BitExtract { .. } | Atom::Opaque { .. } => None,
    }
}

/// Columnar exact-value kernel over a row range, one typed arm per
/// [`Value`] variant.
fn scan_value_equals(
    ds: &Dataset,
    col: usize,
    value: &Value,
    rows: std::ops::Range<usize>,
) -> BitVec {
    let column = ds.column(col);
    let missing = &column.missing_mask()[rows.clone()];
    let len = rows.len();
    match value {
        // `Missing == Missing` holds under Value's total order, so the
        // Missing target selects exactly the masked rows.
        Value::Missing => BitVec::from_fn(len, |i| missing[i]),
        Value::Int(x) => match column.int_values() {
            Some(vals) => BitVec::from_column(&vals[rows], missing, |v| v == x),
            None => BitVec::zeros(len),
        },
        // Value's float order is total_cmp, which separates -0.0 from
        // +0.0 and equates NaN with itself; mirror it bit-exactly.
        Value::Float(x) => match column.float_values() {
            Some(vals) => BitVec::from_column(&vals[rows], missing, |v| {
                v.total_cmp(x) == std::cmp::Ordering::Equal
            }),
            None => BitVec::zeros(len),
        },
        Value::Str(x) => match column.str_values() {
            Some(vals) => BitVec::from_column(&vals[rows], missing, |v| v == x),
            None => BitVec::zeros(len),
        },
        Value::Bool(x) => match column.bool_values() {
            Some(vals) => BitVec::from_column(&vals[rows], missing, |v| v == x),
            None => BitVec::zeros(len),
        },
        Value::Date(x) => match column.date_values() {
            Some(vals) => {
                let day = x.day_number();
                BitVec::from_column(&vals[rows], missing, |&v| v == day)
            }
            None => BitVec::zeros(len),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_data::{AttributeDef, AttributeRole, DataType, DatasetBuilder, Schema};

    fn ds() -> Dataset {
        let schema = Schema::new(vec![
            AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("sex", DataType::Str, AttributeRole::QuasiIdentifier),
        ]);
        let mut b = DatasetBuilder::new(schema);
        let f = b.intern("F");
        let m = b.intern("M");
        for (age, sex) in [(30, f), (40, m), (50, f), (70, m), (90, f)] {
            b.push_row(vec![Value::Int(age), Value::Str(sex)]);
        }
        b.finish()
    }

    #[test]
    fn scan_matches_eval_row_for_every_tabular_atom() {
        let ds = ds();
        let f = ds.interner().get("F").unwrap();
        let atoms = [
            Atom::IntRange {
                col: 0,
                lo: 35,
                hi: 75,
            },
            Atom::ValueEquals {
                col: 1,
                value: Value::Str(f),
            },
            Atom::RowHash {
                key: 0xBEEF,
                modulus: 2,
                target: 0,
                cols: vec![0, 1],
            },
            Atom::KeyedHash {
                key: 0xCAFE,
                modulus: 3,
                target: 1,
            },
        ];
        for atom in &atoms {
            let bitmap = scan_atom(atom, &ds).expect("tabular atom scans");
            for row in 0..ds.n_rows() {
                assert_eq!(
                    Some(bitmap.get(row)),
                    eval_atom_row(atom, &ds, row),
                    "atom {atom:?} row {row}"
                );
            }
        }
    }

    #[test]
    fn bit_atoms_have_no_tabular_scan() {
        let ds = ds();
        assert!(scan_atom(
            &Atom::BitExtract {
                bit: 0,
                value: true
            },
            &ds
        )
        .is_none());
        assert!(scan_atom(&Atom::Opaque { id: 1 }, &ds).is_none());
    }

    #[test]
    fn range_scan_holds_the_aligned_words_of_the_full_scan() {
        // Build enough rows to straddle word boundaries, then check every
        // tabular atom kind: the shard-local bitmap over a word-aligned
        // range must equal the full bitmap's slice over the same rows.
        let schema = Schema::new(vec![AttributeDef::new(
            "age",
            DataType::Int,
            AttributeRole::QuasiIdentifier,
        )]);
        let mut b = DatasetBuilder::new(schema);
        for i in 0..150i64 {
            b.push_row(vec![Value::Int(i % 37)]);
        }
        let big = b.finish();
        let atoms = [
            Atom::IntRange {
                col: 0,
                lo: 5,
                hi: 20,
            },
            Atom::ValueEquals {
                col: 0,
                value: Value::Int(7),
            },
            Atom::KeyedHash {
                key: 0xCAFE,
                modulus: 3,
                target: 1,
            },
        ];
        for atom in &atoms {
            let full = scan_atom(atom, &big).expect("tabular");
            for (lo, hi) in [(0usize, 64usize), (64, 128), (128, 150), (0, 150), (64, 64)] {
                let part = scan_atom_range(atom, &big, lo..hi).expect("tabular");
                assert_eq!(part, full.slice_aligned(lo..hi), "atom {atom:?} {lo}..{hi}");
            }
        }
    }

    #[test]
    fn bit_extract_eval_bits() {
        let r = BitVec::from_bools(&[true, false, true]);
        assert_eq!(
            eval_atom_bits(
                &Atom::BitExtract {
                    bit: 1,
                    value: false
                },
                &r
            ),
            Some(true)
        );
        assert_eq!(
            eval_atom_bits(
                &Atom::IntRange {
                    col: 0,
                    lo: 0,
                    hi: 1
                },
                &r
            ),
            None
        );
    }
}
