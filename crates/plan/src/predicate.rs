//! Predicates `p : X → {0,1}` over records.
//!
//! The Article 29 Working Party defines singling out as "the possibility to
//! isolate some or all records which identify an individual in the dataset";
//! the paper formalizes the isolating object as a *predicate* on records
//! (Definition 2.1). Everything downstream — isolation, predicate weight,
//! the PSO game, workload planning — is parameterized by these traits. The
//! concrete typed predicates (range / value / keyed-hash tests and the
//! boolean combinators) live in `so-query`; the traits live here so that
//! [`crate::workload::WorkloadSpec`] can carry executable predicates and the
//! compilation pipeline stays below the engine.

use std::sync::Arc;

use so_data::{BitVec, Dataset, Value};

use crate::shape::PredShape;

/// A boolean predicate over records of type `R`.
pub trait Predicate<R: ?Sized>: Send + Sync {
    /// Evaluates the predicate on one record.
    fn eval(&self, record: &R) -> bool;

    /// Human-readable description (for audit logs and experiment output).
    fn describe(&self) -> String {
        "<predicate>".to_owned()
    }

    /// Structural form of the predicate (see [`PredShape`]). The default is
    /// [`PredShape::Volatile`] — structure unknown, never cached; typed
    /// predicates override it so caches and the static workload linter can
    /// reason about them.
    fn shape(&self) -> PredShape {
        PredShape::Volatile
    }
}

impl<R: ?Sized, P: Predicate<R> + ?Sized> Predicate<R> for &P {
    fn eval(&self, record: &R) -> bool {
        (**self).eval(record)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }

    fn shape(&self) -> PredShape {
        (**self).shape()
    }
}

impl<R: ?Sized, P: Predicate<R> + ?Sized> Predicate<R> for Arc<P> {
    fn eval(&self, record: &R) -> bool {
        (**self).eval(record)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }

    fn shape(&self) -> PredShape {
        (**self).shape()
    }
}

impl<R: ?Sized, P: Predicate<R> + ?Sized> Predicate<R> for Box<P> {
    fn eval(&self, record: &R) -> bool {
        (**self).eval(record)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }

    fn shape(&self) -> PredShape {
        (**self).shape()
    }
}

/// A predicate over rows of a tabular [`Dataset`], evaluated positionally so
/// implementations can avoid materializing rows.
pub trait RowPredicate: Send + Sync {
    /// Evaluates the predicate on row `row` of `ds`.
    fn eval_row(&self, ds: &Dataset, row: usize) -> bool;

    /// Evaluates the predicate over *every* row at once, returning a
    /// selection bitmap (bit `i` set iff row `i` matches).
    ///
    /// The default implementation is the row-at-a-time loop and serves as
    /// the reference oracle; typed predicates override it with columnar
    /// scan kernels that read one column slice and combine results with
    /// word-level boolean ops. Implementations must agree exactly with
    /// [`RowPredicate::eval_row`] on every row.
    fn scan(&self, ds: &Dataset) -> BitVec {
        BitVec::from_fn(ds.n_rows(), |row| self.eval_row(ds, row))
    }

    /// Human-readable description.
    fn describe(&self) -> String {
        "<row predicate>".to_owned()
    }

    /// Structural form of the predicate (see [`PredShape`]). The default is
    /// [`PredShape::Volatile`]: structure unknown and identity unstable, so
    /// the engine's bitmap cache will evaluate the predicate fresh on every
    /// query rather than risk returning another predicate's cached rows.
    /// Typed predicates override this; opaque closures should go through
    /// `so-query`'s `FnRowPredicate`, which carries a stable unique identity
    /// instead.
    fn shape(&self) -> PredShape {
        PredShape::Volatile
    }
}

impl<P: RowPredicate + ?Sized> RowPredicate for Arc<P> {
    fn eval_row(&self, ds: &Dataset, row: usize) -> bool {
        (**self).eval_row(ds, row)
    }

    fn scan(&self, ds: &Dataset) -> BitVec {
        (**self).scan(ds)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }

    fn shape(&self) -> PredShape {
        (**self).shape()
    }
}

/// Canonical byte encoding of a row for hashing: type tag + payload per cell.
pub fn canonical_bytes(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.len() * 9);
    for v in row {
        match v {
            Value::Int(x) => {
                out.push(1);
                out.extend_from_slice(&x.to_le_bytes());
            }
            Value::Float(x) => {
                out.push(2);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(3);
                out.extend_from_slice(&s.index().to_le_bytes());
            }
            Value::Bool(b) => {
                out.push(4);
                out.push(u8::from(*b));
            }
            Value::Date(d) => {
                out.push(5);
                out.extend_from_slice(&d.day_number().to_le_bytes());
            }
            Value::Missing => out.push(0),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_bytes_injective_across_types() {
        // Int(1) and Bool(true) and Float(bits of 1) must encode differently.
        let a = canonical_bytes(&[Value::Int(1)]);
        let b = canonical_bytes(&[Value::Bool(true)]);
        let c = canonical_bytes(&[Value::Float(f64::from_bits(1))]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
