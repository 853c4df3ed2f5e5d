//! Property-based tests: the lifted / NNF-normalized predicate-algebra IR is
//! row-for-row equivalent to the original predicates, and the structural
//! hash is injective on the generated expression space.

use proptest::prelude::*;
use rand::Rng;
use so_data::rng::seeded_rng;
use so_data::{
    AttributeDef, AttributeRole, BitVec, DataType, Dataset, DatasetBuilder, Schema, Value,
};
use so_plan::ir::PredPool;
use so_query::predicate::{
    AllRowPredicate, AndPredicate, AnyRowPredicate, BitExtractPredicate, IntRangePredicate,
    KeyedHashPredicate, NotPredicate, NotRowPredicate, OrPredicate, Predicate, PrefixPredicate,
    RowPredicate, ValueEqualsPredicate,
};
use so_query::scan_dataset;

/// Arbitrary two-int-column dataset. Row counts range over 1..200, so
/// `n % 64 != 0` tail words are the common case and exact multiples of 64
/// are exercised too.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    proptest::collection::vec(
        (
            (any::<bool>(), -20i64..20).prop_map(|(p, v)| p.then_some(v)),
            0i64..4,
        ),
        1..200,
    )
    .prop_map(|rows| {
        let schema = Schema::new(vec![
            AttributeDef::new("a", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("b", DataType::Int, AttributeRole::Sensitive),
        ]);
        let mut b = DatasetBuilder::new(schema);
        for (a, v) in rows {
            b.push_row(vec![a.map_or(Value::Missing, Value::Int), Value::Int(v)]);
        }
        b.finish()
    })
}

/// A random `RowPredicate` tree with nested And/Or/Not over range and
/// value-equality atoms (the honest-workload shapes).
fn random_row_tree(rng: &mut impl Rng, depth: usize) -> Box<dyn RowPredicate> {
    let leaf_only = depth == 0;
    match rng.gen_range(0..if leaf_only { 2u32 } else { 5 }) {
        0 => {
            let lo = rng.gen_range(-25i64..20);
            Box::new(IntRangePredicate {
                col: 0,
                lo,
                hi: lo + rng.gen_range(0i64..20),
            })
        }
        1 => Box::new(ValueEqualsPredicate {
            col: 1,
            value: Value::Int(rng.gen_range(0i64..4)),
        }),
        2 => Box::new(AllRowPredicate {
            parts: (0..rng.gen_range(1usize..4))
                .map(|_| random_row_tree(rng, depth - 1))
                .collect(),
        }),
        3 => Box::new(AnyRowPredicate {
            parts: (0..rng.gen_range(1usize..4))
                .map(|_| random_row_tree(rng, depth - 1))
                .collect(),
        }),
        _ => Box::new(NotRowPredicate {
            inner: random_row_tree(rng, depth - 1),
        }),
    }
}

/// A random bit-string predicate tree over the paper's attack atoms
/// (single bits, prefixes, keyed-hash residues).
fn random_bit_tree(rng: &mut impl Rng, depth: usize) -> Box<dyn Predicate<BitVec>> {
    let leaf_only = depth == 0;
    match rng.gen_range(0..if leaf_only { 3u32 } else { 6 }) {
        0 => Box::new(BitExtractPredicate {
            bit: rng.gen_range(0usize..70),
            value: rng.gen_bool(0.5),
        }),
        1 => Box::new(PrefixPredicate {
            prefix: (0..rng.gen_range(0usize..8))
                .map(|_| rng.gen_bool(0.5))
                .collect(),
        }),
        2 => {
            let modulus = rng.gen_range(2u64..64);
            Box::new(KeyedHashPredicate::new(
                rng.gen::<u64>(),
                modulus,
                rng.gen_range(0..modulus),
            ))
        }
        3 => Box::new(AndPredicate {
            left: random_bit_tree(rng, depth - 1),
            right: random_bit_tree(rng, depth - 1),
        }),
        4 => Box::new(OrPredicate {
            left: random_bit_tree(rng, depth - 1),
            right: random_bit_tree(rng, depth - 1),
        }),
        _ => Box::new(NotPredicate {
            inner: random_bit_tree(rng, depth - 1),
        }),
    }
}

proptest! {
    /// Lifting a row-predicate tree into the pool, with and without NNF
    /// normalization, preserves its row-for-row semantics — and the
    /// word-parallel scan agrees, covering `n % 64 != 0` tails.
    #[test]
    fn lifted_and_nnf_eval_match_row_predicate(ds in arb_dataset(), seed in any::<u64>()) {
        let mut rng = seeded_rng(seed);
        let p = random_row_tree(&mut rng, 3);
        let mut pool = PredPool::new();
        let id = pool.lift(&p.shape());
        let nnf = pool.nnf(id);
        let mut lifted_count = 0usize;
        for row in 0..ds.n_rows() {
            let direct = p.eval_row(&ds, row);
            prop_assert_eq!(pool.eval_row(id, &ds, row), Some(direct), "row {}", row);
            prop_assert_eq!(pool.eval_row(nnf, &ds, row), Some(direct), "nnf row {}", row);
            lifted_count += usize::from(direct);
        }
        prop_assert_eq!(scan_dataset(&ds, p.as_ref()).count_ones(), lifted_count);
    }

    /// The same equivalence for bit-string predicates (attack atoms),
    /// including records whose length is not a multiple of 64.
    #[test]
    fn lifted_and_nnf_eval_match_bit_predicate(
        seed in any::<u64>(),
        records in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 70), 1..20),
    ) {
        let mut rng = seeded_rng(seed);
        let p = random_bit_tree(&mut rng, 3);
        let mut pool = PredPool::new();
        let id = pool.lift(&p.shape());
        let nnf = pool.nnf(id);
        for bools in &records {
            let r = BitVec::from_bools(bools);
            let direct = p.eval(&r);
            prop_assert_eq!(pool.eval_bits(id, &r), Some(direct));
            prop_assert_eq!(pool.eval_bits(nnf, &r), Some(direct));
        }
    }

    /// Structural hashing is injective on the generated expression space:
    /// within one pool, two expressions share a hash iff they are the same
    /// interned expression.
    #[test]
    fn structural_hash_injective(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        let mut pool = PredPool::new();
        let a = pool.lift(&random_row_tree(&mut seeded_rng(seed_a), 3).shape());
        let b = pool.lift(&random_row_tree(&mut seeded_rng(seed_b), 3).shape());
        prop_assert_eq!(pool.structural_hash(a) == pool.structural_hash(b), a == b);
        let c = pool.lift(&random_bit_tree(&mut seeded_rng(seed_a ^ 0xb17), 3).shape());
        let d = pool.lift(&random_bit_tree(&mut seeded_rng(seed_b ^ 0xb17), 3).shape());
        prop_assert_eq!(pool.structural_hash(c) == pool.structural_hash(d), c == d);
        // Row and bit expressions never collide with each other either.
        prop_assert_eq!(pool.structural_hash(a) == pool.structural_hash(c), a == c);
    }

    /// NNF is semantics-preserving under double negation of whole trees:
    /// ¬¬p normalizes back to p's normal form.
    #[test]
    fn double_negation_normalizes_away(seed in any::<u64>()) {
        let mut rng = seeded_rng(seed);
        let p = random_row_tree(&mut rng, 3);
        let mut pool = PredPool::new();
        let id = pool.lift(&p.shape());
        let n1 = pool.not(id);
        let n2 = pool.not(n1);
        prop_assert_eq!(n2, id);
        let nnf = pool.nnf(id);
        prop_assert_eq!(pool.nnf(nnf), nnf, "NNF is a fixpoint");
    }
}
