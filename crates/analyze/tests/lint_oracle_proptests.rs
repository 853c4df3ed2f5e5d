//! Differential property tests for two lint building blocks against
//! straightforward reference copies kept here, in the tests:
//!
//! * the dead/duplicate pass finds each exact query's first occurrence by
//!   sorting; the reference probes a `HashMap` of queries seen so far. The
//!   tautology, contradiction and duplicate findings must match in order,
//!   text and count, at every finding cap;
//! * [`lower_subsets`] groups rows by signatures kept in one flat word
//!   buffer; the reference builds one `BitVec` signature per row. The
//!   matrices — queries, error bounds, rows, cells in first-row order —
//!   and the truncation verdicts must match.
//!
//! Workloads mix repeated, near-duplicate (one row flipped), empty and
//! full masks, repeated and dead predicates, and noisy releases, over
//! mask lengths on both sides of the 64- and 128-query word boundaries.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::Rng;
use so_analyze::matrix::{lower_subsets, MatrixKind};
use so_analyze::{
    lint_workload, Finding, LintConfig, LintId, Lowered, MatrixCaps, Noise, QueryKind, Severity,
    WorkloadSpec,
};
use so_data::rng::seeded_rng;
use so_data::BitVec;
use so_plan::ir::ExprId;
use so_plan::shape::PredShape;
use so_query::query::SubsetQuery;

fn arb_noise(rng: &mut impl Rng) -> Noise {
    match rng.gen_range(0..4u32) {
        0 | 1 => Noise::Exact,
        2 => Noise::Bounded {
            alpha: rng.gen_range(0..20) as f64 / 10.0,
        },
        _ => Noise::PureDp {
            epsilon: rng.gen_range(1..20) as f64 / 20.0,
        },
    }
}

/// A random mask of the given density, in percent.
fn random_mask(rng: &mut impl Rng, n: usize, density: u32) -> BitVec {
    BitVec::from_fn(n, |_| rng.gen_range(0..100u32) < density)
}

/// `m` subset masks over `n` rows: fresh, repeated, one row flipped from an
/// earlier mask, empty or full.
fn subset_masks(rng: &mut impl Rng, n: usize, m: usize) -> Vec<BitVec> {
    let mut masks: Vec<BitVec> = Vec::new();
    for _ in 0..m {
        let mask = match rng.gen_range(0..6u32) {
            0 if !masks.is_empty() => masks[rng.gen_range(0..masks.len())].clone(),
            1 if !masks.is_empty() => {
                let mut near = masks[rng.gen_range(0..masks.len())].clone();
                let row = rng.gen_range(0..n);
                near.set(row, !near.get(row));
                near
            }
            2 => BitVec::zeros(n),
            3 => BitVec::ones(n),
            _ => {
                let density = rng.gen_range(0..=100u32);
                random_mask(rng, n, density)
            }
        };
        masks.push(mask);
    }
    masks
}

/// A predicate from a small catalogue, so repeats are common; the empty
/// conjunction and disjunction normalize to TRUE and FALSE.
fn catalogue_shape(rng: &mut impl Rng) -> PredShape {
    let range = |lo: i64, hi: i64| PredShape::IntRange { col: 0, lo, hi };
    match rng.gen_range(0..7u32) {
        0 => PredShape::And(Vec::new()),
        1 => PredShape::Or(Vec::new()),
        2 => PredShape::Not(Box::new(PredShape::And(Vec::new()))),
        3 => PredShape::And(vec![range(0, 3), range(2, 5)]),
        4 => PredShape::And(vec![range(2, 5), range(0, 3)]),
        _ => {
            let lo = rng.gen_range(0..4i64);
            range(lo, lo + rng.gen_range(0..3i64))
        }
    }
}

/// A workload of `m` queries over `n` rows mixing subset masks and
/// catalogue predicates under random noise.
fn mixed_workload(seed: u64, n: usize, m: usize) -> WorkloadSpec {
    let mut rng = seeded_rng(seed);
    let mut w = WorkloadSpec::new(n);
    let mut masks = subset_masks(&mut rng, n, m).into_iter();
    for _ in 0..m {
        let noise = arb_noise(&mut rng);
        if rng.gen_bool(0.5) {
            w.push_subset(&SubsetQuery::new(masks.next().expect("m masks")), noise);
        } else {
            w.push_shape(&catalogue_shape(&mut rng), noise);
        }
    }
    w
}

/// The reference item: a query's membership mask or its NNF id.
#[derive(PartialEq, Eq, Hash)]
enum RefItem<'a> {
    Subset(&'a BitVec),
    Pred(ExprId),
}

/// The reference dead/duplicate pass: the first occurrence of each exact
/// item comes from a map of the items seen so far.
fn reference_dead_and_duplicate(w: &mut WorkloadSpec, cap: usize) -> Vec<Finding> {
    let (queries, pool) = w.queries_and_pool_mut();
    let items: Vec<RefItem> = queries
        .iter()
        .map(|q| match &q.kind {
            QueryKind::Subset(mask) => RefItem::Subset(mask),
            QueryKind::Pred(id) => RefItem::Pred(pool.nnf(*id)),
        })
        .collect();
    let finding = |lint, queries, message: String| Finding {
        lint,
        severity: Severity::Warn,
        queries,
        message,
        evidence: None,
    };
    let mut out = Vec::new();
    let (mut dead, mut dups) = (0usize, 0usize);
    let mut seen: HashMap<&RefItem, usize> = HashMap::new();
    for (i, item) in items.iter().enumerate() {
        if queries[i].noise != Noise::Exact {
            continue;
        }
        match item {
            RefItem::Pred(nnf) => {
                if *nnf == pool.tru() && dead < cap {
                    dead += 1;
                    out.push(finding(
                        LintId::Tautology,
                        vec![i],
                        "predicate normalizes to TRUE — it matches every record, \
                         cannot isolate, and wastes a query"
                            .to_owned(),
                    ));
                }
                if *nnf == pool.fals() && dead < cap {
                    dead += 1;
                    out.push(finding(
                        LintId::Contradiction,
                        vec![i],
                        "predicate normalizes to FALSE — the answer is always 0".to_owned(),
                    ));
                }
            }
            RefItem::Subset(mask) => {
                if mask.count_ones() == 0 && dead < cap {
                    dead += 1;
                    out.push(finding(
                        LintId::Contradiction,
                        vec![i],
                        "empty subset query — the answer is always 0".to_owned(),
                    ));
                }
            }
        }
        if let Some(&first) = seen.get(item) {
            if dups < cap {
                dups += 1;
                out.push(finding(
                    LintId::Duplicate,
                    vec![first, i],
                    format!(
                        "query #{i} is structurally identical to #{first} under exact release — \
                         a repeated answer adds no information and aliases the bitmap cache"
                    ),
                ));
            }
        } else {
            seen.insert(item, i);
        }
    }
    out
}

/// A reference-built subset matrix: queries, error bounds, rows, and each
/// cell's `(first row, row count)`.
#[derive(Debug, PartialEq)]
enum RefLowered {
    Built {
        queries: Vec<usize>,
        alphas: Vec<f64>,
        rows: Vec<BitVec>,
        cells: Vec<(usize, usize)>,
    },
    Empty,
    Truncated,
}

/// The reference subset lowering: one `BitVec` signature per row, grouped
/// by a map probed in row order.
fn reference_lower_subsets(w: &WorkloadSpec, alpha_cut: f64, caps: MatrixCaps) -> RefLowered {
    let n = w.n_rows();
    let (mut queries, mut alphas, mut masks) = (Vec::new(), Vec::new(), Vec::new());
    for (i, q) in w.queries().iter().enumerate() {
        if let QueryKind::Subset(mask) = &q.kind {
            let alpha = q.noise.effective_alpha();
            if alpha <= alpha_cut {
                queries.push(i);
                alphas.push(alpha);
                masks.push(mask);
            }
        }
    }
    if queries.is_empty() || n == 0 {
        return RefLowered::Empty;
    }
    if n.saturating_mul(queries.len()) > caps.bit_budget {
        return RefLowered::Truncated;
    }
    let mut sigs: Vec<BitVec> = vec![BitVec::zeros(queries.len()); n];
    for (qi, mask) in masks.iter().enumerate() {
        for row in mask.iter_ones() {
            sigs[row].set(qi, true);
        }
    }
    let mut index: HashMap<&BitVec, usize> = HashMap::new();
    let mut cell_sig: Vec<&BitVec> = Vec::new();
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for (row, sig) in sigs.iter().enumerate() {
        if let Some(&c) = index.get(sig) {
            cells[c].1 += 1;
        } else {
            if cell_sig.len() >= caps.max_cells {
                return RefLowered::Truncated;
            }
            index.insert(sig, cell_sig.len());
            cell_sig.push(sig);
            cells.push((row, 1));
        }
    }
    let mut rows = vec![BitVec::zeros(cell_sig.len()); queries.len()];
    for (c, sig) in cell_sig.iter().enumerate() {
        for qi in sig.iter_ones() {
            rows[qi].set(c, true);
        }
    }
    RefLowered::Built {
        queries,
        alphas,
        rows,
        cells,
    }
}

/// The lowering under test, in the reference's terms. Cell regions are
/// read back through their evidence labels, `rows≡{first} ({count} row(s))`.
fn lowered_as_reference(w: &WorkloadSpec, lowered: Lowered) -> RefLowered {
    match lowered {
        Lowered::Empty => RefLowered::Empty,
        Lowered::Truncated => RefLowered::Truncated,
        Lowered::Built(m) => {
            assert_eq!(m.kind, MatrixKind::SubsetMasks);
            let cells = (0..m.cells.len())
                .map(|c| {
                    let label = m.label(c, w.pool());
                    let (first, count) = label
                        .strip_prefix("rows≡")
                        .and_then(|l| l.strip_suffix(" row(s))"))
                        .and_then(|l| l.split_once(" ("))
                        .unwrap_or_else(|| panic!("unexpected cell label {label:?}"));
                    let count: usize = count.parse().expect("count");
                    assert_eq!(m.cells[c].width_hi, count as f64, "cell {c}");
                    (first.parse().expect("first row"), count)
                })
                .collect();
            RefLowered::Built {
                queries: m.queries,
                alphas: m.alphas,
                rows: m.rows,
                cells,
            }
        }
    }
}

fn finding_key(f: &Finding) -> (LintId, Severity, Vec<usize>, String, bool) {
    (
        f.lint,
        f.severity,
        f.queries.clone(),
        f.message.clone(),
        f.evidence.is_none(),
    )
}

proptest! {
    /// The sorted first-occurrence search reports exactly the reference's
    /// dead and duplicate findings: same order, text and cap, first in the
    /// report, and nowhere else.
    #[test]
    fn dead_and_duplicate_findings_match_the_reference(
        seed in any::<u64>(),
        n in 1usize..140,
        m in 1usize..80,
        cap in 1usize..10,
    ) {
        let mut w = mixed_workload(seed, n, m);
        let cfg = LintConfig { max_findings_per_lint: cap, ..LintConfig::default() };
        let report = lint_workload(&mut w, &cfg);
        let expected = reference_dead_and_duplicate(&mut w, cap);
        let got: Vec<_> = report.findings.iter().take(expected.len()).map(finding_key).collect();
        let want: Vec<_> = expected.iter().map(finding_key).collect();
        prop_assert_eq!(got, want);
        let hygiene = [LintId::Tautology, LintId::Contradiction, LintId::Duplicate];
        let total: usize = hygiene.iter().map(|&id| report.count(id)).sum();
        prop_assert_eq!(total, expected.len());
    }

    /// The flat-buffer subset lowering builds the reference's matrix, or
    /// reaches the reference's truncation verdict, at every accuracy cut
    /// and cell cap.
    #[test]
    fn subset_lowering_matches_the_reference(
        seed in any::<u64>(),
        n in 1usize..300,
        m in 1usize..140,
        alpha_cut in prop_oneof![Just(0.0), Just(1.0), Just(f64::INFINITY)],
        max_cells in prop_oneof![1usize..8, Just(64usize), Just(100_000usize)],
    ) {
        let mut rng = seeded_rng(seed);
        let mut w = WorkloadSpec::new(n);
        for mask in subset_masks(&mut rng, n, m) {
            let noise = arb_noise(&mut rng);
            w.push_subset(&SubsetQuery::new(mask), noise);
        }
        let caps = MatrixCaps { max_cells, bit_budget: 1 << 23 };
        let expected = reference_lower_subsets(&w, alpha_cut, caps);
        let got = lowered_as_reference(&w, lower_subsets(&w, alpha_cut, caps));
        prop_assert_eq!(got, expected);
    }
}
