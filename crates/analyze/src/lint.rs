//! Static lint passes over declared workloads.
//!
//! Each pass recognizes one of the paper's attack *shapes* in a
//! [`WorkloadSpec`] before any query executes:
//!
//! * **differencing** — pairs `A`, `A ∧ ¬B` (equivalently nested subset
//!   queries) whose symbolic residue provably covers at most `t` rows: the
//!   shape of every tracker attack, and the `m = 2` special case of the
//!   Theorem 1.1 reconstruction premise ("overly accurate answers to too
//!   many questions");
//! * **reconstruction density** — workloads whose query/row ratio crosses
//!   the Dinur–Nissim regimes: the exhaustive `2^n`-query attack of
//!   Theorem 1.1(i) (error tolerance `α = o(n)`) and the polynomial
//!   LP-decoding attack of Theorem 1.1(ii) (`m ≳ 4n` queries at
//!   `α = O(√n)`);
//! * **query-matrix passes** — the workload lowered to an abstract 0/1
//!   matrix over atom-partition cells ([`crate::matrix`]): full structural
//!   column rank over a partition with a narrow cell means the released
//!   answers pin every cell count (`SO-LINREC`, the
//!   Kasiviswanathan–Rudelson–Smith linear-reconstruction criterion,
//!   arXiv:1210.2381); a chain of admitted differences reaching a narrow
//!   region is a classic tracker (`SO-TRACKER`, [`crate::lattice`]); a
//!   narrow cell in the rational row span of the exact releases is isolated
//!   by an admitted combination (`SO-COVER`). A predicate family is lowered
//!   only if one of these passes could change the report, decided from its
//!   atoms and error bounds before any cell is built:
//!   - `SO-LINREC` and `SO-COVER` need a narrow cell (`0 < width_hi ≤ t`).
//!     Without a design-weighted atom every sign cell is exactly `n` wide,
//!     so there is none when `n > t`;
//!   - `SO-TRACKER` needs a row with finite error `α < 0.5`; without one it
//!     examines no combination;
//!   - the lowering cannot truncate when `2^atoms ≤ matrix_max_cells`.
//!
//!   When all three rule a family out — a DP range dashboard, whose atoms
//!   all read data — it counts as [`Lowered::Empty`], and the report is the
//!   one lowering it would have produced. Inside a built matrix, `SO-COVER`
//!   likewise looks for a narrow cell before it builds its rational basis;
//! * **ε-budget precheck** — statically sums worst-case privacy cost
//!   against a fresh [`ContinualAccountant`] (basic composition) so an over-budget
//!   workload is refused before its first answer, and exact-release queries
//!   are rejected outright under an ε-gated policy;
//! * **tautology / contradiction / duplicate** — dead queries and repeated
//!   queries that waste budget and alias cache keys.
//!
//! Findings carry a lint id, severity, the offending query indices, and a
//! human-readable explanation — a refusal with a citable reason.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use so_data::BitVec;
use so_dp::ContinualAccountant;
use so_plan::ir::{ExprId, PredPool};
use so_plan::workload::{Noise, QueryKind, WorkloadSpec};

use crate::matrix::{
    gf2_rank, lower_family, lower_subsets, Lowered, MatrixCaps, PredicateFamily, QueryMatrix,
    RowBasis,
};

/// Identity of a lint pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintId {
    /// Pair differencing / tracker shape (Theorem 1.1 with `m = 2`).
    Differencing,
    /// Dinur–Nissim reconstruction density (Theorem 1.1(i)/(ii)).
    ReconstructionDensity,
    /// Worst-case privacy cost exceeds the configured ε budget.
    BudgetExceeded,
    /// A query that matches every record.
    Tautology,
    /// A query that matches no record.
    Contradiction,
    /// A query repeated verbatim (structurally) under exact release.
    Duplicate,
    /// The accurate-query matrix has full structural column rank over a
    /// cell partition with a narrow cell — the KRS linear-reconstruction
    /// feasibility criterion (arXiv:1210.2381).
    LinearReconstruction,
    /// A tracker chain: repeated differencing of admitted releases derives
    /// a region narrow enough to single out (Theorem 2.8 beyond pairs).
    TrackerChain,
    /// A narrow cell lies in the rational row span of the exact releases —
    /// an admitted combination isolates it.
    CellCover,
}

impl LintId {
    /// Every lint, in pass order. The single source of truth for
    /// enumeration (reports, metrics, experiments).
    pub const ALL: [LintId; 9] = [
        LintId::Tautology,
        LintId::Contradiction,
        LintId::Duplicate,
        LintId::Differencing,
        LintId::LinearReconstruction,
        LintId::TrackerChain,
        LintId::CellCover,
        LintId::ReconstructionDensity,
        LintId::BudgetExceeded,
    ];

    /// Stable machine-facing lint code. Each code string appears exactly
    /// once in the workspace: here.
    pub fn code(self) -> &'static str {
        match self {
            LintId::Differencing => "SO-DIFF",
            LintId::ReconstructionDensity => "SO-RECON",
            LintId::BudgetExceeded => "SO-BUDGET",
            LintId::Tautology => "SO-TAUT",
            LintId::Contradiction => "SO-CONTRA",
            LintId::Duplicate => "SO-DUP",
            LintId::LinearReconstruction => "SO-LINREC",
            LintId::TrackerChain => "SO-TRACKER",
            LintId::CellCover => "SO-COVER",
        }
    }

    /// Inverse of [`LintId::code`].
    pub fn from_code(code: &str) -> Option<LintId> {
        LintId::ALL.into_iter().find(|id| id.code() == code)
    }
}

impl std::fmt::Display for LintId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not provably unsafe; the workload may still run.
    Warn,
    /// Provable attack shape; a gatekeeper must refuse the workload.
    Deny,
}

/// Structured evidence behind a finding: the numbers a reviewer (or the
/// refusal audit trail) can check without re-running the pass. Only the
/// fields the firing pass actually computed are set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Evidence {
    /// Structural rank estimate of the accurate-query matrix.
    pub rank: Option<usize>,
    /// Number of atom-partition cells (matrix columns).
    pub cells: Option<usize>,
    /// Contributing query indices, in derivation/combination order.
    pub chain: Vec<usize>,
    /// Design-width bound on the isolated region (expected rows).
    pub width_hi: Option<f64>,
    /// The isolated region, rendered.
    pub region: Option<String>,
}

impl Evidence {
    /// True iff no field is set.
    pub fn is_empty(&self) -> bool {
        *self == Evidence::default()
    }
}

impl std::fmt::Display for Evidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut sep = "";
        let mut part = |f: &mut std::fmt::Formatter<'_>, s: String| {
            let r = write!(f, "{sep}{s}");
            sep = " ";
            r
        };
        if let (Some(rank), Some(cells)) = (self.rank, self.cells) {
            part(f, format!("rank={rank}/{cells}"))?;
        } else if let Some(cells) = self.cells {
            part(f, format!("cells={cells}"))?;
        }
        if !self.chain.is_empty() {
            part(f, format!("chain={:?}", self.chain))?;
        }
        if let Some(w) = self.width_hi {
            part(f, format!("width≤{w:.2}"))?;
        }
        if let Some(region) = &self.region {
            part(f, format!("region={region}"))?;
        }
        Ok(())
    }
}

/// One diagnostic produced by a lint pass.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which pass fired.
    pub lint: LintId,
    /// How bad it is.
    pub severity: Severity,
    /// Offending query indices (declaration order); empty when the finding
    /// concerns the workload as a whole.
    pub queries: Vec<usize>,
    /// Human-readable explanation with the paper grounding.
    pub message: String,
    /// Structured evidence, when the pass computed any.
    pub evidence: Option<Evidence>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        };
        write!(f, "[{sev}] {}", self.lint)?;
        if !self.queries.is_empty() {
            let ids: Vec<String> = self.queries.iter().map(|q| format!("#{q}")).collect();
            write!(f, " (queries {})", ids.join(", "))?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(ev) = &self.evidence {
            if !ev.is_empty() {
                write!(f, " [{ev}]")?;
            }
        }
        Ok(())
    }
}

/// The outcome of linting a workload.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, in pass order.
    pub findings: Vec<Finding>,
    /// Number of query pairs the differencing pass examined (candidate
    /// pairs after structural bucketing, not all `m·(m−1)/2`).
    pub pairs_examined: usize,
    /// Number of set differences the tracker-chain search examined.
    pub tracker_combos_examined: usize,
    /// True iff a pass stopped early on its pair budget or finding cap —
    /// the absence of further findings is then *not* evidence of safety.
    pub truncated: bool,
}

impl LintReport {
    /// True iff any finding is [`Severity::Deny`] — the gatekeeper verdict.
    pub fn denies(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Deny)
    }

    /// Number of findings from one pass.
    pub fn count(&self, lint: LintId) -> usize {
        self.findings.iter().filter(|f| f.lint == lint).count()
    }

    /// The findings of one pass, in order.
    pub fn findings_for(&self, lint: LintId) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.lint == lint).collect()
    }

    /// One-word verdict for tables and logs.
    pub fn verdict(&self) -> &'static str {
        if self.denies() {
            "REFUSE"
        } else if self.findings.is_empty() {
            "PASS"
        } else {
            "WARN"
        }
    }
}

/// Tunables for the lint passes.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Differencing fires when a residue provably covers at most this many
    /// rows (the `t` of "can isolate ≤ t rows"). Default 1 — strict
    /// singling out.
    pub isolation_threshold: usize,
    /// LP-regime density threshold: deny when the workload holds at least
    /// `lp_ratio · n` sufficiently-accurate queries. Theorem 1.1(ii) needs
    /// `m = Θ(n)`; 4 is the customary constant ("Linear Program
    /// Reconstruction in Practice" succeeds well below it).
    pub lp_ratio: f64,
    /// A query counts toward the LP regime when its effective error is at
    /// most `lp_alpha_factor · √n` (Theorem 1.1(ii)'s `α = O(√n)`).
    pub lp_alpha_factor: f64,
    /// When set, the ε-budget pass prechecks the workload's worst-case cost
    /// against a fresh accountant with this budget, and flags exact-release
    /// queries as unbounded cost.
    pub epsilon_budget: Option<f64>,
    /// Upper bound on query pairs the differencing pass examines before
    /// truncating (quadratic-blowup guard; the density pass still covers
    /// huge workloads).
    pub pair_budget: usize,
    /// Per-lint cap on reported findings (diagnostic noise guard).
    pub max_findings_per_lint: usize,
    /// Cap on atom-partition cells per query matrix; past it the matrix
    /// passes are skipped and the report is marked truncated. Cell
    /// refinement grows monotonically, so hitting the cap is invariant
    /// under query permutation.
    pub matrix_max_cells: usize,
    /// Cap on the `n_rows × queries` bit volume of the subset-mask
    /// lowering (the only matrix cost proportional to the dataset).
    pub matrix_bit_budget: usize,
    /// `SO-LINREC` needs at least this many cells: tiny partitions are the
    /// differencing passes' territory and would only duplicate findings.
    pub linrec_min_cells: usize,
    /// Set-difference budget for the `SO-TRACKER` lattice search.
    pub tracker_budget: usize,
    /// Maximum queries per tracker chain.
    pub max_chain_len: usize,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            isolation_threshold: 1,
            lp_ratio: 4.0,
            lp_alpha_factor: 1.0,
            epsilon_budget: None,
            pair_budget: 2_000_000,
            max_findings_per_lint: 8,
            matrix_max_cells: 1024,
            matrix_bit_budget: 1 << 23,
            linrec_min_cells: 3,
            tracker_budget: 20_000,
            max_chain_len: 8,
        }
    }
}

/// A query as the lints see it: index, release noise, and either an exact
/// membership mask or a canonical (NNF) predicate id. Equal items are
/// structurally identical queries.
#[derive(PartialEq, Eq)]
enum LintItem<'a> {
    Subset { mask: &'a BitVec },
    Pred { nnf: ExprId },
}

impl LintItem<'_> {
    /// A total order whose equal items are exactly the `==` ones:
    /// predicates by NNF id, then subsets by mask length and words.
    fn order(&self, other: &Self) -> Ordering {
        match (self, other) {
            (LintItem::Pred { nnf: a }, LintItem::Pred { nnf: b }) => a.cmp(b),
            (LintItem::Subset { mask: a }, LintItem::Subset { mask: b }) => {
                (a.len(), a.words()).cmp(&(b.len(), b.words()))
            }
            (LintItem::Pred { .. }, LintItem::Subset { .. }) => Ordering::Less,
            (LintItem::Subset { .. }, LintItem::Pred { .. }) => Ordering::Greater,
        }
    }
}

/// Two releases whose combined worst-case error cannot blur a count by a
/// whole row: their difference is pinned to a unique integer, so residue
/// arithmetic is exact. Pure DP never qualifies (unbounded worst case).
fn effectively_exact(a: Noise, b: Noise) -> bool {
    let bound = |n: Noise| match n {
        Noise::Exact => Some(0.0),
        Noise::Bounded { alpha } => Some(alpha),
        Noise::PureDp { .. } => None,
    };
    match (bound(a), bound(b)) {
        (Some(x), Some(y)) => x + y < 0.5,
        _ => false,
    }
}

/// Runs every lint pass over `workload` and collects the findings.
///
/// The workload is taken `&mut` because the differencing pass interns
/// symbolic residues (`A ∧ ¬B`) into the workload's own pool; no queries
/// are added, removed, or reordered.
pub fn lint_workload(workload: &mut WorkloadSpec, cfg: &LintConfig) -> LintReport {
    // Wall clock here is export-only: it feeds the `so_analyze_lint_micros`
    // histogram for `SO_METRICS` dumps and never reaches a finding, report
    // field, or transcript.
    let start = std::time::Instant::now();
    let span = so_obs::span("gate.lint");
    let report = lint_workload_passes(workload, cfg);
    if so_obs::enabled() {
        span.finish_with(&[
            ("queries", workload.len().to_string()),
            ("findings", report.findings.len().to_string()),
            (
                "verdict",
                if report.denies() { "deny" } else { "allow" }.to_owned(),
            ),
        ]);
    }
    crate::obs::record_lint_run(&report, start.elapsed().as_micros() as u64);
    report
}

fn lint_workload_passes(workload: &mut WorkloadSpec, cfg: &LintConfig) -> LintReport {
    let n = workload.n_rows();
    let noises: Vec<Noise> = workload.queries().iter().map(|q| q.noise).collect();
    let nnf = canonical_nnf(workload);
    let mut report = LintReport::default();
    item_passes(workload, &nnf, &noises, cfg, &mut report);
    matrix_passes(workload, &nnf, n, cfg, &mut report);
    density_pass(&noises, n, cfg, &mut report);
    budget_pass(&noises, cfg, &mut report);
    report
}

/// Canonicalizes every predicate query to NNF up front (pool mutation);
/// subset queries map to `None`.
fn canonical_nnf(workload: &mut WorkloadSpec) -> Vec<Option<ExprId>> {
    let (queries, pool) = workload.queries_and_pool_mut();
    queries
        .iter()
        .map(|q| match &q.kind {
            QueryKind::Pred(id) => Some(pool.nnf(*id)),
            QueryKind::Subset(_) => None,
        })
        .collect()
}

/// The passes over the per-query lint view: dead/duplicate queries, then
/// differencing.
fn item_passes(
    workload: &mut WorkloadSpec,
    nnf: &[Option<ExprId>],
    noises: &[Noise],
    cfg: &LintConfig,
    report: &mut LintReport,
) {
    let n = workload.n_rows();
    // The items borrow the queries while differencing interns residues.
    let (queries, pool) = workload.queries_and_pool_mut();
    let items: Vec<LintItem> = queries
        .iter()
        .zip(nnf)
        .map(|(q, nnf)| match &q.kind {
            QueryKind::Subset(mask) => LintItem::Subset { mask },
            QueryKind::Pred(_) => LintItem::Pred {
                nnf: nnf.expect("pred query has an nnf id"),
            },
        })
        .collect();
    dead_and_duplicate_pass(pool, &items, noises, cfg, report);
    differencing_pass(pool, &items, noises, n, cfg, report);
}

/// Convenience: [`lint_workload`] with [`LintConfig::default`].
pub fn lint_workload_default(workload: &mut WorkloadSpec) -> LintReport {
    lint_workload(workload, &LintConfig::default())
}

fn dead_and_duplicate_pass(
    pool: &PredPool,
    items: &[LintItem],
    noises: &[Noise],
    cfg: &LintConfig,
    report: &mut LintReport,
) {
    let mut dead = 0usize;
    let mut dups = 0usize;
    let firsts = first_exact_occurrences(items, noises);
    for (i, item) in items.iter().enumerate() {
        // Only exact releases: a repeated *noisy* query is legitimate
        // (independent noise draws), and a noisy tautology is just a noisy
        // total count.
        if noises[i] != Noise::Exact {
            continue;
        }
        match item {
            LintItem::Pred { nnf } => {
                if *nnf == pool.tru() && dead < cfg.max_findings_per_lint {
                    dead += 1;
                    report.findings.push(Finding {
                        lint: LintId::Tautology,
                        severity: Severity::Warn,
                        queries: vec![i],
                        message: "predicate normalizes to TRUE — it matches every record, \
                                  cannot isolate, and wastes a query"
                            .to_owned(),
                        evidence: None,
                    });
                }
                if *nnf == pool.fals() && dead < cfg.max_findings_per_lint {
                    dead += 1;
                    report.findings.push(Finding {
                        lint: LintId::Contradiction,
                        severity: Severity::Warn,
                        queries: vec![i],
                        message: "predicate normalizes to FALSE — the answer is always 0"
                            .to_owned(),
                        evidence: None,
                    });
                }
            }
            LintItem::Subset { mask } => {
                if mask.count_ones() == 0 && dead < cfg.max_findings_per_lint {
                    dead += 1;
                    report.findings.push(Finding {
                        lint: LintId::Contradiction,
                        severity: Severity::Warn,
                        queries: vec![i],
                        message: "empty subset query — the answer is always 0".to_owned(),
                        evidence: None,
                    });
                }
            }
        }
        let first = firsts[i];
        if first != i && dups < cfg.max_findings_per_lint {
            dups += 1;
            report.findings.push(Finding {
                lint: LintId::Duplicate,
                severity: Severity::Warn,
                queries: vec![first, i],
                message: format!(
                    "query #{i} is structurally identical to #{first} under exact release — \
                     a repeated answer adds no information and aliases the bitmap cache"
                ),
                evidence: None,
            });
        }
    }
}

/// For each exact item, the index of the first exact item equal to it (its
/// own index when none comes earlier); other items map to themselves.
/// Sorting the exact indices by item, then by index, puts every group of
/// equal items in one run headed by its first occurrence — no hashing of
/// analyst-chosen masks.
fn first_exact_occurrences(items: &[LintItem], noises: &[Noise]) -> Vec<usize> {
    let mut first: Vec<usize> = (0..items.len()).collect();
    let mut exact: Vec<usize> = (0..items.len())
        .filter(|&i| noises[i] == Noise::Exact)
        .collect();
    exact.sort_unstable_by(|&a, &b| items[a].order(&items[b]).then(a.cmp(&b)));
    let mut head: Option<usize> = None;
    for i in exact {
        match head {
            Some(h) if items[h] == items[i] => first[i] = h,
            _ => head = Some(i),
        }
    }
    first
}

fn differencing_pass(
    pool: &mut PredPool,
    items: &[LintItem],
    noises: &[Noise],
    n: usize,
    cfg: &LintConfig,
    report: &mut LintReport,
) {
    let t = cfg.isolation_threshold;
    // Pre-compute conjunct sets for predicate queries.
    let conjunct_sets: Vec<Option<HashSet<ExprId>>> = items
        .iter()
        .map(|item| match item {
            LintItem::Pred { nnf } => Some(pool.conjuncts(*nnf).into_iter().collect()),
            LintItem::Subset { .. } => None,
        })
        .collect();

    // Quadratic-blowup guard: instead of testing all m·(m−1)/2 pairs,
    // bucket on structure first and examine only candidates that could
    // possibly fire.
    //
    // * Subsets: strict containment differing on 1..=t rows forces a
    //   popcount gap in 1..=t — bucketing masks by popcount is *exact*, no
    //   qualifying pair is ever skipped. `by_pop` lists the subset queries
    //   sorted by (popcount, index), so query i's candidates lie in one
    //   window of it: popcounts within t of its own, but not equal to it.
    // * Predicates: a refinement pair shares every conjunct of its smaller
    //   side, so the union of the per-conjunct posting lists is a sound
    //   candidate superset.
    //
    // Candidates are examined in ascending (i, j) order — the same order
    // the unbucketed pass used — so finding order is unchanged.
    let pops: Vec<usize> = items
        .iter()
        .map(|item| match item {
            LintItem::Subset { mask } => mask.count_ones(),
            LintItem::Pred { .. } => 0,
        })
        .collect();
    let mut by_pop: Vec<(usize, usize)> = Vec::new();
    let mut postings: HashMap<ExprId, Vec<usize>> = HashMap::new();
    for (i, item) in items.iter().enumerate() {
        match item {
            LintItem::Subset { .. } => by_pop.push((pops[i], i)),
            LintItem::Pred { .. } => {
                for &c in conjunct_sets[i].as_ref().expect("pred") {
                    // Each posting list stays ascending in i because the
                    // outer loop is; conjunct-set iteration order only
                    // decides which lists get pushed first.
                    postings.entry(c).or_default().push(i);
                }
            }
        }
    }
    by_pop.sort_unstable();

    let mut found = 0usize;
    let mut cands: Vec<usize> = Vec::new();
    'outer: for i in 0..items.len() {
        cands.clear();
        match &items[i] {
            LintItem::Subset { .. } => {
                let pop = pops[i];
                let lo = by_pop.partition_point(|&(p, _)| p < pop.saturating_sub(t));
                let hi = by_pop.partition_point(|&(p, _)| p <= pop.saturating_add(t));
                cands.extend(
                    by_pop[lo..hi]
                        .iter()
                        .filter(|&&(p, j)| p != pop && j > i)
                        .map(|&(_, j)| j),
                );
                // Popcount buckets are disjoint: sorting alone restores
                // ascending j with no repeats.
                cands.sort_unstable();
            }
            LintItem::Pred { .. } => {
                for &c in conjunct_sets[i].as_ref().expect("pred") {
                    if let Some(list) = postings.get(&c) {
                        cands.extend(list.iter().copied().filter(|&j| j > i));
                    }
                }
                cands.sort_unstable();
                cands.dedup();
            }
        }
        for &j in &cands {
            if report.pairs_examined >= cfg.pair_budget || found >= cfg.max_findings_per_lint {
                report.truncated = true;
                break 'outer;
            }
            report.pairs_examined += 1;
            if !effectively_exact(noises[i], noises[j]) {
                continue;
            }
            let finding = match (&items[i], &items[j]) {
                (LintItem::Subset { mask: a }, LintItem::Subset { mask: b }) => {
                    subset_differencing(i, a, j, b, t)
                }
                (LintItem::Pred { nnf: a }, LintItem::Pred { nnf: b }) => pred_differencing(
                    pool,
                    (i, *a, conjunct_sets[i].as_ref().expect("pred")),
                    (j, *b, conjunct_sets[j].as_ref().expect("pred")),
                    n,
                    t,
                ),
                _ => None,
            };
            if let Some(f) = finding {
                report.findings.push(f);
                found += 1;
            }
        }
    }
}

/// Exact set arithmetic on subset masks: if one query's membership strictly
/// contains the other's and the set difference holds at most `t` rows, the
/// pair of answers reveals the exact sub-count of those rows.
fn subset_differencing(i: usize, a: &BitVec, j: usize, b: &BitVec, t: usize) -> Option<Finding> {
    let (sup_idx, sup, sub_idx, sub) = match (b.is_subset_of(a), a.is_subset_of(b)) {
        (true, false) => (i, a, j, b),
        (false, true) => (j, b, i, a),
        _ => return None,
    };
    let diff = (sup & &!sub).indices();
    if diff.is_empty() || diff.len() > t {
        return None;
    }
    Some(Finding {
        lint: LintId::Differencing,
        severity: Severity::Deny,
        queries: vec![sup_idx, sub_idx],
        message: format!(
            "subset query #{sub_idx} ⊂ #{sup_idx} and they differ on exactly {} row(s) {:?}: \
             subtracting the two exact answers reveals those rows' secret bits \
             (Theorem 1.1's reconstruction premise with m = 2)",
            diff.len(),
            diff
        ),
        evidence: Some(Evidence {
            chain: vec![sup_idx, sub_idx],
            width_hi: Some(diff.len() as f64),
            region: Some(format!("rows {diff:?}")),
            ..Evidence::default()
        }),
    })
}

/// Symbolic differencing on predicate queries: when one query's conjunct
/// set strictly extends the other's (`B = A ∧ R`), the answers differ by
/// the count of the residue `A ∧ ¬R`. The pair is flagged only when the
/// residue's *design weight* bounds that count by `t` — bit and keyed-hash
/// atoms have designed weights (`1/2`, `1/modulus`); data-dependent atoms
/// contribute the vacuous `[0, 1]`, so honest drill-downs over tabular
/// attributes never fire this lint.
fn pred_differencing(
    pool: &mut PredPool,
    (i, a, ca): (usize, ExprId, &HashSet<ExprId>),
    (j, b, cb): (usize, ExprId, &HashSet<ExprId>),
    n: usize,
    t: usize,
) -> Option<Finding> {
    let (base_idx, base, fine_idx, _fine, extras) = if ca.len() < cb.len() && ca.is_subset(cb) {
        let extras: Vec<ExprId> = cb.difference(ca).copied().collect();
        (i, a, j, b, extras)
    } else if cb.len() < ca.len() && cb.is_subset(ca) {
        let extras: Vec<ExprId> = ca.difference(cb).copied().collect();
        (j, b, i, a, extras)
    } else {
        return None;
    };
    let refinement = pool.and(extras);
    let neg = pool.not(refinement);
    let residue = pool.nnf(neg);
    let residue = pool.and([base, residue]);
    let (_, hi) = pool.weight_interval(residue);
    let expected = n as f64 * hi;
    if residue == pool.fals() || expected > t as f64 + 1e-9 {
        return None;
    }
    let rendered = pool.render(residue);
    Some(Finding {
        lint: LintId::Differencing,
        severity: Severity::Deny,
        queries: vec![base_idx, fine_idx],
        message: format!(
            "query #{fine_idx} refines #{base_idx}: subtracting the exact answers counts the \
             residue {rendered}, whose design weight bounds it to ≤ {expected:.2} of {n} rows \
             (t = {t}) — the differencing/tracker shape of Theorems 1.1 and 2.8"
        ),
        evidence: Some(Evidence {
            chain: vec![base_idx, fine_idx],
            width_hi: Some(expected),
            region: Some(rendered),
            ..Evidence::default()
        }),
    })
}

/// Lowers each query family to its abstract matrix over atom-partition
/// cells ([`crate::matrix`]) and runs the three structural passes. A
/// predicate family is lowered only when [`family_can_fire`] says a pass
/// could change the report; otherwise it counts as [`Lowered::Empty`].
fn matrix_passes(
    workload: &WorkloadSpec,
    nnf: &[Option<ExprId>],
    n: usize,
    cfg: &LintConfig,
    report: &mut LintReport,
) {
    // The accuracy cut is the LP-regime one: only rows answered to within
    // α ≤ lp_alpha_factor·√n (Theorem 1.1(ii)'s accuracy) participate.
    let alpha_cut = cfg.lp_alpha_factor * (n as f64).sqrt();
    let caps = MatrixCaps {
        max_cells: cfg.matrix_max_cells,
        bit_budget: cfg.matrix_bit_budget,
    };
    let family = PredicateFamily::collect(workload, nnf, alpha_cut);
    let predicates = if family_can_fire(&family, workload.pool(), n, cfg) {
        lower_family(workload, family, caps)
    } else {
        Lowered::Empty
    };
    for lowered in [lower_subsets(workload, alpha_cut, caps), predicates] {
        match lowered {
            Lowered::Empty => {}
            // Cell refinement grows monotonically, so hitting a cap does
            // not depend on query order — but the skipped passes mean the
            // report must not read as a clean bill.
            Lowered::Truncated => report.truncated = true,
            Lowered::Built(m) => {
                let pool = workload.pool();
                linrec_pass(&m, pool, cfg, report);
                tracker_pass(&m, pool, cfg, report);
                cover_pass(&m, pool, cfg, report);
            }
        }
    }
}

/// True iff a region of at most `width_hi` expected rows can single out:
/// it is nonempty and no wider than the isolation threshold `t`.
fn is_narrow(width_hi: f64, t: f64) -> bool {
    width_hi > 0.0 && width_hi <= t
}

/// Whether lowering a predicate family could change the report. Each
/// matrix pass has a guard that no lowering of the family can open unless
/// this holds, so a family it rejects adds nothing to the report:
///
/// * `SO-LINREC` and `SO-COVER` act only on a narrow cell. Without a
///   design-weighted atom every sign cell is exactly `n` rows wide, so
///   there is none when `n > t` — the Theorem 1.1 reading of a range
///   dashboard, whose atoms all read data.
/// * `SO-TRACKER` chains only rows whose error can still certify a record
///   ([`crate::lattice::certifies`]); without one it examines nothing.
/// * The lowering truncates only past `matrix_max_cells` cells, and a
///   family over `k` atoms never holds more than `2^k`.
fn family_can_fire(family: &PredicateFamily, pool: &PredPool, n: usize, cfg: &LintConfig) -> bool {
    let t = cfg.isolation_threshold as f64;
    family
        .uniform_cell_width(pool, n)
        .map_or(true, |w| is_narrow(w, t))
        || family
            .alphas()
            .iter()
            .any(|&a| crate::lattice::certifies(a))
        || family.cell_bound() > cfg.matrix_max_cells
}

/// `SO-LINREC`: full structural column rank over a partition that contains
/// a narrow cell. GF(2) rank is tried first (cheap, word-parallel, and a
/// sound *lower* bound on the rational rank for 0/1 matrices — full GF(2)
/// column rank is proof); only if it falls short is the `f64` Gauss–Jordan
/// estimate consulted.
fn linrec_pass(m: &QueryMatrix, pool: &PredPool, cfg: &LintConfig, report: &mut LintReport) {
    let cells = m.cells.len();
    if cells < cfg.linrec_min_cells {
        return;
    }
    let t = cfg.isolation_threshold as f64;
    // Without a narrow cell, full rank pins only counts of wide regions:
    // reconstruction of aggregates, but nothing singled out.
    let Some((narrow_idx, narrow)) = m
        .cells
        .iter()
        .enumerate()
        .filter(|(_, c)| is_narrow(c.width_hi, t))
        .min_by(|(_, a), (_, b)| a.width_hi.total_cmp(&b.width_hi))
    else {
        return;
    };
    let mut rank = gf2_rank(&m.rows, cells);
    if rank < cells {
        rank = RowBasis::build(&m.rows, cells, |_| true).rank();
    }
    if rank < cells {
        return;
    }
    let region = m.label(narrow_idx, pool);
    report.findings.push(Finding {
        lint: LintId::LinearReconstruction,
        severity: Severity::Deny,
        queries: m.queries.clone(),
        message: format!(
            "the {} sufficiently-accurate queries have full structural rank {rank} over the \
             {cells} disjoint cells their atoms induce: the released answers determine every \
             cell count, including the region [{region}] of ≤ {:.2} expected rows — the KRS \
             linear-reconstruction feasibility criterion (arXiv:1210.2381)",
            m.queries.len(),
            narrow.width_hi,
        ),
        evidence: Some(Evidence {
            rank: Some(rank),
            cells: Some(cells),
            width_hi: Some(narrow.width_hi),
            region: Some(region),
            ..Evidence::default()
        }),
    });
}

/// `SO-TRACKER`: budgeted chain search over the lattice of derivable cell
/// sets ([`crate::lattice`]).
fn tracker_pass(m: &QueryMatrix, pool: &PredPool, cfg: &LintConfig, report: &mut LintReport) {
    let t = cfg.isolation_threshold as f64;
    let res = crate::lattice::search(
        m,
        t,
        cfg.tracker_budget,
        cfg.max_chain_len,
        cfg.max_findings_per_lint,
    );
    report.tracker_combos_examined += res.combos_examined;
    if res.truncated {
        report.truncated = true;
    }
    for chain in res.chains {
        let queries: Vec<usize> = chain.rows.iter().map(|&r| m.queries[r]).collect();
        let region = chain
            .cells
            .iter()
            .map(|&c| m.label(c, pool))
            .collect::<Vec<_>>()
            .join(" ∪ ");
        let message = format!(
            "tracker chain of {} admitted queries: repeated differencing of their answers \
             derives the count of [{region}], bounded by design to ≤ {:.2} expected rows with \
             total answer error < 0.5 — the tracker composition of Theorem 2.8, generalized \
             over the cell lattice",
            queries.len(),
            chain.width_hi,
        );
        report.findings.push(Finding {
            lint: LintId::TrackerChain,
            severity: Severity::Deny,
            queries: queries.clone(),
            message,
            evidence: Some(Evidence {
                chain: queries,
                width_hi: Some(chain.width_hi),
                region: Some(region),
                ..Evidence::default()
            }),
        });
    }
}

/// `SO-COVER`: a narrow cell whose indicator lies in the rational row span
/// of the bitwise-exact releases — some admitted linear combination of the
/// answers *is* that cell's count. Reports the witnessing combination's
/// query indices.
fn cover_pass(m: &QueryMatrix, pool: &PredPool, cfg: &LintConfig, report: &mut LintReport) {
    let t = cfg.isolation_threshold as f64;
    // Only a narrow cell can be reported: without one, skip the basis.
    if !m.cells.iter().any(|c| is_narrow(c.width_hi, t)) {
        return;
    }
    let cells = m.cells.len();
    // Only exact releases combine safely for the attacker here: rational
    // coefficients can scale bounded noise past any certification margin,
    // so noisy rows are excluded from the span.
    let basis = RowBasis::build(&m.rows, cells, |r| m.alphas[r] == 0.0);
    if basis.rank() == 0 {
        return;
    }
    let mut found = 0usize;
    for (c, cell) in m.cells.iter().enumerate() {
        if !is_narrow(cell.width_hi, t) {
            continue;
        }
        if found >= cfg.max_findings_per_lint {
            report.truncated = true;
            break;
        }
        let Some(rows) = basis.span_witness(c) else {
            continue;
        };
        found += 1;
        let queries: Vec<usize> = rows.iter().map(|&r| m.queries[r]).collect();
        let region = m.label(c, pool);
        let message = format!(
            "cell [{region}] (≤ {:.2} expected rows) is isolated by an admitted combination: a \
             rational combination of the exact answers to {} quer{} equals its count — the \
             static precursor of an online cover attack",
            cell.width_hi,
            queries.len(),
            if queries.len() == 1 { "y" } else { "ies" },
        );
        report.findings.push(Finding {
            lint: LintId::CellCover,
            severity: Severity::Deny,
            queries: queries.clone(),
            message,
            evidence: Some(Evidence {
                chain: queries,
                width_hi: Some(cell.width_hi),
                region: Some(region),
                ..Evidence::default()
            }),
        });
    }
}

fn density_pass(noises: &[Noise], n: usize, cfg: &LintConfig, report: &mut LintReport) {
    if n == 0 {
        return;
    }
    let m = noises.len();
    // Theorem 1.1(i): all 2^n subset queries within α = o(n) reconstruct to
    // 4α errors. Half the subsets already determine the rest, so 2^(n-1)
    // accurate-to-n/4 queries is treated as the exhaustive regime.
    if n < 63 {
        let m_exh = noises
            .iter()
            .filter(|nz| nz.effective_alpha() <= n as f64 / 4.0)
            .count() as u128;
        if m_exh >= 1u128 << (n - 1) {
            report.findings.push(Finding {
                lint: LintId::ReconstructionDensity,
                severity: Severity::Deny,
                queries: vec![],
                message: format!(
                    "{m_exh} queries with error ≤ n/4 over only {n} rows reaches the exhaustive \
                     Dinur–Nissim regime (2^(n−1) = {}): any consistent candidate dataset agrees \
                     with the secret on all but 4α entries (Theorem 1.1(i))",
                    1u128 << (n - 1)
                ),
                evidence: None,
            });
        }
    }
    // Theorem 1.1(ii): m ≳ lp_ratio·n random queries within α = O(√n)
    // admit LP decoding.
    let alpha_cut = cfg.lp_alpha_factor * (n as f64).sqrt();
    let m_lp = noises
        .iter()
        .filter(|nz| nz.effective_alpha() <= alpha_cut)
        .count();
    if (m_lp as f64) >= cfg.lp_ratio * n as f64 {
        report.findings.push(Finding {
            lint: LintId::ReconstructionDensity,
            severity: Severity::Deny,
            queries: vec![],
            message: format!(
                "{m_lp} of {m} queries have error ≤ {alpha_cut:.1} ≈ √n over {n} rows — past the \
                 {}·n LP-decoding density of Theorem 1.1(ii); linear programming reconstructs \
                 all but o(n) of the secret bits",
                cfg.lp_ratio
            ),
            evidence: None,
        });
    }
}

fn budget_pass(noises: &[Noise], cfg: &LintConfig, report: &mut LintReport) {
    let Some(budget) = cfg.epsilon_budget else {
        return;
    };
    // Exact or merely-bounded releases have unbounded worst-case ε.
    let unbounded: Vec<usize> = noises
        .iter()
        .enumerate()
        .filter(|(_, nz)| !matches!(nz, Noise::PureDp { .. }))
        .map(|(i, _)| i)
        .collect();
    if !unbounded.is_empty() {
        let shown: Vec<usize> = unbounded
            .iter()
            .copied()
            .take(cfg.max_findings_per_lint)
            .collect();
        report.findings.push(Finding {
            lint: LintId::BudgetExceeded,
            severity: Severity::Deny,
            queries: shown,
            message: format!(
                "{} queries are not released through a DP mechanism — under an ε-gated policy \
                 their worst-case privacy loss is unbounded",
                unbounded.len()
            ),
            evidence: None,
        });
    }
    let dp: Vec<(usize, f64)> = noises
        .iter()
        .enumerate()
        .filter_map(|(i, nz)| match nz {
            Noise::PureDp { epsilon } => Some((i, *epsilon)),
            _ => None,
        })
        .collect();
    if dp.is_empty() {
        return;
    }
    let costs: Vec<f64> = dp.iter().map(|&(_, e)| e).collect();
    let pre = ContinualAccountant::new(budget).precheck(&costs);
    if !pre.admissible {
        let first = pre.first_refused.map(|k| dp[k].0);
        report.findings.push(Finding {
            lint: LintId::BudgetExceeded,
            severity: Severity::Deny,
            queries: first.into_iter().collect(),
            message: format!(
                "worst-case composed cost ε = {:.3} exceeds the budget {:.3}; the first query \
                 past the budget is #{} — refusing up front spends nothing (the accountant's \
                 precheck, basic composition)",
                pre.total,
                budget,
                first.unwrap_or(0)
            ),
            evidence: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use so_plan::shape::PredShape;
    use so_query::predicate::{
        AllRowPredicate, IntRangePredicate, KeyedHashPredicate, NotRowPredicate, RowHashPredicate,
        ValueEqualsPredicate,
    };
    use so_query::query::SubsetQuery;

    fn cfg() -> LintConfig {
        LintConfig::default()
    }

    #[test]
    fn subset_differencing_fires_on_nested_exact_pair() {
        let mut w = WorkloadSpec::new(10);
        w.push_subset(&SubsetQuery::from_indices(10, &[0, 1, 2, 3]), Noise::Exact);
        w.push_subset(&SubsetQuery::from_indices(10, &[0, 1, 2]), Noise::Exact);
        let r = lint_workload(&mut w, &cfg());
        assert!(r.denies());
        let d = r.findings_for(LintId::Differencing);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].queries, vec![0, 1], "superset first, subset second");
        assert!(
            d[0].message.contains("[3]"),
            "isolated row named: {}",
            d[0].message
        );
        // Three words, the differing row in the tail word, in both
        // declaration orders.
        let sup = SubsetQuery::from_indices(130, &[5, 70, 128, 129]);
        let sub = SubsetQuery::from_indices(130, &[5, 70, 128]);
        for (first, second, want) in [(&sup, &sub, vec![0, 1]), (&sub, &sup, vec![1, 0])] {
            let mut w = WorkloadSpec::new(130);
            w.push_subset(first, Noise::Exact);
            w.push_subset(second, Noise::Exact);
            let r = lint_workload(&mut w, &cfg());
            let d = r.findings_for(LintId::Differencing);
            assert_eq!(d.len(), 1);
            assert_eq!(d[0].queries, want, "superset first, subset second");
            assert!(d[0].message.contains("[129]"), "{}", d[0].message);
        }
    }

    #[test]
    fn subset_differencing_respects_threshold_and_noise() {
        // Difference of 3 rows > t = 1: clean.
        let mut w = WorkloadSpec::new(10);
        w.push_subset(&SubsetQuery::from_indices(10, &[0, 1, 2, 3]), Noise::Exact);
        w.push_subset(&SubsetQuery::from_indices(10, &[0]), Noise::Exact);
        assert_eq!(lint_workload(&mut w, &cfg()).count(LintId::Differencing), 0);
        // Same nested pair under DP noise: differencing cannot be proven.
        let mut w = WorkloadSpec::new(10);
        let dp = Noise::PureDp { epsilon: 0.1 };
        w.push_subset(&SubsetQuery::from_indices(10, &[0, 1, 2, 3]), dp);
        w.push_subset(&SubsetQuery::from_indices(10, &[0, 1, 2]), dp);
        assert_eq!(lint_workload(&mut w, &cfg()).count(LintId::Differencing), 0);
        // Incomparable subsets: clean.
        let mut w = WorkloadSpec::new(10);
        w.push_subset(&SubsetQuery::from_indices(10, &[0, 1]), Noise::Exact);
        w.push_subset(&SubsetQuery::from_indices(10, &[1, 2]), Noise::Exact);
        assert_eq!(lint_workload(&mut w, &cfg()).count(LintId::Differencing), 0);
    }

    #[test]
    fn hash_tracker_pair_is_flagged_with_indices() {
        // A = everyone, B = A ∧ ¬(hash residue with modulus ≥ n): the
        // residue A ∧ hash has design weight 1/modulus ⇒ ≤ 1 expected row.
        let n = 100;
        let hash = RowHashPredicate {
            hash: KeyedHashPredicate::new(0xBEEF, 128, 0),
            cols: vec![0],
        };
        let b = AllRowPredicate {
            parts: vec![
                Box::new(IntRangePredicate {
                    col: 0,
                    lo: 0,
                    hi: 1000,
                }),
                Box::new(NotRowPredicate {
                    inner: Box::new(hash.clone()),
                }),
            ],
        };
        let mut w = WorkloadSpec::new(n);
        // A carries the same range conjunct, so B strictly refines A.
        let a = AllRowPredicate {
            parts: vec![Box::new(IntRangePredicate {
                col: 0,
                lo: 0,
                hi: 1000,
            })],
        };
        w.push_predicate(&a, Noise::Exact);
        w.push_predicate(&b, Noise::Exact);
        let r = lint_workload(&mut w, &cfg());
        let d = r.findings_for(LintId::Differencing);
        assert_eq!(d.len(), 1, "findings: {:?}", r.findings);
        assert_eq!(d[0].queries, vec![0, 1]);
        assert_eq!(d[0].severity, Severity::Deny);
    }

    #[test]
    fn honest_drilldown_is_clean() {
        // (dept), (dept ∧ sex=M): a textbook cross-tab. The residue's
        // weight interval is vacuous, so nothing is provable — no finding.
        let dept = ValueEqualsPredicate {
            col: 0,
            value: so_data::Value::Int(3),
        };
        let drill = AllRowPredicate {
            parts: vec![
                Box::new(ValueEqualsPredicate {
                    col: 0,
                    value: so_data::Value::Int(3),
                }),
                Box::new(ValueEqualsPredicate {
                    col: 1,
                    value: so_data::Value::Int(1),
                }),
            ],
        };
        let mut w = WorkloadSpec::new(50);
        w.push_predicate(&dept, Noise::Exact);
        w.push_predicate(&drill, Noise::Exact);
        let r = lint_workload(&mut w, &cfg());
        assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
    }

    #[test]
    fn prefix_descent_flags_only_past_the_weight_gate() {
        // The Theorem 2.8 chain: prefixes of one record's bits, exact
        // counts. Adjacent pairs (depth k, k+1) leave residue weight
        // 2^-(k+1); with n = 100 that proves ≤ 1 row only once k+1 ≥ 7.
        let n = 100usize;
        let bits: Vec<bool> = (0..14).map(|i| i % 3 == 0).collect();
        let mut w = WorkloadSpec::new(n);
        for depth in 0..=bits.len() {
            w.push_shape(
                &PredShape::Prefix {
                    bits: bits[..depth].to_vec(),
                },
                Noise::Exact,
            );
        }
        let mut c = cfg();
        c.max_findings_per_lint = 100;
        let r = lint_workload(&mut w, &c);
        let d = r.findings_for(LintId::Differencing);
        assert!(!d.is_empty(), "deep descent must be flagged");
        for f in &d {
            // Every flagged pair's base prefix is past the weight gate:
            // residue weight 2^-(base) · bound ≤ 1/n needs base ≥ 6.
            let base = f.queries[0].min(f.queries[1]);
            assert!(base >= 6, "shallow pair flagged: {f}");
        }
        // The adjacent pair (6, 7) specifically is caught.
        assert!(
            d.iter().any(|f| f.queries == vec![6, 7]),
            "expected the (6,7) adjacent pair, got {:?}",
            d.iter().map(|f| f.queries.clone()).collect::<Vec<_>>()
        );
        // The same chain under DP is clean.
        let mut w = WorkloadSpec::new(n);
        for depth in 0..=bits.len() {
            w.push_shape(
                &PredShape::Prefix {
                    bits: bits[..depth].to_vec(),
                },
                Noise::PureDp { epsilon: 0.1 },
            );
        }
        let r = lint_workload(&mut w, &cfg());
        assert!(r.findings.is_empty(), "findings: {:?}", r.findings);
    }

    #[test]
    fn density_flags_exhaustive_and_lp_regimes() {
        // Exhaustive: all 2^8 subsets of an 8-row dataset, α = n/8 < n/4.
        let mut w = WorkloadSpec::new(8);
        for m in 0..(1u16 << 8) {
            let idx: Vec<usize> = (0..8).filter(|&i| m & (1 << i) != 0).collect();
            w.push_subset(
                &SubsetQuery::from_indices(8, &idx),
                Noise::Bounded { alpha: 1.0 },
            );
        }
        let r = lint_workload(&mut w, &cfg());
        assert!(r.denies());
        assert!(r.count(LintId::ReconstructionDensity) >= 1);
        // LP: 4n bounded-noise queries at α ≤ √n. (Use distinct masks.)
        let n = 64usize;
        let mut w = WorkloadSpec::new(n);
        for k in 0..(4 * n) {
            let idx: Vec<usize> = (0..n).filter(|&i| (i * 31 + k * 17) % 5 < 2).collect();
            let mut q = SubsetQuery::from_indices(n, &idx);
            // Perturb one bit per query to keep them distinct.
            let mut mask = q.members().clone();
            mask.set(k % n, !mask.get(k % n));
            q = SubsetQuery::new(mask);
            w.push_subset(&q, Noise::Bounded { alpha: 4.0 });
        }
        let r = lint_workload(&mut w, &cfg());
        assert_eq!(r.count(LintId::ReconstructionDensity), 1);
        assert!(r.denies());
        // Same m but DP with big noise: clean density.
        let mut w = WorkloadSpec::new(n);
        for k in 0..(4 * n) {
            let idx: Vec<usize> = (0..n).filter(|&i| (i + k) % 3 == 0).collect();
            w.push_subset(
                &SubsetQuery::from_indices(n, &idx),
                Noise::PureDp { epsilon: 0.05 },
            );
        }
        let r = lint_workload(&mut w, &cfg());
        assert_eq!(r.count(LintId::ReconstructionDensity), 0);
    }

    #[test]
    fn budget_pass_prechecks_statically() {
        let mut c = cfg();
        c.epsilon_budget = Some(1.0);
        // Within budget: clean.
        let mut w = WorkloadSpec::new(100);
        for _ in 0..9 {
            w.push_shape(
                &PredShape::BitExtract {
                    bit: 0,
                    value: true,
                },
                Noise::PureDp { epsilon: 0.1 },
            );
        }
        let r = lint_workload(&mut w, &c);
        assert_eq!(r.count(LintId::BudgetExceeded), 0, "{:?}", r.findings);
        // Over budget: the first offending query is named.
        let mut w = WorkloadSpec::new(100);
        for i in 0..15 {
            w.push_shape(
                &PredShape::BitExtract {
                    bit: i,
                    value: true,
                },
                Noise::PureDp { epsilon: 0.1 },
            );
        }
        let r = lint_workload(&mut w, &c);
        let b = r.findings_for(LintId::BudgetExceeded);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].queries, vec![10], "1.1 > 1.0 at the 11th query");
        // Exact queries under an ε-gated policy are unbounded cost.
        let mut w = WorkloadSpec::new(100);
        w.push_shape(
            &PredShape::BitExtract {
                bit: 0,
                value: true,
            },
            Noise::Exact,
        );
        let r = lint_workload(&mut w, &c);
        assert_eq!(r.count(LintId::BudgetExceeded), 1);
        assert!(r.denies());
    }

    #[test]
    fn dead_and_duplicate_queries_warn() {
        let mut w = WorkloadSpec::new(10);
        let tru = w.pool_mut().tru();
        let fals = w.pool_mut().fals();
        w.push_expr(tru, Noise::Exact);
        w.push_expr(fals, Noise::Exact);
        w.push_subset(&SubsetQuery::from_indices(10, &[1, 2]), Noise::Exact);
        w.push_subset(&SubsetQuery::from_indices(10, &[1, 2]), Noise::Exact);
        let r = lint_workload(&mut w, &cfg());
        assert_eq!(r.count(LintId::Tautology), 1);
        assert_eq!(r.count(LintId::Contradiction), 1);
        let dups = r.findings_for(LintId::Duplicate);
        assert_eq!(dups.len(), 1);
        assert_eq!(dups[0].queries, vec![2, 3]);
        // Warnings alone do not deny... but the duplicated exact subsets
        // also difference against nothing (equal, not strict) — verify.
        assert_eq!(r.count(LintId::Differencing), 0);
        assert!(!r.denies());
        // Noisy repeats are fine.
        let mut w = WorkloadSpec::new(10);
        let dp = Noise::PureDp { epsilon: 0.5 };
        w.push_subset(&SubsetQuery::from_indices(10, &[1, 2]), dp);
        w.push_subset(&SubsetQuery::from_indices(10, &[1, 2]), dp);
        let r = lint_workload(&mut w, &cfg());
        assert_eq!(r.count(LintId::Duplicate), 0);
    }

    #[test]
    fn pair_budget_truncates_and_reports_it() {
        // A nested chain: every adjacent pair survives popcount bucketing
        // (gap exactly 1), so the pair budget still bites.
        let mut w = WorkloadSpec::new(12);
        for i in 0..10 {
            w.push_subset(
                &SubsetQuery::from_indices(12, &(0..=i).collect::<Vec<_>>()),
                Noise::Exact,
            );
        }
        let mut c = cfg();
        c.pair_budget = 5;
        let r = lint_workload(&mut w, &c);
        assert!(r.truncated);
        assert_eq!(r.pairs_examined, 5);
    }

    #[test]
    fn popcount_bucketing_skips_hopeless_subset_pairs() {
        // Ten disjoint singletons: every pair has popcount gap 0, so the
        // bucketed pass examines no pair at all (the unbucketed pass
        // examined 45).
        let mut w = WorkloadSpec::new(16);
        for i in 0..10 {
            w.push_subset(&SubsetQuery::from_indices(16, &[i]), Noise::Exact);
        }
        let r = lint_workload(&mut w, &cfg());
        assert_eq!(r.pairs_examined, 0);
        assert_eq!(r.count(LintId::Differencing), 0);
        // Far-apart popcounts are skipped too: {0..7} vs {0}.
        let mut w = WorkloadSpec::new(16);
        w.push_subset(
            &SubsetQuery::from_indices(16, &(0..8).collect::<Vec<_>>()),
            Noise::Exact,
        );
        w.push_subset(&SubsetQuery::from_indices(16, &[0]), Noise::Exact);
        let r = lint_workload(&mut w, &cfg());
        assert_eq!(r.pairs_examined, 0);
    }

    #[test]
    fn lint_codes_round_trip_and_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for id in LintId::ALL {
            assert!(seen.insert(id.code()), "duplicate code {}", id.code());
            assert_eq!(LintId::from_code(id.code()), Some(id));
        }
        assert_eq!(LintId::from_code("SO-NOPE"), None);
        assert_eq!(seen.len(), 9);
    }

    #[test]
    fn linrec_fires_on_full_rank_with_a_narrow_cell() {
        // The classic linear release: population total plus all
        // complements-of-one over 6 rows. Rank 7 ≥ cells 6, singleton
        // cells everywhere.
        let n = 6usize;
        let mut w = WorkloadSpec::new(n);
        w.push_subset(
            &SubsetQuery::from_indices(n, &(0..n).collect::<Vec<_>>()),
            Noise::Exact,
        );
        for i in 0..n {
            let others: Vec<usize> = (0..n).filter(|&j| j != i).collect();
            w.push_subset(&SubsetQuery::from_indices(n, &others), Noise::Exact);
        }
        let r = lint_workload(&mut w, &cfg());
        let lr = r.findings_for(LintId::LinearReconstruction);
        assert_eq!(lr.len(), 1, "findings: {:?}", r.findings);
        assert_eq!(lr[0].severity, Severity::Deny);
        assert_eq!(lr[0].queries, (0..=n).collect::<Vec<_>>());
        let ev = lr[0].evidence.as_ref().expect("evidence");
        assert_eq!(ev.rank, Some(n));
        assert_eq!(ev.cells, Some(n));
        assert_eq!(ev.width_hi, Some(1.0));
        // The same release at LP-grade noise keeps LINREC (rank is noise-
        // robust per KRS)…
        let mut w = WorkloadSpec::new(n);
        let noisy = Noise::Bounded { alpha: 1.0 };
        w.push_subset(
            &SubsetQuery::from_indices(n, &(0..n).collect::<Vec<_>>()),
            noisy,
        );
        for i in 0..n {
            let others: Vec<usize> = (0..n).filter(|&j| j != i).collect();
            w.push_subset(&SubsetQuery::from_indices(n, &others), noisy);
        }
        let r = lint_workload(&mut w, &cfg());
        assert_eq!(r.count(LintId::LinearReconstruction), 1);
        // …but DP noise past the α-cut silences every matrix pass.
        let mut w = WorkloadSpec::new(n);
        let dp = Noise::PureDp { epsilon: 0.5 };
        w.push_subset(
            &SubsetQuery::from_indices(n, &(0..n).collect::<Vec<_>>()),
            dp,
        );
        for i in 0..n {
            let others: Vec<usize> = (0..n).filter(|&j| j != i).collect();
            w.push_subset(&SubsetQuery::from_indices(n, &others), dp);
        }
        let r = lint_workload(&mut w, &cfg());
        assert_eq!(r.count(LintId::LinearReconstruction), 0);
        assert_eq!(r.count(LintId::TrackerChain), 0);
        assert_eq!(r.count(LintId::CellCover), 0);
    }

    #[test]
    fn tracker_chain_fires_where_pairwise_differencing_is_blind() {
        // Predicate tracker that no conjunct-refinement pair can see:
        // Q0 = 2-bit prefix (weight ¼), Q1 = hash residue (weight 1/32),
        // Q2 = Q0 ∨ Q1. Every pairwise difference is wide (≥ 2.3 expected
        // rows), but (Q2 − Q0) counts hash ∧ ¬prefix and Q1 minus that
        // counts hash ∧ prefix: 100/128 < 1 expected rows — a genuine
        // three-query tracker.
        let n = 100usize;
        let mut w = WorkloadSpec::new(n);
        let prefix = {
            let pool = w.pool_mut();
            let b0 = pool.atom(so_plan::ir::Atom::BitExtract {
                bit: 0,
                value: true,
            });
            let b1 = pool.atom(so_plan::ir::Atom::BitExtract {
                bit: 1,
                value: false,
            });
            pool.and([b0, b1])
        };
        let hash = w.pool_mut().atom(so_plan::ir::Atom::KeyedHash {
            key: 0xFEED,
            modulus: 32,
            target: 7,
        });
        let union = w.pool_mut().or([prefix, hash]);
        w.push_expr(prefix, Noise::Exact);
        w.push_expr(hash, Noise::Exact);
        w.push_expr(union, Noise::Exact);
        let r = lint_workload(&mut w, &cfg());
        assert_eq!(
            r.count(LintId::Differencing),
            0,
            "no conjunct refinement pair exists: {:?}",
            r.findings
        );
        let tr = r.findings_for(LintId::TrackerChain);
        assert!(!tr.is_empty(), "findings: {:?}", r.findings);
        assert!(r.denies());
        let ev = tr[0].evidence.as_ref().expect("evidence");
        assert!(ev.chain.len() >= 3, "true chain, not a pair: {ev}");
        assert!(ev.width_hi.expect("width") <= 1.0);
        assert!(r.tracker_combos_examined > 0);
    }

    #[test]
    fn cover_fires_on_rational_combinations_beyond_differencing() {
        // Overlapping pairs {0,1}, {1,2}, {0,2}: no containment anywhere,
        // but e_row0 = ½(Q0 − Q1 + Q2). COVER must cite all three queries.
        let mut w = WorkloadSpec::new(10);
        for idx in [[0usize, 1], [1, 2], [0, 2]] {
            w.push_subset(&SubsetQuery::from_indices(10, &idx), Noise::Exact);
        }
        let r = lint_workload(&mut w, &cfg());
        assert_eq!(r.count(LintId::Differencing), 0);
        assert_eq!(r.count(LintId::TrackerChain), 0, "{:?}", r.findings);
        let cv = r.findings_for(LintId::CellCover);
        assert_eq!(
            cv.len(),
            3,
            "each singleton cell is covered: {:?}",
            r.findings
        );
        assert_eq!(cv[0].queries, vec![0, 1, 2]);
        assert!(r.denies());
        // Same masks under bounded noise: rational combinations amplify
        // noise, so COVER stays silent.
        let mut w = WorkloadSpec::new(10);
        for idx in [[0usize, 1], [1, 2], [0, 2]] {
            w.push_subset(
                &SubsetQuery::from_indices(10, &idx),
                Noise::Bounded { alpha: 0.2 },
            );
        }
        let r = lint_workload(&mut w, &cfg());
        assert_eq!(r.count(LintId::CellCover), 0);
    }

    #[test]
    fn matrix_cell_cap_marks_the_report_truncated() {
        let mut w = WorkloadSpec::new(40);
        for i in 0..20 {
            w.push_subset(
                &SubsetQuery::from_indices(40, &[2 * i, 2 * i + 1]),
                Noise::Exact,
            );
        }
        let mut c = cfg();
        c.matrix_max_cells = 4;
        let r = lint_workload(&mut w, &c);
        assert!(r.truncated);
        assert_eq!(r.count(LintId::LinearReconstruction), 0);
    }

    #[test]
    fn matrix_findings_are_permutation_invariant() {
        // The three-query cover workload in both orders: identical code
        // multisets, query indices mapped through the permutation.
        let build = |order: [usize; 3]| {
            let masks = [[0usize, 1], [1, 2], [0, 2]];
            let mut w = WorkloadSpec::new(10);
            for &k in &order {
                w.push_subset(&SubsetQuery::from_indices(10, &masks[k]), Noise::Exact);
            }
            lint_workload(&mut w, &cfg())
        };
        let a = build([0, 1, 2]);
        let b = build([2, 0, 1]);
        for id in LintId::ALL {
            assert_eq!(a.count(id), b.count(id), "{id} differs across orders");
        }
    }

    /// The lint as it was before [`family_can_fire`]: every family lowered
    /// and handed to all three matrix passes, whatever their guards say.
    fn unconditional_report(workload: &mut WorkloadSpec, cfg: &LintConfig) -> LintReport {
        let n = workload.n_rows();
        let noises: Vec<Noise> = workload.queries().iter().map(|q| q.noise).collect();
        let nnf = canonical_nnf(workload);
        let mut report = LintReport::default();
        item_passes(workload, &nnf, &noises, cfg, &mut report);
        let alpha_cut = cfg.lp_alpha_factor * (n as f64).sqrt();
        let caps = MatrixCaps {
            max_cells: cfg.matrix_max_cells,
            bit_budget: cfg.matrix_bit_budget,
        };
        for lowered in [
            lower_subsets(workload, alpha_cut, caps),
            crate::matrix::lower_predicates(workload, &nnf, alpha_cut, caps),
        ] {
            match lowered {
                Lowered::Empty => {}
                Lowered::Truncated => report.truncated = true,
                Lowered::Built(m) => {
                    let pool = workload.pool();
                    linrec_pass(&m, pool, cfg, &mut report);
                    tracker_pass(&m, pool, cfg, &mut report);
                    cover_pass(&m, pool, cfg, &mut report);
                }
            }
        }
        density_pass(&noises, n, cfg, &mut report);
        budget_pass(&noises, cfg, &mut report);
        report
    }

    /// Lints the workload `build` makes both ways and requires the two
    /// reports to be identical down to every field.
    fn assert_same_report(build: impl Fn() -> WorkloadSpec, cfg: &LintConfig) {
        let lint = lint_workload(&mut build(), cfg);
        let oracle = unconditional_report(&mut build(), cfg);
        assert_eq!(format!("{lint:?}"), format!("{oracle:?}"));
    }

    /// Whether [`family_can_fire`] would lower the workload's predicates.
    fn can_fire(w: &mut WorkloadSpec, cfg: &LintConfig) -> bool {
        let n = w.n_rows();
        let nnf = canonical_nnf(w);
        let alpha_cut = cfg.lp_alpha_factor * (n as f64).sqrt();
        let family = PredicateFamily::collect(w, &nnf, alpha_cut);
        family_can_fire(&family, w.pool(), n, cfg)
    }

    /// `k` range atoms on distinct columns, one query each.
    fn ranges(n: usize, k: usize, noise: Noise) -> WorkloadSpec {
        let mut w = WorkloadSpec::new(n);
        for col in 0..k {
            let id = w
                .pool_mut()
                .atom(so_plan::ir::Atom::IntRange { col, lo: 0, hi: 9 });
            w.push_expr(id, noise);
        }
        w
    }

    #[test]
    fn family_precondition_edges_keep_the_report() {
        let c = cfg();
        let dp = Noise::PureDp { epsilon: 1.0 };
        // (workload, can a pass fire?)
        let cases: Vec<(Box<dyn Fn() -> WorkloadSpec>, bool)> = vec![
            // n ≤ t: an n-wide cell is narrow.
            (Box::new(move || ranges(1, 3, dp)), true),
            (Box::new(move || ranges(2, 3, dp)), false),
            // α just under and at the tracker's error ceiling.
            (
                Box::new(|| ranges(100, 3, Noise::Bounded { alpha: 0.49 })),
                true,
            ),
            (
                Box::new(|| ranges(100, 3, Noise::Bounded { alpha: 0.5 })),
                false,
            ),
            // 2^atoms against the default 1024-cell cap.
            (Box::new(move || ranges(100, 9, dp)), false),
            (Box::new(move || ranges(100, 10, dp)), false),
            (Box::new(move || ranges(100, 11, dp)), true),
            // One designed atom among DP ranges: widths are no longer n.
            (
                Box::new(move || {
                    let mut w = ranges(1_000_000, 4, dp);
                    w.push_shape(
                        &PredShape::BitExtract {
                            bit: 0,
                            value: true,
                        },
                        dp,
                    );
                    w
                }),
                true,
            ),
        ];
        for (i, (build, want)) in cases.iter().enumerate() {
            assert_eq!(can_fire(&mut build(), &c), *want, "case {i}");
            assert_same_report(build, &c);
        }
        // The cap edge is tight: all 2^10 cells fit, 2^11 do not.
        let lowered = |k: usize| {
            let mut w = ranges(100, k, dp);
            let nnf = canonical_nnf(&mut w);
            let caps = MatrixCaps {
                max_cells: c.matrix_max_cells,
                bit_budget: c.matrix_bit_budget,
            };
            crate::matrix::lower_predicates(&w, &nnf, 10.0, caps)
        };
        assert!(matches!(lowered(10), Lowered::Built(m) if m.cells.len() == 1024));
        assert!(matches!(lowered(11), Lowered::Truncated));
        assert!(lint_workload(&mut ranges(100, 11, dp), &c).truncated);
    }

    /// A random atom over small domains, so families share and repeat
    /// atoms. The first two kinds read data; the last two have design
    /// weights. `kinds` is how many of them to draw from.
    fn random_atom(rng: &mut impl Rng, kinds: u32) -> so_plan::ir::Atom {
        use so_plan::ir::Atom;
        match rng.gen_range(0..kinds) {
            0 => {
                let lo = rng.gen_range(0i64..8);
                Atom::IntRange {
                    col: rng.gen_range(0..3),
                    lo,
                    hi: lo + rng.gen_range(0i64..6),
                }
            }
            1 => Atom::ValueEquals {
                col: rng.gen_range(0..3),
                value: so_data::Value::Int(rng.gen_range(0..4)),
            },
            2 => Atom::BitExtract {
                bit: rng.gen_range(0..4),
                value: rng.gen_bool(0.5),
            },
            _ => {
                let modulus = [2u64, 64, 128, 1 << 21][rng.gen_range(0..4usize)];
                Atom::KeyedHash {
                    key: rng.gen_range(0..2),
                    modulus,
                    target: rng.gen_range(0..3),
                }
            }
        }
    }

    /// A random expression of at most `depth` connective levels over
    /// [`random_atom`]s of the first `kinds` kinds.
    fn random_expr(pool: &mut PredPool, rng: &mut impl Rng, kinds: u32, depth: usize) -> ExprId {
        if depth == 0 || rng.gen_bool(0.4) {
            return pool.atom(random_atom(rng, kinds));
        }
        match rng.gen_range(0..3u32) {
            0 | 1 => {
                let kids: Vec<ExprId> = (0..rng.gen_range(1..4))
                    .map(|_| random_expr(pool, rng, kinds, depth - 1))
                    .collect();
                if rng.gen_bool(0.5) {
                    pool.and(kids)
                } else {
                    pool.or(kids)
                }
            }
            _ => {
                let inner = random_expr(pool, rng, kinds, depth - 1);
                pool.not(inner)
            }
        }
    }

    proptest::proptest! {
        /// Deciding a family before lowering it never changes a report:
        /// findings, `pairs_examined`, `tracker_combos_examined` and
        /// `truncated` all equal those of lowering every family.
        #[test]
        fn family_precondition_keeps_every_report(
            seed in proptest::prelude::any::<u64>(),
            n_pick in 0usize..4,
            m in 1usize..=12,
            data_only in proptest::prelude::any::<bool>(),
        ) {
            let n = [1usize, 2, 100, 1_000_000][n_pick];
            let noises = [
                Noise::Exact,
                Noise::Bounded { alpha: 0.3 },
                Noise::Bounded { alpha: 0.7 },
                Noise::PureDp { epsilon: 0.1 },
                Noise::PureDp { epsilon: 1.0 },
            ];
            let build = || {
                let mut rng = so_data::rng::seeded_rng(seed);
                let mut w = WorkloadSpec::new(n);
                for _ in 0..m {
                    // Data-only families of rows that cannot start a
                    // chain are the ones the precondition skips; keep them
                    // frequent.
                    let (kinds, noise) = if data_only {
                        (2, noises[rng.gen_range(2..5usize)])
                    } else {
                        (4, noises[rng.gen_range(0..5usize)])
                    };
                    let id = random_expr(w.pool_mut(), &mut rng, kinds, 2);
                    w.push_expr(id, noise);
                }
                w
            };
            assert_same_report(build, &cfg());
        }
    }
}
