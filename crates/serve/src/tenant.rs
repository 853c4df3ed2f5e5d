//! Per-tenant state: data, gate policy, budget, rate limit, audit trail.
//!
//! A tenant is one isolated statistical-query surface. Each holds
//!
//! * a tabular [`Dataset`] (for counting queries) and a secret bit column
//!   (for subset-sum queries) — both derived deterministically from the
//!   tenant seed;
//! * a gate policy: an *ungated* tenant answers any well-formed workload
//!   (the vulnerable production API of the reconstruction literature); a
//!   *gated* tenant lints every workload with [`lint_workload`] first;
//! * optionally a [`ContinualAccountant`], under which non-DP releases are
//!   refused outright and admitted DP workloads spend ε, gated or not;
//! * a [`TokenBucket`] rate limit and a bounded [`QueryAuditor`] trail.
//!
//! The verdict is [`Admission::decide`], the same admission path as
//! [`so_analyze::GatedEngine`] and [`so_analyze::IncrementalGate`], and the
//! trail holds the same [`Refusal::audit_line`]s, so a wire refusal is as
//! citable as an in-process one.
//!
//! Tenants never share mutable state: a panic while serving one tenant (the
//! worker catches it) cannot corrupt another tenant's accountant or bucket.

use rand::rngs::StdRng;
use rand::Rng;

use so_analyze::admission::{self, Admission, Refusal};
use so_analyze::lint::{lint_workload, LintConfig, LintReport};
use so_data::rng::{derive_seed, seeded_rng};
use so_data::{
    AttributeDef, AttributeRole, BitVec, DataType, Dataset, DatasetBuilder, Schema, Value,
};
use so_dp::{sample_laplace, ContinualAccountant};
use so_plan::shape::PredShape;
use so_plan::workload::{Noise, QueryKind, WorkloadSpec};
use so_query::audit::QueryAuditor;
use so_query::engine::{CountingEngine, WorkloadAnswer};

use crate::flight::{FlightRecorder, RequestProfile};
use crate::limit::TokenBucket;
use crate::proto::{ProtoError, WireQuery};

/// How many records a tenant's audit trail keeps; the oldest go first (the
/// refusal counters stay exact). A refused 192-query LP battery writes 193.
pub const AUDIT_TRAIL_CAP: usize = 256;

/// Static configuration of one tenant.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Tenant name (the `hello` handle).
    pub name: String,
    /// Rows in the tenant's dataset (and bits in its secret column).
    pub n_rows: usize,
    /// Master seed; the secret column and release-noise stream derive from
    /// it, so a tenant's behavior is a pure function of its config.
    pub seed: u64,
    /// Whether workloads pass through the lint gate. The continual budget
    /// applies either way.
    pub gated: bool,
    /// Lint tunables for the gate (ignored when ungated).
    pub lint: LintConfig,
    /// When set, attach a [`ContinualAccountant`] with this ε budget.
    pub continual_epsilon: Option<f64>,
    /// Token-bucket capacity (burst size).
    pub rate_capacity: u64,
    /// Ticks per earned token.
    pub rate_refill_every: u64,
    /// Flight-recorder ring capacity; `None` reads `SO_FLIGHT_CAP`
    /// (default 256).
    pub flight_cap: Option<usize>,
}

impl TenantConfig {
    /// An ungated tenant with a generous rate limit — the "production API
    /// that answers everything" of the reconstruction literature.
    pub fn ungated(name: &str, n_rows: usize, seed: u64) -> Self {
        TenantConfig {
            name: name.to_owned(),
            n_rows,
            seed,
            gated: false,
            lint: LintConfig::default(),
            continual_epsilon: None,
            rate_capacity: 4096,
            rate_refill_every: 1,
            flight_cap: None,
        }
    }

    /// A gated tenant with default lints and the same rate limit.
    pub fn gated(name: &str, n_rows: usize, seed: u64) -> Self {
        TenantConfig {
            gated: true,
            ..Self::ungated(name, n_rows, seed)
        }
    }

    /// Adds continual-release budget accounting.
    pub fn with_continual_budget(mut self, epsilon: f64) -> Self {
        self.continual_epsilon = Some(epsilon);
        self
    }

    /// Overrides the token-bucket parameters.
    pub fn with_rate(mut self, capacity: u64, refill_every: u64) -> Self {
        self.rate_capacity = capacity;
        self.rate_refill_every = refill_every;
        self
    }

    /// Overrides the flight-recorder ring capacity (tests; the daemon uses
    /// `SO_FLIGHT_CAP`).
    pub fn with_flight_cap(mut self, cap: usize) -> Self {
        self.flight_cap = Some(cap);
        self
    }
}

/// The outcome of one workload against a tenant.
#[derive(Debug, Clone)]
pub enum WorkloadOutcome {
    /// Admitted: released answers, in declaration order.
    Answered(Vec<f64>),
    /// Refused by the gate: per-offending-index refusals, no query ran.
    Refused(Vec<Refusal>),
}

/// One tenant's live state.
pub struct Tenant {
    config: TenantConfig,
    dataset: Dataset,
    secret: BitVec,
    admission: Admission,
    noise_rng: StdRng,
    bucket: TokenBucket,
    auditor: QueryAuditor,
    workloads_answered: u64,
    workloads_refused: u64,
    flight: FlightRecorder,
    last_profile: RequestProfile,
}

impl Tenant {
    /// Builds the tenant: dataset and secret derived from the seed, a full
    /// token bucket, a fresh accountant if budgeted.
    pub fn new(config: TenantConfig) -> Self {
        let schema = Schema::new(vec![AttributeDef::new(
            "age",
            DataType::Int,
            AttributeRole::QuasiIdentifier,
        )]);
        let mut rows = seeded_rng(derive_seed(config.seed, 0));
        let mut b = DatasetBuilder::new(schema);
        for _ in 0..config.n_rows {
            b.push_row(vec![Value::Int(rows.gen_range(0..90))]);
        }
        let dataset = b.finish();
        let mut secret_rng = seeded_rng(derive_seed(config.seed, 1));
        let mut secret = BitVec::zeros(config.n_rows);
        for i in 0..config.n_rows {
            secret.set(i, secret_rng.gen::<bool>());
        }
        let noise_rng = seeded_rng(derive_seed(config.seed, 2));
        let bucket = TokenBucket::new(config.rate_capacity, config.rate_refill_every);
        let admission = Admission::new(config.continual_epsilon.map(ContinualAccountant::new));
        let flight = match config.flight_cap {
            Some(cap) => FlightRecorder::new(cap),
            None => FlightRecorder::from_env(),
        };
        Tenant {
            config,
            dataset,
            secret,
            admission,
            noise_rng,
            bucket,
            auditor: QueryAuditor::with_trail_cap(None, AUDIT_TRAIL_CAP),
            workloads_answered: 0,
            workloads_refused: 0,
            flight,
            last_profile: RequestProfile::default(),
        }
    }

    /// The tenant name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// Whether the lint gate is on.
    pub fn gated(&self) -> bool {
        self.config.gated
    }

    /// Row count / secret length.
    pub fn n_rows(&self) -> usize {
        self.config.n_rows
    }

    /// The secret column — server-side ground truth, used by the experiment
    /// harness to score a reconstruction. Never crosses the wire.
    pub fn secret(&self) -> &BitVec {
        &self.secret
    }

    /// Budget state: `(accounting?, spent, remaining, version)`.
    pub fn budget(&self) -> (bool, f64, f64, u64) {
        match self.admission.accountant() {
            Some(a) => (true, a.spent(), a.remaining(), a.version()),
            None => (false, 0.0, 0.0, 0),
        }
    }

    /// Admits or rate-limits one request at `tick`.
    pub fn admit(&mut self, tick: u64) -> Result<(), u64> {
        self.bucket.admit(tick)
    }

    /// The refusal audit trail: the newest [`AUDIT_TRAIL_CAP`]
    /// [`Refusal::audit_line`]s, oldest first.
    pub fn auditor(&self) -> &QueryAuditor {
        &self.auditor
    }

    /// `(answered, refused)` workload counters.
    pub fn workload_counts(&self) -> (u64, u64) {
        (self.workloads_answered, self.workloads_refused)
    }

    /// The tenant's flight recorder (read side: the `flight` op and
    /// `GET /flight/<tenant>`).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The tenant's flight recorder, writable — the server pushes one
    /// [`crate::flight::RequestRecord`] per tenant-bound request.
    pub fn flight_mut(&mut self) -> &mut FlightRecorder {
        &mut self.flight
    }

    /// What the most recent [`Tenant::run_workload`] measured: lint codes,
    /// refusal evidence, ε spent, rows scanned, cache hits. Zeros between
    /// workloads.
    pub fn last_profile(&self) -> &RequestProfile {
        &self.last_profile
    }

    /// Publishes the tenant's ε burn-down gauges
    /// (`so_serve_tenant_epsilon_{spent,remaining}`), a no-op without an
    /// accountant.
    pub fn publish_epsilon_gauges(&self) {
        if let Some(a) = self.admission.accountant() {
            let (spent, remaining) = crate::obs::serve_epsilon_gauges(self.name());
            spent.set(a.spent());
            remaining.set(a.remaining());
        }
    }

    /// Lints (when gated), budget-checks (when budgeted), and answers one
    /// workload. `Err` means the workload was malformed (e.g. a subset index
    /// out of range) and nothing ran.
    pub fn run_workload(
        &mut self,
        queries: &[WireQuery],
        noise: Noise,
    ) -> Result<WorkloadOutcome, ProtoError> {
        self.last_profile = RequestProfile::default();
        let mut spec = self.build_spec(queries, noise)?;
        let report = if self.config.gated {
            lint_workload(&mut spec, &self.config.lint)
        } else {
            LintReport::default()
        };
        // The tenant's dataset never mutates: every release charges v0.
        match self.admission.decide(&spec, &report, 0) {
            Ok(epsilon) => {
                self.last_profile.epsilon_spent = epsilon;
                let answers = self.answer(&spec);
                self.workloads_answered += 1;
                crate::obs::serve_metrics().workloads_answered.inc();
                Ok(WorkloadOutcome::Answered(answers))
            }
            Err(refusals) => Ok(self.refuse(&spec, refusals)),
        }
    }

    /// Records a refusal: audit entries, counters, and the wire payload. No
    /// query of a refused workload executes.
    fn refuse(&mut self, spec: &WorkloadSpec, refusals: Vec<Refusal>) -> WorkloadOutcome {
        self.workloads_refused += 1;
        crate::obs::serve_metrics().workloads_refused.inc();
        let mut codes: Vec<String> = refusals.iter().map(|r| r.code.clone()).collect();
        codes.sort();
        codes.dedup();
        self.last_profile.evidence = refusals
            .iter()
            .map(|r| r.evidence.clone())
            .find(|ev| !ev.is_empty())
            .unwrap_or_default();
        self.last_profile.codes = codes;
        for r in &refusals {
            crate::obs::serve_refusals(&r.code).inc();
            crate::obs::serve_tenant_refusals(&r.code, &self.config.name).inc();
        }
        admission::audit(&mut self.auditor, spec, &refusals);
        WorkloadOutcome::Refused(refusals)
    }

    /// Answers an admitted workload: predicate counts through the tabular
    /// engine, subset sums against the secret column, release noise from
    /// the tenant's seeded stream — in declaration order, so the noise
    /// consumed per answer is deterministic.
    fn answer(&mut self, spec: &WorkloadSpec) -> Vec<f64> {
        let mut engine = CountingEngine::new(&self.dataset, None);
        let executed = engine.execute_workload(spec);
        let n = self.config.n_rows as u64;
        let subset_queries = spec
            .queries()
            .iter()
            .filter(|q| matches!(q.kind, QueryKind::Subset(_)))
            .count() as u64;
        // Rows touched: each dataset scan sweeps every row, and each
        // subset sum walks the full mask — deterministic counts, fit for a
        // transcript.
        self.last_profile.rows_scanned = (executed.stats.atom_scans as u64 + subset_queries) * n;
        self.last_profile.cache_hits = executed.stats.cache_hits as u64;
        let mut answers = Vec::with_capacity(spec.len());
        for (i, q) in spec.queries().iter().enumerate() {
            let truth = match &q.kind {
                QueryKind::Subset(mask) => mask.and_count(&self.secret) as f64,
                QueryKind::Pred(_) => match executed.answers[i] {
                    WorkloadAnswer::Count(c) => c as f64,
                    other => unreachable!("predicate answered {other:?}"),
                },
            };
            let released = match q.noise {
                Noise::Exact => truth,
                Noise::Bounded { alpha } => {
                    if alpha > 0.0 {
                        truth + self.noise_rng.gen_range(-alpha..=alpha)
                    } else {
                        truth
                    }
                }
                Noise::PureDp { epsilon } => {
                    truth + sample_laplace(1.0 / epsilon, &mut self.noise_rng)
                }
            };
            answers.push(released);
        }
        answers
    }

    /// Lowers wire queries into a [`WorkloadSpec`], bounds-checking subset
    /// indices and column references.
    fn build_spec(&self, queries: &[WireQuery], noise: Noise) -> Result<WorkloadSpec, ProtoError> {
        let n = self.config.n_rows;
        let n_cols = self.dataset.schema().len();
        let mut spec = WorkloadSpec::new(n);
        for q in queries {
            match q {
                WireQuery::Subset(_) => {
                    let subset = q.to_subset(n)?.expect("subset kind");
                    spec.push_subset(&subset, noise);
                }
                WireQuery::IntRange { col, lo, hi } => {
                    check_col(*col, n_cols)?;
                    spec.push_shape(
                        &PredShape::IntRange {
                            col: *col,
                            lo: *lo,
                            hi: *hi,
                        },
                        noise,
                    );
                }
                WireQuery::ValueEq { col, value } => {
                    check_col(*col, n_cols)?;
                    spec.push_shape(
                        &PredShape::ValueEquals {
                            col: *col,
                            value: Value::Int(*value),
                        },
                        noise,
                    );
                }
            }
        }
        Ok(spec)
    }
}

fn check_col(col: usize, n_cols: usize) -> Result<(), ProtoError> {
    if col >= n_cols {
        return Err(ProtoError::BadShape(format!(
            "column {col} out of range ({n_cols} columns)"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_analyze::CBUDGET_CODE;

    fn trail(t: &Tenant) -> Vec<&str> {
        t.auditor()
            .trail()
            .map(|r| r.description.as_str())
            .collect()
    }

    fn subset_attack(n: usize, m: usize, seed: u64) -> Vec<WireQuery> {
        let mut rng = seeded_rng(seed);
        so_recon::lp_attack_queries(n, m, &mut rng)
            .iter()
            .map(|q| {
                WireQuery::Subset(
                    q.members()
                        .iter()
                        .enumerate()
                        .filter_map(|(i, b)| b.then_some(i))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn ungated_tenant_answers_exact_subset_sums() {
        let mut t = Tenant::new(TenantConfig::ungated("open", 32, 7));
        let queries = vec![
            WireQuery::Subset((0..32).collect()),
            WireQuery::Subset(vec![0, 1, 2]),
        ];
        match t.run_workload(&queries, Noise::Exact).unwrap() {
            WorkloadOutcome::Answered(a) => {
                assert_eq!(a[0], t.secret().count_ones() as f64);
                let expect = (0..3).filter(|&i| t.secret().get(i)).count() as f64;
                assert_eq!(a[1], expect);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(t.workload_counts(), (1, 0));
    }

    #[test]
    fn gated_tenant_refuses_dense_attack_with_recon_evidence() {
        let n = 24;
        let mut t = Tenant::new(TenantConfig::gated("guarded", n, 7));
        let queries = subset_attack(n, 4 * n, 11);
        match t.run_workload(&queries, Noise::Exact).unwrap() {
            WorkloadOutcome::Refused(refusals) => {
                assert!(!refusals.is_empty());
                // The density verdict is workload-level; it crosses the
                // wire with `query: None` and the theorem grounding.
                let recon = refusals
                    .iter()
                    .find(|r| r.code == "SO-RECON")
                    .unwrap_or_else(|| panic!("{refusals:?}"));
                assert_eq!(recon.query, None);
                assert!(recon.evidence.contains("LP-decoding"), "{}", recon.evidence);
                // Per-index refusals ascend, deduplicated.
                let idx: Vec<usize> = refusals.iter().filter_map(|r| r.query).collect();
                let mut sorted = idx.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(idx, sorted);
            }
            other => panic!("{other:?}"),
        }
        assert!(trail(&t)
            .iter()
            .any(|e| e.starts_with("[gate: SO-RECON] workload:")));
        assert!(trail(&t)
            .iter()
            .any(|e| e.starts_with("[gate: ") && e.contains("query #0: subset(|q| = ")));
        assert_eq!(t.workload_counts(), (0, 1));
    }

    #[test]
    fn audit_trail_keeps_only_the_newest_records() {
        let n = 24;
        let mut t = Tenant::new(TenantConfig::gated("guarded", n, 7));
        let queries = subset_attack(n, 4 * n, 11);
        t.run_workload(&queries, Noise::Exact).unwrap();
        let per_request = t.auditor().trail_len();
        let runs = AUDIT_TRAIL_CAP / per_request + 2;
        for _ in 1..runs {
            t.run_workload(&queries, Noise::Exact).unwrap();
        }
        assert_eq!(t.auditor().trail_len(), AUDIT_TRAIL_CAP);
        assert_eq!(t.auditor().queries_seen(), runs * per_request);
        assert_eq!(t.workload_counts(), (0, runs as u64));
    }

    #[test]
    fn same_attack_under_dp_noise_is_admitted() {
        let n = 24;
        let mut t = Tenant::new(TenantConfig::gated("guarded", n, 7));
        let queries = subset_attack(n, 4 * n, 11);
        let out = t
            .run_workload(&queries, Noise::PureDp { epsilon: 0.05 })
            .unwrap();
        assert!(matches!(out, WorkloadOutcome::Answered(_)));
    }

    #[test]
    fn accountant_refuses_non_dp_then_meters_dp() {
        let mut t = Tenant::new(TenantConfig::gated("metered", 16, 3).with_continual_budget(1.0));
        let q = vec![WireQuery::Subset(vec![0, 1])];
        // Exact release: SO-CBUDGET outright.
        match t.run_workload(&q, Noise::Exact).unwrap() {
            WorkloadOutcome::Refused(r) => {
                assert_eq!(r[0].code, CBUDGET_CODE);
                assert!(r[0].evidence.contains("non-DP"));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(t.budget().1, 0.0, "refusal spends nothing");
        // DP releases spend until the budget runs out.
        let dp = Noise::PureDp { epsilon: 0.4 };
        assert!(matches!(
            t.run_workload(&q, dp).unwrap(),
            WorkloadOutcome::Answered(_)
        ));
        assert!(matches!(
            t.run_workload(&q, dp).unwrap(),
            WorkloadOutcome::Answered(_)
        ));
        let (_, spent, remaining, _) = t.budget();
        assert!((spent - 0.8).abs() < 1e-12);
        assert!((remaining - 0.2).abs() < 1e-12);
        match t.run_workload(&q, dp).unwrap() {
            WorkloadOutcome::Refused(r) => {
                assert_eq!(r[0].code, CBUDGET_CODE);
                assert!(r[0].evidence.contains("remaining"), "{:?}", r[0].evidence);
            }
            other => panic!("{other:?}"),
        }
        assert!((t.budget().1 - 0.8).abs() < 1e-12, "refusal spends nothing");
    }

    /// The continual budget does not depend on linting: an ungated tenant
    /// with a budget refuses exact releases and charges DP ones.
    #[test]
    fn ungated_tenant_with_a_budget_spends_epsilon() {
        let mut t = Tenant::new(TenantConfig::ungated("open", 16, 3).with_continual_budget(1.0));
        let q = vec![WireQuery::Subset(vec![0, 1]), WireQuery::Subset(vec![2])];
        match t.run_workload(&q, Noise::Exact).unwrap() {
            WorkloadOutcome::Refused(r) => {
                let idx: Vec<Option<usize>> = r.iter().map(|r| r.query).collect();
                assert_eq!(idx, vec![Some(0), Some(1)]);
                assert!(r.iter().all(|r| r.code == CBUDGET_CODE), "{r:?}");
                assert!(r[0].evidence.contains("non-DP"), "{:?}", r[0].evidence);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(t.budget().1, 0.0, "refusal spends nothing");
        let dp = Noise::PureDp { epsilon: 0.3 };
        assert!(matches!(
            t.run_workload(&q, dp).unwrap(),
            WorkloadOutcome::Answered(_)
        ));
        assert!((t.budget().1 - 0.6).abs() < 1e-12, "ε charged = ε released");
        assert!((t.last_profile().epsilon_spent - 0.6).abs() < 1e-12);
        assert_eq!(t.workload_counts(), (1, 1));
    }

    #[test]
    fn request_profile_captures_codes_eps_rows_and_cache() {
        let n = 24;
        let mut t = Tenant::new(TenantConfig::gated("metered", n, 7).with_continual_budget(1.0));
        // A refused attack: codes + evidence land in the profile.
        let attack = subset_attack(n, 4 * n, 11);
        t.run_workload(&attack, Noise::Exact).unwrap();
        let p = t.last_profile().clone();
        assert!(p.codes.contains(&"SO-RECON".to_owned()), "{:?}", p.codes);
        assert!(!p.evidence.is_empty());
        assert_eq!(p.epsilon_spent, 0.0, "refusals spend nothing");
        assert_eq!(p.rows_scanned, 0, "refused workloads run nothing");
        // An admitted DP workload: ε and rows recorded, profile reset.
        let q = vec![WireQuery::Subset(vec![0, 1]), WireQuery::Subset(vec![2])];
        t.run_workload(&q, Noise::PureDp { epsilon: 0.1 }).unwrap();
        let p = t.last_profile().clone();
        assert!(p.codes.is_empty(), "profile resets between workloads");
        assert!((p.epsilon_spent - 0.2).abs() < 1e-12, "two queries × ε=0.1");
        assert_eq!(
            p.rows_scanned,
            2 * n as u64,
            "two subset sweeps over n rows"
        );
        // Predicate workloads count dataset scans; hash-consing answers the
        // duplicate predicate from one scan, so rows_scanned is exactly n.
        let mut open = Tenant::new(TenantConfig::ungated("open", 64, 9));
        let pred = vec![
            WireQuery::IntRange {
                col: 0,
                lo: 0,
                hi: 40,
            },
            WireQuery::IntRange {
                col: 0,
                lo: 0,
                hi: 40,
            },
        ];
        open.run_workload(&pred, Noise::Exact).unwrap();
        let p = open.last_profile();
        assert_eq!(
            p.rows_scanned, 64,
            "two identical predicates, one scan: {p:?}"
        );
    }

    #[test]
    fn flight_cap_config_overrides_env_default() {
        let t = Tenant::new(TenantConfig::ungated("open", 8, 1).with_flight_cap(4));
        assert_eq!(t.flight().cap(), 4);
        let t = Tenant::new(TenantConfig::ungated("open", 8, 1));
        assert!(t.flight().cap() >= 1);
    }

    #[test]
    fn predicate_queries_count_rows() {
        let mut t = Tenant::new(TenantConfig::ungated("open", 64, 9));
        let queries = vec![
            WireQuery::IntRange {
                col: 0,
                lo: 0,
                hi: 89,
            },
            WireQuery::ValueEq { col: 0, value: -1 },
        ];
        match t.run_workload(&queries, Noise::Exact).unwrap() {
            WorkloadOutcome::Answered(a) => {
                assert_eq!(a[0], 64.0, "ages all fall in 0..90");
                assert_eq!(a[1], 0.0, "no negative ages");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_queries_run_nothing() {
        let mut t = Tenant::new(TenantConfig::ungated("open", 8, 1));
        assert!(t
            .run_workload(&[WireQuery::Subset(vec![8])], Noise::Exact)
            .is_err());
        assert!(t
            .run_workload(
                &[WireQuery::IntRange {
                    col: 5,
                    lo: 0,
                    hi: 1
                }],
                Noise::Exact
            )
            .is_err());
        assert_eq!(t.workload_counts(), (0, 0));
    }

    #[test]
    fn seeded_noise_stream_is_deterministic() {
        let run = || {
            let mut t = Tenant::new(TenantConfig::ungated("open", 16, 5));
            let q = vec![WireQuery::Subset(vec![0, 1, 2, 3])];
            let mut out = Vec::new();
            for _ in 0..3 {
                match t.run_workload(&q, Noise::Bounded { alpha: 2.0 }).unwrap() {
                    WorkloadOutcome::Answered(a) => out.extend(a),
                    other => panic!("{other:?}"),
                }
            }
            out
        };
        assert_eq!(run(), run());
    }
}
