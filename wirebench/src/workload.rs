//! The four request shapes, their tenants, their seeded inputs, and the
//! verdict each request must come back with.
//!
//! Why four: each stresses layers the others leave idle.
//!
//! * `dashboard_dp` — fixed per-request cost (dispatch, tenant lock, a
//!   tiny lint, the accountant, noise, metrics, flight push); predicates
//!   repeat across requests, so a cross-request cache shows here.
//! * `scan_1m` — atom scans over 1,000,000 rows dominate: storage layout,
//!   zone maps, scan kernels and morsel scheduling show here and nowhere
//!   else.
//! * `lp_answered` — an ~18 KB request frame of 192 subset queries against
//!   an ungated tenant: the frame codec dominates, subset sums come second,
//!   neither lint nor scans run.
//! * `lp_refused` — the same batteries against a gated tenant: lint rank
//!   and density passes, refusal rendering, the audit log, and the client's
//!   parse of an evidence-heavy refusal frame. The paper's defence path,
//!   its cost chosen by the attacker.

use rand::Rng;

use so_data::rng::{derive_seed, seeded_rng};
use so_plan::workload::Noise;
use so_serve::{Request, Response, TenantConfig, WireQuery};

/// ε per DP predicate on the accounted workloads.
pub const EPSILON_PER_QUERY: f64 = 0.1;

/// Rows of the LP tenants (E20.1 scale) and subset queries per battery.
pub const LP_ROWS: usize = 48;
/// `4n` subset queries: the Dinur–Nissim LP regime at density ½.
pub const LP_QUERIES: usize = 4 * LP_ROWS;

/// An ε budget the accounted workloads never exhaust: ~10^10 requests.
const UNEXHAUSTED_BUDGET: f64 = 1e9;

/// The age domain tenants draw from (`Tenant::new` ages are `0..90`).
const AGE_MAX: i64 = 89;

/// The dashboard catalogue: eight age bands and eight single ages, all on
/// the tenant's one column. Requests draw four distinct entries.
const DASHBOARD_CATALOGUE: [WireQuery; 16] = [
    WireQuery::IntRange {
        col: 0,
        lo: 0,
        hi: 17,
    },
    WireQuery::IntRange {
        col: 0,
        lo: 18,
        hi: 24,
    },
    WireQuery::IntRange {
        col: 0,
        lo: 25,
        hi: 34,
    },
    WireQuery::IntRange {
        col: 0,
        lo: 35,
        hi: 44,
    },
    WireQuery::IntRange {
        col: 0,
        lo: 45,
        hi: 54,
    },
    WireQuery::IntRange {
        col: 0,
        lo: 55,
        hi: 64,
    },
    WireQuery::IntRange {
        col: 0,
        lo: 65,
        hi: 74,
    },
    WireQuery::IntRange {
        col: 0,
        lo: 75,
        hi: 89,
    },
    WireQuery::ValueEq { col: 0, value: 18 },
    WireQuery::ValueEq { col: 0, value: 21 },
    WireQuery::ValueEq { col: 0, value: 30 },
    WireQuery::ValueEq { col: 0, value: 40 },
    WireQuery::ValueEq { col: 0, value: 50 },
    WireQuery::ValueEq { col: 0, value: 60 },
    WireQuery::ValueEq { col: 0, value: 65 },
    WireQuery::ValueEq { col: 0, value: 80 },
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two sessions, small gated tenants, four catalogue predicates at ε=0.1.
    DashboardDp,
    /// One session, a gated 1M-row tenant, eight random ranges at ε=0.1.
    Scan1m,
    /// One session, an ungated 48-row tenant, exact LP batteries.
    LpAnswered,
    /// One session, a gated 48-row tenant, the same batteries, refused.
    LpRefused,
}

/// The verdict a request must come back with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `answers`, one per declared query.
    Answered,
    /// A gate refusal carrying workload-level `SO-RECON`.
    Refused,
}

/// One generated request and what checking its response needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    /// The request sent.
    pub request: Request,
    /// The subset masks of an LP battery (bit `i` = row `i`), for scoring
    /// answers against the secret column; empty for predicate workloads.
    pub masks: Vec<u64>,
}

impl Workload {
    /// Every workload the benchmark can drive.
    pub const ALL: [Workload; 4] = [
        Workload::DashboardDp,
        Workload::Scan1m,
        Workload::LpAnswered,
        Workload::LpRefused,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DashboardDp => "dashboard_dp",
            Workload::Scan1m => "scan_1m",
            Workload::LpAnswered => "lp_answered",
            Workload::LpRefused => "lp_refused",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop sessions (the concurrency): one per tenant.
    pub fn sessions(self) -> usize {
        match self {
            Workload::DashboardDp => 2,
            _ => 1,
        }
    }

    /// Queries per workload request.
    pub fn queries_per_request(self) -> usize {
        match self {
            Workload::DashboardDp => 4,
            Workload::Scan1m => 8,
            Workload::LpAnswered | Workload::LpRefused => LP_QUERIES,
        }
    }

    /// The verdict every window request must get.
    pub fn expected(self) -> Verdict {
        match self {
            Workload::LpRefused => Verdict::Refused,
            _ => Verdict::Answered,
        }
    }

    /// Whether the tenants run a continual ε accountant.
    pub fn accounted(self) -> bool {
        matches!(self, Workload::DashboardDp | Workload::Scan1m)
    }

    /// The tenant session `session` binds to.
    pub fn tenant_name(self, session: usize) -> String {
        format!("{}-{session}", self.name())
    }

    /// The tenants, their data derived from `seed`.
    pub fn tenants(self, seed: u64) -> Vec<TenantConfig> {
        (0..self.sessions())
            .map(|s| {
                let name = self.tenant_name(s);
                let tenant_seed = derive_seed(seed, 1000 + s as u64);
                match self {
                    Workload::DashboardDp => TenantConfig::gated(&name, 4096, tenant_seed)
                        .with_continual_budget(UNEXHAUSTED_BUDGET),
                    Workload::Scan1m => TenantConfig::gated(&name, 1_000_000, tenant_seed)
                        .with_continual_budget(UNEXHAUSTED_BUDGET),
                    Workload::LpAnswered => TenantConfig::ungated(&name, LP_ROWS, tenant_seed),
                    Workload::LpRefused => TenantConfig::gated(&name, LP_ROWS, tenant_seed),
                }
            })
            .collect()
    }

    /// Request `index` of session `session`: a pure function of the seed,
    /// so one seed always sends the same frames.
    pub fn input(self, seed: u64, session: usize, index: u64) -> Input {
        let stream = derive_seed(seed, session as u64 + 1);
        let mut rng = seeded_rng(derive_seed(stream, index));
        let dp = Noise::PureDp {
            epsilon: EPSILON_PER_QUERY,
        };
        let (queries, noise, masks) = match self {
            Workload::DashboardDp => {
                let picks = distinct(&mut rng, 4, |r| {
                    DASHBOARD_CATALOGUE[r.gen_range(0..DASHBOARD_CATALOGUE.len())].clone()
                });
                (picks, dp, Vec::new())
            }
            Workload::Scan1m => {
                let picks = distinct(&mut rng, 8, |r| {
                    let a = r.gen_range(0..=AGE_MAX);
                    let b = r.gen_range(0..=AGE_MAX);
                    WireQuery::IntRange {
                        col: 0,
                        lo: a.min(b),
                        hi: a.max(b),
                    }
                });
                (picks, dp, Vec::new())
            }
            Workload::LpAnswered | Workload::LpRefused => {
                let battery = so_recon::lp_attack_queries(LP_ROWS, LP_QUERIES, &mut rng);
                let masks = battery.iter().map(|q| q.members().words()[0]).collect();
                let queries = battery
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
                    .collect();
                (queries, Noise::Exact, masks)
            }
        };
        Input {
            request: Request::Workload { queries, noise },
            masks,
        }
    }
}

/// Draws `k` pairwise-distinct queries: a dashboard never asks the same
/// thing twice in one request.
fn distinct<R: Rng>(
    rng: &mut R,
    k: usize,
    mut draw: impl FnMut(&mut R) -> WireQuery,
) -> Vec<WireQuery> {
    let mut out: Vec<WireQuery> = Vec::with_capacity(k);
    while out.len() < k {
        let q = draw(rng);
        if !out.contains(&q) {
            out.push(q);
        }
    }
    out
}

/// Checks a response against the expected verdict. `Err` names why the
/// request counts as failed: a wrong verdict, a protocol or rate-limit
/// error, or a budget refusal (`SO-CBUDGET`) — the run never exhausts its
/// budget, so one means the accountant misbehaved.
pub fn classify(response: &Response, expected: Verdict, queries: usize) -> Result<(), String> {
    match (response, expected) {
        (Response::Answers { answers }, Verdict::Answered) => {
            if answers.len() != queries {
                return Err(format!("{} answers for {queries} queries", answers.len()));
            }
            if let Some(a) = answers.iter().find(|a| !a.is_finite()) {
                return Err(format!("non-finite answer {a}"));
            }
            Ok(())
        }
        (
            Response::Refused {
                refusals,
                queries: declared,
            },
            Verdict::Refused,
        ) => {
            if *declared != queries {
                return Err(format!("refusal covers {declared} of {queries} queries"));
            }
            if let Some(r) = refusals
                .iter()
                .find(|r| r.code != "SO-RECON" && r.query.is_none())
            {
                return Err(format!("unexpected workload-level refusal {}", r.code));
            }
            if refusals.iter().any(|r| r.code == "SO-CBUDGET") {
                return Err("refused SO-CBUDGET".to_owned());
            }
            if !refusals
                .iter()
                .any(|r| r.code == "SO-RECON" && r.query.is_none())
            {
                return Err("refusal lacks workload-level SO-RECON".to_owned());
            }
            let indices: Vec<usize> = refusals.iter().filter_map(|r| r.query).collect();
            if indices.is_empty() {
                return Err("refusal carries no per-index entries".to_owned());
            }
            if indices.windows(2).any(|w| w[0] >= w[1]) || indices.iter().any(|&i| i >= queries) {
                return Err("per-index refusals not strictly ascending in range".to_owned());
            }
            Ok(())
        }
        (Response::Error { code, detail, .. }, _) => Err(format!("{code}: {detail}")),
        (Response::Refused { refusals, .. }, Verdict::Answered) => {
            let mut codes: Vec<&str> = refusals.iter().map(|r| r.code.as_str()).collect();
            codes.dedup();
            Err(format!("refused [{}]", codes.join(", ")))
        }
        (other, _) => Err(format!("unexpected response {other:?}")),
    }
}

/// Scores an exact LP answer vector: every answer must equal
/// `|mask ∧ secret|` (bit `i` of `secret` = row `i`'s secret bit).
pub fn check_subset_sums(answers: &[f64], masks: &[u64], secret: u64) -> Result<(), String> {
    for (i, (&a, &m)) in answers.iter().zip(masks).enumerate() {
        let truth = (m & secret).count_ones() as f64;
        if a != truth {
            return Err(format!("answer #{i} = {a}, |mask ∧ secret| = {truth}"));
        }
    }
    Ok(())
}
