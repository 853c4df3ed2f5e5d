//! The one admission path: every gate in the stack decides a linted
//! workload here.
//!
//! [`GatedEngine`](crate::gate::GatedEngine) (one workload, one snapshot),
//! [`IncrementalGate`](crate::incremental::IncrementalGate) (a persistent
//! gate over a mutable dataset) and the `so-serve` tenant (a gate at the
//! service edge) differ in what they execute, not in how they admit.
//! [`Admission::decide`] is the decision they share:
//!
//! * **Lint refusal.** A deny finding refuses the workload. The first deny
//!   finding to flag a query index wins that index, and entries ascend by
//!   index. Workload-level deny findings (empty `queries`, e.g. SO-RECON's
//!   density verdict: no single query is at fault, their number is) follow
//!   in report order as `query: None` refusals.
//! * **Continual budget (`SO-CBUDGET`).** With a [`ContinualAccountant`]
//!   attached, whether or not linting is on, every query must be a
//!   [`Noise::PureDp`] release (a non-DP answer has unbounded ε under
//!   composition), and the workload's basic-composition sum must fit the
//!   remaining (optionally windowed) budget. Admitted workloads spend their
//!   ε, all of it or none.
//!
//! A refusal is citable only if every surface reports it the same way, so
//! each [`Refusal`] renders its audit-trail line in exactly one place,
//! [`Refusal::audit_line`], and the wire carries the same three fields.

use std::collections::BTreeMap;

use so_dp::ContinualAccountant;
use so_plan::PlanStats;
use so_query::audit::QueryAuditor;
use so_query::engine::{WorkloadAnswer, WorkloadAnswers};

use crate::lint::{Finding, LintReport, Severity};
use crate::workload::{Noise, QueryKind, WorkloadSpec};

/// The refusal code for continual-budget violations. It is not a static
/// lint: the verdict depends on accountant state, so it is decided after
/// the structural lints admit the workload.
pub const CBUDGET_CODE: &str = "SO-CBUDGET";

/// One citable refusal: which query (or the workload as a whole), the code
/// that refused it, and the evidence an auditor can re-check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refusal {
    /// Offending query index (declaration order), or `None` when the
    /// finding concerns the workload as a whole (e.g. `SO-RECON`'s
    /// density verdict: no single query is at fault, their count is).
    pub query: Option<usize>,
    /// The gate code that flagged it (`SO-RECON`, `SO-CBUDGET`, …).
    pub code: String,
    /// The finding's structured evidence (or its message, for
    /// workload-level findings), rendered.
    pub evidence: String,
}

impl Refusal {
    /// The audit-trail line: `[gate: CODE] query #i: <query> [evidence]`,
    /// or `[gate: CODE] workload: [evidence]` for a workload-level refusal.
    /// `spec` renders the query.
    pub fn audit_line(&self, spec: &WorkloadSpec) -> String {
        let code = &self.code;
        let evidence = if self.evidence.is_empty() {
            String::new()
        } else {
            format!(" [{}]", self.evidence)
        };
        match self.query {
            Some(q) => {
                let rendered = match &spec.queries()[q].kind {
                    QueryKind::Pred(id) => spec.pool().render(*id),
                    QueryKind::Subset(m) => format!("subset(|q| = {})", m.count_ones()),
                };
                format!("[gate: {code}] query #{q}: {rendered}{evidence}")
            }
            None => format!("[gate: {code}] workload:{evidence}"),
        }
    }

    fn from_finding(query: Option<usize>, f: &Finding) -> Self {
        let evidence = f
            .evidence
            .as_ref()
            .filter(|ev| !ev.is_empty())
            .map(|ev| ev.to_string());
        Refusal {
            query,
            code: f.lint.code().to_owned(),
            // Workload-level findings cite their message when they carry
            // no structured evidence: it is the only grounding they have.
            evidence: match (query, evidence) {
                (_, Some(ev)) => ev,
                (Some(_), None) => String::new(),
                (None, None) => f.message.clone(),
            },
        }
    }

    fn cbudget(query: usize, evidence: &str) -> Self {
        Refusal {
            query: Some(query),
            code: CBUDGET_CODE.to_owned(),
            evidence: evidence.to_owned(),
        }
    }
}

/// Records `refusals` in `auditor`'s trail, one [`Refusal::audit_line`]
/// each. Per-query refusals count as refused queries; workload-level ones
/// are trail records only, since no single query was refused for them.
pub fn audit(auditor: &mut QueryAuditor, spec: &WorkloadSpec, refusals: &[Refusal]) {
    for r in refusals {
        let line = || r.audit_line(spec);
        match r.query {
            Some(_) => auditor.refuse_with(line),
            None => auditor.note_refusal_with(line),
        }
    }
}

/// The answers of a refused workload: every query [`WorkloadAnswer::Refused`],
/// nothing scanned.
pub(crate) fn refused_answers(n: usize) -> WorkloadAnswers {
    WorkloadAnswers {
        answers: vec![WorkloadAnswer::Refused; n],
        targets: vec![None; n],
        stats: PlanStats {
            queries: n,
            ..PlanStats::default()
        },
    }
}

/// The admission decision shared by every gate: lint verdict first, then
/// the optional continual-release budget.
#[derive(Debug)]
pub struct Admission {
    accountant: Option<ContinualAccountant>,
}

impl Admission {
    /// An admission path with optional continual-release accounting.
    pub fn new(accountant: Option<ContinualAccountant>) -> Self {
        Admission { accountant }
    }

    /// The continual accountant, if budget accounting is on.
    pub fn accountant(&self) -> Option<&ContinualAccountant> {
        self.accountant.as_ref()
    }

    /// Decides `spec` given its lint `report` (an empty report for an
    /// ungated caller) against dataset `version`. `Ok` carries the ε the
    /// admitted workload spent (0 without an accountant); `Err` carries the
    /// refusals, and then nothing was spent.
    pub fn decide(
        &mut self,
        spec: &WorkloadSpec,
        report: &LintReport,
        version: u64,
    ) -> Result<f64, Vec<Refusal>> {
        let verdict = self.verdict(spec, report, version);
        let metrics = crate::obs::gate_metrics();
        match &verdict {
            Ok(_) => metrics.workloads_admitted.inc(),
            Err(refusals) => {
                metrics.workloads_refused.inc();
                for r in refusals.iter().filter(|r| r.query.is_some()) {
                    crate::obs::query_refusals(&r.code).inc();
                }
            }
        }
        verdict
    }

    fn verdict(
        &mut self,
        spec: &WorkloadSpec,
        report: &LintReport,
        version: u64,
    ) -> Result<f64, Vec<Refusal>> {
        if report.denies() {
            let denies = || {
                report
                    .findings
                    .iter()
                    .filter(|f| f.severity == Severity::Deny)
            };
            let mut offending: BTreeMap<usize, &Finding> = BTreeMap::new();
            for f in denies() {
                for &q in &f.queries {
                    offending.entry(q).or_insert(f);
                }
            }
            let per_query = offending
                .into_iter()
                .map(|(q, f)| Refusal::from_finding(Some(q), f));
            let workload = denies()
                .filter(|f| f.queries.is_empty())
                .map(|f| Refusal::from_finding(None, f));
            return Err(per_query.chain(workload).collect());
        }
        let Some(acct) = self.accountant.as_mut() else {
            return Ok(0.0);
        };
        acct.advance_to(version);
        let mut costs = Vec::with_capacity(spec.len());
        let mut non_dp = Vec::new();
        for (i, q) in spec.queries().iter().enumerate() {
            match q.noise {
                Noise::PureDp { epsilon } => costs.push(epsilon),
                _ => non_dp.push(Refusal::cbudget(
                    i,
                    "non-DP release under continual accounting",
                )),
            }
        }
        if !non_dp.is_empty() {
            return Err(non_dp);
        }
        let check = acct.precheck(&costs);
        if !check.admissible {
            let evidence = format!(
                "workload ε {:.4} > remaining {:.4} at v{version}",
                check.total, check.remaining
            );
            return Err((0..spec.len())
                .map(|q| Refusal::cbudget(q, &evidence))
                .collect());
        }
        for &eps in &costs {
            let ok = acct.try_spend(eps);
            debug_assert!(ok, "precheck admitted the workload");
        }
        Ok(costs.iter().sum())
    }
}
