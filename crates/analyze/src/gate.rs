//! Gatekeeper mode: the lint verdict wired into the counting engine.
//!
//! A [`GatedEngine`] wraps a [`CountingEngine`] behind the static verdict of
//! [`lint_workload`]: it takes ownership of the declared workload, lints it
//! once at construction, and then [`GatedEngine::execute`] passes the
//! verdict through the shared [`Admission`] path, which either
//!
//! * refuses the workload — every answer is [`WorkloadAnswer::Refused`] and
//!   the audit trail records one [`Refusal::audit_line`] per offending query
//!   index plus one per workload-level finding (bounded by the auditor's
//!   trail cap), or
//! * admits it, and the gate executes **the identical plan it linted**: the
//!   same [`WorkloadSpec`], same pool, same expressions flow into
//!   [`CountingEngine::execute_workload`] — there is no window for the
//!   executed queries to drift from the linted ones.
//!
//! Refusing is a static decision with a citable reason, which is exactly the
//! defence the paper says a query-serving system needs against "overly
//! accurate answers to too many questions".
//!
//! [`WorkloadAnswer::Refused`]: so_query::engine::WorkloadAnswer::Refused
//! [`Refusal::audit_line`]: crate::admission::Refusal::audit_line

use so_query::engine::{CountingEngine, WorkloadAnswers};

use crate::admission::{self, Admission};
use crate::lint::{lint_workload, LintConfig, LintReport};
use crate::workload::WorkloadSpec;

/// A counting engine behind a static workload gate.
///
/// Construction lints the declared workload; queries are only ever executed
/// when the verdict admits it. The underlying auditor sees every attempt:
/// admitted queries through the normal path, gated refusals as
/// [`Refusal::audit_line`] entries naming the lint code.
///
/// [`Refusal::audit_line`]: crate::admission::Refusal::audit_line
pub struct GatedEngine<'a> {
    engine: CountingEngine<'a>,
    workload: WorkloadSpec,
    report: LintReport,
}

impl<'a> GatedEngine<'a> {
    /// Lints `workload` with `cfg` and places `engine` behind the verdict,
    /// taking ownership of the workload so the plan that was linted is the
    /// plan that executes.
    pub fn new(engine: CountingEngine<'a>, mut workload: WorkloadSpec, cfg: &LintConfig) -> Self {
        let report = lint_workload(&mut workload, cfg);
        GatedEngine {
            engine,
            workload,
            report,
        }
    }

    /// True iff the gate admits the workload (no deny-severity finding).
    pub fn is_open(&self) -> bool {
        !self.report.denies()
    }

    /// The lint report the verdict is based on.
    pub fn report(&self) -> &LintReport {
        &self.report
    }

    /// The linted workload (as canonicalized by the lints).
    pub fn workload(&self) -> &WorkloadSpec {
        &self.workload
    }

    /// Executes the gated workload.
    ///
    /// If the gate is open this is exactly
    /// [`CountingEngine::execute_workload`] on the workload that was linted
    /// at construction. If the verdict denies, no query executes: every
    /// answer is refused and each refusal lands in the audit trail, so
    /// the trail names which queries triggered the veto rather than a
    /// single blanket entry. (The trail honors the auditor's cap; the
    /// refusal *counter* still counts every offending index.)
    pub fn execute(&mut self) -> WorkloadAnswers {
        let span = so_obs::span("gate.execute");
        match Admission::new(None).decide(&self.workload, &self.report, 0) {
            Ok(_) => {
                let out = self.engine.execute_workload(&self.workload);
                if so_obs::enabled() {
                    span.finish_with(&[
                        ("verdict", "admitted".to_owned()),
                        ("queries", out.answers.len().to_string()),
                    ]);
                }
                out
            }
            Err(refusals) => {
                admission::audit(self.engine.auditor_mut(), &self.workload, &refusals);
                if so_obs::enabled() {
                    span.finish_with(&[
                        ("verdict", "refused".to_owned()),
                        ("offending", refusals.len().to_string()),
                    ]);
                }
                admission::refused_answers(self.workload.len())
            }
        }
    }

    /// Read access to the wrapped engine (auditor, cache statistics).
    pub fn engine(&self) -> &CountingEngine<'a> {
        &self.engine
    }

    /// Sets the wrapped engine's worker thread count for plan execution
    /// (see [`CountingEngine::set_threads`]). Sharded execution is
    /// bit-identical to serial, so the gate's verdict and the executed
    /// answers are unaffected — this only changes how fast an admitted
    /// workload runs.
    pub fn set_threads(&mut self, threads: usize) {
        self.engine.set_threads(threads);
    }

    /// Unwraps the engine, discarding the gate.
    pub fn into_inner(self) -> CountingEngine<'a> {
        self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Noise, QueryKind};
    use so_data::{AttributeDef, AttributeRole, DataType, Dataset, DatasetBuilder, Schema, Value};
    use so_query::audit::QueryAuditor;
    use so_query::engine::WorkloadAnswer;
    use so_query::predicate::{
        AllRowPredicate, IntRangePredicate, KeyedHashPredicate, NotRowPredicate, RowHashPredicate,
    };

    fn ds(n: usize) -> Dataset {
        let schema = Schema::new(vec![AttributeDef::new(
            "age",
            DataType::Int,
            AttributeRole::QuasiIdentifier,
        )]);
        let mut b = DatasetBuilder::new(schema);
        for i in 0..n {
            b.push_row(vec![Value::Int((i % 90) as i64)]);
        }
        b.finish()
    }

    /// The hash-tracker differencing pair: `A`, `A ∧ ¬H`.
    fn tracker_pair() -> (AllRowPredicate, AllRowPredicate) {
        let range = IntRangePredicate {
            col: 0,
            lo: 0,
            hi: 1000,
        };
        let hash = RowHashPredicate {
            hash: KeyedHashPredicate::new(0xBEEF, 256, 0),
            cols: vec![0],
        };
        let a = AllRowPredicate {
            parts: vec![Box::new(range)],
        };
        let b = AllRowPredicate {
            parts: vec![
                Box::new(range),
                Box::new(NotRowPredicate {
                    inner: Box::new(hash),
                }),
            ],
        };
        (a, b)
    }

    fn tracker_workload(n_rows: usize, noise: Noise) -> WorkloadSpec {
        let (a, b) = tracker_pair();
        let mut w = WorkloadSpec::new(n_rows);
        w.push_predicate(&a, noise);
        w.push_predicate(&b, noise);
        w
    }

    #[test]
    fn flagged_workload_is_refused_before_any_answer() {
        let data = ds(100);
        let w = tracker_workload(data.n_rows(), Noise::Exact);
        let mut gated =
            GatedEngine::new(CountingEngine::new(&data, None), w, &LintConfig::default());
        assert!(!gated.is_open());
        let out = gated.execute();
        assert_eq!(
            out.answers,
            vec![WorkloadAnswer::Refused, WorkloadAnswer::Refused]
        );
        let auditor = gated.engine().auditor();
        assert_eq!(auditor.queries_answered(), 0, "no query was ever answered");
        // One refusal per offending query index, not one blanket entry.
        assert_eq!(auditor.queries_refused(), 2);
        let trail: Vec<_> = auditor.trail().collect();
        assert_eq!(trail.len(), 2);
        assert!(trail.iter().all(|r| !r.admitted));
        let diff = crate::lint::LintId::Differencing.code();
        assert!(
            trail[0]
                .description
                .starts_with(&format!("[gate: {diff}] query #0:")),
            "citable reason names the query: {}",
            trail[0].description
        );
        assert!(
            trail[1]
                .description
                .starts_with(&format!("[gate: {diff}] query #1:")),
            "second offending index recorded: {}",
            trail[1].description
        );
        // Structured diagnostics ride after the prefix: the differencing
        // finding's evidence (chain + residue bound) is in the entry.
        assert!(
            trail[0].description.contains("chain=[0, 1]"),
            "evidence payload in the trail: {}",
            trail[0].description
        );
        assert!(
            trail[0].description.contains("width≤"),
            "residue bound in the trail: {}",
            trail[0].description
        );
    }

    /// The per-index refusal trail honors the auditor's trail cap while the
    /// refusal counter still counts every offending index.
    #[test]
    fn per_index_refusals_are_bounded_by_the_trail_cap() {
        let data = ds(100);
        let w = tracker_workload(data.n_rows(), Noise::Exact);
        let auditor = QueryAuditor::with_trail_cap(None, 1);
        let mut gated = GatedEngine::new(
            CountingEngine::with_auditor(&data, auditor),
            w,
            &LintConfig::default(),
        );
        let out = gated.execute();
        assert_eq!(out.answers.len(), 2);
        let auditor = gated.engine().auditor();
        assert_eq!(auditor.queries_refused(), 2, "counter sees both indices");
        assert_eq!(auditor.trail_len(), 1, "trail keeps only the newest");
        let trail: Vec<_> = auditor.trail().collect();
        assert!(
            trail[0].description.contains("query #1"),
            "cap evicts oldest first: {}",
            trail[0].description
        );
        // The longer evidence-bearing entries still honor the cap bound:
        // trail_len + dropped == seen, regardless of entry size.
        assert!(
            trail[0].description.contains("chain="),
            "evidence survives the cap: {}",
            trail[0].description
        );
    }

    /// SO-RECON's density verdict flags no single query; the gate still
    /// cites it in the trail, as a workload-level entry that counts no
    /// query as refused.
    #[test]
    fn workload_level_refusal_reaches_the_trail() {
        use rand::Rng;
        let n = 24;
        let data = ds(n);
        let mut rng = so_data::rng::seeded_rng(11);
        let mut w = WorkloadSpec::new(n);
        for _ in 0..4 * n {
            let mut members = so_data::BitVec::zeros(n);
            for i in 0..n {
                members.set(i, rng.gen::<bool>());
            }
            w.push_subset(&so_plan::SubsetQuery::new(members), Noise::Exact);
        }
        let mut gated =
            GatedEngine::new(CountingEngine::new(&data, None), w, &LintConfig::default());
        gated.execute();
        let auditor = gated.engine().auditor();
        let per_query = auditor
            .trail()
            .filter(|r| r.description.contains("] query #"))
            .count();
        assert!(per_query > 0);
        assert_eq!(auditor.queries_refused(), per_query);
        let workload: Vec<_> = auditor
            .trail()
            .filter(|r| r.description.contains("] workload:"))
            .collect();
        assert_eq!(workload.len(), 1, "one workload-level entry");
        assert_eq!(workload[0].seq, auditor.queries_seen() - 1, "it comes last");
        let line = &workload[0].description;
        assert!(line.starts_with("[gate: SO-RECON] workload: ["), "{line}");
        assert!(line.contains("LP-decoding"), "{line}");
    }

    #[test]
    fn clean_workload_flows_through() {
        let data = ds(100);
        let young = IntRangePredicate {
            col: 0,
            lo: 0,
            hi: 39,
        };
        let old = IntRangePredicate {
            col: 0,
            lo: 40,
            hi: 200,
        };
        let mut w = WorkloadSpec::new(data.n_rows());
        w.push_predicate(&young, Noise::Exact);
        w.push_predicate(&old, Noise::Exact);
        let mut gated =
            GatedEngine::new(CountingEngine::new(&data, None), w, &LintConfig::default());
        assert!(gated.is_open());
        assert_eq!(gated.report().verdict(), "PASS");
        let out = gated.execute();
        let total: usize = out
            .answers
            .iter()
            .map(|a| match a {
                WorkloadAnswer::Count(c) => *c,
                other => panic!("expected a count, got {other:?}"),
            })
            .sum();
        assert_eq!(total, data.n_rows());
        assert_eq!(gated.engine().auditor().queries_answered(), 2);
        assert_eq!(gated.engine().auditor().queries_refused(), 0);
    }

    /// The acceptance criterion of the one-pipeline refactor: the gate
    /// executes the *identical* plan it linted. Every executed target in the
    /// engine's pool carries the same stable structural hash as the declared
    /// expression in the linted workload's pool.
    #[test]
    fn gate_executes_the_same_plan_it_linted() {
        let data = ds(100);
        let w = tracker_workload(data.n_rows(), Noise::PureDp { epsilon: 0.1 });
        let mut gated =
            GatedEngine::new(CountingEngine::new(&data, None), w, &LintConfig::default());
        assert!(gated.is_open(), "{:?}", gated.report().findings);
        let out = gated.execute();
        assert_eq!(out.answers.len(), 2);
        let spec_hashes: Vec<u64> = gated
            .workload()
            .queries()
            .iter()
            .map(|q| match &q.kind {
                QueryKind::Pred(id) => gated.workload().pool().structural_hash(*id),
                _ => unreachable!(),
            })
            .collect();
        let executed_hashes: Vec<u64> = out
            .targets
            .iter()
            .map(|t| gated.engine().pool().structural_hash(t.unwrap()))
            .collect();
        assert_eq!(
            spec_hashes, executed_hashes,
            "the executed expressions are the linted expressions"
        );
    }

    #[test]
    fn same_pair_under_dp_noise_is_admitted() {
        let data = ds(100);
        let w = tracker_workload(data.n_rows(), Noise::PureDp { epsilon: 0.1 });
        let gated = GatedEngine::new(CountingEngine::new(&data, None), w, &LintConfig::default());
        assert!(gated.is_open(), "{:?}", gated.report().findings);
    }
}
