//! Gatekeeper mode: the lint verdict wired into the counting engine.
//!
//! An [`IncrementalGate`] places an owning [`CountingEngine`] behind the
//! static verdict of [`lint_workload`] and persists across an interleaving
//! of mutations and workloads. [`IncrementalGate::execute`] lints each
//! workload and passes the verdict through the shared [`Admission`] path,
//! which either
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
//! accurate answers to too many questions". Immutable data is a
//! one-segment [`VersionedDataset`] the gate never mutates. What the gate
//! keeps beyond one workload:
//!
//! * **Lint memoization.** Linting is a pure function of the lint-relevant
//!   workload signature — the queries' structural hashes, their noise
//!   annotations, and the row count. When the same workload shape arrives
//!   again over an unchanged signature (the common case in continual
//!   release: the analyst's dashboard re-asks the same shapes after every
//!   batch of mutations, and mutations that keep `n_rows` fixed don't move
//!   the lints' atom partition), the memoized verdict is reused and
//!   [`lint_workload`] is skipped entirely (`so_gate_relint_skipped_total`).
//!   Inserts and deletes change the live row count, which changes the
//!   signature, which forces a fresh lint — the "re-lint only when the
//!   lint-relevant partition changed" rule falls out of keying the memo on
//!   exactly the inputs the lint passes read.
//! * **Continual-release budget.** With a [`ContinualAccountant`] attached,
//!   ε composes *across dataset versions*: each workload is decided against
//!   the engine's current version, so the accountant charges (and, with a
//!   window, ages out) expenditure per version. The `SO-CBUDGET` refusals
//!   themselves are [`Admission::decide`]'s.
//!
//! [`WorkloadAnswer::Refused`]: so_query::engine::WorkloadAnswer::Refused
//! [`Refusal::audit_line`]: crate::admission::Refusal::audit_line

use std::collections::HashMap;

use so_data::{MutationEffect, Value, VersionedDataset};
use so_dp::ContinualAccountant;
use so_plan::workload::{Noise, QueryKind, WorkloadSpec};
use so_query::engine::{CountingEngine, WorkloadAnswers};

use crate::admission::{self, Admission};
use crate::lint::{lint_workload, LintConfig, LintReport};

/// A persistent workload gate over an owning [`CountingEngine`], with lint
/// memoization and optional continual-release budget accounting.
///
/// Queries are only ever executed when the verdict admits them. The
/// engine's auditor sees every attempt: admitted queries through the normal
/// path, gated refusals as [`Refusal::audit_line`] entries naming the lint
/// code.
///
/// [`Refusal::audit_line`]: crate::admission::Refusal::audit_line
pub struct IncrementalGate {
    engine: CountingEngine<VersionedDataset>,
    cfg: LintConfig,
    admission: Admission,
    memo: HashMap<Vec<u8>, LintReport>,
    /// The memo key of the most recent workload's verdict.
    last: Option<Vec<u8>>,
    relints: usize,
    relints_skipped: usize,
}

impl IncrementalGate {
    /// Places `engine` behind the lint verdict of `cfg`, with no budget
    /// accounting (exact workloads admitted).
    pub fn new(engine: CountingEngine<VersionedDataset>, cfg: LintConfig) -> Self {
        IncrementalGate {
            engine,
            cfg,
            admission: Admission::new(None),
            memo: HashMap::new(),
            last: None,
            relints: 0,
            relints_skipped: 0,
        }
    }

    /// Additionally enforces a continual-release ε budget: the accountant
    /// composes across every dataset version this gate serves.
    pub fn with_accountant(
        engine: CountingEngine<VersionedDataset>,
        cfg: LintConfig,
        accountant: ContinualAccountant,
    ) -> Self {
        IncrementalGate {
            admission: Admission::new(Some(accountant)),
            ..Self::new(engine, cfg)
        }
    }

    /// Read access to the gated engine (dataset, auditor, cache
    /// statistics).
    pub fn engine(&self) -> &CountingEngine<VersionedDataset> {
        &self.engine
    }

    /// The lint report behind the most recent verdict (`None` before the
    /// first workload).
    pub fn report(&self) -> Option<&LintReport> {
        self.last.as_ref().and_then(|key| self.memo.get(key))
    }

    /// The continual accountant, if budget accounting is on.
    pub fn accountant(&self) -> Option<&ContinualAccountant> {
        self.admission.accountant()
    }

    /// Fresh [`lint_workload`] runs this gate has performed.
    pub fn relints(&self) -> usize {
        self.relints
    }

    /// Workloads whose verdict was served from the memo.
    pub fn relints_skipped(&self) -> usize {
        self.relints_skipped
    }

    /// Inserts rows through the gated engine (audited version bump).
    pub fn insert_rows(&mut self, rows: &[Vec<Value>]) -> MutationEffect {
        self.engine.insert_rows(rows)
    }

    /// Tombstones live rows through the gated engine (audited version
    /// bump).
    pub fn delete_live(&mut self, live: &[usize]) -> MutationEffect {
        self.engine.delete_live(live)
    }

    /// Lints (or recalls the memoized verdict for) `workload` and decides
    /// it against the engine's current version. A refused workload leaves
    /// one audit-trail entry per refusal and every answer
    /// [`WorkloadAnswer::Refused`], so the trail names which queries
    /// triggered the veto rather than a single blanket entry (the trail
    /// honors the auditor's cap; the refusal *counter* still counts every
    /// offending index). An admitted one executes through the engine.
    ///
    /// [`WorkloadAnswer::Refused`]: so_query::engine::WorkloadAnswer::Refused
    pub fn execute(&mut self, mut workload: WorkloadSpec) -> WorkloadAnswers {
        let span = so_obs::span("gate.execute");
        let key = self.signature(&workload);
        if self.memo.contains_key(&key) {
            self.relints_skipped += 1;
            crate::obs::gate_metrics().relint_skipped.inc();
        } else {
            self.relints += 1;
            let report = lint_workload(&mut workload, &self.cfg);
            self.memo.insert(key.clone(), report);
        }
        let report = &self.memo[&key];
        let version = self.engine.dataset().version();
        let decision = self.admission.decide(&workload, report, version);
        self.last = Some(key);
        match decision {
            Ok(_) => {
                let out = self.engine.execute_workload(&workload);
                if so_obs::enabled() {
                    span.finish_with(&[
                        ("verdict", "admitted".to_owned()),
                        ("queries", out.answers.len().to_string()),
                    ]);
                }
                out
            }
            Err(refusals) => {
                admission::audit(self.engine.auditor_mut(), &workload, &refusals);
                if so_obs::enabled() {
                    span.finish_with(&[
                        ("verdict", "refused".to_owned()),
                        ("offending", refusals.len().to_string()),
                    ]);
                }
                admission::refused_answers(workload.len())
            }
        }
    }

    /// The lint-relevant signature: row count, then per query the kind
    /// (subset mask words or target structural hash) and the noise
    /// annotation. Two workloads with equal signatures produce equal lint
    /// reports, because the lint passes read nothing else.
    fn signature(&self, workload: &WorkloadSpec) -> Vec<u8> {
        let mut key = Vec::with_capacity(16 + workload.len() * 17);
        key.extend_from_slice(&(workload.n_rows() as u64).to_le_bytes());
        for q in workload.queries() {
            match &q.kind {
                QueryKind::Pred(id) => {
                    key.push(1);
                    key.extend_from_slice(&workload.pool().structural_hash(*id).to_le_bytes());
                }
                QueryKind::Subset(mask) => {
                    key.push(2);
                    key.extend_from_slice(&(mask.len() as u64).to_le_bytes());
                    key.extend_from_slice(&mask.to_le_bytes());
                }
            }
            match q.noise {
                Noise::Exact => key.push(10),
                Noise::Bounded { alpha } => {
                    key.push(11);
                    key.extend_from_slice(&alpha.to_bits().to_le_bytes());
                }
                Noise::PureDp { epsilon } => {
                    key.push(12);
                    key.extend_from_slice(&epsilon.to_bits().to_le_bytes());
                }
            }
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_data::{AttributeDef, AttributeRole, DataType, Dataset, DatasetBuilder, Schema};
    use so_plan::shape::PredShape;
    use so_query::audit::QueryAuditor;
    use so_query::engine::WorkloadAnswer;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
            AttributeDef::new("score", DataType::Int, AttributeRole::Sensitive),
        ])
    }

    fn base(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new(schema());
        for i in 0..n {
            b.push_row(vec![
                Value::Int((i % 90) as i64),
                Value::Int((i % 25) as i64),
            ]);
        }
        b.finish()
    }

    fn engine(n: usize) -> CountingEngine<VersionedDataset> {
        CountingEngine::new(
            VersionedDataset::with_compact_threshold(base(n), 1_000_000),
            None,
        )
    }

    fn gate(n: usize) -> IncrementalGate {
        IncrementalGate::new(engine(n), LintConfig::default())
    }

    fn benign_workload(n_rows: usize, noise: Noise) -> WorkloadSpec {
        let mut spec = WorkloadSpec::new(n_rows);
        spec.push_shape(
            &PredShape::IntRange {
                col: 0,
                lo: 10,
                hi: 40,
            },
            noise,
        );
        spec.push_shape(
            &PredShape::ValueEquals {
                col: 1,
                value: Value::Int(3),
            },
            noise,
        );
        spec
    }

    /// The hash-tracker differencing pair `A`, `A ∧ ¬H` with a 1/256
    /// residue — the shape the differencing lint denies when exact.
    fn tracker_workload(n_rows: usize, noise: Noise) -> WorkloadSpec {
        let mut spec = WorkloadSpec::new(n_rows);
        let wide = PredShape::IntRange {
            col: 0,
            lo: 0,
            hi: 1000,
        };
        let narrow = PredShape::And(vec![
            wide.clone(),
            PredShape::Not(Box::new(PredShape::RowHash {
                key: 0xBEEF,
                modulus: 256,
                target: 0,
                cols: vec![0],
            })),
        ]);
        spec.push_shape(&wide, noise);
        spec.push_shape(&narrow, noise);
        spec
    }

    #[test]
    fn flagged_workload_is_refused_before_any_answer() {
        let mut gate = gate(100);
        assert!(gate.report().is_none(), "no verdict before a workload");
        let out = gate.execute(tracker_workload(100, Noise::Exact));
        assert!(gate.report().unwrap().denies());
        assert_eq!(
            out.answers,
            vec![WorkloadAnswer::Refused, WorkloadAnswer::Refused]
        );
        let auditor = gate.engine().auditor();
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
        let data = VersionedDataset::with_compact_threshold(base(100), 1_000_000);
        let auditor = QueryAuditor::with_trail_cap(None, 1);
        let mut gate = IncrementalGate::new(
            CountingEngine::with_auditor(data, auditor),
            LintConfig::default(),
        );
        let out = gate.execute(tracker_workload(100, Noise::Exact));
        assert_eq!(out.answers.len(), 2);
        let auditor = gate.engine().auditor();
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
        let mut rng = so_data::rng::seeded_rng(11);
        let mut w = WorkloadSpec::new(n);
        for _ in 0..4 * n {
            let mut members = so_data::BitVec::zeros(n);
            for i in 0..n {
                members.set(i, rng.gen::<bool>());
            }
            w.push_subset(&so_plan::SubsetQuery::new(members), Noise::Exact);
        }
        let mut gate = gate(n);
        gate.execute(w);
        let auditor = gate.engine().auditor();
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
        let mut gate = gate(100);
        let mut w = WorkloadSpec::new(100);
        for (lo, hi) in [(0, 39), (40, 200)] {
            w.push_shape(&PredShape::IntRange { col: 0, lo, hi }, Noise::Exact);
        }
        let out = gate.execute(w);
        assert!(!gate.report().unwrap().denies());
        assert_eq!(gate.report().unwrap().verdict(), "PASS");
        let total: usize = out
            .answers
            .iter()
            .map(|a| match a {
                WorkloadAnswer::Count(c) => *c,
                other => panic!("expected a count, got {other:?}"),
            })
            .sum();
        assert_eq!(total, 100);
        assert_eq!(gate.engine().auditor().queries_answered(), 2);
        assert_eq!(gate.engine().auditor().queries_refused(), 0);
    }

    /// The gate executes the *identical* plan it linted. Every executed
    /// target in the engine's pool carries the same stable structural hash
    /// as the declared expression in the linted workload's pool.
    #[test]
    fn gate_executes_the_same_plan_it_linted() {
        let noise = Noise::PureDp { epsilon: 0.1 };
        let mut gate = gate(100);
        let out = gate.execute(tracker_workload(100, noise));
        assert!(!gate.report().unwrap().denies());
        assert_eq!(out.answers.len(), 2);
        let mut linted = tracker_workload(100, noise);
        lint_workload(&mut linted, &LintConfig::default());
        let spec_hashes: Vec<u64> = linted
            .queries()
            .iter()
            .map(|q| match &q.kind {
                QueryKind::Pred(id) => linted.pool().structural_hash(*id),
                _ => unreachable!(),
            })
            .collect();
        let executed_hashes: Vec<u64> = out
            .targets
            .iter()
            .map(|t| gate.engine().pool().structural_hash(t.unwrap()))
            .collect();
        assert_eq!(
            spec_hashes, executed_hashes,
            "the executed expressions are the linted expressions"
        );
    }

    #[test]
    fn memo_skips_relint_until_the_signature_changes() {
        let mut gate = gate(200);
        let w = gate.execute(benign_workload(200, Noise::Exact));
        assert!(w
            .answers
            .iter()
            .all(|a| matches!(a, WorkloadAnswer::Count(_))));
        assert_eq!((gate.relints(), gate.relints_skipped()), (1, 0));

        // Same shapes, same n_rows: memo hit.
        let w2 = gate.execute(benign_workload(200, Noise::Exact));
        assert_eq!(w.answers, w2.answers);
        assert_eq!((gate.relints(), gate.relints_skipped()), (1, 1));

        // A mutation changes the live count -> signature changes -> fresh
        // lint.
        gate.insert_rows(&[vec![Value::Int(20), Value::Int(3)]]);
        let n = gate.engine().dataset().n_live();
        gate.execute(benign_workload(n, Noise::Exact));
        assert_eq!((gate.relints(), gate.relints_skipped()), (2, 1));

        // Different noise on the same shapes is lint-relevant too.
        gate.execute(benign_workload(n, Noise::Bounded { alpha: 8.0 }));
        assert_eq!((gate.relints(), gate.relints_skipped()), (3, 1));

        // And the original signature still hits.
        gate.execute(benign_workload(n, Noise::Exact));
        assert_eq!((gate.relints(), gate.relints_skipped()), (3, 2));
    }

    #[test]
    fn memoized_verdicts_still_refuse() {
        let mut gate = gate(100);
        let w1 = gate.execute(tracker_workload(100, Noise::Exact));
        let w2 = gate.execute(tracker_workload(100, Noise::Exact));
        assert!(w1.answers.iter().all(|a| *a == WorkloadAnswer::Refused));
        assert_eq!(w1.answers, w2.answers);
        assert_eq!(gate.relints_skipped(), 1);
        assert!(gate.report().unwrap().denies(), "the memoized report");
        let refusals = gate
            .engine()
            .auditor()
            .trail()
            .filter(|r| r.description.starts_with("[gate: "))
            .count();
        assert!(refusals >= 2, "both executions left refusal entries");
    }

    #[test]
    fn continual_budget_composes_across_versions_and_refuses() {
        let acct = ContinualAccountant::new(1.0);
        let mut gate = IncrementalGate::with_accountant(engine(150), LintConfig::default(), acct);
        let noise = Noise::PureDp { epsilon: 0.2 };

        // Workload of 2 x eps=0.2: fits (0.4 spent).
        let n = gate.engine().dataset().n_live();
        let w1 = gate.execute(benign_workload(n, noise));
        assert!(w1
            .answers
            .iter()
            .all(|a| matches!(a, WorkloadAnswer::Count(_))));

        // Mutate: new version, budget carries over.
        gate.insert_rows(&[vec![Value::Int(20), Value::Int(3)]]);
        let n = gate.engine().dataset().n_live();
        let w2 = gate.execute(benign_workload(n, noise));
        assert!(w2
            .answers
            .iter()
            .all(|a| matches!(a, WorkloadAnswer::Count(_))));
        let spent = gate.accountant().unwrap().spent();
        assert!((spent - 0.8).abs() < 1e-12, "0.8 across two versions");

        // Third workload would reach 1.2 > 1.0: refused whole.
        gate.insert_rows(&[vec![Value::Int(21), Value::Int(4)]]);
        let n = gate.engine().dataset().n_live();
        let w3 = gate.execute(benign_workload(n, noise));
        assert!(w3.answers.iter().all(|a| *a == WorkloadAnswer::Refused));
        let spent = gate.accountant().unwrap().spent();
        assert!((spent - 0.8).abs() < 1e-12, "refusal spends nothing");
        let cbudget_entries = gate
            .engine()
            .auditor()
            .trail()
            .filter(|r| r.description.contains("[gate: SO-CBUDGET]"))
            .count();
        assert_eq!(cbudget_entries, 2, "one refusal entry per query");
        assert_eq!(gate.accountant().unwrap().version(), 2);
    }

    #[test]
    fn non_dp_queries_are_refused_under_an_accountant() {
        let acct = ContinualAccountant::new(10.0);
        let mut gate = IncrementalGate::with_accountant(engine(100), LintConfig::default(), acct);
        let w = gate.execute(benign_workload(100, Noise::Exact));
        assert!(w.answers.iter().all(|a| *a == WorkloadAnswer::Refused));
        let entry = gate
            .engine()
            .auditor()
            .trail()
            .find(|r| r.description.contains("non-DP release"))
            .expect("refusal entry names the cause");
        assert!(entry.description.starts_with("[gate: SO-CBUDGET]"));
        assert!(
            gate.accountant().unwrap().spent() < 1e-12,
            "nothing spent on a refused workload"
        );
    }

    #[test]
    fn windowed_accountant_readmits_after_aging_out() {
        // Window of 1 version: each version gets the whole budget.
        let acct = ContinualAccountant::with_window(0.5, 1);
        let mut gate = IncrementalGate::with_accountant(engine(100), LintConfig::default(), acct);
        let noise = Noise::PureDp { epsilon: 0.2 };
        let n = gate.engine().dataset().n_live();
        let ok1 = gate.execute(benign_workload(n, noise));
        assert!(ok1
            .answers
            .iter()
            .all(|a| matches!(a, WorkloadAnswer::Count(_))));
        // Same version: a second 0.4 workload would exceed 0.5.
        let refused = gate.execute(benign_workload(n, noise));
        assert!(refused
            .answers
            .iter()
            .all(|a| *a == WorkloadAnswer::Refused));
        // New version: the old spend leaves the window.
        gate.insert_rows(&[vec![Value::Int(1), Value::Int(1)]]);
        let n = gate.engine().dataset().n_live();
        let ok2 = gate.execute(benign_workload(n, noise));
        assert!(ok2
            .answers
            .iter()
            .all(|a| matches!(a, WorkloadAnswer::Count(_))));
    }
}
