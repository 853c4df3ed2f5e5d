//! Gatekeeper mode for the incremental engine: a persistent gate over a
//! mutable, versioned dataset.
//!
//! [`GatedEngine`](crate::gate::GatedEngine) lints one workload and owns one
//! immutable snapshot; an [`IncrementalGate`] instead *persists* across an
//! interleaving of mutations and workloads against one
//! [`IncrementalEngine`]. Admission itself is the shared
//! [`Admission`] path; what this gate adds is state that outlives one
//! workload:
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

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use so_data::{MutationEffect, Value};
use so_dp::ContinualAccountant;
use so_query::engine::WorkloadAnswers;
use so_query::incremental::IncrementalEngine;

use crate::admission::{self, Admission};
use crate::lint::{lint_workload, LintConfig, LintReport};
use crate::workload::{Noise, QueryKind, WorkloadSpec};

/// A persistent workload gate over an [`IncrementalEngine`], with lint
/// memoization and optional continual-release budget accounting.
pub struct IncrementalGate {
    engine: IncrementalEngine,
    cfg: LintConfig,
    admission: Admission,
    memo: HashMap<Vec<u8>, LintReport>,
    relints: usize,
    relints_skipped: usize,
}

impl IncrementalGate {
    /// Places `engine` behind the lint verdict of `cfg`, with no budget
    /// accounting (exact workloads admitted).
    pub fn new(engine: IncrementalEngine, cfg: LintConfig) -> Self {
        IncrementalGate {
            engine,
            cfg,
            admission: Admission::new(None),
            memo: HashMap::new(),
            relints: 0,
            relints_skipped: 0,
        }
    }

    /// Additionally enforces a continual-release ε budget: the accountant
    /// composes across every dataset version this gate serves.
    pub fn with_accountant(
        engine: IncrementalEngine,
        cfg: LintConfig,
        accountant: ContinualAccountant,
    ) -> Self {
        IncrementalGate {
            admission: Admission::new(Some(accountant)),
            ..Self::new(engine, cfg)
        }
    }

    /// The underlying incremental engine.
    pub fn engine(&self) -> &IncrementalEngine {
        &self.engine
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
    /// [`WorkloadAnswer::Refused`]; an admitted one executes through the
    /// incremental engine.
    ///
    /// [`WorkloadAnswer::Refused`]: so_query::engine::WorkloadAnswer::Refused
    pub fn execute(&mut self, mut workload: WorkloadSpec) -> WorkloadAnswers {
        let _span = so_obs::span("gate.incremental_execute");
        let report = match self.memo.entry(self.signature(&workload)) {
            Entry::Occupied(e) => {
                self.relints_skipped += 1;
                crate::obs::gate_metrics().relint_skipped.inc();
                e.into_mut()
            }
            Entry::Vacant(e) => {
                self.relints += 1;
                e.insert(lint_workload(&mut workload, &self.cfg))
            }
        };
        let version = self.engine.dataset().version();
        match self.admission.decide(&workload, report, version) {
            Ok(_) => self.engine.execute_workload(&workload),
            Err(refusals) => {
                admission::audit(self.engine.auditor_mut(), &workload, &refusals);
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
                    for w in mask.words() {
                        key.extend_from_slice(&w.to_le_bytes());
                    }
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
    use so_data::{
        AttributeDef, AttributeRole, DataType, Dataset, DatasetBuilder, Schema, StorageEngine,
        VersionedDataset,
    };
    use so_plan::shape::PredShape;
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
        b.finish_with_engine(StorageEngine::Packed)
    }

    fn engine(n: usize) -> IncrementalEngine {
        IncrementalEngine::new(
            VersionedDataset::with_compact_threshold(base(n), 1_000_000),
            None,
        )
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
    /// residue — the shape the differencing lint denies.
    fn tracker_workload(n_rows: usize) -> WorkloadSpec {
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
        spec.push_shape(&wide, Noise::Exact);
        spec.push_shape(&narrow, Noise::Exact);
        spec
    }

    #[test]
    fn memo_skips_relint_until_the_signature_changes() {
        let mut gate = IncrementalGate::new(engine(200), LintConfig::default());
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
        let mut gate = IncrementalGate::new(engine(100), LintConfig::default());
        let w1 = gate.execute(tracker_workload(100));
        let w2 = gate.execute(tracker_workload(100));
        assert!(w1.answers.iter().all(|a| *a == WorkloadAnswer::Refused));
        assert_eq!(w1.answers, w2.answers);
        assert_eq!(gate.relints_skipped(), 1);
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
