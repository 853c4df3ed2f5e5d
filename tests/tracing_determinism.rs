//! Enabling tracing must not perturb any transcript-feeding value.
//!
//! The determinism gate diffs traced vs untraced experiment stdout in CI;
//! this test pins the same invariant in-process: run a workload (and a DP
//! release sequence) untraced, install a recording subscriber — tracing is
//! process-global, so this file holds only this one test — rerun, and
//! require bit-identical answers and stats while the subscriber did observe
//! spans.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use singling_out::data::rng::seeded_rng;
use singling_out::data::{
    AttributeDef, AttributeRole, DataType, Dataset, DatasetBuilder, Schema, Value, VersionedDataset,
};
use singling_out::dp::LaplaceCount;
use singling_out::obs::{Field, TraceSubscriber};
use singling_out::plan::{Noise, WorkloadSpec};
use singling_out::query::predicate::{IntRangePredicate, ValueEqualsPredicate};
use singling_out::query::{CountingEngine, WorkloadAnswers};

/// Counts spans/events without touching their payloads.
#[derive(Debug, Default)]
struct CountingSubscriber {
    spans: Arc<AtomicUsize>,
}

impl TraceSubscriber for CountingSubscriber {
    fn on_span(&self, _name: &str, _micros: u64, _fields: &[Field]) {
        self.spans.fetch_add(1, Ordering::Relaxed);
    }
    fn on_event(&self, _name: &str, _fields: &[Field]) {
        self.spans.fetch_add(1, Ordering::Relaxed);
    }
    fn flush(&self) {}
}

fn dataset(n: usize) -> Dataset {
    let schema = Schema::new(vec![
        AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("dept", DataType::Int, AttributeRole::QuasiIdentifier),
    ]);
    let mut b = DatasetBuilder::new(schema);
    for i in 0..n {
        b.push_row(vec![
            Value::Int((i * 37 % 90) as i64),
            Value::Int((i % 5) as i64),
        ]);
    }
    b.finish()
}

fn workload(n_rows: usize) -> WorkloadSpec {
    let mut w = WorkloadSpec::new(n_rows);
    for d in 0..5i64 {
        w.push_predicate(
            &ValueEqualsPredicate {
                col: 1,
                value: Value::Int(d),
            },
            Noise::Exact,
        );
        w.push_predicate(
            &IntRangePredicate {
                col: 0,
                lo: d * 10,
                hi: d * 10 + 20,
            },
            Noise::Exact,
        );
    }
    w
}

fn run_once(ds: &Dataset, spec: &WorkloadSpec) -> (WorkloadAnswers, Vec<f64>) {
    let mut engine = CountingEngine::new(VersionedDataset::new(ds.clone()), None);
    let answers = engine.execute_workload(spec);
    let mech = LaplaceCount::new(0.5);
    let mut rng = seeded_rng(0xDE7E);
    let releases: Vec<f64> = (0..16).map(|i| mech.release(100 + i, &mut rng)).collect();
    (answers, releases)
}

#[test]
fn tracing_does_not_perturb_transcript_values() {
    let ds = dataset(1_037); // off the 64-row word boundary on purpose
    let spec = workload(ds.n_rows());

    assert!(!singling_out::obs::enabled(), "must start untraced");
    let (untraced, untraced_noise) = run_once(&ds, &spec);

    let spans = Arc::new(AtomicUsize::new(0));
    let installed = singling_out::obs::set_subscriber(Box::new(CountingSubscriber {
        spans: Arc::clone(&spans),
    }));
    assert!(installed, "no other subscriber may exist in this process");
    assert!(singling_out::obs::enabled());

    let (traced, traced_noise) = run_once(&ds, &spec);
    assert_eq!(traced.answers, untraced.answers, "answers perturbed");
    assert_eq!(traced.stats, untraced.stats, "plan stats perturbed");
    assert_eq!(traced_noise, untraced_noise, "noise stream perturbed");
    assert!(
        spans.load(Ordering::Relaxed) > 0,
        "subscriber saw no spans — tracing was not actually exercised"
    );
}
