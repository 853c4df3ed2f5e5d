//! Workload gatekeeper: refuse attack-shaped workloads before execution.
//!
//! ```text
//! cargo run --release --example workload_gatekeeper
//! ```
//!
//! The `analyze` subsystem treats singling-out risk as a property of the
//! *query workload*: the differencing tracker of Theorem 1.1, the
//! Dinur–Nissim reconstruction regimes, and the prefix-descent composition
//! attack of Theorem 2.8 are all recognizable statically, before a single
//! count is released. This example lints three declared workloads and then
//! puts a `CountingEngine` behind the verdict.

use singling_out::analyze::{
    lint_workload_default, IncrementalGate, LintConfig, Noise, WorkloadSpec,
};
use singling_out::data::{
    AttributeDef, AttributeRole, DataType, Dataset, DatasetBuilder, Schema, Value, VersionedDataset,
};
use singling_out::query::predicate::{
    AllRowPredicate, IntRangePredicate, KeyedHashPredicate, NotRowPredicate, RowHashPredicate,
    RowPredicate, ValueEqualsPredicate,
};
use singling_out::query::CountingEngine;

fn hospital(n: usize) -> Dataset {
    let schema = Schema::new(vec![
        AttributeDef::new("age", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("ward", DataType::Int, AttributeRole::QuasiIdentifier),
    ]);
    let mut b = DatasetBuilder::new(schema);
    for i in 0..n {
        b.push_row(vec![
            Value::Int(20 + (i * 7 % 60) as i64),
            Value::Int((i % 4) as i64),
        ]);
    }
    b.finish()
}

fn main() {
    let data = hospital(500);
    println!(
        "== static workload analysis ({} records) ==\n",
        data.n_rows()
    );

    // 1. An honest cross-tab: ward counts. Passes every lint.
    let mut honest = WorkloadSpec::new(data.n_rows());
    let wards: Vec<ValueEqualsPredicate> = (0..4)
        .map(|w| ValueEqualsPredicate {
            col: 1,
            value: Value::Int(w),
        })
        .collect();
    for p in &wards {
        honest.push_predicate(p, Noise::Exact);
    }
    let report = lint_workload_default(&mut honest);
    println!("1. ward cross-tab          -> {}", report.verdict());

    // 2. The differencing tracker: `A` and `A ∧ ¬H` for a keyed-hash residue
    //    H of design weight 1/256 — the pair of exact answers isolates the
    //    expected ≤ 2 matching rows (Theorem 1.1's premise with m = 2).
    let all = AllRowPredicate {
        parts: vec![Box::new(IntRangePredicate {
            col: 0,
            lo: 0,
            hi: 200,
        })],
    };
    let tracked = AllRowPredicate {
        parts: vec![
            Box::new(IntRangePredicate {
                col: 0,
                lo: 0,
                hi: 200,
            }),
            Box::new(NotRowPredicate {
                inner: Box::new(RowHashPredicate {
                    hash: KeyedHashPredicate::new(0xDEED, 1024, 0),
                    cols: vec![0, 1],
                }),
            }),
        ],
    };
    let mut attack = WorkloadSpec::new(data.n_rows());
    attack.push_predicate(&all, Noise::Exact);
    attack.push_predicate(&tracked, Noise::Exact);
    let report = lint_workload_default(&mut attack);
    println!("2. differencing tracker    -> {}", report.verdict());
    for f in &report.findings {
        println!("   {f}");
    }

    // 3. Gatekeeper mode: the gate lints each workload it is handed, and
    //    `execute()` either refuses every query (one citable refusal per
    //    offending index in the audit trail) or runs the identical plan
    //    through the whole-workload planner.
    let mut attack = WorkloadSpec::new(data.n_rows());
    attack.push_predicate(&all, Noise::Exact);
    attack.push_predicate(&tracked, Noise::Exact);
    let mut gated = IncrementalGate::new(
        CountingEngine::new(VersionedDataset::new(data), None),
        LintConfig::default(),
    );
    let outcome = gated.execute(attack);
    let open = !gated.report().expect("a workload ran").denies();
    println!(
        "\n3. gatekeeper: gate is {}",
        if open { "open" } else { "closed" }
    );
    for (p, answer) in [&all as &dyn RowPredicate, &tracked]
        .into_iter()
        .zip(&outcome.answers)
    {
        println!("   {answer:<18?} {}", p.describe());
    }
    let auditor = gated.engine().auditor();
    println!(
        "   auditor: {} answered, {} refused",
        auditor.queries_answered(),
        auditor.queries_refused()
    );
    for rec in auditor.trail() {
        println!("   trail #{}: {}", rec.seq, rec.description);
    }
}
