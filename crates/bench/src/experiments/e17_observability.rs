//! E17 — observability: the `so-obs` cost profile of an attack/defence run.
//!
//! The Cohen–Nissim LP attack in the paper ran against an *instrumented*
//! production system; this experiment demonstrates the workspace's own
//! runtime ledger. Three phases replay representative workloads — the E2 LP
//! reconstruction, a tabular cross-tab served twice by the
//! [`CountingEngine`] (the replay makes the node cache visible), and a
//! Laplace release loop metered by a [`ContinualAccountant`] — while the cost
//! profile table cross-checks each engine's locally tallied statistics
//! against the deltas the run produced in the [`so_obs::global`] metrics
//! registry. In a single-process run every row matches exactly; under
//! `cargo test` the registry is shared with concurrently running tests, so
//! only the `local` column is asserted there.
//!
//! Wall-clock per-phase timings are reported in a separate table printed to
//! *stderr* (the timing channel, like `run_all`'s phase timings) so that
//! stdout stays byte-identical across runs; every cost-profile cell on
//! stdout is a deterministic count.

use std::time::Instant;

use so_data::rng::seeded_rng;
use so_data::{AttributeDef, AttributeRole, DataType, Dataset, DatasetBuilder, Schema, Value};
use so_dp::{ContinualAccountant, LaplaceCount};
use so_query::{BoundedNoiseSum, CountingEngine};
use so_recon::{lp_reconstruct, reconstruction_accuracy};

use crate::experiments::e16_workload_lint::honest_crosstab;
use crate::table::Table;
use crate::Scale;

/// A deterministic dept × sex dataset (same shape as the E16 gatekeeper
/// demo) for the replay phase.
fn crosstab_dataset(n: usize) -> Dataset {
    let schema = Schema::new(vec![
        AttributeDef::new("dept", DataType::Int, AttributeRole::QuasiIdentifier),
        AttributeDef::new("sex", DataType::Int, AttributeRole::QuasiIdentifier),
    ]);
    let mut b = DatasetBuilder::new(schema);
    for i in 0..n {
        b.push_row(vec![Value::Int((i % 5) as i64), Value::Int((i % 2) as i64)]);
    }
    b.finish()
}

/// Snapshot of the registry counters/gauges E17 cross-checks.
struct RegistrySnapshot {
    plan_queries: u64,
    plan_atom_scans: u64,
    plan_cache_hits: u64,
    plan_nodes: u64,
    lp_attacks: u64,
    lp_queries: u64,
    lp_iterations: u64,
    laplace_draws: u64,
    budget_refusals: u64,
    epsilon_spent: f64,
}

impl RegistrySnapshot {
    fn take() -> Self {
        let r = so_obs::global();
        let c = |name: &str| r.counter_value(name).unwrap_or(0);
        RegistrySnapshot {
            plan_queries: c("so_plan_queries_total"),
            plan_atom_scans: c("so_plan_atom_scans_total"),
            plan_cache_hits: c("so_plan_cache_hits_total"),
            plan_nodes: c("so_plan_nodes_evaluated_total"),
            lp_attacks: c("so_recon_lp_attacks_total"),
            lp_queries: c("so_recon_lp_queries_total"),
            lp_iterations: c("so_recon_lp_iterations_total"),
            laplace_draws: r
                .counter_value_with("so_dp_noise_draws_total", &[("dist", "laplace")])
                .unwrap_or(0),
            budget_refusals: c("so_dp_budget_refusals_total"),
            epsilon_spent: r.gauge_value("so_dp_epsilon_spent").unwrap_or(0.0),
        }
    }
}

fn profile_row(t: &mut Table, phase: &str, metric: &str, local: String, delta: String) {
    let matched = if local == delta { "yes" } else { "no" };
    t.row(vec![
        phase.to_owned(),
        metric.to_owned(),
        local,
        delta,
        matched.to_owned(),
    ]);
}

/// Runs E17.
pub fn run(scale: Scale) -> Vec<Table> {
    // Touch the metric handles up front so every delta below starts from a
    // registered metric (a cold registry would read as `None` → 0 anyway;
    // this just keeps the first snapshot honest about pre-run totals).
    so_plan::obs::plan_metrics();
    so_recon::recon_metrics();
    so_dp::dp_metrics();

    let mut profile = Table::new(
        "E17: observability cost profile — locally tallied stats vs so-obs registry deltas",
        &["phase", "metric", "local", "registry delta", "match"],
    );
    let mut timings = Table::new(
        "E17: per-phase wall-clock (stderr only — nondeterministic)",
        &["phase", "wall-clock ms"],
    );

    // ---- Phase 1: the E2 LP reconstruction, instrumented. -------------
    let n = scale.pick(32usize, 64);
    let m = 6 * n;
    let alpha = 0.5 * (n as f64).sqrt();
    let before = RegistrySnapshot::take();
    let t0 = Instant::now();
    let x = {
        use so_data::dist::RecordDistribution;
        so_data::UniformBits::new(n).sample(&mut seeded_rng(0xE17_01))
    };
    let mut mech = BoundedNoiseSum::new(x.clone(), alpha, seeded_rng(0xE17_02));
    let lp = lp_reconstruct(&mut mech, m, &mut seeded_rng(0xE17_03)).expect("LP decode");
    let lp_ms = t0.elapsed().as_secs_f64() * 1e3;
    let after = RegistrySnapshot::take();
    let accuracy = reconstruction_accuracy(&x, &lp.reconstruction);
    profile_row(
        &mut profile,
        "recon",
        "lp attacks",
        "1".to_owned(),
        (after.lp_attacks - before.lp_attacks).to_string(),
    );
    profile_row(
        &mut profile,
        "recon",
        "lp queries",
        lp.queries_issued.to_string(),
        (after.lp_queries - before.lp_queries).to_string(),
    );
    profile_row(
        &mut profile,
        "recon",
        "lp simplex iterations",
        lp.lp_iterations.to_string(),
        (after.lp_iterations - before.lp_iterations).to_string(),
    );
    timings.row(vec![
        format!("recon (n={n}, m={m}, accuracy={accuracy:.2})"),
        format!("{lp_ms:.1}"),
    ]);

    // ---- Phase 2: tabular cross-tab replayed through the engine. -------
    // The workload runs twice against one engine: the first pass scans and
    // populates the node cache, the replay is answered from it, so the
    // cache-hit row is structurally nonzero.
    let rows = scale.pick(2_000usize, 20_000);
    let ds = crosstab_dataset(rows);
    let (_preds, spec) = honest_crosstab(rows);
    let before = RegistrySnapshot::take();
    let t0 = Instant::now();
    let mut engine = CountingEngine::new(&ds, None);
    let first = engine.execute_workload(&spec);
    let replay = engine.execute_workload(&spec);
    let plan_ms = t0.elapsed().as_secs_f64() * 1e3;
    let after = RegistrySnapshot::take();
    assert_eq!(
        first.answers, replay.answers,
        "replay must be bit-identical"
    );
    // Local tally: the two per-workload `PlanStats` summed (the engine's own
    // cumulative `stats()` covers scans/nodes/hits but not `queries`, which
    // is a per-workload figure).
    let queries = first.stats.queries + replay.stats.queries;
    let atom_scans = first.stats.atom_scans + replay.stats.atom_scans;
    let cache_hits = first.stats.cache_hits + replay.stats.cache_hits;
    let nodes = first.stats.nodes_evaluated + replay.stats.nodes_evaluated;
    debug_assert_eq!(engine.stats().atom_scans, atom_scans);
    profile_row(
        &mut profile,
        "plan",
        "queries planned",
        queries.to_string(),
        (after.plan_queries - before.plan_queries).to_string(),
    );
    profile_row(
        &mut profile,
        "plan",
        "atom scans",
        atom_scans.to_string(),
        (after.plan_atom_scans - before.plan_atom_scans).to_string(),
    );
    profile_row(
        &mut profile,
        "plan",
        "cache hits",
        cache_hits.to_string(),
        (after.plan_cache_hits - before.plan_cache_hits).to_string(),
    );
    profile_row(
        &mut profile,
        "plan",
        "nodes evaluated",
        nodes.to_string(),
        (after.plan_nodes - before.plan_nodes).to_string(),
    );
    timings.row(vec![
        format!("plan (rows={rows}, workload x2 of {} queries)", spec.len()),
        format!("{plan_ms:.1}"),
    ]);

    // ---- Phase 3: Laplace releases metered by the accountant. ----------
    let releases = scale.pick(8usize, 16);
    let eps_each = 0.1;
    let budget = eps_each * releases as f64 / 2.0; // half get refused
    let mech = LaplaceCount::new(eps_each);
    let mut accountant = ContinualAccountant::new(budget);
    let mut rng = seeded_rng(0xE17_04);
    let before = RegistrySnapshot::take();
    let t0 = Instant::now();
    let mut released = 0usize;
    for i in 0..releases {
        if accountant.try_spend(eps_each) {
            let _ = mech.release(100 + i, &mut rng);
            released += 1;
        }
    }
    let dp_ms = t0.elapsed().as_secs_f64() * 1e3;
    let after = RegistrySnapshot::take();
    profile_row(
        &mut profile,
        "dp",
        "laplace draws",
        released.to_string(),
        (after.laplace_draws - before.laplace_draws).to_string(),
    );
    profile_row(
        &mut profile,
        "dp",
        "budget refusals",
        (releases - released).to_string(),
        (after.budget_refusals - before.budget_refusals).to_string(),
    );
    profile_row(
        &mut profile,
        "dp",
        "epsilon spent",
        format!("{:.3}", accountant.spent()),
        format!("{:.3}", after.epsilon_spent - before.epsilon_spent),
    );
    timings.row(vec![
        format!("dp ({released}/{releases} releases, eps={eps_each} each)"),
        format!("{dp_ms:.1}"),
    ]);

    // Timings are wall-clock and vary run to run; they go to stderr so the
    // stdout transcript stays byte-identical across invocations.
    eprintln!("{}", timings.render());

    vec![profile]
}

#[cfg(test)]
mod tests {
    use super::*;

    // Only the `local` column is asserted here: the global registry is
    // shared with every other test in this binary, so the delta column is
    // checked in the process-isolated `tests/e17_parity.rs` instead.
    #[test]
    fn quick_run_profiles_nonzero_costs() {
        let tables = run(Scale::Quick);
        let csv = tables[0].to_csv();
        let local = |metric: &str| -> f64 {
            csv.lines()
                .find(|l| l.contains(metric))
                .unwrap_or_else(|| panic!("missing row {metric}"))
                .split(',')
                .nth(2)
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(local("lp simplex iterations") > 0.0);
        assert!(local("atom scans") > 0.0);
        assert!(local("cache hits") > 0.0);
        assert!(local("epsilon spent") > 0.0);
        assert!(local("budget refusals") > 0.0);
        assert_eq!(tables.len(), 1, "timing table goes to stderr, not stdout");
    }
}
