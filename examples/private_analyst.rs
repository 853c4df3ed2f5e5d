//! A privacy-conscious analyst session: budgets, counts, SVT, and auditing.
//!
//! ```text
//! cargo run --release --example private_analyst
//! ```
//!
//! The flip side of the attack experiments: how an analyst actually works
//! with the DP substrate — opening a privacy budget, releasing noisy
//! counts, screening many hypotheses with the sparse vector technique, and
//! empirically auditing a mechanism's ε claim.

use rand::Rng;
use singling_out::data::rng::seeded_rng;
use singling_out::dp::{
    audit_dp_pair, ContinualAccountant, DpAuditConfig, LaplaceCount, SparseVector, SvtAnswer,
};

fn main() {
    let mut rng = seeded_rng(314);
    println!("== private analyst session ==\n");

    // A synthetic cohort: 1 000 patients, ~12% with the condition of
    // interest, plus 200 candidate risk factors of varying prevalence.
    let n = 1_000usize;
    let condition: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() < 0.12).collect();
    // Five genuinely common factors hidden among 200 candidates.
    let risk_factor_prevalence: Vec<f64> = (0..200)
        .map(|j| if j % 40 == 7 { 0.4 } else { 0.02 })
        .collect();

    // 1. Open a privacy budget and release the headline count.
    // The accountant keeps totals only; the session keeps its own labels.
    let mut accountant = ContinualAccountant::new(1.0);
    let mut ledger: Vec<(&str, f64)> = Vec::new();
    let count_mech = LaplaceCount::new(0.25);
    assert!(accountant.try_spend(0.25));
    ledger.push(("condition prevalence", 0.25));
    let true_count = condition.iter().filter(|&&b| b).count();
    let noisy = count_mech.release(true_count, &mut rng);
    println!(
        "1. prevalence count: true {true_count}, released {noisy:.1} \
         (ε = 0.25, remaining budget {:.2})",
        accountant.remaining()
    );

    // 2. Screen 200 risk factors for "affects ≥ 200 patients" with ONE
    //    sparse-vector session: total cost ε = 0.5 regardless of how many
    //    factors are screened.
    assert!(accountant.try_spend(0.5));
    ledger.push(("SVT risk-factor screen", 0.5));
    let mut svt = SparseVector::new(200.0, 0.5, 5, seeded_rng(315));
    let mut flagged = Vec::new();
    for (j, &p) in risk_factor_prevalence.iter().enumerate() {
        let affected = (p * n as f64).round();
        match svt.query(affected) {
            SvtAnswer::Above => flagged.push(j),
            SvtAnswer::Below => {}
            SvtAnswer::Halted => break,
        }
    }
    println!(
        "2. SVT screened {} factors for ε = 0.5 total, flagged {:?} \
         (truth: the common factors are 7, 47, 87, 127, 167)",
        svt.queries_answered(),
        flagged
    );

    // 3. Audit the counting mechanism's ε claim empirically before trusting
    //    it with the rest of the budget.
    let audit = audit_dp_pair(
        |&c: &usize, r: &mut rand::rngs::StdRng| count_mech.release(c, r),
        &50,
        &51,
        0.25,
        &DpAuditConfig::default(),
        &mut seeded_rng(316),
    );
    println!(
        "3. DP audit of the count mechanism: max observed log-ratio {:.3} vs \
         claimed ε = 0.25 over {} buckets → {}",
        audit.max_log_ratio,
        audit.buckets_checked,
        if audit.passed { "PASSED" } else { "FAILED" }
    );

    println!(
        "\nledger: {:?}\ntotal ε spent: {:.2}",
        ledger
            .iter()
            .map(|(l, e)| format!("{l} ({e})"))
            .collect::<Vec<_>>(),
        accountant.spent()
    );
}
