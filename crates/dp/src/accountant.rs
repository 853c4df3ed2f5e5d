//! Privacy-loss ("privacy budget") accounting.
//!
//! The paper: "The privacy loss parameter ε (also referred to as the
//! 'privacy budget') quantifies and bounds the excessive risk to an
//! individual... differential privacy is closed under composition, i.e., the
//! result of applying two or more differentially private analyses ...
//! preserves differential privacy (albeit with worse privacy loss parameter)."
//!
//! Two composition rules are implemented:
//!
//! * **basic composition** — `k` mechanisms at ε_i compose to `Σ ε_i`
//!   (pure ε-DP);
//! * **advanced composition** (Dwork–Rothblum–Vadhan) — `k` mechanisms at ε
//!   compose to `ε' = ε√(2k ln(1/δ')) + k ε (e^ε − 1)` with additional
//!   failure probability δ', trading a δ for a √k growth rate.
//!
//! [`ContinualAccountant`] is the one spendable budget. It serves one-shot
//! analyses (a version-0 accountant that never advances is a plain budget
//! ledger) and *continual release* over a mutable, versioned dataset: each
//! dataset version carries its own expenditure sub-ledger, and the budget
//! constrains the basic-composition sum either over every version ever
//! released against (the default — the paper's closure-under-composition
//! argument applies verbatim, since each release is a DP mechanism over a
//! neighbouring-dataset relation that spans versions) or over a sliding
//! window of the most recent `w` versions (the bounded-memory regime of the
//! continual-observation literature). It keeps per-version sums, not
//! per-spend labels, so its memory does not grow with the number of
//! releases.

use std::collections::BTreeMap;

/// Result of composing `k` ε-DP mechanisms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComposedLoss {
    /// Composite ε.
    pub epsilon: f64,
    /// Composite δ (0 for basic composition of pure DP).
    pub delta: f64,
}

/// Basic (linear) composition of pure ε-DP losses.
#[derive(Debug, Clone, Copy, Default)]
pub struct BasicComposition;

impl BasicComposition {
    /// Composes `k` copies of an ε-DP mechanism.
    pub fn compose_uniform(&self, epsilon: f64, k: usize) -> ComposedLoss {
        ComposedLoss {
            epsilon: epsilon * k as f64,
            delta: 0.0,
        }
    }

    /// Composes heterogeneous losses.
    pub fn compose(&self, epsilons: &[f64]) -> ComposedLoss {
        ComposedLoss {
            epsilon: epsilons.iter().sum(),
            delta: 0.0,
        }
    }
}

/// Advanced composition with slack δ'.
#[derive(Debug, Clone, Copy)]
pub struct AdvancedComposition {
    /// The failure-probability slack δ' spent on tighter ε accounting.
    pub delta_slack: f64,
}

impl AdvancedComposition {
    /// Creates the rule with slack `δ' ∈ (0, 1)`.
    ///
    /// # Panics
    /// Panics for δ' outside (0, 1).
    pub fn new(delta_slack: f64) -> Self {
        assert!(
            delta_slack > 0.0 && delta_slack < 1.0,
            "bad delta slack {delta_slack}"
        );
        AdvancedComposition { delta_slack }
    }

    /// Composes `k` copies of an ε-DP mechanism:
    /// `ε' = ε √(2k ln(1/δ')) + k ε (e^ε − 1)`, δ = δ'.
    pub fn compose_uniform(&self, epsilon: f64, k: usize) -> ComposedLoss {
        let k_f = k as f64;
        let eps = epsilon * (2.0 * k_f * (1.0 / self.delta_slack).ln()).sqrt()
            + k_f * epsilon * (epsilon.exp() - 1.0);
        ComposedLoss {
            epsilon: eps,
            delta: self.delta_slack,
        }
    }
}

/// Outcome of statically prechecking a workload of per-analysis ε costs
/// against an accountant, *before* anything is spent. This is the API the
/// `so-analyze` workload linter uses: a whole query workload is summed
/// under worst-case (basic) composition and either admitted or refused as a
/// unit, so refusal happens before a single answer is released.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetPrecheck {
    /// Worst-case total ε of the workload (basic composition).
    pub total: f64,
    /// Budget remaining in the accountant at precheck time.
    pub remaining: f64,
    /// True iff the whole workload fits in the remaining budget.
    pub admissible: bool,
    /// Index of the first analysis that would be refused, if any.
    pub first_refused: Option<usize>,
}

/// A continual-release privacy accountant: ε composes across dataset
/// versions (basic composition), with an optional sliding window.
///
/// The owner advances the accountant whenever the underlying dataset's
/// version bumps ([`ContinualAccountant::advance_to`]); expenditures charge
/// to the version current at spend time. With no window, the budget bounds
/// the lifetime sum over every version; with a window of `w` versions, it
/// bounds the sum over the `w` most recent versions (older expenditure
/// "ages out" — the neighbouring relation only protects rows through their
/// last `w` versions of releases).
#[derive(Debug, Clone)]
pub struct ContinualAccountant {
    budget: f64,
    window: Option<usize>,
    current_version: u64,
    per_version: BTreeMap<u64, f64>,
    lifetime: f64,
}

impl ContinualAccountant {
    /// Opens an accountant whose budget bounds the ε sum over *all* dataset
    /// versions.
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite budget.
    pub fn new(budget: f64) -> Self {
        assert!(budget > 0.0 && budget.is_finite(), "bad budget {budget}");
        ContinualAccountant {
            budget,
            window: None,
            current_version: 0,
            per_version: BTreeMap::new(),
            lifetime: 0.0,
        }
    }

    /// Opens an accountant whose budget bounds the ε sum over the `window`
    /// most recent dataset versions (the current version inclusive).
    ///
    /// # Panics
    /// Panics on a bad budget or a zero window.
    pub fn with_window(budget: f64, window: usize) -> Self {
        assert!(window >= 1, "window must cover at least one version");
        let mut a = Self::new(budget);
        a.window = Some(window);
        a
    }

    /// The dataset version expenditures currently charge to.
    pub fn version(&self) -> u64 {
        self.current_version
    }

    /// The sliding window in versions (`None` = lifetime accounting).
    pub fn window(&self) -> Option<usize> {
        self.window
    }

    /// Moves the accountant to dataset version `version` (idempotent for
    /// the current version). With a window, expenditure against versions
    /// that fell out of it stops counting toward the budget.
    ///
    /// # Panics
    /// Panics if `version` is older than the current version — continual
    /// release never rewinds.
    pub fn advance_to(&mut self, version: u64) {
        assert!(
            version >= self.current_version,
            "continual accountant cannot rewind from v{} to v{version}",
            self.current_version
        );
        self.current_version = version;
        if let Some(w) = self.window {
            // Prune sub-ledgers that can never re-enter the window; the
            // lifetime total survives in its own accumulator.
            let oldest = version.saturating_sub(w as u64 - 1);
            self.per_version = self.per_version.split_off(&oldest);
        }
    }

    /// The ε sum the budget currently constrains: every version's
    /// expenditure, or only the window's worth.
    pub fn spent(&self) -> f64 {
        self.per_version.values().sum()
    }

    /// Total ε ever spent, across all versions, window or not.
    pub fn lifetime_spent(&self) -> f64 {
        self.lifetime
    }

    /// Remaining budget against the (possibly windowed) spend.
    pub fn remaining(&self) -> f64 {
        (self.budget - self.spent()).max(0.0)
    }

    /// Expenditure charged to one version (0.0 if none, or if the version
    /// was pruned after leaving the window).
    pub fn spent_at(&self, version: u64) -> f64 {
        self.per_version.get(&version).copied().unwrap_or(0.0)
    }

    /// Attempts to spend `epsilon` against the current version; returns
    /// false (and spends nothing) if the windowed cumulative sum would
    /// exceed the budget.
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite epsilon.
    pub fn try_spend(&mut self, epsilon: f64) -> bool {
        assert!(
            epsilon > 0.0 && epsilon.is_finite(),
            "bad epsilon {epsilon}"
        );
        if self.spent() + epsilon > self.budget + 1e-12 {
            crate::obs::dp_metrics().budget_refusals.inc();
            return false;
        }
        *self.per_version.entry(self.current_version).or_insert(0.0) += epsilon;
        self.lifetime += epsilon;
        crate::obs::dp_metrics().epsilon_spent.add(epsilon);
        true
    }

    /// Statically sums the worst-case cost of a workload of per-analysis ε
    /// values (basic composition) against the remaining (windowed) budget,
    /// spending nothing. Every cost must be positive and finite, mirroring
    /// [`ContinualAccountant::try_spend`].
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite cost.
    pub fn precheck(&self, epsilons: &[f64]) -> BudgetPrecheck {
        let remaining = self.remaining();
        let mut total = 0.0;
        let mut first_refused = None;
        for (i, &eps) in epsilons.iter().enumerate() {
            assert!(eps > 0.0 && eps.is_finite(), "bad epsilon {eps}");
            total += eps;
            if first_refused.is_none() && total > remaining + 1e-12 {
                first_refused = Some(i);
            }
        }
        BudgetPrecheck {
            total,
            remaining,
            admissible: first_refused.is_none(),
            first_refused,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_composition_is_linear() {
        let c = BasicComposition.compose_uniform(0.1, 10);
        assert!((c.epsilon - 1.0).abs() < 1e-12);
        assert_eq!(c.delta, 0.0);
        let h = BasicComposition.compose(&[0.1, 0.2, 0.3]);
        assert!((h.epsilon - 0.6).abs() < 1e-12);
    }

    #[test]
    fn advanced_composition_beats_basic_for_many_small_queries() {
        let eps = 0.01;
        let k = 10_000;
        let basic = BasicComposition.compose_uniform(eps, k);
        let adv = AdvancedComposition::new(1e-6).compose_uniform(eps, k);
        assert!(basic.epsilon > 99.0);
        assert!(
            adv.epsilon < basic.epsilon / 10.0,
            "advanced {} vs basic {}",
            adv.epsilon,
            basic.epsilon
        );
        assert_eq!(adv.delta, 1e-6);
    }

    #[test]
    fn advanced_composition_worse_for_single_query() {
        // For k = 1 the advanced bound's √ term alone exceeds ε.
        let adv = AdvancedComposition::new(1e-6).compose_uniform(1.0, 1);
        assert!(adv.epsilon > 1.0);
    }

    #[test]
    fn advanced_composition_monotone_in_k() {
        let rule = AdvancedComposition::new(1e-5);
        let mut prev = 0.0;
        for k in [1usize, 2, 4, 8, 16, 32] {
            let c = rule.compose_uniform(0.1, k);
            assert!(c.epsilon > prev, "k={k}");
            prev = c.epsilon;
        }
    }

    #[test]
    fn accountant_enforces_budget() {
        let mut a = ContinualAccountant::new(1.0);
        assert!(a.try_spend(0.4));
        assert!(a.try_spend(0.4));
        assert!(!a.try_spend(0.4), "would exceed");
        assert!(a.try_spend(0.2));
        assert!((a.spent() - 1.0).abs() < 1e-12);
        assert!(a.remaining() < 1e-12);
    }

    #[test]
    fn precheck_is_static_and_matches_try_spend() {
        let mut a = ContinualAccountant::new(1.0);
        assert!(a.try_spend(0.3));
        let ok = a.precheck(&[0.2, 0.2, 0.3]);
        assert!(ok.admissible);
        assert_eq!(ok.first_refused, None);
        assert!((ok.total - 0.7).abs() < 1e-12);
        assert!((ok.remaining - 0.7).abs() < 1e-12);
        // Precheck spent nothing.
        assert!((a.spent() - 0.3).abs() < 1e-12);

        let too_much = a.precheck(&[0.2, 0.2, 0.4]);
        assert!(!too_much.admissible);
        assert_eq!(too_much.first_refused, Some(2));
        // The verdict agrees with actually spending, query by query.
        assert!(a.try_spend(0.2));
        assert!(a.try_spend(0.2));
        assert!(!a.try_spend(0.4));
    }

    #[test]
    fn precheck_of_empty_workload_is_admissible() {
        let a = ContinualAccountant::new(0.5);
        let r = a.precheck(&[]);
        assert!(r.admissible);
        assert_eq!(r.total, 0.0);
    }

    #[test]
    #[should_panic(expected = "bad epsilon")]
    fn precheck_rejects_nonfinite_cost() {
        ContinualAccountant::new(1.0).precheck(&[0.1, f64::INFINITY]);
    }

    #[test]
    #[should_panic(expected = "bad epsilon")]
    fn accountant_rejects_nonpositive_spend() {
        ContinualAccountant::new(1.0).try_spend(0.0);
    }

    #[test]
    #[should_panic(expected = "bad delta slack")]
    fn advanced_rejects_bad_slack() {
        AdvancedComposition::new(0.0);
    }

    #[test]
    fn continual_accountant_composes_across_versions() {
        let mut a = ContinualAccountant::new(1.0);
        assert!(a.try_spend(0.4));
        a.advance_to(1);
        assert!(a.try_spend(0.4));
        a.advance_to(2);
        assert!(
            !a.try_spend(0.4),
            "cumulative cross-version ε must hit the cap"
        );
        assert!(a.try_spend(0.2));
        assert!((a.spent() - 1.0).abs() < 1e-12);
        assert!(a.remaining() < 1e-12);
        assert!((a.lifetime_spent() - 1.0).abs() < 1e-12);
        assert!((a.spent_at(0) - 0.4).abs() < 1e-12);
        assert!((a.spent_at(2) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn windowed_accounting_lets_old_expenditure_age_out() {
        let mut a = ContinualAccountant::with_window(0.5, 2);
        assert!(a.try_spend(0.3)); // v0
        a.advance_to(1);
        assert!(a.try_spend(0.2)); // window {0,1} now full
        assert!(!a.try_spend(0.1), "window sum 0.5 == budget");
        a.advance_to(2); // window {1,2}: v0's 0.3 ages out
        assert!((a.spent() - 0.2).abs() < 1e-12);
        assert!(a.try_spend(0.3));
        assert!((a.lifetime_spent() - 0.8).abs() < 1e-12);
        assert_eq!(a.spent_at(0), 0.0, "pruned after leaving the window");
    }

    #[test]
    fn continual_advance_is_idempotent_and_monotone() {
        let mut a = ContinualAccountant::new(1.0);
        a.advance_to(3);
        a.advance_to(3); // no-op
        assert_eq!(a.version(), 3);
        assert!(a.try_spend(0.5));
        assert!((a.spent_at(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot rewind")]
    fn continual_accountant_never_rewinds() {
        let mut a = ContinualAccountant::new(1.0);
        a.advance_to(2);
        a.advance_to(1);
    }

    #[test]
    #[should_panic(expected = "at least one version")]
    fn zero_window_is_rejected() {
        ContinualAccountant::with_window(1.0, 0);
    }

    #[test]
    fn continual_precheck_matches_spending() {
        let mut a = ContinualAccountant::new(1.0);
        assert!(a.try_spend(0.3));
        a.advance_to(1);
        let ok = a.precheck(&[0.3, 0.3]);
        assert!(ok.admissible);
        let over = a.precheck(&[0.3, 0.3, 0.3]);
        assert!(!over.admissible);
        assert_eq!(over.first_refused, Some(2));
        // Precheck spent nothing.
        assert!((a.spent() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn spend_exactly_at_tolerance_boundary_is_admitted() {
        let mut a = ContinualAccountant::new(0.3);
        for _ in 0..3 {
            assert!(a.try_spend(0.1), "floating-point sum must not refuse");
        }
        assert!(!a.try_spend(1e-9));
    }
}
