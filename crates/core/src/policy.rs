//! The three proactive load-balancing policies (paper Sec. IV).
//!
//! Each policy maps the regions' current (EWMA-smoothed) RMTTF values to a
//! new vector of workload fractions `f` with `Σ f_i = 1`. Their shared goal:
//! "ensure that all active VMs in all regions show the same Mean Time To
//! Failure in front of the heterogeneity of regions".
//!
//! * **Policy 1 — Sensible Routing** (Eq. 2, after Wang & Gelenbe \[34\]):
//!   `f_i = RMTTF_i / Σ_j RMTTF_j`.
//! * **Policy 2 — Available Resources Estimation** (Eq. 3–4):
//!   `Q_i = RMTTF_i · f_i · λ`, then `f_i = Q_i / Σ_j Q_j`. `Q_i` estimates
//!   the region's resource stock, which for linearly-consumed resources is
//!   load-invariant — hence the fast, stable convergence the paper reports.
//! * **Policy 3 — Exploration** (Eq. 5–9): hill climbing around the average
//!   RMTTF. Regions below the average (overloaded) shed flow
//!   multiplicatively with step factor `k`; the freed flow is redistributed
//!   over the regions above the average, proportionally to `f_j · RMTTF_j`
//!   as in Eq. 8. A small exploration jitter models the "intrinsic
//!   randomness" of the search (configurable; the paper's Sec. VI points to
//!   it as Policy 3's weakness).
//!
//! All policies floor fractions at [`MIN_FRACTION`] and renormalise: a
//! region starved to exactly zero flow would stop producing RMTTF reports
//! (nothing fails when nothing runs), deadlocking the estimator — the same
//! reason the real system never routes strictly zero traffic anywhere.

use acm_obs::{Counter, ObsHandle, Timer};
use acm_sim::rng::SimRng;

/// Fraction floor applied after every policy step.
pub const MIN_FRACTION: f64 = 0.01;

/// Which policy the leader runs (selected "at configuration time", Alg. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Policy 1 — Sensible Routing (Eq. 2).
    SensibleRouting,
    /// Policy 2 — Available Resources Estimation (Eq. 3–4).
    AvailableResources,
    /// Policy 3 — Exploration (Eq. 5–9).
    Exploration,
    /// Extension (not in the paper): Policy 2 with each region's resource
    /// estimate discounted by its VM-hour price, trading some RMTTF
    /// balance for cheaper capacity — the economic motivation the paper's
    /// introduction raises but never evaluates.
    CostAwareResources,
}

impl PolicyKind {
    /// The paper's three policies, in paper order (the cost-aware extension
    /// is deliberately excluded — figure harnesses iterate over this).
    pub const ALL: [PolicyKind; 3] = [
        PolicyKind::SensibleRouting,
        PolicyKind::AvailableResources,
        PolicyKind::Exploration,
    ];

    /// Paper policies plus the cost-aware extension.
    pub const EXTENDED: [PolicyKind; 4] = [
        PolicyKind::SensibleRouting,
        PolicyKind::AvailableResources,
        PolicyKind::Exploration,
        PolicyKind::CostAwareResources,
    ];

    /// Paper-facing display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::SensibleRouting => "policy1-sensible-routing",
            PolicyKind::AvailableResources => "policy2-available-resources",
            PolicyKind::Exploration => "policy3-exploration",
            PolicyKind::CostAwareResources => "ext-cost-aware-resources",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A configured policy instance (the leader's `POLICY()` function).
///
/// ```
/// use acm_core::policy::{LoadBalancingPolicy, PolicyKind};
/// use acm_sim::SimRng;
/// let policy = LoadBalancingPolicy::new(PolicyKind::SensibleRouting);
/// let f = policy.next_fractions(&[0.5, 0.5], &[300.0, 100.0], 50.0, &mut SimRng::new(1));
/// assert!((f[0] - 0.75).abs() < 1e-9); // Eq. 2: f ∝ RMTTF
/// ```
#[derive(Debug, Clone)]
pub struct LoadBalancingPolicy {
    kind: PolicyKind,
    /// Exploration step factor `k` (Policy 3 only).
    k: f64,
    /// Relative jitter applied by Policy 3 (0 disables).
    exploration_noise: f64,
    /// Per-region VM-hour prices (cost-aware extension only).
    region_costs: Option<Vec<f64>>,
    /// Instrumentation; inert until [`LoadBalancingPolicy::set_obs`].
    steps: Counter,
    step_timer: Timer,
}

impl LoadBalancingPolicy {
    /// Creates a policy with the paper-defaults (`k = 0.5`, 2 % jitter).
    pub fn new(kind: PolicyKind) -> Self {
        LoadBalancingPolicy {
            kind,
            k: 0.5,
            exploration_noise: 0.02,
            region_costs: None,
            steps: Counter::default(),
            step_timer: Timer::default(),
        }
    }

    /// Attaches observability: counts policy invocations
    /// (`acm.core.policy.steps`) and times each step
    /// (`acm.core.policy.step_ns`).
    pub fn set_obs(&mut self, obs: &ObsHandle) {
        self.steps = obs.counter("acm.core.policy.steps");
        self.step_timer = obs.timer("acm.core.policy.step_ns");
    }

    /// Replaces the policy kind, keeping every policy knob (runtime policy
    /// switching).
    pub fn with_kind(mut self, kind: PolicyKind) -> Self {
        self.kind = kind;
        self
    }

    /// Supplies per-region VM-hour prices for
    /// [`PolicyKind::CostAwareResources`] (ignored by the paper policies).
    pub fn with_region_costs(mut self, costs: Vec<f64>) -> Self {
        assert!(
            costs.iter().all(|c| c.is_finite() && *c > 0.0),
            "region costs must be positive"
        );
        self.region_costs = Some(costs);
        self
    }

    /// Overrides the exploration step factor `k`.
    pub fn with_k(mut self, k: f64) -> Self {
        assert!(k > 0.0 && k <= 1.0, "k must be in (0,1], got {k}");
        self.k = k;
        self
    }

    /// Overrides the exploration jitter (relative std-dev).
    pub fn with_noise(mut self, noise: f64) -> Self {
        assert!(noise >= 0.0, "noise must be non-negative");
        self.exploration_noise = noise;
        self
    }

    /// The configured kind.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// The configured exploration step factor.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Computes the next fraction vector.
    ///
    /// * `prev` — the fractions currently installed (`f^{t−1}`),
    /// * `rmttf` — the leader's current per-region RMTTF estimates,
    /// * `lambda` — the global incoming request rate (Policy 2's `λ`),
    /// * `rng` — drives Policy 3's exploration jitter.
    ///
    /// The result is a probability vector (non-negative, sums to 1) with
    /// every entry ≥ [`MIN_FRACTION`] (for ≤ 1/MIN_FRACTION regions).
    pub fn next_fractions(
        &self,
        prev: &[f64],
        rmttf: &[f64],
        lambda: f64,
        rng: &mut SimRng,
    ) -> Vec<f64> {
        let mut next = Vec::new();
        let costs = self.region_costs.as_deref();
        self.next_fractions_into(prev, rmttf, costs, lambda, rng, &mut next);
        next
    }

    /// [`LoadBalancingPolicy::next_fractions`] into `out` (cleared first),
    /// computed in `out`'s own slots, with the cost-aware kind's prices
    /// for exactly these regions given (the leader passes a live subset's):
    /// a leader that keeps `out` allocates nothing per step.
    pub(crate) fn next_fractions_into(
        &self,
        prev: &[f64],
        rmttf: &[f64],
        costs: Option<&[f64]>,
        lambda: f64,
        rng: &mut SimRng,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(prev.len(), rmttf.len(), "one RMTTF per region");
        assert!(!prev.is_empty(), "need at least one region");
        let _span = self.step_timer.start();
        self.steps.inc();
        out.clear();
        match self.kind {
            PolicyKind::SensibleRouting => sensible_routing(rmttf, out),
            PolicyKind::AvailableResources => available_resources(prev, rmttf, lambda, out),
            PolicyKind::Exploration => self.exploration(prev, rmttf, rng, out),
            PolicyKind::CostAwareResources => {
                available_resources(prev, rmttf, lambda, out);
                if let Some(costs) = costs {
                    assert_eq!(costs.len(), out.len(), "one cost per region");
                    // Discount each region's resource estimate by its
                    // price, then renormalise: cheap capacity wins ties.
                    for (q, c) in out.iter_mut().zip(costs) {
                        *q /= c;
                    }
                    let total: f64 = out.iter().sum();
                    for w in out.iter_mut() {
                        *w /= total;
                    }
                }
            }
        }
        floor_and_normalise(out);
    }

    /// Policy 3 (Eq. 5–9), into `next`.
    fn exploration(&self, prev: &[f64], rmttf: &[f64], rng: &mut SimRng, next: &mut Vec<f64>) {
        let n = rmttf.len();
        next.extend_from_slice(prev);
        let armttf: f64 = rmttf.iter().sum::<f64>() / n as f64; // Eq. 5
        if armttf <= 0.0 {
            return;
        }
        // Overloaded set OL = { i : RMTTF_i < ARMTTF } sheds flow (Eq. 6),
        // interpolated by the step factor k so k=1 reproduces the equation
        // exactly and smaller k takes a partial hill-climbing step.
        let mut freed = 0.0; // −Δf_< of Eq. 7
        for i in 0..n {
            if rmttf[i] < armttf {
                let full = prev[i] * (rmttf[i] / armttf); // Eq. 6 at k = 1
                let stepped = prev[i] + self.k * (full - prev[i]);
                freed += prev[i] - stepped;
                next[i] = stepped;
            }
        }
        // Underloaded set UL = { i : RMTTF_i ≥ ARMTTF } absorbs the freed
        // flow proportionally to f_i · RMTTF_i (the Eq. 8 weighting), which
        // preserves Σ f = 1 by construction.
        let ul_weight: f64 = (0..n)
            .filter(|&i| rmttf[i] >= armttf)
            .map(|i| prev[i] * rmttf[i])
            .sum();
        if ul_weight > 0.0 && freed > 0.0 {
            for i in 0..n {
                if rmttf[i] >= armttf {
                    next[i] += freed * (prev[i] * rmttf[i]) / ul_weight;
                }
            }
        }
        // Intrinsic exploration randomness.
        if self.exploration_noise > 0.0 {
            for f in next.iter_mut() {
                *f *= (1.0 + rng.normal(0.0, self.exploration_noise)).max(0.1);
            }
        }
    }
}

/// Policy 1 (Eq. 2), into `out`.
fn sensible_routing(rmttf: &[f64], out: &mut Vec<f64>) {
    let total: f64 = rmttf.iter().sum();
    if total <= 0.0 {
        out.resize(rmttf.len(), 1.0 / rmttf.len() as f64);
        return;
    }
    out.extend(rmttf.iter().map(|r| r / total));
}

/// Policy 2 (Eq. 3–4), into `out`.
fn available_resources(prev: &[f64], rmttf: &[f64], lambda: f64, out: &mut Vec<f64>) {
    out.extend(
        prev.iter().zip(rmttf).map(|(f, r)| r * f * lambda.max(0.0)), // Eq. 3
    );
    let total: f64 = out.iter().sum();
    if total <= 0.0 {
        out.clear();
        out.resize(prev.len(), 1.0 / prev.len() as f64);
        return;
    }
    for q in out.iter_mut() {
        *q /= total; // Eq. 4
    }
}

/// Floors every fraction at [`MIN_FRACTION`] and renormalises to sum 1.
fn floor_and_normalise(fractions: &mut [f64]) {
    for f in fractions.iter_mut() {
        *f = if f.is_finite() {
            f.max(MIN_FRACTION)
        } else {
            MIN_FRACTION
        };
    }
    let total: f64 = fractions.iter().sum();
    for f in fractions.iter_mut() {
        *f /= total;
    }
}

/// Uniform initial fractions (the system boots knowing nothing).
pub fn uniform_fractions(n: usize) -> Vec<f64> {
    assert!(n > 0);
    vec![1.0 / n as f64; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_simplex(f: &[f64]) {
        let total: f64 = f.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        // Floored at MIN_FRACTION before the final normalisation, so the
        // post-normalisation guarantee is half the floor.
        assert!(f.iter().all(|x| *x >= MIN_FRACTION / 2.0), "{f:?}");
    }

    #[test]
    fn policy1_is_proportional_to_rmttf() {
        let p = LoadBalancingPolicy::new(PolicyKind::SensibleRouting);
        let mut rng = SimRng::new(1);
        let f = p.next_fractions(&[0.5, 0.5], &[300.0, 100.0], 50.0, &mut rng);
        assert_simplex(&f);
        assert!((f[0] - 0.75).abs() < 1e-9);
        assert!((f[1] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn policy2_estimates_resources() {
        let p = LoadBalancingPolicy::new(PolicyKind::AvailableResources);
        let mut rng = SimRng::new(2);
        // Region 0: RMTTF 300 at f=0.2 → Q=300·0.2·λ; region 1: 100 at 0.8.
        let f = p.next_fractions(&[0.2, 0.8], &[300.0, 100.0], 50.0, &mut rng);
        assert_simplex(&f);
        // Q0 = 60λ/... : Q0=3000, Q1=4000 → f = (3/7, 4/7).
        assert!((f[0] - 3.0 / 7.0).abs() < 1e-9, "{f:?}");
    }

    #[test]
    fn policy2_fixed_point_under_inverse_rmttf_model() {
        // RMTTF_i = C_i / (f_i λ): Q_i = C_i exactly, so the policy jumps to
        // f ∝ C in ONE step and stays there — the paper's fast convergence.
        let p = LoadBalancingPolicy::new(PolicyKind::AvailableResources);
        let mut rng = SimRng::new(3);
        let c = [3000.0, 1000.0];
        let lambda = 60.0;
        let mut f = uniform_fractions(2);
        for _ in 0..3 {
            let rmttf: Vec<f64> = f.iter().zip(c).map(|(fi, ci)| ci / (fi * lambda)).collect();
            f = p.next_fractions(&f, &rmttf, lambda, &mut rng);
        }
        assert!((f[0] - 0.75).abs() < 1e-6, "{f:?}");
    }

    #[test]
    fn policy1_does_not_equalise_rmttf_under_inverse_model() {
        // Fixed point of Policy 1 is f ∝ √C, where RMTTFs remain unequal —
        // the paper's central negative result for heterogeneous regions.
        let p = LoadBalancingPolicy::new(PolicyKind::SensibleRouting);
        let mut rng = SimRng::new(4);
        let c = [4000.0, 1000.0];
        let lambda = 60.0;
        let mut f = uniform_fractions(2);
        for _ in 0..200 {
            let rmttf: Vec<f64> = f.iter().zip(c).map(|(fi, ci)| ci / (fi * lambda)).collect();
            let target = p.next_fractions(&f, &rmttf, lambda, &mut rng);
            // Damped install (as the EWMA does in the real loop) so the
            // gain −1 oscillation settles onto the fixed point.
            for i in 0..2 {
                f[i] = 0.5 * f[i] + 0.5 * target[i];
            }
        }
        let rmttf: Vec<f64> = f.iter().zip(c).map(|(fi, ci)| ci / (fi * lambda)).collect();
        // f* ∝ √C → f0/f1 = 2, RMTTF0/RMTTF1 = √(C0/C1) = 2 ≠ 1.
        assert!((f[0] / f[1] - 2.0).abs() < 0.05, "{f:?}");
        assert!(
            rmttf[0] / rmttf[1] > 1.8,
            "RMTTFs unexpectedly equalised: {rmttf:?}"
        );
    }

    #[test]
    fn policy3_moves_load_away_from_overloaded_regions() {
        let p = LoadBalancingPolicy::new(PolicyKind::Exploration).with_noise(0.0);
        let mut rng = SimRng::new(5);
        // Region 0 is overloaded (RMTTF below average).
        let f = p.next_fractions(&[0.5, 0.5], &[100.0, 300.0], 50.0, &mut rng);
        assert_simplex(&f);
        assert!(f[0] < 0.5, "{f:?}");
        assert!(f[1] > 0.5, "{f:?}");
    }

    #[test]
    fn policy3_converges_to_equal_rmttf_under_inverse_model() {
        let p = LoadBalancingPolicy::new(PolicyKind::Exploration).with_noise(0.0);
        let mut rng = SimRng::new(6);
        let c = [3000.0, 1000.0, 2000.0];
        let lambda = 80.0;
        let mut f = uniform_fractions(3);
        for _ in 0..300 {
            let rmttf: Vec<f64> = f.iter().zip(c).map(|(fi, ci)| ci / (fi * lambda)).collect();
            f = p.next_fractions(&f, &rmttf, lambda, &mut rng);
        }
        let rmttf: Vec<f64> = f.iter().zip(c).map(|(fi, ci)| ci / (fi * lambda)).collect();
        let max = rmttf.iter().fold(0.0_f64, |a, b| a.max(*b));
        let min = rmttf.iter().fold(f64::INFINITY, |a, b| a.min(*b));
        assert!(max / min < 1.1, "RMTTFs did not converge: {rmttf:?}");
    }

    #[test]
    fn all_policies_emit_probability_vectors_on_adversarial_inputs() {
        let mut rng = SimRng::new(7);
        for kind in PolicyKind::ALL {
            let p = LoadBalancingPolicy::new(kind);
            for rmttf in [
                vec![0.0, 0.0, 0.0],
                vec![1e9, 1e-9, 1.0],
                vec![f64::INFINITY, 100.0, 100.0],
                vec![100.0],
            ] {
                let prev = uniform_fractions(rmttf.len());
                let sane: Vec<f64> = rmttf
                    .iter()
                    .map(|r| if r.is_finite() { *r } else { 1e7 })
                    .collect();
                let f = p.next_fractions(&prev, &sane, 50.0, &mut rng);
                assert_simplex(&f);
            }
        }
    }

    #[test]
    fn min_fraction_floor_prevents_starvation() {
        let p = LoadBalancingPolicy::new(PolicyKind::SensibleRouting);
        let mut rng = SimRng::new(8);
        let f = p.next_fractions(&[0.5, 0.5], &[1e9, 1.0], 50.0, &mut rng);
        assert!(f[1] >= MIN_FRACTION * 0.99, "{f:?}");
    }

    #[test]
    fn exploration_k_scales_step_size() {
        let mut rng = SimRng::new(9);
        let gentle = LoadBalancingPolicy::new(PolicyKind::Exploration)
            .with_k(0.1)
            .with_noise(0.0);
        let eager = LoadBalancingPolicy::new(PolicyKind::Exploration)
            .with_k(1.0)
            .with_noise(0.0);
        let prev = [0.5, 0.5];
        let rmttf = [100.0, 300.0];
        let fg = gentle.next_fractions(&prev, &rmttf, 50.0, &mut rng);
        let fe = eager.next_fractions(&prev, &rmttf, 50.0, &mut rng);
        assert!(
            (fe[0] - 0.5).abs() > (fg[0] - 0.5).abs(),
            "k=1 must take the larger step: {fe:?} vs {fg:?}"
        );
    }

    #[test]
    fn exploration_noise_perturbs_output() {
        let noisy = LoadBalancingPolicy::new(PolicyKind::Exploration).with_noise(0.1);
        let quiet = LoadBalancingPolicy::new(PolicyKind::Exploration).with_noise(0.0);
        let prev = [0.5, 0.5];
        let rmttf = [200.0, 200.0]; // perfectly balanced: only noise moves f
        let fq = quiet.next_fractions(&prev, &rmttf, 50.0, &mut SimRng::new(10));
        let fnz = noisy.next_fractions(&prev, &rmttf, 50.0, &mut SimRng::new(10));
        assert_eq!(fq, vec![0.5, 0.5]);
        assert_ne!(fnz, vec![0.5, 0.5]);
        assert_simplex(&fnz);
    }

    #[test]
    fn cost_aware_without_costs_matches_policy2() {
        let mut rng = SimRng::new(20);
        let p2 = LoadBalancingPolicy::new(PolicyKind::AvailableResources);
        let ca = LoadBalancingPolicy::new(PolicyKind::CostAwareResources);
        let prev = [0.4, 0.6];
        let rmttf = [300.0, 150.0];
        assert_eq!(
            p2.next_fractions(&prev, &rmttf, 50.0, &mut rng),
            ca.next_fractions(&prev, &rmttf, 50.0, &mut rng)
        );
    }

    #[test]
    fn cost_aware_shifts_flow_to_the_cheap_region() {
        let mut rng = SimRng::new(21);
        let prev = [0.5, 0.5];
        let rmttf = [200.0, 200.0]; // identical resource estimates
        let p2 = LoadBalancingPolicy::new(PolicyKind::AvailableResources);
        let ca = LoadBalancingPolicy::new(PolicyKind::CostAwareResources)
            .with_region_costs(vec![0.10, 0.02]); // region 1 is 5x cheaper
        let f2 = p2.next_fractions(&prev, &rmttf, 50.0, &mut rng);
        let fc = ca.next_fractions(&prev, &rmttf, 50.0, &mut rng);
        assert_eq!(f2, vec![0.5, 0.5]);
        assert!(fc[1] > 0.7, "cheap region should dominate: {fc:?}");
        assert_simplex(&fc);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_costs_panic() {
        let _ = LoadBalancingPolicy::new(PolicyKind::CostAwareResources)
            .with_region_costs(vec![0.1, 0.0]);
    }

    #[test]
    fn extended_contains_paper_policies() {
        for kind in PolicyKind::ALL {
            assert!(PolicyKind::EXTENDED.contains(&kind));
        }
        assert_eq!(PolicyKind::EXTENDED.len(), 4);
    }

    #[test]
    fn uniform_fractions_are_uniform() {
        assert_eq!(uniform_fractions(4), vec![0.25; 4]);
    }

    #[test]
    #[should_panic(expected = "one RMTTF per region")]
    fn mismatched_lengths_panic() {
        let p = LoadBalancingPolicy::new(PolicyKind::SensibleRouting);
        let _ = p.next_fractions(&[0.5, 0.5], &[1.0], 10.0, &mut SimRng::new(11));
    }
}
