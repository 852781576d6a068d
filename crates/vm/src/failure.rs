//! Failure points and ground-truth remaining time to failure.
//!
//! F2PM lets the user define the *failure point* of a VM as a conjunction of
//! constraints — not necessarily a crash; an SLA violation counts (paper
//! Sec. III). We implement the three predicates the anomaly model can reach:
//!
//! * **Out of memory** — resident set exceeds RAM + swap.
//! * **Thread exhaustion** — thread table full.
//! * **SLA violation** — the steady-state mean response time at the VM's
//!   current arrival rate exceeds the SLA bound (equivalently, the degraded
//!   service rate falls below `λ + 1/R_max`).
//!
//! [`FailureSpec::true_rttf`] computes the *ground-truth* remaining time to
//! failure assuming the current arrival rate persists. Anomaly accumulation
//! is linear in expectation, so the OOM and thread crossings are closed-form.
//! The SLA crossing is *defined* as the float at which the computed
//! predicate `μ_eff(t) > λ + 1/R_max` flips — the answer of a bisection —
//! and found in about twenty evaluations of `μ_eff` instead of 129: `μ_eff`
//! is a linear equation on each piece of the swap model, its inverse gives a
//! hint, and the bisection starts from a verified bracket around the hint
//! (see `first_crossing`). This ground truth is asked of every ACTIVE VM
//! in every era, labels the F2PM training set, and is what the REP-Tree
//! model is later judged against.

use crate::anomaly::{AnomalyConfig, AnomalyState};
use crate::flavor::VmFlavor;
use crate::service;

/// Which failure predicate fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureCause {
    /// Resident set exceeded RAM + swap.
    OutOfMemory,
    /// Thread table exhausted.
    ThreadExhaustion,
    /// Mean response time exceeded the SLA bound.
    SlaViolation,
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureCause::OutOfMemory => "out-of-memory",
            FailureCause::ThreadExhaustion => "thread-exhaustion",
            FailureCause::SlaViolation => "sla-violation",
        };
        f.write_str(s)
    }
}

/// Failure-point definition: out of memory, a full thread table, or the
/// SLA bound broken.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureSpec {
    /// SLA bound on the mean response time, seconds. The paper keeps client
    /// response times under a 1-second threshold (Sec. VI-B).
    pub sla_response_s: f64,
}

impl Default for FailureSpec {
    fn default() -> Self {
        FailureSpec {
            sla_response_s: 1.0,
        }
    }
}

/// Accumulation of one VM as a fluid in `t` (seconds from now) at a fixed
/// arrival rate: the state every SLA-crossing question is asked of.
struct Fluid<'a> {
    flavor: &'a VmFlavor,
    cfg: &'a AnomalyConfig,
    leaked_mb: f64,
    stuck_threads: f64,
    leak_mb_per_s: f64,
    threads_per_s: f64,
}

impl<'a> Fluid<'a> {
    /// The expected accumulation (fluid limit) from `st` at `lambda` req/s.
    fn new(flavor: &'a VmFlavor, cfg: &'a AnomalyConfig, st: &AnomalyState, lambda: f64) -> Self {
        Fluid {
            flavor,
            cfg,
            leaked_mb: st.leaked_mb,
            stuck_threads: st.stuck_threads as f64,
            leak_mb_per_s: lambda * cfg.mean_leak_mb_per_request(),
            threads_per_s: lambda * cfg.mean_threads_per_request(),
        }
    }

    /// Continuous-state effective service rate at `t`: like
    /// [`service::effective_service_rate`] but with fractional thread counts.
    ///
    /// Every operation below is monotone in `t` under round-to-nearest (the
    /// rates and magnitudes are non-negative, the numerator of the final
    /// quotient is clamped at zero and its denominator is positive), so the
    /// *computed* rate is non-increasing in `t`, not just the exact one.
    fn effective_rate(&self, t: f64) -> f64 {
        let (flavor, cfg) = (self.flavor, self.cfg);
        let leaked_mb = self.leaked_mb + self.leak_mb_per_s * t;
        let stuck_threads = self.stuck_threads + self.threads_per_s * t;
        let resident =
            flavor.baseline_resident_mb + leaked_mb + stuck_threads * cfg.thread_stack_mb;
        let swap_used = (resident - flavor.ram_mb).clamp(0.0, flavor.swap_mb);
        let slowdown = if flavor.swap_mb > 0.0 {
            1.0 + service::SWAP_PENALTY * swap_used / flavor.swap_mb
        } else {
            1.0
        };
        let compute = (flavor.compute_capacity() - stuck_threads * cfg.thread_cpu_burn).max(0.0);
        compute / (flavor.base_request_demand_s * slowdown)
    }

    /// Piecewise inverse of [`Fluid::effective_rate`]: the `t` at which the
    /// exact rate equals `mu`. Compute falls linearly and, once the resident
    /// set has spilled past RAM, demand rises linearly, so `rate(t) = mu` is
    /// a linear equation on either piece. Only a *hint*: it is computed in
    /// different arithmetic from the rate itself, may be NaN, infinite or
    /// negative (no CPU burn, no swap, already past the answer), and is never
    /// trusted unverified — see [`first_crossing`].
    fn time_at_rate(&self, mu: f64) -> f64 {
        let (flavor, cfg) = (self.flavor, self.cfg);
        let resident0 =
            flavor.baseline_resident_mb + self.leaked_mb + self.stuck_threads * cfg.thread_stack_mb;
        let resident_per_s = self.leak_mb_per_s + self.threads_per_s * cfg.thread_stack_mb;
        let compute0 = flavor.compute_capacity() - self.stuck_threads * cfg.thread_cpu_burn;
        let burn_per_s = self.threads_per_s * cfg.thread_cpu_burn;
        // Compute that sustains `mu` while nothing is swapped.
        let needed = mu * flavor.base_request_demand_s;

        let pre_swap = (compute0 - needed) / burn_per_s;
        if flavor.swap_mb <= 0.0 || resident0 + resident_per_s * pre_swap <= flavor.ram_mb {
            return pre_swap;
        }
        // Extra compute `mu` needs per MiB swapped.
        let needed_per_mb = needed * service::SWAP_PENALTY / flavor.swap_mb;
        (compute0 - needed - needed_per_mb * (resident0 - flavor.ram_mb))
            / (burn_per_s + needed_per_mb * resident_per_s)
    }
}

/// Seconds until the resident set fills RAM + swap and until the thread
/// table fills, in the fluid limit at arrival rate `lambda` (infinite when
/// nothing accumulates): the hard failures, which the SLA crossing is
/// searched up to.
fn exhaustion_times(
    flavor: &VmFlavor,
    cfg: &AnomalyConfig,
    st: &AnomalyState,
    lambda: f64,
) -> (f64, f64) {
    // Expected accumulation rates (fluid limit).
    let leak_mb_per_s = lambda * cfg.mean_leak_mb_per_request();
    let threads_per_s = lambda * cfg.mean_threads_per_request();
    let resident_mb_per_s = leak_mb_per_s + threads_per_s * cfg.thread_stack_mb;

    let resident0 = service::resident_mb(flavor, cfg, st);
    let threads0 = flavor.baseline_threads as f64 + st.stuck_threads as f64;

    let t_oom = if resident_mb_per_s > 0.0 {
        (flavor.ram_mb + flavor.swap_mb - resident0) / resident_mb_per_s
    } else {
        f64::INFINITY
    };
    let t_threads = if threads_per_s > 0.0 {
        (flavor.max_threads as f64 - threads0) / threads_per_s
    } else {
        f64::INFINITY
    };
    (t_oom, t_threads)
}

/// Relative half-widths of the brackets tried around a hint, narrowest
/// first. Along runs to failure the closed form lands within `2⁻⁴⁹` of the
/// crossing almost always, and from there ~4 halvings reach adjacent
/// floats; `2⁻³⁶` is wide enough for the rounding of the closed form where
/// it cancels badly (a crossing at `t ≈ 0`), and ~17 halvings close it.
const HINT_BRACKETS: [f64; 2] = [1.0 / (1u64 << 49) as f64, 1.0 / (1u64 << 36) as f64];

/// A hint below `hi_cap · 2⁻⁶⁰` is not used: see [`first_crossing`].
const HINT_FLOOR: f64 = 1.0 / (1u64 << 60) as f64;

/// Steps of the midpoint search from `[0, hi_cap]`.
const MAX_HALVINGS: usize = 128;

/// Where in `[0, hi_cap]` the predicate `above` (true before the crossing,
/// false from it on) flips: what `MAX_HALVINGS` midpoint steps from
/// `[0, hi_cap]` end on — the smallest float at which `above` is false,
/// whenever that many steps reach two adjacent floats. `f64::INFINITY` when
/// `above(hi_cap)` still holds.
///
/// `hint` is where the caller expects the crossing. It only buys speed —
/// the result is, bit for bit, what the search from `[0, hi_cap]` returns
/// with no hint at all, provided `above` is monotone *as computed* (true up
/// to some float, false at every later one; [`Fluid::effective_rate`] is):
///
/// * A bracket `hint · (1 ∓ r)` — `r = 2⁻⁴⁹`, then `2⁻³⁶` if that one is
///   refuted — is adopted only after `above` has been evaluated true at its
///   lower end and false at its upper end, so the one flip lies inside it;
///   a midpoint search keeps `above(lo) && !above(hi)` and can only end on
///   the two adjacent floats around that flip, whatever bracket it started
///   from.
/// * A step whose midpoint rounds onto `lo` or `hi` leaves both unchanged,
///   and so does every later step, so leaving the loop there changes
///   nothing. That exit is what makes a verified bracket cheap: ~4 halvings
///   plus the three evaluations that set up the narrow bracket (~17 from
///   the wide one, two more evaluations to refute the narrow), against 129.
/// * From `[0, hi_cap]` the interval is `hi_cap · 2⁻ᵏ` wide after `k` steps
///   and the floats around a crossing `c` are `c · 2⁻⁵²` apart, so 128 steps
///   are sure to have reached adjacent floats when `c ≥ hi_cap · 2⁻⁶⁰`
///   (52 + 60 + 1 = 113 < 128). Far below that the unhinted search has
///   *not* converged: its answer is a point of the `hi_cap · 2⁻¹²⁸` grid,
///   which only the same search reproduces. Hence the floor: a hint under
///   `hi_cap · 2⁻⁶⁰` is ignored.
///
/// Anything else — a NaN hint, one outside `(0, hi_cap)`, a bracket the
/// predicate refutes — takes the search from `[0, hi_cap]`.
fn first_crossing(hi_cap: f64, hint: f64, mut above: impl FnMut(f64) -> bool) -> f64 {
    if above(hi_cap) {
        return f64::INFINITY;
    }
    let (mut lo, mut hi) = (0.0_f64, hi_cap);
    if hint >= hi_cap * HINT_FLOOR && hint < hi_cap {
        for r in HINT_BRACKETS {
            let (below, beyond) = (hint * (1.0 - r), hint * (1.0 + r));
            if above(below) && !above(beyond) {
                (lo, hi) = (below, beyond);
                break;
            }
        }
    }
    for _ in 0..MAX_HALVINGS {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if above(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

impl FailureSpec {
    /// Validates parameter ranges: the SLA bound must be a positive finite
    /// number of seconds (a bound `<= 0` or NaN fails every healthy VM at
    /// `t = 0`).
    pub fn validate(&self) -> Result<(), String> {
        if !(self.sla_response_s > 0.0 && self.sla_response_s.is_finite()) {
            return Err(format!(
                "sla_response_s must be positive and finite, got {}",
                self.sla_response_s
            ));
        }
        Ok(())
    }

    /// Evaluates the failure point on the current state at arrival rate
    /// `lambda` (req/s). Returns the first predicate that holds, checking
    /// hard resource exhaustion before the SLA.
    pub fn check(
        &self,
        flavor: &VmFlavor,
        cfg: &AnomalyConfig,
        st: &AnomalyState,
        lambda: f64,
    ) -> Option<FailureCause> {
        let resident = service::resident_mb(flavor, cfg, st);
        if resident >= flavor.ram_mb + flavor.swap_mb {
            return Some(FailureCause::OutOfMemory);
        }
        if flavor.baseline_threads + st.stuck_threads >= flavor.max_threads {
            return Some(FailureCause::ThreadExhaustion);
        }
        if lambda > 0.0 {
            let mu = service::effective_service_rate(flavor, cfg, st);
            match service::mm1_response(mu, lambda) {
                Some(r) if r <= self.sla_response_s => {}
                _ => return Some(FailureCause::SlaViolation),
            }
        }
        None
    }

    /// Ground-truth remaining time to failure (seconds) assuming arrival
    /// rate `lambda` persists, together with the cause that will fire first.
    /// Returns `(f64::INFINITY, None)` when no predicate is ever reached
    /// (e.g. `lambda == 0` with no accumulated pressure).
    pub fn true_rttf(
        &self,
        flavor: &VmFlavor,
        cfg: &AnomalyConfig,
        st: &AnomalyState,
        lambda: f64,
    ) -> (f64, Option<FailureCause>) {
        if let Some(cause) = self.check(flavor, cfg, st, lambda) {
            return (0.0, Some(cause));
        }

        let (t_oom, t_threads) = exhaustion_times(flavor, cfg, st, lambda);
        let t_sla = if lambda > 0.0 {
            self.sla_crossing_time(flavor, cfg, st, lambda, t_oom.min(t_threads))
        } else {
            f64::INFINITY
        };

        let mut best = (f64::INFINITY, None);
        for (t, cause) in [
            (t_sla, FailureCause::SlaViolation),
            (t_oom, FailureCause::OutOfMemory),
            (t_threads, FailureCause::ThreadExhaustion),
        ] {
            if t < best.0 {
                best = (t, Some(cause));
            }
        }
        best
    }

    /// First time `t >= 0` at which the SLA predicate fires, i.e.
    /// `μ_eff(t) <= λ + 1/R_max`, or infinity if it does not within `horizon`
    /// (the earlier hard-failure time). `μ_eff` is non-increasing in `t` —
    /// as computed, not only in exact arithmetic — so the crossing is the
    /// single float at which the comparison flips. [`first_crossing`] finds
    /// it from a verified bracket around the closed-form
    /// [`Fluid::time_at_rate`]: about twenty evaluations of `μ_eff`, the same
    /// bits as the plain 128-step bisection from `[0, horizon]`.
    fn sla_crossing_time(
        &self,
        flavor: &VmFlavor,
        cfg: &AnomalyConfig,
        st: &AnomalyState,
        lambda: f64,
        horizon: f64,
    ) -> f64 {
        let fluid = Fluid::new(flavor, cfg, st, lambda);
        let mu_needed = lambda + 1.0 / self.sla_response_s;

        // No accumulation => rate constant; the SLA either already fails
        // (handled by `check`) or never will.
        if fluid.leak_mb_per_s == 0.0 && fluid.threads_per_s == 0.0 {
            return f64::INFINITY;
        }

        let hi_cap = if horizon.is_finite() {
            horizon
        } else {
            // Generous upper bound: time to leak the entire address space.
            let rate = (fluid.leak_mb_per_s + fluid.threads_per_s * cfg.thread_stack_mb).max(1e-12);
            (flavor.ram_mb + flavor.swap_mb) / rate * 4.0
        };
        first_crossing(hi_cap, fluid.time_at_rate(mu_needed), |t| {
            fluid.effective_rate(t) > mu_needed
        })
    }

    /// Mean time to failure of a *fresh* VM of this flavor at arrival rate
    /// `lambda` — the quantity the region-level RMTTF converges to.
    pub fn mttf_at_rate(&self, flavor: &VmFlavor, cfg: &AnomalyConfig, lambda: f64) -> f64 {
        self.true_rttf(flavor, cfg, &AnomalyState::fresh(), lambda)
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (VmFlavor, AnomalyConfig, FailureSpec) {
        (
            VmFlavor::m3_medium(),
            AnomalyConfig::default(),
            FailureSpec::default(),
        )
    }

    #[test]
    fn fresh_vm_is_healthy() {
        let (f, cfg, spec) = setup();
        assert_eq!(spec.check(&f, &cfg, &AnomalyState::fresh(), 10.0), None);
    }

    #[test]
    fn oom_predicate_fires() {
        let (f, cfg, spec) = setup();
        let st = AnomalyState {
            leaked_mb: f.ram_mb + f.swap_mb,
            ..Default::default()
        };
        assert_eq!(
            spec.check(&f, &cfg, &st, 10.0),
            Some(FailureCause::OutOfMemory)
        );
    }

    #[test]
    fn thread_predicate_fires() {
        let (f, cfg, spec) = setup();
        let st = AnomalyState {
            stuck_threads: f.max_threads - f.baseline_threads,
            ..Default::default()
        };
        assert_eq!(
            spec.check(&f, &cfg, &st, 10.0),
            Some(FailureCause::ThreadExhaustion)
        );
    }

    #[test]
    fn sla_predicate_fires_under_saturation() {
        let (f, cfg, spec) = setup();
        // Fresh VM but arrival rate beyond μ: SLA predicate fires.
        let lambda = f.fresh_service_rate() + 1.0;
        assert_eq!(
            spec.check(&f, &cfg, &AnomalyState::fresh(), lambda),
            Some(FailureCause::SlaViolation)
        );
    }

    #[test]
    fn sla_predicate_respects_bound() {
        let (f, cfg, spec) = setup();
        // μ = 50; at λ = 49.5, R = 2 s > 1 s bound → violation.
        assert_eq!(
            spec.check(&f, &cfg, &AnomalyState::fresh(), 49.5),
            Some(FailureCause::SlaViolation)
        );
        // With no arrivals there is no queue, and nothing fires.
        assert_eq!(spec.check(&f, &cfg, &AnomalyState::fresh(), 0.0), None);
    }

    #[test]
    fn rttf_zero_when_already_failed() {
        let (f, cfg, spec) = setup();
        let st = AnomalyState {
            leaked_mb: f.ram_mb + f.swap_mb,
            ..Default::default()
        };
        let (t, cause) = spec.true_rttf(&f, &cfg, &st, 10.0);
        assert_eq!(t, 0.0);
        assert_eq!(cause, Some(FailureCause::OutOfMemory));
    }

    #[test]
    fn rttf_infinite_with_no_load() {
        let (f, cfg, spec) = setup();
        let (t, cause) = spec.true_rttf(&f, &cfg, &AnomalyState::fresh(), 0.0);
        assert_eq!(t, f64::INFINITY);
        assert_eq!(cause, None);
    }

    #[test]
    fn rttf_decreases_with_load() {
        let (f, cfg, spec) = setup();
        let fresh = AnomalyState::fresh();
        let (t5, _) = spec.true_rttf(&f, &cfg, &fresh, 5.0);
        let (t20, _) = spec.true_rttf(&f, &cfg, &fresh, 20.0);
        assert!(t5.is_finite() && t20.is_finite());
        assert!(t20 < t5, "higher load must shorten RTTF ({t20} !< {t5})");
        // Roughly inverse-proportional in the leak-dominated regime.
        let ratio = t5 / t20;
        assert!(ratio > 3.0 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn rttf_decreases_as_damage_accumulates() {
        let (f, cfg, spec) = setup();
        let fresh = AnomalyState::fresh();
        let damaged = AnomalyState {
            leaked_mb: 1000.0,
            stuck_threads: 50,
            ..Default::default()
        };
        let (t_fresh, _) = spec.true_rttf(&f, &cfg, &fresh, 10.0);
        let (t_damaged, _) = spec.true_rttf(&f, &cfg, &damaged, 10.0);
        assert!(t_damaged < t_fresh);
    }

    #[test]
    fn sla_fires_before_oom_at_moderate_load() {
        // At a moderate arrival rate, swap-induced slowdown violates the SLA
        // well before the VM is fully out of memory.
        let (f, cfg, spec) = setup();
        let (_, cause) = spec.true_rttf(&f, &cfg, &AnomalyState::fresh(), 30.0);
        assert_eq!(cause, Some(FailureCause::SlaViolation));
    }

    #[test]
    fn rttf_consistent_with_forward_evolution() {
        // Evolve the fluid state forward by the predicted RTTF and verify the
        // failure point is indeed (just) reached.
        let (f, cfg, spec) = setup();
        let lambda = 12.0;
        let st = AnomalyState::fresh();
        let (t, cause) = spec.true_rttf(&f, &cfg, &st, lambda);
        assert!(t.is_finite());
        let evolved = AnomalyState {
            leaked_mb: st.leaked_mb + lambda * cfg.mean_leak_mb_per_request() * (t * 1.001),
            stuck_threads: st.stuck_threads
                + (lambda * cfg.mean_threads_per_request() * (t * 1.001)).round() as u32,
            ..Default::default()
        };
        assert_eq!(spec.check(&f, &cfg, &evolved, lambda), cause);
    }

    #[test]
    fn mttf_reflects_heterogeneity() {
        let cfg = AnomalyConfig::default();
        let spec = FailureSpec::default();
        let lambda = 8.0;
        let mttf_medium = spec.mttf_at_rate(&VmFlavor::m3_medium(), &cfg, lambda);
        let mttf_private = spec.mttf_at_rate(&VmFlavor::private_munich(), &cfg, lambda);
        // The memory-rich m3.medium survives much longer per VM.
        assert!(
            mttf_medium > 1.5 * mttf_private,
            "medium {mttf_medium} vs private {mttf_private}"
        );
    }

    #[test]
    fn sla_cuts_rttf_short_of_exhaustion() {
        let (f, cfg, spec) = setup();
        let fresh = AnomalyState::fresh();
        let (t_sla, cause) = spec.true_rttf(&f, &cfg, &fresh, 15.0);
        let (t_oom, t_threads) = exhaustion_times(&f, &cfg, &fresh, 15.0);
        assert_eq!(cause, Some(FailureCause::SlaViolation));
        assert!(t_oom.min(t_threads) > t_sla);
    }

    #[test]
    fn validate_accepts_positive_finite_bounds_only() {
        assert!(FailureSpec::default().validate().is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let spec = FailureSpec {
                sla_response_s: bad,
            };
            assert!(spec.validate().is_err(), "accepted {bad}");
        }
    }

    /// `sla_crossing_time`'s search with the evaluations of `μ_eff` counted.
    fn counted_crossing(fluid: &Fluid<'_>, mu_needed: f64, hi_cap: f64, hint: f64) -> (f64, usize) {
        let mut evaluations = 0;
        let t = first_crossing(hi_cap, hint, |t| {
            evaluations += 1;
            fluid.effective_rate(t) > mu_needed
        });
        (t, evaluations)
    }

    #[test]
    fn crossing_costs_at_most_24_evaluations_along_runs_to_failure() {
        use acm_sim::rng::SimRng;
        let (cfg, spec) = (AnomalyConfig::default(), FailureSpec::default());
        let (mut crossings, mut worst_finite) = (0, 0);
        for flavor in [
            VmFlavor::m3_medium(),
            VmFlavor::m3_small(),
            VmFlavor::private_munich(),
        ] {
            for lambda in [2.0, 8.0, 16.0, 24.0] {
                let mut st = AnomalyState::fresh();
                let mut rng = SimRng::new(7);
                while spec.check(&flavor, &cfg, &st, lambda).is_none() {
                    // The horizon `true_rttf` searches up to: the earlier
                    // hard failure.
                    let (t_oom, t_threads) = exhaustion_times(&flavor, &cfg, &st, lambda);
                    let horizon = t_oom.min(t_threads);
                    let fluid = Fluid::new(&flavor, &cfg, &st, lambda);
                    let mu_needed = lambda + 1.0 / spec.sla_response_s;
                    let hint = fluid.time_at_rate(mu_needed);
                    let (t, evaluations) = counted_crossing(&fluid, mu_needed, horizon, hint);
                    assert!(
                        evaluations <= 24,
                        "{} at {lambda}/s, {st:?}: {evaluations} evaluations",
                        flavor.name
                    );
                    let (unhinted, from_zero) =
                        counted_crossing(&fluid, mu_needed, horizon, f64::NAN);
                    assert_eq!(t.to_bits(), unhinted.to_bits());
                    assert_eq!(
                        spec.true_rttf(&flavor, &cfg, &st, lambda).0.to_bits(),
                        t.min(horizon).to_bits()
                    );
                    if t.is_finite() {
                        assert!(from_zero > 50, "from [0, hi_cap]: {from_zero} evaluations");
                        crossings += 1;
                        worst_finite = worst_finite.max(evaluations);
                    }
                    st.apply_requests(&cfg, (lambda * 30.0) as u64, &mut rng);
                }
            }
        }
        assert!(crossings > 25, "only {crossings} SLA crossings exercised");
        // 24 bounds any question (the wide bracket after a refuted narrow
        // one); a crossing along these runs takes the narrow bracket.
        assert!(
            worst_finite <= 10,
            "a finite crossing took {worst_finite} evaluations"
        );
    }

    #[test]
    fn inverse_solves_the_rate_on_both_pieces() {
        let (f, cfg, _) = setup();
        // (state, rate asked for): crossing before the resident set reaches
        // RAM (CPU burn alone), after it has (swap slowdown), and from a
        // state already swapping.
        let swapping = AnomalyState {
            leaked_mb: f.ram_mb - f.baseline_resident_mb + 100.0,
            stuck_threads: 40,
            ..Default::default()
        };
        for (st, lambda, mu, in_swap) in [
            (AnomalyState::fresh(), 10.0, 49.9, false),
            (AnomalyState::fresh(), 10.0, 30.0, true),
            (swapping, 5.0, 25.0, true),
        ] {
            let fluid = Fluid::new(&f, &cfg, &st, lambda);
            let t = fluid.time_at_rate(mu);
            assert!(t > 0.0 && t.is_finite(), "{t}");
            let resident = f.baseline_resident_mb
                + fluid.leaked_mb
                + fluid.leak_mb_per_s * t
                + (fluid.stuck_threads + fluid.threads_per_s * t) * cfg.thread_stack_mb;
            assert_eq!(resident > f.ram_mb, in_swap, "resident {resident}");
            let rel = (fluid.effective_rate(t) - mu).abs() / mu;
            assert!(rel < 1e-9, "rate at the hint is off by {rel}");
        }
    }

    #[test]
    fn a_wrong_hint_changes_nothing() {
        let (f, cfg, spec) = setup();
        let st = AnomalyState {
            leaked_mb: 900.0,
            stuck_threads: 60,
            ..Default::default()
        };
        let (lambda, hi_cap) = (12.0, 500.0);
        let fluid = Fluid::new(&f, &cfg, &st, lambda);
        let mu_needed = lambda + 1.0 / spec.sla_response_s;
        let good = fluid.time_at_rate(mu_needed);
        let (reference, _) = counted_crossing(&fluid, mu_needed, hi_cap, f64::NAN);
        assert!(reference > 0.0 && reference < hi_cap);
        for hint in [
            good,
            good * 1.01,
            good * 0.99,
            -good,
            0.0,
            hi_cap,
            hi_cap * 3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let (t, evaluations) = counted_crossing(&fluid, mu_needed, hi_cap, hint);
            assert_eq!(t.to_bits(), reference.to_bits(), "hint {hint}");
            // Only the good hint is cheap: every other one is ignored or
            // refuted and ends in the search from [0, hi_cap].
            assert_eq!(
                evaluations <= 24,
                hint == good,
                "hint {hint}: {evaluations}"
            );
        }
        // An infinite horizon searches up to the generous cap, hinted too.
        let t = spec.sla_crossing_time(&f, &cfg, &st, lambda, f64::INFINITY);
        assert_eq!(t.to_bits(), reference.to_bits());
    }

    #[test]
    fn a_crossing_under_the_floor_is_searched_from_zero() {
        // 128 halvings of [0, 1] end on the 2⁻¹²⁸ grid: for a crossing at
        // 1.3 · 2⁻¹⁰⁰ that is 28 bits short of adjacent floats, so the
        // answer is the first grid point at or past the crossing, and a
        // search from a bracket around even an exact hint would miss it.
        let crossing = 1.3 * 2f64.powi(-100);
        let on_grid = (crossing * 2f64.powi(128)).ceil() * 2f64.powi(-128);
        assert_ne!(on_grid, crossing);
        let mut evaluations = 0;
        let t = first_crossing(1.0, crossing, |t| {
            evaluations += 1;
            t < crossing
        });
        assert_eq!(t.to_bits(), on_grid.to_bits());
        assert_eq!(evaluations, 129);
        // At the floor and above, the same predicate shape converges and
        // the hint is taken.
        let crossing = 1.3 * 2f64.powi(-60);
        let mut evaluations = 0;
        let t = first_crossing(1.0, crossing, |t| {
            evaluations += 1;
            t < crossing
        });
        assert_eq!(t.to_bits(), crossing.to_bits());
        assert!(evaluations <= 24, "{evaluations}");
        assert_eq!(first_crossing(1.0, f64::NAN, |t| t < crossing), crossing);
    }

    #[test]
    fn no_crossing_before_the_cap_is_infinite() {
        assert_eq!(first_crossing(10.0, 5.0, |_| true), f64::INFINITY);
    }
}
