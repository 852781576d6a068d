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
//! is linear in expectation, so the OOM and thread crossings are closed-form
//! and the SLA crossing (monotone in time) is found by bisection. This
//! ground truth is what labels the F2PM training set and what the REP-Tree
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

/// Failure-point definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureSpec {
    /// SLA bound on the mean response time, seconds. The paper keeps client
    /// response times under a 1-second threshold (Sec. VI-B).
    pub sla_response_s: f64,
    /// Whether the SLA predicate participates in the failure point (the OOM
    /// and thread predicates always do).
    pub enforce_sla: bool,
}

impl Default for FailureSpec {
    fn default() -> Self {
        FailureSpec {
            sla_response_s: 1.0,
            enforce_sla: true,
        }
    }
}

/// Continuous-state effective service rate: like
/// [`service::effective_service_rate`] but with fractional thread counts so
/// the RTTF solver can treat accumulation as a fluid.
fn effective_rate_fluid(
    flavor: &VmFlavor,
    cfg: &AnomalyConfig,
    leaked_mb: f64,
    stuck_threads: f64,
) -> f64 {
    let resident = flavor.baseline_resident_mb + leaked_mb + stuck_threads * cfg.thread_stack_mb;
    let swap_used = (resident - flavor.ram_mb).clamp(0.0, flavor.swap_mb);
    let slowdown = if flavor.swap_mb > 0.0 {
        1.0 + service::SWAP_PENALTY * swap_used / flavor.swap_mb
    } else {
        1.0
    };
    let compute = (flavor.compute_capacity() - stuck_threads * cfg.thread_cpu_burn).max(0.0);
    compute / (flavor.base_request_demand_s * slowdown)
}

impl FailureSpec {
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
        if self.enforce_sla && lambda > 0.0 {
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

        let t_sla = if self.enforce_sla && lambda > 0.0 {
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
    /// `μ_eff(t) <= λ + 1/R_max`, found by bisection. `μ_eff` is
    /// non-increasing in `t`, so the crossing is unique if it exists within
    /// `horizon` (the earlier hard-failure time).
    fn sla_crossing_time(
        &self,
        flavor: &VmFlavor,
        cfg: &AnomalyConfig,
        st: &AnomalyState,
        lambda: f64,
        horizon: f64,
    ) -> f64 {
        let leak_mb_per_s = lambda * cfg.mean_leak_mb_per_request();
        let threads_per_s = lambda * cfg.mean_threads_per_request();
        let mu_needed = lambda + 1.0 / self.sla_response_s;

        let mu_at = |t: f64| {
            effective_rate_fluid(
                flavor,
                cfg,
                st.leaked_mb + leak_mb_per_s * t,
                st.stuck_threads as f64 + threads_per_s * t,
            )
        };

        // No accumulation => rate constant; the SLA either already fails
        // (handled by `check`) or never will.
        if leak_mb_per_s == 0.0 && threads_per_s == 0.0 {
            return f64::INFINITY;
        }

        let hi_cap = if horizon.is_finite() {
            horizon
        } else {
            // Generous upper bound: time to leak the entire address space.
            let rate = (leak_mb_per_s + threads_per_s * cfg.thread_stack_mb).max(1e-12);
            (flavor.ram_mb + flavor.swap_mb) / rate * 4.0
        };
        if mu_at(hi_cap) > mu_needed {
            return f64::INFINITY; // never crosses before the hard failure
        }
        let (mut lo, mut hi) = (0.0_f64, hi_cap);
        for _ in 0..128 {
            let mid = 0.5 * (lo + hi);
            if mu_at(mid) > mu_needed {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
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
        let (f, cfg, mut spec) = setup();
        // μ = 50; at λ = 49.5, R = 2 s > 1 s bound → violation.
        assert_eq!(
            spec.check(&f, &cfg, &AnomalyState::fresh(), 49.5),
            Some(FailureCause::SlaViolation)
        );
        // With SLA disabled nothing fires.
        spec.enforce_sla = false;
        assert_eq!(spec.check(&f, &cfg, &AnomalyState::fresh(), 49.5), None);
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
    fn disabled_sla_extends_rttf_to_hard_failure() {
        let (f, cfg, _) = setup();
        let spec_sla = FailureSpec::default();
        let spec_hard = FailureSpec {
            enforce_sla: false,
            ..Default::default()
        };
        let fresh = AnomalyState::fresh();
        let (t_sla, _) = spec_sla.true_rttf(&f, &cfg, &fresh, 15.0);
        let (t_hard, cause) = spec_hard.true_rttf(&f, &cfg, &fresh, 15.0);
        assert!(t_hard > t_sla);
        assert!(matches!(
            cause,
            Some(FailureCause::OutOfMemory) | Some(FailureCause::ThreadExhaustion)
        ));
    }
}
