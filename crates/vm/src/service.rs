//! Service-time model.
//!
//! Each VM is modelled as a processor-sharing queue whose *effective*
//! service rate degrades as anomalies accumulate:
//!
//! * **Memory pressure** — once the resident set spills past RAM into swap,
//!   every request pays a swap penalty that grows linearly with the fraction
//!   of swap in use (up to [`SWAP_PENALTY`]× at full swap).
//! * **CPU theft** — every unterminated thread spin-burns a small fraction
//!   of a reference core ([`AnomalyConfig::thread_cpu_burn`]), shrinking the
//!   compute available to real requests.
//!
//! The per-era response time uses the M/M/1 mean-sojourn formula
//! `R = 1 / (μ_eff − λ)` on the pooled-core service rate, which is exact for
//! a single-core VM and a standard approximation for small multi-core VMs.
//! The same `μ_eff` feeds the ground-truth RTTF computation in
//! [`crate::failure`], so the SLA failure point and the response-time signal
//! are mutually consistent.

use crate::anomaly::{AnomalyConfig, AnomalyState};
use crate::flavor::VmFlavor;
use acm_sim::rng::SimRng;

/// Demand multiplier when the swap space is completely full (i.e. requests
/// run `1 + SWAP_PENALTY` times slower at 100 % swap usage).
pub const SWAP_PENALTY: f64 = 3.0;

/// Relative jitter (log-normal cv) applied to measured era response times,
/// representing measurement noise the real monitoring agent would see.
pub const RESPONSE_NOISE_CV: f64 = 0.05;

/// Resident set size of a VM, MiB (baseline plus anomaly growth).
pub fn resident_mb(flavor: &VmFlavor, cfg: &AnomalyConfig, st: &AnomalyState) -> f64 {
    flavor.baseline_resident_mb + st.anomaly_resident_mb(cfg)
}

/// Swap currently in use, MiB.
pub fn swap_used_mb(flavor: &VmFlavor, cfg: &AnomalyConfig, st: &AnomalyState) -> f64 {
    (resident_mb(flavor, cfg, st) - flavor.ram_mb).clamp(0.0, flavor.swap_mb)
}

/// Per-request demand multiplier due to memory pressure (≥ 1).
pub fn swap_slowdown(flavor: &VmFlavor, cfg: &AnomalyConfig, st: &AnomalyState) -> f64 {
    if flavor.swap_mb <= 0.0 {
        return 1.0;
    }
    let frac = swap_used_mb(flavor, cfg, st) / flavor.swap_mb;
    1.0 + SWAP_PENALTY * frac
}

/// Effective pooled service rate, requests/second, after degradation.
/// Zero when stuck threads have burned all compute.
pub fn effective_service_rate(flavor: &VmFlavor, cfg: &AnomalyConfig, st: &AnomalyState) -> f64 {
    let compute = (flavor.compute_capacity() - st.cpu_burn(cfg)).max(0.0);
    let demand = flavor.base_request_demand_s * swap_slowdown(flavor, cfg, st);
    compute / demand
}

/// Mean sojourn time at arrival rate `lambda` (req/s) given effective rate
/// `mu` — M/M/1 with a saturation guard. Returns `None` when the queue is
/// unstable (`lambda >= mu`), i.e. response time grows without bound.
pub fn mm1_response(mu: f64, lambda: f64) -> Option<f64> {
    if mu > lambda && mu > 0.0 {
        Some(1.0 / (mu - lambda))
    } else {
        None
    }
}

/// Aggregate outcome of one control era on one VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EraOutcome {
    /// Requests offered to the VM this era.
    pub offered: u64,
    /// Requests completed (equals offered unless the VM failed mid-era).
    pub completed: u64,
    /// Mean response time over the era, seconds (0 when idle).
    pub mean_response_s: f64,
    /// Offered-load utilisation `λ / μ_eff` at era start (may exceed 1).
    pub utilization: f64,
    /// Seconds of the era during which the VM was serving (shorter than the
    /// era when the VM failed mid-era).
    pub active_s: f64,
    /// Ground-truth remaining time to failure at era start under the era's
    /// arrival rate, seconds (infinite when idle or when the VM never fails
    /// at this rate): the one solve of the era, for whoever labels with it.
    pub rttf_s: f64,
}

impl EraOutcome {
    /// An era during which the VM served nothing.
    pub fn idle(era_s: f64) -> Self {
        EraOutcome {
            offered: 0,
            completed: 0,
            mean_response_s: 0.0,
            utilization: 0.0,
            active_s: era_s,
            rttf_s: f64::INFINITY,
        }
    }
}

/// Computes the mean era response time at `lambda` req/s given effective
/// rates at era start and end (the anomaly state drifts during the era, so
/// the harmonic midpoint is used), with multiplicative measurement noise.
///
/// When the queue saturates the response time is clamped to `clamp_s`
/// (callers pass the era length — an overloaded server's clients simply see
/// multi-second stalls, and the SLA failure predicate fires).
pub fn era_response_time(
    mu_start: f64,
    mu_end: f64,
    lambda: f64,
    clamp_s: f64,
    rng: &mut SimRng,
) -> f64 {
    let mu_mid = 0.5 * (mu_start + mu_end);
    let base = match mm1_response(mu_mid, lambda) {
        Some(r) => r.min(clamp_s),
        None => clamp_s,
    };
    if RESPONSE_NOISE_CV == 0.0 {
        return base;
    }
    let sigma2 = (1.0 + RESPONSE_NOISE_CV * RESPONSE_NOISE_CV).ln();
    let noise = rng.log_normal(-sigma2 / 2.0, sigma2.sqrt());
    (base * noise).min(clamp_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medium() -> VmFlavor {
        VmFlavor::m3_medium()
    }

    #[test]
    fn fresh_vm_has_no_slowdown() {
        let f = medium();
        let cfg = AnomalyConfig::default();
        let st = AnomalyState::fresh();
        assert_eq!(swap_used_mb(&f, &cfg, &st), 0.0);
        assert_eq!(swap_slowdown(&f, &cfg, &st), 1.0);
        let mu = effective_service_rate(&f, &cfg, &st);
        assert!((mu - f.fresh_service_rate()).abs() < 1e-9);
    }

    #[test]
    fn leaks_push_resident_into_swap() {
        let f = medium();
        let cfg = AnomalyConfig::default();
        let mut st = AnomalyState::fresh();
        // Leak exactly up to RAM: no swap yet.
        st.leaked_mb = f.ram_mb - f.baseline_resident_mb;
        assert_eq!(swap_used_mb(&f, &cfg, &st), 0.0);
        // One more MiB: swap begins.
        st.leaked_mb += 1.0;
        assert!((swap_used_mb(&f, &cfg, &st) - 1.0).abs() < 1e-9);
        assert!(swap_slowdown(&f, &cfg, &st) > 1.0);
    }

    #[test]
    fn full_swap_slowdown_is_one_plus_penalty() {
        let f = medium();
        let cfg = AnomalyConfig::default();
        let mut st = AnomalyState::fresh();
        st.leaked_mb = f.ram_mb + f.swap_mb; // far past everything
        assert!((swap_slowdown(&f, &cfg, &st) - (1.0 + SWAP_PENALTY)).abs() < 1e-9);
    }

    #[test]
    fn stuck_threads_burn_cpu_monotonically() {
        let f = medium();
        let cfg = AnomalyConfig::default();
        let mut st = AnomalyState::fresh();
        let mu0 = effective_service_rate(&f, &cfg, &st);
        st.stuck_threads = 100;
        let mu1 = effective_service_rate(&f, &cfg, &st);
        assert!(mu1 < mu0);
        // Enough threads to burn the whole core: rate hits zero.
        st.stuck_threads = (f.compute_capacity() / cfg.thread_cpu_burn).ceil() as u32 + 1;
        assert_eq!(effective_service_rate(&f, &cfg, &st), 0.0);
    }

    #[test]
    fn mm1_response_basics() {
        assert_eq!(mm1_response(10.0, 5.0), Some(0.2));
        assert_eq!(mm1_response(10.0, 10.0), None);
        assert_eq!(mm1_response(10.0, 12.0), None);
        assert_eq!(mm1_response(0.0, 0.0), None);
    }

    #[test]
    fn era_response_time_clamps_on_saturation() {
        let mut rng = SimRng::new(1);
        let r = era_response_time(10.0, 10.0, 20.0, 30.0, &mut rng);
        assert!(r <= 30.0);
        assert!(
            r > 29.0,
            "saturated response should sit at the clamp, got {r}"
        );
    }

    #[test]
    fn era_response_time_tracks_mm1_mean() {
        let mut rng = SimRng::new(2);
        let n = 20_000;
        let sum: f64 = (0..n)
            .map(|_| era_response_time(50.0, 50.0, 30.0, 60.0, &mut rng))
            .sum();
        let mean = sum / n as f64;
        assert!((mean - 0.05).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn idle_outcome_is_zeroed() {
        let o = EraOutcome::idle(30.0);
        assert_eq!(o.offered, 0);
        assert_eq!(o.completed, 0);
        assert_eq!(o.mean_response_s, 0.0);
        assert_eq!(o.active_s, 30.0);
    }
}
