//! Software-anomaly injection and accumulation.
//!
//! The paper modified its TPC-W deployment so that, on each client request,
//! a VM independently generates a **memory leak with probability 0.10** and
//! an **unterminated thread with probability 0.05** (Sec. VI-A). Leaks and
//! stuck threads accumulate until the VM's failure point; rejuvenation
//! resets them.
//!
//! [`AnomalyConfig`] holds the injection parameters, [`AnomalyState`] the
//! accumulated damage. Both per-request sampling and aggregated per-era
//! (binomial) sampling are provided so the coarse control-loop grain sees
//! statistically identical accumulation to the fine per-request grain.

use acm_sim::rng::SimRng;

/// Probability that a request triggers a memory leak (paper: 10 %).
pub const DEFAULT_LEAK_PROB: f64 = 0.10;
/// Probability that a request leaves an unterminated thread (paper: 5 %).
pub const DEFAULT_THREAD_PROB: f64 = 0.05;

/// Injection parameters for software anomalies.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyConfig {
    /// Per-request probability of a memory leak.
    pub leak_prob: f64,
    /// Mean size of one leaked allocation, MiB.
    pub leak_size_mb: f64,
    /// Relative standard deviation of the leak size (log-normal spread).
    pub leak_size_cv: f64,
    /// Per-request probability of an unterminated thread.
    pub thread_prob: f64,
    /// CPU fraction of one reference core that each stuck thread burns
    /// (spin-waiting / busy polling).
    pub thread_cpu_burn: f64,
    /// Resident memory overhead of one stuck thread (stack + TLS), MiB.
    pub thread_stack_mb: f64,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            leak_prob: DEFAULT_LEAK_PROB,
            leak_size_mb: 8.0,
            leak_size_cv: 0.35,
            thread_prob: DEFAULT_THREAD_PROB,
            thread_cpu_burn: 0.0005,
            thread_stack_mb: 0.5,
        }
    }
}

impl AnomalyConfig {
    /// A configuration that never injects anomalies (healthy baseline runs).
    pub fn none() -> Self {
        AnomalyConfig {
            leak_prob: 0.0,
            thread_prob: 0.0,
            ..AnomalyConfig::default()
        }
    }

    /// Expected leaked MiB per processed request.
    pub fn mean_leak_mb_per_request(&self) -> f64 {
        self.leak_prob * self.leak_size_mb
    }

    /// Expected stuck threads per processed request.
    pub fn mean_threads_per_request(&self) -> f64 {
        self.thread_prob
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("leak_prob", self.leak_prob),
            ("thread_prob", self.thread_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0,1], got {p}"));
            }
        }
        if self.leak_size_mb < 0.0 || self.thread_stack_mb < 0.0 || self.thread_cpu_burn < 0.0 {
            return Err("anomaly magnitudes must be non-negative".into());
        }
        if self.leak_size_cv < 0.0 {
            return Err("leak_size_cv must be non-negative".into());
        }
        Ok(())
    }
}

/// Accumulated anomaly damage on one VM since its last rejuvenation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnomalyState {
    /// Total leaked resident memory, MiB.
    pub leaked_mb: f64,
    /// Number of unterminated threads alive.
    pub stuck_threads: u32,
    /// Count of individual leak events (telemetry).
    pub leak_events: u64,
    /// Requests processed since last rejuvenation (telemetry / age proxy).
    pub requests_since_refresh: u64,
}

impl AnomalyState {
    /// A fresh (just-rejuvenated) state.
    pub fn fresh() -> Self {
        AnomalyState::default()
    }

    /// Clears all accumulated damage (software rejuvenation).
    pub fn reset(&mut self) {
        *self = AnomalyState::default();
    }

    /// Total extra resident memory attributable to anomalies, MiB
    /// (leaked allocations plus stuck-thread stacks).
    pub fn anomaly_resident_mb(&self, cfg: &AnomalyConfig) -> f64 {
        self.leaked_mb + self.stuck_threads as f64 * cfg.thread_stack_mb
    }

    /// CPU (reference-core units) burned by stuck threads.
    pub fn cpu_burn(&self, cfg: &AnomalyConfig) -> f64 {
        self.stuck_threads as f64 * cfg.thread_cpu_burn
    }

    /// Applies the anomaly outcome of a single request. Returns `true` if
    /// any anomaly was injected.
    pub fn apply_request(&mut self, cfg: &AnomalyConfig, rng: &mut SimRng) -> bool {
        self.requests_since_refresh += 1;
        let mut injected = false;
        if rng.bernoulli(cfg.leak_prob) {
            self.leaked_mb += sample_leak_size(cfg, rng);
            self.leak_events += 1;
            injected = true;
        }
        if rng.bernoulli(cfg.thread_prob) {
            self.stuck_threads += 1;
            injected = true;
        }
        injected
    }

    /// Applies the aggregate anomaly outcome of `n` requests in one step.
    ///
    /// Leak and thread counts are drawn from `Binomial(n, p)`; the total
    /// leaked size uses the exact per-event log-normal for small counts and
    /// a matched normal approximation for large ones, so the era grain is
    /// statistically faithful to the per-request grain.
    pub fn apply_requests(&mut self, cfg: &AnomalyConfig, n: u64, rng: &mut SimRng) {
        self.requests_since_refresh += n;
        let leaks = sample_binomial(n, cfg.leak_prob, rng);
        if leaks > 0 {
            self.leak_events += leaks;
            if leaks <= 32 {
                for _ in 0..leaks {
                    self.leaked_mb += sample_leak_size(cfg, rng);
                }
            } else {
                // Sum of `leaks` i.i.d. log-normals ≈ normal by CLT.
                let mean = leaks as f64 * cfg.leak_size_mb;
                let sd = (leaks as f64).sqrt() * cfg.leak_size_mb * cfg.leak_size_cv;
                self.leaked_mb += rng.normal(mean, sd).max(0.0);
            }
        }
        let threads = sample_binomial(n, cfg.thread_prob, rng);
        self.stuck_threads = self
            .stuck_threads
            .saturating_add(threads.min(u32::MAX as u64) as u32);
    }
}

/// One leak event's size: log-normal with mean `leak_size_mb` and coefficient
/// of variation `leak_size_cv` (degenerate at the mean when cv = 0).
fn sample_leak_size(cfg: &AnomalyConfig, rng: &mut SimRng) -> f64 {
    if cfg.leak_size_cv == 0.0 || cfg.leak_size_mb == 0.0 {
        return cfg.leak_size_mb;
    }
    // For a log-normal, mean = exp(mu + sigma^2/2) and cv^2 = exp(sigma^2)-1.
    let sigma2 = (1.0 + cfg.leak_size_cv * cfg.leak_size_cv).ln();
    let mu = cfg.leak_size_mb.ln() - sigma2 / 2.0;
    rng.log_normal(mu, sigma2.sqrt())
}

/// Draws from Binomial(n, p). Exact Bernoulli loop for small n, normal
/// approximation (rounded, clamped) when n·p·(1-p) is large enough for the
/// CLT to hold.
pub fn sample_binomial(n: u64, p: f64, rng: &mut SimRng) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let npq = n as f64 * p * (1.0 - p);
    if n <= 64 || npq < 25.0 {
        (0..n).filter(|_| rng.bernoulli(p)).count() as u64
    } else {
        let mean = n as f64 * p;
        let draw = rng.normal(mean, npq.sqrt()).round();
        draw.clamp(0.0, n as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_probabilities() {
        let cfg = AnomalyConfig::default();
        assert_eq!(cfg.leak_prob, 0.10);
        assert_eq!(cfg.thread_prob, 0.05);
        cfg.validate().unwrap();
    }

    #[test]
    fn none_config_injects_nothing() {
        let cfg = AnomalyConfig::none();
        let mut st = AnomalyState::fresh();
        let mut rng = SimRng::new(1);
        for _ in 0..1000 {
            assert!(!st.apply_request(&cfg, &mut rng));
        }
        assert_eq!(st.leaked_mb, 0.0);
        assert_eq!(st.stuck_threads, 0);
        assert_eq!(st.requests_since_refresh, 1000);
    }

    #[test]
    fn per_request_rates_match_probabilities() {
        let cfg = AnomalyConfig::default();
        let mut st = AnomalyState::fresh();
        let mut rng = SimRng::new(2);
        let n = 100_000;
        for _ in 0..n {
            st.apply_request(&cfg, &mut rng);
        }
        let leak_rate = st.leak_events as f64 / n as f64;
        let thread_rate = st.stuck_threads as f64 / n as f64;
        assert!((leak_rate - 0.10).abs() < 0.01, "leak rate {leak_rate}");
        assert!(
            (thread_rate - 0.05).abs() < 0.01,
            "thread rate {thread_rate}"
        );
        // Mean leaked memory per request ≈ leak_prob × leak_size = 0.8 MiB.
        let per_req = st.leaked_mb / n as f64;
        assert!((per_req - 0.80).abs() < 0.08, "leak MiB/request {per_req}");
    }

    #[test]
    fn era_grain_matches_request_grain_statistically() {
        let cfg = AnomalyConfig::default();
        let mut rng = SimRng::new(3);
        let mut fine = AnomalyState::fresh();
        for _ in 0..50_000 {
            fine.apply_request(&cfg, &mut rng);
        }
        let mut coarse = AnomalyState::fresh();
        coarse.apply_requests(&cfg, 50_000, &mut rng);
        let rel = (fine.leaked_mb - coarse.leaked_mb).abs() / fine.leaked_mb;
        assert!(
            rel < 0.05,
            "leaked {} vs {}",
            fine.leaked_mb,
            coarse.leaked_mb
        );
        let t_rel = (fine.stuck_threads as f64 - coarse.stuck_threads as f64).abs()
            / fine.stuck_threads as f64;
        assert!(
            t_rel < 0.1,
            "threads {} vs {}",
            fine.stuck_threads,
            coarse.stuck_threads
        );
    }

    #[test]
    fn reset_clears_everything() {
        let cfg = AnomalyConfig::default();
        let mut st = AnomalyState::fresh();
        let mut rng = SimRng::new(4);
        st.apply_requests(&cfg, 10_000, &mut rng);
        assert!(st.leaked_mb > 0.0);
        st.reset();
        assert_eq!(st, AnomalyState::fresh());
    }

    #[test]
    fn resident_and_burn_accounting() {
        let cfg = AnomalyConfig::default();
        let st = AnomalyState {
            leaked_mb: 100.0,
            stuck_threads: 20,
            leak_events: 100,
            requests_since_refresh: 1000,
        };
        let resident = st.anomaly_resident_mb(&cfg);
        assert!((resident - (100.0 + 20.0 * cfg.thread_stack_mb)).abs() < 1e-12);
        assert!((st.cpu_burn(&cfg) - 20.0 * cfg.thread_cpu_burn).abs() < 1e-12);
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = SimRng::new(5);
        assert_eq!(sample_binomial(0, 0.5, &mut rng), 0);
        assert_eq!(sample_binomial(100, 0.0, &mut rng), 0);
        assert_eq!(sample_binomial(100, 1.0, &mut rng), 100);
        for _ in 0..100 {
            let x = sample_binomial(10, 0.5, &mut rng);
            assert!(x <= 10);
        }
    }

    #[test]
    fn binomial_mean_matches_both_regimes() {
        let mut rng = SimRng::new(6);
        // Small-n exact regime.
        let small: u64 = (0..20_000)
            .map(|_| sample_binomial(40, 0.1, &mut rng))
            .sum();
        let small_mean = small as f64 / 20_000.0;
        assert!((small_mean - 4.0).abs() < 0.1, "small mean {small_mean}");
        // Large-n normal regime.
        let large: u64 = (0..2_000)
            .map(|_| sample_binomial(10_000, 0.1, &mut rng))
            .sum();
        let large_mean = large as f64 / 2_000.0;
        assert!((large_mean - 1000.0).abs() < 5.0, "large mean {large_mean}");
    }

    #[test]
    fn leak_size_mean_is_calibrated() {
        let cfg = AnomalyConfig {
            leak_size_mb: 2.0,
            leak_size_cv: 0.5,
            ..AnomalyConfig::default()
        };
        let mut rng = SimRng::new(7);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| sample_leak_size(&cfg, &mut rng)).sum();
        let mean = total / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean leak {mean}");
    }

    #[test]
    fn zero_cv_leak_is_deterministic() {
        let cfg = AnomalyConfig {
            leak_size_mb: 3.0,
            leak_size_cv: 0.0,
            ..AnomalyConfig::default()
        };
        let mut rng = SimRng::new(8);
        assert_eq!(sample_leak_size(&cfg, &mut rng), 3.0);
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        let cfg = AnomalyConfig {
            leak_prob: 1.5,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = AnomalyConfig {
            leak_prob: -0.1,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = AnomalyConfig {
            leak_size_cv: -1.0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }
}
