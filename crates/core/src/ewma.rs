//! The RMTTF exponentially-weighted moving average (paper Eq. 1).
//!
//! When the leader VMC receives `lastRMTTF_i` at time `t`, the current
//! RMTTF of region `i` is recalculated as
//!
//! ```text
//! RMTTF_i^t = (1 − β) · RMTTF_i^{t−1} + β · lastRMTTF_i,   0 ≤ β ≤ 1.
//! ```
//!
//! Small β smooths aggressively (slow, stable); β = 1 trusts the newest
//! report entirely (fast, noisy). The `ablation beta` sweep measures this
//! trade-off.

/// One region's smoothed RMTTF estimate held by the leader.
///
/// ```
/// use acm_core::ewma::RmttfEwma;
/// let mut e = RmttfEwma::new(0.25);
/// e.update(100.0);                       // first report initialises
/// assert_eq!(e.update(200.0), 125.0);    // 0.75·100 + 0.25·200
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmttfEwma {
    beta: f64,
    value: Option<f64>,
}

impl RmttfEwma {
    /// Creates an estimator with smoothing factor `β ∈ [0, 1]`.
    pub fn new(beta: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&beta),
            "beta must be in [0,1], got {beta}"
        );
        RmttfEwma { beta, value: None }
    }

    /// The smoothing factor.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Feeds one `lastRMTTF` report and returns the updated estimate. The
    /// first report initialises the estimate directly (there is no previous
    /// value to blend with).
    pub fn update(&mut self, last_rmttf: f64) -> f64 {
        debug_assert!(last_rmttf.is_finite() && last_rmttf >= 0.0);
        let next = match self.value {
            None => last_rmttf,
            Some(prev) => (1.0 - self.beta) * prev + self.beta * last_rmttf,
        };
        self.value = Some(next);
        next
    }

    /// Current estimate (`None` before the first report).
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Current estimate, defaulting to 0 before the first report.
    pub fn value_or_zero(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_report_initialises() {
        let mut e = RmttfEwma::new(0.3);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(100.0), 100.0);
        assert_eq!(e.value(), Some(100.0));
    }

    #[test]
    fn blends_per_equation_one() {
        let mut e = RmttfEwma::new(0.25);
        e.update(100.0);
        // (1-0.25)*100 + 0.25*200 = 125.
        assert!((e.update(200.0) - 125.0).abs() < 1e-12);
    }

    #[test]
    fn beta_one_tracks_exactly() {
        let mut e = RmttfEwma::new(1.0);
        e.update(100.0);
        assert_eq!(e.update(42.0), 42.0);
    }

    #[test]
    fn beta_zero_freezes_after_first() {
        let mut e = RmttfEwma::new(0.0);
        e.update(100.0);
        assert_eq!(e.update(9999.0), 100.0);
    }

    #[test]
    fn estimate_stays_within_input_hull() {
        let mut e = RmttfEwma::new(0.4);
        let inputs = [50.0, 300.0, 120.0, 80.0, 210.0];
        for &x in &inputs {
            let v = e.update(x);
            assert!((50.0..=300.0).contains(&v), "escaped hull: {v}");
        }
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = RmttfEwma::new(0.3);
        e.update(1000.0);
        for _ in 0..100 {
            e.update(500.0);
        }
        assert!((e.value_or_zero() - 500.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn invalid_beta_panics() {
        let _ = RmttfEwma::new(1.5);
    }

    #[test]
    fn smaller_beta_reacts_slower() {
        let mut fast = RmttfEwma::new(0.8);
        let mut slow = RmttfEwma::new(0.1);
        fast.update(100.0);
        slow.update(100.0);
        fast.update(200.0);
        slow.update(200.0);
        assert!(fast.value_or_zero() > slow.value_or_zero());
    }
}
