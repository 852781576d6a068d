//! Autoscaling (paper Alg. 3 line 6–8 and Sec. V).
//!
//! Two triggers, both local to a region's VMC:
//!
//! * **ADDVMS** — "if Predicted Response Time > threshold" the controller
//!   adds capacity: it provisions a standby VM and raises the active
//!   target.
//! * **RMTTF thresholds** — "If the RMTTF of a cloud region becomes less
//!   (more) than a given threshold, then the local controller can activate
//!   new VMs (deactivate some active VMs)".
//!
//! A cooldown keeps the controller from thrashing: capacity changes take
//! one rejuvenation-time to materialise, so back-to-back decisions on the
//! same signal would double-provision.

use acm_pcam::Vmc;
use acm_sim::time::SimTime;

/// Autoscaling thresholds and pacing.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleConfig {
    /// Enable the controller (the fig3/fig4 reproduction keeps region
    /// sizes fixed as in the paper, so it defaults off).
    pub enabled: bool,
    /// ADDVMS when the region's predicted response time exceeds this.
    pub response_threshold_s: f64,
    /// Activate capacity when the region RMTTF falls below this (seconds).
    pub rmttf_low_s: f64,
    /// Release capacity when the region RMTTF exceeds this (seconds).
    pub rmttf_high_s: f64,
    /// Minimum eras between scaling decisions per region.
    pub cooldown_eras: u32,
    /// Hard cap on VMs a region may grow to.
    pub max_vms: usize,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            enabled: false,
            response_threshold_s: 0.8,
            rmttf_low_s: 180.0,
            rmttf_high_s: 3600.0,
            cooldown_eras: 4,
            max_vms: 32,
        }
    }
}

impl AutoscaleConfig {
    /// Checks the thresholds: all finite and positive (a NaN threshold
    /// would silently never fire), and a low RMTTF mark strictly below the
    /// high one (otherwise the region scales up and down on alternate
    /// cooldowns).
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("response_threshold_s", self.response_threshold_s),
            ("rmttf_low_s", self.rmttf_low_s),
            ("rmttf_high_s", self.rmttf_high_s),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("autoscale {name} must be finite and positive: {v}"));
            }
        }
        if self.rmttf_low_s >= self.rmttf_high_s {
            return Err(format!(
                "autoscale rmttf_low_s ({}) must be below rmttf_high_s ({})",
                self.rmttf_low_s, self.rmttf_high_s
            ));
        }
        if self.max_vms == 0 {
            return Err("autoscale max_vms must be at least 1".into());
        }
        Ok(())
    }
}

/// What the autoscaler did for one region in one era.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Nothing to do (or disabled / cooling down).
    None,
    /// Added one VM and raised the active target.
    ScaledUp,
    /// Lowered the active target and retired a standby.
    ScaledDown,
}

/// Per-region autoscaling state.
#[derive(Debug, Clone, Default)]
pub struct Autoscaler {
    eras_since_action: u32,
    ups: u64,
    downs: u64,
}

impl Autoscaler {
    /// Creates an idle autoscaler.
    pub fn new() -> Self {
        Autoscaler::default()
    }

    /// Lifetime scale-up count.
    pub fn ups(&self) -> u64 {
        self.ups
    }

    /// Lifetime scale-down count.
    pub fn downs(&self) -> u64 {
        self.downs
    }

    /// Runs one autoscaling decision for `vmc` given the era's predicted
    /// response time and the region RMTTF estimate.
    pub fn step(
        &mut self,
        cfg: &AutoscaleConfig,
        vmc: &mut Vmc,
        now: SimTime,
        predicted_response_s: f64,
        rmttf_s: f64,
    ) -> ScaleAction {
        self.eras_since_action = self.eras_since_action.saturating_add(1);
        if !cfg.enabled || self.eras_since_action <= cfg.cooldown_eras {
            return ScaleAction::None;
        }

        let pool_total = vmc.pool().counts().total();
        let target = vmc.pool().target_active();

        // Scale up on slow responses (Alg. 3 ADDVMS) or dangerously low
        // RMTTF (Sec. V).
        if (predicted_response_s > cfg.response_threshold_s || rmttf_s < cfg.rmttf_low_s)
            && pool_total < cfg.max_vms
        {
            vmc.pool_mut().add_vm();
            vmc.pool_mut().set_target_active(target + 1);
            vmc.pool_mut().replenish_active(now);
            self.eras_since_action = 0;
            self.ups += 1;
            return ScaleAction::ScaledUp;
        }

        // Scale down when the region is far healthier than needed and fast.
        if rmttf_s > cfg.rmttf_high_s
            && predicted_response_s < 0.5 * cfg.response_threshold_s
            && target > 1
        {
            vmc.pool_mut().set_target_active(target - 1);
            // Retire a spare if one exists so the pool does not hoard VMs.
            let _ = vmc.pool_mut().remove_standby();
            self.eras_since_action = 0;
            self.downs += 1;
            return ScaleAction::ScaledDown;
        }
        ScaleAction::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acm_pcam::{RegionConfig, RttfSource};
    use acm_sim::rng::SimRng;
    use acm_vm::VmFlavor;

    fn mk_vmc() -> Vmc {
        Vmc::new(
            RegionConfig::new("r", VmFlavor::m3_medium(), 4, 2),
            RttfSource::Oracle,
            SimRng::new(1),
        )
    }

    fn enabled() -> AutoscaleConfig {
        AutoscaleConfig {
            enabled: true,
            cooldown_eras: 0,
            ..Default::default()
        }
    }

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn disabled_never_acts() {
        let mut vmc = mk_vmc();
        let mut scaler = Autoscaler::new();
        let cfg = AutoscaleConfig::default();
        let a = scaler.step(&cfg, &mut vmc, t0(), 10.0, 1.0);
        assert_eq!(a, ScaleAction::None);
        assert_eq!(vmc.pool().counts().total(), 4);
    }

    #[test]
    fn slow_responses_trigger_addvms() {
        let mut vmc = mk_vmc();
        let mut scaler = Autoscaler::new();
        let a = scaler.step(&enabled(), &mut vmc, t0(), 1.5, 1000.0);
        assert_eq!(a, ScaleAction::ScaledUp);
        assert_eq!(vmc.pool().counts().total(), 5);
        assert_eq!(vmc.pool().target_active(), 3);
        assert_eq!(vmc.pool().counts().active, 3);
        assert_eq!(scaler.ups(), 1);
    }

    #[test]
    fn low_rmttf_triggers_scale_up() {
        let mut vmc = mk_vmc();
        let mut scaler = Autoscaler::new();
        let a = scaler.step(&enabled(), &mut vmc, t0(), 0.1, 60.0);
        assert_eq!(a, ScaleAction::ScaledUp);
    }

    #[test]
    fn healthy_fast_region_scales_down() {
        let mut vmc = mk_vmc();
        let mut scaler = Autoscaler::new();
        let a = scaler.step(&enabled(), &mut vmc, t0(), 0.05, 10_000.0);
        assert_eq!(a, ScaleAction::ScaledDown);
        assert_eq!(vmc.pool().target_active(), 1);
        assert_eq!(scaler.downs(), 1);
    }

    #[test]
    fn cooldown_throttles_consecutive_actions() {
        let mut vmc = mk_vmc();
        let mut scaler = Autoscaler::new();
        let cfg = AutoscaleConfig {
            enabled: true,
            cooldown_eras: 3,
            ..Default::default()
        };
        // Needs cooldown_eras+1 calls before the first action fires.
        assert_eq!(
            scaler.step(&cfg, &mut vmc, t0(), 1.5, 1000.0),
            ScaleAction::None
        );
        assert_eq!(
            scaler.step(&cfg, &mut vmc, t0(), 1.5, 1000.0),
            ScaleAction::None
        );
        assert_eq!(
            scaler.step(&cfg, &mut vmc, t0(), 1.5, 1000.0),
            ScaleAction::None
        );
        assert_eq!(
            scaler.step(&cfg, &mut vmc, t0(), 1.5, 1000.0),
            ScaleAction::ScaledUp
        );
        // Cooldown restarts after the action.
        assert_eq!(
            scaler.step(&cfg, &mut vmc, t0(), 1.5, 1000.0),
            ScaleAction::None
        );
    }

    #[test]
    fn max_vms_caps_growth() {
        let mut vmc = mk_vmc();
        let mut scaler = Autoscaler::new();
        let cfg = AutoscaleConfig {
            enabled: true,
            cooldown_eras: 0,
            max_vms: 5,
            ..Default::default()
        };
        assert_eq!(
            scaler.step(&cfg, &mut vmc, t0(), 2.0, 1000.0),
            ScaleAction::ScaledUp
        );
        assert_eq!(
            scaler.step(&cfg, &mut vmc, t0(), 2.0, 1000.0),
            ScaleAction::None
        );
        assert_eq!(vmc.pool().counts().total(), 5);
    }

    #[test]
    fn never_scales_below_one_active() {
        let mut vmc = Vmc::new(
            RegionConfig::new("r", VmFlavor::m3_medium(), 2, 1),
            RttfSource::Oracle,
            SimRng::new(2),
        );
        let mut scaler = Autoscaler::new();
        assert_eq!(
            scaler.step(&enabled(), &mut vmc, t0(), 0.01, 1e6),
            ScaleAction::None
        );
        assert_eq!(vmc.pool().target_active(), 1);
    }
}
