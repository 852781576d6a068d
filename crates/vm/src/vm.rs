//! VM lifecycle and load processing.
//!
//! PCAM keeps some VMs hosting server replicas **ACTIVE** and others
//! **STANDBY**; when a VM's predicted RTTF drops below the user threshold
//! the controller sends the failing VM a REJUVENATE command and a standby an
//! ACTIVATE command (paper Sec. III). [`Vm`] implements that lifecycle plus
//! era-grain load processing, feature extraction, and ground-truth RTTF.

use crate::anomaly::{AnomalyConfig, AnomalyState};
use crate::failure::{FailureCause, FailureSpec};
use crate::features::{FeatureVec, FEATURE_COUNT};
use crate::flavor::VmFlavor;
use crate::service::{self, EraOutcome};
use acm_sim::rng::SimRng;
use acm_sim::time::{Duration, SimTime};
use std::sync::Arc;

/// Identifier of a VM, unique within a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub u32);

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// Lifecycle state of a VM replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VmState {
    /// Serving requests.
    Active,
    /// Healthy spare, not serving.
    Standby,
    /// Undergoing software rejuvenation until the given instant.
    Rejuvenating {
        /// Instant at which rejuvenation completes (VM becomes standby).
        until: SimTime,
    },
    /// Reached its failure point at the given instant (reactive recovery —
    /// the situation proactive rejuvenation is meant to avoid).
    Failed {
        /// Instant of failure.
        at: SimTime,
        /// Which predicate fired.
        cause: FailureCause,
    },
}

/// What the VMs of one region have in common — flavor, anomaly injection
/// and failure point — validated once and shared: a pool holds one
/// `Arc<VmSpec>` and each of its [`Vm`]s a pointer to it.
#[derive(Debug)]
pub struct VmSpec {
    flavor: VmFlavor,
    anomaly_cfg: AnomalyConfig,
    failure_spec: FailureSpec,
}

impl VmSpec {
    /// Bundles the three region constants. Panics on an invalid one.
    pub fn new(flavor: VmFlavor, anomaly_cfg: AnomalyConfig, failure_spec: FailureSpec) -> Self {
        flavor.validate().expect("invalid flavor");
        anomaly_cfg.validate().expect("invalid anomaly config");
        failure_spec.validate().expect("invalid failure spec");
        VmSpec {
            flavor,
            anomaly_cfg,
            failure_spec,
        }
    }

    /// The VM type.
    pub fn flavor(&self) -> &VmFlavor {
        &self.flavor
    }

    /// The anomaly-injection configuration.
    pub fn anomaly_config(&self) -> &AnomalyConfig {
        &self.anomaly_cfg
    }

    /// The failure-point definition.
    pub fn failure_spec(&self) -> &FailureSpec {
        &self.failure_spec
    }
}

/// A simulated server-replica VM: a pointer to what it shares with its
/// region ([`VmSpec`]) plus what differs between VMs.
#[derive(Debug, Clone)]
pub struct Vm {
    id: VmId,
    spec: Arc<VmSpec>,
    state: VmState,
    anomaly: AnomalyState,
    /// Instant of the last boot or rejuvenation completion.
    last_refresh: SimTime,
    /// Total completed requests over the VM's life (all epochs).
    total_completed: u64,
    /// Number of rejuvenations performed.
    rejuvenation_count: u64,
    /// Number of (reactive) failures suffered.
    failure_count: u64,
    /// Mean response time of the most recent era since the last refresh
    /// (the response-time feature; 0 before the first era and when idle).
    last_response_s: f64,
    rng: SimRng,
}

impl Vm {
    /// Creates a VM with a spec of its own, in the given initial state at
    /// time zero. Panics on an invalid flavor, anomaly config or failure
    /// spec.
    pub fn new(
        id: VmId,
        flavor: VmFlavor,
        anomaly_cfg: AnomalyConfig,
        failure_spec: FailureSpec,
        state: VmState,
        rng: SimRng,
    ) -> Self {
        let spec = VmSpec::new(flavor, anomaly_cfg, failure_spec);
        Vm::with_spec(id, Arc::new(spec), state, rng)
    }

    /// Creates a VM of a shared spec (one allocation per pool, not per VM)
    /// in the given initial state at time zero.
    pub fn with_spec(id: VmId, spec: Arc<VmSpec>, state: VmState, rng: SimRng) -> Self {
        Vm {
            id,
            spec,
            state,
            anomaly: AnomalyState::fresh(),
            last_refresh: SimTime::ZERO,
            total_completed: 0,
            rejuvenation_count: 0,
            failure_count: 0,
            last_response_s: 0.0,
            rng,
        }
    }

    /// VM identifier.
    pub fn id(&self) -> VmId {
        self.id
    }

    /// The VM's flavor.
    pub fn flavor(&self) -> &VmFlavor {
        &self.spec.flavor
    }

    /// Current lifecycle state.
    pub fn state(&self) -> VmState {
        self.state
    }

    /// True when the VM is serving requests.
    pub fn is_active(&self) -> bool {
        matches!(self.state, VmState::Active)
    }

    /// True when the VM is a healthy spare.
    pub fn is_standby(&self) -> bool {
        matches!(self.state, VmState::Standby)
    }

    /// Accumulated anomaly state (read-only; the monitoring agent cannot see
    /// this, but tests and the ground-truth oracle can).
    pub fn anomaly(&self) -> &AnomalyState {
        &self.anomaly
    }

    /// The failure specification in force.
    pub fn failure_spec(&self) -> &FailureSpec {
        &self.spec.failure_spec
    }

    /// The anomaly-injection configuration in force.
    pub fn anomaly_config(&self) -> &AnomalyConfig {
        &self.spec.anomaly_cfg
    }

    /// Seconds since the last refresh (boot or rejuvenation).
    pub fn age(&self, now: SimTime) -> Duration {
        now.saturating_since(self.last_refresh)
    }

    /// Lifetime number of rejuvenations.
    pub fn rejuvenation_count(&self) -> u64 {
        self.rejuvenation_count
    }

    /// Lifetime number of reactive failures.
    pub fn failure_count(&self) -> u64 {
        self.failure_count
    }

    /// Lifetime completed requests.
    pub fn total_completed(&self) -> u64 {
        self.total_completed
    }

    // ----- lifecycle transitions -------------------------------------------

    /// STANDBY → ACTIVE. Panics on an illegal transition.
    pub fn activate(&mut self, now: SimTime) {
        assert!(
            self.is_standby(),
            "{}: ACTIVATE requires STANDBY, was {:?}",
            self.id,
            self.state
        );
        let _ = now;
        self.state = VmState::Active;
    }

    /// ACTIVE → STANDBY (autoscaling deactivation, paper Sec. V). The VM
    /// keeps its accumulated anomaly state — deactivation is not
    /// rejuvenation; a later ACTIVATE resumes from the same damage.
    pub fn deactivate(&mut self, now: SimTime) {
        assert!(
            self.is_active(),
            "{}: DEACTIVATE requires ACTIVE, was {:?}",
            self.id,
            self.state
        );
        let _ = now;
        self.state = VmState::Standby;
    }

    /// ACTIVE (or Failed) → REJUVENATING for `duration`. Clears all anomaly
    /// state when rejuvenation completes (see [`Vm::poll_rejuvenation`]).
    pub fn start_rejuvenation(&mut self, now: SimTime, duration: Duration) {
        assert!(
            matches!(self.state, VmState::Active | VmState::Failed { .. }),
            "{}: REJUVENATE requires ACTIVE or FAILED, was {:?}",
            self.id,
            self.state
        );
        self.state = VmState::Rejuvenating {
            until: now + duration,
        };
        self.rejuvenation_count += 1;
    }

    /// Completes rejuvenation if its deadline has passed: REJUVENATING →
    /// STANDBY with a fresh anomaly state. Returns `true` on transition.
    pub fn poll_rejuvenation(&mut self, now: SimTime) -> bool {
        if let VmState::Rejuvenating { until } = self.state {
            if now >= until {
                self.state = VmState::Standby;
                self.anomaly.reset();
                self.last_refresh = now;
                self.last_response_s = 0.0;
                return true;
            }
        }
        false
    }

    /// Marks the VM failed (reactive path).
    fn fail(&mut self, at: SimTime, cause: FailureCause) {
        self.state = VmState::Failed { at, cause };
        self.failure_count += 1;
    }

    // ----- load processing --------------------------------------------------

    /// Era grain: accounts for one control period of length `era` during
    /// which requests arrived at `lambda` req/s (Poisson). Anomalies
    /// accumulate, the failure point is checked, and the aggregate outcome
    /// is returned. A VM that reaches its failure point mid-era fails at the
    /// ground-truth crossing time and serves nothing afterwards.
    pub fn process_era(&mut self, now: SimTime, era: Duration, lambda: f64) -> EraOutcome {
        let era_s = era.as_secs_f64();
        if !self.is_active() || lambda <= 0.0 {
            self.last_response_s = 0.0;
            return EraOutcome::idle(era_s);
        }
        let VmSpec {
            flavor,
            anomaly_cfg,
            failure_spec,
        } = &*self.spec;

        let mu_start = service::effective_service_rate(flavor, anomaly_cfg, &self.anomaly);

        // Ground truth: does the failure point arrive inside this era?
        let (rttf_s, cause) = failure_spec.true_rttf(flavor, anomaly_cfg, &self.anomaly, lambda);
        let active_s = rttf_s.min(era_s);

        let offered = self.rng.poisson(lambda * era_s);
        let completed = if active_s >= era_s {
            offered
        } else {
            ((offered as f64) * (active_s / era_s)).round() as u64
        };

        self.anomaly
            .apply_requests(anomaly_cfg, completed, &mut self.rng);
        self.total_completed += completed;

        let mu_end = service::effective_service_rate(flavor, anomaly_cfg, &self.anomaly);
        let mean_response_s = if completed == 0 {
            0.0
        } else {
            service::era_response_time(mu_start, mu_end, lambda, era_s, &mut self.rng)
        };
        self.last_response_s = mean_response_s;

        if active_s < era_s {
            let at = now + Duration::from_secs_f64(active_s);
            self.fail(at, cause.expect("finite RTTF implies a cause"));
        }

        EraOutcome {
            offered,
            completed,
            mean_response_s,
            utilization: if mu_start > 0.0 {
                lambda / mu_start
            } else {
                f64::INFINITY
            },
            active_s,
            rttf_s,
        }
    }

    // ----- observation -------------------------------------------------------

    /// The monitoring agent's view: the F2PM feature vector at `now`, given
    /// the VM's current arrival rate.
    pub fn features(&self, now: SimTime, lambda: f64) -> FeatureVec {
        let f = &self.spec.flavor;
        let cfg = &self.spec.anomaly_cfg;
        let resident = service::resident_mb(f, cfg, &self.anomaly);
        let swap = service::swap_used_mb(f, cfg, &self.anomaly);
        let mu = service::effective_service_rate(f, cfg, &self.anomaly);
        let threads = f.baseline_threads as f64 + self.anomaly.stuck_threads as f64;
        let mut v = [0.0; FEATURE_COUNT];
        v[0] = resident;
        v[1] = swap;
        v[2] = resident / (f.ram_mb + f.swap_mb);
        v[3] = threads;
        v[4] = threads / f.max_threads as f64;
        v[5] = if mu > 0.0 {
            (lambda / mu).min(10.0)
        } else {
            10.0
        };
        v[6] = self.last_response_s;
        v[7] = lambda;
        v[8] = self.age(now).as_secs_f64();
        v[9] = self.anomaly.requests_since_refresh as f64;
        v[10] = service::swap_slowdown(f, cfg, &self.anomaly);
        v[11] = (f.ram_mb - resident).max(0.0);
        FeatureVec::new(v)
    }

    /// Ground-truth remaining time to failure at arrival rate `lambda`
    /// (seconds; infinite when the VM will never fail at this rate).
    pub fn true_rttf(&self, lambda: f64) -> f64 {
        let spec = &*self.spec;
        spec.failure_spec
            .true_rttf(&spec.flavor, &spec.anomaly_cfg, &self.anomaly, lambda)
            .0
    }

    /// Ground-truth *mean time to failure* estimate: remaining time plus the
    /// age already survived. For the fluid anomaly model this equals the
    /// fresh-VM MTTF at the current rate, which is what the region-level
    /// RMTTF aggregates (paper Eq. 1 feeds on per-VM MTTF estimates).
    pub fn true_mttf(&self, now: SimTime, lambda: f64) -> f64 {
        let rttf = self.true_rttf(lambda);
        if rttf.is_finite() {
            rttf + self.age(now).as_secs_f64()
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_vm(state: VmState) -> Vm {
        Vm::new(
            VmId(1),
            VmFlavor::m3_medium(),
            AnomalyConfig::default(),
            FailureSpec::default(),
            state,
            SimRng::new(42),
        )
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn a_vm_carries_only_what_differs_between_vms() {
        // The flavor (with its heap name), anomaly config and failure spec
        // sit behind one shared pointer; 14 700 of these are the mega
        // world's live heap.
        assert!(
            std::mem::size_of::<Vm>() <= 144,
            "{} B",
            std::mem::size_of::<Vm>()
        );
        let spec = Arc::new(VmSpec::new(
            VmFlavor::m3_small(),
            AnomalyConfig::default(),
            FailureSpec::default(),
        ));
        let a = Vm::with_spec(VmId(0), spec.clone(), VmState::Active, SimRng::new(1));
        let b = Vm::with_spec(VmId(1), spec.clone(), VmState::Standby, SimRng::new(2));
        assert!(std::ptr::eq(a.flavor(), b.flavor()));
        assert_eq!(a.failure_spec(), spec.failure_spec());
        assert_eq!(b.anomaly_config(), spec.anomaly_config());
    }

    #[test]
    #[should_panic(expected = "invalid failure spec")]
    fn a_non_positive_sla_bound_is_rejected() {
        let spec = FailureSpec {
            sla_response_s: 0.0,
        };
        Vm::new(
            VmId(1),
            VmFlavor::m3_medium(),
            AnomalyConfig::default(),
            spec,
            VmState::Active,
            SimRng::new(42),
        );
    }

    #[test]
    fn era_outcome_carries_the_ground_truth_it_was_decided_on() {
        let mut vm = mk_vm(VmState::Active);
        let rttf = vm.true_rttf(10.0);
        let out = vm.process_era(t(0), Duration::from_secs(30), 10.0);
        assert_eq!(out.rttf_s.to_bits(), rttf.to_bits());
        assert_eq!(
            mk_vm(VmState::Standby)
                .process_era(t(0), Duration::from_secs(30), 10.0)
                .rttf_s,
            f64::INFINITY
        );
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut vm = mk_vm(VmState::Standby);
        assert!(vm.is_standby());
        vm.activate(t(0));
        assert!(vm.is_active());
        vm.start_rejuvenation(t(100), Duration::from_secs(60));
        assert!(matches!(vm.state(), VmState::Rejuvenating { .. }));
        assert!(!vm.poll_rejuvenation(t(120)), "too early");
        assert!(vm.poll_rejuvenation(t(160)));
        assert!(vm.is_standby());
        assert_eq!(vm.rejuvenation_count(), 1);
    }

    #[test]
    #[should_panic(expected = "ACTIVATE requires STANDBY")]
    fn activate_from_active_panics() {
        let mut vm = mk_vm(VmState::Active);
        vm.activate(t(0));
    }

    #[test]
    fn rejuvenation_resets_anomalies_and_age() {
        let mut vm = mk_vm(VmState::Active);
        vm.process_era(t(0), Duration::from_secs(30), 10.0);
        assert!(vm.anomaly().leaked_mb > 0.0);
        vm.start_rejuvenation(t(30), Duration::from_secs(60));
        vm.poll_rejuvenation(t(90));
        assert_eq!(vm.anomaly().leaked_mb, 0.0);
        assert_eq!(vm.age(t(90)), Duration::ZERO);
        assert_eq!(vm.age(t(150)), Duration::from_secs(60));
    }

    #[test]
    fn era_processing_accumulates_and_reports() {
        let mut vm = mk_vm(VmState::Active);
        let out = vm.process_era(t(0), Duration::from_secs(30), 10.0);
        // ~300 requests offered.
        assert!(
            out.offered > 200 && out.offered < 400,
            "offered {}",
            out.offered
        );
        assert_eq!(out.offered, out.completed);
        assert!(out.mean_response_s > 0.0 && out.mean_response_s < 0.1);
        assert!(out.utilization > 0.1 && out.utilization < 0.4);
        assert!(vm.anomaly().leaked_mb > 0.0);
        assert!(vm.anomaly().stuck_threads > 0);
    }

    #[test]
    fn idle_era_for_standby_vm() {
        let mut vm = mk_vm(VmState::Standby);
        let out = vm.process_era(t(0), Duration::from_secs(30), 10.0);
        assert_eq!(out.offered, 0);
        assert_eq!(vm.anomaly().requests_since_refresh, 0);
    }

    #[test]
    fn vm_fails_mid_era_when_rttf_short() {
        let mut vm = mk_vm(VmState::Active);
        // Run eras until the VM fails (no rejuvenation).
        let era = Duration::from_secs(30);
        let mut now = t(0);
        let mut failed_at = None;
        for _ in 0..200 {
            vm.process_era(now, era, 15.0);
            if let VmState::Failed { at, .. } = vm.state() {
                failed_at = Some(at);
                break;
            }
            now += era;
        }
        let at = failed_at.expect("VM should eventually fail under sustained load");
        // MTTF at λ=15 for m3.medium is in the 200–600 s band.
        let secs = at.as_secs_f64();
        assert!(secs > 100.0 && secs < 1000.0, "failed at {secs}");
        assert_eq!(vm.failure_count(), 1);
        // A failed VM serves nothing.
        let out = vm.process_era(now, era, 15.0);
        assert_eq!(out.offered, 0);
    }

    #[test]
    fn failed_vm_can_rejuvenate() {
        let mut vm = mk_vm(VmState::Active);
        let era = Duration::from_secs(30);
        let mut now = t(0);
        while !matches!(vm.state(), VmState::Failed { .. }) {
            vm.process_era(now, era, 20.0);
            now += era;
        }
        vm.start_rejuvenation(now, Duration::from_secs(60));
        assert!(vm.poll_rejuvenation(now + Duration::from_secs(60)));
        assert!(vm.is_standby());
    }

    #[test]
    fn features_reflect_state() {
        let mut vm = mk_vm(VmState::Active);
        let f0 = vm.features(t(0), 10.0);
        vm.process_era(t(0), Duration::from_secs(30), 10.0);
        let f1 = vm.features(t(30), 10.0);
        assert!(f1.get("resident_mb").unwrap() > f0.get("resident_mb").unwrap());
        assert!(f1.get("threads").unwrap() >= f0.get("threads").unwrap());
        assert!(f1.get("age_s").unwrap() == 30.0);
        assert!(f1.get("requests_total").unwrap() > 0.0);
        assert!(f1.get("response_time_s").unwrap() > 0.0);
        assert!(f1.is_finite());
    }

    #[test]
    fn true_rttf_shrinks_over_eras() {
        let mut vm = mk_vm(VmState::Active);
        let r0 = vm.true_rttf(10.0);
        vm.process_era(t(0), Duration::from_secs(30), 10.0);
        let r1 = vm.true_rttf(10.0);
        assert!(r1 < r0);
        // The drop should be roughly the era length (fluid model).
        let drop = r0 - r1;
        assert!(drop > 10.0 && drop < 60.0, "drop {drop}");
    }

    #[test]
    fn true_mttf_is_roughly_stable_during_life() {
        let mut vm = mk_vm(VmState::Active);
        let mut now = t(0);
        let era = Duration::from_secs(30);
        let m0 = vm.true_mttf(now, 10.0);
        for _ in 0..5 {
            vm.process_era(now, era, 10.0);
            now += era;
        }
        let m1 = vm.true_mttf(now, 10.0);
        let rel = (m1 - m0).abs() / m0;
        assert!(rel < 0.15, "MTTF drifted {m0} -> {m1}");
    }
}
