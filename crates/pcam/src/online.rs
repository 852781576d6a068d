//! Online feature labelling and drift detection (extension).
//!
//! F2PM's initial phase trains the RTTF models once, offline. In a live
//! deployment the anomaly profile can change (a new code release leaks
//! differently), silently invalidating the models. This module provides
//! the two pieces a production VMC needs to notice and recover:
//!
//! * [`OnlineLabeler`] — retroactive labelling: the monitoring agent keeps
//!   every feature snapshot; when a VM reaches its failure point the
//!   snapshots become supervised rows (`RTTF = t_fail − t_snapshot`).
//!   Proactive rejuvenations *censor* their snapshots (the true failure
//!   time was never observed), exactly as in survival analysis.
//! * [`DriftMonitor`] — a sliding-window miss-rate detector: when the
//!   fraction of failures the predictor failed to preempt (reactive
//!   failures) exceeds a bound, the predictor should be retrained on the
//!   freshly labelled data.

use acm_ml::dataset::Dataset;
use acm_sim::time::SimTime;
use acm_vm::{FeatureVec, VmId, FEATURE_NAMES};
use std::collections::BTreeMap;

/// Retroactive labeller for the F2PM feature stream.
#[derive(Debug, Clone)]
pub struct OnlineLabeler {
    /// Each VM's snapshots awaiting an outcome. An outcome empties its
    /// VM's list and keeps it: the VM's next life fills the same buffer.
    pending: BTreeMap<VmId, Vec<(SimTime, FeatureVec)>>,
    /// The rows the latest outcome produced.
    outcome: Vec<(FeatureVec, f64)>,
    db: Dataset,
    dropped_out_of_order: u64,
    dropped_non_finite: u64,
}

impl Default for OnlineLabeler {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineLabeler {
    /// Creates an empty labeller.
    pub fn new() -> Self {
        OnlineLabeler {
            pending: BTreeMap::new(),
            outcome: Vec::new(),
            db: Dataset::new(FEATURE_NAMES),
            dropped_out_of_order: 0,
            dropped_non_finite: 0,
        }
    }

    /// Records a feature snapshot for a VM (call once per era per VM).
    pub fn observe(&mut self, vm: VmId, now: SimTime, features: FeatureVec) {
        self.pending.entry(vm).or_default().push((now, features));
    }

    /// The VM reached its failure point at `at`: every pending snapshot
    /// becomes a labelled row with `RTTF = at − t_snapshot`. Returns the
    /// freshly labelled `(features, rttf)` rows, so shadow evaluation can
    /// score live models on exactly the rows this failure produced.
    pub fn on_failure(&mut self, vm: VmId, at: SimTime) -> &[(FeatureVec, f64)] {
        self.outcome(vm, at, true)
    }

    /// The VM was proactively rejuvenated at `at`: its pending snapshots
    /// are censored — the true failure time was never observed, but the VM
    /// provably survived `at − t_snapshot`. Returns one censored
    /// lower-bound row `(features, survived_at_least_s)` per admitted
    /// snapshot; nothing is stored.
    pub fn on_rejuvenation(&mut self, vm: VmId, at: SimTime) -> &[(FeatureVec, f64)] {
        self.outcome(vm, at, false)
    }

    /// Empties `vm`'s pending snapshots against the outcome instant `at`
    /// into the outcome rows (and, when `label`, the database), counting
    /// (instead of silently discarding) snapshots a buggy feature pipeline
    /// produced: out-of-order timestamps and non-finite features.
    fn outcome(&mut self, vm: VmId, at: SimTime, label: bool) -> &[(FeatureVec, f64)] {
        let OnlineLabeler {
            pending,
            outcome,
            db,
            dropped_out_of_order,
            dropped_non_finite,
        } = self;
        outcome.clear();
        let Some(snapshots) = pending.get_mut(&vm) else {
            return outcome;
        };
        for (t, features) in snapshots.drain(..) {
            if t > at {
                *dropped_out_of_order += 1;
                continue;
            }
            if !features.is_finite() {
                *dropped_non_finite += 1;
                continue;
            }
            let rttf = at.since(t).as_secs_f64();
            if label {
                db.push(features.as_slice(), rttf);
            }
            outcome.push((features, rttf));
        }
        outcome
    }

    /// The labelled database harvested so far.
    pub fn database(&self) -> &Dataset {
        &self.db
    }

    /// Labelled rows available for retraining.
    pub fn labelled_rows(&self) -> usize {
        self.db.len()
    }

    /// Snapshots dropped because they post-dated their VM's outcome.
    pub fn dropped_out_of_order(&self) -> u64 {
        self.dropped_out_of_order
    }

    /// Snapshots dropped because the feature vector was not finite.
    pub fn dropped_non_finite(&self) -> u64 {
        self.dropped_non_finite
    }
}

/// Configuration of the per-region [`DriftMonitor`], lifted out of the
/// construction site so deployments can tune the detector. The defaults
/// reproduce the historical hard-coded values byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Sliding window length (end-of-life events remembered).
    pub window: usize,
    /// Declare drift when the reactive miss fraction exceeds this.
    pub miss_bound: f64,
    /// Minimum observations before drift can be declared.
    pub min_samples: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window: 32,
            miss_bound: 0.5,
            min_samples: 8,
        }
    }
}

impl DriftConfig {
    /// Sanity-checks the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("drift window must be > 0".into());
        }
        if !(self.miss_bound > 0.0 && self.miss_bound <= 1.0) {
            return Err(format!(
                "drift miss_bound out of (0, 1]: {}",
                self.miss_bound
            ));
        }
        if self.min_samples == 0 || self.min_samples > self.window {
            return Err(format!(
                "drift min_samples out of [1, window]: {}",
                self.min_samples
            ));
        }
        Ok(())
    }

    /// Builds the monitor this configuration describes.
    pub fn monitor(&self) -> DriftMonitor {
        DriftMonitor::new(self.window, self.miss_bound, self.min_samples)
    }
}

/// Sliding-window predictor-miss detector.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    /// Ring buffer of recent failure outcomes: `true` = reactive (missed).
    window: Vec<bool>,
    capacity: usize,
    next: usize,
    filled: usize,
    /// Declare drift when the miss fraction exceeds this (with a full
    /// enough window).
    miss_bound: f64,
    /// Minimum observations before drift can be declared.
    min_samples: usize,
}

impl DriftMonitor {
    /// Creates a monitor over the last `capacity` failure events, flagging
    /// drift when more than `miss_bound` of them were reactive.
    pub fn new(capacity: usize, miss_bound: f64, min_samples: usize) -> Self {
        assert!(capacity > 0 && (0.0..=1.0).contains(&miss_bound));
        assert!(min_samples > 0 && min_samples <= capacity);
        DriftMonitor {
            window: vec![false; capacity],
            capacity,
            next: 0,
            filled: 0,
            miss_bound,
            min_samples,
        }
    }

    /// Records one end-of-life event: `reactive = true` when the VM failed
    /// before the predictor acted.
    pub fn record(&mut self, reactive: bool) {
        self.window[self.next] = reactive;
        self.next = (self.next + 1) % self.capacity;
        self.filled = (self.filled + 1).min(self.capacity);
    }

    /// Forgets every recorded outcome, as a fresh monitor would. Called
    /// when the serving model is swapped: the window then judges only the
    /// model that serves, and `min_samples` is its warm-up.
    pub fn reset(&mut self) {
        self.window.fill(false);
        self.next = 0;
        self.filled = 0;
    }

    /// Fraction of recent end-of-life events the predictor missed.
    pub fn miss_rate(&self) -> f64 {
        if self.filled == 0 {
            return 0.0;
        }
        let misses = self.window[..self.filled].iter().filter(|m| **m).count();
        misses as f64 / self.filled as f64
    }

    /// True when enough evidence has accumulated that the deployed
    /// predictor no longer fits the environment.
    pub fn drifted(&self) -> bool {
        self.filled >= self.min_samples && self.miss_rate() > self.miss_bound
    }

    /// [`DriftMonitor::record`] plus causal instrumentation: when this
    /// observation flips the monitor into the drifted state on a tracing
    /// hub, a root `drift.signal` span/event is opened (drift is a first
    /// cause, like a fault) and its context returned so retraining can be
    /// chained off it. Inert on non-tracing hubs — the event stream stays
    /// byte-identical to an untraced run.
    pub fn record_with_obs(
        &mut self,
        reactive: bool,
        obs: &acm_obs::ObsHandle,
        t_us: u64,
        region: &std::sync::Arc<str>,
    ) -> Option<acm_obs::TraceContext> {
        let was_drifted = self.drifted();
        self.record(reactive);
        if !was_drifted && self.drifted() && obs.trace_enabled() {
            return obs.emit_caused(
                t_us,
                "drift.signal",
                vec![
                    ("region", acm_obs::Value::from(region)),
                    ("miss_rate", acm_obs::Value::from(self.miss_rate())),
                ],
                None,
            );
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acm_ml::model::ModelKind;
    use acm_ml::toolchain::F2pmToolchain;
    use acm_sim::rng::SimRng;
    use acm_sim::time::Duration;
    use acm_vm::{AnomalyConfig, FailureSpec, Vm, VmFlavor, VmState};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn snapshot(vm: &Vm, now: SimTime, lambda: f64) -> FeatureVec {
        vm.features(now, lambda)
    }

    #[test]
    fn failure_labels_all_pending_snapshots() {
        let mut labeler = OnlineLabeler::new();
        let vm_id = VmId(1);
        let vm = Vm::new(
            vm_id,
            VmFlavor::m3_medium(),
            AnomalyConfig::default(),
            FailureSpec::default(),
            VmState::Active,
            SimRng::new(1),
        );
        labeler.observe(vm_id, t(0), snapshot(&vm, t(0), 10.0));
        labeler.observe(vm_id, t(30), snapshot(&vm, t(30), 10.0));
        assert_eq!(labeler.pending.values().map(Vec::len).sum::<usize>(), 2);
        let labelled = labeler.on_failure(vm_id, t(100));
        assert_eq!(labelled.len(), 2);
        assert_eq!(labeler.labelled_rows(), 2);
        // Labels are the true remaining times.
        let mut targets = labeler.database().targets().to_vec();
        targets.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(targets, vec![70.0, 100.0]);
    }

    #[test]
    fn rejuvenation_censors() {
        let mut labeler = OnlineLabeler::new();
        let vm = VmId(2);
        labeler.observe(vm, t(10), FeatureVec::new([1.0; acm_vm::FEATURE_COUNT]));
        let rows = labeler.on_rejuvenation(vm, t(40)).to_vec();
        assert_eq!(labeler.labelled_rows(), 0);
        // The snapshot comes back as a censored lower bound, not dropped:
        // the VM provably survived 30 s past the snapshot.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0.as_slice(), &[1.0; acm_vm::FEATURE_COUNT]);
        assert_eq!(rows[0].1, 30.0);
        // A later failure report for the same VM labels nothing.
        assert!(labeler.on_failure(vm, t(50)).is_empty());
    }

    #[test]
    fn bad_snapshots_are_counted_not_silently_dropped() {
        let mut labeler = OnlineLabeler::new();
        let vm = VmId(3);
        // Good, out-of-order (post-dates the failure), and non-finite rows.
        labeler.observe(vm, t(0), FeatureVec::new([1.0; acm_vm::FEATURE_COUNT]));
        labeler.observe(vm, t(200), FeatureVec::new([1.0; acm_vm::FEATURE_COUNT]));
        labeler.observe(vm, t(1), FeatureVec::new([f64::NAN; acm_vm::FEATURE_COUNT]));
        let rows = labeler.on_failure(vm, t(100));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, 100.0);
        assert_eq!(labeler.dropped_out_of_order(), 1);
        assert_eq!(labeler.dropped_non_finite(), 1);

        // The same admission filter guards censored rows: both snapshots
        // are censored, both are dropped and counted, and neither is
        // labelled.
        let vm2 = VmId(4);
        labeler.observe(vm2, t(300), FeatureVec::new([1.0; acm_vm::FEATURE_COUNT]));
        labeler.observe(
            vm2,
            t(2),
            FeatureVec::new([f64::INFINITY; acm_vm::FEATURE_COUNT]),
        );
        let rows = labeler.on_rejuvenation(vm2, t(250));
        assert!(rows.is_empty());
        assert_eq!(labeler.labelled_rows(), 1);
        assert!(labeler.on_failure(vm2, t(400)).is_empty());
        assert_eq!(labeler.dropped_out_of_order(), 2);
        assert_eq!(labeler.dropped_non_finite(), 2);
    }

    #[test]
    fn drift_config_validates_and_matches_legacy_monitor() {
        let cfg = DriftConfig::default();
        cfg.validate().unwrap();
        // Defaults reproduce the historical hard-coded construction.
        let m = cfg.monitor();
        assert_eq!(m.capacity, 32);
        assert_eq!(m.miss_bound, 0.5);
        assert_eq!(m.min_samples, 8);

        assert!(DriftConfig {
            window: 0,
            ..DriftConfig::default()
        }
        .validate()
        .is_err());
        assert!(DriftConfig {
            miss_bound: 0.0,
            ..DriftConfig::default()
        }
        .validate()
        .is_err());
        assert!(DriftConfig {
            miss_bound: 1.5,
            ..DriftConfig::default()
        }
        .validate()
        .is_err());
        assert!(DriftConfig {
            min_samples: 64,
            ..DriftConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn drift_monitor_flags_sustained_misses() {
        let mut m = DriftMonitor::new(10, 0.5, 5);
        for _ in 0..4 {
            m.record(true);
        }
        assert!(!m.drifted(), "below min_samples");
        m.record(true);
        assert!(m.drifted(), "5/5 misses is drift");
        // Healthy streak washes the window clean.
        for _ in 0..10 {
            m.record(false);
        }
        assert!(!m.drifted());
        assert_eq!(m.miss_rate(), 0.0);
    }

    #[test]
    fn reset_empties_the_window() {
        let mut m = DriftMonitor::new(4, 0.5, 2);
        for _ in 0..6 {
            m.record(true);
        }
        assert!(m.drifted());
        m.reset();
        assert_eq!(m.miss_rate(), 0.0);
        assert!(!m.drifted());
        // The warm-up starts over: one miss is below min_samples, and the
        // window holds only what was recorded since the reset.
        m.record(true);
        assert!(!m.drifted());
        m.record(false);
        assert_eq!(m.miss_rate(), 0.5);
        assert!(!m.drifted(), "1/2 is not above the bound");
        assert_eq!(
            format!("{m:?}"),
            format!("{:?}", {
                let mut fresh = DriftMonitor::new(4, 0.5, 2);
                fresh.record(true);
                fresh.record(false);
                fresh
            })
        );
    }

    /// The end-to-end drift story: a predictor trained on the original
    /// anomaly profile degrades when the profile changes (leaks triple);
    /// retraining on online-harvested labels restores accuracy.
    #[test]
    fn retraining_on_harvested_labels_recovers_from_drift() {
        let flavor = VmFlavor::m3_medium();
        let spec = FailureSpec::default();
        let lambda = 12.0;
        let era = Duration::from_secs(30);

        // Phase 1: offline training on the ORIGINAL profile.
        let mut rng = SimRng::new(3);
        let old_cfg = AnomalyConfig::default();
        let old_db = crate::training::collect_database(
            &flavor,
            &old_cfg,
            &spec,
            &crate::training::CollectionConfig::default(),
            &mut rng,
        );
        let toolchain = F2pmToolchain {
            models: vec![ModelKind::RepTree],
        };
        let (stale, _) = toolchain.run(&old_db, &mut rng);

        // Phase 2: the environment drifts — leaks are 3x larger.
        let new_cfg = AnomalyConfig {
            leak_size_mb: old_cfg.leak_size_mb * 3.0,
            ..old_cfg.clone()
        };
        // Harvest labels online by watching VMs run to failure under the
        // NEW profile (reactive path: no rejuvenation).
        let mut labeler = OnlineLabeler::new();
        for seed in 0..12 {
            let id = VmId(seed as u32);
            let mut vm = Vm::new(
                id,
                flavor.clone(),
                new_cfg.clone(),
                spec.clone(),
                VmState::Active,
                SimRng::new(100 + seed),
            );
            let mut now = SimTime::ZERO;
            loop {
                labeler.observe(id, now, vm.features(now, lambda));
                vm.process_era(now, era, lambda);
                now += era;
                if let VmState::Failed { at, .. } = vm.state() {
                    labeler.on_failure(id, at);
                    break;
                }
                assert!(now < t(20_000), "never failed");
            }
        }
        assert!(
            labeler.labelled_rows() > 60,
            "rows {}",
            labeler.labelled_rows()
        );

        // Phase 3: retrain on the harvested labels.
        let mut rng2 = SimRng::new(4);
        let (fresh, _) = toolchain.run(labeler.database(), &mut rng2);

        // Score both predictors against ground truth in the NEW world.
        let mut stale_err = 0.0;
        let mut fresh_err = 0.0;
        let mut checks = 0;
        let mut vm = Vm::new(
            VmId(99),
            flavor.clone(),
            new_cfg.clone(),
            spec.clone(),
            VmState::Active,
            SimRng::new(999),
        );
        let mut now = SimTime::ZERO;
        loop {
            let truth = vm.true_rttf(lambda);
            if !truth.is_finite() || truth < 60.0 {
                break;
            }
            let f = vm.features(now, lambda);
            stale_err += (stale.predict(f.as_slice()) - truth).abs() / truth;
            fresh_err += (fresh.predict(f.as_slice()) - truth).abs() / truth;
            checks += 1;
            vm.process_era(now, era, lambda);
            now += era;
            if !vm.is_active() {
                break;
            }
        }
        assert!(checks >= 3);
        let stale_err = stale_err / checks as f64;
        let fresh_err = fresh_err / checks as f64;
        assert!(
            fresh_err < stale_err * 0.6,
            "retraining should recover accuracy: stale {stale_err:.3}, fresh {fresh_err:.3}"
        );
        // And the stale model is genuinely broken after the drift.
        assert!(stale_err > 0.3, "drift too mild to matter: {stale_err:.3}");
    }
}
