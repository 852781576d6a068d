//! The Virtual Machine Controller (VMC).
//!
//! One VMC manages one cloud region: it maps the F2PM prediction model onto
//! each VM, estimates RTTFs at runtime, proactively rejuvenates VMs whose
//! predicted RTTF falls below the user threshold (activating a standby to
//! take over), recovers reactively from the failures the predictor missed,
//! spreads the region's request rate over the ACTIVE VMs, and reports the
//! region's mean time to failure (the `lastRMTTF_i` of paper Eq. 1).

use crate::balancer::BalancerStrategy;
use crate::lifecycle::{LifecycleConfig, LifecycleEvent, ModelLifecycle};
use crate::pool::{PoolCounts, VmPool};
use acm_ml::toolchain::RttfPredictor;
use acm_obs::{Obs, ObsHandle, Timer, Value};
use acm_sim::rng::SimRng;
use acm_sim::stats::OnlineStats;
use acm_sim::time::{Duration, SimTime};
use acm_vm::{AnomalyConfig, FailureSpec, Vm, VmFlavor, VmId, VmState};
use std::sync::Arc;

/// Where the VMC gets its RTTF estimates.
#[derive(Debug, Clone)]
pub enum RttfSource {
    /// Ground truth from the simulator (perfect-prediction baseline).
    Oracle,
    /// An F2PM-trained model over the monitored feature vector — the
    /// realistic path; its errors flow into the control loop exactly as
    /// they would in the deployed system.
    Model(RttfPredictor),
}

impl RttfSource {
    /// Estimated RTTF (seconds) of one VM at the given arrival rate.
    pub fn predict(&self, vm: &Vm, now: SimTime, lambda: f64) -> f64 {
        match self {
            RttfSource::Oracle => vm.true_rttf(lambda),
            RttfSource::Model(m) => m.predict(vm.features(now, lambda).as_slice()),
        }
    }

    /// Batch variant of [`RttfSource::predict`] over `(vm, lambda)` pairs.
    /// Clears and refills `out` index-aligned with `pairs`. The model path
    /// gathers the projected feature vectors into `packed` (the caller's
    /// scratch) and runs a single batched prediction instead of a per-VM
    /// model walk.
    pub fn predict_many<'a>(
        &self,
        pairs: impl Iterator<Item = (&'a Vm, f64)>,
        now: SimTime,
        packed: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        match self {
            RttfSource::Oracle => {
                out.clear();
                out.extend(pairs.map(|(vm, lambda)| vm.true_rttf(lambda)));
            }
            RttfSource::Model(m) => m.predict_packed(
                pairs.map(|(vm, lambda)| vm.features(now, lambda)),
                packed,
                out,
            ),
        }
    }
}

/// Static configuration of one region's controller.
#[derive(Debug, Clone)]
pub struct RegionConfig {
    /// Display name (e.g. `"eu-west-1"`).
    pub name: String,
    /// VM flavor of the region's pool.
    pub flavor: VmFlavor,
    /// Anomaly injection parameters.
    pub anomaly: AnomalyConfig,
    /// Failure-point definition.
    pub failure_spec: FailureSpec,
    /// Total VMs provisioned in the region.
    pub total_vms: usize,
    /// Desired simultaneously ACTIVE VMs.
    pub target_active: usize,
    /// Rejuvenate a VM when its predicted RTTF drops below this.
    pub rttf_threshold: Duration,
    /// How long a rejuvenation keeps a VM out of service.
    pub rejuvenation_time: Duration,
    /// Intra-region balancing strategy.
    pub balancer: BalancerStrategy,
    /// Price of one VM-hour in this region, USD. The paper motivates
    /// heterogeneous multi-cloud deployments with exactly this: "different
    /// cloud providers offer various types of VMs at different costs"
    /// (Sec. I); the cost-aware policy extension and the cost accounting in
    /// `acm-core::cost` consume it.
    pub vm_hour_usd: f64,
}

impl RegionConfig {
    /// A reasonable starting configuration for a named region.
    pub fn new(name: impl Into<String>, flavor: VmFlavor, total: usize, active: usize) -> Self {
        RegionConfig {
            name: name.into(),
            flavor,
            anomaly: AnomalyConfig::default(),
            failure_spec: FailureSpec::default(),
            total_vms: total,
            target_active: active,
            rttf_threshold: Duration::from_secs(120),
            rejuvenation_time: Duration::from_secs(60),
            balancer: BalancerStrategy::EqualShare,
            vm_hour_usd: 0.05,
        }
    }
}

/// What one region experienced during one control era.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionEraReport {
    /// Mean per-VM MTTF estimate over ACTIVE VMs at era end, seconds —
    /// the `lastRMTTF_i` this VMC sends to the leader.
    pub last_rmttf: f64,
    /// Requests offered to the region this era.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Completion-weighted mean response time, seconds.
    pub mean_response_s: f64,
    /// Proactive rejuvenations triggered this era.
    pub proactive_rejuvenations: u32,
    /// Reactive failures suffered this era (prediction misses).
    pub reactive_failures: u32,
    /// ACTIVE VM count after control actions.
    pub active_vms: usize,
    /// Mean utilisation across serving VMs.
    pub utilization: f64,
}

/// An event's payload, as [`Obs::emit`] takes it.
type Fields = Vec<(&'static str, Value)>;

/// A VMC's hub and the decision events [`Vmc::process_era`] took since
/// the last [`Vmc::flush_events`], in a buffer reused across eras. Stages
/// nothing on a disabled hub.
#[derive(Debug)]
struct StagedEvents {
    obs: ObsHandle,
    events: Vec<(u64, &'static str, Fields)>,
}

impl StagedEvents {
    fn push(&mut self, at: SimTime, kind: &'static str, fields: impl FnOnce() -> Fields) {
        if self.obs.enabled() {
            self.events.push((at.as_micros(), kind, fields()));
        }
    }
}

/// What [`Vmc::process_era`] refills every era, kept so an era allocates
/// nothing once the buffers have grown to the pool.
#[derive(Debug, Default)]
struct EraBuffers {
    /// One balancer share per ACTIVE VM, in pool order.
    shares: Vec<f64>,
    /// The era's serving set: each serving VM and its arrival rate.
    served: Vec<(VmId, f64)>,
    /// Those still ACTIVE at era end (the proactive scan's candidates).
    scanned: Vec<(VmId, f64)>,
    /// Predicted RTTFs, index-aligned with whatever was predicted last.
    rttfs: Vec<f64>,
    /// `(predicted RTTF, id)` of the VMs below the threshold.
    candidates: Vec<(f64, VmId)>,
    /// The model's packed feature rows.
    packed: Vec<f64>,
}

/// Promotes standbys up to the ACTIVE target at `at` and stages any
/// promotion as one `standby.activate` event carrying `reason`.
fn activate_standbys(
    pool: &mut VmPool,
    staged: &mut StagedEvents,
    region: &Arc<str>,
    at: SimTime,
    reason: &'static str,
) {
    let activated = pool.replenish_active(at);
    if activated > 0 {
        staged.push(at, "standby.activate", || {
            vec![
                ("region", Value::from(region)),
                ("count", Value::from(activated)),
                ("reason", Value::Static(reason)),
            ]
        });
    }
}

/// The per-region controller.
#[derive(Debug)]
pub struct Vmc {
    config: RegionConfig,
    /// The region's name, shared with the decision events that carry it.
    name: Arc<str>,
    pool: VmPool,
    rttf_source: RttfSource,
    /// Versioned model registry (None unless enabled on a Model source).
    lifecycle: Option<ModelLifecycle>,
    /// Lifetime counters.
    proactive_total: u64,
    reactive_total: u64,
    /// Observability hub (the shared no-op by default) with the staged
    /// decision events, and pre-resolved timers for the balancer and the
    /// proactive rejuvenation scan.
    staged: StagedEvents,
    balancer_timer: Timer,
    rejuv_scan_timer: Timer,
    buf: EraBuffers,
}

impl Vmc {
    /// Builds the controller and its pool.
    pub fn new(config: RegionConfig, rttf_source: RttfSource, rng: SimRng) -> Self {
        let pool = VmPool::new(
            config.flavor.clone(),
            config.anomaly.clone(),
            config.failure_spec.clone(),
            config.total_vms,
            config.target_active,
            rng,
        );
        Vmc {
            name: Arc::from(config.name.as_str()),
            config,
            pool,
            rttf_source,
            lifecycle: None,
            proactive_total: 0,
            reactive_total: 0,
            staged: StagedEvents {
                obs: Obs::noop(),
                events: Vec::new(),
            },
            balancer_timer: Timer::default(),
            rejuv_scan_timer: Timer::default(),
            buf: EraBuffers::default(),
        }
    }

    /// Attaches a versioned model lifecycle to this controller. Only
    /// effective for [`RttfSource::Model`] regions — the oracle has no
    /// model to refit — and only when `cfg.enabled` is set. `rng` seeds
    /// the lifecycle's dedicated stream (each refit trains on a split).
    pub fn enable_lifecycle(&mut self, cfg: LifecycleConfig, rng: SimRng) {
        if cfg.enabled && matches!(self.rttf_source, RttfSource::Model(_)) {
            self.lifecycle = Some(ModelLifecycle::new(cfg, rng));
        }
    }

    /// Mutable model-registry access (chaos/test hooks only).
    pub fn lifecycle_mut(&mut self) -> Option<&mut ModelLifecycle> {
        self.lifecycle.as_mut()
    }

    /// The model registry, when one is attached.
    pub fn lifecycle(&self) -> Option<&ModelLifecycle> {
        self.lifecycle.as_ref()
    }

    /// The RTTF source currently serving predictions.
    pub fn rttf_source(&self) -> &RttfSource {
        &self.rttf_source
    }

    /// Era prologue for the model lifecycle: a candidate whose
    /// two-era deployment delay has passed starts shadowing. No-op without
    /// a registry.
    pub fn lifecycle_begin_era(&mut self, era_index: u64) -> Vec<LifecycleEvent> {
        match &mut self.lifecycle {
            Some(lc) => lc.begin_era(era_index),
            None => Vec::new(),
        }
    }

    /// Era epilogue for the model lifecycle: regression watch, shadow
    /// verdict (a promotion or rollback swaps the serving predictor in
    /// place), and possibly a new refit — trained here — off the drift
    /// signal.
    pub fn lifecycle_end_era(&mut self, era_index: u64, drifted: bool) -> Vec<LifecycleEvent> {
        match &mut self.lifecycle {
            Some(lc) => lc.end_era(era_index, drifted, &mut self.rttf_source),
            None => Vec::new(),
        }
    }

    /// Attaches observability to this controller and its pool, once, at
    /// wiring time: balancer / rejuvenation-scan timers
    /// (`acm.pcam.balancer.shares_ns`, `acm.pcam.vmc.rejuvenation_scan_ns`),
    /// the pool's instruments, and the hub that receives the decision
    /// events (`rejuvenation.proactive`, `rejuvenation.reactive`,
    /// `standby.activate`) when [`Vmc::flush_events`] emits them.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.balancer_timer = obs.timer("acm.pcam.balancer.shares_ns");
        self.rejuv_scan_timer = obs.timer("acm.pcam.vmc.rejuvenation_scan_ns");
        self.pool.set_obs(&obs, &self.name);
        self.staged.obs = obs;
    }

    /// Emits the decision events staged since the last flush on the
    /// attached hub, in the order [`Vmc::process_era`] took them, and
    /// empties the buffer. Staging keeps `process_era` off the hub's log,
    /// so regions may run on any thread and still reach the log in a fixed
    /// order: the control loop flushes every region, in region order, at
    /// MONITOR's barrier.
    pub fn flush_events(&mut self) {
        let StagedEvents { obs, events } = &mut self.staged;
        for (t_us, kind, fields) in events.drain(..) {
            obs.emit(t_us, kind, fields);
        }
    }

    /// Region name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Region name, as the decision events share it
    /// ([`acm_obs::Value::Shared`]).
    pub fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// The configuration in force.
    pub fn config(&self) -> &RegionConfig {
        &self.config
    }

    /// The pool (read).
    pub fn pool(&self) -> &VmPool {
        &self.pool
    }

    /// The pool (write — autoscaling hooks).
    pub fn pool_mut(&mut self) -> &mut VmPool {
        &mut self.pool
    }

    /// Current pool census.
    pub fn counts(&self) -> PoolCounts {
        self.pool.counts()
    }

    /// Lifetime proactive rejuvenation count.
    pub fn proactive_total(&self) -> u64 {
        self.proactive_total
    }

    /// Lifetime reactive failure count.
    pub fn reactive_total(&self) -> u64 {
        self.reactive_total
    }

    /// The region's current RMTTF estimate: the average MTTF estimate over
    /// ACTIVE VMs ("calculated as the average MTTF of all active VMs in the
    /// region", paper Sec. IV). Returns 0 when nothing is active.
    fn region_mttf(&mut self, now: SimTime, region_lambda: f64) -> f64 {
        let active = self.pool.active();
        let n = active.clone().count();
        if n == 0 {
            return 0.0;
        }
        let per_vm = region_lambda / n as f64;
        let EraBuffers { packed, rttfs, .. } = &mut self.buf;
        let pairs = active.clone().map(|vm| (vm, per_vm));
        self.rttf_source.predict_many(pairs, now, packed, rttfs);
        let mut s = OnlineStats::new();
        for (vm, rttf) in active.zip(rttfs.iter()) {
            let m = rttf + vm.age(now).as_secs_f64();
            s.push(m.min(1e7)); // clamp "never fails" to a large finite value
        }
        s.mean()
    }

    /// Runs one full control era for this region:
    ///
    /// 1. complete due rejuvenations, promote standbys to the target count,
    /// 2. split `region_lambda` over ACTIVE VMs per the balancer,
    /// 3. let every ACTIVE VM process its share (anomalies accumulate,
    ///    failures may fire mid-era),
    /// 4. recover reactively from failures (immediate rejuvenation +
    ///    standby takeover),
    /// 5. proactively rejuvenate any VM whose predicted RTTF is below the
    ///    threshold, if a standby can take its place,
    /// 6. report the era, including `lastRMTTF`.
    ///
    /// Its decision events are staged, not emitted: they reach the hub at
    /// the next [`Vmc::flush_events`].
    pub fn process_era(
        &mut self,
        now: SimTime,
        era: Duration,
        region_lambda: f64,
    ) -> RegionEraReport {
        // (1) housekeeping.
        self.pool.poll_rejuvenations(now);
        activate_standbys(
            &mut self.pool,
            &mut self.staged,
            &self.name,
            now,
            "housekeeping",
        );
        self.pool.demote_excess_active(now);

        // (2) balance.
        let buf = &mut self.buf;
        {
            let _span = self.balancer_timer.start();
            let active = self.pool.active().count();
            let per_vm_hint = if active == 0 {
                0.0
            } else {
                region_lambda / active as f64
            };
            let src = &self.rttf_source;
            let rttf_of = |vm: &Vm| src.predict(vm, now, per_vm_hint);
            self.config
                .balancer
                .shares(self.pool.active(), rttf_of, &mut buf.shares);
        }

        // (3) serve.
        let mut offered = 0;
        let mut completed = 0;
        let mut response_num = 0.0;
        let mut util = OnlineStats::new();
        buf.served.clear();
        let serving = self.pool.vms_mut().iter_mut().filter(|v| v.is_active());
        for (vm, share) in serving.zip(&buf.shares) {
            let (id, lambda_vm) = (vm.id(), region_lambda * share);
            buf.served.push((id, lambda_vm));
            // Lifecycle snapshot: the feature vector as it was when the
            // era's serving began, labelled retroactively on outcome.
            if let Some(lc) = &mut self.lifecycle {
                lc.observe(id, now, vm.features(now, lambda_vm));
            }
            let out = vm.process_era(now, era, lambda_vm);
            offered += out.offered;
            completed += out.completed;
            if out.completed > 0 {
                response_num += out.mean_response_s * out.completed as f64;
            }
            util.push(out.utilization.min(5.0));
        }
        // Completion-weighted mean response time, as the clients measure it.
        let mean_response_s = if completed > 0 {
            response_num / completed as f64
        } else {
            0.0
        };

        let end = now + era;

        // (4) reactive recovery.
        let mut reactive = 0;
        let region_name = &self.name;
        let incumbent = match &self.rttf_source {
            RttfSource::Model(m) => Some(m),
            RttfSource::Oracle => None,
        };
        for vm in self.pool.vms_mut() {
            if let VmState::Failed { at, .. } = vm.state() {
                // The true failure instant labels this VM's snapshots.
                if let Some(lc) = &mut self.lifecycle {
                    lc.on_failure(vm.id(), at, incumbent);
                }
                vm.start_rejuvenation(end, self.config.rejuvenation_time);
                reactive += 1;
                self.staged.push(end, "rejuvenation.reactive", || {
                    vec![
                        ("region", Value::from(region_name)),
                        ("vm", Value::from(vm.id().0)),
                    ]
                });
            }
        }
        activate_standbys(
            &mut self.pool,
            &mut self.staged,
            region_name,
            end,
            "reactive",
        );

        // (5) proactive rejuvenation. Candidates come only from this era's
        // serving set (`served`) and their predictions are fixed at `end`,
        // so one scored pass in ascending-RTTF order is equivalent to the
        // old rejuvenate-worst-then-rescan loop — without the O(n²)
        // rescans.
        let threshold = self.config.rttf_threshold.as_secs_f64();
        let mut proactive = 0;
        let mut spares = self.pool.counts().standby;
        if spares > 0 {
            let _span = self.rejuv_scan_timer.start();
            let pool = &self.pool;
            let buf = &mut self.buf;
            let still_active = |&&(id, _): &&(VmId, f64)| pool.vm(id).is_some_and(Vm::is_active);
            buf.scanned.clear();
            buf.scanned.extend(buf.served.iter().filter(still_active));
            let pairs = buf
                .scanned
                .iter()
                .map(|&(id, lambda_vm)| (pool.vm(id).expect("scanned id"), lambda_vm));
            self.rttf_source
                .predict_many(pairs, end, &mut buf.packed, &mut buf.rttfs);
            buf.candidates.clear();
            buf.candidates.extend(
                buf.scanned
                    .iter()
                    .zip(&buf.rttfs)
                    .filter(|(_, rttf)| **rttf < threshold)
                    .map(|(&(id, _), &rttf)| (rttf, id)),
            );
            // Stable sort: equal RTTFs keep serving order, matching the old
            // first-on-tie rescan.
            buf.candidates
                .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite RTTF"));
            for &(rttf, id) in &buf.candidates {
                if spares == 0 {
                    break; // no spare to take over: keep serving
                }
                // Lifecycle: the snapshots of a proactively rejuvenated
                // VM are censored at `end` (it provably survived until
                // the rejuvenation, its true failure time is unknown).
                if let Some(lc) = &mut self.lifecycle {
                    lc.on_rejuvenation(id, end, incumbent);
                }
                self.pool
                    .vm_mut(id)
                    .expect("candidate id")
                    .start_rejuvenation(end, self.config.rejuvenation_time);
                proactive += 1;
                spares -= 1;
                self.staged.push(end, "rejuvenation.proactive", || {
                    vec![
                        ("region", Value::from(region_name)),
                        ("vm", Value::from(id.0)),
                        ("predicted_rttf_s", Value::from(rttf)),
                        ("threshold_s", Value::from(threshold)),
                    ]
                });
                activate_standbys(
                    &mut self.pool,
                    &mut self.staged,
                    region_name,
                    end,
                    "takeover",
                );
            }
        }

        self.proactive_total += proactive as u64;
        self.reactive_total += reactive as u64;

        // (6) report. Refresh the pool-state gauges first so `obs_report`
        // sees the post-control census.
        self.pool.publish_gauges();
        let last_rmttf = self.region_mttf(end, region_lambda);
        RegionEraReport {
            last_rmttf,
            offered,
            completed,
            mean_response_s,
            proactive_rejuvenations: proactive,
            reactive_failures: reactive,
            active_vms: self.pool.counts().active,
            utilization: util.mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_vmc(total: usize, active: usize, source: RttfSource) -> Vmc {
        let cfg = RegionConfig::new("test-region", VmFlavor::m3_medium(), total, active);
        Vmc::new(cfg, source, SimRng::new(7))
    }

    fn run_eras(vmc: &mut Vmc, eras: usize, lambda: f64) -> Vec<RegionEraReport> {
        let era = Duration::from_secs(30);
        let mut now = SimTime::ZERO;
        let mut out = Vec::new();
        for _ in 0..eras {
            out.push(vmc.process_era(now, era, lambda));
            now += era;
        }
        out
    }

    #[test]
    fn healthy_region_serves_everything() {
        let mut vmc = mk_vmc(6, 4, RttfSource::Oracle);
        let reports = run_eras(&mut vmc, 3, 20.0);
        for r in &reports {
            assert_eq!(r.offered, r.completed);
            assert!(r.mean_response_s < 0.2, "response {}", r.mean_response_s);
            assert_eq!(r.active_vms, 4);
        }
    }

    #[test]
    fn proactive_rejuvenation_preempts_failures_with_oracle() {
        let mut vmc = mk_vmc(6, 4, RttfSource::Oracle);
        // Long run at substantial load: with perfect predictions every
        // failure must be preempted.
        let reports = run_eras(&mut vmc, 60, 40.0);
        let reactive: u32 = reports.iter().map(|r| r.reactive_failures).sum();
        let proactive: u32 = reports.iter().map(|r| r.proactive_rejuvenations).sum();
        assert_eq!(reactive, 0, "oracle must never miss a failure");
        assert!(proactive > 0, "sustained load must trigger rejuvenations");
    }

    #[test]
    fn rmttf_reflects_load_level() {
        let mut light = mk_vmc(6, 4, RttfSource::Oracle);
        let mut heavy = mk_vmc(6, 4, RttfSource::Oracle);
        let light_rmttf = run_eras(&mut light, 10, 10.0).last().unwrap().last_rmttf;
        let heavy_rmttf = run_eras(&mut heavy, 10, 40.0).last().unwrap().last_rmttf;
        assert!(
            light_rmttf > 2.0 * heavy_rmttf,
            "light {light_rmttf} vs heavy {heavy_rmttf}"
        );
    }

    #[test]
    fn rmttf_is_roughly_stationary_under_constant_load() {
        let mut vmc = mk_vmc(6, 4, RttfSource::Oracle);
        let reports = run_eras(&mut vmc, 40, 30.0);
        let tail: Vec<f64> = reports[10..].iter().map(|r| r.last_rmttf).collect();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        let max_dev = tail.iter().map(|v| (v - mean).abs()).fold(0.0, f64::max);
        assert!(
            max_dev < mean * 0.5,
            "RMTTF too unstable: mean {mean}, max dev {max_dev}"
        );
    }

    #[test]
    fn no_standby_means_no_proactive_action() {
        let mut vmc = mk_vmc(4, 4, RttfSource::Oracle);
        let reports = run_eras(&mut vmc, 60, 40.0);
        let proactive: u32 = reports.iter().map(|r| r.proactive_rejuvenations).sum();
        let reactive: u32 = reports.iter().map(|r| r.reactive_failures).sum();
        assert_eq!(proactive, 0, "no spares: the VMC cannot act proactively");
        assert!(reactive > 0, "without spares, failures become reactive");
    }

    #[test]
    fn zero_load_region_is_immortal() {
        let mut vmc = mk_vmc(4, 2, RttfSource::Oracle);
        let reports = run_eras(&mut vmc, 10, 0.0);
        for r in &reports {
            assert_eq!(r.offered, 0);
            assert_eq!(r.reactive_failures, 0);
            assert_eq!(r.proactive_rejuvenations, 0);
        }
        // Unloaded VMs never fail: the clamped MTTF is huge.
        assert!(reports.last().unwrap().last_rmttf > 1e6);
    }

    #[test]
    fn era_reports_count_rejuvenation_capacity_dip() {
        let mut vmc = mk_vmc(5, 4, RttfSource::Oracle);
        let reports = run_eras(&mut vmc, 80, 45.0);
        // At some point a rejuvenation leaves the region with fewer active
        // VMs than the target (only 1 spare).
        let min_active = reports.iter().map(|r| r.active_vms).min().unwrap();
        assert!(min_active <= 4);
        // But the pool recovers to target afterwards.
        let last_active = reports.last().unwrap().active_vms;
        assert!(last_active >= 3);
    }

    #[test]
    fn proactive_rejuvenations_are_logged_with_prediction_and_threshold() {
        let obs = acm_obs::Obs::new(acm_obs::ObsConfig::default());
        let mut vmc = mk_vmc(6, 4, RttfSource::Oracle);
        vmc.set_obs(obs.clone());
        run_eras(&mut vmc, 60, 40.0);
        vmc.flush_events();
        assert!(vmc.proactive_total() > 0, "scenario must rejuvenate");
        let rejuv: Vec<_> = obs
            .events_tail(usize::MAX)
            .into_iter()
            .filter(|e| e.kind == "rejuvenation.proactive")
            .collect();
        assert_eq!(rejuv.len() as u64, vmc.proactive_total());
        let threshold = vmc.config().rttf_threshold.as_secs_f64();
        for e in &rejuv {
            let get = |k: &str| {
                e.field(k)
                    .unwrap_or_else(|| panic!("missing field {k}"))
                    .clone()
            };
            assert_eq!(get("region"), acm_obs::Value::from("test-region"));
            let acm_obs::Value::F64(rttf) = get("predicted_rttf_s") else {
                panic!("predicted_rttf_s must be a float")
            };
            assert!(rttf < threshold, "logged rttf {rttf} >= {threshold}");
            assert_eq!(get("threshold_s"), acm_obs::Value::from(threshold));
        }
        // Balancer and scan timers collected wall-clock samples.
        assert!(
            obs.histogram("acm.pcam.balancer.shares_ns")
                .snapshot()
                .count
                >= 60
        );
        assert!(
            obs.histogram("acm.pcam.vmc.rejuvenation_scan_ns")
                .snapshot()
                .count
                > 0
        );
        // Takeovers show up as standby activations.
        assert!(obs
            .events_tail(usize::MAX)
            .iter()
            .any(|e| e.kind == "standby.activate"));
    }

    #[test]
    fn mttf_estimate_adds_age_to_rttf() {
        let mut vmc = mk_vmc(2, 1, RttfSource::Oracle);
        // One ACTIVE VM: the region's estimate is that VM's MTTF.
        let rttf = vmc.pool().active().next().unwrap().true_rttf(10.0);
        let now = SimTime::from_secs(100);
        let est = vmc.region_mttf(now, 10.0);
        assert!((est - (rttf + 100.0)).abs() < 1e-9);
    }
}
