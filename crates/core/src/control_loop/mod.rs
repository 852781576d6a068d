//! The ACM closed control loop (paper Sec. V, Fig. 2, Algorithms 1–3).
//!
//! [`ControlLoop::step_era`] walks the four states, each a function over
//! typed per-era values, each timed by one phase clock so the four
//! timers tile the era:
//!
//! * **Monitor** (`monitor`) — due scenario actions (scripted link
//!   faults among them) and chaos-plan faults are applied and the leader
//!   re-elected; refit candidates due this era start shadowing; the
//!   client populations offer load per the interactive response-time
//!   law; the forward plan in force splits it; every region's VMC advances one era —
//!   on the exec pool once the pools are large enough — collecting
//!   features, predicting its RMTTF and actuating PCAM locally (Alg. 1's
//!   region half).
//! * **Analyze** (`analyze`) — slaves ship `lastRMTTF_i` to the leader
//!   over the overlay, with retries under degradation (reports are lost
//!   when the overlay cannot route — the leader then keeps the stale
//!   value); a region silent past the suspicion timeout is suspected.
//! * **Plan** (`plan`, Alg. 2, leader only) — quarantine state machine,
//!   Eq. 1 EWMA per region, then the configured `POLICY()` computes the
//!   next fractions `f_i^t`. Nothing else: `plan_ns` is decision latency.
//! * **Execute** (`execute`, Alg. 3) — the new fractions are installed on
//!   every reachable region's load balancer (or the plan freezes), and
//!   autoscaling fires where the response-time / RMTTF thresholds
//!   demand. The era's close lives here too, because it reads what the
//!   install left behind: drift windows, lifecycle verdicts
//!   and refits, client-observed response, the telemetry row, SLO windows, the pool
//!   sample.
//!
//! What persists between eras is a `leader::LeaderState` (what a
//! successor leader would need), the `causes` chain decision events hang
//! off, and the region-side world (VMCs, workloads, overlay).

mod analyze;
mod causes;
mod execute;
mod instruments;
mod leader;
mod monitor;
mod plan;
#[cfg(test)]
mod tests;

use crate::autoscale::{AutoscaleConfig, Autoscaler};
use crate::config::ExperimentConfig;
use crate::degrade::DegradationConfig;
use crate::plan::ForwardPlan;
use crate::policy::PolicyKind;
use crate::scenario::Scenario;
use crate::telemetry::{ExperimentTelemetry, RegionEraRecord};
use acm_obs::{BurnRateMonitor, Obs, ObsHandle, SloSpec, Value};
use acm_overlay::{ElectionOutcome, NodeId};
use acm_pcam::{DriftMonitor, RegionEraReport, Vmc};
use acm_sim::rng::SimRng;
use acm_sim::time::{Duration, SimTime};
use acm_workload::RegionWorkload;
use causes::Causes;
use instruments::{Instruments, Phase};
use leader::{ControlPlane, LeaderState};

/// What MONITOR saw: the era's end instant, the load the clients offered
/// and where the plan in force sent it, and every region's report.
#[derive(Default)]
struct Monitored {
    t_end: SimTime,
    /// Share of the global request rate entering at each region.
    ingress: Vec<f64>,
    lambda_total: f64,
    /// The forward plan realising the fractions in force this era.
    plan: ForwardPlan,
    /// Each region's arrival rate once the plan has forwarded the ingress.
    lambdas: Vec<f64>,
    /// Its churn against last era's plan.
    churn: f64,
    reports: Vec<RegionEraReport>,
}

/// What ANALYZE heard: who leads, whose report reached them, and whose
/// silence has outlasted the suspicion timeout.
#[derive(Default)]
struct Heard {
    leader: NodeId,
    delivered: Vec<bool>,
    suspected: Vec<bool>,
}

/// What PLAN decided: who takes part, the smoothed RMTTFs, the next
/// fractions.
#[derive(Default)]
struct Decided {
    live_mask: Vec<bool>,
    rmttf_now: Vec<f64>,
    target: Vec<f64>,
}

/// One era's phase values. The loop keeps them from era to era for their
/// buffers — each phase clears and refills what it writes — so a
/// steady-state era allocates only what it retains (`tests/retention.rs`
/// counts the calls).
#[derive(Default)]
struct EraValues {
    seen: Monitored,
    heard: Heard,
    decided: Decided,
    /// The telemetry row's per-region records.
    records: Vec<RegionEraRecord>,
}

/// The running multi-region control loop.
pub struct ControlLoop {
    era: Duration,
    now: SimTime,
    era_index: usize,
    vmcs: Vec<Vmc>,
    workloads: Vec<RegionWorkload>,
    /// Response time the clients of each ingress region observed last era.
    observed_response: Vec<f64>,
    autoscale_cfg: AutoscaleConfig,
    autoscalers: Vec<Autoscaler>,
    /// Per-region predictor-miss watchers feeding `drift.signal` roots.
    drift: Vec<DriftMonitor>,
    /// True when `cfg.lifecycle.enabled` armed a model lifecycle on every
    /// model-backed VMC.
    lifecycle_on: bool,
    net: ControlPlane,
    /// Leader-side degradation knobs (quarantine, retries, hysteresis).
    degradation: DegradationConfig,
    leader: LeaderState,
    /// Runtime reconfigurations still to come.
    scenario: Scenario,
    /// Burn-rate monitors (availability, latency).
    slo: [BurnRateMonitor; 2],
    telemetry: ExperimentTelemetry,
    causes: Causes,
    ins: Instruments,
    obs: ObsHandle,
    values: EraValues,
}

impl ControlLoop {
    /// Wires the loop from pre-built VMCs (the framework module handles
    /// predictor training and hands the VMCs in). Observability follows
    /// `cfg.obs`; [`run_experiment_with_obs`](crate::run_experiment_with_obs)
    /// runs a loop against an existing [`Obs`] instance instead.
    pub fn new(cfg: &ExperimentConfig, vmcs: Vec<Vmc>, rng: SimRng) -> Self {
        let obs = Obs::new(cfg.obs);
        Self::new_with_obs(cfg, vmcs, rng, obs)
    }

    /// Like [`ControlLoop::new`] but instruments the loop (and every VMC,
    /// the elector and the policy) against the caller's [`Obs`] instance,
    /// so one registry aggregates the whole run.
    pub(crate) fn new_with_obs(
        cfg: &ExperimentConfig,
        mut vmcs: Vec<Vmc>,
        mut rng: SimRng,
        obs: ObsHandle,
    ) -> Self {
        cfg.validate().expect("invalid experiment config");
        assert_eq!(vmcs.len(), cfg.regions.len(), "one VMC per region");
        let n = cfg.regions.len();
        for vmc in &mut vmcs {
            vmc.set_obs(obs.clone());
        }

        // RNG split order is load-bearing: the leader's stream is the
        // first split and the second is discarded, so the model
        // lifecycle's stream stays the THIRD split and `results/` and
        // every lifecycle seed replay byte-identically. The third is
        // taken only when the feature is on.
        let leader = LeaderState::new(cfg, &obs, rng.split());
        let _ = rng.split();
        if cfg.lifecycle.enabled {
            let mut lc_rng = rng.split();
            for vmc in &mut vmcs {
                vmc.enable_lifecycle(cfg.lifecycle, lc_rng.split());
            }
        }

        let slo = [SloSpec::availability(), SloSpec::latency()].map(BurnRateMonitor::new);
        ControlLoop {
            era: cfg.era,
            now: SimTime::ZERO,
            era_index: 0,
            vmcs,
            workloads: cfg.regions.iter().map(|r| r.workload()).collect(),
            observed_response: vec![0.0; n],
            autoscale_cfg: cfg.autoscale.clone(),
            autoscalers: vec![Autoscaler::new(); n],
            // One predictor-miss window per region, tuned by `cfg.drift`.
            drift: (0..n).map(|_| cfg.drift.monitor()).collect(),
            lifecycle_on: cfg.lifecycle.enabled,
            net: ControlPlane::new(cfg, &obs),
            degradation: cfg.degradation.clone(),
            leader,
            scenario: cfg.scenario.clone(),
            causes: Causes::new(&obs, n, slo.len()),
            slo,
            telemetry: ExperimentTelemetry::new(
                cfg.regions.iter().map(|r| r.region.name.clone()).collect(),
            ),
            ins: Instruments::new(cfg, &obs),
            obs,
            values: EraValues::default(),
        }
    }

    /// The observability instance the loop records into.
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Telemetry so far.
    pub fn telemetry(&self) -> &ExperimentTelemetry {
        &self.telemetry
    }

    /// Consumes the loop, returning the telemetry.
    pub fn into_telemetry(self) -> ExperimentTelemetry {
        self.telemetry
    }

    /// The VMCs (for assertions in tests).
    pub fn vmcs(&self) -> &[Vmc] {
        &self.vmcs
    }

    /// Flips the model lifecycle's poison-refits chaos hook on every
    /// region (see `acm_pcam::LifecycleConfig::poison_refits`). No-op
    /// when the lifecycle is disabled.
    pub fn set_lifecycle_poison(&mut self, on: bool) {
        for vmc in &mut self.vmcs {
            if let Some(lc) = vmc.lifecycle_mut() {
                lc.set_poison_refits(on);
            }
        }
    }

    /// Fractions currently installed.
    pub fn fractions(&self) -> &[f64] {
        &self.leader.fractions
    }

    /// Switches the leader's policy at runtime, keeping the policy knobs
    /// (k, jitter, region costs). The paper's framework "offers the
    /// possibility to modify the deploy at runtime in case the workload
    /// conditions change during the lifetime of the system" (Sec. II) —
    /// this is the policy-level version of that capability, and what a
    /// scripted `SwitchPolicy` calls.
    pub fn set_policy(&mut self, kind: PolicyKind) {
        self.leader.policy = self.leader.policy.clone().with_kind(kind);
        if self.obs.enabled() {
            self.obs.emit(
                self.now.as_micros(),
                "policy.switch",
                vec![("policy", Value::from(kind.to_string()))],
            );
        }
    }

    /// The current election outcome.
    pub fn election(&self) -> &ElectionOutcome {
        let current = self.net.elector.current();
        current.expect("election ran at construction")
    }

    /// Runs one full era of the closed loop: Fig. 2's walk, each phase
    /// closed by the clock reading that opens the next.
    pub fn step_era(&mut self) {
        let mut v = std::mem::take(&mut self.values);
        self.ins.clock.start(self.era_index);
        self.monitor(&mut v.seen);
        self.ins.clock.end(Phase::Monitor);
        self.analyze(&v.seen, &mut v.heard);
        self.ins.clock.end(Phase::Analyze);
        self.plan(&v.seen, &v.heard, &mut v.decided);
        self.ins.clock.end(Phase::Plan);
        self.execute(&mut v);
        self.ins.clock.end(Phase::Execute);
        self.values = v;
    }

    /// Runs `eras` control eras.
    pub fn run(&mut self, eras: usize) {
        for _ in 0..eras {
            self.step_era();
        }
    }
}
