//! The ACM closed control loop (paper Sec. V, Fig. 2, Algorithms 1–3).
//!
//! Each era the system walks the four states:
//!
//! * **Monitor** — every region's VMC collects features; the client
//!   populations offer load per the interactive response-time law.
//! * **Analyze** (Alg. 1) — every VMC predicts its region's RMTTF and
//!   actuates PCAM locally; slaves ship `lastRMTTF_i` to the leader over
//!   the overlay (reports are lost when the overlay cannot route — the
//!   leader then keeps the stale value).
//! * **Plan** (Alg. 2, leader only) — Eq. 1 EWMA per region, then the
//!   configured `POLICY()` computes the next fractions `f_i^t`.
//! * **Execute** (Alg. 3) — the new fractions are installed on every
//!   reachable region's load balancer as a fresh global forward plan, and
//!   autoscaling fires where the response-time / RMTTF thresholds demand.
//!
//! The loop also owns fault injection (scheduled overlay link faults) and
//! leader re-election on membership changes.

use crate::autoscale::{AutoscaleConfig, Autoscaler};
use crate::config::{ExperimentConfig, LinkFault};
use crate::degrade::{DegradationConfig, HealthEvent, HealthTracker};
use crate::ewma::RmttfEwma;
use crate::plan::ForwardPlan;
use crate::policy::{uniform_fractions, LoadBalancingPolicy};
use crate::scenario::{Scenario, ScenarioAction};
use crate::telemetry::{ExperimentTelemetry, RegionEraRecord};
use acm_exec::PoolStatsSnapshot;
use acm_obs::{
    BurnRateMonitor, Counter, Gauge, Hist, Obs, ObsConfig, ObsHandle, SloSpec, SloTransition,
    TimelineRecorder, Timer, TraceContext, Value,
};
use acm_overlay::{
    ChaosLayer, ElectionOutcome, Elector, FailureDetector, MessageFate, NodeId, OverlayGraph,
    Transport,
};
use acm_pcam::{DriftMonitor, LifecycleEvent, RegionEraReport, Vmc};
use acm_router::RequestRouter;
use acm_sim::rng::SimRng;
use acm_sim::shard::ShardLayout;
use acm_sim::time::{Duration, SimTime};
use acm_workload::RegionWorkload;

/// Upper bound on MONITOR shards. The shard count is
/// `min(regions, MONITOR_SHARDS_MAX, pool VMs / MONITOR_MIN_VMS_PER_SHARD)`,
/// at least 1 — a pure function of the work the configuration puts on
/// offer, never of the thread width, so the shard partition (and with it
/// every merge order) is identical at any `ACM_THREADS`.
const MONITOR_SHARDS_MAX: usize = 32;

/// VMs a MONITOR shard must carry before fanning out pays. One VM-era is
/// ~4 µs (`vm.process_era_ns`) and one fan-out through the pool ~45 µs
/// (task boxes, latch, a parked worker to wake), so 64 VMs ≈ 250 µs of
/// work per shard: the paper's worlds (10 and 22 VMs) run on one shard,
/// the 200-region mega world (≈ 14 700 VMs) keeps all 32.
const MONITOR_MIN_VMS_PER_SHARD: usize = 64;

/// What happened to one control-plane message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendOutcome {
    /// Routed and delivered (possibly with chaos-injected extra delay).
    Delivered,
    /// Routed, but the chaos layer dropped it — a retry can succeed.
    ChaosDropped,
    /// No usable route; retrying within the era cannot help.
    Unroutable,
}

/// The running multi-region control loop.
pub struct ControlLoop {
    era: Duration,
    now: SimTime,
    era_index: usize,
    vmcs: Vec<Vmc>,
    workloads: Vec<RegionWorkload>,
    estimators: Vec<RmttfEwma>,
    policy: LoadBalancingPolicy,
    /// Fractions currently installed on the load balancers.
    fractions: Vec<f64>,
    /// Last forward plan (for churn accounting).
    plan: Option<ForwardPlan>,
    transport: Transport,
    elector: Elector,
    autoscale_cfg: AutoscaleConfig,
    autoscalers: Vec<Autoscaler>,
    /// Response time the clients of each ingress region observed last era.
    observed_response: Vec<f64>,
    /// The leader's latest received `lastRMTTF` per region (stale on loss).
    received_rmttf: Vec<f64>,
    pending_faults: Vec<LinkFault>,
    recoveries_due: Vec<LinkFault>,
    /// Chaos replay over the transport (present iff a plan is configured).
    chaos: Option<ChaosLayer>,
    /// Leader-side degradation knobs (quarantine, retries, hysteresis).
    degradation: DegradationConfig,
    /// EWMA β, kept for resetting a re-admitted region's estimator.
    beta: f64,
    /// Per-region VM-hour prices (for re-costing subset policies).
    region_costs: Vec<f64>,
    /// Heartbeat suspicion, fed by report deliveries (degradation only).
    detector: Option<FailureDetector>,
    /// Report-age / quarantine state machine (degradation only).
    tracker: Option<HealthTracker>,
    scenario: Scenario,
    /// Request-routing data plane kept in lock-step with the installed
    /// plan: every install (fresh or frozen-with-quarantine) rebuilds the
    /// router's weight table with quarantined regions masked to zero.
    router: RequestRouter,
    rng: SimRng,
    telemetry: ExperimentTelemetry,
    obs: ObsHandle,
    /// Blueprint for the per-shard child hubs of a sharded MONITOR.
    obs_cfg: ObsConfig,
    /// Forces the MONITOR shard count (shard-count identity tests).
    #[cfg(test)]
    monitor_shards_override: Option<usize>,
    era_timer: Timer,
    monitor_timer: Timer,
    analyze_timer: Timer,
    plan_timer: Timer,
    execute_timer: Timer,
    ctr_report_retries: Counter,
    gauge_quarantined: Gauge,
    /// MONITOR shards the latest era ran on.
    gauge_monitor_shards: Gauge,
    /// Per-era exec-pool sampling (continuous `acm.exec.era.*` series).
    exec_prev: PoolStatsSnapshot,
    hist_exec_items: Hist,
    hist_exec_queue: Hist,
    hist_exec_busy: Hist,
    // --- causal tracing state (all inert when tracing is off) ----------
    /// Root span of the current era (ambient context for plain emits).
    trace_era_ctx: Option<TraceContext>,
    /// Root span of the most recent scripted link fault/recovery.
    trace_fault_ctx: Option<TraceContext>,
    /// Most recent health transition this era (parents the plan events).
    trace_health_ctx: Option<TraceContext>,
    /// Per-region: span of the latest `report.lost` (cleared on delivery).
    trace_loss_ctx: Vec<Option<TraceContext>>,
    /// Per-region: span of the latest `heartbeat.timeout`.
    trace_suspect_ctx: Vec<Option<TraceContext>>,
    /// Per-region: span of the open `region.quarantine`.
    trace_quarantine_ctx: Vec<Option<TraceContext>>,
    /// Burn-rate monitors (availability, latency); observed on tracing
    /// runs only so untraced event streams stay byte-identical.
    slo: Vec<BurnRateMonitor>,
    /// Span of each monitor's open `slo.burn` (cleared on recovery).
    slo_ctx: Vec<Option<TraceContext>>,
    /// Per-region predictor-miss watchers feeding `drift.signal` roots.
    drift: Vec<DriftMonitor>,
    /// True when `cfg.lifecycle.enabled` armed a model lifecycle on every
    /// model-backed VMC.
    lifecycle_on: bool,
    /// Per-region: span of the latest `drift.signal` root (parents
    /// `model.refit.start`).
    trace_drift_ctx: Vec<Option<TraceContext>>,
    /// Per-region: span of the latest `model.refit.start`.
    trace_refit_ctx: Vec<Option<TraceContext>>,
    /// Per-region: span of the latest `model.promote` (parents rollback).
    trace_promote_ctx: Vec<Option<TraceContext>>,
    /// Per-region `acm.pcam.model.<region>.version` gauges. Empty when the
    /// lifecycle is disabled, so such runs register no new metrics.
    gauge_model_version: Vec<Gauge>,
    /// Per-region `acm.pcam.model.<region>.shadow_err` gauges.
    gauge_model_shadow_err: Vec<Gauge>,
    /// Per-region `acm.pcam.model.<region>.incumbent_err` gauges.
    gauge_model_incumbent_err: Vec<Gauge>,
    /// Labeler admission failures, aggregated across regions (inert
    /// handles when the lifecycle is disabled).
    ctr_labeler_dropped_ooo: Counter,
    ctr_labeler_dropped_non_finite: Counter,
    /// Cumulative per-region labeler drop totals already exported to the
    /// counters (the labeler reports running totals, the counters deltas).
    labeler_dropped_exported: Vec<(u64, u64)>,
}

impl ControlLoop {
    /// Wires the loop from pre-built VMCs (the framework module handles
    /// predictor training and hands the VMCs in). Observability follows
    /// `cfg.obs`; use [`ControlLoop::new_with_obs`] to share an existing
    /// [`Obs`] instance instead.
    pub fn new(cfg: &ExperimentConfig, vmcs: Vec<Vmc>, rng: SimRng) -> Self {
        let obs = Obs::new(cfg.obs);
        Self::new_with_obs(cfg, vmcs, rng, obs)
    }

    /// Like [`ControlLoop::new`] but instruments the loop (and every VMC,
    /// the elector and the policy) against the caller's [`Obs`] instance,
    /// so one registry aggregates the whole run.
    pub fn new_with_obs(
        cfg: &ExperimentConfig,
        mut vmcs: Vec<Vmc>,
        mut rng: SimRng,
        obs: ObsHandle,
    ) -> Self {
        cfg.validate().expect("invalid experiment config");
        assert_eq!(vmcs.len(), cfg.regions.len(), "one VMC per region");
        let n = cfg.regions.len();

        let mut graph = OverlayGraph::new();
        for i in 0..n {
            graph.add_node(ExperimentConfig::node_of(i));
        }
        for (a, b, lat) in &cfg.latencies {
            graph.add_link(
                ExperimentConfig::node_of(*a),
                ExperimentConfig::node_of(*b),
                *lat,
            );
        }
        let mut transport = Transport::new(graph);
        transport.set_obs(&obs);
        let mut elector = Elector::new();
        elector.set_obs(&obs);
        elector.re_elect(transport.graph());

        let chaos = cfg.fault_plan.as_ref().map(|plan| {
            let mut layer = ChaosLayer::new(plan);
            layer.set_obs(&obs);
            layer
        });
        let (detector, tracker) = if cfg.degradation.enabled {
            let mut det = FailureDetector::new(
                cfg.degradation.heartbeat,
                (0..n).map(ExperimentConfig::node_of),
                SimTime::ZERO,
            );
            det.set_obs(&obs);
            (Some(det), Some(HealthTracker::new(&cfg.degradation, n)))
        } else {
            (None, None)
        };

        let workloads = cfg.regions.iter().map(|r| r.workload()).collect();
        let names = cfg.regions.iter().map(|r| r.region.name.clone()).collect();
        let region_costs: Vec<f64> = cfg.regions.iter().map(|r| r.region.vm_hour_usd).collect();
        let mut policy = LoadBalancingPolicy::new(cfg.policy)
            .with_k(cfg.k)
            .with_noise(cfg.exploration_noise)
            .with_region_costs(region_costs.clone());
        policy.set_obs(&obs);
        for vmc in &mut vmcs {
            vmc.set_obs(obs.clone());
        }

        // RNG split order is load-bearing: the loop's own stream takes
        // the first split, exactly as before the router existed, so
        // pre-router runs replay byte-identically; the router's dedicated
        // stream is the second split.
        let loop_rng = rng.split();
        let mut router = RequestRouter::new(n, cfg.router, rng.split());
        router.set_obs(&obs);

        // The model lifecycle's stream is the THIRD split, taken only when
        // the feature is on: every pre-lifecycle seed (and every run with
        // the feature off) replays byte-identically.
        let lifecycle_on = cfg.lifecycle.enabled;
        if lifecycle_on {
            let mut lc_rng = rng.split();
            for vmc in &mut vmcs {
                vmc.enable_lifecycle(cfg.lifecycle, lc_rng.split());
            }
        }
        let model_gauge = |which: &str| -> Vec<Gauge> {
            if !lifecycle_on {
                return Vec::new();
            }
            cfg.regions
                .iter()
                .map(|r| obs.gauge(&format!("acm.pcam.model.{}.{which}", r.region.name)))
                .collect()
        };

        ControlLoop {
            era: cfg.era,
            now: SimTime::ZERO,
            era_index: 0,
            workloads,
            estimators: vec![RmttfEwma::new(cfg.beta); n],
            policy,
            fractions: uniform_fractions(n),
            plan: None,
            transport,
            elector,
            autoscale_cfg: cfg.autoscale.clone(),
            autoscalers: (0..n).map(|_| Autoscaler::new()).collect(),
            observed_response: vec![0.0; n],
            received_rmttf: vec![0.0; n],
            pending_faults: cfg.link_faults.clone(),
            recoveries_due: Vec::new(),
            chaos,
            degradation: cfg.degradation.clone(),
            beta: cfg.beta,
            region_costs,
            detector,
            tracker,
            scenario: cfg.scenario.clone(),
            router,
            rng: loop_rng,
            telemetry: ExperimentTelemetry::new(names),
            obs_cfg: cfg.obs,
            #[cfg(test)]
            monitor_shards_override: None,
            vmcs,
            era_timer: obs.timer("acm.core.control_loop.era_ns"),
            monitor_timer: obs.timer("acm.core.control_loop.monitor_ns"),
            analyze_timer: obs.timer("acm.core.control_loop.analyze_ns"),
            plan_timer: obs.timer("acm.core.control_loop.plan_ns"),
            execute_timer: obs.timer("acm.core.control_loop.execute_ns"),
            ctr_report_retries: obs.counter("acm.core.report.retries"),
            gauge_quarantined: obs.gauge("acm.core.quarantined_regions"),
            gauge_monitor_shards: obs.gauge("acm.core.control_loop.monitor_shards"),
            exec_prev: acm_exec::global_stats(),
            hist_exec_items: obs.histogram("acm.exec.era.items"),
            hist_exec_queue: obs.histogram("acm.exec.era.queue_depth_peak"),
            hist_exec_busy: obs.histogram("acm.exec.era.busy_ns"),
            trace_era_ctx: None,
            trace_fault_ctx: None,
            trace_health_ctx: None,
            trace_loss_ctx: vec![None; n],
            trace_suspect_ctx: vec![None; n],
            trace_quarantine_ctx: vec![None; n],
            slo: vec![
                BurnRateMonitor::new(SloSpec::availability()),
                BurnRateMonitor::new(SloSpec::latency()),
            ],
            slo_ctx: vec![None; 2],
            // One predictor-miss window per region, tuned by `cfg.drift`
            // (defaults match the historical hard-coded 32/0.5/8).
            drift: (0..n).map(|_| cfg.drift.monitor()).collect(),
            lifecycle_on,
            trace_drift_ctx: vec![None; n],
            trace_refit_ctx: vec![None; n],
            trace_promote_ctx: vec![None; n],
            gauge_model_version: model_gauge("version"),
            gauge_model_shadow_err: model_gauge("shadow_err"),
            gauge_model_incumbent_err: model_gauge("incumbent_err"),
            ctr_labeler_dropped_ooo: if lifecycle_on {
                obs.counter("acm.pcam.labeler.dropped.out_of_order")
            } else {
                Counter::default()
            },
            ctr_labeler_dropped_non_finite: if lifecycle_on {
                obs.counter("acm.pcam.labeler.dropped.non_finite")
            } else {
                Counter::default()
            },
            labeler_dropped_exported: vec![(0, 0); n],
            obs,
        }
    }

    /// The observability instance the loop records into.
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// The request-routing data plane under the installed plan.
    pub fn router(&self) -> &RequestRouter {
        &self.router
    }

    /// Mutable router access (route requests, split per-shard lenses).
    pub fn router_mut(&mut self) -> &mut RequestRouter {
        &mut self.router
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
        &self.fractions
    }

    /// Switches the leader's policy at runtime, keeping the tuning knobs
    /// (k, jitter, region costs). The paper's framework "offers the
    /// possibility to modify the deploy at runtime in case the workload
    /// conditions change during the lifetime of the system" (Sec. II) —
    /// this is the policy-level version of that capability.
    pub fn set_policy(&mut self, kind: crate::policy::PolicyKind) {
        self.policy = self.policy.clone().with_kind(kind);
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
        self.elector
            .current()
            .expect("election ran at construction")
    }

    /// The overlay node of the region the leader VMC lives in, as seen from
    /// region-0's partition (the figure deployments are never partitioned).
    fn leader_node(&self) -> NodeId {
        let g = self.transport.graph();
        // Leader of the partition containing the lowest alive node; if all
        // nodes are dead fall back to node 0 (nothing routes anyway).
        let alive = g.alive_nodes();
        let probe = alive.first().copied().unwrap_or(NodeId(0));
        self.election().leader(probe).unwrap_or(probe)
    }

    /// Applies due fault injections/recoveries. Returns whether topology
    /// changed (forcing re-election).
    fn apply_faults(&mut self) -> bool {
        let now = self.now;
        let mut changed = false;
        let mut still_pending = Vec::new();
        for f in self.pending_faults.drain(..) {
            if f.fail_at <= now {
                self.transport.fail_link(
                    ExperimentConfig::node_of(f.a),
                    ExperimentConfig::node_of(f.b),
                );
                // Scripted faults are first causes: on tracing runs each
                // opens a root span downstream suspicion chains hang off.
                if self.obs.trace_enabled() {
                    self.trace_fault_ctx = self
                        .obs
                        .emit_caused(
                            now.as_micros(),
                            "fault.scripted",
                            vec![("a", Value::from(f.a)), ("b", Value::from(f.b))],
                            None,
                        )
                        .or(self.trace_fault_ctx);
                }
                self.recoveries_due.push(f);
                changed = true;
            } else {
                still_pending.push(f);
            }
        }
        self.pending_faults = still_pending;

        let mut still_due = Vec::new();
        for f in self.recoveries_due.drain(..) {
            if f.recover_at <= now {
                self.transport.recover_link(
                    ExperimentConfig::node_of(f.a),
                    ExperimentConfig::node_of(f.b),
                );
                changed = true;
            } else {
                still_due.push(f);
            }
        }
        self.recoveries_due = still_due;

        // Chaos plan replay: KillLeader resolves against the pre-fault
        // leader, so take the layer out before mutating the transport.
        if let Some(mut chaos) = self.chaos.take() {
            let leader = self.leader_node();
            if chaos.apply_due(now, &mut self.transport, leader) {
                changed = true;
            }
            // The newest chaos root (if any) becomes the era's fault
            // context. It persists across eras on purpose: an unhealed
            // partition keeps causing losses long after it opened.
            self.trace_fault_ctx = chaos.last_trace_ctx().or(self.trace_fault_ctx);
            self.chaos = Some(chaos);
        }

        if changed {
            let (_, leader_changed) = self.elector.re_elect(self.transport.graph());
            if leader_changed {
                self.emit_leader_change();
            }
        }
        changed
    }

    /// One control-plane send attempt from `from` to `to`: routes over the
    /// transport, then (when a chaos plan is active) lets the chaos layer
    /// decide the message's fate.
    fn control_send(&mut self, now: SimTime, from: NodeId, to: NodeId) -> SendOutcome {
        if self.transport.prepare_send(from, to).is_none() {
            return SendOutcome::Unroutable;
        }
        match &mut self.chaos {
            Some(chaos) => match chaos.message_fate(now, from, to) {
                MessageFate::Deliver { .. } => SendOutcome::Delivered,
                MessageFate::Drop => SendOutcome::ChaosDropped,
            },
            None => SendOutcome::Delivered,
        }
    }

    /// A control-plane send with the degradation policy's retry budget:
    /// chaos-dropped messages are retried with exponentially growing
    /// backoff as long as the cumulative backoff fits inside one era.
    /// Unroutable sends fail fast — the topology is frozen for the era.
    fn send_with_retries(&mut self, now: SimTime, from: NodeId, to: NodeId) -> SendOutcome {
        let mut outcome = self.control_send(now, from, to);
        if !self.degradation.enabled {
            return outcome;
        }
        let mut backoff = self.degradation.retry_backoff;
        let mut budget = self.era;
        let mut attempt = 0u32;
        while outcome == SendOutcome::ChaosDropped
            && attempt < self.degradation.report_retries
            && backoff <= budget
        {
            budget = budget.saturating_sub(backoff);
            backoff = backoff + backoff;
            attempt += 1;
            self.ctr_report_retries.inc();
            outcome = self.control_send(now, from, to);
        }
        if attempt > 0 && outcome == SendOutcome::Delivered && self.obs.enabled() {
            self.obs.emit(
                now.as_micros(),
                "report.retry",
                vec![
                    ("from", Value::from(from.0)),
                    ("to", Value::from(to.0)),
                    ("attempts", Value::from(attempt)),
                ],
            );
        }
        outcome
    }

    /// Logs the post-election leader (as seen from the first alive
    /// partition) to the decision log.
    fn emit_leader_change(&self) {
        if self.obs.enabled() {
            self.obs.emit_caused(
                self.now.as_micros(),
                "leader.change",
                vec![("leader", Value::from(self.leader_node().0))],
                self.trace_fault_ctx.or(self.trace_era_ctx),
            );
        }
    }

    /// Applies every scenario action due at `now` (Sec. II's runtime
    /// reconfiguration). Re-elects if the topology changed.
    fn apply_scenario(&mut self) {
        let now = self.now;
        let due = self.scenario.drain_due(now);
        if due.is_empty() {
            return;
        }
        let mut topology_changed = false;
        for sa in due {
            match sa.action {
                ScenarioAction::SwitchPolicy(kind) => {
                    self.policy = self.policy.clone().with_kind(kind);
                    if self.obs.enabled() {
                        self.obs.emit(
                            now.as_micros(),
                            "policy.switch",
                            vec![("policy", Value::from(kind.to_string()))],
                        );
                    }
                }
                ScenarioAction::FailLink { a, b } => {
                    self.transport
                        .fail_link(ExperimentConfig::node_of(a), ExperimentConfig::node_of(b));
                    topology_changed = true;
                }
                ScenarioAction::RecoverLink { a, b } => {
                    self.transport
                        .recover_link(ExperimentConfig::node_of(a), ExperimentConfig::node_of(b));
                    topology_changed = true;
                }
                ScenarioAction::SetTargetActive { region, target } => {
                    let pool = self.vmcs[region].pool_mut();
                    pool.set_target_active(target);
                    pool.replenish_active(now);
                    pool.demote_excess_active(now);
                }
                ScenarioAction::AddVm { region } => {
                    self.vmcs[region].pool_mut().add_vm();
                }
            }
        }
        if topology_changed {
            let (_, leader_changed) = self.elector.re_elect(self.transport.graph());
            if leader_changed {
                self.emit_leader_change();
            }
        }
    }

    /// Feeds this era's report outcomes into the quarantine state machine
    /// and returns the plan-participation mask (all-true when degradation
    /// is disabled). Re-admitted regions get a fresh EWMA so the stale
    /// pre-outage estimate cannot linger.
    fn update_region_health(&mut self, delivered: &[bool], t_end: SimTime) -> Vec<bool> {
        let n = delivered.len();
        if !self.degradation.enabled {
            return vec![true; n];
        }
        let mut tracker = self.tracker.take().expect("tracker exists when enabled");
        for (j, &was_delivered) in delivered.iter().enumerate() {
            let suspected = self
                .detector
                .as_ref()
                .is_some_and(|d| d.is_suspected(ExperimentConfig::node_of(j)));
            let event = tracker.observe(j, was_delivered, suspected);
            if let Some(ev) = event {
                if let HealthEvent::Readmitted = ev {
                    self.estimators[j] = RmttfEwma::new(self.beta);
                    // Same hygiene for the data plane: the region rejoins
                    // with no latency history, not its pre-outage one.
                    self.router.reset_latency(j);
                }
                if self.obs.enabled() {
                    let is_quarantine = matches!(ev, HealthEvent::Quarantined { .. });
                    let is_readmit = matches!(ev, HealthEvent::Readmitted);
                    let (kind, mut fields): (&'static str, Vec<(&'static str, Value)>) = match ev {
                        HealthEvent::Quarantined { stale, suspected } => (
                            "region.quarantine",
                            vec![
                                ("stale", Value::from(stale)),
                                ("suspected", Value::from(suspected)),
                                ("age_eras", Value::from(tracker.age(j))),
                            ],
                        ),
                        HealthEvent::ProbationStarted => ("region.probation", Vec::new()),
                        HealthEvent::Readmitted => ("region.readmit", Vec::new()),
                    };
                    fields.insert(0, ("region", Value::from(self.vmcs[j].name().to_string())));
                    // Invariant-checker hooks: which era the transition
                    // landed in and which outage it belongs to (the
                    // lifetime quarantine ordinal), so "exactly one
                    // readmit per outage" is checkable from the event log
                    // alone without replaying the state machine.
                    fields.push(("era", Value::from(self.era_index)));
                    fields.push(("outage", Value::from(tracker.quarantine_count(j))));
                    // Quarantines chain off the evidence that caused them
                    // (suspicion > loss > fault > era); probation/readmit
                    // continue the quarantine's own chain.
                    let parent = if is_quarantine {
                        self.trace_suspect_ctx[j]
                            .or(self.trace_loss_ctx[j])
                            .or(self.trace_fault_ctx)
                            .or(self.trace_era_ctx)
                    } else {
                        self.trace_quarantine_ctx[j].or(self.trace_era_ctx)
                    };
                    let ctx = self
                        .obs
                        .emit_caused(t_end.as_micros(), kind, fields, parent);
                    if is_quarantine {
                        self.trace_quarantine_ctx[j] = ctx;
                    } else if is_readmit {
                        self.trace_quarantine_ctx[j] = None;
                        self.trace_loss_ctx[j] = None;
                        self.trace_suspect_ctx[j] = None;
                    }
                    self.trace_health_ctx = ctx.or(self.trace_health_ctx);
                }
            }
        }
        let mask: Vec<bool> = (0..n).map(|j| tracker.is_live(j)).collect();
        self.gauge_quarantined.set(tracker.excluded_count() as f64);
        self.tracker = Some(tracker);
        mask
    }

    /// Runs the policy over the plan-participating regions. With every
    /// region live this is exactly the baseline call; with a strict subset
    /// the previous fractions are renormalised over the live regions, the
    /// policy plans in that subspace (re-costed for the cost-aware kind),
    /// and quarantined regions are pinned to zero flow. With nobody live
    /// the previous fractions are kept (the plan freezes anyway).
    fn plan_fractions(
        &mut self,
        live_mask: &[bool],
        rmttf_now: &[f64],
        lambda_total: f64,
    ) -> Vec<f64> {
        let n = live_mask.len();
        let live: Vec<usize> = (0..n).filter(|&j| live_mask[j]).collect();
        if live.len() == n {
            return self.policy.next_fractions(
                &self.fractions,
                rmttf_now,
                lambda_total,
                &mut self.rng,
            );
        }
        if live.is_empty() {
            return self.fractions.clone();
        }
        let prev_sum: f64 = live.iter().map(|&j| self.fractions[j]).sum();
        let prev_live: Vec<f64> = if prev_sum > 0.0 {
            live.iter().map(|&j| self.fractions[j] / prev_sum).collect()
        } else {
            uniform_fractions(live.len())
        };
        let rmttf_live: Vec<f64> = live.iter().map(|&j| rmttf_now[j]).collect();
        let costs_live: Vec<f64> = live.iter().map(|&j| self.region_costs[j]).collect();
        let sub_policy = self.policy.clone().with_region_costs(costs_live);
        let target_live =
            sub_policy.next_fractions(&prev_live, &rmttf_live, lambda_total, &mut self.rng);
        let mut target = vec![0.0; n];
        for (k, &j) in live.iter().enumerate() {
            target[j] = target_live[k];
        }
        target
    }

    /// The era's MONITOR partition: one shard per
    /// [`MONITOR_MIN_VMS_PER_SHARD`] VMs in the region pools, at most
    /// [`MONITOR_SHARDS_MAX`] (or one per region), at least one.
    fn monitor_layout(&self) -> ShardLayout {
        let n = self.vmcs.len();
        #[cfg(test)]
        if let Some(shards) = self.monitor_shards_override {
            return ShardLayout::balanced(n, shards);
        }
        let vms = self.vmcs.iter().map(|v| v.pool().vms().len()).sum();
        ShardLayout::sized(n, vms, MONITOR_MIN_VMS_PER_SHARD, MONITOR_SHARDS_MAX)
    }

    /// Advances every region through one era, on as many shards as the
    /// work pays for (see [`ControlLoop::monitor_layout`]).
    ///
    /// Each shard owns a contiguous slice of the regions and runs their
    /// [`Vmc::process_era`] in place; every VMC owns its RNG, so shards
    /// never share mutable state. A lone shard runs inline on the leader
    /// (`for_each_mut` never dispatches a single slot) and its VMCs keep
    /// recording into the parent hub they are homed on between eras.
    /// Several shards run on the exec pool, so each gets a fresh child hub
    /// (no instrument is shared across threads); at the barrier the
    /// children are folded into the parent in shard-index order (= region
    /// order for contiguous shards) and the VMCs re-homed. Either way the
    /// parent sees the regions' records in region order, which makes event
    /// sequence numbers, region-qualified gauges and histogram counts
    /// identical at any shard count and any thread width. A disabled
    /// parent skips the child hubs entirely, so un-observed runs stay
    /// allocation-free (observability never perturbs the run).
    fn process_regions(&mut self, lambdas: &[f64], t_start: SimTime) -> Vec<RegionEraReport> {
        let n = self.vmcs.len();
        let layout = self.monitor_layout();
        self.gauge_monitor_shards.set(layout.shards() as f64);
        let era = self.era;
        let child_hubs = self.obs.enabled() && layout.shards() > 1;
        let child_cfg = ObsConfig {
            enabled: true,
            // Ample per-era headroom: a child must never evict within one
            // era, or the parent would see a different event stream than
            // the sequential sweep produces.
            event_capacity: self.obs_cfg.event_capacity.max(4096),
            // Children inherit the trace flag so their plain emits pick up
            // the era's ambient annotation — but they never ALLOCATE spans
            // (all span ids come from the leader's tracer, in era order),
            // which is what keeps traced runs byte-identical at any
            // thread width. The derived seed only matters if that
            // invariant is ever relaxed.
            trace: self.obs.trace_enabled(),
            trace_seed: acm_obs::trace::mix(self.obs.trace_seed(), self.era_index as u64),
        };
        let era_ambient = self.obs.trace_ambient();
        let timeline = self.obs.timeline_recorder().cloned();
        let era_no = self.era_index as u64;

        struct MonitorShard<'a> {
            vmcs: &'a mut [Vmc],
            lambdas: &'a [f64],
            /// The hub this shard's VMCs record into for the era; `None`
            /// when they stay on the parent.
            child: Option<ObsHandle>,
            reports: Vec<RegionEraReport>,
        }
        // Timeline track of shard `s` (track 0 is the leader's).
        let track = |s: usize| 1 + s as u32;

        let mut shards: Vec<MonitorShard<'_>> = Vec::with_capacity(layout.shards());
        let mut vmcs_left = self.vmcs.as_mut_slice();
        for (s, range) in layout.iter() {
            let (vmcs, rest) = vmcs_left.split_at_mut(range.len());
            vmcs_left = rest;
            let child = child_hubs.then(|| {
                let child = Obs::new(child_cfg);
                child.set_trace_ambient(era_ambient);
                for vmc in vmcs.iter_mut() {
                    vmc.set_obs(child.clone());
                }
                child
            });
            if let Some(tl) = &timeline {
                tl.set_track_name(track(s), &format!("shard {s}"));
            }
            shards.push(MonitorShard {
                vmcs,
                reports: Vec::with_capacity(range.len()),
                lambdas: &lambdas[range],
                child,
            });
        }

        acm_exec::for_each_mut(&mut shards, |s, shard| {
            let t0 = timeline.as_ref().map(|tl| tl.now_us());
            for (vmc, &lambda) in shard.vmcs.iter_mut().zip(shard.lambdas) {
                shard.reports.push(vmc.process_era(t_start, era, lambda));
            }
            if let (Some(tl), Some(t0)) = (&timeline, t0) {
                tl.record(
                    track(s),
                    "monitor.shard",
                    t0,
                    tl.now_us().saturating_sub(t0),
                    era_no,
                );
            }
        });

        // Era barrier: gather the reports and fold the child hubs into
        // the parent, all in shard-index order.
        let mut reports = Vec::with_capacity(n);
        for mut shard in shards {
            if let Some(child) = shard.child {
                self.obs.merge_from(&child);
                // Re-home the VMCs so post-barrier phases (autoscaling,
                // scenario actions) and an unsharded later era record
                // straight into the parent.
                for vmc in shard.vmcs.iter_mut() {
                    vmc.set_obs(self.obs.clone());
                }
            }
            reports.append(&mut shard.reports);
        }
        reports
    }

    /// Emits the obs events for one region's lifecycle transitions,
    /// chaining each on its cause: `drift.signal` -> `model.refit.start`
    /// -> `model.refit.done` -> `model.promote` -> `model.rollback`, with
    /// the era root as the fallback parent at every hop.
    fn emit_lifecycle_events(&mut self, j: usize, t: SimTime, events: &[LifecycleEvent]) {
        if !self.obs.enabled() {
            return;
        }
        for ev in events {
            let region = || Value::from(self.vmcs[j].name().to_string());
            match ev {
                LifecycleEvent::RefitStarted { version, rows } => {
                    self.trace_refit_ctx[j] = self.obs.emit_caused(
                        t.as_micros(),
                        "model.refit.start",
                        vec![
                            ("region", region()),
                            ("version", Value::from(*version)),
                            ("rows", Value::from(*rows)),
                        ],
                        self.trace_drift_ctx[j].or(self.trace_era_ctx),
                    );
                }
                LifecycleEvent::RefitDone { version } => {
                    self.obs.emit_caused(
                        t.as_micros(),
                        "model.refit.done",
                        vec![("region", region()), ("version", Value::from(*version))],
                        self.trace_refit_ctx[j].or(self.trace_era_ctx),
                    );
                }
                LifecycleEvent::Promoted {
                    version,
                    old_version,
                    cand_err,
                    incumbent_err,
                    samples,
                } => {
                    self.trace_promote_ctx[j] = self.obs.emit_caused(
                        t.as_micros(),
                        "model.promote",
                        vec![
                            ("region", region()),
                            ("version", Value::from(*version)),
                            ("old_version", Value::from(*old_version)),
                            ("cand_err_s", Value::from(*cand_err)),
                            ("incumbent_err_s", Value::from(*incumbent_err)),
                            ("samples", Value::from(*samples)),
                        ],
                        self.trace_refit_ctx[j].or(self.trace_era_ctx),
                    );
                }
                LifecycleEvent::Rejected {
                    version,
                    cand_err,
                    incumbent_err,
                } => {
                    self.obs.emit_caused(
                        t.as_micros(),
                        "model.reject",
                        vec![
                            ("region", region()),
                            ("version", Value::from(*version)),
                            ("cand_err_s", Value::from(*cand_err)),
                            ("incumbent_err_s", Value::from(*incumbent_err)),
                        ],
                        self.trace_refit_ctx[j].or(self.trace_era_ctx),
                    );
                }
                LifecycleEvent::RolledBack {
                    from_version,
                    to_version,
                    err,
                    baseline_err,
                } => {
                    self.obs.emit_caused(
                        t.as_micros(),
                        "model.rollback",
                        vec![
                            ("region", region()),
                            ("from_version", Value::from(*from_version)),
                            ("to_version", Value::from(*to_version)),
                            ("live_err_s", Value::from(*err)),
                            ("baseline_err_s", Value::from(*baseline_err)),
                        ],
                        self.trace_promote_ctx[j].or(self.trace_era_ctx),
                    );
                }
            }
        }
    }

    /// Publishes the per-region model gauges and the labeler admission
    /// drop counters after the lifecycle's end-of-era pass.
    fn publish_model_metrics(&mut self) {
        if !self.obs.enabled() {
            return;
        }
        for j in 0..self.vmcs.len() {
            let Some(lc) = self.vmcs[j].lifecycle() else {
                continue;
            };
            self.gauge_model_version[j].set(lc.version() as f64);
            if let Some((cand, incumbent)) = lc.shadow_errs() {
                self.gauge_model_shadow_err[j].set(cand);
                self.gauge_model_incumbent_err[j].set(incumbent);
            }
            let ooo = lc.labeler().dropped_out_of_order();
            let nf = lc.labeler().dropped_non_finite();
            let (prev_ooo, prev_nf) = self.labeler_dropped_exported[j];
            self.ctr_labeler_dropped_ooo
                .add(ooo.saturating_sub(prev_ooo));
            self.ctr_labeler_dropped_non_finite
                .add(nf.saturating_sub(prev_nf));
            self.labeler_dropped_exported[j] = (ooo, nf);
        }
    }

    /// Runs one full era of the closed loop.
    // Index loops here deliberately walk several region-aligned vectors in
    // lock-step; iterator zips would obscure the alignment.
    #[allow(clippy::needless_range_loop)]
    pub fn step_era(&mut self) {
        let _era_span = self.era_timer.start();
        let n = self.vmcs.len();
        let t_start = self.now;
        let t_end = t_start + self.era;

        // Era root span: every causal chain this era bottoms out here (or
        // at a fault root). The ambient context makes plain emits carry it.
        if self.obs.trace_enabled() {
            self.trace_era_ctx = self.obs.emit_caused(
                t_start.as_micros(),
                "era",
                vec![("era", Value::from(self.era_index))],
                None,
            );
            self.obs.set_trace_ambient(self.trace_era_ctx);
            self.trace_health_ctx = None;
        }
        // Wall-clock timeline (Perfetto export): leader phase slices on
        // track 0, shard/worker slices on their own tracks. Metrics-class
        // data — never part of the byte-identity contract.
        let timeline = self.obs.timeline_recorder().cloned();
        let era_no = self.era_index as u64;
        if let Some(tl) = &timeline {
            tl.set_track_name(0, "leader");
        }
        let mark = |tl: &Option<std::sync::Arc<TimelineRecorder>>| tl.as_ref().map(|t| t.now_us());
        let slice = |tl: &Option<std::sync::Arc<TimelineRecorder>>,
                     name: &'static str,
                     start: Option<u64>| {
            if let (Some(t), Some(s)) = (tl.as_ref(), start) {
                t.record(0, name, s, t.now_us().saturating_sub(s), era_no);
            }
        };
        let era_t0 = mark(&timeline);

        self.apply_faults();
        self.apply_scenario();

        // ----- model lifecycle: collect refits due this era -----------------
        // Before MONITOR and outside every phase timer: a refit is joined
        // at its fixed era boundary (claim-and-inline if the pool never
        // started it), so background training is leader bookkeeping here,
        // never Plan-phase latency.
        if self.lifecycle_on {
            for j in 0..n {
                let events = self.vmcs[j].lifecycle_begin_era(era_no);
                self.emit_lifecycle_events(j, t_start, &events);
            }
        }

        // ----- MONITOR: client ingress under the interactive law ----------
        let monitor_span = self.monitor_timer.start();
        let monitor_t0 = mark(&timeline);
        let lambda_in: Vec<f64> = (0..n)
            .map(|i| self.workloads[i].offered_rate(t_start, self.observed_response[i]))
            .collect();
        let lambda_total: f64 = lambda_in.iter().sum();
        let ingress: Vec<f64> = if lambda_total > 0.0 {
            lambda_in.iter().map(|l| l / lambda_total).collect()
        } else {
            uniform_fractions(n)
        };

        // Install the forward plan realising the current fractions.
        let plan = ForwardPlan::build(&ingress, &self.fractions);
        let churn = self.plan.as_ref().map_or(0.0, |prev| plan.churn_from(prev));
        let remote = plan.remote_fraction();

        // ----- region era processing (the "application data" plane) -------
        // Contiguous region slices advance in place, on as many shards as
        // the pools' VM count pays for; the event log and metrics are
        // byte-identical at any shard count and any thread width.
        let lambdas: Vec<f64> = (0..n)
            .map(|j| plan.realised_share(j) * lambda_total)
            .collect();
        let reports = self.process_regions(&lambdas, t_start);
        drop(monitor_span);
        slice(&timeline, "monitor", monitor_t0);

        // ----- ANALYZE: slaves report lastRMTTF to the leader --------------
        let analyze_span = self.analyze_timer.start();
        let analyze_t0 = mark(&timeline);
        let leader = self.leader_node();
        let mut delivered = vec![false; n];
        for j in 0..n {
            let node = ExperimentConfig::node_of(j);
            if self.send_with_retries(t_end, node, leader) == SendOutcome::Delivered {
                self.received_rmttf[j] = reports[j].last_rmttf;
                delivered[j] = true;
                self.trace_loss_ctx[j] = None;
                self.trace_suspect_ctx[j] = None;
                // A delivered report doubles as a heartbeat.
                if let Some(det) = &mut self.detector {
                    det.record_heartbeat(node, t_end);
                }
            } else {
                // Report lost; the leader keeps the stale value. Chains
                // off the fault that (probably) ate it.
                if self.obs.enabled() {
                    self.trace_loss_ctx[j] = self
                        .obs
                        .emit_caused(
                            t_end.as_micros(),
                            "report.lost",
                            vec![("region", Value::from(self.vmcs[j].name().to_string()))],
                            self.trace_fault_ctx.or(self.trace_era_ctx),
                        )
                        .or(self.trace_loss_ctx[j]);
                }
            }
        }
        if let Some(det) = &mut self.detector {
            let newly = det.check(t_end);
            // Suspicion events are trace-only (they would change untraced
            // event streams otherwise); each chains loss -> fault -> era.
            if self.obs.trace_enabled() {
                for node in newly {
                    let j = node.0 as usize;
                    let silent = det.silent_for(node, t_end).unwrap_or(Duration::ZERO);
                    self.trace_suspect_ctx[j] = self.obs.emit_caused(
                        t_end.as_micros(),
                        "heartbeat.timeout",
                        vec![
                            ("node", Value::from(node.0)),
                            ("silent_us", Value::from(silent.as_micros())),
                        ],
                        self.trace_loss_ctx[j]
                            .or(self.trace_fault_ctx)
                            .or(self.trace_era_ctx),
                    );
                }
            }
        }
        drop(analyze_span);
        slice(&timeline, "analyze", analyze_t0);

        // ----- PLAN (leader): Eq. 1 then POLICY() --------------------------
        let plan_span = self.plan_timer.start();
        let plan_t0 = mark(&timeline);
        let live_mask = self.update_region_health(&delivered, t_end);
        let rmttf_now: Vec<f64> = (0..n)
            .map(|j| {
                if !self.degradation.enabled || delivered[j] {
                    // Baseline behaviour: smooth whatever the leader holds
                    // (stale on loss). Degradation smooths fresh data only.
                    self.estimators[j].update(self.received_rmttf[j])
                } else {
                    self.estimators[j].value_or_zero()
                }
            })
            .collect();
        if self.obs.enabled() {
            for j in 0..n {
                if self.degradation.enabled && !delivered[j] {
                    continue; // no update happened, nothing to log
                }
                self.obs.emit(
                    t_end.as_micros(),
                    "ewma.update",
                    vec![
                        ("region", Value::from(self.vmcs[j].name().to_string())),
                        ("raw_s", Value::from(self.received_rmttf[j])),
                        ("smoothed_s", Value::from(rmttf_now[j])),
                    ],
                );
            }
        }
        let target = self.plan_fractions(&live_mask, &rmttf_now, lambda_total);
        drop(plan_span);
        slice(&timeline, "plan", plan_t0);

        // ----- EXECUTE: install the new plan, but only if EVERY region is
        // reachable — a global forward plan installed on a strict subset of
        // the load balancers would be inconsistent (fractions would no
        // longer sum to one across the regions actually applying them), so
        // the leader freezes the previous plan until connectivity returns.
        let execute_span = self.execute_timer.start();
        let execute_t0 = mark(&timeline);
        let install_targets: Vec<usize> = if self.degradation.enabled {
            (0..n).filter(|&j| live_mask[j]).collect()
        } else {
            (0..n).collect()
        };
        let mut installable = !install_targets.is_empty();
        for &j in &install_targets {
            // Short-circuits on the first unreachable balancer, exactly
            // like the pre-degradation all-regions gate.
            if self.send_with_retries(t_end, leader, ExperimentConfig::node_of(j))
                != SendOutcome::Delivered
            {
                installable = false;
                break;
            }
        }
        // The plan decision chains off this era's health transition when
        // one happened (quarantine/readmit re-planning), else off the era.
        let plan_parent = self.trace_health_ctx.or(self.trace_era_ctx);
        let mut install_ctx = None;
        if installable {
            if self.obs.enabled() {
                install_ctx = self.obs.emit_caused(
                    t_end.as_micros(),
                    "plan.install",
                    vec![
                        ("era", Value::from(self.era_index)),
                        ("old", Value::from(self.fractions.as_slice())),
                        ("new", Value::from(target.as_slice())),
                    ],
                    plan_parent,
                );
            }
            self.fractions = target;
        } else if self.degradation.enabled && self.obs.enabled() {
            install_ctx = self.obs.emit_caused(
                t_end.as_micros(),
                "plan.freeze",
                vec![
                    ("era", Value::from(self.era_index)),
                    ("live", Value::from(install_targets.len())),
                    ("regions", Value::from(n)),
                ],
                plan_parent.or(self.trace_fault_ctx),
            );
        }

        // Data-plane sync: rebuild the router's weight table from the
        // fractions now in force — the freshly installed plan, or the
        // frozen one with this era's quarantine mask applied — in one
        // atomic double-buffered swap. Quarantined regions carry zero
        // weight and become structurally unsampleable.
        let routed_live = self.degradation.enabled.then_some(live_mask.as_slice());
        let swapped = self.router.install(&self.fractions, routed_live);
        if swapped && self.obs.enabled() {
            self.obs.emit_caused(
                t_end.as_micros(),
                "router.replan",
                vec![
                    ("epoch", Value::from(self.router.epoch())),
                    (
                        "live",
                        Value::from(live_mask.iter().filter(|l| **l).count()),
                    ),
                    (
                        "support",
                        Value::from(self.router.shares().iter().filter(|s| **s > 0.0).count()),
                    ),
                ],
                install_ctx.or(plan_parent),
            );
        }
        // Routed outcomes feed the latency scorer: each region's
        // completion-weighted mean response this era is one decayed
        // sample (regions that completed nothing contribute no signal).
        for j in 0..n {
            if reports[j].completed > 0 && reports[j].mean_response_s > 0.0 {
                self.router
                    .record_latency(j, Duration::from_secs_f64(reports[j].mean_response_s));
            }
        }
        self.router.publish();

        // Autoscaling (Alg. 3 lines 6–8).
        for j in 0..n {
            let mut scaler = std::mem::take(&mut self.autoscalers[j]);
            scaler.step(
                &self.autoscale_cfg,
                &mut self.vmcs[j],
                t_end,
                reports[j].mean_response_s,
                rmttf_now[j],
            );
            self.autoscalers[j] = scaler;
        }
        drop(execute_span);
        slice(&timeline, "execute", execute_t0);

        // Predictor-drift watch: every end-of-life event this era feeds
        // the per-region miss window; a flip into the drifted state opens
        // a root `drift.signal` span on tracing runs (the emit is inert on
        // any other hub, so untraced event streams are unchanged). The
        // windows are fed unconditionally now that the model lifecycle
        // reads them — monitor state is no longer a tracing side effect.
        for j in 0..n {
            for _ in 0..reports[j].reactive_failures {
                if let Some(ctx) = self.drift[j].record_with_obs(
                    true,
                    &self.obs,
                    t_end.as_micros(),
                    self.vmcs[j].name(),
                ) {
                    self.trace_drift_ctx[j] = Some(ctx);
                }
            }
            for _ in 0..reports[j].proactive_rejuvenations {
                if let Some(ctx) = self.drift[j].record_with_obs(
                    false,
                    &self.obs,
                    t_end.as_micros(),
                    self.vmcs[j].name(),
                ) {
                    self.trace_drift_ctx[j] = Some(ctx);
                }
            }
        }

        // ----- model lifecycle: verdicts, then maybe a new refit ------------
        // After the drift feed so a flip detected this era can trigger its
        // refit in the same era; after EXECUTE so shadow scores include
        // everything the region processed this era.
        if self.lifecycle_on {
            for j in 0..n {
                let drifted = self.drift[j].drifted();
                let events = self.vmcs[j].lifecycle_end_era(era_no, drifted);
                self.emit_lifecycle_events(j, t_end, &events);
            }
            self.publish_model_metrics();
        }

        // ----- client-observed response times for the next era -------------
        // A client attached to region i experiences the processing time of
        // wherever its request was forwarded, plus the WAN round trip.
        // All n² latencies, every era: one tree fetch per client region,
        // then n reads off it.
        let mut observed = vec![0.0; n];
        for i in 0..n {
            let from_i = self.transport.tree(ExperimentConfig::node_of(i));
            let mut r = 0.0;
            for j in 0..n {
                let frac = plan.fraction(i, j);
                if frac == 0.0 {
                    continue;
                }
                let rtt = if i == j {
                    0.0
                } else {
                    from_i
                        .latency(ExperimentConfig::node_of(j))
                        .map_or(0.0, |d| 2.0 * d.as_secs_f64())
                };
                r += frac * (reports[j].mean_response_s + rtt);
            }
            observed[i] = r;
        }
        self.observed_response = observed;
        let global_response: f64 = ingress
            .iter()
            .zip(&self.observed_response)
            .map(|(a, r)| a * r)
            .sum();

        // ----- telemetry ----------------------------------------------------
        let records: Vec<RegionEraRecord> = (0..n)
            .map(|j| RegionEraRecord {
                rmttf: rmttf_now[j],
                fraction: self.fractions[j],
                response_s: reports[j].mean_response_s,
                active_vms: reports[j].active_vms,
                proactive: reports[j].proactive_rejuvenations,
                reactive: reports[j].reactive_failures,
                completed: reports[j].completed,
            })
            .collect();
        self.telemetry.record_era(
            t_end,
            &records,
            global_response,
            lambda_total,
            churn,
            remote,
        );

        // ----- SLO burn rates (tracing runs only) ---------------------------
        // Availability: did the leader hear from every region this era?
        // Latency: completed requests served by regions inside the 1 s SLA
        // (the paper's response-time bound). Both use the SRE fast/slow
        // multi-window rule; transitions chain off the active fault.
        if self.obs.trace_enabled() {
            let delivered_count = delivered.iter().filter(|d| **d).count() as u64;
            let total_completed: u64 = reports.iter().map(|r| r.completed).sum();
            let within_sla: u64 = reports
                .iter()
                .filter(|r| r.mean_response_s <= 1.0)
                .map(|r| r.completed)
                .sum();
            let inputs = [(delivered_count, n as u64), (within_sla, total_completed)];
            for (i, (good, total)) in inputs.into_iter().enumerate() {
                let name = self.slo[i].spec().name;
                match self.slo[i].observe(good, total) {
                    Some(SloTransition::Fired {
                        fast_burn,
                        slow_burn,
                    }) => {
                        self.slo_ctx[i] = self.obs.emit_caused(
                            t_end.as_micros(),
                            "slo.burn",
                            vec![
                                ("slo", Value::from(name)),
                                ("fast_burn", Value::from(fast_burn)),
                                ("slow_burn", Value::from(slow_burn)),
                            ],
                            self.trace_fault_ctx.or(self.trace_era_ctx),
                        );
                    }
                    Some(SloTransition::Recovered { fast_burn }) => {
                        self.obs.emit_caused(
                            t_end.as_micros(),
                            "slo.recovered",
                            vec![
                                ("slo", Value::from(name)),
                                ("fast_burn", Value::from(fast_burn)),
                            ],
                            self.slo_ctx[i].or(self.trace_era_ctx),
                        );
                        self.slo_ctx[i] = None;
                    }
                    None => {}
                }
            }
        }

        // ----- continuous exec-pool sampling --------------------------------
        // One histogram sample per era, so obs_report can localise a pool
        // stall to a phase of the run. Wall-clock data: metrics only, never
        // the (seed-deterministic) event log.
        if self.obs.enabled() {
            let now_stats = acm_exec::global_stats();
            let delta = now_stats.delta_since(&self.exec_prev);
            self.hist_exec_items.record(delta.items);
            self.hist_exec_queue.record(delta.queue_depth_peak);
            self.hist_exec_busy.record(delta.total_busy_ns());
            // Per-worker busy slices for the Perfetto timeline, anchored
            // at the era's wall-clock start (the pool reports aggregate
            // busy-ns, not per-job placement).
            if let (Some(tl), Some(t0)) = (&timeline, era_t0) {
                for (w, &busy_ns) in delta.worker_busy_ns.iter().enumerate() {
                    if busy_ns == 0 {
                        continue;
                    }
                    let track = 100 + w as u32;
                    tl.set_track_name(track, &format!("worker {w}"));
                    tl.record(track, "exec.busy", t0, busy_ns / 1_000, era_no);
                }
            }
            self.exec_prev = now_stats;
        }
        slice(&timeline, "era", era_t0);

        self.plan = Some(plan);
        self.now = t_end;
        self.era_index += 1;
    }

    /// Runs `eras` control eras.
    pub fn run(&mut self, eras: usize) {
        for _ in 0..eras {
            self.step_era();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use acm_pcam::RttfSource;

    /// Builds a loop with oracle predictors (fast: no training phase).
    fn oracle_loop(cfg: &ExperimentConfig) -> ControlLoop {
        let mut rng = SimRng::new(cfg.seed);
        let vmcs: Vec<Vmc> = cfg
            .regions
            .iter()
            .map(|spec| Vmc::new(spec.region.clone(), RttfSource::Oracle, rng.split()))
            .collect();
        ControlLoop::new(cfg, vmcs, rng)
    }

    fn fig3_cfg(policy: PolicyKind) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::two_region_fig3(policy, 42);
        cfg.predictor = crate::config::PredictorChoice::Oracle;
        cfg
    }

    /// The world-drift recipe shared by the lifecycle tests: a config
    /// whose regions leak memory 3x faster than the profile the (stale)
    /// predictors were trained on, with a hair-trigger drift monitor and
    /// a lifecycle tuned to act within a short run.
    fn drifted_cfg(policy: PolicyKind) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::two_region_fig3(policy, 42);
        for spec in &mut cfg.regions {
            spec.region.anomaly.leak_size_mb *= 3.0;
        }
        cfg.drift = acm_pcam::DriftConfig {
            window: 8,
            miss_bound: 0.25,
            min_samples: 2,
        };
        cfg.lifecycle = acm_pcam::LifecycleConfig {
            enabled: true,
            min_labelled_rows: 20,
            shadow_min_samples: 6,
            cooldown_eras: 4,
            ..Default::default()
        };
        cfg
    }

    /// Builds a model-backed loop. With `stale = true` every VMC serves a
    /// model trained on the PRE-drift (default) anomaly profile of its
    /// flavor, so reactive failures — and with them the refit machinery —
    /// are guaranteed to appear; with `stale = false` the models are
    /// trained on the config's own (drifted) profile and are competent.
    fn model_loop(cfg: &ExperimentConfig, stale: bool) -> ControlLoop {
        use acm_ml::model::ModelKind;
        use acm_ml::toolchain::F2pmToolchain;
        use acm_pcam::training::{collect_database, CollectionConfig};
        let mut train_rng = SimRng::new(7);
        let quick = CollectionConfig {
            lambdas: vec![4.0, 8.0, 16.0],
            runs_per_lambda: 3,
            ..Default::default()
        };
        let mut rng = SimRng::new(cfg.seed);
        let vmcs: Vec<Vmc> = cfg
            .regions
            .iter()
            .map(|spec| {
                let anomaly = if stale {
                    acm_vm::AnomalyConfig::default()
                } else {
                    spec.region.anomaly.clone()
                };
                let db = collect_database(
                    &spec.region.flavor,
                    &anomaly,
                    &spec.region.failure_spec,
                    &quick,
                    &mut train_rng,
                );
                let (model, _) = F2pmToolchain {
                    models: vec![ModelKind::RepTree],
                    ..Default::default()
                }
                .run(&db, &mut train_rng);
                Vmc::new(spec.region.clone(), RttfSource::Model(model), rng.split())
            })
            .collect();
        ControlLoop::new(cfg, vmcs, rng)
    }

    #[test]
    fn lifecycle_promotes_refit_models_under_drift() {
        let cfg = drifted_cfg(PolicyKind::AvailableResources);
        let mut cl = model_loop(&cfg, true);
        cl.run(40);
        let events = cl.obs().events_tail(usize::MAX);
        let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
        assert!(count("model.refit.start") >= 1, "no refit ever submitted");
        assert!(count("model.refit.done") >= 1, "no refit ever collected");
        assert!(count("model.promote") >= 1, "no candidate ever promoted");
        assert!(
            cl.vmcs()
                .iter()
                .any(|v| v.lifecycle().is_some_and(|l| l.version() > 1)),
            "no region is serving a refit model"
        );
        // The loop kept serving throughout the churn.
        assert_eq!(cl.telemetry().eras(), 40);
        assert!(cl.telemetry().total_completed() > 0);
        let s: f64 = cl.fractions().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn poisoned_refits_are_never_promoted_by_the_loop() {
        let mut cfg = drifted_cfg(PolicyKind::AvailableResources);
        // Hair-trigger drift so refits keep coming in both phases.
        cfg.drift = acm_pcam::DriftConfig {
            window: 8,
            miss_bound: 0.01,
            min_samples: 1,
        };
        let mut cl = model_loop(&cfg, true);
        // Honest warm-up: the lifecycle replaces the stale offline model
        // with one fitted to the drifted live distribution.
        cl.run(30);
        let count_now = |cl: &ControlLoop, kind: &str| {
            cl.obs()
                .events_tail(usize::MAX)
                .iter()
                .filter(|e| e.kind == kind)
                .count()
        };
        assert!(count_now(&cl, "model.promote") >= 1, "no warm-up promotion");
        // Poisoned phase: every candidate is target-shuffled. Against a
        // live-fitted incumbent it must lose the shadow comparison — the
        // incumbent keeps serving untouched. A few eras drain refits that
        // were still in flight (honestly trained) when the poison landed.
        cl.set_lifecycle_poison(true);
        cl.run(10);
        let honest_promotions = count_now(&cl, "model.promote");
        let honest_refits = count_now(&cl, "model.refit.done");
        let versions_after_warmup: Vec<u64> = cl
            .vmcs()
            .iter()
            .map(|v| v.lifecycle().expect("lifecycle enabled").version())
            .collect();
        cl.run(40);
        assert!(
            count_now(&cl, "model.refit.done") > honest_refits,
            "poisoned phase collected no refits"
        );
        assert_eq!(
            count_now(&cl, "model.promote"),
            honest_promotions,
            "a poisoned model was promoted"
        );
        // No new promotions means versions can only stand still — or step
        // BACK, if the regression watch rolled back a drain-window
        // promotion that went sour (that is the watch doing its job).
        let versions_after_poison: Vec<u64> = cl
            .vmcs()
            .iter()
            .map(|v| v.lifecycle().expect("lifecycle enabled").version())
            .collect();
        for (before, after) in versions_after_warmup.iter().zip(&versions_after_poison) {
            assert!(after <= before, "version advanced without a promotion");
        }
        assert!(cl.telemetry().total_completed() > 0);
    }

    #[test]
    fn lifecycle_run_is_deterministic_and_unperturbed_by_observability() {
        let on = drifted_cfg(PolicyKind::AvailableResources);
        let mut off = on.clone();
        off.obs = acm_obs::ObsConfig::noop();
        let mut a = model_loop(&on, true);
        let mut b = model_loop(&off, true);
        let mut c = model_loop(&on, true);
        a.run(40);
        b.run(40);
        c.run(40);
        // Same seed, same story — with or without instrumentation.
        assert_eq!(a.telemetry().to_csv(), b.telemetry().to_csv());
        assert_eq!(a.telemetry().to_csv(), c.telemetry().to_csv());
        assert_eq!(a.obs().events_len(), c.obs().events_len());
        assert_eq!(b.obs().events_len(), 0, "noop run must log nothing");
        let versions = |cl: &ControlLoop| -> Vec<Option<u64>> {
            cl.vmcs()
                .iter()
                .map(|v| v.lifecycle().map(|l| l.version()))
                .collect()
        };
        assert_eq!(versions(&a), versions(&b));
        assert_eq!(versions(&a), versions(&c));
    }

    #[test]
    fn model_events_chain_drift_to_refit_to_promotion() {
        let mut cfg = drifted_cfg(PolicyKind::AvailableResources);
        cfg.obs = acm_obs::ObsConfig::traced(2026);
        let mut cl = model_loop(&cfg, true);
        cl.run(40);
        let events = cl.obs().events_tail(usize::MAX);
        let field = |e: &acm_obs::EventRecord, k: &str| -> Option<u64> {
            e.fields.iter().find_map(|(n, v)| match (n, v) {
                (name, Value::U64(u)) if *name == k => Some(*u),
                _ => None,
            })
        };
        let spans_of = |kind: &str| -> Vec<u64> {
            events
                .iter()
                .filter(|e| e.kind == kind)
                .filter_map(|e| field(e, "span"))
                .collect()
        };
        let drift_spans = spans_of("drift.signal");
        let refit_spans = spans_of("model.refit.start");
        assert!(!drift_spans.is_empty(), "traced run saw no drift.signal");
        assert!(!refit_spans.is_empty(), "traced run saw no refit");
        // Every refit chains off a drift signal (or the era root before
        // the first signal of its region); at least one must chain off a
        // drift.signal span — the whole point of the why-chain.
        let refit_causes: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == "model.refit.start")
            .filter_map(|e| field(e, "cause"))
            .collect();
        assert!(
            refit_causes.iter().any(|c| drift_spans.contains(c)),
            "no refit chains off a drift.signal"
        );
        // Every promotion chains off the refit that produced it.
        let promote_causes: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == "model.promote")
            .filter_map(|e| field(e, "cause"))
            .collect();
        assert!(!promote_causes.is_empty(), "traced run saw no promotion");
        assert!(
            promote_causes.iter().all(|c| refit_spans.contains(c)),
            "a promotion does not chain off its refit"
        );
    }

    #[test]
    fn lifecycle_metrics_report_versions_and_shadow_errors() {
        let cfg = drifted_cfg(PolicyKind::AvailableResources);
        let mut cl = model_loop(&cfg, true);
        cl.run(40);
        let metrics = cl.obs().metrics();
        let gauge = |name: &str| -> Option<f64> {
            metrics.iter().find_map(|m| match &m.value {
                acm_obs::MetricValue::Gauge(v) if m.name == name => Some(*v),
                _ => None,
            })
        };
        for vmc in cl.vmcs() {
            let name = vmc.name();
            let v = gauge(&format!("acm.pcam.model.{name}.version"))
                .unwrap_or_else(|| panic!("missing version gauge for {name}"));
            assert_eq!(v, vmc.lifecycle().unwrap().version() as f64);
        }
    }

    #[test]
    fn runs_the_requested_number_of_eras() {
        let cfg = fig3_cfg(PolicyKind::AvailableResources);
        let mut cl = oracle_loop(&cfg);
        cl.run(10);
        assert_eq!(cl.telemetry().eras(), 10);
        assert_eq!(cl.now(), SimTime::from_secs(300));
    }

    #[test]
    fn fractions_stay_a_probability_vector() {
        let cfg = fig3_cfg(PolicyKind::Exploration);
        let mut cl = oracle_loop(&cfg);
        for _ in 0..30 {
            cl.step_era();
            let s: f64 = cl.fractions().iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "sum {s}");
            assert!(cl.fractions().iter().all(|f| *f > 0.0));
        }
    }

    #[test]
    fn leader_is_region_zero_when_healthy() {
        let cfg = fig3_cfg(PolicyKind::SensibleRouting);
        let cl = oracle_loop(&cfg);
        assert_eq!(cl.election().leader(NodeId(0)), Some(NodeId(0)));
        assert_eq!(cl.election().leader(NodeId(1)), Some(NodeId(0)));
    }

    #[test]
    fn policy2_converges_rmttf_on_fig3_deployment() {
        let cfg = fig3_cfg(PolicyKind::AvailableResources);
        let mut cl = oracle_loop(&cfg);
        cl.run(80);
        let tel = cl.into_telemetry();
        let spread = tel.rmttf_spread(20);
        assert!(spread < 1.35, "policy 2 should converge, spread {spread}");
    }

    #[test]
    fn policy1_leaves_rmttf_unequal_on_fig3_deployment() {
        let cfg = fig3_cfg(PolicyKind::SensibleRouting);
        let mut cl = oracle_loop(&cfg);
        cl.run(80);
        let tel = cl.into_telemetry();
        let spread = tel.rmttf_spread(20);
        assert!(
            spread > 1.4,
            "policy 1 must not equalise heterogeneous regions, spread {spread}"
        );
    }

    #[test]
    fn response_time_stays_under_the_sla() {
        for policy in PolicyKind::ALL {
            let cfg = fig3_cfg(policy);
            let mut cl = oracle_loop(&cfg);
            cl.run(60);
            let tel = cl.into_telemetry();
            let resp = tel.tail_response(30);
            assert!(resp < 1.0, "{policy}: tail response {resp}");
        }
    }

    #[test]
    fn link_fault_suspends_plan_updates_for_the_cut_region() {
        let mut cfg = fig3_cfg(PolicyKind::AvailableResources);
        cfg.link_faults = vec![LinkFault {
            a: 0,
            b: 1,
            fail_at: SimTime::from_secs(300),
            recover_at: SimTime::from_secs(600),
        }];
        let mut cl = oracle_loop(&cfg);
        cl.run(40);
        // The run must survive the partition and keep serving.
        let tel = cl.telemetry();
        assert_eq!(tel.eras(), 40);
        assert!(tel.total_completed() > 0);
        // During the partition the leader's view of region 1 froze; after
        // recovery reports flow again and fractions keep summing to 1.
        let s: f64 = cl.fractions().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = fig3_cfg(PolicyKind::Exploration);
        let mut a = oracle_loop(&cfg);
        let mut b = oracle_loop(&cfg);
        a.run(20);
        b.run(20);
        assert_eq!(a.telemetry().to_csv(), b.telemetry().to_csv());
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = fig3_cfg(PolicyKind::Exploration);
        let mut a = oracle_loop(&cfg);
        cfg.seed = 43;
        let mut b = oracle_loop(&cfg);
        a.run(20);
        b.run(20);
        assert_ne!(a.telemetry().to_csv(), b.telemetry().to_csv());
    }

    #[test]
    fn runtime_policy_switch_rescues_policy1() {
        // Start with the non-converging sensible routing, switch to the
        // resource estimator mid-run: the RMTTFs must then equalise.
        let cfg = fig3_cfg(PolicyKind::SensibleRouting);
        let mut cl = oracle_loop(&cfg);
        cl.run(50);
        let spread_before = {
            let t = cl.telemetry();
            t.rmttf_spread(15)
        };
        assert!(
            spread_before > 1.4,
            "P1 should be diverged: {spread_before}"
        );
        cl.set_policy(PolicyKind::AvailableResources);
        cl.run(50);
        let spread_after = cl.telemetry().rmttf_spread(15);
        assert!(
            spread_after < 1.2,
            "switching to P2 should converge the system: {spread_after}"
        );
    }

    #[test]
    fn observability_never_perturbs_the_run() {
        // Instrumented and uninstrumented runs must yield byte-identical
        // telemetry for the same seed: instruments observe, never steer.
        let on = fig3_cfg(PolicyKind::Exploration);
        let mut off = on.clone();
        off.obs = acm_obs::ObsConfig::noop();
        let mut a = oracle_loop(&on);
        let mut b = oracle_loop(&off);
        a.run(25);
        b.run(25);
        assert!(a.obs().events_len() > 0, "instrumented run logged nothing");
        assert_eq!(b.obs().events_len(), 0, "noop run must log nothing");
        assert_eq!(a.telemetry().to_csv(), b.telemetry().to_csv());
    }

    #[test]
    fn decision_log_covers_plans_ewma_and_phase_timers() {
        let cfg = fig3_cfg(PolicyKind::AvailableResources);
        let mut cl = oracle_loop(&cfg);
        cl.run(5);
        let events = cl.obs().events_tail(usize::MAX);
        let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
        // Every era installs a plan (no faults) and smooths both regions.
        assert_eq!(count("plan.install"), 5);
        assert_eq!(count("ewma.update"), 10);
        assert_eq!(count("report.lost"), 0);
        // All four MAPE phases (and the era umbrella) timed every era.
        let metrics = cl.obs().metrics();
        for phase in ["era", "monitor", "analyze", "plan", "execute"] {
            let name = format!("acm.core.control_loop.{phase}_ns");
            let snap = metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} missing"));
            match &snap.value {
                acm_obs::MetricValue::Histogram(h) => {
                    assert_eq!(h.count, 5, "{name} samples");
                }
                other => panic!("{name} is not a histogram: {other:?}"),
            }
        }
    }

    #[test]
    fn policy_switch_and_partition_reach_the_decision_log() {
        let mut cfg = fig3_cfg(PolicyKind::SensibleRouting);
        cfg.link_faults = vec![LinkFault {
            a: 0,
            b: 1,
            fail_at: SimTime::from_secs(60),
            recover_at: SimTime::from_secs(120),
        }];
        let mut cl = oracle_loop(&cfg);
        cl.run(3);
        cl.set_policy(PolicyKind::AvailableResources);
        cl.run(7);
        let events = cl.obs().events_tail(usize::MAX);
        let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
        assert_eq!(count("policy.switch"), 1);
        // The partition cut region 1 off the leader for two eras.
        assert!(count("report.lost") > 0);
        // Events carry simulated time, bounded by the run horizon. (They
        // are logged in region order within an era, so timestamps are only
        // monotone per region, not globally.)
        let horizon = cl.now().as_micros();
        assert!(events.iter().all(|e| e.t_us <= horizon));
        assert_eq!(events.first().map(|e| e.seq), Some(0));
    }

    #[test]
    fn degradation_with_no_faults_is_inert() {
        // Enabling degradation must not change a healthy run: no report is
        // ever lost, so the tracker never acts and the telemetry matches
        // the disabled path byte for byte.
        let base = fig3_cfg(PolicyKind::AvailableResources);
        let mut degraded = base.clone();
        degraded.degradation = crate::degrade::DegradationConfig::enabled();
        let mut a = oracle_loop(&base);
        let mut b = oracle_loop(&degraded);
        a.run(25);
        b.run(25);
        assert_eq!(a.telemetry().to_csv(), b.telemetry().to_csv());
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_plan() {
        let base = fig3_cfg(PolicyKind::Exploration);
        let mut chaotic = base.clone();
        chaotic.fault_plan = Some(acm_overlay::FaultPlan::default());
        let mut a = oracle_loop(&base);
        let mut b = oracle_loop(&chaotic);
        a.run(25);
        b.run(25);
        assert_eq!(a.telemetry().to_csv(), b.telemetry().to_csv());
        assert_eq!(a.obs().events_jsonl(), b.obs().events_jsonl());
    }

    #[test]
    fn partitioned_region_is_quarantined_and_gets_zero_flow() {
        let mut cfg = fig3_cfg(PolicyKind::AvailableResources);
        cfg.degradation = crate::degrade::DegradationConfig::enabled();
        cfg.fault_plan = Some(
            acm_overlay::FaultPlan::scripted(5, Vec::new()).partition_window(
                vec![NodeId(1)],
                SimTime::from_secs(300),
                SimTime::from_secs(100_000), // never heals inside the run
            ),
        );
        let mut cl = oracle_loop(&cfg);
        cl.run(30);
        assert_eq!(cl.fractions()[1], 0.0, "quarantined region gets no flow");
        assert!((cl.fractions()[0] - 1.0).abs() < 1e-9, "flow redistributed");
        let events = cl.obs().events_tail(usize::MAX);
        assert!(events.iter().any(|e| e.kind == "region.quarantine"));
        assert!(events.iter().any(|e| e.kind == "chaos.partition"));
        // Plans keep installing on the live subset (no global freeze).
        let installs = events.iter().filter(|e| e.kind == "plan.install").count();
        assert!(installs >= 25, "installs continued: {installs}");
    }

    #[test]
    fn router_tracks_plan_installs_and_masks_quarantined_regions() {
        let mut cfg = fig3_cfg(PolicyKind::AvailableResources);
        cfg.degradation = crate::degrade::DegradationConfig::enabled();
        cfg.fault_plan = Some(
            acm_overlay::FaultPlan::scripted(5, Vec::new()).partition_window(
                vec![NodeId(1)],
                SimTime::from_secs(300),
                SimTime::from_secs(100_000), // never heals inside the run
            ),
        );
        let mut cl = oracle_loop(&cfg);
        cl.run(30);
        // The data plane mirrors the control plane's installed fractions:
        // the quarantined region has zero weight and is unsampleable.
        assert_eq!(cl.router().shares()[1], 0.0, "quarantined weight");
        for _ in 0..10_000 {
            assert_eq!(cl.router_mut().route(), 0, "routed to quarantined");
        }
        let events = cl.obs().events_tail(usize::MAX);
        let replans = events.iter().filter(|e| e.kind == "router.replan").count();
        assert_eq!(replans, 30, "one weight-table swap per era");
        // Era-grain mean responses fed the scorer for the live region.
        assert!(cl.router().scorer().count(0) > 0, "scorer got outcomes");
        assert_eq!(
            cl.obs().counter("acm.router.replans").value(),
            30,
            "published counters track the installs"
        );
    }

    #[test]
    fn router_replan_events_carry_trace_context() {
        let mut cfg = fig3_cfg(PolicyKind::AvailableResources);
        cfg.obs = acm_obs::ObsConfig::traced(2026);
        let mut cl = oracle_loop(&cfg);
        cl.run(3);
        let events = cl.obs().events_tail(usize::MAX);
        let replans: Vec<_> = events
            .iter()
            .filter(|e| e.kind == "router.replan")
            .collect();
        assert_eq!(replans.len(), 3);
        for e in replans {
            let field = |k: &str| e.fields.iter().find(|(n, _)| *n == k);
            assert!(field("trace").is_some(), "replan missing trace id");
            // Each replan chains off the plan.install that triggered it.
            match field("cause") {
                Some((_, Value::U64(cause))) => assert_ne!(*cause, 0, "replan has no cause"),
                other => panic!("unexpected cause field: {other:?}"),
            }
        }
    }

    #[test]
    fn healed_region_is_readmitted_with_hysteresis() {
        let mut cfg = fig3_cfg(PolicyKind::AvailableResources);
        cfg.degradation = crate::degrade::DegradationConfig::enabled();
        cfg.fault_plan = Some(
            acm_overlay::FaultPlan::scripted(5, Vec::new()).partition_window(
                vec![NodeId(1)],
                SimTime::from_secs(300), // era 10
                SimTime::from_secs(600), // heals at era 20
            ),
        );
        let mut cl = oracle_loop(&cfg);
        cl.run(40);
        let events = cl.obs().events_tail(usize::MAX);
        let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
        assert_eq!(count("region.quarantine"), 1, "one outage, one quarantine");
        assert_eq!(count("region.probation"), 1);
        assert_eq!(count("region.readmit"), 1, "no oscillation after heal");
        // Flow returned to the healed region after the hysteresis.
        assert!(cl.fractions()[1] > 0.0);
        // Zero flow while unreachable: probation (3 eras) ends well before
        // era 30; check the fraction series went to zero and came back.
        let fr1: Vec<f64> = cl.telemetry().fraction(1).values().collect();
        assert!(fr1[15].abs() < 1e-12, "mid-partition flow must be zero");
        assert!(fr1[39] > 0.0, "flow restored by the end");
        // Once re-admitted, the region never flaps back out.
        assert!(
            fr1.iter().rev().take(5).all(|f| *f > 0.0),
            "no oscillation in the tail"
        );
    }

    #[test]
    fn workload_is_actually_served() {
        let cfg = fig3_cfg(PolicyKind::AvailableResources);
        let mut cl = oracle_loop(&cfg);
        cl.run(20);
        let tel = cl.telemetry();
        // ~87 req/s for 600 s ≈ 50k requests.
        assert!(
            tel.total_completed() > 30_000,
            "completed {}",
            tel.total_completed()
        );
        // Proactive maintenance happened.
        assert!(tel.total_proactive() > 0);
    }

    /// A five-region world with every pool and population scaled × 8
    /// (320 VMs, so the work-based layout gives it 5 shards), a partition
    /// window, message chaos and degradation — enough to make VMCs emit
    /// from inside the shards and the leader quarantine around them.
    fn scaled_chaos_cfg() -> ExperimentConfig {
        use crate::config::RegionSpec;
        use acm_workload::ClientSchedule;
        let mut cfg = fig3_cfg(PolicyKind::AvailableResources);
        cfg.regions = (0..5)
            .map(|i| {
                let mut region = match i % 3 {
                    0 => ExperimentConfig::region1_ireland(),
                    1 => ExperimentConfig::region2_frankfurt(),
                    _ => ExperimentConfig::region3_munich(),
                };
                region.name = format!("r{i}-{}", region.name);
                region.total_vms *= 8;
                region.target_active *= 8;
                RegionSpec {
                    region,
                    clients: ClientSchedule::Constant(8 * (160 + 64 * i as u32)),
                }
            })
            .collect();
        cfg.latencies = (1..5)
            .map(|j| (0, j, Duration::from_millis(10 + 5 * j as u64)))
            .collect();
        cfg.degradation = crate::degrade::DegradationConfig::enabled();
        cfg.fault_plan = Some(
            acm_overlay::FaultPlan::scripted(5, Vec::new())
                .partition_window(
                    vec![NodeId(3)],
                    SimTime::from_secs(150),
                    SimTime::from_secs(450),
                )
                .with_message_chaos(0.05, Duration::from_millis(20)),
        );
        cfg.obs = ObsConfig::traced(77);
        cfg
    }

    #[test]
    fn monitor_layout_follows_the_pools_vm_count() {
        // Paper-sized worlds (10 VMs here) never fan out ...
        let mut small = oracle_loop(&fig3_cfg(PolicyKind::AvailableResources));
        assert_eq!(small.monitor_layout().shards(), 1);
        small.run(2);
        assert_eq!(small.gauge_monitor_shards.value(), 1.0);
        // ... a world past the grain gets one shard per 64 VMs, capped by
        // its region count.
        let mut scaled = oracle_loop(&scaled_chaos_cfg());
        assert_eq!(scaled.monitor_layout().shards(), 5);
        scaled.run(2);
        assert_eq!(scaled.gauge_monitor_shards.value(), 5.0);
    }

    #[test]
    fn shard_count_never_shows_in_the_results() {
        // "Parent hub when alone" and "children merged in shard order"
        // must be the same function: force the same scaled world onto one
        // shard and onto one shard per region and compare everything a
        // run leaves behind.
        let cfg = scaled_chaos_cfg();
        let run = |shards: usize| {
            let mut cl = oracle_loop(&cfg);
            cl.monitor_shards_override = Some(shards);
            cl.run(25);
            assert_eq!(cl.gauge_monitor_shards.value(), shards as f64);
            cl
        };
        let alone = run(1);
        let sharded = run(cfg.regions.len().min(MONITOR_SHARDS_MAX));
        assert_eq!(alone.telemetry().to_csv(), sharded.telemetry().to_csv());
        let log = alone.obs().events_jsonl();
        assert_eq!(log, sharded.obs().events_jsonl());
        for kind in [
            "rejuvenation.proactive",
            "standby.activate",
            "region.quarantine",
        ] {
            assert!(log.contains(kind), "the world never produced {kind}");
        }
        assert_eq!(alone.obs().spans_jsonl(), sharded.obs().spans_jsonl());
        // The Perfetto export keeps its MONITOR row when nothing fans out.
        let timeline = alone.obs().timeline_recorder().expect("traced run");
        let timeline = timeline.to_chrome_json();
        assert!(timeline.contains(r#""name":"monitor.shard""#));
        assert!(timeline.contains("shard 0") && !timeline.contains("shard 1"));

        let (a, b) = (alone.obs().metrics(), sharded.obs().metrics());
        assert_eq!(
            a.iter().map(|m| &m.name).collect::<Vec<_>>(),
            b.iter().map(|m| &m.name).collect::<Vec<_>>(),
            "the two layouts registered different metrics"
        );
        for (ma, mb) in a.iter().zip(&b) {
            let name = ma.name.as_str();
            // The layout itself, and the pool's own per-era sampling
            // (one run dispatches MONITOR tasks, the other none).
            if name == "acm.core.control_loop.monitor_shards" || name.starts_with("acm.exec.") {
                continue;
            }
            match (&ma.value, &mb.value) {
                // Wall-clock timers: the same number of samples.
                (acm_obs::MetricValue::Histogram(ha), acm_obs::MetricValue::Histogram(hb))
                    if name.ends_with("_ns") =>
                {
                    assert_eq!(ha.count, hb.count, "{name} samples");
                }
                (va, vb) => assert_eq!(format!("{va:?}"), format!("{vb:?}"), "{name}"),
            }
        }
    }
}
