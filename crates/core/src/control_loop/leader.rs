//! What the leader knows, and the control plane it talks over.

use crate::config::ExperimentConfig;
use crate::degrade::HealthTracker;
use crate::ewma::RmttfEwma;
use crate::plan::ForwardPlan;
use crate::policy::{uniform_fractions, LoadBalancingPolicy};
use acm_obs::ObsHandle;
use acm_overlay::{ChaosLayer, Elector, MessageFate, NodeId, OverlayGraph, Transport};
use acm_sim::rng::SimRng;
use acm_sim::time::SimTime;
use std::sync::Arc;

/// The state the leader carries from era to era — what a successor would
/// have to be handed to resume without a plan regression. Plain data: the
/// phases read and write the fields directly.
pub(super) struct LeaderState {
    /// Eq. 1 smoothing state per region.
    pub(super) estimators: Vec<RmttfEwma>,
    /// The latest received `lastRMTTF` per region (stale on loss).
    pub(super) received_rmttf: Vec<f64>,
    /// Fractions currently installed on the load balancers. Replaced whole
    /// by an install, never written in place, so the `plan.install` events
    /// share the allocation.
    pub(super) fractions: Arc<[f64]>,
    /// Last forward plan (for churn accounting).
    pub(super) plan: Option<ForwardPlan>,
    /// Report-age / quarantine state machine with its outage ordinals —
    /// report age is also the suspicion clock; present iff degradation is
    /// enabled.
    pub(super) tracker: Option<HealthTracker>,
    pub(super) policy: LoadBalancingPolicy,
    /// Per-region VM-hour prices (for re-costing subset policies).
    region_costs: Vec<f64>,
    /// The policy's exploration stream.
    rng: SimRng,
    /// A quarantine plan's live-subset views — previous fractions, RMTTFs,
    /// prices, and the policy's answer — refilled when one is planned.
    subset: [Vec<f64>; 4],
}

impl LeaderState {
    pub(super) fn new(cfg: &ExperimentConfig, obs: &ObsHandle, rng: SimRng) -> Self {
        let n = cfg.regions.len();
        let region_costs: Vec<f64> = cfg.regions.iter().map(|r| r.region.vm_hour_usd).collect();
        let mut policy = LoadBalancingPolicy::new(cfg.policy)
            .with_k(cfg.k)
            .with_noise(cfg.exploration_noise)
            .with_region_costs(region_costs.clone());
        policy.set_obs(obs);
        LeaderState {
            estimators: vec![RmttfEwma::new(cfg.beta); n],
            received_rmttf: vec![0.0; n],
            fractions: uniform_fractions(n).into(),
            plan: None,
            tracker: cfg
                .degradation
                .enabled
                .then(|| HealthTracker::new(&cfg.degradation, n)),
            policy,
            region_costs,
            rng,
            subset: Default::default(),
        }
    }

    /// Eq. 1 over this era's reports, into `rmttf_now`. The baseline
    /// smooths whatever the leader holds (stale on loss); degradation
    /// smooths fresh data only.
    pub(super) fn smooth(&mut self, delivered: &[bool], rmttf_now: &mut Vec<f64>) {
        let fresh_only = self.tracker.is_some();
        let held = self.received_rmttf.iter().zip(delivered);
        rmttf_now.clear();
        rmttf_now.extend(
            self.estimators
                .iter_mut()
                .zip(held)
                .map(|(est, (&raw, &fresh))| {
                    if fresh || !fresh_only {
                        est.update(raw)
                    } else {
                        est.value_or_zero()
                    }
                }),
        );
    }

    /// Runs the policy over the plan-participating regions, into `target`.
    /// With every region live this is exactly the baseline call; with a
    /// strict subset the previous fractions are renormalised over the live
    /// regions, the policy plans in that subspace (re-costed for the
    /// cost-aware kind), and quarantined regions are pinned to zero flow.
    /// With nobody live the previous fractions are kept (the plan freezes
    /// anyway).
    pub(super) fn plan_fractions(
        &mut self,
        live_mask: &[bool],
        rmttf_now: &[f64],
        lambda_total: f64,
        target: &mut Vec<f64>,
    ) {
        let n = live_mask.len();
        let live_count = live_mask.iter().filter(|&&l| l).count();
        if live_count == n {
            let (prev, costs) = (&self.fractions, Some(&self.region_costs[..]));
            let rng = &mut self.rng;
            self.policy
                .next_fractions_into(prev, rmttf_now, costs, lambda_total, rng, target);
            return;
        }
        target.clear();
        if live_count == 0 {
            target.extend_from_slice(&self.fractions);
            return;
        }
        let live = || (0..n).filter(|&j| live_mask[j]);
        let [prev_live, rmttf_live, costs_live, target_live] = &mut self.subset;
        let prev_sum: f64 = live().map(|j| self.fractions[j]).sum();
        prev_live.clear();
        if prev_sum > 0.0 {
            prev_live.extend(live().map(|j| self.fractions[j] / prev_sum));
        } else {
            prev_live.resize(live_count, 1.0 / live_count as f64);
        }
        rmttf_live.clear();
        rmttf_live.extend(live().map(|j| rmttf_now[j]));
        costs_live.clear();
        costs_live.extend(live().map(|j| self.region_costs[j]));
        self.policy.next_fractions_into(
            prev_live,
            rmttf_live,
            Some(costs_live),
            lambda_total,
            &mut self.rng,
            target_live,
        );
        target.resize(n, 0.0);
        for (&f, j) in target_live.iter().zip(live()) {
            target[j] = f;
        }
    }
}

/// What happened to one control-plane message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SendOutcome {
    /// Routed and delivered (possibly with chaos-injected extra delay).
    Delivered,
    /// Routed, but the chaos layer dropped it — a retry can succeed.
    ChaosDropped,
    /// No usable route; retrying within the era cannot help.
    Unroutable,
}

/// The overlay as the loop drives it: transport, election, and the chaos
/// replay over them (present iff a fault plan is configured).
pub(super) struct ControlPlane {
    pub(super) transport: Transport,
    pub(super) elector: Elector,
    pub(super) chaos: Option<ChaosLayer>,
}

impl ControlPlane {
    pub(super) fn new(cfg: &ExperimentConfig, obs: &ObsHandle) -> Self {
        let mut graph = OverlayGraph::new();
        for i in 0..cfg.regions.len() {
            graph.add_node(ExperimentConfig::node_of(i));
        }
        for &(a, b, lat) in &cfg.latencies {
            graph.add_link(
                ExperimentConfig::node_of(a),
                ExperimentConfig::node_of(b),
                lat,
            );
        }
        let mut transport = Transport::new(graph);
        transport.set_obs(obs);
        let mut elector = Elector::new();
        elector.set_obs(obs);
        elector.re_elect(transport.graph());
        let chaos = cfg.fault_plan.as_ref().map(|plan| {
            let mut layer = ChaosLayer::new(plan);
            layer.set_obs(obs);
            layer
        });
        ControlPlane {
            transport,
            elector,
            chaos,
        }
    }

    /// The overlay node of the region the leader VMC lives in, as seen from
    /// region-0's partition (the figure deployments are never partitioned).
    pub(super) fn leader_node(&self) -> NodeId {
        // Leader of the partition containing the lowest alive node; if all
        // nodes are dead fall back to node 0 (nothing routes anyway).
        let mut alive = self.transport.graph().alive_nodes();
        let probe = alive.next().unwrap_or(NodeId(0));
        let election = self.elector.current().expect("elected at construction");
        election.leader(probe).unwrap_or(probe)
    }

    /// One control-plane send attempt from `from` to `to`: routes over the
    /// transport, then (when a chaos plan is active) lets the chaos layer
    /// decide the message's fate.
    pub(super) fn send(&mut self, now: SimTime, from: NodeId, to: NodeId) -> SendOutcome {
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
}
