//! MONITOR: due faults and scenario actions, refit hand-overs, client
//! ingress, the forward plan in force, and every region advanced one era.

use super::causes::Link;
use super::{ControlLoop, Monitored};
use crate::config::ExperimentConfig;
use crate::plan::ForwardPlan;
use crate::policy::uniform_fractions;
use crate::scenario::ScenarioAction;
use acm_obs::{Obs, ObsConfig, ObsHandle, Value};
use acm_pcam::{RegionEraReport, Vmc};
use acm_sim::shard::ShardLayout;
use acm_sim::time::SimTime;

/// Upper bound on MONITOR shards. The shard count is
/// `min(regions, MONITOR_SHARDS_MAX, pool VMs / MONITOR_MIN_VMS_PER_SHARD)`,
/// at least 1 — a pure function of the work the configuration puts on
/// offer, never of the thread width, so the shard partition (and with it
/// every merge order) is identical at any `ACM_THREADS`.
pub(super) const MONITOR_SHARDS_MAX: usize = 32;

/// VMs a MONITOR shard must carry before fanning out pays. One VM-era is
/// ~4 µs (`vm.process_era_ns`) and one fan-out through the pool ~45 µs
/// (task boxes, latch, a parked worker to wake), so 64 VMs ≈ 250 µs of
/// work per shard: the paper's worlds (10 and 22 VMs) run on one shard,
/// the 200-region mega world (≈ 14 700 VMs) keeps all 32.
const MONITOR_MIN_VMS_PER_SHARD: usize = 64;

impl ControlLoop {
    pub(super) fn monitor(&mut self) -> Monitored {
        let t_start = self.now;
        let era_index = self.era_index;
        // Era root span: every causal chain this era bottoms out here (or
        // at a fault root); as the ambient context it annotates plain emits.
        self.causes
            .emit(t_start, Link::Era, || vec![("era", Value::from(era_index))]);
        self.apply_due();
        // Candidates whose `refit_eras` have passed start shadowing here,
        // at a fixed era boundary, before the regions serve.
        if self.lifecycle_on {
            for (j, vmc) in self.vmcs.iter_mut().enumerate() {
                let events = vmc.lifecycle_begin_era(era_index as u64);
                self.causes.lifecycle(t_start, j, vmc.name(), &events);
            }
        }

        // Client ingress under the interactive response-time law.
        let lambda_in: Vec<f64> = self
            .workloads
            .iter()
            .zip(&self.observed_response)
            .map(|(w, &response)| w.offered_rate(t_start, response))
            .collect();
        let lambda_total: f64 = lambda_in.iter().sum();
        let ingress: Vec<f64> = if lambda_total > 0.0 {
            lambda_in.iter().map(|l| l / lambda_total).collect()
        } else {
            uniform_fractions(lambda_in.len())
        };
        // The forward plan realising the fractions in force.
        let plan = ForwardPlan::build(&ingress, &self.leader.fractions);
        let churn = self
            .leader
            .plan
            .as_ref()
            .map_or(0.0, |prev| plan.churn_from(prev));

        // Region era processing (the "application data" plane).
        let lambdas: Vec<f64> = (0..lambda_in.len())
            .map(|j| plan.realised_share(j) * lambda_total)
            .collect();
        let reports = self.process_regions(&lambdas, t_start);
        Monitored {
            t_end: t_start + self.era,
            ingress,
            lambda_total,
            plan,
            churn,
            reports,
        }
    }

    /// Applies every scenario action (Sec. II's runtime reconfiguration,
    /// scripted link faults included) and chaos-plan fault due at `now`,
    /// then re-elects once if the topology changed.
    fn apply_due(&mut self) {
        let (now, node) = (self.now, ExperimentConfig::node_of);
        let mut topology_changed = false;
        for sa in self.scenario.drain_due(now) {
            match sa.action {
                ScenarioAction::SwitchPolicy(kind) => self.set_policy(kind),
                ScenarioAction::FailLink { a, b } => {
                    self.net.transport.fail_link(node(a), node(b));
                    // Scripted faults are first causes: each opens a root
                    // span downstream suspicion chains hang off.
                    self.causes.emit(now, Link::ScriptedFault, || {
                        vec![("a", Value::from(a)), ("b", Value::from(b))]
                    });
                    topology_changed = true;
                }
                ScenarioAction::RecoverLink { a, b } => {
                    self.net.transport.recover_link(node(a), node(b));
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
        // Chaos plan replay; KillLeader resolves against the pre-fault
        // leader (nothing has been re-elected yet).
        let leader = self.net.leader_node();
        if let Some(chaos) = &mut self.net.chaos {
            topology_changed |= chaos.apply_due(now, &mut self.net.transport, leader);
            self.causes.chaos_root(chaos.last_trace_ctx());
        }
        if topology_changed {
            let (_, leader_changed) = self.net.elector.re_elect(self.net.transport.graph());
            if leader_changed {
                let net = &self.net;
                self.causes.emit(now, Link::LeaderChange, || {
                    vec![("leader", Value::from(net.leader_node().0))]
                });
            }
        }
    }

    /// The era's MONITOR partition: one shard per
    /// [`MONITOR_MIN_VMS_PER_SHARD`] VMs in the region pools, at most
    /// [`MONITOR_SHARDS_MAX`] (or one per region), at least one.
    pub(super) fn monitor_layout(&self) -> ShardLayout {
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
        let layout = self.monitor_layout();
        self.ins.monitor_shards.set(layout.shards() as f64);
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
                tl.name_track(track(s), || format!("shard {s}"));
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
        let mut reports = Vec::with_capacity(lambdas.len());
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
}
