//! MONITOR: due faults and scenario actions, refit hand-overs, client
//! ingress, the forward plan in force, and every region advanced one era.

use super::causes::Link;
use super::{ControlLoop, Monitored};
use crate::config::ExperimentConfig;
use crate::scenario::ScenarioAction;
use acm_obs::Value;
use acm_pcam::{RegionEraReport, Vmc};
use acm_sim::time::SimTime;

/// Pool VMs from which MONITOR's region map runs on the exec pool. One
/// VM-era is ~1.2 µs of `Vm::process_era` (`vm.process_era_ns`) and ~2 µs
/// of its VMC's era all told (`pcam.vmc.process_era_us` ≈ 147 µs over a
/// mega region's ~74 VMs). A fan-out costs ~1.5 µs with the workers awake
/// (`exec.barrier_ns`) and tens of µs when a parked worker must be woken,
/// which is the case that matters between eras, so below ~250 µs of
/// region work the hand-off is not worth it: the paper's worlds (10 and
/// 22 VMs) run inline at every width, the 200-region mega world
/// (≈ 14 700 VMs) fans out.
const MONITOR_FAN_OUT_VMS: usize = 128;

/// Whether an era over pools of `pool_vms` VMs maps its regions on the
/// exec pool — a pure function of the work on offer, never of the thread
/// width.
pub(super) fn fans_out(pool_vms: usize) -> bool {
    pool_vms >= MONITOR_FAN_OUT_VMS
}

impl ControlLoop {
    pub(super) fn monitor(&mut self, seen: &mut Monitored) {
        let t_start = self.now;
        let era_index = self.era_index;
        // Era root span: every causal chain this era bottoms out here (or
        // at a fault root); as the ambient context it annotates plain emits.
        self.causes
            .emit(t_start, Link::Era, || vec![("era", Value::from(era_index))]);
        self.apply_due();
        // Candidates whose two-era deployment delay has passed start
        // shadowing here, at a fixed era boundary, before the regions serve.
        if self.lifecycle_on {
            for (j, vmc) in self.vmcs.iter_mut().enumerate() {
                let events = vmc.lifecycle_begin_era(era_index as u64);
                self.causes
                    .lifecycle(t_start, j, vmc.shared_name(), &events);
            }
        }

        // Client ingress under the interactive response-time law: each
        // region's offered rate, then its share of the total.
        let n = self.workloads.len();
        let ingress = &mut seen.ingress;
        ingress.clear();
        let offered = self.workloads.iter().zip(&self.observed_response);
        ingress.extend(offered.map(|(w, &response)| w.offered_rate(t_start, response)));
        let lambda_total: f64 = ingress.iter().sum();
        if lambda_total > 0.0 {
            for share in ingress.iter_mut() {
                *share /= lambda_total;
            }
        } else {
            ingress.clear();
            ingress.resize(n, 1.0 / n as f64);
        }
        // The forward plan realising the fractions in force.
        let plan = &mut seen.plan;
        plan.rebuild(&seen.ingress, &self.leader.fractions);
        let prev = self.leader.plan.as_ref();
        seen.churn = prev.map_or(0.0, |prev| plan.churn_from(prev));

        // Region era processing (the "application data" plane).
        let lambdas = &mut seen.lambdas;
        lambdas.clear();
        lambdas.extend((0..n).map(|j| plan.realised_share(j) * lambda_total));
        self.process_regions(lambdas, t_start, &mut seen.reports);
        seen.t_end = t_start + self.era;
        seen.lambda_total = lambda_total;
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

    /// Advances every region through one era, on the exec pool when the
    /// pools are large enough to pay for it (see [`fans_out`]).
    ///
    /// Every VMC owns its RNG and stages its decision events in a buffer of
    /// its own, so the regions share nothing but the loop's metrics
    /// registry, whose instruments are integer atomics with commutative
    /// folds (add, bucket count, min, max), and the map collects the
    /// reports in region order. At the barrier every VMC's staged events
    /// are emitted on the loop's hub in region order, under the era's
    /// ambient trace context, so event sequence numbers, region-qualified
    /// gauges and histogram counts are identical at any thread width. A
    /// disabled hub stages nothing (observability never perturbs the run),
    /// and an inline era refills `reports` and the VMCs' own buffers:
    /// `tests/retention.rs` pins an un-observed fig-4 era at a few
    /// allocation calls, all of them the telemetry row and the plan.
    fn process_regions(
        &mut self,
        lambdas: &[f64],
        t_start: SimTime,
        reports: &mut Vec<RegionEraReport>,
    ) {
        let era = self.era;
        let vms = self.vmcs.iter().map(|v| v.pool().vms().len()).sum();
        let step = |(vmc, &lambda): (&mut Vmc, &f64)| vmc.process_era(t_start, era, lambda);
        let regions = self.vmcs.iter_mut().zip(lambdas);
        if fans_out(vms) {
            *reports = acm_exec::map_collect(regions.collect(), step);
        } else {
            reports.clear();
            reports.extend(regions.map(step));
        }
        for vmc in &mut self.vmcs {
            vmc.flush_events();
        }
    }
}
