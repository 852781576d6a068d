//! EXECUTE (Alg. 3) and the era's close: install or freeze the plan,
//! autoscale — then everything that reads the finished era:
//! drift windows, lifecycle verdicts and refits, client-observed response,
//! the telemetry row, SLO windows and the pool sample.

use super::causes::Link;
use super::leader::SendOutcome;
use super::{ControlLoop, EraValues, Heard, Monitored};
use crate::config::ExperimentConfig;
use crate::plan::ForwardPlan;
use crate::telemetry::RegionEraRecord;
use acm_obs::{SloTransition, Value};
use acm_pcam::LifecycleEvent;
use std::sync::Arc;

impl ControlLoop {
    pub(super) fn execute(&mut self, v: &mut EraValues) {
        let EraValues {
            seen,
            heard,
            decided,
            records,
        } = v;
        self.install(seen, heard, &decided.live_mask, &decided.target);
        // Autoscaling (Alg. 3 lines 6–8).
        for (j, vmc) in self.vmcs.iter_mut().enumerate() {
            let (response, rmttf) = (seen.reports[j].mean_response_s, decided.rmttf_now[j]);
            self.autoscalers[j].step(&self.autoscale_cfg, vmc, seen.t_end, response, rmttf);
        }
        self.close_model_era(seen);
        let global_response = self.observe_clients(seen);
        self.record_telemetry(seen, &decided.rmttf_now, global_response, records);
        self.observe_slos(seen, heard);
        self.ins.sample_pool();

        // This era's plan becomes the churn baseline; the previous one's
        // buffers hold the next era's plan.
        let prev = self.leader.plan.get_or_insert_with(ForwardPlan::default);
        std::mem::swap(prev, &mut seen.plan);
        self.now = seen.t_end;
        self.era_index += 1;
    }

    /// Installs the new plan, but only if EVERY participating region is
    /// reachable — a global forward plan installed on a strict subset of
    /// the load balancers would be inconsistent (fractions would no longer
    /// sum to one across the regions actually applying them), so the
    /// leader freezes the previous plan until connectivity returns.
    fn install(&mut self, seen: &Monitored, heard: &Heard, live_mask: &[bool], target: &[f64]) {
        let (t_end, n) = (seen.t_end, live_mask.len());
        // The mask is all-true without degradation. Short-circuits on the
        // first unreachable balancer, exactly like the pre-degradation
        // all-regions gate.
        let live = live_mask.iter().filter(|&&l| l).count();
        let installable = live > 0
            && (0..n).filter(|&j| live_mask[j]).all(|j| {
                let to = ExperimentConfig::node_of(j);
                self.send_with_retries(t_end, heard.leader, to) == SendOutcome::Delivered
            });
        let era_index = self.era_index;
        if installable {
            // One allocation per install: the leader, this event's `new`
            // and the next install's `old` all point to it.
            let target: Arc<[f64]> = Arc::from(target);
            let old = &self.leader.fractions;
            self.causes.emit(t_end, Link::PlanInstall, || {
                vec![
                    ("era", Value::from(era_index)),
                    ("old", Value::from(old.clone())),
                    ("new", Value::from(target.clone())),
                ]
            });
            self.leader.fractions = target;
        } else if self.degradation.enabled {
            self.causes.emit(t_end, Link::PlanFreeze, || {
                vec![
                    ("era", Value::from(era_index)),
                    ("live", Value::from(live)),
                    ("regions", Value::from(n)),
                ]
            });
        }
    }

    /// Predictor-drift watch, then the lifecycle's verdicts. Every
    /// end-of-life event this era feeds its region's miss window (a flip
    /// into the drifted state opens a root `drift.signal` span on tracing
    /// hubs). The verdicts come after the feed so a flip detected this era
    /// can trigger its refit in the same era, and after the install so
    /// shadow scores include everything the region processed this era.
    /// A promotion or rollback clears its region's window.
    /// A refit trains here, on the control thread, closing EXECUTE — it is
    /// never Plan-phase latency.
    fn close_model_era(&mut self, seen: &Monitored) {
        let t_us = seen.t_end.as_micros();
        let per_region = self.drift.iter_mut().zip(&self.vmcs).zip(&seen.reports);
        for (j, ((drift, vmc), r)) in per_region.enumerate() {
            for (missed, count) in [
                (true, r.reactive_failures),
                (false, r.proactive_rejuvenations),
            ] {
                for _ in 0..count {
                    let region = vmc.shared_name();
                    if let Some(ctx) = drift.record_with_obs(missed, &self.obs, t_us, region) {
                        self.causes.drifted(j, ctx);
                    }
                }
            }
        }
        if self.lifecycle_on {
            let era_no = self.era_index as u64;
            for (j, (vmc, drift)) in self.vmcs.iter_mut().zip(&mut self.drift).enumerate() {
                let events = vmc.lifecycle_end_era(era_no, drift.drifted());
                // A swap starts the window over: it judges the model
                // serving now, with `min_samples` as the warm-up.
                if events.iter().any(LifecycleEvent::swaps_model) {
                    drift.reset();
                }
                self.causes
                    .lifecycle(seen.t_end, j, vmc.shared_name(), &events);
            }
            self.ins.publish_models(&self.vmcs);
        }
    }

    /// Client-observed response times for the next era: a client attached
    /// to region i experiences the processing time of wherever its request
    /// was forwarded, plus the WAN round trip. All n² latencies, every
    /// era: one tree fetch per client region, then n reads off it. Returns
    /// the ingress-weighted global response.
    fn observe_clients(&mut self, seen: &Monitored) -> f64 {
        for (i, observed) in self.observed_response.iter_mut().enumerate() {
            let from_i = self.net.transport.tree(ExperimentConfig::node_of(i));
            let mut r = 0.0;
            for (j, report) in seen.reports.iter().enumerate() {
                let frac = seen.plan.fraction(i, j);
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
                r += frac * (report.mean_response_s + rtt);
            }
            *observed = r;
        }
        let per_ingress = seen.ingress.iter().zip(&self.observed_response);
        per_ingress.map(|(a, r)| a * r).sum()
    }

    /// The era's telemetry row. Its fractions are the leader's vector in
    /// force — the one this era's `plan.install` (if any) carries as `new`
    /// — shared, not copied.
    fn record_telemetry(
        &mut self,
        seen: &Monitored,
        rmttf_now: &[f64],
        global_response: f64,
        records: &mut Vec<RegionEraRecord>,
    ) {
        records.clear();
        records.extend(
            seen.reports
                .iter()
                .zip(rmttf_now)
                .map(|(r, &rmttf)| RegionEraRecord {
                    rmttf,
                    response_s: r.mean_response_s,
                    active_vms: r.active_vms,
                    proactive: r.proactive_rejuvenations,
                    reactive: r.reactive_failures,
                    completed: r.completed,
                }),
        );
        self.telemetry.record_era(
            seen.t_end,
            records,
            self.leader.fractions.clone(),
            [
                global_response,
                seen.lambda_total,
                seen.churn,
                seen.plan.remote_fraction(),
            ],
        );
    }

    /// SLO burn rates, observed on tracing hubs only so untraced event
    /// streams stay byte-identical. Availability: did the leader hear from
    /// every region this era? Latency: completed requests served by
    /// regions inside the 1 s SLA (the paper's response-time bound). Both
    /// use the SRE fast/slow multi-window rule.
    fn observe_slos(&mut self, seen: &Monitored, heard: &Heard) {
        if !self.obs.trace_enabled() {
            return;
        }
        let reports = &seen.reports;
        let heard_from = heard.delivered.iter().filter(|d| **d).count() as u64;
        let completed: u64 = reports.iter().map(|r| r.completed).sum();
        let within_sla: u64 = reports
            .iter()
            .filter(|r| r.mean_response_s <= 1.0)
            .map(|r| r.completed)
            .sum();
        let inputs = [(heard_from, reports.len() as u64), (within_sla, completed)];
        for (i, (slo, (good, total))) in self.slo.iter_mut().zip(inputs).enumerate() {
            let name = slo.spec().name;
            match slo.observe(good, total) {
                Some(SloTransition::Fired {
                    fast_burn,
                    slow_burn,
                }) => self.causes.emit(seen.t_end, Link::SloBurn(i), || {
                    vec![
                        ("slo", Value::Static(name)),
                        ("fast_burn", Value::from(fast_burn)),
                        ("slow_burn", Value::from(slow_burn)),
                    ]
                }),
                Some(SloTransition::Recovered { fast_burn }) => {
                    self.causes.emit(seen.t_end, Link::SloRecovered(i), || {
                        vec![
                            ("slo", Value::Static(name)),
                            ("fast_burn", Value::from(fast_burn)),
                        ]
                    })
                }
                None => {}
            }
        }
    }
}
