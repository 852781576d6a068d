//! PLAN (Alg. 2, leader only): region health, Eq. 1, then `POLICY()`.
//! Nothing else belongs here — `plan_ns` is the leader's decision latency.

use super::causes::Link;
use super::{ControlLoop, Decided, Heard, Monitored};
use crate::degrade::HealthEvent;
use crate::ewma::RmttfEwma;
use acm_obs::Value;
use acm_sim::time::SimTime;

impl ControlLoop {
    pub(super) fn plan(&mut self, seen: &Monitored, heard: &Heard, decided: &mut Decided) {
        let t_end = seen.t_end;
        let Decided {
            live_mask,
            rmttf_now,
            target,
        } = decided;
        self.update_region_health(heard, t_end, live_mask);
        self.leader.smooth(&heard.delivered, rmttf_now);
        if self.obs.enabled() {
            for (j, &smoothed) in rmttf_now.iter().enumerate() {
                if self.degradation.enabled && !heard.delivered[j] {
                    continue; // no update happened, nothing to log
                }
                self.obs.emit(
                    t_end.as_micros(),
                    "ewma.update",
                    vec![
                        ("region", Value::from(self.vmcs[j].shared_name())),
                        ("raw_s", Value::from(self.leader.received_rmttf[j])),
                        ("smoothed_s", Value::from(smoothed)),
                    ],
                );
            }
        }
        self.leader
            .plan_fractions(live_mask, rmttf_now, seen.lambda_total, target);
    }

    /// Feeds this era's report outcomes into the quarantine state machine
    /// and writes the plan-participation mask into `live_mask` (all-true
    /// when degradation is disabled). Re-admitted regions get a fresh EWMA
    /// so the stale pre-outage estimate cannot linger.
    fn update_region_health(&mut self, heard: &Heard, t_end: SimTime, live_mask: &mut Vec<bool>) {
        let n = heard.delivered.len();
        live_mask.clear();
        let Some(tracker) = &mut self.leader.tracker else {
            live_mask.resize(n, true);
            return;
        };
        let outcomes = heard.delivered.iter().zip(&heard.suspected);
        for (j, (&delivered, &suspected)) in outcomes.enumerate() {
            let Some(ev) = tracker.observe(j, delivered, suspected) else {
                continue;
            };
            let link = match ev {
                HealthEvent::Quarantined { .. } => Link::Quarantine(j),
                HealthEvent::ProbationStarted => Link::Probation(j),
                HealthEvent::Readmitted => {
                    let est = &mut self.leader.estimators[j];
                    *est = RmttfEwma::new(est.beta());
                    Link::Readmit(j)
                }
            };
            let (vmc, era_index, tracker) = (&self.vmcs[j], self.era_index, &*tracker);
            self.causes.emit(t_end, link, || {
                let mut fields = vec![("region", Value::from(vmc.shared_name()))];
                if let HealthEvent::Quarantined { stale, suspected } = ev {
                    fields.push(("stale", Value::from(stale)));
                    fields.push(("suspected", Value::from(suspected)));
                    fields.push(("age_eras", Value::from(tracker.age(j))));
                }
                // Invariant-checker hooks: which era the transition landed
                // in and which outage it belongs to (the lifetime
                // quarantine ordinal), so "exactly one readmit per outage"
                // is checkable from the event log alone.
                fields.push(("era", Value::from(era_index)));
                fields.push(("outage", Value::from(tracker.quarantine_count(j))));
                fields
            });
        }
        self.ins.quarantined.set(tracker.excluded_count() as f64);
        live_mask.extend((0..n).map(|j| tracker.is_live(j)));
    }
}
