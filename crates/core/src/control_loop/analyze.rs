//! ANALYZE (Alg. 1's reporting half): every slave ships `lastRMTTF_i` to
//! the leader over the overlay; the leader's detector turns silence into
//! suspicion.

use super::causes::Link;
use super::leader::SendOutcome;
use super::{ControlLoop, Heard, Monitored};
use crate::config::ExperimentConfig;
use acm_obs::Value;
use acm_overlay::NodeId;
use acm_sim::time::{Duration, SimTime};

impl ControlLoop {
    pub(super) fn analyze(&mut self, seen: &Monitored) -> Heard {
        let t_end = seen.t_end;
        let leader = self.net.leader_node();
        let mut delivered = vec![false; seen.reports.len()];
        for (j, report) in seen.reports.iter().enumerate() {
            let node = ExperimentConfig::node_of(j);
            if self.send_with_retries(t_end, node, leader) == SendOutcome::Delivered {
                self.leader.received_rmttf[j] = report.last_rmttf;
                delivered[j] = true;
                self.causes.delivered(j);
                // A delivered report doubles as a heartbeat.
                if let Some(det) = &mut self.leader.detector {
                    det.record_heartbeat(node, t_end);
                }
            } else {
                // Report lost; the leader keeps the stale value.
                let vmc = &self.vmcs[j];
                self.causes.emit(t_end, Link::ReportLost(j), || {
                    vec![("region", Value::from(vmc.name().to_string()))]
                });
            }
        }
        if let Some(det) = &mut self.leader.detector {
            for node in det.check(t_end) {
                self.causes
                    .emit(t_end, Link::Suspicion(node.0 as usize), || {
                        let silent = det.silent_for(node, t_end).unwrap_or(Duration::ZERO);
                        vec![
                            ("node", Value::from(node.0)),
                            ("silent_us", Value::from(silent.as_micros())),
                        ]
                    });
            }
        }
        Heard { leader, delivered }
    }

    /// A control-plane send with the degradation policy's retry budget:
    /// chaos-dropped messages are retried with exponentially growing
    /// backoff as long as the cumulative backoff fits inside one era.
    /// Unroutable sends fail fast — the topology is frozen for the era.
    pub(super) fn send_with_retries(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
    ) -> SendOutcome {
        let mut outcome = self.net.send(now, from, to);
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
            self.ins.report_retries.inc();
            outcome = self.net.send(now, from, to);
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
}
