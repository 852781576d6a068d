//! ANALYZE (Alg. 1's reporting half): every slave ships `lastRMTTF_i` to
//! the leader over the overlay; a region whose report has been missing
//! longer than the suspicion timeout is suspected.

use super::causes::Link;
use super::leader::SendOutcome;
use super::{ControlLoop, Heard, Monitored};
use crate::config::ExperimentConfig;
use acm_obs::Value;
use acm_overlay::NodeId;
use acm_sim::time::{Duration, SimTime};

/// Extra send attempts for a slave report within one era.
const REPORT_RETRIES: u32 = 2;

/// Base backoff between retries; doubles per attempt, capped so the whole
/// retry budget stays inside one era.
const RETRY_BACKOFF: Duration = Duration::from_secs(2);

impl ControlLoop {
    pub(super) fn analyze(&mut self, seen: &Monitored, heard: &mut Heard) {
        let t_end = seen.t_end;
        let leader = self.net.leader_node();
        let n = seen.reports.len();
        let Heard {
            delivered,
            suspected,
            ..
        } = heard;
        delivered.clear();
        delivered.resize(n, false);
        for (j, report) in seen.reports.iter().enumerate() {
            let node = ExperimentConfig::node_of(j);
            if self.send_with_retries(t_end, node, leader) == SendOutcome::Delivered {
                self.leader.received_rmttf[j] = report.last_rmttf;
                delivered[j] = true;
                self.causes.delivered(j);
            } else {
                // Report lost; the leader keeps the stale value.
                let vmc = &self.vmcs[j];
                self.causes.emit(t_end, Link::ReportLost(j), || {
                    vec![("region", Value::from(vmc.shared_name()))]
                });
            }
        }
        // Report age is the silence clock; the era its silence first
        // passes the timeout logs the suspicion once.
        suspected.clear();
        suspected.resize(n, false);
        if let Some(tracker) = &self.leader.tracker {
            let timeout = self.degradation.suspicion_timeout;
            for (j, (sus, &fresh)) in suspected.iter_mut().zip(delivered.iter()).enumerate() {
                if fresh {
                    continue;
                }
                let Some(s) = tracker.suspicion(j, self.era, timeout) else {
                    continue;
                };
                *sus = true;
                if s.first {
                    self.causes.emit(t_end, Link::Suspicion(j), || {
                        vec![
                            ("node", Value::from(ExperimentConfig::node_of(j).0)),
                            ("silent_us", Value::from(s.silent.as_micros())),
                        ]
                    });
                }
            }
        }
        heard.leader = leader;
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
        let mut backoff = RETRY_BACKOFF;
        let mut budget = self.era;
        let mut attempt = 0u32;
        while outcome == SendOutcome::ChaosDropped && attempt < REPORT_RETRIES && backoff <= budget
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
