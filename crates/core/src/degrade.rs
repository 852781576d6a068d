//! Graceful degradation for the leader's Plan phase.
//!
//! The baseline loop trusts `lastRMTTF` reports forever: a partitioned
//! region keeps its stale value and therefore its old flow fraction for
//! as long as the partition lasts. With degradation enabled the leader
//! tracks how old every region's report is, quarantines regions whose
//! reports age past a TTL (or whose VMC the heartbeat detector suspects),
//! redistributes their flow across the live regions, and re-admits a
//! healed region only after a hysteresis of consecutive fresh reports —
//! so a flapping region cannot oscillate the plan.

use acm_overlay::HeartbeatConfig;
use acm_sim::time::Duration;

/// Knobs for the leader's degradation behaviour. Disabled by default:
/// the paper's figure deployments freeze the plan under partitions, and
/// the pre-PR telemetry must stay byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationConfig {
    /// Master switch; everything below is ignored when false.
    pub enabled: bool,
    /// Eras a region's report may stay stale before quarantine (age is
    /// counted in missed eras; `2` tolerates two consecutive losses).
    pub staleness_ttl_eras: u32,
    /// Consecutive fresh-report eras a quarantined region must deliver
    /// before it is re-admitted into the plan.
    pub readmit_hysteresis_eras: u32,
    /// Extra send attempts for a slave report within one era.
    pub report_retries: u32,
    /// Base backoff between retries; doubles per attempt, capped so the
    /// whole retry budget stays inside one era.
    pub retry_backoff: Duration,
    /// Heartbeat cadence/timeout for the leader's suspicion detector
    /// (slave reports double as heartbeats).
    pub heartbeat: HeartbeatConfig,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig {
            enabled: false,
            staleness_ttl_eras: 2,
            readmit_hysteresis_eras: 3,
            report_retries: 2,
            retry_backoff: Duration::from_secs(2),
            heartbeat: HeartbeatConfig::default(),
        }
    }
}

impl DegradationConfig {
    /// A ready-to-use enabled configuration.
    pub fn enabled() -> Self {
        DegradationConfig {
            enabled: true,
            ..Default::default()
        }
    }

    /// Sanity-checks the knobs (the heartbeat config is checked even when
    /// degradation is off, so a bad timeout is a config error, not a
    /// construction-time panic).
    pub fn validate(&self) -> Result<(), String> {
        self.heartbeat.validate()?;
        if self.enabled {
            if self.staleness_ttl_eras == 0 {
                return Err("staleness TTL must be at least one era".into());
            }
            if self.readmit_hysteresis_eras == 0 {
                return Err("re-admission hysteresis must be at least one era".into());
            }
        }
        Ok(())
    }
}

/// Where a region stands in the quarantine state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionHealth {
    /// Fresh reports, trusted, receives flow.
    Live,
    /// Reports aged out or the VMC is suspected; receives zero flow.
    Quarantined,
    /// Healing: fresh reports again, but still excluded from the plan
    /// until the hysteresis is satisfied. Carries the streak length.
    Probation(u32),
}

/// A health transition worth logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEvent {
    /// Live → Quarantined.
    Quarantined {
        /// The report aged past the TTL.
        stale: bool,
        /// The heartbeat detector suspects the VMC.
        suspected: bool,
    },
    /// Quarantined → Probation (first fresh report after the outage).
    ProbationStarted,
    /// Probation → Live (hysteresis satisfied).
    Readmitted,
}

/// Per-region report-age tracking and the quarantine/re-admission state
/// machine. Pure bookkeeping — no RNG, no clock — so it is trivially
/// deterministic.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    ttl: u32,
    hysteresis: u32,
    /// Eras since the last fresh report, per region.
    age: Vec<u32>,
    health: Vec<RegionHealth>,
    /// Lifetime Live → Quarantined transitions, per region. Outage
    /// ordinal: the k-th quarantine of a region is outage k.
    quarantines: Vec<u32>,
    /// Lifetime Probation/Quarantined → Live transitions, per region.
    /// The single-readmit-per-outage invariant is exactly
    /// `readmits <= quarantines` with equality once every outage healed.
    readmits: Vec<u32>,
}

impl HealthTracker {
    /// A tracker for `n` regions, all initially live with age 0.
    pub fn new(cfg: &DegradationConfig, n: usize) -> Self {
        HealthTracker {
            ttl: cfg.staleness_ttl_eras,
            hysteresis: cfg.readmit_hysteresis_eras,
            age: vec![0; n],
            health: vec![RegionHealth::Live; n],
            quarantines: vec![0; n],
            readmits: vec![0; n],
        }
    }

    /// Feeds one era's outcome for region `j`: whether its report was
    /// delivered and whether the detector currently suspects its VMC.
    /// Returns the transition, if any.
    pub fn observe(&mut self, j: usize, delivered: bool, suspected: bool) -> Option<HealthEvent> {
        if delivered {
            self.age[j] = 0;
        } else {
            self.age[j] = self.age[j].saturating_add(1);
        }
        let stale = self.age[j] > self.ttl;
        let fresh = delivered && !suspected;
        match self.health[j] {
            RegionHealth::Live => {
                if stale || suspected {
                    self.health[j] = RegionHealth::Quarantined;
                    self.quarantines[j] = self.quarantines[j].saturating_add(1);
                    Some(HealthEvent::Quarantined { stale, suspected })
                } else {
                    None
                }
            }
            RegionHealth::Quarantined => {
                if fresh {
                    if self.hysteresis <= 1 {
                        self.health[j] = RegionHealth::Live;
                        self.readmits[j] = self.readmits[j].saturating_add(1);
                        Some(HealthEvent::Readmitted)
                    } else {
                        self.health[j] = RegionHealth::Probation(1);
                        Some(HealthEvent::ProbationStarted)
                    }
                } else {
                    None
                }
            }
            RegionHealth::Probation(streak) => {
                if fresh {
                    if streak + 1 >= self.hysteresis {
                        self.health[j] = RegionHealth::Live;
                        self.readmits[j] = self.readmits[j].saturating_add(1);
                        Some(HealthEvent::Readmitted)
                    } else {
                        self.health[j] = RegionHealth::Probation(streak + 1);
                        None
                    }
                } else {
                    // Flapped during probation: back to quarantine, streak
                    // resets. No event — the region never re-entered the
                    // plan, so nothing observable changed.
                    self.health[j] = RegionHealth::Quarantined;
                    None
                }
            }
        }
    }

    /// Region `j`'s current state.
    pub fn health(&self, j: usize) -> RegionHealth {
        self.health[j]
    }

    /// Eras since region `j`'s last fresh report.
    pub fn age(&self, j: usize) -> u32 {
        self.age[j]
    }

    /// Whether region `j` participates in the plan.
    pub fn is_live(&self, j: usize) -> bool {
        self.health[j] == RegionHealth::Live
    }

    /// Indices of plan-participating regions, ascending.
    pub fn live_indices(&self) -> Vec<usize> {
        (0..self.health.len())
            .filter(|&j| self.is_live(j))
            .collect()
    }

    /// Number of quarantined or probationary regions.
    pub fn excluded_count(&self) -> usize {
        self.health.len() - self.live_indices().len()
    }

    /// Lifetime Live → Quarantined transitions for region `j` — the
    /// current outage's ordinal (1-based) while the region is out.
    pub fn quarantine_count(&self, j: usize) -> u32 {
        self.quarantines[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(ttl: u32, hysteresis: u32) -> HealthTracker {
        let cfg = DegradationConfig {
            enabled: true,
            staleness_ttl_eras: ttl,
            readmit_hysteresis_eras: hysteresis,
            ..Default::default()
        };
        HealthTracker::new(&cfg, 2)
    }

    #[test]
    fn stale_reports_quarantine_after_the_ttl() {
        let mut t = tracker(2, 3);
        assert_eq!(t.observe(1, false, false), None, "age 1 <= ttl");
        assert_eq!(t.observe(1, false, false), None, "age 2 <= ttl");
        assert_eq!(
            t.observe(1, false, false),
            Some(HealthEvent::Quarantined {
                stale: true,
                suspected: false
            })
        );
        assert!(!t.is_live(1));
        assert_eq!(t.live_indices(), vec![0]);
        assert_eq!(t.excluded_count(), 1);
    }

    #[test]
    fn suspicion_quarantines_immediately() {
        let mut t = tracker(5, 3);
        assert_eq!(
            t.observe(0, true, true),
            Some(HealthEvent::Quarantined {
                stale: false,
                suspected: true
            })
        );
    }

    #[test]
    fn readmission_requires_the_full_hysteresis() {
        let mut t = tracker(1, 3);
        t.observe(0, false, false);
        t.observe(0, false, false); // quarantined (age 2 > ttl 1)
        assert_eq!(t.health(0), RegionHealth::Quarantined);
        assert_eq!(
            t.observe(0, true, false),
            Some(HealthEvent::ProbationStarted)
        );
        assert_eq!(t.health(0), RegionHealth::Probation(1));
        assert!(!t.is_live(0), "probation gets no flow");
        assert_eq!(t.observe(0, true, false), None);
        assert_eq!(t.observe(0, true, false), Some(HealthEvent::Readmitted));
        assert!(t.is_live(0));
    }

    #[test]
    fn flap_during_probation_resets_the_streak() {
        let mut t = tracker(1, 3);
        t.observe(0, false, false);
        t.observe(0, false, false);
        t.observe(0, true, false); // probation 1
        assert_eq!(
            t.observe(0, false, false),
            None,
            "flap: silent requarantine"
        );
        assert_eq!(t.health(0), RegionHealth::Quarantined);
        // Must now re-earn the whole streak.
        assert_eq!(
            t.observe(0, true, false),
            Some(HealthEvent::ProbationStarted)
        );
        t.observe(0, true, false);
        assert_eq!(t.observe(0, true, false), Some(HealthEvent::Readmitted));
    }

    #[test]
    fn hysteresis_of_one_readmits_directly() {
        let mut t = tracker(1, 1);
        t.observe(0, false, false);
        t.observe(0, false, false);
        assert_eq!(t.health(0), RegionHealth::Quarantined);
        assert_eq!(t.observe(0, true, false), Some(HealthEvent::Readmitted));
    }

    #[test]
    fn fresh_report_resets_age_before_the_ttl_check() {
        let mut t = tracker(2, 2);
        t.observe(0, false, false);
        t.observe(0, false, false);
        t.observe(0, true, false); // age back to 0
        t.observe(0, false, false);
        t.observe(0, false, false);
        assert_eq!(t.health(0), RegionHealth::Live, "never crossed the ttl");
        assert_eq!(t.age(0), 2);
    }

    #[test]
    fn config_validation() {
        assert!(DegradationConfig::default().validate().is_ok());
        assert!(DegradationConfig::enabled().validate().is_ok());
        let mut bad = DegradationConfig::enabled();
        bad.staleness_ttl_eras = 0;
        assert!(bad.validate().is_err());
        let mut bad = DegradationConfig::enabled();
        bad.readmit_hysteresis_eras = 0;
        assert!(bad.validate().is_err());
        let mut bad = DegradationConfig::default();
        bad.heartbeat.timeout = Duration::from_secs(1);
        assert!(
            bad.validate().is_err(),
            "timeout <= period is a config error"
        );
    }
}
