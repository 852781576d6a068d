//! Graceful degradation for the leader's Plan phase.
//!
//! The baseline loop trusts `lastRMTTF` reports forever: a partitioned
//! region keeps its stale value and therefore its old flow fraction for
//! as long as the partition lasts. With degradation enabled the leader
//! tracks how old every region's report is, quarantines regions whose
//! reports age past a TTL (or whose silence outlasts the suspicion
//! timeout), redistributes their flow across the live regions, and
//! re-admits a healed region only after a hysteresis of consecutive fresh
//! reports — so a flapping region cannot oscillate the plan.
//!
//! Report age is the leader's one silence clock: counted in eras it is the
//! staleness TTL's input, times the era length it is the suspicion
//! timeout's ([`HealthTracker::suspicion`]).

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
    /// Silence after which the leader suspects a region's VMC. Silence is
    /// report age times the era length, so a timeout below one era
    /// suspects a region on its first missed report.
    pub suspicion_timeout: Duration,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig {
            enabled: false,
            staleness_ttl_eras: 2,
            readmit_hysteresis_eras: 3,
            suspicion_timeout: Duration::from_secs(16),
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

    /// Sanity-checks the knobs (the suspicion timeout is checked even when
    /// degradation is off).
    pub fn validate(&self) -> Result<(), String> {
        if self.suspicion_timeout.is_zero() {
            return Err("suspicion timeout must be positive".into());
        }
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
        /// The VMC has been silent past the suspicion timeout.
        suspected: bool,
    },
    /// Quarantined → Probation (first fresh report after the outage).
    ProbationStarted,
    /// Probation → Live (hysteresis satisfied).
    Readmitted,
}

/// A silent region's standing on the leader's silence clock (see
/// [`HealthTracker::suspicion`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Suspicion {
    /// How long the region has been silent at the era's end.
    pub silent: Duration,
    /// Whether this era is the one on which the silence first passed the
    /// timeout (the era that logs `heartbeat.timeout`).
    pub first: bool,
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
    /// delivered and whether the leader suspects its VMC.
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

    /// Region `j`'s standing on the silence clock when its report missed
    /// the era that just ended: silent for the missed eras the tracker
    /// already counts plus this one, `(age + 1) × era` (from time 0 if it
    /// never reported). `None` until the silence strictly exceeds
    /// `timeout`. Read before [`HealthTracker::observe`] counts the era.
    pub fn suspicion(&self, j: usize, era: Duration, timeout: Duration) -> Option<Suspicion> {
        let missed = u64::from(self.age[j]) + 1;
        let silent = Duration::from_micros(era.as_micros().saturating_mul(missed));
        (silent > timeout).then(|| Suspicion {
            silent,
            first: silent.saturating_sub(era) <= timeout,
        })
    }

    /// Whether region `j` participates in the plan.
    pub fn is_live(&self, j: usize) -> bool {
        self.health[j] == RegionHealth::Live
    }

    /// Number of quarantined or probationary regions.
    pub fn excluded_count(&self) -> usize {
        self.health
            .iter()
            .filter(|&&h| h != RegionHealth::Live)
            .count()
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
    use proptest::collection;
    use proptest::prelude::*;

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
        assert!(t.is_live(0));
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
        let mut short = DegradationConfig::enabled();
        short.suspicion_timeout = Duration::from_secs(1);
        assert!(short.validate().is_ok(), "a timeout below one era is fine");
        let bad = DegradationConfig {
            suspicion_timeout: Duration::ZERO,
            ..Default::default()
        };
        assert!(bad.validate().is_err(), "a zero timeout is a config error");
    }

    /// The timestamp rule the report-age clock replaced, kept as the
    /// oracle: a region last heard at `last_us` (0 before its first
    /// delivery) is suspected at `t_end` once `t_end − last_us > timeout`,
    /// reported once per silence, and trusted again on its next delivery.
    struct TimestampOracle {
        timeout_us: u64,
        last_us: u64,
        suspected: bool,
    }

    impl TimestampOracle {
        /// The era ending at `t_end_us`: whether the region is suspected,
        /// and its silence if this is the era the suspicion is reported.
        fn era(&mut self, t_end_us: u64, delivered: bool) -> (bool, Option<u64>) {
            if delivered {
                self.last_us = t_end_us;
                self.suspected = false;
            }
            let silent = t_end_us - self.last_us;
            let crossed = !self.suspected && silent > self.timeout_us;
            self.suspected |= crossed;
            (self.suspected, crossed.then_some(silent))
        }
    }

    proptest! {
        /// Report-age suspicion, and the eras on which it is reported,
        /// equal the timestamp rule over random delivery patterns, era
        /// lengths and timeouts: exact multiples of the era (the
        /// comparison is strict), at most one era, and anything up to
        /// eight eras.
        #[test]
        fn age_suspicion_matches_the_timestamp_rule(
            draws in collection::vec(0u8..10, 1..80),
            delivery_tenths in 1u8..6,
            era_us in 1u64..120_000_000,
            shape in 0u8..3,
            k in 1u64..9,
            jitter in any::<u64>(),
        ) {
            let timeout_us = match shape {
                0 => era_us * k,
                1 => 1 + jitter % era_us,
                _ => 1 + jitter % (era_us * k),
            };
            let era = Duration::from_micros(era_us);
            let timeout = Duration::from_micros(timeout_us);
            let mut t = tracker(2, 3);
            let mut oracle = TimestampOracle { timeout_us, last_us: 0, suspected: false };
            for (e, &draw) in draws.iter().enumerate() {
                let delivered = draw < delivery_tenths;
                let s = if delivered { None } else { t.suspicion(0, era, timeout) };
                let (suspected, reported) = oracle.era((e as u64 + 1) * era_us, delivered);
                prop_assert_eq!(s.is_some(), suspected, "era {}: suspicion", e);
                let first = s.filter(|s| s.first).map(|s| s.silent.as_micros());
                prop_assert_eq!(first, reported, "era {}: reported crossing", e);
                t.observe(0, delivered, s.is_some());
            }
        }
    }
}
