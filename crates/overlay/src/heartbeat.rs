//! Heartbeat-based failure detection between controllers.
//!
//! The round-based election in [`crate::election`] needs something to tell
//! it *when* to re-run: in the deployed system each VMC heartbeats its
//! peers over the overlay and suspects a peer after a silence timeout
//! (the standard eventually-perfect failure-detector construction).
//! [`FailureDetector`] implements that suspicion logic; the event-driven
//! tests drive it together with [`crate::transport`] delays to show that
//! leader failover happens within one timeout.

use crate::graph::NodeId;
use acm_obs::{Counter, ObsHandle};
use acm_sim::time::{Duration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Heartbeat cadence and suspicion timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// How often every node emits heartbeats.
    pub period: Duration,
    /// Silence after which a peer is suspected. Must exceed the period plus
    /// the worst overlay delay, or healthy peers flap.
    pub timeout: Duration,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            period: Duration::from_secs(5),
            timeout: Duration::from_secs(16),
        }
    }
}

impl HeartbeatConfig {
    /// Validates the timing relationship.
    pub fn validate(&self) -> Result<(), String> {
        if self.period.is_zero() {
            return Err("heartbeat period must be positive".into());
        }
        if self.timeout <= self.period {
            return Err("timeout must exceed the heartbeat period".into());
        }
        Ok(())
    }
}

/// One node's view of its peers' liveness.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    cfg: HeartbeatConfig,
    /// Most recent heartbeat received per peer.
    last_heard: BTreeMap<NodeId, SimTime>,
    suspected: BTreeSet<NodeId>,
    /// Count of suspicion transitions (flap diagnostics).
    transitions: u64,
    /// Instrumentation; inert until [`FailureDetector::set_obs`].
    ctr_heartbeats: Counter,
    ctr_suspicions: Counter,
    ctr_rehabilitations: Counter,
}

impl FailureDetector {
    /// Creates a detector for the given peers; every peer starts trusted
    /// with a grace period of one timeout from `now`.
    pub fn new(
        cfg: HeartbeatConfig,
        peers: impl IntoIterator<Item = NodeId>,
        now: SimTime,
    ) -> Self {
        cfg.validate().expect("invalid heartbeat config");
        FailureDetector {
            cfg,
            last_heard: peers.into_iter().map(|p| (p, now)).collect(),
            suspected: BTreeSet::new(),
            transitions: 0,
            ctr_heartbeats: Counter::default(),
            ctr_suspicions: Counter::default(),
            ctr_rehabilitations: Counter::default(),
        }
    }

    /// Attaches observability: counts heartbeats received
    /// (`acm.overlay.heartbeat.received`), new suspicions
    /// (`acm.overlay.heartbeat.suspicions`) and rehabilitations
    /// (`acm.overlay.heartbeat.rehabilitations`).
    pub fn set_obs(&mut self, obs: &ObsHandle) {
        self.ctr_heartbeats = obs.counter("acm.overlay.heartbeat.received");
        self.ctr_suspicions = obs.counter("acm.overlay.heartbeat.suspicions");
        self.ctr_rehabilitations = obs.counter("acm.overlay.heartbeat.rehabilitations");
    }

    /// The configuration in force.
    pub fn config(&self) -> HeartbeatConfig {
        self.cfg
    }

    /// Records a heartbeat from `from` at `now`. A suspected peer that
    /// speaks again is rehabilitated (eventually-perfect behaviour).
    /// Returns `true` if the peer was previously suspected.
    pub fn record_heartbeat(&mut self, from: NodeId, now: SimTime) -> bool {
        self.ctr_heartbeats.inc();
        self.last_heard.insert(from, now);
        let was_suspected = self.suspected.remove(&from);
        if was_suspected {
            self.transitions += 1;
            self.ctr_rehabilitations.inc();
        }
        was_suspected
    }

    /// Evaluates timeouts at `now`; returns peers that just became
    /// suspected (newly silent past the timeout).
    pub fn check(&mut self, now: SimTime) -> Vec<NodeId> {
        let mut newly = Vec::new();
        for (&peer, &heard) in &self.last_heard {
            if self.suspected.contains(&peer) {
                continue;
            }
            if now.saturating_since(heard) > self.cfg.timeout {
                newly.push(peer);
            }
        }
        for &p in &newly {
            self.suspected.insert(p);
            self.transitions += 1;
            self.ctr_suspicions.inc();
        }
        newly
    }

    /// Whether `peer` is currently suspected.
    pub fn is_suspected(&self, peer: NodeId) -> bool {
        self.suspected.contains(&peer)
    }

    /// How long `peer` has been silent at `now` (zero if heard in the
    /// future, `None` for an unknown peer). Diagnostic companion to
    /// [`FailureDetector::check`] — lets callers report *how stale* a
    /// suspicion is, not just that it happened.
    pub fn silent_for(&self, peer: NodeId, now: SimTime) -> Option<Duration> {
        self.last_heard.get(&peer).map(|&h| now.saturating_since(h))
    }

    /// Currently trusted peers.
    pub fn trusted(&self) -> Vec<NodeId> {
        self.last_heard
            .keys()
            .filter(|p| !self.suspected.contains(p))
            .copied()
            .collect()
    }

    /// Suspicion transitions so far (both directions).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OverlayGraph;
    use crate::transport::Transport;
    use acm_sim::sim::{Event, Simulator};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn cfg() -> HeartbeatConfig {
        HeartbeatConfig {
            period: Duration::from_secs(5),
            timeout: Duration::from_secs(16),
        }
    }

    #[test]
    fn silent_peer_becomes_suspected_after_timeout() {
        let mut fd = FailureDetector::new(cfg(), [n(1), n(2)], t(0));
        fd.record_heartbeat(n(1), t(10));
        // At t=15 nothing has timed out (n2 last heard at 0 + 16 > 15).
        assert!(fd.check(t(15)).is_empty());
        // At t=17, n2 is silent past the timeout; n1 is fine.
        assert_eq!(fd.check(t(17)), vec![n(2)]);
        assert!(fd.is_suspected(n(2)));
        assert!(!fd.is_suspected(n(1)));
        assert_eq!(fd.trusted(), vec![n(1)]);
    }

    #[test]
    fn heartbeat_rehabilitates_a_suspect() {
        let mut fd = FailureDetector::new(cfg(), [n(1)], t(0));
        fd.check(t(100));
        assert!(fd.is_suspected(n(1)));
        assert!(fd.record_heartbeat(n(1), t(101)));
        assert!(!fd.is_suspected(n(1)));
        assert_eq!(fd.transitions(), 2);
    }

    #[test]
    fn chatty_peer_is_never_suspected() {
        let mut fd = FailureDetector::new(cfg(), [n(1)], t(0));
        for s in (0..1000).step_by(5) {
            fd.record_heartbeat(n(1), t(s));
            assert!(fd.check(t(s + 4)).is_empty());
        }
        assert_eq!(fd.transitions(), 0);
    }

    #[test]
    fn silent_for_reports_the_silence_age() {
        let mut fd = FailureDetector::new(cfg(), [n(1)], t(0));
        fd.record_heartbeat(n(1), t(10));
        assert_eq!(fd.silent_for(n(1), t(25)), Some(Duration::from_secs(15)));
        assert_eq!(fd.silent_for(n(1), t(5)), Some(Duration::ZERO), "saturates");
        assert_eq!(fd.silent_for(n(9), t(25)), None, "unknown peer");
    }

    #[test]
    fn already_suspected_peers_are_not_reported_again() {
        let mut fd = FailureDetector::new(cfg(), [n(1)], t(0));
        assert_eq!(fd.check(t(100)), vec![n(1)]);
        assert!(fd.check(t(200)).is_empty(), "no duplicate suspicion");
    }

    #[test]
    fn detector_metrics_count_heartbeats_and_transitions() {
        let obs = acm_obs::Obs::new(acm_obs::ObsConfig::default());
        let mut fd = FailureDetector::new(cfg(), [n(1), n(2)], t(0));
        fd.set_obs(&obs);
        fd.record_heartbeat(n(1), t(1));
        fd.record_heartbeat(n(1), t(2));
        fd.check(t(100)); // both silent past the timeout → 2 suspicions
        fd.record_heartbeat(n(2), t(101)); // rehabilitates n2
        assert_eq!(obs.counter("acm.overlay.heartbeat.received").value(), 3);
        assert_eq!(obs.counter("acm.overlay.heartbeat.suspicions").value(), 2);
        assert_eq!(
            obs.counter("acm.overlay.heartbeat.rehabilitations").value(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "timeout must exceed")]
    fn invalid_config_panics() {
        let bad = HeartbeatConfig {
            period: Duration::from_secs(10),
            timeout: Duration::from_secs(5),
        };
        let _ = FailureDetector::new(bad, [n(1)], t(0));
    }

    /// Event-driven failover drill: three controllers heartbeat over the
    /// transport; controller 0 (the leader) dies at t = 60 s; the survivors
    /// suspect it within one timeout and re-elect controller 1.
    #[test]
    fn leader_failover_within_one_timeout() {
        struct World {
            transport: Transport,
            detectors: Vec<FailureDetector>, // index = node id
            dead: Vec<bool>,
            leader_seen_by_1: NodeId,
            suspected_at: Option<SimTime>,
        }

        let graph = OverlayGraph::full_mesh(&[
            (n(0), n(1), Duration::from_millis(25)),
            (n(0), n(2), Duration::from_millis(30)),
            (n(1), n(2), Duration::from_millis(12)),
        ]);
        let peers = |me: u32| (0..3).filter(move |i| *i != me).map(n);
        let world = World {
            transport: Transport::new(graph),
            detectors: (0..3)
                .map(|i| FailureDetector::new(cfg(), peers(i), SimTime::ZERO))
                .collect(),
            dead: vec![false; 3],
            leader_seen_by_1: n(0),
            suspected_at: None,
        };
        /// The scenario's events: a node's periodic tick, a heartbeat
        /// arriving at a peer, and the leader's death.
        enum Beat {
            Tick(u32),
            Arrive { from: NodeId, at_peer: u32 },
            Kill(u32),
        }

        impl Event<World> for Beat {
            fn fire(self, sim: &mut Simulator<World, Beat>) {
                let now = sim.now();
                match self {
                    Beat::Tick(me) => tick(sim, me),
                    Beat::Arrive { from, at_peer } => {
                        sim.world.detectors[at_peer as usize].record_heartbeat(from, now);
                    }
                    Beat::Kill(node) => sim.world.dead[node as usize] = true,
                }
            }
        }

        // Heartbeat + check loop per node, every period.
        fn tick(sim: &mut Simulator<World, Beat>, me: u32) {
            let now = sim.now();
            if sim.world.dead[me as usize] {
                return;
            }
            // Emit heartbeats to every peer.
            for peer in 0..3u32 {
                if peer == me || sim.world.dead[peer as usize] {
                    continue;
                }
                let (from, to) = (n(me), n(peer));
                if let Some(delay) = sim.world.transport.prepare_send(from, to) {
                    sim.schedule_at(
                        now + delay,
                        Beat::Arrive {
                            from,
                            at_peer: peer,
                        },
                    );
                }
            }
            // Check suspicions; node 1 re-elects if it suspects the leader.
            let newly = sim.world.detectors[me as usize].check(now);
            if me == 1 && newly.contains(&n(0)) {
                sim.world.leader_seen_by_1 = n(1); // next-smallest trusted id
                sim.world.suspected_at = Some(now);
            }
            sim.schedule_at(now + Duration::from_secs(5), Beat::Tick(me));
        }

        let mut sim = Simulator::new(world);
        for me in 0..3 {
            sim.schedule_at(SimTime::ZERO, Beat::Tick(me));
        }
        // Kill the leader at t = 60.
        sim.schedule_at(t(60), Beat::Kill(0));

        sim.run_until(t(200));

        let w = &sim.world;
        assert_eq!(w.leader_seen_by_1, n(1), "failover must have happened");
        let at = w.suspected_at.expect("suspicion recorded");
        assert!(
            at > t(60) && at <= t(60) + cfg().timeout + Duration::from_secs(5),
            "failover too slow: {at}"
        );
    }
}
