//! Fault-tolerant leader election among the VM controllers.
//!
//! The paper elects a leader VMC "using the algorithm in \[33\] [Avresky &
//! Natchev], which has been shown to be tolerant to multiple node and link
//! failures". We implement the same guarantee with a round-based flooding
//! election: every alive node repeatedly exchanges the smallest controller
//! id it has heard of with its usable neighbours; after at most
//! `diameter` rounds each connected component agrees on its minimum id.
//! Any membership change (node/link failure or recovery) simply re-runs the
//! election — the algorithm is self-stabilising because the fixed point
//! depends only on the current topology.
//!
//! [`Elector`] tracks the last outcome and reports leadership changes, and
//! counts rounds/messages so the overhead can be benchmarked.

use crate::graph::{NodeId, OverlayGraph};
use acm_obs::{Counter, Hist, ObsHandle};
use std::collections::BTreeMap;

/// Result of one election run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElectionOutcome {
    /// Leader per alive node (nodes in the same partition share a leader).
    pub leader_of: BTreeMap<NodeId, NodeId>,
    /// Synchronous rounds until every node stabilised.
    pub rounds: usize,
    /// Total point-to-point messages exchanged.
    pub messages: usize,
}

impl ElectionOutcome {
    /// Leader seen by a given node, if the node is alive.
    pub fn leader(&self, n: NodeId) -> Option<NodeId> {
        self.leader_of.get(&n).copied()
    }

    /// Distinct leaders (one per connected component of alive nodes).
    pub fn leaders(&self) -> Vec<NodeId> {
        let mut ls: Vec<NodeId> = self.leader_of.values().copied().collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    }
}

/// Runs the flooding election on the current topology.
pub fn elect(g: &OverlayGraph) -> ElectionOutcome {
    let alive: Vec<NodeId> = g.alive_nodes().collect();
    // Every node starts by nominating itself.
    let mut belief: BTreeMap<NodeId, NodeId> = alive.iter().map(|&n| (n, n)).collect();
    let mut rounds = 0;
    let mut messages = 0;
    loop {
        let mut next = belief.clone();
        let mut changed = false;
        for &n in &alive {
            for (m, _) in g.usable_neighbors(n) {
                messages += 1;
                let heard = belief[&n];
                if heard < next[&m] {
                    next.insert(m, heard);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        belief = next;
        rounds += 1;
        assert!(
            rounds <= alive.len() + 1,
            "election failed to converge within the diameter bound"
        );
    }
    ElectionOutcome {
        leader_of: belief,
        rounds,
        messages,
    }
}

/// Stateful elector: re-elects on demand and reports leadership changes.
#[derive(Debug, Clone, Default)]
pub struct Elector {
    last: Option<ElectionOutcome>,
    elections_run: u64,
    /// Instrumentation; inert until [`Elector::set_obs`].
    hist_rounds: Hist,
    hist_messages: Hist,
    ctr_changes: Counter,
}

impl Elector {
    /// Creates an elector with no history.
    pub fn new() -> Self {
        Elector::default()
    }

    /// Attaches observability: per-election round/message histograms
    /// (`acm.overlay.election.rounds` / `.messages`) and a leadership-change
    /// counter (`acm.overlay.election.leader_changes`).
    pub fn set_obs(&mut self, obs: &ObsHandle) {
        self.hist_rounds = obs.histogram("acm.overlay.election.rounds");
        self.hist_messages = obs.histogram("acm.overlay.election.messages");
        self.ctr_changes = obs.counter("acm.overlay.election.leader_changes");
    }

    /// Runs an election and returns `(outcome, leadership_changed)` where
    /// the flag compares the new leader map against the previous one.
    pub fn re_elect(&mut self, g: &OverlayGraph) -> (&ElectionOutcome, bool) {
        let outcome = elect(g);
        self.elections_run += 1;
        self.hist_rounds.record(outcome.rounds as u64);
        self.hist_messages.record(outcome.messages as u64);
        let changed = self
            .last
            .as_ref()
            .is_none_or(|prev| prev.leader_of != outcome.leader_of);
        if changed {
            self.ctr_changes.inc();
        }
        self.last = Some(outcome);
        (self.last.as_ref().unwrap(), changed)
    }

    /// The most recent outcome, if any election has run.
    pub fn current(&self) -> Option<&ElectionOutcome> {
        self.last.as_ref()
    }

    /// How many elections have run.
    pub fn elections_run(&self) -> u64 {
        self.elections_run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acm_sim::time::Duration;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn triangle() -> OverlayGraph {
        OverlayGraph::full_mesh(&[
            (n(0), n(1), ms(10)),
            (n(1), n(2), ms(10)),
            (n(0), n(2), ms(10)),
        ])
    }

    #[test]
    fn elects_the_minimum_id() {
        let out = elect(&triangle());
        assert_eq!(out.leaders(), vec![n(0)]);
        for i in 0..3 {
            assert_eq!(out.leader(n(i)), Some(n(0)));
        }
    }

    #[test]
    fn survives_leader_failure() {
        let mut g = triangle();
        g.fail_node(n(0));
        let out = elect(&g);
        assert_eq!(out.leaders(), vec![n(1)]);
        assert_eq!(out.leader(n(0)), None, "dead node has no leader view");
    }

    #[test]
    fn survives_multiple_link_failures() {
        // Chain 0-1-2-3-4; kill 2 middle links -> 3 partitions.
        let mut g = OverlayGraph::new();
        for i in 0..4 {
            g.add_link(n(i), n(i + 1), ms(5));
        }
        g.fail_link(n(1), n(2));
        g.fail_link(n(3), n(4));
        let out = elect(&g);
        assert_eq!(out.leaders(), vec![n(0), n(2), n(4)]);
        assert_eq!(out.leader(n(1)), Some(n(0)));
        assert_eq!(out.leader(n(3)), Some(n(2)));
        assert_eq!(out.leader(n(4)), Some(n(4)));
    }

    #[test]
    fn rounds_bounded_by_diameter() {
        // Path graph of 10 nodes: diameter 9.
        let mut g = OverlayGraph::new();
        for i in 0..9 {
            g.add_link(n(i), n(i + 1), ms(1));
        }
        let out = elect(&g);
        assert!(out.rounds <= 10, "rounds {}", out.rounds);
        assert_eq!(out.leaders(), vec![n(0)]);
        assert!(out.messages > 0);
    }

    #[test]
    fn single_node_elects_itself() {
        let mut g = OverlayGraph::new();
        g.add_node(n(7));
        let out = elect(&g);
        assert_eq!(out.leader(n(7)), Some(n(7)));
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn elector_reports_changes() {
        let mut g = triangle();
        let mut e = Elector::new();
        let (_, changed) = e.re_elect(&g);
        assert!(changed, "first election is always a change");
        let (_, changed) = e.re_elect(&g);
        assert!(!changed, "stable topology keeps the leader");
        g.fail_node(n(0));
        let (out, changed) = e.re_elect(&g);
        assert!(changed);
        assert_eq!(out.leaders(), vec![n(1)]);
        // Recovery flips leadership back.
        g.recover_node(n(0));
        let (out, changed) = e.re_elect(&g);
        assert!(changed);
        assert_eq!(out.leaders(), vec![n(0)]);
        assert_eq!(e.elections_run(), 4);
    }

    #[test]
    fn elector_metrics_count_elections_and_changes() {
        let obs = acm_obs::Obs::new(acm_obs::ObsConfig::default());
        let mut g = triangle();
        let mut e = Elector::new();
        e.set_obs(&obs);
        e.re_elect(&g); // change (first election)
        e.re_elect(&g); // stable
        g.fail_node(n(0));
        e.re_elect(&g); // change
        assert_eq!(
            obs.counter("acm.overlay.election.leader_changes").value(),
            2
        );
        let rounds = obs.histogram("acm.overlay.election.rounds").snapshot();
        assert_eq!(rounds.count, 3, "every election records a round sample");
        let messages = obs.histogram("acm.overlay.election.messages").snapshot();
        assert!(messages.max >= messages.min);
    }
}
