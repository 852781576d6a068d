//! Latency-faithful message delivery between controllers.
//!
//! [`Transport`] wraps the topology and the router's per-source
//! shortest-path trees, tracks sent/dropped counters, and prices each
//! send: [`Transport::prepare_send`] returns the route latency the caller
//! delivers after (`None` when the message is dropped). Messages to unreachable nodes are dropped (the control loop tolerates
//! this: a slave whose report is lost simply keeps its previous plan for
//! one era — the same behaviour a lost TCP connection would produce in the
//! real deployment).

use crate::graph::{NodeId, OverlayGraph};
use crate::routing::{PathTree, Router};
use acm_obs::{Counter, Hist, ObsHandle, Timer};
use acm_sim::time::Duration;

/// Message-passing facade over the overlay.
///
/// Owns the topology and a [`Router`]. Every method that changes the
/// failure state drops all of the router's trees, so a query never sees a
/// stale route; the next query from a source rebuilds that source's tree
/// (one Dijkstra), and every later query from it — [`Transport::latency`]
/// and [`Transport::prepare_send`] alike — is a lookup that allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct Transport {
    graph: OverlayGraph,
    router: Router,
    sent: u64,
    dropped: u64,
    /// Instrumentation; inert until [`Transport::set_obs`].
    route_timer: Timer,
    hist_hops: Hist,
    hist_hop_latency: Hist,
    ctr_sent: Counter,
    ctr_dropped: Counter,
    ctr_unroutable: Counter,
    ctr_invalidations: Counter,
}

impl Transport {
    /// Creates a transport over a topology.
    pub fn new(graph: OverlayGraph) -> Self {
        Transport {
            graph,
            router: Router::new(),
            sent: 0,
            dropped: 0,
            route_timer: Timer::default(),
            hist_hops: Hist::default(),
            hist_hop_latency: Hist::default(),
            ctr_sent: Counter::default(),
            ctr_dropped: Counter::default(),
            ctr_unroutable: Counter::default(),
            ctr_invalidations: Counter::default(),
        }
    }

    /// Attaches observability: `acm.overlay.transport.route_ns` times every
    /// send's route lookup (tree hit and tree build alike),
    /// `…transport.hops` and `…transport.hop_latency_us` record the shape
    /// of each delivered route, `…transport.{sent,dropped,unroutable}`
    /// export the send counters (unroutable counts sends with no usable
    /// path — today the only way a transport-level send can drop), and
    /// `…transport.{tree_builds,invalidations}` count Dijkstra runs and
    /// wholesale cache drops — the cost of the era after a fault.
    pub fn set_obs(&mut self, obs: &ObsHandle) {
        self.route_timer = obs.timer("acm.overlay.transport.route_ns");
        self.hist_hops = obs.histogram("acm.overlay.transport.hops");
        self.hist_hop_latency = obs.histogram("acm.overlay.transport.hop_latency_us");
        self.ctr_sent = obs.counter("acm.overlay.transport.sent");
        self.ctr_dropped = obs.counter("acm.overlay.transport.dropped");
        self.ctr_unroutable = obs.counter("acm.overlay.transport.unroutable");
        self.ctr_invalidations = obs.counter("acm.overlay.transport.invalidations");
        self.router.tree_builds = obs.counter("acm.overlay.transport.tree_builds");
    }

    /// Read access to the topology.
    pub fn graph(&self) -> &OverlayGraph {
        &self.graph
    }

    /// Current smallest-latency delay between two controllers, or `None`
    /// when unreachable.
    pub fn latency(&mut self, from: NodeId, to: NodeId) -> Option<Duration> {
        self.router.latency(&self.graph, from, to)
    }

    /// The current shortest-path tree of `from`: for a caller about to ask
    /// one source for many destinations (see [`PathTree::latency`]).
    pub fn tree(&mut self, from: NodeId) -> &PathTree {
        self.router.tree(&self.graph, from)
    }

    fn invalidate(&mut self) {
        self.router.invalidate();
        self.ctr_invalidations.inc();
    }

    /// Fails a link and invalidates routes.
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) {
        self.graph.fail_link(a, b);
        self.invalidate();
    }

    /// Recovers a link and invalidates routes.
    pub fn recover_link(&mut self, a: NodeId, b: NodeId) {
        self.graph.recover_link(a, b);
        self.invalidate();
    }

    /// Fails a node and invalidates routes.
    pub fn fail_node(&mut self, n: NodeId) {
        self.graph.fail_node(n);
        self.invalidate();
    }

    /// Recovers a node and invalidates routes.
    pub fn recover_node(&mut self, n: NodeId) {
        self.graph.recover_node(n);
        self.invalidate();
    }

    /// Attempts a send: returns the delivery delay (and counts it sent), or
    /// `None` and counts a drop. The caller schedules the delivery — this
    /// keeps `Transport` usable both inside and outside a simulator world.
    pub fn prepare_send(&mut self, from: NodeId, to: NodeId) -> Option<Duration> {
        let span = self.route_timer.start();
        let found = self.router.tree(&self.graph, from).hops_back(to);
        drop(span);
        match found {
            Some((latency, links)) => {
                self.sent += 1;
                self.ctr_sent.inc();
                let mut hops = 0;
                for (a, b) in links {
                    hops += 1;
                    if let Some(d) = self.graph.link_latency(a, b) {
                        self.hist_hop_latency.record(d.as_micros());
                    }
                }
                self.hist_hops.record(hops);
                Some(latency)
            }
            None => {
                self.dropped += 1;
                self.ctr_dropped.inc();
                self.ctr_unroutable.inc();
                None
            }
        }
    }

    /// Messages successfully dispatched.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Messages dropped for unreachability.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acm_sim::event::EventQueue;
    use acm_sim::time::SimTime;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn transport() -> Transport {
        Transport::new(OverlayGraph::full_mesh(&[
            (n(0), n(1), ms(30)),
            (n(1), n(2), ms(20)),
            (n(0), n(2), ms(100)),
        ]))
    }

    #[test]
    fn delivers_after_route_latency() {
        let mut t = transport();
        let mut queue = EventQueue::new();
        let delay = t.prepare_send(n(0), n(2)).expect("routable");
        queue.schedule(SimTime::ZERO + delay, "delivered");
        // Best route 0-1-2 = 50ms.
        assert_eq!(queue.pop(), Some((SimTime::ZERO + ms(50), "delivered")));
        assert!(queue.is_empty());
        assert_eq!(t.sent(), 1);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn drops_to_unreachable_destination() {
        let mut t = transport();
        t.fail_node(n(1));
        t.fail_link(n(0), n(2));
        assert_eq!(t.prepare_send(n(0), n(2)), None, "nothing to deliver");
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn failure_changes_latency_and_recovery_restores_it() {
        let mut t = transport();
        assert_eq!(t.latency(n(0), n(2)), Some(ms(50)));
        t.fail_link(n(0), n(1));
        assert_eq!(t.latency(n(0), n(2)), Some(ms(100)));
        t.recover_link(n(0), n(1));
        assert_eq!(t.latency(n(0), n(2)), Some(ms(50)));
    }

    #[test]
    fn node_failure_and_recovery_round_trip() {
        let mut t = transport();
        t.fail_node(n(2));
        assert_eq!(t.latency(n(0), n(2)), None);
        t.recover_node(n(2));
        assert_eq!(t.latency(n(0), n(2)), Some(ms(50)));
    }

    #[test]
    fn self_send_is_immediate() {
        let mut t = transport();
        assert_eq!(t.prepare_send(n(1), n(1)), Some(Duration::ZERO));
    }

    #[test]
    fn transport_metrics_mirror_counters_and_record_route_shape() {
        let obs = acm_obs::Obs::new(acm_obs::ObsConfig::default());
        let mut t = transport();
        t.set_obs(&obs);
        // Best route 0-1-2: two hops of 30ms and 20ms.
        assert!(t.prepare_send(n(0), n(2)).is_some());
        t.fail_node(n(1));
        t.fail_link(n(0), n(2));
        assert!(t.prepare_send(n(0), n(2)).is_none());

        assert_eq!(obs.counter("acm.overlay.transport.sent").value(), t.sent());
        assert_eq!(
            obs.counter("acm.overlay.transport.dropped").value(),
            t.dropped()
        );
        assert_eq!(obs.counter("acm.overlay.transport.unroutable").value(), 1);
        let hops = obs.histogram("acm.overlay.transport.hops").snapshot();
        assert_eq!(hops.count, 1);
        let hop_lat = obs
            .histogram("acm.overlay.transport.hop_latency_us")
            .snapshot();
        assert_eq!(hop_lat.count, 2, "one sample per hop");
        let route_ns = obs.histogram("acm.overlay.transport.route_ns").snapshot();
        assert_eq!(route_ns.count, 2, "timed on hit and miss alike");
        // One tree per source per failure state: built for the first send,
        // dropped by each of the two failures, rebuilt for the second send.
        assert_eq!(obs.counter("acm.overlay.transport.tree_builds").value(), 2);
        assert_eq!(
            obs.counter("acm.overlay.transport.invalidations").value(),
            2
        );
    }

    #[test]
    fn all_pairs_cost_one_tree_per_source() {
        // The 200-region star the benchmark's mega world runs on.
        let n = 200u32;
        let mut g = OverlayGraph::new();
        for j in 1..n {
            g.add_link(NodeId(0), NodeId(j), ms(8 + (u64::from(j) * 7) % 40));
        }
        let mut t = Transport::new(g);
        for _era in 0..2 {
            for a in 0..n {
                for b in 0..n {
                    assert!(t.latency(NodeId(a), NodeId(b)).is_some());
                }
            }
            assert_eq!(t.router.cached_trees(), n as usize);
        }
        t.fail_link(NodeId(0), NodeId(n - 1));
        assert_eq!(t.router.cached_trees(), 0);
        assert_eq!(t.latency(NodeId(1), NodeId(n - 1)), None);
        assert_eq!(t.latency(NodeId(1), NodeId(2)), Some(ms(15) + ms(22)));
        assert_eq!(t.router.cached_trees(), 1);
    }
}
