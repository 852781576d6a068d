//! The controller topology: an undirected graph weighted by link latency,
//! with dynamic node/link failure state.

use acm_sim::time::Duration;
use std::collections::BTreeMap;

/// Identifier of an overlay node (a VM controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vmc{}", self.0)
    }
}

/// Identifier of an undirected link, normalised so `a <= b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId {
    /// Lower endpoint.
    pub a: NodeId,
    /// Upper endpoint.
    pub b: NodeId,
}

impl LinkId {
    /// Creates a normalised link id. Panics on self-loops.
    pub fn new(x: NodeId, y: NodeId) -> Self {
        assert_ne!(x, y, "self-loop links are not allowed");
        if x <= y {
            LinkId { a: x, b: y }
        } else {
            LinkId { a: y, b: x }
        }
    }
}

/// A weighted undirected overlay topology with failure state.
///
/// Deterministic iteration everywhere (BTree storage): the control loop's
/// behaviour must not depend on hash ordering.
#[derive(Debug, Clone, Default)]
pub struct OverlayGraph {
    /// Adjacency: node → (neighbor → latency).
    adj: BTreeMap<NodeId, BTreeMap<NodeId, Duration>>,
    failed_nodes: Vec<NodeId>,
    failed_links: Vec<LinkId>,
}

impl OverlayGraph {
    /// Creates an empty topology.
    pub fn new() -> Self {
        OverlayGraph::default()
    }

    /// Adds a node (idempotent).
    pub fn add_node(&mut self, n: NodeId) {
        self.adj.entry(n).or_default();
    }

    /// Adds (or updates) an undirected link with the given latency. Both
    /// endpoints are created if absent.
    pub fn add_link(&mut self, x: NodeId, y: NodeId, latency: Duration) {
        assert_ne!(x, y, "self-loop links are not allowed");
        self.adj.entry(x).or_default().insert(y, latency);
        self.adj.entry(y).or_default().insert(x, latency);
    }

    /// All node ids in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.adj.keys().copied()
    }

    /// Number of nodes (including failed ones).
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// True if the node exists (failed or not).
    pub fn contains(&self, n: NodeId) -> bool {
        self.adj.contains_key(&n)
    }

    /// Marks a node as failed (its links stop carrying traffic).
    pub fn fail_node(&mut self, n: NodeId) {
        if !self.failed_nodes.contains(&n) {
            self.failed_nodes.push(n);
        }
    }

    /// Clears a node failure.
    pub fn recover_node(&mut self, n: NodeId) {
        self.failed_nodes.retain(|x| *x != n);
    }

    /// Marks a link as failed.
    pub fn fail_link(&mut self, x: NodeId, y: NodeId) {
        let id = LinkId::new(x, y);
        if !self.failed_links.contains(&id) {
            self.failed_links.push(id);
        }
    }

    /// Clears a link failure.
    pub fn recover_link(&mut self, x: NodeId, y: NodeId) {
        let id = LinkId::new(x, y);
        self.failed_links.retain(|l| *l != id);
    }

    /// True when the node exists and is not failed.
    pub fn is_alive(&self, n: NodeId) -> bool {
        self.contains(n) && !self.failed_nodes.contains(&n)
    }

    /// True when the link exists and neither it nor its endpoints are down.
    pub fn link_usable(&self, x: NodeId, y: NodeId) -> bool {
        self.is_alive(x)
            && self.is_alive(y)
            && self.adj.get(&x).is_some_and(|nbrs| nbrs.contains_key(&y))
            && !self.failed_links.contains(&LinkId::new(x, y))
    }

    /// Usable neighbors of `n` with link latencies, in ascending id order;
    /// none when `n` is absent or failed. Allocates nothing: `n` is looked
    /// up once, and each neighbour — present by construction — costs its
    /// liveness and the failed-link list.
    pub fn usable_neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, Duration)> + '_ {
        let nbrs = self.adj.get(&n).filter(|_| !self.failed_nodes.contains(&n));
        nbrs.into_iter()
            .flatten()
            .filter(move |(m, _)| {
                !self.failed_nodes.contains(m) && !self.failed_links.contains(&LinkId::new(n, **m))
            })
            .map(|(m, d)| (*m, *d))
    }

    /// All alive nodes, ascending.
    pub fn alive_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|n| self.is_alive(*n))
    }

    /// Raw latency of the direct link `x`–`y`, regardless of failure
    /// state, or `None` when no such link exists.
    pub fn link_latency(&self, x: NodeId, y: NodeId) -> Option<Duration> {
        self.adj.get(&x).and_then(|nbrs| nbrs.get(&y)).copied()
    }

    /// True when the link exists and is explicitly marked failed (endpoint
    /// failures do not count).
    pub fn link_failed(&self, x: NodeId, y: NodeId) -> bool {
        self.failed_links.contains(&LinkId::new(x, y))
    }

    /// Builds a fully-connected topology from per-node pairwise latencies —
    /// the common shape for a handful of geographically-distributed VMCs.
    pub fn full_mesh(latencies: &[(NodeId, NodeId, Duration)]) -> Self {
        let mut g = OverlayGraph::new();
        for (a, b, d) in latencies {
            g.add_link(*a, *b, *d);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn link_id_is_normalised() {
        assert_eq!(LinkId::new(n(3), n(1)), LinkId::new(n(1), n(3)));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let _ = LinkId::new(n(1), n(1));
    }

    #[test]
    fn add_link_creates_nodes_and_adjacency() {
        let mut g = OverlayGraph::new();
        g.add_link(n(0), n(1), ms(20));
        assert_eq!(g.node_count(), 2);
        assert!(g.link_usable(n(0), n(1)));
        assert!(g.link_usable(n(1), n(0)));
        assert_eq!(
            g.usable_neighbors(n(0)).collect::<Vec<_>>(),
            vec![(n(1), ms(20))]
        );
    }

    #[test]
    fn node_failure_disables_its_links() {
        let mut g = OverlayGraph::new();
        g.add_link(n(0), n(1), ms(10));
        g.add_link(n(1), n(2), ms(10));
        g.fail_node(n(1));
        assert!(!g.is_alive(n(1)));
        assert!(!g.link_usable(n(0), n(1)));
        assert_eq!(g.usable_neighbors(n(0)).count(), 0);
        assert_eq!(g.alive_nodes().collect::<Vec<_>>(), vec![n(0), n(2)]);
        g.recover_node(n(1));
        assert!(g.link_usable(n(0), n(1)));
    }

    #[test]
    fn link_failure_and_recovery() {
        let mut g = OverlayGraph::new();
        g.add_link(n(0), n(1), ms(10));
        g.fail_link(n(1), n(0)); // order-insensitive
        assert!(!g.link_usable(n(0), n(1)));
        assert!(g.is_alive(n(0)) && g.is_alive(n(1)));
        g.recover_link(n(0), n(1));
        assert!(g.link_usable(n(0), n(1)));
    }

    #[test]
    fn double_fail_is_idempotent() {
        let mut g = OverlayGraph::new();
        g.add_link(n(0), n(1), ms(10));
        g.fail_node(n(0));
        g.fail_node(n(0));
        g.recover_node(n(0));
        assert!(g.is_alive(n(0)));
    }

    #[test]
    fn full_mesh_builder() {
        let g = OverlayGraph::full_mesh(&[
            (n(0), n(1), ms(25)),
            (n(0), n(2), ms(40)),
            (n(1), n(2), ms(15)),
        ]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.usable_neighbors(n(2)).count(), 2);
    }

    #[test]
    fn nonexistent_node_queries_are_safe() {
        let g = OverlayGraph::new();
        assert!(!g.is_alive(n(9)));
        assert_eq!(g.usable_neighbors(n(9)).count(), 0);
        assert!(!g.link_usable(n(9), n(8)));
    }
}
