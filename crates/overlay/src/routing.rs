//! Smallest-latency routing with failure-aware rerouting.
//!
//! One Dijkstra, over the *usable* subgraph (failed nodes and links
//! excluded), and it always runs to completion: [`PathTree::build`] settles
//! every node reachable from one source and keeps, per node, its distance
//! and its predecessor on the best path. Everything else reads that tree —
//! [`PathTree::latency`] is a lookup, [`PathTree::route`] walks the
//! predecessors back to the source, and [`dijkstra`] is "build the tree
//! from `src`, read `dst`".
//!
//! [`Router`] keeps one tree per source, built on the first query from
//! that source and dropped wholesale by [`Router::invalidate`] whenever the
//! failure state changes. The control loop's client-observed-response pass
//! asks for all n² latencies of an n-region world every era; with trees
//! the era after a partition or a heal costs n Dijkstras (~13 ms at
//! n = 200, where n² early-exit searches cost ~630 ms) and every other era
//! n² lookups (~1 ms), and a latency query neither clones nor allocates.
//! Invalidation is deliberately not scoped to what a fault can reach:
//! rebuilding all n trees already sits inside the spread of a ~35 ms era,
//! so there is little left for scoping to save.
//!
//! Ties are broken the way the textbook early-exit search breaks them — a
//! node's predecessor changes only on a strictly smaller distance, and the
//! heap orders equal distances by node id — so paths, not just latencies,
//! equal the per-pair search's (`tests/properties.rs` keeps that search as
//! its oracle).

use crate::graph::{NodeId, OverlayGraph};
use acm_obs::Counter;
use acm_sim::time::Duration;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// A computed route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Node sequence, source first, destination last.
    pub path: Vec<NodeId>,
    /// Total end-to-end latency.
    pub latency: Duration,
}

impl Route {
    /// Number of hops (links) on the route.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// One settled node of a [`PathTree`].
#[derive(Debug, Clone, Copy)]
struct Settled {
    node: NodeId,
    /// Smallest latency from the source.
    latency: Duration,
    /// Position in the tree of the previous node on the best path (the
    /// source points at itself). `u32` like the ids it stands for.
    prev: u32,
}

/// The shortest-path tree of one source: every node reachable from it over
/// usable links, with its latency and its predecessor.
#[derive(Debug, Clone, Default)]
pub struct PathTree {
    /// Ascending node id, so a lookup is a binary search.
    settled: Vec<Settled>,
}

impl PathTree {
    /// Runs Dijkstra from `src` over the usable subgraph. A failed or
    /// absent source reaches nothing, not even itself.
    pub fn build(g: &OverlayGraph, src: NodeId) -> Self {
        if !g.is_alive(src) {
            return PathTree::default();
        }
        // node → (latency, predecessor)
        let mut best: BTreeMap<NodeId, (Duration, NodeId)> = BTreeMap::new();
        // Min-heap on (latency, node id): deterministic on ties.
        let mut heap: BinaryHeap<Reverse<(Duration, NodeId)>> = BinaryHeap::new();
        best.insert(src, (Duration::ZERO, src));
        heap.push(Reverse((Duration::ZERO, src)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if best.get(&u).is_some_and(|(b, _)| *b < d) {
                continue; // stale entry
            }
            for (v, w) in g.usable_neighbors(u) {
                let nd = d + w;
                if best.get(&v).is_none_or(|(b, _)| nd < *b) {
                    best.insert(v, (nd, u));
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        let nodes: Vec<NodeId> = best.keys().copied().collect();
        let settled = best
            .into_iter()
            .map(|(node, (latency, prev))| Settled {
                node,
                latency,
                prev: nodes
                    .binary_search(&prev)
                    .expect("predecessors are settled") as u32,
            })
            .collect();
        PathTree { settled }
    }

    fn position(&self, n: NodeId) -> Option<usize> {
        self.settled.binary_search_by_key(&n, |s| s.node).ok()
    }

    /// Smallest latency to `dst`, or `None` when it is unreachable.
    pub fn latency(&self, dst: NodeId) -> Option<Duration> {
        self.position(dst).map(|i| self.settled[i].latency)
    }

    /// The latency to `dst` and the links of the best path as `(from, to)`
    /// pairs, walked **backwards** (last hop first) without allocating;
    /// `None` when `dst` is unreachable, no links for the source itself.
    pub fn hops_back(
        &self,
        dst: NodeId,
    ) -> Option<(Duration, impl Iterator<Item = (NodeId, NodeId)> + '_)> {
        let mut at = self.position(dst)?;
        let hops = std::iter::from_fn(move || {
            let to = self.settled[at];
            if to.prev as usize == at {
                return None;
            }
            at = to.prev as usize;
            Some((self.settled[at].node, to.node))
        });
        Some((self.settled[at].latency, hops))
    }

    /// The best route to `dst`, or `None` when it is unreachable.
    pub fn route(&self, dst: NodeId) -> Option<Route> {
        let (latency, hops) = self.hops_back(dst)?;
        let mut path = vec![dst];
        path.extend(hops.map(|(from, _)| from));
        path.reverse();
        Some(Route { path, latency })
    }
}

/// Per-source cache of shortest-path trees.
#[derive(Debug, Clone, Default)]
pub struct Router {
    trees: BTreeMap<NodeId, PathTree>,
    /// Counts tree builds; inert until [`crate::Transport::set_obs`].
    pub(crate) tree_builds: Counter,
}

impl Router {
    /// Creates an empty router.
    pub fn new() -> Self {
        Router::default()
    }

    /// The tree of `src`, built on the first query since the last
    /// [`Router::invalidate`].
    pub fn tree(&mut self, g: &OverlayGraph, src: NodeId) -> &PathTree {
        self.trees.entry(src).or_insert_with(|| {
            self.tree_builds.inc();
            PathTree::build(g, src)
        })
    }

    /// Smallest-latency route between two alive nodes, or `None` when the
    /// destination is unreachable (partition, failed endpoint).
    pub fn route(&mut self, g: &OverlayGraph, src: NodeId, dst: NodeId) -> Option<Route> {
        self.tree(g, src).route(dst)
    }

    /// Latency of the best route, if any. Materialises no path.
    pub fn latency(&mut self, g: &OverlayGraph, src: NodeId, dst: NodeId) -> Option<Duration> {
        self.tree(g, src).latency(dst)
    }

    /// Drops every cached tree. Call after any failure/recovery event.
    pub fn invalidate(&mut self) {
        self.trees.clear();
    }

    /// Number of cached trees — at most one per source queried since the
    /// last invalidation (diagnostics).
    pub fn cached_trees(&self) -> usize {
        self.trees.len()
    }
}

/// Smallest-latency route from `src` to `dst` on the usable subgraph: the
/// `dst` entry of `src`'s [`PathTree`]. Callers with several destinations
/// per source should build the tree once (or go through a [`Router`]).
///
/// ```
/// use acm_overlay::graph::{NodeId, OverlayGraph};
/// use acm_overlay::routing::dijkstra;
/// use acm_sim::Duration;
/// let mut g = OverlayGraph::new();
/// g.add_link(NodeId(0), NodeId(1), Duration::from_millis(10));
/// g.add_link(NodeId(1), NodeId(2), Duration::from_millis(10));
/// g.add_link(NodeId(0), NodeId(2), Duration::from_millis(50));
/// let route = dijkstra(&g, NodeId(0), NodeId(2)).unwrap();
/// assert_eq!(route.path, vec![NodeId(0), NodeId(1), NodeId(2)]);
/// ```
pub fn dijkstra(g: &OverlayGraph, src: NodeId, dst: NodeId) -> Option<Route> {
    PathTree::build(g, src).route(dst)
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

    /// Triangle plus a pendant: 0-1 (10), 1-2 (10), 0-2 (50), 2-3 (5).
    fn diamond() -> OverlayGraph {
        let mut g = OverlayGraph::new();
        g.add_link(n(0), n(1), ms(10));
        g.add_link(n(1), n(2), ms(10));
        g.add_link(n(0), n(2), ms(50));
        g.add_link(n(2), n(3), ms(5));
        g
    }

    #[test]
    fn picks_the_smallest_latency_path() {
        let g = diamond();
        let r = dijkstra(&g, n(0), n(2)).unwrap();
        assert_eq!(r.path, vec![n(0), n(1), n(2)]);
        assert_eq!(r.latency, ms(20));
        assert_eq!(r.hops(), 2);
    }

    #[test]
    fn reroutes_around_a_failed_link() {
        let mut g = diamond();
        g.fail_link(n(0), n(1));
        let r = dijkstra(&g, n(0), n(2)).unwrap();
        assert_eq!(r.path, vec![n(0), n(2)]);
        assert_eq!(r.latency, ms(50));
    }

    #[test]
    fn reroutes_around_a_failed_node() {
        let mut g = diamond();
        g.fail_node(n(1));
        let r = dijkstra(&g, n(0), n(3)).unwrap();
        assert_eq!(r.path, vec![n(0), n(2), n(3)]);
        assert_eq!(r.latency, ms(55));
    }

    #[test]
    fn partition_is_unreachable() {
        let mut g = diamond();
        g.fail_node(n(1));
        g.fail_link(n(0), n(2));
        assert!(dijkstra(&g, n(0), n(3)).is_none());
        // But the other side of the partition still routes.
        assert!(dijkstra(&g, n(2), n(3)).is_some());
    }

    #[test]
    fn self_route_is_zero() {
        let g = diamond();
        let r = dijkstra(&g, n(2), n(2)).unwrap();
        assert_eq!(r.latency, Duration::ZERO);
        assert_eq!(r.hops(), 0);
    }

    #[test]
    fn dead_endpoints_yield_none() {
        let mut g = diamond();
        g.fail_node(n(0));
        assert!(dijkstra(&g, n(0), n(1)).is_none());
        assert!(dijkstra(&g, n(1), n(0)).is_none());
        assert!(dijkstra(&g, n(9), n(1)).is_none());
    }

    #[test]
    fn matches_bellman_ford_oracle_on_random_graphs() {
        use acm_sim::rng::SimRng;
        let mut rng = SimRng::new(99);
        for trial in 0..20 {
            // Random connected-ish graph on 8 nodes.
            let mut g = OverlayGraph::new();
            for i in 0..8 {
                g.add_node(n(i));
            }
            for i in 0..8u32 {
                for j in (i + 1)..8 {
                    if rng.bernoulli(0.45) {
                        g.add_link(n(i), n(j), ms(rng.index(100) as u64 + 1));
                    }
                }
            }
            // Bellman–Ford oracle from node 0.
            let nodes: Vec<NodeId> = g.nodes().collect();
            let mut dist: BTreeMap<NodeId, Option<Duration>> =
                nodes.iter().map(|&v| (v, None)).collect();
            dist.insert(n(0), Some(Duration::ZERO));
            for _ in 0..nodes.len() {
                for &u in &nodes {
                    let Some(du) = dist[&u] else { continue };
                    for (v, w) in g.usable_neighbors(u) {
                        let nd = du + w;
                        if dist[&v].is_none_or(|best| nd < best) {
                            dist.insert(v, Some(nd));
                        }
                    }
                }
            }
            for &v in &nodes {
                let got = dijkstra(&g, n(0), v).map(|r| r.latency);
                assert_eq!(got, dist[&v], "trial {trial} node {v}");
            }
        }
    }

    #[test]
    fn router_cache_and_invalidation() {
        let mut g = diamond();
        let mut router = Router::new();
        let r1 = router.route(&g, n(0), n(2)).unwrap();
        assert_eq!(r1.latency, ms(20));
        assert_eq!(router.cached_trees(), 1);
        // Failure without invalidation: stale cache by design...
        g.fail_link(n(0), n(1));
        assert_eq!(router.route(&g, n(0), n(2)).unwrap().latency, ms(20));
        // ...until the caller invalidates.
        router.invalidate();
        assert_eq!(router.route(&g, n(0), n(2)).unwrap().latency, ms(50));
    }
}
