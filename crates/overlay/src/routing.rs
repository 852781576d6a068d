//! Smallest-latency routing with failure-aware rerouting.
//!
//! Dijkstra over the *usable* subgraph (failed nodes and links excluded).
//! [`Router`] caches computed routes and is invalidated wholesale whenever
//! the failure state changes. On the paper's topologies (a handful of
//! controllers) recomputation is trivially cheap and the cache only keeps
//! the hot control loop allocation-free. It does not stay cheap: every
//! uncached `(src, dst)` pair runs one full Dijkstra, so on a 200-node
//! star a pair costs ~16 µs and the era after an invalidation ~630 ms
//! (the control loop's client-observed-response pass asks for all n²
//! pairs), and every hit clones its `Route`. One shortest-path tree per
//! source fixes it (measured 4.4× on the benchmark's `mega-control`); it
//! is parked until that workload's `peak_rss_mb` is taken at a pinned era
//! count — see CHANGES.md, PR 13.

use crate::graph::{NodeId, OverlayGraph};
use acm_sim::time::Duration;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BinaryHeap};

/// A computed route.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

/// Route cache keyed on `(src, dst)`.
#[derive(Debug, Clone, Default)]
pub struct Router {
    cache: BTreeMap<(NodeId, NodeId), Option<Route>>,
}

impl Router {
    /// Creates an empty router.
    pub fn new() -> Self {
        Router::default()
    }

    /// Smallest-latency route between two alive nodes, or `None` when the
    /// destination is unreachable (partition, failed endpoint).
    pub fn route(&mut self, g: &OverlayGraph, src: NodeId, dst: NodeId) -> Option<Route> {
        if let Some(cached) = self.cache.get(&(src, dst)) {
            return cached.clone();
        }
        let route = dijkstra(g, src, dst);
        self.cache.insert((src, dst), route.clone());
        route
    }

    /// Latency of the best route, if any.
    pub fn latency(&mut self, g: &OverlayGraph, src: NodeId, dst: NodeId) -> Option<Duration> {
        self.route(g, src, dst).map(|r| r.latency)
    }

    /// Drops every cached route. Call after any failure/recovery event.
    pub fn invalidate(&mut self) {
        self.cache.clear();
    }

    /// Number of cached entries (diagnostics).
    pub fn cached_routes(&self) -> usize {
        self.cache.len()
    }
}

/// Plain Dijkstra on the usable subgraph.
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
    if !g.is_alive(src) || !g.is_alive(dst) {
        return None;
    }
    if src == dst {
        return Some(Route {
            path: vec![src],
            latency: Duration::ZERO,
        });
    }
    let mut dist: BTreeMap<NodeId, Duration> = BTreeMap::new();
    let mut prev: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    // Max-heap on Reverse ordering via tuple of (negated comparison): use
    // std::cmp::Reverse over (Duration, NodeId) for determinism on ties.
    let mut heap: BinaryHeap<std::cmp::Reverse<(Duration, NodeId)>> = BinaryHeap::new();
    dist.insert(src, Duration::ZERO);
    heap.push(std::cmp::Reverse((Duration::ZERO, src)));

    while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
        if dist.get(&u).is_some_and(|best| *best < d) {
            continue; // stale entry
        }
        if u == dst {
            break;
        }
        for (v, w) in g.usable_neighbors(u) {
            let nd = d + w;
            if dist.get(&v).is_none_or(|best| nd < *best) {
                dist.insert(v, nd);
                prev.insert(v, u);
                heap.push(std::cmp::Reverse((nd, v)));
            }
        }
    }

    let latency = *dist.get(&dst)?;
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = *prev.get(&cur).expect("reachable node has a predecessor");
        path.push(cur);
    }
    path.reverse();
    Some(Route { path, latency })
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
        assert_eq!(router.cached_routes(), 1);
        // Failure without invalidation: stale cache by design...
        g.fail_link(n(0), n(1));
        assert_eq!(router.route(&g, n(0), n(2)).unwrap().latency, ms(20));
        // ...until the caller invalidates.
        router.invalidate();
        assert_eq!(router.route(&g, n(0), n(2)).unwrap().latency, ms(50));
    }
}
