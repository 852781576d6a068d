//! Property-based tests for the overlay.

use acm_overlay::election::elect;
use acm_overlay::graph::{LinkId, NodeId, OverlayGraph};
use acm_overlay::routing::{dijkstra, Route, Router};
use acm_overlay::{ChaosLayer, FaultAction, FaultEvent, FaultPlan, Transport};
use acm_sim::rng::SimRng;
use acm_sim::time::{Duration, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, BinaryHeap};

/// The library's former routing kernel, kept as the oracle: one Dijkstra
/// per `(src, dst)` pair that stops as soon as `dst` is settled.
fn per_pair_dijkstra(g: &OverlayGraph, src: NodeId, dst: NodeId) -> Option<Route> {
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
    let mut heap: BinaryHeap<std::cmp::Reverse<(Duration, NodeId)>> = BinaryHeap::new();
    dist.insert(src, Duration::ZERO);
    heap.push(std::cmp::Reverse((Duration::ZERO, src)));
    while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
        if dist.get(&u).is_some_and(|best| *best < d) {
            continue;
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

/// Flips the failure state of random nodes and links of `g`.
fn shake_failures(g: &mut OverlayGraph, n: u32, rng: &mut SimRng, p: f64) {
    for i in 0..n {
        if rng.bernoulli(p) {
            if g.is_alive(NodeId(i)) {
                g.fail_node(NodeId(i));
            } else {
                g.recover_node(NodeId(i));
            }
        }
        for j in (i + 1)..n {
            if g.link_latency(NodeId(i), NodeId(j)).is_some() && rng.bernoulli(p) {
                if g.link_failed(NodeId(i), NodeId(j)) {
                    g.recover_link(NodeId(i), NodeId(j));
                } else {
                    g.fail_link(NodeId(i), NodeId(j));
                }
            }
        }
    }
}

/// Every ordered pair over ids `0..=n` (`n` itself is absent from the
/// graph), `src == dst` included: the oracle's answer on `g`.
fn all_pairs_oracle(g: &OverlayGraph, n: u32) -> Vec<Option<Route>> {
    (0..=n)
        .flat_map(|a| (0..=n).map(move |b| (a, b)))
        .map(|(a, b)| per_pair_dijkstra(g, NodeId(a), NodeId(b)))
        .collect()
}

/// The same sweep through a [`Router`]: `(route, latency)` per pair.
fn all_pairs_router(
    router: &mut Router,
    g: &OverlayGraph,
    n: u32,
) -> Vec<(Option<Route>, Option<Duration>)> {
    (0..=n)
        .flat_map(|a| (0..=n).map(move |b| (a, b)))
        .map(|(a, b)| {
            (
                router.route(g, NodeId(a), NodeId(b)),
                router.latency(g, NodeId(a), NodeId(b)),
            )
        })
        .collect()
}

/// Builds a random graph from a seed: `n` nodes, ring + random chords,
/// optional random failures.
fn random_graph(seed: u64, n: u32, fail_prob: f64) -> OverlayGraph {
    let mut rng = SimRng::new(seed);
    let mut g = OverlayGraph::new();
    for i in 0..n {
        g.add_node(NodeId(i));
    }
    for i in 0..n {
        g.add_link(
            NodeId(i),
            NodeId((i + 1) % n),
            Duration::from_millis(rng.index(50) as u64 + 1),
        );
    }
    for i in 0..n {
        for j in (i + 2)..n {
            if rng.bernoulli(0.3) {
                g.add_link(
                    NodeId(i),
                    NodeId(j),
                    Duration::from_millis(rng.index(80) as u64 + 1),
                );
            }
        }
    }
    for i in 0..n {
        if rng.bernoulli(fail_prob) {
            g.fail_node(NodeId(i));
        }
    }
    g
}

/// The schedule check `FaultPlan::validate` replaced, kept as the
/// oracle: its own open-window lists, matched the way `components()`
/// pairs them, with a kill's batch `⌈at / era⌉` (`era == 0`: its
/// instant). `true` when the schedule is well-formed.
fn schedule_is_well_formed(plan: &FaultPlan, era: Duration) -> bool {
    let mut schedule: Vec<&FaultEvent> = plan.events.iter().collect();
    schedule.sort_by_key(|ev| ev.at);
    let mut open_links: Vec<(LinkId, SimTime)> = Vec::new();
    let mut open_nodes: Vec<(NodeId, SimTime)> = Vec::new();
    let mut open_groups: Vec<Vec<NodeId>> = Vec::new();
    let batch = |at: SimTime| match era.as_micros() {
        0 => at.as_micros(),
        e => at.as_micros().div_ceil(e),
    };
    let mut last_kill: Option<u64> = None;
    for ev in schedule {
        match &ev.action {
            FaultAction::FailLink(a, b) => open_links.push((LinkId::new(*a, *b), ev.at)),
            FaultAction::RecoverLink(a, b) => {
                let id = LinkId::new(*a, *b);
                if let Some(i) = open_links.iter().position(|(l, _)| *l == id) {
                    if open_links.remove(i).1 == ev.at {
                        return false;
                    }
                }
            }
            FaultAction::CrashNode(n) => open_nodes.push((*n, ev.at)),
            FaultAction::RecoverNode(n) => {
                if let Some(i) = open_nodes.iter().position(|(m, _)| m == n) {
                    if open_nodes.remove(i).1 == ev.at {
                        return false;
                    }
                }
            }
            FaultAction::Partition(group) => {
                let mut key = group.clone();
                key.sort_unstable();
                open_groups.push(key);
            }
            FaultAction::Heal(group) => {
                let mut key = group.clone();
                key.sort_unstable();
                match open_groups.iter().position(|g| *g == key) {
                    Some(i) => {
                        open_groups.remove(i);
                    }
                    None => return false,
                }
            }
            FaultAction::KillLeader => {
                if last_kill == Some(batch(ev.at)) {
                    return false;
                }
                last_kill = Some(batch(ev.at));
            }
        }
    }
    true
}

/// A random in-bounds plan over four controllers: a `randomized` storm
/// plus random kills, partitions, heals, flaps and crashes on a coarse
/// grid of instants (so windows collapse, heals land before, at and after
/// their cuts, and kills share batches), then shuffled out of time order.
fn random_schedule(seed: u64) -> FaultPlan {
    const NODES: u32 = 4;
    let mut rng = SimRng::new(seed);
    let nodes: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let links: Vec<(NodeId, NodeId)> = (0..NODES)
        .flat_map(|a| ((a + 1)..NODES).map(move |b| (NodeId(a), NodeId(b))))
        .collect();
    // Grid step: 1µs makes every era a fine batch, 15s straddles 30s eras.
    let step = [1, 15_000_000][rng.index(2)];
    let horizon = SimTime::from_micros(8 * step.max(8));
    let mut plan = FaultPlan::randomized(rng.next_u64(), &nodes, &links, horizon, rng.f64());
    let at = |rng: &mut SimRng| SimTime::from_micros(rng.index(9) as u64 * step);
    let node = |rng: &mut SimRng| NodeId(rng.index(NODES as usize) as u32);
    for _ in 0..rng.index(8) {
        let action = match rng.index(7) {
            0 => FaultAction::KillLeader,
            1 | 2 => {
                let mut group: Vec<NodeId> = nodes
                    .iter()
                    .copied()
                    .filter(|_| rng.bernoulli(0.5))
                    .collect();
                if group.is_empty() {
                    group.push(node(&mut rng));
                }
                if rng.bernoulli(0.5) {
                    group.reverse();
                }
                if rng.bernoulli(0.5) {
                    FaultAction::Partition(group)
                } else {
                    FaultAction::Heal(group)
                }
            }
            3 => FaultAction::CrashNode(node(&mut rng)),
            4 => FaultAction::RecoverNode(node(&mut rng)),
            k => {
                let (a, b) = links[rng.index(links.len())];
                if k == 5 {
                    FaultAction::FailLink(a, b)
                } else {
                    FaultAction::RecoverLink(b, a)
                }
            }
        };
        let at = at(&mut rng);
        plan.events.push(FaultEvent { at, action });
    }
    // Zero-length windows at a grid instant.
    if rng.bernoulli(0.2) {
        let t = at(&mut rng);
        let (a, b) = links[rng.index(links.len())];
        plan = plan.link_flap(a, b, t, t);
    }
    if rng.bernoulli(0.2) {
        let t = at(&mut rng);
        plan = plan.crash_window(node(&mut rng), t, t);
    }
    rng.shuffle(&mut plan.events);
    plan
}

/// Eras the schedule check is exercised under: same-instant only, one
/// microsecond, and the paper's 30 s control era.
const ERAS: [Duration; 3] = [
    Duration::ZERO,
    Duration::from_micros(1),
    Duration::from_secs(30),
];

#[test]
fn schedule_oracle_sees_both_verdicts_under_every_era() {
    for era in ERAS {
        let ok = (0..400)
            .filter(|&seed| schedule_is_well_formed(&random_schedule(seed), era))
            .count();
        assert!(ok > 40 && ok < 360, "era {era:?}: {ok} of 400 well-formed");
    }
}

proptest! {
    #[test]
    fn router_trees_match_the_per_pair_search(
        seed in 0u64..1_000_000,
        n in 2u32..=24,
        density in 0.08f64..0.6,
    ) {
        // Link weights from {1, 2, 3} ms: equal-latency alternatives are
        // the norm, so any change of tie order shows up as another path.
        let mut rng = SimRng::new(seed);
        let mut g = OverlayGraph::new();
        for i in 0..n {
            g.add_node(NodeId(i));
            for j in (i + 1)..n {
                if rng.bernoulli(density) {
                    g.add_link(
                        NodeId(i),
                        NodeId(j),
                        Duration::from_millis(rng.index(3) as u64 + 1),
                    );
                }
            }
        }
        shake_failures(&mut g, n, &mut rng, 0.15);

        let mut router = Router::new();
        let check = |router: &mut Router, g: &OverlayGraph, want: &[Option<Route>]| {
            let got = all_pairs_router(router, g, n);
            for (i, ((route, latency), want)) in got.iter().zip(want).enumerate() {
                let pair = (i as u32 / (n + 1), i as u32 % (n + 1));
                prop_assert_eq!(route, want, "route {:?}", pair);
                prop_assert_eq!(*latency, want.as_ref().map(|r| r.latency), "latency {:?}", pair);
            }
            Ok(())
        };
        let before = all_pairs_oracle(&g, n);
        check(&mut router, &g, &before)?;
        prop_assert!(router.cached_trees() <= n as usize + 1);

        // New failure state: answers stay those of the old one until the
        // caller invalidates, then equal the oracle's on the new one.
        shake_failures(&mut g, n, &mut rng, 0.2);
        check(&mut router, &g, &before)?;
        router.invalidate();
        prop_assert_eq!(router.cached_trees(), 0);
        check(&mut router, &g, &all_pairs_oracle(&g, n))?;
    }

    #[test]
    fn routes_only_traverse_usable_links(
        seed in 0u64..2_000,
        n in 3u32..12,
    ) {
        let g = random_graph(seed, n, 0.2);
        for src in 0..n {
            for dst in 0..n {
                if let Some(route) = dijkstra(&g, NodeId(src), NodeId(dst)) {
                    for hop in route.path.windows(2) {
                        prop_assert!(
                            g.link_usable(hop[0], hop[1]),
                            "route uses dead link {:?}",
                            hop
                        );
                    }
                    // Path endpoints match the query.
                    prop_assert_eq!(route.path.first(), Some(&NodeId(src)));
                    prop_assert_eq!(route.path.last(), Some(&NodeId(dst)));
                }
            }
        }
    }

    #[test]
    fn route_latency_equals_sum_of_hops(
        seed in 0u64..2_000,
        n in 3u32..10,
    ) {
        let g = random_graph(seed, n, 0.0);
        let route = dijkstra(&g, NodeId(0), NodeId(n - 1)).expect("connected ring");
        let mut total = Duration::ZERO;
        for hop in route.path.windows(2) {
            let hop_latency = g
                .usable_neighbors(hop[0])
                .find(|(m, _)| *m == hop[1])
                .map(|(_, d)| d)
                .expect("hop is a usable link");
            total += hop_latency;
        }
        prop_assert_eq!(total, route.latency);
    }

    #[test]
    fn triangle_inequality_for_routes(
        seed in 0u64..1_000,
        n in 3u32..10,
    ) {
        // Best route a->c is never worse than routing a->b->c.
        let g = random_graph(seed, n, 0.0);
        let (a, b, c) = (NodeId(0), NodeId(n / 2), NodeId(n - 1));
        let ac = dijkstra(&g, a, c).expect("connected").latency;
        let ab = dijkstra(&g, a, b).expect("connected").latency;
        let bc = dijkstra(&g, b, c).expect("connected").latency;
        prop_assert!(ac <= ab + bc);
    }

    #[test]
    fn partition_heal_round_trip_restores_all_pair_latencies(
        seed in 0u64..1_000,
        n in 3u32..10,
        k in 1u32..4,
    ) {
        // A chaos-layer partition of an arbitrary node group, later
        // healed, must leave the transport exactly where it started:
        // every pair's best-route latency is restored.
        let k = k.min(n - 1);
        let mut t = Transport::new(random_graph(seed, n, 0.0));
        let before: Vec<Option<Duration>> = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .map(|(a, b)| t.latency(NodeId(a), NodeId(b)))
            .collect();
        let group: Vec<NodeId> = (0..k).map(NodeId).collect();
        let plan = FaultPlan::scripted(seed, Vec::new()).partition_window(
            group,
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        );
        let mut chaos = ChaosLayer::new(&plan);
        chaos.apply_due(SimTime::from_secs(10), &mut t, NodeId(0));
        // While partitioned, no route crosses the cut.
        for a in 0..k {
            for b in k..n {
                prop_assert_eq!(t.latency(NodeId(a), NodeId(b)), None);
            }
        }
        chaos.apply_due(SimTime::from_secs(20), &mut t, NodeId(0));
        prop_assert_eq!(chaos.open_partitions(), 0);
        let after: Vec<Option<Duration>> = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .map(|(a, b)| t.latency(NodeId(a), NodeId(b)))
            .collect();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn every_partition_elects_exactly_its_minimum(
        seed in 0u64..2_000,
        n in 2u32..12,
    ) {
        let g = random_graph(seed, n, 0.3);
        let outcome = elect(&g);
        // Every alive node has a leader that is alive, reachable and no
        // larger than itself... the minimum of its component.
        for node in g.alive_nodes() {
            let leader = outcome.leader(node).expect("alive node has a leader");
            prop_assert!(g.is_alive(leader));
            prop_assert!(leader <= node);
            // The leader is reachable from the node.
            prop_assert!(
                dijkstra(&g, node, leader).is_some(),
                "{node} cannot reach its leader {leader}"
            );
            // No alive node reachable from `node` is smaller than the leader.
            for other in g.alive_nodes() {
                if dijkstra(&g, node, other).is_some() {
                    prop_assert!(leader <= other, "{node}: {other} < leader {leader}");
                }
            }
        }
    }

    #[test]
    fn validate_agrees_with_the_schedule_oracle(seed in any::<u64>()) {
        let plan = random_schedule(seed);
        for era in ERAS {
            prop_assert_eq!(
                plan.validate(4, era).is_ok(),
                schedule_is_well_formed(&plan, era),
                "era {:?}: {:?}",
                era,
                plan
            );
        }
    }
}
