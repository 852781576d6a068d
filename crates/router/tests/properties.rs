//! Property-based tests for the request-routing data plane.
//!
//! The load-bearing claims, fuzzed over random plans and seeds:
//!
//! * with a neutral scorer, realized flow converges to the planned
//!   fractions `f_i` — including through mid-run plan swaps and with
//!   quarantined (zero-weight) regions, which must receive exactly
//!   zero requests;
//! * the routed sharded plane (chaos + plan swaps + latency feedback)
//!   produces byte-identical per-shard digests at 1 and 4 threads.

use acm_router::{run_routed_plane, LatencyAwareness, PlanStep, RequestRouter, RoutedPlaneConfig};
use acm_sim::rng::SimRng;
use proptest::prelude::*;

/// Builds a normalisable plan from raw weights, quarantining by mask.
fn plan_of(raw: &[f64], dead: &[bool]) -> PlanStep {
    PlanStep {
        fractions: raw.to_vec(),
        live: dead.iter().map(|d| !d).collect(),
    }
}

proptest! {
    /// Neutral scorer + randomized plan (some regions quarantined):
    /// realized flow tracks the live-renormalised plan within 1 %, and
    /// quarantined regions receive exactly zero.
    #[test]
    fn realized_flow_converges_to_planned_fractions(
        seed in 0u64..200,
        raw in proptest::collection::vec(0.05f64..10.0, 2..12),
        dead_bits in 0u32..64,
    ) {
        let n = raw.len();
        let dead: Vec<bool> = (0..n).map(|i| (dead_bits >> i) & 1 == 1).collect();
        // Keep at least one region live with positive weight.
        let any_live = dead.iter().any(|d| !d);
        let dead = if any_live { dead } else { vec![false; n] };

        let mut r = RequestRouter::new(n, LatencyAwareness::default(), SimRng::new(seed));
        let step = plan_of(&raw, &dead);
        prop_assert!(r.install(&step.fractions, Some(&step.live)));

        let requests = 400_000u64;
        for _ in 0..requests {
            r.route();
        }

        let masked: Vec<f64> = raw
            .iter()
            .zip(&dead)
            .map(|(w, d)| if *d { 0.0 } else { *w })
            .collect();
        let total: f64 = masked.iter().sum();
        let got = r.stats().realized_fractions();
        for i in 0..n {
            let want = masked[i] / total;
            if dead[i] {
                prop_assert_eq!(
                    r.stats().routed[i], 0,
                    "quarantined region {} was routed", i
                );
            }
            prop_assert!(
                (got[i] - want).abs() < 0.01,
                "region {}: realized {} vs planned {}",
                i, got[i], want
            );
        }
    }

    /// Mid-run plan swaps: cumulative flow is the request-weighted blend
    /// of the plans in force, each within tolerance on its own segment.
    #[test]
    fn flow_tracks_each_plan_across_mid_run_swaps(
        seed in 0u64..100,
        raw_a in proptest::collection::vec(0.1f64..5.0, 4),
        raw_b in proptest::collection::vec(0.1f64..5.0, 4),
    ) {
        let mut r = RequestRouter::new(4, LatencyAwareness::default(), SimRng::new(seed));
        let norm = |raw: &[f64]| {
            let t: f64 = raw.iter().sum();
            raw.iter().map(|w| w / t).collect::<Vec<f64>>()
        };
        let requests = 300_000u64;

        prop_assert!(r.install(&raw_a, None));
        for _ in 0..requests {
            r.route();
        }
        let mid = r.stats().routed.clone();

        prop_assert!(r.install(&raw_b, None));
        for _ in 0..requests {
            r.route();
        }
        let end = r.stats().routed.clone();

        let want_a = norm(&raw_a);
        let want_b = norm(&raw_b);
        for i in 0..4 {
            let got_a = mid[i] as f64 / requests as f64;
            let got_b = (end[i] - mid[i]) as f64 / requests as f64;
            prop_assert!(
                (got_a - want_a[i]).abs() < 0.01,
                "segment A region {}: {} vs {}", i, got_a, want_a[i]
            );
            prop_assert!(
                (got_b - want_b[i]).abs() < 0.01,
                "segment B region {}: {} vs {}", i, got_b, want_b[i]
            );
        }
    }
}

/// The routed mega plane — chaos, a quarantining plan schedule and
/// latency feedback all on — replays byte-identically at 1 vs 4 threads.
#[test]
fn routed_mega_run_is_byte_identical_1_vs_4_threads() {
    let mut cfg = RoutedPlaneConfig::new(6, 4, 1 << 13, 3, 4242);
    cfg.plans = vec![
        PlanStep::all_live(vec![0.3, 0.25, 0.2, 0.1, 0.1, 0.05]),
        PlanStep {
            fractions: vec![0.3, 0.25, 0.2, 0.1, 0.1, 0.05],
            live: vec![true, true, true, true, false, true],
        },
    ];
    let before = acm_exec::current_threads();
    let run = |threads: usize| {
        acm_exec::configure_threads(threads);
        run_routed_plane(&cfg)
    };
    let one = run(1);
    let four = run(4);
    acm_exec::configure_threads(before);
    assert_eq!(
        one.digests, four.digests,
        "routed plane digests diverge across thread widths"
    );
    assert!(one.decisions() > 0, "plane routed nothing");
    assert!(one.arena_reuse > 0, "event-queue arenas never reused");
    assert_eq!(
        one.arena_reuse, four.arena_reuse,
        "arena reuse is part of the deterministic footprint"
    );
}

/// The benchmark's `routed-plane` shape, small: skewed weights, the same
/// with the last region quarantined, the reversed skew — one era each,
/// chaos and latency feedback on. The plane is otherwise only checked for
/// width identity; this pins its counts and an FNV-1a-64 over the
/// per-shard digests, so an edit to `acm-sim`, `acm-workload` or the
/// router that moves a single request shows up in tier-1.
#[test]
fn routed_plane_golden() {
    let n = 8;
    let mut cfg = RoutedPlaneConfig::new(n, 4, 1 << 12, 3, 11);
    let skew: Vec<f64> = (0..n).map(|i| (3 - (i % 3)) as f64).collect();
    let mut masked_live = vec![true; n];
    masked_live[n - 1] = false;
    cfg.plans = vec![
        PlanStep::all_live(skew.clone()),
        PlanStep {
            fractions: skew.clone(),
            live: masked_live,
        },
        PlanStep::all_live(skew.into_iter().rev().collect()),
    ];
    let out = run_routed_plane(&cfg);
    let words = out.digests.iter().flat_map(|d| {
        [d.accepted, d.dropped, d.completed, d.chaos_delay_us]
            .into_iter()
            .chain(d.routed.iter().copied())
    });
    let fnv = words
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(
        (out.executed, out.queue_pops, out.arrivals_streamed, fnv),
        (36_234, 17_919, 18_315, 0x15ea_2332_ff61_1bdf),
        "routed plane changed behaviour"
    );
}
