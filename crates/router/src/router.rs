//! The allocation-free routing hot loop.
//!
//! A [`RequestRouter`] maps each arriving request to a region with
//! **weighted power-of-two-choices** over the planned flow fractions
//! `f_i`: two candidate regions are drawn from a prebuilt
//! [`WeightTable`] (alias sampling, O(1) each), then the
//! latency-scorer's prebuilt key decides which candidate serves the
//! request. Ties — including every tie while the scorer is neutral —
//! resolve to the *first* draw, so with no latency signal the realized
//! flow is exactly the table's marginal, i.e. converges to `f_i`.
//!
//! After warm-up the per-request path allocates nothing and touches no
//! atomics: two alias samples, two `f64` key reads, a handful of plain
//! `u64` counter bumps. Everything heap-shaped happens at **plan
//! install** time ([`RequestRouter::install`]), which rebuilds the
//! weight table in place, reusing its allocations.

use crate::latency::{LatencyAwareness, LatencyScorer};
use acm_sim::rng::SimRng;
use acm_sim::time::Duration;
use acm_sim::weights::WeightTable;

/// Plain (non-atomic) routing statistics, kept off any shared registry
/// so the hot loop never touches shared state.
#[derive(Debug, PartialEq, Eq)]
pub struct RouterStats {
    /// Requests routed.
    pub decisions: u64,
    /// Decisions where the two candidate draws differed.
    pub distinct_pairs: u64,
    /// Decisions where the latency score overrode the first draw.
    pub latency_overrides: u64,
    /// Weight-table installs (plan swaps) applied.
    pub replans: u64,
    /// Requests routed to each region.
    pub routed: Vec<u64>,
}

impl RouterStats {
    fn new(regions: usize) -> Self {
        RouterStats {
            decisions: 0,
            distinct_pairs: 0,
            latency_overrides: 0,
            replans: 0,
            routed: vec![0; regions],
        }
    }

    /// Realized flow fraction per region (`routed[i] / decisions`), the
    /// quantity the convergence gate compares against planned `f_i`.
    pub fn realized_fractions(&self) -> Vec<f64> {
        if self.decisions == 0 {
            return vec![0.0; self.routed.len()];
        }
        self.routed
            .iter()
            .map(|&n| n as f64 / self.decisions as f64)
            .collect()
    }
}

/// Weighted-P2C request router with latency-aware candidate scoring.
pub struct RequestRouter {
    regions: usize,
    table: WeightTable,
    /// Reused masked-weight staging for installs (no per-install alloc).
    scratch: Vec<f64>,
    scorer: LatencyScorer,
    rng: SimRng,
    stats: RouterStats,
}

impl RequestRouter {
    /// A router over `regions` regions starting from a uniform table
    /// (every region weight 1) and no latency measurements. `rng` must be
    /// a dedicated split stream — the router owns it.
    pub fn new(regions: usize, awareness: LatencyAwareness, rng: SimRng) -> Self {
        assert!(regions > 0, "router needs at least one region");
        let uniform = vec![1.0; regions];
        RequestRouter {
            regions,
            table: WeightTable::build(&uniform),
            scratch: Vec::with_capacity(regions),
            scorer: LatencyScorer::new(regions, awareness),
            rng,
            stats: RouterStats::new(regions),
        }
    }

    /// The live weight table's normalised shares (zeros preserved).
    pub fn shares(&self) -> &[f64] {
        self.table.shares()
    }

    /// Routing statistics since construction (or the last lens split).
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// The latency scorer (read side: eligibility/exclusion probes).
    pub fn scorer(&self) -> &LatencyScorer {
        &self.scorer
    }

    /// Installs a new plan: region weights are `fractions[i]`, masked to
    /// zero wherever `live` says the region is quarantined. The table is
    /// rebuilt in place; `&mut self` keeps every reader out until the
    /// rebuild is whole. Returns `false`
    /// (keeping the previous table) when no live region has positive
    /// weight *and* no region is live at all; if regions are live but all
    /// their planned fractions are zero, falls back to uniform-over-live
    /// so requests still drain somewhere sensible.
    pub fn install(&mut self, fractions: &[f64], live: Option<&[bool]>) -> bool {
        assert_eq!(fractions.len(), self.regions, "fraction vector length");
        if let Some(mask) = live {
            assert_eq!(mask.len(), self.regions, "live mask length");
        }
        self.scratch.clear();
        self.scratch.extend((0..self.regions).map(|i| {
            let alive = live.is_none_or(|m| m[i]);
            if alive {
                fractions[i].max(0.0)
            } else {
                0.0
            }
        }));
        if self.scratch.iter().all(|w| *w <= 0.0) {
            // All planned weight vanished. If anything is live, spread
            // uniformly over it; otherwise keep the previous table (the
            // control plane has bigger problems than routing bias).
            let mut any_live = false;
            for i in 0..self.regions {
                if live.is_none_or(|m| m[i]) {
                    self.scratch[i] = 1.0;
                    any_live = true;
                }
            }
            if !any_live {
                return false;
            }
        }
        self.table.rebuild(&self.scratch);
        self.stats.replans += 1;
        // Plan swaps change which regions matter; recompute the exclusion
        // cutoff so stale keys don't linger into the new plan.
        self.scorer.refresh();
        true
    }

    /// Routes one request: two weighted candidate draws, the lower
    /// latency key wins, ties (and the neutral scorer) keep the first
    /// draw. Allocation-free and branch-light — this is the hot loop.
    #[inline]
    pub fn route(&mut self) -> usize {
        let a = self.table.sample(&mut self.rng);
        let b = self.table.sample(&mut self.rng);
        self.stats.decisions += 1;
        let pick = if a == b {
            a
        } else {
            self.stats.distinct_pairs += 1;
            let keys = self.scorer.keys();
            if keys[b] < keys[a] {
                self.stats.latency_overrides += 1;
                b
            } else {
                a
            }
        };
        self.stats.routed[pick] += 1;
        pick
    }

    /// Feeds one completed-request latency back into the scorer.
    #[inline]
    pub fn record_latency(&mut self, region: usize, latency: Duration) {
        self.scorer.record_us(region, latency.as_micros() as f64);
    }

    /// Splits per-shard router lenses in shard-index order (the same
    /// discipline as `ChaosLayer::pre_split`): each lens gets its own
    /// child RNG stream, a copy of the live table, and fresh stats — so
    /// shards route concurrently yet byte-identically at any thread
    /// width. The parent keeps its stream untouched afterwards.
    pub fn pre_split(&mut self, shards: usize) -> Vec<RequestRouter> {
        (0..shards)
            .map(|_| RequestRouter {
                regions: self.regions,
                table: self.table.clone(),
                scratch: Vec::with_capacity(self.regions),
                scorer: self.scorer.clone(),
                rng: self.rng.split(),
                stats: RouterStats::new(self.regions),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(regions: usize, seed: u64) -> RequestRouter {
        RequestRouter::new(regions, LatencyAwareness::default(), SimRng::new(seed))
    }

    #[test]
    fn neutral_scorer_converges_to_installed_fractions() {
        let mut r = mk(3, 42);
        assert!(r.install(&[0.5, 0.2, 0.3], None));
        let n = 200_000;
        for _ in 0..n {
            r.route();
        }
        let got = r.stats().realized_fractions();
        for (i, want) in [0.5, 0.2, 0.3].iter().enumerate() {
            assert!(
                (got[i] - want).abs() < 0.01,
                "region {i}: {} vs {want}",
                got[i]
            );
        }
    }

    #[test]
    fn quarantined_region_gets_exactly_zero() {
        let mut r = mk(3, 7);
        assert!(r.install(&[0.5, 0.2, 0.3], Some(&[true, false, true])));
        for _ in 0..100_000 {
            let pick = r.route();
            assert_ne!(pick, 1, "quarantined region was routed a request");
        }
        assert_eq!(r.stats().routed[1], 0);
        // Live regions pick up the slack proportionally (0.5 : 0.3).
        let got = r.stats().realized_fractions();
        assert!((got[0] - 0.625).abs() < 0.01, "{got:?}");
    }

    #[test]
    fn latency_exclusion_shifts_flow_away_from_slow_region() {
        let mut r = mk(2, 11);
        assert!(r.install(&[0.5, 0.5], None));
        // Region 1 is 10x slower; with threshold 2.0 it gets excluded.
        for _ in 0..64 {
            r.record_latency(0, Duration::from_micros(100));
            r.record_latency(1, Duration::from_micros(1000));
        }
        r.scorer.refresh();
        assert!(r.scorer().excluded(1));
        let n = 50_000;
        let before = r.stats().routed[1];
        for _ in 0..n {
            r.route();
        }
        let to_slow = (r.stats().routed[1] - before) as f64 / n as f64;
        // P2C with one excluded region: slow region only wins when both
        // draws land on it (~0.25), vs 0.5 without scoring.
        assert!(to_slow < 0.30, "slow region still gets {to_slow}");
        assert!(r.stats().latency_overrides > 0);
    }

    #[test]
    fn install_falls_back_to_uniform_over_live() {
        let mut r = mk(3, 5);
        // Planned weight lives only on the quarantined region.
        assert!(r.install(&[1.0, 0.0, 0.0], Some(&[false, true, true])));
        for _ in 0..10_000 {
            assert_ne!(r.route(), 0);
        }
        let got = r.stats().realized_fractions();
        assert!((got[1] - 0.5).abs() < 0.02, "{got:?}");
    }

    #[test]
    fn install_with_nothing_live_keeps_previous_table() {
        let mut r = mk(2, 5);
        assert!(r.install(&[0.9, 0.1], None));
        let replans = r.stats().replans;
        assert!(!r.install(&[0.5, 0.5], Some(&[false, false])));
        assert_eq!(r.stats().replans, replans);
        assert!((r.shares()[0] - 0.9).abs() < 1e-12, "previous plan kept");
    }

    #[test]
    fn routing_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<usize> {
            let mut r = mk(4, seed);
            r.install(&[0.4, 0.3, 0.2, 0.1], None)
                .then_some(())
                .unwrap();
            (0..1000).map(|_| r.route()).collect()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds should diverge");
    }

    #[test]
    fn lenses_split_in_order_are_deterministic() {
        let mk_lenses = || {
            let mut parent = mk(3, 99);
            parent.install(&[0.6, 0.3, 0.1], None);
            parent.pre_split(4)
        };
        let picks = |lenses: &mut Vec<RequestRouter>| -> Vec<Vec<usize>> {
            lenses
                .iter_mut()
                .map(|l| (0..200).map(|_| l.route()).collect())
                .collect()
        };
        let mut a = mk_lenses();
        let mut b = mk_lenses();
        assert_eq!(picks(&mut a), picks(&mut b));
    }
}
