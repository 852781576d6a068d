//! The routed data plane: open-loop arrivals × per-shard router lenses.
//!
//! [`run_routed_plane`] steps one discrete-event [`Simulator`] per shard,
//! in which every arriving request is individually routed to a region by a
//! per-shard [`RequestRouter`] lens, passed through a per-shard
//! [`ChaosLayer`] lens, serviced with a region-dependent latency, and —
//! when feedback is on — its completion latency folded back into the
//! shard's latency scorer. Each era the shards advance concurrently on the
//! `acm-exec` pool ([`acm_exec::for_each_mut`]); plan swaps happen at the
//! era barriers, applied to every lens in shard-index order.
//!
//! The harness exists once so the repo benchmark's `routed-plane`
//! workload and the byte-identity tests all exercise the *same* plane:
//! per-shard outcome digests (including per-region routed counts) must be
//! identical at any `ACM_THREADS`, because every source of randomness —
//! arrivals, chaos, routing, service times — is a pre-split stream and
//! every barrier merge runs in shard-index order.

use crate::latency::LatencyAwareness;
use crate::router::RequestRouter;
use acm_overlay::{ChaosLayer, FaultPlan, MessageFate, NodeId};
use acm_sim::rng::SimRng;
use acm_sim::sim::{Event, Simulator};
use acm_sim::time::{Duration, SimTime};
use acm_workload::{OpenLoopArrivals, RateProfile, THINK_TIME_MEAN_S};
use std::time::Instant;

/// One plan the plane installs at an era barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// Planned flow fraction per region.
    pub fractions: Vec<f64>,
    /// Liveness mask; quarantined (`false`) regions get zero weight.
    pub live: Vec<bool>,
}

impl PlanStep {
    /// A plan with every region live.
    pub fn all_live(fractions: Vec<f64>) -> Self {
        let live = vec![true; fractions.len()];
        PlanStep { fractions, live }
    }
}

/// Scale and behaviour knobs of the routed plane.
#[derive(Debug, Clone)]
pub struct RoutedPlaneConfig {
    /// Regions routed over.
    pub regions: usize,
    /// Shards (and router/chaos lenses). Fixed by config, not threads.
    pub shards: usize,
    /// Emulated browser population (sets the open-loop arrival rate).
    pub browsers: u64,
    /// Era count.
    pub eras: u64,
    /// Era length, seconds.
    pub era_s: u64,
    /// Master seed of every pre-split stream.
    pub seed: u64,
    /// Latency-scorer knobs for the router lenses.
    pub awareness: LatencyAwareness,
    /// Message chaos (2 % drop, up to 5 ms extra delay) on/off.
    pub chaos: bool,
    /// Feed completion latencies back into the router lenses.
    pub latency_feedback: bool,
    /// Plans installed at era barriers, cycled (`plans[era % len]`).
    /// Empty keeps the initial uniform table for the whole run.
    pub plans: Vec<PlanStep>,
    /// Service rate per region, completions per second (length
    /// `regions`): region `r`'s service times are exponential with mean
    /// `1 / service_rate[r]` seconds. Distinct rates give the latency
    /// scorer real signal.
    pub service_rate: Vec<f64>,
}

impl RoutedPlaneConfig {
    /// A plane with the defaults the benches use: chaos and latency
    /// feedback on, region `r` serving `1 + r/2` completions per second
    /// (mean service time `1 / (1 + r/2)` seconds), no plan schedule
    /// (callers push [`PlanStep`]s as needed).
    pub fn new(regions: usize, shards: usize, browsers: u64, eras: u64, seed: u64) -> Self {
        RoutedPlaneConfig {
            regions,
            shards,
            browsers,
            eras,
            era_s: 10,
            seed,
            awareness: LatencyAwareness::default(),
            chaos: true,
            latency_feedback: true,
            plans: Vec::new(),
            service_rate: (0..regions).map(|r| 1.0 + r as f64 * 0.5).collect(),
        }
    }
}

/// One shard's width-independence digest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardDigest {
    /// Requests that arrived on this shard.
    pub accepted: u64,
    /// Requests the chaos lens dropped.
    pub dropped: u64,
    /// Requests that completed service.
    pub completed: u64,
    /// Total extra delay the chaos lens injected, microseconds.
    pub chaos_delay_us: u64,
    /// Requests routed to each region by this shard's lens.
    pub routed: Vec<u64>,
}

/// Aggregate outcome of one plane run.
#[derive(Debug, Clone)]
pub struct PlaneOutcome {
    /// Simulator events executed across all shards.
    pub executed: u64,
    /// Wall-clock of the sharded run, seconds.
    pub wall_s: f64,
    /// Event-queue arena slots recycled across eras (all shards).
    pub arena_reuse: u64,
    /// Events popped off the shards' queues — the completions.
    pub queue_pops: u64,
    /// Arrivals streamed past the queues; `queue_pops + arrivals_streamed
    /// == executed`.
    pub arrivals_streamed: u64,
    /// Deepest any shard's event queue got (live events). The queues hold
    /// in-flight requests only, never a whole era's window.
    pub peak_pending: usize,
    /// Per-shard digests in shard-index order — byte-compare these
    /// across thread widths.
    pub digests: Vec<ShardDigest>,
}

impl PlaneOutcome {
    /// Routing decisions summed over shards.
    pub fn decisions(&self) -> u64 {
        self.digests.iter().map(|d| d.accepted).sum()
    }

    /// Per-region routed totals summed over shards.
    pub fn routed_totals(&self) -> Vec<u64> {
        let regions = self.digests.first().map_or(0, |d| d.routed.len());
        let mut out = vec![0u64; regions];
        for d in &self.digests {
            for (t, n) in out.iter_mut().zip(&d.routed) {
                *t += n;
            }
        }
        out
    }

    /// Realized flow fraction per region over the whole run.
    pub fn realized_fractions(&self) -> Vec<f64> {
        let total = self.decisions();
        self.routed_totals()
            .iter()
            .map(|&n| n as f64 / total.max(1) as f64)
            .collect()
    }
}

/// One shard's slice of the plane.
struct PlaneWorld {
    arrivals: OpenLoopArrivals,
    chaos: ChaosLayer,
    router: RequestRouter,
    service: SimRng,
    service_rate: Vec<f64>,
    latency_feedback: bool,
    buf: Vec<SimTime>,
    /// The shard's counts; `routed` is read off the router at the end.
    digest: ShardDigest,
}

/// A request finishing service: the plane's one queued event, plain data.
#[derive(Debug, Clone, Copy)]
struct Completion {
    region: usize,
    latency: Duration,
}

impl Event<PlaneWorld> for Completion {
    #[inline]
    fn fire(self, s: &mut Simulator<PlaneWorld, Completion>) {
        s.world.digest.completed += 1;
        if s.world.latency_feedback {
            s.world.router.record_latency(self.region, self.latency);
        }
    }
}

/// Runs the routed plane once on the current `acm-exec` pool width.
///
/// Panics unless there is at least one shard, one-second eras and one
/// service rate per region.
pub fn run_routed_plane(cfg: &RoutedPlaneConfig) -> PlaneOutcome {
    assert!(cfg.shards >= 1, "the routed plane needs at least one shard");
    assert!(
        cfg.era_s >= 1,
        "a routed-plane era lasts at least one second"
    );
    assert_eq!(
        cfg.service_rate.len(),
        cfg.regions,
        "one service rate per region"
    );
    // Closed-loop equivalence: browsers / think-time arrivals per second,
    // split evenly over the shards as a flash-crowd profile.
    let rate = cfg.browsers as f64 / THINK_TIME_MEAN_S / cfg.shards as f64;
    let profile = RateProfile::Burst {
        base: rate * 0.7,
        peak: rate * 1.7,
        period: Duration::from_secs(7),
        burst_len: Duration::from_secs(2),
    };
    let mut rng = SimRng::new(cfg.seed);
    let arrivals = OpenLoopArrivals::pre_split(&profile, cfg.shards, &mut rng);
    let plan = if cfg.chaos {
        FaultPlan::scripted(13, Vec::new()).with_message_chaos(0.02, Duration::from_millis(5))
    } else {
        FaultPlan::scripted(13, Vec::new())
    };
    let chaos_lenses = ChaosLayer::new(&plan).pre_split(cfg.shards);
    let router_lenses =
        RequestRouter::new(cfg.regions, cfg.awareness, rng.split()).pre_split(cfg.shards);
    let services: Vec<SimRng> = (0..cfg.shards).map(|_| rng.split()).collect();

    let mut shards: Vec<Simulator<PlaneWorld, Completion>> = arrivals
        .into_iter()
        .zip(chaos_lenses)
        .zip(router_lenses)
        .zip(services)
        .map(|(((arrivals, chaos), router), service)| {
            Simulator::new(PlaneWorld {
                arrivals,
                chaos,
                router,
                service,
                service_rate: cfg.service_rate.clone(),
                latency_feedback: cfg.latency_feedback,
                buf: Vec::new(),
                digest: ShardDigest::default(),
            })
        })
        .collect();

    let start = Instant::now();
    for era in 0..cfg.eras {
        // Barrier phase: install this era's plan on every lens in
        // shard-index order (the same table everywhere).
        if !cfg.plans.is_empty() {
            let step = &cfg.plans[(era as usize) % cfg.plans.len()];
            for sim in &mut shards {
                sim.world.router.install(&step.fractions, Some(&step.live));
            }
        }
        let era_start = SimTime::from_secs(era * cfg.era_s);
        let era_end = SimTime::from_secs((era + 1) * cfg.era_s);
        acm_exec::for_each_mut(&mut shards, |index, sim| {
            let from = NodeId(index as u32);
            let mut buf = std::mem::take(&mut sim.world.buf);
            sim.world.arrivals.fill_window(era_start, era_end, &mut buf);
            // The window is already sorted: it is merged with the
            // queue, which then holds in-flight completions only.
            sim.run_until_with_arrivals(&buf, era_end, |s| {
                s.world.digest.accepted += 1;
                // The per-request path: this request — not a bulk
                // era-grain share — picks its region right now.
                let region = s.world.router.route();
                let to = NodeId(1_000_000 + region as u32);
                match s.world.chaos.message_fate(s.now(), from, to) {
                    MessageFate::Drop => s.world.digest.dropped += 1,
                    MessageFate::Deliver { extra_delay } => {
                        s.world.digest.chaos_delay_us += extra_delay.as_micros();
                        let rate = s.world.service_rate[region];
                        let svc = Duration::from_secs_f64(s.world.service.exponential(1.0 / rate));
                        let latency = svc + extra_delay;
                        s.schedule_at(s.now() + latency, Completion { region, latency });
                    }
                }
            });
            sim.world.buf = buf;
        });
    }
    // Drain stragglers (completions scheduled past the last era end).
    let horizon = SimTime::from_secs(cfg.eras * cfg.era_s) + Duration::from_secs(60);
    acm_exec::for_each_mut(&mut shards, |_, sim| sim.run_until(horizon));
    let wall_s = start.elapsed().as_secs_f64();

    PlaneOutcome {
        executed: shards.iter().map(Simulator::executed).sum(),
        wall_s,
        arena_reuse: shards.iter().map(Simulator::reused_slots).sum(),
        queue_pops: shards.iter().map(Simulator::popped).sum(),
        arrivals_streamed: shards.iter().map(Simulator::streamed).sum(),
        peak_pending: shards
            .iter()
            .map(Simulator::peak_pending)
            .max()
            .unwrap_or(0),
        digests: shards
            .into_iter()
            .map(|sim| ShardDigest {
                routed: sim.world.router.stats().routed.clone(),
                ..sim.world.digest
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> RoutedPlaneConfig {
        let mut cfg = RoutedPlaneConfig::new(4, 4, 1 << 12, 2, 2026);
        cfg.plans = vec![
            PlanStep::all_live(vec![0.4, 0.3, 0.2, 0.1]),
            PlanStep {
                fractions: vec![0.4, 0.3, 0.2, 0.1],
                live: vec![true, true, false, true],
            },
        ];
        cfg
    }

    #[test]
    fn routed_plane_is_byte_identical_across_widths() {
        let cfg = small_cfg();
        let before = acm_exec::current_threads();
        let run = |threads: usize| {
            acm_exec::configure_threads(threads);
            run_routed_plane(&cfg)
        };
        let one = run(1);
        let four = run(4);
        acm_exec::configure_threads(before);
        assert_eq!(one.digests, four.digests, "plane depends on thread width");
        assert!(one.decisions() > 0);
    }

    #[test]
    fn queues_hold_in_flight_requests_not_the_era_window() {
        let cfg = small_cfg();
        let out = run_routed_plane(&cfg);
        let shard_era = out.decisions() / (cfg.eras * cfg.shards as u64);
        assert!(
            (out.peak_pending as u64) * 2 < shard_era,
            "queue depth {} against {shard_era} arrivals per shard-era",
            out.peak_pending
        );
    }

    #[test]
    fn executed_reconciles_with_pops_and_streamed_arrivals() {
        let out = run_routed_plane(&small_cfg());
        let completed: u64 = out.digests.iter().map(|d| d.completed).sum();
        assert_eq!(out.arrivals_streamed, out.decisions());
        assert_eq!(out.queue_pops, completed);
        assert_eq!(out.queue_pops + out.arrivals_streamed, out.executed);
    }

    #[test]
    #[should_panic(expected = "the routed plane needs at least one shard")]
    fn zero_shards_panics() {
        let mut cfg = small_cfg();
        cfg.shards = 0;
        run_routed_plane(&cfg);
    }

    #[test]
    #[should_panic(expected = "a routed-plane era lasts at least one second")]
    fn zero_second_eras_panic() {
        let mut cfg = small_cfg();
        cfg.era_s = 0;
        run_routed_plane(&cfg);
    }

    #[test]
    fn quarantined_region_receives_zero_flow_while_out() {
        let mut cfg = RoutedPlaneConfig::new(3, 2, 1 << 12, 2, 7);
        cfg.plans = vec![PlanStep {
            fractions: vec![0.5, 0.3, 0.2],
            live: vec![true, false, true],
        }];
        let out = run_routed_plane(&cfg);
        assert_eq!(out.routed_totals()[1], 0, "quarantined region was routed");
        assert!(out.decisions() > 0);
    }

    #[test]
    fn neutral_plane_converges_to_planned_fractions() {
        let mut cfg = RoutedPlaneConfig::new(3, 4, 1 << 15, 3, 11);
        cfg.latency_feedback = false; // neutral scorer: exact f_i marginal
        cfg.chaos = false;
        cfg.plans = vec![PlanStep::all_live(vec![0.5, 0.3, 0.2])];
        let out = run_routed_plane(&cfg);
        let got = out.realized_fractions();
        for (i, want) in [0.5, 0.3, 0.2].iter().enumerate() {
            assert!(
                (got[i] - want).abs() < 0.02,
                "region {i}: {} vs {want} over {} decisions",
                got[i],
                out.decisions()
            );
        }
    }
}
