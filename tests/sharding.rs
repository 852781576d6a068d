//! Integration: era-synchronized parallel execution is invisible to the
//! results. A randomized world — regions x faults x arrivals — must
//! produce byte-identical telemetry and decision logs at any
//! `ACM_THREADS`, and the open-loop data plane must reach the same
//! per-shard outcomes at every width.

use acm::core::config::{ExperimentConfig, PredictorChoice, RegionSpec};
use acm::core::policy::PolicyKind;
use acm::core::DegradationConfig;
use acm::obs::{Obs, ObsConfig};
use acm::overlay::{ChaosLayer, FaultPlan, MessageFate, NodeId};
use acm::sim::rng::SimRng;
use acm::sim::{Duration, Event, SimTime, Simulator};
use acm::workload::{ClientSchedule, OpenLoopArrivals, RateProfile};
use proptest::prelude::*;
use proptest::TestCaseError;

/// A randomized deployment: 2-5 regions cycling the paper flavors with
/// seed-derived client schedules, a full-mesh overlay, a randomized fault
/// plan with message chaos, and degradation enabled. `scale` multiplies
/// every pool and client population: at 1 the world is paper-sized and
/// MONITOR runs inline, at 8 every such world is past the fan-out
/// threshold (>= 144 VMs) and MONITOR really maps on the pool.
fn randomized_config(seed: u64, scale: u32) -> ExperimentConfig {
    let mut gen = SimRng::new(seed ^ 0x5eed_5eed);
    let n = 2 + gen.index(4);
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 7000 + seed);
    cfg.name = format!("shard-prop-{seed}");
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = 6;
    cfg.regions = (0..n)
        .map(|i| {
            let mut region = match i % 3 {
                0 => ExperimentConfig::region1_ireland(),
                1 => ExperimentConfig::region2_frankfurt(),
                _ => ExperimentConfig::region3_munich(),
            };
            region.name = format!("r{i}-{}", region.name);
            region.total_vms *= scale as usize;
            region.target_active *= scale as usize;
            let base = 64 + gen.index(449) as u32;
            let clients = match gen.index(3) {
                0 => ClientSchedule::Constant(base * scale),
                1 => ClientSchedule::Step {
                    before: base * scale,
                    after: (64 + gen.index(449) as u32) * scale,
                    at: SimTime::from_secs(90),
                },
                _ => ClientSchedule::Diurnal {
                    base: base * scale,
                    amplitude: gen.index(base as usize) as u32 * scale,
                    period: Duration::from_secs(120),
                },
            };
            RegionSpec { region, clients }
        })
        .collect();
    let mut latencies = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            latencies.push((a, b, Duration::from_millis(5 + gen.index(40) as u64)));
        }
    }
    cfg.latencies = latencies;
    let nodes: Vec<NodeId> = (0..n).map(ExperimentConfig::node_of).collect();
    let links: Vec<(NodeId, NodeId)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (NodeId(a as u32), NodeId(b as u32))))
        .collect();
    cfg.fault_plan = Some(
        FaultPlan::randomized(seed, &nodes, &links, SimTime::from_secs(180), 1.0)
            .with_message_chaos(0.08, Duration::from_millis(20)),
    );
    cfg.degradation = DegradationConfig::enabled();
    cfg
}

/// Runs the world at pool widths 1 / 2 / 4 and checks telemetry CSV and
/// decision log for byte identity.
fn assert_width_identity(cfg: &ExperimentConfig) -> Result<(), TestCaseError> {
    let run = || {
        let obs = Obs::new(ObsConfig::default());
        let tel = acm::core::framework::run_experiment_with_obs(cfg, obs.clone());
        (tel.to_csv(), obs.events_jsonl())
    };
    let before = acm::exec::current_threads();
    acm::exec::configure_threads(1);
    let one = run();
    acm::exec::configure_threads(2);
    let two = run();
    acm::exec::configure_threads(4);
    let four = run();
    acm::exec::configure_threads(before);
    prop_assert_eq!(&one.0, &two.0, "telemetry diverged at 2 threads");
    prop_assert_eq!(&one.1, &two.1, "decision log diverged at 2 threads");
    prop_assert_eq!(&one.0, &four.0, "telemetry diverged at 4 threads");
    prop_assert_eq!(&one.1, &four.1, "decision log diverged at 4 threads");
    prop_assert!(!one.1.is_empty(), "the run logged no decisions");
    Ok(())
}

proptest! {
    /// A randomized paper-sized world (regions x faults x arrivals) runs
    /// byte-identically — telemetry CSV and decision log, chaos plans
    /// included — at `ACM_THREADS` in {1, 2, 4}. Worlds this small (<= 40
    /// VMs) run MONITOR inline on the leader.
    #[test]
    fn randomized_worlds_shard_byte_identically_across_widths(seed in 0u64..16) {
        assert_width_identity(&randomized_config(seed, 1))?;
    }

    /// The same worlds scaled past the fan-out threshold (>= 144 VMs):
    /// MONITOR maps its regions on the exec pool, and must still be
    /// width-independent.
    #[test]
    fn scaled_worlds_shard_byte_identically_across_widths(seed in 0u64..16) {
        assert_width_identity(&randomized_config(seed, 8))?;
    }
}

/// Per-shard outcome digest of a small open-loop data plane: arrivals
/// from pre-split streams, fates from pre-split chaos lenses, service
/// times from per-shard RNGs.
fn data_plane_digest(shards: usize) -> Vec<(u64, u64, u64)> {
    struct World {
        arrivals: OpenLoopArrivals,
        chaos: ChaosLayer,
        service: SimRng,
        accepted: u64,
        dropped: u64,
        completed: u64,
    }
    /// A request finishing service.
    struct Completion;
    impl Event<World> for Completion {
        fn fire(self, s: &mut Simulator<World, Completion>) {
            s.world.completed += 1;
        }
    }
    let profile = RateProfile::Burst {
        base: 40.0,
        peak: 120.0,
        period: Duration::from_secs(5),
        burst_len: Duration::from_secs(1),
    };
    let mut rng = SimRng::new(4242);
    let arrivals = OpenLoopArrivals::pre_split(&profile, shards, &mut rng);
    let plan =
        FaultPlan::scripted(9, Vec::new()).with_message_chaos(0.05, Duration::from_millis(10));
    let lenses = ChaosLayer::new(&plan).pre_split(shards);
    let services: Vec<SimRng> = (0..shards).map(|_| rng.split()).collect();
    let mut sims: Vec<Simulator<World, Completion>> = arrivals
        .into_iter()
        .zip(lenses)
        .zip(services)
        .map(|((arrivals, chaos), service)| {
            Simulator::new(World {
                arrivals,
                chaos,
                service,
                accepted: 0,
                dropped: 0,
                completed: 0,
            })
        })
        .collect();
    for era in 0..4u64 {
        let era_start = SimTime::from_secs(era * 10);
        let era_end = SimTime::from_secs((era + 1) * 10);
        acm::exec::for_each_mut(&mut sims, |index, sim| {
            let from = NodeId(index as u32);
            let to = NodeId(index as u32 + 1000);
            let mut buf = Vec::new();
            sim.world.arrivals.fill_window(era_start, era_end, &mut buf);
            sim.run_until_with_arrivals(&buf, era_end, |s| {
                s.world.accepted += 1;
                match s.world.chaos.message_fate(s.now(), from, to) {
                    MessageFate::Drop => s.world.dropped += 1,
                    MessageFate::Deliver { extra_delay } => {
                        let svc = Duration::from_secs_f64(s.world.service.exponential(0.3));
                        s.schedule_at(s.now() + svc + extra_delay, Completion);
                    }
                }
            });
        });
    }
    sims.iter()
        .map(|s| (s.world.accepted, s.world.dropped, s.world.completed))
        .collect()
}

#[test]
fn open_loop_data_plane_is_width_independent() {
    let before = acm::exec::current_threads();
    acm::exec::configure_threads(1);
    let one = data_plane_digest(6);
    acm::exec::configure_threads(2);
    let two = data_plane_digest(6);
    acm::exec::configure_threads(4);
    let four = data_plane_digest(6);
    acm::exec::configure_threads(before);
    assert!(one.iter().any(|d| d.0 > 0), "arrivals must actually flow");
    assert_eq!(one, two, "data plane diverged at 2 threads");
    assert_eq!(one, four, "data plane diverged at 4 threads");
}
