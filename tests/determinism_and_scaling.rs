//! Integration: reproducibility guarantees and autoscaling behaviour.

mod common;

use acm::core::autoscale::AutoscaleConfig;
use acm::core::config::{ExperimentConfig, PredictorChoice};
use acm::core::framework::run_experiment;
use acm::core::policy::PolicyKind;
use acm::sim::SimTime;
use acm::workload::ClientSchedule;
use std::sync::Mutex;

/// Held by every test here that resizes the global exec pool: tests run
/// on parallel threads and would otherwise see each other's widths.
static POOL_WIDTH: Mutex<()> = Mutex::new(());

#[test]
fn full_pipeline_is_bit_reproducible_per_seed() {
    // Includes F2PM training: collection, Lasso, REP-Tree, control loop.
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::Exploration, 77);
    cfg.eras = 25;
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert_eq!(a.to_csv(), b.to_csv());
}

#[test]
fn parallel_execution_is_byte_identical_to_sequential() {
    // The exec-pool determinism contract: a seed-sweep-style parallel
    // aggregate and the full telemetry JSONL export must not change by a
    // single byte between ACM_THREADS=1 (pure sequential path) and a
    // 4-thread pool.
    let sweep = || {
        let per_seed: Vec<(f64, f64, f64)> = acm::exec::map_collect((0..4u64).collect(), |seed| {
            let mut cfg =
                ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 1000 + seed);
            cfg.predictor = PredictorChoice::Oracle;
            cfg.eras = 30;
            let tel = run_experiment(&cfg);
            let w = tel.eras() / 3;
            (
                tel.rmttf_spread(w),
                tel.fraction_oscillation(w),
                tel.tail_response(w),
            )
        });
        let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::Exploration, 77);
        cfg.predictor = PredictorChoice::Oracle;
        cfg.eras = 20;
        let jsonl = run_experiment(&cfg).to_jsonl();
        // Debug-format floats round-trip exactly, so this is a byte-level
        // comparison of the aggregates too.
        (format!("{per_seed:?}"), jsonl)
    };

    let _width = POOL_WIDTH.lock().unwrap_or_else(|e| e.into_inner());
    let before = acm::exec::current_threads();
    acm::exec::configure_threads(1);
    let sequential = sweep();
    acm::exec::configure_threads(4);
    let parallel = sweep();
    acm::exec::configure_threads(before);

    assert_eq!(
        sequential.0, parallel.0,
        "seed-sweep aggregates differ between 1 and 4 threads"
    );
    assert_eq!(
        sequential.1, parallel.1,
        "telemetry JSONL differs between 1 and 4 threads"
    );
}

#[test]
fn cross_validation_is_byte_identical_across_thread_widths() {
    // k-fold CV must produce byte-identical results (Debug floats
    // round-trip exactly) at ACM_THREADS=1 — the pure sequential path — and
    // on a 4-thread pool, because fold RNG streams are pre-split
    // sequentially before the parallel dispatch.
    use acm::ml::model::ModelKind;
    use acm::ml::validate::cross_validate;
    use acm::ml::Dataset;
    use acm::sim::rng::SimRng;

    let db = {
        let mut rng = SimRng::new(404);
        let mut db = Dataset::new(["a", "b", "c"]);
        for _ in 0..240 {
            let a = rng.uniform(0.0, 10.0);
            let b = rng.uniform(0.0, 5.0);
            let c = rng.uniform(0.0, 1.0);
            let y = 3.0 * a - 2.0 * b + rng.normal(0.0, 0.3);
            db.push(vec![a, b, c], y);
        }
        db
    };
    let selection = || {
        let mut rng = SimRng::new(99);
        format!(
            "{:?}|{:?}",
            cross_validate(ModelKind::RepTree, &db, 6, &mut rng),
            cross_validate(ModelKind::LsSvm, &db, 4, &mut rng),
        )
    };

    let _width = POOL_WIDTH.lock().unwrap_or_else(|e| e.into_inner());
    let before = acm::exec::current_threads();
    acm::exec::configure_threads(1);
    let sequential = selection();
    acm::exec::configure_threads(4);
    let parallel = selection();
    acm::exec::configure_threads(before);

    assert_eq!(
        sequential, parallel,
        "CV results differ between 1 and 4 threads"
    );
}

/// Widening the pool must never lose on a paper-sized world. Fig-4: its
/// MONITOR work (22 VMs) is smaller than one fan-out, so the loop must
/// not fan it out (a fan-out per era roughly doubles this run). The
/// drifted lifecycle world: a ~62 µs refit is smaller than one hand-off
/// to a parked worker, so refits must not cross threads. A wall-clock
/// gate, so it is `#[ignore]`d out of tier-1; CI runs it alone in release.
#[test]
#[ignore = "wall-clock gate: run alone, in release"]
fn small_world_width_never_loses() {
    use acm::core::control_loop::ControlLoop;
    use acm::core::framework::build_vmcs;
    use acm::sim::rng::SimRng;
    use std::time::{Duration, Instant};

    if acm::exec::available_threads() < 2 {
        eprintln!("small_world_width_never_loses: skipped, fewer than 2 cores");
        return;
    }
    let _width = POOL_WIDTH.lock().unwrap_or_else(|e| e.into_inner());
    let fig4 = ExperimentConfig::three_region_fig4(PolicyKind::AvailableResources, 2016);
    let drifted = common::drifted_lifecycle_cfg();
    let stale = common::stale_models(&drifted);
    let worlds: [(&str, usize, &dyn Fn() -> ControlLoop); 2] = [
        ("fig-4 x policy 2", 120, &|| {
            let mut rng = SimRng::new(fig4.seed);
            let vmcs = build_vmcs(&fig4, &mut rng);
            ControlLoop::new(&fig4, vmcs, rng)
        }),
        ("drifted fig-3, lifecycle on", 60, &|| {
            common::lifecycle_loop(&drifted, &stale)
        }),
    ];
    let timed_run = |threads: usize, eras: usize, build: &dyn Fn() -> ControlLoop| -> Duration {
        acm::exec::configure_threads(threads);
        let mut cl = build();
        let t = Instant::now();
        cl.run(eras);
        t.elapsed()
    };
    let median = |walls: &mut Vec<Duration>| {
        walls.sort();
        walls[walls.len() / 2].as_secs_f64()
    };
    // One measurement: 15 alternating runs per width, ratio of medians.
    let measure = |world: &str, eras: usize, build: &dyn Fn() -> ControlLoop| {
        let (mut narrow, mut wide) = (Vec::new(), Vec::new());
        for round in 0..15 {
            // Alternate which width goes first so drift hits both alike.
            if round % 2 == 0 {
                narrow.push(timed_run(1, eras, build));
                wide.push(timed_run(2, eras, build));
            } else {
                wide.push(timed_run(2, eras, build));
                narrow.push(timed_run(1, eras, build));
            }
        }
        let (narrow, wide) = (median(&mut narrow), median(&mut wide));
        eprintln!(
            "{world}, run({eras}): width 1 {:.2} ms, width 2 {:.2} ms, ratio {:.2}",
            narrow * 1e3,
            wide * 1e3,
            wide / narrow
        );
        wide / narrow
    };
    // A measurement is ~0.1 s of wall clock, so one burst from a noisy
    // neighbour can tilt it; a hand-off per era tilts every one of them.
    let before = acm::exec::current_threads();
    for (world, eras, build) in worlds {
        let held = (0..3).any(|_| measure(world, eras, build) <= 1.10);
        acm::exec::configure_threads(before);
        assert!(
            held,
            "{world}: width 2 loses to width 1 by more than 10 % in 3 of 3 measurements"
        );
    }
}

#[test]
fn seeds_change_the_trajectory_but_not_the_conclusions() {
    let mut spreads = Vec::new();
    for seed in [1, 2, 3] {
        let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, seed);
        cfg.predictor = PredictorChoice::Oracle;
        cfg.eras = 80;
        let tel = run_experiment(&cfg);
        spreads.push(tel.rmttf_spread(25));
    }
    // Trajectories differ, but Policy 2 converges for every seed.
    for s in &spreads {
        assert!(*s < 1.25, "spread {s} (all: {spreads:?})");
    }
}

#[test]
fn autoscaler_grows_a_region_under_a_client_surge() {
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 42);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = 70;
    cfg.regions[0].clients = ClientSchedule::Step {
        before: 128,
        after: 512,
        at: SimTime::from_secs(600),
    };
    cfg.regions[1].clients = ClientSchedule::Constant(96);
    cfg.autoscale = AutoscaleConfig {
        enabled: true,
        response_threshold_s: 0.25,
        rmttf_low_s: 400.0,
        rmttf_high_s: 1e9,
        cooldown_eras: 4,
        max_vms: 16,
    };
    let tel = run_experiment(&cfg);
    let peak = |from: usize, to: usize| {
        tel.active_vms(0)
            .values()
            .take(to)
            .skip(from)
            .max()
            .unwrap_or(0)
    };
    assert!(
        peak(40, tel.eras()) > peak(0, 20),
        "no growth: before {} after {}",
        peak(0, 20),
        peak(40, tel.eras())
    );
    // And the SLA holds through the surge.
    assert!(tel.tail_response(20) < 1.0);
}

#[test]
fn autoscaler_releases_capacity_when_idle() {
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 42);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = 50;
    // Nearly idle system.
    cfg.regions[0].clients = ClientSchedule::Constant(16);
    cfg.regions[1].clients = ClientSchedule::Constant(16);
    cfg.autoscale = AutoscaleConfig {
        enabled: true,
        response_threshold_s: 0.8,
        rmttf_low_s: 60.0,
        rmttf_high_s: 3_000.0,
        cooldown_eras: 4,
        max_vms: 16,
    };
    let tel = run_experiment(&cfg);
    let start = tel.active_vms(0).get(0);
    let end = tel.active_vms(0).last().unwrap();
    assert!(end < start, "idle region should shrink: {start} -> {end}");
}

#[test]
fn ramp_schedule_shifts_ingress_over_time() {
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 42);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = 60;
    cfg.regions[0].clients = ClientSchedule::Ramp {
        from: 64,
        to: 448,
        start: SimTime::from_secs(300),
        end: SimTime::from_secs(1200),
    };
    let tel = run_experiment(&cfg);
    let lambda_early = tel.global_lambda().points()[5].value;
    let lambda_late = tel.global_lambda().points()[55].value;
    assert!(
        lambda_late > lambda_early * 2.0,
        "ramp not visible: {lambda_early} -> {lambda_late}"
    );
}
