//! Mega-scale sharded-world report.
//!
//! Exercises the era-synchronized shard runtime at two layers and writes
//! the numbers to `BENCH_PR6.json` at the repository root:
//!
//! * **Control plane** — a deployment of hundreds of regions (the three
//!   paper flavors cycled, star overlay, chaos plan + graceful
//!   degradation) carrying over a million closed-loop emulated browsers,
//!   driven era by era through the sharded MONITOR phase. Reports total
//!   browsers, completed requests, era wall-time p50/p99, and verifies
//!   the run replays byte-identically (telemetry CSV + decision log,
//!   chaos included) at 1 and 4 worker threads.
//! * **Data plane** — per-shard discrete-event worlds fed by open-loop
//!   arrival generators (deterministic pre-split streams) in which every
//!   request is individually routed to a region by a per-shard
//!   weighted-P2C router lens (latency-aware scoring, era-barrier plan
//!   swaps including a quarantine), then passed through a chaos lens.
//!   Reports aggregate events/s at 1/2/4 threads, the 4-thread speedup,
//!   the event-queue arena-reuse counter, routing decisions/s, and
//!   checks the per-shard outcome digests — per-region routed counts
//!   included — are identical at every width.
//!
//! ```text
//! cargo run --release -p acm-bench --bin mega_report [-- --smoke]
//! ```
//!
//! `--smoke` shrinks both scenarios to CI size (bounded runtime) and
//! enforces the gates: byte identity at both layers, an aggregate
//! events/s floor, and (on machines with >= 4 cores) a >= 2x data-plane
//! speedup at 4 threads over 1. The full run enforces only the byte
//! identity gates — throughput numbers vary with the machine.

use acm_bench::Report;
use acm_core::config::{ExperimentConfig, PredictorChoice, RegionSpec};
use acm_core::policy::PolicyKind;
use acm_core::{ControlLoop, DegradationConfig};
use acm_overlay::FaultPlan;
use acm_pcam::{RttfSource, Vmc};
use acm_router::{run_routed_plane, PlanStep, PlaneOutcome, RoutedPlaneConfig};
use acm_sim::rng::SimRng;
use acm_sim::time::{Duration, SimTime};
use acm_workload::ClientSchedule;
use std::time::Instant;

/// Era length of the control-plane deployment (seconds).
const ERA_S: u64 = 30;
/// Smoke-mode floor on aggregate data-plane throughput (events/s).
const SMOKE_EVENTS_PER_S_FLOOR: f64 = 50_000.0;
/// Smoke-mode floor on the 4-thread data-plane speedup (>= 4 cores only).
const SMOKE_SPEEDUP_FLOOR: f64 = 2.0;

/// Scale knobs for the two scenarios.
struct Scale {
    regions: usize,
    clients_per_region: u32,
    control_eras: usize,
    data_shards: usize,
    data_regions: usize,
    data_browsers: u64,
    data_eras: u64,
    data_era_s: u64,
}

impl Scale {
    fn full() -> Self {
        Scale {
            regions: 200,
            clients_per_region: 5_120, // 200 x 5120 = 1,024,000 browsers
            control_eras: 15,
            data_shards: 16,
            data_regions: 64,
            data_browsers: 1 << 20, // 1,048,576 emulated browsers
            data_eras: 3,
            data_era_s: 10,
        }
    }

    fn smoke() -> Self {
        Scale {
            regions: 24,
            clients_per_region: 512,
            control_eras: 8,
            data_shards: 8,
            data_regions: 16,
            data_browsers: 1 << 18,
            data_eras: 2,
            data_era_s: 10,
        }
    }
}

/// A many-region deployment: the three paper region flavors cycled with
/// unique names, a star overlay rooted at region 0, a chaos plan that
/// partitions the last region for the middle third of the run plus 2 %
/// message drop / up-to-10 ms extra delay, and graceful degradation on.
fn mega_config(scale: &Scale) -> ExperimentConfig {
    let n = scale.regions;
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 2026);
    cfg.name = format!("mega-{n}r");
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = scale.control_eras;
    cfg.regions = (0..n)
        .map(|i| {
            let mut region = match i % 3 {
                0 => ExperimentConfig::region1_ireland(),
                1 => ExperimentConfig::region2_frankfurt(),
                _ => ExperimentConfig::region3_munich(),
            };
            region.name = format!("r{i:03}-{}", region.name);
            // The paper pools serve ~512 browsers per region; provision
            // linearly with the population so the deployment stays in the
            // serveable regime at any scale.
            let factor = (scale.clients_per_region as usize).div_ceil(512);
            region.total_vms *= factor;
            region.target_active *= factor;
            RegionSpec {
                region,
                clients: ClientSchedule::Constant(scale.clients_per_region),
            }
        })
        .collect();
    cfg.latencies = (1..n)
        .map(|j| (0usize, j, Duration::from_millis(8 + (j as u64 * 7) % 40)))
        .collect();
    let fail_at = SimTime::from_secs(scale.control_eras as u64 / 3 * ERA_S);
    let heal_at = SimTime::from_secs(scale.control_eras as u64 * 2 / 3 * ERA_S);
    cfg.fault_plan = Some(
        FaultPlan::scripted(11, Vec::new())
            .partition_window(vec![ExperimentConfig::node_of(n - 1)], fail_at, heal_at)
            .with_message_chaos(0.02, Duration::from_millis(10)),
    );
    cfg.degradation = DegradationConfig::enabled();
    cfg
}

/// Builds the loop with oracle predictors (no training phase) and runs
/// every era, timing each. Returns the telemetry CSV, the decision log,
/// total completed requests, and the per-era wall times.
fn run_control(cfg: &ExperimentConfig) -> (String, String, u64, Vec<f64>) {
    let mut rng = SimRng::new(cfg.seed);
    let vmcs: Vec<Vmc> = cfg
        .regions
        .iter()
        .map(|spec| Vmc::new(spec.region.clone(), RttfSource::Oracle, rng.split()))
        .collect();
    let mut cl = ControlLoop::new(cfg, vmcs, rng);
    let mut era_wall_s = Vec::with_capacity(cfg.eras);
    for _ in 0..cfg.eras {
        let t = Instant::now();
        cl.step_era();
        era_wall_s.push(t.elapsed().as_secs_f64());
    }
    let log = cl.obs().events_jsonl();
    let completed = cl.telemetry().total_completed();
    (cl.into_telemetry().to_csv(), log, completed, era_wall_s)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn control_plane_scenario(report: &mut Report, scale: &Scale) {
    let cfg = mega_config(scale);
    let browsers = scale.regions as u64 * u64::from(scale.clients_per_region);
    report.push("control_regions", scale.regions as f64);
    report.push("control_browsers", browsers as f64);
    report.push("control_eras", scale.control_eras as f64);

    let before = acm_exec::current_threads();
    acm_exec::configure_threads(1);
    let (csv_1t, log_1t, completed, _) = run_control(&cfg);
    acm_exec::configure_threads(4);
    let (csv_4t, log_4t, _, mut era_wall_s) = run_control(&cfg);
    acm_exec::configure_threads(before);

    report.push("control_completed_requests", completed as f64);
    era_wall_s.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    report.push(
        "control_era_wall_p50_ms",
        percentile(&era_wall_s, 0.50) * 1e3,
    );
    report.push(
        "control_era_wall_p99_ms",
        percentile(&era_wall_s, 0.99) * 1e3,
    );
    report.gate(
        completed > 0,
        "control: the deployment completed zero requests".to_string(),
    );

    let identical = (csv_1t, log_1t) == (csv_4t, log_4t);
    report.push("control_byte_identity_1t_vs_4t_ok", f64::from(identical));
    report.gate(
        identical,
        "control: telemetry/decision log diverge between 1 and 4 threads".to_string(),
    );
}

/// The routed data plane at mega scale: every arriving request is
/// individually mapped to a region by a per-shard weighted-P2C router
/// lens (latency feedback on), with a three-step plan schedule cycling
/// at era barriers — a skewed plan, the same plan with one region
/// quarantined, and the reversed skew — plus message chaos. The harness
/// itself lives in `acm_router::plane` so benches and tests drive the
/// exact same plane.
fn run_data(scale: &Scale) -> PlaneOutcome {
    let n = scale.data_regions;
    let mut cfg = RoutedPlaneConfig::new(
        n,
        scale.data_shards,
        scale.data_browsers,
        scale.data_eras,
        77,
    );
    cfg.era_s = scale.data_era_s;
    // Skew region weights 3:2:1 cyclically (install normalises), then
    // quarantine the last region, then reverse the skew.
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
    run_routed_plane(&cfg)
}

fn data_plane_scenario(report: &mut Report, scale: &Scale, smoke: bool) {
    report.push("data_shards", scale.data_shards as f64);
    report.push("data_regions", scale.data_regions as f64);
    report.push("data_browsers", scale.data_browsers as f64);
    report.push(
        "data_sim_horizon_s",
        (scale.data_eras * scale.data_era_s) as f64,
    );

    let before = acm_exec::current_threads();
    let mut wall_1t = f64::NAN;
    let mut eps_4t = f64::NAN;
    let mut wall_4t = f64::NAN;
    let mut digest_1t = Vec::new();
    let mut digest_4t = Vec::new();
    for threads in [1usize, 2, 4] {
        acm_exec::configure_threads(threads);
        let out = run_data(scale);
        acm_exec::configure_threads(before);
        let eps = out.executed as f64 / out.wall_s;
        report.push(&format!("data_events_{threads}t"), out.executed as f64);
        report.push(&format!("data_events_per_s_{threads}t"), eps);
        match threads {
            1 => {
                wall_1t = out.wall_s;
                report.push("data_routing_decisions", out.decisions() as f64);
                report.push(
                    "data_routing_decisions_per_s",
                    out.decisions() as f64 / out.wall_s,
                );
                report.gate(
                    out.decisions() > 0,
                    "data: the routed plane made zero routing decisions".to_string(),
                );
                report.push("data_arena_reuse_slots", out.arena_reuse as f64);
                report.gate(
                    out.arena_reuse > 0,
                    "data: event-queue arenas were never reused across eras".to_string(),
                );
                digest_1t = out.digests;
            }
            4 => {
                wall_4t = out.wall_s;
                eps_4t = eps;
                digest_4t = out.digests;
            }
            _ => {}
        }
    }

    let identical = digest_1t == digest_4t;
    report.push("data_digest_identity_1t_vs_4t_ok", f64::from(identical));
    report.gate(
        identical,
        "data: per-shard outcomes diverge between 1 and 4 threads".to_string(),
    );

    let speedup = wall_1t / wall_4t;
    report.push("data_speedup_4t", speedup);
    if smoke {
        report.gate(
            eps_4t >= SMOKE_EVENTS_PER_S_FLOOR,
            format!("data: aggregate {eps_4t:.0} events/s below the {SMOKE_EVENTS_PER_S_FLOOR:.0} floor"),
        );
        let avail = acm_exec::available_threads();
        if avail >= 4 {
            report.gate(
                speedup >= SMOKE_SPEEDUP_FLOOR,
                format!("data: 4-thread speedup {speedup:.2} below {SMOKE_SPEEDUP_FLOOR}"),
            );
        } else {
            println!("  (speedup gate skipped: {avail} cores available, need 4)");
        }
    }
}

fn main() {
    let smoke = acm_bench::flags("mega_report", &["--smoke"]).has("--smoke");
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    let mut report = Report::default();

    println!(
        "mega-scale sharded-world report ({} mode, {} cores)\n",
        if smoke { "smoke" } else { "full" },
        acm_exec::available_threads()
    );
    println!("control plane: sharded MONITOR at deployment scale");
    control_plane_scenario(&mut report, &scale);
    println!("\ndata plane: per-request weighted-P2C routing on sharded event queues");
    data_plane_scenario(&mut report, &scale, smoke);

    report.finish("BENCH_PR6.json", "all gates hold", true);
}
