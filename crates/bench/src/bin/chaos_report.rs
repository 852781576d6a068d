//! Chaos / graceful-degradation report.
//!
//! Replays the deterministic fault scenarios the robustness PR introduced
//! — partition + heal under both detector regimes, a leader kill, and a
//! flap storm with message-level chaos — through full Figure-3/Figure-4
//! deployments with degradation enabled, measures how the leader's Plan
//! phase rides through each outage, and writes the numbers to
//! `BENCH_PR5.json` at the repository root.
//!
//! ```text
//! cargo run --release -p acm-bench --bin chaos_report [-- --convergence-gate]
//! ```
//!
//! `--convergence-gate` additionally enforces the robustness acceptance
//! criteria and exits nonzero on any violation:
//!
//! * a quarantined region receives exactly zero flow while unreachable;
//! * the healed region is re-admitted (one transition, no oscillation)
//!   within [`READMIT_BUDGET_ERAS`] eras of the heal;
//! * the live regions return to the equal-RMTTF band ([`SPREAD_BAND`])
//!   within [`CONVERGE_BUDGET_ERAS`] eras of the heal;
//! * a fixed plan and seed replay byte-identically at 1 and 4 worker
//!   threads (telemetry and decision log).
//!
//! Every scenario is deterministic per its hard-coded seed, so the gate
//! numbers are stable across machines.

use acm_bench::Report;
use acm_core::config::{ExperimentConfig, PredictorChoice};
use acm_core::framework::run_experiment_with_obs;
use acm_core::policy::PolicyKind;
use acm_core::telemetry::ExperimentTelemetry;
use acm_core::DegradationConfig;
use acm_obs::{Obs, ObsConfig, ObsHandle, Value};
use acm_overlay::{FaultPlan, HeartbeatConfig, NodeId};
use acm_sim::time::{Duration, SimTime};

/// Era length of the paper deployments (seconds).
const ERA_S: u64 = 30;
/// Eras the healed region may take to re-enter the plan.
const READMIT_BUDGET_ERAS: usize = 25;
/// Eras the live set may take to return to the equal-RMTTF band.
const CONVERGE_BUDGET_ERAS: usize = 25;
/// The equal-RMTTF band: max/min ratio of 5-era-smoothed region RMTTFs.
const SPREAD_BAND: f64 = 1.35;

fn run(cfg: &ExperimentConfig) -> (ExperimentTelemetry, ObsHandle) {
    let obs = Obs::new(ObsConfig::default());
    let tel = run_experiment_with_obs(cfg, obs.clone());
    (tel, obs)
}

fn count_events(obs: &ObsHandle, kind: &str) -> usize {
    obs.events_tail(usize::MAX)
        .iter()
        .filter(|e| e.kind == kind)
        .count()
}

/// Whether the first `region.quarantine` event carries `field == true`
/// (distinguishes the staleness-TTL regime from the suspicion regime).
fn quarantine_reason(obs: &ObsHandle, field: &str) -> bool {
    obs.events_tail(usize::MAX)
        .iter()
        .find(|e| e.kind == "region.quarantine")
        .and_then(|e| {
            e.fields
                .iter()
                .find(|(k, _)| *k == field)
                .map(|(_, v)| matches!(v, Value::Bool(true)))
        })
        .unwrap_or(false)
}

/// Max/min ratio of the trailing-5-era mean RMTTF across `live` regions
/// at era `e`.
fn spread_at(tel: &ExperimentTelemetry, live: &[usize], e: usize) -> f64 {
    let lo = e.saturating_sub(4);
    let means: Vec<f64> = live
        .iter()
        .map(|&j| {
            let window = e + 1 - lo;
            tel.rmttf(j).values().skip(lo).take(window).sum::<f64>() / window as f64
        })
        .collect();
    let max = means.iter().fold(0.0_f64, |a, b| a.max(*b));
    let min = means.iter().fold(f64::INFINITY, |a, b| a.min(*b));
    if min <= 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

/// First era at or after `from` where the live-set spread enters the
/// band, or `None` if it never does.
fn converge_era(tel: &ExperimentTelemetry, live: &[usize], from: usize) -> Option<usize> {
    (from..tel.eras()).find(|&e| spread_at(tel, live, e) <= SPREAD_BAND)
}

/// First era at or after `from` where region `j`'s fraction is positive.
fn first_flow_era(tel: &ExperimentTelemetry, j: usize, from: usize) -> Option<usize> {
    tel.fraction(j)
        .values()
        .skip(from)
        .position(|v| v > 0.0)
        .map(|i| i + from)
}

/// Partition region 1 of the Figure-3 deployment for ten eras, under
/// either the suspicion detector (default heartbeat, timeout < era: the
/// first fully-missed era triggers quarantine) or the staleness TTL
/// (timeout stretched past the TTL so report age is what trips).
fn partition_heal_scenario(
    report: &mut Report,
    label: &str,
    heartbeat: HeartbeatConfig,
    expect_reason: &str,
) {
    let fail_era = 10usize;
    let heal_era = 20usize;
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 2025);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = 60;
    cfg.fault_plan = Some(FaultPlan::scripted(1, Vec::new()).partition_window(
        vec![NodeId(1)],
        SimTime::from_secs(fail_era as u64 * ERA_S),
        SimTime::from_secs(heal_era as u64 * ERA_S),
    ));
    cfg.degradation = DegradationConfig {
        heartbeat,
        ..DegradationConfig::enabled()
    };
    let (tel, obs) = run(&cfg);

    let quarantines = count_events(&obs, "region.quarantine");
    let readmits = count_events(&obs, "region.readmit");
    report.push(&format!("{label}_quarantine_events"), quarantines as f64);
    report.push(&format!("{label}_readmit_events"), readmits as f64);
    report.gate(
        quarantines == 1 && readmits == 1,
        format!("{label}: expected one quarantine and one readmit, got {quarantines}/{readmits}"),
    );
    report.gate(
        quarantine_reason(&obs, expect_reason),
        format!("{label}: quarantine was not driven by `{expect_reason}`"),
    );

    // Zero flow while unreachable. The staleness TTL (2 eras) admits up
    // to three stale eras before quarantine, so the window starts at
    // fail + 4 to cover both regimes.
    let cut: Vec<f64> = tel
        .fraction(1)
        .values()
        .take(heal_era)
        .skip(fail_era + 4)
        .collect();
    let zero_flow = cut.iter().all(|v| *v == 0.0);
    report.push(
        &format!("{label}_zero_flow_ok"),
        f64::from(u8::from(zero_flow)),
    );
    report.gate(
        zero_flow,
        format!("{label}: quarantined region still receives flow: {cut:?}"),
    );

    let readmit_era = first_flow_era(&tel, 1, heal_era);
    let readmit_delay = readmit_era.map(|e| e - heal_era);
    report.push(
        &format!("{label}_readmit_eras_after_heal"),
        readmit_delay.map_or(f64::NAN, |d| d as f64),
    );
    report.gate(
        readmit_delay.is_some_and(|d| d <= READMIT_BUDGET_ERAS),
        format!("{label}: re-admission after heal took {readmit_delay:?} eras (budget {READMIT_BUDGET_ERAS})"),
    );

    let conv = converge_era(&tel, &[0, 1], heal_era).map(|e| e - heal_era);
    report.push(
        &format!("{label}_converge_eras_after_heal"),
        conv.map_or(f64::NAN, |d| d as f64),
    );
    report.gate(
        conv.is_some_and(|d| d <= CONVERGE_BUDGET_ERAS),
        format!("{label}: equal-RMTTF band after heal took {conv:?} eras (budget {CONVERGE_BUDGET_ERAS})"),
    );
    report.push(&format!("{label}_tail_spread"), tel.rmttf_spread(10));
}

/// Kill the initial leader of the Figure-4 deployment at era 10, never
/// recover it: a new leader must take over and the dead region's flow
/// must be redistributed over the two survivors.
fn leader_kill_scenario(report: &mut Report) {
    let kill_era = 10usize;
    let mut cfg = ExperimentConfig::three_region_fig4(PolicyKind::AvailableResources, 2025);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = 40;
    cfg.fault_plan = Some(
        FaultPlan::scripted(2, Vec::new())
            .kill_leader_at(SimTime::from_secs(kill_era as u64 * ERA_S)),
    );
    cfg.degradation = DegradationConfig::enabled();
    let (tel, obs) = run(&cfg);

    let re_elections = count_events(&obs, "leader.change");
    report.push("leader_kill_re_elections", re_elections as f64);
    report.gate(
        re_elections >= 1,
        format!("leader_kill: no re-election after the kill ({re_elections})"),
    );
    report.push(
        "leader_kill_kill_events",
        count_events(&obs, "chaos.leader.kill") as f64,
    );

    let zero_flow = tel
        .fraction(0)
        .values()
        .skip(kill_era + 4)
        .all(|v| v == 0.0);
    report.push("leader_kill_zero_flow_ok", f64::from(u8::from(zero_flow)));
    report.gate(
        zero_flow,
        "leader_kill: dead region still receives flow".to_string(),
    );
    let live_sum: f64 = (1..3)
        .map(|j| tel.fraction(j).points()[tel.eras() - 1].value)
        .sum();
    report.push("leader_kill_live_flow_sum", live_sum);
    report.gate(
        (live_sum - 1.0).abs() < 1e-9,
        format!("leader_kill: survivors hold {live_sum} of the flow, not 1.0"),
    );

    let conv = converge_era(&tel, &[1, 2], kill_era).map(|e| e - kill_era);
    report.push(
        "leader_kill_converge_eras_after_kill",
        conv.map_or(f64::NAN, |d| d as f64),
    );
    report.gate(
        conv.is_some_and(|d| d <= CONVERGE_BUDGET_ERAS),
        format!(
            "leader_kill: survivors' RMTTF band took {conv:?} eras (budget {CONVERGE_BUDGET_ERAS})"
        ),
    );
}

/// Two single-era link flaps plus 10 % message drop and random extra
/// delay, under the tolerant (TTL) detector: the retry path and the
/// staleness TTL must absorb all of it without one spurious quarantine.
fn flap_storm_scenario(report: &mut Report) {
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 2025);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = 60;
    cfg.fault_plan = Some(
        FaultPlan::scripted(7, Vec::new())
            .link_flap(
                NodeId(0),
                NodeId(1),
                SimTime::from_secs(15 * ERA_S),
                SimTime::from_secs(16 * ERA_S),
            )
            .link_flap(
                NodeId(0),
                NodeId(1),
                SimTime::from_secs(35 * ERA_S),
                SimTime::from_secs(36 * ERA_S),
            )
            .with_message_chaos(0.10, Duration::from_millis(25)),
    );
    cfg.degradation = DegradationConfig {
        heartbeat: HeartbeatConfig {
            period: Duration::from_secs(ERA_S),
            timeout: Duration::from_secs(5 * ERA_S),
        },
        ..DegradationConfig::enabled()
    };
    let (tel, obs) = run(&cfg);

    let retries = obs
        .metrics()
        .iter()
        .find(|m| m.name == "acm.core.report.retries")
        .and_then(|m| match m.value {
            acm_obs::MetricValue::Counter(v) => Some(v),
            _ => None,
        })
        .unwrap_or(0);
    report.push("flap_storm_report_retries", retries as f64);
    report.gate(
        retries > 0,
        "flap_storm: the retry path was never exercised".to_string(),
    );
    report.push(
        "flap_storm_msg_drops",
        count_events(&obs, "chaos.msg.drop") as f64,
    );
    let quarantines = count_events(&obs, "region.quarantine");
    report.push("flap_storm_quarantine_events", quarantines as f64);
    report.gate(
        quarantines == 0,
        format!("flap_storm: {quarantines} spurious quarantines under message chaos"),
    );
    report.push("flap_storm_completed", tel.total_completed() as f64);
    report.push("flap_storm_tail_spread", tel.rmttf_spread(10));
    report.gate(
        tel.rmttf_spread(10) <= SPREAD_BAND,
        format!(
            "flap_storm: tail spread {} above the band",
            tel.rmttf_spread(10)
        ),
    );
}

/// Replays the suspicion-regime partition with causal tracing enabled
/// and correlates the `slo.burn` / `slo.recovered` stream against the
/// scripted fault window: the availability SLO must start burning inside
/// the partition and be recovered after the heal, never before the
/// fault. (The SLO monitors only run on traced hubs, so the untraced
/// scenarios above stay byte-identical to their PR 5 baselines.)
fn slo_fault_correlation_scenario(report: &mut Report) {
    let fail_s = 10.0 * ERA_S as f64;
    let heal_s = 20.0 * ERA_S as f64;
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 2025);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = 60;
    cfg.fault_plan = Some(FaultPlan::scripted(1, Vec::new()).partition_window(
        vec![NodeId(1)],
        SimTime::from_secs(fail_s as u64),
        SimTime::from_secs(heal_s as u64),
    ));
    cfg.degradation = DegradationConfig::enabled();
    let obs = Obs::new(ObsConfig::traced(2025));
    let _ = run_experiment_with_obs(&cfg, obs.clone());

    let events = obs.events_tail(usize::MAX);
    let burn_times: Vec<f64> = events
        .iter()
        .filter(|e| e.kind == "slo.burn")
        .map(|e| e.t_us as f64 / 1e6)
        .collect();
    let recovery_times: Vec<f64> = events
        .iter()
        .filter(|e| e.kind == "slo.recovered")
        .map(|e| e.t_us as f64 / 1e6)
        .collect();
    report.push("slo_burn_events", burn_times.len() as f64);
    report.push("slo_recovery_events", recovery_times.len() as f64);
    report.push(
        "slo_first_burn_s",
        burn_times.first().copied().unwrap_or(f64::NAN),
    );
    report.push(
        "slo_last_recovery_s",
        recovery_times.last().copied().unwrap_or(f64::NAN),
    );
    report.gate(
        burn_times
            .first()
            .is_some_and(|t| *t >= fail_s && *t <= heal_s + 5.0 * ERA_S as f64),
        format!("slo: first burn not inside the fault window: {burn_times:?}"),
    );
    report.gate(
        burn_times.iter().all(|t| *t >= fail_s),
        format!("slo: burn fired before the fault: {burn_times:?}"),
    );
    report.gate(
        recovery_times.last().is_some_and(|t| *t > heal_s),
        format!("slo: no recovery after the heal: {recovery_times:?}"),
    );
}

/// A fixed plan + seed must replay byte-identically — telemetry CSV and
/// the decision log — at 1 and 4 worker threads.
fn byte_identity_check(report: &mut Report) {
    let run_once = || {
        let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 2025);
        cfg.predictor = PredictorChoice::Oracle;
        cfg.eras = 30;
        cfg.fault_plan = Some(
            FaultPlan::scripted(1, Vec::new())
                .partition_window(
                    vec![NodeId(1)],
                    SimTime::from_secs(10 * ERA_S),
                    SimTime::from_secs(20 * ERA_S),
                )
                .with_message_chaos(0.05, Duration::from_millis(40)),
        );
        cfg.degradation = DegradationConfig::enabled();
        let (tel, obs) = run(&cfg);
        (tel.to_csv(), obs.events_jsonl())
    };
    let before = acm_exec::current_threads();
    acm_exec::configure_threads(1);
    let sequential = run_once();
    acm_exec::configure_threads(4);
    let parallel = run_once();
    acm_exec::configure_threads(before);
    let identical = sequential == parallel;
    report.push("byte_identity_1t_vs_4t_ok", f64::from(u8::from(identical)));
    report.gate(
        identical,
        "byte_identity: chaos replay diverges between 1 and 4 threads".to_string(),
    );
}

fn main() {
    let gate = acm_bench::flags("chaos_report", &["--convergence-gate"]).has("--convergence-gate");
    let mut report = Report::default();

    println!("chaos / graceful-degradation report (fixed seeds)\n");
    println!("partition + heal, suspicion detector (default heartbeat)");
    partition_heal_scenario(
        &mut report,
        "partition_suspicion",
        HeartbeatConfig::default(),
        "suspected",
    );
    println!("\npartition + heal, staleness-TTL regime (timeout > ttl x era)");
    partition_heal_scenario(
        &mut report,
        "partition_ttl",
        HeartbeatConfig {
            period: Duration::from_secs(ERA_S),
            timeout: Duration::from_secs(5 * ERA_S),
        },
        "stale",
    );
    println!("\nleader kill (Figure-4 deployment)");
    leader_kill_scenario(&mut report);
    println!("\nflap storm + message chaos");
    flap_storm_scenario(&mut report);
    println!("\nSLO burn vs fault window (traced partition replay)");
    slo_fault_correlation_scenario(&mut report);
    println!("\nthread-width byte identity");
    byte_identity_check(&mut report);

    report.finish("BENCH_PR5.json", "all convergence gates hold", gate);
}
