//! Characterisation: what `ControlLoop::step_era` leaves behind, pinned.
//!
//! ≤ 40-era worlds that between them walk every branch of the era —
//! scripted link faults and scenario actions, the sharded MONITOR with
//! child hubs, message chaos with retries, quarantine → probation →
//! readmit, a leader kill, frozen plans, SLO windows, and the model
//! lifecycle's refit → promote / reject chain and its rollback — plus
//! three chaos-campaign cases in the shape of the repo benchmark's
//! `fault-storm`. Each pins the FNV-1a-64 of the telemetry CSV, the event
//! log and the span tree. The first three worlds' constants were
//! generated at a70fc62, before `step_era` was decomposed; the campaign
//! cases' before the JSONL exporters began writing by reference; the two
//! lifecycle worlds' when refits began keeping the serving model's
//! feature selection and promoting only candidates with holdout skill.
//! Every event hash, and every traced world's span hash, was re-pinned
//! when the loop stopped holding a request router: its `router.replan`
//! event, one per install, left the log (and its span the tree). No CSV
//! hash moved. A mismatch means the era's
//! behaviour (event kinds, fields or order, span ids, RNG draws) or the
//! export bytes moved — regenerate them only for a change that means to
//! move them.

mod common;

use acm::chaos::{build_case, CampaignConfig};
use acm::core::config::{ExperimentConfig, PredictorChoice, RegionSpec};
use acm::core::control_loop::ControlLoop;
use acm::core::framework::build_vmcs;
use acm::core::policy::PolicyKind;
use acm::core::scenario::{Scenario, ScenarioAction, ScheduledAction};
use acm::core::DegradationConfig;
use acm::obs::json::{self, JsonValue};
use acm::obs::{MetricValue, ObsConfig};
use acm::overlay::fault::FaultAction;
use acm::overlay::{FaultPlan, NodeId};
use acm::sim::rng::SimRng;
use acm::sim::{Duration, SimTime};
use acm::workload::ClientSchedule;

const ERAS: usize = 40;

fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// The loop `run_experiment` would build (every oracle world sets
/// `PredictorChoice::Oracle`, so nothing trains).
fn framework_loop(cfg: &ExperimentConfig) -> ControlLoop {
    let mut rng = SimRng::new(cfg.seed);
    let vmcs = build_vmcs(cfg, &mut rng);
    ControlLoop::new(cfg, vmcs, rng)
}

/// Runs the loop and checks its three artefacts against the pinned
/// `[csv, events, spans]` hashes; `kinds` must all appear in the event
/// log (a world that stops producing a branch pins nothing about it).
/// Returns the finished loop.
fn check(name: &str, mut cl: ControlLoop, kinds: &[&str], golden: [u64; 3]) -> ControlLoop {
    cl.run(ERAS);
    let events = cl.obs().events_jsonl();
    for kind in kinds {
        assert!(
            events.contains(&format!("\"kind\":\"{kind}\"")),
            "{name}: the world never produced {kind}"
        );
    }
    let got = [
        fnv64(&cl.telemetry().to_csv()),
        fnv64(&events),
        fnv64(&cl.obs().spans_jsonl()),
    ];
    assert_eq!(
        got, golden,
        "{name}: [csv, events, spans] = [{:#018x}, {:#018x}, {:#018x}]",
        got[0], got[1], got[2]
    );
    cl
}

/// (a) fig-4 × Policy 3, default observability: a scripted link fault and
/// a scenario that completes the partition, switches policy and changes
/// capacity.
#[test]
fn scripted_fig4_world() {
    let mut cfg = ExperimentConfig::three_region_fig4(PolicyKind::Exploration, 2016);
    cfg.predictor = PredictorChoice::Oracle;
    let at = |s, action| ScheduledAction { at: t(s), action };
    cfg.scenario = Scenario::new(vec![
        // The scripted link fault leads the vector so it applies ahead of
        // the actions that share its instants.
        at(300, ScenarioAction::FailLink { a: 0, b: 2 }),
        at(600, ScenarioAction::RecoverLink { a: 0, b: 2 }),
        // With 0–2 down, cutting 1–2 partitions region 2 for six eras.
        at(360, ScenarioAction::FailLink { a: 1, b: 2 }),
        at(540, ScenarioAction::RecoverLink { a: 1, b: 2 }),
        at(
            450,
            ScenarioAction::SwitchPolicy(PolicyKind::AvailableResources),
        ),
        at(600, ScenarioAction::AddVm { region: 2 }),
        at(
            600,
            ScenarioAction::SetTargetActive {
                region: 2,
                target: 4,
            },
        ),
    ]);
    check(
        "scripted fig-4",
        framework_loop(&cfg),
        &["policy.switch", "report.lost", "leader.change"],
        [
            0x056a_ebb6_aa84_5629,
            0x7ec4_47db_07d7_eadb,
            0xcbf2_9ce4_8422_2325,
        ],
    );
}

/// (a') A scripted link fault on a traced hub: the fault opens a
/// `fault.scripted` root that the losses and the re-election chain off.
#[test]
fn traced_link_fault_world() {
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 2016);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.scenario
        .push(t(300), ScenarioAction::FailLink { a: 0, b: 1 });
    cfg.scenario
        .push(t(600), ScenarioAction::RecoverLink { a: 0, b: 1 });
    cfg.obs = ObsConfig::traced(9);
    check(
        "traced link fault",
        framework_loop(&cfg),
        &["fault.scripted", "report.lost", "leader.change"],
        [
            0x3bee_dc00_65d9_bb13,
            0xc5a1_82d8_d401_5d0a,
            0x090f_6682_8ada_4fc1,
        ],
    );
}

/// (b) Five regions with pools × 8 (MONITOR on five shards, child hubs
/// merged at the barrier), a partition window, a leader kill, 5 % message
/// chaos, degradation on — traced.
#[test]
fn sharded_chaos_world() {
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 42);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.regions = (0..5)
        .map(|i| {
            let mut region = match i % 3 {
                0 => ExperimentConfig::region1_ireland(),
                1 => ExperimentConfig::region2_frankfurt(),
                _ => ExperimentConfig::region3_munich(),
            };
            region.name = format!("r{i}-{}", region.name);
            region.total_vms *= 8;
            region.target_active *= 8;
            RegionSpec {
                region,
                clients: ClientSchedule::Constant(8 * (160 + 64 * i as u32)),
            }
        })
        .collect();
    cfg.latencies = (1..5)
        .map(|j| (0, j, Duration::from_millis(10 + 5 * j as u64)))
        .collect();
    cfg.degradation = DegradationConfig::enabled();
    cfg.degradation.suspicion_timeout = Duration::from_secs(50);
    cfg.fault_plan = Some(
        FaultPlan::scripted(5, Vec::new())
            .partition_window(vec![NodeId(3), NodeId(4)], t(150), t(360))
            .kill_leader_at(t(1050))
            .with_message_chaos(0.05, Duration::from_millis(20)),
    );
    cfg.obs = ObsConfig::traced(77);
    let cl = framework_loop(&cfg);
    check(
        "sharded chaos",
        cl,
        &[
            "chaos.partition",
            "report.lost",
            "report.retry",
            "heartbeat.timeout",
            "region.quarantine",
            "region.probation",
            "region.readmit",
            "leader.change",
            "plan.freeze",
            "slo.burn",
            "slo.recovered",
        ],
        [
            0x90e7_2445_3657_f9c6,
            0xedee_fbbd_e57a_b723,
            0xaab6_3116_2def_e48a,
        ],
    );
}

/// (c) The drifted fig-3 world: regions leak 3× faster than the profile
/// the (stale) REP-Tree predictors were trained on, lifecycle on — traced.
#[test]
fn drifted_lifecycle_world() {
    let mut cfg = common::drifted_lifecycle_cfg();
    cfg.obs = ObsConfig::traced(2026);
    let models = common::stale_models(&cfg);
    check(
        "drifted lifecycle",
        common::lifecycle_loop(&cfg, &models),
        &[
            "drift.signal",
            "model.refit.start",
            "model.refit.done",
            "model.promote",
            "model.reject",
        ],
        [
            0xd9c5_2ea9_c13c_f130,
            0xb3ee_cd4e_1e8c_4a18,
            0xb50a_e316_274b_d209,
        ],
    );
}

/// (c') The drifted world with the lifecycle's two test hooks on: every
/// candidate is trained on label-shuffled rows (`poison_refits`) and
/// promoted without the shadow comparison or the skill gate
/// (`force_promote`), so the regression watch has a worthless model to
/// roll back — traced.
#[test]
fn forced_rollback_world() {
    let mut cfg = common::drifted_lifecycle_cfg();
    cfg.lifecycle.poison_refits = true;
    cfg.lifecycle.force_promote = true;
    cfg.obs = ObsConfig::traced(2026);
    let models = common::stale_models(&cfg);
    check(
        "forced rollback",
        common::lifecycle_loop(&cfg, &models),
        &[
            "drift.signal",
            "model.refit.start",
            "model.refit.done",
            "model.promote",
            "model.rollback",
        ],
        [
            0xaf94_5729_a6c9_de58,
            0x2f76_dae2_c6df_83e1,
            0x25e5_87c3_a540_c336,
        ],
    );
}

/// A kill and a revival in the same era: the checker's known false
/// positive, which the repo benchmark's `fault-storm` never issues.
fn kill_meets_revival(plan: &FaultPlan, era_us: u64) -> bool {
    let eras_of = |want: fn(&FaultAction) -> bool| -> Vec<u64> {
        plan.events
            .iter()
            .filter(|e| want(&e.action))
            .map(|e| e.at.as_micros().div_ceil(era_us))
            .collect()
    };
    let revivals = eras_of(|a| matches!(a, FaultAction::RecoverNode(_)));
    eras_of(|a| matches!(a, FaultAction::KillLeader))
        .iter()
        .any(|k| revivals.contains(k))
}

/// (d) `fault-storm`'s shape: cases of the default chaos campaign, traced
/// with their case seed — a three-region partition, three-region message
/// chaos, and a two-region leader kill under message chaos with crash
/// windows. The metrics export is wall-clock, so only its line names and
/// types are pinned: one line per `Obs::metrics` entry, in that order.
#[test]
fn campaign_case_worlds() {
    let cc = CampaignConfig::default();
    let cases: [(usize, &[&str], [u64; 3]); 3] = [
        (
            2,
            &["chaos.partition", "chaos.heal", "plan.freeze", "slo.burn"],
            [
                0xd336_ee86_7d8c_c50b,
                0x2c6e_03d8_6af8_afb1,
                0x5e87_5c3c_5c7e_8b8a,
            ],
        ),
        (
            5,
            &["chaos.msg.drop", "report.retry"],
            [
                0xb2b9_7fe0_31f3_871a,
                0xd0bb_a8be_0820_ab24,
                0xba7d_a316_66ad_15b2,
            ],
        ),
        (
            15,
            &[
                "chaos.leader.kill",
                "leader.change",
                "chaos.msg.drop",
                "region.quarantine",
                "region.readmit",
            ],
            [
                0xd67b_bb06_d4a4_bc04,
                0xc5aa_21c6_88b0_7748,
                0x80af_4ba7_ed8c_c2c3,
            ],
        ),
    ];
    for (index, kinds, golden) in cases {
        let case = build_case(&cc, index);
        let mut cfg = case.cfg;
        let plan = cfg
            .fault_plan
            .as_ref()
            .expect("campaign cases carry a plan");
        assert!(!kill_meets_revival(plan, cfg.era.as_micros()));
        cfg.obs = ObsConfig::traced(case.case_seed);
        let cl = check(
            &format!("campaign case {index}"),
            framework_loop(&cfg),
            kinds,
            golden,
        );
        let metrics = cl.obs().metrics();
        let jsonl = cl.obs().metrics_jsonl();
        assert_eq!(jsonl.lines().count(), metrics.len());
        for (line, m) in jsonl.lines().zip(&metrics) {
            let v = json::parse(line).expect("metrics line parses");
            let kind = match m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            assert_eq!(v.get("name").and_then(JsonValue::as_str), Some(&*m.name));
            assert_eq!(v.get("type").and_then(JsonValue::as_str), Some(kind));
        }
    }
}
