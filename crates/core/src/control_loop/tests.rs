use super::monitor::fans_out;
use super::*;
use crate::policy::PolicyKind;
use crate::scenario::ScenarioAction;
use acm_pcam::RttfSource;

/// Builds a loop with oracle predictors (fast: no training phase).
fn oracle_loop(cfg: &ExperimentConfig) -> ControlLoop {
    let mut rng = SimRng::new(cfg.seed);
    let vmcs: Vec<Vmc> = cfg
        .regions
        .iter()
        .map(|spec| Vmc::new(spec.region.clone(), RttfSource::Oracle, rng.split()))
        .collect();
    ControlLoop::new(cfg, vmcs, rng)
}

fn fig3_cfg(policy: PolicyKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::two_region_fig3(policy, 42);
    cfg.predictor = crate::config::PredictorChoice::Oracle;
    cfg
}

/// The world-drift recipe shared by the lifecycle tests: a config
/// whose regions leak memory 3x faster than the profile the (stale)
/// predictors were trained on, with a hair-trigger drift monitor and
/// a lifecycle tuned to act within a short run.
fn drifted_cfg(policy: PolicyKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::two_region_fig3(policy, 42);
    for spec in &mut cfg.regions {
        spec.region.anomaly.leak_size_mb *= 3.0;
    }
    cfg.drift = acm_pcam::DriftConfig {
        window: 8,
        miss_bound: 0.25,
        min_samples: 2,
    };
    cfg.lifecycle = acm_pcam::LifecycleConfig {
        enabled: true,
        min_labelled_rows: 20,
        shadow_min_samples: 6,
        cooldown_eras: 4,
        ..Default::default()
    };
    cfg
}

/// Builds a model-backed loop. With `stale = true` every VMC serves a
/// model trained on the PRE-drift (default) anomaly profile of its
/// flavor, so reactive failures — and with them the refit machinery —
/// are guaranteed to appear; with `stale = false` the models are
/// trained on the config's own (drifted) profile and are competent.
fn model_loop(cfg: &ExperimentConfig, stale: bool) -> ControlLoop {
    serving_loop(cfg, &region_models(cfg, stale))
}

/// `model_loop`'s predictors, one per region. They are trained from a
/// fixed seed, so one set serves a loop at any `cfg.seed`.
fn region_models(cfg: &ExperimentConfig, stale: bool) -> Vec<acm_ml::toolchain::RttfPredictor> {
    use acm_ml::model::ModelKind;
    use acm_ml::toolchain::F2pmToolchain;
    use acm_pcam::training::{collect_database, CollectionConfig};
    let mut train_rng = SimRng::new(7);
    let quick = CollectionConfig {
        lambdas: vec![4.0, 8.0, 16.0],
        runs_per_lambda: 3,
        ..Default::default()
    };
    cfg.regions
        .iter()
        .map(|spec| {
            let anomaly = if stale {
                acm_vm::AnomalyConfig::default()
            } else {
                spec.region.anomaly.clone()
            };
            let db = collect_database(
                &spec.region.flavor,
                &anomaly,
                &spec.region.failure_spec,
                &quick,
                &mut train_rng,
            );
            F2pmToolchain {
                models: vec![ModelKind::RepTree],
            }
            .run(&db, &mut train_rng)
            .0
        })
        .collect()
}

/// The loop over `cfg` with `models` serving, one per region.
fn serving_loop(
    cfg: &ExperimentConfig,
    models: &[acm_ml::toolchain::RttfPredictor],
) -> ControlLoop {
    let mut rng = SimRng::new(cfg.seed);
    let vmcs: Vec<Vmc> = cfg
        .regions
        .iter()
        .zip(models)
        .map(|(spec, m)| {
            Vmc::new(
                spec.region.clone(),
                RttfSource::Model(m.clone()),
                rng.split(),
            )
        })
        .collect();
    ControlLoop::new(cfg, vmcs, rng)
}

#[test]
fn lifecycle_promotes_refit_models_under_drift() {
    let cfg = drifted_cfg(PolicyKind::AvailableResources);
    let mut cl = model_loop(&cfg, true);
    cl.run(40);
    let events = cl.obs().events_tail(usize::MAX);
    let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
    assert!(count("model.refit.start") >= 1, "no refit ever submitted");
    assert!(count("model.refit.done") >= 1, "no refit ever collected");
    assert!(count("model.promote") >= 1, "no candidate ever promoted");
    assert!(
        cl.vmcs()
            .iter()
            .any(|v| v.lifecycle().is_some_and(|l| l.version() > 1)),
        "no region is serving a refit model"
    );
    // The loop kept serving throughout the churn.
    assert_eq!(cl.telemetry().eras(), 40);
    assert!(cl.telemetry().total_completed() > 0);
    let s: f64 = cl.fractions().iter().sum();
    assert!((s - 1.0).abs() < 1e-9);
}

#[test]
fn poisoned_refits_are_never_promoted_by_the_loop() {
    let mut cfg = drifted_cfg(PolicyKind::AvailableResources);
    // Hair-trigger drift so refits keep coming in both phases.
    cfg.drift = acm_pcam::DriftConfig {
        window: 8,
        miss_bound: 0.01,
        min_samples: 1,
    };
    let mut cl = model_loop(&cfg, true);
    // Honest warm-up: the lifecycle replaces the stale offline model
    // with one fitted to the drifted live distribution.
    cl.run(30);
    let count_now = |cl: &ControlLoop, kind: &str| {
        cl.obs()
            .events_tail(usize::MAX)
            .iter()
            .filter(|e| e.kind == kind)
            .count()
    };
    assert!(count_now(&cl, "model.promote") >= 1, "no warm-up promotion");
    // Poisoned phase: every candidate is target-shuffled. Against a
    // live-fitted incumbent it must lose the shadow comparison — the
    // incumbent keeps serving untouched. A few eras drain refits that
    // were still in flight (honestly trained) when the poison landed.
    cl.set_lifecycle_poison(true);
    cl.run(10);
    let honest_promotions = count_now(&cl, "model.promote");
    let honest_refits = count_now(&cl, "model.refit.done");
    let versions_after_warmup: Vec<u64> = cl
        .vmcs()
        .iter()
        .map(|v| v.lifecycle().expect("lifecycle enabled").version())
        .collect();
    cl.run(40);
    assert!(
        count_now(&cl, "model.refit.done") > honest_refits,
        "poisoned phase collected no refits"
    );
    assert_eq!(
        count_now(&cl, "model.promote"),
        honest_promotions,
        "a poisoned model was promoted"
    );
    // No new promotions means versions can only stand still — or step
    // BACK, if the regression watch rolled back a drain-window
    // promotion that went sour (that is the watch doing its job).
    let versions_after_poison: Vec<u64> = cl
        .vmcs()
        .iter()
        .map(|v| v.lifecycle().expect("lifecycle enabled").version())
        .collect();
    for (before, after) in versions_after_warmup.iter().zip(&versions_after_poison) {
        assert!(after <= before, "version advanced without a promotion");
    }
    assert!(cl.telemetry().total_completed() > 0);
}

/// `poisoned_refits_are_never_promoted_by_the_loop`'s scenario over
/// seeds 1–40: 30 honest eras, the poison flip, 10 drain eras, 40 more.
/// A seed counts when any candidate submitted after the flip — trained
/// on label-shuffled rows — is ever promoted; a promotion is attributed
/// to the era of its `model.refit.start` by (region, version). With the
/// Lasso re-run in every refit and no skill gate, 31 of 40 seeds did.
#[test]
fn poisoned_refits_are_promoted_in_at_most_5_of_40_seeds() {
    let mut cfg = drifted_cfg(PolicyKind::AvailableResources);
    cfg.drift = acm_pcam::DriftConfig {
        window: 8,
        miss_bound: 0.01,
        min_samples: 1,
    };
    let models = region_models(&cfg, true);
    let candidate = |e: &acm_obs::EventRecord| {
        let region = e.field("region").and_then(Value::as_str);
        match (region, e.field("version")) {
            (Some(r), Some(Value::U64(v))) => (r.to_string(), *v),
            other => panic!("{}: no region/version: {other:?}", e.kind),
        }
    };
    let mut promoted_seeds = Vec::new();
    for seed in 1..=40 {
        cfg.seed = seed;
        let mut cl = serving_loop(&cfg, &models);
        cl.run(30);
        cl.set_lifecycle_poison(true);
        let flip_us = cl.now().as_micros();
        cl.run(50);
        let events = cl.obs().events_tail(usize::MAX);
        let poisoned: std::collections::BTreeSet<(String, u64)> = events
            .iter()
            .filter(|e| e.kind == "model.refit.start" && e.t_us > flip_us)
            .map(candidate)
            .collect();
        assert!(!poisoned.is_empty(), "seed {seed}: no poisoned refit");
        if events
            .iter()
            .any(|e| e.kind == "model.promote" && poisoned.contains(&candidate(e)))
        {
            promoted_seeds.push(seed);
        }
    }
    assert!(
        promoted_seeds.len() <= 5,
        "poisoned candidates promoted in seeds {promoted_seeds:?}"
    );
}

#[test]
fn a_lifecycle_swap_clears_its_regions_drift_window() {
    let cfg = drifted_cfg(PolicyKind::AvailableResources);
    let mut cl = model_loop(&cfg, true);
    let versions = |cl: &ControlLoop| -> Vec<u64> {
        cl.vmcs()
            .iter()
            .map(|v| v.lifecycle().expect("lifecycle enabled").version())
            .collect()
    };
    let fresh = format!("{:?}", cfg.drift.monitor());
    let mut swaps = 0;
    for _ in 0..40 {
        let before = versions(&cl);
        cl.step_era();
        for (j, (b, a)) in before.iter().zip(versions(&cl)).enumerate() {
            if *b != a {
                swaps += 1;
                let window = format!("{:?}", cl.drift[j]);
                assert_eq!(window, fresh, "region {j}: v{b} -> v{a} kept its window");
            }
        }
    }
    assert!(swaps > 0, "the world never swapped a model");
}

#[test]
fn lifecycle_run_is_deterministic_and_unperturbed_by_observability() {
    let on = drifted_cfg(PolicyKind::AvailableResources);
    let mut off = on.clone();
    off.obs = acm_obs::ObsConfig::noop();
    let mut a = model_loop(&on, true);
    let mut b = model_loop(&off, true);
    let mut c = model_loop(&on, true);
    a.run(40);
    b.run(40);
    c.run(40);
    // Same seed, same story — with or without instrumentation.
    assert_eq!(a.telemetry().to_csv(), b.telemetry().to_csv());
    assert_eq!(a.telemetry().to_csv(), c.telemetry().to_csv());
    assert_eq!(a.obs().events_len(), c.obs().events_len());
    assert_eq!(b.obs().events_len(), 0, "noop run must log nothing");
    let versions = |cl: &ControlLoop| -> Vec<Option<u64>> {
        cl.vmcs()
            .iter()
            .map(|v| v.lifecycle().map(|l| l.version()))
            .collect()
    };
    assert_eq!(versions(&a), versions(&b));
    assert_eq!(versions(&a), versions(&c));
}

#[test]
fn model_events_chain_drift_to_refit_to_promotion() {
    let mut cfg = drifted_cfg(PolicyKind::AvailableResources);
    cfg.obs = acm_obs::ObsConfig::traced(2026);
    let mut cl = model_loop(&cfg, true);
    cl.run(40);
    let events = cl.obs().events_tail(usize::MAX);
    let field = |e: &acm_obs::EventRecord, k: &str| match e.field(k) {
        Some(Value::U64(u)) => Some(*u),
        _ => None,
    };
    let spans_of = |kind: &str| -> Vec<u64> {
        events
            .iter()
            .filter(|e| e.kind == kind)
            .filter_map(|e| field(e, "span"))
            .collect()
    };
    let drift_spans = spans_of("drift.signal");
    let refit_spans = spans_of("model.refit.start");
    assert!(!drift_spans.is_empty(), "traced run saw no drift.signal");
    assert!(!refit_spans.is_empty(), "traced run saw no refit");
    // Every refit chains off a drift signal (or the era root before
    // the first signal of its region); at least one must chain off a
    // drift.signal span — the whole point of the why-chain.
    let refit_causes: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == "model.refit.start")
        .filter_map(|e| field(e, "cause"))
        .collect();
    assert!(
        refit_causes.iter().any(|c| drift_spans.contains(c)),
        "no refit chains off a drift.signal"
    );
    // Every promotion chains off the refit that produced it.
    let promote_causes: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == "model.promote")
        .filter_map(|e| field(e, "cause"))
        .collect();
    assert!(!promote_causes.is_empty(), "traced run saw no promotion");
    assert!(
        promote_causes.iter().all(|c| refit_spans.contains(c)),
        "a promotion does not chain off its refit"
    );
}

#[test]
fn lifecycle_metrics_report_versions_and_shadow_errors() {
    let cfg = drifted_cfg(PolicyKind::AvailableResources);
    let mut cl = model_loop(&cfg, true);
    cl.run(40);
    let metrics = cl.obs().metrics();
    let gauge = |name: &str| -> Option<f64> {
        metrics.iter().find_map(|m| match &m.value {
            acm_obs::MetricValue::Gauge(v) if m.name == name => Some(*v),
            _ => None,
        })
    };
    for vmc in cl.vmcs() {
        let name = vmc.name();
        let v = gauge(&format!("acm.pcam.model.{name}.version"))
            .unwrap_or_else(|| panic!("missing version gauge for {name}"));
        assert_eq!(v, vmc.lifecycle().unwrap().version() as f64);
    }
}

#[test]
fn runs_the_requested_number_of_eras() {
    let cfg = fig3_cfg(PolicyKind::AvailableResources);
    let mut cl = oracle_loop(&cfg);
    cl.run(10);
    assert_eq!(cl.telemetry().eras(), 10);
    assert_eq!(cl.now(), SimTime::from_secs(300));
}

#[test]
fn fractions_stay_a_probability_vector() {
    let cfg = fig3_cfg(PolicyKind::Exploration);
    let mut cl = oracle_loop(&cfg);
    for _ in 0..30 {
        cl.step_era();
        let s: f64 = cl.fractions().iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "sum {s}");
        assert!(cl.fractions().iter().all(|f| *f > 0.0));
    }
}

#[test]
fn leader_is_region_zero_when_healthy() {
    let cfg = fig3_cfg(PolicyKind::SensibleRouting);
    let cl = oracle_loop(&cfg);
    assert_eq!(cl.election().leader(NodeId(0)), Some(NodeId(0)));
    assert_eq!(cl.election().leader(NodeId(1)), Some(NodeId(0)));
}

#[test]
fn policy2_converges_rmttf_on_fig3_deployment() {
    let cfg = fig3_cfg(PolicyKind::AvailableResources);
    let mut cl = oracle_loop(&cfg);
    cl.run(80);
    let tel = cl.into_telemetry();
    let spread = tel.rmttf_spread(20);
    assert!(spread < 1.35, "policy 2 should converge, spread {spread}");
}

#[test]
fn policy1_leaves_rmttf_unequal_on_fig3_deployment() {
    let cfg = fig3_cfg(PolicyKind::SensibleRouting);
    let mut cl = oracle_loop(&cfg);
    cl.run(80);
    let tel = cl.into_telemetry();
    let spread = tel.rmttf_spread(20);
    assert!(
        spread > 1.4,
        "policy 1 must not equalise heterogeneous regions, spread {spread}"
    );
}

#[test]
fn response_time_stays_under_the_sla() {
    for policy in PolicyKind::ALL {
        let cfg = fig3_cfg(policy);
        let mut cl = oracle_loop(&cfg);
        cl.run(60);
        let tel = cl.into_telemetry();
        let resp = tel.tail_response(30);
        assert!(resp < 1.0, "{policy}: tail response {resp}");
    }
}

#[test]
fn link_fault_suspends_plan_updates_for_the_cut_region() {
    let mut cfg = fig3_cfg(PolicyKind::AvailableResources);
    cfg.scenario.push(
        SimTime::from_secs(300),
        ScenarioAction::FailLink { a: 0, b: 1 },
    );
    cfg.scenario.push(
        SimTime::from_secs(600),
        ScenarioAction::RecoverLink { a: 0, b: 1 },
    );
    let mut cl = oracle_loop(&cfg);
    cl.run(40);
    // The run must survive the partition and keep serving.
    let tel = cl.telemetry();
    assert_eq!(tel.eras(), 40);
    assert!(tel.total_completed() > 0);
    // During the partition the leader's view of region 1 froze; after
    // recovery reports flow again and fractions keep summing to 1.
    let s: f64 = cl.fractions().iter().sum();
    assert!((s - 1.0).abs() < 1e-9);
}

#[test]
fn deterministic_per_seed() {
    let cfg = fig3_cfg(PolicyKind::Exploration);
    let mut a = oracle_loop(&cfg);
    let mut b = oracle_loop(&cfg);
    a.run(20);
    b.run(20);
    assert_eq!(a.telemetry().to_csv(), b.telemetry().to_csv());
}

#[test]
fn different_seeds_differ() {
    let mut cfg = fig3_cfg(PolicyKind::Exploration);
    let mut a = oracle_loop(&cfg);
    cfg.seed = 43;
    let mut b = oracle_loop(&cfg);
    a.run(20);
    b.run(20);
    assert_ne!(a.telemetry().to_csv(), b.telemetry().to_csv());
}

#[test]
fn runtime_policy_switch_rescues_policy1() {
    // Start with the non-converging sensible routing, switch to the
    // resource estimator mid-run: the RMTTFs must then equalise.
    let cfg = fig3_cfg(PolicyKind::SensibleRouting);
    let mut cl = oracle_loop(&cfg);
    cl.run(50);
    let spread_before = {
        let t = cl.telemetry();
        t.rmttf_spread(15)
    };
    assert!(
        spread_before > 1.4,
        "P1 should be diverged: {spread_before}"
    );
    cl.set_policy(PolicyKind::AvailableResources);
    cl.run(50);
    let spread_after = cl.telemetry().rmttf_spread(15);
    assert!(
        spread_after < 1.2,
        "switching to P2 should converge the system: {spread_after}"
    );
}

#[test]
fn observability_never_perturbs_the_run() {
    // Instrumented and uninstrumented runs must yield byte-identical
    // telemetry for the same seed: instruments observe, never steer.
    let on = fig3_cfg(PolicyKind::Exploration);
    let mut off = on.clone();
    off.obs = acm_obs::ObsConfig::noop();
    let mut a = oracle_loop(&on);
    let mut b = oracle_loop(&off);
    a.run(25);
    b.run(25);
    assert!(a.obs().events_len() > 0, "instrumented run logged nothing");
    assert_eq!(b.obs().events_len(), 0, "noop run must log nothing");
    assert_eq!(a.telemetry().to_csv(), b.telemetry().to_csv());
}

#[test]
fn decision_log_covers_plans_ewma_and_phase_timers() {
    let cfg = fig3_cfg(PolicyKind::AvailableResources);
    let mut cl = oracle_loop(&cfg);
    cl.run(5);
    let events = cl.obs().events_tail(usize::MAX);
    let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
    // Every era installs a plan (no faults) and smooths both regions.
    assert_eq!(count("plan.install"), 5);
    assert_eq!(count("ewma.update"), 10);
    assert_eq!(count("report.lost"), 0);
    // The four MAPE phases tile the era: on the plain loop, on the
    // lifecycle-on drifted loop (refits, verdicts) and on a degraded
    // chaos loop (retries, quarantine, freezes), every era is timed once
    // by each of the five timers and the four phase sums add up to the
    // era sum to the nanosecond.
    let phase = |cl: &ControlLoop, phase: &str| {
        let name = format!("acm.core.control_loop.{phase}_ns");
        cl.obs().metrics().into_iter().find_map(|m| match m.value {
            acm_obs::MetricValue::Histogram(h) if m.name == name => Some(h),
            _ => None,
        })
    };
    let mut drifted = model_loop(&drifted_cfg(PolicyKind::AvailableResources), true);
    drifted.run(12);
    let mut chaotic = oracle_loop(&scaled_chaos_cfg());
    chaotic.run(12);
    for (cl, eras) in [(&cl, 5), (&drifted, 12), (&chaotic, 12)] {
        let era = phase(cl, "era").expect("era_ns missing");
        assert_eq!(era.count, eras);
        let mut sum = 0;
        for name in ["monitor", "analyze", "plan", "execute"] {
            let h = phase(cl, name).unwrap_or_else(|| panic!("{name}_ns missing"));
            assert_eq!(h.count, eras, "{name}_ns samples");
            sum += h.sum;
        }
        assert_eq!(sum, era.sum, "the phase timers do not tile the era");
    }
    // A disabled hub registers none of them (and reads no clock).
    let mut off = fig3_cfg(PolicyKind::AvailableResources);
    off.obs = acm_obs::ObsConfig::noop();
    let mut quiet = oracle_loop(&off);
    quiet.run(2);
    for name in ["era", "monitor", "analyze", "plan", "execute"] {
        assert!(phase(&quiet, name).is_none(), "{name}_ns on a noop hub");
    }
}

#[test]
fn policy_switch_and_partition_reach_the_decision_log() {
    let mut cfg = fig3_cfg(PolicyKind::SensibleRouting);
    cfg.scenario.push(
        SimTime::from_secs(60),
        ScenarioAction::FailLink { a: 0, b: 1 },
    );
    cfg.scenario.push(
        SimTime::from_secs(120),
        ScenarioAction::RecoverLink { a: 0, b: 1 },
    );
    let mut cl = oracle_loop(&cfg);
    cl.run(3);
    cl.set_policy(PolicyKind::AvailableResources);
    cl.run(7);
    let events = cl.obs().events_tail(usize::MAX);
    let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(count("policy.switch"), 1);
    // The partition cut region 1 off the leader for two eras.
    assert!(count("report.lost") > 0);
    // Events carry simulated time, bounded by the run horizon. (They
    // are logged in region order within an era, so timestamps are only
    // monotone per region, not globally.)
    let horizon = cl.now().as_micros();
    assert!(events.iter().all(|e| e.t_us <= horizon));
    assert_eq!(events.first().map(|e| e.seq), Some(0));
}

#[test]
fn degradation_with_no_faults_is_inert() {
    // Enabling degradation must not change a healthy run: no report is
    // ever lost, so the tracker never acts and the telemetry matches
    // the disabled path byte for byte.
    let base = fig3_cfg(PolicyKind::AvailableResources);
    let mut degraded = base.clone();
    degraded.degradation = crate::degrade::DegradationConfig::enabled();
    let mut a = oracle_loop(&base);
    let mut b = oracle_loop(&degraded);
    a.run(25);
    b.run(25);
    assert_eq!(a.telemetry().to_csv(), b.telemetry().to_csv());
}

#[test]
fn empty_fault_plan_is_byte_identical_to_no_plan() {
    let base = fig3_cfg(PolicyKind::Exploration);
    let mut chaotic = base.clone();
    chaotic.fault_plan = Some(acm_overlay::FaultPlan::default());
    let mut a = oracle_loop(&base);
    let mut b = oracle_loop(&chaotic);
    a.run(25);
    b.run(25);
    assert_eq!(a.telemetry().to_csv(), b.telemetry().to_csv());
    assert_eq!(a.obs().events_jsonl(), b.obs().events_jsonl());
}

#[test]
fn partitioned_region_is_quarantined_and_gets_zero_flow() {
    let mut cfg = fig3_cfg(PolicyKind::AvailableResources);
    cfg.degradation = crate::degrade::DegradationConfig::enabled();
    cfg.fault_plan = Some(
        acm_overlay::FaultPlan::scripted(5, Vec::new()).partition_window(
            vec![NodeId(1)],
            SimTime::from_secs(300),
            SimTime::from_secs(100_000), // never heals inside the run
        ),
    );
    let mut cl = oracle_loop(&cfg);
    cl.run(30);
    assert_eq!(cl.fractions()[1], 0.0, "quarantined region gets no flow");
    assert!((cl.fractions()[0] - 1.0).abs() < 1e-9, "flow redistributed");
    let events = cl.obs().events_tail(usize::MAX);
    assert!(events.iter().any(|e| e.kind == "region.quarantine"));
    assert!(events.iter().any(|e| e.kind == "chaos.partition"));
    // Plans keep installing on the live subset (no global freeze).
    let installs = events.iter().filter(|e| e.kind == "plan.install").count();
    assert!(installs >= 25, "installs continued: {installs}");
}

#[test]
fn one_suspicion_per_silence_and_none_on_a_delivering_era() {
    let mut cfg = fig3_cfg(PolicyKind::AvailableResources);
    cfg.obs = acm_obs::ObsConfig::traced(2026); // heartbeat.timeout is trace-only
    cfg.degradation = crate::degrade::DegradationConfig::enabled();
    // 30 s eras: the second missed report (60 s of silence) crosses 50 s.
    cfg.degradation.suspicion_timeout = Duration::from_secs(50);
    let t = SimTime::from_secs;
    cfg.fault_plan = Some(
        acm_overlay::FaultPlan::scripted(5, Vec::new())
            .partition_window(vec![NodeId(1)], t(300), t(600))
            .partition_window(vec![NodeId(1)], t(900), t(1200)),
    );
    let mut cl = oracle_loop(&cfg);
    cl.run(45);
    let events = cl.obs().events_tail(usize::MAX);
    let lost: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == "report.lost")
        .map(|e| e.t_us)
        .collect();
    let timeouts: Vec<_> = events
        .iter()
        .filter(|e| e.kind == "heartbeat.timeout")
        .collect();
    assert_eq!(timeouts.len(), 2, "one per silence");
    for e in &timeouts {
        assert!(lost.contains(&e.t_us), "suspected while delivering");
        assert!(
            lost.contains(&(e.t_us - 30_000_000)),
            "reported on the silence's second missed era"
        );
        assert_eq!(e.field("node"), Some(&Value::U64(1)));
        assert_eq!(e.field("silent_us"), Some(&Value::U64(60_000_000)));
    }
}

#[test]
fn healed_region_is_readmitted_with_hysteresis() {
    let mut cfg = fig3_cfg(PolicyKind::AvailableResources);
    cfg.degradation = crate::degrade::DegradationConfig::enabled();
    cfg.fault_plan = Some(
        acm_overlay::FaultPlan::scripted(5, Vec::new()).partition_window(
            vec![NodeId(1)],
            SimTime::from_secs(300), // era 10
            SimTime::from_secs(600), // heals at era 20
        ),
    );
    let mut cl = oracle_loop(&cfg);
    cl.run(40);
    let events = cl.obs().events_tail(usize::MAX);
    let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(count("region.quarantine"), 1, "one outage, one quarantine");
    assert_eq!(count("region.probation"), 1);
    assert_eq!(count("region.readmit"), 1, "no oscillation after heal");
    // Flow returned to the healed region after the hysteresis.
    assert!(cl.fractions()[1] > 0.0);
    // Zero flow while unreachable: probation (3 eras) ends well before
    // era 30; check the fraction series went to zero and came back.
    let fr1: Vec<f64> = cl.telemetry().fraction(1).values().collect();
    assert!(fr1[15].abs() < 1e-12, "mid-partition flow must be zero");
    assert!(fr1[39] > 0.0, "flow restored by the end");
    // Once re-admitted, the region never flaps back out.
    assert!(
        fr1.iter().rev().take(5).all(|f| *f > 0.0),
        "no oscillation in the tail"
    );
}

#[test]
fn workload_is_actually_served() {
    let cfg = fig3_cfg(PolicyKind::AvailableResources);
    let mut cl = oracle_loop(&cfg);
    cl.run(20);
    let tel = cl.telemetry();
    // ~87 req/s for 600 s ≈ 50k requests.
    assert!(
        tel.total_completed() > 30_000,
        "completed {}",
        tel.total_completed()
    );
    // Proactive maintenance happened.
    assert!(tel.total_proactive() > 0);
}

/// A five-region world with every pool and population scaled × 8
/// (320 VMs, so the work-based layout gives it 5 shards), a partition
/// window, message chaos and degradation — enough to make VMCs emit
/// from inside the shards and the leader quarantine around them.
fn scaled_chaos_cfg() -> ExperimentConfig {
    use crate::config::RegionSpec;
    use acm_workload::ClientSchedule;
    let mut cfg = fig3_cfg(PolicyKind::AvailableResources);
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
    cfg.degradation = crate::degrade::DegradationConfig::enabled();
    cfg.fault_plan = Some(
        acm_overlay::FaultPlan::scripted(5, Vec::new())
            .partition_window(
                vec![NodeId(3)],
                SimTime::from_secs(150),
                SimTime::from_secs(450),
            )
            .with_message_chaos(0.05, Duration::from_millis(20)),
    );
    cfg.obs = acm_obs::ObsConfig::traced(77);
    cfg
}

/// The VMs a world's pools start with.
fn pool_vms(cfg: &ExperimentConfig) -> usize {
    cfg.regions.iter().map(|r| r.region.total_vms).sum()
}

/// `n` regions cycling the three paper flavors, pools scaled by `scale`.
fn cycled_vms(n: usize, scale: usize) -> usize {
    let flavors = [
        ExperimentConfig::region1_ireland(),
        ExperimentConfig::region2_frankfurt(),
        ExperimentConfig::region3_munich(),
    ];
    (0..n).map(|i| flavors[i % 3].total_vms * scale).sum()
}

#[test]
fn monitor_fans_out_only_past_128_pool_vms() {
    let fig3 = fig3_cfg(PolicyKind::AvailableResources);
    let fig4 = ExperimentConfig::three_region_fig4(PolicyKind::AvailableResources, 42);
    for (vms, expected, wide) in [
        // Paper-sized worlds stay inline at every width: fig3, fig4 and
        // the largest paper-scale randomized world (5 regions).
        (pool_vms(&fig3), 10, false),
        (pool_vms(&fig4), 22, false),
        (cycled_vms(5, 1), 40, false),
        // Worlds past the threshold map on the pool: this module's scaled
        // chaos world, the smallest x8 randomized world (2 regions) and
        // the 200-region mega world.
        (pool_vms(&scaled_chaos_cfg()), 320, true),
        (cycled_vms(2, 8), 144, true),
        (cycled_vms(200, 10), 14_700, true),
        (127, 127, false),
        (128, 128, true),
    ] {
        assert_eq!(vms, expected);
        assert_eq!(fans_out(vms), wide, "{vms} VMs");
    }
}

#[test]
fn pool_width_never_shows_in_the_results() {
    // The same scaled world (past the fan-out threshold) at pool widths
    // 1, 2 and 4 against width 1, so the regions' shared instruments are
    // written from one thread and from several: everything a run leaves
    // behind must agree.
    let cfg = scaled_chaos_cfg();
    assert!(fans_out(pool_vms(&cfg)));
    let run = |cfg: &ExperimentConfig| {
        let mut cl = oracle_loop(cfg);
        cl.run(25);
        cl
    };
    let _width = crate::POOL_WIDTH.lock().unwrap_or_else(|e| e.into_inner());
    let before = acm_exec::current_threads();
    acm_exec::configure_threads(1);
    let alone = run(&cfg);
    let log = alone.obs().events_jsonl();
    for kind in [
        "rejuvenation.proactive",
        "standby.activate",
        "region.quarantine",
    ] {
        assert!(log.contains(kind), "the world never produced {kind}");
    }
    // The Perfetto export's MONITOR row is the leader's phase slice.
    let timeline = alone.obs().timeline_recorder().expect("traced run");
    let timeline = timeline.to_chrome_json();
    assert!(timeline.contains(r#""name":"monitor""#) && !timeline.contains("shard"));

    // The same world on a log too small for it: kinds evict mid-run, and
    // the regions' staged events must evict alike at every width.
    let mut tiny = cfg.clone();
    tiny.obs.event_capacity = 8;
    let evicting = run(&tiny);
    assert!(evicting.obs().events_dropped() > 0, "nothing was evicted");

    for width in [1, 2, 4] {
        acm_exec::configure_threads(width);
        let wide = run(&cfg);
        let at = format!("{width} threads");
        assert_eq!(
            alone.telemetry().to_csv(),
            wide.telemetry().to_csv(),
            "{at}"
        );
        assert_eq!(log, wide.obs().events_jsonl(), "{at}");
        assert_eq!(alone.obs().spans_jsonl(), wide.obs().spans_jsonl(), "{at}");
        assert_same_metrics(alone.obs(), wide.obs(), &at);

        let wide = run(&tiny);
        let (a, b) = (evicting.obs(), wide.obs());
        assert_eq!(a.events_jsonl(), b.events_jsonl(), "{at}, evicting");
        assert_eq!(a.events_kind_stats(), b.events_kind_stats(), "{at}");
        assert_eq!(a.events_dropped(), b.events_dropped(), "{at}");
    }
    acm_exec::configure_threads(before);
}

/// Every metric of two runs of one world, up to wall-clock readings: the
/// same names, and the same values except that a timer need only agree on
/// its sample count.
fn assert_same_metrics(a: &acm_obs::Obs, b: &acm_obs::Obs, at: &str) {
    let (a, b) = (a.metrics(), b.metrics());
    assert_eq!(
        a.iter().map(|m| &m.name).collect::<Vec<_>>(),
        b.iter().map(|m| &m.name).collect::<Vec<_>>(),
        "the two runs registered different metrics ({at})"
    );
    for (ma, mb) in a.iter().zip(&b) {
        let name = ma.name.as_str();
        // The pool's own per-era sampling (one width dispatches MONITOR
        // tasks, the other none).
        if name.starts_with("acm.exec.") {
            continue;
        }
        match (&ma.value, &mb.value) {
            // Wall-clock timers: the same number of samples.
            (acm_obs::MetricValue::Histogram(ha), acm_obs::MetricValue::Histogram(hb))
                if name.ends_with("_ns") =>
            {
                assert_eq!(ha.count, hb.count, "{name} samples ({at})");
            }
            (va, vb) => assert_eq!(format!("{va:?}"), format!("{vb:?}"), "{name} ({at})"),
        }
    }
}
