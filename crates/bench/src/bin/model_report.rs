//! Model-lifecycle report.
//!
//! Drives the versioned model registry (drift-triggered refits, shadow
//! evaluation, promote/rollback) through the full control loop and
//! verifies its contract, writing the numbers to `BENCH_PR9.json` at the
//! repository root:
//!
//! * **Promotion under drift** — regions run a memory-leak profile 3x
//!   the one the serving models were trained on; the drift monitor must
//!   fire, refits must be handed over at their era boundary and at least
//!   one live-fitted candidate must be promoted.
//! * **Poison resistance** — after an honest warm-up, every refit is
//!   target-shuffled (the `poison_refits` chaos hook): the shadow gate
//!   must reject them all, the incumbent keeps serving.
//! * **Plan-phase isolation** — a refit trains at the close of EXECUTE
//!   and is handed over at the head of MONITOR, both outside the Plan
//!   span; the Plan-phase p99 with the lifecycle on must stay within a
//!   generous factor of the lifecycle-off baseline.
//! * **Why-chain completeness** — on a traced run every `model.promote`
//!   chains off its `model.refit.start`, and refits chain off the
//!   `drift.signal` that triggered them.
//! * **Thread-width identity** — telemetry, final model versions and the
//!   event count must be byte-identical at `ACM_THREADS` ∈ {1, 2, 4}.
//!
//! ```text
//! cargo run --release -p acm-bench --bin model_report [-- --gate]
//! ```

use acm_bench::Report;
use acm_core::config::ExperimentConfig;
use acm_core::control_loop::ControlLoop;
use acm_core::policy::PolicyKind;
use acm_ml::model::ModelKind;
use acm_ml::toolchain::{F2pmToolchain, RttfPredictor};
use acm_obs::{EventRecord, Value};
use acm_pcam::training::{collect_database, CollectionConfig};
use acm_pcam::{DriftConfig, LifecycleConfig, RttfSource, Vmc};
use acm_sim::rng::SimRng;
use std::time::Instant;

/// Eras of the promotion scenario.
const PROMOTION_ERAS: usize = 60;
/// Honest warm-up, drain and poisoned-phase eras of the poison scenario.
const POISON_WARMUP_ERAS: usize = 30;
const POISON_DRAIN_ERAS: usize = 10;
const POISON_ERAS: usize = 40;
/// Plan-phase p99 with the lifecycle on may exceed the lifecycle-off
/// baseline by at most this factor (refits must never run inside Plan).
const PLAN_P99_FACTOR: f64 = 10.0;
/// Absolute escape hatch for the plan-phase gate: when both p99s are
/// this small the ratio is noise, not a regression.
const PLAN_P99_ESCAPE_NS: f64 = 1_000_000.0;

/// The drifted deployment: Fig. 3 regions leaking memory 3x faster than
/// any training profile assumed, a sensitive drift monitor and a
/// lifecycle tuned to act within the scenario's era budget.
fn drifted_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 42);
    for spec in &mut cfg.regions {
        spec.region.anomaly.leak_size_mb *= 3.0;
    }
    cfg.drift = DriftConfig {
        window: 8,
        miss_bound: 0.25,
        min_samples: 2,
    };
    cfg.lifecycle = LifecycleConfig {
        enabled: true,
        min_labelled_rows: 20,
        shadow_min_samples: 6,
        cooldown_eras: 4,
        ..Default::default()
    };
    cfg
}

/// Trains one stale predictor per region: fitted to the DEFAULT anomaly
/// profile of the region's flavor, i.e. the world before it drifted.
fn train_stale_models(cfg: &ExperimentConfig) -> Vec<RttfPredictor> {
    let mut rng = SimRng::new(7);
    let quick = CollectionConfig {
        lambdas: vec![4.0, 8.0, 16.0],
        runs_per_lambda: 3,
        ..Default::default()
    };
    cfg.regions
        .iter()
        .map(|spec| {
            let db = collect_database(
                &spec.region.flavor,
                &acm_vm::AnomalyConfig::default(),
                &spec.region.failure_spec,
                &quick,
                &mut rng,
            );
            F2pmToolchain {
                models: vec![ModelKind::RepTree],
                ..Default::default()
            }
            .run(&db, &mut rng)
            .0
        })
        .collect()
}

/// Wires the control loop from pre-trained models (cloned per call so
/// every width/run starts from the identical state).
fn build_loop(cfg: &ExperimentConfig, models: &[RttfPredictor]) -> ControlLoop {
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

fn count(events: &[EventRecord], kind: &str) -> usize {
    events.iter().filter(|e| e.kind == kind).count()
}

fn versions(cl: &ControlLoop) -> Vec<u64> {
    cl.vmcs()
        .iter()
        .map(|v| v.lifecycle().map_or(0, |l| l.version()))
        .collect()
}

/// Promotion under injected drift: the whole pipeline must turn over.
fn promotion_scenario(report: &mut Report, models: &[RttfPredictor]) {
    let cfg = drifted_cfg();
    let mut cl = build_loop(&cfg, models);
    let start = Instant::now();
    cl.run(PROMOTION_ERAS);
    let wall = start.elapsed().as_secs_f64();
    report.push("promotion_eras_per_s", PROMOTION_ERAS as f64 / wall);

    let events = cl.obs().events_tail(usize::MAX);
    let started = count(&events, "model.refit.start");
    let done = count(&events, "model.refit.done");
    let promoted = count(&events, "model.promote");
    report.push("promotion_refits_started", started as f64);
    report.push("promotion_refits_done", done as f64);
    report.push("promotion_promotions", promoted as f64);
    report.push(
        "promotion_rejections",
        count(&events, "model.reject") as f64,
    );
    report.push(
        "promotion_rollbacks",
        count(&events, "model.rollback") as f64,
    );
    let vs = versions(&cl);
    report.push(
        "promotion_max_serving_version",
        *vs.iter().max().unwrap() as f64,
    );
    report.gate(started >= 1, "lifecycle: no refit ever submitted".into());
    report.gate(done >= 1, "lifecycle: no refit ever collected".into());
    report.gate(
        promoted >= 1,
        "lifecycle: drift never produced a promotion".into(),
    );
    report.gate(
        vs.iter().any(|v| *v > 1),
        "lifecycle: no region serves a refit model".into(),
    );
    // Every submitted refit is either handed over or still waiting out
    // its `refit_eras` at the cut — at most one pending per region.
    report.gate(
        started - done <= cl.vmcs().len(),
        format!(
            "lifecycle: {} refits submitted, only {done} collected",
            started
        ),
    );
}

/// Honest warm-up, then poisoned refits only: zero further promotions.
fn poison_scenario(report: &mut Report, models: &[RttfPredictor]) {
    let mut cfg = drifted_cfg();
    // Hair-trigger drift so refits keep coming in both phases.
    cfg.drift = DriftConfig {
        window: 8,
        miss_bound: 0.01,
        min_samples: 1,
    };
    let mut cl = build_loop(&cfg, models);
    cl.run(POISON_WARMUP_ERAS);
    cl.set_lifecycle_poison(true);
    // Drain refits that were in flight (honestly trained) at the flip.
    cl.run(POISON_DRAIN_ERAS);
    let events = cl.obs().events_tail(usize::MAX);
    let honest_promotions = count(&events, "model.promote");
    let honest_refits = count(&events, "model.refit.done");
    report.push("poison_honest_promotions", honest_promotions as f64);
    report.gate(
        honest_promotions >= 1,
        "poison: warm-up produced no promotion to defend".into(),
    );

    cl.run(POISON_ERAS);
    let events = cl.obs().events_tail(usize::MAX);
    let final_promotions = count(&events, "model.promote");
    let final_refits = count(&events, "model.refit.done");
    report.push(
        "poison_phase_refits_done",
        (final_refits - honest_refits) as f64,
    );
    report.push(
        "poison_phase_promotions",
        (final_promotions - honest_promotions) as f64,
    );
    report.gate(
        final_refits > honest_refits,
        "poison: poisoned phase collected no refits".into(),
    );
    report.gate(
        final_promotions == honest_promotions,
        format!(
            "poison: {} target-shuffled candidate(s) promoted",
            final_promotions - honest_promotions
        ),
    );
}

/// Plan-phase p99 with the lifecycle on vs off: refits must never leak
/// into the leader's Plan span.
fn plan_isolation_scenario(report: &mut Report, models: &[RttfPredictor]) {
    let plan_p99 = |cfg: &ExperimentConfig| -> f64 {
        let mut cl = build_loop(cfg, models);
        cl.run(PROMOTION_ERAS);
        cl.obs()
            .metrics()
            .iter()
            .find_map(|m| match &m.value {
                acm_obs::MetricValue::Histogram(h) if m.name == "acm.core.control_loop.plan_ns" => {
                    Some(h.p99() as f64)
                }
                _ => None,
            })
            .expect("plan timer histogram missing")
    };
    let on = plan_p99(&drifted_cfg());
    let mut off_cfg = drifted_cfg();
    off_cfg.lifecycle.enabled = false;
    let off = plan_p99(&off_cfg);
    report.push("plan_p99_ns_lifecycle_on", on);
    report.push("plan_p99_ns_lifecycle_off", off);
    let ok = on <= off * PLAN_P99_FACTOR || on <= PLAN_P99_ESCAPE_NS;
    report.gate(
        ok,
        format!("plan isolation: p99 {on:.0}ns vs baseline {off:.0}ns exceeds {PLAN_P99_FACTOR}x"),
    );
}

/// Traced run: the drift -> refit -> promote why-chain must be complete.
fn trace_chain_scenario(report: &mut Report, models: &[RttfPredictor]) {
    let mut cfg = drifted_cfg();
    cfg.obs = acm_obs::ObsConfig::traced(2026);
    let mut cl = build_loop(&cfg, models);
    cl.run(PROMOTION_ERAS);
    let events = cl.obs().events_tail(usize::MAX);
    let field = |e: &EventRecord, k: &str| -> Option<u64> {
        e.fields.iter().find_map(|(n, v)| match (n, v) {
            (name, Value::U64(u)) if *name == k => Some(*u),
            _ => None,
        })
    };
    let spans_of = |kind: &str| -> Vec<u64> {
        events
            .iter()
            .filter(|e| e.kind == kind)
            .filter_map(|e| field(e, "span"))
            .collect()
    };
    let causes_of = |kind: &str| -> Vec<u64> {
        events
            .iter()
            .filter(|e| e.kind == kind)
            .filter_map(|e| field(e, "cause"))
            .collect()
    };
    let drift_spans = spans_of("drift.signal");
    let refit_spans = spans_of("model.refit.start");
    let refit_causes = causes_of("model.refit.start");
    let promote_causes = causes_of("model.promote");
    let refits_off_drift = refit_causes
        .iter()
        .filter(|c| drift_spans.contains(c))
        .count();
    let promotes_off_refit = promote_causes
        .iter()
        .filter(|c| refit_spans.contains(c))
        .count();
    report.push("trace_drift_signals", drift_spans.len() as f64);
    report.push("trace_refits_chained_to_drift", refits_off_drift as f64);
    report.push("trace_promotes_chained_to_refit", promotes_off_refit as f64);
    report.gate(
        !drift_spans.is_empty(),
        "trace: no drift.signal root".into(),
    );
    report.gate(
        refits_off_drift >= 1,
        "trace: no refit chains off a drift.signal".into(),
    );
    report.gate(
        !promote_causes.is_empty() && promotes_off_refit == promote_causes.len(),
        "trace: a promotion does not chain off its refit".into(),
    );
}

/// The full lifecycle loop at 1/2/4 threads: telemetry, event count and
/// final serving versions must be identical at every width.
fn width_scenario(report: &mut Report, models: &[RttfPredictor]) {
    let cfg = drifted_cfg();
    let before = acm_exec::current_threads();
    let mut baseline: Option<(String, usize, Vec<u64>)> = None;
    for threads in [1usize, 2, 4] {
        acm_exec::configure_threads(threads);
        let mut cl = build_loop(&cfg, models);
        let start = Instant::now();
        cl.run(PROMOTION_ERAS);
        let wall = start.elapsed().as_secs_f64();
        acm_exec::configure_threads(before);
        report.push(
            &format!("width_eras_per_s_{threads}t"),
            PROMOTION_ERAS as f64 / wall,
        );
        let state = (
            cl.telemetry().to_csv(),
            cl.obs().events_len(),
            versions(&cl),
        );
        match &baseline {
            None => baseline = Some(state),
            Some(b) => {
                let identical = *b == state;
                report.push(
                    &format!("width_identity_1t_vs_{threads}t_ok"),
                    f64::from(identical),
                );
                report.gate(
                    identical,
                    format!("width: lifecycle run diverges between 1 and {threads} threads"),
                );
            }
        }
    }
}

fn main() {
    let gate = acm_bench::flags("model_report", &["--gate"]).has("--gate");
    let mut report = Report::default();

    println!(
        "model-lifecycle report ({} mode, {} cores)\n",
        if gate { "gated" } else { "report" },
        acm_exec::available_threads()
    );
    println!("training stale per-region models (pre-drift profiles)");
    let cfg = drifted_cfg();
    let models = train_stale_models(&cfg);

    println!("\npromotion under injected drift ({PROMOTION_ERAS} eras)");
    promotion_scenario(&mut report, &models);
    println!("\npoisoned refits after an honest warm-up");
    poison_scenario(&mut report, &models);
    println!("\nplan-phase isolation (lifecycle on vs off)");
    plan_isolation_scenario(&mut report, &models);
    println!("\nwhy-chain completeness (traced run)");
    trace_chain_scenario(&mut report, &models);
    println!("\nthread-width sweep (1/2/4 threads)");
    width_scenario(&mut report, &models);

    report.finish("BENCH_PR9.json", "all gates hold", true);
}
