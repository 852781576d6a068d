//! Causal-tracing report: why-chains, era timeline, SLO burn summary.
//!
//! Replays the deterministic chaos scenarios of the robustness PR with
//! causal tracing enabled, reconstructs the why-chain behind every
//! quarantine / readmit / re-plan decision (fault → suspicion →
//! quarantine → re-plan → readmit), writes the leader's era timeline as
//! Chrome trace-event JSON (`trace_timeline.json`, loadable in Perfetto
//! or `chrome://tracing`) and the scenario numbers to `BENCH_PR7.json`
//! at the repository root.
//!
//! ```text
//! cargo run --release -p acm-bench --bin trace_report [-- --gate]
//! ```
//!
//! `--gate` additionally enforces the tracing acceptance criteria and
//! exits nonzero on any violation:
//!
//! * **complete chains** — every `region.quarantine` decision walks
//!   parent links back to a chaos or heartbeat-timeout root, and every
//!   decision event (`plan.*`, `region.*`, `leader.change`) carries a
//!   resolvable trace annotation: zero orphans;
//! * **determinism** — a traced chaos replay is byte-identical
//!   (telemetry CSV, event log, span tree) at 1 and 4 worker threads;
//! * **cost** — tracing disabled stays within [`NOOP_BUDGET`] of a
//!   fully disabled hub (the dormant branches are free), and tracing
//!   enabled stays within [`TRACED_BUDGET`] of the untraced run.
//!
//! Every scenario is seed-fixed, so apart from the wall-clock overhead
//! section the report is stable across machines.

use acm_bench::Report;
use acm_core::config::{ExperimentConfig, PredictorChoice};
use acm_core::framework::run_experiment_with_obs;
use acm_core::policy::PolicyKind;
use acm_core::telemetry::ExperimentTelemetry;
use acm_core::DegradationConfig;
use acm_obs::{Obs, ObsConfig, ObsHandle, SpanRecord, Value};
use acm_overlay::{FaultPlan, HeartbeatConfig, NodeId};
use acm_sim::time::{Duration, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

/// Era length of the paper deployments (seconds).
const ERA_S: u64 = 30;
/// Tracing-off overhead budget vs a fully disabled hub (ratio - 1).
const NOOP_BUDGET: f64 = 0.02;
/// Tracing-on overhead budget vs the untraced run (ratio - 1).
const TRACED_BUDGET: f64 = 0.25;
/// Decision kinds that must never be causally orphaned.
const DECISION_KINDS: [&str; 6] = [
    "plan.install",
    "plan.freeze",
    "region.quarantine",
    "region.probation",
    "region.readmit",
    "leader.change",
];

fn run_traced(cfg: &ExperimentConfig, trace_seed: u64) -> (ExperimentTelemetry, ObsHandle) {
    let obs = Obs::new(ObsConfig::traced(trace_seed));
    let tel = run_experiment_with_obs(cfg, obs.clone());
    (tel, obs)
}

/// Walks `id` to its root span, returning the chain (self first).
fn chain<'a>(by_id: &BTreeMap<u64, &'a SpanRecord>, mut id: u64) -> Vec<&'a SpanRecord> {
    let mut out = Vec::new();
    loop {
        let Some(s) = by_id.get(&id) else { return out };
        out.push(*s);
        if s.parent == 0 || out.len() > 64 {
            return out;
        }
        id = s.parent;
    }
}

fn span_field(fields: &[(&'static str, Value)], key: &str) -> Option<u64> {
    fields.iter().find_map(|(k, v)| match (k, v) {
        (k, Value::U64(id)) if *k == key => Some(*id),
        _ => None,
    })
}

fn print_chain(label: &str, t_us: u64, links: &[&SpanRecord]) {
    println!("  why {label} @ t={:.1}s:", t_us as f64 / 1e6);
    for (i, s) in links.iter().enumerate() {
        let arrow = if i == 0 { "   " } else { "<- " };
        println!(
            "    {arrow}{:<22} t={:>7.1}s  span={:016x}",
            s.name,
            s.t_us as f64 / 1e6,
            s.id
        );
    }
}

/// Chain-completeness over one traced run: every decision event carries
/// a resolvable span whose chain reaches a root, and every quarantine's
/// root is the fault evidence. Returns (decisions, orphans, quarantines,
/// quarantines_with_chaos_root).
fn audit_chains(label: &str, obs: &ObsHandle, print_chains: bool) -> (usize, usize, usize, usize) {
    let spans = obs.spans();
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut decisions = 0usize;
    let mut orphans = 0usize;
    let mut quarantines = 0usize;
    let mut rooted = 0usize;
    for e in obs.events_tail(usize::MAX) {
        if !DECISION_KINDS.contains(&e.kind) {
            continue;
        }
        decisions += 1;
        // A decision is orphaned when it lacks a span/trace annotation or
        // its chain dead-ends on a span the tracer never allocated.
        let Some(id) = span_field(&e.fields, "span").or_else(|| span_field(&e.fields, "cause"))
        else {
            orphans += 1;
            continue;
        };
        let links = chain(&by_id, id);
        if links.is_empty() || links.last().unwrap().parent != 0 {
            orphans += 1;
            continue;
        }
        if e.kind == "region.quarantine" {
            quarantines += 1;
            let root = links.last().unwrap().name;
            if root.starts_with("chaos.") || root == "fault.scripted" || root == "heartbeat.timeout"
            {
                rooted += 1;
            }
            if print_chains {
                print_chain(e.kind, e.t_us, &links);
            }
        } else if print_chains && (e.kind == "region.readmit" || e.kind == "leader.change") {
            print_chain(e.kind, e.t_us, &links);
        }
    }
    println!(
        "  [{label}] {decisions} decision events, {orphans} orphaned, \
         {quarantines} quarantines ({rooted} with chaos root)"
    );
    (decisions, orphans, quarantines, rooted)
}

/// SLO burn summary for one run: burn/recovery counts and the era-time
/// of the first burn and last recovery (seconds, NaN when absent).
fn slo_summary(obs: &ObsHandle) -> (usize, usize, f64, f64) {
    let events = obs.events_tail(usize::MAX);
    let burns: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == "slo.burn")
        .map(|e| e.t_us)
        .collect();
    let recoveries: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == "slo.recovered")
        .map(|e| e.t_us)
        .collect();
    let first_burn = burns.first().map_or(f64::NAN, |t| *t as f64 / 1e6);
    let last_rec = recoveries.last().map_or(f64::NAN, |t| *t as f64 / 1e6);
    (burns.len(), recoveries.len(), first_burn, last_rec)
}

fn partition_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 2025);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = 60;
    cfg.fault_plan = Some(FaultPlan::scripted(1, Vec::new()).partition_window(
        vec![NodeId(1)],
        SimTime::from_secs(10 * ERA_S),
        SimTime::from_secs(20 * ERA_S),
    ));
    cfg.degradation = DegradationConfig::enabled();
    cfg
}

/// The partition scenario: ten eras of unreachability must produce a
/// fully rooted quarantine chain, an SLO burn inside the fault window
/// with recovery after the heal, and a non-trivial era timeline.
fn partition_scenario(report: &mut Report) {
    let cfg = partition_cfg();
    let (_tel, obs) = run_traced(&cfg, 2025);

    let (decisions, orphans, quarantines, rooted) = audit_chains("partition", &obs, true);
    report.push("partition_decision_events", decisions as f64);
    report.push("partition_orphan_decisions", orphans as f64);
    report.push("partition_quarantines_rooted", rooted as f64);
    report.gate(
        orphans == 0,
        format!("partition: {orphans} orphaned decision events"),
    );
    report.gate(
        quarantines > 0 && rooted == quarantines,
        format!("partition: {rooted}/{quarantines} quarantines reach a chaos root"),
    );

    let (burns, recoveries, first_burn, last_rec) = slo_summary(&obs);
    report.push("partition_slo_burns", burns as f64);
    report.push("partition_slo_recoveries", recoveries as f64);
    report.push("partition_slo_first_burn_s", first_burn);
    report.push("partition_slo_last_recovery_s", last_rec);
    let fail_s = (10 * ERA_S) as f64;
    let heal_s = (20 * ERA_S) as f64;
    report.gate(
        burns > 0 && first_burn >= fail_s && first_burn <= heal_s + 5.0 * ERA_S as f64,
        format!(
            "partition: first SLO burn at {first_burn}s, outside fault window [{fail_s}, {heal_s}]"
        ),
    );
    report.gate(
        recoveries > 0 && last_rec > heal_s,
        format!("partition: SLO never recovered after the heal at {heal_s}s"),
    );

    report.push("partition_spans", obs.spans().len() as f64);
    report.push("partition_spans_dropped", obs.spans_dropped() as f64);
    report.gate(
        obs.spans_dropped() == 0,
        "partition: span retention overflowed".to_string(),
    );

    // The era timeline: leader phases + shard + worker tracks.
    let timeline = obs
        .timeline_recorder()
        .expect("traced run records a timeline");
    report.push("partition_timeline_slices", timeline.len() as f64);
    report.gate(
        timeline.len() >= cfg.eras * 5, // monitor/analyze/plan/execute/era
        format!("partition: timeline too sparse ({} slices)", timeline.len()),
    );
    let json = timeline.to_chrome_json();
    match std::fs::write("trace_timeline.json", &json) {
        Ok(()) => println!("  wrote trace_timeline.json ({} bytes)", json.len()),
        Err(e) => eprintln!("  warning: cannot write trace_timeline.json: {e}"),
    }
}

/// Leader kill: the election outcome must chain back to the kill.
fn leader_kill_scenario(report: &mut Report) {
    let mut cfg = ExperimentConfig::three_region_fig4(PolicyKind::AvailableResources, 2025);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = 40;
    cfg.fault_plan =
        Some(FaultPlan::scripted(2, Vec::new()).kill_leader_at(SimTime::from_secs(10 * ERA_S)));
    cfg.degradation = DegradationConfig::enabled();
    let (_tel, obs) = run_traced(&cfg, 2025);

    let (decisions, orphans, _q, _r) = audit_chains("leader_kill", &obs, true);
    report.push("leader_kill_decision_events", decisions as f64);
    report.push("leader_kill_orphan_decisions", orphans as f64);
    report.gate(
        orphans == 0,
        format!("leader_kill: {orphans} orphaned decision events"),
    );

    // The post-kill leader.change must be caused by the kill itself.
    let spans = obs.spans();
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let caused_election = obs
        .events_tail(usize::MAX)
        .iter()
        .filter(|e| e.kind == "leader.change" && e.t_us >= 10 * ERA_S * 1_000_000)
        .any(|e| {
            span_field(&e.fields, "span").is_some_and(|id| {
                chain(&by_id, id)
                    .last()
                    .is_some_and(|root| root.name == "chaos.leader.kill")
            })
        });
    report.push(
        "leader_kill_election_rooted_at_kill",
        f64::from(u8::from(caused_election)),
    );
    report.gate(
        caused_election,
        "leader_kill: no re-election chains back to chaos.leader.kill".to_string(),
    );
}

/// Flap storm under the tolerant detector: chains must stay complete
/// even when nothing escalates to a quarantine (no spurious roots).
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
    let (_tel, obs) = run_traced(&cfg, 2025);

    let (decisions, orphans, quarantines, _r) = audit_chains("flap_storm", &obs, false);
    report.push("flap_storm_decision_events", decisions as f64);
    report.push("flap_storm_orphan_decisions", orphans as f64);
    report.push("flap_storm_quarantines", quarantines as f64);
    report.gate(
        orphans == 0,
        format!("flap_storm: {orphans} orphaned decision events"),
    );
    report.gate(
        quarantines == 0,
        format!("flap_storm: {quarantines} spurious quarantines"),
    );
    let (burns, _recs, _fb, _lr) = slo_summary(&obs);
    report.push("flap_storm_slo_burns", burns as f64);
}

/// The traced partition replay must be byte-identical — telemetry CSV,
/// event log and span tree — at 1 and 4 worker threads.
fn byte_identity_check(report: &mut Report) {
    let cfg = partition_cfg();
    let run_once = || {
        let (tel, obs) = run_traced(&cfg, 2025);
        (tel.to_csv(), obs.events_jsonl(), obs.spans_jsonl())
    };
    let before = acm_exec::current_threads();
    acm_exec::configure_threads(1);
    let sequential = run_once();
    acm_exec::configure_threads(4);
    let parallel = run_once();
    acm_exec::configure_threads(before);
    let identical = sequential == parallel;
    report.push(
        "byte_identity_traced_1t_vs_4t_ok",
        f64::from(u8::from(identical)),
    );
    report.gate(
        identical,
        "byte_identity: traced chaos replay diverges between 1 and 4 threads".to_string(),
    );
}

/// Wall-clock cost of the tracing layer, measured the way
/// `perf_report --obs-gate` measures the hub: interleaved rounds (DVFS
/// and scheduling drift dwarf a 2 % effect over A-then-B timing) and
/// minimum-of-rounds ratios — interference only ever adds time, so the
/// minimum is the robust estimate of the true cost.
///
/// * **dormant** (budget [`NOOP_BUDGET`]) — per-emit delta of `emit` on
///   an untraced hub vs raw `EventLog` pushes (the pre-tracing emit
///   body), scaled by the events an untraced run actually pushes: the
///   end-to-end share every non-traced run pays for this PR.
/// * **enabled** (budget [`TRACED_BUDGET`]) — the full partition
///   experiment with `ObsConfig::traced` vs `ObsConfig::default()`:
///   span allocation, ambient annotation and the era timeline, end to
///   end.
fn overhead_check(report: &mut Report) {
    const KINDS: [&str; 4] = ["bench.a", "bench.b", "bench.c", "bench.d"];
    const N: u64 = 8192;
    const ROUNDS: usize = 21;
    fn min(v: &[f64]) -> f64 {
        v.iter().copied().fold(f64::INFINITY, f64::min)
    }

    // Dormant branch: micro emit loop.
    let log = acm_obs::EventLog::new(4096);
    let untraced = Obs::new(ObsConfig::default());
    let pass_raw = |log: &acm_obs::EventLog| {
        let t0 = Instant::now();
        for i in 0..N {
            log.push(
                i,
                KINDS[(i % 4) as usize],
                vec![("a", Value::U64(i)), ("b", Value::U64(i ^ 1))],
            );
        }
        t0.elapsed().as_secs_f64()
    };
    let pass_emit = |obs: &ObsHandle| {
        let t0 = Instant::now();
        for i in 0..N {
            obs.emit(
                i,
                KINDS[(i % 4) as usize],
                vec![("a", Value::U64(i)), ("b", Value::U64(i ^ 1))],
            );
        }
        t0.elapsed().as_secs_f64()
    };
    let (mut raw_ts, mut emit_ts) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        pass_raw(&log);
        pass_emit(&untraced);
    }
    for _ in 0..ROUNDS {
        raw_ts.push(pass_raw(&log));
        emit_ts.push(pass_emit(&untraced));
    }
    // Per-emit cost of the dormant branch (seconds; clamped — the branch
    // cannot make emits faster, a negative delta is measurement noise).
    let per_emit_delta = ((min(&emit_ts) - min(&raw_ts)) / N as f64).max(0.0);
    report.push("overhead_raw_push_events_per_s", N as f64 / min(&raw_ts));
    report.push(
        "overhead_untraced_emit_events_per_s",
        N as f64 / min(&emit_ts),
    );

    // Enabled: full experiment, interleaved.
    let mut cfg = partition_cfg();
    cfg.eras = 30;
    let time_once = |obs_cfg: ObsConfig| {
        let obs = Obs::new(obs_cfg);
        let t0 = Instant::now();
        let _ = run_experiment_with_obs(&cfg, obs);
        t0.elapsed().as_secs_f64()
    };
    let _ = time_once(ObsConfig::default());
    let _ = time_once(ObsConfig::traced(2025));
    let (mut off_ts, mut on_ts) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        off_ts.push(time_once(ObsConfig::default()));
        on_ts.push(time_once(ObsConfig::traced(2025)));
    }
    let on_overhead = min(&on_ts) / min(&off_ts) - 1.0;
    report.push("overhead_untraced_experiment_s", min(&off_ts));
    report.push("overhead_traced_experiment_s", min(&on_ts));
    report.push("overhead_trace_on_pct", on_overhead * 100.0);
    report.gate(
        on_overhead < TRACED_BUDGET,
        format!(
            "overhead: enabled tracing costs {:.2}% end to end (budget {:.0}%)",
            on_overhead * 100.0,
            TRACED_BUDGET * 100.0
        ),
    );

    // Dormant cost at run level: the branch is only ever reached once per
    // emitted event, so its end-to-end share is (per-emit delta) × (events
    // the run actually pushed) / (run wall time). The micro delta
    // over-counts (it also swallows inlining and cache-layout differences
    // between the two call sites), so this is an upper bound.
    let emits = {
        let obs = Obs::new(ObsConfig::default());
        let _ = run_experiment_with_obs(&cfg, obs.clone());
        obs.events_len() as f64 + obs.events_dropped() as f64
    };
    let off_overhead = per_emit_delta * emits / min(&off_ts);
    report.push("overhead_run_emits", emits);
    report.push("overhead_trace_off_pct", off_overhead * 100.0);
    report.gate(
        off_overhead < NOOP_BUDGET,
        format!(
            "overhead: dormant tracing costs {:.3}% of an untraced run (budget {:.0}%)",
            off_overhead * 100.0,
            NOOP_BUDGET * 100.0
        ),
    );
}

fn main() {
    let gate = acm_bench::flags("trace_report", &["--gate"]).has("--gate");
    let mut report = Report::default();

    println!("causal tracing report (fixed seeds)\n");
    println!("partition + heal (Figure-3 deployment, eras 10..20)");
    partition_scenario(&mut report);
    println!("\nleader kill (Figure-4 deployment, era 10)");
    leader_kill_scenario(&mut report);
    println!("\nflap storm + message chaos (tolerant detector)");
    flap_storm_scenario(&mut report);
    println!("\nthread-width byte identity, tracing on");
    byte_identity_check(&mut report);
    println!("\nwall-clock overhead (interleaved rounds, minimum-of-rounds)");
    overhead_check(&mut report);

    report.finish("BENCH_PR7.json", "all tracing gates hold", gate);
}
