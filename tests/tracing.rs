//! Integration: causal tracing is deterministic and free of side effects.
//!
//! Three contracts, in order of importance:
//!
//! 1. **Byte-identity across widths, tracing ON** — span ids are derived
//!    from the trace seed and a leader-side counter, never from wall
//!    clock, thread ids or allocation order, so a traced randomized world
//!    produces the same span tree, event log and telemetry at any
//!    `ACM_THREADS`.
//! 2. **Tracing OFF changes nothing** — a run with `trace: false` emits
//!    the exact event stream of a build that never heard of tracing (no
//!    extra kinds, no extra fields).
//! 3. **Chains are complete** — every quarantine decision in a chaos run
//!    walks parent links back to a root cause (chaos fault, scripted
//!    fault, or the era itself), with no orphan spans, and every decision
//!    event resolves its span or cause to a root.

use acm::core::config::{ExperimentConfig, PredictorChoice, RegionSpec};
use acm::core::policy::PolicyKind;
use acm::core::DegradationConfig;
use acm::obs::{EventRecord, Obs, ObsConfig, ObsHandle, SpanRecord, Value};
use acm::overlay::{FaultPlan, NodeId};
use acm::sim::rng::SimRng;
use acm::sim::{Duration, SimTime};
use acm::workload::ClientSchedule;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::{BTreeMap, BTreeSet};

/// Same shape as the sharding suite's randomized world: 2-5 regions on
/// the paper flavors, full-mesh overlay, randomized faults with message
/// chaos, degradation on. `scale` multiplies every pool and client
/// population: 1 is paper-sized (MONITOR inline), 8 puts every such
/// world past the fan-out threshold so MONITOR maps on the exec pool.
fn randomized_config(seed: u64, scale: u32) -> ExperimentConfig {
    let mut gen = SimRng::new(seed ^ 0x7ace_7ace);
    let n = 2 + gen.index(4);
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 9000 + seed);
    cfg.name = format!("trace-prop-{seed}");
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
            let clients = ClientSchedule::Constant((64 + gen.index(449) as u32) * scale);
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

/// One traced run: telemetry CSV, event log and span tree.
fn traced_run(cfg: &ExperimentConfig, trace_seed: u64) -> (String, String, String) {
    let obs = Obs::new(ObsConfig::traced(trace_seed));
    let tel = acm::core::framework::run_experiment_with_obs(cfg, obs.clone());
    (tel.to_csv(), obs.events_jsonl(), obs.spans_jsonl())
}

/// Contract 1 on one world: widths 1, 2 and 4 agree byte for byte.
fn assert_traced_width_identity(cfg: &ExperimentConfig, seed: u64) -> Result<(), TestCaseError> {
    let before = acm::exec::current_threads();
    acm::exec::configure_threads(1);
    let one = traced_run(cfg, seed);
    acm::exec::configure_threads(2);
    let two = traced_run(cfg, seed);
    acm::exec::configure_threads(4);
    let four = traced_run(cfg, seed);
    acm::exec::configure_threads(before);
    prop_assert!(!one.2.is_empty(), "traced run produced no spans");
    prop_assert_eq!(&one.0, &two.0, "telemetry diverged at 2 threads");
    prop_assert_eq!(&one.1, &two.1, "event log diverged at 2 threads");
    prop_assert_eq!(&one.2, &two.2, "span tree diverged at 2 threads");
    prop_assert_eq!(&one.0, &four.0, "telemetry diverged at 4 threads");
    prop_assert_eq!(&one.1, &four.1, "event log diverged at 4 threads");
    prop_assert_eq!(&one.2, &four.2, "span tree diverged at 4 threads");
    Ok(())
}

proptest! {
    /// Contract 1: full span tree + event log + telemetry are
    /// byte-identical at widths 1, 2 and 4 with tracing enabled, under a
    /// randomized fault plan. Paper-sized worlds run MONITOR inline.
    #[test]
    fn traced_randomized_worlds_are_byte_identical_across_widths(seed in 0u64..8) {
        assert_traced_width_identity(&randomized_config(seed, 1), seed)?;
    }

    /// Contract 1 past the fan-out threshold: the scaled worlds map
    /// MONITOR's regions on the exec pool (each VMC stages its decision
    /// events, emitted on the leader in region order at the barrier).
    #[test]
    fn traced_scaled_worlds_are_byte_identical_across_widths(seed in 0u64..8) {
        assert_traced_width_identity(&randomized_config(seed, 8), seed)?;
    }

    /// Contract 2: with tracing off, the event stream is byte-identical
    /// to the default configuration — enabling the subsystem but not the
    /// flag is a true no-op.
    #[test]
    fn disabled_tracing_leaves_the_event_stream_untouched(seed in 0u64..4) {
        let cfg = randomized_config(seed, 1);
        let run = |obs_cfg: ObsConfig| {
            let obs = Obs::new(obs_cfg);
            let tel = acm::core::framework::run_experiment_with_obs(&cfg, obs.clone());
            (tel.to_csv(), obs.events_jsonl(), obs.spans_jsonl())
        };
        let plain = run(ObsConfig::default());
        let off = run(ObsConfig { trace: false, trace_seed: 99, ..ObsConfig::default() });
        prop_assert_eq!(&plain.0, &off.0);
        prop_assert_eq!(&plain.1, &off.1, "trace-off event stream differs");
        prop_assert!(off.2.is_empty(), "trace-off run allocated spans");
    }
}

/// Walks `span` to its root, returning the chain of names (self first).
/// Panics on a broken parent link or a cycle.
fn chain_to_root(spans: &BTreeMap<u64, &SpanRecord>, mut id: u64) -> Vec<&'static str> {
    let mut names = Vec::new();
    let mut hops = 0;
    loop {
        let s = spans.get(&id).expect("parent link points at a real span");
        names.push(s.name);
        if s.parent == 0 {
            return names;
        }
        id = s.parent;
        hops += 1;
        assert!(hops < 64, "cycle or absurd depth in span tree");
    }
}

/// The `u64` field `key` of an event (span and cause ids).
fn field_u64(e: &EventRecord, key: &str) -> Option<u64> {
    match e.field(key) {
        Some(Value::U64(id)) => Some(*id),
        _ => None,
    }
}

/// Every decision event of a traced run resolves its `span` (or `cause`)
/// through real parent links to a root: zero orphans.
fn assert_decisions_rooted(obs: &ObsHandle, by_id: &BTreeMap<u64, &SpanRecord>) {
    let decisions = [
        "plan.install",
        "plan.freeze",
        "region.quarantine",
        "region.probation",
        "region.readmit",
        "leader.change",
    ];
    for e in obs.events_tail(usize::MAX) {
        if decisions.contains(&e.kind) {
            let id = field_u64(&e, "span").or_else(|| field_u64(&e, "cause"));
            chain_to_root(by_id, id.unwrap_or_else(|| panic!("orphan {}", e.kind)));
        }
    }
}

/// Contract 3 on the PR 5 chaos scenario: a partition quarantines a
/// region, and the quarantine's causal chain reaches the chaos root.
#[test]
fn quarantine_chains_reach_a_chaos_root() {
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 2025);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = 30;
    cfg.degradation = DegradationConfig::enabled();
    cfg.fault_plan = Some(FaultPlan::scripted(5, Vec::new()).partition_window(
        vec![NodeId(1)],
        SimTime::from_secs(300),
        SimTime::from_secs(600),
    ));
    let obs = Obs::new(ObsConfig::traced(0xcafe));
    let _ = acm::core::framework::run_experiment_with_obs(&cfg, obs.clone());

    let spans = obs.spans();
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    // Parent links are well-formed: every non-root parent exists, roots
    // start their own trace.
    let ids: BTreeSet<u64> = by_id.keys().copied().collect();
    for s in &spans {
        if s.parent == 0 {
            assert_eq!(s.trace, s.id, "root span must start its own trace");
        } else {
            assert!(ids.contains(&s.parent), "orphan span {} ({})", s.id, s.name);
            let p = by_id[&s.parent];
            assert_eq!(s.trace, p.trace, "child must inherit the trace id");
        }
    }

    // The quarantine happened, carries its span id in the event log, and
    // walks back to the partition fault.
    let events = obs.events_tail(usize::MAX);
    let quarantines: Vec<_> = events
        .iter()
        .filter(|e| e.kind == "region.quarantine")
        .collect();
    assert!(
        !quarantines.is_empty(),
        "partition must quarantine region 1"
    );
    for q in &quarantines {
        let span_id = field_u64(q, "span").expect("traced quarantine event carries its span id");
        let chain = chain_to_root(&by_id, span_id);
        assert_eq!(chain[0], "region.quarantine");
        let root = *chain.last().unwrap();
        assert!(
            root == "chaos.partition" || root == "heartbeat.timeout",
            "quarantine must be caused by the fault, got chain {chain:?}"
        );
        // The chain passes through the evidence layer on its way to the
        // root (timeout or report loss), not straight to the era.
        assert!(
            chain.iter().any(|n| *n == "heartbeat.timeout"
                || *n == "report.lost"
                || *n == "chaos.partition"),
            "no evidence in chain {chain:?}"
        );
    }

    // The readmit after the heal continues the quarantine's chain.
    let readmit = events.iter().find(|e| e.kind == "region.readmit");
    let readmit = readmit.expect("healed region must be readmitted");
    let span_id = field_u64(readmit, "span").expect("readmit carries its span id");
    let chain = chain_to_root(&by_id, span_id);
    assert!(
        chain.contains(&"region.quarantine"),
        "readmit must chain through its quarantine: {chain:?}"
    );

    assert_decisions_rooted(&obs, &by_id);

    // SLO burn: the partition starves the leader of 50% of its reports,
    // far past the 5% availability budget — the monitor must fire inside
    // the fault window (never before it), and recover after the heal.
    let seconds = |kind: &str| -> Vec<f64> {
        let of_kind = events.iter().filter(|e| e.kind == kind);
        of_kind.map(|e| e.t_us as f64 / 1e6).collect()
    };
    let (burns, recoveries) = (seconds("slo.burn"), seconds("slo.recovered"));
    assert!(
        burns.first().is_some_and(|t| *t <= 750.0) && burns.iter().all(|t| *t >= 300.0),
        "availability SLO must burn during the partition: {burns:?}"
    );
    assert!(
        recoveries.last().is_some_and(|t| *t > 600.0),
        "SLO must recover after the heal: {recoveries:?}"
    );
    assert_eq!(obs.spans_dropped(), 0, "span retention overflowed");
    // Leader phases plus the era slice: at least five slices per era.
    let timeline = obs
        .timeline_recorder()
        .expect("traced run records a timeline");
    assert!(timeline.len() >= 5 * cfg.eras, "{} slices", timeline.len());
}

/// A traced leader kill chains the successor's `leader.change` back to
/// `chaos.leader.kill`, and a flap storm under message chaos leaves no
/// decision orphaned either.
#[test]
fn leader_change_after_a_kill_chains_to_the_kill() {
    let mut kill = ExperimentConfig::three_region_fig4(PolicyKind::AvailableResources, 2025);
    kill.eras = 40;
    kill.fault_plan =
        Some(FaultPlan::scripted(2, Vec::new()).kill_leader_at(SimTime::from_secs(300)));
    let mut flaps = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 2025);
    flaps.eras = 60;
    let at = SimTime::from_secs;
    flaps.fault_plan = Some(
        FaultPlan::scripted(7, Vec::new())
            .link_flap(NodeId(0), NodeId(1), at(450), at(480))
            .link_flap(NodeId(0), NodeId(1), at(1050), at(1080))
            .with_message_chaos(0.10, Duration::from_millis(25)),
    );
    flaps.degradation.suspicion_timeout = Duration::from_secs(150);
    for (mut cfg, kills) in [(kill, 1), (flaps, 0)] {
        cfg.predictor = PredictorChoice::Oracle;
        cfg.degradation.enabled = true;
        let obs = Obs::new(ObsConfig::traced(2025));
        let _ = acm::core::framework::run_experiment_with_obs(&cfg, obs.clone());
        let spans = obs.spans();
        let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
        assert_decisions_rooted(&obs, &by_id);
        let elections: Vec<Vec<&str>> = obs
            .events_tail(usize::MAX)
            .iter()
            .filter(|e| e.kind == "leader.change" && e.t_us >= 300_000_000)
            .map(|e| chain_to_root(&by_id, field_u64(e, "span").expect("traced election")))
            .collect();
        let rooted = elections
            .iter()
            .filter(|c| c.last() == Some(&"chaos.leader.kill"));
        assert_eq!(rooted.count(), kills, "post-kill elections: {elections:?}");
    }
}
