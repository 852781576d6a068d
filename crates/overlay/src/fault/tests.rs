use super::*;
use crate::graph::OverlayGraph;
use crate::transport::Transport;
use acm_obs::{Obs, Value};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn n(i: u32) -> NodeId {
    NodeId(i)
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn transport() -> Transport {
    Transport::new(OverlayGraph::full_mesh(&[
        (n(0), n(1), ms(30)),
        (n(1), n(2), ms(20)),
        (n(0), n(2), ms(100)),
    ]))
}

fn all_pairs(t: &mut Transport) -> Vec<Option<Duration>> {
    let mut out = Vec::new();
    for i in 0..3 {
        for j in 0..3 {
            out.push(t.latency(n(i), n(j)));
        }
    }
    out
}

#[test]
fn partition_cuts_and_heal_restores_exactly() {
    let plan = FaultPlan::scripted(7, Vec::new()).partition_window(vec![n(2)], t(10), t(50));
    let mut layer = ChaosLayer::new(&plan);
    let mut tr = transport();
    let before = all_pairs(&mut tr);

    assert!(layer.apply_due(t(10), &mut tr, n(0)));
    assert_eq!(layer.open_partitions(), 1);
    assert_eq!(tr.latency(n(0), n(2)), None);
    assert_eq!(tr.latency(n(2), n(1)), None);
    assert_eq!(tr.latency(n(0), n(1)), Some(ms(30)), "intra side unhurt");

    assert!(layer.apply_due(t(50), &mut tr, n(0)));
    assert_eq!(layer.open_partitions(), 0);
    assert_eq!(all_pairs(&mut tr), before, "heal restores everything");
}

#[test]
fn heal_does_not_recover_links_cut_by_other_faults() {
    // Link 0-2 goes down independently before the partition; the heal
    // must leave it down.
    let mut plan = FaultPlan::scripted(7, Vec::new()).partition_window(vec![n(2)], t(10), t(50));
    plan.events.insert(
        0,
        FaultEvent {
            at: t(5),
            action: FaultAction::FailLink(n(0), n(2)),
        },
    );
    let mut layer = ChaosLayer::new(&plan);
    let mut tr = transport();
    layer.apply_due(t(50), &mut tr, n(0));
    assert_eq!(tr.latency(n(0), n(2)), Some(ms(50)), "via 1 only");
    assert!(tr.graph().link_failed(n(0), n(2)));
}

#[test]
fn kill_leader_resolves_at_apply_time() {
    let plan = FaultPlan::scripted(1, Vec::new()).kill_leader_at(t(30));
    let mut layer = ChaosLayer::new(&plan);
    let mut tr = transport();
    assert!(!layer.apply_due(t(29), &mut tr, n(0)), "not due yet");
    assert!(layer.apply_due(t(31), &mut tr, n(1)));
    assert!(!tr.graph().is_alive(n(1)));
    assert!(tr.graph().is_alive(n(0)));
}

#[test]
fn schedule_applies_in_time_order_and_once() {
    let plan = FaultPlan::scripted(1, Vec::new())
        .link_flap(n(0), n(1), t(20), t(40))
        .crash_window(n(2), t(10), t(30));
    let mut layer = ChaosLayer::new(&plan);
    let mut tr = transport();
    layer.apply_due(t(15), &mut tr, n(0));
    assert!(!tr.graph().is_alive(n(2)));
    assert!(tr.graph().link_usable(n(0), n(1)));
    layer.apply_due(t(25), &mut tr, n(0));
    assert!(!tr.graph().link_usable(n(0), n(1)));
    layer.apply_due(t(100), &mut tr, n(0));
    assert!(tr.graph().is_alive(n(2)));
    assert!(tr.graph().link_usable(n(0), n(1)));
    assert_eq!(layer.pending(), 0);
    assert!(!layer.apply_due(SimTime::MAX, &mut tr, n(0)));
}

#[test]
fn pre_split_lenses_draw_independent_deterministic_streams() {
    let plan =
        FaultPlan::scripted(11, Vec::new()).with_message_chaos(0.5, Duration::from_millis(20));
    let fates = |layer: &mut ChaosLayer| -> Vec<MessageFate> {
        (0..32)
            .map(|_| layer.message_fate(t(1), n(0), n(1)))
            .collect()
    };
    let mut a = ChaosLayer::new(&plan);
    let mut b = ChaosLayer::new(&plan);
    let mut lenses_a = a.pre_split(3);
    let mut lenses_b = b.pre_split(3);
    for (la, lb) in lenses_a.iter_mut().zip(lenses_b.iter_mut()) {
        assert_eq!(
            fates(la),
            fates(lb),
            "same plan, same split order, same draws"
        );
    }
    assert_ne!(
        fates(&mut lenses_a[0]),
        fates(&mut lenses_a[1]),
        "lenses must not share a stream"
    );
    // Lenses carry the plan: applying faults through a lens still works.
    assert_eq!(lenses_a[0].pending(), 0);
}

#[test]
fn randomized_plans_are_pure_functions_of_their_inputs() {
    let nodes = [n(0), n(1), n(2)];
    let links = [(n(0), n(1)), (n(1), n(2)), (n(0), n(2))];
    let a = FaultPlan::randomized(42, &nodes, &links, t(3600), 1.0);
    let b = FaultPlan::randomized(42, &nodes, &links, t(3600), 1.0);
    assert_eq!(a, b);
    let c = FaultPlan::randomized(43, &nodes, &links, t(3600), 1.0);
    assert_ne!(a, c, "different seed, different schedule");
    assert!(!a.events.is_empty());
    for ev in &a.events {
        assert!(ev.at < t(3600));
    }
    a.validate(3, Duration::ZERO)
        .expect("generated plan is in-bounds");
}

#[test]
fn message_chaos_is_deterministic_and_inert_when_unconfigured() {
    let plan = FaultPlan::scripted(9, Vec::new()).with_message_chaos(0.3, ms(40));
    let fates = |p: &FaultPlan| {
        let mut layer = ChaosLayer::new(p);
        (0..200)
            .map(|i| layer.message_fate(t(i), n(0), n(1)))
            .collect::<Vec<_>>()
    };
    assert_eq!(fates(&plan), fates(&plan), "same seed, same fates");
    let drops = fates(&plan)
        .iter()
        .filter(|f| matches!(f, MessageFate::Drop))
        .count();
    assert!(drops > 20 && drops < 120, "~30% of 200, got {drops}");

    // Unconfigured chaos delivers everything without touching the RNG.
    let inert = FaultPlan::scripted(9, Vec::new());
    let mut layer = ChaosLayer::new(&inert);
    for i in 0..50 {
        assert_eq!(
            layer.message_fate(t(i), n(0), n(1)),
            MessageFate::Deliver {
                extra_delay: Duration::ZERO
            }
        );
    }
    // Self-sends are never dropped even under heavy chaos.
    let cruel = FaultPlan::scripted(9, Vec::new()).with_message_chaos(1.0, Duration::ZERO);
    let mut layer = ChaosLayer::new(&cruel);
    assert_eq!(
        layer.message_fate(t(0), n(1), n(1)),
        MessageFate::Deliver {
            extra_delay: Duration::ZERO
        }
    );
    assert_eq!(layer.message_fate(t(0), n(0), n(1)), MessageFate::Drop);
}

#[test]
fn validate_rejects_out_of_bounds_and_bad_probabilities() {
    let plan = FaultPlan::scripted(0, Vec::new()).crash_window(n(5), t(1), t(2));
    assert!(plan.validate(3, Duration::ZERO).is_err());
    assert!(plan.validate(6, Duration::ZERO).is_ok());
    let bad = FaultPlan::scripted(0, Vec::new()).with_message_chaos(1.5, Duration::ZERO);
    assert!(bad.validate(3, Duration::ZERO).is_err());
    let empty_group = FaultPlan::scripted(
        0,
        vec![FaultEvent {
            at: t(0),
            action: FaultAction::Partition(Vec::new()),
        }],
    );
    assert!(empty_group.validate(3, Duration::ZERO).is_err());
}

#[test]
fn faults_emit_obs_events() {
    let obs = Obs::new(acm_obs::ObsConfig::default());
    let plan = FaultPlan::scripted(3, Vec::new())
        .partition_window(vec![n(2)], t(10), t(20))
        .kill_leader_at(t(30));
    let mut layer = ChaosLayer::new(&plan);
    layer.set_obs(&obs);
    let mut tr = transport();
    layer.apply_due(t(40), &mut tr, n(0));
    let kinds: Vec<&str> = obs.events_tail(10).into_iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec!["chaos.partition", "chaos.heal", "chaos.leader.kill"]
    );
    assert_eq!(obs.counter("acm.overlay.chaos.faults").value(), 3);
    assert!(layer.last_trace_ctx().is_none(), "plain hub opens no spans");
}

#[test]
fn traced_faults_open_root_spans_and_retain_the_last_context() {
    let obs = Obs::new(acm_obs::ObsConfig::traced(0xfa11));
    let plan = FaultPlan::scripted(3, Vec::new())
        .partition_window(vec![n(2)], t(10), t(20))
        .kill_leader_at(t(30));
    let mut layer = ChaosLayer::new(&plan);
    layer.set_obs(&obs);
    let mut tr = transport();
    layer.apply_due(t(40), &mut tr, n(0));

    let spans = obs.spans();
    assert_eq!(spans.len(), 3, "one span per fault");
    for s in &spans {
        assert_eq!(s.parent, 0, "faults are first causes (root spans)");
        assert_eq!(s.trace, s.id, "roots start their own trace");
    }
    let last = layer.last_trace_ctx().expect("tracing hub keeps context");
    assert_eq!(last.span, spans[2].id, "context tracks the latest fault");
    // Every chaos event carries its span id.
    for ev in obs.events_tail(10) {
        let span = ev
            .field("span")
            .expect("traced fault events carry a span field");
        assert!(matches!(span, Value::U64(v) if *v != 0));
    }
}

#[test]
fn validate_rejects_zero_length_windows() {
    let flap = FaultPlan::scripted(1, Vec::new()).link_flap(n(0), n(1), t(10), t(10));
    assert!(flap
        .validate(3, Duration::ZERO)
        .unwrap_err()
        .contains("zero-length flap"));
    let crash = FaultPlan::scripted(1, Vec::new()).crash_window(n(2), t(5), t(5));
    assert!(crash
        .validate(3, Duration::ZERO)
        .unwrap_err()
        .contains("zero-length crash vmc2"));
    // A real window passes.
    let ok = FaultPlan::scripted(1, Vec::new()).link_flap(n(0), n(1), t(10), t(11));
    assert!(ok.validate(3, Duration::ZERO).is_ok());
}

#[test]
fn validate_rejects_heal_before_cut_and_unmatched_heal() {
    let early = FaultPlan::scripted(1, Vec::new())
        .kill_leader_at(t(1)) // unrelated noise
        .partition_window(vec![n(2)], t(40), t(50));
    assert!(early.validate(3, Duration::ZERO).is_ok());
    // Heal scheduled before its partition: stable time order sees the
    // heal first, so there is no open group to close.
    let mut bad = FaultPlan::scripted(1, Vec::new());
    bad.events.push(FaultEvent {
        at: t(10),
        action: FaultAction::Heal(vec![n(2)]),
    });
    bad.events.push(FaultEvent {
        at: t(20),
        action: FaultAction::Partition(vec![n(2)]),
    });
    assert!(bad
        .validate(3, Duration::ZERO)
        .unwrap_err()
        .contains("precedes its partition"));
    // A heal with no partition at all is equally malformed.
    let mut lone = FaultPlan::scripted(1, Vec::new());
    lone.events.push(FaultEvent {
        at: t(10),
        action: FaultAction::Heal(vec![n(1)]),
    });
    assert!(lone.validate(3, Duration::ZERO).is_err());
}

#[test]
fn validate_rejects_duplicate_leader_kills_in_one_era() {
    let same_instant = FaultPlan::scripted(1, Vec::new())
        .kill_leader_at(t(10))
        .kill_leader_at(t(10));
    assert!(same_instant
        .validate(3, Duration::ZERO)
        .unwrap_err()
        .contains("duplicate leader kill"));
    // Different instants, same 30s era: only the era-aware check sees it.
    let same_era = FaultPlan::scripted(1, Vec::new())
        .kill_leader_at(t(31))
        .kill_leader_at(t(40));
    assert!(same_era.validate(3, Duration::ZERO).is_ok());
    assert!(same_era
        .validate(3, Duration::from_secs(30))
        .unwrap_err()
        .contains("duplicate leader kill"));
    // Adjacent eras are fine.
    let spread = FaultPlan::scripted(1, Vec::new())
        .kill_leader_at(t(31))
        .kill_leader_at(t(65));
    assert!(spread.validate(3, Duration::from_secs(30)).is_ok());
    // A fault applies at the first era boundary >= its instant: 31s and
    // 60s both land in the 60s batch, 30s and 31s in two batches.
    let one_batch = FaultPlan::scripted(1, Vec::new())
        .kill_leader_at(t(31))
        .kill_leader_at(t(60));
    assert!(one_batch
        .validate(3, Duration::from_secs(30))
        .unwrap_err()
        .contains("duplicate leader kill"));
    let mut layer = ChaosLayer::new(&one_batch);
    let mut tr = transport();
    assert_eq!(layer.pending(), 2);
    layer.apply_due(t(60), &mut tr, n(0));
    assert_eq!(layer.pending(), 0, "one boundary applies both kills");
    let two_batches = FaultPlan::scripted(1, Vec::new())
        .kill_leader_at(t(30))
        .kill_leader_at(t(31));
    assert!(two_batches.validate(3, Duration::from_secs(30)).is_ok());
}

#[test]
fn validate_rejects_an_undrawable_delay_bound() {
    // The layer draws an extra delay from 0..=max, a range of max + 1.
    let json =
        r#"{"seed":1,"message":{"drop_prob":0,"extra_delay_us":18446744073709551615},"events":[]}"#;
    let plan = FaultPlan::from_json(json).expect("well-formed JSON");
    assert!(plan
        .validate(3, Duration::ZERO)
        .unwrap_err()
        .contains("not drawable"));
    let widest = json.replace("18446744073709551615", "18446744073709551614");
    let plan = FaultPlan::from_json(&widest).expect("well-formed JSON");
    assert!(plan.validate(3, Duration::ZERO).is_ok());
}

#[test]
fn components_pair_windows_in_time_order() {
    let mut plan = FaultPlan::scripted(7, Vec::new())
        .link_flap(n(0), n(1), t(10), t(30))
        .crash_window(n(2), t(5), t(25))
        .kill_leader_at(t(50));
    let comps = plan.components();
    assert_eq!(comps.len(), 3);
    // Ordered by earliest event time: crash (5s), flap (10s), kill (50s).
    assert_eq!(comps[0].label, "crash vmc2");
    assert_eq!(comps[0].indices, vec![2, 3]);
    assert_eq!(comps[1].label, "flap vmc0-vmc1");
    assert_eq!(comps[1].indices, vec![0, 1]);
    assert_eq!(comps[2].label, "kill-leader");
    assert_eq!(comps[2].indices, vec![4]);

    // A lone recovery, unmatched faults, and a heal naming its group in
    // another order than its partition.
    plan.events.extend([
        FaultEvent {
            at: t(1),
            action: FaultAction::RecoverNode(n(1)),
        },
        FaultEvent {
            at: t(60),
            action: FaultAction::FailLink(n(1), n(2)),
        },
        FaultEvent {
            at: t(70),
            action: FaultAction::Partition(vec![n(2), n(1)]),
        },
        FaultEvent {
            at: t(80),
            action: FaultAction::Heal(vec![n(1), n(2)]),
        },
        FaultEvent {
            at: t(90),
            action: FaultAction::CrashNode(n(0)),
        },
    ]);
    let labels: Vec<String> = plan.components().into_iter().map(|c| c.label).collect();
    assert_eq!(labels[0], "recover-node vmc1");
    assert!(labels[4].starts_with("fail-link "), "{}", labels[4]);
    assert!(labels[5].starts_with("partition ["), "{}", labels[5]);
    assert_eq!(labels[6], "crash-open vmc0");
    assert_eq!(labels.len(), 7);
}

#[test]
fn plan_json_round_trips_exactly() {
    let plan = FaultPlan::scripted(u64::MAX - 3, Vec::new())
        .link_flap(n(0), n(1), t(10), t(30))
        .crash_window(n(2), t(5), t(25))
        .partition_window(vec![n(1), n(2)], t(40), t(60))
        .kill_leader_at(t(50))
        .with_message_chaos(0.0625, Duration::from_millis(1500));
    let json = plan.to_json();
    let back = FaultPlan::from_json(&json).expect("round trip parses");
    assert_eq!(back, plan, "byte-exact plan round trip");
    assert_eq!(back.to_json(), json, "re-serialization is stable");
    // Malformed documents are rejected, not misparsed.
    assert!(FaultPlan::from_json("{}").is_err());
    assert!(FaultPlan::from_json("{\"seed\":1}").is_err());
    let unknown = json.replace("kill_leader", "explode");
    assert!(FaultPlan::from_json(&unknown).is_err());
}
