//! Integration: overlay fault tolerance — partitions, rerouting, leader
//! election — exercised through the whole stack.

use acm::core::config::{ExperimentConfig, PredictorChoice};
use acm::core::framework::run_experiment;
use acm::core::policy::PolicyKind;
use acm::core::scenario::ScenarioAction;
use acm::overlay::{election, NodeId, OverlayGraph, Transport};
use acm::sim::{Duration, SimTime};

fn oracle(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.predictor = PredictorChoice::Oracle;
    cfg
}

#[test]
fn control_loop_survives_a_mid_run_partition() {
    let mut cfg = oracle(ExperimentConfig::two_region_fig3(
        PolicyKind::AvailableResources,
        2016,
    ));
    cfg.eras = 60;
    cfg.scenario.push(
        SimTime::from_secs(600),
        ScenarioAction::FailLink { a: 0, b: 1 },
    );
    cfg.scenario.push(
        SimTime::from_secs(1200),
        ScenarioAction::RecoverLink { a: 0, b: 1 },
    );
    let tel = run_experiment(&cfg);
    assert_eq!(tel.eras(), 60);
    // Clients keep being served throughout.
    assert!(tel.total_completed() > 50_000);
    // After recovery the policy regains control and RMTTFs converge again.
    assert!(
        tel.rmttf_spread(10) < 1.35,
        "spread {}",
        tel.rmttf_spread(10)
    );
    // Response time never explodes, even during the partition.
    let worst = tel.global_response().values().fold(0.0_f64, f64::max);
    assert!(worst < 1.5, "worst response {worst}");
}

#[test]
fn partition_freezes_fractions_for_the_cut_region() {
    let mut cfg = oracle(ExperimentConfig::two_region_fig3(
        PolicyKind::AvailableResources,
        2016,
    ));
    cfg.eras = 40;
    // Permanent partition from era 10 on.
    cfg.scenario.push(
        SimTime::from_secs(300),
        ScenarioAction::FailLink { a: 0, b: 1 },
    );
    cfg.scenario.push(
        SimTime::from_secs(1_000_000),
        ScenarioAction::RecoverLink { a: 0, b: 1 },
    );
    let tel = run_experiment(&cfg);
    // Fractions recorded after the cut stay frozen at the last agreed
    // value: the leader cannot install plans on the unreachable region.
    let f = tel.fraction(1);
    let frozen: Vec<f64> = f.values().skip(12).collect();
    let first = frozen[0];
    assert!(
        frozen.iter().all(|v| (v - first).abs() < 1e-9),
        "fraction moved during partition: {frozen:?}"
    );
}

#[test]
fn repeated_faults_heal_repeatedly() {
    let mut cfg = oracle(ExperimentConfig::three_region_fig4(
        PolicyKind::AvailableResources,
        2016,
    ));
    cfg.eras = 80;
    for (a, b, fail_s) in [(0, 2, 300), (1, 2, 900)] {
        cfg.scenario.push(
            SimTime::from_secs(fail_s),
            ScenarioAction::FailLink { a, b },
        );
        cfg.scenario.push(
            SimTime::from_secs(fail_s + 300),
            ScenarioAction::RecoverLink { a, b },
        );
    }
    let tel = run_experiment(&cfg);
    assert_eq!(tel.eras(), 80);
    // In the 3-region mesh a single link failure never partitions: the
    // overlay reroutes and the run converges as usual.
    assert!(
        tel.rmttf_spread(20) < 1.2,
        "spread {}",
        tel.rmttf_spread(20)
    );
}

#[test]
fn transport_reroutes_around_failed_link_end_to_end() {
    let mut t = Transport::new(OverlayGraph::full_mesh(&[
        (NodeId(0), NodeId(1), Duration::from_millis(25)),
        (NodeId(0), NodeId(2), Duration::from_millis(30)),
        (NodeId(1), NodeId(2), Duration::from_millis(12)),
    ]));
    assert_eq!(
        t.latency(NodeId(0), NodeId(2)),
        Some(Duration::from_millis(30))
    );
    t.fail_link(NodeId(0), NodeId(2));
    // Rerouted through Frankfurt: 25 + 12.
    assert_eq!(
        t.latency(NodeId(0), NodeId(2)),
        Some(Duration::from_millis(37))
    );
    t.recover_link(NodeId(0), NodeId(2));
    assert_eq!(
        t.latency(NodeId(0), NodeId(2)),
        Some(Duration::from_millis(30))
    );
}

#[test]
fn leader_election_recovers_from_cascading_failures() {
    let mut g = OverlayGraph::full_mesh(&[
        (NodeId(0), NodeId(1), Duration::from_millis(25)),
        (NodeId(0), NodeId(2), Duration::from_millis(30)),
        (NodeId(1), NodeId(2), Duration::from_millis(12)),
    ]);
    assert_eq!(election::elect(&g).leaders(), vec![NodeId(0)]);
    g.fail_node(NodeId(0));
    assert_eq!(election::elect(&g).leaders(), vec![NodeId(1)]);
    g.fail_node(NodeId(1));
    assert_eq!(election::elect(&g).leaders(), vec![NodeId(2)]);
    g.recover_node(NodeId(0));
    g.recover_node(NodeId(1));
    assert_eq!(election::elect(&g).leaders(), vec![NodeId(0)]);
}
