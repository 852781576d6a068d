//! Fault-tolerance drill: cut the WAN link between the two regions in the
//! middle of the run, watch the overlay drop reports, the leader hold
//! stale state, and the system recover when the link heals — plus a
//! standalone demonstration of the fault-tolerant leader election.
//!
//! ```text
//! cargo run --release --example failover_drill
//! ```

use acm::core::config::{ExperimentConfig, PredictorChoice};
use acm::core::framework::run_experiment;
use acm::core::policy::PolicyKind;
use acm::core::scenario::ScenarioAction;
use acm::overlay::{election, NodeId, OverlayGraph};
use acm::sim::{Duration, SimTime};

fn leader_election_demo() {
    println!("--- leader election under failures ---");
    let mut g = OverlayGraph::full_mesh(&[
        (NodeId(0), NodeId(1), Duration::from_millis(25)),
        (NodeId(0), NodeId(2), Duration::from_millis(30)),
        (NodeId(1), NodeId(2), Duration::from_millis(12)),
    ]);
    let out = election::elect(&g);
    println!(
        "healthy mesh: leader {:?}, {} rounds, {} messages",
        out.leaders(),
        out.rounds,
        out.messages
    );

    g.fail_node(NodeId(0));
    let out = election::elect(&g);
    println!("leader vmc0 dies: new leader {:?}", out.leaders());

    g.fail_link(NodeId(1), NodeId(2));
    let out = election::elect(&g);
    println!(
        "link 1-2 also cut: leaders per partition {:?}",
        out.leaders()
    );

    g.recover_node(NodeId(0));
    g.recover_link(NodeId(1), NodeId(2));
    let out = election::elect(&g);
    println!("full recovery: leader {:?}\n", out.leaders());
}

fn main() {
    leader_election_demo();

    println!("--- control loop through a 5-minute WAN partition ---");
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 42);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = 60;
    cfg.scenario.push(
        SimTime::from_secs(600),
        ScenarioAction::FailLink { a: 0, b: 1 },
    );
    cfg.scenario.push(
        SimTime::from_secs(900),
        ScenarioAction::RecoverLink { a: 0, b: 1 },
    );
    let tel = run_experiment(&cfg);

    println!(
        "{:>6} {:>8} {:>8} {:>12} {:>12} {:>10}",
        "era", "f_r1", "f_r3", "rmttf_r1", "rmttf_r3", "resp(ms)"
    );
    for e in (0..tel.eras()).step_by(4) {
        let marker = if (20..30).contains(&e) {
            "  <- partition"
        } else {
            ""
        };
        println!(
            "{:>6} {:>8.3} {:>8.3} {:>12.0} {:>12.0} {:>10.1}{marker}",
            e + 1,
            tel.fraction(0).points()[e].value,
            tel.fraction(1).points()[e].value,
            tel.rmttf(0).points()[e].value,
            tel.rmttf(1).points()[e].value,
            tel.global_response().points()[e].value * 1000.0,
        );
    }
    println!();
    println!(
        "served {} requests across the partition; {} proactive rejuvenations, {} reactive failures",
        tel.total_completed(),
        tel.total_proactive(),
        tel.total_reactive()
    );
    println!(
        "tail response: {:.0} ms (SLA is 1000 ms)",
        tel.tail_response(15) * 1000.0
    );
}
