//! Integration: scripted runtime scenarios through the whole framework.

use acm::core::config::{ExperimentConfig, PredictorChoice};
use acm::core::framework::{run_experiment, run_experiment_with_obs};
use acm::core::policy::PolicyKind;
use acm::core::scenario::{Scenario, ScenarioAction, ScheduledAction};
use acm::obs::{Obs, ObsConfig};
use acm::sim::SimTime;

fn base(policy: PolicyKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::two_region_fig3(policy, 2016);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = 100;
    cfg
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

#[test]
fn scripted_policy_switch_rescues_sensible_routing() {
    let mut cfg = base(PolicyKind::SensibleRouting);
    cfg.scenario = Scenario::new(vec![ScheduledAction {
        at: t(1500), // era 50
        action: ScenarioAction::SwitchPolicy(PolicyKind::AvailableResources),
    }]);
    let tel = run_experiment(&cfg);
    // Diverged while Policy 1 ruled...
    let early: Vec<f64> = (0..2)
        .map(|i| tel.rmttf(i).values().skip(30).take(15).sum::<f64>() / 15.0)
        .collect();
    let early_spread = early[0].max(early[1]) / early[0].min(early[1]);
    assert!(early_spread > 1.5, "early spread {early_spread}");
    // ...converged after the switch.
    let late_spread = tel.rmttf_spread(25);
    assert!(late_spread < 1.2, "late spread {late_spread}");
}

#[test]
fn scripted_capacity_change_is_applied() {
    let mut cfg = base(PolicyKind::AvailableResources);
    cfg.eras = 40;
    cfg.scenario = Scenario::new(vec![
        // Add two VMs to Munich and activate them at era 20.
        ScheduledAction {
            at: t(600),
            action: ScenarioAction::AddVm { region: 1 },
        },
        ScheduledAction {
            at: t(600),
            action: ScenarioAction::AddVm { region: 1 },
        },
        ScheduledAction {
            at: t(600),
            action: ScenarioAction::SetTargetActive {
                region: 1,
                target: 5,
            },
        },
    ]);
    let tel = run_experiment(&cfg);
    let before = tel.active_vms(1).points()[10].value;
    let after = tel.active_vms(1).last().unwrap();
    assert_eq!(before, 3.0);
    assert_eq!(after, 5.0);
    // More Munich capacity shifts the Policy-2 equilibrium toward Munich.
    let f_before = tel.fraction(1).points()[15].value;
    let f_after = tel.fraction(1).tail_stats(10).mean();
    assert!(
        f_after > f_before * 1.2,
        "fractions should follow capacity: {f_before} -> {f_after}"
    );
}

#[test]
fn scripted_link_fault_matches_link_fault_config() {
    // `link_faults` is an input format lowered into the scenario
    // mechanism: both spellings leave the same telemetry, the same event
    // log and — on a traced hub, where a scripted fault opens a
    // `fault.scripted` root — the same span tree.
    let run = |cfg: &ExperimentConfig| {
        let obs = Obs::new(ObsConfig::traced(2016));
        let tel = run_experiment_with_obs(cfg, obs.clone());
        (tel.to_csv(), obs.events_jsonl(), obs.spans_jsonl())
    };
    let mut via_faults = base(PolicyKind::AvailableResources);
    via_faults.eras = 40;
    via_faults.link_faults = vec![acm::core::config::LinkFault {
        a: 0,
        b: 1,
        fail_at: t(300),
        recover_at: t(600),
    }];

    let mut via_scenario = base(PolicyKind::AvailableResources);
    via_scenario.eras = 40;
    via_scenario.scenario = Scenario::new(vec![
        ScheduledAction {
            at: t(300),
            action: ScenarioAction::FailLink { a: 0, b: 1 },
        },
        ScheduledAction {
            at: t(600),
            action: ScenarioAction::RecoverLink { a: 0, b: 1 },
        },
    ]);

    let (faults, scenario) = (run(&via_faults), run(&via_scenario));
    assert!(faults.1.contains("fault.scripted"));
    assert_eq!(faults, scenario);
}

#[test]
fn invalid_scenario_is_rejected_at_validation() {
    let mut cfg = base(PolicyKind::AvailableResources);
    cfg.scenario = Scenario::new(vec![ScheduledAction {
        at: t(10),
        action: ScenarioAction::AddVm { region: 9 },
    }]);
    assert!(cfg.validate().is_err());
}
