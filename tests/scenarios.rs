//! Integration: scripted runtime scenarios through the whole framework.

use acm::core::config::{ExperimentConfig, PredictorChoice};
use acm::core::framework::run_experiment;
use acm::core::policy::PolicyKind;
use acm::core::scenario::{Scenario, ScenarioAction, ScheduledAction};
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
    let before = tel.active_vms(1).get(10);
    let after = tel.active_vms(1).last().unwrap();
    assert_eq!(before, 3);
    assert_eq!(after, 5);
    // More Munich capacity shifts the Policy-2 equilibrium toward Munich.
    let f_before = tel.fraction(1).points()[15].value;
    let f_after = tel.fraction(1).tail_stats(10).mean();
    assert!(
        f_after > f_before * 1.2,
        "fractions should follow capacity: {f_before} -> {f_after}"
    );
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
