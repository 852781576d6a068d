//! Integration: the F2PM pipeline end-to-end across crates — harvest a
//! feature database from the VM substrate, train the model menu, deploy
//! the predictor inside a VMC and drive the full control loop with it.

use acm::core::config::{ExperimentConfig, PredictorChoice};
use acm::core::framework::{run_experiment, train_predictors};
use acm::core::policy::PolicyKind;
use acm::ml::model::ModelKind;
use acm::ml::toolchain::F2pmToolchain;
use acm::obs::Obs;
use acm::pcam::training::{collect_database, CollectionConfig};
use acm::sim::{SimRng, SimTime};
use acm::vm::{AnomalyConfig, FailureSpec, Vm, VmFlavor, VmId, VmState};

fn quick_collection() -> CollectionConfig {
    CollectionConfig {
        lambdas: vec![6.0, 12.0, 20.0],
        runs_per_lambda: 2,
        ..Default::default()
    }
}

#[test]
fn rep_tree_predictions_track_ground_truth_through_a_vm_lifetime() {
    let mut rng = SimRng::new(1);
    let db = collect_database(
        &VmFlavor::m3_medium(),
        &AnomalyConfig::default(),
        &FailureSpec::default(),
        &quick_collection(),
        &mut rng,
    );
    let toolchain = F2pmToolchain {
        models: vec![ModelKind::RepTree],
        ..Default::default()
    };
    let (predictor, report) = toolchain.run(&db, &mut rng);
    assert_eq!(predictor.kind(), ModelKind::RepTree);
    assert!(
        report.outcomes[0].metrics.r2 > 0.75,
        "{}",
        report.to_table()
    );

    // Walk a fresh VM through its life at a rate seen in training and
    // check relative prediction error at several ages.
    let mut vm = Vm::new(
        VmId(0),
        VmFlavor::m3_medium(),
        AnomalyConfig::default(),
        FailureSpec::default(),
        VmState::Active,
        SimRng::new(2),
    );
    let lambda = 12.0;
    let era = acm::sim::Duration::from_secs(30);
    let mut now = SimTime::ZERO;
    let mut checked = 0;
    for _ in 0..20 {
        let truth = vm.true_rttf(lambda);
        // Stop before the end of life: relative error on a tiny remaining
        // time is dominated by the tree's leaf granularity.
        if !truth.is_finite() || truth < 150.0 {
            break;
        }
        let pred = predictor.predict(vm.features(now, lambda).as_slice());
        let rel = (pred - truth).abs() / truth;
        assert!(rel < 0.6, "age {now}: pred {pred} vs truth {truth}");
        checked += 1;
        vm.process_era(now, era, lambda);
        now += era;
        if !vm.is_active() {
            break;
        }
    }
    assert!(checked >= 5, "too few checkpoints ({checked})");
}

#[test]
fn lasso_selection_drops_uninformative_features() {
    let mut rng = SimRng::new(3);
    let db = collect_database(
        &VmFlavor::m3_small(),
        &AnomalyConfig::default(),
        &FailureSpec::default(),
        &quick_collection(),
        &mut rng,
    );
    let (predictor, report) = F2pmToolchain::default().run(&db, &mut rng);
    // Some reduction must happen (the 12 features are partly redundant by
    // construction: resident/mem_util/free_ram are collinear).
    assert!(
        report.selected_features.len() < db.width(),
        "selected all {} features",
        db.width()
    );
    assert!(!report.selected_features.is_empty());
    assert_eq!(predictor.selected_features(), &report.selected_features[..]);
}

#[test]
fn trained_control_loop_reproduces_policy2_convergence() {
    // The paper's actual configuration: REP-Tree predictors end-to-end.
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 2016);
    cfg.eras = 60;
    let tel = run_experiment(&cfg);
    assert!(
        tel.rmttf_spread(20) < 1.35,
        "trained P2 should still converge, spread {}",
        tel.rmttf_spread(20)
    );
    assert!(tel.tail_response(20) < 1.0);
}

#[test]
fn one_predictor_is_trained_per_distinct_flavor() {
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::SensibleRouting, 4);
    // Make both regions the same flavor: only one training run should occur.
    cfg.regions[1].region.flavor = cfg.regions[0].region.flavor.clone();
    let mut rng = SimRng::new(4);
    let map = train_predictors(&cfg, ModelKind::RepTree, &mut rng, &Obs::noop());
    assert_eq!(map.len(), 1);
}

#[test]
fn oracle_and_trained_predictor_agree_on_the_equilibrium() {
    let mut oracle_cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 9);
    oracle_cfg.predictor = PredictorChoice::Oracle;
    oracle_cfg.eras = 60;
    let oracle_tel = run_experiment(&oracle_cfg);

    let mut trained_cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 9);
    trained_cfg.eras = 60;
    let trained_tel = run_experiment(&trained_cfg);

    let fo = oracle_tel.fraction(0).tail_stats(20).mean();
    let ft = trained_tel.fraction(0).tail_stats(20).mean();
    assert!(
        (fo - ft).abs() < 0.1,
        "equilibria diverge: oracle {fo}, trained {ft}"
    );
}
