//! Integration: the F2PM pipeline end-to-end across crates — harvest a
//! feature database from the VM substrate, train the model menu, deploy
//! the predictor inside a VMC and drive the full control loop with it.

use acm::core::config::{ExperimentConfig, PredictorChoice};
use acm::core::framework::{run_experiment, train_predictors};
use acm::core::policy::PolicyKind;
use acm::ml::model::ModelKind;
use acm::ml::toolchain::{F2pmToolchain, FitBuffers};
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

fn fnv64(bytes: impl IntoIterator<Item = u64>) -> u64 {
    bytes
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The whole F2PM menu, pinned: the Lasso selection, every family's
/// holdout metrics and every family's predictions on a fixed probe set,
/// as FNV-1a-64 of their `to_bits`. The database is the quick collection
/// the shared test worlds train their stale predictors on. A mismatch
/// means a family's arithmetic or draw order moved; the message prints
/// the three hashes.
#[test]
fn f2pm_menu_is_pinned() {
    let quick = CollectionConfig {
        lambdas: vec![4.0, 8.0, 16.0],
        runs_per_lambda: 3,
        ..Default::default()
    };
    let mut rng = SimRng::new(7);
    let db = collect_database(
        &VmFlavor::m3_medium(),
        &AnomalyConfig::default(),
        &FailureSpec::default(),
        &quick,
        &mut rng,
    );
    let (_, report) = F2pmToolchain::default().run(&db, &mut rng);
    let selection = fnv64(report.selected_features.iter().map(|&j| j as u64));
    let metrics = fnv64(report.outcomes.iter().flat_map(|o| {
        let m = &o.metrics;
        std::iter::once(o.kind as u64).chain([m.mae, m.rmse, m.r2, m.mape].map(f64::to_bits))
    }));
    let probes: Vec<&[f64]> = (0..db.len()).step_by(5).map(|i| db.row(i)).collect();
    let mut buf = FitBuffers::default();
    let predictions = fnv64(ModelKind::ALL.into_iter().flat_map(|kind| {
        let menu = F2pmToolchain { models: vec![kind] };
        let (predictor, _) = menu.fit_on(
            &db,
            &report.selected_features,
            &mut SimRng::new(8),
            &mut buf,
        );
        assert_eq!(predictor.kind(), kind);
        probes
            .iter()
            .map(|row| predictor.predict(row).to_bits())
            .collect::<Vec<_>>()
    }));
    assert_eq!(
        [selection, metrics, predictions],
        [0xf562_a8ec_9f84_eb64, 0x23a5_61c9_de62_af16, 0xe431_ccf7_06f8_e6cb],
        "[selection, metrics, predictions] = [{selection:#018x}, {metrics:#018x}, {predictions:#018x}]"
    );
}
