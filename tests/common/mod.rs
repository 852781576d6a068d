//! The drifted fig-3 world, shared by the tests that run it: regions leak
//! 3× faster than the profile their (stale) REP-Tree predictors were
//! trained on, with a sensitive drift monitor and the model lifecycle on.

use acm::core::config::ExperimentConfig;
use acm::core::control_loop::ControlLoop;
use acm::core::policy::PolicyKind;
use acm::ml::model::ModelKind;
use acm::ml::toolchain::{F2pmToolchain, RttfPredictor};
use acm::pcam::training::{collect_database, CollectionConfig};
use acm::pcam::{DriftConfig, LifecycleConfig, RttfSource, Vmc};
use acm::sim::rng::SimRng;

/// The world's config, untraced.
pub fn drifted_lifecycle_cfg() -> ExperimentConfig {
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

/// One predictor per region, fitted to the default anomaly profile of
/// the region's flavor — the world before it drifted.
pub fn stale_models(cfg: &ExperimentConfig) -> Vec<RttfPredictor> {
    let mut train_rng = SimRng::new(7);
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
                &acm::vm::AnomalyConfig::default(),
                &spec.region.failure_spec,
                &quick,
                &mut train_rng,
            );
            let toolchain = F2pmToolchain {
                models: vec![ModelKind::RepTree],
            };
            toolchain.run(&db, &mut train_rng).0
        })
        .collect()
}

/// The control loop over `cfg` with `models` serving.
pub fn lifecycle_loop(cfg: &ExperimentConfig, models: &[RttfPredictor]) -> ControlLoop {
    let mut rng = SimRng::new(cfg.seed);
    let vmcs = cfg
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
