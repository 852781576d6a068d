//! Top-level experiment driver.
//!
//! [`run_experiment`] performs the full ACM lifecycle the paper describes:
//!
//! 1. **F2PM initial phase** (when the config asks for a trained
//!    predictor): run instrumented VMs of each distinct flavor to failure,
//!    harvest the feature database, Lasso-select features and train the
//!    requested model family per flavor;
//! 2. build one VMC per region with its predictor;
//! 3. wire the overlay, elect the leader, and run the closed control loop
//!    for the configured number of eras;
//! 4. return the telemetry that regenerates the paper's figures.

use crate::config::{ExperimentConfig, PredictorChoice};
use crate::control_loop::ControlLoop;
use crate::telemetry::ExperimentTelemetry;
use acm_exec::PoolStatsSnapshot;
use acm_ml::model::ModelKind;
use acm_ml::toolchain::{F2pmToolchain, RttfPredictor};
use acm_obs::Obs;
use acm_pcam::training::{collect_database, CollectionConfig};
use acm_pcam::{RegionConfig, RttfSource, Vmc};
use acm_sim::rng::SimRng;
use std::collections::BTreeMap;

/// Applies the experiment's TPC-W mix to a region: the mean service-demand
/// multiplier of the mix scales the flavor's per-request demand (an
/// ordering-heavy mix makes every request more expensive).
fn region_with_mix(cfg: &ExperimentConfig, region: &RegionConfig) -> RegionConfig {
    let mut out = region.clone();
    out.flavor.base_request_demand_s *= cfg.mix.mean_demand_multiplier();
    out
}

/// Trains one RTTF predictor per distinct flavor in the deployment.
///
/// The F2PM toolchain normally ranks the whole model menu; here the family
/// is fixed by the experiment config (the paper deploys REP-Tree after its
/// own earlier comparison), so the toolchain is restricted to that family.
/// The run's observability hub is threaded through to the toolchain, so
/// per-family fit timers (`acm.ml.toolchain.*`) land in the same registry
/// as the control-loop instruments; pass [`Obs::noop`] for none.
pub fn train_predictors(
    cfg: &ExperimentConfig,
    family: ModelKind,
    rng: &mut SimRng,
    obs: &Obs,
) -> BTreeMap<String, RttfPredictor> {
    let mut predictors = BTreeMap::new();
    for spec in &cfg.regions {
        let region = region_with_mix(cfg, &spec.region);
        let flavor = &region.flavor;
        if predictors.contains_key(&flavor.name) {
            continue;
        }
        let db = collect_database(
            flavor,
            &region.anomaly,
            &region.failure_spec,
            &CollectionConfig::default(),
            rng,
        );
        let toolchain = F2pmToolchain {
            models: vec![family],
        };
        let (predictor, _report) = toolchain.run_with_obs(&db, rng, obs);
        predictors.insert(flavor.name.clone(), predictor);
    }
    predictors
}

/// Builds the per-region VMCs with the configured predictor.
pub fn build_vmcs(cfg: &ExperimentConfig, rng: &mut SimRng) -> Vec<Vmc> {
    build_vmcs_with_obs(cfg, rng, &Obs::noop())
}

/// [`build_vmcs`] with the run's observability hub threaded into predictor
/// training.
pub(crate) fn build_vmcs_with_obs(cfg: &ExperimentConfig, rng: &mut SimRng, obs: &Obs) -> Vec<Vmc> {
    let trained = match cfg.predictor {
        PredictorChoice::Oracle => None,
        PredictorChoice::Trained(family) => Some(train_predictors(cfg, family, rng, obs)),
    };
    cfg.regions
        .iter()
        .map(|spec| {
            let source = match &trained {
                None => RttfSource::Oracle,
                Some(map) => RttfSource::Model(
                    map.get(&spec.region.flavor.name)
                        .expect("predictor trained per flavor")
                        .clone(),
                ),
            };
            Vmc::new(region_with_mix(cfg, &spec.region), source, rng.split())
        })
        .collect()
}

/// Publishes the execution-pool activity since `baseline` into `obs` under
/// the `acm.exec.*` namespace:
///
/// - `acm.exec.steal_count`, `acm.exec.chunks_popped`,
///   `acm.exec.par_maps`, `acm.exec.seq_maps`, `acm.exec.items`,
///   `acm.exec.jobs_submitted`, `acm.exec.helpers_inlined` — counters
///   (deltas against the baseline snapshot);
/// - `acm.exec.queue_depth` — gauge holding the peak injector queue depth
///   observed over the pool's lifetime;
/// - `acm.exec.threads` — gauge with the pool width;
/// - `acm.exec.worker_busy_ns` — histogram with one sample per worker
///   (that worker's busy nanoseconds since the baseline).
///
/// [`run_experiment_with_obs`] snapshots [`acm_exec::global_stats`] before
/// the experiment and calls this after it.
pub(crate) fn publish_exec_stats(obs: &Obs, baseline: &PoolStatsSnapshot) {
    if !obs.enabled() {
        return;
    }
    let delta = acm_exec::global_stats().delta_since(baseline);
    obs.counter("acm.exec.steal_count").add(delta.steals);
    obs.counter("acm.exec.chunks_popped")
        .add(delta.chunks_popped);
    obs.counter("acm.exec.par_maps").add(delta.par_maps);
    obs.counter("acm.exec.seq_maps").add(delta.seq_maps);
    obs.counter("acm.exec.items").add(delta.items);
    obs.counter("acm.exec.jobs_submitted")
        .add(delta.jobs_submitted);
    obs.counter("acm.exec.helpers_inlined")
        .add(delta.helpers_inlined);
    obs.gauge("acm.exec.queue_depth")
        .set(delta.queue_depth_peak as f64);
    obs.gauge("acm.exec.threads").set(delta.threads as f64);
    let busy = obs.histogram("acm.exec.worker_busy_ns");
    for ns in &delta.worker_busy_ns {
        busy.record(*ns);
    }
}

/// Runs a complete experiment and returns its telemetry. Observability
/// follows `cfg.obs`; the recorded metrics and events die with the loop —
/// use [`run_experiment_with_obs`] to inspect them afterwards.
pub fn run_experiment(cfg: &ExperimentConfig) -> ExperimentTelemetry {
    let obs = acm_obs::Obs::new(cfg.obs);
    run_experiment_with_obs(cfg, obs)
}

/// Like [`run_experiment`] but records spans, metrics and the decision log
/// into the caller's [`acm_obs::Obs`] instance, which outlives the run.
/// The hub also receives the ML training timers (predictor training runs
/// through [`train_predictors`]) and, on exit, the `acm.exec.*`
/// execution-pool counters covering the whole experiment.
pub fn run_experiment_with_obs(
    cfg: &ExperimentConfig,
    obs: acm_obs::ObsHandle,
) -> ExperimentTelemetry {
    cfg.validate().expect("invalid experiment config");
    let exec_baseline = acm_exec::global_stats();
    let mut rng = SimRng::new(cfg.seed);
    let vmcs = build_vmcs_with_obs(cfg, &mut rng, &obs);
    let mut cl = ControlLoop::new_with_obs(cfg, vmcs, rng, obs.clone());
    cl.run(cfg.eras);
    publish_exec_stats(&obs, &exec_baseline);
    // Retention pressure: how many decision-log events the ring evicted
    // over the run (surfaced so obs_report can flag undersized logs).
    if obs.enabled() {
        obs.counter("acm.obs.events.dropped")
            .add(obs.events_dropped());
    }
    cl.into_telemetry()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    #[test]
    fn oracle_experiment_end_to_end() {
        let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 7);
        cfg.predictor = PredictorChoice::Oracle;
        cfg.eras = 15;
        let tel = run_experiment(&cfg);
        assert_eq!(tel.eras(), 15);
        assert!(tel.total_completed() > 0);
    }

    #[test]
    fn trained_rep_tree_experiment_end_to_end() {
        // The paper's configuration: REP-Tree predictors trained by F2PM.
        let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 11);
        cfg.eras = 20;
        let tel = run_experiment(&cfg);
        assert_eq!(tel.eras(), 20);
        // Imperfect predictions are fine; the loop must still keep the
        // response time sane and the system serving.
        assert!(
            tel.tail_response(10) < 1.5,
            "resp {}",
            tel.tail_response(10)
        );
        assert!(tel.total_completed() > 10_000);
    }

    #[test]
    fn predictors_are_shared_per_flavor() {
        let cfg = ExperimentConfig::three_region_fig4(PolicyKind::SensibleRouting, 3);
        let mut rng = SimRng::new(3);
        let map = train_predictors(&cfg, ModelKind::RepTree, &mut rng, &Obs::noop());
        // Three regions, three distinct flavors.
        assert_eq!(map.len(), 3);
        assert!(map.contains_key("m3.medium"));
        assert!(map.contains_key("m3.small"));
        assert!(map.contains_key("private-munich"));
    }

    #[test]
    fn heavier_mix_shortens_lifetimes() {
        use acm_workload::TpcwMix;
        // The ordering mix hits the backend harder per request: same
        // deployment, same clients, but the SLA crossing arrives sooner, so
        // the steady-state RMTTF drops.
        let run_mix = |mix: TpcwMix| {
            let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 13);
            cfg.predictor = PredictorChoice::Oracle;
            cfg.eras = 60;
            cfg.mix = mix;
            let tel = run_experiment(&cfg);
            tel.rmttf(0).tail_stats(20).mean()
        };
        let browsing = run_mix(TpcwMix::Browsing);
        let ordering = run_mix(TpcwMix::Ordering);
        assert!(
            ordering < browsing,
            "ordering mix should stress VMs more: {ordering} !< {browsing}"
        );
    }

    #[test]
    fn experiment_hub_carries_exec_and_training_instruments() {
        let _width = crate::POOL_WIDTH.lock().unwrap_or_else(|e| e.into_inner());
        let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 17);
        cfg.eras = 5; // trained predictor: training dominates, loop is short
        let obs = acm_obs::Obs::new(acm_obs::ObsConfig::default());
        let _ = run_experiment_with_obs(&cfg, obs.clone());
        let metrics = obs.metrics();
        let find = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric {name} missing"))
        };
        // Pool stats are published even when the pool ran sequentially:
        // the items counter covers every map_collect element.
        match &find("acm.exec.items").value {
            acm_obs::MetricValue::Counter(n) => assert!(*n > 0, "no pool items counted"),
            other => panic!("acm.exec.items is {other:?}"),
        }
        find("acm.exec.steal_count");
        find("acm.exec.queue_depth");
        find("acm.exec.worker_busy_ns");
        // Training timers from the toolchain land in the same hub.
        match &find("acm.ml.toolchain.fit_ns.rep-tree").value {
            acm_obs::MetricValue::Histogram(h) => {
                assert!(h.count >= 2, "one fit per flavor, got {}", h.count)
            }
            other => panic!("fit timer is {other:?}"),
        }
        find("acm.ml.toolchain.lasso_ns");
        find("acm.ml.toolchain.score_ns");
    }

    #[test]
    fn run_is_deterministic() {
        let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::Exploration, 5);
        cfg.predictor = PredictorChoice::Oracle;
        cfg.eras = 10;
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.to_csv(), b.to_csv());
    }
}
