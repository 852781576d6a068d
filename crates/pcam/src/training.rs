//! Harvesting the F2PM feature database.
//!
//! "During an initial phase, the system under monitoring (namely a VM
//! running a server replica) runs the application and a thin software
//! client which measures a large set of system features [...] This
//! information is transferred to a feature monitor agent \[which\] builds a
//! database of system features" (paper Sec. III).
//!
//! [`collect_database`] replays that initial phase on the VM model: it runs
//! instrumented VMs to failure at a sweep of load levels, sampling the
//! monitored feature vector every era and labelling each sample with the
//! ground-truth remaining time to failure.

use acm_ml::dataset::Dataset;
use acm_sim::rng::SimRng;
use acm_sim::time::{Duration, SimTime};
use acm_vm::{AnomalyConfig, FailureSpec, FeatureVec, Vm, VmFlavor, VmId, VmState, FEATURE_NAMES};

/// Parameters for the collection phase.
#[derive(Debug, Clone)]
pub struct CollectionConfig {
    /// Sampling period (one feature snapshot per era).
    pub era: Duration,
    /// Arrival rates to sweep (req/s per VM). Varying the rate is what
    /// teaches the models the load-dependence of the RTTF.
    pub lambdas: Vec<f64>,
    /// Instrumented runs-to-failure per rate.
    pub runs_per_lambda: usize,
}

/// Safety cap on eras per run.
const MAX_ERAS_PER_RUN: usize = 400;

impl Default for CollectionConfig {
    fn default() -> Self {
        CollectionConfig {
            era: Duration::from_secs(30),
            // Cover the low-rate regime too: lightly-loaded regions (the
            // paper's small private region under Policy 2) operate at a
            // couple of requests per second per VM, and tree predictors
            // extrapolate badly outside the training envelope.
            lambdas: vec![2.0, 4.0, 8.0, 12.0, 16.0, 24.0],
            runs_per_lambda: 3,
        }
    }
}

/// Runs instrumented VMs of `flavor` to failure and returns the labelled
/// feature database.
///
/// The runs are independent by construction, so they are harvested in
/// parallel on the workspace pool: the caller's RNG is split once per
/// `(lambda, run)` **in sequential order** before dispatch, and the
/// per-run row batches are concatenated in that same order afterwards —
/// the database is byte-identical to the sequential loop at any
/// `ACM_THREADS` setting.
pub fn collect_database(
    flavor: &VmFlavor,
    anomaly: &AnomalyConfig,
    failure_spec: &FailureSpec,
    cfg: &CollectionConfig,
    rng: &mut SimRng,
) -> Dataset {
    let mut runs = Vec::with_capacity(cfg.lambdas.len() * cfg.runs_per_lambda);
    for &lambda in &cfg.lambdas {
        for _run in 0..cfg.runs_per_lambda {
            runs.push((lambda, rng.split()));
        }
    }
    let batches = acm_exec::map_collect(runs, |(lambda, run_rng)| {
        collect_run(flavor, anomaly, failure_spec, cfg, lambda, run_rng)
    });
    let mut db = Dataset::new(FEATURE_NAMES);
    for batch in &batches {
        db.extend(batch);
    }
    db
}

/// Returns `db` with its target column randomly permuted: the features
/// keep their joint distribution but carry no information about the
/// label, so any model trained on the result is provably worthless.
/// Used to manufacture poisoned refit candidates when exercising the
/// lifecycle's promotion gate (a promotion of such a candidate is a bug).
pub fn shuffle_targets(db: &Dataset, rng: &mut SimRng) -> Dataset {
    let mut targets: Vec<f64> = db.targets().to_vec();
    rng.shuffle(&mut targets);
    let mut out = Dataset::new(db.feature_names().iter().cloned());
    for (row, target) in db.rows().zip(targets) {
        out.push(row, target);
    }
    out
}

/// One instrumented run-to-failure at a fixed arrival rate: its labelled
/// rows.
fn collect_run(
    flavor: &VmFlavor,
    anomaly: &AnomalyConfig,
    failure_spec: &FailureSpec,
    cfg: &CollectionConfig,
    lambda: f64,
    run_rng: SimRng,
) -> Dataset {
    let mut vm = Vm::new(
        VmId(0),
        flavor.clone(),
        anomaly.clone(),
        failure_spec.clone(),
        VmState::Active,
        run_rng,
    );
    let mut rows = Dataset::new(FEATURE_NAMES);
    let mut now = SimTime::ZERO;
    for _ in 0..MAX_ERAS_PER_RUN {
        let features: FeatureVec = vm.features(now, lambda);
        // The era's own ground-truth solve labels the snapshot taken at its
        // start.
        let rttf = vm.process_era(now, cfg.era, lambda).rttf_s;
        if !rttf.is_finite() {
            break; // this load level never fails the VM
        }
        rows.push(features.as_slice(), rttf);
        now += cfg.era;
        if !vm.is_active() {
            break; // reached the failure point
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use acm_ml::toolchain::F2pmToolchain;

    fn quick_cfg() -> CollectionConfig {
        CollectionConfig {
            lambdas: vec![8.0, 16.0],
            runs_per_lambda: 2,
            ..Default::default()
        }
    }

    #[test]
    fn database_has_rows_and_decreasing_labels_within_runs() {
        let mut rng = SimRng::new(1);
        let db = collect_database(
            &VmFlavor::m3_medium(),
            &AnomalyConfig::default(),
            &FailureSpec::default(),
            &quick_cfg(),
            &mut rng,
        );
        assert!(db.len() > 20, "only {} rows", db.len());
        assert_eq!(db.width(), FEATURE_NAMES.len());
        // All labels are non-negative and finite.
        assert!(db.targets().iter().all(|t| t.is_finite() && *t >= 0.0));
    }

    #[test]
    fn collection_is_deterministic_per_seed() {
        let args = (
            VmFlavor::m3_medium(),
            AnomalyConfig::default(),
            FailureSpec::default(),
            quick_cfg(),
        );
        let a = collect_database(&args.0, &args.1, &args.2, &args.3, &mut SimRng::new(5));
        let b = collect_database(&args.0, &args.1, &args.2, &args.3, &mut SimRng::new(5));
        assert_eq!(a, b);
    }

    #[test]
    fn default_database_is_pinned() {
        // FNV-1a-64 over every row's feature bits then its label bits, in
        // row order; the constants were taken before `collect_run` started
        // labelling rows from `EraOutcome::rttf_s` (one ground-truth solve
        // per row instead of two), which must not move a bit.
        let db = collect_database(
            &VmFlavor::m3_medium(),
            &AnomalyConfig::default(),
            &FailureSpec::default(),
            &CollectionConfig::default(),
            &mut SimRng::new(5),
        );
        let hash = db
            .rows()
            .zip(db.targets())
            .flat_map(|(row, target)| row.iter().chain(std::iter::once(target)))
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(
            (db.len(), hash),
            (554, 0xa80b_316a_7db1_beb2),
            "database moved"
        );
    }

    #[test]
    fn collection_is_identical_across_thread_counts() {
        // The RNG is split per (lambda, run) in sequential order before
        // dispatch and batches are concatenated in that order, so the
        // database must not depend on the pool width.
        let args = (
            VmFlavor::m3_medium(),
            AnomalyConfig::default(),
            FailureSpec::default(),
            quick_cfg(),
        );
        let _width = crate::POOL_WIDTH.lock().unwrap_or_else(|e| e.into_inner());
        let before = acm_exec::current_threads();
        acm_exec::configure_threads(1);
        let seq = collect_database(&args.0, &args.1, &args.2, &args.3, &mut SimRng::new(9));
        acm_exec::configure_threads(4);
        let par = collect_database(&args.0, &args.1, &args.2, &args.3, &mut SimRng::new(9));
        acm_exec::configure_threads(before);
        assert_eq!(seq, par);
    }

    #[test]
    fn toolchain_learns_rttf_from_collected_database() {
        // End-to-end F2PM smoke test: collect → select → train → the best
        // model must predict held-out RTTF decently (R² well above zero).
        let mut rng = SimRng::new(2);
        let db = collect_database(
            &VmFlavor::m3_medium(),
            &AnomalyConfig::default(),
            &FailureSpec::default(),
            &CollectionConfig::default(),
            &mut rng,
        );
        let (predictor, report) = F2pmToolchain::default().run(&db, &mut rng);
        assert!(
            report.outcomes[0].metrics.r2 > 0.8,
            "best model too weak:\n{}",
            report.to_table()
        );
        // The deployed predictor gives sane estimates on a fresh VM.
        let vm = Vm::new(
            VmId(0),
            VmFlavor::m3_medium(),
            AnomalyConfig::default(),
            FailureSpec::default(),
            VmState::Active,
            SimRng::new(3),
        );
        let pred = predictor.predict(vm.features(SimTime::ZERO, 12.0).as_slice());
        let truth = vm.true_rttf(12.0);
        let rel = (pred - truth).abs() / truth;
        assert!(rel < 0.5, "fresh-VM prediction {pred} vs truth {truth}");
    }
}
