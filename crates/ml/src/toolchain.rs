//! The end-to-end F2PM pipeline.
//!
//! "All measurements are fed into an automatic ML toolchain. The goal of
//! this toolchain is to generate and validate alternative ML models for
//! predicting the Remaining Time To Failure, as well as to select (via
//! Lasso regularization) what are the most relevant system features"
//! (paper Sec. III). [`F2pmToolchain::run`] does exactly that:
//!
//! 1. fit a Lasso (data-driven strength) on the full feature set and keep
//!    the features whose standardised weight passes `SELECTION_THRESHOLD`
//!    (2 %) of the largest,
//! 2. train every family in the menu on the projected training split,
//!    `TRAIN_FRAC` (75 %) of the rows (in parallel on the exec pool — the
//!    families are independent),
//! 3. score each on the holdout and rank by RMSE,
//! 4. return the winner wrapped as an [`RttfPredictor`] that accepts the
//!    *full* feature vector at runtime and projects internally.
//!
//! Steps 2–4 on a selection made earlier are [`F2pmToolchain::fit_on`]:
//! the model lifecycle refits on the serving model's selection, and
//! `run` is the selection followed by `fit_on`'s code — one training path.

use crate::dataset::{split_order, Dataset};
use crate::lasso::LassoRegression;
use crate::metrics::RegressionMetrics;
use crate::model::{AnyModel, ModelKind};
use crate::rep_tree::{RepTree, TreeBuffers};
use crate::validate::evaluate;
use acm_obs::{Obs, Timer};
use acm_sim::rng::SimRng;
use std::sync::Arc;

/// Fraction of the database used for training (rest is holdout).
const TRAIN_FRAC: f64 = 0.75;

/// Keep features whose standardised |weight| exceeds this *fraction of the
/// largest* standardised weight (scale-invariant).
const SELECTION_THRESHOLD: f64 = 0.02;

/// Toolchain configuration: the model menu.
#[derive(Debug, Clone, PartialEq)]
pub struct F2pmToolchain {
    /// Which families to train.
    pub models: Vec<ModelKind>,
}

impl Default for F2pmToolchain {
    fn default() -> Self {
        F2pmToolchain {
            models: ModelKind::ALL.to_vec(),
        }
    }
}

/// Outcome of one model family in the toolchain run.
#[derive(Debug, Clone)]
pub struct ModelOutcome {
    /// Family.
    pub kind: ModelKind,
    /// Holdout metrics.
    pub metrics: RegressionMetrics,
}

/// Report of a toolchain run: the Lasso selection plus the ranked menu.
#[derive(Debug, Clone)]
pub struct F2pmReport {
    /// Indices (into the full feature vector) of the selected features.
    pub selected_features: Vec<usize>,
    /// Names of the selected features.
    pub selected_names: Vec<Arc<str>>,
    /// Per-family holdout outcomes, best (lowest RMSE) first.
    pub outcomes: Vec<ModelOutcome>,
    /// Rows used for training / holdout.
    pub train_rows: usize,
    /// Rows in the holdout set.
    pub holdout_rows: usize,
}

impl F2pmReport {
    /// The winning family.
    pub fn best_kind(&self) -> ModelKind {
        self.outcomes[0].kind
    }

    /// Renders the ranking as an aligned text table (model-selection bench).
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>10} {:>8} {:>8}",
            "model", "MAE", "RMSE", "R2", "MAPE%"
        );
        for o in &self.outcomes {
            let _ = writeln!(
                out,
                "{:<10} {:>10.3} {:>10.3} {:>8.4} {:>8.1}",
                o.kind.name(),
                o.metrics.mae,
                o.metrics.rmse,
                o.metrics.r2,
                o.metrics.mape * 100.0
            );
        }
        out
    }
}

/// What a fit works in, kept by a caller that fits again and again (the
/// model lifecycle, one per region): the split's row order, the projected
/// train and holdout sets, and the REP-Tree's buffers. Once they have
/// grown to the data, a fit allocates the model and report it returns and
/// little else (`tests/retention.rs` counts the calls).
#[derive(Debug, Default)]
pub struct FitBuffers {
    order: Vec<usize>,
    train: Dataset,
    holdout: Dataset,
    tree: TreeBuffers,
}

/// `acm.ml.toolchain.fit_ns.<family>`, spelled out so resolving a fit
/// timer formats nothing.
fn fit_timer_name(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::Linear => "acm.ml.toolchain.fit_ns.linear",
        ModelKind::Ridge => "acm.ml.toolchain.fit_ns.ridge",
        ModelKind::LassoPredictor => "acm.ml.toolchain.fit_ns.lasso",
        ModelKind::RepTree => "acm.ml.toolchain.fit_ns.rep-tree",
        ModelKind::M5P => "acm.ml.toolchain.fit_ns.m5p",
        ModelKind::Svr => "acm.ml.toolchain.fit_ns.svr",
        ModelKind::LsSvm => "acm.ml.toolchain.fit_ns.ls-svm",
    }
}

/// Widest feature projection [`RttfPredictor::predict`] builds on the stack.
const PROJECT_ON_STACK: usize = 16;

/// A deployable RTTF predictor: the winning model plus the feature
/// projection chosen by Lasso. Predictions are clamped to be non-negative —
/// a remaining time to failure below zero is meaningless to the controller.
#[derive(Debug, Clone)]
pub struct RttfPredictor {
    model: AnyModel,
    selected: Vec<usize>,
}

impl RttfPredictor {
    /// Wraps an already-trained model with its feature projection.
    pub fn new(model: AnyModel, selected: Vec<usize>) -> Self {
        RttfPredictor { model, selected }
    }

    /// Predicts RTTF (seconds, ≥ 0) from the full runtime feature vector.
    /// Projections up to [`PROJECT_ON_STACK`] features wide (every
    /// deployment's: the VM model monitors 12) are built on the stack.
    pub fn predict(&self, full_features: &[f64]) -> f64 {
        let width = self.selected.len();
        let mut stack = [0.0; PROJECT_ON_STACK];
        let mut heap = Vec::new();
        let projected = if width <= PROJECT_ON_STACK {
            &mut stack[..width]
        } else {
            heap.resize(width, 0.0);
            &mut heap[..]
        };
        for (p, &j) in projected.iter_mut().zip(&self.selected) {
            *p = full_features[j];
        }
        self.model.predict_one(projected).max(0.0)
    }

    /// Batch variant of [`RttfPredictor::predict`]: projects every full
    /// feature row into one packed scratch buffer, predicts in a single
    /// batched pass (the tree walks its compact arena back to back), and
    /// clamps exactly like the scalar path. `out` is cleared and refilled
    /// index-aligned with the input rows.
    pub fn predict_batch_into<'a, I>(&self, full_rows: I, out: &mut Vec<f64>)
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        self.predict_packed(full_rows, &mut Vec::new(), out);
    }

    /// [`RttfPredictor::predict_batch_into`] with the caller's packing
    /// buffer: a caller that predicts every era keeps `packed` and `out`,
    /// and a batch no larger than the last allocates nothing. Rows are
    /// anything that views as a full feature slice: borrowed slices, or
    /// feature vectors built on the fly.
    pub fn predict_packed<R, I>(&self, full_rows: I, packed: &mut Vec<f64>, out: &mut Vec<f64>)
    where
        R: AsRef<[f64]>,
        I: IntoIterator<Item = R>,
    {
        let width = self.selected.len();
        let mut rows = 0usize;
        packed.clear();
        for row in full_rows {
            let row = row.as_ref();
            packed.extend(self.selected.iter().map(|&j| row[j]));
            rows += 1;
        }
        out.clear();
        if width == 0 {
            // Degenerate projection: every row predicts the empty-slice value.
            out.extend((0..rows).map(|_| self.model.predict_one(&[]).max(0.0)));
            return;
        }
        match &self.model {
            AnyModel::RepTree(m) => m.predict_batch_into(packed.chunks_exact(width), out),
            m => out.extend(packed.chunks_exact(width).map(|p| m.predict_one(p))),
        }
        for v in out.iter_mut() {
            *v = v.max(0.0);
        }
    }

    /// Which family the deployed model belongs to.
    pub fn kind(&self) -> ModelKind {
        self.model.kind()
    }

    /// The feature indices the predictor consumes.
    pub fn selected_features(&self) -> &[usize] {
        &self.selected
    }
}

impl F2pmToolchain {
    /// Runs the pipeline on a feature database. Returns the deployable
    /// predictor (best family) and the full report. Un-instrumented
    /// convenience over [`F2pmToolchain::run_with_obs`].
    pub fn run(&self, db: &Dataset, rng: &mut SimRng) -> (RttfPredictor, F2pmReport) {
        self.run_with_obs(db, rng, &Obs::noop())
    }

    /// [`F2pmToolchain::run`] with per-phase training timers published to
    /// `obs`: `acm.ml.toolchain.lasso_ns` (feature selection),
    /// `acm.ml.toolchain.fit_ns.<family>` (one histogram per family) and
    /// `acm.ml.toolchain.score_ns` (holdout scoring, all families) — so
    /// `model_selection` can report where training time goes — plus the
    /// selection Lasso's `acm.ml.toolchain.lasso_sweeps` (histogram) and
    /// `acm.ml.toolchain.lasso_unconverged` (counter of fits that stopped
    /// at the sweep cap). Timers read wall-clock only; results are
    /// identical to [`F2pmToolchain::run`].
    pub fn run_with_obs(
        &self,
        db: &Dataset,
        rng: &mut SimRng,
        obs: &Obs,
    ) -> (RttfPredictor, F2pmReport) {
        assert_trainable(db);
        let selected = select(db, obs);
        self.fit_with_obs(db, &selected, rng, obs, &mut FitBuffers::default())
    }

    /// Steps 2–4 on a feature selection made earlier: split, train the
    /// menu on the `selected` columns, rank by holdout RMSE. This is the
    /// model lifecycle's refit — it keeps the serving model's selection,
    /// as the paper selects once, offline, and its [`FitBuffers`] from
    /// refit to refit — and the second half of [`F2pmToolchain::run`],
    /// which draws `rng` identically.
    pub fn fit_on(
        &self,
        db: &Dataset,
        selected: &[usize],
        rng: &mut SimRng,
        buf: &mut FitBuffers,
    ) -> (RttfPredictor, F2pmReport) {
        self.fit_with_obs(db, selected, rng, &Obs::noop(), buf)
    }

    fn fit_with_obs(
        &self,
        db: &Dataset,
        selected: &[usize],
        rng: &mut SimRng,
        obs: &Obs,
        buf: &mut FitBuffers,
    ) -> (RttfPredictor, F2pmReport) {
        assert_trainable(db);
        assert!(!self.models.is_empty(), "no model families configured");

        // 2. Split once; every family sees the same split. The projected
        //    train and holdout sets are gathered straight from `db`, with
        //    the draws `db.project(selected).split(..)` would make.
        let FitBuffers {
            order,
            train,
            holdout,
            tree,
        } = buf;
        let cut = split_order(db.len(), TRAIN_FRAC, rng, order);
        db.select_into(&order[..cut], selected, train);
        db.select_into(&order[cut..], selected, holdout);
        let (train, holdout) = (&*train, &*holdout);

        // 3. Train the menu in parallel, each family with its own
        //    deterministic RNG stream and fit timer (resolved here, off
        //    the parallel path — registry resolution takes a lock). The
        //    first family borrows the tree buffers and hands them back.
        let score_timer = obs.timer("acm.ml.toolchain.score_ns");
        let mut tree = Some(std::mem::take(tree));
        let jobs: Vec<(ModelKind, SimRng, Timer, TreeBuffers)> = self
            .models
            .iter()
            .map(|&kind| {
                let timer = obs.timer(fit_timer_name(kind));
                (kind, rng.split(), timer, tree.take().unwrap_or_default())
            })
            .collect();
        let mut results: Vec<(AnyModel, ModelOutcome, TreeBuffers)> =
            acm_exec::map_collect(jobs, |(kind, mut model_rng, fit_timer, mut tree)| {
                let model = {
                    let _fit = fit_timer.start();
                    match kind {
                        ModelKind::RepTree => {
                            AnyModel::RepTree(RepTree::fit_with(train, &mut model_rng, &mut tree))
                        }
                        _ => kind.fit(train, &mut model_rng),
                    }
                };
                let metrics = {
                    let _score = score_timer.start();
                    evaluate(&model, holdout)
                };
                (model, ModelOutcome { kind, metrics }, tree)
            });
        buf.tree = std::mem::take(&mut results[0].2);

        // 4. Rank by holdout RMSE.
        results.sort_by(|a, b| rank_rmse(a.1.metrics.rmse, b.1.metrics.rmse));

        let report = F2pmReport {
            selected_names: selected
                .iter()
                .map(|&j| db.feature_names()[j].clone())
                .collect(),
            selected_features: selected.to_vec(),
            outcomes: results.iter().map(|(_, o, _)| o.clone()).collect(),
            train_rows: train.len(),
            holdout_rows: holdout.len(),
        };
        let best_model = results.swap_remove(0).0;
        (RttfPredictor::new(best_model, selected.to_vec()), report)
    }
}

/// Step 1: Lasso feature selection on the full database.
fn select(db: &Dataset, obs: &Obs) -> Vec<usize> {
    let lasso_span = obs.timer("acm.ml.toolchain.lasso_ns").start();
    let lasso = LassoRegression::fit_default(db);
    let max_w = lasso
        .std_weights()
        .iter()
        .fold(0.0_f64, |m, w| m.max(w.abs()));
    let mut selected = lasso.selected_features(SELECTION_THRESHOLD * max_w);
    if selected.is_empty() {
        // Degenerate target: fall back to all features so the menu can
        // still train (they will all predict ~the mean).
        selected = (0..db.width()).collect();
    }
    drop(lasso_span);
    obs.histogram("acm.ml.toolchain.lasso_sweeps")
        .record(lasso.sweeps() as u64);
    obs.counter("acm.ml.toolchain.lasso_unconverged")
        .add(u64::from(!lasso.converged()));
    selected
}

/// The toolchain's floor: a database of fewer than 20 rows is refused
/// before any model (or the selection Lasso) sees it.
fn assert_trainable(db: &Dataset) {
    assert!(
        db.len() >= 20,
        "feature database too small ({} rows)",
        db.len()
    );
}

/// Ranking order of two holdout RMSEs: ascending, with NaN (of either
/// sign) after every number, so a family whose score overflowed never
/// wins; two NaNs tie. A bare `total_cmp` would rank a negative NaN —
/// what x86 produces for `inf - inf` — first.
fn rank_rmse(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => a.partial_cmp(&b).expect("neither is NaN"),
        (a_nan, b_nan) => a_nan.cmp(&b_nan),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RTTF-like synthetic database: target driven by two of five features.
    fn rttf_db(n: usize, seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut db = Dataset::new(["resident", "swap", "threads", "noise1", "noise2"]);
        for _ in 0..n {
            let resident = rng.uniform(500.0, 4000.0);
            let swap = rng.uniform(0.0, 500.0);
            let threads = rng.uniform(90.0, 900.0);
            let n1 = rng.uniform(0.0, 1.0);
            let n2 = rng.uniform(0.0, 1.0);
            // RTTF shrinks as resident/threads grow.
            let rttf =
                (5000.0 - resident - 2.0 * threads - 3.0 * swap).max(0.0) + rng.normal(0.0, 20.0);
            db.push(vec![resident, swap, threads, n1, n2], rttf);
        }
        db
    }

    #[test]
    fn pipeline_selects_informative_features_and_a_good_model() {
        let db = rttf_db(600, 1);
        let tc = F2pmToolchain::default();
        let mut rng = SimRng::new(2);
        let (predictor, report) = tc.run(&db, &mut rng);
        // Noise features must be dropped.
        let selected = |name: &str| report.selected_names.iter().any(|n| &**n == name);
        assert!(selected("resident"));
        assert!(selected("threads"));
        assert!(!selected("noise1"));
        // The winner must explain the target well.
        assert!(report.outcomes[0].metrics.r2 > 0.9, "{}", report.to_table());
        // The deployed predictor consumes the FULL feature vector.
        let p = predictor.predict(&[1000.0, 0.0, 200.0, 0.5, 0.5]);
        assert!((p - 3600.0).abs() < 300.0, "prediction {p}");
    }

    #[test]
    fn predictions_are_clamped_non_negative() {
        let db = rttf_db(300, 3);
        let tc = F2pmToolchain::default();
        let mut rng = SimRng::new(4);
        let (predictor, _) = tc.run(&db, &mut rng);
        // Far beyond exhaustion: raw model would go negative.
        let p = predictor.predict(&[10_000.0, 500.0, 2000.0, 0.0, 0.0]);
        assert!(p >= 0.0);
    }

    #[test]
    fn batch_prediction_matches_scalar_path() {
        let db = rttf_db(400, 15);
        // Force the deployed model to be the tree so the compact-arena
        // batch walk is the path under test.
        let tc = F2pmToolchain {
            models: vec![ModelKind::RepTree],
        };
        let (predictor, _) = tc.run(&db, &mut SimRng::new(16));
        assert_eq!(predictor.kind(), ModelKind::RepTree);
        let mut rng = SimRng::new(17);
        let rows: Vec<Vec<f64>> = (0..123)
            .map(|_| {
                vec![
                    rng.uniform(500.0, 4000.0),
                    rng.uniform(0.0, 500.0),
                    rng.uniform(90.0, 900.0),
                    rng.uniform(0.0, 1.0),
                    rng.uniform(0.0, 1.0),
                ]
            })
            .collect();
        // `out` is cleared first: stale contents never leak through.
        let mut batch = vec![-1.0; 7];
        predictor.predict_batch_into(rows.iter().map(Vec::as_slice), &mut batch);
        assert_eq!(batch.len(), rows.len());
        for (row, b) in rows.iter().zip(&batch) {
            assert_eq!(*b, predictor.predict(row));
        }
    }

    #[test]
    fn ranking_is_sorted_by_rmse() {
        let db = rttf_db(300, 5);
        let tc = F2pmToolchain::default();
        let mut rng = SimRng::new(6);
        let (_, report) = tc.run(&db, &mut rng);
        let rmses: Vec<f64> = report.outcomes.iter().map(|o| o.metrics.rmse).collect();
        assert!(rmses.windows(2).all(|w| w[0] <= w[1]), "{rmses:?}");
        assert_eq!(report.outcomes.len(), ModelKind::ALL.len());
        assert_eq!(report.best_kind(), report.outcomes[0].kind);
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let db = rttf_db(300, 7);
        let tc = F2pmToolchain::default();
        let (_, r1) = tc.run(&db, &mut SimRng::new(8));
        let (_, r2) = tc.run(&db, &mut SimRng::new(8));
        assert_eq!(r1.selected_features, r2.selected_features);
        let k1: Vec<ModelKind> = r1.outcomes.iter().map(|o| o.kind).collect();
        let k2: Vec<ModelKind> = r2.outcomes.iter().map(|o| o.kind).collect();
        assert_eq!(k1, k2);
    }

    #[test]
    fn fit_timer_names_are_the_family_names() {
        for kind in ModelKind::ALL {
            let name = format!("acm.ml.toolchain.fit_ns.{}", kind.name());
            assert_eq!(fit_timer_name(kind), name);
        }
    }

    #[test]
    fn run_is_selection_then_fit_on() {
        let db = rttf_db(300, 22);
        let tc = F2pmToolchain::default();
        let (p1, r1) = tc.run(&db, &mut SimRng::new(23));
        // One set of buffers for both refits, as the model lifecycle keeps.
        let mut buf = FitBuffers::default();
        let (p2, r2) = tc.fit_on(&db, &r1.selected_features, &mut SimRng::new(23), &mut buf);
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
        assert_eq!(p1.selected_features(), p2.selected_features());
        let probe = [1000.0, 100.0, 200.0, 0.5, 0.5];
        assert_eq!(p1.predict(&probe), p2.predict(&probe));
        // Another selection is honoured as given, noise columns and all.
        let (p3, r3) = tc.fit_on(&db, &[4, 0], &mut SimRng::new(23), &mut buf);
        assert_eq!(p3.selected_features(), [4, 0]);
        assert_eq!(
            r3.selected_names,
            [Arc::from("noise2"), Arc::from("resident")]
        );
    }

    #[test]
    fn restricted_menu_trains_only_requested_families() {
        let db = rttf_db(200, 9);
        let tc = F2pmToolchain {
            models: vec![ModelKind::RepTree, ModelKind::Linear],
        };
        let (_, report) = tc.run(&db, &mut SimRng::new(10));
        assert_eq!(report.outcomes.len(), 2);
        let trained = |kind| report.outcomes.iter().any(|o| o.kind == kind);
        assert!(!trained(ModelKind::Svr));
        assert!(trained(ModelKind::RepTree));
    }

    #[test]
    fn table_render_contains_all_rows() {
        let db = rttf_db(200, 11);
        let (_, report) = F2pmToolchain::default().run(&db, &mut SimRng::new(12));
        let table = report.to_table();
        for kind in ModelKind::ALL {
            assert!(table.contains(kind.name()), "missing {kind} in\n{table}");
        }
    }

    #[test]
    fn run_with_obs_times_every_training_phase() {
        use acm_obs::{MetricValue, ObsConfig};
        let db = rttf_db(300, 20);
        let tc = F2pmToolchain::default();
        let obs = Obs::new(ObsConfig::default());
        let (_, report) = tc.run_with_obs(&db, &mut SimRng::new(21), &obs);

        let hist_count = |name: &str| -> u64 {
            match obs
                .metrics()
                .into_iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric {name} missing"))
                .value
            {
                MetricValue::Histogram(h) => h.count,
                other => panic!("{name} is not a histogram: {other:?}"),
            }
        };
        assert_eq!(hist_count("acm.ml.toolchain.lasso_ns"), 1);
        assert_eq!(hist_count("acm.ml.toolchain.lasso_sweeps"), 1);
        assert_eq!(obs.counter("acm.ml.toolchain.lasso_unconverged").value(), 0);
        for kind in ModelKind::ALL {
            assert_eq!(
                hist_count(&format!("acm.ml.toolchain.fit_ns.{}", kind.name())),
                1,
                "one fit per family"
            );
        }
        assert_eq!(
            hist_count("acm.ml.toolchain.score_ns"),
            ModelKind::ALL.len() as u64
        );

        // Instrumentation must not change the result.
        let (_, bare) = tc.run(&db, &mut SimRng::new(21));
        assert_eq!(format!("{report:?}"), format!("{bare:?}"));
    }

    #[test]
    fn nan_rmse_ranks_after_every_number() {
        use std::cmp::Ordering::{Equal, Greater, Less};
        // `-f64::NAN` carries the sign bit, like x86's default NaN.
        for nan in [f64::NAN, -f64::NAN] {
            for x in [0.0, 1.0, f64::MAX, f64::INFINITY] {
                assert_eq!(rank_rmse(nan, x), Greater, "{nan} vs {x}");
                assert_eq!(rank_rmse(x, nan), Less, "{x} vs {nan}");
            }
            assert_eq!(rank_rmse(nan, -nan), Equal);
        }
        assert_eq!(rank_rmse(0.0, -0.0), Equal);
        assert_eq!(rank_rmse(1.0, f64::INFINITY), Less);

        // Targets near f64::MAX overflow some families' holdout errors.
        let mut rng = SimRng::new(30);
        let mut db = Dataset::new(["x"]);
        for _ in 0..60 {
            let x = rng.uniform(0.0, 1e154);
            db.push(vec![x], x * 1e154);
        }
        let (_, report) = F2pmToolchain::default().run(&db, &mut rng);
        let rmses: Vec<f64> = report.outcomes.iter().map(|o| o.metrics.rmse).collect();
        let nans = rmses.iter().filter(|r| r.is_nan()).count();
        assert!(nans > 0, "no NaN family: {rmses:?}");
        assert!(nans < rmses.len(), "every family NaN: {rmses:?}");
        assert!(
            rmses[..rmses.len() - nans].iter().all(|r| !r.is_nan()),
            "{rmses:?}"
        );
        assert!(!report.outcomes[0].metrics.rmse.is_nan());
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_database_panics() {
        let db = rttf_db(10, 13);
        let _ = F2pmToolchain::default().run(&db, &mut SimRng::new(14));
    }
}
