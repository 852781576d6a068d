//! Hyper-parameter search.
//!
//! F2PM's toolchain "generates and validates alternative ML models" — in
//! practice that includes picking each family's hyper-parameters, not just
//! the family. [`grid_search`] is the generic cross-validated selector,
//! and the `tune_*` helpers supply sensible grids per family.
//!
//! The search fans the full `candidate × fold` job matrix out onto the
//! exec pool (`acm_exec::map_collect`) with one RNG stream
//! pre-split per job **in sequential order** — finer-grained than
//! per-candidate dispatch, so a 9-candidate grid load-balances across
//! more than 9 workers, and byte-identical at any `ACM_THREADS` width.

use crate::dataset::Dataset;
use crate::lssvm::{LsSvm, LsSvmConfig};
use crate::rep_tree::{RepTree, RepTreeConfig};
use crate::ridge::RidgeRegression;
use crate::svr::{LinearSvr, SvrConfig};
use crate::validate::check_folds;
pub use crate::validate::CvError;
use acm_sim::rng::SimRng;

/// Result of a grid search: the winning candidate and its CV RMSE.
#[derive(Debug, Clone)]
pub struct TuneResult<C> {
    /// The winning configuration.
    pub config: C,
    /// Mean validation RMSE across folds.
    pub cv_rmse: f64,
    /// All candidates with their scores (grid order).
    pub scores: Vec<(C, f64)>,
}

/// Cross-validated grid search over arbitrary configurations.
///
/// `fit_predict` trains on a fold's training split with the given config
/// and returns predictions for the validation rows. Candidates are scored
/// by mean RMSE over `k` folds; ties break toward the earlier grid entry
/// (grids should be ordered simplest-first). Non-finite candidate scores
/// rank behind every finite one — a NaN can never win — and a grid where
/// *nothing* scores finite is [`CvError::NoFiniteScore`]. Degenerate
/// fold requests (`k < 2`, fewer rows than folds) error up front instead
/// of panicking mid-search.
///
/// Panics on an empty candidate grid — that is a caller bug, not a data
/// condition.
pub fn try_grid_search<C, F>(
    candidates: Vec<C>,
    ds: &Dataset,
    k: usize,
    rng: &mut SimRng,
    fit_predict: F,
) -> Result<TuneResult<C>, CvError>
where
    C: Clone + Send + Sync,
    F: Fn(&C, &Dataset, &Dataset, &mut SimRng) -> Vec<f64> + Send + Sync,
{
    assert!(!candidates.is_empty(), "empty candidate grid");
    check_folds(k, ds.len())?;
    let folds = ds.k_folds(k, rng);
    let nf = folds.len();
    // One deterministic RNG stream per (candidate, fold) job, pre-split
    // in sequential candidate-major order so results are byte-identical
    // at any pool width.
    let jobs: Vec<(usize, usize, SimRng)> = (0..candidates.len())
        .flat_map(|c| (0..nf).map(move |f| (c, f)))
        .map(|(c, f)| (c, f, rng.split()))
        .collect();

    let fold_rmse: Vec<f64> = acm_exec::map_collect(jobs, |(c, f, mut job_rng)| {
        let (train, val) = &folds[f];
        let preds = fit_predict(&candidates[c], train, val, &mut job_rng);
        assert_eq!(preds.len(), val.len(), "one prediction per row");
        let mse: f64 = preds
            .iter()
            .zip(val.targets())
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / val.len() as f64;
        mse.sqrt()
    });

    let scores: Vec<(C, f64)> = candidates
        .into_iter()
        .enumerate()
        .map(|(i, cand)| {
            let sum: f64 = fold_rmse[i * nf..(i + 1) * nf].iter().sum();
            (cand, sum / nf as f64)
        })
        .collect();

    // Rank non-finite scores behind every finite one (total_cmp orders
    // NaN above +inf, but mapping both to +inf keeps ties deterministic:
    // earliest grid entry wins).
    let rank = |s: f64| if s.is_finite() { s } else { f64::INFINITY };
    let best_idx = scores
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| rank(a.1).total_cmp(&rank(b.1)))
        .map(|(i, _)| i)
        .expect("non-empty grid");
    if !scores[best_idx].1.is_finite() {
        return Err(CvError::NoFiniteScore);
    }
    Ok(TuneResult {
        config: scores[best_idx].0.clone(),
        cv_rmse: scores[best_idx].1,
        scores,
    })
}

/// [`try_grid_search`] that panics on degenerate inputs (empty grid, bad
/// fold request, all-non-finite scores) instead of returning an error.
pub fn grid_search<C, F>(
    candidates: Vec<C>,
    ds: &Dataset,
    k: usize,
    rng: &mut SimRng,
    fit_predict: F,
) -> TuneResult<C>
where
    C: Clone + Send + Sync,
    F: Fn(&C, &Dataset, &Dataset, &mut SimRng) -> Vec<f64> + Send + Sync,
{
    try_grid_search(candidates, ds, k, rng, fit_predict)
        .unwrap_or_else(|e| panic!("grid_search: {e}"))
}

/// Tunes REP-Tree depth/support limits.
pub fn tune_rep_tree(ds: &Dataset, k: usize, rng: &mut SimRng) -> TuneResult<RepTreeConfig> {
    let mut grid = Vec::new();
    for &max_depth in &[6, 10, 14] {
        for &min_samples_leaf in &[2, 4, 8] {
            grid.push(RepTreeConfig {
                max_depth,
                min_samples_leaf,
                min_samples_split: min_samples_leaf * 2,
                ..Default::default()
            });
        }
    }
    grid_search(grid, ds, k, rng, |cfg, train, val, rng| {
        let model = RepTree::fit(train, cfg, rng);
        val.rows().iter().map(|r| model.predict_one(r)).collect()
    })
}

/// Tunes the ridge regularisation strength.
pub fn tune_ridge(ds: &Dataset, k: usize, rng: &mut SimRng) -> TuneResult<f64> {
    let grid = vec![1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];
    grid_search(grid, ds, k, rng, |lambda, train, val, _| {
        let model = RidgeRegression::fit(train, *lambda);
        val.rows().iter().map(|r| model.predict_one(r)).collect()
    })
}

/// Tunes the SVR tube width and regularisation.
pub fn tune_svr(ds: &Dataset, k: usize, rng: &mut SimRng) -> TuneResult<SvrConfig> {
    let mut grid = Vec::new();
    for &epsilon in &[0.01, 0.05, 0.2] {
        for &lambda in &[1e-5, 1e-4, 1e-3] {
            grid.push(SvrConfig {
                epsilon,
                lambda,
                ..Default::default()
            });
        }
    }
    grid_search(grid, ds, k, rng, |cfg, train, val, rng| {
        let model = LinearSvr::fit(train, cfg, rng);
        val.rows().iter().map(|r| model.predict_one(r)).collect()
    })
}

/// Tunes the LS-SVM regularisation and bandwidth.
pub fn tune_lssvm(ds: &Dataset, k: usize, rng: &mut SimRng) -> TuneResult<LsSvmConfig> {
    let mut grid = Vec::new();
    for &gamma in &[1.0, 50.0, 500.0] {
        for &sigma in &[None, Some(1.0), Some(3.0)] {
            grid.push(LsSvmConfig {
                gamma,
                sigma,
                max_support: 200, // keep tuning cheap
            });
        }
    }
    grid_search(grid, ds, k, rng, |cfg, train, val, rng| {
        let model = LsSvm::fit(train, cfg, rng);
        val.rows().iter().map(|r| model.predict_one(r)).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Step target: trees need depth ≥ 2; linear models need no shrinkage.
    fn stepped_ds(seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut ds = Dataset::new(["x", "y"]);
        for _ in 0..300 {
            let x = rng.uniform(0.0, 1.0);
            let y = rng.uniform(0.0, 1.0);
            let target = (x * 4.0).floor() + if y > 0.5 { 10.0 } else { 0.0 };
            ds.push(vec![x, y], target + rng.normal(0.0, 0.05));
        }
        ds
    }

    #[test]
    fn grid_search_picks_the_best_candidate() {
        // Candidates are prediction offsets; offset 0 must win.
        let ds = stepped_ds(1);
        let mut rng = SimRng::new(2);
        let result = grid_search(
            vec![5.0, 0.0, -5.0],
            &ds,
            4,
            &mut rng,
            |offset, train, val, _| {
                let mean = train.target_mean() + offset;
                vec![mean; val.len()]
            },
        );
        assert_eq!(result.config, 0.0);
        assert_eq!(result.scores.len(), 3);
        assert!(result.scores.iter().all(|(_, s)| *s >= result.cv_rmse));
    }

    #[test]
    fn tuned_rep_tree_beats_a_stump() {
        let ds = stepped_ds(3);
        let mut rng = SimRng::new(4);
        let tuned = tune_rep_tree(&ds, 4, &mut rng);
        // A depth-6+ tree fits the 8-cell step function; a stump cannot.
        assert!(tuned.config.max_depth >= 6);
        assert!(tuned.cv_rmse < 1.5, "cv rmse {}", tuned.cv_rmse);
    }

    #[test]
    fn tuned_ridge_prefers_light_shrinkage_on_clean_data() {
        let mut rng = SimRng::new(5);
        let mut ds = Dataset::new(["a"]);
        for _ in 0..200 {
            let a = rng.uniform(-1.0, 1.0);
            ds.push(vec![a], 3.0 * a);
        }
        let tuned = tune_ridge(&ds, 4, &mut rng);
        assert!(tuned.config <= 0.01, "lambda {}", tuned.config);
        assert!(tuned.cv_rmse < 0.1);
    }

    #[test]
    fn tuning_is_deterministic_per_seed() {
        let ds = stepped_ds(6);
        let a = tune_rep_tree(&ds, 4, &mut SimRng::new(7));
        let b = tune_rep_tree(&ds, 4, &mut SimRng::new(7));
        assert_eq!(a.config, b.config);
        assert_eq!(a.cv_rmse, b.cv_rmse);
    }

    #[test]
    fn svr_and_lssvm_tuners_return_grid_members() {
        let ds = stepped_ds(8);
        let mut rng = SimRng::new(9);
        let svr = tune_svr(&ds, 3, &mut rng);
        assert!(svr.scores.len() == 9);
        assert!(svr.cv_rmse.is_finite());
        let lssvm = tune_lssvm(&ds, 3, &mut rng);
        assert!(lssvm.scores.len() == 9);
        assert!(lssvm.cv_rmse < svr.cv_rmse * 2.0);
    }

    #[test]
    fn nan_scores_never_win_the_grid() {
        // Candidate 0 poisons its predictions with NaN; candidate 1 is a
        // sane mean predictor. The NaN must lose, loudly ranked last.
        let ds = stepped_ds(12);
        let mut rng = SimRng::new(13);
        let result = grid_search(
            vec!["poison", "mean"],
            &ds,
            3,
            &mut rng,
            |cand, train, val, _| {
                if *cand == "poison" {
                    vec![f64::NAN; val.len()]
                } else {
                    vec![train.target_mean(); val.len()]
                }
            },
        );
        assert_eq!(result.config, "mean");
        assert!(result.cv_rmse.is_finite());
        assert!(result.scores[0].1.is_nan(), "poison scored NaN as recorded");
    }

    #[test]
    fn all_nan_grid_is_an_error_not_a_silent_winner() {
        let ds = stepped_ds(14);
        let err = try_grid_search(
            vec![1.0, 2.0],
            &ds,
            3,
            &mut SimRng::new(15),
            |_, _, val, _| vec![f64::NAN; val.len()],
        )
        .unwrap_err();
        assert_eq!(err, CvError::NoFiniteScore);
    }

    #[test]
    fn degenerate_fold_requests_error_up_front() {
        let ds = stepped_ds(16);
        let mut rng = SimRng::new(17);
        let err = try_grid_search(vec![0.0], &ds, 1, &mut rng, |_, _, val, _| {
            vec![0.0; val.len()]
        })
        .unwrap_err();
        assert_eq!(err, CvError::TooFewFolds { k: 1 });
        let mut tiny = Dataset::new(["x"]);
        tiny.push(vec![0.0], 0.0);
        tiny.push(vec![1.0], 1.0);
        let err = try_grid_search(vec![0.0], &tiny, 3, &mut rng, |_, _, val, _| {
            vec![0.0; val.len()]
        })
        .unwrap_err();
        assert_eq!(err, CvError::TooFewRows { rows: 2, k: 3 });
    }

    #[test]
    #[should_panic(expected = "empty candidate grid")]
    fn empty_grid_panics() {
        let ds = stepped_ds(10);
        let mut rng = SimRng::new(11);
        let _ = grid_search(Vec::<f64>::new(), &ds, 3, &mut rng, |_, _, val, _| {
            vec![0.0; val.len()]
        });
    }
}
