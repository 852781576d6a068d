//! Model validation: scoring a trained model and k-fold cross-validation.
//!
//! k-fold CV runs its folds in parallel on the exec pool
//! (`acm_exec::map_collect`) with one RNG stream pre-split per fold **in
//! sequential order**, so results are byte-identical at any
//! `ACM_THREADS` width — the same discipline as `pcam::training`.

use crate::dataset::Dataset;
use crate::metrics::RegressionMetrics;
use crate::model::{AnyModel, ModelKind};
use acm_sim::rng::SimRng;

/// Why a k-fold request cannot be evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CvError {
    /// Fewer than 2 folds requested — nothing to hold out.
    TooFewFolds {
        /// The requested fold count.
        k: usize,
    },
    /// The dataset has fewer rows than folds, so some fold would be empty.
    TooFewRows {
        /// Rows available.
        rows: usize,
        /// The requested fold count.
        k: usize,
    },
}

impl std::fmt::Display for CvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CvError::TooFewFolds { k } => {
                write!(f, "k-fold CV needs k >= 2 folds (got k = {k})")
            }
            CvError::TooFewRows { rows, k } => {
                write!(
                    f,
                    "k-fold CV needs at least k rows (got {rows} rows for k = {k})"
                )
            }
        }
    }
}

impl std::error::Error for CvError {}

/// Validates a fold request up front (the checks `Dataset::k_folds`
/// would otherwise enforce by panic): `k >= 2` and `rows >= k`.
pub fn check_folds(k: usize, rows: usize) -> Result<(), CvError> {
    if k < 2 {
        return Err(CvError::TooFewFolds { k });
    }
    if rows < k {
        return Err(CvError::TooFewRows { rows, k });
    }
    Ok(())
}

/// Scores a trained model on an evaluation dataset.
pub fn evaluate(model: &AnyModel, ds: &Dataset) -> RegressionMetrics {
    let preds = model.predict(ds.rows());
    RegressionMetrics::compute(ds.targets(), &preds)
}

/// Per-fold and aggregate results of a k-fold cross-validation.
#[derive(Debug, Clone)]
pub struct CvResult {
    /// Model family evaluated.
    pub kind: ModelKind,
    /// Metrics on each validation fold.
    pub folds: Vec<RegressionMetrics>,
}

impl CvResult {
    /// Mean RMSE across folds. A fold-less result (only constructible by
    /// hand — [`try_cross_validate`] never returns one) yields
    /// `f64::INFINITY`, the worst possible score, rather than the NaN a
    /// naive `0.0 / 0` would produce: NaN compares false to everything
    /// and could silently *win* a min-based model ranking.
    pub fn mean_rmse(&self) -> f64 {
        if self.folds.is_empty() {
            return f64::INFINITY;
        }
        self.folds.iter().map(|m| m.rmse).sum::<f64>() / self.folds.len() as f64
    }

    /// Mean R² across folds (`f64::NEG_INFINITY` — the worst possible R²
    /// — when fold-less; see [`CvResult::mean_rmse`]).
    pub fn mean_r2(&self) -> f64 {
        if self.folds.is_empty() {
            return f64::NEG_INFINITY;
        }
        self.folds.iter().map(|m| m.r2).sum::<f64>() / self.folds.len() as f64
    }

    /// Standard deviation of the per-fold RMSE (stability of the family;
    /// 0.0 when fold-less).
    pub fn rmse_std(&self) -> f64 {
        if self.folds.is_empty() {
            return 0.0;
        }
        let mean = self.mean_rmse();
        let var = self
            .folds
            .iter()
            .map(|m| (m.rmse - mean) * (m.rmse - mean))
            .sum::<f64>()
            / self.folds.len() as f64;
        var.sqrt()
    }
}

/// k-fold cross-validation of one model family, folds evaluated in
/// parallel on the exec pool. Validates the fold request up front
/// instead of returning NaN aggregates (or panicking inside
/// `Dataset::k_folds`) on degenerate inputs.
pub fn try_cross_validate(
    kind: ModelKind,
    ds: &Dataset,
    k: usize,
    rng: &mut SimRng,
) -> Result<CvResult, CvError> {
    check_folds(k, ds.len())?;
    let folds = ds.k_folds(k, rng);
    // One RNG stream per fold, pre-split in sequential order: results are
    // byte-identical at any ACM_THREADS width.
    let jobs: Vec<((Dataset, Dataset), SimRng)> =
        folds.into_iter().map(|f| (f, rng.split())).collect();
    let results = acm_exec::map_collect(jobs, |((train, val), mut fold_rng)| {
        let model = kind.fit(&train, &mut fold_rng);
        evaluate(&model, &val)
    });
    Ok(CvResult {
        kind,
        folds: results,
    })
}

/// k-fold cross-validation of one model family; panics on a degenerate
/// fold request (use [`try_cross_validate`] to handle it).
pub fn cross_validate(kind: ModelKind, ds: &Dataset, k: usize, rng: &mut SimRng) -> CvResult {
    try_cross_validate(kind, ds, k, rng).unwrap_or_else(|e| panic!("cross_validate: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_ds(n: usize, seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut ds = Dataset::new(["a", "b"]);
        for _ in 0..n {
            let a = rng.uniform(0.0, 1.0);
            let b = rng.uniform(0.0, 1.0);
            ds.push(vec![a, b], 2.0 * a + b + rng.normal(0.0, 0.05));
        }
        ds
    }

    #[test]
    fn cross_validation_covers_k_folds() {
        let ds = linear_ds(200, 3);
        let mut rng = SimRng::new(4);
        let cv = cross_validate(ModelKind::Ridge, &ds, 5, &mut rng);
        assert_eq!(cv.folds.len(), 5);
        assert!(cv.mean_r2() > 0.95);
        assert!(cv.mean_rmse() < 0.2);
        assert!(cv.rmse_std() < cv.mean_rmse());
        assert!(cv.folds.iter().all(|m| m.mae <= m.rmse));
    }

    #[test]
    fn degenerate_fold_requests_are_rejected_not_nan() {
        let ds = linear_ds(10, 11);
        let mut rng = SimRng::new(12);
        assert_eq!(
            try_cross_validate(ModelKind::Linear, &ds, 0, &mut rng).unwrap_err(),
            CvError::TooFewFolds { k: 0 }
        );
        assert_eq!(
            try_cross_validate(ModelKind::Linear, &ds, 1, &mut rng).unwrap_err(),
            CvError::TooFewFolds { k: 1 }
        );
        assert_eq!(
            try_cross_validate(ModelKind::Linear, &ds, 11, &mut rng).unwrap_err(),
            CvError::TooFewRows { rows: 10, k: 11 }
        );
        // The error explains itself.
        let msg = CvError::TooFewRows { rows: 10, k: 11 }.to_string();
        assert!(msg.contains("10 rows"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn cross_validate_panics_loudly_on_zero_folds() {
        let ds = linear_ds(10, 13);
        let _ = cross_validate(ModelKind::Linear, &ds, 0, &mut SimRng::new(14));
    }

    #[test]
    fn foldless_result_scores_as_worst_never_nan() {
        // Only constructible by hand, but the aggregates must still be
        // orderable: a NaN would compare false to everything and could
        // silently win a min-based ranking.
        let empty = CvResult {
            kind: ModelKind::Linear,
            folds: vec![],
        };
        assert_eq!(empty.mean_rmse(), f64::INFINITY);
        assert_eq!(empty.mean_r2(), f64::NEG_INFINITY);
        assert_eq!(empty.rmse_std(), 0.0);
        assert!(!empty.mean_rmse().is_nan());
        // A real result always beats the sentinel in a min-RMSE ranking.
        let ds = linear_ds(50, 15);
        let real = cross_validate(ModelKind::Linear, &ds, 5, &mut SimRng::new(16));
        assert!(real.mean_rmse() < empty.mean_rmse());
    }

    #[test]
    fn cross_validation_is_deterministic_per_seed() {
        let ds = linear_ds(120, 17);
        let a = cross_validate(ModelKind::RepTree, &ds, 4, &mut SimRng::new(18));
        let b = cross_validate(ModelKind::RepTree, &ds, 4, &mut SimRng::new(18));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn evaluate_matches_direct_computation() {
        let ds = linear_ds(100, 5);
        let mut rng = SimRng::new(6);
        let model = ModelKind::Linear.fit(&ds, &mut rng);
        let m = evaluate(&model, &ds);
        assert!(m.r2 > 0.99);
    }
}
