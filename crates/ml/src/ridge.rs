//! Ridge (Tikhonov-regularised) regression.
//!
//! Same normal-equation machinery as [`crate::linear`] with a real
//! regularisation strength. Used by the toolchain as a robust linear
//! baseline and inside M5P leaf models.

use crate::dataset::Dataset;
use crate::linalg::dot;
use crate::linear::fit_l2;

/// A trained ridge-regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct RidgeRegression {
    weights: Vec<f64>,
    intercept: f64,
    lambda: f64,
}

impl RidgeRegression {
    /// Fits with regularisation strength `lambda` (on the standardised
    /// scale; `lambda = 0` reduces to OLS up to jitter).
    pub fn fit(ds: &Dataset, lambda: f64) -> Self {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        let (weights, intercept) = fit_l2(ds, lambda.max(1e-8));
        RidgeRegression {
            weights,
            intercept,
            lambda,
        }
    }

    /// Weights in original feature units.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Intercept in target units.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The regularisation strength used at fit time.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Predicts one row.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        dot(&self.weights, x) + self.intercept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearRegression;
    use acm_sim::rng::SimRng;

    fn noisy_ds(seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut ds = Dataset::new(["a", "b"]);
        for _ in 0..300 {
            let a = rng.uniform(-1.0, 1.0);
            let b = rng.uniform(-1.0, 1.0);
            ds.push(vec![a, b], 5.0 * a - 3.0 * b + rng.normal(0.0, 0.5));
        }
        ds
    }

    #[test]
    fn zero_lambda_matches_ols() {
        let ds = noisy_ds(1);
        let ridge = RidgeRegression::fit(&ds, 0.0);
        let ols = LinearRegression::fit(&ds);
        for (r, o) in ridge.weights().iter().zip(ols.weights()) {
            assert!((r - o).abs() < 1e-6, "{r} vs {o}");
        }
    }

    #[test]
    fn heavier_lambda_shrinks_weights() {
        let ds = noisy_ds(2);
        let light = RidgeRegression::fit(&ds, 0.01);
        let heavy = RidgeRegression::fit(&ds, 100.0);
        let light_norm: f64 = light.weights().iter().map(|w| w * w).sum();
        let heavy_norm: f64 = heavy.weights().iter().map(|w| w * w).sum();
        assert!(
            heavy_norm < light_norm * 0.5,
            "{heavy_norm} !< {light_norm}"
        );
    }

    #[test]
    fn infinite_shrinkage_predicts_the_mean() {
        let ds = noisy_ds(3);
        let m = RidgeRegression::fit(&ds, 1e9);
        let p = m.predict_one(&[0.5, 0.5]);
        assert!((p - ds.target_mean()).abs() < 0.01, "{p}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_lambda_panics() {
        let ds = noisy_ds(4);
        let _ = RidgeRegression::fit(&ds, -1.0);
    }

    #[test]
    fn lambda_is_recorded() {
        let ds = noisy_ds(5);
        assert_eq!(RidgeRegression::fit(&ds, 2.5).lambda(), 2.5);
    }
}
