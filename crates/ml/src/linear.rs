//! Ordinary least squares.
//!
//! Solved through the normal equations on standardised features with a tiny
//! diagonal jitter, which keeps the Cholesky factorisation stable even when
//! monitored features are nearly collinear (resident set and memory
//! utilisation are linearly related by construction).

use crate::dataset::Dataset;
use crate::linalg::{dot, Matrix};
use crate::scaler::StandardScaler;

/// Numerical jitter added to the Gram diagonal (standardised scale).
const JITTER: f64 = 1e-8;

/// A trained ordinary-least-squares model.
///
/// ```
/// use acm_ml::dataset::Dataset;
/// use acm_ml::linear::LinearRegression;
/// let mut ds = Dataset::new(["x"]);
/// for i in 0..20 {
///     ds.push(vec![i as f64], 2.0 * i as f64 + 1.0);
/// }
/// let model = LinearRegression::fit(&ds);
/// assert!((model.predict_one(&[10.0]) - 21.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    /// Weights in the *original* (unstandardised) feature space.
    weights: Vec<f64>,
    intercept: f64,
}

impl LinearRegression {
    /// Fits OLS on the dataset. Panics on an empty dataset.
    pub fn fit(ds: &Dataset) -> Self {
        let (weights, intercept) = fit_l2(ds, JITTER);
        LinearRegression { weights, intercept }
    }

    /// Weights in original feature units.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Intercept in target units.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Predicts one row.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        dot(&self.weights, x) + self.intercept
    }
}

/// Shared L2-regularised normal-equation solver used by OLS (tiny jitter)
/// and Ridge (real `lambda`). Returns weights and intercept in the original
/// feature space. `lambda` applies on the standardised scale.
pub(crate) fn fit_l2(ds: &Dataset, lambda: f64) -> (Vec<f64>, f64) {
    assert!(!ds.is_empty(), "cannot fit on empty dataset");
    let scaler = StandardScaler::fit(ds.rows());
    let xs = scaler.transform(ds.rows());
    let y_mean = ds.target_mean();
    let yc: Vec<f64> = ds.targets().iter().map(|y| y - y_mean).collect();

    let x = Matrix::from_rows(&xs);
    let mut gram = x.gram();
    gram.add_diagonal(lambda * ds.len() as f64);
    let xty = x.transpose().matvec(&yc);
    let w_std = gram
        .solve_spd(&xty)
        .or_else(|| gram.solve_lu(&xty))
        .expect("regularised Gram matrix must be solvable");

    // Un-standardise: w_orig[j] = w_std[j] / std[j];
    // intercept = ȳ − Σ w_orig[j]·mean[j].
    let weights: Vec<f64> = w_std
        .iter()
        .zip(scaler.stds())
        .map(|(w, s)| w / s)
        .collect();
    let intercept = y_mean - dot(&weights, scaler.means());
    (weights, intercept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acm_sim::rng::SimRng;

    fn make_ds(n: usize, noise: f64, seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut ds = Dataset::new(["a", "b", "c"]);
        for _ in 0..n {
            let a = rng.uniform(-5.0, 5.0);
            let b = rng.uniform(0.0, 100.0);
            let c = rng.uniform(-1.0, 1.0);
            let y = 2.0 * a - 0.5 * b + 7.0 * c + 3.0 + rng.normal(0.0, noise);
            ds.push(vec![a, b, c], y);
        }
        ds
    }

    #[test]
    fn recovers_exact_coefficients_noise_free() {
        let ds = make_ds(200, 0.0, 1);
        let m = LinearRegression::fit(&ds);
        let w = m.weights();
        assert!((w[0] - 2.0).abs() < 1e-6, "w0 {}", w[0]);
        assert!((w[1] + 0.5).abs() < 1e-6, "w1 {}", w[1]);
        assert!((w[2] - 7.0).abs() < 1e-6, "w2 {}", w[2]);
        assert!((m.intercept() - 3.0).abs() < 1e-5);
    }

    #[test]
    fn tolerates_noise() {
        let ds = make_ds(2000, 1.0, 2);
        let m = LinearRegression::fit(&ds);
        assert!((m.weights()[0] - 2.0).abs() < 0.1);
        assert!((m.weights()[1] + 0.5).abs() < 0.01);
    }

    #[test]
    fn handles_collinear_features() {
        // b = 2a exactly: the Gram matrix is singular without jitter.
        let mut ds = Dataset::new(["a", "b"]);
        let mut rng = SimRng::new(3);
        for _ in 0..100 {
            let a = rng.uniform(0.0, 10.0);
            ds.push(vec![a, 2.0 * a], 3.0 * a + 1.0);
        }
        let m = LinearRegression::fit(&ds);
        // Predictions must still be right even though the split between the
        // two collinear weights is arbitrary.
        assert!((m.predict_one(&[4.0, 8.0]) - 13.0).abs() < 1e-4);
    }

    #[test]
    fn constant_feature_is_ignored() {
        let mut ds = Dataset::new(["a", "const"]);
        let mut rng = SimRng::new(4);
        for _ in 0..100 {
            let a = rng.uniform(0.0, 10.0);
            ds.push(vec![a, 5.0], 2.0 * a);
        }
        let m = LinearRegression::fit(&ds);
        assert!((m.weights()[0] - 2.0).abs() < 1e-6);
        assert!(m.weights()[1].abs() < 1e-6);
        assert!((m.predict_one(&[3.0, 5.0]) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn single_feature_simple_regression() {
        let mut ds = Dataset::new(["x"]);
        for i in 0..50 {
            ds.push(vec![i as f64], 4.0 * i as f64 - 2.0);
        }
        let m = LinearRegression::fit(&ds);
        assert!((m.weights()[0] - 4.0).abs() < 1e-5);
        assert!((m.intercept() + 2.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_dataset_panics() {
        let ds = Dataset::new(["a"]);
        let _ = LinearRegression::fit(&ds);
    }
}
