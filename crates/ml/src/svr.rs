//! Linear ε-insensitive support-vector regression (paper ref \[31\]).
//!
//! Trained in the primal by Pegasos-style stochastic subgradient descent on
//! standardised features and target: minimise
//! `λ/2 ‖w‖² + (1/n) Σ max(0, |y − w·x − b| − ε)`.
//! Averaging the iterates over the final epochs gives the usual variance
//! reduction. This is the "SVM" entry of the F2PM model menu.

use crate::dataset::Dataset;
use crate::linalg::dot;
use crate::scaler::{StandardScaler, TargetScaler};
use acm_sim::rng::SimRng;

/// Width of the ε-insensitive tube (standardised target units).
const EPSILON: f64 = 0.05;
/// Regularisation strength λ.
const LAMBDA: f64 = 1e-4;
/// Passes over the training data.
const EPOCHS: usize = 60;

/// A trained linear SVR.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvr {
    /// Weights on the standardised feature scale.
    w: Vec<f64>,
    b: f64,
    x_scaler: StandardScaler,
    y_scaler: TargetScaler,
}

impl LinearSvr {
    /// Fits by averaged SGD. `rng` shuffles the sample order each epoch.
    pub fn fit(ds: &Dataset, rng: &mut SimRng) -> Self {
        assert!(!ds.is_empty(), "cannot fit on empty dataset");
        let x_scaler = StandardScaler::fit(ds.rows());
        let y_scaler = TargetScaler::fit(ds.targets());
        let xs = x_scaler.transform(ds.rows());
        let ys: Vec<f64> = ds
            .targets()
            .iter()
            .map(|&y| y_scaler.transform(y))
            .collect();

        let n = xs.len();
        let p = ds.width();
        let mut w = vec![0.0; p];
        let mut b = 0.0;
        let mut w_avg = vec![0.0; p];
        let mut b_avg = 0.0;
        let mut avg_count = 0u64;
        let avg_start = EPOCHS / 2; // average the second half

        let mut order: Vec<usize> = (0..n).collect();
        let mut t = 0u64;
        for epoch in 0..EPOCHS {
            rng.shuffle(&mut order);
            for &i in &order {
                t += 1;
                let eta = 1.0 / (LAMBDA * t as f64);
                let err = ys[i] - (dot(&w, &xs[i]) + b);
                // Shrink (the subgradient of the L2 term).
                let shrink = 1.0 - eta * LAMBDA;
                for wj in &mut w {
                    *wj *= shrink;
                }
                if err.abs() > EPSILON {
                    let g = err.signum();
                    // Normalise the data-term step by n so λ and the loss
                    // stay on the objective's scale.
                    let step = eta * g;
                    for (wj, xj) in w.iter_mut().zip(&xs[i]) {
                        *wj += step * xj;
                    }
                    b += step;
                }
                if epoch >= avg_start {
                    for (a, wj) in w_avg.iter_mut().zip(&w) {
                        *a += wj;
                    }
                    b_avg += b;
                    avg_count += 1;
                }
            }
        }
        // Never zero: the averaged second half of the epochs visits every
        // row, and there is at least one.
        for a in &mut w_avg {
            *a /= avg_count as f64;
        }
        b_avg /= avg_count as f64;
        LinearSvr {
            w: w_avg,
            b: b_avg,
            x_scaler,
            y_scaler,
        }
    }

    /// Predicts one row (original units).
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        let xs = self.x_scaler.transform_row(x);
        self.y_scaler.inverse(dot(&self.w, &xs) + self.b)
    }

    /// Weights on the standardised scale (for inspection).
    pub fn std_weights(&self) -> &[f64] {
        &self.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_ds(n: usize, noise: f64, seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut ds = Dataset::new(["a", "b"]);
        for _ in 0..n {
            let a = rng.uniform(-2.0, 2.0);
            let b = rng.uniform(-2.0, 2.0);
            ds.push(vec![a, b], 3.0 * a - b + 2.0 + rng.normal(0.0, noise));
        }
        ds
    }

    #[test]
    fn fits_a_clean_linear_target() {
        let ds = linear_ds(500, 0.0, 1);
        let m = LinearSvr::fit(&ds, &mut SimRng::new(2));
        for (x, want) in [([1.0, 0.0], 5.0), ([0.0, 1.0], 1.0), ([1.0, 1.0], 4.0)] {
            let p = m.predict_one(&x);
            assert!((p - want).abs() < 0.3, "f({x:?}) = {p}, want {want}");
        }
    }

    #[test]
    fn robust_to_outliers_compared_to_ols() {
        // Contaminate 5% of targets with huge outliers: the ε-insensitive
        // loss (L1-like) should resist them better than squared loss.
        let mut ds = linear_ds(500, 0.05, 3);
        let mut rng = SimRng::new(4);
        let mut contaminated = Dataset::new(["a", "b"]);
        for i in 0..ds.len() {
            let mut y = ds.target(i);
            if rng.bernoulli(0.05) {
                y += 100.0;
            }
            contaminated.push(ds.row(i), y);
        }
        ds = contaminated;
        let svr = LinearSvr::fit(&ds, &mut SimRng::new(5));
        let ols = crate::linear::LinearRegression::fit(&ds);
        let truth = |a: f64, b: f64| 3.0 * a - b + 2.0;
        let mut svr_err = 0.0;
        let mut ols_err = 0.0;
        for (a, b) in [(1.0, 1.0), (-1.0, 0.5), (0.0, 0.0), (2.0, -2.0)] {
            svr_err += (svr.predict_one(&[a, b]) - truth(a, b)).abs();
            ols_err += (ols.predict_one(&[a, b]) - truth(a, b)).abs();
        }
        assert!(svr_err < ols_err, "svr {svr_err} vs ols {ols_err}");
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = linear_ds(200, 0.1, 6);
        let a = LinearSvr::fit(&ds, &mut SimRng::new(7));
        let b = LinearSvr::fit(&ds, &mut SimRng::new(7));
        assert_eq!(a, b);
    }
}
