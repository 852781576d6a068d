//! Least-squares SVM regression with an RBF kernel (Suykens & Vandewalle;
//! paper ref \[32\]).
//!
//! LS-SVM replaces the ε-insensitive loss with squared loss, turning
//! training into one linear solve of the saddle system
//!
//! ```text
//! [ 0   1ᵀ          ] [ b ]   [ 0 ]
//! [ 1   K + I/γ     ] [ α ] = [ y ]
//! ```
//!
//! where `K` is the RBF Gram matrix. The system is indefinite, so we use the
//! partial-pivot LU solver. Training cost is cubic in the number of support
//! points, so datasets larger than `MAX_SUPPORT` (400) rows are subsampled
//! (documented, deterministic) — standard practice for fixed-size LS-SVM.
//! The regularisation γ is fixed (`GAMMA`, 50) and the RBF bandwidth σ is
//! the median pairwise-distance heuristic.

use crate::dataset::Dataset;
use crate::linalg::Matrix;
use crate::scaler::{StandardScaler, TargetScaler};
use acm_sim::rng::SimRng;

/// Regularisation γ (larger = less regularisation).
const GAMMA: f64 = 50.0;
/// Maximum number of support points (larger training sets are subsampled
/// deterministically).
const MAX_SUPPORT: usize = 400;

/// A trained LS-SVM regressor.
#[derive(Debug, Clone)]
pub struct LsSvm {
    support: Vec<Vec<f64>>, // standardised support points
    alphas: Vec<f64>,
    bias: f64,
    sigma: f64,
    x_scaler: StandardScaler,
    y_scaler: TargetScaler,
}

impl LsSvm {
    /// Fits the model. `rng` only matters when subsampling kicks in.
    pub fn fit(ds: &Dataset, rng: &mut SimRng) -> Self {
        assert!(!ds.is_empty(), "cannot fit on empty dataset");

        // Deterministic subsample when the dataset is too large.
        let ds_owned;
        let ds = if ds.len() > MAX_SUPPORT {
            let mut idx: Vec<usize> = (0..ds.len()).collect();
            rng.shuffle(&mut idx);
            idx.truncate(MAX_SUPPORT);
            ds_owned = ds.subset(&idx);
            &ds_owned
        } else {
            ds
        };

        let x_scaler = StandardScaler::fit(ds.rows());
        let y_scaler = TargetScaler::fit(ds.targets());
        let xs = x_scaler.transform(ds.rows());
        let ys: Vec<f64> = ds
            .targets()
            .iter()
            .map(|&y| y_scaler.transform(y))
            .collect();

        let sigma = median_distance(&xs, rng);
        let n = xs.len();

        // Assemble the (n+1) saddle system.
        let mut a = Matrix::zeros(n + 1, n + 1);
        let mut rhs = vec![0.0; n + 1];
        for i in 0..n {
            a[(0, i + 1)] = 1.0;
            a[(i + 1, 0)] = 1.0;
            rhs[i + 1] = ys[i];
            for j in i..n {
                let k = rbf(&xs[i], &xs[j], sigma);
                a[(i + 1, j + 1)] = k;
                a[(j + 1, i + 1)] = k;
            }
            a[(i + 1, i + 1)] += 1.0 / GAMMA;
        }
        let sol = a
            .solve_lu(&rhs)
            .expect("LS-SVM saddle system must be nonsingular for γ > 0");
        LsSvm {
            support: xs,
            alphas: sol[1..].to_vec(),
            bias: sol[0],
            sigma,
            x_scaler,
            y_scaler,
        }
    }

    /// Predicts one row (original units).
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        let xs = self.x_scaler.transform_row(x);
        let f: f64 = self
            .support
            .iter()
            .zip(&self.alphas)
            .map(|(s, a)| a * rbf(s, &xs, self.sigma))
            .sum::<f64>()
            + self.bias;
        self.y_scaler.inverse(f)
    }
}

/// Gaussian kernel `exp(−‖a−b‖² / (2σ²))`.
fn rbf(a: &[f64], b: &[f64], sigma: f64) -> f64 {
    let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (-d2 / (2.0 * sigma * sigma)).exp()
}

/// Median pairwise distance over a bounded random sample of pairs — the
/// standard bandwidth heuristic. Falls back to 1.0 for degenerate data.
fn median_distance(xs: &[Vec<f64>], rng: &mut SimRng) -> f64 {
    if xs.len() < 2 {
        return 1.0;
    }
    let pairs = 500.min(xs.len() * (xs.len() - 1) / 2);
    let mut dists: Vec<f64> = (0..pairs)
        .map(|_| {
            let i = rng.index(xs.len());
            let mut j = rng.index(xs.len());
            while j == i {
                j = rng.index(xs.len());
            }
            xs[i]
                .iter()
                .zip(&xs[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        })
        .filter(|d| *d > 0.0)
        .collect();
    if dists.is_empty() {
        return 1.0;
    }
    dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
    dists[dists.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rbf_kernel_properties() {
        let a = [1.0, 2.0];
        assert_eq!(rbf(&a, &a, 1.0), 1.0);
        let far = rbf(&a, &[10.0, 10.0], 1.0);
        assert!(far < 1e-10);
        // Symmetry.
        let b = [0.5, 1.5];
        assert_eq!(rbf(&a, &b, 2.0), rbf(&b, &a, 2.0));
    }

    #[test]
    fn fits_a_nonlinear_function() {
        // y = sin(x): linear models cannot, RBF can.
        let mut ds = Dataset::new(["x"]);
        let mut rng = SimRng::new(1);
        for _ in 0..300 {
            let x = rng.uniform(-3.0, 3.0);
            ds.push(vec![x], x.sin());
        }
        let m = LsSvm::fit(&ds, &mut SimRng::new(2));
        for x in [-2.0, -1.0, 0.0, 1.0, 2.0] {
            let p = m.predict_one(&[x]);
            assert!((p - x.sin()).abs() < 0.1, "f({x}) = {p}, want {}", x.sin());
        }
    }

    #[test]
    fn subsamples_large_datasets() {
        let mut ds = Dataset::new(["x"]);
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let x = rng.uniform(0.0, 1.0);
            ds.push(vec![x], 2.0 * x);
        }
        let m = LsSvm::fit(&ds, &mut SimRng::new(4));
        assert_eq!(m.support.len(), MAX_SUPPORT);
        assert!((m.predict_one(&[0.5]) - 1.0).abs() < 0.1);
    }
}
