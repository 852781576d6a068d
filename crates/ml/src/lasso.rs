//! Lasso: L1-regularised linear regression by cyclic coordinate descent.
//!
//! F2PM uses Lasso twice (paper Sec. III): to **select the most relevant
//! system features** — "this selection allows to reduce the amount of
//! information to be managed when the system is operational" — and as a
//! predictor in its own right. Coordinate descent with soft thresholding is
//! the standard solver (Friedman et al.); on standardised columns each
//! update is a closed-form shrinkage.
//!
//! The solver runs on *covariance updates* (Friedman, Hastie & Tibshirani
//! 2010 §2.2): one pass over the rows standardises them and accumulates the
//! p×p Gram matrix `XᵀX` and `Xᵀy`; after that the data is never touched
//! again. The descent keeps `q_j = x_j·residual` current for every column,
//! so a coordinate update costs O(p) instead of the O(n) of recomputing the
//! dot product against an explicit residual. Sweep order, shrinkage, `TOL`
//! and `MAX_SWEEPS` are those of the residual form, so the iterates are the
//! same in exact arithmetic and differ only in their last bits in floating
//! point.
//!
//! The descent is latency-bound: each coordinate waits on the one before
//! it through `q` (`q_j → rho → soft threshold → / col_sq → delta →
//! q_{j+1}`). So it runs on the non-constant columns only, with their Gram
//! rows packed at a stride padded to a multiple of [`LANES`] (each `q`
//! update is a fixed number of whole lane groups, no remainder loop), and
//! carries the next two `q` entries in registers, so no coordinate waits
//! on a store of `q` to come back from memory. Every `q` entry a
//! coordinate reads sees the same operations in the same order as on the
//! full p×p matrix, so none of this changes a bit of the result.

use crate::dataset::Dataset;
use crate::linalg::dot;
use crate::scaler::StandardScaler;

/// Convergence tolerance on the max coordinate change (standardised scale).
const TOL: f64 = 1e-7;
/// Hard cap on coordinate-descent sweeps.
const MAX_SWEEPS: usize = 10_000;
/// [`LassoRegression::default_alpha`] as a share of `alpha_max`.
const DEFAULT_ALPHA_SHARE: f64 = 0.01;
/// Width of one lane group of the descent's `q` update: one SSE2 register.
const LANES: usize = 2;

/// A trained Lasso model.
#[derive(Debug, Clone, PartialEq)]
pub struct LassoRegression {
    /// Weights in the original feature space.
    weights: Vec<f64>,
    intercept: f64,
    /// Weights on the standardised scale (used for feature selection —
    /// comparable across features).
    std_weights: Vec<f64>,
    alpha: f64,
    sweeps: usize,
    converged: bool,
}

/// Everything coordinate descent needs from a dataset, gathered in one
/// standardising pass over its rows.
struct Moments {
    n: usize,
    scaler: StandardScaler,
    y_mean: f64,
    /// Gram matrix `XᵀX` of the standardised columns, p×p row-major.
    gram: Vec<f64>,
    /// `Xᵀ(y − ȳ)`: every column's correlation with the residual at `w = 0`.
    xty: Vec<f64>,
}

impl Moments {
    fn new(ds: &Dataset) -> Self {
        assert!(!ds.is_empty(), "cannot fit on empty dataset");
        let p = ds.width();
        let scaler = StandardScaler::fit(ds.rows());
        let y_mean = ds.target_mean();
        let mut gram = vec![0.0; p * p];
        let mut xty = vec![0.0; p];
        let mut z = vec![0.0; p];
        for (row, y) in ds.rows().zip(ds.targets()) {
            for ((zj, v), (m, s)) in z
                .iter_mut()
                .zip(row)
                .zip(scaler.means().iter().zip(scaler.stds()))
            {
                *zj = (v - m) / s;
            }
            let yc = y - y_mean;
            // Every entry sums its n products in row order, like a plain
            // dot product of two columns. Both triangles accumulate:
            // `z_j·z_k` and `z_k·z_j` are the same product, so the matrix
            // comes out symmetric bit for bit.
            for ((gram_j, xty_j), &zj) in gram.chunks_exact_mut(p.max(1)).zip(&mut xty).zip(&z) {
                *xty_j += zj * yc;
                for (g, zk) in gram_j.iter_mut().zip(&z) {
                    *g += zj * zk;
                }
            }
        }
        Moments {
            n: ds.len(),
            scaler,
            y_mean,
            gram,
            xty,
        }
    }

    /// `max_j |x_jᵀy| / n`.
    fn alpha_max(&self) -> f64 {
        let n = self.n as f64;
        self.xty.iter().fold(0.0, |best, c| best.max(c.abs() / n))
    }

    fn solve(self, alpha: f64) -> LassoRegression {
        assert!(alpha >= 0.0, "alpha must be non-negative");
        let p = self.xty.len();
        let gamma = alpha * self.n as f64;
        // Column squared norms (≈ n after standardisation); constant
        // columns map to all-zero and never move off zero.
        let active: Vec<usize> = (0..p).filter(|&j| self.gram[j * p + j] != 0.0).collect();
        let a = active.len();
        // At least two lanes past the last active column, so `q[r + 2]`
        // exists for every `r`.
        let stride = (a + 2).next_multiple_of(LANES);
        let col_sq: Vec<f64> = active.iter().map(|&j| self.gram[j * p + j]).collect();
        let mut gram = vec![0.0; a * stride];
        for (row, &j) in gram.chunks_exact_mut(stride).zip(&active) {
            for (g, &k) in row.iter_mut().zip(&active) {
                *g = self.gram[j * p + k];
            }
        }
        let mut w = vec![0.0; a];
        // q_j = x_j · (y − Xw), kept current through the Gram matrix; the
        // padding lanes stay zero.
        let mut q = vec![0.0; stride];
        for (q, &j) in q.iter_mut().zip(&active) {
            *q = self.xty[j];
        }
        let mut sweeps = 0;
        let mut converged = false;
        while sweeps < MAX_SWEEPS && !converged {
            sweeps += 1;
            let mut max_delta: f64 = 0.0;
            // `q[r]` and `q[r + 1]` as of coordinate `r`, carried in
            // registers: each coordinate waits on the one before it only,
            // and never on a round trip of `q` through memory. The lane
            // update stores the same values.
            let (mut q_r, mut q_next) = (q[0], q[1]);
            for (r, gram_r) in gram.chunks_exact(stride).enumerate() {
                // rho = x_j · (residual + w_j x_j)
                let rho = q_r + w[r] * col_sq[r];
                let new_w = soft_threshold(rho, gamma) / col_sq[r];
                let delta = new_w - w[r];
                if delta != 0.0 {
                    q_r = q_next - delta * gram_r[r + 1];
                    q_next = q[r + 2] - delta * gram_r[r + 2];
                    for (q, g) in q.chunks_exact_mut(LANES).zip(gram_r.chunks_exact(LANES)) {
                        for l in 0..LANES {
                            q[l] -= delta * g[l];
                        }
                    }
                    w[r] = new_w;
                    max_delta = max_delta.max(delta.abs());
                } else {
                    q_r = q_next;
                    q_next = q[r + 2];
                }
            }
            converged = max_delta < TOL;
        }

        let mut std_weights = vec![0.0; p];
        for (&j, w) in active.iter().zip(w) {
            std_weights[j] = w;
        }
        self.finish(alpha, std_weights, sweeps, converged)
    }

    /// Maps the standardised weights back to feature units.
    fn finish(
        &self,
        alpha: f64,
        std_weights: Vec<f64>,
        sweeps: usize,
        converged: bool,
    ) -> LassoRegression {
        let weights: Vec<f64> = std_weights
            .iter()
            .zip(self.scaler.stds())
            .map(|(w, s)| w / s)
            .collect();
        let intercept = self.y_mean - dot(&weights, self.scaler.means());
        LassoRegression {
            weights,
            intercept,
            std_weights,
            alpha,
            sweeps,
            converged,
        }
    }
}

impl LassoRegression {
    /// Fits with L1 strength `alpha` (standardised scale).
    pub fn fit(ds: &Dataset, alpha: f64) -> Self {
        Moments::new(ds).solve(alpha)
    }

    /// Fits with [`LassoRegression::default_alpha`], standardising the
    /// dataset once for both the strength and the descent.
    pub fn fit_default(ds: &Dataset) -> Self {
        let moments = Moments::new(ds);
        let alpha = moments.alpha_max() * DEFAULT_ALPHA_SHARE;
        moments.solve(alpha)
    }

    /// A reasonable default regularisation strength: 1 % of the smallest
    /// alpha that zeroes every coefficient (`alpha_max = max_j |x_jᵀy| / n`).
    pub fn default_alpha(ds: &Dataset) -> f64 {
        Self::alpha_max(ds) * DEFAULT_ALPHA_SHARE
    }

    /// The smallest alpha at which the Lasso solution is identically zero.
    pub fn alpha_max(ds: &Dataset) -> f64 {
        if ds.is_empty() {
            return 0.0;
        }
        Moments::new(ds).alpha_max()
    }

    /// Weights in original feature units.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Weights on the standardised scale (magnitude-comparable across
    /// features).
    pub fn std_weights(&self) -> &[f64] {
        &self.std_weights
    }

    /// Intercept in target units.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// L1 strength used at fit time.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Coordinate-descent sweeps performed.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Whether the last sweep moved every coordinate by less than the
    /// tolerance; `false` means the descent stopped at the sweep cap.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Indices of features whose standardised weight magnitude exceeds
    /// `threshold` — the Lasso feature-selection output F2PM feeds to the
    /// runtime monitors.
    pub fn selected_features(&self, threshold: f64) -> Vec<usize> {
        self.std_weights
            .iter()
            .enumerate()
            .filter(|(_, w)| w.abs() > threshold)
            .map(|(j, _)| j)
            .collect()
    }

    /// Predicts one row.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        dot(&self.weights, x) + self.intercept
    }
}

/// Soft-thresholding operator `S(z, g) = sign(z)·max(|z| − g, 0)`.
fn soft_threshold(z: f64, gamma: f64) -> f64 {
    if z > gamma {
        z - gamma
    } else if z < -gamma {
        z + gamma
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearRegression;
    use acm_sim::rng::SimRng;
    use proptest::prelude::*;

    /// y depends on features 0 and 2 only; 1 and 3 are noise.
    fn sparse_ds(seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut ds = Dataset::new(["signal_a", "noise_a", "signal_b", "noise_b"]);
        for _ in 0..400 {
            let s1 = rng.uniform(-1.0, 1.0);
            let n1 = rng.uniform(-1.0, 1.0);
            let s2 = rng.uniform(-1.0, 1.0);
            let n2 = rng.uniform(-1.0, 1.0);
            let y = 4.0 * s1 - 6.0 * s2 + rng.normal(0.0, 0.1);
            ds.push(vec![s1, n1, s2, n2], y);
        }
        ds
    }

    /// The solver this module used before covariance updates — coordinate
    /// descent against an explicit residual, O(n) per update — kept as the
    /// model the Gram-matrix solver is checked against. Returns the
    /// standardised weights and the sweep count.
    fn residual_descent(ds: &Dataset, alpha: f64) -> (Vec<f64>, usize) {
        let n = ds.len();
        let scaler = StandardScaler::fit(ds.rows());
        let xs = scaler.transform(ds.rows());
        let y_mean = ds.target_mean();
        let cols: Vec<Vec<f64>> = (0..ds.width())
            .map(|j| xs.iter().map(|row| row[j]).collect())
            .collect();
        let col_sq: Vec<f64> = cols.iter().map(|c| dot(c, c)).collect();
        let mut w = vec![0.0; ds.width()];
        let mut residual: Vec<f64> = ds.targets().iter().map(|y| y - y_mean).collect();
        for sweep in 1..=MAX_SWEEPS {
            let mut max_delta: f64 = 0.0;
            for (j, col) in cols.iter().enumerate() {
                if col_sq[j] == 0.0 {
                    continue;
                }
                let rho = dot(col, &residual) + w[j] * col_sq[j];
                let new_w = soft_threshold(rho, alpha * n as f64) / col_sq[j];
                let delta = new_w - w[j];
                if delta != 0.0 {
                    for (r, x) in residual.iter_mut().zip(col) {
                        *r -= delta * x;
                    }
                    w[j] = new_w;
                    max_delta = max_delta.max(delta.abs());
                }
            }
            if max_delta < TOL {
                return (w, sweep);
            }
        }
        (w, MAX_SWEEPS)
    }

    /// The descent this module used before the packed active-column Gram
    /// rows — every column, constant ones skipped in the loop, with a
    /// full-width `q` update — kept as the model the packed descent is
    /// checked against, bit for bit.
    fn full_gram_descent(m: &Moments, alpha: f64) -> LassoRegression {
        let p = m.xty.len();
        let gamma = alpha * m.n as f64;
        let mut w = vec![0.0; p];
        let mut q = m.xty.clone();
        let mut sweeps = 0;
        let mut converged = false;
        while sweeps < MAX_SWEEPS && !converged {
            sweeps += 1;
            let mut max_delta: f64 = 0.0;
            for j in 0..p {
                let gram_j = &m.gram[j * p..(j + 1) * p];
                let col_sq = gram_j[j];
                if col_sq == 0.0 {
                    continue;
                }
                let rho = q[j] + w[j] * col_sq;
                let new_w = soft_threshold(rho, gamma) / col_sq;
                let delta = new_w - w[j];
                if delta != 0.0 {
                    for (q, g) in q.iter_mut().zip(gram_j) {
                        *q -= delta * g;
                    }
                    w[j] = new_w;
                    max_delta = max_delta.max(delta.abs());
                }
            }
            converged = max_delta < TOL;
        }
        m.finish(alpha, w, sweeps, converged)
    }

    /// The Gram accumulation this module used before both triangles were
    /// summed — the upper triangle row by row, mirrored at the end — kept
    /// as the model [`Moments::new`] is checked against. Returns `(XᵀX,
    /// Xᵀy)`.
    fn upper_triangle_moments(ds: &Dataset) -> (Vec<f64>, Vec<f64>) {
        let p = ds.width();
        let scaler = StandardScaler::fit(ds.rows());
        let y_mean = ds.target_mean();
        let mut gram = vec![0.0; p * p];
        let mut xty = vec![0.0; p];
        for (row, y) in ds.rows().zip(ds.targets()) {
            let z = scaler.transform_row(row);
            for j in 0..p {
                xty[j] += z[j] * (y - y_mean);
                for k in j..p {
                    gram[j * p + k] += z[j] * z[k];
                }
            }
        }
        for j in 1..p {
            for k in 0..j {
                gram[j * p + k] = gram[k * p + j];
            }
        }
        (gram, xty)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every float of a fit, as bits.
    fn fit_bits(m: &LassoRegression) -> (Vec<u64>, Vec<u64>, u64, usize, bool) {
        (
            bits(m.weights()),
            bits(m.std_weights()),
            m.intercept().to_bits(),
            m.sweeps(),
            m.converged(),
        )
    }

    /// Leak-like collinear design: every column is a mix of two shared
    /// latent trends plus a little private noise, on very different scales;
    /// `constant` draws pick columns to hold constant (a repeat draw adds
    /// none).
    fn collinear_ds(seed: u64, n: usize, p: usize, noise: f64, constant: usize) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mix: Vec<(f64, f64, f64)> = (0..p)
            .map(|_| {
                (
                    rng.uniform(-2.0, 2.0),
                    rng.uniform(-1.0, 1.0),
                    10f64.powf(rng.uniform(-2.0, 3.0)),
                )
            })
            .collect();
        let const_cols: Vec<usize> = (0..constant).map(|_| rng.index(p)).collect();
        let beta: Vec<f64> = (0..p).map(|_| rng.uniform(-3.0, 3.0)).collect();
        let mut ds = Dataset::new((0..p).map(|j| format!("f{j}")));
        for i in 0..n {
            let t = i as f64 / n as f64;
            let u = rng.uniform(-1.0, 1.0);
            let row: Vec<f64> = mix
                .iter()
                .enumerate()
                .map(|(j, &(a, b, scale))| {
                    if const_cols.contains(&j) {
                        7.5
                    } else {
                        scale * (a * t + b * u + rng.normal(0.0, noise))
                    }
                })
                .collect();
            let y = row
                .iter()
                .zip(&mix)
                .zip(&beta)
                .map(|((x, m), b)| b * x / m.2)
                .sum::<f64>()
                + rng.normal(0.0, 0.1);
            ds.push(row, y);
        }
        ds
    }

    proptest! {
        #[test]
        fn covariance_updates_match_residual_descent(
            seed in 0u64..1_000_000,
            n in 20usize..160,
            p in 2usize..9,
            noise in 0.01f64..0.3,
            share in 0.0f64..0.3,
        ) {
            let ds = collinear_ds(seed, n, p, noise, usize::from(seed % 3 == 0));
            // A fifth of the cases run unregularised.
            let alpha = if seed % 5 == 0 {
                0.0
            } else {
                share * LassoRegression::alpha_max(&ds)
            };
            let model = LassoRegression::fit(&ds, alpha);
            let (w, sweeps) = residual_descent(&ds, alpha);
            prop_assert_eq!(model.sweeps(), sweeps);
            prop_assert_eq!(model.converged(), sweeps < MAX_SWEEPS);
            for (a, b) in model.std_weights().iter().zip(&w) {
                prop_assert!((a - b).abs() <= 1e-9, "{a} vs {b} (alpha {alpha})");
            }
            // The toolchain's selection rule sees the same feature set.
            let select = |w: &[f64]| -> Vec<usize> {
                let cut = 0.02 * w.iter().fold(0.0_f64, |m, w| m.max(w.abs()));
                (0..w.len()).filter(|&j| w[j].abs() > cut).collect()
            };
            prop_assert_eq!(select(model.std_weights()), select(&w));
        }
    }

    proptest! {
        #[test]
        fn moments_and_packed_descent_match_their_oracles(
            seed in 0u64..1_000_000,
            n in 20usize..600,
            p in 1usize..21,
            constant in 0usize..4,
            noise in 0.001f64..0.3,
            share in 0.0f64..0.3,
        ) {
            let ds = collinear_ds(seed, n, p, noise, constant);
            // A fifth of the cases run unregularised.
            let alpha = if seed % 5 == 0 {
                0.0
            } else {
                share * LassoRegression::alpha_max(&ds)
            };
            let moments = Moments::new(&ds);
            let (gram, xty) = upper_triangle_moments(&ds);
            prop_assert_eq!(bits(&moments.gram), bits(&gram));
            prop_assert_eq!(bits(&moments.xty), bits(&xty));
            let expect = full_gram_descent(&moments, alpha);
            let got = LassoRegression::fit(&ds, alpha);
            prop_assert_eq!(fit_bits(&got), fit_bits(&expect), "n={} p={} alpha={}", n, p, alpha);
        }
    }

    #[test]
    fn default_fit_uses_the_default_alpha() {
        let ds = sparse_ds(8);
        let alpha = LassoRegression::default_alpha(&ds);
        assert_eq!(alpha, 0.01 * LassoRegression::alpha_max(&ds));
        assert_eq!(
            LassoRegression::fit_default(&ds),
            LassoRegression::fit(&ds, alpha)
        );
    }

    #[test]
    fn sweep_cap_is_reported_as_unconverged() {
        let ds = sparse_ds(9);
        assert!(LassoRegression::fit(&ds, 0.01).converged());
        // The target is the small difference of two nearly identical
        // columns and there is no penalty: the weights have far to go and
        // each sweep moves them a ten-thousandth of the way.
        let mut rng = SimRng::new(10);
        let mut flat = Dataset::new(["a", "b"]);
        for _ in 0..50 {
            let a = rng.uniform(-1.0, 1.0);
            let b = a + rng.normal(0.0, 0.01);
            flat.push(vec![a, b], 100.0 * (a - b));
        }
        let m = LassoRegression::fit(&flat, 0.0);
        assert_eq!(m.sweeps(), MAX_SWEEPS);
        assert!(!m.converged());
    }

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(5.0, 2.0), 3.0);
        assert_eq!(soft_threshold(-5.0, 2.0), -3.0);
        assert_eq!(soft_threshold(1.0, 2.0), 0.0);
        assert_eq!(soft_threshold(-1.0, 2.0), 0.0);
    }

    #[test]
    fn selects_the_true_support() {
        let ds = sparse_ds(1);
        let m = LassoRegression::fit(&ds, 0.05);
        let sel = m.selected_features(0.01);
        assert_eq!(sel, vec![0, 2], "std weights {:?}", m.std_weights());
    }

    #[test]
    fn zero_alpha_matches_ols() {
        let ds = sparse_ds(2);
        let lasso = LassoRegression::fit(&ds, 0.0);
        let ols = LinearRegression::fit(&ds);
        for (l, o) in lasso.weights().iter().zip(ols.weights()) {
            assert!((l - o).abs() < 1e-4, "{l} vs {o}");
        }
    }

    #[test]
    fn alpha_max_zeroes_everything() {
        let ds = sparse_ds(3);
        let amax = LassoRegression::alpha_max(&ds);
        let m = LassoRegression::fit(&ds, amax * 1.001);
        assert!(
            m.std_weights().iter().all(|w| w.abs() < 1e-9),
            "{:?}",
            m.std_weights()
        );
        // Predicts the target mean everywhere.
        let p = m.predict_one(ds.row(0));
        assert!((p - ds.target_mean()).abs() < 1e-6);
    }

    #[test]
    fn stronger_alpha_is_sparser() {
        let ds = sparse_ds(4);
        let weak = LassoRegression::fit(&ds, 0.001);
        let strong = LassoRegression::fit(&ds, 1.0);
        let nz = |m: &LassoRegression| m.std_weights().iter().filter(|w| w.abs() > 1e-9).count();
        assert!(nz(&strong) <= nz(&weak));
        assert!(nz(&strong) <= 2);
    }

    #[test]
    fn prediction_quality_on_sparse_problem() {
        let ds = sparse_ds(5);
        let m = LassoRegression::fit(&ds, LassoRegression::default_alpha(&ds));
        // y(1, *, -1, *) = 4 + 6 = 10.
        let p = m.predict_one(&[1.0, 0.0, -1.0, 0.0]);
        assert!((p - 10.0).abs() < 0.5, "{p}");
    }

    #[test]
    fn converges_quickly_on_orthogonal_design() {
        let ds = sparse_ds(6);
        let m = LassoRegression::fit(&ds, 0.01);
        assert!(m.sweeps() < 100, "took {} sweeps", m.sweeps());
    }

    #[test]
    fn constant_feature_gets_zero_weight() {
        let mut ds = Dataset::new(["x", "const"]);
        let mut rng = SimRng::new(7);
        for _ in 0..100 {
            let x = rng.uniform(0.0, 1.0);
            ds.push(vec![x, 3.0], 2.0 * x);
        }
        let m = LassoRegression::fit(&ds, 0.001);
        assert_eq!(m.std_weights()[1], 0.0);
        assert!((m.predict_one(&[0.5, 3.0]) - 1.0).abs() < 0.05);
    }
}
