//! Z-score standardisation.
//!
//! The gradient- and regularisation-based trainers (Lasso, SVR, LS-SVM) are
//! scale-sensitive, and the monitored features span five orders of magnitude
//! (MiB vs. utilisation fractions), so each model standardises internally
//! with a [`StandardScaler`] fitted on its training split.

/// Per-column mean/std scaler.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits per-column statistics on `rows` (anything that yields the
    /// rows twice: a `&[Vec<f64>]`, [`crate::dataset::Dataset::rows`]).
    /// Constant columns get unit scale so transformation stays
    /// well-defined.
    pub fn fit<I>(rows: I) -> Self
    where
        I: IntoIterator + Clone,
        I::Item: AsRef<[f64]>,
    {
        let mut it = rows.clone().into_iter().peekable();
        let width = it
            .peek()
            .expect("cannot fit scaler on empty data")
            .as_ref()
            .len();
        let mut count = 0usize;
        let mut means = vec![0.0; width];
        for row in it {
            count += 1;
            for (m, v) in means.iter_mut().zip(row.as_ref()) {
                *m += v;
            }
        }
        let n = count as f64;
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; width];
        for row in rows {
            for ((s, v), m) in vars.iter_mut().zip(row.as_ref()).zip(&means) {
                let d = v - m;
                *s += d * d;
            }
        }
        let stds = vars
            .iter()
            .map(|v| {
                let sd = (v / n).sqrt();
                if sd > 1e-12 {
                    sd
                } else {
                    1.0
                }
            })
            .collect();
        StandardScaler { means, stds }
    }

    /// Number of columns the scaler was fitted on.
    pub fn width(&self) -> usize {
        self.means.len()
    }

    /// Standardises one row into a fresh vector.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.width(), "row width mismatch");
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// Standardises many rows.
    pub fn transform<I>(&self, rows: I) -> Vec<Vec<f64>>
    where
        I: IntoIterator,
        I::Item: AsRef<[f64]>,
    {
        rows.into_iter()
            .map(|r| self.transform_row(r.as_ref()))
            .collect()
    }

    /// Per-column means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-column standard deviations (1.0 for constant columns).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }
}

/// Scalar target scaler (mean/std of y), used by models that standardise the
/// target during training and un-standardise predictions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetScaler {
    mean: f64,
    std: f64,
}

impl TargetScaler {
    /// Fits on a target vector.
    pub fn fit(y: &[f64]) -> Self {
        assert!(!y.is_empty(), "cannot fit target scaler on empty data");
        let n = y.len() as f64;
        let mean = y.iter().sum::<f64>() / n;
        let var = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let std = var.sqrt();
        TargetScaler {
            mean,
            std: if std > 1e-12 { std } else { 1.0 },
        }
    }

    /// Standardises a target value.
    pub fn transform(&self, y: f64) -> f64 {
        (y - self.mean) / self.std
    }

    /// Un-standardises a prediction.
    pub fn inverse(&self, z: f64) -> f64 {
        z * self.std + self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_transform_zero_mean_unit_var() {
        let rows = vec![vec![1.0, 100.0], vec![3.0, 300.0], vec![5.0, 500.0]];
        let sc = StandardScaler::fit(&rows);
        let t = sc.transform(&rows);
        for col in 0..2 {
            let mean: f64 = t.iter().map(|r| r[col]).sum::<f64>() / 3.0;
            let var: f64 = t.iter().map(|r| r[col] * r[col]).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12, "col {col} mean {mean}");
            assert!((var - 1.0).abs() < 1e-12, "col {col} var {var}");
        }
    }

    #[test]
    fn constant_column_gets_unit_scale() {
        let rows = vec![vec![7.0], vec![7.0], vec![7.0]];
        let sc = StandardScaler::fit(&rows);
        assert_eq!(sc.stds(), &[1.0]);
        assert_eq!(sc.transform_row(&[7.0]), vec![0.0]);
    }

    #[test]
    fn target_scaler_round_trip() {
        let y = [10.0, 20.0, 30.0, 40.0];
        let ts = TargetScaler::fit(&y);
        for v in y {
            assert!((ts.inverse(ts.transform(v)) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_target_round_trips() {
        let ts = TargetScaler::fit(&[5.0, 5.0]);
        assert_eq!(ts.inverse(ts.transform(5.0)), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_fit_panics() {
        let _ = StandardScaler::fit(&[] as &[Vec<f64>]);
    }
}
