//! Regression quality metrics.
//!
//! F2PM "provides the user with a series of metrics which allow to select
//! which is the most effective ML model" (paper Sec. III). These are the
//! standard ones the model-selection harness reports.

/// Bundle of regression metrics on one evaluation set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressionMetrics {
    /// Mean absolute error.
    pub mae: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Coefficient of determination.
    pub r2: f64,
    /// Mean absolute percentage error (over targets with |y| > eps).
    pub mape: f64,
    /// Number of evaluated points.
    pub n: usize,
}

impl RegressionMetrics {
    /// Computes all metrics for predictions against truths. Panics on
    /// length mismatch or empty input.
    pub fn compute(truth: &[f64], pred: &[f64]) -> Self {
        assert_eq!(truth.len(), pred.len(), "length mismatch");
        assert!(!truth.is_empty(), "cannot score empty evaluation set");
        let n = truth.len() as f64;
        let mae = truth
            .iter()
            .zip(pred)
            .map(|(t, p)| (t - p).abs())
            .sum::<f64>()
            / n;
        let mse = truth
            .iter()
            .zip(pred)
            .map(|(t, p)| (t - p) * (t - p))
            .sum::<f64>()
            / n;
        let mean = truth.iter().sum::<f64>() / n;
        let ss_tot: f64 = truth.iter().map(|t| (t - mean) * (t - mean)).sum();
        let ss_res: f64 = truth.iter().zip(pred).map(|(t, p)| (t - p) * (t - p)).sum();
        let r2 = if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else {
            0.0
        };
        const EPS: f64 = 1e-9;
        let (ape_sum, ape_n) = truth
            .iter()
            .zip(pred)
            .filter(|(t, _)| t.abs() > EPS)
            .fold((0.0, 0usize), |(s, c), (t, p)| {
                (s + ((t - p) / t).abs(), c + 1)
            });
        let mape = if ape_n > 0 {
            ape_sum / ape_n as f64
        } else {
            0.0
        };
        RegressionMetrics {
            mae,
            rmse: mse.sqrt(),
            r2,
            mape,
            n: truth.len(),
        }
    }
}

impl std::fmt::Display for RegressionMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MAE={:.3} RMSE={:.3} R²={:.4} MAPE={:.1}% (n={})",
            self.mae,
            self.rmse,
            self.r2,
            self.mape * 100.0,
            self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let y = [1.0, 2.0, 3.0];
        let m = RegressionMetrics::compute(&y, &y);
        assert_eq!(m.mae, 0.0);
        assert_eq!(m.rmse, 0.0);
        assert_eq!(m.r2, 1.0);
        assert_eq!(m.mape, 0.0);
        assert_eq!(m.n, 3);
    }

    #[test]
    fn constant_prediction_has_zero_r2() {
        let truth = [1.0, 2.0, 3.0];
        let pred = [2.0, 2.0, 2.0]; // predicting the mean
        let m = RegressionMetrics::compute(&truth, &pred);
        assert!((m.r2 - 0.0).abs() < 1e-12);
        assert!((m.mae - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn known_values() {
        let truth = [10.0, 20.0];
        let pred = [12.0, 16.0];
        let m = RegressionMetrics::compute(&truth, &pred);
        assert!((m.mae - 3.0).abs() < 1e-12);
        assert!((m.rmse - (10.0f64).sqrt()).abs() < 1e-12);
        // MAPE = (0.2 + 0.2)/2 = 0.2
        assert!((m.mape - 0.2).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_zero_targets() {
        let truth = [0.0, 10.0];
        let pred = [1.0, 11.0];
        let m = RegressionMetrics::compute(&truth, &pred);
        assert!((m.mape - 0.1).abs() < 1e-12);
    }

    #[test]
    fn constant_target_r2_is_zero() {
        let truth = [5.0, 5.0];
        let pred = [5.0, 6.0];
        let m = RegressionMetrics::compute(&truth, &pred);
        assert_eq!(m.r2, 0.0);
    }

    #[test]
    fn worse_than_mean_gives_negative_r2() {
        let truth = [1.0, 2.0, 3.0];
        let pred = [3.0, 2.0, 1.0];
        let m = RegressionMetrics::compute(&truth, &pred);
        assert!(m.r2 < 0.0);
    }

    #[test]
    fn display_is_compact() {
        let m = RegressionMetrics::compute(&[1.0, 2.0], &[1.0, 2.0]);
        let s = format!("{m}");
        assert!(s.contains("MAE=0.000"));
        assert!(s.contains("n=2"));
    }
}
