//! Property-based tests for the F2PM ML toolchain.

use acm_ml::dataset::Dataset;
use acm_ml::linear::LinearRegression;
use acm_ml::metrics::RegressionMetrics;
use acm_ml::scaler::{StandardScaler, TargetScaler};
use acm_sim::rng::SimRng;
use proptest::prelude::*;

proptest! {
    #[test]
    fn ols_recovers_random_linear_targets_exactly(
        seed in 0u64..500,
        w0 in -10.0f64..10.0,
        w1 in -10.0f64..10.0,
        b in -10.0f64..10.0,
    ) {
        let mut rng = SimRng::new(seed);
        let mut ds = Dataset::new(["a", "b"]);
        for _ in 0..60 {
            let a = rng.uniform(-1.0, 1.0);
            let c = rng.uniform(-1.0, 1.0);
            ds.push(vec![a, c], w0 * a + w1 * c + b);
        }
        let m = LinearRegression::fit(&ds);
        let probe = [0.3, -0.7];
        let want = w0 * probe[0] + w1 * probe[1] + b;
        prop_assert!(
            (m.predict_one(&probe) - want).abs() < 1e-4,
            "got {}, want {want}",
            m.predict_one(&probe)
        );
    }

    #[test]
    fn scaler_output_has_zero_mean_unit_variance(
        seed in 0u64..500,
        scale in 0.1f64..1e5,
        offset in -1e5f64..1e5,
    ) {
        let mut rng = SimRng::new(seed);
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|_| vec![offset + scale * rng.f64()])
            .collect();
        let sc = StandardScaler::fit(&rows);
        let t = sc.transform(&rows);
        let mean: f64 = t.iter().map(|r| r[0]).sum::<f64>() / t.len() as f64;
        let var: f64 = t.iter().map(|r| r[0] * r[0]).sum::<f64>() / t.len() as f64 - mean * mean;
        prop_assert!(mean.abs() < 1e-6, "mean {mean}");
        // Degenerate all-equal samples keep unit scale; otherwise variance ≈ 1.
        if var > 1e-12 {
            prop_assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn target_scaler_round_trips(
        seed in 0u64..500,
        y0 in -1e6f64..1e6,
        spread in 0.0f64..1e6,
    ) {
        let mut rng = SimRng::new(seed);
        let ys: Vec<f64> = (0..20).map(|_| y0 + spread * rng.f64()).collect();
        let ts = TargetScaler::fit(&ys);
        for &y in &ys {
            let rt = ts.inverse(ts.transform(y));
            prop_assert!((rt - y).abs() < 1e-6 * (1.0 + y.abs()), "{rt} vs {y}");
        }
    }

    #[test]
    fn rmse_dominates_mae_and_r2_bounded(
        pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..100),
    ) {
        let truth: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let pred: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let m = RegressionMetrics::compute(&truth, &pred);
        prop_assert!(m.rmse + 1e-12 >= m.mae, "rmse {} < mae {}", m.rmse, m.mae);
        prop_assert!(m.r2 <= 1.0 + 1e-12);
        prop_assert!(m.mae >= 0.0 && m.rmse >= 0.0 && m.mape >= 0.0);
    }

    #[test]
    fn dataset_split_partitions_rows(
        n in 4usize..200,
        frac in 0.1f64..0.9,
        seed in 0u64..500,
    ) {
        let mut ds = Dataset::new(["x"]);
        for i in 0..n {
            ds.push(vec![i as f64], i as f64);
        }
        let (train, test) = ds.split(frac, &mut SimRng::new(seed));
        prop_assert_eq!(train.len() + test.len(), n);
        let mut all: Vec<f64> = train.targets().iter().chain(test.targets()).copied().collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f64> = (0..n).map(|i| i as f64).collect();
        prop_assert_eq!(all, expect);
    }

    #[test]
    fn flat_rows_match_row_vectors(
        seed in 0u64..1_000_000,
        n in 0usize..150,
        width in 1usize..17,
        frac in 0.0f64..1.0,
    ) {
        let mut rng = SimRng::new(seed);
        let names: Vec<String> = (0..width).map(|j| format!("f{j}")).collect();
        let old = RowVectors {
            x: (0..n).map(|_| (0..width).map(|_| rng.uniform(-1e3, 1e3)).collect()).collect(),
            y: (0..n).map(|_| rng.normal(0.0, 10.0)).collect(),
        };
        let mut ds = Dataset::new(names.iter().cloned());
        for (row, &y) in old.x.iter().zip(&old.y) {
            ds.push(row, y);
        }
        prop_assert_eq!(RowVectors::of(&ds), old.clone());

        let keep: Vec<usize> = (0..rng.index(width + 1)).map(|_| rng.index(width)).collect();
        let projected = ds.project(&keep);
        prop_assert_eq!(RowVectors::of(&projected), old.project(&keep));
        let kept_names: Vec<&str> = keep.iter().map(|&j| names[j].as_str()).collect();
        let projected_names: Vec<&str> = projected.feature_names().iter().map(|n| &**n).collect();
        prop_assert_eq!(projected_names, kept_names);

        // Any rows, repeats included (none of an empty dataset).
        let picks = if n == 0 { 0 } else { rng.index(2 * n) };
        let rows: Vec<usize> = (0..picks).map(|_| rng.index(n)).collect();
        prop_assert_eq!(RowVectors::of(&ds.subset(&rows)), old.subset(&rows));

        let split_seed = rng.next_u64();
        let (train, test) = ds.split(frac, &mut SimRng::new(split_seed));
        let (old_train, old_test) = old.split(frac, &mut SimRng::new(split_seed));
        prop_assert_eq!(RowVectors::of(&train), old_train);
        prop_assert_eq!(RowVectors::of(&test), old_test);
    }
}

/// A dataset stored the way [`Dataset`] stored it before its rows were
/// flattened into one buffer — one `Vec` per row — with the row
/// operations of that layout, kept as the model the flat ones are checked
/// against.
#[derive(Debug, Clone, PartialEq)]
struct RowVectors {
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
}

impl RowVectors {
    fn of(ds: &Dataset) -> Self {
        RowVectors {
            x: ds.rows().map(<[f64]>::to_vec).collect(),
            y: ds.targets().to_vec(),
        }
    }

    fn subset(&self, indices: &[usize]) -> Self {
        RowVectors {
            x: indices.iter().map(|&i| self.x[i].clone()).collect(),
            y: indices.iter().map(|&i| self.y[i]).collect(),
        }
    }

    fn project(&self, keep: &[usize]) -> Self {
        RowVectors {
            x: self
                .x
                .iter()
                .map(|row| keep.iter().map(|&j| row[j]).collect())
                .collect(),
            y: self.y.clone(),
        }
    }

    fn split(&self, train_frac: f64, rng: &mut SimRng) -> (Self, Self) {
        let mut idx: Vec<usize> = (0..self.y.len()).collect();
        rng.shuffle(&mut idx);
        let cut = (self.y.len() as f64 * train_frac).round() as usize;
        (self.subset(&idx[..cut]), self.subset(&idx[cut..]))
    }
}
