//! Feature database.
//!
//! The F2PM feature-monitor agent "builds a database of system features, for
//! later usage by the ML algorithms" (paper Sec. III). [`Dataset`] is that
//! database: a feature matrix, an RTTF target vector, and the feature names
//! (so Lasso selection can be reported by name).

use acm_sim::rng::SimRng;
use std::sync::Arc;

/// A supervised regression dataset: rows of features with an RTTF target.
///
/// The features live in one row-major buffer, so building, projecting or
/// splitting a dataset costs one allocation per buffer, not one per row.
/// Feature names are shared: a projection copies pointers, not text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    feature_names: Vec<Arc<str>>,
    /// Row `i` is `x[i * width..(i + 1) * width]`.
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset with the given feature names.
    pub fn new<I, S>(feature_names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Arc<str>>,
    {
        Dataset {
            feature_names: feature_names.into_iter().map(Into::into).collect(),
            x: Vec::new(),
            y: Vec::new(),
        }
    }

    /// Appends one labelled observation. Panics on width mismatch or
    /// non-finite values — a corrupt training row would silently poison
    /// every downstream model.
    pub fn push(&mut self, features: impl AsRef<[f64]>, target: f64) {
        let features = features.as_ref();
        assert_eq!(
            features.len(),
            self.feature_names.len(),
            "feature width mismatch"
        );
        assert!(
            features.iter().all(|v| v.is_finite()) && target.is_finite(),
            "non-finite observation"
        );
        self.x.extend_from_slice(features);
        self.y.push(target);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset holds no observations.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of features.
    pub fn width(&self) -> usize {
        self.feature_names.len()
    }

    /// Feature names.
    pub fn feature_names(&self) -> &[Arc<str>] {
        &self.feature_names
    }

    /// Feature rows, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + Clone + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Targets.
    pub fn targets(&self) -> &[f64] {
        &self.y
    }

    /// One feature row.
    pub fn row(&self, i: usize) -> &[f64] {
        let w = self.width();
        &self.x[i * w..(i + 1) * w]
    }

    /// Target of row `i`.
    pub fn target(&self, i: usize) -> f64 {
        self.y[i]
    }

    /// Mean of the target vector (0 when empty).
    pub fn target_mean(&self) -> f64 {
        if self.y.is_empty() {
            0.0
        } else {
            self.y.iter().sum::<f64>() / self.y.len() as f64
        }
    }

    /// Returns a dataset containing only the rows at `indices` (cloned).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut x = Vec::with_capacity(indices.len() * self.width());
        for &i in indices {
            x.extend_from_slice(self.row(i));
        }
        Dataset {
            feature_names: self.feature_names.clone(),
            x,
            y: indices.iter().map(|&i| self.y[i]).collect(),
        }
    }

    /// Projects the dataset onto the feature columns at `keep` (in order).
    pub fn project(&self, keep: &[usize]) -> Dataset {
        let mut out = Dataset::default();
        self.gather(0..self.len(), keep, &mut out);
        out
    }

    /// The rows at `rows`, projected onto the feature columns at `keep`
    /// (both in order): [`Dataset::subset`] then [`Dataset::project`]
    /// without the intermediate copy, into `out`'s buffers, which a caller
    /// that selects again and again keeps: no larger a selection than the
    /// last allocates nothing.
    pub(crate) fn select_into(&self, rows: &[usize], keep: &[usize], out: &mut Dataset) {
        self.gather(rows.iter().copied(), keep, out);
    }

    fn gather<I>(&self, rows: I, keep: &[usize], out: &mut Dataset)
    where
        I: ExactSizeIterator<Item = usize> + Clone,
    {
        for &j in keep {
            assert!(j < self.width(), "feature index {j} out of range");
        }
        out.x.clear();
        out.x.reserve(rows.len() * keep.len());
        for i in rows.clone() {
            let row = self.row(i);
            out.x.extend(keep.iter().map(|&j| row[j]));
        }
        out.feature_names.clear();
        out.feature_names
            .extend(keep.iter().map(|&j| self.feature_names[j].clone()));
        out.y.clear();
        out.y.extend(rows.map(|i| self.y[i]));
    }

    /// Deterministic shuffled split into `(train, test)` with the given
    /// train fraction.
    pub fn split(&self, train_frac: f64, rng: &mut SimRng) -> (Dataset, Dataset) {
        let mut order = Vec::new();
        let cut = split_order(self.len(), train_frac, rng, &mut order);
        (self.subset(&order[..cut]), self.subset(&order[cut..]))
    }

    /// Deterministic k-fold partition: returns `k` (train, validation)
    /// pairs covering every row exactly once as validation.
    pub fn k_folds(&self, k: usize, rng: &mut SimRng) -> Vec<(Dataset, Dataset)> {
        assert!(k >= 2, "need at least two folds");
        assert!(self.len() >= k, "fewer rows than folds");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut idx);
        let mut folds = Vec::with_capacity(k);
        for f in 0..k {
            let val: Vec<usize> = idx
                .iter()
                .enumerate()
                .filter(|(i, _)| i % k == f)
                .map(|(_, &v)| v)
                .collect();
            let train: Vec<usize> = idx
                .iter()
                .enumerate()
                .filter(|(i, _)| i % k != f)
                .map(|(_, &v)| v)
                .collect();
            folds.push((self.subset(&train), self.subset(&val)));
        }
        folds
    }

    /// Merges another dataset with identical feature names into this one.
    pub fn extend(&mut self, other: &Dataset) {
        assert_eq!(
            self.feature_names, other.feature_names,
            "incompatible feature spaces"
        );
        self.x.extend_from_slice(&other.x);
        self.y.extend_from_slice(&other.y);
    }
}

/// Writes into `order` the row order [`Dataset::split`] draws for `len`
/// rows — shuffled, train rows first — and returns the cut between train
/// and test. Callers that split an index list instead of a dataset
/// consume the same `rng` draws.
pub(crate) fn split_order(
    len: usize,
    train_frac: f64,
    rng: &mut SimRng,
    order: &mut Vec<usize>,
) -> usize {
    assert!((0.0..=1.0).contains(&train_frac), "bad train fraction");
    order.clear();
    order.extend(0..len);
    rng.shuffle(order);
    (len as f64 * train_frac).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut ds = Dataset::new(["a", "b"]);
        for i in 0..10 {
            ds.push(vec![i as f64, 2.0 * i as f64], 10.0 * i as f64);
        }
        ds
    }

    #[test]
    fn push_and_read_back() {
        let ds = toy();
        assert_eq!(ds.len(), 10);
        assert_eq!(ds.width(), 2);
        assert_eq!(ds.row(3), &[3.0, 6.0]);
        assert_eq!(ds.target(3), 30.0);
        assert_eq!(ds.feature_names(), [Arc::from("a"), Arc::from("b")]);
        assert!((ds.target_mean() - 45.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn push_wrong_width_panics() {
        let mut ds = Dataset::new(["a", "b"]);
        ds.push(vec![1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn push_nan_panics() {
        let mut ds = Dataset::new(["a"]);
        ds.push(vec![f64::NAN], 0.0);
    }

    #[test]
    fn subset_selects_rows() {
        let ds = toy();
        let sub = ds.subset(&[0, 5, 9]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.target(1), 50.0);
    }

    #[test]
    fn project_selects_columns() {
        let ds = toy();
        let p = ds.project(&[1]);
        assert_eq!(p.width(), 1);
        assert_eq!(p.feature_names(), [Arc::from("b")]);
        assert_eq!(p.row(4), &[8.0]);
        assert_eq!(p.targets(), ds.targets());
    }

    #[test]
    fn select_is_subset_then_project() {
        let ds = toy();
        let mut rng = SimRng::new(3);
        // One buffer throughout: every selection overwrites the last.
        let mut selected = Dataset::default();
        for _ in 0..50 {
            let rows: Vec<usize> = (0..rng.index(15)).map(|_| rng.index(ds.len())).collect();
            let keep: Vec<usize> = (0..rng.index(4)).map(|_| rng.index(ds.width())).collect();
            ds.select_into(&rows, &keep, &mut selected);
            assert_eq!(selected, ds.subset(&rows).project(&keep));
        }
    }

    #[test]
    fn split_partitions_everything() {
        let ds = toy();
        let mut rng = SimRng::new(1);
        let (train, test) = ds.split(0.7, &mut rng);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        let mut all: Vec<f64> = train
            .targets()
            .iter()
            .chain(test.targets())
            .copied()
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut expect: Vec<f64> = ds.targets().to_vec();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, expect);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let ds = toy();
        let (a, _) = ds.split(0.5, &mut SimRng::new(9));
        let (b, _) = ds.split(0.5, &mut SimRng::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn k_folds_cover_all_rows_once() {
        let ds = toy();
        let mut rng = SimRng::new(2);
        let folds = ds.k_folds(5, &mut rng);
        assert_eq!(folds.len(), 5);
        let mut val_targets: Vec<f64> = folds
            .iter()
            .flat_map(|(_, v)| v.targets().to_vec())
            .collect();
        val_targets.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut expect = ds.targets().to_vec();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(val_targets, expect);
        for (train, val) in &folds {
            assert_eq!(train.len() + val.len(), ds.len());
        }
    }

    #[test]
    fn extend_concatenates() {
        let mut a = toy();
        let b = toy();
        a.extend(&b);
        assert_eq!(a.len(), 20);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn extend_incompatible_panics() {
        let mut a = toy();
        let b = Dataset::new(["x", "y"]);
        a.extend(&b);
    }
}
