//! The F2PM model menu and its one dispatch, [`AnyModel`].

use crate::dataset::Dataset;
use crate::lasso::LassoRegression;
use crate::linear::LinearRegression;
use crate::lssvm::LsSvm;
use crate::m5p::M5Prime;
use crate::rep_tree::RepTree;
use crate::ridge::RidgeRegression;
use crate::svr::LinearSvr;
use acm_sim::rng::SimRng;

/// The model families F2PM supports (paper Sec. III): "Linear regression,
/// M5P, REP-Tree, Lasso as a predictor, Support-Vector Machine, and
/// Least-Square Support-Vector Machine" — plus Ridge, which the toolchain
/// uses internally and exposes for ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Ordinary least squares.
    Linear,
    /// Tikhonov-regularised least squares.
    Ridge,
    /// L1-regularised linear model used directly as a predictor.
    LassoPredictor,
    /// Regression tree with reduced-error pruning (the paper's deployed
    /// model).
    RepTree,
    /// M5 model tree (linear models at the leaves).
    M5P,
    /// Linear ε-insensitive support-vector regression.
    Svr,
    /// Least-squares SVM with RBF kernel.
    LsSvm,
}

impl ModelKind {
    /// Every family in the menu, in canonical order.
    pub const ALL: [ModelKind; 7] = [
        ModelKind::Linear,
        ModelKind::Ridge,
        ModelKind::LassoPredictor,
        ModelKind::RepTree,
        ModelKind::M5P,
        ModelKind::Svr,
        ModelKind::LsSvm,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Linear => "linear",
            ModelKind::Ridge => "ridge",
            ModelKind::LassoPredictor => "lasso",
            ModelKind::RepTree => "rep-tree",
            ModelKind::M5P => "m5p",
            ModelKind::Svr => "svr",
            ModelKind::LsSvm => "ls-svm",
        }
    }

    /// Trains this family on `ds` with its fixed hyper-parameters. `rng`
    /// drives internal splits (pruning holdouts, SGD shuffling) so training
    /// is deterministic per seed.
    pub fn fit(self, ds: &Dataset, rng: &mut SimRng) -> AnyModel {
        match self {
            ModelKind::Linear => AnyModel::Linear(LinearRegression::fit(ds)),
            ModelKind::Ridge => AnyModel::Ridge(RidgeRegression::fit(ds, 0.01)),
            ModelKind::LassoPredictor => AnyModel::Lasso(LassoRegression::fit_default(ds)),
            ModelKind::RepTree => AnyModel::RepTree(RepTree::fit(ds, rng)),
            ModelKind::M5P => AnyModel::M5P(M5Prime::fit(ds)),
            ModelKind::Svr => AnyModel::Svr(LinearSvr::fit(ds, rng)),
            ModelKind::LsSvm => AnyModel::LsSvm(LsSvm::fit(ds, rng)),
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A trained model from any family (closed enum so it serialises and avoids
/// trait objects on hot prediction paths).
#[derive(Debug, Clone)]
pub enum AnyModel {
    /// Trained OLS model.
    Linear(LinearRegression),
    /// Trained ridge model.
    Ridge(RidgeRegression),
    /// Trained Lasso model.
    Lasso(LassoRegression),
    /// Trained REP-Tree.
    RepTree(RepTree),
    /// Trained M5P model tree.
    M5P(M5Prime),
    /// Trained linear SVR.
    Svr(LinearSvr),
    /// Trained LS-SVM.
    LsSvm(LsSvm),
}

impl AnyModel {
    /// Which family this model belongs to.
    pub fn kind(&self) -> ModelKind {
        match self {
            AnyModel::Linear(_) => ModelKind::Linear,
            AnyModel::Ridge(_) => ModelKind::Ridge,
            AnyModel::Lasso(_) => ModelKind::LassoPredictor,
            AnyModel::RepTree(_) => ModelKind::RepTree,
            AnyModel::M5P(_) => ModelKind::M5P,
            AnyModel::Svr(_) => ModelKind::Svr,
            AnyModel::LsSvm(_) => ModelKind::LsSvm,
        }
    }

    /// Predicts the target for one feature row.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        match self {
            AnyModel::Linear(m) => m.predict_one(x),
            AnyModel::Ridge(m) => m.predict_one(x),
            AnyModel::Lasso(m) => m.predict_one(x),
            AnyModel::RepTree(m) => m.predict_one(x),
            AnyModel::M5P(m) => m.predict_one(x),
            AnyModel::Svr(m) => m.predict_one(x),
            AnyModel::LsSvm(m) => m.predict_one(x),
        }
    }

    /// Predicts many rows.
    pub fn predict<'a, I>(&self, rows: I) -> Vec<f64>
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        match self {
            // The tree has its compact-arena batch walk.
            AnyModel::RepTree(m) => {
                let mut out = Vec::new();
                m.predict_batch_into(rows, &mut out);
                out
            }
            _ => rows.into_iter().map(|r| self.predict_one(r)).collect(),
        }
    }

    /// Stable display name of the model family.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = 3a - 2b + 5 with a pinch of noise.
    fn linear_ds(n: usize, seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut ds = Dataset::new(["a", "b"]);
        for _ in 0..n {
            let a = rng.uniform(0.0, 10.0);
            let b = rng.uniform(0.0, 10.0);
            let y = 3.0 * a - 2.0 * b + 5.0 + rng.normal(0.0, 0.01);
            ds.push(vec![a, b], y);
        }
        ds
    }

    #[test]
    fn every_family_fits_and_predicts_finite() {
        let ds = linear_ds(200, 1);
        let mut rng = SimRng::new(2);
        for kind in ModelKind::ALL {
            let model = kind.fit(&ds, &mut rng);
            assert_eq!(model.kind(), kind);
            let p = model.predict_one(&[5.0, 5.0]);
            assert!(p.is_finite(), "{kind} produced {p}");
            // y(5,5) = 10; every family should be in a generous band.
            assert!((p - 10.0).abs() < 10.0, "{kind} predicted {p}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ModelKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ModelKind::ALL.len());
    }

    #[test]
    fn batch_predict_matches_single() {
        let ds = linear_ds(100, 3);
        let mut rng = SimRng::new(4);
        let rows = [vec![1.0, 2.0], vec![3.0, 4.0], vec![9.5, 0.5]];
        for kind in ModelKind::ALL {
            let model = kind.fit(&ds, &mut rng);
            assert_eq!(model.name(), kind.name());
            let batch = model.predict(rows.iter().map(Vec::as_slice));
            assert_eq!(batch.len(), rows.len());
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(
                    batch[i].to_bits(),
                    model.predict_one(row).to_bits(),
                    "{kind} row {i}"
                );
            }
        }
    }
}
