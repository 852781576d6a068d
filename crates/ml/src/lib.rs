//! F2PM machine-learning toolchain.
//!
//! F2PM (paper ref \[26\]) is the framework that turns the monitored system
//! features into Remaining-Time-To-Failure predictors. Its pipeline is:
//!
//! 1. collect a feature database from instrumented runs,
//! 2. select the relevant features via **Lasso regularisation**,
//! 3. train a menu of models — **linear regression, M5P, REP-Tree, Lasso as
//!    a predictor, SVM, Least-Squares SVM** (paper Sec. III),
//! 4. report validation metrics so the user can pick the best model (the
//!    paper picked REP-Tree).
//!
//! Everything is implemented from scratch on a small dense linear-algebra
//! core — no external ML dependency exists in the approved set, and the
//! models are small enough that clarity beats BLAS.
//!
//! # Layout
//!
//! * [`linalg`] — dense matrices, Cholesky / partial-pivot LU solvers.
//! * [`dataset`] — feature matrix + target vector, splits, projections.
//! * [`scaler`] — z-score standardisation.
//! * [`metrics`] — MAE, RMSE, R², MAPE.
//! * [`linear`], [`ridge`], [`lasso`] — linear family (normal equations,
//!   Tikhonov, coordinate descent with soft thresholding).
//! * [`rep_tree`] — variance-reduction regression tree with reduced-error
//!   pruning (the model the paper deploys).
//! * [`m5p`] — M5 model tree: linear models at the leaves with smoothing.
//! * [`svr`] — linear ε-insensitive SVR trained by averaged SGD.
//! * [`lssvm`] — least-squares SVM with RBF kernel (direct solve).
//! * [`model`] — the [`ModelKind`] menu and [`AnyModel`], the one
//!   dispatch over a trained model of any family.
//! * [`validate`] — model scoring and k-fold cross-validation.
//! * [`toolchain`] — the end-to-end F2PM pipeline used by the controllers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dataset;
pub mod lasso;
pub mod linalg;
pub mod linear;
pub mod lssvm;
pub mod m5p;
pub mod metrics;
pub mod model;
pub mod rep_tree;
pub mod ridge;
pub mod scaler;
pub mod svr;
pub mod toolchain;
pub mod validate;

pub use dataset::Dataset;
pub use model::{AnyModel, ModelKind};
pub use toolchain::{F2pmReport, F2pmToolchain, RttfPredictor};
