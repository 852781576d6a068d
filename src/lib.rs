//! # ACM Framework — facade crate
//!
//! Single-dependency entry point re-exporting the whole reproduction of
//! *Proactive Cloud Management for Highly Heterogeneous Multi-Cloud
//! Infrastructures* (Pellegrini, Di Sanzo, Avresky — IPDPSW 2016).
//!
//! ```
//! use acm::prelude::*;
//!
//! // Two heterogeneous regions, Policy 2 (Available Resources Estimation).
//! let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 42);
//! cfg.predictor = acm::core::config::PredictorChoice::Oracle; // skip training for the demo
//! cfg.eras = 5;
//! let telemetry = run_experiment(&cfg);
//! assert_eq!(telemetry.eras(), 5);
//! ```
//!
//! The member crates can also be used individually:
//!
//! * [`sim`] — deterministic discrete-event kernel,
//! * [`exec`] — std-only work-stealing thread pool with deterministic
//!   index-ordered collect (`map_collect`, `try_map_collect`,
//!   `for_each_mut`: every parallel call site in the
//!   workspace; sized by `ACM_THREADS` or [`exec::configure_threads`]),
//! * [`vm`] — VM / anomaly / failure-point substrate,
//! * [`ml`] — the F2PM model toolchain (OLS, Ridge, Lasso, REP-Tree, M5P,
//!   SVR, LS-SVM),
//! * [`obs`] — in-process observability (metrics, spans, decision log),
//! * [`overlay`] — controller overlay network and leader election,
//! * [`pcam`] — per-region proactive rejuvenation and local balancing,
//! * [`workload`] — TPC-W-like closed-loop traffic generation,
//! * [`router`] — line-rate request-routing data plane (weighted
//!   power-of-two-choices over the planned fractions, latency-aware),
//! * [`core`] — the ACM control loop and the three load-balancing policies.

pub use acm_chaos as chaos;
pub use acm_core as core;
pub use acm_exec as exec;
pub use acm_ml as ml;
pub use acm_obs as obs;
pub use acm_overlay as overlay;
pub use acm_pcam as pcam;
pub use acm_router as router;
pub use acm_sim as sim;
pub use acm_vm as vm;
pub use acm_workload as workload;

/// Convenient glob-import surface for examples and quick starts.
pub mod prelude {
    pub use acm_core::config::ExperimentConfig;
    pub use acm_core::framework::run_experiment;
    pub use acm_core::policy::PolicyKind;
    pub use acm_core::telemetry::ExperimentTelemetry;
    pub use acm_sim::{Duration, SimRng, SimTime, Simulator};
    pub use acm_vm::{AnomalyConfig, FailureSpec, VmFlavor};
}
