//! Autonomic Cloud Manager (ACM) — the paper's core contribution.
//!
//! ACM "brings all the capabilities of PCAM to a geographically-distributed
//! network of VMs": per-region VMCs report their region mean time to
//! failure (RMTTF) to an elected leader over the overlay network; the
//! leader smooths the reports (Eq. 1), runs one of three proactive
//! load-balancing policies (Sec. IV) to compute the fraction `f_i` of the
//! global request flow each region should absorb, and installs a global
//! forward plan on every region's load balancer. A closed
//! Monitor → Analyze → Plan → Execute loop (Fig. 2, Algs. 1–3) drives the
//! whole system; autoscaling reacts to response-time and RMTTF thresholds.
//!
//! * [`ewma`] — the RMTTF exponentially-weighted average of Eq. 1.
//! * [`policy`] — Policy 1 (Sensible Routing, Eq. 2), Policy 2 (Available
//!   Resources Estimation, Eq. 3–4), Policy 3 (Exploration, Eq. 5–9).
//! * [`plan`] — the global forward plan: the row-stochastic matrix mapping
//!   client ingress shares onto the policy's target fractions.
//! * [`autoscale`] — ADDVMS / deactivation per Alg. 3 and Sec. V.
//! * [`cost`] — multi-cloud cost accounting plus the cost-aware policy
//!   extension (the economics the paper's intro motivates).
//! * [`scenario`] — scripted runtime reconfigurations (policy switches,
//!   faults, capacity actions) applied mid-run.
//! * [`control_loop`] — the four-state closed loop over real region state.
//! * [`telemetry`] — per-era records regenerating the paper's figures.
//! * [`config`] / [`framework`] — experiment wiring, including the paper's
//!   exact two- and three-region hybrid deployments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::too_many_lines)]

pub mod autoscale;
pub mod config;
pub mod control_loop;
pub mod cost;
pub mod degrade;
pub mod ewma;
pub mod framework;
pub mod plan;
pub mod policy;
pub mod scenario;
pub mod telemetry;

pub use config::{ExperimentConfig, PredictorChoice, RegionSpec};
pub use control_loop::ControlLoop;
pub use degrade::{DegradationConfig, HealthTracker, RegionHealth};
pub use ewma::RmttfEwma;
pub use framework::{run_experiment, run_experiment_with_obs};
pub use plan::ForwardPlan;
pub use policy::{LoadBalancingPolicy, PolicyKind};
pub use telemetry::ExperimentTelemetry;

/// Held by this crate's tests that swap the global exec pool
/// (`acm_exec::configure_threads`) or read its counters: a swap mid-run
/// resets the counters a reader's baseline was taken against.
#[cfg(test)]
pub(crate) static POOL_WIDTH: std::sync::Mutex<()> = std::sync::Mutex::new(());
