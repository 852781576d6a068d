//! PCAM: proactive cloud availability management for a single region.
//!
//! PCAM (paper ref \[6\]) "keeps some VMs hosting server replicas in the
//! ACTIVE state, while other VMs in the STANDBY state. The state of a VM is
//! controlled by a Virtual Machine Controller (VMC) [...] Whenever the
//! estimated RTTF of an ACTIVE VM is less than a threshold, VMC sends an
//! ACTIVATE command to a VM in the STANDBY state and a REJUVENATE command
//! to the about-to-fail VM" (paper Sec. III). The VMC also hosts the
//! intra-region load balancer that spreads client requests over ACTIVE VMs.
//!
//! * [`pool`] — the region's VM pool with ACTIVE/STANDBY bookkeeping.
//! * [`balancer`] — intra-region load-balancing strategies.
//! * [`vmc`] — the controller: RTTF prediction, proactive rejuvenation,
//!   reactive failure recovery, RMTTF reporting, era processing.
//! * [`training`] — harvesting the F2PM feature database from instrumented
//!   runs of the VM model.
//! * [`online`] — retroactive feature labelling and predictor-drift
//!   detection (the retraining loop a live deployment needs).
//! * [`lifecycle`] — the versioned model registry: drift-triggered
//!   refits deployed two eras later, shadow evaluation with
//!   censored-aware error, and promote/rollback of the serving predictor.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod balancer;
pub mod lifecycle;
pub mod online;
pub mod pool;
pub mod training;
pub mod vmc;

/// Serialises the tests of this binary that resize the process-global
/// exec pool: widths set by one must not change under another.
#[cfg(test)]
pub(crate) static POOL_WIDTH: std::sync::Mutex<()> = std::sync::Mutex::new(());

pub use balancer::BalancerStrategy;
pub use lifecycle::{LifecycleConfig, LifecycleEvent, ModelLifecycle, ShadowScore};
pub use online::{DriftConfig, DriftMonitor, OnlineLabeler};
pub use pool::VmPool;
pub use vmc::{RegionConfig, RegionEraReport, RttfSource, Vmc};
