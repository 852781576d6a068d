//! Virtual-machine, resource and software-anomaly substrate.
//!
//! The paper's testbed ran TPC-W on real VMs (Amazon EC2 `m3.medium` /
//! `m3.small` and private VMware guests) whose servlet code was instrumented
//! to inject software anomalies: **10 % of requests leak memory, 5 % of
//! requests leak an unterminated thread**. This crate is the substitute
//! substrate: a resource-level VM model that
//!
//! * accumulates anomalies at exactly those per-request probabilities,
//! * degrades service (memory pressure → swapping, stuck threads → CPU
//!   theft) as anomalies build up,
//! * crosses a configurable *failure point* (OOM, thread exhaustion, or SLA
//!   violation — the paper's failure point "is not necessarily an actual
//!   crash"),
//! * exposes the F2PM *system feature* vector used to train the RTTF
//!   predictors, and
//! * knows its ground-truth remaining time to failure, which is what the ML
//!   toolchain learns to approximate.
//!
//! The model runs at the era grain: one [`Vm::process_era`] call accounts
//! for all requests a VM served during a control period, which is the
//! interval at which the paper's VMC observes and acts.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod anomaly;
pub mod failure;
pub mod features;
pub mod flavor;
pub mod service;
pub mod vm;

pub use anomaly::{AnomalyConfig, AnomalyState};
pub use failure::{FailureCause, FailureSpec};
pub use features::{FeatureVec, FEATURE_COUNT, FEATURE_NAMES};
pub use flavor::VmFlavor;
pub use service::EraOutcome;
pub use vm::{Vm, VmId, VmSpec, VmState};
