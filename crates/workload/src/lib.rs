//! TPC-W-like workload generation.
//!
//! The paper's test-bed application is TPC-W, "a multi-tier e-commerce web
//! application that simulates an on-line store", driven by emulated web
//! browsers per the TPC-W specification, with client populations per region
//! varied in `[16, 512]` and "significantly different in number" across
//! regions (Sec. VI-A).
//!
//! The browsers are not simulated one by one: a population enters the
//! model through the closed-loop law and a mix through its mean demand.
//!
//! * [`mix`] — the three canonical TPC-W interaction mixes (browsing,
//!   shopping, ordering) with per-class service-demand multipliers.
//! * [`generator`] — per-region client populations with closed-loop offered
//!   rates (`λ = N / (Z + R)`) and population schedules (constant, step,
//!   ramp) for the load-surge experiments.
//! * [`trace`] — open-loop rate profiles (constant, steps, diurnal,
//!   burst) and the incremental per-era [`OpenLoopArrivals`] Poisson
//!   generator (with deterministic per-shard pre-split streams) for
//!   mega-scale runs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod generator;
pub mod mix;
pub mod trace;

pub use generator::{ClientSchedule, RegionWorkload};
pub use mix::{InteractionClass, TpcwMix};
pub use trace::{OpenLoopArrivals, RateProfile};

/// Mean think time of a TPC-W emulated browser, seconds (TPC-W clause
/// 5.3.2.1 prescribes a negative-exponential distribution with a 7-second
/// mean).
pub const THINK_TIME_MEAN_S: f64 = 7.0;
