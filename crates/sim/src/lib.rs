//! Deterministic discrete-event simulation kernel for the ACM Framework
//! reproduction.
//!
//! The paper's evaluation ran on a physical hybrid cloud (two Amazon EC2
//! regions plus a private VMware host). This crate provides the substitute
//! substrate's deterministic pieces: a microsecond clock, a seedable RNG,
//! the weighted-selection primitive, and a discrete-event kernel. The ACM
//! loop acts once per control era, so the VM models, the overlay, PCAM and
//! the control loop advance era by era on the clock and the RNG; the one
//! model that runs on the event kernel is the routed request plane
//! (`acm_router::run_routed_plane`), which steps one [`Simulator`] per
//! shard on its own pool. The crate depends on nothing: it knows no
//! thread pool and no metrics hub, and counts what it does in plain
//! integers that its caller reads back. Determinism is a feature the
//! original testbed lacked — every figure regenerated by the bench
//! harness is exactly reproducible from its seed.
//!
//! # Layout
//!
//! * [`time`] — simulated clock ([`SimTime`], [`Duration`]) with microsecond
//!   resolution stored in `u64` so event ordering is exact (no float drift).
//! * [`rng`] — a small, fast, splittable PRNG (xoshiro256++) plus the
//!   distribution samplers the workload and anomaly models need
//!   (exponential, normal, log-normal, Poisson, Bernoulli).
//! * [`event`] — the pending-event set: a calendar queue whose key-sorted
//!   bucket chains are threaded through a slot arena (a 4-ary min-heap
//!   holds what lies beyond the ring's span), with a monotonic sequence
//!   tie-breaker so simultaneous events fire in schedule order.
//! * [`sim`] — the [`Simulator`] driver over the model's own [`Event`]
//!   type: schedule events, run until a deadline. The one run loop merges
//!   the queue with a sorted stream of arrival instants
//!   ([`Simulator::run_until_with_arrivals`]), so an open-loop source never
//!   schedules a window of requests into the queue.
//! * [`stats`] — online statistics (Welford mean/variance with min/max)
//!   used by telemetry.
//! * [`series`] — time-series recording, kept as a test oracle for the
//!   era-major telemetry table.
//! * [`weights`] — the shared weighted-selection primitive
//!   ([`WeightTable`]): share normalisation plus O(1) alias sampling with
//!   exact zero-weight exclusion, used by the pcam balancer and the
//!   request router.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod rng;
pub mod series;
pub mod sim;
pub mod stats;
pub mod time;
pub mod weights;

pub use event::EventQueue;
pub use rng::SimRng;
pub use series::{SeriesPoint, SeriesTable, TimeSeries};
pub use sim::{Event, Simulator};
pub use stats::OnlineStats;
pub use time::{Duration, SimTime};
pub use weights::WeightTable;
