//! Line-rate request-routing data plane for the ACM reproduction.
//!
//! The control plane (the MAPE loop in `acm-core`) plans *fractions*: a
//! share `f_i` of global client flow for every region, refreshed each
//! era, and carries that flow at fluid grain; it holds no router. This
//! crate is the request-grain data plane for such a plan — the
//! per-request decision "which region serves *this* request", taken tens
//! of millions of times per second — driven by its own harness,
//! [`run_routed_plane`]:
//!
//! * [`router`] — [`RequestRouter`]: weighted power-of-two-choices over
//!   the planned fractions. Two candidates drawn from a prebuilt
//!   alias-method [`WeightTable`], the latency score picks the winner.
//!   Allocation-free after warm-up; a plan install rebuilds the table in
//!   place; quarantined regions carry zero weight and are
//!   *structurally* unsampleable.
//! * [`latency`] — [`LatencyScorer`]: decaying per-region latency
//!   estimates with minimum-measurement eligibility and an exclusion
//!   threshold relative to the fastest region (the scyllapy
//!   `LatencyAwareness` design), compiled down to one prebuilt `f64`
//!   key per region so the hot loop never walks the region list.
//! * [`plane`] — [`run_routed_plane`]: the sharded end-to-end harness
//!   (open-loop arrivals → per-shard router lens → chaos lens →
//!   region-dependent service → latency feedback) whose per-shard
//!   digests are byte-identical at any `ACM_THREADS`.
//!
//! Determinism follows the repo-wide pre-split discipline: the router
//! owns a dedicated [`SimRng`](acm_sim::rng::SimRng) stream and splits
//! per-shard lenses in shard-index order, exactly like
//! `ChaosLayer::pre_split`.
//!
//! [`WeightTable`]: acm_sim::weights::WeightTable

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod latency;
pub mod plane;
pub mod router;

pub use latency::{LatencyAwareness, LatencyScorer};
pub use plane::{run_routed_plane, PlanStep, PlaneOutcome, RoutedPlaneConfig, ShardDigest};
pub use router::{RequestRouter, RouterStats};
