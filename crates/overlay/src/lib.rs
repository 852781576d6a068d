//! Overlay network between VM controllers.
//!
//! "The interconnection among the various controllers is actuated via an
//! overlay network, which selects the path with the smallest latency among
//! two given controllers, and is able to reroute connections in case of a
//! network link failure. Among all the regions' VMCs, a leader VMC is
//! automatically elected using \[a fault-tolerant algorithm\]" (paper
//! Sec. III, citing Avresky & Natchev \[33\]).
//!
//! This crate provides exactly those three capabilities on top of the
//! simulation kernel:
//!
//! * [`graph`] — the weighted controller topology,
//! * [`routing`] — smallest-latency paths (one Dijkstra per source, kept
//!   as a shortest-path tree) with failure-aware rerouting,
//! * [`election`] — leader election that tolerates multiple node and link
//!   failures (per-partition minimum-id convergecast, re-run on any
//!   membership change),
//! * [`transport`] — latency-faithful message pricing for the control
//!   loop: route latency per send, drops to unreachable nodes,
//! * [`fault`] — seeded deterministic fault injection (link flaps, node
//!   crashes, partitions with scheduled heals, leader kills, per-message
//!   drop/delay chaos) replayed against the transport,
//! * [`staging`] — shard-boundary outboxes that defer cross-shard message
//!   delivery to the era barrier and merge it back in shard-index order,
//!   preserving the unsharded delivery order byte for byte.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod election;
pub mod fault;
pub mod graph;
pub mod routing;
pub mod staging;
pub mod transport;

pub use election::{ElectionOutcome, Elector};
pub use fault::{
    ChaosLayer, FaultAction, FaultEvent, FaultPlan, MessageChaos, MessageFate, PlanComponent,
};
pub use graph::{LinkId, NodeId, OverlayGraph};
pub use routing::{PathTree, Route, Router};
pub use staging::{drain_in_shard_order, ShardOutbox, StagedMessage};
pub use transport::Transport;
