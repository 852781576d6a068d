//! Shard-boundary message staging.
//!
//! Under sharded execution a cross-region control message cannot be
//! handed to the destination the instant it is sent: the destination may
//! live on another shard that is concurrently mid-era, and touching its
//! state would both race and make the outcome depend on thread timing.
//! Instead each shard appends its outbound messages to a private
//! [`ShardOutbox`] (recording the transport + chaos delay it already
//! decided), and at the era barrier the outboxes are drained with
//! [`drain_in_shard_order`]: shard-index order between shards, staging
//! order within a shard.
//!
//! For contiguous shard layouts this merged order is exactly the order an
//! unsharded sequential sweep over the items would have produced — the
//! property the byte-identity contract rests on, pinned by this module's
//! tests against an immediate-delivery simulator run.

use crate::graph::NodeId;
use acm_obs::TraceContext;
use acm_sim::time::{Duration, SimTime};

/// One staged cross-shard message: routing envelope plus the delivery
/// delay the sender-side transport/chaos decision already fixed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagedMessage<P> {
    /// Sending overlay node.
    pub from: NodeId,
    /// Destination overlay node.
    pub to: NodeId,
    /// Instant the send happened.
    pub sent_at: SimTime,
    /// Route latency plus any chaos-injected extra delay.
    pub delay: Duration,
    /// Causal trace context piggybacked on the message, so receivers on
    /// other shards can parent their reactions to the sender's span.
    /// `None` when tracing is off — the common case.
    pub ctx: Option<TraceContext>,
    /// Message body.
    pub payload: P,
}

impl<P> StagedMessage<P> {
    /// Instant the message reaches its destination.
    pub fn deliver_at(&self) -> SimTime {
        self.sent_at + self.delay
    }
}

/// Per-shard staging buffer for outbound messages.
///
/// The buffer's allocation survives [`drain_in_shard_order`], so an era
/// loop reuses it instead of reallocating every barrier.
#[derive(Debug, Clone)]
pub struct ShardOutbox<P> {
    shard: usize,
    staged: Vec<StagedMessage<P>>,
}

impl<P> ShardOutbox<P> {
    /// Creates the outbox of shard `shard`.
    pub fn new(shard: usize) -> Self {
        ShardOutbox {
            shard,
            staged: Vec::new(),
        }
    }

    /// The owning shard's index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Stages a message. Order of pushes is the order the unsharded path
    /// would have sent them in — it is preserved through the drain.
    pub fn push(&mut self, msg: StagedMessage<P>) {
        self.staged.push(msg);
    }

    /// Messages currently staged.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }
}

/// The era-barrier exchange: drains every outbox in shard-index order,
/// preserving per-shard staging order, and returns the merged message
/// list. Outboxes keep their allocations for the next era. Panics if the
/// outboxes are not passed in ascending shard order — the merge order is
/// a correctness property, not a convention.
pub fn drain_in_shard_order<P>(outboxes: &mut [ShardOutbox<P>]) -> Vec<StagedMessage<P>> {
    assert!(
        outboxes.windows(2).all(|w| w[0].shard < w[1].shard),
        "outboxes must be drained in ascending shard order"
    );
    let total = outboxes.iter().map(|o| o.staged.len()).sum();
    let mut out = Vec::with_capacity(total);
    for ob in outboxes {
        out.append(&mut ob.staged);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OverlayGraph;
    use crate::transport::Transport;
    use acm_sim::event::EventQueue;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn mesh() -> Transport {
        Transport::new(OverlayGraph::full_mesh(&[
            (n(0), n(1), ms(30)),
            (n(0), n(2), ms(30)),
            (n(0), n(3), ms(30)),
            (n(1), n(2), ms(10)),
            (n(1), n(3), ms(20)),
            (n(2), n(3), ms(10)),
        ]))
    }

    /// The satellite contract: staging + index-ordered drain delivers in
    /// exactly the order the unsharded immediate-send path does — same
    /// instants, same tie-break among simultaneous deliveries.
    #[test]
    fn staged_drain_preserves_the_unsharded_delivery_order() {
        let leader = n(0);
        let senders = [n(1), n(2), n(3), n(1), n(2), n(3)];

        // Unsharded path: sequential sweep, immediate schedule.
        let mut queue = EventQueue::new();
        let mut tr = mesh();
        for (k, &from) in senders.iter().enumerate() {
            let tag = from.0 * 100 + k as u32;
            let delay = tr.prepare_send(from, leader).expect("routable");
            queue.schedule(SimTime::ZERO + delay, tag);
        }
        let sequential: Vec<(SimTime, u32)> = std::iter::from_fn(|| queue.pop()).collect();

        // Sharded path: senders split over two shards (contiguous in the
        // sweep order), each staging into its outbox; barrier drains in
        // shard order and schedules the deliveries.
        let mut tr = mesh();
        let mut outboxes = [ShardOutbox::new(0), ShardOutbox::new(1)];
        for (k, &from) in senders.iter().enumerate() {
            let shard = if k < 3 { 0 } else { 1 };
            let delay = tr.prepare_send(from, leader).expect("routable");
            outboxes[shard].push(StagedMessage {
                from,
                to: leader,
                sent_at: SimTime::ZERO,
                delay,
                ctx: None,
                payload: from.0 * 100 + k as u32,
            });
        }
        for msg in drain_in_shard_order(&mut outboxes) {
            queue.schedule(msg.deliver_at(), msg.payload);
        }
        let staged: Vec<(SimTime, u32)> = std::iter::from_fn(|| queue.pop()).collect();

        assert_eq!(staged, sequential, "staging must not reorder delivery");
        assert!(outboxes.iter().all(|o| o.is_empty()), "drain empties all");
    }

    #[test]
    fn drain_merges_in_shard_then_staging_order() {
        let stage = |ob: &mut ShardOutbox<u32>, payload: u32| {
            ob.push(StagedMessage {
                from: n(1),
                to: n(0),
                sent_at: SimTime::ZERO,
                delay: ms(5),
                ctx: None,
                payload,
            });
        };
        let mut obs = [
            ShardOutbox::new(0),
            ShardOutbox::new(1),
            ShardOutbox::new(2),
        ];
        stage(&mut obs[1], 3);
        stage(&mut obs[0], 1);
        stage(&mut obs[0], 2);
        stage(&mut obs[2], 4);
        let merged: Vec<u32> = drain_in_shard_order(&mut obs)
            .into_iter()
            .map(|m| m.payload)
            .collect();
        assert_eq!(merged, vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "ascending shard order")]
    fn out_of_order_outboxes_are_rejected() {
        let mut obs: [ShardOutbox<u32>; 2] = [ShardOutbox::new(1), ShardOutbox::new(0)];
        let _ = drain_in_shard_order(&mut obs);
    }

    #[test]
    fn deliver_at_adds_the_delay() {
        let m = StagedMessage {
            from: n(0),
            to: n(1),
            sent_at: SimTime::from_secs(10),
            delay: ms(250),
            ctx: None,
            payload: (),
        };
        assert_eq!(m.deliver_at(), SimTime::from_secs(10) + ms(250));
    }

    #[test]
    fn trace_context_survives_staging_and_drain() {
        let ctx = TraceContext {
            trace: 0xdead_beef,
            span: 0x42,
        };
        let mut obs = [ShardOutbox::new(0), ShardOutbox::new(1)];
        obs[1].push(StagedMessage {
            from: n(1),
            to: n(0),
            sent_at: SimTime::ZERO,
            delay: ms(5),
            ctx: Some(ctx),
            payload: 7u32,
        });
        let merged = drain_in_shard_order(&mut obs);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].ctx, Some(ctx), "context rides the message");
    }
}
