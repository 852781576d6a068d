//! Property-based tests for the simulation kernel.

use acm_sim::event::EventQueue;
use acm_sim::rng::SimRng;
use acm_sim::stats::{Histogram, OnlineStats, P2Quantile};
use acm_sim::time::{Duration, SimTime};
use proptest::prelude::*;

proptest! {
    #[test]
    fn online_stats_merge_equals_sequential(
        xs in proptest::collection::vec(-1e6f64..1e6, 2..200),
        split in 1usize..199,
    ) {
        let split = split.min(xs.len() - 1);
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!(
            (a.variance() - whole.variance()).abs()
                < 1e-6 * (1.0 + whole.variance().abs())
        );
    }

    #[test]
    fn p2_quantile_tracks_exact_quantile(
        seed in 0u64..500,
        q in 0.05f64..0.95,
    ) {
        let mut rng = SimRng::new(seed);
        let mut est = P2Quantile::new(q);
        let mut xs = Vec::with_capacity(5_000);
        for _ in 0..5_000 {
            let x = rng.uniform(0.0, 1.0);
            est.push(x);
            xs.push(x);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let exact = xs[((xs.len() as f64 - 1.0) * q) as usize];
        prop_assert!(
            (est.estimate() - exact).abs() < 0.05,
            "q={q}: est {} vs exact {exact}",
            est.estimate()
        );
    }

    #[test]
    fn histogram_conserves_counts(
        xs in proptest::collection::vec(-10.0f64..20.0, 0..500),
    ) {
        let mut h = Histogram::new(0.0, 10.0, 7);
        for &x in &xs {
            h.push(x);
        }
        let binned: u64 = h.bins().iter().sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), xs.len() as u64);
        prop_assert_eq!(h.count(), xs.len() as u64);
    }

    #[test]
    fn event_queue_cancellation_preserves_survivors(
        times in proptest::collection::vec(0u64..10_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_micros(t), i))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(q.cancel(*id));
            } else {
                expected.push(i);
            }
        }
        prop_assert_eq!(q.len(), expected.len());
        let mut delivered: Vec<usize> = Vec::new();
        while let Some((_, payload)) = q.pop() {
            delivered.push(payload);
        }
        delivered.sort_unstable();
        prop_assert_eq!(delivered, expected);
    }

    #[test]
    fn uniform_draws_respect_bounds(
        seed in 0u64..1_000,
        lo in -100.0f64..100.0,
        width in 0.0f64..100.0,
    ) {
        let mut rng = SimRng::new(seed);
        let hi = lo + width;
        for _ in 0..100 {
            let x = rng.uniform(lo, hi);
            prop_assert!(x >= lo && x <= hi, "{x} outside [{lo},{hi}]");
        }
    }

    #[test]
    fn exponential_is_positive_and_finite(
        seed in 0u64..1_000,
        mean in 1e-3f64..1e3,
    ) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            let x = rng.exponential(mean);
            prop_assert!(x >= 0.0 && x.is_finite());
        }
    }

    #[test]
    fn duration_mul_is_monotone(
        micros in 0u64..1u64 << 40,
        f1 in 0.0f64..10.0,
        extra in 0.0f64..10.0,
    ) {
        let d = Duration::from_micros(micros);
        prop_assert!(d.mul_f64(f1) <= d.mul_f64(f1 + extra) + Duration::from_micros(1));
    }

    #[test]
    fn weighted_index_never_picks_zero_weight(
        seed in 0u64..1_000,
        idx in 0usize..4,
    ) {
        let mut rng = SimRng::new(seed);
        let mut weights = [1.0, 1.0, 1.0, 1.0];
        weights[idx] = 0.0;
        for _ in 0..200 {
            prop_assert_ne!(rng.weighted_index(&weights), idx);
        }
    }
}

// ---------------------------------------------------------------------------
// Differential property: the arena event queue vs an independent model.
// ---------------------------------------------------------------------------

/// One step of a random event-queue workload.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Schedule at the given microsecond timestamp.
    Schedule(u64),
    /// Cancel the k-th oldest still-held handle (no-op when none are held).
    Cancel(usize),
    /// Pop the earliest live event.
    Pop,
    /// Drop every pending event.
    Clear,
}

fn op_strategy() -> impl Strategy<Value = QueueOp> {
    // Weights: scheduling dominates, clears are rare — the mix the
    // simulator actually produces.
    (0u32..100, 0u64..50_000, 0usize..64).prop_map(|(sel, at, k)| match sel {
        0..=49 => QueueOp::Schedule(at),
        50..=69 => QueueOp::Cancel(k),
        70..=97 => QueueOp::Pop,
        _ => QueueOp::Clear,
    })
}

/// A naive but obviously-correct pending-event model: a Vec of
/// `(time, seq, payload)` scanned linearly for the minimum.
#[derive(Default)]
struct NaiveQueue {
    entries: Vec<(SimTime, u64, u64)>,
    next_seq: u64,
}

impl NaiveQueue {
    fn schedule(&mut self, at: SimTime, payload: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push((at, seq, payload));
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        match self.entries.iter().position(|e| e.1 == seq) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let min = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.0, e.1))
            .map(|(i, _)| i)?;
        let (at, _, payload) = self.entries.remove(min);
        Some((at, payload))
    }
}

proptest! {
    #[test]
    fn arena_queue_matches_naive_model(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut arena = EventQueue::new();
        let mut naive = NaiveQueue::default();
        // Handles held for future cancellation, oldest first.
        let mut handles: Vec<(acm_sim::EventId, u64)> = Vec::new();
        let mut payload = 0u64;
        for op in ops {
            match op {
                QueueOp::Schedule(at) => {
                    let at = SimTime::from_micros(at);
                    let id = arena.schedule(at, payload);
                    let seq = naive.schedule(at, payload);
                    handles.push((id, seq));
                    payload += 1;
                }
                QueueOp::Cancel(k) => {
                    if !handles.is_empty() {
                        let (id, seq) = handles.remove(k % handles.len());
                        let a = arena.cancel(id);
                        let b = naive.cancel(seq);
                        prop_assert_eq!(a, b, "cancel outcome diverged");
                    }
                }
                QueueOp::Pop => {
                    let a = arena.pop();
                    let b = naive.pop();
                    // Handles of fired events stay held, so later
                    // cancels also try stale ones (both must refuse).
                    prop_assert_eq!(a, b, "pop diverged");
                }
                QueueOp::Clear => {
                    arena.clear();
                    naive.entries.clear();
                    handles.clear();
                }
            }
            prop_assert_eq!(arena.len(), naive.entries.len());
            prop_assert_eq!(arena.peek_time(), naive.entries.iter().map(|e| (e.0, e.1)).min().map(|(at, _)| at));
        }
        // Drain both: every remaining event must match, in order.
        loop {
            let (a, b) = (arena.pop(), naive.pop());
            prop_assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }
}
