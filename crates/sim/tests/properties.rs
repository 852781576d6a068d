//! Property-based tests for the simulation kernel.

use acm_sim::event::EventQueue;
use acm_sim::rng::SimRng;
use acm_sim::stats::OnlineStats;
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

// ---------------------------------------------------------------------------
// Differential property: streamed arrivals vs the same arrivals scheduled
// one boxed closure at a time (the form `run_until_with_arrivals` replaced,
// kept here as the oracle).
// ---------------------------------------------------------------------------

use acm_sim::sim::RunOutcome;
use acm_sim::{EventId, Simulator};

/// Arrival instants, follow-up delays and era bounds are all multiples of
/// this, so equal-instant ties are the common case, not the corner case.
const GRID_US: u64 = 250;
/// Grid steps per era.
const ERA_STEPS: u64 = 10;

/// What fired: `(now µs, is_arrival, tag)`; cancellations log their target
/// and outcome the same way.
type Log = Vec<(u64, bool, u64)>;

struct EraWorld {
    rng: SimRng,
    log: Log,
    /// Handles of follow-ups, fired or not, for later cancellation.
    held: Vec<EventId>,
    next_tag: u64,
}

/// One handler body for arrivals and follow-ups alike: log, maybe cancel a
/// held event, schedule up to two follow-ups 0–12 grid steps ahead (same
/// instant, a later arrival's instant, or a later era). Every choice comes
/// from the world's RNG, so any difference in firing order also derails
/// everything after it.
fn act(s: &mut Simulator<EraWorld>, is_arrival: bool, tag: u64, depth: u32) {
    let now = s.now().as_micros();
    s.world.log.push((now, is_arrival, tag));
    if !s.world.held.is_empty() && s.world.rng.bernoulli(0.3) {
        let k = s.world.rng.index(s.world.held.len());
        let id = s.world.held.swap_remove(k);
        let hit = s.cancel(id);
        s.world.log.push((now, hit, u64::MAX));
    }
    if depth < 3 {
        for _ in 0..s.world.rng.index(3) {
            let delay = Duration::from_micros(GRID_US * s.world.rng.index(13) as u64);
            let tag = s.world.next_tag;
            s.world.next_tag += 1;
            let id = s.schedule_in(delay, move |s| act(s, false, tag, depth + 1));
            s.world.held.push(id);
        }
    }
}

/// What is compared after every era.
type EraState = (RunOutcome, u64, SimTime, usize, Log);

/// Runs the eras (each a list of grid offsets into the era, deadline
/// included) and a final drain, feeding each window through `feed`.
fn run_eras(
    seed: u64,
    eras: &[Vec<u64>],
    feed: impl Fn(&mut Simulator<EraWorld>, &[SimTime], SimTime, u64) -> RunOutcome,
) -> Vec<EraState> {
    let mut sim = Simulator::new(EraWorld {
        rng: SimRng::new(seed),
        log: Vec::new(),
        held: Vec::new(),
        next_tag: 0,
    });
    let era_us = GRID_US * ERA_STEPS;
    let snapshot = |sim: &mut Simulator<EraWorld>, outcome| {
        let log = std::mem::take(&mut sim.world.log);
        (outcome, sim.executed(), sim.now(), sim.pending(), log)
    };
    let mut states = Vec::new();
    let mut first_tag = 0;
    for (e, offsets) in eras.iter().enumerate() {
        let start = e as u64 * era_us;
        let mut window: Vec<SimTime> = offsets
            .iter()
            .map(|o| SimTime::from_micros(start + o * GRID_US))
            .collect();
        window.sort();
        let deadline = SimTime::from_micros(start + era_us);
        let outcome = feed(&mut sim, &window, deadline, first_tag);
        first_tag += window.len() as u64;
        states.push(snapshot(&mut sim, outcome));
    }
    let outcome = sim.run_until(SimTime::from_micros((eras.len() as u64 + 4) * era_us));
    states.push(snapshot(&mut sim, outcome));
    states
}

proptest! {
    #[test]
    fn streamed_arrivals_match_scheduled_arrivals(
        seed in any::<u64>(),
        eras in proptest::collection::vec(
            proptest::collection::vec(0u64..=ERA_STEPS, 0..14),
            2..6,
        ),
    ) {
        let scheduled = run_eras(seed, &eras, |sim, window, deadline, first_tag| {
            for (k, &at) in window.iter().enumerate() {
                let tag = first_tag + k as u64;
                sim.schedule_at(at, move |s| act(s, true, tag, 0));
            }
            sim.run_until(deadline)
        });
        let streamed = run_eras(seed, &eras, |sim, window, deadline, first_tag| {
            let mut tag = first_tag;
            sim.run_until_with_arrivals(window, deadline, |s| {
                act(s, true, tag, 0);
                tag += 1;
            })
        });
        for (era, (a, b)) in scheduled.iter().zip(&streamed).enumerate() {
            prop_assert_eq!(a, b, "era {} diverged:\n scheduled {:?}\n streamed  {:?}", era, a, b);
        }
    }
}

/// A world that logs tags in firing order.
fn tag_sim() -> Simulator<Vec<&'static str>> {
    Simulator::new(Vec::new())
}

fn us(micros: u64) -> SimTime {
    SimTime::from_micros(micros)
}

#[test]
fn event_pending_from_an_earlier_call_fires_before_the_arrival_at_its_instant() {
    let mut sim = tag_sim();
    sim.run_until_with_arrivals(&[us(10)], us(50), |s| {
        s.schedule_at(us(70), |s| s.world.push("carried over"));
    });
    sim.run_until_with_arrivals(&[us(70)], us(100), |s| s.world.push("arrival"));
    assert_eq!(sim.world, ["carried over", "arrival"]);
}

#[test]
fn event_scheduled_during_the_call_fires_after_the_arrival_at_its_instant() {
    let mut sim = tag_sim();
    let mut k = 0;
    sim.run_until_with_arrivals(&[us(10), us(20)], us(50), |s| {
        k += 1;
        if k == 1 {
            s.schedule_at(us(20), |s| s.world.push("follow-up"));
        } else {
            s.world.push("second arrival");
        }
    });
    assert_eq!(sim.world, ["second arrival", "follow-up"]);
}

#[test]
fn equal_instant_arrivals_fire_in_slice_order_ahead_of_their_follow_ups() {
    let mut sim = Simulator::new(Vec::new());
    let mut k = 0u32;
    sim.run_until_with_arrivals(&[us(5); 3], us(5), |s| {
        let me = k;
        k += 1;
        s.world.push(me);
        s.schedule_in(Duration::ZERO, move |s| s.world.push(10 + me));
    });
    assert_eq!(sim.world, [0, 1, 2, 10, 11, 12]);
    assert_eq!(sim.executed(), 6);
}

#[test]
fn arrival_at_the_deadline_fires() {
    let mut sim = tag_sim();
    let outcome = sim.run_until_with_arrivals(&[us(50)], us(50), |s| s.world.push("edge"));
    assert_eq!(sim.world, ["edge"]);
    assert_eq!((outcome, sim.now()), (RunOutcome::Quiescent, us(50)));
}

#[test]
#[should_panic(expected = "past the deadline")]
fn arrival_past_the_deadline_panics() {
    tag_sim().run_until_with_arrivals(&[us(10), us(51)], us(50), |_| {});
}

#[test]
#[should_panic(expected = "cannot schedule into the past")]
fn unsorted_arrivals_panic() {
    tag_sim().run_until_with_arrivals(&[us(20), us(10)], us(50), |_| {});
}

#[test]
#[should_panic(expected = "cannot schedule into the past")]
fn stale_arrivals_panic() {
    let mut sim = tag_sim();
    sim.run_until(us(30));
    sim.run_until_with_arrivals(&[us(20)], us(50), |_| {});
}

#[test]
fn empty_slice_is_run_until() {
    let build = || {
        let mut sim = tag_sim();
        sim.schedule_at(us(10), |s| s.world.push("a"));
        let gone = sim.schedule_at(us(20), |s| s.world.push("cancelled"));
        sim.schedule_at(us(30), |s| s.world.push("b"));
        sim.schedule_at(us(31), |s| s.world.push("late"));
        sim.cancel(gone);
        sim
    };
    let (mut plain, mut streamed) = (build(), build());
    for deadline in [us(30), us(100)] {
        let a = plain.run_until(deadline);
        let b = streamed.run_until_with_arrivals(&[], deadline, |_| unreachable!());
        assert_eq!(a, b);
        assert_eq!(plain.world, streamed.world);
        assert_eq!(
            (plain.now(), plain.executed(), plain.pending()),
            (streamed.now(), streamed.executed(), streamed.pending())
        );
    }
    assert_eq!(plain.world, ["a", "b", "late"]);
}
