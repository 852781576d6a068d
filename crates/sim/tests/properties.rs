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
// The batch samplers against the one-at-a-time loops they replaced.
// ---------------------------------------------------------------------------

/// `bernoulli_count`'s oracle: the loop `sample_binomial` ran before it.
fn bernoulli_loop(rng: &mut SimRng, n: u64, p: f64) -> u64 {
    (0..n).filter(|_| rng.bernoulli(p)).count() as u64
}

/// Neighbours of `x` one unit in the last place away, down and up.
fn ulp_neighbours(x: f64) -> [f64; 2] {
    let bits = x.to_bits();
    [f64::from_bits(bits - 1), f64::from_bits(bits + 1)]
}

proptest! {
    #[test]
    fn bernoulli_count_is_the_bernoulli_loop(
        seed in 0u64..1_000_000,
        n in 0u64..600,
        pick in 0usize..600,
        k in 1u64..1 << 53,
    ) {
        // Thresholds a trial can sit exactly on: an upcoming draw's own
        // `x >> 11`, scaled to `[0, 1)`, and a random grid point; each with
        // its ulp neighbours, so `<` against `⌈p · 2⁵³⌉` is tested where
        // rounding the other way (`floor`) would flip a trial.
        let mut peek = SimRng::new(seed);
        let mut upcoming = 0;
        for _ in 0..=pick.min(n.saturating_sub(1) as usize) {
            upcoming = peek.next_u64() >> 11;
        }
        let mut ps = vec![
            0.0, -0.0, 1.0, 1.0 - f64::EPSILON / 2.0, -1.0, 2.0,
            f64::MIN_POSITIVE / 4.0, 5e-324, f64::NAN, 0.10, 0.05,
        ];
        for grid in [upcoming.max(1), k] {
            let p = grid as f64 / (1u64 << 53) as f64;
            ps.push(p);
            ps.extend(ulp_neighbours(p));
        }
        for p in ps {
            let (mut batch, mut oracle) = (SimRng::new(seed), SimRng::new(seed));
            prop_assert_eq!(batch.bernoulli_count(n, p), bernoulli_loop(&mut oracle, n, p), "p {:e}", p);
            prop_assert_eq!(&batch, &oracle, "stream after p {:e}", p);
        }
    }

    #[test]
    fn log_normals_into_is_successive_log_normals(
        seed in 0u64..1_000_000,
        mu in -3.0f64..3.0,
        sigma in 0.0f64..2.0,
    ) {
        for len in 0..=40 {
            let (mut batch, mut oracle) = (SimRng::new(seed), SimRng::new(seed));
            let mut got = vec![0.0; len];
            batch.log_normals_into(mu, sigma, &mut got);
            for (i, x) in got.iter().enumerate() {
                let want = oracle.log_normal(mu, sigma);
                prop_assert_eq!(x.to_bits(), want.to_bits(), "len {} slot {}", len, i);
            }
            prop_assert_eq!(&batch, &oracle, "stream after len {}", len);
        }
    }
}

// ---------------------------------------------------------------------------
// Exact rounding: the libm-free conversion against the expression it
// replaced.
// ---------------------------------------------------------------------------

/// `Duration::from_secs_f64` as it was when it called libm's `round`, kept
/// as the oracle.
fn micros_by_libm_round(secs: f64) -> u64 {
    if secs.is_nan() || secs <= 0.0 {
        return 0;
    }
    if secs.is_infinite() {
        return u64::MAX;
    }
    let ticks = (secs * 1e6).round();
    if ticks >= u64::MAX as f64 {
        u64::MAX
    } else {
        ticks as u64
    }
}

/// The positive double `x` and its neighbours up to two ulps either side.
fn within_two_ulps(x: f64) -> impl Iterator<Item = f64> {
    let bits = x.to_bits();
    (bits - 2..=bits + 2).map(f64::from_bits)
}

proptest! {
    #[test]
    fn from_secs_f64_rounds_as_f64_round(
        bits in any::<u64>(),
        exp in -24i32..46,
        k in 0u64..1 << 52,
    ) {
        // Any double at all (NaN, ±∞, subnormals, both signs), and one
        // whose product with 10⁶ lands between ¼ µs and 2⁶⁵ µs.
        let mantissa = bits & ((1 << 52) - 1);
        let mut secs = vec![
            f64::from_bits(bits),
            f64::from_bits(((1023 + exp) as u64) << 52 | mantissa),
            0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY,
            5e-324, f64::MIN_POSITIVE, f64::from_bits(mantissa),
        ];
        // Edges in microseconds, reached through seconds: halves (large
        // and small) with their ulp neighbours, where spacing reaches 1
        // (2⁵²) and 2 (2⁵³), 2⁶³, the largest double below 2⁶⁴ and 2⁶⁴.
        let half = k as f64 + 0.5;
        let small_half = (k >> (k % 52)) as f64 + 0.5;
        let mut micros = vec![half, small_half, 2f64.powi(52), 2f64.powi(63), 2f64.powi(64)];
        micros.extend(ulp_neighbours(half));
        micros.extend(ulp_neighbours(2f64.powi(53)));
        micros.push(ulp_neighbours(2f64.powi(64))[0]);
        for us in micros {
            secs.extend(within_two_ulps(us / 1e6));
        }
        for s in secs {
            let want = micros_by_libm_round(s);
            prop_assert_eq!(Duration::from_secs_f64(s).as_micros(), want, "secs {:e} ({:#x})", s, s.to_bits());
            prop_assert_eq!(SimTime::from_secs_f64(s).as_micros(), want, "secs {:e}", s);
        }
    }
}

// ---------------------------------------------------------------------------
// Differential property: the arena event queue vs an independent model.
// ---------------------------------------------------------------------------

/// The calendar's bucket width and ring span, µs. The queue keeps both
/// private; the workload below only needs them to aim at bucket edges, ring
/// wrap-around and the far set.
const BUCKET_US: u64 = 1 << 10;
const SPAN_US: u64 = BUCKET_US << 12;

/// One step of a random event-queue workload.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Schedule at the given microsecond timestamp.
    Schedule(u64),
    /// Schedule this many µs before the last popped instant (saturating).
    ScheduleBack(u64),
    /// Pop the earliest pending event.
    Pop,
    /// Pop the earliest pending event if it orders before `(at, next_seq - k)`.
    PopBefore(u64, u64),
    /// Reserve this many sequence numbers.
    ReserveSeqs(u64),
}

fn op_strategy() -> impl Strategy<Value = QueueOp> {
    // Weights: scheduling dominates, as in the simulator. Instants come
    // from five ring spans, from a grid of bucket edges in those spans (so
    // many events share one µs, one bucket, or one ring position a span
    // apart), from just below `u64::MAX`, and from before the last pop.
    (
        (0u32..100, 0u64..5 * SPAN_US, 0usize..64),
        (0u64..5, 0usize..3, 0usize..3),
    )
        .prop_map(|((sel, at, k), (span, edge, tick))| {
            let grid = span * SPAN_US
                + [0, 1, (SPAN_US / BUCKET_US) - 1][edge] * BUCKET_US
                + [0, 1, BUCKET_US - 1][tick];
            match sel {
                0..=19 => QueueOp::Schedule(at),
                20..=35 => QueueOp::Schedule(grid),
                36..=40 => QueueOp::Schedule(u64::MAX - at % (2 * SPAN_US)),
                41..=50 => QueueOp::ScheduleBack(at % (2 * SPAN_US)),
                51..=76 => QueueOp::Pop,
                77..=93 => QueueOp::PopBefore(if k % 2 == 0 { grid } else { at }, k as u64 % 4),
                _ => QueueOp::ReserveSeqs(k as u64 % 3),
            }
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
    fn schedule(&mut self, at: SimTime, payload: u64) {
        self.entries.push((at, self.next_seq, payload));
        self.next_seq += 1;
    }

    /// The earliest pending key.
    fn peek(&self) -> Option<(SimTime, u64)> {
        self.entries.iter().map(|e| (e.0, e.1)).min()
    }

    fn pop_before(&mut self, bound: (SimTime, u64)) -> Option<(SimTime, u64)> {
        let min = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.0, e.1))
            .filter(|(_, e)| (e.0, e.1) < bound)
            .map(|(i, _)| i)?;
        let (at, _, payload) = self.entries.remove(min);
        Some((at, payload))
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.pop_before((SimTime::MAX, u64::MAX))
    }
}

proptest! {
    /// Two queues take the same ops: after every op, `eager` is asked to
    /// pop before the earliest pending key — which pops nothing but moves
    /// its calendar onto that key's bucket; `lazy` moves only on its own
    /// ops, as a simulator's queue does.
    #[test]
    fn arena_queue_matches_naive_model(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let (mut eager, mut lazy) = (EventQueue::new(), EventQueue::new());
        let mut naive = NaiveQueue::default();
        let mut payload = 0u64;
        let mut last_pop = SimTime::ZERO;
        for op in ops {
            match op {
                QueueOp::Schedule(_) | QueueOp::ScheduleBack(_) => {
                    let at = SimTime::from_micros(match op {
                        QueueOp::ScheduleBack(back) => last_pop.as_micros().saturating_sub(back),
                        QueueOp::Schedule(at) => at,
                        _ => unreachable!(),
                    });
                    eager.schedule(at, payload);
                    lazy.schedule(at, payload);
                    naive.schedule(at, payload);
                    payload += 1;
                }
                QueueOp::Pop | QueueOp::PopBefore(..) => {
                    let bound = match op {
                        QueueOp::PopBefore(at, back) => {
                            (SimTime::from_micros(at), naive.next_seq.saturating_sub(back))
                        }
                        _ => (SimTime::MAX, u64::MAX),
                    };
                    let want = naive.pop_before(bound);
                    prop_assert_eq!(eager.pop_before(bound.0, bound.1), want, "pop diverged");
                    prop_assert_eq!(lazy.pop_before(bound.0, bound.1), want, "pop diverged");
                    if let Some((at, _)) = want {
                        last_pop = at;
                    }
                }
                QueueOp::ReserveSeqs(n) => {
                    let first = naive.next_seq;
                    naive.next_seq += n;
                    prop_assert_eq!(eager.reserve_seqs(n), first);
                    prop_assert_eq!(lazy.reserve_seqs(n), first);
                }
            }
            prop_assert_eq!(eager.len(), naive.entries.len());
            prop_assert_eq!(lazy.len(), naive.entries.len());
            if let Some((at, seq)) = naive.peek() {
                prop_assert_eq!(eager.pop_before(at, seq), None, "the bound is exclusive");
            }
        }
        // Drain all three: every remaining event must match, in order.
        loop {
            let want = naive.pop();
            prop_assert_eq!(eager.pop(), want, "drain diverged");
            prop_assert_eq!(lazy.pop(), want, "drain diverged");
            if want.is_none() {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Differential property: streamed arrivals vs the same arrivals scheduled
// one event at a time (the form `run_until_with_arrivals` replaced, kept
// here as the oracle).
// ---------------------------------------------------------------------------

use acm_sim::{Event, Simulator};

/// Arrival instants, follow-up delays and era bounds are all multiples of
/// this, so equal-instant ties are the common case, not the corner case.
const GRID_US: u64 = 250;
/// Grid steps per era.
const ERA_STEPS: u64 = 10;

/// What fired: `(now µs, is_arrival, tag)`.
type Log = Vec<(u64, bool, u64)>;

struct EraWorld {
    rng: SimRng,
    log: Log,
    next_tag: u64,
}

/// An arrival (the oracle schedules these) or a follow-up of one.
enum Act {
    Arrival(u64),
    FollowUp { tag: u64, depth: u32 },
}

impl Event<EraWorld> for Act {
    fn fire(self, s: &mut Simulator<EraWorld, Act>) {
        match self {
            Act::Arrival(tag) => act(s, true, tag, 0),
            Act::FollowUp { tag, depth } => act(s, false, tag, depth),
        }
    }
}

/// One handler body for arrivals and follow-ups alike: log, then schedule
/// up to two follow-ups 0–12 grid steps ahead (same instant, a later
/// arrival's instant, or a later era). Every choice comes from the world's
/// RNG, so any difference in firing order also derails everything after
/// it.
fn act(s: &mut Simulator<EraWorld, Act>, is_arrival: bool, tag: u64, depth: u32) {
    let now = s.now();
    s.world.log.push((now.as_micros(), is_arrival, tag));
    if depth < 3 {
        for _ in 0..s.world.rng.index(3) {
            let delay = Duration::from_micros(GRID_US * s.world.rng.index(13) as u64);
            let tag = s.world.next_tag;
            s.world.next_tag += 1;
            s.schedule_at(
                now + delay,
                Act::FollowUp {
                    tag,
                    depth: depth + 1,
                },
            );
        }
    }
}

/// What is compared after every era: executed, clock, pending, log.
type EraState = (u64, SimTime, usize, Log);

/// Runs the eras (each a list of grid offsets into the era, deadline
/// included) and a final drain, feeding each window through `feed`.
fn run_eras(
    seed: u64,
    eras: &[Vec<u64>],
    feed: impl Fn(&mut Simulator<EraWorld, Act>, &[SimTime], SimTime, u64),
) -> Vec<EraState> {
    let mut sim = Simulator::new(EraWorld {
        rng: SimRng::new(seed),
        log: Vec::new(),
        next_tag: 0,
    });
    let era_us = GRID_US * ERA_STEPS;
    let snapshot = |sim: &mut Simulator<EraWorld, Act>| {
        let log = std::mem::take(&mut sim.world.log);
        (sim.executed(), sim.now(), sim.pending(), log)
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
        feed(&mut sim, &window, deadline, first_tag);
        first_tag += window.len() as u64;
        states.push(snapshot(&mut sim));
    }
    sim.run_until(SimTime::from_micros((eras.len() as u64 + 4) * era_us));
    states.push(snapshot(&mut sim));
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
                sim.schedule_at(at, Act::Arrival(first_tag + k as u64));
            }
            sim.run_until(deadline);
        });
        let streamed = run_eras(seed, &eras, |sim, window, deadline, first_tag| {
            let mut tag = first_tag;
            sim.run_until_with_arrivals(window, deadline, |s| {
                act(s, true, tag, 0);
                tag += 1;
            });
        });
        for (era, (a, b)) in scheduled.iter().zip(&streamed).enumerate() {
            prop_assert_eq!(a, b, "era {} diverged:\n scheduled {:?}\n streamed  {:?}", era, a, b);
        }
    }
}

/// Pushes its value onto the world when it fires.
struct Push<T>(T);

impl<T> Event<Vec<T>> for Push<T> {
    fn fire(self, s: &mut Simulator<Vec<T>, Push<T>>) {
        s.world.push(self.0);
    }
}

/// A world that logs tags in firing order.
fn tag_sim() -> Simulator<Vec<&'static str>, Push<&'static str>> {
    Simulator::new(Vec::new())
}

fn us(micros: u64) -> SimTime {
    SimTime::from_micros(micros)
}

#[test]
fn event_pending_from_an_earlier_call_fires_before_the_arrival_at_its_instant() {
    let mut sim = tag_sim();
    sim.run_until_with_arrivals(&[us(10)], us(50), |s| {
        s.schedule_at(us(70), Push("carried over"));
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
            s.schedule_at(us(20), Push("follow-up"));
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
        s.schedule_at(s.now(), Push(10 + me));
    });
    assert_eq!(sim.world, [0, 1, 2, 10, 11, 12]);
    assert_eq!(sim.executed(), 6);
}

#[test]
fn arrival_at_the_deadline_fires() {
    let mut sim = tag_sim();
    sim.run_until_with_arrivals(&[us(50)], us(50), |s| s.world.push("edge"));
    assert_eq!(sim.world, ["edge"]);
    assert_eq!((sim.now(), sim.pending()), (us(50), 0));
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
        sim.schedule_at(us(10), Push("a"));
        sim.schedule_at(us(30), Push("b"));
        sim.schedule_at(us(31), Push("late"));
        sim
    };
    let (mut plain, mut streamed) = (build(), build());
    for deadline in [us(30), us(100)] {
        plain.run_until(deadline);
        streamed.run_until_with_arrivals(&[], deadline, |_| unreachable!());
        assert_eq!(plain.world, streamed.world);
        assert_eq!(
            (plain.now(), plain.executed(), plain.pending()),
            (streamed.now(), streamed.executed(), streamed.pending())
        );
    }
    assert_eq!(plain.world, ["a", "b", "late"]);
}
