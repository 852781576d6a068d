//! The simulation driver.
//!
//! [`Simulator<W, E>`] owns a user-supplied *world* `W` (the mutable model
//! state) and a queue of pending events of the model's own plain-data type
//! `E`. Firing an event hands it `&mut Simulator<W, E>` ([`Event::fire`]),
//! so it can both mutate the world and schedule follow-up events; this is
//! the classic event-oriented style (each event is one state transition
//! at one instant). An event costs its bytes in the queue's arena — no
//! allocation and no indirect call.
//!
//! Execution is strictly deterministic: time never goes backwards, and
//! simultaneous events run in scheduling order (see [`crate::event`]).
//!
//! There is one run loop, [`Simulator::run_until_with_arrivals`]: it merges
//! the queue with a sorted slice of arrival instants that share one
//! handler, so an open-loop source feeds the simulator a window of
//! requests without an event, an arena slot or a queue entry per request.
//! [`Simulator::run_until`] is the same loop over an empty slice.

use crate::event::EventQueue;
use crate::time::SimTime;

/// A pending event: what happens when the clock reaches its instant.
pub trait Event<W>: Sized {
    /// Runs the event at `sim.now()`.
    fn fire(self, sim: &mut Simulator<W, Self>);
}

/// A discrete-event simulator owning the model state `W`, whose events
/// are of type `E`.
///
/// ```
/// use acm_sim::{Duration, Event, SimTime, Simulator};
///
/// /// Adds `n` to the world; `Twice` also adds `n` again two seconds on.
/// enum Add {
///     Once(u32),
///     Twice(u32),
/// }
///
/// impl Event<u32> for Add {
///     fn fire(self, s: &mut Simulator<u32, Add>) {
///         match self {
///             Add::Once(n) => s.world += n,
///             Add::Twice(n) => {
///                 s.world += n;
///                 s.schedule_at(s.now() + Duration::from_secs(2), Add::Once(n));
///             }
///         }
///     }
/// }
///
/// let mut sim = Simulator::new(0u32);
/// sim.schedule_at(SimTime::from_secs(5), Add::Twice(3));
/// sim.run_until(SimTime::from_secs(7));
/// assert_eq!(sim.world, 6);
/// assert_eq!((sim.now(), sim.executed(), sim.pending()), (SimTime::from_secs(7), 2, 0));
/// ```
pub struct Simulator<W, E> {
    now: SimTime,
    queue: EventQueue<E>,
    /// The model state. Public so event handlers can reach it directly.
    pub world: W,
    popped: u64,
    streamed: u64,
    /// High-water mark of pending events.
    peak_pending: usize,
}

impl<W, E> Simulator<W, E> {
    /// Creates a simulator at the epoch with the given world.
    pub fn new(world: W) -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            world,
            popped: 0,
            streamed: 0,
            peak_pending: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events executed so far: `popped() + streamed()`.
    pub fn executed(&self) -> u64 {
        self.popped + self.streamed
    }

    /// Events popped off the queue and fired.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Arrivals fired straight from a caller's slice
    /// ([`Simulator::run_until_with_arrivals`]), never queued.
    pub fn streamed(&self) -> u64 {
        self.streamed
    }

    /// Schedules that reused a vacant arena slot instead of growing the
    /// arena ([`EventQueue::reused_slots`]).
    pub fn reused_slots(&self) -> u64 {
        self.queue.reused_slots()
    }

    /// Events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The most events that were ever pending at once — how deep the
    /// queue really got, whatever the wall clock says.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Schedules `event` to fire at the absolute instant `at`.
    ///
    /// Panics if `at` is in the past — the model must never rewind time.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        self.queue.schedule(at, event);
        self.peak_pending = self.peak_pending.max(self.queue.len());
    }
}

impl<W, E: Event<W>> Simulator<W, E> {
    /// Executes one popped event.
    #[inline]
    fn fire(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now);
        self.now = at;
        self.popped += 1;
        event.fire(self);
    }

    /// Executes every pending event that orders before `(at, seq)`.
    #[inline]
    fn run_before(&mut self, at: SimTime, seq: u64) {
        while let Some((t, event)) = self.queue.pop_before(at, seq) {
            self.fire(t, event);
        }
    }

    /// Runs every event stamped at or before `deadline`, then moves the
    /// clock to `deadline` so a subsequent `run_until` resumes cleanly.
    /// The first event strictly after it is left pending. A deadline the
    /// clock has already passed runs nothing and leaves the clock where
    /// it is: time never moves back.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_until_with_arrivals(&[], deadline, |_| {});
    }

    /// [`run_until`] with a window of arrivals merged in: `on_arrival`
    /// fires once at each instant of `arrivals`, interleaved with the
    /// pending events in time order.
    ///
    /// Observably identical to scheduling one event per arrival that runs
    /// `on_arrival`, followed by `self.run_until(deadline)` — same firing
    /// order, same [`executed`], same clock — but nothing is queued per
    /// arrival. Arrival `k` holds the sequence number that `schedule_at`
    /// would have given it, so every tie breaks the same way: at one
    /// instant, events pending before the call fire first, then the
    /// arrivals in slice order, then events scheduled during the call.
    ///
    /// `arrivals` must ascend from no earlier than [`now`] to no later
    /// than `deadline` (an arrival at `deadline` fires). Panics otherwise:
    /// an arrival the clock has passed cannot be scheduled, and one past
    /// the deadline has no queue to wait in.
    ///
    /// [`run_until`]: Simulator::run_until
    /// [`executed`]: Simulator::executed
    /// [`now`]: Simulator::now
    pub fn run_until_with_arrivals(
        &mut self,
        arrivals: &[SimTime],
        deadline: SimTime,
        mut on_arrival: impl FnMut(&mut Simulator<W, E>),
    ) {
        let first_seq = self.queue.reserve_seqs(arrivals.len() as u64);
        for (seq, &at) in (first_seq..).zip(arrivals) {
            assert!(
                at >= self.now,
                "cannot schedule into the past ({at} < {})",
                self.now
            );
            assert!(
                at <= deadline,
                "arrival at {at} is past the deadline {deadline}"
            );
            self.run_before(at, seq);
            self.now = at;
            self.streamed += 1;
            on_arrival(self);
        }
        // Every sequence number in use orders before `u64::MAX`.
        self.run_before(deadline, u64::MAX);
        self.now = self.now.max(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
        counter: u32,
    }

    /// The test events: each is one small state transition.
    #[derive(Debug, Clone, Copy)]
    enum Ev {
        /// Logs `(now µs, tag)`.
        Log(&'static str),
        /// Adds to the counter.
        Add(u32),
        /// Adds 1 now and schedules `Add(10)` one second later.
        AddThenFollow,
        /// Schedules a no-op at 1 s, which is in the past once the clock
        /// has passed it.
        ScheduleBack,
    }

    impl Event<World> for Ev {
        fn fire(self, s: &mut Simulator<World, Ev>) {
            match self {
                Ev::Log(tag) => s.world.log.push((s.now().as_micros(), tag)),
                Ev::Add(n) => s.world.counter += n,
                Ev::AddThenFollow => {
                    s.world.counter += 1;
                    s.schedule_at(s.now() + Duration::from_secs(1), Ev::Add(10));
                }
                Ev::ScheduleBack => s.schedule_at(t(1), Ev::Add(0)),
            }
        }
    }

    fn sim() -> Simulator<World, Ev> {
        Simulator::new(World::default())
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn events_fire_in_time_order_and_advance_clock() {
        let mut sim = sim();
        sim.schedule_at(t(5), Ev::Log("b"));
        sim.schedule_at(t(2), Ev::Log("a"));
        sim.run_until(t(5));
        assert_eq!(
            sim.world.log,
            vec![(t(2).as_micros(), "a"), (t(5).as_micros(), "b")]
        );
        assert_eq!(sim.now(), t(5));
        assert_eq!(sim.executed(), 2);
    }

    #[test]
    fn handlers_can_schedule_follow_ups() {
        let mut sim = sim();
        sim.schedule_at(t(1), Ev::AddThenFollow);
        sim.run_until(t(2));
        assert_eq!(sim.world.counter, 11);
        assert_eq!((sim.now(), sim.pending()), (t(2), 0));
    }

    #[test]
    fn run_until_stops_at_deadline_and_resumes() {
        let mut sim = sim();
        for i in 1..=10 {
            sim.schedule_at(t(i), Ev::Add(1));
        }
        sim.run_until(t(4));
        assert_eq!(sim.world.counter, 4);
        assert_eq!((sim.now(), sim.pending()), (t(4), 6));
        sim.run_until(t(20));
        assert_eq!(sim.world.counter, 10);
        // A run that drains the queue still advances the clock to the
        // deadline.
        assert_eq!((sim.now(), sim.pending()), (t(20), 0));
    }

    #[test]
    fn run_until_never_moves_the_clock_back() {
        let mut sim = sim();
        sim.schedule_at(t(20), Ev::Add(1));
        sim.run_until(t(10));
        // An earlier deadline, with and without an event pending.
        sim.run_until(t(5));
        assert_eq!((sim.now(), sim.pending()), (t(10), 1));
        sim.run_until(t(30));
        sim.run_until(t(25));
        assert_eq!((sim.now(), sim.pending()), (t(30), 0));
        assert_eq!(sim.world.counter, 1);
    }

    #[test]
    fn deadline_inclusive_of_events_at_deadline() {
        let mut sim = sim();
        sim.schedule_at(t(3), Ev::Add(1));
        sim.run_until(t(3));
        assert_eq!(sim.world.counter, 1);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = sim();
        sim.schedule_at(t(5), Ev::ScheduleBack);
        sim.run_until(t(10));
    }

    #[test]
    fn queue_counters_track_pushes_and_pops() {
        let mut sim = sim();
        for i in 1..=5 {
            sim.schedule_at(t(i), Ev::Add(1));
        }
        sim.run_until(t(5));
        assert_eq!((sim.popped(), sim.streamed(), sim.pending()), (5, 0, 0));
        // Streamed arrivals are executed without a push or a pop; the
        // follow-up each one schedules goes through the queue as usual.
        sim.run_until_with_arrivals(&[t(6), t(7), t(7)], t(9), |s| {
            s.schedule_at(s.now() + Duration::from_secs(1), Ev::Add(1));
        });
        // Eight pushes, all popped, plus three streamed arrivals.
        assert_eq!((sim.popped(), sim.streamed(), sim.pending()), (8, 3, 0));
        assert_eq!(sim.popped() + sim.streamed(), sim.executed());
        assert_eq!(sim.world.counter, 8);
    }

    #[test]
    fn peak_pending_is_the_high_water_of_live_events() {
        let mut sim = sim();
        sim.schedule_at(t(1), Ev::Add(1));
        sim.schedule_at(t(2), Ev::Add(1));
        sim.run_until(t(1));
        sim.schedule_at(t(3), Ev::Add(1));
        assert_eq!(sim.peak_pending(), 2, "a fired event is not pending");
        sim.run_until(t(10));
        sim.schedule_at(t(11), Ev::Add(1));
        assert_eq!(sim.peak_pending(), 2, "the mark never falls");
    }

    #[test]
    fn arena_reuse_counter_reports_saved_allocations() {
        let mut sim = sim();
        // Era 1 grows the arena; eras 2..4 recycle it slot for slot.
        for era in 0..4u64 {
            for i in 0..8u64 {
                sim.schedule_at(t(era * 100 + i), Ev::Add(1));
            }
            sim.run_until(t(era * 100 + 50));
        }
        // 24 of the 32 schedules reused a slot.
        assert_eq!((sim.reused_slots(), sim.popped()), (24, 32));
    }

    /// A two-kind typed event: a `Ping` schedules a `Pong`.
    #[derive(Debug, Clone, Copy)]
    enum Beat {
        Ping(u32),
        Pong(u32),
    }

    impl Event<Vec<(u64, &'static str, u32)>> for Beat {
        fn fire(self, s: &mut Simulator<Vec<(u64, &'static str, u32)>, Beat>) {
            let now = s.now().as_micros();
            match self {
                Beat::Ping(n) => {
                    s.world.push((now, "ping", n));
                    s.schedule_at(s.now() + Duration::from_micros(u64::from(n)), Beat::Pong(n));
                }
                Beat::Pong(n) => s.world.push((now, "pong", n)),
            }
        }
    }

    #[test]
    fn typed_events_fire_in_time_then_schedule_order() {
        let mut sim = Simulator::<_, Beat>::new(Vec::new());
        // Pongs land n µs after their ping. At 12, ping 1 (scheduled up
        // front) fires before pong 2 (scheduled at 10); at 13, pong 3
        // (scheduled at 10) before pong 1 (scheduled at 12).
        sim.schedule_at(us(10), Beat::Ping(3));
        sim.schedule_at(us(10), Beat::Ping(2));
        sim.schedule_at(us(12), Beat::Ping(1));
        sim.run_until(us(100));
        assert_eq!(
            sim.world,
            [
                (10, "ping", 3),
                (10, "ping", 2),
                (12, "ping", 1),
                (12, "pong", 2),
                (13, "pong", 3),
                (13, "pong", 1),
            ]
        );
        assert_eq!((sim.executed(), sim.pending()), (6, 0));
    }

    fn us(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    #[test]
    fn simultaneous_events_run_in_schedule_order() {
        let mut sim = sim();
        sim.schedule_at(t(1), Ev::Log("first"));
        sim.schedule_at(t(1), Ev::Log("second"));
        sim.schedule_at(t(1), Ev::Log("third"));
        sim.run_until(t(1));
        let names: Vec<_> = sim.world.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }
}
