//! The pending-event set.
//!
//! A **calendar queue** (Brown, CACM 1988) keyed by `(SimTime, sequence)`
//! over a **slot arena**. The monotonic sequence number guarantees that
//! events scheduled for the same instant fire in the order they were
//! scheduled — a requirement for reproducibility that ordering by time
//! alone cannot provide. Both halves of the key are packed into one
//! `u128`, and every ordering decision in this module is one compare of
//! those keys, so the firing order is exactly the key order, whatever
//! container an event waits in.
//!
//! The calendar is a ring of `BUCKETS` time buckets, each `2^BUCKET_SHIFT`
//! µs wide, covering the span that starts at the *current* bucket. Each
//! bucket holds a circular doubly-linked chain sorted by key, threaded
//! through the arena slots themselves: a schedule walks back from the
//! chain's tail to its place, and a pop unlinks the head of the first
//! occupied bucket (found through an occupancy bitmap). Nothing is
//! allocated per event once the arena has grown. An event beyond the
//! ring's span waits in the **far set**, a 4-ary min-heap of packed keys,
//! and joins the ring as soon as the calendar moves close enough.
//!
//! The calendar only moves forward, and never past the key it was asked
//! about, so an event scheduled at or after the last popped (or bounded)
//! instant lands at or after the current bucket. Scheduling earlier is
//! allowed and stays correct: such an event joins the current bucket's
//! chain, whose key order puts it at the head.
//!
//! The queue also lets a caller *merge* an already-sorted stream with it
//! instead of scheduling it: [`EventQueue::reserve_seqs`] hands the stream
//! a block of sequence numbers and [`EventQueue::pop_before`] pops only
//! what orders ahead of the stream's next entry. [`crate::sim`] builds its
//! run loop on the pair.

use crate::time::SimTime;

/// Sentinel terminating the free list and marking an empty bucket.
const NIL: u32 = u32::MAX;

/// Width of one bucket: `2^10` µs ≈ 1 ms. See DESIGN.md §3, rule 1, for
/// the traffic these two constants are sized from.
const BUCKET_SHIFT: u32 = 10;

/// Buckets in the ring: a span of `4 096 × 1.024` ms ≈ 4.2 s.
const BUCKETS: usize = 1 << 12;

/// One arena slot. `payload` is `Some` exactly while the event is pending.
/// While pending in the ring, `next`/`prev` link the slot into its
/// bucket's chain; while vacant, `next` threads the free list.
struct Slot<T> {
    key: u128,
    next: u32,
    prev: u32,
    payload: Option<T>,
}

/// Packs `(time, seq)` into one integer: microsecond ticks in the high 64
/// bits, the sequence number in the low 64. A single wide compare gives the
/// exact `(time, seq)` lexicographic order.
#[inline]
fn pack_key(at: SimTime, seq: u64) -> u128 {
    ((at.as_micros() as u128) << 64) | seq as u128
}

/// Recovers the timestamp from a packed key.
#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime::from_micros((key >> 64) as u64)
}

/// Absolute calendar bucket (`time >> BUCKET_SHIFT`) of a packed key.
#[inline]
fn key_bucket(key: u128) -> u64 {
    ((key >> 64) as u64) >> BUCKET_SHIFT
}

/// The far set: an implicit 4-ary min-heap stored struct-of-arrays, so the
/// four children a sift step compares share one cache line; the arena slot
/// of each key travels in the parallel `slots` array.
#[derive(Default)]
struct FarSet {
    keys: Vec<u128>,
    slots: Vec<u32>,
}

impl FarSet {
    fn min_key(&self) -> Option<u128> {
        self.keys.first().copied()
    }

    fn push(&mut self, key: u128, slot: u32) {
        self.keys.push(key);
        self.slots.push(slot);
        self.sift_up(self.keys.len() - 1);
    }

    /// Removes the root entry and returns its slot; the heap is non-empty.
    fn pop_min(&mut self) -> u32 {
        self.keys.swap_remove(0);
        let min_slot = self.slots.swap_remove(0);
        if !self.keys.is_empty() {
            self.sift_down(0);
        }
        min_slot
    }

    /// Restores the heap property upward from `idx`.
    fn sift_up(&mut self, mut idx: usize) {
        let key = self.keys[idx];
        let slot = self.slots[idx];
        while idx > 0 {
            let parent = (idx - 1) / 4;
            let pk = self.keys[parent];
            if pk <= key {
                break;
            }
            self.keys[idx] = pk;
            self.slots[idx] = self.slots[parent];
            idx = parent;
        }
        self.keys[idx] = key;
        self.slots[idx] = slot;
    }

    /// Restores the heap property downward from `idx`.
    fn sift_down(&mut self, mut idx: usize) {
        let len = self.keys.len();
        let key = self.keys[idx];
        let slot = self.slots[idx];
        loop {
            let first_child = idx * 4 + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + 4).min(len);
            let mut best = first_child;
            let mut best_key = self.keys[first_child];
            for c in (first_child + 1)..last_child {
                let k = self.keys[c];
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if key <= best_key {
                break;
            }
            self.keys[idx] = best_key;
            self.slots[idx] = self.slots[best];
            idx = best;
        }
        self.keys[idx] = key;
        self.slots[idx] = slot;
    }
}

/// A deterministic future-event list.
pub struct EventQueue<T> {
    /// Slot arena holding keys, chain links and payloads.
    slots: Vec<Slot<T>>,
    /// Head (lowest key) of each bucket's chain; `NIL` when empty.
    heads: Vec<u32>,
    /// One bit per bucket, set while its chain is non-empty.
    occupied: Vec<u64>,
    /// Absolute index of the current bucket. The ring holds the buckets
    /// `cur..cur + BUCKETS` (and events scheduled before `cur`, in the
    /// current bucket); the far set holds every later one.
    cur: u64,
    far: FarSet,
    /// Head of the vacant-slot free list (`NIL` when every slot is in use).
    free_head: u32,
    next_seq: u64,
    /// Count of pending events.
    live: usize,
    /// Cumulative count of schedules that reused a vacant arena slot
    /// instead of growing the arena — each one is an allocation the
    /// arena saved.
    reused_slots: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` events before any
    /// reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            slots: Vec::with_capacity(capacity),
            heads: vec![NIL; BUCKETS],
            occupied: vec![0; BUCKETS / 64],
            cur: 0,
            far: FarSet::default(),
            free_head: NIL,
            next_seq: 0,
            live: 0,
            reused_slots: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, payload: T) {
        let key = pack_key(at, self.next_seq);
        self.next_seq += 1;
        let slot = match self.free_head {
            NIL => {
                let idx = self.slots.len() as u32;
                assert!(idx != NIL, "event queue slot arena exhausted");
                self.slots.push(Slot {
                    key,
                    next: NIL,
                    prev: NIL,
                    payload: Some(payload),
                });
                idx
            }
            idx => {
                let s = &mut self.slots[idx as usize];
                self.free_head = s.next;
                s.key = key;
                s.payload = Some(payload);
                self.reused_slots += 1;
                idx
            }
        };
        let bucket = key_bucket(key);
        if bucket >= self.cur + BUCKETS as u64 {
            self.far.push(key, slot);
        } else {
            // An instant before the current bucket joins the current one.
            self.link(slot, bucket.max(self.cur));
        }
        self.live += 1;
    }

    /// Removes and returns the earliest pending event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        // No real key reaches the bound: sequence numbers never get to
        // `u64::MAX`.
        self.pop_below(u128::MAX)
    }

    /// Removes and returns the earliest pending event only if it orders
    /// strictly before `(at, seq)`; a later head stays pending. This is
    /// the merge step of a run loop that interleaves the queue with a
    /// sorted stream whose entries hold reserved sequence numbers
    /// ([`reserve_seqs`]).
    ///
    /// [`reserve_seqs`]: EventQueue::reserve_seqs
    pub fn pop_before(&mut self, at: SimTime, seq: u64) -> Option<(SimTime, T)> {
        self.pop_below(pack_key(at, seq))
    }

    /// Reserves `n` consecutive sequence numbers and returns the first.
    /// An entry of a sorted stream that is merged with the queue instead
    /// of scheduled into it takes one of these, so it ties with queued
    /// events exactly as if it had been scheduled at the moment of the
    /// reservation: after everything scheduled before, ahead of
    /// everything scheduled later.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Pops the earliest pending event whose packed key is below `bound`.
    #[inline]
    fn pop_below(&mut self, bound: u128) -> Option<(SimTime, T)> {
        let b = self.first_bucket(key_bucket(bound))?;
        let head = self.heads[b];
        let key = self.slots[head as usize].key;
        if key >= bound {
            return None;
        }
        self.unlink_head(b);
        Some((key_time(key), self.release(head)))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Cumulative number of schedules that reused a vacant arena slot
    /// rather than growing the arena. The arena lives as long as the
    /// queue, so across-era reuse shows up here as saved allocations —
    /// [`Simulator::reused_slots`](crate::Simulator::reused_slots)
    /// forwards the tally.
    pub fn reused_slots(&self) -> u64 {
        self.reused_slots
    }

    /// Ring index of the earliest occupied bucket, moving the calendar up
    /// to it — but never past `limit`, the absolute bucket of the key the
    /// caller asks about. `None` when no event is pending at or before
    /// `limit`'s bucket.
    #[inline]
    fn first_bucket(&mut self, limit: u64) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        // The current bucket may hold events from before `limit`.
        let limit = limit.max(self.cur);
        let next = match self.next_occupied() {
            Some(bucket) => bucket,
            // The ring is empty: the far set's head comes next, and the
            // move below brings it into its bucket.
            None => key_bucket(self.far.min_key()?),
        };
        if next > limit {
            self.advance(limit);
            return None;
        }
        self.advance(next);
        let b = (next % BUCKETS as u64) as usize;
        debug_assert_ne!(
            self.heads[b], NIL,
            "the first occupied bucket holds an event"
        );
        Some(b)
    }

    /// Absolute index of the first occupied bucket in the ring, searching
    /// the occupancy bitmap from the current bucket round once.
    #[inline]
    fn next_occupied(&self) -> Option<u64> {
        let start = (self.cur % BUCKETS as u64) as usize;
        let (w0, bit) = (start / 64, start % 64);
        let words = self.occupied.len();
        (0..=words).find_map(|i| {
            let w = (w0 + i) % words;
            let word = match i {
                0 => self.occupied[w] & (!0 << bit),
                _ if i == words => self.occupied[w] & !(!0 << bit),
                _ => self.occupied[w],
            };
            (word != 0).then(|| {
                let idx = (w * 64) as u64 + u64::from(word.trailing_zeros());
                self.cur + (idx.wrapping_sub(start as u64) % BUCKETS as u64)
            })
        })
    }

    /// Moves the calendar forward to the absolute bucket `to` and brings
    /// every far event that now fits in the ring's span into its bucket.
    #[inline]
    fn advance(&mut self, to: u64) {
        if to <= self.cur {
            return;
        }
        self.cur = to;
        let end = to + BUCKETS as u64;
        while let Some(key) = self.far.min_key() {
            if key_bucket(key) >= end {
                break;
            }
            let slot = self.far.pop_min();
            self.link(slot, key_bucket(key));
        }
    }

    /// Links `slot` into the chain of absolute bucket `bucket` (inside the
    /// ring's span), in key order.
    #[inline]
    fn link(&mut self, slot: u32, bucket: u64) {
        let b = (bucket % BUCKETS as u64) as usize;
        let key = self.slots[slot as usize].key;
        let head = self.heads[b];
        if head == NIL {
            self.heads[b] = slot;
            let s = &mut self.slots[slot as usize];
            (s.next, s.prev) = (slot, slot);
            self.occupied[b / 64] |= 1 << (b % 64);
            return;
        }
        // Walk back from the tail to the last entry ordering before `key`;
        // an event ordering before the whole chain becomes its head.
        let tail = self.slots[head as usize].prev;
        let mut after = tail;
        while self.slots[after as usize].key > key {
            if after == head {
                self.heads[b] = slot;
                after = tail;
                break;
            }
            after = self.slots[after as usize].prev;
        }
        let next = self.slots[after as usize].next;
        let s = &mut self.slots[slot as usize];
        (s.next, s.prev) = (next, after);
        self.slots[after as usize].next = slot;
        self.slots[next as usize].prev = slot;
    }

    /// Unlinks the head of ring bucket `b`'s (non-empty) chain.
    #[inline]
    fn unlink_head(&mut self, b: usize) {
        let head = self.heads[b];
        let Slot { next, prev, .. } = self.slots[head as usize];
        if next == head {
            self.heads[b] = NIL;
            self.occupied[b / 64] &= !(1 << (b % 64));
        } else {
            self.slots[prev as usize].next = next;
            self.slots[next as usize].prev = prev;
            self.heads[b] = next;
        }
    }

    /// Retires a pending slot (already out of any chain): takes its payload
    /// and returns the slot to the free list.
    #[inline]
    fn release(&mut self, slot: u32) -> T {
        let s = &mut self.slots[slot as usize];
        let payload = s.payload.take().expect("pending slot holds a payload");
        s.next = self.free_head;
        self.free_head = slot;
        self.live -= 1;
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3), "c");
        q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), Some((t(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_before_stops_at_the_bound() {
        let mut q = EventQueue::new();
        q.schedule(t(1), "a"); // seq 0
        q.schedule(t(2), "b"); // seq 1
        q.schedule(t(3), "c"); // seq 2
        assert_eq!(q.pop_before(t(1), 0), None, "the bound is exclusive");
        assert_eq!(q.pop_before(t(2), 1), Some((t(1), "a")));
        assert_eq!(q.pop_before(t(2), 1), None);
        assert_eq!(q.pop_before(t(2), 2), Some((t(2), "b")));
        assert_eq!(q.len(), 1, "the later head stays pending");
        assert_eq!(q.pop(), Some((t(3), "c")));
    }

    #[test]
    fn reserved_seqs_sit_between_earlier_and_later_schedules() {
        let mut q = EventQueue::new();
        q.schedule(t(5), "before");
        let first = q.reserve_seqs(2);
        q.schedule(t(5), "after");
        // Same instant: only what was scheduled before the reservation
        // orders ahead of the block, and nothing of it ahead of itself.
        assert_eq!(q.pop_before(t(5), first), Some((t(5), "before")));
        assert_eq!(q.pop_before(t(5), first + 1), None);
        assert_eq!(q.pop(), Some((t(5), "after")));
    }

    #[test]
    fn interleaved_schedule_pop_is_stable() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.schedule(t(10) + Duration::from_micros(1), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(t(10), 3); // earlier than remaining event
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..8 {
                q.schedule(t(round + i), i);
            }
            let mut popped = 0;
            while q.pop().is_some() {
                popped += 1;
            }
            assert_eq!(popped, 8);
        }
        // 8 concurrent events max → the arena never grows past 8 slots.
        assert!(q.slots.len() <= 8, "arena grew to {}", q.slots.len());
    }

    #[test]
    fn reused_slots_counts_arena_recycling_across_drains() {
        let mut q = EventQueue::new();
        for i in 0..4u64 {
            q.schedule(t(i), i);
        }
        assert_eq!(q.reused_slots(), 0, "first fills grow the arena");
        while q.pop().is_some() {}
        for i in 4..8u64 {
            q.schedule(t(i), i);
        }
        assert_eq!(q.reused_slots(), 4, "post-drain schedules reuse slots");
        // Pop-then-schedule also recycles.
        let _ = q.pop();
        q.schedule(t(9), 9);
        assert_eq!(q.reused_slots(), 5);
    }

    #[test]
    fn heavy_interleaving_matches_fifo_semantics() {
        // Schedules cycle through 13 instants, so after the first pops
        // many land before the last popped one; pops interleave with them.
        let mut q = EventQueue::new();
        let mut pending: Vec<(SimTime, u64)> = Vec::new();
        let mut delivered = Vec::new();
        let mut expected = Vec::new();
        for i in 0..200u64 {
            q.schedule(t(i % 13), i);
            pending.push((t(i % 13), i));
            if i % 3 == 2 {
                delivered.push(q.pop().expect("pending events"));
                // seq order == schedule order == payload order.
                let min = (0..pending.len()).min_by_key(|&k| pending[k]).unwrap();
                expected.push(pending.remove(min));
            }
        }
        while let Some(e) = q.pop() {
            delivered.push(e);
        }
        pending.sort_unstable();
        expected.extend(pending);
        assert_eq!(delivered, expected);
    }
}
