//! The pending-event set.
//!
//! An implicit **4-ary min-heap** keyed by `(SimTime, sequence)` over a
//! generation-tagged **slot arena**. The monotonic sequence number
//! guarantees that events scheduled for the same instant fire in the order
//! they were scheduled — a requirement for reproducibility that a bare heap
//! ordered by time alone cannot provide (order among equal keys is
//! unspecified). Cancellation is O(1): the event's slot is invalidated by
//! bumping its generation, and the orphaned heap entry is skipped lazily on
//! pop. No hashing happens anywhere on the schedule/cancel/pop path: slots
//! are indexed directly.
//!
//! The 4-ary layout halves the tree depth of a binary heap, and the heap is
//! stored struct-of-arrays with `(time, seq)` packed into one 16-byte
//! integer key: the four children a sift step compares share a single cache
//! line, which benches measurably faster for the push/pop mix the simulator
//! produces.
//!
//! A heap is the wrong container for input that is already sorted, so the
//! queue also lets a caller *merge* such a stream with it instead of
//! scheduling it: [`EventQueue::reserve_seqs`] hands the stream a block of
//! sequence numbers and [`EventQueue::pop_before`] pops only what orders
//! ahead of the stream's next entry. [`crate::sim`] builds its run loop on
//! the pair.

use crate::time::SimTime;

/// Opaque handle identifying a scheduled event, usable for cancellation.
///
/// Handles are generation-tagged: once the event fires or is cancelled, the
/// handle goes stale and any further [`EventQueue::cancel`] with it returns
/// `false`, even if the underlying slot has been reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// Sentinel terminating the free list.
const NIL: u32 = u32::MAX;

/// One arena slot. `payload` is `Some` exactly while the event is live
/// (scheduled, not yet fired or cancelled); `next_free` threads the free
/// list through vacant slots.
struct Slot<T> {
    gen: u32,
    payload: Option<T>,
    next_free: u32,
}

/// Slot reference carried alongside each heap key: the arena slot plus its
/// generation at schedule time, so tombstones of cancelled events are
/// recognisable.
#[derive(Clone, Copy)]
struct HeapMeta {
    slot: u32,
    gen: u32,
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

/// A cancellable, deterministic future-event list.
///
/// The heap is stored struct-of-arrays: `keys` carries only the 16-byte
/// packed ordering keys, so the four children a sift step compares fit in a
/// single cache line; the slot references travel in the parallel `meta`
/// array and are touched only when an entry actually moves.
pub struct EventQueue<T> {
    /// Implicit 4-ary min-heap of packed `(time, seq)` keys.
    keys: Vec<u128>,
    /// Slot reference of each heap entry, index-aligned with `keys`.
    meta: Vec<HeapMeta>,
    /// Slot arena holding payloads, indexed by `HeapMeta::slot`.
    slots: Vec<Slot<T>>,
    /// Head of the vacant-slot free list (`NIL` when every slot is in use).
    free_head: u32,
    next_seq: u64,
    /// Count of live (scheduled, not cancelled) events.
    live: usize,
    /// Cumulative count of schedules that reused a vacant arena slot
    /// instead of growing the arena — each one is an allocation the
    /// clear-and-reuse discipline saved.
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
        EventQueue {
            keys: Vec::new(),
            meta: Vec::new(),
            slots: Vec::new(),
            free_head: NIL,
            next_seq: 0,
            live: 0,
            reused_slots: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` events before any
    /// reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            keys: Vec::with_capacity(capacity),
            meta: Vec::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free_head: NIL,
            next_seq: 0,
            live: 0,
            reused_slots: 0,
        }
    }

    /// Schedules `payload` to fire at `at`. Returns a handle for cancellation.
    pub fn schedule(&mut self, at: SimTime, payload: T) -> EventId {
        let slot = match self.free_head {
            NIL => {
                let idx = self.slots.len() as u32;
                assert!(idx != NIL, "event queue slot arena exhausted");
                self.slots.push(Slot {
                    gen: 0,
                    payload: Some(payload),
                    next_free: NIL,
                });
                idx
            }
            idx => {
                let s = &mut self.slots[idx as usize];
                self.free_head = s.next_free;
                s.next_free = NIL;
                s.payload = Some(payload);
                self.reused_slots += 1;
                idx
            }
        };
        let gen = self.slots[slot as usize].gen;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.keys.push(pack_key(at, seq));
        self.meta.push(HeapMeta { slot, gen });
        self.sift_up(self.keys.len() - 1);
        self.live += 1;
        EventId { slot, gen }
    }

    /// Cancels a previously scheduled event in O(1). Returns `true` if the
    /// event was still pending (it will not be delivered), `false` if it
    /// already fired or was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(s) if s.gen == id.gen && s.payload.is_some() => {
                s.payload = None;
                s.gen = s.gen.wrapping_add(1); // stale-proof the handle
                s.next_free = self.free_head;
                self.free_head = id.slot;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Removes and returns the earliest live event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        // No real key reaches the bound: sequence numbers never get to
        // `u64::MAX`.
        self.pop_below(u128::MAX)
    }

    /// Removes and returns the earliest live event only if it orders
    /// strictly before `(at, seq)`; a later head stays pending. Tombstones
    /// of cancelled events ahead of the bound are discarded on the way,
    /// as [`peek_time`] does. This is the merge step of a run loop that
    /// interleaves the queue with a sorted stream whose entries hold
    /// reserved sequence numbers ([`reserve_seqs`]).
    ///
    /// [`peek_time`]: EventQueue::peek_time
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

    /// Pops the earliest live event whose packed key is below `bound`.
    #[inline]
    fn pop_below(&mut self, bound: u128) -> Option<(SimTime, T)> {
        while self.keys.first().is_some_and(|&key| key < bound) {
            let (key, meta) = self.pop_min().expect("the heap has a head");
            let s = &mut self.slots[meta.slot as usize];
            if s.gen != meta.gen {
                continue; // tombstone of a cancelled event
            }
            let payload = s.payload.take().expect("live slot holds a payload");
            s.gen = s.gen.wrapping_add(1);
            s.next_free = self.free_head;
            self.free_head = meta.slot;
            self.live -= 1;
            return Some((key_time(key), payload));
        }
        None
    }

    /// Timestamp of the earliest live event, if any, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&key) = self.keys.first() {
            let meta = self.meta[0];
            if self.slots[meta.slot as usize].gen == meta.gen {
                return Some(key_time(key));
            }
            self.pop_min(); // discard the cancelled head
        }
        None
    }

    /// Number of live (not cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Cumulative number of schedules that reused a vacant arena slot
    /// rather than growing the arena. [`clear`] keeps the arena (and this
    /// counter), so across-era reuse shows up here as saved allocations —
    /// the simulator surfaces the tally as `acm.sim.queue.arena_reuse`.
    ///
    /// [`clear`]: EventQueue::clear
    pub fn reused_slots(&self) -> u64 {
        self.reused_slots
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.meta.clear();
        self.free_head = NIL;
        for (idx, s) in self.slots.iter_mut().enumerate() {
            if s.payload.take().is_some() {
                s.gen = s.gen.wrapping_add(1);
            }
            s.next_free = self.free_head;
            self.free_head = idx as u32;
        }
        self.live = 0;
    }

    /// Removes and returns the root heap entry (live or tombstone).
    #[inline]
    fn pop_min(&mut self) -> Option<(u128, HeapMeta)> {
        if self.keys.is_empty() {
            return None;
        }
        let min_key = self.keys.swap_remove(0);
        let min_meta = self.meta.swap_remove(0);
        if !self.keys.is_empty() {
            self.sift_down(0);
        }
        Some((min_key, min_meta))
    }

    /// Restores the heap property upward from `idx`.
    #[inline]
    fn sift_up(&mut self, mut idx: usize) {
        let key = self.keys[idx];
        let meta = self.meta[idx];
        while idx > 0 {
            let parent = (idx - 1) / 4;
            let pk = self.keys[parent];
            if pk <= key {
                break;
            }
            self.keys[idx] = pk;
            self.meta[idx] = self.meta[parent];
            idx = parent;
        }
        self.keys[idx] = key;
        self.meta[idx] = meta;
    }

    /// Restores the heap property downward from `idx`.
    #[inline]
    fn sift_down(&mut self, mut idx: usize) {
        let len = self.keys.len();
        let key = self.keys[idx];
        let meta = self.meta[idx];
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
            self.meta[idx] = self.meta[best];
            idx = best;
        }
        self.keys[idx] = key;
        self.meta[idx] = meta;
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
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId { slot: 99, gen: 0 }));
    }

    #[test]
    fn stale_handle_does_not_cancel_slot_reuse() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        // The slot is vacant; scheduling reuses it with a bumped generation.
        let b = q.schedule(t(2), "b");
        assert!(!q.cancel(a), "handle from the fired event must be stale");
        assert!(q.cancel(b));
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(4), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(4)));
        assert_eq!(q.pop(), Some((t(4), "b")));
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
    fn pop_before_skips_cancelled_heads() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(a);
        assert_eq!(q.pop_before(t(5), 0), Some((t(2), "b")));
        assert_eq!(q.pop_before(t(5), 0), None);
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
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert!(!q.cancel(a), "handles die with clear()");
        // The queue is fully usable afterwards and reuses its slots.
        q.schedule(t(3), 3);
        assert_eq!(q.pop(), Some((t(3), 3)));
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
            let ids: Vec<EventId> = (0..8).map(|i| q.schedule(t(round + i), i)).collect();
            q.cancel(ids[3]);
            q.cancel(ids[5]);
            let mut popped = 0;
            while q.pop().is_some() {
                popped += 1;
            }
            assert_eq!(popped, 6);
        }
        // 8 concurrent events max → the arena never grows past 8 slots.
        assert!(q.slots.len() <= 8, "arena grew to {}", q.slots.len());
    }

    #[test]
    fn reused_slots_counts_arena_recycling_across_clear() {
        let mut q = EventQueue::new();
        for i in 0..4u64 {
            q.schedule(t(i), i);
        }
        assert_eq!(q.reused_slots(), 0, "first fills grow the arena");
        q.clear();
        for i in 0..4u64 {
            q.schedule(t(i), i);
        }
        assert_eq!(q.reused_slots(), 4, "post-clear schedules reuse slots");
        // Pop-then-schedule also recycles.
        let _ = q.pop();
        q.schedule(t(9), 9);
        assert_eq!(q.reused_slots(), 5);
    }

    #[test]
    fn heavy_cancel_interleaving_matches_fifo_semantics() {
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        let mut ids = Vec::new();
        for i in 0..200u64 {
            let at = t(i % 13);
            ids.push((q.schedule(at, i), at, i));
        }
        for (k, (id, at, v)) in ids.into_iter().enumerate() {
            if k % 3 == 0 {
                assert!(q.cancel(id));
            } else {
                expected.push((at, v));
            }
        }
        expected.sort_by_key(|&(at, v)| (at, v)); // seq order == schedule order
        let mut delivered = Vec::new();
        while let Some(e) = q.pop() {
            delivered.push(e);
        }
        assert_eq!(delivered, expected);
    }
}
