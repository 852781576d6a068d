//! The pending-event set.
//!
//! A **calendar queue** (Brown, CACM 1988) keyed by `(SimTime, sequence)`
//! over a generation-tagged **slot arena**. The monotonic sequence number
//! guarantees that events scheduled for the same instant fire in the order
//! they were scheduled — a requirement for reproducibility that ordering by
//! time alone cannot provide. Both halves of the key are packed into one
//! `u128`, and every ordering decision in this module is one compare of
//! those keys, so the firing order is exactly the key order, whatever
//! container an event waits in.
//!
//! The calendar is a ring of `BUCKETS` time buckets, each `2^BUCKET_SHIFT`
//! µs wide, covering the span that starts at the *current* bucket. Each
//! bucket holds a circular doubly-linked chain sorted by key, threaded
//! through the arena slots themselves: a schedule walks back from the
//! chain's tail to its place, a pop unlinks the head of the first occupied
//! bucket (found through an occupancy bitmap), and a cancel unlinks its
//! slot in O(1). Nothing is allocated per event once the arena has grown.
//! An event beyond the ring's span waits in the **far set**, a 4-ary
//! min-heap of packed keys, and joins the ring as soon as the calendar
//! moves close enough; a cancelled far event leaves a tombstone there,
//! recognised by its slot's generation and dropped on the way in.
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

/// Sentinel terminating the free list and marking an empty bucket.
const NIL: u32 = u32::MAX;

/// `Slot::bucket` of an event waiting in the far set.
const FAR: u32 = u32::MAX;

/// Width of one bucket: `2^10` µs ≈ 1 ms. See DESIGN.md §3, rule 1, for
/// the traffic these two constants are sized from.
const BUCKET_SHIFT: u32 = 10;

/// Buckets in the ring: a span of `4 096 × 1.024` ms ≈ 4.2 s.
const BUCKETS: usize = 1 << 12;

/// One arena slot. `payload` is `Some` exactly while the event is live
/// (scheduled, not yet fired or cancelled). While live, `next`/`prev` link
/// the slot into its bucket's chain; while vacant, `next` threads the free
/// list.
struct Slot<T> {
    key: u128,
    gen: u32,
    next: u32,
    prev: u32,
    /// Ring index of the bucket whose chain holds the slot, or `FAR`.
    bucket: u32,
    payload: Option<T>,
}

/// Slot reference carried alongside each far-set key: the arena slot plus
/// its generation at schedule time, so tombstones of cancelled events are
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

/// Absolute calendar bucket (`time >> BUCKET_SHIFT`) of a packed key.
#[inline]
fn key_bucket(key: u128) -> u64 {
    ((key >> 64) as u64) >> BUCKET_SHIFT
}

/// The far set: an implicit 4-ary min-heap stored struct-of-arrays, so the
/// four children a sift step compares share one cache line; the slot
/// references travel in the parallel `meta` array.
#[derive(Default)]
struct FarSet {
    keys: Vec<u128>,
    meta: Vec<HeapMeta>,
}

impl FarSet {
    fn min_key(&self) -> Option<u128> {
        self.keys.first().copied()
    }

    fn push(&mut self, key: u128, meta: HeapMeta) {
        self.keys.push(key);
        self.meta.push(meta);
        self.sift_up(self.keys.len() - 1);
    }

    /// Removes the root entry (live or tombstone); the heap is non-empty.
    fn pop_min(&mut self) -> HeapMeta {
        self.keys.swap_remove(0);
        let min_meta = self.meta.swap_remove(0);
        if !self.keys.is_empty() {
            self.sift_down(0);
        }
        min_meta
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.meta.clear();
    }

    /// Restores the heap property upward from `idx`.
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

/// A cancellable, deterministic future-event list.
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

    /// Schedules `payload` to fire at `at`. Returns a handle for cancellation.
    pub fn schedule(&mut self, at: SimTime, payload: T) -> EventId {
        let key = pack_key(at, self.next_seq);
        self.next_seq += 1;
        let slot = match self.free_head {
            NIL => {
                let idx = self.slots.len() as u32;
                assert!(idx != NIL, "event queue slot arena exhausted");
                self.slots.push(Slot {
                    key,
                    gen: 0,
                    next: NIL,
                    prev: NIL,
                    bucket: FAR,
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
        let gen = self.slots[slot as usize].gen;
        let bucket = key_bucket(key);
        if bucket >= self.cur + BUCKETS as u64 {
            self.slots[slot as usize].bucket = FAR;
            self.far.push(key, HeapMeta { slot, gen });
        } else {
            // An instant before the current bucket joins the current one.
            self.link(slot, bucket.max(self.cur));
        }
        self.live += 1;
        EventId { slot, gen }
    }

    /// Cancels a previously scheduled event in O(1). Returns `true` if the
    /// event was still pending (it will not be delivered), `false` if it
    /// already fired or was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get(id.slot as usize) {
            Some(s) if s.gen == id.gen && s.payload.is_some() => {
                if s.bucket != FAR {
                    self.unlink(id.slot);
                }
                self.release(id.slot);
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

    /// Pops the earliest live event whose packed key is below `bound`.
    #[inline]
    fn pop_below(&mut self, bound: u128) -> Option<(SimTime, T)> {
        let b = self.first_bucket(key_bucket(bound))?;
        let head = self.heads[b];
        let key = self.slots[head as usize].key;
        if key >= bound {
            return None;
        }
        self.unlink(head);
        Some((key_time(key), self.release(head)))
    }

    /// Timestamp of the earliest live event, if any, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let b = self.first_bucket(u64::MAX)?;
        Some(key_time(self.slots[self.heads[b] as usize].key))
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

    /// Discards all pending events. The calendar starts over at the epoch,
    /// as in a new queue.
    pub fn clear(&mut self) {
        self.heads.fill(NIL);
        self.occupied.fill(0);
        self.cur = 0;
        self.far.clear();
        self.free_head = NIL;
        for (idx, s) in self.slots.iter_mut().enumerate() {
            if s.payload.take().is_some() {
                s.gen = s.gen.wrapping_add(1);
            }
            s.next = self.free_head;
            self.free_head = idx as u32;
        }
        self.live = 0;
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
        loop {
            let next = match self.next_occupied() {
                Some(bucket) => bucket,
                // The ring is empty: the far set's head comes next (it may
                // be a tombstone, which the move drops).
                None => key_bucket(self.far.min_key()?),
            };
            if next > limit {
                self.advance(limit);
                return None;
            }
            self.advance(next);
            let b = (next % BUCKETS as u64) as usize;
            if self.heads[b] != NIL {
                return Some(b);
            }
        }
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
            let meta = self.far.pop_min();
            if self.slots[meta.slot as usize].gen == meta.gen {
                self.link(meta.slot, key_bucket(key));
            }
        }
    }

    /// Links `slot` into the chain of absolute bucket `bucket` (inside the
    /// ring's span), in key order.
    #[inline]
    fn link(&mut self, slot: u32, bucket: u64) {
        let b = (bucket % BUCKETS as u64) as usize;
        let key = self.slots[slot as usize].key;
        self.slots[slot as usize].bucket = b as u32;
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

    /// Unlinks `slot` from its bucket's chain.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Slot {
            next, prev, bucket, ..
        } = self.slots[slot as usize];
        let b = bucket as usize;
        if next == slot {
            self.heads[b] = NIL;
            self.occupied[b / 64] &= !(1 << (b % 64));
        } else {
            self.slots[prev as usize].next = next;
            self.slots[next as usize].prev = prev;
            if self.heads[b] == slot {
                self.heads[b] = next;
            }
        }
    }

    /// Retires a live slot (already out of any chain): takes its payload,
    /// stales its handles and returns it to the free list.
    #[inline]
    fn release(&mut self, slot: u32) -> T {
        let s = &mut self.slots[slot as usize];
        let payload = s.payload.take().expect("live slot holds a payload");
        s.gen = s.gen.wrapping_add(1);
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
