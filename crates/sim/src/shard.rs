//! The deterministic partition behind every sharded fan-out.
//!
//! A world — any indexed set of model entities (regions, pool VMs,
//! chaos-campaign plans) — is split into **shards**: contiguous index
//! ranges ([`ShardLayout`]). Within an era every shard advances
//! independently, so shards can run on separate threads of the `acm-exec`
//! pool; at the era **barrier** cross-shard effects are exchanged in
//! shard-index order. The control loop's MONITOR fan-out and the chaos
//! campaign's batches are laid out here; the routed request plane keeps
//! the same discipline with one simulator per shard.
//!
//! Determinism discipline (the whole point of the design):
//!
//! 1. **Shard count is a function of the configuration, never of the
//!    thread count.** The same layout runs at `ACM_THREADS=1` and
//!    `ACM_THREADS=64`; threads only change *where* a shard executes.
//! 2. **Pre-split RNG.** Each shard's streams are split off the parent in
//!    index order before the first era; no draw ever crosses a shard
//!    boundary mid-era.
//! 3. **Index-ordered merge.** Everything a shard exports at the barrier
//!    (messages, reports, child obs hubs) is merged in shard-index order,
//!    and entries within one shard keep their emission order — the merged
//!    result is byte-identical to a sequential sweep over the items.
//!
//! Together these make a sharded run reproduce the unsharded event stream
//! bit for bit at any thread width.

use std::ops::Range;

/// Deterministic partition of `0..items` into contiguous shard ranges.
///
/// Layouts are pure functions of `(items, shards)` — thread count never
/// enters — so every run of a given configuration shards identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLayout {
    /// `bounds[s]..bounds[s + 1]` is shard `s`'s item range.
    bounds: Vec<usize>,
}

impl ShardLayout {
    /// Splits `items` into at most `shards` contiguous ranges of
    /// near-equal size (sizes differ by at most one, larger shards
    /// first). `shards` is clamped to `[1, max(items, 1)]`, so no shard
    /// is ever empty unless there are no items at all.
    pub fn balanced(items: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, items.max(1));
        let mut bounds = Vec::with_capacity(shards + 1);
        for s in 0..=shards {
            bounds.push(items * s / shards);
        }
        ShardLayout { bounds }
    }

    /// Splits `items` into near-equal contiguous ranges of at most
    /// `max_chunk` items each (the batch-size dual of
    /// [`ShardLayout::balanced`]: callers bound memory per batch instead
    /// of fixing the batch count). `max_chunk` is clamped to at least 1.
    pub fn chunks(items: usize, max_chunk: usize) -> Self {
        let max_chunk = max_chunk.max(1);
        ShardLayout::balanced(items, items.div_ceil(max_chunk).max(1))
    }

    /// Splits `items` into as many near-equal contiguous ranges as the
    /// work on offer pays for: one shard per `grain` units of `work`,
    /// never more than `max_shards` (or than `items`), never fewer than
    /// one. A fork/join whose parts are shorter than the join costs more
    /// than it saves, so callers pass the work total that drives the
    /// per-shard cost (VMs, browsers, rows) and the amount of it that
    /// outweighs one fan-out. `grain` is clamped to at least 1.
    pub fn sized(items: usize, work: usize, grain: usize, max_shards: usize) -> Self {
        ShardLayout::balanced(items, max_shards.min(work / grain.max(1)))
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total number of items across all shards.
    pub fn items(&self) -> usize {
        *self.bounds.last().expect("bounds never empty")
    }

    /// Item range owned by shard `s`.
    pub fn range(&self, s: usize) -> Range<usize> {
        self.bounds[s]..self.bounds[s + 1]
    }

    /// Iterates `(shard, range)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        (0..self.shards()).map(|s| (s, self.range(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_layout_covers_all_items_contiguously() {
        for items in [0usize, 1, 5, 7, 16, 100] {
            for shards in [1usize, 2, 3, 4, 8, 200] {
                let l = ShardLayout::balanced(items, shards);
                assert!(l.shards() >= 1);
                assert!(l.shards() <= shards.max(1));
                assert_eq!(l.items(), items);
                let mut next = 0;
                for (_, r) in l.iter() {
                    assert_eq!(r.start, next, "items={items} shards={shards}");
                    assert!(r.end >= r.start);
                    next = r.end;
                }
                assert_eq!(next, items);
            }
        }
    }

    #[test]
    fn chunk_layout_bounds_every_batch() {
        for items in [0usize, 1, 5, 64, 200, 201] {
            for max_chunk in [1usize, 3, 32, 64, 1000] {
                let l = ShardLayout::chunks(items, max_chunk);
                assert_eq!(l.items(), items);
                for (_, r) in l.iter() {
                    assert!(
                        r.len() <= max_chunk,
                        "items={items} max={max_chunk} got {}",
                        r.len()
                    );
                }
            }
        }
        // Degenerate max_chunk clamps instead of dividing by zero.
        assert_eq!(ShardLayout::chunks(10, 0).items(), 10);
    }

    proptest::proptest! {
        #[test]
        fn sized_layout_follows_the_work_on_offer(
            items in 0usize..300,
            work in 0usize..20_000,
            grain in 1usize..200,
            cap in 1usize..64,
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let l = ShardLayout::sized(items, work, grain, cap);
            prop_assert!(l.shards() >= 1);
            prop_assert!(l.shards() <= cap, "more shards than the cap");
            prop_assert!(l.shards() <= items.max(1), "more shards than items");
            prop_assert!(l.shards() <= (work / grain).max(1), "a shard below one grain");
            if work < 2 * grain {
                prop_assert_eq!(l.shards(), 1);
            }
            if work >= cap * grain {
                prop_assert_eq!(&l, &ShardLayout::balanced(items, cap));
            }
            // Contiguous and covering, whatever the count came out as.
            prop_assert_eq!(l.items(), items);
            let mut next = 0;
            for (_, r) in l.iter() {
                prop_assert_eq!(r.start, next);
                next = r.end;
            }
            prop_assert_eq!(next, items);
        }
    }

    #[test]
    fn sized_layout_clamps_a_zero_grain() {
        assert_eq!(ShardLayout::sized(10, 5, 0, 8).shards(), 5);
    }

    #[test]
    fn layout_is_independent_of_anything_but_its_inputs() {
        assert_eq!(
            ShardLayout::balanced(10, 3),
            ShardLayout::balanced(10, 3),
            "layouts are pure functions of (items, shards)"
        );
        // No empty shards: 3 items over 8 requested shards -> 3 shards.
        assert_eq!(ShardLayout::balanced(3, 8).shards(), 3);
    }
}
