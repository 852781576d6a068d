//! `Hist::record` from pool threads: two read-modify-writes per record
//! (bucket and sum), `min` / `max` only when extended, `count` summed from
//! the buckets at snapshot. Whatever the interleaving, a snapshot taken
//! after the barrier must account for every record exactly.

use acm_exec::ThreadPool;
use acm_obs::MetricsRegistry;

/// The values worker `w` records: spread over many buckets, with each
/// worker owning a distinct extreme so min/max must cross threads.
fn values(w: u64, per_worker: u64) -> impl Iterator<Item = u64> {
    (0..per_worker).map(move |i| {
        let v = (i * 2_654_435_761 + w * 97) % 1_000_003;
        v << (i % 24)
    })
}

#[test]
fn records_from_pool_threads_add_up_exactly() {
    const WORKERS: u64 = 8;
    const PER_WORKER: u64 = 20_000;
    for width in [2, 4] {
        let pool = ThreadPool::new(width);
        let reg = MetricsRegistry::new(true);
        let h = reg.histogram("acm.test.threads.h");
        let mut workers: Vec<u64> = (0..WORKERS).collect();
        pool.for_each_mut(&mut workers, |_, &mut w| {
            for v in values(w, PER_WORKER) {
                h.record(v);
            }
            // One extreme per worker, on a different worker each side.
            if w == 3 {
                h.record(1 << 50);
            }
            if w == 5 {
                h.record(0);
            }
        });

        let all: Vec<u64> = (0..WORKERS)
            .flat_map(|w| values(w, PER_WORKER))
            .chain([1 << 50, 0])
            .collect();
        let s = h.snapshot();
        assert_eq!(s.count, all.len() as u64, "width {width}");
        assert_eq!(s.count, s.buckets.iter().sum::<u64>(), "width {width}");
        assert_eq!(s.sum, all.iter().sum::<u64>(), "width {width}");
        assert_eq!(s.min, 0, "width {width}");
        assert_eq!(s.max, 1 << 50, "width {width}");

        // Folding the snapshot into a fresh histogram, twice, keeps the
        // count (it lives in the buckets) and the exact extremes.
        let merged = reg.histogram("acm.test.threads.merged");
        merged.merge_snapshot(&s);
        let m = merged.snapshot();
        assert_eq!(m, s, "width {width}");
        merged.merge_snapshot(&s);
        let m = merged.snapshot();
        assert_eq!(m.count, 2 * s.count, "width {width}");
        assert_eq!(m.sum, 2 * s.sum, "width {width}");
        assert_eq!((m.min, m.max), (s.min, s.max), "width {width}");
    }
}
