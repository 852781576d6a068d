//! # acm-exec — deterministic data-parallel execution
//!
//! A std-only (threads + atomics + mutex/condvar, zero dependencies)
//! work-stealing thread pool behind every parallel call site in the
//! workspace. Three entry points — [`map_collect`], [`try_map_collect`],
//! [`for_each_mut`] — over one mechanism: a range-stealing map whose
//! helpers the caller can claim back. Every call returns only after all
//! of its work has, so nothing the pool runs outlives the caller that is
//! blocked on it.
//!
//! ## Design
//!
//! * **Work stealing over index ranges.** A parallel map over `n` items
//!   splits `0..n` into one contiguous range per participant, packed into
//!   an `AtomicU64` (`start` in the high 32 bits, `end` in the low 32).
//!   Owners pop chunks off the *front* of their range with a CAS; an idle
//!   participant steals the *back half* of a victim's range with a CAS.
//!   Because `start` only ever grows and `end` only ever shrinks within a
//!   job, the full-word CAS is ABA-free.
//! * **Chunked splitting.** Pops take `max(1, n / (participants × 4))`
//!   indices at a time so fine-grained items amortise the CAS while coarse
//!   items still balance.
//! * **Index-ordered deterministic collect.** Every result is written to
//!   the slot of its input index; the output `Vec` is assembled in input
//!   order regardless of which thread computed what. Combined with
//!   pre-split RNG streams at the call sites, parallel runs are
//!   **byte-identical** to sequential runs.
//! * **Panic propagation.** Participant bodies run under `catch_unwind`;
//!   the first payload is re-raised on the calling thread after every
//!   participant has quiesced (unprocessed items and orphaned results are
//!   leaked, never double-dropped).
//! * **Deadlock-free nesting.** Helper jobs are *claimable*: the caller
//!   claims and inlines any job no worker has started yet, and only waits
//!   for jobs actively running elsewhere. A nested `map_collect` on a
//!   saturated pool therefore degrades to inline execution instead of
//!   waiting for a free worker that may never come.
//!
//! ## Thread-count knob
//!
//! The global pool honours `ACM_THREADS` (unset or `0` → all available
//! cores). `ACM_THREADS=1` — or [`configure_threads`]`(1)` from code,
//! which tests and benchmarks should prefer over mutating the
//! environment — takes the *exact* sequential `Iterator` path: no worker
//! threads, no atomics, no reordering of side effects.
//!
//! ## Instrumentation
//!
//! Every pool keeps relaxed-atomic activity counters — parallel/sequential
//! maps, items, chunk pops, steals, submitted and caller-inlined helper
//! jobs, peak queue depth, and per-participant busy time around map
//! participation. [`ThreadPool::stats`] returns a
//! [`PoolStatsSnapshot`]; [`PoolStatsSnapshot::delta_since`] subtracts a
//! baseline so callers can attribute activity to one phase of a run. The
//! counters live off the CAS hot path (one flush per participant per map,
//! two clock reads per participation) and never influence scheduling, so
//! determinism is unaffected.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::mem::{self, ManuallyDrop, MaybeUninit};
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread;
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;
type PanicPayload = Box<dyn Any + Send + 'static>;

// ---------------------------------------------------------------------------
// latch
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut n = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        *n -= 1;
        if *n == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut n = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *n > 0 {
            n = self.done.wait(n).unwrap_or_else(|e| e.into_inner());
        }
    }
}

// ---------------------------------------------------------------------------
// packed index ranges
// ---------------------------------------------------------------------------

#[inline]
fn pack(start: usize, end: usize) -> u64 {
    ((start as u64) << 32) | end as u64
}

#[inline]
fn unpack(v: u64) -> (usize, usize) {
    ((v >> 32) as usize, (v & 0xffff_ffff) as usize)
}

/// Owner side: pop up to `chunk` indices off the front of the range.
fn pop_front(range: &AtomicU64, chunk: usize) -> Option<(usize, usize)> {
    let mut cur = range.load(Ordering::Acquire);
    loop {
        let (s, e) = unpack(cur);
        if s >= e {
            return None;
        }
        let ns = (s + chunk).min(e);
        match range.compare_exchange_weak(cur, pack(ns, e), Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return Some((s, ns)),
            Err(observed) => cur = observed,
        }
    }
}

/// Thief side: detach the back half of a victim's range (victim keeps the
/// front ⌈half⌉). A lone remaining element is taken whole: its owner is
/// busy with an earlier chunk, and the full-word CAS makes the owner's
/// next pop see the range empty.
fn steal_half(range: &AtomicU64) -> Option<(usize, usize)> {
    let mut cur = range.load(Ordering::Acquire);
    loop {
        let (s, e) = unpack(cur);
        if s >= e {
            return None;
        }
        let mid = if e - s == 1 {
            s
        } else {
            s + (e - s).div_ceil(2)
        };
        match range.compare_exchange_weak(cur, pack(s, mid), Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return Some((mid, e)),
            Err(observed) => cur = observed,
        }
    }
}

// ---------------------------------------------------------------------------
// claimable helper jobs
// ---------------------------------------------------------------------------

/// Claim flags + completion latch shared between a caller and the helper
/// jobs it queued. Heap-allocated (`Arc`) so a stale queue entry that
/// *loses* its claim race touches only this block, never the caller's
/// stack frame.
#[derive(Debug)]
struct JobControl {
    claimed: Box<[AtomicBool]>,
    latch: Latch,
}

impl JobControl {
    fn new(helpers: usize) -> Arc<Self> {
        Arc::new(JobControl {
            claimed: (0..helpers).map(|_| AtomicBool::new(false)).collect(),
            latch: Latch::new(helpers),
        })
    }

    /// True if the caller wins the right to run helper `i` itself.
    fn try_claim(&self, i: usize) -> bool {
        !self.claimed[i].swap(true, Ordering::AcqRel)
    }
}

// ---------------------------------------------------------------------------
// pool statistics
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct WorkerStat {
    busy_ns: AtomicU64,
    spans: AtomicU64,
}

/// Relaxed-atomic activity counters owned by one pool. Updated off the
/// CAS hot path (one flush per participant per map, one bump per queue
/// submit) so they never perturb scheduling or determinism.
#[derive(Debug)]
struct PoolStats {
    par_maps: AtomicU64,
    seq_maps: AtomicU64,
    items: AtomicU64,
    chunks_popped: AtomicU64,
    steals: AtomicU64,
    jobs_submitted: AtomicU64,
    helpers_inlined: AtomicU64,
    queue_depth_peak: AtomicU64,
    workers: Box<[WorkerStat]>,
}

thread_local! {
    /// This thread's participant index: set once by `worker_loop`; every
    /// other thread is a caller, index 0.
    static PARTICIPANT: Cell<usize> = const { Cell::new(0) };
    /// True while this thread is inside a [`BusySection`], so that a map
    /// nested in another map is counted once.
    static IN_BUSY_SECTION: Cell<bool> = const { Cell::new(false) };
}

/// One map participation on the current thread. Dropping it adds the
/// elapsed wall time and one span to the thread's participant slot,
/// unless the section is nested inside another one on the same thread.
struct BusySection<'a> {
    /// `None` for a nested section.
    outermost: Option<(&'a PoolStats, Instant)>,
}

impl Drop for BusySection<'_> {
    fn drop(&mut self) {
        let Some((stats, started)) = self.outermost else {
            return;
        };
        IN_BUSY_SECTION.set(false);
        if let Some(w) = stats.workers.get(PARTICIPANT.get()) {
            w.busy_ns
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            w.spans.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl PoolStats {
    fn busy_section(&self) -> BusySection<'_> {
        let nested = IN_BUSY_SECTION.replace(true);
        BusySection {
            outermost: (!nested).then(|| (self, Instant::now())),
        }
    }

    fn new(threads: usize) -> Arc<Self> {
        Arc::new(PoolStats {
            par_maps: AtomicU64::new(0),
            seq_maps: AtomicU64::new(0),
            items: AtomicU64::new(0),
            chunks_popped: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            helpers_inlined: AtomicU64::new(0),
            queue_depth_peak: AtomicU64::new(0),
            workers: (0..threads).map(|_| WorkerStat::default()).collect(),
        })
    }

    /// Overwrites `out` with the counters, reusing its per-worker buffers.
    fn snapshot_into(&self, threads: usize, out: &mut PoolStatsSnapshot) {
        out.threads = threads;
        out.par_maps = self.par_maps.load(Ordering::Relaxed);
        out.seq_maps = self.seq_maps.load(Ordering::Relaxed);
        out.items = self.items.load(Ordering::Relaxed);
        out.chunks_popped = self.chunks_popped.load(Ordering::Relaxed);
        out.steals = self.steals.load(Ordering::Relaxed);
        out.jobs_submitted = self.jobs_submitted.load(Ordering::Relaxed);
        out.helpers_inlined = self.helpers_inlined.load(Ordering::Relaxed);
        out.queue_depth_peak = self.queue_depth_peak.load(Ordering::Relaxed);
        out.worker_busy_ns.clear();
        out.worker_busy_ns.extend(
            self.workers
                .iter()
                .map(|w| w.busy_ns.load(Ordering::Relaxed)),
        );
        out.worker_spans.clear();
        out.worker_spans
            .extend(self.workers.iter().map(|w| w.spans.load(Ordering::Relaxed)));
    }
}

/// Point-in-time view of one pool's activity counters, cumulative since
/// the pool was created. Obtain via [`ThreadPool::stats`] (or
/// [`global_stats`]); subtract a baseline with [`delta_since`] to
/// attribute activity to one phase of a run.
///
/// [`delta_since`]: PoolStatsSnapshot::delta_since
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStatsSnapshot {
    /// Participant count of the pool (workers + the caller).
    pub threads: usize,
    /// `map_collect` / `for_each_mut` calls that actually fanned out
    /// (≥ 2 participants).
    pub par_maps: u64,
    /// `map_collect` calls that took the exact sequential path.
    pub seq_maps: u64,
    /// Total items moved through `map_collect` (both paths) and fanned-out
    /// `for_each_mut` calls.
    pub items: u64,
    /// Chunks participants popped off the front of their own range.
    pub chunks_popped: u64,
    /// Successful back-half steals from a victim's range.
    pub steals: u64,
    /// Helper jobs pushed onto the pool queue (one per non-caller
    /// participant of a fanned-out map).
    pub jobs_submitted: u64,
    /// Queued helpers the *caller* claimed and inlined because no worker
    /// had started them (saturation / nesting indicator).
    pub helpers_inlined: u64,
    /// Deepest the shared job queue has ever been at submit time.
    pub queue_depth_peak: u64,
    /// Per-participant wall-clock nanoseconds spent participating in
    /// maps (`map_collect` / `for_each_mut`), nested maps counted once
    /// (index 0 is the calling thread, index `i` worker `acm-exec-i`).
    pub worker_busy_ns: Vec<u64>,
    /// Per-participant count of those stretches of work.
    pub worker_spans: Vec<u64>,
}

impl PoolStatsSnapshot {
    /// Counter-wise `self - earlier` (saturating), for attributing pool
    /// activity to the phase between two snapshots. `threads` and
    /// `queue_depth_peak` are level values, not counters, and are taken
    /// from `self` unchanged.
    pub fn delta_since(&self, earlier: &PoolStatsSnapshot) -> PoolStatsSnapshot {
        let mut delta = PoolStatsSnapshot::default();
        self.delta_since_into(earlier, &mut delta);
        delta
    }

    /// [`PoolStatsSnapshot::delta_since`] into `out`, reusing its
    /// per-worker buffers.
    pub fn delta_since_into(&self, earlier: &PoolStatsSnapshot, out: &mut PoolStatsSnapshot) {
        let vec_delta = |out: &mut Vec<u64>, now: &[u64], then: &[u64]| {
            out.clear();
            out.extend(
                now.iter()
                    .enumerate()
                    .map(|(i, v)| v.saturating_sub(then.get(i).copied().unwrap_or(0))),
            );
        };
        out.threads = self.threads;
        out.par_maps = self.par_maps.saturating_sub(earlier.par_maps);
        out.seq_maps = self.seq_maps.saturating_sub(earlier.seq_maps);
        out.items = self.items.saturating_sub(earlier.items);
        out.chunks_popped = self.chunks_popped.saturating_sub(earlier.chunks_popped);
        out.steals = self.steals.saturating_sub(earlier.steals);
        out.jobs_submitted = self.jobs_submitted.saturating_sub(earlier.jobs_submitted);
        out.helpers_inlined = self.helpers_inlined.saturating_sub(earlier.helpers_inlined);
        out.queue_depth_peak = self.queue_depth_peak;
        vec_delta(
            &mut out.worker_busy_ns,
            &self.worker_busy_ns,
            &earlier.worker_busy_ns,
        );
        vec_delta(
            &mut out.worker_spans,
            &self.worker_spans,
            &earlier.worker_spans,
        );
    }

    /// Sum of all participants' busy time.
    pub fn total_busy_ns(&self) -> u64 {
        self.worker_busy_ns.iter().sum()
    }
}

// ---------------------------------------------------------------------------
// parallel map state
// ---------------------------------------------------------------------------

struct MapShared<T, R, F> {
    items: *mut T,
    results: *mut MaybeUninit<R>,
    chunk: usize,
    f: F,
    ranges: Box<[AtomicU64]>,
    abort: AtomicBool,
    panic: Mutex<Option<PanicPayload>>,
    stats: Arc<PoolStats>,
}

// SAFETY: raw pointers target slots handed out exactly once by the range
// protocol; `f` is invoked concurrently through `&F`.
unsafe impl<T: Send, R: Send, F: Sync> Sync for MapShared<T, R, F> {}

impl<T, R, F> MapShared<T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    /// Moves items `s..e` through `f` into their result slots.
    ///
    /// SAFETY: `s..e` must have been obtained from `pop_front`/`steal_half`
    /// so each index is visited exactly once across all participants.
    unsafe fn run_chunk(&self, s: usize, e: usize) {
        for i in s..e {
            let item = ptr::read(self.items.add(i));
            let out = (self.f)(item);
            (*self.results.add(i)).write(out);
        }
    }

    fn record_panic(&self, payload: PanicPayload) {
        self.abort.store(true, Ordering::Relaxed);
        let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
        slot.get_or_insert(payload);
    }

    /// One participant's work loop: drain own range, then steal.
    fn participate(&self, me: usize) {
        let _busy = self.stats.busy_section();
        let workers = self.ranges.len();
        let body = || {
            // Local tallies, flushed once per participation so the stats
            // atomics stay off the CAS hot path.
            let mut popped = 0u64;
            let mut stolen = 0u64;
            'work: loop {
                if self.abort.load(Ordering::Relaxed) {
                    break;
                }
                if let Some((s, e)) = pop_front(&self.ranges[me], self.chunk) {
                    popped += 1;
                    // SAFETY: indices come from the claiming protocol.
                    unsafe { self.run_chunk(s, e) };
                    continue;
                }
                for off in 1..workers {
                    let victim = (me + off) % workers;
                    if let Some((mut s, e)) = steal_half(&self.ranges[victim]) {
                        stolen += 1;
                        // Stolen span is processed privately, chunk by
                        // chunk, so an abort still cuts in promptly.
                        while s < e {
                            if self.abort.load(Ordering::Relaxed) {
                                break 'work;
                            }
                            let c = (s + self.chunk).min(e);
                            // SAFETY: detached span, ours alone.
                            unsafe { self.run_chunk(s, c) };
                            s = c;
                        }
                        continue 'work;
                    }
                }
                break; // every range is empty
            }
            (popped, stolen)
        };
        match panic::catch_unwind(AssertUnwindSafe(body)) {
            Ok((popped, stolen)) => {
                self.stats
                    .chunks_popped
                    .fetch_add(popped, Ordering::Relaxed);
                self.stats.steals.fetch_add(stolen, Ordering::Relaxed);
            }
            Err(payload) => self.record_panic(payload),
        }
    }
}

// ---------------------------------------------------------------------------
// thread pool
// ---------------------------------------------------------------------------

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

fn worker_loop(shared: Arc<PoolShared>, participant: usize) {
    PARTICIPANT.set(participant);
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = shared.available.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        // Jobs are internally panic-safe; a stray unwind must not kill the
        // worker.
        let _ = panic::catch_unwind(AssertUnwindSafe(job));
    }
}

/// A fixed-size work-stealing thread pool.
///
/// A pool of `threads` participants spawns `threads - 1` OS workers — the
/// calling thread is always the first participant — so
/// `ThreadPool::new(1)` is a true zero-thread sequential executor.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    threads: usize,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    stats: Arc<PoolStats>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl ThreadPool {
    /// Creates a pool with `threads` participants (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|i| {
                let s = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("acm-exec-{i}"))
                    .spawn(move || worker_loop(s, i))
                    .expect("spawn acm-exec worker")
            })
            .collect();
        ThreadPool {
            shared,
            threads,
            workers: Mutex::new(workers),
            stats: PoolStats::new(threads),
        }
    }

    /// Number of participants (worker threads + the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Activity counters accumulated since the pool was created.
    pub fn stats(&self) -> PoolStatsSnapshot {
        let mut out = PoolStatsSnapshot::default();
        self.stats_into(&mut out);
        out
    }

    /// [`ThreadPool::stats`] into `out`, reusing its per-worker buffers.
    fn stats_into(&self, out: &mut PoolStatsSnapshot) {
        self.stats.snapshot_into(self.threads, out);
    }

    fn submit(&self, job: Job) {
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(job);
        let depth = q.len() as u64;
        drop(q);
        self.stats.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        self.stats
            .queue_depth_peak
            .fetch_max(depth, Ordering::Relaxed);
        self.shared.available.notify_one();
    }

    /// Applies `f` to every item and collects the results **in input
    /// order**, regardless of scheduling. With one participant this is
    /// exactly `items.into_iter().map(f).collect()`.
    ///
    /// Panics in `f` abort outstanding work and are re-raised here once
    /// every participant has stopped touching the shared state.
    pub fn map_collect<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        let parts = self.threads.min(n);
        if parts <= 1 {
            self.stats.seq_maps.fetch_add(1, Ordering::Relaxed);
            self.stats.items.fetch_add(n as u64, Ordering::Relaxed);
            return items.into_iter().map(f).collect();
        }
        self.stats.par_maps.fetch_add(1, Ordering::Relaxed);
        self.stats.items.fetch_add(n as u64, Ordering::Relaxed);
        assert!(
            n < u32::MAX as usize,
            "map_collect supports at most 2^32 - 1 items"
        );

        let mut items = ManuallyDrop::new(items);
        let items_ptr = items.as_mut_ptr();
        let items_cap = items.capacity();
        let mut results: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
        // SAFETY: `MaybeUninit` slots need no initialisation and are never
        // dropped by the Vec.
        unsafe { results.set_len(n) };

        let shared = MapShared {
            items: items_ptr,
            results: results.as_mut_ptr(),
            chunk: (n / (parts * 4)).max(1),
            f,
            ranges: (0..parts)
                .map(|w| AtomicU64::new(pack(n * w / parts, n * (w + 1) / parts)))
                .collect(),
            abort: AtomicBool::new(false),
            panic: Mutex::new(None),
            stats: Arc::clone(&self.stats),
        };

        let control = JobControl::new(parts - 1);
        {
            let shared_ref: &MapShared<T, R, F> = &shared;
            for w in 1..parts {
                let ctl = Arc::clone(&control);
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    // Dereference the caller's stack frame only after
                    // winning the claim: a win means the caller is still
                    // blocked on the latch below.
                    if ctl.try_claim(w - 1) {
                        shared_ref.participate(w);
                        ctl.latch.count_down();
                    }
                });
                // SAFETY: lifetime erasure. A queue entry that outlives
                // this frame necessarily loses its claim (the caller
                // claims every unstarted helper before returning) and
                // then touches only the Arc'd `JobControl`.
                let job: Job = unsafe { mem::transmute(job) };
                self.submit(job);
            }

            shared_ref.participate(0);
            for w in 1..parts {
                if control.try_claim(w - 1) {
                    self.stats.helpers_inlined.fetch_add(1, Ordering::Relaxed);
                    shared_ref.participate(w);
                    control.latch.count_down();
                }
            }
            control.latch.wait();
        }

        let panicked = shared
            .panic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        drop(shared); // drops `f` and the ranges; raw pointers stay valid
        if let Some(payload) = panicked {
            // Free the two backing allocations without dropping elements:
            // unread items and orphaned results leak rather than risking a
            // double drop.
            mem::forget(results);
            // SAFETY: reconstituting with len 0 frees the buffer only.
            unsafe { drop(Vec::from_raw_parts(items_ptr, 0, items_cap)) };
            panic::resume_unwind(payload);
        }

        // SAFETY: all participants finished without panicking, so every
        // item was consumed and every result slot initialised.
        unsafe {
            drop(Vec::from_raw_parts(items_ptr, 0, items_cap));
            let out_ptr = results.as_mut_ptr() as *mut R;
            let out_cap = results.capacity();
            mem::forget(results);
            Vec::from_raw_parts(out_ptr, n, out_cap)
        }
    }

    /// [`ThreadPool::map_collect`] with per-item panic isolation: an item
    /// whose closure panics yields `Err(panic message)` in its slot
    /// instead of poisoning the whole batch. Result order is still item
    /// order, so the output is as deterministic as `f` itself.
    ///
    /// Built for campaign-style sweeps (many independent runs where one
    /// crashing run is itself a *finding*, not a reason to lose the other
    /// N-1 results). The pool stays fully usable afterwards — the panic
    /// never reaches the abort path of the plain collect.
    pub fn try_map_collect<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<Result<R, String>>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.map_collect(items, move |item| {
            // AssertUnwindSafe: the closure's captures are only observed
            // again if the caller's `f` is itself panic-tolerant; the
            // per-item payload is moved in and dropped on unwind.
            match panic::catch_unwind(panic::AssertUnwindSafe(|| f(item))) {
                Ok(r) => Ok(r),
                Err(payload) => Err(panic_message(&*payload)),
            }
        })
    }

    /// Applies `f(i, &mut items[i])` to every slot, potentially in
    /// parallel, and returns once all slots are done. Each index is handed
    /// to exactly one participant, so the in-place mutation never aliases.
    /// With a single participant (or ≤ 1 items) the slots are visited
    /// strictly in index order — the exact sequential path, no threads, no
    /// atomics.
    ///
    /// This is the era-scoped shard driver: one long-lived shard per slot,
    /// advanced in place behind an era barrier. It is a
    /// [`map_collect`](ThreadPool::map_collect) over the slots' `&mut`
    /// borrows, so a slow slot's neighbours are stolen off its range and
    /// panics in `f` propagate the same way.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        if self.threads <= 1 || items.len() <= 1 {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        self.map_collect(items.iter_mut().enumerate().collect(), |(i, slot)| {
            f(i, slot)
        });
    }
}

/// Workers run only helpers of a map whose caller is blocked inside that
/// map, holding a handle to the pool; so the last handle is dropped by a
/// caller, with every worker idle, and the join below is prompt. (The
/// queue may still hold helpers their caller claimed back: popping one is
/// a no-op, and `worker_loop` checks the shutdown flag only with nothing
/// left to pop.)
impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Raise the flag under the queue lock: a worker holds that lock from
        // its shutdown check until it is parked on the condvar, so it either
        // sees the flag or is already waiting when the wake-up goes out.
        {
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        let me = thread::current().id();
        for h in self
            .workers
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            // Never join the current thread (EDEADLK): should a handle ever
            // be dropped on a worker, that worker is detached instead and
            // leaves its loop on the flag.
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// global pool + ACM_THREADS
// ---------------------------------------------------------------------------

/// Parallelism the machine offers (≥ 1).
pub fn available_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parses an `ACM_THREADS` value: positive integer = that many
/// participants; `0`, empty or malformed = all available cores.
fn parse_thread_env(value: Option<&str>) -> usize {
    match value.map(str::trim).and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => available_threads(),
    }
}

fn global_cell() -> &'static RwLock<Arc<ThreadPool>> {
    static GLOBAL: OnceLock<RwLock<Arc<ThreadPool>>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let threads = parse_thread_env(std::env::var("ACM_THREADS").ok().as_deref());
        RwLock::new(Arc::new(ThreadPool::new(threads)))
    })
}

/// The process-wide pool (sized by `ACM_THREADS` at first use).
pub fn global() -> Arc<ThreadPool> {
    global_cell()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Replaces the global pool with one of `threads` participants (clamped
/// to ≥ 1) and returns the effective count. Prefer this over mutating
/// `ACM_THREADS` in-process: the environment is read once, and
/// `std::env::set_var` is racy. A map in flight on the old pool finishes
/// there — its caller holds a handle — and the old pool's workers exit
/// when the last handle drops.
pub fn configure_threads(threads: usize) -> usize {
    let threads = threads.max(1);
    let mut guard = global_cell().write().unwrap_or_else(|e| e.into_inner());
    let old = if guard.threads() != threads {
        Some(mem::replace(
            &mut *guard,
            Arc::new(ThreadPool::new(threads)),
        ))
    } else {
        None
    };
    drop(guard);
    // Outside the write lock: dropping the last handle joins the old
    // pool's workers, which no `global()` caller should wait behind.
    drop(old);
    threads
}

/// Participant count of the current global pool.
pub fn current_threads() -> usize {
    global().threads()
}

/// [`ThreadPool::stats`] of the current global pool. Note that
/// [`configure_threads`] swaps the pool and therefore resets the
/// counters; [`PoolStatsSnapshot::delta_since`] saturates at zero, so a
/// baseline taken on the previous pool yields the new pool's absolute
/// counts rather than garbage.
pub fn global_stats() -> PoolStatsSnapshot {
    global().stats()
}

/// [`global_stats`] into `out`, reusing its per-worker buffers.
pub fn global_stats_into(out: &mut PoolStatsSnapshot) {
    global().stats_into(out);
}

/// [`ThreadPool::map_collect`] on the global pool.
pub fn map_collect<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    global().map_collect(items, f)
}

/// [`ThreadPool::try_map_collect`] on the global pool.
pub fn try_map_collect<T, R, F>(items: Vec<T>, f: F) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    global().try_map_collect(items, f)
}

/// Best-effort human-readable panic payload (the common `&str` and
/// `String` payloads verbatim, a placeholder otherwise).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`ThreadPool::for_each_mut`] on the global pool.
pub fn for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    global().for_each_mut(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Held by every test that resizes the global pool: tests run on
    /// parallel threads and would otherwise see each other's widths.
    static GLOBAL_POOL: Mutex<()> = Mutex::new(());

    #[test]
    fn map_collect_matches_sequential_across_shapes() {
        for threads in [1, 2, 3, 4, 8] {
            let pool = ThreadPool::new(threads);
            for n in [0usize, 1, 2, 7, 64, 1000] {
                let items: Vec<usize> = (0..n).collect();
                let expect: Vec<usize> = items.iter().map(|i| i * 31 + 7).collect();
                let got = pool.map_collect(items, |i| i * 31 + 7);
                assert_eq!(got, expect, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn map_collect_is_deterministic_and_order_stable() {
        let seq = ThreadPool::new(1).map_collect((0..500u64).collect(), |i| i.wrapping_mul(i));
        for _ in 0..10 {
            let par = ThreadPool::new(4).map_collect((0..500u64).collect(), |i| i.wrapping_mul(i));
            assert_eq!(par, seq);
        }
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let n = 300;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let pool = ThreadPool::new(6);
        let out = pool.map_collect((0..n).collect(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_collect_moves_owned_items_without_leaking_results() {
        // Heap-owning items and results: miri-free proxy for the unsafe
        // slot protocol (a double free or uninit read would crash or
        // corrupt the strings).
        let pool = ThreadPool::new(4);
        let items: Vec<String> = (0..200).map(|i| format!("item-{i}")).collect();
        let out = pool.map_collect(items, |s| s + "!");
        assert_eq!(out.len(), 200);
        assert_eq!(out[199], "item-199!");
    }

    #[test]
    fn panic_in_map_propagates_with_payload() {
        let pool = ThreadPool::new(4);
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_collect((0..100usize).collect(), |i| {
                if i == 37 {
                    panic!("boom at {i}");
                }
                i
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("boom at 37"), "{msg}");
        // The pool survives a panicked job.
        let ok = pool.map_collect(vec![1, 2, 3], |i| i * 2);
        assert_eq!(ok, vec![2, 4, 6]);
    }

    #[test]
    fn for_each_mut_matches_sequential_across_widths() {
        let expect: Vec<u64> = (0..97u64).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let mut items: Vec<u64> = (0..97u64).collect();
            pool.for_each_mut(&mut items, |i, v| {
                assert_eq!(*v, i as u64);
                *v = *v * 3 + 1;
            });
            assert_eq!(items, expect, "threads={threads}");
        }
    }

    #[test]
    fn for_each_mut_visits_each_slot_exactly_once() {
        let pool = ThreadPool::new(6);
        let mut hits = vec![0usize; 200];
        pool.for_each_mut(&mut hits, |i, h| {
            *h += i + 1;
        });
        assert!(hits.iter().enumerate().all(|(i, h)| *h == i + 1));
    }

    #[test]
    fn for_each_mut_propagates_panics() {
        let pool = ThreadPool::new(4);
        let mut items = vec![0u32; 50];
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_mut(&mut items, |i, _| {
                if i == 17 {
                    panic!("slot 17");
                }
            })
        }))
        .unwrap_err();
        assert_eq!(*err.downcast_ref::<&str>().unwrap(), "slot 17");
        // The pool survives.
        pool.for_each_mut(&mut items, |_, v| *v += 1);
        assert!(items.iter().all(|v| *v == 1));
    }

    #[test]
    fn for_each_mut_rebalances_a_skewed_slot() {
        // Slot 0 cannot finish until every other slot has: whichever
        // participant holds it is stuck, so the rest of its range — down
        // to the last element — has to be stolen off it.
        let pool = ThreadPool::new(2);
        let mut slots = vec![0u32; 8];
        let others_done = AtomicUsize::new(0);
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        pool.for_each_mut(&mut slots, |i, v| {
            if i == 0 {
                while others_done.load(Ordering::Acquire) < 7 {
                    assert!(Instant::now() < deadline, "slots behind slot 0 never ran");
                    thread::yield_now();
                }
            } else {
                others_done.fetch_add(1, Ordering::Release);
            }
            *v = i as u32 + 1;
        });
        assert_eq!(slots, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(pool.stats().steals >= 1);
    }

    #[test]
    fn for_each_mut_inside_map_collect_does_not_deadlock() {
        // The chaos-campaign shape: a panic-isolating batch whose every
        // item drives an era barrier over its own shards, on a pool too
        // narrow to give either level a free worker.
        let pool = ThreadPool::new(2);
        let out = pool.try_map_collect((0..8u64).collect(), |i| {
            let mut shards = vec![0u64; 5];
            for _era in 0..20 {
                pool.for_each_mut(&mut shards, |s, v| *v += i * 10 + s as u64);
            }
            shards.iter().sum::<u64>()
        });
        let expect: Vec<Result<u64, String>> = (0..8u64).map(|i| Ok(20 * (i * 50 + 10))).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn nested_map_collect_does_not_deadlock() {
        let pool = ThreadPool::new(2);
        let out = pool.map_collect((0..8u64).collect(), |i| {
            // Nested parallelism from inside a participant.
            global()
                .map_collect((0..50u64).collect(), move |j| i * 100 + j)
                .iter()
                .sum::<u64>()
        });
        let expect: Vec<u64> = (0..8u64)
            .map(|i| (0..50u64).map(|j| i * 100 + j).sum())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn stats_count_parallel_maps_and_busy_time() {
        let pool = ThreadPool::new(4);
        let before = pool.stats();
        assert_eq!(before.threads, 4);
        let out = pool.map_collect((0..1000usize).collect(), |i| i * 2);
        assert_eq!(out.len(), 1000);
        let d = pool.stats().delta_since(&before);
        assert_eq!(d.par_maps, 1);
        assert_eq!(d.seq_maps, 0);
        assert_eq!(d.items, 1000);
        assert_eq!(d.jobs_submitted, 3, "one helper job per non-caller part");
        assert!(d.chunks_popped > 0, "owners must pop chunks");
        assert!(d.queue_depth_peak >= 1, "submits must register queue depth");
        assert_eq!(d.worker_busy_ns.len(), 4);
        assert!(
            d.worker_busy_ns[0] > 0 && d.worker_spans[0] >= 1,
            "the caller always participates"
        );
        assert!(d.total_busy_ns() >= d.worker_busy_ns[0]);

        // `for_each_mut` is a map over the slots: one fan-out, one span
        // per range, whichever thread worked it.
        let before = pool.stats();
        let started = Instant::now();
        let mut slots = vec![0u64; 64];
        pool.for_each_mut(&mut slots, |i, v| *v = (0..=i as u64).sum());
        let wall_ns = started.elapsed().as_nanos() as u64;
        let d = pool.stats().delta_since(&before);
        assert_eq!((d.par_maps, d.seq_maps, d.items), (1, 0, 64));
        assert!(d.worker_busy_ns[0] > 0 && d.worker_spans[0] >= 1);
        assert_eq!(d.worker_spans.iter().sum::<u64>(), 4);
        for (w, busy) in d.worker_busy_ns.iter().enumerate() {
            assert!(
                *busy <= wall_ns,
                "participant {w}: busy {busy} ns of {wall_ns} ns"
            );
        }
    }

    #[test]
    fn nested_pool_work_is_counted_once_per_thread() {
        // Slots that do nothing but run a nested map: were both the outer
        // participation and the map participation inside it counted, a
        // thread's busy time would come to about twice the wall time.
        let pool = ThreadPool::new(2);
        let before = pool.stats();
        let started = Instant::now();
        let mut sums = vec![0u64; 4];
        pool.for_each_mut(&mut sums, |_, v| {
            *v = pool
                .map_collect((0..64u64).collect(), |i| {
                    (0..20_000u64)
                        .map(|j| std::hint::black_box(i ^ j))
                        .sum::<u64>()
                })
                .iter()
                .sum();
        });
        let wall_ns = started.elapsed().as_nanos() as u64;
        let d = pool.stats().delta_since(&before);
        assert!(sums.iter().all(|s| *s == sums[0]));
        assert!(d.total_busy_ns() > 0);
        for (w, busy) in d.worker_busy_ns.iter().enumerate() {
            assert!(
                *busy <= wall_ns,
                "participant {w}: busy {busy} ns of {wall_ns} ns"
            );
        }
    }

    #[test]
    fn stats_sequential_path_counts_maps_without_jobs() {
        let pool = ThreadPool::new(1);
        let before = pool.stats();
        let _ = pool.map_collect((0..10usize).collect(), |i| i);
        let _ = pool.map_collect(Vec::<usize>::new(), |i| i);
        let d = pool.stats().delta_since(&before);
        assert_eq!((d.seq_maps, d.par_maps, d.items), (2, 0, 10));
        assert_eq!(d.jobs_submitted, 0);
        assert_eq!(d.steals, 0);
    }

    #[test]
    fn stats_delta_saturates_against_newer_baseline() {
        let pool = ThreadPool::new(2);
        let _ = pool.map_collect((0..100usize).collect(), |i| i);
        let late = pool.stats();
        let fresh = ThreadPool::new(2).stats();
        let d = fresh.delta_since(&late);
        assert_eq!(d.par_maps, 0, "saturating_sub must clamp at zero");
        assert_eq!(d.items, 0);
    }

    #[test]
    fn thread_env_parsing() {
        let cores = available_threads();
        assert_eq!(parse_thread_env(None), cores);
        assert_eq!(parse_thread_env(Some("")), cores);
        assert_eq!(parse_thread_env(Some("0")), cores);
        assert_eq!(parse_thread_env(Some("junk")), cores);
        assert_eq!(parse_thread_env(Some("3")), 3);
        assert_eq!(parse_thread_env(Some(" 8 ")), 8);
    }

    #[test]
    fn configure_threads_does_not_deadlock_against_inflight_jobs() {
        // What can be in flight across a swap is a map: its caller holds a
        // handle to the old pool, its helpers run on the old pool's workers
        // and re-enter the global cell (as every nested map through the
        // free functions does) while the swap holds the write lock. The
        // map must finish on the pool it started on, and whoever drops
        // that pool's last handle must get its workers to exit.
        let _resizing = GLOBAL_POOL.lock().unwrap_or_else(|e| e.into_inner());
        configure_threads(2);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let looping = thread::spawn(move || {
            let mut rounds = 0u64;
            while !stopped.load(Ordering::Acquire) {
                let out = global().map_collect((0..4u64).collect(), |i| {
                    thread::yield_now();
                    global()
                        .map_collect(vec![i, rounds], |v| v * 2)
                        .iter()
                        .sum::<u64>()
                });
                let expect: Vec<u64> = (0..4u64).map(|i| 2 * (i + rounds)).collect();
                assert_eq!(out, expect, "round {rounds}");
                rounds += 1;
                if rounds == 1 {
                    started_tx.send(()).unwrap();
                }
            }
            rounds
        });
        started_rx.recv().unwrap();
        for _ in 0..8 {
            configure_threads(1);
            configure_threads(2);
        }
        configure_threads(available_threads());
        stop.store(true, Ordering::Release);
        assert!(looping.join().unwrap() >= 1);
    }

    #[test]
    fn configure_threads_swaps_the_global_pool() {
        let _resizing = GLOBAL_POOL.lock().unwrap_or_else(|e| e.into_inner());
        let n = configure_threads(3);
        assert_eq!(n, 3);
        assert_eq!(current_threads(), 3);
        assert_eq!(configure_threads(0), 1);
        assert_eq!(current_threads(), 1);
        configure_threads(available_threads());
    }

    #[test]
    fn try_map_collect_isolates_panicking_items() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let out = pool.try_map_collect((0..64u64).collect(), |i| {
                if i % 13 == 5 {
                    panic!("item {i} exploded");
                }
                i * 3
            });
            assert_eq!(out.len(), 64);
            for (i, r) in out.iter().enumerate() {
                if i % 13 == 5 {
                    assert_eq!(r.as_ref().unwrap_err(), &format!("item {i} exploded"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u64 * 3);
                }
            }
            // The pool survives: a follow-up plain collect works.
            let again = pool.map_collect(vec![1u64, 2, 3], |v| v + 1);
            assert_eq!(again, vec![2, 3, 4]);
        }
    }
}
