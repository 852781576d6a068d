//! Deterministic causal spans.
//!
//! A *span* marks one triggering observation or decision in the control
//! plane — a chaos fault firing, a heartbeat timeout, an era's monitor
//! report, a drift signal — and its `parent` link records what caused it.
//! Walking the links from a decision event back to a parentless span
//! reconstructs the "why-chain" of that decision (fault → suspicion →
//! quarantine → re-plan → readmit); `tests/tracing.rs` pins these chains.
//!
//! ## Identity without wall clock or randomness
//!
//! Span IDs must be byte-identical across runs and `ACM_THREADS` widths,
//! so they are derived purely from the configured trace seed and a
//! monotonic allocation counter: `id = splitmix64(seed ^ (n+1)·φ64)`
//! (forced non-zero; 0 is the reserved "no parent" sentinel). The control
//! loop allocates spans only on the leader path in era order, so the
//! counter — and with it every ID, parent link and record position — is a
//! pure function of the seed and the configuration. MONITOR's shards
//! stage their regions' decision events and the leader emits them at the
//! barrier, under the era's ambient context, so no ID is ever minted and
//! no event annotated on a pool thread.
//!
//! A root span's `trace` ID equals its own span ID and its parent is 0;
//! children inherit the trace ID, which groups a whole causal chain under
//! the observation that opened it. [`TraceContext`] is the two-word
//! `(trace, span)` pair that annotates emitted events and links a
//! decision to its cause.

use crate::json::{push_escaped, push_key, push_u64};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Weyl constant (2⁶⁴/φ), the splitmix64 increment.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Default retained-span capacity of a [`Tracer`].
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// The splitmix64 finalizer: a cheap, high-quality 64-bit mix.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mixes two words into a derived seed (distinct — but deterministic —
/// seeds for child runs, e.g. the chaos campaign's cases).
pub fn mix(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ salt.wrapping_mul(GOLDEN))
}

/// Derives the `n`-th span ID from the trace seed. Never returns 0 (the
/// "no parent" sentinel).
fn derive_id(seed: u64, n: u64) -> u64 {
    let id = splitmix64(seed ^ n.wrapping_add(1).wrapping_mul(GOLDEN));
    if id == 0 {
        GOLDEN
    } else {
        id
    }
}

/// The propagated causal identity: which trace an event belongs to, and
/// which span directly caused it. Two words, cheap to copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The root span's ID, shared by every span of the causal chain.
    pub trace: u64,
    /// The immediate cause (a span ID).
    pub span: u64,
}

/// One recorded span: identity, causal links, simulated time and a
/// static name (conventionally the event kind that opened it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's ID (non-zero).
    pub id: u64,
    /// The owning trace (= the root ancestor's span ID).
    pub trace: u64,
    /// Parent span ID; 0 for roots.
    pub parent: u64,
    /// Simulated time the span opened, in microseconds.
    pub t_us: u64,
    /// Static name, dot-namespaced like event kinds.
    pub name: &'static str,
}

impl SpanRecord {
    /// The record as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends [`SpanRecord::to_json`]'s text to `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        push_key(out, '{', "id");
        push_u64(out, self.id);
        push_key(out, ',', "trace");
        push_u64(out, self.trace);
        push_key(out, ',', "parent");
        push_u64(out, self.parent);
        push_key(out, ',', "t_us");
        push_u64(out, self.t_us);
        push_key(out, ',', "name");
        push_escaped(out, self.name);
        out.push('}');
    }
}

#[derive(Debug, Default)]
struct TracerInner {
    spans: Vec<SpanRecord>,
    dropped: u64,
}

/// Allocates and retains spans for one run. IDs come off `seed` plus a
/// monotonic counter (see the module docs); the record store is bounded
/// by `capacity` — allocation keeps counting past the cap (so later IDs
/// stay deterministic) but overflow records are dropped and counted.
#[derive(Debug)]
pub struct Tracer {
    seed: u64,
    capacity: usize,
    next: AtomicU64,
    inner: Mutex<TracerInner>,
    ambient: Mutex<Option<TraceContext>>,
}

impl Tracer {
    /// A tracer deriving IDs from `seed`, retaining up to
    /// [`DEFAULT_SPAN_CAPACITY`] span records.
    pub fn new(seed: u64) -> Self {
        Tracer::with_capacity(seed, DEFAULT_SPAN_CAPACITY)
    }

    /// A tracer with an explicit retained-record bound.
    pub fn with_capacity(seed: u64, capacity: usize) -> Self {
        Tracer {
            seed,
            capacity,
            next: AtomicU64::new(0),
            inner: Mutex::new(TracerInner::default()),
            ambient: Mutex::new(None),
        }
    }

    /// The ID-derivation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Opens a span at simulated time `t_us`. With `parent: None` the
    /// span is a root (its trace ID is its own ID); otherwise it joins
    /// the parent's trace. Returns the context identifying the new span.
    pub fn span(
        &self,
        t_us: u64,
        name: &'static str,
        parent: Option<TraceContext>,
    ) -> TraceContext {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let id = derive_id(self.seed, n);
        let (trace, parent_id) = match parent {
            Some(p) => (p.trace, p.span),
            None => (id, 0),
        };
        let rec = SpanRecord {
            id,
            trace,
            parent: parent_id,
            t_us,
            name,
        };
        let mut inner = self.inner.lock().unwrap();
        if inner.spans.len() < self.capacity {
            inner.spans.push(rec);
        } else {
            inner.dropped += 1;
        }
        TraceContext { trace, span: id }
    }

    /// The ambient context: the chain in effect for events emitted
    /// without an explicit cause (the control loop sets it to the era's
    /// root span; MONITOR's staged region events are emitted under it).
    pub fn ambient(&self) -> Option<TraceContext> {
        *self.ambient.lock().unwrap()
    }

    /// Replaces the ambient context.
    pub fn set_ambient(&self, ctx: Option<TraceContext>) {
        *self.ambient.lock().unwrap() = ctx;
    }

    /// Every retained span, in allocation order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.inner.lock().unwrap().spans.clone()
    }

    /// Spans allocated past the retention cap.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Retained spans as JSON Lines, in allocation order, written by
    /// reference into one pre-sized buffer.
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock().unwrap();
        // Four ids of up to 20 digits, a name, the keys: ~130 bytes.
        let mut out = String::with_capacity(128 * inner.spans.len());
        for rec in &inner.spans {
            rec.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Appends a child tracer's retained spans (input-order rollups of
    /// independent runs). The ambient context is local state and is not
    /// merged.
    pub fn merge_from(&self, child: &Tracer) {
        let child_inner = child.inner.lock().unwrap();
        let mut inner = self.inner.lock().unwrap();
        for rec in &child_inner.spans {
            if inner.spans.len() < self.capacity {
                inner.spans.push(*rec);
            } else {
                inner.dropped += 1;
            }
        }
        inner.dropped += child_inner.dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_deterministic_nonzero_and_distinct() {
        let a = Tracer::new(42);
        let b = Tracer::new(42);
        let ids_a: Vec<u64> = (0..100).map(|i| a.span(i, "t", None).span).collect();
        let ids_b: Vec<u64> = (0..100).map(|i| b.span(i, "t", None).span).collect();
        assert_eq!(ids_a, ids_b, "same seed, same IDs");
        assert!(ids_a.iter().all(|&id| id != 0));
        let mut uniq = ids_a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), ids_a.len(), "IDs collide");
        let other = Tracer::new(43).span(0, "t", None).span;
        assert_ne!(other, ids_a[0], "different seeds diverge");
    }

    #[test]
    fn roots_and_children_link_correctly() {
        let tr = Tracer::new(7);
        let root = tr.span(10, "chaos.partition", None);
        assert_eq!(root.trace, root.span, "root trace is its own ID");
        let child = tr.span(20, "heartbeat.timeout", Some(root));
        assert_eq!(child.trace, root.trace);
        assert_ne!(child.span, root.span);
        let grand = tr.span(30, "region.quarantine", Some(child));
        assert_eq!(grand.trace, root.trace);
        let recs = tr.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].parent, 0);
        assert_eq!(recs[1].parent, root.span);
        assert_eq!(recs[2].parent, child.span);
        assert_eq!(recs[1].name, "heartbeat.timeout");
    }

    #[test]
    fn ambient_round_trips() {
        let tr = Tracer::new(1);
        assert_eq!(tr.ambient(), None);
        let ctx = tr.span(0, "era", None);
        tr.set_ambient(Some(ctx));
        assert_eq!(tr.ambient(), Some(ctx));
        tr.set_ambient(None);
        assert_eq!(tr.ambient(), None);
    }

    #[test]
    fn capacity_bounds_records_but_not_ids() {
        let tr = Tracer::with_capacity(5, 2);
        let ids: Vec<u64> = (0..4).map(|i| tr.span(i, "t", None).span).collect();
        assert_eq!(tr.records().len(), 2);
        assert_eq!(tr.dropped(), 2);
        // IDs past the cap still follow the counter sequence.
        let fresh = Tracer::new(5);
        let fresh_ids: Vec<u64> = (0..4).map(|i| fresh.span(i, "t", None).span).collect();
        assert_eq!(ids, fresh_ids);
    }

    #[test]
    fn jsonl_is_one_object_per_span() {
        let tr = Tracer::new(9);
        let root = tr.span(100, "era", None);
        tr.span(200, "plan.install", Some(root));
        let jsonl = tr.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"name\":\"era\""));
        assert!(jsonl.contains("\"parent\":0"));
        assert!(jsonl.contains(&format!("\"parent\":{}", root.span)));
    }

    #[test]
    fn merge_appends_child_spans() {
        let parent = Tracer::new(3);
        parent.span(0, "era", None);
        let child = Tracer::new(mix(3, 1));
        child.span(5, "rejuvenation.proactive", None);
        parent.merge_from(&child);
        let recs = parent.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].name, "rejuvenation.proactive");
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }
}
