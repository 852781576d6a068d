//! Structured, seed-deterministic decision log.
//!
//! Every consequential control decision (rejuvenation triggered, STANDBY
//! activation, leader change, plan install, EWMA update, …) is recorded
//! as an [`EventRecord`]: a monotonically increasing sequence number, the
//! *simulated* timestamp in microseconds, a static `kind` tag, and typed
//! key/value fields. Records carry no wall-clock readings, so for a given
//! seed the log is byte-identical across runs and machines — which is
//! what makes it usable as a regression artifact.
//!
//! ## Retention policy
//!
//! Storage is **per event kind**: each kind gets its own bounded store of
//! `capacity` records, split into a pinned *head* (the first `capacity/4`
//! records of that kind, kept forever) and a *tail* ring (the most recent
//! `capacity - capacity/4`, overwriting oldest). A long run can therefore
//! never let a chatty kind (e.g. `ewma.update`) evict another kind's
//! history, and even within one kind the earliest decisions — era-0
//! rejuvenations, the first plan install — survive arbitrarily long
//! floods. Overwritten records are counted in [`EventLog::dropped`].
//! Memory stays bounded because the set of kinds is small and closed
//! (each emitter uses a `&'static str` tag).
//!
//! Readers ([`EventLog::tail`], [`EventLog::to_jsonl`]) merge all kinds
//! back into one stream ordered by global sequence number. Capacity 0
//! makes the log inert (used by the no-op hub).
//!
//! ## Export
//!
//! [`EventLog::to_jsonl`] merges the kinds by reference — each kind's
//! head and tail are already in sequence order — and writes every record
//! with `EventRecord::write_json` into one pre-sized buffer, under the
//! lock: nothing is cloned, and no field gets a `String` of its own. A
//! float vector that several records share (an install's `old` is the
//! previous install's `new`) is rendered once per export and copied after.
//! Only [`EventLog::tail`], which hands records out, clones them (the last
//! `n`).

use crate::json::{push_escaped, push_f64, push_i64, push_key, push_u64};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// A typed event-field value.
#[derive(Debug, Clone)]
pub enum Value {
    /// Unsigned integer (ids, counts, thresholds in integral units).
    U64(u64),
    /// Signed integer (deltas).
    I64(i64),
    /// Float (fractions, seconds, EWMA estimates).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short label (policy/strategy names).
    Str(String),
    /// A label compiled into the program (a reason tag, an SLO name). It,
    /// and [`Value::Shared`], are written exactly like [`Value::Str`] and
    /// equal the `Str` of the same text; neither allocates, and neither is
    /// wider than `Str`, so a retained field costs what it did.
    Static(&'static str),
    /// A label the emitter holds behind an `Arc` (a region's name, kept
    /// once by its controller), shared rather than copied.
    Shared(Arc<str>),
    /// Float vector (a plan's fractions). Kept as numbers while retained;
    /// exported as the JSON *string* of the array text — `"[0.5,0.5]"`,
    /// elements formatted like [`Value::F64`] — which is the form such
    /// fields had on the wire when emitters pre-rendered them. Shared, not
    /// owned: an emitter that already holds the vector behind an `Arc` (the
    /// leader's plan, which is one event's `new` and the next one's `old`)
    /// retains one allocation however many records name it.
    F64s(Arc<[f64]>),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<&Arc<str>> for Value {
    fn from(v: &Arc<str>) -> Self {
        Value::Shared(v.clone())
    }
}

impl From<&[f64]> for Value {
    fn from(v: &[f64]) -> Self {
        Value::F64s(v.into())
    }
}

impl From<Arc<[f64]>> for Value {
    fn from(v: Arc<[f64]>) -> Self {
        Value::F64s(v)
    }
}

impl Value {
    /// The text of a [`Value::Str`], [`Value::Static`] or
    /// [`Value::Shared`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Static(s) => Some(s),
            Value::Shared(s) => Some(s),
            _ => None,
        }
    }

    fn push_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => push_u64(out, *v),
            Value::I64(v) => push_i64(out, *v),
            Value::F64(v) => push_f64(out, *v),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(v) => push_escaped(out, v),
            Value::Static(v) => push_escaped(out, v),
            Value::Shared(v) => push_escaped(out, v),
            Value::F64s(vs) => push_f64s(out, vs),
        }
    }
}

/// Values compare as they export: text equals text whichever variant
/// holds it.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::U64(a), Value::U64(b)) => a == b,
            (Value::I64(a), Value::I64(b)) => a == b,
            (Value::F64(a), Value::F64(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::F64s(a), Value::F64s(b)) => a == b,
            _ => matches!((self.as_str(), other.as_str()), (Some(a), Some(b)) if a == b),
        }
    }
}

/// A float vector as the JSON string of its array text. Digits, signs,
/// `.`, `,`, brackets and `null`: nothing to escape.
fn push_f64s(out: &mut String, vs: &[f64]) {
    out.push_str("\"[");
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, *v);
    }
    out.push_str("]\"");
}

/// Every float vector one export has written, each rendered once: records
/// that share a vector (one `Arc`) copy its text instead of formatting
/// the floats again.
#[derive(Default)]
struct RenderedVectors {
    text: String,
    /// A vector's data pointer → its text in `text`. Every vector named
    /// here is alive (retained by a record) for the whole export, so no
    /// address is reused under it.
    spans: HashMap<*const f64, Range<usize>>,
}

impl RenderedVectors {
    fn push(&mut self, out: &mut String, vs: &Arc<[f64]>) {
        let text = &mut self.text;
        let span = self.spans.entry(Arc::as_ptr(vs).cast()).or_insert_with(|| {
            let start = text.len();
            push_f64s(text, vs);
            start..text.len()
        });
        out.push_str(&self.text[span.clone()]);
    }
}

/// The value of `key` among an event's payload fields.
pub(crate) fn field<'a>(fields: &'a [(&'static str, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// One recorded decision.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Monotonic sequence number (0-based, counts *all* events pushed,
    /// including ones since overwritten).
    pub seq: u64,
    /// Simulated time of the decision, in microseconds.
    pub t_us: u64,
    /// Static event tag, dot-namespaced (e.g. `rejuvenation.proactive`).
    pub kind: &'static str,
    /// Typed payload fields, in emission order.
    pub fields: Vec<(&'static str, Value)>,
}

impl EventRecord {
    /// The value of payload field `key`, if the record carries one.
    pub fn field(&self, key: &str) -> Option<&Value> {
        field(&self.fields, key)
    }

    /// The record as one JSON object (`{"seq":…,"t_us":…,"kind":…,…fields}`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, &mut RenderedVectors::default());
        out
    }

    /// Appends [`EventRecord::to_json`]'s text to `out`, its float
    /// vectors through the export's `vectors`.
    fn write_json(&self, out: &mut String, vectors: &mut RenderedVectors) {
        push_key(out, '{', "seq");
        push_u64(out, self.seq);
        push_key(out, ',', "t_us");
        push_u64(out, self.t_us);
        push_key(out, ',', "kind");
        push_escaped(out, self.kind);
        for (k, v) in &self.fields {
            push_key(out, ',', k);
            match v {
                Value::F64s(vs) => vectors.push(out, vs),
                v => v.push_json(out),
            }
        }
        out.push('}');
    }
}

/// One kind's bounded store: a pinned head (first records of the kind,
/// never evicted) plus a tail ring over the most recent ones.
#[derive(Debug, Default)]
struct KindStore {
    head: Vec<EventRecord>,
    tail: VecDeque<EventRecord>,
    dropped: u64,
}

#[derive(Debug, Default)]
struct Stores {
    /// One store per kind, in first-push order. The set of kinds is small
    /// and closed, so a scan beats a map probe on every push.
    kinds: Vec<(&'static str, KindStore)>,
    seq: u64,
}

impl Stores {
    /// `kind`'s store, made on its first push. Emitters pass the same
    /// `&'static str` every time, so the pointer scan nearly always
    /// answers; the by-value scan covers a tag whose text is
    /// duplicated at another address.
    fn store(&mut self, kind: &'static str) -> &mut KindStore {
        let found = self
            .kinds
            .iter()
            .position(|(k, _)| std::ptr::eq(*k, kind))
            .or_else(|| self.kinds.iter().position(|(k, _)| *k == kind));
        let i = found.unwrap_or_else(|| {
            self.kinds.push((kind, KindStore::default()));
            self.kinds.len() - 1
        });
        &mut self.kinds[i].1
    }

    /// Every kind's store.
    fn stores(&self) -> impl Iterator<Item = &KindStore> {
        self.kinds.iter().map(|(_, s)| s)
    }
}

/// Bounded, per-kind retention store of [`EventRecord`]s (see the module
/// docs for the head/tail policy).
#[derive(Debug)]
pub struct EventLog {
    head_cap: usize,
    tail_cap: usize,
    stores: Mutex<Stores>,
}

impl EventLog {
    /// A log retaining up to `capacity` records **per event kind** — the
    /// first `capacity/4` pinned, the rest a most-recent ring (0 = record
    /// nothing).
    pub fn new(capacity: usize) -> Self {
        let head_cap = capacity / 4;
        EventLog {
            head_cap,
            tail_cap: capacity - head_cap,
            stores: Mutex::new(Stores::default()),
        }
    }

    /// Appends one record; once its kind's store is full the oldest
    /// *unpinned* record of that kind is evicted.
    pub fn push(&self, t_us: u64, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        if self.head_cap + self.tail_cap == 0 {
            return;
        }
        let mut stores = self.stores.lock().expect("event log poisoned");
        let seq = stores.seq;
        stores.seq += 1;
        let rec = EventRecord {
            seq,
            t_us,
            kind,
            fields,
        };
        let store = stores.store(kind);
        if store.head.len() < self.head_cap {
            store.head.push(rec);
        } else {
            if store.tail.len() == self.tail_cap {
                store.tail.pop_front();
                store.dropped += 1;
            }
            store.tail.push_back(rec);
        }
    }

    /// All retained records across kinds, by reference, ordered by
    /// sequence number. Each kind's head + tail is one ascending run, so
    /// the stable sort only merges those runs.
    fn ordered(stores: &Stores) -> Vec<&EventRecord> {
        let mut out: Vec<&EventRecord> = stores
            .stores()
            .flat_map(|s| s.head.iter().chain(&s.tail))
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// The most recent `n` retained records (by sequence number across
    /// all kinds), oldest first.
    pub fn tail(&self, n: usize) -> Vec<EventRecord> {
        let stores = self.stores.lock().unwrap();
        let all = Self::ordered(&stores);
        let skip = all.len().saturating_sub(n);
        all[skip..].iter().map(|&r| r.clone()).collect()
    }

    /// Records currently retained (all kinds).
    pub fn len(&self) -> usize {
        let stores = self.stores.lock().unwrap();
        stores.stores().map(|s| s.head.len() + s.tail.len()).sum()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted after a kind's store filled (all kinds).
    pub fn dropped(&self) -> u64 {
        let stores = self.stores.lock().unwrap();
        stores.stores().map(|s| s.dropped).sum()
    }

    /// Per-kind retention pressure: `(kind, retained, dropped)` rows in
    /// kind order. Shows which kinds are flooding their ring — and which
    /// history is silently thinning — without dumping the log.
    pub fn kind_stats(&self) -> Vec<(&'static str, usize, u64)> {
        let stores = self.stores.lock().unwrap();
        let mut rows: Vec<_> = stores
            .kinds
            .iter()
            .map(|(kind, s)| (*kind, s.head.len() + s.tail.len(), s.dropped))
            .collect();
        rows.sort_unstable_by_key(|r| r.0);
        rows
    }

    /// All retained records as JSON Lines, ordered by sequence number
    /// (empty string when nothing is retained).
    pub fn to_jsonl(&self) -> String {
        let stores = self.stores.lock().unwrap();
        let records = Self::ordered(&stores);
        // ~66 bytes of seq / t_us / kind, ~32 per field: one reservation
        // covers a typical log.
        let hint = records.iter().map(|r| 64 + 32 * r.fields.len()).sum();
        let mut out = String::with_capacity(hint);
        let mut vectors = RenderedVectors::default();
        for rec in records {
            rec.write_json(&mut out, &mut vectors);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_sequence_numbers() {
        let log = EventLog::new(8);
        log.push(10, "a", vec![("x", Value::from(1u64))]);
        log.push(20, "b", vec![("y", Value::from(2.5))]);
        let all = log.tail(10);
        assert_eq!(all.len(), 2);
        assert_eq!((all[0].seq, all[0].t_us, all[0].kind), (0, 10, "a"));
        assert_eq!((all[1].seq, all[1].t_us, all[1].kind), (1, 20, "b"));
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_dropped() {
        let log = EventLog::new(3);
        for i in 0..5u64 {
            log.push(i * 100, "tick", vec![("i", Value::from(i))]);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let tail = log.tail(3);
        assert_eq!(tail[0].seq, 2, "oldest retained is the 3rd pushed");
        assert_eq!(tail[2].seq, 4);
        // tail(n) with n < len returns the most recent n, oldest first.
        let last_two = log.tail(2);
        assert_eq!(last_two.len(), 2);
        assert_eq!(last_two[0].seq, 3);
        assert_eq!(last_two[1].seq, 4);
    }

    #[test]
    fn chatty_kind_cannot_evict_another_kinds_history() {
        // Capacity 8 per kind: head 2 pinned + tail ring 6.
        let log = EventLog::new(8);
        log.push(
            0,
            "rejuvenation.proactive",
            vec![("era", Value::from(0u64))],
        );
        for i in 0..100u64 {
            log.push(10 + i, "ewma.update", vec![("i", Value::from(i))]);
        }
        let all = log.tail(usize::MAX);
        // The lone rejuvenation record survives a 100-event flood of
        // another kind (the old single-ring design evicted it).
        assert!(
            all.iter()
                .any(|r| r.kind == "rejuvenation.proactive" && r.seq == 0),
            "era-0 decision must survive the flood"
        );
        // Within the chatty kind: first 2 pinned + most recent 6.
        let ewma: Vec<u64> = all
            .iter()
            .filter(|r| r.kind == "ewma.update")
            .map(|r| r.seq)
            .collect();
        assert_eq!(ewma, vec![1, 2, 95, 96, 97, 98, 99, 100]);
        assert_eq!(log.len(), 9);
        assert_eq!(log.dropped(), 92);
        // Retention pressure is visible per kind, in kind order.
        assert_eq!(
            log.kind_stats(),
            vec![("ewma.update", 8, 92), ("rejuvenation.proactive", 1, 0)]
        );
    }

    #[test]
    fn merged_views_are_ordered_by_sequence_across_kinds() {
        let log = EventLog::new(8);
        for i in 0..6u64 {
            let kind = if i % 2 == 0 { "a" } else { "b" };
            log.push(i, kind, vec![]);
        }
        let seqs: Vec<u64> = log.tail(usize::MAX).iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
        let jsonl = log.to_jsonl();
        let first_lines: Vec<&str> = jsonl.lines().take(2).collect();
        assert!(first_lines[0].starts_with("{\"seq\":0,"));
        assert!(first_lines[1].starts_with("{\"seq\":1,"));
        // tail(n) still means "most recent n" in the merged order.
        let last = log.tail(2);
        assert_eq!((last[0].seq, last[1].seq), (4, 5));
    }

    #[test]
    fn zero_capacity_is_inert() {
        let log = EventLog::new(0);
        log.push(1, "ignored", vec![]);
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.to_jsonl(), "");
    }

    #[test]
    fn jsonl_serialization_covers_all_value_types() {
        let log = EventLog::new(4);
        log.push(
            1_500_000,
            "plan.install",
            vec![
                ("era", Value::from(12u64)),
                ("delta", Value::I64(-3)),
                ("frac", Value::from(0.6)),
                ("changed", Value::from(true)),
                ("policy", Value::from("oracle \"exact\"")),
            ],
        );
        let line = log.to_jsonl();
        assert_eq!(
            line,
            "{\"seq\":0,\"t_us\":1500000,\"kind\":\"plan.install\",\"era\":12,\
             \"delta\":-3,\"frac\":0.6,\"changed\":true,\
             \"policy\":\"oracle \\\"exact\\\"\"}\n"
        );
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let log = EventLog::new(2);
        log.push(0, "e", vec![("v", Value::F64(f64::NAN))]);
        assert!(log.to_jsonl().contains("\"v\":null"));
    }

    #[test]
    fn float_vectors_export_as_the_prerendered_string() {
        use crate::json::{array, fmt_f64};
        let cases: [&[f64]; 4] = [
            &[],
            &[0.5],
            &[0.8432770665583008, 0.15672293344169913, -0.0, 1e-9, 1e21],
            &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.25],
        ];
        for vs in cases {
            // What `plan.install` used to store: the array text, as a string.
            let prerendered = Value::from(array(vs.iter().map(|v| fmt_f64(*v))));
            let (mut compact, mut old) = (String::new(), String::new());
            Value::from(vs).push_json(&mut compact);
            prerendered.push_json(&mut old);
            assert_eq!(compact, old);
        }
        let mut out = String::new();
        Value::from(&[f64::NAN, 0.25][..]).push_json(&mut out);
        assert_eq!(out, "\"[null,0.25]\"");

        // A shared vector is retained, not copied, and is the same value.
        let plan: Arc<[f64]> = Arc::from(&[0.75, 0.25][..]);
        let log = EventLog::new(4);
        log.push(0, "plan.install", vec![("new", Value::from(plan.clone()))]);
        log.push(1, "plan.install", vec![("old", Value::from(plan.clone()))]);
        assert_eq!(Arc::strong_count(&plan), 3);
        assert_eq!(Value::from(plan.clone()), Value::from(&plan[..]));
    }

    #[test]
    fn shared_vectors_render_like_each_value_alone() {
        // A chain of installs: each one's `old` is the previous one's
        // `new`, one `Arc` between them, with an equal-valued copy, an
        // empty vector and a vector repeated in one record mixed in.
        let plans: Vec<Arc<[f64]>> = (0..6)
            .map(|i| {
                let f = 0.1 + 0.13 * i as f64;
                Arc::from(&[f, 1.0 - f, f64::NAN][..i.min(3)])
            })
            .collect();
        let log = EventLog::new(64);
        for (era, w) in plans.windows(2).enumerate() {
            log.push(
                era as u64,
                "plan.install",
                vec![
                    ("era", Value::from(era)),
                    ("old", Value::from(w[0].clone())),
                    ("new", Value::from(w[1].clone())),
                ],
            );
            log.push(
                era as u64,
                "ewma.update",
                vec![("region", Value::Static("r0"))],
            );
        }
        let copy: Arc<[f64]> = Arc::from(&plans[3][..]);
        let last = plans[5].clone();
        log.push(
            9,
            "plan.install",
            vec![("old", copy.into()), ("new", last.clone().into())],
        );
        log.push(
            10,
            "x",
            vec![("a", last.clone().into()), ("b", last.into())],
        );

        // Oracle: every field rendered on its own, nothing shared.
        let mut expected = String::new();
        for rec in log.tail(usize::MAX) {
            push_key(&mut expected, '{', "seq");
            push_u64(&mut expected, rec.seq);
            push_key(&mut expected, ',', "t_us");
            push_u64(&mut expected, rec.t_us);
            push_key(&mut expected, ',', "kind");
            push_escaped(&mut expected, rec.kind);
            for (k, v) in &rec.fields {
                push_key(&mut expected, ',', k);
                v.push_json(&mut expected);
            }
            expected.push_str("}\n");
        }
        assert_eq!(log.to_jsonl(), expected);
        assert_eq!(expected.matches("null]").count(), 2 * 3 + 1 + 2);
    }

    #[test]
    fn shared_and_static_text_export_and_compare_like_strings() {
        let name: Arc<str> = Arc::from("eu-west \"1\"");
        let (shared, tag) = (Value::from(&name), Value::Static("takeover"));
        assert_eq!(shared, Value::from("eu-west \"1\""));
        assert_eq!(tag, Value::from("takeover".to_string()));
        assert_ne!(tag, Value::from("takeove"));
        assert_ne!(tag, Value::from(1u64));
        assert_eq!(shared.as_str(), Some("eu-west \"1\""));
        let (mut a, mut b) = (String::new(), String::new());
        shared.push_json(&mut a);
        Value::from(&*name).push_json(&mut b);
        assert_eq!(a, b);
        assert_eq!(Arc::strong_count(&name), 2, "shared, not copied");
        // No wider than `Str`, the widest variant before them: a
        // retained field costs what it did.
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn log_is_deterministic_for_identical_pushes() {
        let mk = || {
            let log = EventLog::new(16);
            for i in 0..10u64 {
                log.push(
                    i * 7,
                    "tick",
                    vec![("i", Value::from(i)), ("f", Value::from(i as f64 / 3.0))],
                );
            }
            log.to_jsonl()
        };
        assert_eq!(mk(), mk());
    }
}
