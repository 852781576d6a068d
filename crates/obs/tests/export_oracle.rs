//! Oracle: the streaming JSONL exporters write exactly what the builder
//! path they replaced wrote.
//!
//! `EventLog::to_jsonl`, `MetricsRegistry::to_jsonl` and
//! `Tracer::to_jsonl` write every record by reference into one buffer.
//! The oracle below is a copy of the path they replaced: a per-char
//! escaper with `format!`, `to_string` integers, a `JsonObject`-style
//! builder, a temporary `String` per event field, the retained records
//! recomputed from the retention rule, `snapshot()` for metrics and
//! `records()` for spans. Random logs, registries and tracers must
//! render byte for byte the same through both.

use acm_obs::{EventLog, EventRecord, MetricValue, MetricsRegistry, SpanRecord, Tracer, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// the replaced writer
// ---------------------------------------------------------------------------

#[allow(clippy::format_push_string)]
fn old_escape(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || c == '\u{7f}' => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn old_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

struct OldObject {
    buf: String,
    any: bool,
}

impl OldObject {
    fn new() -> Self {
        OldObject {
            buf: String::from("{"),
            any: false,
        }
    }

    fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        self.buf.push_str(&old_escape(key));
        self.buf.push(':');
        self.buf.push_str(json);
        self
    }

    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, &old_escape(v))
    }

    fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.raw(key, &v.to_string())
    }

    fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.raw(key, &old_f64(v))
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn old_value(v: &Value) -> String {
    match v {
        Value::U64(v) => v.to_string(),
        Value::I64(v) => v.to_string(),
        Value::F64(v) => old_f64(*v),
        Value::Bool(v) => v.to_string(),
        Value::Str(v) => old_escape(v),
        Value::Static(v) => old_escape(v),
        Value::Shared(v) => old_escape(v),
        Value::F64s(vs) => {
            let items: Vec<String> = vs.iter().map(|v| old_f64(*v)).collect();
            format!("\"[{}]\"", items.join(","))
        }
    }
}

fn old_event(rec: &EventRecord) -> String {
    let mut o = OldObject::new();
    o.u64("seq", rec.seq)
        .u64("t_us", rec.t_us)
        .str("kind", rec.kind);
    for (k, v) in &rec.fields {
        let raw = old_value(v);
        o.raw(k, &raw);
    }
    o.finish()
}

/// What a log of `capacity` per kind retains of `pushed` (whose `seq` is
/// the push index): each kind's first `capacity / 4` records and its most
/// recent `capacity - capacity / 4`, merged by sequence number.
fn old_events_jsonl(pushed: &[EventRecord], capacity: usize) -> String {
    let (head, tail) = (capacity / 4, capacity - capacity / 4);
    let mut by_kind: BTreeMap<&str, Vec<&EventRecord>> = BTreeMap::new();
    for rec in pushed {
        by_kind.entry(rec.kind).or_default().push(rec);
    }
    let mut kept: Vec<&EventRecord> = Vec::new();
    for recs in by_kind.values() {
        let (pinned, rest) = recs.split_at(head.min(recs.len()));
        kept.extend(pinned);
        kept.extend(&rest[rest.len().saturating_sub(tail)..]);
    }
    kept.sort_by_key(|r| r.seq);
    kept.iter().map(|r| old_event(r) + "\n").collect()
}

fn old_metrics_jsonl(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    for m in reg.snapshot() {
        let mut o = OldObject::new();
        o.str("name", &m.name);
        match m.value {
            MetricValue::Counter(v) => {
                o.str("type", "counter").u64("value", v);
            }
            MetricValue::Gauge(v) => {
                o.str("type", "gauge").f64("value", v);
            }
            MetricValue::Histogram(h) => {
                o.str("type", "histogram")
                    .u64("count", h.count)
                    .u64("sum", h.sum)
                    .u64("min", h.min)
                    .u64("max", h.max)
                    .f64("mean", h.mean())
                    .u64("p50", h.p50())
                    .u64("p90", h.p90())
                    .u64("p99", h.p99());
            }
        }
        out.push_str(&o.finish());
        out.push('\n');
    }
    out
}

fn old_span(s: &SpanRecord) -> String {
    let mut o = OldObject::new();
    o.u64("id", s.id)
        .u64("trace", s.trace)
        .u64("parent", s.parent)
        .u64("t_us", s.t_us)
        .str("name", s.name);
    o.finish()
}

fn old_spans_jsonl(tracer: &Tracer) -> String {
    tracer
        .records()
        .iter()
        .map(|s| old_span(s) + "\n")
        .collect()
}

// ---------------------------------------------------------------------------
// random inputs
// ---------------------------------------------------------------------------

/// splitmix64: the inputs are drawn from one seed per case.
struct Draw(u64);

impl Draw {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.u64() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    fn int(&mut self) -> u64 {
        match self.below(4) {
            0 => self.pick(&[0, 1, u64::MAX, u64::MAX - 1, 1 << 53]),
            1 => self.u64(),
            _ => self.u64() >> self.below(64),
        }
    }

    fn float(&mut self) -> f64 {
        match self.below(3) {
            0 => self.pick(&[
                0.0,
                -0.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,
                5e-324,
                -2.2e-308,
                f64::MAX,
                f64::MIN,
                0.1,
                1e21,
                1e-7,
            ]),
            1 => f64::from_bits(self.u64()),
            _ => (self.u64() >> 11) as f64 / (1u64 << 40) as f64 - 1000.0,
        }
    }

    /// Biased toward what the escaper handles: C0 controls, DEL, `"`,
    /// `\`, and multi-byte code points.
    fn string(&mut self) -> String {
        (0..self.below(12))
            .map(|_| match self.below(8) {
                0 => char::from_u32(self.below(0x20) as u32).unwrap(),
                1 => self.pick(&['"', '\\', '\u{7f}', '/']),
                2 => self.pick(&['λ', 'é', '😀', '\u{80}', '\u{2028}']),
                _ => char::from(b' ' + self.below(95) as u8),
            })
            .collect()
    }

    fn value(&mut self) -> Value {
        match self.below(6) {
            0 => Value::U64(self.int()),
            1 => Value::I64(match self.below(3) {
                0 => self.pick(&[i64::MIN, i64::MAX, -1, 0]),
                _ => self.u64() as i64 >> self.below(64),
            }),
            2 => Value::F64(self.float()),
            3 => Value::Bool(self.below(2) == 1),
            4 => Value::Str(self.string()),
            _ => {
                let vs: Vec<f64> = (0..self.below(5)).map(|_| self.float()).collect();
                Value::F64s(Arc::from(vs))
            }
        }
    }
}

/// Event kinds, field keys and span names are `&'static str`: a closed
/// set, some of which need escaping.
const KINDS: [&str; 6] = [
    "era",
    "plan.install",
    "ewma.update",
    "k\"q",
    "tab\tkind",
    "λ.x",
];
const KEYS: [&str; 7] = ["era", "new", "old", "trace", "q\"k", "\u{1}", "ключ"];

proptest! {
    #[test]
    fn events_jsonl_is_the_builder_rendering(seed in any::<u64>()) {
        let mut d = Draw(seed);
        let capacity = d.below(13);
        let log = EventLog::new(capacity);
        let kinds = 1 + d.below(KINDS.len());
        let mut pushed = Vec::new();
        for seq in 0..d.below(60) as u64 {
            let kind = KINDS[d.below(kinds)];
            let fields: Vec<(&'static str, Value)> =
                (0..d.below(5)).map(|_| (d.pick(&KEYS), d.value())).collect();
            let t_us = d.int();
            log.push(t_us, kind, fields.clone());
            pushed.push(EventRecord { seq, t_us, kind, fields });
        }
        let got = log.to_jsonl();
        let expected = old_events_jsonl(&pushed, capacity);
        prop_assert!(got == expected, "events:\n{got}\n!=\n{expected}");
        for rec in log.tail(usize::MAX) {
            prop_assert_eq!(rec.to_json(), old_event(&rec));
        }
    }

    #[test]
    fn metrics_jsonl_is_the_builder_rendering(seed in any::<u64>()) {
        let mut d = Draw(seed);
        let reg = MetricsRegistry::new(true);
        for i in 0..d.below(12) {
            let name = format!("acm.{i}.{}", d.string());
            match d.below(3) {
                0 => reg.counter(&name).add(d.int()),
                1 => reg.gauge(&name).set(d.float()),
                _ => {
                    // Some histograms stay empty.
                    let h = reg.histogram(&name);
                    for _ in 0..d.below(40) {
                        h.record(d.int());
                    }
                }
            }
        }
        let got = reg.to_jsonl();
        let expected = old_metrics_jsonl(&reg);
        prop_assert!(got == expected, "metrics:\n{got}\n!=\n{expected}");
    }

    #[test]
    fn spans_jsonl_is_the_builder_rendering(seed in any::<u64>()) {
        const NAMES: [&str; 4] = ["era", "chaos.partition", "n\"ame\u{1f}", "λ"];
        let mut d = Draw(seed);
        let tracer = Tracer::with_capacity(d.u64(), d.below(24));
        let mut open = Vec::new();
        for _ in 0..d.below(32) {
            let parent = if open.is_empty() || d.below(3) == 0 {
                None
            } else {
                Some(open[d.below(open.len())])
            };
            open.push(tracer.span(d.int(), d.pick(&NAMES), parent));
        }
        let got = tracer.to_jsonl();
        let expected = old_spans_jsonl(&tracer);
        prop_assert!(got == expected, "spans:\n{got}\n!=\n{expected}");
        for s in tracer.records() {
            prop_assert_eq!(s.to_json(), old_span(&s));
        }
    }
}

#[test]
fn empty_exports_are_empty() {
    assert_eq!(EventLog::new(8).to_jsonl(), "");
    assert_eq!(MetricsRegistry::new(true).to_jsonl(), "");
    assert_eq!(Tracer::new(1).to_jsonl(), "");
    // An event with no fields, and one of each empty container.
    let log = EventLog::new(4);
    log.push(0, "e", vec![]);
    log.push(1, "e", vec![("xs", Value::F64s(Arc::from(Vec::new())))]);
    log.push(2, "e", vec![("s", Value::Str(String::new()))]);
    assert_eq!(
        log.to_jsonl(),
        "{\"seq\":0,\"t_us\":0,\"kind\":\"e\"}\n\
         {\"seq\":1,\"t_us\":1,\"kind\":\"e\",\"xs\":\"[]\"}\n\
         {\"seq\":2,\"t_us\":2,\"kind\":\"e\",\"s\":\"\"}\n"
    );
}
