//! In-process observability for the ACM framework.
//!
//! The workspace is built offline, so this crate vendors — with zero
//! external dependencies — the three facilities a `tracing`/`metrics`
//! stack would normally provide:
//!
//! * [`span`] — lightweight wall-clock span timers ([`Timer`] /
//!   [`Span`]) for the Monitor → Analyze → Plan → Execute phases of every
//!   control era;
//! * [`metrics`] — a global-free [`MetricsRegistry`] of named
//!   [`Counter`]s, [`Gauge`]s and log₂-bucketed [`Hist`]ograms
//!   (p50/p90/p99/max) for hot-path statistics;
//! * [`event`] — a capacity-bounded, seed-deterministic [`EventLog`]
//!   recording every consequential control decision (rejuvenations,
//!   STANDBY activations, leader changes, plan installs, EWMA updates)
//!   with a JSONL exporter;
//! * [`json`] — the tiny hand-rolled JSON writer the event log and the
//!   bench/telemetry exporters share; the JSONL exports write through its
//!   in-place `push_*` primitives into one buffer.
//!
//! Everything hangs off an [`Obs`] handle created from an [`ObsConfig`].
//! The default configuration is **on-but-cheap**: metrics are relaxed
//! atomics, spans cost two `Instant` reads, and events go into bounded
//! per-kind stores that pin each kind's earliest records. [`Obs::noop`] yields a disabled instance whose every operation
//! reduces to one branch — its cost is the repo benchmark's
//! `obs.emit_noop_ns` reading.
//!
//! Determinism: metrics and spans measure *wall-clock* (they never feed
//! back into the model), while event records carry only *simulated* time
//! and decision payloads — so the event log and every simulation output
//! are byte-identical per seed whether observability is on or off.
//!
//! Metric names follow `acm.<crate>.<subsystem>.<metric>`; timer
//! histograms record nanoseconds and conventionally end in `_ns`.
//!
//! ```
//! use acm_obs::{Obs, ObsConfig, Value};
//! let obs = Obs::new(ObsConfig::default());
//! let activations = obs.counter("acm.pcam.pool.activations");
//! activations.inc();
//! {
//!     let _era = obs.timer("acm.core.control_loop.era_ns").start();
//!     // ... timed work ...
//! }
//! obs.emit(30_000_000, "rejuvenation.proactive", vec![
//!     ("vm", Value::from(3u64)),
//!     ("predicted_rttf_s", Value::from(84.2)),
//! ]);
//! assert_eq!(activations.value(), 1);
//! assert_eq!(obs.events_tail(1)[0].kind, "rejuvenation.proactive");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod slo;
pub mod span;
pub mod timeline;
pub mod trace;

pub use event::{EventLog, EventRecord, Value};
pub use metrics::{
    Counter, Gauge, Hist, HistogramSnapshot, MetricSnapshot, MetricValue, MetricsRegistry,
};
pub use slo::{BurnRateMonitor, SloSpec, SloTransition};
pub use span::{Span, Timer};
pub use timeline::{TimelineRecorder, TimelineSlice};
pub use trace::{SpanRecord, TraceContext, Tracer};

use std::sync::{Arc, OnceLock};

/// How much observability a run carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record metrics, spans and events. When `false` every instrument is
    /// inert (a single branch on the hot path).
    pub enabled: bool,
    /// Retention capacity of the structured event log, **per event
    /// kind**: the first quarter of each kind's budget is pinned forever
    /// (early decisions survive long runs), the rest is a most-recent
    /// ring whose evictions are counted as dropped. See
    /// [`event`](crate::event) for the full policy.
    pub event_capacity: usize,
    /// Record causal spans ([`trace`](crate::trace)), the era timeline
    /// ([`timeline`](crate::timeline)) and annotate emitted events with
    /// their trace context. Off by default: a non-traced run's event log
    /// is byte-identical to earlier releases.
    pub trace: bool,
    /// Seed for deterministic span-ID derivation (only read when `trace`
    /// is set; conventionally the experiment seed).
    pub trace_seed: u64,
}

impl Default for ObsConfig {
    /// On-but-cheap: instruments live, 4096 retained events per kind,
    /// tracing off.
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            event_capacity: 4096,
            trace: false,
            trace_seed: 0,
        }
    }
}

impl ObsConfig {
    /// A disabled configuration (every instrument is a no-op).
    pub fn noop() -> Self {
        ObsConfig {
            enabled: false,
            event_capacity: 0,
            trace: false,
            trace_seed: 0,
        }
    }

    /// The default configuration with causal tracing + timeline capture
    /// on, deriving span IDs from `seed`.
    pub fn traced(seed: u64) -> Self {
        ObsConfig {
            trace: true,
            trace_seed: seed,
            ..ObsConfig::default()
        }
    }

    /// Sanity-checks the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.enabled && self.event_capacity == 0 {
            return Err("enabled observability needs event_capacity > 0".into());
        }
        if self.trace && !self.enabled {
            return Err("tracing needs enabled observability".into());
        }
        Ok(())
    }
}

/// Shared handle to one run's observability state.
pub type ObsHandle = Arc<Obs>;

/// The in-process observability hub: metrics registry + event log + span
/// bookkeeping. Create one per run ([`Obs::new`]) and share it via
/// [`ObsHandle`]; instruments resolved from it ([`Obs::counter`],
/// [`Obs::timer`], …) are cheap clones safe to store on hot structs.
#[derive(Debug)]
pub struct Obs {
    enabled: bool,
    registry: MetricsRegistry,
    events: EventLog,
    tracer: Option<Tracer>,
    timeline: Option<Arc<TimelineRecorder>>,
}

impl Obs {
    /// Builds an observability hub from the configuration.
    pub fn new(cfg: ObsConfig) -> ObsHandle {
        cfg.validate().expect("invalid obs config");
        let trace_on = cfg.enabled && cfg.trace;
        Arc::new(Obs {
            enabled: cfg.enabled,
            registry: MetricsRegistry::new(cfg.enabled),
            events: EventLog::new(if cfg.enabled { cfg.event_capacity } else { 0 }),
            tracer: trace_on.then(|| Tracer::new(cfg.trace_seed)),
            timeline: trace_on.then(|| Arc::new(TimelineRecorder::new())),
        })
    }

    /// The shared disabled instance: every operation is a no-op behind one
    /// branch. Instrumented components default to this so un-observed use
    /// stays allocation- and contention-free.
    pub fn noop() -> ObsHandle {
        static NOOP: OnceLock<ObsHandle> = OnceLock::new();
        NOOP.get_or_init(|| Obs::new(ObsConfig::noop())).clone()
    }

    /// Whether this hub records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Resolves (or creates) the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(name)
    }

    /// Resolves (or creates) the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(name)
    }

    /// Resolves (or creates) the named histogram.
    pub fn histogram(&self, name: &str) -> Hist {
        self.registry.histogram(name)
    }

    /// Resolves a span timer over the named histogram (elapsed nanoseconds;
    /// by convention the name ends in `_ns`). Resolve once, then
    /// [`Timer::start`] per measurement.
    pub fn timer(&self, name: &str) -> Timer {
        Timer::new(self.histogram(name))
    }

    /// Appends a structured event at simulated time `t_us` (microseconds).
    /// Events must carry only seed-deterministic payloads — never
    /// wall-clock readings — so logs are identical per seed. When tracing
    /// is on and an ambient context is set, events not already carrying a
    /// `trace` field are annotated with `(trace, cause)` — the chain in
    /// effect when they were emitted.
    pub fn emit(&self, t_us: u64, kind: &'static str, mut fields: Vec<(&'static str, Value)>) {
        if !self.enabled {
            return;
        }
        if let Some(tr) = &self.tracer {
            if let Some(amb) = tr.ambient() {
                if event::field(&fields, "trace").is_none() {
                    fields.push(("trace", Value::U64(amb.trace)));
                    fields.push(("cause", Value::U64(amb.span)));
                }
            }
        }
        self.events.push(t_us, kind, fields);
    }

    /// Emits an event **with its own span**: opens a span named `kind`
    /// (a root when `parent` is `None`, a child otherwise), annotates the
    /// event with `(trace, span, cause)` and returns the new context so
    /// downstream decisions can chain off it. Without tracing this is
    /// exactly [`Obs::emit`] and returns `None` — the event log stays
    /// byte-identical to a non-traced run.
    pub fn emit_caused(
        &self,
        t_us: u64,
        kind: &'static str,
        mut fields: Vec<(&'static str, Value)>,
        parent: Option<TraceContext>,
    ) -> Option<TraceContext> {
        if !self.enabled {
            return None;
        }
        let Some(tr) = &self.tracer else {
            self.events.push(t_us, kind, fields);
            return None;
        };
        let ctx = tr.span(t_us, kind, parent);
        fields.push(("trace", Value::U64(ctx.trace)));
        fields.push(("span", Value::U64(ctx.span)));
        fields.push(("cause", Value::U64(parent.map_or(0, |p| p.span))));
        self.events.push(t_us, kind, fields);
        Some(ctx)
    }

    /// Whether causal tracing (and the timeline recorder) is active.
    pub fn trace_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// The span-ID derivation seed (0 when tracing is off).
    pub fn trace_seed(&self) -> u64 {
        self.tracer.as_ref().map_or(0, |t| t.seed())
    }

    /// Sets the ambient trace context annotating subsequent plain emits.
    /// No-op without tracing.
    pub fn set_trace_ambient(&self, ctx: Option<TraceContext>) {
        if let Some(tr) = &self.tracer {
            tr.set_ambient(ctx);
        }
    }

    /// Every retained span record, in allocation order (empty without
    /// tracing).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.tracer.as_ref().map_or_else(Vec::new, |t| t.records())
    }

    /// Retained spans as JSON Lines (empty without tracing).
    pub fn spans_jsonl(&self) -> String {
        self.tracer
            .as_ref()
            .map_or_else(String::new, |t| t.to_jsonl())
    }

    /// Spans allocated past the tracer's retention cap.
    pub fn spans_dropped(&self) -> u64 {
        self.tracer.as_ref().map_or(0, |t| t.dropped())
    }

    /// The wall-clock timeline recorder (None without tracing).
    pub fn timeline_recorder(&self) -> Option<&Arc<TimelineRecorder>> {
        self.timeline.as_ref()
    }

    /// Snapshot of every registered metric, sorted by name.
    pub fn metrics(&self) -> Vec<MetricSnapshot> {
        self.registry.snapshot()
    }

    /// Folds an independent child hub into this one: counters add, gauges
    /// take the child's last value, histograms merge bucket-wise, and the
    /// child's retained events are re-appended (fresh sequence numbers,
    /// original simulated timestamps), and so are its retained spans. The
    /// intended shape is one child `Obs` per parallel work item (`repro
    /// seeds`' runs), merged **in input-index order** after an order-stable
    /// collect — then the parent rollup is deterministic at any thread
    /// count. No-op when this hub is disabled.
    pub fn merge_from(&self, child: &Obs) {
        if !self.enabled {
            return;
        }
        self.registry.merge_from(&child.registry);
        for rec in child.events.tail(usize::MAX) {
            self.events.push(rec.t_us, rec.kind, rec.fields);
        }
        if let (Some(tr), Some(child_tr)) = (&self.tracer, &child.tracer) {
            tr.merge_from(child_tr);
        }
    }

    /// Snapshot of every registered metric as JSON Lines (one object per
    /// metric, sorted by name) — see [`MetricsRegistry::to_jsonl`].
    pub fn metrics_jsonl(&self) -> String {
        self.registry.to_jsonl()
    }

    /// The most recent `n` event records (oldest first).
    pub fn events_tail(&self, n: usize) -> Vec<EventRecord> {
        self.events.tail(n)
    }

    /// Events currently retained across all kinds.
    pub fn events_len(&self) -> usize {
        self.events.len()
    }

    /// Events evicted after a kind's retention budget filled.
    pub fn events_dropped(&self) -> u64 {
        self.events.dropped()
    }

    /// Per-kind retention pressure: `(kind, retained, dropped)` rows in
    /// kind order — see [`EventLog::kind_stats`].
    pub fn events_kind_stats(&self) -> Vec<(&'static str, usize, u64)> {
        self.events.kind_stats()
    }

    /// The retained event log as JSON Lines (one object per record).
    pub fn events_jsonl(&self) -> String {
        self.events.to_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_on_but_cheap() {
        let cfg = ObsConfig::default();
        assert!(cfg.enabled);
        assert!(cfg.event_capacity > 0);
        cfg.validate().unwrap();
    }

    #[test]
    fn noop_records_nothing() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        let c = obs.counter("acm.test.noop.counter");
        c.inc();
        c.add(10);
        assert_eq!(c.value(), 0);
        obs.gauge("acm.test.noop.gauge").set(3.5);
        obs.histogram("acm.test.noop.hist").record(7);
        {
            let s = obs.timer("acm.test.noop.span_ns").start();
            assert!(!s.is_active());
        }
        obs.emit(1, "decision", vec![("x", Value::from(1u64))]);
        assert!(obs.metrics().is_empty());
        assert_eq!(obs.events_len(), 0);
        assert_eq!(obs.events_jsonl(), "");
    }

    #[test]
    fn enabled_hub_records_everything() {
        let obs = Obs::new(ObsConfig::default());
        obs.counter("acm.a.b.c").add(3);
        obs.gauge("acm.a.b.g").set(1.25);
        obs.histogram("acm.a.b.h").record(100);
        obs.emit(5, "k", vec![("v", Value::from(true))]);
        assert_eq!(obs.metrics().len(), 3);
        assert_eq!(obs.events_len(), 1);
        assert!(obs.events_jsonl().contains("\"kind\":\"k\""));
    }

    #[test]
    fn counters_resolve_to_the_same_cell() {
        let obs = Obs::new(ObsConfig::default());
        let a = obs.counter("acm.x.y.z");
        let b = obs.counter("acm.x.y.z");
        a.inc();
        b.inc();
        assert_eq!(a.value(), 2);
        assert_eq!(obs.metrics().len(), 1);
    }

    #[test]
    fn merge_from_folds_child_hubs() {
        let parent = Obs::new(ObsConfig::default());
        parent.counter("acm.t.merge.c").add(1);
        parent.gauge("acm.t.merge.g").set(1.0);
        parent.histogram("acm.t.merge.h").record(4);

        let child = Obs::new(ObsConfig::default());
        child.counter("acm.t.merge.c").add(2);
        child.counter("acm.t.merge.child_only").inc();
        child.gauge("acm.t.merge.g").set(7.5);
        child.histogram("acm.t.merge.h").record(4);
        child.histogram("acm.t.merge.h").record(1000);
        child.emit(42, "child.event", vec![("n", Value::from(3u64))]);

        parent.merge_from(&child);
        assert_eq!(parent.counter("acm.t.merge.c").value(), 3);
        assert_eq!(parent.counter("acm.t.merge.child_only").value(), 1);
        assert_eq!(parent.gauge("acm.t.merge.g").value(), 7.5);
        let MetricValue::Histogram(h) = parent
            .metrics()
            .into_iter()
            .find(|m| m.name == "acm.t.merge.h")
            .unwrap()
            .value
        else {
            panic!("histogram expected");
        };
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 4);
        assert_eq!(h.max, 1000);
        // The child's events land in the parent log with their simulated
        // timestamps intact.
        let tail = parent.events_tail(1);
        assert_eq!(tail[0].kind, "child.event");
        assert_eq!(tail[0].t_us, 42);

        // Merging into a disabled hub is a no-op.
        let off = Obs::noop();
        off.merge_from(&child);
        assert!(off.metrics().is_empty());
        assert_eq!(off.events_len(), 0);
    }

    #[test]
    #[should_panic(expected = "event_capacity")]
    fn enabled_zero_capacity_rejected() {
        let _ = Obs::new(ObsConfig {
            enabled: true,
            event_capacity: 0,
            ..ObsConfig::default()
        });
    }

    #[test]
    fn tracing_on_a_disabled_hub_is_rejected() {
        let cfg = ObsConfig {
            enabled: false,
            event_capacity: 0,
            trace: true,
            trace_seed: 1,
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn non_traced_hub_emits_without_annotation() {
        let obs = Obs::new(ObsConfig::default());
        assert!(!obs.trace_enabled());
        assert_eq!(obs.emit_caused(5, "plan.install", vec![], None), None);
        let tail = obs.events_tail(1);
        assert!(tail[0].fields.is_empty(), "no trace fields without tracing");
        assert!(obs.spans().is_empty());
        assert_eq!(obs.spans_jsonl(), "");
        assert!(obs.timeline_recorder().is_none());
    }

    #[test]
    fn traced_hub_annotates_and_chains() {
        let obs = Obs::new(ObsConfig::traced(2025));
        assert!(obs.trace_enabled());
        assert_eq!(obs.trace_seed(), 2025);
        let fault = obs
            .emit_caused(10, "chaos.partition", vec![("n", Value::from(2u64))], None)
            .unwrap();
        let quarantine = obs
            .emit_caused(20, "region.quarantine", vec![], Some(fault))
            .unwrap();
        assert_eq!(quarantine.trace, fault.trace);
        let spans = obs.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, fault.span);
        // Event fields carry the identity.
        let tail = obs.events_tail(2);
        assert_eq!(tail[0].field("cause"), Some(&Value::U64(0)));
        assert_eq!(tail[1].field("cause"), Some(&Value::U64(fault.span)));
        assert_eq!(tail[1].field("trace"), Some(&Value::U64(fault.trace)));
        assert!(obs.timeline_recorder().is_some());
    }

    #[test]
    fn ambient_context_annotates_plain_emits_once() {
        let obs = Obs::new(ObsConfig::traced(7));
        let era = obs.emit_caused(0, "era", vec![], None).unwrap();
        obs.set_trace_ambient(Some(era));
        obs.emit(5, "ewma.update", vec![("raw_s", Value::from(1.5))]);
        // An event already carrying a trace field is left alone.
        let fault = obs.emit_caused(6, "chaos.heal", vec![], None).unwrap();
        let tail = obs.events_tail(2);
        assert_eq!(tail[0].field("trace"), Some(&Value::U64(era.trace)));
        assert_eq!(tail[1].field("trace"), Some(&Value::U64(fault.trace)));
        assert_ne!(fault.trace, era.trace, "explicit root ignores ambient");
        obs.set_trace_ambient(None);
        obs.emit(7, "ewma.update", vec![]);
        assert!(obs.events_tail(1)[0].fields.is_empty());
    }

    #[test]
    fn merge_from_folds_child_spans() {
        let parent = Obs::new(ObsConfig::traced(1));
        parent.emit_caused(0, "era", vec![], None);
        let child = Obs::new(ObsConfig {
            trace_seed: trace::mix(1, 42),
            ..ObsConfig::traced(1)
        });
        child.emit_caused(5, "rejuvenation.proactive", vec![], None);
        parent.merge_from(&child);
        assert_eq!(parent.spans().len(), 2);
        assert_eq!(parent.spans()[1].name, "rejuvenation.proactive");
    }
}
