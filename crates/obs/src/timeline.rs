//! Era execution timeline, exportable as Chrome trace-event JSON.
//!
//! While the causal spans of [`trace`](crate::trace) answer *why* a
//! decision happened, the timeline answers *where the wall-clock time
//! went*: per-era MONITOR/ANALYZE/PLAN/EXECUTE slices on the leader
//! track, per-shard monitor slices, and per-worker exec-pool busy
//! slices synthesized from `PoolStatsSnapshot` deltas. The export is the
//! Chrome trace-event format (an object with a `traceEvents` array of
//! `ph:"X"` complete events), which Perfetto and `chrome://tracing`
//! load directly.
//!
//! Timeline slices are **wall-clock** data — like the metric histograms
//! they never feed back into the model and are excluded from the
//! byte-identity contract (the deterministic artifacts are the
//! telemetry, the event log and the span records).

use crate::json::JsonObject;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One complete slice on a timeline track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineSlice {
    /// Track (rendered as a thread row; e.g. 0 = leader, 1+s = shard s).
    pub track: u32,
    /// Static slice label (phase or job name).
    pub name: &'static str,
    /// Start offset from the recorder's epoch, in microseconds.
    pub start_us: u64,
    /// Slice duration in microseconds.
    pub dur_us: u64,
    /// Era the slice belongs to (surfaced as an event argument).
    pub era: u64,
}

#[derive(Debug, Default)]
struct TimelineInner {
    slices: Vec<TimelineSlice>,
    track_names: BTreeMap<u32, String>,
}

/// Collects wall-clock slices against a fixed epoch and serializes them
/// to Chrome trace-event JSON. Thread-safe: shards record concurrently
/// behind one mutex (a handful of pushes per era, nowhere near the hot
/// path).
#[derive(Debug)]
pub struct TimelineRecorder {
    epoch: Instant,
    inner: Mutex<TimelineInner>,
}

impl Default for TimelineRecorder {
    fn default() -> Self {
        TimelineRecorder::new()
    }
}

impl TimelineRecorder {
    /// A recorder whose epoch is "now".
    pub fn new() -> Self {
        TimelineRecorder {
            epoch: Instant::now(),
            inner: Mutex::new(TimelineInner::default()),
        }
    }

    /// Where a clock reading the caller already holds falls on the
    /// timeline, in microseconds since the recorder's epoch.
    pub fn at_us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Names a track (idempotent; first name wins). Rendered as the
    /// thread name of the corresponding row.
    pub fn set_track_name(&self, track: u32, name: &str) {
        self.name_track(track, || name.to_string());
    }

    /// [`TimelineRecorder::set_track_name`] for per-era callers: the name
    /// is only built the first time the track is seen.
    pub fn name_track(&self, track: u32, name: impl FnOnce() -> String) {
        let mut inner = self.inner.lock().unwrap();
        inner.track_names.entry(track).or_insert_with(name);
    }

    /// Records one complete slice.
    pub fn record(&self, track: u32, name: &'static str, start_us: u64, dur_us: u64, era: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.slices.push(TimelineSlice {
            track,
            name,
            start_us,
            dur_us,
            era,
        });
    }

    /// Slices recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().slices.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The timeline as one Chrome trace-event JSON document: thread-name
    /// metadata first, then slices sorted by `(start, track, name)` so
    /// the output is stable regardless of which thread pushed first.
    pub fn to_chrome_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut slices = inner.slices.clone();
        slices.sort_by_key(|s| (s.start_us, s.track, s.name));
        let mut events: Vec<String> = Vec::with_capacity(slices.len() + inner.track_names.len());
        for (track, name) in &inner.track_names {
            let mut args = JsonObject::new();
            args.field_str("name", name);
            let mut o = JsonObject::new();
            o.field_str("ph", "M")
                .field_str("name", "thread_name")
                .field_u64("pid", 1)
                .field_u64("tid", *track as u64)
                .field_raw("args", &args.finish());
            events.push(o.finish());
        }
        for s in &slices {
            let mut args = JsonObject::new();
            args.field_u64("era", s.era);
            let mut o = JsonObject::new();
            o.field_str("ph", "X")
                .field_str("name", s.name)
                .field_u64("pid", 1)
                .field_u64("tid", s.track as u64)
                .field_u64("ts", s.start_us)
                .field_u64("dur", s.dur_us)
                .field_raw("args", &args.finish());
            events.push(o.finish());
        }
        let mut doc = JsonObject::new();
        doc.field_str("displayTimeUnit", "ms")
            .field_raw("traceEvents", &crate::json::array(events));
        doc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_is_loadable_chrome_trace_shape() {
        let tl = TimelineRecorder::new();
        tl.set_track_name(0, "leader");
        tl.set_track_name(100, "worker 0");
        tl.record(100, "exec.busy", 50, 20, 0);
        tl.record(0, "MONITOR", 0, 100, 0);
        tl.record(0, "ANALYZE", 100, 40, 0);
        let json = tl.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains(r#""ph":"M","name":"thread_name""#));
        assert!(json.contains(r#""args":{"name":"leader"}"#));
        assert!(json.contains(r#""ph":"X","name":"MONITOR","pid":1,"tid":0,"ts":0,"dur":100"#));
        // Slices are sorted by start time regardless of push order.
        let monitor = json.find(r#""name":"MONITOR""#).unwrap();
        let busy = json.find(r#""name":"exec.busy""#).unwrap();
        let analyze = json.find(r#""name":"ANALYZE""#).unwrap();
        assert!(monitor < busy && busy < analyze);
        assert_eq!(tl.len(), 3);
    }

    #[test]
    fn track_naming_is_first_wins() {
        let tl = TimelineRecorder::new();
        tl.set_track_name(3, "first");
        tl.set_track_name(3, "second");
        assert!(tl.to_chrome_json().contains(r#"{"name":"first"}"#));
        assert!(!tl.to_chrome_json().contains("second"));
    }

    #[test]
    fn empty_recorder_exports_an_empty_event_list() {
        let tl = TimelineRecorder::new();
        assert!(tl.is_empty());
        assert_eq!(
            tl.to_chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn now_us_is_monotone() {
        let tl = TimelineRecorder::new();
        let a = tl.at_us(Instant::now());
        let b = tl.at_us(Instant::now());
        assert!(b >= a);
    }
}
