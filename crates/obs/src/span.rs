//! Span timers: scoped wall-clock measurements.
//!
//! A [`Timer`] is a pre-resolved handle over one histogram (elapsed
//! nanoseconds); [`Timer::start`] opens a [`Span`] guard that records on
//! drop. Guards share no state, so they may drop in any order (moved
//! guards, early `drop()`) and spans on different threads never contend.
//!
//! Wall-clock readings never enter the event log or the simulation, so
//! spans cannot perturb seed determinism.

use crate::metrics::Hist;
use std::time::Instant;

/// A reusable span timer bound to one histogram. Cheap to clone and store
/// on the instrumented struct; inert when resolved from a disabled hub.
#[derive(Debug, Clone, Default)]
pub struct Timer {
    hist: Hist,
}

impl Timer {
    pub(crate) fn new(hist: Hist) -> Self {
        Timer { hist }
    }

    /// Opens a measurement; the returned guard records elapsed nanoseconds
    /// into the timer's histogram when dropped.
    #[inline]
    pub fn start(&self) -> Span {
        Span {
            inner: self.hist.core.is_some().then(|| SpanInner {
                start: Instant::now(),
                hist: self.hist.clone(),
            }),
        }
    }
}

#[derive(Debug)]
struct SpanInner {
    start: Instant,
    hist: Hist,
}

/// An open span; records its elapsed wall time on drop.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; dropping it immediately records ~0"]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// Whether this span actually measures (false for no-op hubs).
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let ns = inner.start.elapsed().as_nanos();
            inner.hist.record(ns.min(u64::MAX as u128) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Obs, ObsConfig};

    #[test]
    fn span_records_elapsed_time_into_histogram() {
        let obs = Obs::new(ObsConfig::default());
        let timer = obs.timer("acm.test.span.work_ns");
        for _ in 0..3 {
            let _s = timer.start();
            std::hint::black_box((0..100).sum::<u64>());
        }
        let snap = obs.histogram("acm.test.span.work_ns").snapshot();
        assert_eq!(snap.count, 3);
        assert!(snap.sum > 0, "wall clock must have advanced");
        assert!(snap.max >= snap.min);
    }

    #[test]
    fn out_of_order_drop_records_each_span_once() {
        let obs = Obs::new(ObsConfig::default());
        let a = obs.timer("acm.test.span.a_ns").start();
        let b = obs.timer("acm.test.span.b_ns").start();
        // Drop the outer guard first (moved-guard scenario).
        drop(a);
        drop(b);
        assert_eq!(obs.histogram("acm.test.span.a_ns").snapshot().count, 1);
        assert_eq!(obs.histogram("acm.test.span.b_ns").snapshot().count, 1);
    }

    #[test]
    fn noop_spans_are_inert() {
        let obs = Obs::noop();
        let timer = obs.timer("acm.test.span.noop_ns");
        let s = timer.start();
        assert!(!s.is_active());
        drop(s);
    }
}
