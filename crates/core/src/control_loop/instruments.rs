//! The loop's own instruments: the phase clock, the leader's counters and
//! gauges, the per-era pool sample and the model-lifecycle gauges.

use crate::config::ExperimentConfig;
use acm_exec::PoolStatsSnapshot;
use acm_obs::{Counter, Gauge, Hist, Obs, TimelineRecorder};
use acm_pcam::Vmc;
use std::sync::Arc;
use std::time::Instant;

/// A MAPE phase, in era order (the index of its histogram).
#[derive(Debug, Clone, Copy)]
pub(super) enum Phase {
    Monitor,
    Analyze,
    Plan,
    Execute,
}

/// `acm.core.control_loop.<name>_ns` and the track-0 timeline slice names:
/// the four phases in [`Phase`] order, then the era they tile.
const SPANS: [&str; 5] = ["monitor", "analyze", "plan", "execute", "era"];
const ERA: usize = 4;

/// One wall clock for the era: a single reading per phase boundary closes
/// the phase that ends and opens the one that starts, so the four phase
/// sums equal the era sum exactly. Wall-clock data — metrics and the
/// Perfetto timeline only, never the event log. Reads no clock on a
/// disabled hub.
pub(super) struct PhaseClock {
    enabled: bool,
    hists: [Hist; 5],
    /// Present on tracing hubs: every span is also a slice on track 0.
    timeline: Option<Arc<TimelineRecorder>>,
    era_no: u64,
    /// `(era start, latest boundary)` of the open era.
    open: Option<(Instant, Instant)>,
}

impl PhaseClock {
    fn new(obs: &Obs) -> Self {
        if let Some(tl) = obs.timeline_recorder() {
            tl.set_track_name(0, "leader");
        }
        PhaseClock {
            enabled: obs.enabled(),
            hists: SPANS.map(|s| obs.histogram(&format!("acm.core.control_loop.{s}_ns"))),
            timeline: obs.timeline_recorder().cloned(),
            era_no: 0,
            open: None,
        }
    }

    /// Opens era `era_no` and its MONITOR phase.
    pub(super) fn start(&mut self, era_no: usize) {
        self.era_no = era_no as u64;
        self.open = self.enabled.then(|| {
            let now = Instant::now();
            (now, now)
        });
    }

    /// Closes `phase` and opens the next; closing EXECUTE closes the era.
    pub(super) fn end(&mut self, phase: Phase) {
        let Some((era_start, since)) = self.open else {
            return;
        };
        let now = Instant::now();
        self.record(phase as usize, since, now);
        if matches!(phase, Phase::Execute) {
            self.record(ERA, era_start, now);
        }
        self.open = Some((era_start, now));
    }

    fn record(&self, span: usize, from: Instant, to: Instant) {
        self.hists[span].record((to - from).as_nanos() as u64);
        if let Some(tl) = &self.timeline {
            let start = tl.at_us(from);
            tl.record(0, SPANS[span], start, tl.at_us(to) - start, self.era_no);
        }
    }
}

/// Per-region `acm.pcam.model.<region>.*` gauges and the labeler drop
/// totals already exported (the labeler reports running totals, the
/// counters take deltas).
struct ModelGauges {
    version: Gauge,
    shadow_err: Gauge,
    incumbent_err: Gauge,
    dropped_exported: (u64, u64),
}

/// Everything the loop records that is not a decision event.
pub(super) struct Instruments {
    pub(super) clock: PhaseClock,
    pub(super) report_retries: Counter,
    pub(super) quarantined: Gauge,
    /// Per-era exec-pool sampling (continuous `acm.exec.era.*` series):
    /// the previous sample, this era's, and their difference, refilled in
    /// place every era.
    exec_prev: PoolStatsSnapshot,
    exec_now: PoolStatsSnapshot,
    exec_delta: PoolStatsSnapshot,
    exec_items: Hist,
    exec_queue: Hist,
    exec_busy: Hist,
    /// Empty when the lifecycle is disabled, so such runs register no
    /// model metrics.
    models: Vec<ModelGauges>,
    labeler_dropped_ooo: Counter,
    labeler_dropped_non_finite: Counter,
}

impl Instruments {
    pub(super) fn new(cfg: &ExperimentConfig, obs: &Obs) -> Self {
        let lifecycle = cfg.lifecycle.enabled;
        let model_gauges = |name: &str| {
            let gauge = |which| obs.gauge(&format!("acm.pcam.model.{name}.{which}"));
            ModelGauges {
                version: gauge("version"),
                shadow_err: gauge("shadow_err"),
                incumbent_err: gauge("incumbent_err"),
                dropped_exported: (0, 0),
            }
        };
        let labeler_dropped = |why| {
            if lifecycle {
                obs.counter(&format!("acm.pcam.labeler.dropped.{why}"))
            } else {
                Counter::default()
            }
        };
        Instruments {
            clock: PhaseClock::new(obs),
            report_retries: obs.counter("acm.core.report.retries"),
            quarantined: obs.gauge("acm.core.quarantined_regions"),
            exec_prev: acm_exec::global_stats(),
            exec_now: PoolStatsSnapshot::default(),
            exec_delta: PoolStatsSnapshot::default(),
            exec_items: obs.histogram("acm.exec.era.items"),
            exec_queue: obs.histogram("acm.exec.era.queue_depth_peak"),
            exec_busy: obs.histogram("acm.exec.era.busy_ns"),
            models: if lifecycle {
                let names = cfg.regions.iter().map(|r| &r.region.name);
                names.map(|name| model_gauges(name)).collect()
            } else {
                Vec::new()
            },
            labeler_dropped_ooo: labeler_dropped("out_of_order"),
            labeler_dropped_non_finite: labeler_dropped("non_finite"),
        }
    }

    /// Publishes the per-region model gauges and the labeler admission
    /// drop counters after the lifecycle's end-of-era pass.
    pub(super) fn publish_models(&mut self, vmcs: &[Vmc]) {
        if !self.clock.enabled {
            return;
        }
        for (vmc, g) in vmcs.iter().zip(&mut self.models) {
            let Some(lc) = vmc.lifecycle() else {
                continue;
            };
            g.version.set(lc.version() as f64);
            if let Some((cand, incumbent)) = lc.shadow_errs() {
                g.shadow_err.set(cand);
                g.incumbent_err.set(incumbent);
            }
            let ooo = lc.labeler().dropped_out_of_order();
            let nf = lc.labeler().dropped_non_finite();
            let (prev_ooo, prev_nf) = g.dropped_exported;
            self.labeler_dropped_ooo.add(ooo.saturating_sub(prev_ooo));
            self.labeler_dropped_non_finite
                .add(nf.saturating_sub(prev_nf));
            g.dropped_exported = (ooo, nf);
        }
    }

    /// One pool sample per era, so `obs_report` can localise a pool stall
    /// to a phase of the run; on tracing hubs also one busy slice per
    /// worker, anchored at the era's start (the pool reports aggregate
    /// busy-ns, not per-job placement).
    pub(super) fn sample_pool(&mut self) {
        let Some((era_start, _)) = self.clock.open else {
            return;
        };
        acm_exec::global_stats_into(&mut self.exec_now);
        let delta = &mut self.exec_delta;
        self.exec_now.delta_since_into(&self.exec_prev, delta);
        self.exec_items.record(delta.items);
        self.exec_queue.record(delta.queue_depth_peak);
        self.exec_busy.record(delta.total_busy_ns());
        if let Some(tl) = &self.clock.timeline {
            let t0 = tl.at_us(era_start);
            for (w, &busy_ns) in delta.worker_busy_ns.iter().enumerate() {
                if busy_ns > 0 {
                    let track = 100 + w as u32;
                    tl.name_track(track, || format!("worker {w}"));
                    tl.record(track, "exec.busy", t0, busy_ns / 1_000, self.clock.era_no);
                }
            }
        }
        std::mem::swap(&mut self.exec_prev, &mut self.exec_now);
    }
}
