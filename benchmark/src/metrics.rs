//! The metric catalogue: the single source the runner, `compare` and the
//! contract test (which holds it against `BENCHMARK.json`) all read.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before it is a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Length of one measuring run, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// What a user of the system sees; every workload, tracing off.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_wall_p50_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

use Better::{Higher, Lower};

/// One number per layer of the stack (layer = crate name); traced run only.
pub const PER_LAYER: [MetricDef; 51] = [
    layer("sim.events_per_s", "1/s", Higher),
    layer("sim.queue.schedule_pop_ns", "ns", Lower),
    layer("sim.queue.arena_reuse_share", "share", Higher),
    layer("exec.dispatch_ns_per_item", "ns", Lower),
    layer("exec.barrier_ns", "ns", Lower),
    layer("exec.worker_busy_share", "share", Higher),
    layer("exec.steals_per_op", "count", Lower),
    layer("exec.width1_ops_ratio", "ratio", Higher),
    layer("vm.process_era_ns", "ns", Lower),
    layer("ml.toolchain.fit_ms", "ms", Lower),
    layer("ml.train_share", "share", Lower),
    layer("ml.rep_tree.predict_batch_ns_per_row", "ns", Lower),
    layer("pcam.training.collect_ms", "ms", Lower),
    layer("pcam.vmc.process_era_us", "us", Lower),
    layer("pcam.lifecycle.refits_per_op", "count", Lower),
    layer("pcam.lifecycle.promotions_per_op", "count", Higher),
    layer("pcam.lifecycle.rejections_per_op", "count", Lower),
    layer("pcam.lifecycle.era_overhead_us", "us", Lower),
    layer("core.monitor_share", "share", Lower),
    layer("core.analyze_share", "share", Lower),
    layer("core.plan_share", "share", Lower),
    layer("core.execute_share", "share", Lower),
    layer("core.unattributed_share", "share", Lower),
    layer("core.era_wall_p99_ms", "ms", Lower),
    layer("core.policy.next_fractions_ns", "ns", Lower),
    layer("core.plan.build_ns", "ns", Lower),
    layer("core.degrade.observe_ns", "ns", Lower),
    layer("core.loop_new_ms", "ms", Lower),
    layer("core.telemetry.to_csv_ms", "ms", Lower),
    layer("overlay.transport.send_ns", "ns", Lower),
    layer("overlay.staging.drain_ns_per_msg", "ns", Lower),
    layer("overlay.sent_per_op", "count", Lower),
    layer("overlay.dropped_per_op", "count", Lower),
    layer("overlay.fault.events_per_op", "count", Lower),
    layer("router.route_ns", "ns", Lower),
    layer("router.install_us", "us", Lower),
    layer("router.decisions_per_s", "1/s", Higher),
    layer("router.plane.inner_wall_share", "share", Higher),
    layer("workload.open_loop.arrival_ns", "ns", Lower),
    layer("obs.emit_ns", "ns", Lower),
    layer("obs.emit_noop_ns", "ns", Lower),
    layer("obs.merge_from_us", "us", Lower),
    layer("obs.events_per_op", "count", Lower),
    layer("obs.events_dropped", "count", Lower),
    layer("obs.export_ms_per_op", "ms", Lower),
    layer("obs.traced_overhead_pct", "%", Lower),
    layer("chaos.check_us_per_op", "us", Lower),
    layer("chaos.violations", "count", Lower),
    layer("bench.ops_per_s_iqr_pct", "%", Lower),
    layer("bench.op_wall_p90_ms", "ms", Lower),
    layer("bench.failed_ops_share", "share", Lower),
];

/// Counts made by the program over the digest prefix. They repeat exactly
/// for a seed, so `compare` holds two runs to equality on them.
pub const EXACT_COUNTS: [&str; 9] = [
    "sim_events",
    "router_decisions",
    "refits",
    "promotions",
    "rejections",
    "events",
    "overlay_sent",
    "overlay_dropped",
    "chaos_events",
];
