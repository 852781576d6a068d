//! One measuring run of one workload: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer ones.

use crate::harness::{
    block_rates, cycle_rate, iqr_pct, median, peak_rss_mb, percentile, Fnv, Stamp,
};
use crate::kernels;
use crate::metrics::{MetricDef, END_TO_END, EXACT_COUNTS, PER_LAYER};
use crate::workloads::{self, Cx, Shape, Spec};
use acm::exec::PoolStatsSnapshot;
use acm::obs::json::{array, escape, fmt_f64, JsonObject};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Slices the timed section is cut into for the noise estimate.
const BLOCKS: usize = 10;
/// Set-ups per untraced run: at least `SETUPS_MIN`, then more while they
/// are cheap, so that a 70 ms set-up is not one noisy sample.
const SETUPS_MIN: usize = 3;
const SETUPS_MAX: usize = 25;
const SETUPS_BUDGET_S: f64 = 3.0;

/// Pool width of every measuring run: never above the cores present.
pub fn exec_width() -> usize {
    acm::exec::available_threads().min(4)
}

/// One closed-loop run of a workload from a fresh set-up.
pub struct Section {
    pub setup_s: f64,
    /// Timed host wall per operation, in op order.
    pub walls: Vec<u64>,
    pub digests: Vec<u64>,
    pub failures: Vec<String>,
    /// Operations issued, and those that panicked or failed a check.
    pub attempted: u64,
    pub failed: u64,
    pub cx: Cx,
    /// Wall of the whole loop, untimed checks included.
    pub loop_ns: u64,
    pub exec: PoolStatsSnapshot,
    pub shape: Shape,
}

impl Section {
    fn timed_s(&self) -> f64 {
        self.walls.iter().sum::<u64>() as f64 / 1e9
    }

    /// The timed operations up to the last whole cycle of cells: where a
    /// run stops must not change the mix its statistics are taken over.
    fn whole_cycles(&self, cycle: usize) -> &[u64] {
        let n = self.walls.len();
        if n < cycle {
            &self.walls
        } else {
            &self.walls[..n - n % cycle]
        }
    }

    /// Per-operation wall in milliseconds over the whole cycles, ascending.
    fn sorted_ms(&self, cycle: usize) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .whole_cycles(cycle)
            .iter()
            .map(|ns| *ns as f64 / 1e6)
            .collect();
        ms.sort_by(f64::total_cmp);
        ms
    }
}

pub struct SectionOpts {
    pub budget_s: f64,
    pub traced: bool,
    pub lifecycle_off: bool,
    pub width: usize,
    /// Operations to run even when the budget is spent: the digest prefix
    /// is always whole, however slow the program has become.
    pub min_ops: u64,
}

pub fn run_section(spec: &Spec, seed: u64, o: &SectionOpts) -> Section {
    acm::exec::configure_threads(o.width);
    let mut cx = Cx::new(o.traced, spec.digest_ops);
    let t = Instant::now();
    let mut w = workloads::setup(spec.name, seed, o.lifecycle_off, &mut cx);
    let setup_s = t.elapsed().as_secs_f64();
    let shape = w.shape();

    let mut walls = Vec::new();
    let mut digests = Vec::new();
    let mut failures = Vec::new();
    let mut failed = 0u64;
    let base = acm::exec::global_stats();
    let start = Instant::now();
    let mut attempted = 0u64;
    loop {
        let i = attempted;
        attempted += 1;
        cx.spans.set_op(Some(i));
        match catch_unwind(AssertUnwindSafe(|| w.op(i, &mut cx))) {
            Ok(r) => {
                walls.push(r.wall_ns);
                digests.push(r.digest);
                if let Some(why) = r.failure {
                    failed += 1;
                    failures.push(format!("op {i}: {why}"));
                }
            }
            Err(_) => {
                // The workload's state is suspect after a panic: count
                // the op as failed and end the section.
                cx.spans.unwind();
                failed += 1;
                failures.push(format!("op {i}: panicked"));
                break;
            }
        }
        if attempted >= o.min_ops && start.elapsed().as_secs_f64() >= o.budget_s {
            break;
        }
    }
    let loop_ns = start.elapsed().as_nanos() as u64;
    let exec = acm::exec::global_stats().delta_since(&base);
    cx.spans.set_op(None);
    if let Some(why) = w.finish(&mut cx) {
        failed += 1;
        failures.push(format!("end of run: {why}"));
    }
    Section {
        setup_s,
        walls,
        digests,
        failures,
        attempted,
        failed,
        cx,
        loop_ns,
        exec,
        shape,
    }
}

/// Everything one invocation reports.
pub struct Record {
    pub workload: &'static str,
    pub why: &'static str,
    pub traced: bool,
    pub stamp: Stamp,
    pub digest: String,
    pub digest_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Metric values in catalogue order; `None` prints as `null`
    /// ("not measurable here").
    pub metrics: Vec<(&'static MetricDef, Option<f64>)>,
    pub counts: Vec<(&'static str, u64)>,
    /// Noise evidence for `compare`: the block rates and set-up times.
    pub block_rates: Vec<f64>,
    pub setups_s: Vec<f64>,
    pub spans_jsonl: Option<String>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let mut o = JsonObject::new();
        o.field_bool("correct", self.correct())
            .field_u64("attempted", self.attempted)
            .field_u64("failed", self.failed)
            .field_raw("metrics", &self.metrics_json());
        o.finish()
    }

    fn metrics_json(&self) -> String {
        let mut m = JsonObject::new();
        for (def, v) in &self.metrics {
            let mut e = JsonObject::new();
            match v {
                Some(v) if v.is_finite() => e.field_f64("value", *v),
                _ => e.field_raw("value", "null"),
            };
            e.field_str("unit", def.unit);
            m.field_raw(def.name, &e.finish());
        }
        m.finish()
    }

    /// The full record written under `benchmark/out/`.
    pub fn to_json(&self) -> String {
        let mut counts = JsonObject::new();
        for (k, v) in &self.counts {
            counts.field_u64(k, *v);
        }
        let mut o = JsonObject::new();
        o.field_str("workload", self.workload)
            .field_bool("traced", self.traced)
            .field_raw("stamp", &self.stamp.to_json())
            .field_str("digest", &self.digest)
            .field_u64("digest_ops", self.digest_ops)
            .field_bool("correct", self.correct())
            .field_u64("attempted", self.attempted)
            .field_u64("failed", self.failed)
            .field_raw(
                "failures",
                &array(self.failures.iter().take(8).map(|f| escape(f))),
            )
            .field_raw("counts", &counts.finish())
            .field_raw(
                "block_rates",
                &array(self.block_rates.iter().map(|v| fmt_f64(*v))),
            )
            .field_raw(
                "setups_s",
                &array(self.setups_s.iter().map(|v| fmt_f64(*v))),
            )
            .field_raw("metrics", &self.metrics_json());
        o.finish()
    }

    /// Every metric by name with its unit, for a person.
    pub fn print_table(&self) {
        println!(
            "# {} ({}) seed {} ops {} digest {} over {} ops",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.stamp.seed,
            self.stamp.ops,
            self.digest,
            self.digest_ops
        );
        println!("# why: {}", self.why);
        println!("# stamp {}", self.stamp.to_json());
        for (def, v) in &self.metrics {
            match v {
                Some(v) if v.is_finite() => println!("{:<40} {:>16.4} {}", def.name, v, def.unit),
                _ => println!(
                    "{:<40} {:>16} {}",
                    def.name, "not measurable here", def.unit
                ),
            }
        }
        for f in self.failures.iter().take(8) {
            println!("FAILED {f}");
        }
    }
}

/// Digest of the first `digest_ops` operations, in op order.
fn prefix_digest(digests: &[u64], digest_ops: u64) -> String {
    let mut d = Fnv::default();
    for v in digests.iter().take(digest_ops as usize) {
        d.u64(*v);
    }
    d.hex()
}

/// The untraced run: several set-ups (median reported, the last one
/// measured), then the closed loop for `seconds`.
pub fn run_untraced(spec: &'static Spec, seed: u64, seconds: f64) -> Record {
    let width = exec_width();
    acm::exec::configure_threads(width);
    let mut setups_s = Vec::new();
    let started = Instant::now();
    while setups_s.len() + 1 < SETUPS_MIN
        || (setups_s.len() + 1 < SETUPS_MAX && started.elapsed().as_secs_f64() < SETUPS_BUDGET_S)
    {
        let mut cx = Cx::new(false, spec.digest_ops);
        let t = Instant::now();
        let w = workloads::setup(spec.name, seed, false, &mut cx);
        setups_s.push(t.elapsed().as_secs_f64());
        drop(w);
    }
    let s = run_section(
        spec,
        seed,
        &SectionOpts {
            budget_s: seconds,
            traced: false,
            lifecycle_off: false,
            width,
            min_ops: spec.digest_ops.max(BLOCKS as u64),
        },
    );
    setups_s.push(s.setup_s);

    let walls = s.whole_cycles(spec.cycle);
    let values = [
        median(&mut setups_s.clone()),
        cycle_rate(walls, spec.cycle),
        percentile(&s.sorted_ms(spec.cycle), 0.50),
        peak_rss_mb(),
    ];
    let stamp = Stamp::take(width, seed, walls.len() as u64);
    Record {
        workload: spec.name,
        why: spec.why,
        traced: false,
        stamp,
        digest: prefix_digest(&s.digests, spec.digest_ops),
        digest_ops: spec.digest_ops.min(s.digests.len() as u64),
        attempted: s.attempted,
        failed: s.failed,
        metrics: END_TO_END.iter().zip(values.map(Some)).collect(),
        counts: Vec::new(),
        block_rates: block_rates(walls, BLOCKS, spec.cycle),
        setups_s,
        failures: s.failures,
        spans_jsonl: None,
    }
}

/// Share of the traced run's budget each section takes.
const SHARE_TRACED: f64 = 0.35;
const SHARE_UNTRACED: f64 = 0.30;
const SHARE_WIDTH1: f64 = 0.15;
const SHARE_LIFECYCLE_OFF: f64 = 0.10;

/// The traced run: the workload under harness spans, then the same
/// operations untraced at the run width and at width 1 (each from a fresh
/// set-up, digests held equal), then the kernels.
pub fn run_traced(spec: &'static Spec, seed: u64, seconds: f64) -> Record {
    let width = exec_width();
    let nproc = acm::exec::available_threads();
    let opts = |share: f64, traced: bool, width: usize| SectionOpts {
        budget_s: seconds * share,
        traced,
        lifecycle_off: false,
        width,
        min_ops: if traced {
            spec.digest_ops.max(BLOCKS as u64)
        } else {
            1
        },
    };
    let mut a = run_section(spec, seed, &opts(SHARE_TRACED, true, width));
    let b = run_section(spec, seed, &opts(SHARE_UNTRACED, false, width));
    // A width-1 figure is only comparable when the run width has cores of
    // its own to use.
    let c =
        (nproc >= 2 && width >= 2).then(|| run_section(spec, seed, &opts(SHARE_WIDTH1, false, 1)));
    let d = (spec.name == "lifecycle-drift").then(|| {
        let mut o = opts(SHARE_LIFECYCLE_OFF, false, width);
        o.lifecycle_off = true;
        run_section(spec, seed, &o)
    });
    acm::exec::configure_threads(width);
    let kernel_values = kernels::run_all(&a.shape, width, seed, &mut a.cx.spans);

    // The same seed must give the same outputs traced or not, at any width.
    let differs = |what: &str, other: &Section| {
        a.digests
            .iter()
            .zip(&other.digests)
            .position(|(x, y)| x != y)
            .map(|i| format!("op {i}: traced and {what} digests differ"))
    };
    let mismatches: Vec<String> = differs("untraced", &b)
        .into_iter()
        .chain(c.as_ref().and_then(|c| differs("width-1", c)))
        .collect();
    let sections = || {
        [Some(&a), Some(&b), c.as_ref(), d.as_ref()]
            .into_iter()
            .flatten()
    };
    let attempted: u64 = sections().map(|s| s.attempted).sum();
    let failed = sections().map(|s| s.failed).sum::<u64>() + mismatches.len() as u64;
    let failures: Vec<String> = sections()
        .flat_map(|s| s.failures.iter().cloned())
        .chain(mismatches)
        .collect();

    let ops = a.walls.len().max(1) as f64;
    let timed_s = a.timed_s();
    let all = &a.cx.all;
    let prefix = &a.cx.prefix;
    let prefix_ops = spec.digest_ops.min(a.walls.len() as u64).max(1) as f64;
    let spans = &a.cx.spans;
    let op_ns = spans.total("op", true).0.max(1) as f64;
    // The same seed gives two sections the same operations, so they are
    // compared op by op and the median taken: neither the spread between
    // operations nor a stall in one section moves it.
    let paired = |x: &Section, y: &Section, f: fn(f64, f64) -> f64| {
        let mut v: Vec<f64> = x
            .walls
            .iter()
            .zip(&y.walls)
            .map(|(x, y)| f(*x as f64, *y as f64))
            .collect();
        median(&mut v)
    };
    let era_ns = all.hist_sum("acm.core.control_loop.era_ns") as f64;
    let phase = |name: &str| {
        if era_ns == 0.0 {
            0.0
        } else {
            all.hist_sum(&format!("acm.core.control_loop.{name}_ns")) as f64 / era_ns
        }
    };
    let phases = [
        phase("monitor"),
        phase("analyze"),
        phase("plan"),
        phase("execute"),
    ];
    let mean_ms = |name: &str, in_ops: bool| {
        let (ns, calls) = spans.total(name, in_ops);
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64 / 1e6
        }
    };
    let pushes = all.counter("acm.sim.queue.push") + a.cx.plane_all.executed;
    let reuse = all.counter("acm.sim.queue.arena_reuse") + a.cx.plane_all.arena_reuse;
    let rates = block_rates(a.whole_cycles(spec.cycle), BLOCKS, spec.cycle);

    let measured: Vec<(&str, Option<f64>)> = vec![
        (
            "sim.events_per_s",
            Some((all.counter("acm.sim.queue.pop") + a.cx.plane_all.executed) as f64 / timed_s),
        ),
        (
            "sim.queue.arena_reuse_share",
            Some(if pushes == 0 {
                0.0
            } else {
                reuse as f64 / pushes as f64
            }),
        ),
        (
            "exec.worker_busy_share",
            Some(a.exec.total_busy_ns() as f64 / (a.loop_ns as f64 * width as f64)),
        ),
        ("exec.steals_per_op", Some(a.exec.steals as f64 / ops)),
        (
            "exec.width1_ops_ratio",
            c.as_ref()
                .map(|c| paired(c, &b, |narrow, wide| narrow / wide)),
        ),
        (
            "ml.train_share",
            Some(spans.total("core.build_vmcs", true).0 as f64 / op_ns),
        ),
        (
            "pcam.lifecycle.refits_per_op",
            Some(prefix.events_of("model.refit.done") as f64 / prefix_ops),
        ),
        (
            "pcam.lifecycle.promotions_per_op",
            Some(prefix.events_of("model.promote") as f64 / prefix_ops),
        ),
        (
            "pcam.lifecycle.rejections_per_op",
            Some(prefix.events_of("model.reject") as f64 / prefix_ops),
        ),
        (
            "pcam.lifecycle.era_overhead_us",
            Some(d.as_ref().map_or(0.0, |d| {
                paired(&b, d, |on, off| on - off) / workloads::DRIFT_ERAS as f64 / 1e3
            })),
        ),
        ("core.monitor_share", Some(phases[0])),
        ("core.analyze_share", Some(phases[1])),
        ("core.plan_share", Some(phases[2])),
        ("core.execute_share", Some(phases[3])),
        (
            "core.unattributed_share",
            Some(if era_ns == 0.0 {
                0.0
            } else {
                1.0 - phases.iter().sum::<f64>()
            }),
        ),
        (
            "core.era_wall_p99_ms",
            Some(
                all.hists
                    .get("acm.core.control_loop.era_ns")
                    .map_or(0.0, |h| h.p99() as f64 / 1e6),
            ),
        ),
        (
            "core.telemetry.to_csv_ms",
            Some(mean_ms("core.to_csv", false)),
        ),
        (
            "overlay.sent_per_op",
            Some(prefix.counter("acm.overlay.transport.sent") as f64 / prefix_ops),
        ),
        (
            "overlay.dropped_per_op",
            Some(prefix.counter("acm.overlay.transport.dropped") as f64 / prefix_ops),
        ),
        (
            "overlay.fault.events_per_op",
            Some(prefix.events_with_prefix("chaos.") as f64 / prefix_ops),
        ),
        (
            "router.decisions_per_s",
            Some((all.counter("acm.router.decisions") + a.cx.plane_all.decisions) as f64 / timed_s),
        ),
        (
            "router.plane.inner_wall_share",
            Some(a.cx.plane_all.inner_wall_ns as f64 / (timed_s * 1e9)),
        ),
        (
            "obs.events_per_op",
            Some(prefix.events() as f64 / prefix_ops),
        ),
        ("obs.events_dropped", Some(prefix.events_dropped as f64)),
        (
            "obs.export_ms_per_op",
            Some(
                (spans.total("obs.events_jsonl", true).0 + spans.total("obs.metrics_jsonl", true).0)
                    as f64
                    / ops
                    / 1e6,
            ),
        ),
        (
            "obs.traced_overhead_pct",
            Some((paired(&a, &b, |traced, plain| traced / plain) - 1.0) * 100.0),
        ),
        (
            "chaos.check_us_per_op",
            Some(a.cx.check_ns as f64 / ops / 1e3),
        ),
        ("chaos.violations", Some(a.cx.violations as f64)),
        ("bench.ops_per_s_iqr_pct", Some(iqr_pct(&rates))),
        (
            "bench.op_wall_p90_ms",
            Some(percentile(&b.sorted_ms(spec.cycle), 0.90)),
        ),
        (
            "bench.failed_ops_share",
            Some(failed as f64 / attempted.max(1) as f64),
        ),
    ];
    let lookup = |name: &str| -> Option<f64> {
        measured
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .or_else(|| {
                kernel_values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| Some(*v))
            })
            .unwrap_or_else(|| panic!("per-layer metric {name} has no source"))
    };
    let metrics = PER_LAYER
        .iter()
        .map(|def| (def, lookup(def.name)))
        .collect();

    let count_values = [
        prefix.counter("acm.sim.queue.pop") + a.cx.plane_prefix.executed,
        prefix.counter("acm.router.decisions") + a.cx.plane_prefix.decisions,
        prefix.events_of("model.refit.done"),
        prefix.events_of("model.promote"),
        prefix.events_of("model.reject"),
        prefix.events(),
        prefix.counter("acm.overlay.transport.sent"),
        prefix.counter("acm.overlay.transport.dropped"),
        prefix.events_with_prefix("chaos."),
    ];
    let stamp = Stamp::take(width, seed, a.walls.len() as u64);
    Record {
        workload: spec.name,
        why: spec.why,
        traced: true,
        stamp,
        digest: prefix_digest(&a.digests, spec.digest_ops),
        digest_ops: spec.digest_ops.min(a.digests.len() as u64),
        attempted,
        failed,
        failures,
        metrics,
        counts: EXACT_COUNTS.into_iter().zip(count_values).collect(),
        block_rates: rates,
        setups_s: vec![a.setup_s, b.setup_s],
        spans_jsonl: Some(spans.to_jsonl()),
    }
}
