//! Observability report over one experiment run.
//!
//! Runs a Figure-3 deployment with the in-process observability layer
//! enabled and causal tracing on, then prints the MAPE phase-timing
//! table, the busiest metrics and the tail of the decision log. Writes
//! four artefacts to the current directory: the structured event stream
//! (`obs_report.jsonl`), the metrics (`obs_metrics.jsonl`), the span tree
//! (`obs_spans.jsonl`) and the era timeline as Chrome trace-event JSON
//! (`trace_timeline.json`, loadable in Perfetto or `chrome://tracing`).
//!
//! ```text
//! cargo run --release -p acm-bench --bin obs_report -- [--eras N] [--oracle]
//! ```
//!
//! `--oracle` skips the F2PM training phase (CI's small scenario); the
//! default reproduces the paper deployment with trained REP-Trees.

use acm_core::config::{ExperimentConfig, PredictorChoice};
use acm_core::framework::run_experiment_with_obs;
use acm_core::policy::PolicyKind;
use acm_obs::{HistogramSnapshot, MetricValue, Obs, ObsConfig};

/// One metric line with a unit inferred from the name suffix: `_ns`
/// histograms print in milliseconds, `_us` in microseconds, anything
/// else (hop counts, queue depths, item counts) as raw values.
fn print_metric_row(name: &str, value: &MetricValue) {
    match value {
        MetricValue::Counter(v) => println!("{name:<44} {v:>12}"),
        MetricValue::Gauge(v) => println!("{name:<44} {v:>12.0}"),
        MetricValue::Histogram(h) if name.ends_with("_ns") => println!(
            "{:<44} {:>12} samples, mean {:.3} ms, max {:.3} ms",
            name,
            h.count,
            h.mean() / 1e6,
            h.max as f64 / 1e6
        ),
        MetricValue::Histogram(h) if name.ends_with("_us") => println!(
            "{:<44} {:>12} samples, mean {:.1} us, max {} us",
            name,
            h.count,
            h.mean(),
            h.max
        ),
        MetricValue::Histogram(h) => println!(
            "{:<44} {:>12} samples, mean {:.1}, max {}",
            name,
            h.count,
            h.mean(),
            h.max
        ),
    }
}

/// One phase-table row; `share` is the phase's sum over the era's (the
/// four phases tile the era, so the column adds up to the `era` row's 1).
fn print_phase_row(label: &str, h: &HistogramSnapshot, era_sum: u64) {
    println!(
        "{:<12} {:>8} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>8.3}",
        label,
        h.count,
        h.mean() / 1e3,
        h.quantile(0.5) as f64 / 1e3,
        h.quantile(0.99) as f64 / 1e3,
        h.max as f64 / 1e3,
        h.sum as f64 / era_sum.max(1) as f64,
    );
}

/// Prints the usage line and exits with status 2.
fn usage(problem: &str) -> ! {
    eprintln!("obs_report: {problem}");
    eprintln!("usage: obs_report [--eras N] [--oracle]");
    std::process::exit(2);
}

/// Writes one artefact, warning (not failing) when the write does.
fn write_artefact(path: &str, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

fn main() {
    let mut eras = 120usize;
    let mut oracle = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--eras" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => eras = n,
                _ => usage("--eras needs a positive integer"),
            },
            "--oracle" => oracle = true,
            other => usage(&format!("unknown argument: {other}")),
        }
    }

    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 42);
    cfg.eras = eras;
    if oracle {
        cfg.predictor = PredictorChoice::Oracle;
    }
    let obs = Obs::new(ObsConfig::traced(cfg.seed));
    let tel = run_experiment_with_obs(&cfg, obs.clone());

    println!(
        "observability report — {} ({} eras)\n",
        cfg.name,
        tel.eras()
    );

    // ----- MAPE phase timing ----------------------------------------------
    println!(
        "{:<12} {:>8} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "phase", "count", "mean_us", "p50_us", "p99_us", "max_us", "share"
    );
    let metrics = obs.metrics();
    let phase_hist = |phase: &str| {
        let name = format!("acm.core.control_loop.{phase}_ns");
        metrics.iter().find_map(|m| match &m.value {
            MetricValue::Histogram(h) if m.name == name => Some(h.clone()),
            _ => None,
        })
    };
    let era_sum = phase_hist("era").map_or(0, |h| h.sum);
    for phase in ["monitor", "analyze", "plan", "execute", "era"] {
        if let Some(h) = phase_hist(phase) {
            print_phase_row(phase, &h, era_sum);
        }
    }

    // ----- busiest histograms ---------------------------------------------
    let mut hists: Vec<(&str, HistogramSnapshot)> = metrics
        .iter()
        .filter(|m| !m.name.starts_with("acm.core.control_loop."))
        .filter_map(|m| match &m.value {
            MetricValue::Histogram(h) if h.count > 0 => Some((m.name.as_str(), *h.clone())),
            _ => None,
        })
        .collect();
    hists.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(b.0)));
    println!("\ntop histograms (raw units)");
    println!(
        "{:<44} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "name", "count", "mean", "p50", "p99", "max"
    );
    for (name, h) in hists.iter().take(8) {
        println!(
            "{:<44} {:>8} {:>10.1} {:>10} {:>10} {:>10}",
            name,
            h.count,
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.99),
            h.max,
        );
    }

    // ----- counters --------------------------------------------------------
    let mut counters: Vec<(&str, u64)> = metrics
        .iter()
        .filter_map(|m| match m.value {
            MetricValue::Counter(v) if v > 0 => Some((m.name.as_str(), v)),
            _ => None,
        })
        .collect();
    counters.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("\ncounters");
    for (name, v) in &counters {
        println!("{name:<44} {v:>12}");
    }

    // ----- pool state (gauges) ---------------------------------------------
    let gauges: Vec<(&str, f64)> = metrics
        .iter()
        .filter_map(|m| match m.value {
            MetricValue::Gauge(v) => Some((m.name.as_str(), v)),
            _ => None,
        })
        .collect();
    if !gauges.is_empty() {
        println!("\npool state at end of run (gauges)");
        for (name, v) in &gauges {
            println!("{name:<44} {v:>12.1}");
        }
    }

    // ----- overlay transport ------------------------------------------------
    println!("\noverlay transport (acm.overlay.*, whole run)");
    for m in metrics
        .iter()
        .filter(|m| m.name.starts_with("acm.overlay."))
    {
        print_metric_row(&m.name, &m.value);
    }

    // ----- execution pool ---------------------------------------------------
    println!("\nexecution pool (acm.exec.*, whole run)");
    for m in metrics.iter().filter(|m| m.name.starts_with("acm.exec.")) {
        print_metric_row(&m.name, &m.value);
    }

    // ----- retention pressure ----------------------------------------------
    // Which kinds are hitting their per-kind ring budget. A nonzero drop
    // column means post-mortems on that kind only see the pinned head
    // plus the most recent tail — size `event_capacity` accordingly.
    let kind_stats = obs.events_kind_stats();
    let total_dropped: u64 = kind_stats.iter().map(|(_, _, d)| d).sum();
    println!(
        "\nretention pressure (acm.obs.events.dropped = {total_dropped}, \
         capacity {} per kind)",
        ObsConfig::default().event_capacity
    );
    println!("{:<28} {:>10} {:>10}", "kind", "retained", "dropped");
    for (kind, retained, dropped) in &kind_stats {
        println!("{kind:<28} {retained:>10} {dropped:>10}");
    }

    // ----- decision-log tail -----------------------------------------------
    println!(
        "\ndecision log: {} events retained, {} dropped — last 15:",
        obs.events_len(),
        obs.events_dropped()
    );
    for ev in obs.events_tail(15) {
        println!("{}", ev.to_json());
    }

    println!();
    write_artefact("obs_report.jsonl", &obs.events_jsonl());
    write_artefact("obs_metrics.jsonl", &obs.metrics_jsonl());
    write_artefact("obs_spans.jsonl", &obs.spans_jsonl());
    let timeline = obs
        .timeline_recorder()
        .expect("a traced hub records a timeline");
    write_artefact("trace_timeline.json", &timeline.to_chrome_json());
}
