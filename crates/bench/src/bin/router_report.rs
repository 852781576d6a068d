//! Request-router data-plane report.
//!
//! Measures the weighted-P2C routing hot loop and verifies its contract,
//! writing the numbers to `BENCH_PR8.json` at the repository root:
//!
//! * **Decisions/s** — raw single-thread routing throughput over tens of
//!   millions of `route()` calls, per routing policy (uniform table,
//!   planned fractions with a neutral scorer, planned fractions with
//!   latency-aware scoring under active exclusion).
//! * **Decision latency** — p50/p99 nanoseconds per decision, per
//!   policy, sampled over 1k-decision batches so timer overhead stays
//!   out of the hot loop.
//! * **Flow convergence** — with a neutral scorer the realized flow must
//!   match the planned fractions `f_i` within 1 % over 10M requests,
//!   quarantined (zero-weight) regions receiving exactly zero.
//! * **Thread-width identity** — the routed sharded plane (chaos + plan
//!   swaps + latency feedback) must produce byte-identical per-shard
//!   digests at `ACM_THREADS` ∈ {1, 2, 4}, plus aggregate events/s and
//!   the 4-thread speedup.
//!
//! ```text
//! cargo run --release -p acm-bench --bin router_report [-- --gate]
//! ```
//!
//! `--gate` additionally enforces the CI floors: a decisions/s minimum
//! (set well under the ~10M+/s a release build sustains, so CI jitter
//! cannot flake the gate), the 1 % convergence bound, exact quarantine
//! zero, and digest identity at every width.

use acm_bench::Report;
use acm_router::{run_routed_plane, LatencyAwareness, PlanStep, RequestRouter, RoutedPlaneConfig};
use acm_sim::rng::SimRng;
use acm_sim::time::Duration;
use std::time::Instant;

/// Single-thread decisions/s floor enforced under `--gate`. A release
/// build routes well above 10M/s; the floor leaves ~4x headroom for
/// noisy CI machines.
const GATE_DECISIONS_PER_S_FLOOR: f64 = 2_500_000.0;
/// Requests of the flow-convergence check.
const CONVERGENCE_REQUESTS: u64 = 10_000_000;
/// Allowed |realized - planned| per region over the convergence run.
const CONVERGENCE_TOLERANCE: f64 = 0.01;
/// Decisions measured per throughput policy.
const THROUGHPUT_DECISIONS: u64 = 20_000_000;
/// Batch size for decision-latency sampling.
const LATENCY_BATCH: u64 = 1_000;
/// Batches sampled per policy for p50/p99.
const LATENCY_BATCHES: usize = 20_000;

/// The routing policies the hot loop is measured under.
enum Policy {
    /// Uniform weight table, no latency signal — the baseline draw cost.
    Uniform,
    /// Skewed planned fractions, neutral scorer — the table's marginal.
    PlannedNeutral,
    /// Skewed fractions plus an actively excluding latency scorer.
    LatencyAware,
}

impl Policy {
    fn name(&self) -> &'static str {
        match self {
            Policy::Uniform => "uniform",
            Policy::PlannedNeutral => "planned_neutral",
            Policy::LatencyAware => "latency_aware",
        }
    }

    /// A router primed for this policy over 16 regions.
    fn build(&self, seed: u64) -> RequestRouter {
        let regions = 16;
        let mut r = RequestRouter::new(regions, LatencyAwareness::default(), SimRng::new(seed));
        match self {
            Policy::Uniform => {}
            Policy::PlannedNeutral | Policy::LatencyAware => {
                // A lopsided but full-support plan (normalised by install).
                let fractions: Vec<f64> = (0..regions).map(|i| 1.0 + i as f64).collect();
                assert!(r.install(&fractions, None));
            }
        }
        if matches!(self, Policy::LatencyAware) {
            // Half the regions 8x slower than the others: past the 2x
            // exclusion threshold, so scoring is live on every decision.
            for _ in 0..64 {
                for j in 0..regions {
                    let us = if j % 2 == 0 { 500 } else { 4_000 };
                    r.record_latency(j, Duration::from_micros(us));
                }
            }
        }
        r
    }
}

/// Raw decisions/s plus p50/p99 decision latency for one policy.
fn throughput_scenario(report: &mut Report, policy: &Policy, gate: bool) {
    let name = policy.name();

    // Throughput: one long untimed-interior loop.
    let mut r = policy.build(42);
    let mut sink = 0u64;
    let start = Instant::now();
    for _ in 0..THROUGHPUT_DECISIONS {
        sink = sink.wrapping_add(r.route() as u64);
    }
    let wall = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    let per_s = THROUGHPUT_DECISIONS as f64 / wall;
    report.push(&format!("router_{name}_decisions_per_s"), per_s);
    if gate && matches!(policy, Policy::PlannedNeutral) {
        report.gate(
            per_s >= GATE_DECISIONS_PER_S_FLOOR,
            format!(
                "router: {per_s:.0} decisions/s below the {GATE_DECISIONS_PER_S_FLOOR:.0} floor"
            ),
        );
    }

    // Decision latency: time 1k-decision batches, histogram the mean
    // nanoseconds per decision of each batch.
    let mut r = policy.build(43);
    let obs = acm_obs::Obs::new(acm_obs::ObsConfig::default());
    let hist = obs.histogram("ns_per_decision");
    for _ in 0..LATENCY_BATCHES {
        let t = Instant::now();
        for _ in 0..LATENCY_BATCH {
            std::hint::black_box(r.route());
        }
        let ns = t.elapsed().as_nanos() as u64 / LATENCY_BATCH as u128 as u64;
        hist.record(ns);
    }
    let snap = hist.snapshot();
    report.push(&format!("router_{name}_decision_p50_ns"), snap.p50() as f64);
    report.push(&format!("router_{name}_decision_p99_ns"), snap.p99() as f64);
}

/// Neutral-scorer convergence: realized flow within 1 % of planned f_i
/// over 10M requests, quarantined regions exactly zero.
fn convergence_scenario(report: &mut Report) {
    let fractions = vec![0.30, 0.22, 0.18, 0.12, 0.10, 0.05, 0.03, 0.00];
    let live = vec![true, true, true, false, true, true, true, true];
    let mut r = RequestRouter::new(
        fractions.len(),
        LatencyAwareness::default(),
        SimRng::new(2026),
    );
    assert!(r.install(&fractions, Some(&live)));

    // Expected shares: planned fractions with the quarantined region's
    // weight renormalised away (region 3 is live-masked out; region 7 is
    // planned at zero).
    let masked: Vec<f64> = fractions
        .iter()
        .zip(&live)
        .map(|(f, l)| if *l { *f } else { 0.0 })
        .collect();
    let total: f64 = masked.iter().sum();
    let want: Vec<f64> = masked.iter().map(|f| f / total).collect();

    let start = Instant::now();
    for _ in 0..CONVERGENCE_REQUESTS {
        r.route();
    }
    let wall = start.elapsed().as_secs_f64();
    report.push(
        "convergence_decisions_per_s",
        CONVERGENCE_REQUESTS as f64 / wall,
    );

    let got = r.stats().realized_fractions();
    let worst = want
        .iter()
        .zip(&got)
        .map(|(w, g)| (w - g).abs())
        .fold(0.0, f64::max);
    report.push("convergence_requests", CONVERGENCE_REQUESTS as f64);
    report.push("convergence_worst_abs_error", worst);
    report.gate(
        worst <= CONVERGENCE_TOLERANCE,
        format!("router: worst |realized-planned| {worst:.5} exceeds {CONVERGENCE_TOLERANCE}"),
    );
    let quarantined_total = r.stats().routed[3] + r.stats().routed[7];
    report.push("convergence_quarantined_routed", quarantined_total as f64);
    report.gate(
        quarantined_total == 0,
        format!("router: quarantined regions got {quarantined_total} requests"),
    );
}

/// The routed sharded plane at 1/2/4 threads: digests must be identical,
/// throughput and speedup are reported.
fn width_scenario(report: &mut Report, gate: bool) {
    let mut cfg = RoutedPlaneConfig::new(8, 8, 1 << 17, 3, 2026);
    cfg.plans = vec![
        PlanStep::all_live(vec![0.25, 0.20, 0.15, 0.12, 0.10, 0.08, 0.06, 0.04]),
        PlanStep {
            fractions: vec![0.25, 0.20, 0.15, 0.12, 0.10, 0.08, 0.06, 0.04],
            live: vec![true, true, false, true, true, true, true, true],
        },
        PlanStep::all_live(vec![0.04, 0.06, 0.08, 0.10, 0.12, 0.15, 0.20, 0.25]),
    ];
    report.push("plane_browsers", cfg.browsers as f64);
    report.push("plane_shards", cfg.shards as f64);

    let before = acm_exec::current_threads();
    let mut wall_1t = f64::NAN;
    let mut wall_4t = f64::NAN;
    let mut digest_1t = Vec::new();
    for threads in [1usize, 2, 4] {
        acm_exec::configure_threads(threads);
        let out = run_routed_plane(&cfg);
        acm_exec::configure_threads(before);
        report.push(
            &format!("plane_events_per_s_{threads}t"),
            out.executed as f64 / out.wall_s,
        );
        match threads {
            1 => {
                wall_1t = out.wall_s;
                report.push("plane_decisions", out.decisions() as f64);
                // Deepest shard queue: in-flight requests, not the
                // ~24 k-arrival era window.
                report.push("plane_peak_pending", out.peak_pending as f64);
                digest_1t = out.digests;
            }
            _ => {
                let identical = digest_1t == out.digests;
                report.push(
                    &format!("plane_digest_identity_1t_vs_{threads}t_ok"),
                    f64::from(identical),
                );
                report.gate(
                    identical,
                    format!("plane: digests diverge between 1 and {threads} threads"),
                );
                if threads == 4 {
                    wall_4t = out.wall_s;
                }
            }
        }
    }
    report.push("plane_speedup_4t", wall_1t / wall_4t);
    let _ = gate; // identity is always gated; speedup is informational
}

fn main() {
    let gate = acm_bench::flags("router_report", &["--gate"]).has("--gate");
    let mut report = Report::default();

    println!(
        "request-router data-plane report ({} mode, {} cores)\n",
        if gate { "gated" } else { "report" },
        acm_exec::available_threads()
    );
    println!("hot loop: single-thread routing throughput and latency");
    for policy in [
        Policy::Uniform,
        Policy::PlannedNeutral,
        Policy::LatencyAware,
    ] {
        throughput_scenario(&mut report, &policy, gate);
    }
    println!("\nflow convergence: neutral scorer over {CONVERGENCE_REQUESTS} requests");
    convergence_scenario(&mut report);
    println!("\nthread-width sweep: routed plane with chaos + plan swaps");
    width_scenario(&mut report, gate);

    report.finish("BENCH_PR8.json", "all gates hold", true);
}
