//! Hot-path throughput report.
//!
//! Runs fixed-seed workloads over every layer the hot-path overhaul
//! touched — the event kernel's arena queue, the discrete-event driver,
//! leader policy steps, REP-Tree training plus scalar-vs-batched
//! prediction, the observability layer's overhead, the
//! execution pool's thread-scaling curve and the model-selection (tuning
//! grid + k-fold CV) scaling curve — and writes the numbers to
//! `BENCH_PR4.json` at the repository root.
//!
//! ```text
//! cargo run --release -p acm-bench --bin perf_report [-- --obs-gate] [--batch-gate] [--scaling-gate] [--cv-scaling-gate]
//! ```
//!
//! Gate modes (the CI regression checks; each runs only its workload and
//! exits nonzero on violation):
//!
//! * `--obs-gate` — no-op instruments must cost < 2 % and fully enabled
//!   observability < 25 % on the 10k-event simulator chain;
//! * `--batch-gate` — batched REP-Tree prediction must be at least as
//!   fast as the scalar walk (speedup ≥ 1.0);
//! * `--scaling-gate` — the parallel training-set harvest must reach
//!   ≥ 3× at 4 threads, checked only when the machine has ≥ 4 cores
//!   (skipped, exit 0, otherwise — a 1-core container cannot scale);
//! * `--cv-scaling-gate` — the parallel REP-Tree tuning grid must reach
//!   ≥ 2× at 4 threads, same ≥ 4-core requirement to run.
//!
//! Every workload is deterministic per its hard-coded seed; timings vary
//! with the machine, the ratios (`*_speedup`, `*_pct`) are the stable
//! signal.

use acm_core::config::ExperimentConfig;
use acm_core::framework::run_experiment;
use acm_core::policy::{uniform_fractions, LoadBalancingPolicy, PolicyKind};
use acm_ml::model::{AnyModel, ModelKind};
use acm_obs::{Obs, ObsConfig, ObsHandle};
use acm_pcam::training::{collect_database, CollectionConfig};
use acm_sim::rng::SimRng;
use acm_sim::sim::Simulator;
use acm_sim::time::{Duration, SimTime};
use acm_vm::{AnomalyConfig, FailureSpec, VmFlavor};
use std::hint::black_box;
use std::time::Instant;

/// Median seconds per call of `f` over `samples` timed batches of `reps`
/// calls each (after one warmup batch).
fn time_it<F: FnMut()>(reps: u32, samples: usize, mut f: F) -> f64 {
    for _ in 0..reps {
        f();
    }
    let mut per_call: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            start.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    per_call.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    per_call[per_call.len() / 2]
}

struct Report {
    entries: Vec<(String, f64)>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64) {
        println!("{name:<44} {value:>16.1}");
        self.entries.push((name.to_string(), value));
    }

    fn to_json(&self) -> String {
        let mut o = acm_obs::json::JsonObject::new();
        for (name, value) in &self.entries {
            o.field_f64(name, (value * 1000.0).round() / 1000.0);
        }
        let mut s = o.finish();
        s.push('\n');
        s
    }
}

/// The seed of `event_queue_push_pop_1k`: schedule 1k, drain.
fn queue_workloads(report: &mut Report) {
    const N: u64 = 1000;
    let push_pop = time_it(200, 9, || {
        let mut rng = SimRng::new(1);
        let mut q = acm_sim::event::EventQueue::new();
        for i in 0..N {
            q.schedule(SimTime::from_micros(rng.next_u64() % 1_000_000), i);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum += v;
        }
        black_box(sum);
    });
    report.push("event_queue_push_pop_1k_ops_per_s", N as f64 / push_pop);

    // Cancellation-heavy churn: schedule 4, cancel 2, pop 1, repeat — the
    // timer-wheel-like pattern the per-request completion events produce.
    const ROUNDS: u64 = 1000;
    let churn = time_it(120, 9, || {
        let mut rng = SimRng::new(2);
        let mut q = acm_sim::event::EventQueue::new();
        let mut handles = Vec::with_capacity(4 * ROUNDS as usize);
        for i in 0..ROUNDS {
            for k in 0..4u64 {
                handles
                    .push(q.schedule(SimTime::from_micros(rng.next_u64() % 1_000_000), i * 4 + k));
            }
            let h = handles.len();
            q.cancel(handles[h - 2]);
            q.cancel(handles[h - 4]);
            black_box(q.pop());
        }
        while q.pop().is_some() {}
    });
    report.push(
        "event_queue_cancel_churn_ops_per_s",
        (7 * ROUNDS) as f64 / churn,
    );
}

/// The seed of `simulator_10k_events`: a 10k-deep self-scheduling chain.
fn simulator_workload(report: &mut Report) {
    const N: u64 = 10_000;
    let per_run = time_it(30, 9, || {
        let mut sim = Simulator::new(0u64);
        fn chain(s: &mut Simulator<u64>) {
            s.world += 1;
            if s.world < 10_000 {
                s.schedule_in(Duration::from_micros(10), chain);
            }
        }
        sim.schedule_at(SimTime::ZERO, chain);
        sim.run_to_completion(u64::MAX);
        black_box(sim.world);
    });
    report.push("simulator_10k_events_per_s", N as f64 / per_run);
}

/// One leader `POLICY()` evaluation at 16 regions.
fn policy_workload(report: &mut Report) {
    const N: usize = 16;
    let mut rng = SimRng::new(7);
    let prev = uniform_fractions(N);
    let rmttf: Vec<f64> = (0..N).map(|_| rng.uniform(100.0, 1000.0)).collect();
    let policy = LoadBalancingPolicy::new(PolicyKind::AvailableResources);
    let mut r = SimRng::new(9);
    let per_step = time_it(20_000, 9, || {
        black_box(policy.next_fractions(black_box(&prev), black_box(&rmttf), 100.0, &mut r));
    });
    report.push("policy_steps_per_s", 1.0 / per_step);
}

/// REP-Tree: training on a harvested database, then scalar vs batched
/// prediction over an era-sized block. Returns the batch-over-scalar
/// speedup (the `--batch-gate` number).
fn rep_tree_workload(report: &mut Report) -> f64 {
    let mut rng = SimRng::new(2016);
    let db = collect_database(
        &VmFlavor::m3_medium(),
        &AnomalyConfig::default(),
        &FailureSpec::default(),
        &CollectionConfig::default(),
        &mut rng,
    );
    let per_fit = time_it(4, 5, || {
        let mut r = SimRng::new(5);
        black_box(ModelKind::RepTree.fit(black_box(&db), &mut r));
    });
    report.push("rep_tree_train_per_s", 1.0 / per_fit);

    let mut r = SimRng::new(5);
    let AnyModel::RepTree(tree) = ModelKind::RepTree.fit(&db, &mut r) else {
        unreachable!("RepTree.fit returns a tree");
    };
    const ROWS: usize = 256;
    let rows: Vec<Vec<f64>> = (0..ROWS).map(|i| db.row(i % db.len()).to_vec()).collect();
    // Scalar baseline is the pre-overhaul API shape: one walk per row with a
    // collected result vector, the cost every per-era scoring pass used to pay.
    let scalar = time_it(2000, 9, || {
        let preds: Vec<f64> = rows
            .iter()
            .map(|row| tree.predict_one(black_box(row)))
            .collect();
        black_box(preds.iter().sum::<f64>());
    });
    let mut out = Vec::with_capacity(ROWS);
    let batch = time_it(2000, 9, || {
        tree.predict_batch_into(rows.iter().map(|v| v.as_slice()), &mut out);
        black_box(out.iter().sum::<f64>());
    });
    report.push("rep_tree_predict_scalar_rows_per_s", ROWS as f64 / scalar);
    report.push("rep_tree_predict_batch_rows_per_s", ROWS as f64 / batch);
    report.push("rep_tree_predict_batch_speedup", scalar / batch);
    scalar / batch
}

/// Thread-scaling curve of the execution pool over the two parallel
/// workloads this PR introduced: the per-seed training-set harvest
/// (`collect_database`, one task per `(lambda, run)`) and the per-family
/// toolchain fit. Sweeps `ACM_THREADS` ∈ {1, 2, 4, available} via
/// [`acm_exec::configure_threads`] and reports the speedup of each point
/// over the single-thread run. Returns the 4-thread harvest speedup (the
/// `--scaling-gate` number; `NaN` when the sweep never reaches 4 threads).
fn scaling_workload(report: &mut Report) -> f64 {
    let avail = acm_exec::available_threads();
    report.push("scaling_threads_available", avail as f64);
    let before = acm_exec::current_threads();
    let mut points = vec![1usize, 2, 4, avail];
    points.sort_unstable();
    points.dedup();

    let flavor = VmFlavor::m3_medium();
    let anomaly = AnomalyConfig::default();
    let failure = FailureSpec::default();
    let collection = CollectionConfig::default();
    let harvest = |threads: usize| {
        acm_exec::configure_threads(threads);
        time_it(2, 5, || {
            let mut rng = SimRng::new(2016);
            black_box(collect_database(
                &flavor,
                &anomaly,
                &failure,
                &collection,
                &mut rng,
            ));
        })
    };
    let mut rng = SimRng::new(2016);
    let db = collect_database(&flavor, &anomaly, &failure, &collection, &mut rng);
    let toolchain = acm_ml::toolchain::F2pmToolchain::default();
    let fit = |threads: usize| {
        acm_exec::configure_threads(threads);
        time_it(1, 3, || {
            let mut r = SimRng::new(5);
            black_box(toolchain.run(black_box(&db), &mut r));
        })
    };

    let mut harvest_base = f64::NAN;
    let mut fit_base = f64::NAN;
    let mut gate = f64::NAN;
    for &threads in &points {
        let h = harvest(threads);
        let f = fit(threads);
        if threads == 1 {
            harvest_base = h;
            fit_base = f;
        }
        report.push(&format!("scaling_harvest_{threads}t_per_s"), 1.0 / h);
        report.push(&format!("scaling_toolchain_fit_{threads}t_per_s"), 1.0 / f);
        report.push(
            &format!("scaling_harvest_speedup_{threads}t"),
            harvest_base / h,
        );
        report.push(
            &format!("scaling_toolchain_fit_speedup_{threads}t"),
            fit_base / f,
        );
        if threads == 4 {
            gate = harvest_base / h;
        }
    }
    acm_exec::configure_threads(before);
    gate
}

/// Thread-scaling curve of the model-selection inner loops this PR
/// parallelised: the REP-Tree tuning grid (9 candidates × 5 folds through
/// `tune_rep_tree`) and a standalone 8-fold cross-validation. Sweeps
/// `ACM_THREADS` ∈ {1, 2, 4, available} like [`scaling_workload`] and
/// reports per-point throughput plus the speedup over one thread. Returns
/// the 4-thread tuning-grid speedup (the `--cv-scaling-gate` number;
/// `NaN` when the sweep never reaches 4 threads).
fn cv_scaling_workload(report: &mut Report) -> f64 {
    let avail = acm_exec::available_threads();
    report.push("cv_scaling_threads_available", avail as f64);
    let before = acm_exec::current_threads();
    let mut points = vec![1usize, 2, 4, avail];
    points.sort_unstable();
    points.dedup();

    let mut rng = SimRng::new(2016);
    let db = collect_database(
        &VmFlavor::m3_medium(),
        &AnomalyConfig::default(),
        &FailureSpec::default(),
        &CollectionConfig::default(),
        &mut rng,
    );
    let grid = |threads: usize| {
        acm_exec::configure_threads(threads);
        time_it(2, 5, || {
            let mut r = SimRng::new(7);
            black_box(acm_ml::tuning::tune_rep_tree(black_box(&db), 5, &mut r));
        })
    };
    let folds = |threads: usize| {
        acm_exec::configure_threads(threads);
        time_it(4, 5, || {
            let mut r = SimRng::new(7);
            black_box(acm_ml::validate::cross_validate(
                acm_ml::model::ModelKind::RepTree,
                black_box(&db),
                8,
                &mut r,
            ));
        })
    };

    let mut grid_base = f64::NAN;
    let mut fold_base = f64::NAN;
    let mut gate = f64::NAN;
    for &threads in &points {
        let g = grid(threads);
        let f = folds(threads);
        if threads == 1 {
            grid_base = g;
            fold_base = f;
        }
        report.push(&format!("cv_grid_{threads}t_per_s"), 1.0 / g);
        report.push(&format!("cv_fold_{threads}t_per_s"), 1.0 / f);
        report.push(&format!("cv_grid_speedup_{threads}t"), grid_base / g);
        report.push(&format!("cv_fold_speedup_{threads}t"), fold_base / f);
        if threads == 4 {
            gate = grid_base / g;
        }
    }
    acm_exec::configure_threads(before);
    gate
}

/// Observability overhead on the 10k-event simulator chain, three ways:
/// default inert handles (never wired), handles wired against a disabled
/// `Obs` (the no-op mode), and a fully enabled `Obs` counting every queue
/// push/pop. Returns the (no-op, enabled) overheads in percent — the
/// numbers the `--obs-gate` CI check bounds at 2 % and 25 %.
fn obs_overhead_workload(report: &mut Report) -> (f64, f64) {
    const N: u64 = 10_000;
    const REPS: u32 = 32;
    const ROUNDS: usize = 31;
    fn chain(s: &mut Simulator<u64>) {
        s.world += 1;
        if s.world < 10_000 {
            s.schedule_in(Duration::from_micros(10), chain);
        }
    }
    fn run(obs: Option<&ObsHandle>) {
        let mut sim = Simulator::new(0u64);
        if let Some(o) = obs {
            sim.set_obs(o);
        }
        sim.schedule_at(SimTime::ZERO, chain);
        sim.run_to_completion(u64::MAX);
        black_box(sim.world);
    }
    fn timed(obs: Option<&ObsHandle>) -> f64 {
        let start = Instant::now();
        for _ in 0..REPS {
            run(obs);
        }
        start.elapsed().as_secs_f64() / REPS as f64
    }
    fn median(mut v: Vec<f64>) -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
        v[v.len() / 2]
    }
    fn min(v: &[f64]) -> f64 {
        v.iter().copied().fold(f64::INFINITY, f64::min)
    }

    // DVFS and scheduling drift dwarf a 2 % effect over a sequential
    // A-then-B measurement, so the rounds interleave the three variants.
    // Throughputs report the medians; the overhead ratios compare the
    // per-variant minima — interference only ever adds time, so the round
    // minimum is the robust estimate of the true cost.
    let noop = Obs::noop();
    let enabled = Obs::new(ObsConfig::default());
    for _ in 0..2 {
        run(None);
        run(Some(&noop));
        run(Some(&enabled));
    }
    let mut base_ts = Vec::with_capacity(ROUNDS);
    let mut noop_ts = Vec::with_capacity(ROUNDS);
    let mut enabled_ts = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        base_ts.push(timed(None));
        noop_ts.push(timed(Some(&noop)));
        enabled_ts.push(timed(Some(&enabled)));
    }

    let noop_pct = (min(&noop_ts) / min(&base_ts) - 1.0) * 100.0;
    let enabled_pct = (min(&enabled_ts) / min(&base_ts) - 1.0) * 100.0;
    report.push(
        "obs_baseline_chain_events_per_s",
        N as f64 / median(base_ts),
    );
    report.push("obs_noop_chain_events_per_s", N as f64 / median(noop_ts));
    report.push(
        "obs_enabled_chain_events_per_s",
        N as f64 / median(enabled_ts),
    );
    report.push("obs_noop_overhead_pct", noop_pct);
    report.push("obs_enabled_overhead_pct", enabled_pct);
    (noop_pct, enabled_pct)
}

/// Wall-clock of the Figure-3 experiment, end to end.
fn fig3_workload(report: &mut Report) {
    let cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 42);
    let per_run = time_it(3, 5, || {
        black_box(run_experiment(&cfg));
    });
    report.push("fig3_wall_clock_s", per_run);
}

fn main() {
    let flags = acm_bench::flags(
        "perf_report",
        &[
            "--obs-gate",
            "--batch-gate",
            "--scaling-gate",
            "--cv-scaling-gate",
        ],
    );
    let mut report = Report {
        entries: Vec::new(),
    };
    if flags.has("--obs-gate") {
        println!("observability overhead gate (10k-event chain)\n");
        let (noop_pct, enabled_pct) = obs_overhead_workload(&mut report);
        if noop_pct > 2.0 {
            eprintln!("\nFAIL: obs no-op overhead {noop_pct:.2}% exceeds the 2% budget");
            std::process::exit(1);
        }
        if enabled_pct > 25.0 {
            eprintln!("\nFAIL: obs enabled overhead {enabled_pct:.2}% exceeds the 25% budget");
            std::process::exit(1);
        }
        println!(
            "\nOK: obs no-op overhead {noop_pct:.2}% (budget 2%), enabled {enabled_pct:.2}% (budget 25%)"
        );
        return;
    }
    if flags.has("--batch-gate") {
        println!("REP-Tree batched-prediction gate\n");
        let speedup = rep_tree_workload(&mut report);
        if speedup < 1.0 {
            eprintln!("\nFAIL: batch prediction speedup {speedup:.3} is below 1.0");
            std::process::exit(1);
        }
        println!("\nOK: batch prediction speedup {speedup:.3} >= 1.0");
        return;
    }
    if flags.has("--scaling-gate") {
        println!("execution-pool scaling gate (training-set harvest)\n");
        let avail = acm_exec::available_threads();
        let speedup = scaling_workload(&mut report);
        if avail < 4 {
            println!("\nSKIP: scaling gate needs >= 4 cores, machine has {avail}");
            return;
        }
        if speedup < 3.0 {
            eprintln!("\nFAIL: 4-thread harvest speedup {speedup:.2} is below 3.0");
            std::process::exit(1);
        }
        println!("\nOK: 4-thread harvest speedup {speedup:.2} >= 3.0");
        return;
    }
    if flags.has("--cv-scaling-gate") {
        println!("model-selection scaling gate (tuning grid + k-fold CV)\n");
        let avail = acm_exec::available_threads();
        let speedup = cv_scaling_workload(&mut report);
        if avail < 4 {
            println!("\nSKIP: CV scaling gate needs >= 4 cores, machine has {avail}");
            return;
        }
        if speedup < 2.0 {
            eprintln!("\nFAIL: 4-thread tuning-grid speedup {speedup:.2} is below 2.0");
            std::process::exit(1);
        }
        println!("\nOK: 4-thread tuning-grid speedup {speedup:.2} >= 2.0");
        return;
    }

    println!("hot-path throughput report (fixed seeds, release build)\n");
    queue_workloads(&mut report);
    simulator_workload(&mut report);
    policy_workload(&mut report);
    rep_tree_workload(&mut report);
    obs_overhead_workload(&mut report);
    scaling_workload(&mut report);
    cv_scaling_workload(&mut report);
    fig3_workload(&mut report);

    let json = report.to_json();
    match std::fs::write("BENCH_PR4.json", &json) {
        Ok(()) => println!("\nwrote BENCH_PR4.json"),
        Err(e) => eprintln!("\nwarning: cannot write BENCH_PR4.json: {e}"),
    }
}
