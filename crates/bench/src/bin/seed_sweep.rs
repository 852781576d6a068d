//! Statistical robustness of the headline figures: re-runs the Figure-3
//! and Figure-4 scenarios over many seeds and reports mean ± std of the
//! convergence metrics per policy — the paper shows single runs; this
//! verifies the conclusions are not seed luck.
//!
//! ```text
//! cargo run --release -p acm-bench --bin seed_sweep [n_seeds]
//! ```

use acm_core::config::{ExperimentConfig, PredictorChoice};
use acm_core::framework::run_experiment_with_obs;
use acm_core::policy::PolicyKind;
use acm_obs::{MetricValue, Obs, ObsConfig, ObsHandle};
use std::fs;

struct Agg {
    spreads: Vec<f64>,
    oscillations: Vec<f64>,
    responses: Vec<f64>,
    converged: usize,
}

fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

fn sweep(
    label: &str,
    make: impl Fn(PolicyKind, u64) -> ExperimentConfig + Sync,
    seeds: u64,
    rollup: &ObsHandle,
) -> String {
    println!("\n--- {label} ({seeds} seeds) ---");
    println!(
        "{:<28} {:>16} {:>16} {:>12} {:>12}",
        "policy", "spread μ±σ", "f-osc μ±σ", "resp ms μ", "converged"
    );
    let mut csv = String::new();
    for policy in PolicyKind::ALL {
        // Each run records into its own child hub; the children come back
        // in seed order (order-stable collect) and are merged in that
        // order, so the rollup is deterministic at any thread count.
        let runs: Vec<(f64, f64, f64, bool, ObsHandle)> =
            acm_exec::map_collect((0..seeds).collect(), |seed| {
                let cfg = make(policy, 1000 + seed);
                let obs = Obs::new(ObsConfig::default());
                let tel = run_experiment_with_obs(&cfg, obs.clone());
                let w = tel.eras() / 3;
                (
                    tel.rmttf_spread(w),
                    tel.fraction_oscillation(w),
                    tel.tail_response(w),
                    tel.convergence_era(1.25).is_some(),
                    obs,
                )
            });
        for (_, _, _, _, child) in &runs {
            rollup.merge_from(child);
        }
        let agg = Agg {
            spreads: runs.iter().map(|r| r.0).collect(),
            oscillations: runs.iter().map(|r| r.1).collect(),
            responses: runs.iter().map(|r| r.2).collect(),
            converged: runs.iter().filter(|r| r.3).count(),
        };
        let (sm, ss) = mean_std(&agg.spreads);
        let (om, os) = mean_std(&agg.oscillations);
        let (rm, _) = mean_std(&agg.responses);
        println!(
            "{:<28} {:>9.3}±{:<6.3} {:>9.4}±{:<6.4} {:>12.0} {:>9}/{}",
            policy.name(),
            sm,
            ss,
            om,
            os,
            rm * 1000.0,
            agg.converged,
            seeds
        );
        csv.push_str(&format!(
            "{label},{},{sm:.4},{ss:.4},{om:.5},{os:.5},{:.1},{}/{seeds}\n",
            policy.name(),
            rm * 1000.0,
            agg.converged
        ));
    }
    csv
}

fn main() {
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);

    let rollup = Obs::new(ObsConfig::default());
    let mut csv =
        String::from("scenario,policy,spread_mean,spread_std,osc_mean,osc_std,resp_ms,converged\n");
    csv += &sweep(
        "fig3 (2 regions, oracle)",
        |policy, seed| {
            let mut cfg = ExperimentConfig::two_region_fig3(policy, seed);
            cfg.predictor = PredictorChoice::Oracle;
            cfg
        },
        seeds,
        &rollup,
    );
    csv += &sweep(
        "fig4 (3 regions, oracle)",
        |policy, seed| {
            let mut cfg = ExperimentConfig::three_region_fig4(policy, seed);
            cfg.predictor = PredictorChoice::Oracle;
            cfg
        },
        seeds,
        &rollup,
    );

    // Cross-run observability rollup: counters summed over every run of
    // every policy, on `acm_exec::current_threads()` pool threads.
    println!(
        "\n--- observability rollup ({} threads) ---",
        acm_exec::current_threads()
    );
    let mut counters: Vec<(String, u64)> = rollup
        .metrics()
        .into_iter()
        .filter_map(|m| match m.value {
            MetricValue::Counter(v) if v > 0 => Some((m.name, v)),
            _ => None,
        })
        .collect();
    counters.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (name, v) in &counters {
        println!("{name:<44} {v:>14}");
    }

    if fs::create_dir_all("results").is_ok() {
        let _ = fs::write("results/seed_sweep.csv", csv);
        println!("\nwrote results/seed_sweep.csv");
        let _ = fs::write("results/seed_sweep_metrics.jsonl", rollup.metrics_jsonl());
        println!("wrote results/seed_sweep_metrics.jsonl");
    }
    println!("\nExpected: Policy 1's spread stays ≫ 1 on every seed; Policies 2/3");
    println!("converge on every seed, with Policy 2 the most stable.");
}
