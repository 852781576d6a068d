//! Ablation A2 (DESIGN.md §4): the Exploration policy's scaling factor `k`
//! (Eq. 6–9) and its jitter — how aggressive hill climbing trades
//! convergence speed against stability, the "intrinsic randomness" the
//! paper blames for Policy 3's noise.
//!
//! ```text
//! cargo run --release -p acm-bench --bin ablation_k
//! ```

use acm_core::config::{ExperimentConfig, PredictorChoice};
use acm_core::framework::run_experiment;
use acm_core::policy::PolicyKind;
use std::fs;

fn main() {
    let ks = [0.1, 0.25, 0.5, 0.75, 1.0];
    let noises = [0.0, 0.02, 0.1];
    println!("Ablation A2 — Policy 3 step factor k and exploration jitter (3 regions)\n");
    println!(
        "{:>6} {:>8} {:>10} {:>12} {:>12}",
        "k", "noise", "spread", "converged", "f-oscill."
    );

    let mut jobs = Vec::new();
    for &k in &ks {
        for &noise in &noises {
            jobs.push((k, noise));
        }
    }
    let mut csv = String::from("k,noise,spread,convergence_era,f_oscillation\n");
    let rows: Vec<(String, String)> =
        acm_exec::map_collect(jobs.iter().collect(), |&(k, noise)| {
            let mut cfg = ExperimentConfig::three_region_fig4(PolicyKind::Exploration, 2016);
            cfg.predictor = PredictorChoice::Oracle;
            cfg.k = k;
            cfg.exploration_noise = noise;
            cfg.name = format!("ablation-k-{k}-{noise}");
            let tel = run_experiment(&cfg);
            let w = tel.eras() / 3;
            let conv = tel
                .convergence_era(1.25)
                .map_or("never".to_string(), |e| e.to_string());
            (
                format!(
                    "{:>6.2} {:>8.2} {:>10.3} {:>12} {:>12.4}",
                    k,
                    noise,
                    tel.rmttf_spread(w),
                    conv,
                    tel.fraction_oscillation(w)
                ),
                format!(
                    "{},{},{:.4},{},{:.5}\n",
                    k,
                    noise,
                    tel.rmttf_spread(w),
                    conv,
                    tel.fraction_oscillation(w)
                ),
            )
        });
    for (line, csv_line) in rows {
        println!("{line}");
        csv.push_str(&csv_line);
    }

    if fs::create_dir_all("results").is_ok() {
        let _ = fs::write("results/ablation_k.csv", csv);
        println!("\nwrote results/ablation_k.csv");
    }
    println!("\nLarger k converges faster but amplifies jitter; heavy jitter alone can");
    println!("keep the system from settling — the paper's Sec. VI-B caveat on Policy 3.");
}
