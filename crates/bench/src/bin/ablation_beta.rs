//! Ablation A1 (DESIGN.md §4): the EWMA smoothing factor β of Eq. 1.
//!
//! Sweeps β over the Figure-4 scenario for every policy and reports the
//! steady-state RMTTF spread, fraction oscillation and convergence era —
//! showing the stability/reactivity trade-off the paper's Eq. 1 encodes.
//!
//! ```text
//! cargo run --release -p acm-bench --bin ablation_beta
//! ```

use acm_core::config::{ExperimentConfig, PredictorChoice};
use acm_core::framework::run_experiment;
use acm_core::policy::PolicyKind;
use std::fs;

fn main() {
    let betas = [0.1, 0.25, 0.5, 0.8, 1.0];
    println!("Ablation A1 — EWMA β sweep on the 3-region deployment (oracle predictor)\n");
    println!(
        "{:<28} {:>6} {:>10} {:>12} {:>12} {:>10}",
        "policy", "beta", "spread", "converged", "f-oscill.", "resp(ms)"
    );

    let mut csv = String::from("policy,beta,spread,convergence_era,f_oscillation,resp_ms\n");
    for policy in PolicyKind::ALL {
        // Parallel sweep: each β is an independent run.
        let rows: Vec<(f64, String, String)> =
            acm_exec::map_collect(betas.iter().collect(), |&beta| {
                let mut cfg = ExperimentConfig::three_region_fig4(policy, 2016);
                cfg.predictor = PredictorChoice::Oracle;
                cfg.beta = beta;
                cfg.name = format!("ablation-beta-{policy}-{beta}");
                let tel = run_experiment(&cfg);
                let w = tel.eras() / 3;
                let conv = tel
                    .convergence_era(1.25)
                    .map_or("never".to_string(), |e| e.to_string());
                let line = format!(
                    "{:<28} {:>6.2} {:>10.3} {:>12} {:>12.4} {:>10.0}",
                    policy.name(),
                    beta,
                    tel.rmttf_spread(w),
                    conv,
                    tel.fraction_oscillation(w),
                    tel.tail_response(w) * 1000.0
                );
                let csv_line = format!(
                    "{},{},{:.4},{},{:.5},{:.1}\n",
                    policy.name(),
                    beta,
                    tel.rmttf_spread(w),
                    conv,
                    tel.fraction_oscillation(w),
                    tel.tail_response(w) * 1000.0
                );
                (beta, line, csv_line)
            });
        for (_, line, csv_line) in rows {
            println!("{line}");
            csv.push_str(&csv_line);
        }
        println!();
    }
    if fs::create_dir_all("results").is_ok() {
        let _ = fs::write("results/ablation_beta.csv", csv);
        println!("wrote results/ablation_beta.csv");
    }
}
