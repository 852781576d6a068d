//! Ablation A4 (DESIGN.md §4): the PCAM rejuvenation threshold.
//!
//! PCAM rejuvenates a VM when its predicted RTTF drops below a
//! user-established threshold. Too low and the predictor's misses become
//! reactive failures; too high and the region churns through rejuvenations
//! (wasted VM lifetime). This sweep quantifies that availability/churn
//! trade-off on the Figure-3 deployment with the REP-Tree predictor, where
//! prediction error is real.
//!
//! ```text
//! cargo run --release -p acm-bench --bin ablation_rejuvenation
//! ```

use acm_core::config::ExperimentConfig;
use acm_core::framework::run_experiment;
use acm_core::policy::PolicyKind;
use acm_sim::time::Duration;
use std::fs;

fn main() {
    let thresholds_s = [30u64, 60, 120, 240, 480];
    println!("Ablation A4 — RTTF rejuvenation threshold (fig3 deployment, REP-Tree)\n");
    println!(
        "{:>12} {:>10} {:>10} {:>12} {:>10}",
        "threshold(s)", "proactive", "reactive", "completed", "resp(ms)"
    );

    let mut csv = String::from("threshold_s,proactive,reactive,completed,resp_ms\n");
    let rows: Vec<(String, String)> = acm_exec::map_collect(thresholds_s.iter().collect(), |&th| {
        let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 2016);
        cfg.name = format!("ablation-rejuvenation-{th}");
        for spec in &mut cfg.regions {
            spec.region.rttf_threshold = Duration::from_secs(th);
        }
        let tel = run_experiment(&cfg);
        let w = tel.eras() / 3;
        (
            format!(
                "{:>12} {:>10} {:>10} {:>12} {:>10.0}",
                th,
                tel.total_proactive(),
                tel.total_reactive(),
                tel.total_completed(),
                tel.tail_response(w) * 1000.0
            ),
            format!(
                "{th},{},{},{},{:.1}\n",
                tel.total_proactive(),
                tel.total_reactive(),
                tel.total_completed(),
                tel.tail_response(w) * 1000.0
            ),
        )
    });
    for (line, csv_line) in rows {
        println!("{line}");
        csv.push_str(&csv_line);
    }

    if fs::create_dir_all("results").is_ok() {
        let _ = fs::write("results/ablation_rejuvenation.csv", csv);
        println!("\nwrote results/ablation_rejuvenation.csv");
    }
    println!("\nLow thresholds leave failures to reactive recovery (prediction misses");
    println!("arrive too late); high thresholds churn through healthy VM lifetime.");
}
