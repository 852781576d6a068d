//! Extension E1 (DESIGN.md §4): pricing the paper's deployments and
//! evaluating the cost-aware policy.
//!
//! The paper's introduction motivates multi-cloud heterogeneity with VM
//! pricing but never evaluates it. This harness prices every policy's
//! Figure-4 run (2016-era on-demand rates: Ireland m3.medium $0.073/h,
//! Frankfurt m3.small $0.047/h, amortised private Munich $0.015/h) and
//! adds the cost-aware Policy-2 variant, which discounts each region's
//! resource estimate by its price.
//!
//! ```text
//! cargo run --release -p acm-bench --bin extension_cost
//! ```

use acm_core::config::{ExperimentConfig, PredictorChoice};
use acm_core::cost::price_run;
use acm_core::framework::run_experiment;
use acm_core::policy::PolicyKind;
use std::fs;

fn main() {
    println!("Extension E1 — run cost per policy (fig4 deployment, oracle, 1 h simulated)\n");
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "policy", "spread", "total $", "$ / Mreq", "f_munich", "resp(ms)"
    );

    let mut csv = String::from("policy,spread,total_usd,usd_per_mreq,f_munich,resp_ms\n");
    let rows: Vec<(String, String)> =
        acm_exec::map_collect(PolicyKind::EXTENDED.iter().collect(), |&policy| {
            let mut cfg = ExperimentConfig::three_region_fig4(policy, 2016);
            cfg.predictor = PredictorChoice::Oracle;
            cfg.name = format!("extension-cost-{policy}");
            let prices: Vec<f64> = cfg.regions.iter().map(|r| r.region.vm_hour_usd).collect();
            let tel = run_experiment(&cfg);
            let report = price_run(&tel, &prices, cfg.era);
            let w = tel.eras() / 3;
            let f_munich = tel.fraction(2).tail_stats(w).mean();
            (
                format!(
                    "{:<28} {:>10.3} {:>12.4} {:>12.3} {:>10.3} {:>10.0}",
                    policy.name(),
                    tel.rmttf_spread(w),
                    report.total_usd,
                    report.usd_per_mreq,
                    f_munich,
                    tel.tail_response(w) * 1000.0
                ),
                format!(
                    "{},{:.4},{:.4},{:.4},{:.4},{:.1}\n",
                    policy.name(),
                    tel.rmttf_spread(w),
                    report.total_usd,
                    report.usd_per_mreq,
                    f_munich,
                    tel.tail_response(w) * 1000.0
                ),
            )
        });
    for (line, csv_line) in rows {
        println!("{line}");
        csv.push_str(&csv_line);
    }

    if fs::create_dir_all("results").is_ok() {
        let _ = fs::write("results/extension_cost.csv", csv);
        println!("\nwrote results/extension_cost.csv");
    }
    println!("\nThe cost-aware variant pushes extra flow onto the cheap private region");
    println!("(higher f_munich) at some RMTTF-balance cost; since billing follows the");
    println!("ACTIVE VM census rather than the flow, total $ only moves when the shift");
    println!("changes rejuvenation/starvation behaviour — the interesting trade-off");
    println!("the paper's cost motivation leaves unexplored.");
}
