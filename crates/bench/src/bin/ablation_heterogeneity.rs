//! Ablation A3 (DESIGN.md §4): how much heterogeneity Policy 1 tolerates.
//!
//! The paper concludes Policy 1 "is more suitable for less-heterogeneous
//! environments". This sweep builds two-region deployments whose capacity
//! ratio grows from 1× (homogeneous) to 8× and measures the steady-state
//! RMTTF spread under Policies 1 and 2: Policy 1's spread should track the
//! heterogeneity (≈ √ratio at the fixed point) while Policy 2 stays at 1.
//!
//! ```text
//! cargo run --release -p acm-bench --bin ablation_heterogeneity
//! ```

use acm_core::config::{ExperimentConfig, PredictorChoice, RegionSpec};
use acm_core::framework::run_experiment;
use acm_core::policy::PolicyKind;
use acm_pcam::RegionConfig;
use acm_vm::VmFlavor;
use acm_workload::ClientSchedule;
use std::fs;

/// A two-region deployment whose region-B RAM is `1/ratio` of region-A's
/// (the memory budget drives the MTTF, so RAM ratio ≈ capacity ratio).
fn deployment(ratio: f64, policy: PolicyKind) -> ExperimentConfig {
    let flavor_a = VmFlavor::m3_medium();
    let mut flavor_b = VmFlavor::m3_medium();
    flavor_b.name = format!("m3.medium-shrunk-{ratio}x");
    // Shrink the anomaly budget, keeping baseline constant.
    let budget = flavor_a.ram_mb - flavor_a.baseline_resident_mb;
    flavor_b.ram_mb = flavor_a.baseline_resident_mb + budget / ratio;
    flavor_b.swap_mb = flavor_a.swap_mb / ratio;

    let mut cfg = ExperimentConfig::two_region_fig3(policy, 2016);
    cfg.name = format!("ablation-het-{ratio}-{policy}");
    cfg.predictor = PredictorChoice::Oracle;
    cfg.regions = vec![
        RegionSpec {
            region: RegionConfig::new("region-a", flavor_a, 5, 4),
            clients: ClientSchedule::Constant(256),
        },
        RegionSpec {
            region: RegionConfig::new("region-b", flavor_b, 5, 4),
            clients: ClientSchedule::Constant(128),
        },
    ];
    cfg
}

fn main() {
    let ratios = [1.0, 2.0, 4.0, 8.0];
    println!("Ablation A3 — capacity-ratio sweep, Policy 1 vs Policy 2\n");
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "ratio", "P1 spread", "P2 spread", "√ratio (theory)"
    );

    let mut csv = String::from("ratio,p1_spread,p2_spread,sqrt_ratio\n");
    let rows: Vec<(String, String)> = acm_exec::map_collect(ratios.iter().collect(), |&ratio| {
        let run = |policy| {
            let tel = run_experiment(&deployment(ratio, policy));
            let w = tel.eras() / 3;
            tel.rmttf_spread(w)
        };
        let p1 = run(PolicyKind::SensibleRouting);
        let p2 = run(PolicyKind::AvailableResources);
        (
            format!(
                "{:>8.1} {:>14.3} {:>14.3} {:>14.3}",
                ratio,
                p1,
                p2,
                ratio.sqrt()
            ),
            format!("{ratio},{p1:.4},{p2:.4},{:.4}\n", ratio.sqrt()),
        )
    });
    for (line, csv_line) in rows {
        println!("{line}");
        csv.push_str(&csv_line);
    }

    if fs::create_dir_all("results").is_ok() {
        let _ = fs::write("results/ablation_heterogeneity.csv", csv);
        println!("\nwrote results/ablation_heterogeneity.csv");
    }
    println!("\nPolicy 1's equilibrium RMTTF ratio grows like √(capacity ratio);");
    println!("Policy 2 holds the spread at ~1 regardless — the crossover that makes");
    println!("Policy 1 acceptable only for near-homogeneous deployments.");
}
