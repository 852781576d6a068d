//! Autoscaling under a client surge (paper Sec. V / Alg. 3): the client
//! population of region 1 quadruples mid-run; the VMC detects the predicted
//! response time crossing the threshold and ADDVMS fires, growing the pool.
//!
//! ```text
//! cargo run --release --example autoscaling_surge
//! ```

use acm::core::autoscale::AutoscaleConfig;
use acm::core::config::{ExperimentConfig, PredictorChoice};
use acm::core::framework::run_experiment;
use acm::core::policy::PolicyKind;
use acm::sim::SimTime;
use acm::workload::ClientSchedule;

fn main() {
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 42);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = 80;
    // Surge: region-1 clients jump 128 -> 512 at t = 10 min.
    cfg.regions[0].clients = ClientSchedule::Step {
        before: 128,
        after: 512,
        at: SimTime::from_secs(600),
    };
    cfg.regions[1].clients = ClientSchedule::Constant(96);
    cfg.autoscale = AutoscaleConfig {
        enabled: true,
        response_threshold_s: 0.25,
        // Grow whenever the surge pushes the regional MTTF below ~7 min —
        // the Sec. V "RMTTF becomes less than a given threshold" trigger.
        rmttf_low_s: 400.0,
        rmttf_high_s: 1e9, // never scale down in this drill
        cooldown_eras: 4,
        max_vms: 16,
    };

    let tel = run_experiment(&cfg);

    println!("client surge at era 20 (128 -> 512 browsers on region 1)\n");
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>10}",
        "era", "lambda", "active_r1", "active_r3", "resp(ms)"
    );
    for e in (0..tel.eras()).step_by(4) {
        println!(
            "{:>6} {:>10.1} {:>12} {:>12} {:>10.1}",
            e + 1,
            tel.global_lambda().points()[e].value,
            tel.active_vms(0).points()[e].value,
            tel.active_vms(1).points()[e].value,
            tel.global_response().points()[e].value * 1000.0,
        );
    }

    // Peak capacity per phase (the instantaneous count dips whenever a VM
    // is rejuvenating, so compare peaks, not endpoints).
    let peak = |from: usize, to: usize| -> f64 {
        tel.active_vms(0)
            .values()
            .take(to)
            .skip(from)
            .fold(0.0, f64::max)
    };
    let before = peak(0, 20);
    let after = peak(40, tel.eras());
    println!();
    println!("region-1 peak active VMs before surge : {before}");
    println!("region-1 peak active VMs after surge  : {after}");
    println!(
        "tail response                         : {:.0} ms",
        tel.tail_response(15) * 1000.0
    );
    assert!(after > before, "autoscaler should have grown the region");
}
