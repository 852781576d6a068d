//! Regenerates the model-selection step behind Sec. VI-A: "Based on our
//! previous results in \[26\], we selected REP Tree as a ML model for
//! predicting the MTTF."
//!
//! Runs the full F2PM toolchain on feature databases harvested from every
//! flavor in the paper's testbed and prints the per-family validation
//! ranking (holdout) plus a 5-fold cross-validation for the top families.
//!
//! ```text
//! cargo run --release -p acm-bench --bin model_selection
//! ```

use acm_ml::model::ModelKind;
use acm_ml::toolchain::F2pmToolchain;
use acm_ml::validate::cross_validate;
use acm_obs::{MetricValue, Obs, ObsConfig};
use acm_pcam::training::{collect_database, CollectionConfig};
use acm_sim::rng::SimRng;
use acm_vm::{AnomalyConfig, FailureSpec, VmFlavor};
use std::fs;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2016);
    let mut rng = SimRng::new(seed);
    let mut all_output = String::new();
    let obs = Obs::new(ObsConfig::default());

    for flavor in [
        VmFlavor::m3_medium(),
        VmFlavor::m3_small(),
        VmFlavor::private_munich(),
    ] {
        println!("=== flavor {} ===", flavor.name);
        let db = collect_database(
            &flavor,
            &AnomalyConfig::default(),
            &FailureSpec::default(),
            &CollectionConfig::default(),
            &mut rng,
        );
        println!(
            "feature database: {} rows x {} features",
            db.len(),
            db.width()
        );

        let (_, report) = F2pmToolchain::default().run_with_obs(&db, &mut rng, &obs);
        println!("lasso selected: {}", report.selected_names.join(", "));
        println!("holdout ranking:");
        print!("{}", report.to_table());

        // Cross-validate the deployed family (REP-Tree) and the holdout
        // winner to show the choice is stable across folds.
        println!("5-fold CV (rmse mean ± std):");
        for kind in [report.best_kind(), ModelKind::RepTree] {
            let cv = cross_validate(kind, &db, 5, &mut rng);
            println!(
                "  {:<10} {:>9.2} ± {:<8.2} (R² {:.3})",
                kind.name(),
                cv.mean_rmse(),
                cv.rmse_std(),
                cv.mean_r2()
            );
        }
        println!();
        all_output.push_str(&format!("flavor,{}\n{}\n", flavor.name, report.to_table()));
    }

    // Where the training time went, across all three flavors: the
    // toolchain's per-phase timers (`acm.ml.toolchain.*`).
    println!("=== training-time breakdown (all flavors) ===");
    println!(
        "{:<14} {:>6} {:>12} {:>12}",
        "phase/family", "fits", "total_ms", "mean_ms"
    );
    let mut timer_rows = String::from("phase,count,total_ms,mean_ms\n");
    let mut sweeps_line = String::new();
    for m in obs.metrics() {
        let Some(short) = m.name.strip_prefix("acm.ml.toolchain.") else {
            continue;
        };
        let MetricValue::Histogram(h) = &m.value else {
            continue;
        };
        if short == "lasso_sweeps" {
            // Not a timer: reported on its own line below the table.
            sweeps_line = format!(
                "selection Lasso sweeps: mean {:.0}, max {} over {} fits",
                h.mean(),
                h.max,
                h.count
            );
            continue;
        }
        // `fit_ns.lasso` is the Lasso *family* fit; the bare `lasso_ns`
        // phase timer is feature selection — keep the labels distinct.
        let label = match short {
            "lasso_ns" => "selection".to_string(),
            "score_ns" => "scoring".to_string(),
            other => other
                .strip_prefix("fit_ns.")
                .unwrap_or(other.trim_end_matches("_ns"))
                .to_string(),
        };
        println!(
            "{:<14} {:>6} {:>12.1} {:>12.1}",
            label,
            h.count,
            h.sum as f64 / 1e6,
            h.mean() / 1e6
        );
        timer_rows.push_str(&format!(
            "{label},{},{:.3},{:.3}\n",
            h.count,
            h.sum as f64 / 1e6,
            h.mean() / 1e6
        ));
    }
    println!(
        "{sweeps_line}; stopped at the sweep cap: {}",
        obs.counter("acm.ml.toolchain.lasso_unconverged").value()
    );
    println!();

    if fs::create_dir_all("results").is_ok() {
        let _ = fs::write("results/model_selection.txt", &all_output);
        println!("wrote results/model_selection.txt");
        let _ = fs::write("results/model_selection_timers.csv", &timer_rows);
        println!("wrote results/model_selection_timers.csv");
    }
    println!(
        "\nThe paper deploys REP-Tree (chosen in its earlier F2PM study [26]); the\n\
         framework honours that via PredictorChoice::Trained(ModelKind::RepTree).\n\
         On this simulated substrate the piecewise/kernel families (M5P, LS-SVM)\n\
         often edge it out on raw RMSE, while REP-Tree is the most fold-stable of\n\
         the top tier — see EXPERIMENTS.md for the discussion."
    );
}
