//! Shared harness code for the paper binaries (`DESIGN.md` §12 maps each
//! to what it reproduces):
//!
//! * paper figures — `fig3` (2-region hybrid, all three policies), `fig4`
//!   (3-region hybrid), `model_selection` (the F2PM ranking behind the
//!   REP-Tree choice);
//! * design-choice sweeps — `ablation <sweep>` (A1–A6 and the cost
//!   extension E1) and `seed_sweep`;
//! * `obs_report` (event / metric / span JSONL and the era timeline of
//!   one run) and `chaos_sweep` (the chaos campaign as a model checker).
//!
//! Figure and sweep binaries write CSVs under `results/`; the figure
//! binaries also print a qualitative-claim scorecard comparing the run
//! against the paper's reported shape.

pub mod plot;

use acm_core::config::ExperimentConfig;
use acm_core::framework::run_experiment;
use acm_core::telemetry::ExperimentTelemetry;
use std::fs;
use std::path::{Path, PathBuf};

/// Where the regenerated figure data lands.
pub const RESULTS_DIR: &str = "results";

/// Runs one experiment and writes its telemetry CSV to
/// `results/<name>.csv`. Returns the telemetry for claim checking.
pub fn run_and_dump(cfg: &ExperimentConfig) -> ExperimentTelemetry {
    let tel = run_experiment(cfg);
    let dir = Path::new(RESULTS_DIR);
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {RESULTS_DIR}: {e}");
        return tel;
    }
    let path: PathBuf = dir.join(format!("{}.csv", cfg.name));
    match fs::write(&path, tel.to_csv()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    tel
}

/// One pass/fail line of the qualitative scorecard.
pub struct Claim {
    /// Claim id (e.g. "C2").
    pub id: &'static str,
    /// What the paper reports.
    pub statement: String,
    /// Whether this run reproduced it.
    pub holds: bool,
    /// The measured quantity backing the verdict.
    pub evidence: String,
}

impl Claim {
    /// Formats the scorecard line.
    pub fn line(&self) -> String {
        format!(
            "[{}] {} — {} ({})",
            if self.holds { "PASS" } else { "FAIL" },
            self.id,
            self.statement,
            self.evidence
        )
    }
}

/// Prints a scorecard and returns how many claims failed.
pub fn print_scorecard(claims: &[Claim]) -> usize {
    println!("\n--- qualitative claims vs paper ---");
    let mut failures = 0;
    for c in claims {
        println!("{}", c.line());
        if !c.holds {
            failures += 1;
        }
    }
    failures
}

/// Tail window used for steady-state statistics (last third of the run).
pub fn tail_window(tel: &ExperimentTelemetry) -> usize {
    (tel.eras() / 3).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_line_formats() {
        let c = Claim {
            id: "C1",
            statement: "x".into(),
            holds: true,
            evidence: "y".into(),
        };
        assert_eq!(c.line(), "[PASS] C1 — x (y)");
        let c = Claim { holds: false, ..c };
        assert!(c.line().starts_with("[FAIL]"));
    }
}
