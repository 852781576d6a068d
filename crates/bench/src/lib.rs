//! Shared harness code for the figure-regeneration binaries.
//!
//! Every evaluation artefact of the paper has a binary here (see
//! `DESIGN.md` §4 for the index):
//!
//! * `fig3` — 2-region hybrid, all three policies (paper Figure 3),
//! * `fig4` — 3-region hybrid (paper Figure 4),
//! * `model_selection` — the F2PM model ranking behind the REP-Tree choice,
//! * `ablation_beta` / `ablation_k` / `ablation_heterogeneity` /
//!   `ablation_rejuvenation` — design-choice sweeps.
//!
//! Binaries write CSVs under `results/` and print a qualitative-claim
//! scorecard comparing the run against the paper's reported shape.

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

/// The boolean flags one report binary was started with.
#[derive(Debug, PartialEq, Eq)]
pub struct Flags(Vec<String>);

impl Flags {
    /// Whether `flag` was given (once or repeatedly).
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|f| f == flag)
    }
}

/// Checks every argument against `allowed`; the first unknown one is the
/// error, so a mistyped gate flag cannot run ungated.
fn parse_flags(allowed: &[&str], args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
    let given: Vec<String> = args.into_iter().collect();
    match given.iter().find(|a| !allowed.contains(&a.as_str())) {
        Some(unknown) => Err(unknown.clone()),
        None => Ok(Flags(given)),
    }
}

/// The process arguments checked against `allowed`: an unknown argument
/// prints the usage line of `bin` on stderr and exits with status 2.
pub fn flags(bin: &str, allowed: &[&str]) -> Flags {
    parse_flags(allowed, std::env::args().skip(1)).unwrap_or_else(|unknown| {
        eprintln!("{bin}: unknown argument {unknown:?}");
        let usage: Vec<String> = allowed.iter().map(|f| format!("[{f}]")).collect();
        eprintln!("usage: {bin} {}", usage.join(" "));
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_accept_known_and_repeated_and_reject_unknown() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let allowed = ["--gate", "--smoke"];

        let none = parse_flags(&allowed, args(&[])).unwrap();
        assert!(!none.has("--gate") && !none.has("--smoke"));

        let gate = parse_flags(&allowed, args(&["--gate"])).unwrap();
        assert!(gate.has("--gate") && !gate.has("--smoke"));

        let repeated = parse_flags(&allowed, args(&["--gate", "--smoke", "--gate"])).unwrap();
        assert!(repeated.has("--gate") && repeated.has("--smoke"));

        for bad in ["--gat", "-gate", "gate", "--gate=1", ""] {
            assert_eq!(
                parse_flags(&allowed, args(&["--gate", bad])),
                Err(bad.to_string())
            );
        }
        assert_eq!(
            parse_flags(&[], args(&["--gate"])),
            Err("--gate".to_string())
        );
    }

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
