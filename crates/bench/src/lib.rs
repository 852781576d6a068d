//! Shared harness code for the experiment and report binaries (`DESIGN.md`
//! §12 maps each to what it reproduces or gates):
//!
//! * paper figures — `fig3` (2-region hybrid, all three policies), `fig4`
//!   (3-region hybrid), `model_selection` (the F2PM ranking behind the
//!   REP-Tree choice);
//! * design-choice sweeps — `ablation_beta`, `ablation_k`,
//!   `ablation_heterogeneity`, `ablation_rejuvenation`,
//!   `ablation_predictor`, `ablation_balancer`, `extension_cost`,
//!   `seed_sweep`;
//! * gated reports, each writing one `BENCH_PRn.json` through [`Report`] —
//!   `chaos_report` (5), `mega_report` (6), `trace_report` (7),
//!   `router_report` (8), `model_report` (9), `chaos_sweep` (10);
//! * `perf_report` (`BENCH_PR4.json`, its own gate flags) and
//!   `obs_report` (event / metric JSONL of one run).
//!
//! Figure and sweep binaries write CSVs under `results/` and print a
//! qualitative-claim scorecard comparing the run against the paper's
//! reported shape.

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

/// The readings and gate verdicts of one gated report binary: printed as
/// they are taken, then written as one flat JSON object.
#[derive(Debug, Default)]
pub struct Report {
    entries: Vec<(String, f64)>,
    failures: Vec<String>,
}

impl Report {
    /// Records (and prints) one named reading.
    pub fn push(&mut self, name: &str, value: f64) {
        println!("{name:<52} {value:>14.3}");
        self.entries.push((name.to_string(), value));
    }

    /// Records (and prints) a gate violation unless `ok`.
    pub fn gate(&mut self, ok: bool, what: String) {
        if !ok {
            println!("  GATE VIOLATION: {what}");
            self.failures.push(what);
        }
    }

    /// The readings in the order taken, rounded to three decimals, then
    /// `gate_violations`.
    pub fn to_json(&self) -> String {
        let mut o = acm_obs::json::JsonObject::new();
        for (name, value) in &self.entries {
            o.field_f64(name, (value * 1000.0).round() / 1000.0);
        }
        o.field_u64("gate_violations", self.failures.len() as u64);
        let mut s = o.finish();
        s.push('\n');
        s
    }

    /// Writes the JSON to `path` and closes the run: `ok_line` when every
    /// gate held, otherwise the violations on stderr — and exit status 1
    /// when `enforce`.
    pub fn finish(self, path: &str, ok_line: &str, enforce: bool) {
        match fs::write(path, self.to_json()) {
            Ok(()) => println!("\nwrote {path}"),
            Err(e) => eprintln!("\nwarning: cannot write {path}: {e}"),
        }
        if self.failures.is_empty() {
            println!("{ok_line}");
            return;
        }
        eprintln!("\n{} gate violation(s):", self.failures.len());
        for f in &self.failures {
            eprintln!("  FAIL: {f}");
        }
        if enforce {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_keeps_order_rounds_and_counts_violations_last() {
        let mut r = Report::default();
        r.push("b_first", 1.23456);
        r.push("a_second", 2.0);
        r.gate(true, "held".into());
        r.gate(false, "broke".into());
        assert_eq!(
            r.to_json(),
            "{\"b_first\":1.235,\"a_second\":2,\"gate_violations\":1}\n"
        );
    }

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
