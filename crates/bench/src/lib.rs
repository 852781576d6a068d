//! Shared harness code for the paper binaries: `repro` (every figure,
//! sweep and table under `results/`, see `DESIGN.md` §12), `obs_report`
//! (one traced run's JSONL and era timeline) and `chaos_sweep` (the chaos
//! campaign as a model checker). `repro` writes through [`write_results`]
//! and scores the figures against the paper with [`Claim`]s.

pub mod plot;

use acm_core::telemetry::ExperimentTelemetry;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Where the regenerated figure data lands.
pub const RESULTS_DIR: &str = "results";

/// Writes each `(file, contents)` into `dir`, creating it if missing, and
/// logs `wrote <dir>/<file>` to `log` after each write that succeeded.
/// Stops at the first failure; the error names the path it failed on.
pub fn write_results(
    dir: &Path,
    files: &[(String, String)],
    log: &mut impl Write,
) -> io::Result<()> {
    let named = |path: &Path, e: io::Error| {
        io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display()))
    };
    fs::create_dir_all(dir).map_err(|e| named(dir, e))?;
    for (file, contents) in files {
        let path = dir.join(file);
        fs::write(&path, contents).map_err(|e| named(&path, e))?;
        writeln!(log, "wrote {}", path.display())?;
    }
    Ok(())
}

/// One pass/fail line of the qualitative scorecard.
pub struct Claim {
    /// Claim id (e.g. "C2").
    pub id: &'static str,
    /// What the paper reports.
    pub statement: &'static str,
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
    for c in claims {
        println!("{}", c.line());
    }
    claims.iter().filter(|c| !c.holds).count()
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
            statement: "x",
            holds: true,
            evidence: "y".into(),
        };
        assert_eq!(c.line(), "[PASS] C1 — x (y)");
        let c = Claim { holds: false, ..c };
        assert!(c.line().starts_with("[FAIL]"));
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("acm-bench-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_every_file_and_logs_each_path() {
        let root = scratch_dir("write-ok");
        let dir = root.join(RESULTS_DIR);
        let files = [("a.csv", "x,y\n"), ("b.txt", "z")].map(|(f, c)| (f.into(), c.into()));
        let mut log = Vec::new();
        write_results(&dir, &files, &mut log).unwrap();
        assert_eq!(fs::read_to_string(dir.join("a.csv")).unwrap(), "x,y\n");
        assert_eq!(fs::read_to_string(dir.join("b.txt")).unwrap(), "z");
        let log = String::from_utf8(log).unwrap();
        assert_eq!(
            log,
            format!(
                "wrote {}\nwrote {}\n",
                dir.join("a.csv").display(),
                dir.join("b.txt").display()
            )
        );
        fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn a_results_path_that_is_a_file_is_an_error_and_logs_nothing() {
        let root = scratch_dir("write-err");
        let dir = root.join(RESULTS_DIR);
        fs::write(&dir, "not a directory").unwrap();
        let mut log = Vec::new();
        let err = write_results(&dir, &[("a.csv".into(), "x\n".into())], &mut log).unwrap_err();
        assert!(
            err.to_string().contains(&dir.display().to_string()),
            "{err}"
        );
        assert!(log.is_empty(), "logged {:?}", String::from_utf8_lossy(&log));
        assert_eq!(fs::read_to_string(&dir).unwrap(), "not a directory");
        fs::remove_dir_all(root).unwrap();
    }
}
