//! `repro`'s argument and write rules, driven through the binary in a
//! fresh working directory: bad input exits 2 with the usage line and
//! writes nothing, a non-default `n` prints its tables but leaves
//! `results/` alone, the default run writes the committed bytes, and a
//! failed write exits 1 without claiming it wrote.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const TARGETS: [&str; 11] = [
    "fig3",
    "fig4",
    "models",
    "seeds",
    "beta",
    "k",
    "heterogeneity",
    "rejuvenation",
    "predictor",
    "balancer",
    "cost",
];

/// A fresh, empty working directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acm-repro-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `repro args` in `dir`.
fn repro(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("repro runs")
}

#[test]
fn bad_input_exits_2_with_the_usage_line_and_writes_nothing() {
    for args in [&["nosuch"][..], &["fig3", "abc"], &["seeds", "0"]] {
        let dir = scratch(&args.join("-"));
        let out = repro(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let usage = stderr
            .lines()
            .find(|l| l.starts_with("usage: repro"))
            .unwrap_or_else(|| panic!("{args:?}: no usage line in {stderr:?}"));
        for target in TARGETS {
            assert!(
                usage.contains(&format!("[{target}|")) || usage.contains(&format!("|{target}")),
                "{args:?}: usage line {usage:?} does not name {target}"
            );
        }
        assert!(out.stdout.is_empty(), "{args:?}: ran something");
        assert!(!dir.join("results").exists(), "{args:?}: created results/");
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn a_non_default_seed_count_prints_its_table_and_writes_nothing() {
    let dir = scratch("seeds-1");
    let out = repro(&dir, &["seeds", "1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("--- fig3 (2 regions, oracle) (1 seeds) ---"),
        "{stdout}"
    );
    assert!(stdout.contains("policy2-available-resources"), "{stdout}");
    assert!(
        stdout.contains("not written: results/ holds the default run"),
        "{stdout}"
    );
    assert!(!stdout.contains("wrote "), "{stdout}");
    assert!(!dir.join("results").exists(), "created results/");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn the_default_run_writes_the_committed_bytes() {
    let dir = scratch("default");
    let out = repro(&dir, &["heterogeneity"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("wrote results/ablation_heterogeneity.csv"),
        "{stdout}"
    );
    let committed = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/ablation_heterogeneity.csv"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("results/ablation_heterogeneity.csv")).unwrap(),
        std::fs::read_to_string(committed).unwrap()
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn a_failed_write_exits_1_naming_the_path_and_never_prints_wrote() {
    let dir = scratch("write-fails");
    std::fs::write(dir.join("results"), "not a directory").unwrap();
    let out = repro(&dir, &["heterogeneity"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("P1 spread"), "tables still print: {stdout}");
    assert!(!stdout.contains("wrote "), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot write results"), "{stderr}");
    std::fs::remove_dir_all(dir).unwrap();
}
