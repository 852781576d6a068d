//! Regenerates `results/`: `repro [target] [n]` runs one target of
//! [`TARGETS`], a bare `repro` runs them all in order.
//!
//! ```text
//! cargo run --release -p acm-bench --bin repro [-- fig3|fig4|models|seeds|beta|…|cost [n]]
//! ```
//!
//! Only a target's default `n` writes `results/`, which holds the
//! committed default run; any other `n` prints the same tables and writes
//! nothing. Bad input prints the usage line and exits 2; a failed write or
//! a failed figure claim exits 1.

mod paper;
mod sweeps;

use acm_bench::{write_results, RESULTS_DIR};
use std::path::Path;
use std::process::exit;

/// What a target leaves behind: the files it regenerates under `results/`
/// as `(file name, contents)`, and how many paper claims its run failed.
pub struct Outcome {
    pub files: Vec<(String, String)>,
    pub failed_claims: usize,
}

/// The seed of every committed run.
const SEED: u64 = 2016;

/// One target, run at its `n`.
type Target = fn(u64) -> Outcome;

/// The targets by name with their default `n` — a seed, or for `seeds` a
/// seed count; `None`: no `n`, the sweeps run at [`SEED`] — in the order a
/// bare `repro` runs them.
const TARGETS: [(&str, Option<u64>, Target); 11] = [
    ("fig3", Some(SEED), paper::fig3),
    ("fig4", Some(SEED), paper::fig4),
    ("models", Some(SEED), paper::models),
    ("seeds", Some(10), sweeps::seeds),
    ("beta", None, sweeps::beta),
    ("k", None, sweeps::k),
    ("heterogeneity", None, sweeps::heterogeneity),
    ("rejuvenation", None, sweeps::rejuvenation),
    ("predictor", None, sweeps::predictor),
    ("balancer", None, sweeps::balancer),
    ("cost", None, sweeps::cost),
];

/// `[target] [n]` → each target to run with its `n` and whether that `n`
/// is the default; `None` for an unknown target, an `n` that is not a
/// positive integer, or an `n` the target does not take.
fn parse(args: &[String]) -> Option<Vec<(Target, u64, bool)>> {
    let [name, n @ ..] = args else {
        let all = TARGETS
            .iter()
            .map(|&(_, d, run)| (run, d.unwrap_or(SEED), true));
        return Some(all.collect());
    };
    let &(_, default, run) = TARGETS.iter().find(|(t, ..)| t == name)?;
    match (n, default) {
        ([], d) => Some(vec![(run, d.unwrap_or(SEED), true)]),
        ([n], Some(d)) => {
            let n = n.parse().ok().filter(|&n| n > 0)?;
            Some(vec![(run, n, n == d)])
        }
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(runs) = parse(&args) else {
        let names: Vec<&str> = TARGETS.iter().map(|(name, ..)| *name).collect();
        eprintln!("usage: repro [{}] [n]", names.join("|"));
        exit(2);
    };
    let mut failed_claims = 0;
    for (run, n, default) in runs {
        let outcome = run(n);
        failed_claims += outcome.failed_claims;
        println!();
        if !default {
            println!("not written: {RESULTS_DIR}/ holds the default run");
        } else if let Err(e) = write_results(
            Path::new(RESULTS_DIR),
            &outcome.files,
            &mut std::io::stdout(),
        ) {
            eprintln!("error: {e}");
            exit(1);
        }
        println!();
    }
    exit(if failed_claims == 0 { 0 } else { 1 });
}
