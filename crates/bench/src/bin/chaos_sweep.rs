//! Chaos-campaign sweep: fault-plan fuzzing as a model checker.
//!
//! Runs a campaign of seed-randomized fault plans (flap storms,
//! partitions, crash windows, leader kills, message drop/delay) against
//! full Figure-3/Figure-4 deployments on the exec pool and evaluates the
//! machine-checked invariant catalogue over every era of every run.
//!
//! ```text
//! cargo run --release -p acm-bench --bin chaos_sweep [-- --plans N] [--seed S] [--eras E] [--emit-corpus PATH]
//! ```
//!
//! Three sections; any failure in one makes the exit status 1:
//!
//! * **campaign** — every plan runs clean: zero invariant violations,
//!   zero crashed runs (their verdict lines are printed), and
//!   `acm.chaos.campaign.plans` counts every plan;
//! * **injection + shrink** — a test-only trace perturbation
//!   ([`Injection::LeakFlow`]) is caught by `quarantine_zero_flow`, the
//!   delta-debugging shrinker reduces the offending plan to a minimal
//!   still-violating reproducer, and the clean (uninjected) replay of
//!   that reproducer passes;
//! * **corpus** — every committed entry under `crates/chaos/corpus/`
//!   round-trips and verifies ([`CorpusEntry::verify`]).
//!
//! The campaign fingerprint's identity across thread widths is a tier-1
//! test (`campaign_fingerprint_is_identical_across_thread_widths`).
//! Unknown arguments are an error (usage + exit 2).

use acm_chaos::{
    case_from_parts, run_campaign, run_case, shrink_plan, CampaignConfig, CorpusEntry, Injection,
};
use acm_obs::{Obs, ObsConfig};

struct Args {
    plans: usize,
    seed: u64,
    eras: usize,
    emit_corpus: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos_sweep [--plans N] [--seed S] [--eras E] [--emit-corpus PATH]\n\
         \n\
         --plans N          randomized fault plans per campaign (default 200)\n\
         --seed S           campaign master seed (default {:#x})\n\
         --eras E           eras per run (default 40)\n\
         --emit-corpus PATH write the shrunk minimal reproducer entry to PATH",
        CampaignConfig::default().seed
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let defaults = CampaignConfig::default();
    let mut args = Args {
        plans: defaults.plans,
        seed: defaults.seed,
        eras: defaults.eras,
        emit_corpus: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("chaos_sweep: {what} expects a value");
                usage()
            })
        };
        match arg.as_str() {
            "--plans" => match value("--plans").parse() {
                Ok(n) => args.plans = n,
                Err(_) => usage(),
            },
            "--seed" => {
                let raw = value("--seed");
                let parsed = raw
                    .strip_prefix("0x")
                    .map_or_else(|| raw.parse(), |hex| u64::from_str_radix(hex, 16));
                match parsed {
                    Ok(s) => args.seed = s,
                    Err(_) => usage(),
                }
            }
            "--eras" => match value("--eras").parse() {
                Ok(n) => args.eras = n,
                Err(_) => usage(),
            },
            "--emit-corpus" => args.emit_corpus = Some(value("--emit-corpus")),
            other => {
                eprintln!("chaos_sweep: unknown argument {other:?}");
                usage();
            }
        }
    }
    if args.plans == 0 || args.eras == 0 {
        eprintln!("chaos_sweep: --plans and --eras must be positive");
        usage();
    }
    args
}

/// Every plan of the campaign runs clean and is counted.
fn campaign_section(failures: &mut Vec<String>, cc: &CampaignConfig) {
    let obs = Obs::new(ObsConfig::default());
    let outcome = run_campaign(cc, &obs);
    let violating = outcome.violating();
    let crashed: Vec<_> = outcome
        .verdicts
        .iter()
        .filter(|v| v.crashed.is_some())
        .collect();
    for v in violating.iter().chain(&crashed) {
        println!("  {}", v.line());
    }
    println!(
        "  {} plans: {} violating, {} crashed",
        outcome.verdicts.len(),
        violating.len(),
        crashed.len()
    );
    if !violating.is_empty() {
        failures.push(format!(
            "campaign: {} plan(s) violated an invariant",
            violating.len()
        ));
    }
    if !crashed.is_empty() {
        failures.push(format!("campaign: {} plan(s) crashed", crashed.len()));
    }
    let counted = obs.counter("acm.chaos.campaign.plans").value();
    if outcome.verdicts.len() != cc.plans || counted != cc.plans as u64 {
        failures.push(format!(
            "campaign: ran {} and counted {counted} of {} plans",
            outcome.verdicts.len(),
            cc.plans
        ));
    }
}

/// Injection + shrink: arm a test-only flow leak over the first cases
/// until one trips `quarantine_zero_flow`, then shrink the offending
/// plan to a minimal reproducer and check both replay halves.
fn injection_shrink_section(failures: &mut Vec<String>, cc: &CampaignConfig, emit: Option<&str>) {
    const INVARIANT: &str = "quarantine_zero_flow";
    let injection = Injection::LeakFlow {
        region: 1,
        frac: 0.05,
    };
    let mut injected = cc.clone();
    injected.injection = injection;

    let probe = cc.plans.min(32);
    let found = (0..probe).find_map(|index| {
        let case = acm_chaos::build_case(&injected, index);
        let verdict = run_case(&case);
        let caught = verdict.violations.iter().any(|v| v.invariant == INVARIANT);
        caught.then_some((index, case))
    });
    let Some((index, case)) = found else {
        failures.push(format!(
            "inject: leak-flow injection not caught in the first {probe} plans"
        ));
        return;
    };
    println!("  injected case {index:04} tripped {INVARIANT}");

    let regions = case.cfg.regions.len();
    let plan = case.cfg.fault_plan.clone().expect("chaos case has a plan");
    let still_violates = |candidate: &acm_overlay::FaultPlan| {
        run_case(&case_from_parts(
            case.case_seed,
            regions,
            cc.eras,
            candidate.clone(),
            injection,
        ))
        .violations
        .iter()
        .any(|v| v.invariant == INVARIANT)
    };
    let outcome = shrink_plan(&plan, still_violates);
    println!(
        "  shrunk {} -> {} events in {} steps ({} attempts)",
        plan.events.len(),
        outcome.plan.events.len(),
        outcome.steps,
        outcome.attempts
    );
    if outcome.plan.events.len() > plan.events.len() {
        failures.push("shrink: reproducer grew".to_string());
    }
    if !still_violates(&outcome.plan) {
        failures.push("shrink: minimal reproducer no longer violates".to_string());
    }

    let entry = CorpusEntry {
        name: format!("leak-flow-shrunk-{:016x}", case.case_seed),
        invariant: INVARIANT.to_string(),
        regions,
        eras: cc.eras,
        case_seed: case.case_seed,
        injection,
        plan: outcome.plan,
    };
    if CorpusEntry::from_json(&entry.to_json()).as_ref() != Ok(&entry) {
        failures.push("shrink: minimal reproducer does not round-trip through JSON".to_string());
    }
    if let Err(e) = entry.verify() {
        failures.push(format!("shrink: reproducer entry fails verify: {e}"));
    }
    if let Some(path) = emit {
        // The entry name doubles as the file stem by convention.
        let mut named = entry;
        if let Some(stem) = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
        {
            named.name = stem.to_string();
        }
        match std::fs::write(path, named.to_json() + "\n") {
            Ok(()) => println!("  wrote corpus entry to {path}"),
            Err(e) => failures.push(format!("shrink: cannot write {path}: {e}")),
        }
    }
}

/// Replays every committed corpus entry.
fn corpus_section(failures: &mut Vec<String>) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../chaos/corpus");
    let mut names: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(e) => {
            failures.push(format!("corpus: cannot read {dir}: {e}"));
            return;
        }
    };
    names.sort();
    for path in &names {
        let outcome = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| CorpusEntry::from_json(&s))
            .and_then(|entry| entry.verify().map(|()| entry.name));
        match outcome {
            Ok(name) => println!("  corpus entry {name} replays as committed"),
            Err(e) => failures.push(format!("corpus: {}: {e}", path.display())),
        }
    }
    if names.is_empty() {
        failures.push("corpus: no committed entries found".to_string());
    }
}

fn main() {
    let args = parse_args();
    let cc = CampaignConfig {
        seed: args.seed,
        plans: args.plans,
        eras: args.eras,
        ..CampaignConfig::default()
    };
    let mut failures = Vec::new();

    println!(
        "chaos campaign sweep ({} plans, {} eras, seed {:#018x})\n",
        cc.plans, cc.eras, cc.seed
    );
    println!("campaign");
    campaign_section(&mut failures, &cc);
    println!("\ninjection + delta-debugging shrink");
    injection_shrink_section(&mut failures, &cc, args.emit_corpus.as_deref());
    println!("\ncommitted reproducer corpus");
    corpus_section(&mut failures);

    if failures.is_empty() {
        println!("\nall chaos checks hold");
        return;
    }
    eprintln!("\n{} failure(s):", failures.len());
    for f in &failures {
        eprintln!("  FAIL: {f}");
    }
    std::process::exit(1);
}
