//! Chaos-campaign sweep: fault-plan fuzzing as a model checker.
//!
//! Runs a campaign of seed-randomized fault plans (flap storms,
//! partitions, crash windows, leader kills, message drop/delay) against
//! full Figure-3/Figure-4 deployments on the exec pool, evaluates the
//! machine-checked invariant catalogue over every era of every run, and
//! writes the numbers to `BENCH_PR10.json` at the repository root.
//!
//! ```text
//! cargo run --release -p acm-bench --bin chaos_sweep [-- --plans N] [--seed S] [--eras E] [--gate]
//! ```
//!
//! Four sections, each gated when `--gate` is set (any violation exits
//! nonzero):
//!
//! * **campaign** — every plan runs clean on main: zero invariant
//!   violations, zero crashed runs;
//! * **determinism** — the campaign fingerprint (canonical verdict
//!   lines) is byte-identical at 1 and 4 worker threads;
//! * **injection + shrink** — a test-only trace perturbation
//!   ([`Injection::LeakFlow`]) is caught by `quarantine_zero_flow`, the
//!   delta-debugging shrinker reduces the offending plan to a minimal
//!   still-violating reproducer, and the clean (uninjected) replay of
//!   that reproducer passes;
//! * **corpus** — every committed entry under `crates/chaos/corpus/`
//!   round-trips and verifies ([`CorpusEntry::verify`]).
//!
//! Unknown arguments are an error (usage + exit 2), so CI typos cannot
//! silently drop the gate.

use acm_bench::Report;
use acm_chaos::{
    case_from_parts, run_campaign, run_case, shrink_plan, CampaignConfig, CorpusEntry, Injection,
};
use acm_obs::{Obs, ObsConfig};
use std::time::Instant;

struct Args {
    plans: usize,
    seed: u64,
    eras: usize,
    gate: bool,
    emit_corpus: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos_sweep [--plans N] [--seed S] [--eras E] [--gate] [--emit-corpus PATH]\n\
         \n\
         --plans N          randomized fault plans per campaign (default 200)\n\
         --seed S           campaign master seed (default {:#x})\n\
         --eras E           eras per run (default 40)\n\
         --gate             exit nonzero on any gate violation\n\
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
        gate: false,
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
            "--gate" => args.gate = true,
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

/// Campaign + thread-width determinism: the full sweep runs at 1 and 4
/// workers and the two canonical fingerprints must match byte for byte.
fn campaign_sections(report: &mut Report, cc: &CampaignConfig) {
    let before = acm_exec::current_threads();

    acm_exec::configure_threads(1);
    let seq = run_campaign(cc, &Obs::new(ObsConfig::default()));

    acm_exec::configure_threads(4);
    let obs = Obs::new(ObsConfig::default());
    let started = Instant::now();
    let par = run_campaign(cc, &obs);
    let elapsed = started.elapsed().as_secs_f64();
    acm_exec::configure_threads(before);

    let violating = par.violating().len();
    let crashed = par.crashed();
    report.push("campaign_plans", par.verdicts.len() as f64);
    report.push("campaign_eras_per_plan", cc.eras as f64);
    report.push("campaign_plans_per_s", par.verdicts.len() as f64 / elapsed);
    report.push("campaign_violating_plans", violating as f64);
    report.push("campaign_crashed_plans", crashed as f64);
    report.gate(
        par.verdicts.len() == cc.plans,
        format!("campaign: ran {} of {} plans", par.verdicts.len(), cc.plans),
    );
    for v in par.violating().iter().chain(
        par.verdicts
            .iter()
            .filter(|v| v.crashed.is_some())
            .collect::<Vec<_>>()
            .iter(),
    ) {
        println!("  {}", v.line());
    }
    report.gate(
        violating == 0,
        format!("campaign: {violating} plan(s) violated an invariant"),
    );
    report.gate(crashed == 0, format!("campaign: {crashed} plan(s) crashed"));

    // Campaign counters from the obs layer (cross-check the wiring).
    let counted = obs
        .metrics()
        .iter()
        .find(|m| m.name == "acm.chaos.campaign.plans")
        .and_then(|m| match m.value {
            acm_obs::MetricValue::Counter(v) => Some(v),
            _ => None,
        })
        .unwrap_or(0);
    report.push("campaign_counter_plans", counted as f64);
    report.gate(
        counted == cc.plans as u64,
        format!(
            "campaign: acm.chaos.campaign.plans counted {counted}, expected {}",
            cc.plans
        ),
    );

    let identical = seq.fingerprint == par.fingerprint;
    report.push("determinism_1t_vs_4t_ok", f64::from(u8::from(identical)));
    report.gate(
        identical,
        "determinism: campaign fingerprints diverge between 1 and 4 threads".to_string(),
    );
}

/// Injection + shrink: arm a test-only flow leak over the first cases
/// until one trips `quarantine_zero_flow`, then shrink the offending
/// plan to a minimal reproducer and check both replay halves.
fn injection_shrink_section(report: &mut Report, cc: &CampaignConfig, emit: Option<&str>) {
    const INVARIANT: &str = "quarantine_zero_flow";
    let injection = Injection::LeakFlow {
        region: 1,
        frac: 0.05,
    };
    let mut injected = cc.clone();
    injected.injection = injection;

    let probe = cc.plans.min(32);
    let mut found = None;
    for index in 0..probe {
        let case = acm_chaos::build_case(&injected, index);
        let verdict = run_case(&case);
        if verdict.violations.iter().any(|v| v.invariant == INVARIANT) {
            found = Some((index, case));
            break;
        }
    }
    report.push("inject_caught", f64::from(u8::from(found.is_some())));
    let Some((index, case)) = found else {
        report.gate(
            false,
            format!("inject: leak-flow injection not caught in the first {probe} plans"),
        );
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
    let started = Instant::now();
    let outcome = shrink_plan(&plan, still_violates);
    let shrink_s = started.elapsed().as_secs_f64();
    report.push("shrink_events_before", plan.events.len() as f64);
    report.push("shrink_events_after", outcome.plan.events.len() as f64);
    report.push("shrink_steps", outcome.steps as f64);
    report.push("shrink_attempts", outcome.attempts as f64);
    report.push("shrink_seconds", shrink_s);
    report.gate(
        outcome.plan.events.len() <= plan.events.len(),
        "shrink: reproducer grew".to_string(),
    );
    report.gate(
        still_violates(&outcome.plan),
        "shrink: minimal reproducer no longer violates".to_string(),
    );

    let entry = CorpusEntry {
        name: format!("leak-flow-shrunk-{:016x}", case.case_seed),
        invariant: INVARIANT.to_string(),
        regions,
        eras: cc.eras,
        case_seed: case.case_seed,
        injection,
        plan: outcome.plan,
    };
    let round_trip = CorpusEntry::from_json(&entry.to_json());
    report.push(
        "shrink_entry_round_trip_ok",
        f64::from(u8::from(round_trip.as_ref() == Ok(&entry))),
    );
    report.gate(
        round_trip.as_ref() == Ok(&entry),
        "shrink: minimal reproducer does not round-trip through JSON".to_string(),
    );
    let verified = entry.verify();
    report.push(
        "shrink_entry_verify_ok",
        f64::from(u8::from(verified.is_ok())),
    );
    report.gate(
        verified.is_ok(),
        format!("shrink: reproducer entry fails verify: {verified:?}"),
    );
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
            Err(e) => report.gate(false, format!("shrink: cannot write {path}: {e}")),
        }
    }
}

/// Replays every committed corpus entry.
fn corpus_section(report: &mut Report) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../chaos/corpus");
    let mut names: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(e) => {
            report.push("corpus_entries", 0.0);
            report.gate(false, format!("corpus: cannot read {dir}: {e}"));
            return;
        }
    };
    names.sort();
    let mut ok = 0usize;
    for path in &names {
        let outcome = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| CorpusEntry::from_json(&s))
            .and_then(|entry| entry.verify().map(|()| entry.name));
        match outcome {
            Ok(name) => {
                println!("  corpus entry {name} replays as committed");
                ok += 1;
            }
            Err(e) => report.gate(false, format!("corpus: {}: {e}", path.display())),
        }
    }
    report.push("corpus_entries", names.len() as f64);
    report.push("corpus_verified", ok as f64);
    report.gate(
        !names.is_empty(),
        "corpus: no committed entries found".to_string(),
    );
}

fn main() {
    let args = parse_args();
    let cc = CampaignConfig {
        seed: args.seed,
        plans: args.plans,
        eras: args.eras,
        ..CampaignConfig::default()
    };
    let mut report = Report::default();

    println!(
        "chaos campaign sweep ({} plans, {} eras, seed {:#018x})\n",
        cc.plans, cc.eras, cc.seed
    );
    println!("campaign + thread-width determinism");
    campaign_sections(&mut report, &cc);
    println!("\ninjection + delta-debugging shrink");
    injection_shrink_section(&mut report, &cc, args.emit_corpus.as_deref());
    println!("\ncommitted reproducer corpus");
    corpus_section(&mut report);

    report.finish("BENCH_PR10.json", "all chaos gates hold", args.gate);
}
