//! Property tests over the shrinker and the campaign determinism
//! contract, driving *real* experiment runs (Oracle predictor keeps a
//! 40-era case around ten milliseconds in debug).

use acm_chaos::shrink::candidates;
use acm_chaos::{
    build_case, case_from_parts, run_campaign, run_case, shrink_plan, CampaignConfig, Injection,
};
use acm_obs::{Obs, ObsConfig};
use acm_overlay::FaultPlan;
use proptest::prelude::*;

const LEAK: Injection = Injection::LeakFlow {
    region: 1,
    frac: 0.06,
};

/// Replays `plan` under the fixed case context and renders the verdict
/// canonically.
fn verdict_line(case_seed: u64, regions: usize, eras: usize, plan: &FaultPlan) -> String {
    run_case(&case_from_parts(
        case_seed,
        regions,
        eras,
        plan.clone(),
        LEAK,
    ))
    .line()
}

proptest! {
    /// Every candidate a shrink step can propose (`candidates`: each
    /// component dropped, each window narrowed, message chaos weakened)
    /// evaluates to the same verdict when replayed — the delta-debugging loop never acts on a
    /// flaky signal.
    #[test]
    fn shrink_step_evaluation_is_deterministic(
        seed in any::<u64>(),
        index in 0usize..3,
    ) {
        let cc = CampaignConfig {
            seed,
            injection: LEAK,
            ..CampaignConfig::default()
        };
        let case = build_case(&cc, index);
        let regions = case.cfg.regions.len();
        let plan = case.cfg.fault_plan.clone().expect("chaos case has a plan");
        for candidate in std::iter::once(plan.clone()).chain(candidates(&plan)) {
            let first = verdict_line(case.case_seed, regions, cc.eras, &candidate);
            let again = verdict_line(case.case_seed, regions, cc.eras, &candidate);
            prop_assert_eq!(first, again, "seed {:#x} index {}", seed, index);
        }
    }

    /// Shrinking a known-violating plan terminates (bounded attempts)
    /// at a plan that still violates, and never grows the plan.
    #[test]
    fn shrinking_a_violating_plan_terminates_still_violating(
        frac in 0.01f64..0.3,
    ) {
        // Campaign case 0 of the default seed deterministically
        // quarantines region 1, so any positive leak trips
        // quarantine_zero_flow (the committed corpus entry came from
        // exactly this case).
        let injection = Injection::LeakFlow { region: 1, frac };
        let cc = CampaignConfig {
            injection,
            ..CampaignConfig::default()
        };
        let case = build_case(&cc, 0);
        let regions = case.cfg.regions.len();
        let plan = case.cfg.fault_plan.clone().expect("chaos case has a plan");
        let mut still_violates = |p: &FaultPlan| {
            run_case(&case_from_parts(case.case_seed, regions, cc.eras, p.clone(), injection))
                .violations
                .iter()
                .any(|v| v.invariant == "quarantine_zero_flow")
        };
        prop_assert!(still_violates(&plan), "base case must violate (frac {frac})");
        let outcome = shrink_plan(&plan, &mut still_violates);
        prop_assert!(
            still_violates(&outcome.plan),
            "shrunk plan no longer violates (frac {frac})"
        );
        prop_assert!(outcome.plan.events.len() <= plan.events.len());
        prop_assert!(outcome.attempts < 2000, "shrink hit the attempt ceiling");
    }
}

/// A small campaign runs clean — no invariant violation, no crash, every
/// plan counted — and produces a byte-identical fingerprint at 1 and 4
/// worker threads (`chaos_sweep` runs the full-size campaign).
#[test]
fn campaign_fingerprint_is_identical_across_thread_widths() {
    let cc = CampaignConfig {
        plans: 12,
        ..CampaignConfig::default()
    };
    let before = acm_exec::current_threads();
    acm_exec::configure_threads(1);
    let seq = run_campaign(&cc, &Obs::new(ObsConfig::default()));
    acm_exec::configure_threads(4);
    let obs = Obs::new(ObsConfig::default());
    let par = run_campaign(&cc, &obs);
    acm_exec::configure_threads(before);
    assert_eq!(
        seq.fingerprint, par.fingerprint,
        "campaign fingerprints diverge between 1 and 4 threads"
    );
    assert_eq!(seq.verdicts.len(), 12);
    assert!(par.violating().is_empty(), "{}", par.fingerprint);
    assert_eq!(par.crashed(), 0, "{}", par.fingerprint);
    assert_eq!(obs.counter("acm.chaos.campaign.plans").value(), 12);
}
