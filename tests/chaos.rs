//! Integration: the deterministic chaos layer and the leader's graceful
//! degradation, exercised through the whole stack — leader kills trigger
//! re-election, fault plans replay byte-identically at any thread width,
//! re-admission hysteresis keeps the plan from oscillating, and a flap
//! storm under message chaos rides on retries without a quarantine.

use acm::core::config::{ExperimentConfig, PredictorChoice};
use acm::core::framework::{run_experiment, run_experiment_with_obs};
use acm::core::policy::PolicyKind;
use acm::core::telemetry::ExperimentTelemetry;
use acm::core::DegradationConfig;
use acm::obs::{Obs, ObsConfig, Value};
use acm::overlay::{FaultPlan, NodeId};
use acm::sim::{Duration, SimTime};
use proptest::prelude::*;

/// The equal-RMTTF band: max/min ratio of 5-era-smoothed region RMTTFs.
const SPREAD_BAND: f64 = 1.35;
/// Eras a healed region may take to regain flow, and the live set to
/// re-enter the band, after the heal (or the kill).
const RECOVERY_BUDGET_ERAS: usize = 25;

fn oracle(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.predictor = PredictorChoice::Oracle;
    cfg
}

/// The tolerant regime: suspicion timeout past the staleness TTL, so
/// report age in eras rather than suspicion is what trips a quarantine.
fn ttl_suspicion_timeout() -> Duration {
    Duration::from_secs(150)
}

/// First era at or after `from` where the trailing-5-era mean RMTTFs of
/// the `live` regions sit within [`SPREAD_BAND`] of each other.
fn band_era(tel: &ExperimentTelemetry, live: &[usize], from: usize) -> Option<usize> {
    (from..tel.eras()).find(|&e| {
        let lo = e.saturating_sub(4);
        let window = e + 1 - lo;
        let means: Vec<f64> = live
            .iter()
            .map(|&j| tel.rmttf(j).values().skip(lo).take(window).sum::<f64>() / window as f64)
            .collect();
        let max = means.iter().fold(0.0_f64, |a, b| a.max(*b));
        let min = means.iter().fold(f64::INFINITY, |a, b| a.min(*b));
        min > 0.0 && max / min <= SPREAD_BAND
    })
}

#[test]
fn leader_kill_triggers_reelection_and_quarantines_the_dead_region() {
    let mut cfg = oracle(ExperimentConfig::three_region_fig4(
        PolicyKind::AvailableResources,
        2024,
    ));
    cfg.eras = 40;
    // Kill the initial leader (node 0) at era 10 and never recover it.
    cfg.fault_plan =
        Some(FaultPlan::scripted(11, Vec::new()).kill_leader_at(SimTime::from_secs(300)));
    cfg.degradation = DegradationConfig::enabled();
    let obs = Obs::new(ObsConfig::default());
    let tel = run_experiment_with_obs(&cfg, obs.clone());
    assert_eq!(tel.eras(), 40, "the loop must survive losing its leader");

    let events = obs.events_tail(usize::MAX);
    assert!(
        events.iter().any(|e| e.kind == "chaos.leader.kill"),
        "the kill must be logged"
    );
    // A new leader takes over in the same era the kill lands.
    let change = events
        .iter()
        .find(|e| e.kind == "leader.change")
        .expect("re-election after the leader kill");
    match change.field("leader") {
        Some(acm::obs::Value::U64(id)) => assert_ne!(*id, 0, "node 0 is dead; it cannot lead"),
        other => panic!("leader.change carries the new leader id, got {other:?}"),
    }
    // The dead region is quarantined and its flow goes to the survivors.
    assert!(
        events.iter().any(|e| e.kind == "region.quarantine"),
        "dead region must be quarantined"
    );
    let tail: Vec<f64> = tel.fraction(0).values().skip(30).collect();
    assert!(
        tail.iter().all(|v| *v == 0.0),
        "dead region still receives flow: {tail:?}"
    );
    let live_sum: f64 = (1..3).map(|j| tel.fraction(j).points()[35].value).sum();
    assert!(
        (live_sum - 1.0).abs() < 1e-9,
        "survivors must absorb the whole flow, got {live_sum}"
    );
    let band = band_era(&tel, &[1, 2], 10).map(|e| e - 10);
    assert!(
        band.is_some_and(|d| d <= RECOVERY_BUDGET_ERAS),
        "survivors reach the RMTTF band {band:?} eras after the kill"
    );
}

#[test]
fn readmission_hysteresis_prevents_plan_oscillation() {
    let (fail_era, heal_era) = (10, 20);
    // Both quarantine regimes: suspicion (default timeout, the first
    // fully-missed era trips) and the staleness TTL.
    for (suspicion_timeout, reason) in [
        (DegradationConfig::default().suspicion_timeout, "suspected"),
        (ttl_suspicion_timeout(), "stale"),
    ] {
        let mut cfg = oracle(ExperimentConfig::two_region_fig3(
            PolicyKind::AvailableResources,
            77,
        ));
        cfg.eras = 45;
        // Partition region 1 for ten eras; on top, drop 5% of control
        // messages so the report-retry path is exercised the whole run.
        cfg.fault_plan = Some(
            FaultPlan::scripted(9, Vec::new())
                .partition_window(
                    vec![NodeId(1)],
                    SimTime::from_secs(fail_era as u64 * 30),
                    SimTime::from_secs(heal_era as u64 * 30),
                )
                .with_message_chaos(0.05, Duration::from_millis(40)),
        );
        cfg.degradation = DegradationConfig {
            suspicion_timeout,
            ..DegradationConfig::enabled()
        };
        let obs = Obs::new(ObsConfig::default());
        let tel = run_experiment_with_obs(&cfg, obs.clone());

        let events = obs.events_tail(usize::MAX);
        let quarantines: Vec<_> = events
            .iter()
            .filter(|e| e.kind == "region.quarantine")
            .collect();
        let readmits = events.iter().filter(|e| e.kind == "region.readmit");
        // One outage, one quarantine, one re-admission — message chaos
        // plus hysteresis must not produce extra health transitions.
        assert_eq!(
            quarantines.len(),
            1,
            "{reason}: no oscillation into quarantine"
        );
        assert_eq!(readmits.count(), 1, "{reason}: exactly one re-admission");
        assert!(
            quarantines[0].fields.contains(&(reason, Value::Bool(true))),
            "quarantine not driven by `{reason}`: {:?}",
            quarantines[0].fields
        );
        // Zero flow while unreachable. The staleness TTL admits up to
        // three stale eras before quarantine, so the window starts at
        // fail + 4 to cover both regimes.
        let f1: Vec<f64> = tel.fraction(1).values().collect();
        let cut = &f1[fail_era + 4..heal_era];
        assert!(
            cut.iter().all(|v| *v == 0.0),
            "{reason}: flow while cut: {cut:?}"
        );
        // Once re-admitted, the region keeps its flow: the fraction series
        // never collapses back to zero after its post-heal recovery.
        let readmit = f1[heal_era..]
            .iter()
            .position(|v| *v > 0.0)
            .expect("region 1 regains flow after the heal");
        let band = band_era(&tel, &[0, 1], heal_era).map(|e| e - heal_era);
        assert!(
            readmit <= RECOVERY_BUDGET_ERAS && band.is_some_and(|d| d <= RECOVERY_BUDGET_ERAS),
            "{reason}: readmit {readmit} and RMTTF band {band:?} eras after the heal"
        );
        let after = &f1[heal_era + readmit..];
        assert!(
            after.iter().all(|v| *v > 0.0),
            "{reason}: flow flapped: {after:?}"
        );
    }
}

/// Two single-era link flaps plus 10 % message drop under the tolerant
/// (TTL) regime: the retry path and the staleness TTL absorb all of it
/// without one spurious quarantine, and the run ends balanced.
#[test]
fn flap_storm_rides_on_retries_without_a_quarantine() {
    let mut cfg = oracle(ExperimentConfig::two_region_fig3(
        PolicyKind::AvailableResources,
        2025,
    ));
    cfg.eras = 60;
    let at = SimTime::from_secs;
    cfg.fault_plan = Some(
        FaultPlan::scripted(7, Vec::new())
            .link_flap(NodeId(0), NodeId(1), at(450), at(480))
            .link_flap(NodeId(0), NodeId(1), at(1050), at(1080))
            .with_message_chaos(0.10, Duration::from_millis(25)),
    );
    cfg.degradation = DegradationConfig {
        suspicion_timeout: ttl_suspicion_timeout(),
        ..DegradationConfig::enabled()
    };
    let obs = Obs::new(ObsConfig::default());
    let tel = run_experiment_with_obs(&cfg, obs.clone());

    let retries = obs.counter("acm.core.report.retries").value();
    assert!(retries > 0, "the retry path was never exercised");
    let events = obs.events_tail(usize::MAX);
    assert!(
        events.iter().all(|e| e.kind != "region.quarantine"),
        "spurious quarantine"
    );
    let spread = tel.rmttf_spread(10);
    assert!(spread <= SPREAD_BAND, "tail spread {spread} above the band");
}

proptest! {
    /// The determinism contract of the chaos layer: a fixed plan and seed
    /// replays byte-identically — telemetry and the decision log — no
    /// matter how many worker threads execute the run.
    #[test]
    fn fault_plans_replay_byte_identically_across_thread_widths(seed in 0u64..24) {
        let run = || {
            let mut cfg = oracle(ExperimentConfig::two_region_fig3(
                PolicyKind::AvailableResources,
                900 + seed,
            ));
            cfg.eras = 8;
            cfg.fault_plan = Some(
                FaultPlan::randomized(
                    seed,
                    &[NodeId(0), NodeId(1)],
                    &[(NodeId(0), NodeId(1))],
                    SimTime::from_secs(240),
                    1.0,
                )
                .with_message_chaos(0.10, Duration::from_millis(25)),
            );
            cfg.degradation = DegradationConfig::enabled();
            let obs = Obs::new(ObsConfig::default());
            let tel = run_experiment_with_obs(&cfg, obs.clone());
            (tel.to_csv(), obs.events_jsonl())
        };
        let before = acm::exec::current_threads();
        acm::exec::configure_threads(1);
        let sequential = run();
        acm::exec::configure_threads(4);
        let parallel = run();
        acm::exec::configure_threads(before);
        prop_assert_eq!(sequential.0, parallel.0, "telemetry diverged");
        prop_assert_eq!(sequential.1, parallel.1, "decision log diverged");
    }
}

#[test]
fn scripted_crash_window_recovers_end_to_end() {
    // A slave region crashes for eight eras and comes back; with
    // degradation the run re-converges to a balanced plan.
    let mut cfg = oracle(ExperimentConfig::two_region_fig3(
        PolicyKind::AvailableResources,
        501,
    ));
    cfg.eras = 60;
    cfg.fault_plan = Some(FaultPlan::scripted(3, Vec::new()).crash_window(
        NodeId(1),
        SimTime::from_secs(360),
        SimTime::from_secs(600),
    ));
    cfg.degradation = DegradationConfig::enabled();
    let tel = run_experiment(&cfg);
    assert_eq!(tel.eras(), 60);
    assert!(tel.total_completed() > 50_000);
    // The tail of the run is balanced again (equal-RMTTF band).
    assert!(
        tel.rmttf_spread(10) < 1.35,
        "spread {}",
        tel.rmttf_spread(10)
    );
    let f1_tail = tel.fraction(1).points()[55].value;
    assert!(f1_tail > 0.0, "healed region ends the run with zero flow");
}
