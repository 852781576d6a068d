//! Golden bytes: the committed `results/fig{3,4}-<policy>.csv` are what
//! `run_experiment` produces at seed 2016 — `repro fig3` / `repro fig4`
//! write exactly `to_csv()` under `cfg.name`. Any change to training, the
//! control loop or the simulators that moves a single byte of the paper's
//! figures fails here, without having to regenerate `results/` by hand.

use acm::core::config::ExperimentConfig;
use acm::core::framework::run_experiment;
use acm::core::policy::PolicyKind;

macro_rules! golden {
    ($($name:literal),* $(,)?) => {
        [$(($name, include_str!(concat!("../results/", $name, ".csv")))),*]
    };
}

const GOLDEN: [(&str, &str); 6] = golden![
    "fig3-policy1-sensible-routing",
    "fig3-policy2-available-resources",
    "fig3-policy3-exploration",
    "fig4-policy1-sensible-routing",
    "fig4-policy2-available-resources",
    "fig4-policy3-exploration",
];

fn assert_matches_committed_csv(figure: fn(PolicyKind, u64) -> ExperimentConfig) {
    for policy in PolicyKind::ALL {
        let cfg = figure(policy, 2016);
        let (_, committed) = GOLDEN
            .iter()
            .find(|(name, _)| *name == cfg.name)
            .unwrap_or_else(|| panic!("no committed CSV for {}", cfg.name));
        let csv = run_experiment(&cfg).to_csv();
        assert!(
            csv == *committed,
            "results/{}.csv moved: first differing line {:?}",
            cfg.name,
            csv.lines()
                .zip(committed.lines())
                .position(|(a, b)| a != b)
                .map(|i| i + 1)
        );
    }
}

#[test]
fn fig3_csvs_are_byte_identical_to_results() {
    assert_matches_committed_csv(ExperimentConfig::two_region_fig3);
}

#[test]
fn fig4_csvs_are_byte_identical_to_results() {
    assert_matches_committed_csv(ExperimentConfig::three_region_fig4);
}
