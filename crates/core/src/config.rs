//! Experiment configuration, including the paper's exact deployments.
//!
//! Section VI-A of the paper defines the test-bed this module encodes:
//!
//! * **Region 1** — Amazon EC2 Ireland, 6 × `m3.medium`;
//! * **Region 2** — Amazon EC2 Frankfurt, 12 × `m3.small`;
//! * **Region 3** — private 32-core HP ProLiant in Munich, 4 × (2 vCPU,
//!   1 GB RAM, 4 GB disk) VMware guests;
//! * TPC-W emulated browsers, 10 % / 5 % anomaly injection, clients per
//!   region in `[16, 512]` and "significantly different in number";
//! * REP-Tree as the deployed MTTF predictor.
//!
//! `two_region_fig3` reproduces the Figure-3 deployment (Regions 1 + 3);
//! `three_region_fig4` the Figure-4 deployment (all three regions).

use crate::autoscale::AutoscaleConfig;
use crate::degrade::DegradationConfig;
use crate::policy::PolicyKind;
use crate::scenario::Scenario;
use acm_ml::model::ModelKind;
use acm_obs::ObsConfig;
use acm_overlay::{FaultPlan, NodeId};
use acm_pcam::{DriftConfig, LifecycleConfig, RegionConfig};
use acm_sim::time::Duration;
use acm_vm::VmFlavor;
use acm_workload::{ClientSchedule, RegionWorkload, TpcwMix};

/// How the VMCs obtain RTTF predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorChoice {
    /// Ground truth (perfect-prediction baseline and fast tests).
    Oracle,
    /// Train the given F2PM family per flavor on a freshly collected
    /// feature database before the run (the paper deploys REP-Tree).
    Trained(ModelKind),
}

/// One region of the deployment.
#[derive(Debug, Clone)]
pub struct RegionSpec {
    /// PCAM configuration of the region.
    pub region: RegionConfig,
    /// Client population attached to this region's load balancer.
    pub clients: ClientSchedule,
}

impl RegionSpec {
    /// The workload model for this region's clients.
    pub fn workload(&self) -> RegionWorkload {
        RegionWorkload::new(self.clients.clone())
    }
}

/// Complete description of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Run label (used in CSV output).
    pub name: String,
    /// The regions, index-aligned everywhere.
    pub regions: Vec<RegionSpec>,
    /// Inter-region overlay latencies `(i, j, one_way)`.
    pub latencies: Vec<(usize, usize, Duration)>,
    /// The policy under test.
    pub policy: PolicyKind,
    /// EWMA smoothing factor β of Eq. 1.
    pub beta: f64,
    /// Exploration step factor k (Policy 3).
    pub k: f64,
    /// Exploration jitter (Policy 3).
    pub exploration_noise: f64,
    /// Control-era length.
    pub era: Duration,
    /// Number of eras to run.
    pub eras: usize,
    /// Master seed.
    pub seed: u64,
    /// RTTF predictor choice.
    pub predictor: PredictorChoice,
    /// Autoscaling configuration.
    pub autoscale: AutoscaleConfig,
    /// Deterministic chaos schedule replayed against the overlay
    /// transport (link flaps, crashes, partitions, leader kills,
    /// per-message drop/delay). `None` keeps the chaos layer entirely
    /// out of the loop — telemetry is byte-identical to a build without
    /// it.
    pub fault_plan: Option<FaultPlan>,
    /// Leader-side graceful degradation (staleness quarantine, report
    /// retries, re-admission hysteresis). Disabled by default.
    pub degradation: DegradationConfig,
    /// Scripted runtime reconfigurations.
    pub scenario: Scenario,
    /// TPC-W interaction mix driven by the emulated browsers; scales the
    /// per-request service demand (ordering mixes hit the database harder).
    pub mix: TpcwMix,
    /// Observability configuration (spans, metrics, decision log). Defaults
    /// on-but-cheap; instruments never feed back into the simulation, so a
    /// run's telemetry is byte-identical with observability on or off.
    pub obs: ObsConfig,
    /// Per-region predictor-drift detector parameters. The defaults are
    /// the historical hard-coded values, so existing seeds replay
    /// byte-identically.
    pub drift: DriftConfig,
    /// Versioned model lifecycle (drift-triggered refits deployed
    /// two eras later, shadow evaluation, promote/rollback).
    /// Disabled by default — when off, the loop's RNG stream layout is
    /// unchanged from before the lifecycle existed.
    pub lifecycle: LifecycleConfig,
}

impl ExperimentConfig {
    /// Measured-ish one-way WAN latencies between the paper's sites.
    fn latency_ireland_frankfurt() -> Duration {
        Duration::from_millis(25)
    }
    fn latency_ireland_munich() -> Duration {
        Duration::from_millis(30)
    }
    fn latency_frankfurt_munich() -> Duration {
        Duration::from_millis(12)
    }

    /// Region 1 of the paper: EC2 Ireland, 6 × m3.medium (5 active + 1
    /// standby for PCAM's proactive takeover).
    pub fn region1_ireland() -> RegionConfig {
        let mut r = RegionConfig::new("ec2-ireland", VmFlavor::m3_medium(), 6, 5);
        r.vm_hour_usd = 0.073; // 2016 eu-west-1 m3.medium on-demand
        r
    }

    /// Region 2 of the paper: EC2 Frankfurt, 12 × m3.small (10 active).
    pub fn region2_frankfurt() -> RegionConfig {
        let mut r = RegionConfig::new("ec2-frankfurt", VmFlavor::m3_small(), 12, 10);
        r.vm_hour_usd = 0.047; // small instances, eu-central premium
        r
    }

    /// Region 3 of the paper: private Munich host, 4 VMware guests
    /// (3 active).
    pub fn region3_munich() -> RegionConfig {
        let mut r = RegionConfig::new("private-munich", VmFlavor::private_munich(), 4, 3);
        r.vm_hour_usd = 0.015; // amortised private hardware
        r
    }

    /// The Figure-3 deployment: Regions 1 and 3, heterogeneous client
    /// populations (448 vs 160 emulated browsers — both inside the paper's
    /// `[16, 512]` interval and "significantly different").
    pub fn two_region_fig3(policy: PolicyKind, seed: u64) -> Self {
        ExperimentConfig {
            name: format!("fig3-{policy}"),
            regions: vec![
                RegionSpec {
                    region: Self::region1_ireland(),
                    clients: ClientSchedule::Constant(448),
                },
                RegionSpec {
                    region: Self::region3_munich(),
                    clients: ClientSchedule::Constant(160),
                },
            ],
            latencies: vec![(0, 1, Self::latency_ireland_munich())],
            policy,
            beta: 0.8,
            k: 0.5,
            exploration_noise: 0.02,
            era: Duration::from_secs(30),
            eras: 120,
            seed,
            predictor: PredictorChoice::Trained(ModelKind::RepTree),
            autoscale: AutoscaleConfig::default(),
            fault_plan: None,
            degradation: DegradationConfig::default(),
            scenario: Scenario::none(),
            mix: TpcwMix::Shopping,
            obs: ObsConfig::default(),
            drift: DriftConfig::default(),
            lifecycle: LifecycleConfig::default(),
        }
    }

    /// The Figure-4 deployment: all three regions.
    pub fn three_region_fig4(policy: PolicyKind, seed: u64) -> Self {
        ExperimentConfig {
            name: format!("fig4-{policy}"),
            regions: vec![
                RegionSpec {
                    region: Self::region1_ireland(),
                    clients: ClientSchedule::Constant(384),
                },
                RegionSpec {
                    region: Self::region2_frankfurt(),
                    clients: ClientSchedule::Constant(96),
                },
                RegionSpec {
                    region: Self::region3_munich(),
                    clients: ClientSchedule::Constant(192),
                },
            ],
            latencies: vec![
                (0, 1, Self::latency_ireland_frankfurt()),
                (0, 2, Self::latency_ireland_munich()),
                (1, 2, Self::latency_frankfurt_munich()),
            ],
            policy,
            beta: 0.8,
            k: 0.5,
            exploration_noise: 0.02,
            era: Duration::from_secs(30),
            eras: 120,
            seed,
            predictor: PredictorChoice::Trained(ModelKind::RepTree),
            autoscale: AutoscaleConfig::default(),
            fault_plan: None,
            degradation: DegradationConfig::default(),
            scenario: Scenario::none(),
            mix: TpcwMix::Shopping,
            obs: ObsConfig::default(),
            drift: DriftConfig::default(),
            lifecycle: LifecycleConfig::default(),
        }
    }

    /// Overlay node id of region `i` (regions map 1:1 onto overlay nodes).
    pub fn node_of(i: usize) -> NodeId {
        NodeId(i as u32)
    }

    /// Sanity-checks the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.regions.is_empty() {
            return Err("need at least one region".into());
        }
        if !(0.0..=1.0).contains(&self.beta) {
            return Err(format!("beta out of range: {}", self.beta));
        }
        if !(self.k > 0.0 && self.k <= 1.0) {
            return Err(format!("k out of range: {}", self.k));
        }
        if self.eras == 0 {
            return Err("need at least one era".into());
        }
        if self.era.is_zero() {
            return Err("era must be positive".into());
        }
        for (a, b, _) in &self.latencies {
            if *a >= self.regions.len() || *b >= self.regions.len() {
                return Err(format!("latency endpoint out of range: ({a},{b})"));
            }
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate(self.regions.len() as u32, self.era)?;
        }
        self.autoscale.validate()?;
        self.degradation.validate()?;
        for spec in &self.regions {
            spec.region.flavor.validate()?;
            spec.region.anomaly.validate()?;
            spec.region.failure_spec.validate()?;
        }
        self.scenario.validate(self.regions.len())?;
        self.obs.validate()?;
        self.drift.validate()?;
        self.lifecycle.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acm_sim::time::SimTime;

    #[test]
    fn paper_deployments_validate() {
        for policy in PolicyKind::ALL {
            ExperimentConfig::two_region_fig3(policy, 1)
                .validate()
                .unwrap();
            ExperimentConfig::three_region_fig4(policy, 1)
                .validate()
                .unwrap();
        }
    }

    #[test]
    fn fig3_matches_the_paper_testbed() {
        let cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, 1);
        assert_eq!(cfg.regions.len(), 2);
        assert_eq!(cfg.regions[0].region.flavor.name, "m3.medium");
        assert_eq!(cfg.regions[0].region.total_vms, 6);
        assert_eq!(cfg.regions[1].region.flavor.name, "private-munich");
        assert_eq!(cfg.regions[1].region.total_vms, 4);
        // Client populations inside [16, 512] and markedly different.
        for spec in &cfg.regions {
            let n = spec.clients.population(SimTime::ZERO);
            assert!((16..=512).contains(&n));
        }
    }

    #[test]
    fn fig4_adds_frankfurt() {
        let cfg = ExperimentConfig::three_region_fig4(PolicyKind::Exploration, 1);
        assert_eq!(cfg.regions.len(), 3);
        assert_eq!(cfg.regions[1].region.flavor.name, "m3.small");
        assert_eq!(cfg.regions[1].region.total_vms, 12);
        assert_eq!(cfg.latencies.len(), 3);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::SensibleRouting, 1);
        cfg.beta = 2.0;
        assert!(cfg.validate().is_err());

        let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::SensibleRouting, 1);
        cfg.eras = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::SensibleRouting, 1);
        cfg.latencies = vec![(0, 7, Duration::from_millis(1))];
        assert!(cfg.validate().is_err());

        // Autoscale thresholds: inverted RMTTF marks, a NaN threshold, no
        // room to grow.
        let bad_autoscale: [fn(&mut AutoscaleConfig); 4] = [
            |a| a.rmttf_low_s = a.rmttf_high_s,
            |a| a.response_threshold_s = f64::NAN,
            |a| a.rmttf_high_s = f64::INFINITY,
            |a| a.max_vms = 0,
        ];
        for breaks in bad_autoscale {
            let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::SensibleRouting, 1);
            breaks(&mut cfg.autoscale);
            assert!(cfg.validate().is_err(), "{:?}", cfg.autoscale);
        }

        // A non-positive SLA bound would fail every healthy VM at t = 0.
        let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::SensibleRouting, 1);
        cfg.regions[1].region.failure_spec.sla_response_s = 0.0;
        assert!(cfg.validate().is_err());
    }
}
