//! Intra-region load balancing.
//!
//! "All the requests issued by remote clients of the system are directed to
//! VMC, which hosts a load balancer. The goal of this component is to
//! balance the load associated to client requests to VMs in the ACTIVE
//! state" (paper Sec. III). At the era grain, balancing assigns each ACTIVE
//! VM a share of the region's arrival rate.

use acm_sim::weights::WeightTable;
use acm_vm::Vm;

/// How the VMC spreads the region's request rate over its ACTIVE VMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BalancerStrategy {
    /// Every active VM gets the same share (round-robin in the limit).
    #[default]
    EqualShare,
    /// Shares proportional to each VM's remaining health (its ground-truth
    /// or predicted RTTF): healthier VMs absorb more load. This is the
    /// intra-region analogue of the paper's inter-region sensible routing.
    HealthWeighted,
    /// Shares proportional to each VM's current effective service rate:
    /// degraded VMs are relieved.
    CapacityWeighted,
}

impl BalancerStrategy {
    /// Stable display name (metric labels and the decision log).
    pub fn name(self) -> &'static str {
        match self {
            BalancerStrategy::EqualShare => "equal-share",
            BalancerStrategy::HealthWeighted => "health-weighted",
            BalancerStrategy::CapacityWeighted => "capacity-weighted",
        }
    }

    /// Writes one share per VM of `vms` into `out` (cleared first; the
    /// shares sum to 1, and `out` stays empty when `vms` is).
    ///
    /// `rttf_of` supplies the health signal for [`BalancerStrategy::HealthWeighted`]; it is a
    /// closure so callers can plug either the ground truth or the ML
    /// prediction without the balancer knowing which. Normalisation runs
    /// through [`WeightTable::normalize`], the same primitive the routed
    /// plane's request router samples from.
    pub fn shares<'a, I, F>(self, vms: I, rttf_of: F, out: &mut Vec<f64>)
    where
        I: IntoIterator<Item = &'a Vm>,
        F: Fn(&Vm) -> f64,
    {
        out.clear();
        let vms = vms.into_iter();
        match self {
            BalancerStrategy::EqualShare => out.extend(vms.map(|_| 1.0)),
            BalancerStrategy::HealthWeighted => {
                out.extend(vms.map(|vm| rttf_of(vm).clamp(1e-6, 1e9)))
            }
            BalancerStrategy::CapacityWeighted => out.extend(vms.map(|vm| {
                acm_vm::service::effective_service_rate(
                    vm.flavor(),
                    vm.anomaly_config(),
                    vm.anomaly(),
                )
                .max(1e-6)
            })),
        }
        if !out.is_empty() {
            WeightTable::normalize(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acm_sim::rng::SimRng;
    use acm_sim::time::{Duration, SimTime};
    use acm_vm::{AnomalyConfig, FailureSpec, Vm, VmFlavor, VmId, VmState};

    fn mk_vm(id: u32, seed: u64) -> Vm {
        Vm::new(
            VmId(id),
            VmFlavor::m3_medium(),
            AnomalyConfig::default(),
            FailureSpec::default(),
            VmState::Active,
            SimRng::new(seed),
        )
    }

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    fn shares_of(strat: BalancerStrategy, vms: &[&Vm], rttf_of: impl Fn(&Vm) -> f64) -> Vec<f64> {
        let mut out = vec![f64::NAN; 7];
        strat.shares(vms.iter().copied(), rttf_of, &mut out);
        out
    }

    #[test]
    fn equal_share_is_uniform() {
        let vms = [mk_vm(0, 1), mk_vm(1, 2), mk_vm(2, 3)];
        let refs: Vec<&Vm> = vms.iter().collect();
        let s = shares_of(BalancerStrategy::EqualShare, &refs, |v| v.true_rttf(10.0));
        assert_eq!(s, vec![1.0 / 3.0; 3]);
    }

    #[test]
    fn shares_sum_to_one_for_all_strategies() {
        let mut vms = [mk_vm(0, 1), mk_vm(1, 2), mk_vm(2, 3)];
        // Age one VM so weights differ.
        vms[0].process_era(t0(), Duration::from_secs(120), 20.0);
        let refs: Vec<&Vm> = vms.iter().collect();
        for strat in [
            BalancerStrategy::EqualShare,
            BalancerStrategy::HealthWeighted,
            BalancerStrategy::CapacityWeighted,
        ] {
            let s = shares_of(strat, &refs, |v| v.true_rttf(10.0));
            let total: f64 = s.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "{strat:?} sums to {total}");
            assert!(s.iter().all(|x| *x >= 0.0));
        }
    }

    #[test]
    fn health_weighted_favours_fresh_vms() {
        let mut vms = [mk_vm(0, 1), mk_vm(1, 2)];
        // Damage VM 0 heavily.
        for era in 0..6 {
            vms[0].process_era(SimTime::from_secs(era * 30), Duration::from_secs(30), 25.0);
        }
        let refs: Vec<&Vm> = vms.iter().collect();
        let s = shares_of(BalancerStrategy::HealthWeighted, &refs, |v| {
            v.true_rttf(10.0)
        });
        assert!(s[1] > s[0], "fresh VM should get more: {s:?}");
    }

    #[test]
    fn capacity_weighted_relieves_degraded_vms() {
        let mut vms = [mk_vm(0, 1), mk_vm(1, 2)];
        // Push VM 0 into swap so its service rate drops.
        for era in 0..12 {
            vms[0].process_era(SimTime::from_secs(era * 30), Duration::from_secs(30), 25.0);
            if !vms[0].is_active() {
                break;
            }
        }
        let refs: Vec<&Vm> = vms.iter().collect();
        let s = shares_of(BalancerStrategy::CapacityWeighted, &refs, |v| {
            v.true_rttf(10.0)
        });
        assert!(s[1] >= s[0], "degraded VM should get no more: {s:?}");
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let names: Vec<&str> = [
            BalancerStrategy::EqualShare,
            BalancerStrategy::HealthWeighted,
            BalancerStrategy::CapacityWeighted,
        ]
        .iter()
        .map(|s| s.name())
        .collect();
        assert_eq!(
            names,
            vec!["equal-share", "health-weighted", "capacity-weighted"]
        );
    }

    #[test]
    fn empty_vm_list_gives_empty_shares() {
        let refs: Vec<&Vm> = Vec::new();
        let s = shares_of(BalancerStrategy::EqualShare, &refs, |_| 1.0);
        assert!(s.is_empty());
    }

    #[test]
    fn infinite_rttf_is_clamped() {
        // A VM with zero load has infinite RTTF; shares must stay finite.
        let vms = [mk_vm(0, 1), mk_vm(1, 2)];
        let refs: Vec<&Vm> = vms.iter().collect();
        let s = shares_of(BalancerStrategy::HealthWeighted, &refs, |v| {
            v.true_rttf(0.0)
        });
        assert!(s.iter().all(|x| x.is_finite()));
        let total: f64 = s.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
