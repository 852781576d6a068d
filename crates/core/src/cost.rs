//! Multi-cloud cost accounting (extension).
//!
//! The paper motivates heterogeneous multi-cloud deployments economically:
//! "different cloud providers offer various types of VMs at different
//! costs. Also, the cost of VMs of the same cloud provider may change
//! depending on the geographical region" (Sec. I) — but its evaluation
//! never prices the deployments. This module closes that loop: it
//! integrates each region's ACTIVE-VM series against its VM-hour price and
//! reports run cost, per-region breakdown and cost efficiency, enabling
//! the cost-aware policy extension
//! ([`crate::policy::PolicyKind::CostAwareResources`]) to be evaluated.

use crate::telemetry::ExperimentTelemetry;
use acm_sim::time::Duration;

/// Cost summary of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Per-region spend, USD, index-aligned with the telemetry regions.
    pub per_region_usd: Vec<f64>,
    /// Total spend, USD.
    pub total_usd: f64,
    /// Requests completed over the run.
    pub requests: u64,
    /// USD per million requests served.
    pub usd_per_mreq: f64,
}

/// Prices a finished run: Σ over eras of (active VMs × era × hourly price).
///
/// `vm_hour_usd` must be index-aligned with the telemetry's regions.
/// Standby and rejuvenating VMs are deliberately *not* billed — matching
/// the stop/start billing model the paper's spare-VM strategy assumes.
pub fn price_run(tel: &ExperimentTelemetry, vm_hour_usd: &[f64], era: Duration) -> CostReport {
    assert_eq!(
        vm_hour_usd.len(),
        tel.region_names().len(),
        "one price per region"
    );
    let era_hours = era.as_secs_f64() / 3600.0;
    let per_region_usd: Vec<f64> = vm_hour_usd
        .iter()
        .enumerate()
        .map(|(i, price)| {
            let vm_eras: f64 = tel.active_vms(i).values().sum();
            vm_eras * era_hours * price
        })
        .collect();
    let total_usd: f64 = per_region_usd.iter().sum();
    let requests = tel.total_completed();
    CostReport {
        per_region_usd,
        total_usd,
        requests,
        usd_per_mreq: if requests > 0 {
            total_usd / (requests as f64 / 1e6)
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::RegionEraRecord;
    use acm_sim::time::SimTime;

    fn record(active: usize, completed: u64) -> RegionEraRecord {
        RegionEraRecord {
            rmttf: 100.0,
            fraction: 0.5,
            response_s: 0.05,
            active_vms: active,
            proactive: 0,
            reactive: 0,
            completed,
        }
    }

    #[test]
    fn prices_active_vm_hours() {
        let mut tel = ExperimentTelemetry::new(vec!["a".into(), "b".into()]);
        // Two eras of 1800 s (0.5 h) each: region a runs 4 VMs, b runs 2.
        for e in 1..=2u64 {
            tel.record_era(
                SimTime::from_secs(e * 1800),
                &[record(4, 1000), record(2, 500)],
                0.05,
                10.0,
                0.0,
                0.0,
            );
        }
        let report = price_run(&tel, &[0.10, 0.02], Duration::from_secs(1800));
        // a: 4 VMs × 2 eras × 0.5 h × $0.10 = $0.40
        // b: 2 VMs × 2 eras × 0.5 h × $0.02 = $0.04
        assert!((report.per_region_usd[0] - 0.40).abs() < 1e-12);
        assert!((report.per_region_usd[1] - 0.04).abs() < 1e-12);
        assert!((report.total_usd - 0.44).abs() < 1e-12);
        assert_eq!(report.requests, 3000);
        assert!((report.usd_per_mreq - 0.44 / 0.003).abs() < 1e-9);
    }

    #[test]
    fn empty_run_costs_nothing() {
        let tel = ExperimentTelemetry::new(vec!["a".into()]);
        let report = price_run(&tel, &[1.0], Duration::from_secs(30));
        assert_eq!(report.total_usd, 0.0);
        assert_eq!(report.usd_per_mreq, 0.0);
    }

    #[test]
    #[should_panic(expected = "one price per region")]
    fn mismatched_prices_panic() {
        let tel = ExperimentTelemetry::new(vec!["a".into(), "b".into()]);
        let _ = price_run(&tel, &[1.0], Duration::from_secs(30));
    }
}
