//! The region's VM pool.
//!
//! Owns every VM replica of one cloud region and maintains the
//! ACTIVE/STANDBY invariant: the pool tries to keep `target_active` VMs
//! serving; standbys are promoted when actives rejuvenate or fail, and
//! rejuvenated VMs come back as standbys.

use acm_obs::{Counter, Gauge, ObsHandle};
use acm_sim::rng::SimRng;
use acm_sim::time::SimTime;
use acm_vm::{AnomalyConfig, FailureSpec, Vm, VmFlavor, VmId, VmSpec, VmState};
use std::sync::Arc;

/// Sentinel for "id not present" in the id → slot index.
const NO_SLOT: u32 = u32::MAX;

/// Pool statistics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolCounts {
    /// Serving VMs.
    pub active: usize,
    /// Healthy spares.
    pub standby: usize,
    /// VMs undergoing rejuvenation.
    pub rejuvenating: usize,
    /// VMs sitting in the failed state (not yet sent to rejuvenation).
    pub failed: usize,
}

impl PoolCounts {
    /// Total pool size.
    pub fn total(&self) -> usize {
        self.active + self.standby + self.rejuvenating + self.failed
    }
}

/// A region's VM pool.
#[derive(Debug, Clone)]
pub struct VmPool {
    vms: Vec<Vm>,
    target_active: usize,
    next_id: u32,
    /// Flavor, anomaly config and failure spec: one allocation every VM of
    /// the pool points to.
    spec: Arc<VmSpec>,
    rng: SimRng,
    /// `id.0` → slot in `vms` (`NO_SLOT` when absent), so VM lookup by id
    /// is O(1) instead of a linear scan.
    id_index: Vec<u32>,
    /// Lifecycle instrumentation; inert until [`VmPool::set_obs`].
    ctr_activations: Counter,
    ctr_demotions: Counter,
    ctr_rejuv_completed: Counter,
    /// Live ACTIVE/STANDBY/REJUV/FAILED census gauges, refreshed by
    /// [`VmPool::publish_gauges`] at control-era boundaries.
    g_active: Gauge,
    g_standby: Gauge,
    g_rejuvenating: Gauge,
    g_failed: Gauge,
}

impl VmPool {
    /// Builds a pool of `total` identical VMs, the first `target_active` of
    /// which start ACTIVE and the rest STANDBY.
    pub fn new(
        flavor: VmFlavor,
        anomaly_cfg: AnomalyConfig,
        failure_spec: FailureSpec,
        total: usize,
        target_active: usize,
        mut rng: SimRng,
    ) -> Self {
        assert!(total > 0, "pool must contain at least one VM");
        assert!(
            target_active > 0 && target_active <= total,
            "target_active must be in 1..=total"
        );
        let spec = Arc::new(VmSpec::new(flavor, anomaly_cfg, failure_spec));
        let vms = (0..total)
            .map(|i| {
                let state = if i < target_active {
                    VmState::Active
                } else {
                    VmState::Standby
                };
                Vm::with_spec(VmId(i as u32), spec.clone(), state, rng.split())
            })
            .collect();
        let mut pool = VmPool {
            vms,
            target_active,
            next_id: total as u32,
            spec,
            rng,
            id_index: Vec::new(),
            ctr_activations: Counter::default(),
            ctr_demotions: Counter::default(),
            ctr_rejuv_completed: Counter::default(),
            g_active: Gauge::default(),
            g_standby: Gauge::default(),
            g_rejuvenating: Gauge::default(),
            g_failed: Gauge::default(),
        };
        pool.rebuild_index();
        pool
    }

    /// Attaches observability: lifecycle transition counters
    /// (`acm.pcam.pool.activations` / `.demotions` /
    /// `.rejuvenations_completed`) and live pool-state gauges
    /// (`acm.pcam.pool.<region>.active` / `.standby` / `.rejuvenating` /
    /// `.failed`). The gauges are qualified by `region`, so multi-region
    /// deployments expose one live census per pool instead of
    /// last-writer-wins on a shared gauge; counters stay unqualified, since
    /// they aggregate meaningfully across regions. The gauges are seeded
    /// with the current census so they read correctly before the first
    /// control era.
    pub fn set_obs(&mut self, obs: &ObsHandle, region: &str) {
        self.ctr_activations = obs.counter("acm.pcam.pool.activations");
        self.ctr_demotions = obs.counter("acm.pcam.pool.demotions");
        self.ctr_rejuv_completed = obs.counter("acm.pcam.pool.rejuvenations_completed");
        let gauge = |metric: &str| obs.gauge(&format!("acm.pcam.pool.{region}.{metric}"));
        self.g_active = gauge("active");
        self.g_standby = gauge("standby");
        self.g_rejuvenating = gauge("rejuvenating");
        self.g_failed = gauge("failed");
        self.publish_gauges();
    }

    /// Pushes the current ACTIVE/STANDBY/REJUV/FAILED census into the
    /// pool-state gauges (no-op without [`VmPool::set_obs`]). Called once
    /// per control era rather than per transition.
    pub fn publish_gauges(&self) {
        let c = self.counts();
        self.g_active.set(c.active as f64);
        self.g_standby.set(c.standby as f64);
        self.g_rejuvenating.set(c.rejuvenating as f64);
        self.g_failed.set(c.failed as f64);
    }

    /// Rebuilds the id → slot map from scratch (construction and the rare
    /// operations that shift `vms`, i.e. [`VmPool::remove_standby`]).
    fn rebuild_index(&mut self) {
        let cap = self
            .vms
            .iter()
            .map(|v| v.id().0 as usize + 1)
            .max()
            .unwrap_or(0);
        self.id_index.clear();
        self.id_index.resize(cap, NO_SLOT);
        for (slot, vm) in self.vms.iter().enumerate() {
            self.id_index[vm.id().0 as usize] = slot as u32;
        }
    }

    fn slot_of(&self, id: VmId) -> Option<usize> {
        match self.id_index.get(id.0 as usize) {
            Some(&slot) if slot != NO_SLOT => Some(slot as usize),
            _ => None,
        }
    }

    /// The flavor every VM in this pool shares.
    pub fn flavor(&self) -> &VmFlavor {
        self.spec.flavor()
    }

    /// The failure spec in force.
    pub fn failure_spec(&self) -> &FailureSpec {
        self.spec.failure_spec()
    }

    /// The anomaly configuration in force.
    pub fn anomaly_config(&self) -> &AnomalyConfig {
        self.spec.anomaly_config()
    }

    /// Desired number of simultaneously ACTIVE VMs.
    pub fn target_active(&self) -> usize {
        self.target_active
    }

    /// Adjusts the desired active count (autoscaling). Clamped to pool size.
    pub fn set_target_active(&mut self, target: usize) {
        self.target_active = target.clamp(1, self.vms.len());
    }

    /// All VMs (read).
    pub fn vms(&self) -> &[Vm] {
        &self.vms
    }

    /// All VMs (write).
    pub fn vms_mut(&mut self) -> &mut [Vm] {
        &mut self.vms
    }

    /// VM lookup by id (O(1)).
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.slot_of(id).map(|slot| &self.vms[slot])
    }

    /// Mutable VM lookup by id (O(1)).
    pub fn vm_mut(&mut self, id: VmId) -> Option<&mut Vm> {
        self.slot_of(id).map(|slot| &mut self.vms[slot])
    }

    /// Current state census.
    pub fn counts(&self) -> PoolCounts {
        let mut c = PoolCounts {
            active: 0,
            standby: 0,
            rejuvenating: 0,
            failed: 0,
        };
        for vm in &self.vms {
            match vm.state() {
                VmState::Active => c.active += 1,
                VmState::Standby => c.standby += 1,
                VmState::Rejuvenating { .. } => c.rejuvenating += 1,
                VmState::Failed { .. } => c.failed += 1,
            }
        }
        c
    }

    /// The currently ACTIVE VMs, in pool order.
    pub fn active(&self) -> impl Iterator<Item = &Vm> + Clone + '_ {
        self.vms.iter().filter(|v| v.is_active())
    }

    /// Promotes standbys until the active count reaches the target or the
    /// spares run out. Returns how many were activated.
    pub fn replenish_active(&mut self, now: SimTime) -> usize {
        let active = self.vms.iter().filter(|v| v.is_active()).count();
        if active >= self.target_active {
            return 0;
        }
        let mut need = self.target_active - active;
        let mut activated = 0;
        for vm in &mut self.vms {
            if need == 0 {
                break;
            }
            if vm.is_standby() {
                vm.activate(now);
                activated += 1;
                need -= 1;
            }
        }
        if activated > 0 {
            self.ctr_activations.add(activated as u64);
        }
        activated
    }

    /// Demotes the freshest ACTIVE VMs back to STANDBY while the active
    /// count exceeds the target (autoscaling scale-down). The freshest VM
    /// is demoted so the serving set keeps the damaged VMs visible to the
    /// rejuvenation logic. Returns how many were demoted.
    pub fn demote_excess_active(&mut self, now: SimTime) -> usize {
        let excess = self.active().count().saturating_sub(self.target_active);
        if excess == 0 {
            return 0;
        }
        // Freshest = fewest requests since refresh; stable sort keeps the
        // original first-on-tie order (pool position).
        let mut active: Vec<(u64, usize)> = self
            .vms
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_active())
            .map(|(slot, v)| (v.anomaly().requests_since_refresh, slot))
            .collect();
        active.sort_by_key(|&(requests, _)| requests);
        for &(_, slot) in active.iter().take(excess) {
            self.vms[slot].deactivate(now);
        }
        self.ctr_demotions.add(excess as u64);
        excess
    }

    /// Completes any due rejuvenations. Returns how many finished.
    pub fn poll_rejuvenations(&mut self, now: SimTime) -> usize {
        let finished: usize = self
            .vms
            .iter_mut()
            .map(|v| usize::from(v.poll_rejuvenation(now)))
            .sum();
        if finished > 0 {
            self.ctr_rejuv_completed.add(finished as u64);
        }
        finished
    }

    /// Grows the pool with one fresh STANDBY VM (autoscaling ADDVMS path).
    pub fn add_vm(&mut self) -> VmId {
        let id = VmId(self.next_id);
        self.next_id += 1;
        let child_rng = self.rng.split();
        let slot = self.vms.len() as u32;
        self.vms.push(Vm::with_spec(
            id,
            self.spec.clone(),
            VmState::Standby,
            child_rng,
        ));
        let idx = id.0 as usize;
        if self.id_index.len() <= idx {
            self.id_index.resize(idx + 1, NO_SLOT);
        }
        self.id_index[idx] = slot;
        id
    }

    /// Removes one STANDBY VM, if any (autoscaling scale-down). Never
    /// removes serving or rejuvenating VMs.
    pub fn remove_standby(&mut self) -> Option<VmId> {
        let idx = self.vms.iter().position(|v| v.is_standby())?;
        let id = self.vms.remove(idx).id();
        // The removal shifted every later slot.
        self.rebuild_index();
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acm_sim::time::Duration;

    fn pool(total: usize, active: usize) -> VmPool {
        VmPool::new(
            VmFlavor::m3_medium(),
            AnomalyConfig::default(),
            FailureSpec::default(),
            total,
            active,
            SimRng::new(1),
        )
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn initial_census_matches_construction() {
        let p = pool(6, 4);
        let c = p.counts();
        assert_eq!(c.active, 4);
        assert_eq!(c.standby, 2);
        assert_eq!(c.total(), 6);
        assert_eq!(p.active().count(), 4);
    }

    #[test]
    #[should_panic(expected = "target_active")]
    fn zero_active_target_panics() {
        let _ = pool(4, 0);
    }

    #[test]
    fn replenish_promotes_standbys() {
        let mut p = pool(5, 3);
        // Rejuvenate one active: census drops to 2 active.
        let id = p.active().next().unwrap().id();
        p.vm_mut(id)
            .unwrap()
            .start_rejuvenation(t(0), Duration::from_secs(60));
        assert_eq!(p.counts().active, 2);
        let activated = p.replenish_active(t(0));
        assert_eq!(activated, 1);
        assert_eq!(p.counts().active, 3);
        assert_eq!(p.counts().standby, 1);
    }

    #[test]
    fn replenish_stops_when_spares_exhausted() {
        let mut p = pool(3, 3); // no standbys at all
        let id = p.active().next().unwrap().id();
        p.vm_mut(id)
            .unwrap()
            .start_rejuvenation(t(0), Duration::from_secs(60));
        assert_eq!(p.replenish_active(t(0)), 0);
        assert_eq!(p.counts().active, 2);
    }

    #[test]
    fn poll_rejuvenations_returns_spares() {
        let mut p = pool(4, 2);
        let id = p.active().next().unwrap().id();
        p.vm_mut(id)
            .unwrap()
            .start_rejuvenation(t(0), Duration::from_secs(30));
        assert_eq!(p.poll_rejuvenations(t(10)), 0);
        assert_eq!(p.poll_rejuvenations(t(30)), 1);
        assert_eq!(p.counts().standby, 3);
    }

    #[test]
    fn add_vm_grows_pool_with_unique_ids() {
        let mut p = pool(3, 2);
        let a = p.add_vm();
        let b = p.add_vm();
        assert_ne!(a, b);
        assert_eq!(p.counts().total(), 5);
        assert_eq!(p.counts().standby, 3);
        assert!(p.vm(a).unwrap().is_standby());
    }

    #[test]
    fn remove_standby_only_takes_spares() {
        let mut p = pool(3, 3);
        assert_eq!(p.remove_standby(), None, "no spares to remove");
        let mut p = pool(4, 3);
        assert!(p.remove_standby().is_some());
        assert_eq!(p.counts().total(), 3);
        assert_eq!(p.counts().active, 3);
    }

    #[test]
    fn set_target_active_clamps() {
        let mut p = pool(4, 2);
        p.set_target_active(100);
        assert_eq!(p.target_active(), 4);
        p.set_target_active(0);
        assert_eq!(p.target_active(), 1);
    }

    #[test]
    fn vm_lookup_by_id() {
        let p = pool(3, 2);
        assert!(p.vm(VmId(2)).is_some());
        assert!(p.vm(VmId(99)).is_none());
    }

    #[test]
    fn lookup_survives_removal_and_growth() {
        let mut p = pool(5, 2); // ids 0..5, actives 0 and 1
        assert!(p.remove_standby().is_some()); // removes id 2, shifts 3 and 4
        for id in [0, 1, 3, 4] {
            assert_eq!(p.vm(VmId(id)).unwrap().id(), VmId(id));
        }
        assert!(p.vm(VmId(2)).is_none());
        let new_id = p.add_vm();
        assert_eq!(new_id, VmId(5));
        assert_eq!(p.vm(new_id).unwrap().id(), new_id);
        assert!(p.vm_mut(VmId(4)).is_some());
    }

    #[test]
    fn pool_metrics_count_lifecycle_transitions() {
        let obs = acm_obs::Obs::new(acm_obs::ObsConfig::default());
        let mut p = pool(4, 2);
        p.set_obs(&obs, "r");
        let id = p.active().next().unwrap().id();
        p.vm_mut(id)
            .unwrap()
            .start_rejuvenation(t(0), Duration::from_secs(30));
        p.replenish_active(t(0)); // promotes one standby
        p.poll_rejuvenations(t(30)); // completes the rejuvenation
        p.set_target_active(1);
        p.demote_excess_active(t(31)); // demotes one active
        assert_eq!(obs.counter("acm.pcam.pool.activations").value(), 1);
        assert_eq!(
            obs.counter("acm.pcam.pool.rejuvenations_completed").value(),
            1
        );
        assert_eq!(obs.counter("acm.pcam.pool.demotions").value(), 1);
    }

    #[test]
    fn pool_gauges_track_census() {
        let obs = acm_obs::Obs::new(acm_obs::ObsConfig::default());
        let mut p = pool(5, 3);
        p.set_obs(&obs, "r");
        // Seeded at attach time.
        assert_eq!(obs.gauge("acm.pcam.pool.r.active").value(), 3.0);
        assert_eq!(obs.gauge("acm.pcam.pool.r.standby").value(), 2.0);
        // A transition followed by publish refreshes every gauge to the
        // live census.
        let id = p.active().next().unwrap().id();
        p.vm_mut(id)
            .unwrap()
            .start_rejuvenation(t(0), Duration::from_secs(60));
        p.replenish_active(t(0));
        p.publish_gauges();
        let c = p.counts();
        assert_eq!(obs.gauge("acm.pcam.pool.r.active").value(), c.active as f64);
        assert_eq!(
            obs.gauge("acm.pcam.pool.r.standby").value(),
            c.standby as f64
        );
        assert_eq!(
            obs.gauge("acm.pcam.pool.r.rejuvenating").value(),
            c.rejuvenating as f64
        );
        assert_eq!(obs.gauge("acm.pcam.pool.r.failed").value(), c.failed as f64);
    }
}
