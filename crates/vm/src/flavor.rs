//! VM flavors.
//!
//! A flavor bundles the static capacity parameters of a virtual machine
//! type. The three presets mirror the paper's testbed (Sec. VI-A):
//!
//! * Region 1 — Amazon EC2 **m3.medium** (Ireland): 1 vCPU, 3.75 GB RAM.
//! * Region 2 — Amazon EC2 **m3.small** (Frankfurt): 1 vCPU, ~1.7 GB RAM,
//!   slower core.
//! * Region 3 — private VMware guests (Munich): 2 vCPU, 1 GB RAM, 4 GB disk.
//!
//! Absolute numbers are calibrated so the simulated MTTFs land in the
//! minutes-to-tens-of-minutes range the closed control loop operates on, and
//! so the three flavors are *strongly heterogeneous* — the property the
//! paper's policy study is about.

/// Static capacity description of a VM type.
///
/// ```
/// use acm_vm::VmFlavor;
/// let medium = VmFlavor::m3_medium();
/// assert_eq!(medium.fresh_service_rate(), 50.0); // 1 core / 20 ms demand
/// assert!(medium.oom_headroom_mb() > VmFlavor::private_munich().oom_headroom_mb());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VmFlavor {
    /// Human-readable flavor name (e.g. `"m3.medium"`).
    pub name: String,
    /// Number of virtual CPU cores.
    pub cpu_cores: u32,
    /// Relative per-core speed (1.0 = reference core).
    pub cpu_speed: f64,
    /// Main memory, MiB.
    pub ram_mb: f64,
    /// Swap space, MiB. Once resident memory spills past RAM the VM slows
    /// down; past RAM + swap it is out of memory.
    pub swap_mb: f64,
    /// Hard cap on OS threads before the thread table is exhausted.
    pub max_threads: u32,
    /// Mean CPU demand of one application request on a reference core,
    /// seconds. The effective demand scales with `1 / cpu_speed` and with the
    /// anomaly-induced degradation factors.
    pub base_request_demand_s: f64,
    /// Memory resident after a fresh boot (OS + application baseline), MiB.
    pub baseline_resident_mb: f64,
    /// Baseline thread count after a fresh boot.
    pub baseline_threads: u32,
}

impl VmFlavor {
    /// Amazon EC2 `m3.medium` as deployed in the paper's Region 1 (Ireland):
    /// 1 vCPU at reference speed, 3.75 GB RAM.
    pub fn m3_medium() -> Self {
        VmFlavor {
            name: "m3.medium".into(),
            cpu_cores: 1,
            cpu_speed: 1.0,
            ram_mb: 3840.0,
            swap_mb: 1024.0,
            max_threads: 1024,
            base_request_demand_s: 0.020,
            baseline_resident_mb: 640.0,
            baseline_threads: 96,
        }
    }

    /// Amazon EC2 `m3.small` as deployed in the paper's Region 2 (Frankfurt):
    /// 1 slower vCPU, 1.7 GB RAM.
    pub fn m3_small() -> Self {
        VmFlavor {
            name: "m3.small".into(),
            cpu_cores: 1,
            cpu_speed: 0.55,
            ram_mb: 1740.0,
            swap_mb: 512.0,
            max_threads: 768,
            base_request_demand_s: 0.020,
            baseline_resident_mb: 512.0,
            baseline_threads: 96,
        }
    }

    /// Private VMware guest as deployed in the paper's Region 3 (Munich,
    /// 32-core HP ProLiant host): 2 vCPU, 1 GB RAM, 4 GB disk.
    pub fn private_munich() -> Self {
        VmFlavor {
            name: "private-munich".into(),
            cpu_cores: 2,
            cpu_speed: 0.85,
            ram_mb: 1024.0,
            swap_mb: 512.0,
            max_threads: 640,
            base_request_demand_s: 0.020,
            baseline_resident_mb: 384.0,
            baseline_threads: 80,
        }
    }

    /// Aggregate compute capacity in reference-core units.
    pub fn compute_capacity(&self) -> f64 {
        self.cpu_cores as f64 * self.cpu_speed
    }

    /// Maximum sustainable request rate (req/s) on a fresh VM.
    pub fn fresh_service_rate(&self) -> f64 {
        self.compute_capacity() / self.base_request_demand_s
    }

    /// Memory headroom available before the VM is out of memory, MiB.
    pub fn oom_headroom_mb(&self) -> f64 {
        (self.ram_mb + self.swap_mb - self.baseline_resident_mb).max(0.0)
    }

    /// Thread headroom before thread-table exhaustion.
    pub fn thread_headroom(&self) -> u32 {
        self.max_threads.saturating_sub(self.baseline_threads)
    }

    /// Validates internal consistency; returns a description of the first
    /// violated constraint, if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.cpu_cores == 0 {
            return Err("flavor must have at least one core".into());
        }
        if self.cpu_speed <= 0.0 || self.cpu_speed.is_nan() {
            return Err("cpu_speed must be positive".into());
        }
        if self.ram_mb <= 0.0 || self.ram_mb.is_nan() {
            return Err("ram_mb must be positive".into());
        }
        if self.swap_mb < 0.0 {
            return Err("swap_mb must be non-negative".into());
        }
        if self.baseline_resident_mb >= self.ram_mb {
            return Err("baseline resident set must fit in RAM".into());
        }
        if self.baseline_threads >= self.max_threads {
            return Err("baseline threads must be below the thread cap".into());
        }
        if self.base_request_demand_s <= 0.0 || self.base_request_demand_s.is_nan() {
            return Err("request demand must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for f in [
            VmFlavor::m3_medium(),
            VmFlavor::m3_small(),
            VmFlavor::private_munich(),
        ] {
            f.validate().unwrap_or_else(|e| panic!("{}: {e}", f.name));
        }
    }

    #[test]
    fn presets_are_heterogeneous() {
        let medium = VmFlavor::m3_medium();
        let small = VmFlavor::m3_small();
        let private = VmFlavor::private_munich();
        // Medium has the most memory headroom; private the least RAM.
        assert!(medium.oom_headroom_mb() > 2.0 * small.oom_headroom_mb());
        assert!(small.oom_headroom_mb() > private.oom_headroom_mb());
        // Private has the most raw compute of the three.
        assert!(private.compute_capacity() > medium.compute_capacity());
        assert!(medium.compute_capacity() > small.compute_capacity());
    }

    #[test]
    fn service_rate_scales_with_capacity() {
        let f = VmFlavor::m3_medium();
        assert!((f.fresh_service_rate() - 50.0).abs() < 1e-9);
        let p = VmFlavor::private_munich();
        assert!(p.fresh_service_rate() > f.fresh_service_rate());
    }

    #[test]
    fn validation_catches_bad_flavors() {
        let mut f = VmFlavor::m3_medium();
        f.cpu_cores = 0;
        assert!(f.validate().is_err());

        let mut f = VmFlavor::m3_medium();
        f.baseline_resident_mb = f.ram_mb;
        assert!(f.validate().is_err());

        let mut f = VmFlavor::m3_medium();
        f.baseline_threads = f.max_threads;
        assert!(f.validate().is_err());

        let mut f = VmFlavor::m3_medium();
        f.base_request_demand_s = 0.0;
        assert!(f.validate().is_err());
    }

    #[test]
    fn headrooms_are_positive_for_presets() {
        for f in [
            VmFlavor::m3_medium(),
            VmFlavor::m3_small(),
            VmFlavor::private_munich(),
        ] {
            // RAM left before swapping, then all of swap on top.
            assert!(f.oom_headroom_mb() > f.swap_mb);
            assert!(f.thread_headroom() > 0);
        }
    }
}
