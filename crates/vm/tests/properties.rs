//! Property-based tests for the VM substrate.

use acm_sim::rng::SimRng;
use acm_sim::time::{Duration, SimTime};
use acm_vm::service::{self, SWAP_PENALTY};
use acm_vm::{AnomalyConfig, AnomalyState, FailureCause, FailureSpec, Vm, VmFlavor, VmId, VmState};
use proptest::prelude::*;

fn flavor_strategy() -> impl Strategy<Value = VmFlavor> {
    (0usize..3).prop_map(|i| match i {
        0 => VmFlavor::m3_medium(),
        1 => VmFlavor::m3_small(),
        _ => VmFlavor::private_munich(),
    })
}

/// The oracle for [`FailureSpec::true_rttf`]: the ground truth as it was
/// computed before the SLA crossing was searched from a verified bracket —
/// the same closed-form OOM and thread crossings, and the SLA crossing by a
/// fixed 128-step bisection from `[0, horizon]` (129 evaluations of the
/// fluid service rate). This is the only copy of that loop; the library
/// must return its bits.
fn true_rttf_by_fixed_bisection(
    spec: &FailureSpec,
    flavor: &VmFlavor,
    cfg: &AnomalyConfig,
    st: &AnomalyState,
    lambda: f64,
) -> (f64, Option<FailureCause>) {
    if let Some(cause) = spec.check(flavor, cfg, st, lambda) {
        return (0.0, Some(cause));
    }
    let leak_mb_per_s = lambda * cfg.mean_leak_mb_per_request();
    let threads_per_s = lambda * cfg.mean_threads_per_request();
    let resident_mb_per_s = leak_mb_per_s + threads_per_s * cfg.thread_stack_mb;
    let resident0 = service::resident_mb(flavor, cfg, st);
    let threads0 = flavor.baseline_threads as f64 + st.stuck_threads as f64;
    let t_oom = if resident_mb_per_s > 0.0 {
        (flavor.ram_mb + flavor.swap_mb - resident0) / resident_mb_per_s
    } else {
        f64::INFINITY
    };
    let t_threads = if threads_per_s > 0.0 {
        (flavor.max_threads as f64 - threads0) / threads_per_s
    } else {
        f64::INFINITY
    };

    let mu_at = |t: f64| {
        let leaked_mb = st.leaked_mb + leak_mb_per_s * t;
        let stuck_threads = st.stuck_threads as f64 + threads_per_s * t;
        let resident =
            flavor.baseline_resident_mb + leaked_mb + stuck_threads * cfg.thread_stack_mb;
        let swap_used = (resident - flavor.ram_mb).clamp(0.0, flavor.swap_mb);
        let slowdown = if flavor.swap_mb > 0.0 {
            1.0 + SWAP_PENALTY * swap_used / flavor.swap_mb
        } else {
            1.0
        };
        let compute = (flavor.compute_capacity() - stuck_threads * cfg.thread_cpu_burn).max(0.0);
        compute / (flavor.base_request_demand_s * slowdown)
    };
    let sla_crossing = || {
        let mu_needed = lambda + 1.0 / spec.sla_response_s;
        if leak_mb_per_s == 0.0 && threads_per_s == 0.0 {
            return f64::INFINITY;
        }
        // The horizon is finite whenever anything accumulates.
        let hi_cap = t_oom.min(t_threads);
        if mu_at(hi_cap) > mu_needed {
            return f64::INFINITY;
        }
        let (mut lo, mut hi) = (0.0_f64, hi_cap);
        for _ in 0..128 {
            let mid = 0.5 * (lo + hi);
            if mu_at(mid) > mu_needed {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    };
    let t_sla = if lambda > 0.0 {
        sla_crossing()
    } else {
        f64::INFINITY
    };

    let mut best = (f64::INFINITY, None);
    for (t, cause) in [
        (t_sla, FailureCause::SlaViolation),
        (t_oom, FailureCause::OutOfMemory),
        (t_threads, FailureCause::ThreadExhaustion),
    ] {
        if t < best.0 {
            best = (t, Some(cause));
        }
    }
    best
}

/// Ground-truth questions per proptest case of
/// `true_rttf_matches_the_fixed_bisection_bit_for_bit`.
const QUESTIONS_PER_CASE: usize = 2_000;

proptest! {
    #[test]
    fn true_rttf_matches_the_fixed_bisection_bit_for_bit(
        paper_flavor in flavor_strategy(),
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::new(seed);
        let mut sla_crossings = 0;
        for _ in 0..QUESTIONS_PER_CASE {
            // A paper flavor as it is, without swap (one piece instead of
            // two), or with RAM a few MiB above the baseline (in swap from
            // the first leak).
            let mut flavor = paper_flavor.clone();
            match rng.index(4) {
                0 => flavor.swap_mb = 0.0,
                1 => flavor.ram_mb = flavor.baseline_resident_mb + rng.uniform(1.0, 16.0),
                _ => {}
            }
            let mut cfg = AnomalyConfig {
                thread_cpu_burn: rng.uniform(0.0, 0.01),
                leak_size_mb: rng.uniform(0.0, 64.0),
                ..AnomalyConfig::default()
            };
            match rng.index(6) {
                0 => cfg.leak_prob = 0.0,
                1 => cfg.thread_prob = 0.0,
                _ => {}
            }
            let spec = FailureSpec {
                sla_response_s: rng.uniform(0.02, 3.0),
            };
            // States up to a full thread table and 105 % of RAM + swap, and
            // rates up to 1.1 x the fresh service rate. `check` answers most
            // of those with 0, so half the draws stay where a VM still
            // serves: stuck threads that leave some compute, a rate inside
            // what the SLA still allows.
            let mut stuck_max = flavor.thread_headroom() as f64;
            if rng.bernoulli(0.5) {
                stuck_max = stuck_max.min(flavor.compute_capacity() / cfg.thread_cpu_burn);
            }
            let st = AnomalyState {
                stuck_threads: (stuck_max * rng.f64()) as u32,
                leaked_mb: flavor.oom_headroom_mb() * rng.uniform(0.0, 1.05),
                ..AnomalyState::fresh()
            };
            // A short thread table ends the search early: horizons down to
            // some 50 s instead of hours.
            if rng.index(4) == 0 {
                let used = flavor.baseline_threads + st.stuck_threads;
                flavor.max_threads = used + 1 + rng.index(64) as u32;
            }
            let sla_margin =
                service::effective_service_rate(&flavor, &cfg, &st) - 1.0 / spec.sla_response_s;
            let lambda = if sla_margin > 0.0 && rng.bernoulli(0.5) {
                sla_margin * rng.uniform(1e-3, 1.02)
            } else {
                flavor.fresh_service_rate() * rng.uniform(1e-3, 1.1)
            };

            let got = spec.true_rttf(&flavor, &cfg, &st, lambda);
            let want = true_rttf_by_fixed_bisection(&spec, &flavor, &cfg, &st, lambda);
            prop_assert!(
                got.0.to_bits() == want.0.to_bits() && got.1 == want.1,
                "{got:?} != {want:?} for {flavor:?} {cfg:?} {spec:?} {st:?} lambda {lambda}"
            );
            if got.1 == Some(FailureCause::SlaViolation) && got.0 > 0.0 {
                sla_crossings += 1;
            }
        }
        prop_assert!(sla_crossings > QUESTIONS_PER_CASE / 10, "{sla_crossings} SLA crossings");
    }

    #[test]
    fn anomaly_accumulation_is_monotone_in_requests(
        seed in 0u64..1_000,
        n1 in 0u64..5_000,
        extra in 0u64..5_000,
    ) {
        let cfg = AnomalyConfig::default();
        let mut st = AnomalyState::fresh();
        let mut rng = SimRng::new(seed);
        st.apply_requests(&cfg, n1, &mut rng);
        let leaked_before = st.leaked_mb;
        let threads_before = st.stuck_threads;
        st.apply_requests(&cfg, extra, &mut rng);
        prop_assert!(st.leaked_mb >= leaked_before);
        prop_assert!(st.stuck_threads >= threads_before);
        prop_assert_eq!(st.requests_since_refresh, n1 + extra);
    }

    #[test]
    fn rttf_is_antitone_in_load(
        flavor in flavor_strategy(),
        lambda in 0.5f64..20.0,
        extra in 0.1f64..20.0,
    ) {
        let spec = FailureSpec::default();
        let cfg = AnomalyConfig::default();
        let fresh = AnomalyState::fresh();
        let (t_low, _) = spec.true_rttf(&flavor, &cfg, &fresh, lambda);
        let (t_high, _) = spec.true_rttf(&flavor, &cfg, &fresh, lambda + extra);
        // Higher load can never extend the remaining lifetime.
        prop_assert!(t_high <= t_low * 1.000001, "{t_high} > {t_low}");
    }

    #[test]
    fn zero_rttf_iff_failure_predicate_holds(
        flavor in flavor_strategy(),
        leaked in 0.0f64..8_000.0,
        threads in 0u32..1_200,
        lambda in 1.0f64..30.0,
    ) {
        let spec = FailureSpec::default();
        let cfg = AnomalyConfig::default();
        let st = AnomalyState {
            leaked_mb: leaked,
            stuck_threads: threads,
            leak_events: 0,
            requests_since_refresh: 0,
        };
        let (rttf, cause) = spec.true_rttf(&flavor, &cfg, &st, lambda);
        let failed_now = spec.check(&flavor, &cfg, &st, lambda);
        prop_assert_eq!(rttf == 0.0, failed_now.is_some());
        if rttf == 0.0 {
            prop_assert_eq!(cause, failed_now);
        }
    }

    #[test]
    fn features_are_always_finite(
        flavor in flavor_strategy(),
        seed in 0u64..500,
        eras in 0usize..12,
        lambda in 0.0f64..40.0,
    ) {
        let mut vm = Vm::new(
            VmId(0),
            flavor,
            AnomalyConfig::default(),
            FailureSpec::default(),
            VmState::Active,
            SimRng::new(seed),
        );
        let era = Duration::from_secs(30);
        let mut now = SimTime::ZERO;
        for _ in 0..eras {
            vm.process_era(now, era, lambda);
            now += era;
        }
        let f = vm.features(now, lambda);
        prop_assert!(f.is_finite(), "{f:?}");
    }

    #[test]
    fn era_outcome_counts_are_consistent(
        seed in 0u64..500,
        lambda in 0.1f64..30.0,
    ) {
        let mut vm = Vm::new(
            VmId(0),
            VmFlavor::m3_medium(),
            AnomalyConfig::default(),
            FailureSpec::default(),
            VmState::Active,
            SimRng::new(seed),
        );
        let out = vm.process_era(SimTime::ZERO, Duration::from_secs(30), lambda);
        prop_assert!(out.completed <= out.offered);
        prop_assert!(out.active_s >= 0.0 && out.active_s <= 30.0);
        prop_assert!(out.mean_response_s >= 0.0 && out.mean_response_s <= 30.0 + 1e-9);
        prop_assert_eq!(vm.total_completed(), out.completed);
    }

    #[test]
    fn rejuvenation_is_always_a_full_reset(
        flavor in flavor_strategy(),
        seed in 0u64..500,
        eras in 1usize..10,
    ) {
        let mut vm = Vm::new(
            VmId(0),
            flavor,
            AnomalyConfig::default(),
            FailureSpec::default(),
            VmState::Active,
            SimRng::new(seed),
        );
        let era = Duration::from_secs(30);
        let mut now = SimTime::ZERO;
        for _ in 0..eras {
            vm.process_era(now, era, 15.0);
            now += era;
            if !vm.is_active() {
                break;
            }
        }
        vm.start_rejuvenation(now, Duration::from_secs(60));
        now += Duration::from_secs(60);
        prop_assert!(vm.poll_rejuvenation(now));
        prop_assert_eq!(vm.anomaly(), &AnomalyState::fresh());
        prop_assert!(vm.is_standby());
    }
}
