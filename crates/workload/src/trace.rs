//! Open-loop arrival traces.
//!
//! The closed-loop generator ([`crate::generator`]) is the paper-faithful
//! client model; the benches additionally need *open-loop* traffic — fixed
//! request-per-second profiles that do not react to the system — to stress
//! specific rates reproducibly. [`RateProfile`] describes λ(t), and
//! [`OpenLoopArrivals`] generates its Poisson arrivals incrementally, one
//! era window at a time, so sharded mega-scale runs never hold a whole
//! horizon of arrivals in memory (use [`OpenLoopArrivals::pre_split`] for
//! one deterministic stream per shard). The unit tests keep the
//! materialised whole-horizon generator, `ArrivalTrace`, as its oracle.

use acm_sim::rng::SimRng;
use acm_sim::time::{Duration, SimTime};

/// A deterministic request-rate profile λ(t), req/s.
#[derive(Debug, Clone, PartialEq)]
pub enum RateProfile {
    /// Constant rate.
    Constant(f64),
    /// Piecewise-constant steps: `(start_instant, rate)` pairs, sorted by
    /// instant; rate 0 before the first step.
    Steps(Vec<(SimTime, f64)>),
    /// Sinusoidal diurnal pattern: `base + amplitude · sin(2πt / period)`,
    /// clamped at zero.
    Diurnal {
        /// Mean rate.
        base: f64,
        /// Swing amplitude.
        amplitude: f64,
        /// Oscillation period.
        period: Duration,
    },
    /// Flash-crowd pattern: `base` rate with a burst to `peak` for the
    /// first `burst_len` of every `period` — the square-wave counterpart
    /// of `Diurnal` for stressing plan reaction to abrupt load swings.
    Burst {
        /// Rate outside the bursts.
        base: f64,
        /// Rate inside the bursts.
        peak: f64,
        /// Interval between burst starts.
        period: Duration,
        /// Burst duration (≤ `period`).
        burst_len: Duration,
    },
}

impl RateProfile {
    /// λ at the given instant (always ≥ 0).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        match self {
            RateProfile::Constant(r) => r.max(0.0),
            RateProfile::Steps(steps) => steps
                .iter()
                .take_while(|(at, _)| *at <= t)
                .last()
                .map_or(0.0, |(_, r)| r.max(0.0)),
            RateProfile::Diurnal {
                base,
                amplitude,
                period,
            } => {
                let phase = t.as_secs_f64() / period.as_secs_f64();
                (base + amplitude * (2.0 * std::f64::consts::PI * phase).sin()).max(0.0)
            }
            RateProfile::Burst {
                base,
                peak,
                period,
                burst_len,
            } => {
                let into_period = t.as_micros() % period.as_micros().max(1);
                if into_period < burst_len.as_micros() {
                    peak.max(0.0)
                } else {
                    base.max(0.0)
                }
            }
        }
    }

    /// The profile's maximum rate — the thinning envelope for Poisson
    /// generation.
    pub fn peak_rate(&self) -> f64 {
        match self {
            RateProfile::Constant(r) => r.max(0.0),
            RateProfile::Steps(steps) => steps.iter().map(|(_, r)| *r).fold(0.0, f64::max),
            RateProfile::Diurnal {
                base, amplitude, ..
            } => (base + amplitude).max(0.0),
            RateProfile::Burst { base, peak, .. } => base.max(*peak).max(0.0),
        }
    }

    /// Expected number of arrivals in `[from, from + window)` (trapezoidal
    /// integration at 1-second resolution; exact for constant/step rates on
    /// aligned windows).
    pub fn expected_arrivals(&self, from: SimTime, window: Duration) -> f64 {
        let secs = window.as_secs_f64();
        let steps = (secs.ceil() as usize).max(1);
        let dt = secs / steps as f64;
        let mut acc = 0.0;
        for k in 0..steps {
            let t0 = from + Duration::from_secs_f64(k as f64 * dt);
            let t1 = from + Duration::from_secs_f64((k as f64 + 1.0) * dt);
            acc += 0.5 * (self.rate_at(t0) + self.rate_at(t1)) * dt;
        }
        acc
    }

    /// Validates the profile.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            RateProfile::Constant(r) => {
                if !r.is_finite() || *r < 0.0 {
                    return Err("constant rate must be finite and non-negative".into());
                }
            }
            RateProfile::Steps(steps) => {
                if steps.windows(2).any(|w| w[0].0 > w[1].0) {
                    return Err("steps must be sorted by instant".into());
                }
                if steps.iter().any(|(_, r)| !r.is_finite() || *r < 0.0) {
                    return Err("step rates must be finite and non-negative".into());
                }
            }
            RateProfile::Diurnal {
                base,
                amplitude,
                period,
            } => {
                if !base.is_finite() || *base < 0.0 || !amplitude.is_finite() || *amplitude < 0.0 {
                    return Err("diurnal parameters must be non-negative".into());
                }
                if period.is_zero() {
                    return Err("diurnal period must be positive".into());
                }
            }
            RateProfile::Burst {
                base,
                peak,
                period,
                burst_len,
            } => {
                if !base.is_finite() || *base < 0.0 || !peak.is_finite() || *peak < 0.0 {
                    return Err("burst rates must be finite and non-negative".into());
                }
                if period.is_zero() {
                    return Err("burst period must be positive".into());
                }
                if burst_len > period {
                    return Err("burst length cannot exceed the period".into());
                }
            }
        }
        Ok(())
    }
}

/// Incremental open-loop Poisson generator: arrivals thinned against the
/// profile's peak rate, produced one window at a time instead of a whole
/// horizon up front.
///
/// The draw sequence depends only on how far the candidate cursor has
/// advanced, never on where the window boundaries fall, so any contiguous
/// partition of `[0, horizon)` into windows yields byte-identical
/// arrivals — including the single-window partition, which reproduces the
/// whole-horizon generator (the tests' `ArrivalTrace`) exactly. That property is what lets the
/// era-sharded simulator pull one era of arrivals per barrier interval
/// and still match an unsharded run.
#[derive(Debug, Clone)]
pub struct OpenLoopArrivals {
    profile: RateProfile,
    peak: f64,
    rng: SimRng,
    /// Next candidate instant of the constant-rate envelope process,
    /// seconds (`∞` for a zero-rate profile).
    next_s: f64,
}

impl OpenLoopArrivals {
    /// Creates a generator owning its RNG stream. Panics on an invalid
    /// profile.
    pub fn new(profile: RateProfile, mut rng: SimRng) -> Self {
        profile.validate().expect("invalid rate profile");
        let peak = profile.peak_rate();
        let next_s = if peak > 0.0 {
            rng.exponential(1.0 / peak)
        } else {
            f64::INFINITY
        };
        OpenLoopArrivals {
            profile,
            peak,
            rng,
            next_s,
        }
    }

    /// One generator per shard, RNG streams split off `rng` in shard-index
    /// order — the pre-split discipline that keeps sharded arrival
    /// generation independent of thread width and of every other shard's
    /// draws.
    pub fn pre_split(profile: &RateProfile, shards: usize, rng: &mut SimRng) -> Vec<Self> {
        (0..shards)
            .map(|_| OpenLoopArrivals::new(profile.clone(), rng.split()))
            .collect()
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &RateProfile {
        &self.profile
    }

    /// Clears `out` and fills it with the arrivals whose candidate
    /// instant lies in `[from, to)`, reusing the buffer's allocation
    /// across eras. Windows must be consumed in ascending, non-overlapping
    /// order (candidates are generated once and never rewound); arrivals
    /// falling into a skipped gap are dropped.
    ///
    /// The instants pushed are the candidates rounded to the nearest
    /// microsecond, so one just below `to` can land exactly on `to`. What
    /// holds is: `out` ascends, `from <= at <= to` for every entry, and
    /// consecutive windows never step back (the last of one is `<=` the
    /// first of the next). A consumer running a window to its end must
    /// therefore include the end instant, as
    /// `Simulator::run_until_with_arrivals` does.
    pub fn fill_window(&mut self, from: SimTime, to: SimTime, out: &mut Vec<SimTime>) {
        out.clear();
        let from_s = from.as_secs_f64();
        let to_s = to.as_secs_f64();
        while self.next_s < to_s {
            let cand = self.next_s;
            let at = SimTime::from_secs_f64(cand);
            if self.rng.bernoulli(self.profile.rate_at(at) / self.peak) && cand >= from_s {
                out.push(at);
            }
            self.next_s = cand + self.rng.exponential(1.0 / self.peak);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: the whole horizon of arrivals materialised up front, as
    /// Poisson arrivals thinned against the profile's peak rate.
    #[derive(Debug, PartialEq)]
    struct ArrivalTrace {
        arrivals: Vec<SimTime>,
    }

    impl ArrivalTrace {
        /// The arrivals following `profile` over `[0, horizon)`.
        fn generate(profile: &RateProfile, horizon: Duration, rng: &mut SimRng) -> Self {
            profile.validate().expect("invalid rate profile");
            // Peak rate for the thinning envelope.
            let peak = profile.peak_rate();
            let mut arrivals = Vec::new();
            if peak <= 0.0 {
                return ArrivalTrace { arrivals };
            }
            let mut t = 0.0;
            let horizon_s = horizon.as_secs_f64();
            loop {
                t += rng.exponential(1.0 / peak);
                if t >= horizon_s {
                    break;
                }
                let at = SimTime::from_secs_f64(t);
                // Thin: accept with probability λ(t)/peak.
                if rng.bernoulli(profile.rate_at(at) / peak) {
                    arrivals.push(at);
                }
            }
            ArrivalTrace { arrivals }
        }

        /// The arrival instants, ascending.
        fn arrivals(&self) -> &[SimTime] {
            &self.arrivals
        }

        /// Number of arrivals.
        fn len(&self) -> usize {
            self.arrivals.len()
        }

        /// True when no arrivals were generated.
        fn is_empty(&self) -> bool {
            self.arrivals.is_empty()
        }

        /// Arrivals inside `[from, to)`.
        fn count_between(&self, from: SimTime, to: SimTime) -> usize {
            let lo = self.arrivals.partition_point(|t| *t < from);
            let hi = self.arrivals.partition_point(|t| *t < to);
            hi - lo
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn constant_profile_rate_and_expectation() {
        let p = RateProfile::Constant(12.0);
        assert_eq!(p.rate_at(t(0)), 12.0);
        assert_eq!(p.rate_at(t(999)), 12.0);
        let e = p.expected_arrivals(t(0), Duration::from_secs(10));
        assert!((e - 120.0).abs() < 1e-9);
    }

    #[test]
    fn step_profile_switches() {
        let p = RateProfile::Steps(vec![(t(0), 5.0), (t(100), 20.0)]);
        assert_eq!(p.rate_at(t(50)), 5.0);
        assert_eq!(p.rate_at(t(100)), 20.0);
        assert_eq!(p.rate_at(t(150)), 20.0);
        // Rate before the first step is zero.
        let q = RateProfile::Steps(vec![(t(10), 5.0)]);
        assert_eq!(q.rate_at(t(5)), 0.0);
    }

    #[test]
    fn diurnal_profile_oscillates_and_clamps() {
        let p = RateProfile::Diurnal {
            base: 10.0,
            amplitude: 15.0, // dips below zero -> clamped
            period: Duration::from_secs(100),
        };
        assert!((p.rate_at(t(25)) - 25.0).abs() < 1e-9); // peak at quarter period
        assert_eq!(p.rate_at(t(75)), 0.0); // clamped trough
    }

    #[test]
    fn trace_count_matches_expectation() {
        let p = RateProfile::Constant(50.0);
        let mut rng = SimRng::new(1);
        let trace = ArrivalTrace::generate(&p, Duration::from_secs(200), &mut rng);
        let expect = 50.0 * 200.0;
        let got = trace.len() as f64;
        assert!(
            (got - expect).abs() < 4.0 * expect.sqrt(),
            "{got} arrivals vs expected {expect}"
        );
        // Sorted ascending.
        assert!(trace.arrivals().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn thinning_respects_step_rates() {
        let p = RateProfile::Steps(vec![(t(0), 10.0), (t(100), 40.0)]);
        let mut rng = SimRng::new(2);
        let trace = ArrivalTrace::generate(&p, Duration::from_secs(200), &mut rng);
        let low = trace.count_between(t(0), t(100)) as f64;
        let high = trace.count_between(t(100), t(200)) as f64;
        assert!((low - 1000.0).abs() < 150.0, "low period {low}");
        assert!((high - 4000.0).abs() < 300.0, "high period {high}");
    }

    #[test]
    fn zero_rate_trace_is_empty() {
        let p = RateProfile::Constant(0.0);
        let mut rng = SimRng::new(3);
        let trace = ArrivalTrace::generate(&p, Duration::from_secs(100), &mut rng);
        assert!(trace.is_empty());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p = RateProfile::Constant(5.0);
        let a = ArrivalTrace::generate(&p, Duration::from_secs(50), &mut SimRng::new(4));
        let b = ArrivalTrace::generate(&p, Duration::from_secs(50), &mut SimRng::new(4));
        assert_eq!(a, b);
    }

    #[test]
    fn validation_rejects_bad_profiles() {
        assert!(RateProfile::Constant(-1.0).validate().is_err());
        assert!(RateProfile::Steps(vec![(t(10), 1.0), (t(5), 1.0)])
            .validate()
            .is_err());
        assert!(RateProfile::Diurnal {
            base: 1.0,
            amplitude: 1.0,
            period: Duration::ZERO
        }
        .validate()
        .is_err());
        assert!(RateProfile::Burst {
            base: 1.0,
            peak: 10.0,
            period: Duration::from_secs(10),
            burst_len: Duration::from_secs(20),
        }
        .validate()
        .is_err());
        assert!(RateProfile::Burst {
            base: 1.0,
            peak: -2.0,
            period: Duration::from_secs(10),
            burst_len: Duration::from_secs(1),
        }
        .validate()
        .is_err());
    }

    #[test]
    fn burst_profile_is_a_square_wave() {
        let p = RateProfile::Burst {
            base: 5.0,
            peak: 50.0,
            period: Duration::from_secs(60),
            burst_len: Duration::from_secs(10),
        };
        assert_eq!(p.rate_at(t(0)), 50.0);
        assert_eq!(p.rate_at(t(9)), 50.0);
        assert_eq!(p.rate_at(t(10)), 5.0);
        assert_eq!(p.rate_at(t(59)), 5.0);
        assert_eq!(p.rate_at(t(60)), 50.0); // next period's burst
        assert_eq!(p.peak_rate(), 50.0);
    }

    #[test]
    fn burst_trace_concentrates_arrivals_in_bursts() {
        let p = RateProfile::Burst {
            base: 2.0,
            peak: 80.0,
            period: Duration::from_secs(100),
            burst_len: Duration::from_secs(10),
        };
        let mut rng = SimRng::new(21);
        let trace = ArrivalTrace::generate(&p, Duration::from_secs(100), &mut rng);
        let burst = trace.count_between(t(0), t(10)) as f64;
        let quiet = trace.count_between(t(10), t(100)) as f64;
        assert!((burst - 800.0).abs() < 150.0, "burst window {burst}");
        assert!((quiet - 180.0).abs() < 70.0, "quiet window {quiet}");
    }

    #[test]
    fn open_loop_windows_reproduce_the_materialised_trace() {
        let p = RateProfile::Burst {
            base: 10.0,
            peak: 60.0,
            period: Duration::from_secs(30),
            burst_len: Duration::from_secs(5),
        };
        let whole = ArrivalTrace::generate(&p, Duration::from_secs(120), &mut SimRng::new(9));
        // The same stream pulled era by era must concatenate to the same
        // arrivals, wherever the window boundaries fall.
        for windows in [&[120u64][..], &[30, 30, 30, 30], &[7, 50, 13, 50]] {
            let mut gen = OpenLoopArrivals::new(p.clone(), SimRng::new(9));
            let mut got = Vec::new();
            let mut buf = Vec::new();
            let mut from = t(0);
            for w in windows {
                let to = from + Duration::from_secs(*w);
                gen.fill_window(from, to, &mut buf);
                got.extend_from_slice(&buf);
                from = to;
            }
            assert_eq!(got, whole.arrivals(), "windows {windows:?}");
        }
    }

    #[test]
    fn windows_ascend_within_inclusive_bounds_and_never_step_back() {
        // A rate high enough that candidates within half a microsecond of
        // a window end do occur over these seeds.
        let p = RateProfile::Constant(20_000.0);
        let mut on_the_end = 0;
        for seed in 0..40u64 {
            for splits in [&[1_000_000u64][..], &[1, 7, 250_000, 333_333, 416_659]] {
                let mut gen = OpenLoopArrivals::new(p.clone(), SimRng::new(seed));
                let mut buf = Vec::new();
                let mut from = SimTime::ZERO;
                let mut last = SimTime::ZERO;
                for w in splits {
                    let to = from + Duration::from_micros(*w);
                    gen.fill_window(from, to, &mut buf);
                    for &at in &buf {
                        assert!(at >= last, "seed {seed}: {at} after {last}");
                        assert!(
                            from <= at && at <= to,
                            "seed {seed}: {at} outside [{from}, {to}]"
                        );
                        last = at;
                    }
                    on_the_end += buf.iter().filter(|at| **at == to).count();
                    from = to;
                }
            }
        }
        assert!(on_the_end > 0, "no arrival rounded onto a window end");
    }

    #[test]
    fn pre_split_streams_are_deterministic_and_distinct() {
        let p = RateProfile::Constant(25.0);
        let mut shards_a = OpenLoopArrivals::pre_split(&p, 3, &mut SimRng::new(5));
        let mut shards_b = OpenLoopArrivals::pre_split(&p, 3, &mut SimRng::new(5));
        let mut all = Vec::new();
        for (a, b) in shards_a.iter_mut().zip(shards_b.iter_mut()) {
            let (mut wa, mut wb) = (Vec::new(), Vec::new());
            a.fill_window(t(0), t(50), &mut wa);
            b.fill_window(t(0), t(50), &mut wb);
            assert_eq!(wa, wb, "same parent seed, same per-shard stream");
            assert!(!wa.is_empty());
            all.push(wa);
        }
        assert_ne!(all[0], all[1], "shards draw from distinct streams");
    }

    #[test]
    fn zero_rate_open_loop_generator_is_empty() {
        let mut g = OpenLoopArrivals::new(RateProfile::Constant(0.0), SimRng::new(1));
        let mut buf = vec![t(1)]; // cleared by fill_window
        g.fill_window(t(0), t(1000), &mut buf);
        assert!(buf.is_empty());
    }
}
