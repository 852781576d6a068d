//! Per-region client populations and offered-rate computation.
//!
//! The paper varies "the number of active clients (towards each cloud
//! region) in the interval [16, 512], ensuring that the clients connected
//! to each cloud region were significantly different in number". Clients
//! are closed-loop, so a region's offered rate follows the interactive
//! response-time law `λ = N / (Z + R)`: when the system slows down, clients
//! naturally back off. [`RegionWorkload`] implements that law plus the
//! population schedules the ablation experiments sweep.

use crate::THINK_TIME_MEAN_S;
use acm_sim::time::SimTime;

/// How a region's client population evolves over time.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientSchedule {
    /// Fixed population.
    Constant(u32),
    /// Jumps from `before` to `after` at instant `at` (load-surge tests).
    Step {
        /// Population before the step.
        before: u32,
        /// Population after the step.
        after: u32,
        /// Step instant.
        at: SimTime,
    },
    /// Linear ramp from `from` to `to` between `start` and `end`.
    Ramp {
        /// Population at `start`.
        from: u32,
        /// Population at `end`.
        to: u32,
        /// Ramp start.
        start: SimTime,
        /// Ramp end.
        end: SimTime,
    },
    /// Day/night oscillation: `base + amplitude · sin(2πt / period)`,
    /// clamped at zero (real client populations follow the sun — the
    /// geographic-distribution motivation of Sec. I).
    Diurnal {
        /// Mean population.
        base: u32,
        /// Swing amplitude.
        amplitude: u32,
        /// Oscillation period (24 h in reality; compressed in experiments).
        period: acm_sim::time::Duration,
    },
}

impl ClientSchedule {
    /// Population at the given instant.
    pub fn population(&self, now: SimTime) -> u32 {
        match *self {
            ClientSchedule::Constant(n) => n,
            ClientSchedule::Step { before, after, at } => {
                if now < at {
                    before
                } else {
                    after
                }
            }
            ClientSchedule::Ramp {
                from,
                to,
                start,
                end,
            } => {
                if now <= start {
                    from
                } else if now >= end {
                    to
                } else {
                    let span = end.since(start).as_secs_f64();
                    let done = now.since(start).as_secs_f64();
                    let frac = done / span;
                    (from as f64 + (to as f64 - from as f64) * frac).round() as u32
                }
            }
            ClientSchedule::Diurnal {
                base,
                amplitude,
                period,
            } => {
                let phase = now.as_secs_f64() / period.as_secs_f64();
                let v = base as f64 + amplitude as f64 * (2.0 * std::f64::consts::PI * phase).sin();
                v.round().max(0.0) as u32
            }
        }
    }
}

/// The client population attached to one region's load balancer.
///
/// ```
/// use acm_workload::{ClientSchedule, RegionWorkload};
/// use acm_sim::SimTime;
/// let w = RegionWorkload::new(ClientSchedule::Constant(70));
/// // Interactive law λ = N / (Z + R) with the 7 s TPC-W think time:
/// assert!((w.offered_rate(SimTime::ZERO, 0.0) - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegionWorkload {
    schedule: ClientSchedule,
}

impl RegionWorkload {
    /// Creates a workload with the standard TPC-W think time
    /// ([`THINK_TIME_MEAN_S`]).
    pub fn new(schedule: ClientSchedule) -> Self {
        RegionWorkload { schedule }
    }

    /// Client population at `now`.
    pub fn population(&self, now: SimTime) -> u32 {
        self.schedule.population(now)
    }

    /// Offered request rate (req/s) from this population under the
    /// interactive response-time law, given the response time the clients
    /// currently observe. Degrades gracefully: slow responses throttle the
    /// arrival rate exactly as real closed-loop clients would.
    pub fn offered_rate(&self, now: SimTime, observed_response_s: f64) -> f64 {
        let n = self.population(now) as f64;
        let r = observed_response_s.max(0.0);
        n / (THINK_TIME_MEAN_S + r)
    }

    /// The schedule driving this workload.
    pub fn schedule(&self) -> &ClientSchedule {
        &self.schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn constant_schedule() {
        let w = RegionWorkload::new(ClientSchedule::Constant(128));
        assert_eq!(w.population(t(0)), 128);
        assert_eq!(w.population(t(10_000)), 128);
    }

    #[test]
    fn step_schedule_switches_at_instant() {
        let s = ClientSchedule::Step {
            before: 16,
            after: 512,
            at: t(100),
        };
        assert_eq!(s.population(t(99)), 16);
        assert_eq!(s.population(t(100)), 512);
        assert_eq!(s.population(t(101)), 512);
    }

    #[test]
    fn ramp_schedule_interpolates() {
        let s = ClientSchedule::Ramp {
            from: 100,
            to: 200,
            start: t(0),
            end: t(100),
        };
        assert_eq!(s.population(t(0)), 100);
        assert_eq!(s.population(t(50)), 150);
        assert_eq!(s.population(t(100)), 200);
        assert_eq!(s.population(t(500)), 200);
    }

    #[test]
    fn diurnal_schedule_oscillates_and_clamps() {
        let s = ClientSchedule::Diurnal {
            base: 100,
            amplitude: 150, // swings below zero -> clamped
            period: acm_sim::time::Duration::from_secs(400),
        };
        assert_eq!(s.population(t(0)), 100);
        assert_eq!(s.population(t(100)), 250); // peak at quarter period
        assert_eq!(s.population(t(300)), 0); // clamped trough
        assert_eq!(s.population(t(400)), 100); // full period
    }

    #[test]
    fn offered_rate_follows_the_interactive_law() {
        let w = RegionWorkload::new(ClientSchedule::Constant(70));
        // Fast responses: λ ≈ N / Z = 10/s.
        let fast = w.offered_rate(t(0), 0.0);
        assert!((fast - 10.0).abs() < 1e-9);
        // 1 s responses throttle the rate: 70 / 8 = 8.75.
        let slow = w.offered_rate(t(0), 1.0);
        assert!((slow - 8.75).abs() < 1e-9);
        assert!(slow < fast);
    }

    #[test]
    fn negative_observed_response_is_clamped() {
        let w = RegionWorkload::new(ClientSchedule::Constant(70));
        assert_eq!(w.offered_rate(t(0), -5.0), w.offered_rate(t(0), 0.0));
    }
}
