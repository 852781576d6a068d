//! Machine-checked era invariants over a finished chaos run.
//!
//! An [`Invariant`] observes one [`EraView`] per era, in era order, and
//! may also run a final end-of-run sweep. Views are reconstructed from
//! the run's telemetry and obs event log (the same artifacts every
//! production run emits), so invariants check the system's *observable*
//! behaviour — never privileged internal state — and anything they catch
//! is by construction visible to an operator too.
//!
//! The catalogue (see DESIGN.md §11):
//! - [`QuarantineZeroFlow`]: an installed plan never routes flow to a
//!   quarantined region. Freeze eras are exempt, and nothing masks them:
//!   the leader keeps the previous fractions in force and the next era's
//!   MONITOR forwards flow by them, so a region quarantined while the
//!   plan is frozen keeps its frozen fraction until the next install.
//! - [`FlowConservation`]: flow fractions sum to 1 within epsilon, every
//!   era, no exceptions.
//! - [`SingleReadmitPerOutage`]: each outage (a region's k-th
//!   quarantine) is readmitted at most once — a second readmit for the
//!   same ordinal is probation oscillation. When the plan's message
//!   chaos is inert, outages with enough horizon left must also readmit
//!   *exactly* once.
//! - [`ReelectionBound`]: after a leader kill, a new leader appears
//!   within one era — re-election is synchronous with fault application
//!   (as long as anyone is alive to elect).
//! - [`ConvergenceAfterHeal`]: within N eras of the last scheduled fault
//!   activity, every region that can recover (not permanently dead) is
//!   live again. Armed only when message chaos is inert — under ongoing
//!   random message loss there is no convergence guarantee to check.

/// Which way a region's health moved this era.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// Live → Quarantined.
    Quarantine,
    /// Quarantined → Probation.
    Probation,
    /// Probation/Quarantined → Live.
    Readmit,
}

/// One health transition, as reconstructed from the event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// Region index in the deployment.
    pub region: usize,
    /// Transition direction.
    pub kind: TransitionKind,
    /// Lifetime quarantine ordinal the transition belongs to (1-based;
    /// the `outage` field stamped on `region.*` events).
    pub outage: u32,
}

/// Everything an invariant may observe about one era.
#[derive(Debug)]
pub struct EraView<'a> {
    /// Era index (0-based).
    pub era: usize,
    /// Total eras in the run.
    pub eras_total: usize,
    /// Control-plane flow fractions recorded at this era's end.
    pub fractions: &'a [f64],
    /// True when a plan was installed this era (false: frozen or the
    /// pre-degradation unconditional path did not emit).
    pub installed: bool,
    /// Quarantine state after this era's health transitions (true =
    /// excluded from the plan: quarantined or on probation).
    pub excluded: &'a [bool],
    /// Permanently dead regions as of this era: crashed or leader-killed
    /// with no scheduled recovery anywhere later in the plan.
    pub dead: &'a [bool],
    /// This era's health transitions, in emission order.
    pub transitions: &'a [HealthTransition],
    /// `chaos.leader.kill` faults applied at this era's start.
    pub kills_applied: u32,
    /// `leader.change` events observed this era.
    pub leader_changes: u32,
    /// Nodes still alive (not crashed/killed) after this era's faults.
    pub alive_nodes: u32,
    /// Last era with any scheduled fault activity (`None`: no faults).
    pub last_activity_era: Option<usize>,
    /// True when the plan carries no per-message drop/delay chaos.
    pub message_inert: bool,
}

/// A violated invariant, pinned to the era that exposed it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Invariant name (stable, used for corpus matching).
    pub invariant: &'static str,
    /// Era the violation surfaced in.
    pub era: usize,
    /// Human-readable specifics.
    pub detail: String,
}

impl Violation {
    /// Canonical one-line rendering (byte-stable across runs).
    pub fn line(&self) -> String {
        format!("{}@era{}: {}", self.invariant, self.era, self.detail)
    }
}

/// A pluggable property checked once per era plus a final sweep.
pub trait Invariant {
    /// Stable name used in verdicts and corpus entries.
    fn name(&self) -> &'static str;
    /// Checks one era; eras arrive in order.
    fn check_era(&mut self, view: &EraView) -> Option<Violation>;
    /// End-of-run sweep for obligations that need the whole horizon.
    fn check_end(&mut self) -> Option<Violation> {
        None
    }
}

/// The standard catalogue, in evaluation order.
pub fn standard_invariants() -> Vec<Box<dyn Invariant + Send>> {
    vec![
        Box::new(FlowConservation::default()),
        Box::new(QuarantineZeroFlow::default()),
        Box::new(SingleReadmitPerOutage::default()),
        Box::new(ReelectionBound::default()),
        Box::new(ConvergenceAfterHeal::default()),
    ]
}

/// Flow fractions must sum to 1 within `eps`, every era.
#[derive(Debug, Clone)]
pub struct FlowConservation {
    /// Tolerance on `|sum - 1|`.
    pub eps: f64,
}

impl Default for FlowConservation {
    fn default() -> Self {
        FlowConservation { eps: 1e-6 }
    }
}

impl Invariant for FlowConservation {
    fn name(&self) -> &'static str {
        "flow_conservation"
    }

    fn check_era(&mut self, view: &EraView) -> Option<Violation> {
        let sum: f64 = view.fractions.iter().sum();
        if (sum - 1.0).abs() > self.eps {
            return Some(Violation {
                invariant: self.name(),
                era: view.era,
                detail: format!("fractions sum to {sum}"),
            });
        }
        None
    }
}

/// An installed plan must pin every excluded region to zero flow.
/// Freeze eras are exempt: the leader retains the previous fractions and
/// the next era's MONITOR forwards flow by them, so an excluded region
/// keeps whatever fraction the frozen plan gave it. This invariant does
/// not check that flow.
#[derive(Debug, Clone)]
pub struct QuarantineZeroFlow {
    /// Tolerance on a quarantined region's fraction.
    pub eps: f64,
}

impl Default for QuarantineZeroFlow {
    fn default() -> Self {
        QuarantineZeroFlow { eps: 1e-9 }
    }
}

impl Invariant for QuarantineZeroFlow {
    fn name(&self) -> &'static str {
        "quarantine_zero_flow"
    }

    fn check_era(&mut self, view: &EraView) -> Option<Violation> {
        if !view.installed {
            return None;
        }
        for (j, (&f, &excluded)) in view.fractions.iter().zip(view.excluded).enumerate() {
            if excluded && f > self.eps {
                return Some(Violation {
                    invariant: self.name(),
                    era: view.era,
                    detail: format!("region {j} is excluded but carries fraction {f}"),
                });
            }
        }
        None
    }
}

/// Each outage readmits at most once; with inert message chaos and
/// enough horizon left, exactly once.
#[derive(Debug, Clone, Default)]
pub struct SingleReadmitPerOutage {
    /// `(region, outage ordinal, quarantine era)` seen so far.
    outages: Vec<(usize, u32, usize)>,
    /// `(region, outage ordinal)` already readmitted.
    readmitted: Vec<(usize, u32)>,
    eras_total: usize,
    message_inert: bool,
    /// Eras an outage needs before the "exactly one" obligation arms:
    /// probation hysteresis plus slack for the outage itself.
    readmit_budget: usize,
}

impl SingleReadmitPerOutage {
    /// Tracker with a custom end-of-run readmit budget (default 20).
    pub fn with_budget(budget: usize) -> Self {
        SingleReadmitPerOutage {
            readmit_budget: budget,
            ..Default::default()
        }
    }

    fn budget(&self) -> usize {
        if self.readmit_budget == 0 {
            20
        } else {
            self.readmit_budget
        }
    }
}

impl Invariant for SingleReadmitPerOutage {
    fn name(&self) -> &'static str {
        "single_readmit_per_outage"
    }

    fn check_era(&mut self, view: &EraView) -> Option<Violation> {
        self.eras_total = view.eras_total;
        self.message_inert = view.message_inert;
        // A dead region (crashed or killed with no revival scheduled)
        // owes no readmission — its quarantine rightly lasts forever.
        // Deadness is monotone, so dropping the obligation once is safe.
        self.outages
            .retain(|&(region, _, _)| view.dead.get(region) != Some(&true));
        for tr in view.transitions {
            match tr.kind {
                TransitionKind::Quarantine => {
                    self.outages.push((tr.region, tr.outage, view.era));
                }
                TransitionKind::Probation => {}
                TransitionKind::Readmit => {
                    let key = (tr.region, tr.outage);
                    if self.readmitted.contains(&key) {
                        return Some(Violation {
                            invariant: self.name(),
                            era: view.era,
                            detail: format!(
                                "region {} outage {} readmitted twice (oscillation)",
                                tr.region, tr.outage
                            ),
                        });
                    }
                    self.readmitted.push(key);
                }
            }
        }
        None
    }

    fn check_end(&mut self) -> Option<Violation> {
        if !self.message_inert {
            // Under random message loss an outage can legitimately start
            // too late to finish; only the at-most-once half applies.
            return None;
        }
        let budget = self.budget();
        for &(region, outage, era) in &self.outages {
            let enough_horizon = era + budget < self.eras_total;
            if enough_horizon && !self.readmitted.contains(&(region, outage)) {
                return Some(Violation {
                    invariant: self.name(),
                    era,
                    detail: format!(
                        "region {region} outage {outage} (era {era}) never readmitted \
                         within {budget} eras"
                    ),
                });
            }
        }
        None
    }
}

/// A leader kill must be answered by a `leader.change` within the bound
/// — unless nobody is left alive to elect.
#[derive(Debug, Clone)]
pub struct ReelectionBound {
    /// Eras allowed between the kill and the next leader change.
    pub bound_eras: usize,
    pending_kill: Option<usize>,
}

impl Default for ReelectionBound {
    fn default() -> Self {
        // Re-election is synchronous with fault application in this
        // implementation; one era of slack keeps the bound meaningful
        // rather than implementation-exact.
        ReelectionBound {
            bound_eras: 1,
            pending_kill: None,
        }
    }
}

impl Invariant for ReelectionBound {
    fn name(&self) -> &'static str {
        "reelection_bound"
    }

    fn check_era(&mut self, view: &EraView) -> Option<Violation> {
        if view.kills_applied > 0 && view.alive_nodes > 0 {
            self.pending_kill = Some(view.era);
        }
        if view.leader_changes > 0 {
            self.pending_kill = None;
        }
        if let Some(kill_era) = self.pending_kill {
            if view.era >= kill_era + self.bound_eras {
                self.pending_kill = None;
                return Some(Violation {
                    invariant: self.name(),
                    era: view.era,
                    detail: format!(
                        "leader killed at era {kill_era}, no re-election within \
                         {} eras",
                        self.bound_eras
                    ),
                });
            }
        }
        None
    }
}

/// Within `budget_eras` of the last scheduled fault activity, every
/// region that is not permanently dead must be live again. Armed only
/// for plans with inert message chaos.
#[derive(Debug, Clone)]
pub struct ConvergenceAfterHeal {
    /// Eras allowed between the last heal and full health.
    pub budget_eras: usize,
}

impl Default for ConvergenceAfterHeal {
    fn default() -> Self {
        // Staleness TTL (2) + probation hysteresis (3) + retry slack,
        // doubled for margin: well above any healthy readmit path.
        ConvergenceAfterHeal { budget_eras: 12 }
    }
}

impl Invariant for ConvergenceAfterHeal {
    fn name(&self) -> &'static str {
        "convergence_after_heal"
    }

    fn check_era(&mut self, view: &EraView) -> Option<Violation> {
        if !view.message_inert {
            return None;
        }
        let last = view.last_activity_era?;
        if view.era < last.saturating_add(self.budget_eras) {
            return None;
        }
        for (j, (&excluded, &dead)) in view.excluded.iter().zip(view.dead).enumerate() {
            if excluded && !dead {
                return Some(Violation {
                    invariant: self.name(),
                    era: view.era,
                    detail: format!(
                        "region {j} still excluded {} eras after the last heal (era {last})",
                        view.era - last
                    ),
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(
        era: usize,
        fractions: &'a [f64],
        excluded: &'a [bool],
        dead: &'a [bool],
        transitions: &'a [HealthTransition],
    ) -> EraView<'a> {
        EraView {
            era,
            eras_total: 40,
            fractions,
            installed: true,
            excluded,
            dead,
            transitions,
            kills_applied: 0,
            leader_changes: 0,
            alive_nodes: 2,
            last_activity_era: None,
            message_inert: true,
        }
    }

    #[test]
    fn flow_conservation_flags_bad_sums() {
        let mut inv = FlowConservation::default();
        assert!(inv
            .check_era(&view(0, &[0.5, 0.5], &[false, false], &[false, false], &[]))
            .is_none());
        let v = inv
            .check_era(&view(1, &[0.5, 0.6], &[false, false], &[false, false], &[]))
            .expect("sum 1.1 violates");
        assert_eq!(v.era, 1);
    }

    #[test]
    fn quarantine_zero_flow_is_freeze_aware() {
        let mut inv = QuarantineZeroFlow::default();
        let mut v = view(3, &[0.7, 0.3], &[false, true], &[false, false], &[]);
        assert!(
            inv.check_era(&v).is_some(),
            "installed + leaked = violation"
        );
        v.installed = false;
        assert!(inv.check_era(&v).is_none(), "freeze eras are exempt");
    }

    #[test]
    fn double_readmit_is_oscillation() {
        let mut inv = SingleReadmitPerOutage::default();
        let q = [HealthTransition {
            region: 1,
            kind: TransitionKind::Quarantine,
            outage: 1,
        }];
        let r = [HealthTransition {
            region: 1,
            kind: TransitionKind::Readmit,
            outage: 1,
        }];
        assert!(inv
            .check_era(&view(2, &[1.0, 0.0], &[false, true], &[false, false], &q))
            .is_none());
        assert!(inv
            .check_era(&view(6, &[0.6, 0.4], &[false, false], &[false, false], &r))
            .is_none());
        let v = inv
            .check_era(&view(9, &[0.6, 0.4], &[false, false], &[false, false], &r))
            .expect("second readmit of outage 1 violates");
        assert!(v.detail.contains("oscillation"));
    }

    #[test]
    fn missing_readmit_is_flagged_at_end_when_message_inert() {
        let mut inv = SingleReadmitPerOutage::with_budget(5);
        let q = [HealthTransition {
            region: 0,
            kind: TransitionKind::Quarantine,
            outage: 1,
        }];
        inv.check_era(&view(2, &[0.0, 1.0], &[true, false], &[false, false], &q));
        assert!(
            inv.check_end().is_some(),
            "outage at era 2 of 40 must readmit"
        );

        // Same outage but with message chaos: the obligation is waived.
        let mut lossy = SingleReadmitPerOutage::with_budget(5);
        let mut v = view(2, &[0.0, 1.0], &[true, false], &[false, false], &q);
        v.message_inert = false;
        lossy.check_era(&v);
        assert!(lossy.check_end().is_none());
    }

    #[test]
    fn dead_regions_owe_no_readmission() {
        // Quarantine at era 2, the region's node dies for good at era 4
        // (e.g. a leader kill): the permanent quarantine is correct and
        // the end sweep must not demand a readmit.
        let mut inv = SingleReadmitPerOutage::with_budget(5);
        let q = [HealthTransition {
            region: 0,
            kind: TransitionKind::Quarantine,
            outage: 1,
        }];
        inv.check_era(&view(2, &[0.0, 1.0], &[true, false], &[false, false], &q));
        inv.check_era(&view(4, &[0.0, 1.0], &[true, false], &[true, false], &[]));
        assert!(inv.check_end().is_none(), "dead region is exempt");
    }

    #[test]
    fn reelection_bound_tolerates_total_wipeout() {
        let mut inv = ReelectionBound::default();
        let mut v = view(5, &[1.0, 0.0], &[false, true], &[false, true], &[]);
        v.kills_applied = 1;
        v.alive_nodes = 0; // everyone dead: nothing to elect
        assert!(inv.check_era(&v).is_none());
        let v6 = view(6, &[1.0, 0.0], &[false, true], &[false, true], &[]);
        assert!(inv.check_era(&v6).is_none(), "no pending obligation");

        // With survivors the obligation is real.
        let mut strict = ReelectionBound::default();
        let mut k = view(5, &[1.0, 0.0], &[false, true], &[false, true], &[]);
        k.kills_applied = 1;
        assert!(strict.check_era(&k).is_none(), "same era: within bound");
        let missed = view(6, &[1.0, 0.0], &[false, true], &[false, true], &[]);
        assert!(strict.check_era(&missed).is_some(), "bound of 1 era blown");
    }

    #[test]
    fn convergence_ignores_dead_regions_and_lossy_plans() {
        let mut inv = ConvergenceAfterHeal { budget_eras: 3 };
        let mut v = view(20, &[1.0, 0.0], &[false, true], &[false, true], &[]);
        v.last_activity_era = Some(10);
        assert!(inv.check_era(&v).is_none(), "dead region is exempt");
        let mut alive = view(20, &[1.0, 0.0], &[false, true], &[false, false], &[]);
        alive.last_activity_era = Some(10);
        assert!(
            inv.check_era(&alive).is_some(),
            "healable region must return"
        );
        alive.message_inert = false;
        assert!(
            inv.check_era(&alive).is_none(),
            "lossy plans have no convergence guarantee"
        );
    }
}
