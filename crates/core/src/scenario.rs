//! Scripted runtime scenarios.
//!
//! The ACM framework "offers the possibility to modify the deploy at
//! runtime in case the workload conditions change during the lifetime of
//! the system" (paper Sec. II). [`Scenario`] makes such modifications
//! first-class experiment inputs: a timeline of actions — policy switches,
//! overlay faults, capacity changes — that the control loop applies as
//! their instants pass. Actions that share an instant apply in the order
//! they were given.

use crate::policy::PolicyKind;
use acm_sim::time::SimTime;

/// One runtime reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioAction {
    /// Switch the leader's load-balancing policy.
    SwitchPolicy(PolicyKind),
    /// Fail the overlay link between two regions (a `fault.scripted` root
    /// on tracing hubs).
    FailLink {
        /// First endpoint (region index).
        a: usize,
        /// Second endpoint (region index).
        b: usize,
    },
    /// Recover the overlay link between two regions.
    RecoverLink {
        /// First endpoint (region index).
        a: usize,
        /// Second endpoint (region index).
        b: usize,
    },
    /// Change a region's desired ACTIVE VM count (manual capacity action).
    SetTargetActive {
        /// Region index.
        region: usize,
        /// New ACTIVE target (clamped to the pool size).
        target: usize,
    },
    /// Provision one extra standby VM in a region.
    AddVm {
        /// Region index.
        region: usize,
    },
}

/// An action with its firing instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledAction {
    /// When the action fires (applied at the first era boundary ≥ `at`).
    pub at: SimTime,
    /// What happens.
    pub action: ScenarioAction,
}

/// An ordered timeline of runtime actions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scenario {
    actions: Vec<ScheduledAction>,
}

impl Scenario {
    /// An empty scenario (no runtime changes).
    pub fn none() -> Self {
        Scenario::default()
    }

    /// Builds a scenario from actions (sorted internally by instant).
    pub fn new(mut actions: Vec<ScheduledAction>) -> Self {
        actions.sort_by_key(|a| a.at);
        Scenario { actions }
    }

    /// Adds an action (keeps the timeline sorted).
    pub fn push(&mut self, at: SimTime, action: ScenarioAction) {
        self.actions.push(ScheduledAction { at, action });
        self.actions.sort_by_key(|a| a.at);
    }

    /// Remaining actions (sorted by instant).
    pub fn pending(&self) -> &[ScheduledAction] {
        &self.actions
    }

    /// True when no actions remain.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Removes and returns every action due at or before `now`.
    pub fn drain_due(&mut self, now: SimTime) -> Vec<ScheduledAction> {
        let split = self.actions.partition_point(|a| a.at <= now);
        self.actions.drain(..split).collect()
    }

    /// Validates region indices against a deployment size.
    pub fn validate(&self, regions: usize) -> Result<(), String> {
        for sa in &self.actions {
            let check = |i: usize| {
                if i >= regions {
                    Err(format!("scenario references region {i} of {regions}"))
                } else {
                    Ok(())
                }
            };
            match sa.action {
                ScenarioAction::SwitchPolicy(_) => {}
                ScenarioAction::FailLink { a, b } | ScenarioAction::RecoverLink { a, b } => {
                    check(a)?;
                    check(b)?;
                }
                ScenarioAction::SetTargetActive { region, .. }
                | ScenarioAction::AddVm { region } => check(region)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn actions_are_kept_sorted() {
        let mut sc = Scenario::none();
        sc.push(
            t(100),
            ScenarioAction::SwitchPolicy(PolicyKind::Exploration),
        );
        sc.push(t(50), ScenarioAction::AddVm { region: 0 });
        let instants: Vec<u64> = sc.pending().iter().map(|a| a.at.as_micros()).collect();
        assert!(instants.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn drain_due_takes_only_past_actions() {
        let mut sc = Scenario::new(vec![
            ScheduledAction {
                at: t(10),
                action: ScenarioAction::AddVm { region: 0 },
            },
            ScheduledAction {
                at: t(20),
                action: ScenarioAction::AddVm { region: 1 },
            },
            ScheduledAction {
                at: t(30),
                action: ScenarioAction::AddVm { region: 0 },
            },
        ]);
        let due = sc.drain_due(t(20));
        assert_eq!(due.len(), 2);
        assert_eq!(sc.pending().len(), 1);
        assert!(sc.drain_due(t(25)).is_empty());
        assert_eq!(sc.drain_due(t(30)).len(), 1);
        assert!(sc.is_empty());
    }

    #[test]
    fn validation_checks_region_indices() {
        let sc = Scenario::new(vec![ScheduledAction {
            at: t(1),
            action: ScenarioAction::SetTargetActive {
                region: 5,
                target: 2,
            },
        }]);
        assert!(sc.validate(2).is_err());
        assert!(sc.validate(6).is_ok());
        assert!(Scenario::none().validate(0).is_ok());
    }
}
