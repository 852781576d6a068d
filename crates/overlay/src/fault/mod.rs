//! Deterministic fault injection for the overlay.
//!
//! A [`FaultPlan`] is a seeded schedule of topology faults (link flaps,
//! node crashes, partitions with scheduled heals, leader kills) plus
//! optional probabilistic per-message chaos (drop / extra delay). The
//! [`ChaosLayer`] replays the plan against a
//! [`Transport`](crate::transport::Transport): scheduled faults are
//! applied at era boundaries by the control loop, message chaos is
//! consulted on every control-plane send.
//!
//! Determinism discipline (same as the exec pool's pre-split RNG rule):
//! the layer owns a private [`SimRng`] seeded from `FaultPlan::seed`, so
//! injecting faults never perturbs the experiment's master RNG stream —
//! a run with `fault_plan: None` and a run with an *empty* plan are
//! byte-identical, and any fixed plan+seed replays byte-identically at
//! every `ACM_THREADS` width. Every injected fault is emitted as an obs
//! event (`chaos.link.fail`, `chaos.partition`, …) stamped with its
//! scheduled sim time, so event logs stay seed-deterministic too.
//!
//! The plan model, its builders and its one pairing rule
//! ([`FaultPlan::components`], which [`FaultPlan::validate`] and the
//! shrinker both read) live here; `json.rs` holds the corpus format and
//! `layer.rs` the replay.

mod json;
mod layer;

pub use layer::{ChaosLayer, MessageFate};

use crate::graph::{LinkId, NodeId};
use acm_sim::rng::SimRng;
use acm_sim::time::{Duration, SimTime};

/// One injectable topology fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Cut the direct link `a`–`b`.
    FailLink(NodeId, NodeId),
    /// Restore the direct link `a`–`b`.
    RecoverLink(NodeId, NodeId),
    /// Crash a controller node (all its links stop carrying traffic).
    CrashNode(NodeId),
    /// Revive a crashed controller node.
    RecoverNode(NodeId),
    /// Isolate `group` from the rest of the overlay by cutting every
    /// currently-usable crossing link. The cut set is remembered so the
    /// matching [`FaultAction::Heal`] restores exactly those links.
    Partition(Vec<NodeId>),
    /// Undo the open partition with the same `group`.
    Heal(Vec<NodeId>),
    /// Crash whichever node is the leader when the fault fires (resolved
    /// at apply time, so it composes with earlier kills and elections).
    KillLeader,
}

/// A fault scheduled at an absolute sim time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires (applied at the first era boundary >= `at`).
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// Probabilistic per-message chaos on control-plane sends; the default
/// is inert.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MessageChaos {
    /// Probability that a routable message is dropped anyway.
    pub drop_prob: f64,
    /// Upper bound for uniform extra delivery delay (zero disables).
    pub extra_delay_max: Duration,
}

impl MessageChaos {
    /// True when this config can never touch a message (no RNG draws).
    pub fn is_inert(&self) -> bool {
        self.drop_prob <= 0.0 && self.extra_delay_max.is_zero()
    }
}

/// A seeded, fully deterministic fault schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the chaos layer's private RNG stream (message chaos).
    pub seed: u64,
    /// Scheduled topology faults (sorted by the layer on construction).
    pub events: Vec<FaultEvent>,
    /// Per-message drop/delay chaos.
    pub message: MessageChaos,
}

impl FaultPlan {
    /// A plan with only scripted events.
    pub fn scripted(seed: u64, events: Vec<FaultEvent>) -> Self {
        FaultPlan {
            seed,
            events,
            message: MessageChaos::default(),
        }
    }

    /// Appends a partition of `group` at `at`, healed at `heal_at`.
    pub fn partition_window(self, group: Vec<NodeId>, at: SimTime, heal_at: SimTime) -> Self {
        let heal = FaultAction::Heal(group.clone());
        self.window(FaultAction::Partition(group), at, heal, heal_at)
    }

    /// Appends a link flap: fail at `at`, recover at `recover_at`.
    pub fn link_flap(self, a: NodeId, b: NodeId, at: SimTime, recover_at: SimTime) -> Self {
        let recover = FaultAction::RecoverLink(a, b);
        self.window(FaultAction::FailLink(a, b), at, recover, recover_at)
    }

    /// Appends a node crash window: crash at `at`, revive at `recover_at`.
    pub fn crash_window(self, n: NodeId, at: SimTime, recover_at: SimTime) -> Self {
        let revive = FaultAction::RecoverNode(n);
        self.window(FaultAction::CrashNode(n), at, revive, recover_at)
    }

    /// Appends `fault` at `at` and its `recovery` at `until`.
    fn window(
        mut self,
        fault: FaultAction,
        at: SimTime,
        recovery: FaultAction,
        until: SimTime,
    ) -> Self {
        assert!(at <= until, "{recovery:?} must not precede {fault:?}");
        self.events.push(FaultEvent { at, action: fault });
        self.events.push(FaultEvent {
            at: until,
            action: recovery,
        });
        self
    }

    /// Appends a leader kill at `at` (no revival).
    pub fn kill_leader_at(mut self, at: SimTime) -> Self {
        self.events.push(FaultEvent {
            at,
            action: FaultAction::KillLeader,
        });
        self
    }

    /// Enables per-message chaos.
    pub fn with_message_chaos(mut self, drop_prob: f64, extra_delay_max: Duration) -> Self {
        self.message = MessageChaos {
            drop_prob,
            extra_delay_max,
        };
        self
    }

    /// Generates a seed-randomized schedule of link flaps and node crash
    /// windows over `[0, horizon)`. `intensity` scales the expected fault
    /// count (1.0 ≈ one flap per link and one crash per two nodes).
    /// Deterministic: the schedule is a pure function of the arguments.
    pub fn randomized(
        seed: u64,
        nodes: &[NodeId],
        links: &[(NodeId, NodeId)],
        horizon: SimTime,
        intensity: f64,
    ) -> Self {
        let mut rng = SimRng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut plan = FaultPlan::scripted(seed, Vec::new());
        let horizon_us = horizon.as_micros().max(1);
        // Outage length: between 2% and ~15% of the horizon, so recovery
        // always lands inside the run.
        let window = |rng: &mut SimRng| {
            let start = rng.index((horizon_us * 4 / 5) as usize) as u64;
            let len = horizon_us / 50 + rng.index((horizon_us / 8) as usize) as u64;
            let end = (start + len).min(horizon_us.saturating_sub(1));
            (SimTime::from_micros(start), SimTime::from_micros(end))
        };
        for &(a, b) in links {
            if rng.bernoulli(intensity.min(1.0)) {
                let (at, recover_at) = window(&mut rng);
                plan = plan.link_flap(a, b, at, recover_at);
            }
        }
        for &n in nodes {
            if rng.bernoulli((intensity * 0.5).min(1.0)) {
                let (at, recover_at) = window(&mut rng);
                plan = plan.crash_window(n, at, recover_at);
            }
        }
        plan
    }

    /// Checks that every referenced node id is below `node_bound`, the
    /// message chaos is drawable, and the schedule is well-formed on the
    /// pairing of [`FaultPlan::components`]: no zero-length flap or crash
    /// window (the fault and its recovery at the same instant replay as a
    /// silent no-op), no heal of a partition that was never cut (or cut
    /// only later), and no two leader kills in one batch.
    ///
    /// A fault applies at the first era boundary ≥ its instant, so with
    /// `era` positive a fault at `at` lands in batch `⌈at / era⌉`
    /// ([`ChaosLayer::apply_due`] resolves the leader once per batch, so a
    /// second kill there hits a corpse); `era == 0` checks same-instant
    /// kills only. A fuzzer can synthesize all of these at the window
    /// boundaries; rejecting them here keeps "plan replayed" meaning
    /// "plan happened".
    pub fn validate(&self, node_bound: u32, era: Duration) -> Result<(), String> {
        let check = |n: NodeId| -> Result<(), String> {
            if n.0 >= node_bound {
                Err(format!(
                    "fault plan references {n} but the deployment has {node_bound} controllers"
                ))
            } else {
                Ok(())
            }
        };
        for ev in &self.events {
            match &ev.action {
                FaultAction::FailLink(a, b) | FaultAction::RecoverLink(a, b) => {
                    if a == b {
                        return Err(format!("link fault is a self-loop on {a}"));
                    }
                    check(*a)?;
                    check(*b)?;
                }
                FaultAction::CrashNode(n) | FaultAction::RecoverNode(n) => check(*n)?,
                FaultAction::Partition(group) | FaultAction::Heal(group) => {
                    if group.is_empty() {
                        return Err("partition group must not be empty".into());
                    }
                    for &n in group {
                        check(n)?;
                    }
                }
                FaultAction::KillLeader => {}
            }
        }
        if !(0.0..=1.0).contains(&self.message.drop_prob) {
            return Err(format!(
                "message drop probability {} outside [0, 1]",
                self.message.drop_prob
            ));
        }
        // The layer draws an extra delay from `0..=max`: `max + 1` must fit.
        let max_us = self.message.extra_delay_max.as_micros();
        if usize::try_from(max_us).map_or(true, |m| m.checked_add(1).is_none()) {
            return Err(format!("extra delay bound {max_us}us is not drawable"));
        }
        let batch = |at: SimTime| match era.as_micros() {
            0 => at.as_micros(),
            e => at.as_micros().div_ceil(e),
        };
        let mut last_kill = None;
        for c in self.components() {
            let ev = &self.events[c.indices[0]];
            let at_us = ev.at.as_micros();
            let error = match (&ev.action, &c.indices[..]) {
                (FaultAction::FailLink(..) | FaultAction::CrashNode(_), &[_, end])
                    if self.events[end].at == ev.at =>
                {
                    format!("zero-length {} at {at_us}us replays as a no-op", c.label)
                }
                // A matched heal is its partition's second event.
                (FaultAction::Heal(group), _) => {
                    format!("heal of group {group:?} at {at_us}us precedes its partition")
                }
                (FaultAction::KillLeader, _) => {
                    if last_kill.replace(batch(ev.at)) != Some(batch(ev.at)) {
                        continue;
                    }
                    format!(
                        "duplicate leader kill at {at_us}us: both land in one era batch \
                         and resolve to the same victim"
                    )
                }
                _ => continue,
            };
            return Err(error);
        }
        Ok(())
    }

    /// Decomposes the plan into shrinkable units: matched fault/recovery
    /// windows (flap, crash window, partition+heal) and lone events. The
    /// one pairing rule of the crate: walking events in `(at, index)`
    /// order, the first recovery of a subject closes that subject's first
    /// open fault. Components are ordered by `(at, index)` of their
    /// lowest event index, so the decomposition is deterministic for a
    /// fixed plan.
    pub fn components(&self) -> Vec<PlanComponent> {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| (self.events[i].at, i));
        let mut open: Vec<(Subject, usize)> = Vec::new();
        let mut out = Vec::new();
        let mut push = |indices: Vec<usize>, label: String| {
            out.push(PlanComponent { indices, label });
        };
        for i in order {
            let action = &self.events[i].action;
            let Some((subject, opens)) = Subject::of(action) else {
                push(vec![i], "kill-leader".into());
                continue;
            };
            if opens {
                open.push((subject, i));
                continue;
            }
            let start = open.iter().position(|(s, _)| *s == subject);
            let matched = start.is_some();
            let label = match action {
                FaultAction::RecoverLink(a, b) if matched => format!("flap {a}-{b}"),
                FaultAction::RecoverLink(a, b) => format!("recover-link {a}-{b}"),
                FaultAction::RecoverNode(n) if matched => format!("crash {n}"),
                FaultAction::RecoverNode(n) => format!("recover-node {n}"),
                FaultAction::Heal(group) if matched => format!("partition {group:?}"),
                FaultAction::Heal(group) => format!("heal {group:?}"),
                _ => unreachable!("only recoveries close a subject"),
            };
            match start {
                Some(k) => push(vec![open.remove(k).1, i], label),
                None => push(vec![i], label),
            }
        }
        // Unmatched opens (fault never recovered inside the plan).
        for (subject, i) in open {
            let label = match subject {
                Subject::Link(l) => format!("fail-link {l:?}"),
                Subject::Node(n) => format!("crash-open {n}"),
                Subject::Group(g) => format!("partition-open {g:?}"),
            };
            push(vec![i], label);
        }
        out.sort_by_key(|c| {
            let first = *c.indices.iter().min().expect("component never empty");
            (self.events[first].at, first)
        });
        out
    }
}

/// What a fault or its recovery acts on. Subjects of different kinds
/// never match, so one open list pairs all three window kinds.
#[derive(PartialEq)]
enum Subject {
    Link(LinkId),
    Node(NodeId),
    /// A partition group, sorted: a heal names its group in any order.
    Group(Vec<NodeId>),
}

impl Subject {
    /// `(subject, opens)` of a fault (`opens`) or a recovery; `None` for
    /// a leader kill, which nothing recovers.
    fn of(action: &FaultAction) -> Option<(Subject, bool)> {
        let group = |g: &[NodeId]| {
            let mut key = g.to_vec();
            key.sort_unstable();
            Subject::Group(key)
        };
        Some(match action {
            FaultAction::FailLink(a, b) => (Subject::Link(LinkId::new(*a, *b)), true),
            FaultAction::RecoverLink(a, b) => (Subject::Link(LinkId::new(*a, *b)), false),
            FaultAction::CrashNode(n) => (Subject::Node(*n), true),
            FaultAction::RecoverNode(n) => (Subject::Node(*n), false),
            FaultAction::Partition(g) => (group(g), true),
            FaultAction::Heal(g) => (group(g), false),
            FaultAction::KillLeader => return None,
        })
    }
}

/// One shrinkable unit of a [`FaultPlan`]: a matched fault/recovery
/// window or a lone event. `indices` point into the owning plan's
/// `events` vector (1 or 2 entries, fault first).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanComponent {
    /// Event indices in the owning plan (fault before recovery).
    pub indices: Vec<usize>,
    /// Short human label for shrinker logs ("flap vmc0-vmc1", …).
    pub label: String,
}

#[cfg(test)]
mod tests;
