//! Deterministic fault injection for the overlay.
//!
//! A [`FaultPlan`] is a seeded schedule of topology faults (link flaps,
//! node crashes, partitions with scheduled heals, leader kills) plus
//! optional probabilistic per-message chaos (drop / extra delay). The
//! [`ChaosLayer`] replays the plan against a [`Transport`]: scheduled
//! faults are applied at era boundaries by the control loop, message
//! chaos is consulted on every control-plane send.
//!
//! Determinism discipline (same as the exec pool's pre-split RNG rule):
//! the layer owns a private [`SimRng`] seeded from `FaultPlan::seed`, so
//! injecting faults never perturbs the experiment's master RNG stream —
//! a run with `fault_plan: None` and a run with an *empty* plan are
//! byte-identical, and any fixed plan+seed replays byte-identically at
//! every `ACM_THREADS` width. Every injected fault is emitted as an obs
//! event (`chaos.link.fail`, `chaos.partition`, …) stamped with its
//! scheduled sim time, so event logs stay seed-deterministic too.

use crate::graph::{LinkId, NodeId};
use crate::transport::Transport;
use acm_obs::{Counter, Hist, Obs, ObsHandle, TraceContext, Value};
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

/// Probabilistic per-message chaos on control-plane sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageChaos {
    /// Probability that a routable message is dropped anyway.
    pub drop_prob: f64,
    /// Upper bound for uniform extra delivery delay (zero disables).
    pub extra_delay_max: Duration,
}

impl Default for MessageChaos {
    fn default() -> Self {
        MessageChaos {
            drop_prob: 0.0,
            extra_delay_max: Duration::ZERO,
        }
    }
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
    pub fn partition_window(mut self, group: Vec<NodeId>, at: SimTime, heal_at: SimTime) -> Self {
        assert!(at <= heal_at, "heal must not precede the partition");
        self.events.push(FaultEvent {
            at,
            action: FaultAction::Partition(group.clone()),
        });
        self.events.push(FaultEvent {
            at: heal_at,
            action: FaultAction::Heal(group),
        });
        self
    }

    /// Appends a link flap: fail at `at`, recover at `recover_at`.
    pub fn link_flap(mut self, a: NodeId, b: NodeId, at: SimTime, recover_at: SimTime) -> Self {
        assert!(at <= recover_at, "recovery must not precede the failure");
        self.events.push(FaultEvent {
            at,
            action: FaultAction::FailLink(a, b),
        });
        self.events.push(FaultEvent {
            at: recover_at,
            action: FaultAction::RecoverLink(a, b),
        });
        self
    }

    /// Appends a node crash window: crash at `at`, revive at `recover_at`.
    pub fn crash_window(mut self, n: NodeId, at: SimTime, recover_at: SimTime) -> Self {
        assert!(at <= recover_at, "revival must not precede the crash");
        self.events.push(FaultEvent {
            at,
            action: FaultAction::CrashNode(n),
        });
        self.events.push(FaultEvent {
            at: recover_at,
            action: FaultAction::RecoverNode(n),
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
        let mut events = Vec::new();
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
                events.push(FaultEvent {
                    at,
                    action: FaultAction::FailLink(a, b),
                });
                events.push(FaultEvent {
                    at: recover_at,
                    action: FaultAction::RecoverLink(a, b),
                });
            }
        }
        for &n in nodes {
            if rng.bernoulli((intensity * 0.5).min(1.0)) {
                let (at, recover_at) = window(&mut rng);
                events.push(FaultEvent {
                    at,
                    action: FaultAction::CrashNode(n),
                });
                events.push(FaultEvent {
                    at: recover_at,
                    action: FaultAction::RecoverNode(n),
                });
            }
        }
        FaultPlan::scripted(seed, events)
    }

    /// Checks that every referenced node id is below `node_bound`, the
    /// message probabilities are sane, and the schedule is well-formed:
    /// no zero-length flap or crash windows (the fault and its recovery at
    /// the same instant replay as a silent no-op), no heal of a partition
    /// that was never cut (or cut only later), and no duplicate leader
    /// kills at the same instant ([`ChaosLayer::apply_due`] resolves the
    /// leader once per batch, so the second kill hits a corpse).
    ///
    /// A fuzzer can synthesize all of these at the window boundaries;
    /// rejecting them here keeps "plan replayed" meaning "plan happened".
    pub fn validate(&self, node_bound: u32) -> Result<(), String> {
        self.validate_in_era(node_bound, Duration::ZERO)
    }

    /// [`FaultPlan::validate`] with the control-era length known: two
    /// leader kills inside the *same era* are rejected (both land in one
    /// [`ChaosLayer::apply_due`] batch at the next era boundary and
    /// resolve to the same victim). `era == 0` falls back to the
    /// same-instant check only.
    pub fn validate_in_era(&self, node_bound: u32, era: Duration) -> Result<(), String> {
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
        self.validate_schedule(era)
    }

    /// The schedule-shape half of validation, on the same stable time
    /// order the [`ChaosLayer`] replays.
    fn validate_schedule(&self, era: Duration) -> Result<(), String> {
        let mut schedule: Vec<&FaultEvent> = self.events.iter().collect();
        schedule.sort_by_key(|ev| ev.at);
        // Open fault windows, keyed by subject; matched exactly the way
        // components() pairs them (first recovery claims the first open
        // fault of its subject).
        let mut open_links: Vec<(LinkId, SimTime)> = Vec::new();
        let mut open_crashes: Vec<(NodeId, SimTime)> = Vec::new();
        let mut open_groups: Vec<(Vec<NodeId>, SimTime)> = Vec::new();
        let mut last_kill: Option<SimTime> = None;
        for ev in schedule {
            match &ev.action {
                FaultAction::FailLink(a, b) => open_links.push((LinkId::new(*a, *b), ev.at)),
                FaultAction::RecoverLink(a, b) => {
                    let id = LinkId::new(*a, *b);
                    if let Some(i) = open_links.iter().position(|(l, _)| *l == id) {
                        let (_, at) = open_links.remove(i);
                        if at == ev.at {
                            return Err(format!(
                                "zero-length flap of link {a}-{b} at {}us replays as a no-op",
                                ev.at.as_micros()
                            ));
                        }
                    }
                }
                FaultAction::CrashNode(n) => open_crashes.push((*n, ev.at)),
                FaultAction::RecoverNode(n) => {
                    if let Some(i) = open_crashes.iter().position(|(m, _)| m == n) {
                        let (_, at) = open_crashes.remove(i);
                        if at == ev.at {
                            return Err(format!(
                                "zero-length crash window of {n} at {}us replays as a no-op",
                                ev.at.as_micros()
                            ));
                        }
                    }
                }
                FaultAction::Partition(group) => {
                    let mut key = group.clone();
                    key.sort_unstable();
                    open_groups.push((key, ev.at));
                }
                FaultAction::Heal(group) => {
                    let mut key = group.clone();
                    key.sort_unstable();
                    match open_groups.iter().position(|(g, _)| *g == key) {
                        Some(i) => {
                            open_groups.remove(i);
                        }
                        None => {
                            return Err(format!(
                                "heal of group {group:?} at {}us precedes its partition",
                                ev.at.as_micros()
                            ));
                        }
                    }
                }
                FaultAction::KillLeader => {
                    if let Some(prev) = last_kill {
                        let same_batch = if era.is_zero() {
                            prev == ev.at
                        } else {
                            prev.as_micros() / era.as_micros()
                                == ev.at.as_micros() / era.as_micros()
                        };
                        if same_batch {
                            return Err(format!(
                                "duplicate leader kill at {}us: both land in one era batch \
                                 and resolve to the same victim",
                                ev.at.as_micros()
                            ));
                        }
                    }
                    last_kill = Some(ev.at);
                }
            }
        }
        Ok(())
    }

    // ---- mutation ops for the delta-debugging shrinker ----------------

    /// Decomposes the plan into shrinkable units: matched fault/recovery
    /// windows (flap, crash window, partition+heal — paired the same way
    /// [`FaultPlan::validate`] matches them: first recovery claims the
    /// first open fault of its subject) and lone events. Components are
    /// ordered by their earliest event time (ties by event index), so
    /// the decomposition is deterministic for a fixed plan.
    pub fn components(&self) -> Vec<PlanComponent> {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| (self.events[i].at, i));
        let mut open_links: Vec<(LinkId, usize)> = Vec::new();
        let mut open_crashes: Vec<(NodeId, usize)> = Vec::new();
        let mut open_groups: Vec<(Vec<NodeId>, usize)> = Vec::new();
        let mut out = Vec::new();
        for i in order {
            match &self.events[i].action {
                FaultAction::FailLink(a, b) => open_links.push((LinkId::new(*a, *b), i)),
                FaultAction::RecoverLink(a, b) => {
                    let id = LinkId::new(*a, *b);
                    match open_links.iter().position(|(l, _)| *l == id) {
                        Some(k) => {
                            let (_, start) = open_links.remove(k);
                            out.push(PlanComponent {
                                indices: vec![start, i],
                                label: format!("flap {a}-{b}"),
                            });
                        }
                        None => out.push(PlanComponent {
                            indices: vec![i],
                            label: format!("recover-link {a}-{b}"),
                        }),
                    }
                }
                FaultAction::CrashNode(n) => open_crashes.push((*n, i)),
                FaultAction::RecoverNode(n) => {
                    match open_crashes.iter().position(|(m, _)| m == n) {
                        Some(k) => {
                            let (_, start) = open_crashes.remove(k);
                            out.push(PlanComponent {
                                indices: vec![start, i],
                                label: format!("crash {n}"),
                            });
                        }
                        None => out.push(PlanComponent {
                            indices: vec![i],
                            label: format!("recover-node {n}"),
                        }),
                    }
                }
                FaultAction::Partition(group) => {
                    let mut key = group.clone();
                    key.sort_unstable();
                    open_groups.push((key, i));
                }
                FaultAction::Heal(group) => {
                    let mut key = group.clone();
                    key.sort_unstable();
                    match open_groups.iter().position(|(g, _)| *g == key) {
                        Some(k) => {
                            let (_, start) = open_groups.remove(k);
                            out.push(PlanComponent {
                                indices: vec![start, i],
                                label: format!("partition {group:?}"),
                            });
                        }
                        None => out.push(PlanComponent {
                            indices: vec![i],
                            label: format!("heal {group:?}"),
                        }),
                    }
                }
                FaultAction::KillLeader => out.push(PlanComponent {
                    indices: vec![i],
                    label: "kill-leader".into(),
                }),
            }
        }
        // Unmatched opens (fault never recovered inside the plan).
        for (l, i) in open_links {
            out.push(PlanComponent {
                indices: vec![i],
                label: format!("fail-link {l:?}"),
            });
        }
        for (n, i) in open_crashes {
            out.push(PlanComponent {
                indices: vec![i],
                label: format!("crash-open {n}"),
            });
        }
        for (g, i) in open_groups {
            out.push(PlanComponent {
                indices: vec![i],
                label: format!("partition-open {g:?}"),
            });
        }
        out.sort_by_key(|c| {
            let first = *c.indices.iter().min().expect("component never empty");
            (self.events[first].at, first)
        });
        out
    }

    /// The plan with every event of `component` removed. Strictly
    /// smaller (fewer events) whenever the component is non-empty.
    pub fn without_component(&self, component: &PlanComponent) -> FaultPlan {
        let drop: Vec<usize> = component.indices.clone();
        let mut plan = self.clone();
        plan.events = plan
            .events
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !drop.contains(i))
            .map(|(_, ev)| ev)
            .collect();
        plan
    }

    /// Halves a matched window's duration (recovery pulled toward the
    /// fault, floor 1µs so the result stays valid). Returns `None` for
    /// lone events or windows already at the floor — so repeated
    /// narrowing terminates (duration strictly decreases).
    pub fn narrow_component(&self, component: &PlanComponent) -> Option<FaultPlan> {
        let [start, end] = component.indices[..] else {
            return None;
        };
        let at = self.events[start].at;
        let recover = self.events[end].at;
        let len = recover.as_micros().checked_sub(at.as_micros())?;
        let new_len = (len / 2).max(1);
        if new_len >= len {
            return None;
        }
        let mut plan = self.clone();
        plan.events[end].at = SimTime::from_micros(at.as_micros() + new_len);
        Some(plan)
    }

    /// Weakens message chaos one quantized step: halves `drop_prob`
    /// (snapping to 0 below 1e-3) and halves the extra-delay bound
    /// (snapping to zero below 1ms). Returns `None` when already inert,
    /// so repeated weakening terminates.
    pub fn weaken_message(&self) -> Option<FaultPlan> {
        if self.message.is_inert() {
            return None;
        }
        let mut plan = self.clone();
        plan.message.drop_prob = match self.message.drop_prob / 2.0 {
            p if p < 1e-3 => 0.0,
            p => p,
        };
        let delay_us = self.message.extra_delay_max.as_micros() / 2;
        plan.message.extra_delay_max = if delay_us < 1_000 {
            Duration::ZERO
        } else {
            Duration::from_micros(delay_us)
        };
        Some(plan)
    }

    // ---- serialization (obs JSON writer / reader) ---------------------

    /// Serializes the plan as one JSON object via the obs writer —
    /// the corpus format for committed chaos reproducers.
    pub fn to_json(&self) -> String {
        use acm_obs::json::{array, JsonObject};
        let node_list = |group: &[NodeId]| array(group.iter().map(|n| n.0.to_string()));
        let events = array(self.events.iter().map(|ev| {
            let mut o = JsonObject::new();
            o.field_u64("at_us", ev.at.as_micros());
            match &ev.action {
                FaultAction::FailLink(a, b) => {
                    o.field_str("kind", "fail_link")
                        .field_u64("a", a.0 as u64)
                        .field_u64("b", b.0 as u64);
                }
                FaultAction::RecoverLink(a, b) => {
                    o.field_str("kind", "recover_link")
                        .field_u64("a", a.0 as u64)
                        .field_u64("b", b.0 as u64);
                }
                FaultAction::CrashNode(n) => {
                    o.field_str("kind", "crash_node")
                        .field_u64("node", n.0 as u64);
                }
                FaultAction::RecoverNode(n) => {
                    o.field_str("kind", "recover_node")
                        .field_u64("node", n.0 as u64);
                }
                FaultAction::Partition(group) => {
                    o.field_str("kind", "partition")
                        .field_raw("group", &node_list(group));
                }
                FaultAction::Heal(group) => {
                    o.field_str("kind", "heal")
                        .field_raw("group", &node_list(group));
                }
                FaultAction::KillLeader => {
                    o.field_str("kind", "kill_leader");
                }
            }
            o.finish()
        }));
        let mut msg = JsonObject::new();
        msg.field_f64("drop_prob", self.message.drop_prob)
            .field_u64("extra_delay_us", self.message.extra_delay_max.as_micros());
        let mut plan = JsonObject::new();
        plan.field_u64("seed", self.seed)
            .field_raw("message", &msg.finish())
            .field_raw("events", &events);
        plan.finish()
    }

    /// Parses a plan serialized by [`FaultPlan::to_json`]. Exact
    /// round-trip: `f64` text uses Rust's shortest-round-trip display
    /// and `u64` fields are parsed from the raw token.
    pub fn from_json(s: &str) -> Result<FaultPlan, String> {
        use acm_obs::json::JsonValue;
        let doc = acm_obs::json::parse(s)?;
        let want_u64 = |v: &JsonValue, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(|f| f.as_u64())
                .ok_or_else(|| format!("fault plan JSON: missing u64 field {key:?}"))
        };
        let node = |v: &JsonValue, key: &str| -> Result<NodeId, String> {
            let raw = want_u64(v, key)?;
            u32::try_from(raw)
                .map(NodeId)
                .map_err(|_| format!("fault plan JSON: node id {raw} overflows u32"))
        };
        let group = |v: &JsonValue| -> Result<Vec<NodeId>, String> {
            v.get("group")
                .and_then(|g| g.as_array())
                .ok_or_else(|| "fault plan JSON: missing group array".to_string())?
                .iter()
                .map(|n| {
                    n.as_u64()
                        .and_then(|raw| u32::try_from(raw).ok())
                        .map(NodeId)
                        .ok_or_else(|| "fault plan JSON: bad node id in group".to_string())
                })
                .collect()
        };
        let seed = want_u64(&doc, "seed")?;
        let msg = doc
            .get("message")
            .ok_or_else(|| "fault plan JSON: missing message".to_string())?;
        let message = MessageChaos {
            drop_prob: msg
                .get("drop_prob")
                .and_then(|p| p.as_f64())
                .ok_or_else(|| "fault plan JSON: missing drop_prob".to_string())?,
            extra_delay_max: Duration::from_micros(want_u64(msg, "extra_delay_us")?),
        };
        let mut events = Vec::new();
        for ev in doc
            .get("events")
            .and_then(|e| e.as_array())
            .ok_or_else(|| "fault plan JSON: missing events array".to_string())?
        {
            let at = SimTime::from_micros(want_u64(ev, "at_us")?);
            let kind = ev
                .get("kind")
                .and_then(|k| k.as_str())
                .ok_or_else(|| "fault plan JSON: event missing kind".to_string())?;
            let action = match kind {
                "fail_link" => FaultAction::FailLink(node(ev, "a")?, node(ev, "b")?),
                "recover_link" => FaultAction::RecoverLink(node(ev, "a")?, node(ev, "b")?),
                "crash_node" => FaultAction::CrashNode(node(ev, "node")?),
                "recover_node" => FaultAction::RecoverNode(node(ev, "node")?),
                "partition" => FaultAction::Partition(group(ev)?),
                "heal" => FaultAction::Heal(group(ev)?),
                "kill_leader" => FaultAction::KillLeader,
                other => return Err(format!("fault plan JSON: unknown event kind {other:?}")),
            };
            events.push(FaultEvent { at, action });
        }
        Ok(FaultPlan {
            seed,
            events,
            message,
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

/// What the chaos layer decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Deliver, with this much chaos-injected extra delay.
    Deliver {
        /// Extra delivery delay on top of the route latency.
        extra_delay: Duration,
    },
    /// Drop the message even though a route exists.
    Drop,
}

/// Replays a [`FaultPlan`] against a [`Transport`].
#[derive(Debug, Clone)]
pub struct ChaosLayer {
    /// Sorted schedule (stable by time, insertion order on ties).
    schedule: Vec<FaultEvent>,
    /// Index of the next unapplied event.
    next: usize,
    message: MessageChaos,
    /// Private stream: never touches the experiment's master RNG.
    rng: SimRng,
    /// Open partitions and the exact links each one cut.
    open_partitions: Vec<(Vec<NodeId>, Vec<LinkId>)>,
    /// Root span of the most recently applied fault (tracing hubs only):
    /// the causal anchor downstream suspicion/quarantine chains hang off.
    last_ctx: Option<TraceContext>,
    hub: ObsHandle,
    ctr_faults: Counter,
    ctr_msg_drops: Counter,
    ctr_msg_delays: Counter,
    hist_extra_delay: Hist,
}

impl ChaosLayer {
    /// Builds the layer from a plan. The plan's events are stably sorted
    /// by time; ties apply in insertion order.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut schedule = plan.events.clone();
        schedule.sort_by_key(|ev| ev.at);
        ChaosLayer {
            schedule,
            next: 0,
            message: plan.message,
            rng: SimRng::new(plan.seed),
            open_partitions: Vec::new(),
            last_ctx: None,
            hub: Obs::noop(),
            ctr_faults: Counter::default(),
            ctr_msg_drops: Counter::default(),
            ctr_msg_delays: Counter::default(),
            hist_extra_delay: Hist::default(),
        }
    }

    /// Attaches observability: `acm.overlay.chaos.{faults,msg_drops,
    /// msg_delays}` counters, `acm.overlay.chaos.extra_delay_us`
    /// histogram, and one event per injected fault.
    pub fn set_obs(&mut self, obs: &ObsHandle) {
        self.hub = obs.clone();
        self.ctr_faults = obs.counter("acm.overlay.chaos.faults");
        self.ctr_msg_drops = obs.counter("acm.overlay.chaos.msg_drops");
        self.ctr_msg_delays = obs.counter("acm.overlay.chaos.msg_delays");
        self.hist_extra_delay = obs.histogram("acm.overlay.chaos.extra_delay_us");
    }

    /// Derives one chaos *lens* per shard, RNG streams split off this
    /// layer's private stream in shard-index order. Each lens carries the
    /// full plan state but draws independently, so shards can decide
    /// [`message_fate`] for their own traffic in parallel without racing
    /// on a shared stream — the split order (not the execution order)
    /// fixes every draw, keeping sharded runs byte-identical at any
    /// thread width. Fault *application* ([`apply_due`]) must stay on the
    /// parent layer at the era barrier: lenses are for per-message
    /// decisions only.
    ///
    /// [`message_fate`]: ChaosLayer::message_fate
    /// [`apply_due`]: ChaosLayer::apply_due
    pub fn pre_split(&mut self, shards: usize) -> Vec<ChaosLayer> {
        (0..shards)
            .map(|_| {
                let mut lens = self.clone();
                lens.rng = self.rng.split();
                lens
            })
            .collect()
    }

    /// Scheduled faults not yet applied.
    pub fn pending(&self) -> usize {
        self.schedule.len() - self.next
    }

    /// Currently open (unhealed) partitions.
    pub fn open_partitions(&self) -> usize {
        self.open_partitions.len()
    }

    /// Applies every scheduled fault with `at <= now` to the transport.
    /// `leader` resolves [`FaultAction::KillLeader`]. Returns `true` when
    /// the topology changed (caller should re-elect).
    pub fn apply_due(&mut self, now: SimTime, transport: &mut Transport, leader: NodeId) -> bool {
        let mut changed = false;
        while self.next < self.schedule.len() && self.schedule[self.next].at <= now {
            let ev = self.schedule[self.next].clone();
            self.next += 1;
            self.apply(&ev, transport, leader);
            changed = true;
        }
        changed
    }

    fn apply(&mut self, ev: &FaultEvent, transport: &mut Transport, leader: NodeId) {
        let t_us = ev.at.as_micros();
        self.ctr_faults.inc();
        match &ev.action {
            FaultAction::FailLink(a, b) => {
                transport.fail_link(*a, *b);
                self.emit_node_fault(t_us, "chaos.link.fail", *a, Some(*b));
            }
            FaultAction::RecoverLink(a, b) => {
                transport.recover_link(*a, *b);
                self.emit_node_fault(t_us, "chaos.link.recover", *a, Some(*b));
            }
            FaultAction::CrashNode(n) => {
                transport.fail_node(*n);
                self.emit_node_fault(t_us, "chaos.node.crash", *n, None);
            }
            FaultAction::RecoverNode(n) => {
                transport.recover_node(*n);
                self.emit_node_fault(t_us, "chaos.node.recover", *n, None);
            }
            FaultAction::KillLeader => {
                transport.fail_node(leader);
                self.emit_node_fault(t_us, "chaos.leader.kill", leader, None);
            }
            FaultAction::Partition(group) => {
                let cut = self.cut_links(transport, group);
                for l in &cut {
                    transport.fail_link(l.a, l.b);
                }
                self.emit_fault(
                    t_us,
                    "chaos.partition",
                    vec![
                        ("group_size", Value::U64(group.len() as u64)),
                        ("cut_links", Value::U64(cut.len() as u64)),
                        ("first", Value::U64(u64::from(group[0].0))),
                    ],
                );
                self.open_partitions.push((group.clone(), cut));
            }
            FaultAction::Heal(group) => {
                let mut key: Vec<NodeId> = group.clone();
                key.sort_unstable();
                let found = self.open_partitions.iter().position(|(g, _)| {
                    let mut gs = g.clone();
                    gs.sort_unstable();
                    gs == key
                });
                if let Some(i) = found {
                    let (_, cut) = self.open_partitions.remove(i);
                    for l in &cut {
                        transport.recover_link(l.a, l.b);
                    }
                    self.emit_fault(
                        t_us,
                        "chaos.heal",
                        vec![
                            ("group_size", Value::U64(group.len() as u64)),
                            ("restored_links", Value::U64(cut.len() as u64)),
                        ],
                    );
                }
            }
        }
    }

    /// The usable links crossing the `group` boundary right now. Links
    /// already down (by an earlier fault) are not included, so the
    /// matching heal restores exactly what this partition cut.
    fn cut_links(&self, transport: &Transport, group: &[NodeId]) -> Vec<LinkId> {
        let g = transport.graph();
        let mut cut = Vec::new();
        for &x in group {
            for (m, _) in g.usable_neighbors(x) {
                if !group.contains(&m) {
                    let id = LinkId::new(x, m);
                    if !cut.contains(&id) {
                        cut.push(id);
                    }
                }
            }
        }
        cut
    }

    fn emit_node_fault(&mut self, t_us: u64, kind: &'static str, n: NodeId, peer: Option<NodeId>) {
        let mut fields = vec![("node", Value::U64(u64::from(n.0)))];
        if let Some(p) = peer {
            fields.push(("peer", Value::U64(u64::from(p.0))));
        }
        self.emit_fault(t_us, kind, fields);
    }

    /// Emits one fault event. On a tracing hub the event opens a *root*
    /// span (faults are first causes, they have no parent) and the
    /// context is retained so the control loop can hang suspicion and
    /// quarantine chains off the most recent fault; on a plain hub this
    /// is byte-identical to `hub.emit`.
    fn emit_fault(&mut self, t_us: u64, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        self.last_ctx = self
            .hub
            .emit_caused(t_us, kind, fields, None)
            .or(self.last_ctx);
    }

    /// Root span of the most recently applied fault, if the hub traces.
    /// Persists across eras on purpose: an unhealed partition from era
    /// 10 is still the cause of report losses in era 15.
    pub fn last_trace_ctx(&self) -> Option<TraceContext> {
        self.last_ctx
    }

    /// Decides the fate of one routable control-plane message. Draws from
    /// the private RNG only when message chaos is configured, so plans
    /// without it stay draw-free. Self-sends are never touched.
    pub fn message_fate(&mut self, now: SimTime, from: NodeId, to: NodeId) -> MessageFate {
        if from == to || self.message.is_inert() {
            return MessageFate::Deliver {
                extra_delay: Duration::ZERO,
            };
        }
        if self.message.drop_prob > 0.0 && self.rng.bernoulli(self.message.drop_prob) {
            self.ctr_msg_drops.inc();
            self.hub.emit(
                now.as_micros(),
                "chaos.msg.drop",
                vec![
                    ("from", Value::U64(u64::from(from.0))),
                    ("to", Value::U64(u64::from(to.0))),
                ],
            );
            return MessageFate::Drop;
        }
        let max_us = self.message.extra_delay_max.as_micros();
        let extra = if max_us == 0 {
            Duration::ZERO
        } else {
            let d = Duration::from_micros(self.rng.index(max_us as usize + 1) as u64);
            if !d.is_zero() {
                self.ctr_msg_delays.inc();
                self.hist_extra_delay.record(d.as_micros());
            }
            d
        };
        MessageFate::Deliver { extra_delay: extra }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OverlayGraph;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn transport() -> Transport {
        Transport::new(OverlayGraph::full_mesh(&[
            (n(0), n(1), ms(30)),
            (n(1), n(2), ms(20)),
            (n(0), n(2), ms(100)),
        ]))
    }

    fn all_pairs(t: &mut Transport) -> Vec<Option<Duration>> {
        let mut out = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                out.push(t.latency(n(i), n(j)));
            }
        }
        out
    }

    #[test]
    fn partition_cuts_and_heal_restores_exactly() {
        let plan = FaultPlan::scripted(7, Vec::new()).partition_window(vec![n(2)], t(10), t(50));
        let mut layer = ChaosLayer::new(&plan);
        let mut tr = transport();
        let before = all_pairs(&mut tr);

        assert!(layer.apply_due(t(10), &mut tr, n(0)));
        assert_eq!(layer.open_partitions(), 1);
        assert_eq!(tr.latency(n(0), n(2)), None);
        assert_eq!(tr.latency(n(2), n(1)), None);
        assert_eq!(tr.latency(n(0), n(1)), Some(ms(30)), "intra side unhurt");

        assert!(layer.apply_due(t(50), &mut tr, n(0)));
        assert_eq!(layer.open_partitions(), 0);
        assert_eq!(all_pairs(&mut tr), before, "heal restores everything");
    }

    #[test]
    fn heal_does_not_recover_links_cut_by_other_faults() {
        // Link 0-2 goes down independently before the partition; the heal
        // must leave it down.
        let mut plan =
            FaultPlan::scripted(7, Vec::new()).partition_window(vec![n(2)], t(10), t(50));
        plan.events.insert(
            0,
            FaultEvent {
                at: t(5),
                action: FaultAction::FailLink(n(0), n(2)),
            },
        );
        let mut layer = ChaosLayer::new(&plan);
        let mut tr = transport();
        layer.apply_due(t(50), &mut tr, n(0));
        assert_eq!(tr.latency(n(0), n(2)), Some(ms(50)), "via 1 only");
        assert!(tr.graph().link_failed(n(0), n(2)));
    }

    #[test]
    fn kill_leader_resolves_at_apply_time() {
        let plan = FaultPlan::scripted(1, Vec::new()).kill_leader_at(t(30));
        let mut layer = ChaosLayer::new(&plan);
        let mut tr = transport();
        assert!(!layer.apply_due(t(29), &mut tr, n(0)), "not due yet");
        assert!(layer.apply_due(t(31), &mut tr, n(1)));
        assert!(!tr.graph().is_alive(n(1)));
        assert!(tr.graph().is_alive(n(0)));
    }

    #[test]
    fn schedule_applies_in_time_order_and_once() {
        let plan = FaultPlan::scripted(1, Vec::new())
            .link_flap(n(0), n(1), t(20), t(40))
            .crash_window(n(2), t(10), t(30));
        let mut layer = ChaosLayer::new(&plan);
        let mut tr = transport();
        layer.apply_due(t(15), &mut tr, n(0));
        assert!(!tr.graph().is_alive(n(2)));
        assert!(tr.graph().link_usable(n(0), n(1)));
        layer.apply_due(t(25), &mut tr, n(0));
        assert!(!tr.graph().link_usable(n(0), n(1)));
        layer.apply_due(t(100), &mut tr, n(0));
        assert!(tr.graph().is_alive(n(2)));
        assert!(tr.graph().link_usable(n(0), n(1)));
        assert_eq!(layer.pending(), 0);
        assert!(!layer.apply_due(SimTime::MAX, &mut tr, n(0)));
    }

    #[test]
    fn pre_split_lenses_draw_independent_deterministic_streams() {
        let plan =
            FaultPlan::scripted(11, Vec::new()).with_message_chaos(0.5, Duration::from_millis(20));
        let fates = |layer: &mut ChaosLayer| -> Vec<MessageFate> {
            (0..32)
                .map(|_| layer.message_fate(t(1), n(0), n(1)))
                .collect()
        };
        let mut a = ChaosLayer::new(&plan);
        let mut b = ChaosLayer::new(&plan);
        let mut lenses_a = a.pre_split(3);
        let mut lenses_b = b.pre_split(3);
        for (la, lb) in lenses_a.iter_mut().zip(lenses_b.iter_mut()) {
            assert_eq!(
                fates(la),
                fates(lb),
                "same plan, same split order, same draws"
            );
        }
        assert_ne!(
            fates(&mut lenses_a[0]),
            fates(&mut lenses_a[1]),
            "lenses must not share a stream"
        );
        // Lenses carry the plan: applying faults through a lens still works.
        assert_eq!(lenses_a[0].pending(), 0);
    }

    #[test]
    fn randomized_plans_are_pure_functions_of_their_inputs() {
        let nodes = [n(0), n(1), n(2)];
        let links = [(n(0), n(1)), (n(1), n(2)), (n(0), n(2))];
        let a = FaultPlan::randomized(42, &nodes, &links, t(3600), 1.0);
        let b = FaultPlan::randomized(42, &nodes, &links, t(3600), 1.0);
        assert_eq!(a, b);
        let c = FaultPlan::randomized(43, &nodes, &links, t(3600), 1.0);
        assert_ne!(a, c, "different seed, different schedule");
        assert!(!a.events.is_empty());
        for ev in &a.events {
            assert!(ev.at < t(3600));
        }
        a.validate(3).expect("generated plan is in-bounds");
    }

    #[test]
    fn message_chaos_is_deterministic_and_inert_when_unconfigured() {
        let plan = FaultPlan::scripted(9, Vec::new()).with_message_chaos(0.3, ms(40));
        let fates = |p: &FaultPlan| {
            let mut layer = ChaosLayer::new(p);
            (0..200)
                .map(|i| layer.message_fate(t(i), n(0), n(1)))
                .collect::<Vec<_>>()
        };
        assert_eq!(fates(&plan), fates(&plan), "same seed, same fates");
        let drops = fates(&plan)
            .iter()
            .filter(|f| matches!(f, MessageFate::Drop))
            .count();
        assert!(drops > 20 && drops < 120, "~30% of 200, got {drops}");

        // Unconfigured chaos delivers everything without touching the RNG.
        let inert = FaultPlan::scripted(9, Vec::new());
        let mut layer = ChaosLayer::new(&inert);
        for i in 0..50 {
            assert_eq!(
                layer.message_fate(t(i), n(0), n(1)),
                MessageFate::Deliver {
                    extra_delay: Duration::ZERO
                }
            );
        }
        // Self-sends are never dropped even under heavy chaos.
        let cruel = FaultPlan::scripted(9, Vec::new()).with_message_chaos(1.0, Duration::ZERO);
        let mut layer = ChaosLayer::new(&cruel);
        assert_eq!(
            layer.message_fate(t(0), n(1), n(1)),
            MessageFate::Deliver {
                extra_delay: Duration::ZERO
            }
        );
        assert_eq!(layer.message_fate(t(0), n(0), n(1)), MessageFate::Drop);
    }

    #[test]
    fn validate_rejects_out_of_bounds_and_bad_probabilities() {
        let plan = FaultPlan::scripted(0, Vec::new()).crash_window(n(5), t(1), t(2));
        assert!(plan.validate(3).is_err());
        assert!(plan.validate(6).is_ok());
        let bad = FaultPlan::scripted(0, Vec::new()).with_message_chaos(1.5, Duration::ZERO);
        assert!(bad.validate(3).is_err());
        let empty_group = FaultPlan::scripted(
            0,
            vec![FaultEvent {
                at: t(0),
                action: FaultAction::Partition(Vec::new()),
            }],
        );
        assert!(empty_group.validate(3).is_err());
    }

    #[test]
    fn faults_emit_obs_events() {
        let obs = Obs::new(acm_obs::ObsConfig::default());
        let plan = FaultPlan::scripted(3, Vec::new())
            .partition_window(vec![n(2)], t(10), t(20))
            .kill_leader_at(t(30));
        let mut layer = ChaosLayer::new(&plan);
        layer.set_obs(&obs);
        let mut tr = transport();
        layer.apply_due(t(40), &mut tr, n(0));
        let kinds: Vec<&str> = obs.events_tail(10).into_iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec!["chaos.partition", "chaos.heal", "chaos.leader.kill"]
        );
        assert_eq!(obs.counter("acm.overlay.chaos.faults").value(), 3);
        assert!(layer.last_trace_ctx().is_none(), "plain hub opens no spans");
    }

    #[test]
    fn traced_faults_open_root_spans_and_retain_the_last_context() {
        let obs = Obs::new(acm_obs::ObsConfig::traced(0xfa11));
        let plan = FaultPlan::scripted(3, Vec::new())
            .partition_window(vec![n(2)], t(10), t(20))
            .kill_leader_at(t(30));
        let mut layer = ChaosLayer::new(&plan);
        layer.set_obs(&obs);
        let mut tr = transport();
        layer.apply_due(t(40), &mut tr, n(0));

        let spans = obs.spans();
        assert_eq!(spans.len(), 3, "one span per fault");
        for s in &spans {
            assert_eq!(s.parent, 0, "faults are first causes (root spans)");
            assert_eq!(s.trace, s.id, "roots start their own trace");
        }
        let last = layer.last_trace_ctx().expect("tracing hub keeps context");
        assert_eq!(last.span, spans[2].id, "context tracks the latest fault");
        // Every chaos event carries its span id.
        for ev in obs.events_tail(10) {
            let span = ev
                .fields
                .iter()
                .find(|(k, _)| *k == "span")
                .expect("traced fault events carry a span field");
            assert!(matches!(span.1, Value::U64(v) if v != 0));
        }
    }

    #[test]
    fn validate_rejects_zero_length_windows() {
        let flap = FaultPlan::scripted(1, Vec::new()).link_flap(n(0), n(1), t(10), t(10));
        assert!(flap.validate(3).unwrap_err().contains("zero-length flap"));
        let crash = FaultPlan::scripted(1, Vec::new()).crash_window(n(2), t(5), t(5));
        assert!(crash
            .validate(3)
            .unwrap_err()
            .contains("zero-length crash window"));
        // A real window passes.
        let ok = FaultPlan::scripted(1, Vec::new()).link_flap(n(0), n(1), t(10), t(11));
        assert!(ok.validate(3).is_ok());
    }

    #[test]
    fn validate_rejects_heal_before_cut_and_unmatched_heal() {
        let early = FaultPlan::scripted(1, Vec::new())
            .kill_leader_at(t(1)) // unrelated noise
            .partition_window(vec![n(2)], t(40), t(50));
        assert!(early.validate(3).is_ok());
        // Heal scheduled before its partition: stable time order sees the
        // heal first, so there is no open group to close.
        let mut bad = FaultPlan::scripted(1, Vec::new());
        bad.events.push(FaultEvent {
            at: t(10),
            action: FaultAction::Heal(vec![n(2)]),
        });
        bad.events.push(FaultEvent {
            at: t(20),
            action: FaultAction::Partition(vec![n(2)]),
        });
        assert!(bad
            .validate(3)
            .unwrap_err()
            .contains("precedes its partition"));
        // A heal with no partition at all is equally malformed.
        let mut lone = FaultPlan::scripted(1, Vec::new());
        lone.events.push(FaultEvent {
            at: t(10),
            action: FaultAction::Heal(vec![n(1)]),
        });
        assert!(lone.validate(3).is_err());
    }

    #[test]
    fn validate_rejects_duplicate_leader_kills_in_one_era() {
        let same_instant = FaultPlan::scripted(1, Vec::new())
            .kill_leader_at(t(10))
            .kill_leader_at(t(10));
        assert!(same_instant
            .validate(3)
            .unwrap_err()
            .contains("duplicate leader kill"));
        // Different instants, same 30s era: only the era-aware check sees it.
        let same_era = FaultPlan::scripted(1, Vec::new())
            .kill_leader_at(t(31))
            .kill_leader_at(t(40));
        assert!(same_era.validate(3).is_ok());
        assert!(same_era
            .validate_in_era(3, Duration::from_secs(30))
            .unwrap_err()
            .contains("duplicate leader kill"));
        // Adjacent eras are fine.
        let spread = FaultPlan::scripted(1, Vec::new())
            .kill_leader_at(t(31))
            .kill_leader_at(t(65));
        assert!(spread.validate_in_era(3, Duration::from_secs(30)).is_ok());
    }

    #[test]
    fn components_pair_windows_and_mutations_shrink() {
        let plan = FaultPlan::scripted(7, Vec::new())
            .link_flap(n(0), n(1), t(10), t(30))
            .crash_window(n(2), t(5), t(25))
            .kill_leader_at(t(50))
            .with_message_chaos(0.2, Duration::from_secs(2));
        let comps = plan.components();
        assert_eq!(comps.len(), 3);
        // Ordered by earliest event time: crash (5s), flap (10s), kill (50s).
        assert!(comps[0].label.starts_with("crash"));
        assert_eq!(comps[0].indices.len(), 2);
        assert!(comps[1].label.starts_with("flap"));
        assert_eq!(comps[2].label, "kill-leader");
        assert_eq!(comps[2].indices.len(), 1);

        let dropped = plan.without_component(&comps[1]);
        assert_eq!(dropped.events.len(), plan.events.len() - 2);
        assert!(dropped.validate(3).is_ok());

        let narrowed = plan.narrow_component(&comps[0]).expect("window narrows");
        let comps2 = narrowed.components();
        let (s, e) = (comps2[0].indices[0], comps2[0].indices[1]);
        assert_eq!(
            narrowed.events[e].at.as_micros() - narrowed.events[s].at.as_micros(),
            t(10).as_micros(),
            "20s window halves to 10s"
        );
        assert!(
            plan.narrow_component(&comps[2]).is_none(),
            "lone events don't narrow"
        );

        // Narrowing terminates: duration strictly decreases to the 1µs floor.
        let mut cur = plan.clone();
        let mut steps = 0usize;
        while let Some(next) = {
            let c = cur.components();
            cur.narrow_component(&c[0])
        } {
            cur = next;
            steps += 1;
            assert!(steps < 64, "narrowing must terminate");
        }

        // Message weakening terminates at inert.
        let mut m = plan.clone();
        let mut steps = 0usize;
        while let Some(next) = m.weaken_message() {
            m = next;
            steps += 1;
            assert!(steps < 64, "weakening must terminate");
        }
        assert!(m.message.is_inert());
    }

    #[test]
    fn plan_json_round_trips_exactly() {
        let plan = FaultPlan::scripted(u64::MAX - 3, Vec::new())
            .link_flap(n(0), n(1), t(10), t(30))
            .crash_window(n(2), t(5), t(25))
            .partition_window(vec![n(1), n(2)], t(40), t(60))
            .kill_leader_at(t(50))
            .with_message_chaos(0.0625, Duration::from_millis(1500));
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).expect("round trip parses");
        assert_eq!(back, plan, "byte-exact plan round trip");
        assert_eq!(back.to_json(), json, "re-serialization is stable");
        // Malformed documents are rejected, not misparsed.
        assert!(FaultPlan::from_json("{}").is_err());
        assert!(FaultPlan::from_json("{\"seed\":1}").is_err());
        let unknown = json.replace("kill_leader", "explode");
        assert!(FaultPlan::from_json(&unknown).is_err());
    }
}
