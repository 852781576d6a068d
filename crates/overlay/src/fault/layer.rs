//! [`ChaosLayer`]: replays a [`FaultPlan`] against a [`Transport`] and
//! decides the fate of each control-plane message; [`ChaosLayer::pre_split`]
//! derives the per-shard lenses.

use super::{FaultAction, FaultEvent, FaultPlan, MessageChaos};
use crate::graph::{LinkId, NodeId};
use crate::transport::Transport;
use acm_obs::{Counter, Hist, Obs, ObsHandle, TraceContext, Value};
use acm_sim::rng::SimRng;
use acm_sim::time::{Duration, SimTime};

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
            // An inert hub discards the event: skip building its fields.
            if self.hub.enabled() {
                self.hub.emit(
                    now.as_micros(),
                    "chaos.msg.drop",
                    vec![
                        ("from", Value::U64(u64::from(from.0))),
                        ("to", Value::U64(u64::from(to.0))),
                    ],
                );
            }
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
