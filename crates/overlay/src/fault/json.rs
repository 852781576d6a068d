//! The corpus format for committed chaos reproducers: a [`FaultPlan`] as
//! one JSON object, written and read through the obs JSON module.

use super::{FaultAction, FaultEvent, FaultPlan, MessageChaos};
use crate::graph::NodeId;
use acm_obs::json::JsonValue;
use acm_sim::time::{Duration, SimTime};

impl FaultPlan {
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
        FaultPlan::from_json_value(&acm_obs::json::parse(s)?)
    }

    /// Reads a plan out of an already-parsed [`FaultPlan::to_json`]
    /// document (a corpus entry's `plan` field).
    pub fn from_json_value(doc: &JsonValue) -> Result<FaultPlan, String> {
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
        let seed = want_u64(doc, "seed")?;
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
