//! The committed reproducer corpus.
//!
//! Every violation a campaign finds is shrunk to a minimal plan and
//! serialized as one JSON document (written with the obs JSON writer,
//! read back with its parser). Entries live under `crates/chaos/corpus/`
//! and are replayed by tier-1 as regression tests with failing-then-fixed
//! semantics: with the entry's (test-only) injection the expected
//! invariant must still fire; without it the run must be clean — proving
//! both that the bug reproduces and that the production system does not
//! exhibit it.

use crate::campaign::{case_from_parts, run_case, Injection, Verdict};
use acm_obs::json::{self, JsonObject, JsonValue};
use acm_overlay::FaultPlan;

/// One committed minimal reproducer.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// Stable entry name (doubles as the file stem).
    pub name: String,
    /// Invariant expected to fire on replay-with-injection.
    pub invariant: String,
    /// Deployment shape (2 = fig-3, 3 = fig-4).
    pub regions: usize,
    /// Eras per replay run.
    pub eras: usize,
    /// Per-case seed (drives workload + chaos RNG streams).
    pub case_seed: u64,
    /// The test-only trace perturbation that exposes the violation.
    pub injection: Injection,
    /// The minimal fault plan.
    pub plan: FaultPlan,
}

impl CorpusEntry {
    /// Serializes the entry as one JSON document.
    pub fn to_json(&self) -> String {
        let mut inj = JsonObject::new();
        match self.injection {
            Injection::None => {
                inj.field_str("kind", "none");
            }
            Injection::LeakFlow { region, frac } => {
                inj.field_str("kind", "leak_flow")
                    .field_u64("region", region as u64)
                    .field_f64("frac", frac);
            }
            Injection::DoubleReadmit { region } => {
                inj.field_str("kind", "double_readmit")
                    .field_u64("region", region as u64);
            }
        }
        let mut o = JsonObject::new();
        o.field_str("name", &self.name)
            .field_str("invariant", &self.invariant)
            .field_u64("regions", self.regions as u64)
            .field_u64("eras", self.eras as u64)
            .field_u64("case_seed", self.case_seed)
            .field_raw("injection", &inj.finish())
            .field_raw("plan", &self.plan.to_json());
        o.finish()
    }

    /// Parses an entry serialized by [`CorpusEntry::to_json`].
    pub fn from_json(s: &str) -> Result<CorpusEntry, String> {
        let doc = json::parse(s)?;
        let str_field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("corpus entry: missing string field {key:?}"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("corpus entry: missing u64 field {key:?}"))
        };
        let inj = doc
            .get("injection")
            .ok_or_else(|| "corpus entry: missing injection".to_string())?;
        let inj_u64 = |key: &str| -> Result<usize, String> {
            inj.get(key)
                .and_then(|v| v.as_u64())
                .map(|v| v as usize)
                .ok_or_else(|| format!("corpus entry: injection missing {key:?}"))
        };
        let injection = match inj.get("kind").and_then(JsonValue::as_str) {
            Some("none") => Injection::None,
            Some("leak_flow") => Injection::LeakFlow {
                region: inj_u64("region")?,
                frac: inj
                    .get("frac")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| "corpus entry: leak_flow missing frac".to_string())?,
            },
            Some("double_readmit") => Injection::DoubleReadmit {
                region: inj_u64("region")?,
            },
            other => {
                return Err(format!("corpus entry: unknown injection kind {other:?}"));
            }
        };
        // FaultPlan owns its fields, this module only the envelope.
        let plan = FaultPlan::from_json_value(
            doc.get("plan")
                .ok_or_else(|| "corpus entry: missing plan".to_string())?,
        )?;
        Ok(CorpusEntry {
            name: str_field("name")?,
            invariant: str_field("invariant")?,
            regions: u64_field("regions")? as usize,
            eras: u64_field("eras")? as usize,
            case_seed: u64_field("case_seed")?,
            injection,
            plan,
        })
    }

    /// Replays the entry with its injection armed. A healthy corpus
    /// entry yields a verdict violating `self.invariant`.
    pub fn replay(&self) -> Verdict {
        run_case(&case_from_parts(
            self.case_seed,
            self.regions,
            self.eras,
            self.plan.clone(),
            self.injection,
        ))
    }

    /// Replays the entry with the injection disarmed. A healthy corpus
    /// entry yields a clean verdict — the production system does not
    /// exhibit the violation.
    pub fn replay_clean(&self) -> Verdict {
        run_case(&case_from_parts(
            self.case_seed,
            self.regions,
            self.eras,
            self.plan.clone(),
            Injection::None,
        ))
    }

    /// Checks the entry against its committed semantics.
    ///
    /// Injected entries are failing-then-fixed: the injected replay must
    /// violate `self.invariant` and the clean replay must pass. Entries
    /// with [`Injection::None`] record a real bug that has since been
    /// fixed — the (single) replay must stay clean forever.
    pub fn verify(&self) -> Result<(), String> {
        if self.injection.is_none() {
            let clean = self.replay_clean();
            if !clean.ok() {
                return Err(format!(
                    "entry {:?}: fixed-bug regression resurfaced: {}",
                    self.name,
                    clean.line()
                ));
            }
            return Ok(());
        }
        let bad = self.replay();
        if !bad.violations.iter().any(|v| v.invariant == self.invariant) {
            return Err(format!(
                "entry {:?}: injected replay did not violate {:?} (got: {})",
                self.name,
                self.invariant,
                bad.line()
            ));
        }
        let clean = self.replay_clean();
        if !clean.ok() {
            return Err(format!(
                "entry {:?}: clean replay is not clean: {}",
                self.name,
                clean.line()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acm_overlay::NodeId;
    use acm_sim::time::{Duration, SimTime};

    #[test]
    fn corpus_entry_round_trips() {
        let entry = CorpusEntry {
            name: "leak-demo".into(),
            invariant: "quarantine_zero_flow".into(),
            regions: 2,
            eras: 40,
            case_seed: 0xdead_beef_cafe_f00d,
            injection: Injection::LeakFlow {
                region: 1,
                frac: 0.125,
            },
            plan: FaultPlan::scripted(7, Vec::new())
                .crash_window(NodeId(1), SimTime::from_secs(150), SimTime::from_secs(450))
                .with_message_chaos(0.0, Duration::ZERO),
        };
        let json = entry.to_json();
        let back = CorpusEntry::from_json(&json).expect("round trip parses");
        assert_eq!(back, entry);
        assert_eq!(back.to_json(), json, "stable re-serialization");
        assert!(CorpusEntry::from_json("{\"name\":\"x\"}").is_err());
    }
}
