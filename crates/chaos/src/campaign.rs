//! Campaign generation and execution.
//!
//! A campaign is `plans` seed-randomized [`ChaosCase`]s, each a pure
//! function of `(campaign seed, index)`: a deployment config (fig-3 or
//! fig-4 shape, degradation enabled in the tolerant TTL regime) plus a
//! [`FaultPlan`] mixing flap storms, partitions, crash windows, leader
//! kills, and per-message chaos at fixed per-family probabilities. Cases
//! run on the exec pool via one panic-isolating deterministic collect over
//! every plan index ([`acm_exec::try_map_collect`]; the pool width bounds
//! how many run at once), so one crashing run is a *finding*, not the end of
//! the sweep, and verdict order is always index order — the campaign
//! fingerprint is byte-identical at every `ACM_THREADS` width.
//!
//! The observation channel is strictly what production emits: each run's
//! telemetry and obs event log are reconstructed into per-era
//! [`EraView`]s and fed to the invariant catalogue. The test-only
//! [`Injection`] hook perturbs the *observed* trace (never the system
//! under test) so the detection/shrinking machinery itself is testable
//! end to end.

use crate::invariant::{
    standard_invariants, EraView, HealthTransition, Invariant, TransitionKind, Violation,
};
use acm_core::config::PredictorChoice;
use acm_core::framework::run_experiment_with_obs;
use acm_core::policy::PolicyKind;
use acm_core::telemetry::ExperimentTelemetry;
use acm_core::{DegradationConfig, ExperimentConfig};
use acm_obs::{Obs, ObsConfig, Value};
use acm_overlay::{FaultPlan, NodeId};
use acm_sim::rng::SimRng;
use acm_sim::time::{Duration, SimTime};

/// A whole campaign: how many plans, from which seed, at what shape.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Master seed; case `i` derives its own stream from `(seed, i)`.
    pub seed: u64,
    /// Number of randomized plans to run.
    pub plans: usize,
    /// Eras per run (40 keeps a case in the low milliseconds while
    /// leaving room for quarantine + readmit + convergence).
    pub eras: usize,
    /// Test-only trace perturbation (always [`Injection::None`] in
    /// production sweeps).
    pub injection: Injection,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xC4A0_5EED,
            plans: 200,
            eras: 40,
            injection: Injection::None,
        }
    }
}

/// Test-only perturbation of the observed trace, used to prove the
/// checker catches what it claims to catch. Never touches the system
/// under test — only the [`EraView`]s the invariants see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Injection {
    /// No perturbation (production).
    None,
    /// Pretend the plan leaked `frac` flow to `region` while it was
    /// quarantined (shifted from the largest live region, so flow still
    /// sums to 1 and only `quarantine_zero_flow` fires).
    LeakFlow {
        /// Region whose observed fraction is inflated.
        region: usize,
        /// Leaked fraction.
        frac: f64,
    },
    /// Duplicate every readmit of `region` (probation oscillation).
    DoubleReadmit {
        /// Region whose readmits are doubled.
        region: usize,
    },
}

impl Injection {
    /// True for the production no-op.
    pub fn is_none(&self) -> bool {
        matches!(self, Injection::None)
    }
}

/// One runnable case: deployment config + fault plan.
#[derive(Debug, Clone)]
pub struct ChaosCase {
    /// Case index within the campaign.
    pub index: usize,
    /// Per-case seed (derived, recorded in verdicts).
    pub case_seed: u64,
    /// The deployment the plan runs against.
    pub cfg: ExperimentConfig,
    /// Observed-trace perturbation (test-only).
    pub injection: Injection,
}

/// The outcome of one case.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Case index.
    pub index: usize,
    /// Per-case seed.
    pub case_seed: u64,
    /// Invariant violations, in detection order (empty = pass).
    pub violations: Vec<Violation>,
    /// Panic message if the run itself crashed (a finding too).
    pub crashed: Option<String>,
}

impl Verdict {
    /// True when the case passed cleanly.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.crashed.is_none()
    }

    /// Canonical one-line rendering; the campaign fingerprint is these
    /// lines joined, so it must be byte-stable for a fixed seed.
    pub fn line(&self) -> String {
        if let Some(msg) = &self.crashed {
            return format!(
                "plan {:04} seed {:#018x} CRASH {msg}",
                self.index, self.case_seed
            );
        }
        if self.violations.is_empty() {
            format!("plan {:04} seed {:#018x} ok", self.index, self.case_seed)
        } else {
            let lines: Vec<String> = self.violations.iter().map(|v| v.line()).collect();
            format!(
                "plan {:04} seed {:#018x} VIOLATION {}",
                self.index,
                self.case_seed,
                lines.join("; ")
            )
        }
    }
}

/// A finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-case verdicts in index order.
    pub verdicts: Vec<Verdict>,
    /// Canonical fingerprint: every verdict line joined by `\n`.
    pub fingerprint: String,
}

impl CampaignReport {
    /// Cases with at least one violation.
    pub fn violating(&self) -> Vec<&Verdict> {
        self.verdicts
            .iter()
            .filter(|v| !v.violations.is_empty())
            .collect()
    }

    /// Cases whose run panicked.
    pub fn crashed(&self) -> usize {
        self.verdicts.iter().filter(|v| v.crashed.is_some()).count()
    }
}

/// Derives the deployment + plan for case `index` — a pure function of
/// `(cc.seed, index)`, so any case replays in isolation.
pub fn build_case(cc: &CampaignConfig, index: usize) -> ChaosCase {
    let case_seed = acm_obs::trace::mix(cc.seed, index as u64);
    // Alternate deployment shapes: every third case runs the three-region
    // fig-4 topology, the rest the two-region fig-3 one.
    let regions = if index % 3 == 2 { 3 } else { 2 };
    let mut cfg = if regions == 3 {
        ExperimentConfig::three_region_fig4(PolicyKind::AvailableResources, case_seed)
    } else {
        ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, case_seed)
    };
    cfg.name = format!("chaos-{index:04}");
    cfg.eras = cc.eras;
    // Oracle predictor: no model training inside the campaign inner loop.
    cfg.predictor = PredictorChoice::Oracle;
    // Tolerant TTL regime: quarantine decisions come from report-age
    // staleness, with the suspicion timeout slack enough (5 eras of
    // silence) that probabilistic message chaos cannot trip it.
    cfg.degradation = DegradationConfig::enabled();
    cfg.degradation.suspicion_timeout = Duration::from_micros(cfg.era.as_micros() * 5);
    cfg.fault_plan = Some(build_plan(cc, case_seed, regions, cfg.era));
    ChaosCase {
        index,
        case_seed,
        cfg,
        injection: cc.injection,
    }
}

/// Rebuilds a runnable case from its serialized parts (corpus replay):
/// the same deployment derivation as [`build_case`], but with the plan
/// supplied instead of generated.
pub fn case_from_parts(
    case_seed: u64,
    regions: usize,
    eras: usize,
    plan: FaultPlan,
    injection: Injection,
) -> ChaosCase {
    let mut cfg = if regions >= 3 {
        ExperimentConfig::three_region_fig4(PolicyKind::AvailableResources, case_seed)
    } else {
        ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, case_seed)
    };
    cfg.name = format!("chaos-replay-{case_seed:016x}");
    cfg.eras = eras;
    cfg.predictor = PredictorChoice::Oracle;
    cfg.degradation = DegradationConfig::enabled();
    cfg.degradation.suspicion_timeout = Duration::from_micros(cfg.era.as_micros() * 5);
    cfg.fault_plan = Some(plan);
    ChaosCase {
        index: 0,
        case_seed,
        cfg,
        injection,
    }
}

/// Per-link flap and per-node crash-window probability scale (forwarded
/// to [`FaultPlan::randomized`]).
const FAULT_INTENSITY: f64 = 0.7;
/// Probability a plan carries one single-region partition window.
const PARTITION_PROBABILITY: f64 = 0.5;
/// Probability a plan kills the leader once.
const KILL_PROBABILITY: f64 = 0.25;
/// Probability a plan adds per-message drop/delay chaos.
const MESSAGE_CHAOS_PROBABILITY: f64 = 0.4;

/// Seed-randomized plan: flaps + crash windows from the stock generator,
/// then (each with its fixed probability) one partition window, one leader
/// kill, and per-message chaos. All scheduled activity lands in the first
/// ~60% of the horizon so heals leave room for readmission and convergence.
fn build_plan(cc: &CampaignConfig, case_seed: u64, regions: usize, era: Duration) -> FaultPlan {
    let era_us = era.as_micros();
    let nodes: Vec<NodeId> = (0..regions as u32).map(NodeId).collect();
    let mut links = Vec::new();
    for a in 0..regions as u32 {
        for b in (a + 1)..regions as u32 {
            links.push((NodeId(a), NodeId(b)));
        }
    }
    let active_eras = (cc.eras * 3 / 5).max(4);
    let horizon = SimTime::from_micros(era_us * active_eras as u64);
    let mut plan = FaultPlan::randomized(case_seed, &nodes, &links, horizon, FAULT_INTENSITY);
    let mut rng = SimRng::new(acm_obs::trace::mix(case_seed, 0x91A6_0000_0001));
    if rng.bernoulli(PARTITION_PROBABILITY) && regions > 1 {
        // Partition a non-leader region (the leader-cut case is a
        // different scenario family, exercised by tests/tracing.rs).
        let victim = nodes[1 + rng.index(regions - 1)];
        let at_era = 1 + rng.index(active_eras / 2);
        let len_eras = 2 + rng.index(4);
        let at = SimTime::from_micros(at_era as u64 * era_us + era_us / 3);
        let heal = SimTime::from_micros((at_era + len_eras) as u64 * era_us + era_us / 3);
        plan = plan.partition_window(vec![victim], at, heal);
    }
    if rng.bernoulli(KILL_PROBABILITY) {
        let at_era = 2 + rng.index(active_eras / 2);
        plan = plan.kill_leader_at(SimTime::from_micros(at_era as u64 * era_us + era_us / 2));
    }
    if rng.bernoulli(MESSAGE_CHAOS_PROBABILITY) {
        let drop = rng.uniform(0.02, 0.12);
        let delay = Duration::from_millis(rng.index(1200) as u64);
        plan = plan.with_message_chaos(drop, delay);
    }
    plan
}

/// Runs one case end to end and checks every invariant.
pub fn run_case(case: &ChaosCase) -> Verdict {
    let obs = Obs::new(ObsConfig::default());
    let tel = run_experiment_with_obs(&case.cfg, obs.clone());
    let mut trace = RunTrace::build(&case.cfg, &tel, &obs);
    trace.inject(case.injection);
    Verdict {
        index: case.index,
        case_seed: case.case_seed,
        violations: trace.check(&mut standard_invariants()),
        crashed: None,
    }
}

/// Runs the whole campaign on the exec pool: panic isolation, verdicts
/// in index order. Campaign counters land on `obs` under
/// `acm.chaos.campaign.*`.
pub fn run_campaign(cc: &CampaignConfig, obs: &Obs) -> CampaignReport {
    let ctr_plans = obs.counter("acm.chaos.campaign.plans");
    let ctr_violations = obs.counter("acm.chaos.campaign.violations");
    let ctr_crashes = obs.counter("acm.chaos.campaign.crashes");
    let ctr_eras = obs.counter("acm.chaos.campaign.eras_checked");
    let outcomes =
        acm_exec::try_map_collect((0..cc.plans).collect(), |i| run_case(&build_case(cc, i)));
    let mut verdicts = Vec::with_capacity(cc.plans);
    for (slot, outcome) in outcomes.into_iter().enumerate() {
        let verdict = match outcome {
            Ok(v) => v,
            Err(msg) => Verdict {
                index: slot,
                case_seed: acm_obs::trace::mix(cc.seed, slot as u64),
                violations: Vec::new(),
                crashed: Some(msg),
            },
        };
        ctr_plans.inc();
        if !verdict.violations.is_empty() {
            ctr_violations.add(verdict.violations.len() as u64);
        }
        if verdict.crashed.is_some() {
            ctr_crashes.inc();
        }
        ctr_eras.add(cc.eras as u64);
        verdicts.push(verdict);
    }
    let fingerprint = verdicts
        .iter()
        .map(|v| v.line())
        .collect::<Vec<_>>()
        .join("\n");
    CampaignReport {
        verdicts,
        fingerprint,
    }
}

/// The per-era observable record of one finished run, reconstructed
/// from telemetry + the obs event log.
#[derive(Debug, Clone)]
pub struct RunTrace {
    eras: usize,
    fractions: Vec<Vec<f64>>,
    installed: Vec<bool>,
    excluded: Vec<Vec<bool>>,
    dead: Vec<Vec<bool>>,
    transitions: Vec<Vec<HealthTransition>>,
    kills: Vec<u32>,
    leader_changes: Vec<u32>,
    alive: Vec<u32>,
    last_activity_era: Option<usize>,
    message_inert: bool,
}

impl RunTrace {
    /// Reconstructs the observable trace of a finished run.
    pub fn build(cfg: &ExperimentConfig, tel: &ExperimentTelemetry, obs: &Obs) -> RunTrace {
        let n = cfg.regions.len();
        let eras = tel.eras();
        let era_us = cfg.era.as_micros().max(1);
        let names: Vec<&str> = cfg.regions.iter().map(|r| r.region.name.as_str()).collect();
        let fractions: Vec<Vec<f64>> = (0..eras)
            .map(|e| (0..n).map(|j| tel.fraction(j).points()[e].value).collect())
            .collect();
        let mut installed = vec![false; eras];
        let mut transitions: Vec<Vec<HealthTransition>> = vec![Vec::new(); eras];
        let mut kills = vec![0u32; eras];
        let mut leader_changes = vec![0u32; eras];
        let mut last_activity_era = None;
        // Per-node crash/recover timeline (era, crashed?) from chaos events.
        let mut node_marks: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];

        let field_u64 = |ev: &acm_obs::EventRecord, key: &str| -> Option<u64> {
            match ev.field(key)? {
                Value::U64(x) => Some(*x),
                Value::I64(x) => u64::try_from(*x).ok(),
                _ => None,
            }
        };

        for ev in obs.events_tail(usize::MAX) {
            match ev.kind {
                "plan.install" => {
                    if let Some(e) = field_u64(&ev, "era") {
                        if (e as usize) < eras {
                            installed[e as usize] = true;
                        }
                    }
                }
                "region.quarantine" | "region.probation" | "region.readmit" => {
                    let Some(e) = field_u64(&ev, "era") else {
                        continue;
                    };
                    let Some(name) = ev.field("region").and_then(Value::as_str) else {
                        continue;
                    };
                    let Some(j) = names.iter().position(|r| *r == name) else {
                        continue;
                    };
                    let outage = field_u64(&ev, "outage").unwrap_or(0) as u32;
                    let kind = match ev.kind {
                        "region.quarantine" => TransitionKind::Quarantine,
                        "region.probation" => TransitionKind::Probation,
                        _ => TransitionKind::Readmit,
                    };
                    if (e as usize) < eras {
                        transitions[e as usize].push(HealthTransition {
                            region: j,
                            kind,
                            outage,
                        });
                    }
                }
                "leader.change" => {
                    let e = (ev.t_us / era_us) as usize;
                    if e < eras {
                        leader_changes[e] += 1;
                    }
                }
                kind if kind.starts_with("chaos.") => {
                    // Scheduled faults apply at the first era start >= at.
                    let e = (ev.t_us.div_ceil(era_us)) as usize;
                    if e >= eras {
                        continue;
                    }
                    last_activity_era = Some(last_activity_era.map_or(e, |p: usize| p.max(e)));
                    let node = field_u64(&ev, "node").map(|x| x as usize);
                    match kind {
                        "chaos.leader.kill" => {
                            kills[e] += 1;
                            if let Some(jn) = node {
                                if jn < n {
                                    node_marks[jn].push((e, true));
                                }
                            }
                        }
                        "chaos.node.crash" => {
                            if let Some(jn) = node {
                                if jn < n {
                                    node_marks[jn].push((e, true));
                                }
                            }
                        }
                        "chaos.node.recover" => {
                            if let Some(jn) = node {
                                if jn < n {
                                    node_marks[jn].push((e, false));
                                }
                            }
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        }

        // Roll the health mask and the crash timeline forward era by era.
        let mut excluded = vec![vec![false; n]; eras];
        let mut dead = vec![vec![false; n]; eras];
        let mut alive = vec![n as u32; eras];
        let mut mask = vec![false; n];
        let mut crashed = vec![false; n];
        for e in 0..eras {
            for j in 0..n {
                for &(me, down) in &node_marks[j] {
                    if me == e {
                        crashed[j] = down;
                    }
                }
            }
            for tr in &transitions[e] {
                match tr.kind {
                    TransitionKind::Quarantine => mask[tr.region] = true,
                    TransitionKind::Probation => mask[tr.region] = true,
                    TransitionKind::Readmit => mask[tr.region] = false,
                }
            }
            excluded[e].copy_from_slice(&mask);
            alive[e] = crashed.iter().filter(|&&c| !c).count() as u32;
            for j in 0..n {
                // Dead: crashed now with no recovery scheduled later.
                dead[e][j] = crashed[j] && !node_marks[j].iter().any(|&(me, down)| me > e && !down);
            }
        }

        let message_inert = cfg
            .fault_plan
            .as_ref()
            .map(|p| p.message.is_inert())
            .unwrap_or(true);
        RunTrace {
            eras,
            fractions,
            installed,
            excluded,
            dead,
            transitions,
            kills,
            leader_changes,
            alive,
            last_activity_era,
            message_inert,
        }
    }

    /// Applies a test-only perturbation to the observed trace.
    pub fn inject(&mut self, injection: Injection) {
        match injection {
            Injection::None => {}
            Injection::LeakFlow { region, frac } => {
                for e in 0..self.eras {
                    if !(self.installed[e] && self.excluded[e].get(region) == Some(&true)) {
                        continue;
                    }
                    // Shift flow from the largest region so conservation
                    // still holds and only quarantine_zero_flow fires.
                    let donor = (0..self.fractions[e].len())
                        .filter(|&j| j != region)
                        .max_by(|&a, &b| self.fractions[e][a].total_cmp(&self.fractions[e][b]));
                    if let Some(d) = donor {
                        let shift = frac.min(self.fractions[e][d]);
                        self.fractions[e][d] -= shift;
                        self.fractions[e][region] += shift;
                    }
                }
            }
            Injection::DoubleReadmit { region } => {
                for per_era in &mut self.transitions {
                    let dup: Vec<HealthTransition> = per_era
                        .iter()
                        .filter(|tr| tr.region == region && tr.kind == TransitionKind::Readmit)
                        .copied()
                        .collect();
                    per_era.extend(dup);
                }
            }
        }
    }

    /// Evaluates `invariants` over every era plus the end sweep,
    /// collecting at most one violation per invariant (the first).
    pub fn check(&self, invariants: &mut [Box<dyn Invariant + Send>]) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut tripped = vec![false; invariants.len()];
        for e in 0..self.eras {
            let view = EraView {
                era: e,
                eras_total: self.eras,
                fractions: &self.fractions[e],
                installed: self.installed[e],
                excluded: &self.excluded[e],
                dead: &self.dead[e],
                transitions: &self.transitions[e],
                kills_applied: self.kills[e],
                leader_changes: self.leader_changes[e],
                alive_nodes: self.alive[e],
                last_activity_era: self.last_activity_era,
                message_inert: self.message_inert,
            };
            for (i, inv) in invariants.iter_mut().enumerate() {
                if tripped[i] {
                    continue;
                }
                if let Some(v) = inv.check_era(&view) {
                    tripped[i] = true;
                    out.push(v);
                }
            }
        }
        for (i, inv) in invariants.iter_mut().enumerate() {
            if tripped[i] {
                continue;
            }
            if let Some(v) = inv.check_end() {
                out.push(v);
            }
        }
        out
    }

    /// Number of eras in the trace.
    pub fn eras(&self) -> usize {
        self.eras
    }
}
