//! The era's cause chain: which span every decision event hangs off.
//!
//! DESIGN.md §8's precedence lives here and nowhere else. A [`Link`]
//! names a decision event's place in the chain; [`Causes::emit`] looks up
//! its kind and parent ([`Causes::place`]), emits it, and keeps the new
//! span where later links look for it ([`Causes::keep`]). Every slot is `None` on a
//! hub that does not trace, so the bookkeeping is inert there.

use acm_obs::{ObsHandle, TraceContext, Value};
use acm_pcam::LifecycleEvent;
use acm_sim::time::SimTime;
use std::sync::Arc;

/// A decision event's place in the cause chain (region / SLO index inside).
#[derive(Debug, Clone, Copy)]
pub(super) enum Link {
    Era,
    ScriptedFault,
    LeaderChange,
    ReportLost(usize),
    Suspicion(usize),
    Quarantine(usize),
    Probation(usize),
    Readmit(usize),
    PlanInstall,
    PlanFreeze,
    RefitStart(usize),
    RefitDone(usize),
    Promote(usize),
    Reject(usize),
    Rollback(usize),
    SloBurn(usize),
    SloRecovered(usize),
}

impl Link {
    /// Events that exist on tracing hubs only (they would change an
    /// untraced run's event stream otherwise).
    fn trace_only(self) -> bool {
        use Link::*;
        matches!(
            self,
            Era | ScriptedFault | Suspicion(_) | SloBurn(_) | SloRecovered(_)
        )
    }
}

/// The ten context slots the chain is threaded through.
pub(super) struct Causes {
    obs: ObsHandle,
    /// Root span of the current era (ambient context for plain emits).
    era: Option<TraceContext>,
    /// Newest fault root, scripted or chaos. Persists across eras on
    /// purpose: an unhealed partition keeps causing losses.
    fault: Option<TraceContext>,
    /// What the era's next plan event chains off: its latest health
    /// transition, then the install / freeze itself.
    plan_cause: Option<TraceContext>,
    /// Per region: the latest `report.lost` (cleared on delivery).
    loss: Vec<Option<TraceContext>>,
    /// Per region: the latest `heartbeat.timeout`.
    suspect: Vec<Option<TraceContext>>,
    /// Per region: the open `region.quarantine`.
    quarantine: Vec<Option<TraceContext>>,
    /// Per region: the latest `drift.signal` root.
    drift: Vec<Option<TraceContext>>,
    /// Per region: the latest `model.refit.start`.
    refit: Vec<Option<TraceContext>>,
    /// Per region: the latest `model.promote`.
    promote: Vec<Option<TraceContext>>,
    /// Per SLO monitor: the open `slo.burn`.
    slo: Vec<Option<TraceContext>>,
}

impl Causes {
    pub(super) fn new(obs: &ObsHandle, regions: usize, slos: usize) -> Self {
        let per_region = || vec![None; regions];
        Causes {
            obs: obs.clone(),
            era: None,
            fault: None,
            plan_cause: None,
            loss: per_region(),
            suspect: per_region(),
            quarantine: per_region(),
            drift: per_region(),
            refit: per_region(),
            promote: per_region(),
            slo: vec![None; slos],
        }
    }

    /// Emits `link`'s event at `t` under the parent the precedence gives
    /// it and keeps its span. `fields` is only built when the hub records
    /// the event, so a disabled hub costs one branch.
    pub(super) fn emit(
        &mut self,
        t: SimTime,
        link: Link,
        fields: impl FnOnce() -> Vec<(&'static str, Value)>,
    ) {
        let recorded = if link.trace_only() {
            self.obs.trace_enabled()
        } else {
            self.obs.enabled()
        };
        if recorded {
            let (kind, parent) = self.place(link);
            let ctx = self.obs.emit_caused(t.as_micros(), kind, fields(), parent);
            self.keep(link, ctx);
        }
    }

    /// The chain as a table: each link's event kind and its causal parent,
    /// the first present winning. Quarantine ← suspicion ← loss ← fault;
    /// probation / readmit ← their quarantine; install / freeze ←
    /// the era's health transition; refit ← drift; promote / reject ←
    /// refit; rollback ← promote; slo ← fault; the era root is everyone's
    /// fallback.
    fn place(&self, link: Link) -> (&'static str, Option<TraceContext>) {
        use Link::*;
        let (era, fault) = (self.era, self.fault);
        match link {
            Era => ("era", None),
            ScriptedFault => ("fault.scripted", None),
            LeaderChange => ("leader.change", fault.or(era)),
            ReportLost(_) => ("report.lost", fault.or(era)),
            Suspicion(j) => ("heartbeat.timeout", self.loss[j].or(fault).or(era)),
            Quarantine(j) => {
                let evidence = self.suspect[j].or(self.loss[j]);
                ("region.quarantine", evidence.or(fault).or(era))
            }
            Probation(j) => ("region.probation", self.quarantine[j].or(era)),
            Readmit(j) => ("region.readmit", self.quarantine[j].or(era)),
            PlanInstall => ("plan.install", self.plan_cause.or(era)),
            PlanFreeze => ("plan.freeze", self.plan_cause.or(era).or(fault)),
            RefitStart(j) => ("model.refit.start", self.drift[j].or(era)),
            RefitDone(j) => ("model.refit.done", self.refit[j].or(era)),
            Promote(j) => ("model.promote", self.refit[j].or(era)),
            Reject(j) => ("model.reject", self.refit[j].or(era)),
            Rollback(j) => ("model.rollback", self.promote[j].or(era)),
            SloBurn(_) => ("slo.burn", fault.or(era)),
            SloRecovered(i) => ("slo.recovered", self.slo[i].or(era)),
        }
    }

    /// Stores the span `link` just opened where its effects will look.
    fn keep(&mut self, link: Link, ctx: Option<TraceContext>) {
        use Link::*;
        match link {
            Era => {
                self.era = ctx;
                self.obs.set_trace_ambient(ctx);
                self.plan_cause = None;
            }
            ScriptedFault => self.fault = ctx.or(self.fault),
            ReportLost(j) => self.loss[j] = ctx.or(self.loss[j]),
            Suspicion(j) => self.suspect[j] = ctx,
            Quarantine(j) => self.quarantine[j] = ctx,
            Readmit(j) => {
                self.quarantine[j] = None;
                self.delivered(j);
            }
            RefitStart(j) => self.refit[j] = ctx,
            Promote(j) => self.promote[j] = ctx,
            SloBurn(i) => self.slo[i] = ctx,
            SloRecovered(i) => self.slo[i] = None,
            _ => {}
        }
        if matches!(
            link,
            Quarantine(_) | Probation(_) | Readmit(_) | PlanInstall | PlanFreeze
        ) {
            self.plan_cause = ctx.or(self.plan_cause);
        }
    }

    /// Region `j`'s report arrived: its loss and suspicion are history.
    pub(super) fn delivered(&mut self, j: usize) {
        self.loss[j] = None;
        self.suspect[j] = None;
    }

    /// The chaos layer's newest root (if any) becomes the fault context.
    pub(super) fn chaos_root(&mut self, ctx: Option<TraceContext>) {
        self.fault = ctx.or(self.fault);
    }

    /// Region `j`'s drift monitor opened a `drift.signal` root.
    pub(super) fn drifted(&mut self, j: usize, ctx: TraceContext) {
        self.drift[j] = Some(ctx);
    }

    /// Emits region `j`'s lifecycle transitions: `drift.signal` →
    /// `model.refit.start` → `model.refit.done` / `model.promote` /
    /// `model.reject`, and `model.promote` → `model.rollback`.
    pub(super) fn lifecycle(
        &mut self,
        t: SimTime,
        j: usize,
        name: &Arc<str>,
        events: &[LifecycleEvent],
    ) {
        let region = || ("region", Value::from(name));
        for ev in events {
            match *ev {
                LifecycleEvent::RefitStarted {
                    version,
                    rows,
                    holdout_r2,
                } => self.emit(t, Link::RefitStart(j), || {
                    vec![
                        region(),
                        ("version", Value::from(version)),
                        ("rows", Value::from(rows)),
                        ("holdout_r2", Value::from(holdout_r2)),
                    ]
                }),
                LifecycleEvent::RefitDone { version } => self.emit(t, Link::RefitDone(j), || {
                    vec![region(), ("version", Value::from(version))]
                }),
                LifecycleEvent::Promoted {
                    version,
                    old_version,
                    cand_err,
                    incumbent_err,
                    samples,
                } => self.emit(t, Link::Promote(j), || {
                    vec![
                        region(),
                        ("version", Value::from(version)),
                        ("old_version", Value::from(old_version)),
                        ("cand_err_s", Value::from(cand_err)),
                        ("incumbent_err_s", Value::from(incumbent_err)),
                        ("samples", Value::from(samples)),
                    ]
                }),
                LifecycleEvent::Rejected {
                    version,
                    cand_err,
                    incumbent_err,
                } => self.emit(t, Link::Reject(j), || {
                    vec![
                        region(),
                        ("version", Value::from(version)),
                        ("cand_err_s", Value::from(cand_err)),
                        ("incumbent_err_s", Value::from(incumbent_err)),
                    ]
                }),
                LifecycleEvent::RolledBack {
                    from_version,
                    to_version,
                    err,
                    baseline_err,
                } => self.emit(t, Link::Rollback(j), || {
                    vec![
                        region(),
                        ("from_version", Value::from(from_version)),
                        ("to_version", Value::from(to_version)),
                        ("live_err_s", Value::from(err)),
                        ("baseline_err_s", Value::from(baseline_err)),
                    ]
                }),
            }
        }
    }
}
