//! Versioned RTTF model lifecycle (extension).
//!
//! `online` gave the VMC drift detection and retroactive labelling, but
//! left two production gaps: a drift-triggered refit replaced the serving
//! model in the era that asked for it (as if regeneration were instant),
//! and the fresh model replaced the incumbent with **no evaluation** — a
//! worse model shipped silently. This module closes both:
//!
//! * **Background refits** — background in *simulated* time: when drift
//!   fires, the candidate is trained on the labelled dataset as it stands
//!   and then held for `REFIT_ERAS` (2) eras, through which the loop keeps
//!   planning on the incumbent; it is handed over at the fixed era
//!   boundary `submitted_era + REFIT_ERAS`. A refit is one REP-Tree fit
//!   on the serving model's feature selection
//!   ([`F2pmToolchain::fit_on`]): the paper selects features once,
//!   offline, and the lifecycle never re-runs the Lasso. On the host
//!   the fit runs where it is snapshotted, on the control thread, with
//!   an RNG split from the lifecycle stream: a refit is ~62 µs, and
//!   handing it to another thread cost two wakes of a parked worker per
//!   refit — more than the fit (`lifecycle-drift` ran faster at pool
//!   width 1).
//! * **Shadow evaluation** — the candidate enters `Loading → Shadowing`:
//!   it scores the live feature stream alongside the incumbent without
//!   influencing any decision. The error is **censored-aware**: rows from
//!   failures score absolute RTTF error; rejuvenation-censored rows (true
//!   failure time unobserved, survival ≥ bound proven) score only when a
//!   model predicts failure *before* the censor point — a provable
//!   misprediction of at least `bound − prediction` seconds.
//! * **Promote / rollback** — the candidate is promoted (an atomic swap
//!   of the VMC's predictor) only if it showed skill on its refit's
//!   holdout split (R² > 0: it beats predicting the mean out of sample)
//!   and its shadow error beats the incumbent's over at least
//!   `shadow_min_samples` rows for *both* models; the displaced version
//!   is retained, and a post-promotion regression (live error over
//!   `ROLLBACK_WINDOW` (8) rows exceeding the displaced model's shadow
//!   error by `ROLLBACK_FACTOR`, 1.5×) rolls the registry back to it. An
//!   era that swaps the serving model submits no refit, and the control
//!   loop clears the region's drift window.

use crate::online::OnlineLabeler;
use crate::vmc::RttfSource;
use acm_ml::model::ModelKind;
use acm_ml::toolchain::{F2pmToolchain, FitBuffers, RttfPredictor};
use acm_sim::rng::SimRng;
use acm_sim::time::SimTime;
use acm_vm::{FeatureVec, VmId};

/// Hard floor on refit dataset size, matching the F2PM toolchain's own
/// minimum — a refit is never submitted on fewer rows no matter how low
/// `min_labelled_rows` is configured.
pub const MIN_REFIT_ROWS: usize = 20;

/// Simulated deployment delay of a candidate: eras between the refit's
/// submission and the era whose prologue starts shadowing it.
const REFIT_ERAS: u64 = 2;

/// Post-promotion samples scored before the regression verdict.
const ROLLBACK_WINDOW: usize = 8;

/// Roll back when the promoted model's live error exceeds the displaced
/// model's shadow error by this factor.
const ROLLBACK_FACTOR: f64 = 1.5;

/// Tuning of the versioned model lifecycle. Disabled by default: a
/// config that never mentions the lifecycle replays byte-identically to
/// runs recorded before it existed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecycleConfig {
    /// Master switch. When off, the VMC carries no lifecycle state at
    /// all (and consumes no RNG stream).
    pub enabled: bool,
    /// Labelled rows required before a drift signal may trigger a refit.
    pub min_labelled_rows: usize,
    /// Minimum shadow samples (for BOTH candidate and incumbent) before
    /// the promotion verdict is evaluated.
    pub shadow_min_samples: usize,
    /// Minimum eras between consecutive refit submissions.
    pub cooldown_eras: u64,
    /// Test hook: train refit candidates on label-shuffled data, making
    /// them provably worthless. The verdict must reject every one.
    pub poison_refits: bool,
    /// Test hook: skip the shadow comparison and the skill gate and
    /// promote the candidate as soon as one sample per model exists
    /// (exercises rollback).
    pub force_promote: bool,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        LifecycleConfig {
            enabled: false,
            min_labelled_rows: 60,
            shadow_min_samples: 12,
            cooldown_eras: 8,
            poison_refits: false,
            force_promote: false,
        }
    }
}

impl LifecycleConfig {
    /// Sanity-checks the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_labelled_rows == 0 {
            return Err("lifecycle min_labelled_rows must be > 0".into());
        }
        if self.shadow_min_samples == 0 {
            return Err("lifecycle shadow_min_samples must be > 0".into());
        }
        Ok(())
    }
}

/// Censored-aware absolute-error accumulator for one model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShadowScore {
    abs_err_sum: f64,
    samples: usize,
}

impl ShadowScore {
    /// A failure row: the true RTTF was observed, score `|pred − actual|`.
    fn score_failure(&mut self, pred: f64, actual: f64) {
        self.abs_err_sum += (pred - actual).abs();
        self.samples += 1;
    }

    /// A censored row: the VM provably survived `bound` seconds past the
    /// snapshot. A prediction at or beyond the bound is *consistent* with
    /// the censored observation and scores nothing; predicting failure
    /// before the censor point is a provable misprediction of at least
    /// `bound − pred`.
    fn score_censored(&mut self, pred: f64, bound: f64) {
        if pred < bound {
            self.abs_err_sum += bound - pred;
            self.samples += 1;
        }
    }

    /// Scored rows so far (censored rows consistent with the model do
    /// not count — the denominators of two models legitimately differ).
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Mean absolute error over the scored rows.
    pub fn mean(&self) -> Option<f64> {
        (self.samples > 0).then(|| self.abs_err_sum / self.samples as f64)
    }
}

/// A trained candidate waiting out its `REFIT_ERAS` deployment delay.
#[derive(Debug)]
struct PendingRefit {
    version: u64,
    submitted_era: u64,
    predictor: RttfPredictor,
    /// R² of the candidate on its refit's holdout split.
    holdout_r2: f64,
}

/// A candidate scoring the live stream next to the incumbent.
#[derive(Debug)]
struct ShadowCandidate {
    version: u64,
    predictor: RttfPredictor,
    holdout_r2: f64,
    cand: ShadowScore,
    incumbent: ShadowScore,
}

/// Post-promotion regression watch: the freshly promoted model must not
/// do much worse live than the model it displaced did in shadow.
#[derive(Debug)]
struct RegressionWatch {
    baseline_err: f64,
    score: ShadowScore,
}

/// Where the registry currently is.
#[derive(Debug)]
enum Phase {
    /// Serving the incumbent; no refit in flight.
    Idle,
    /// A refit was submitted; its candidate is not deployed yet.
    Loading(PendingRefit),
    /// The candidate shadows the incumbent on the live stream.
    Shadowing(ShadowCandidate),
}

/// A state transition the control loop should surface as a decision
/// event (and act on: `Promoted`/`RolledBack` mean the serving predictor
/// just changed).
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleEvent {
    /// A refit was submitted off the drift signal.
    RefitStarted {
        /// Version the candidate will carry.
        version: u64,
        /// Labelled rows in the snapshotted training set.
        rows: usize,
        /// The candidate's R² on its refit's holdout split; it is never
        /// promoted unless this is above 0 (unless `force_promote`).
        holdout_r2: f64,
    },
    /// The refit's candidate was handed over and starts shadowing.
    RefitDone {
        /// Candidate version now shadowing.
        version: u64,
    },
    /// The candidate beat the incumbent and now serves.
    Promoted {
        /// Version now serving.
        version: u64,
        /// Version displaced (retained for rollback).
        old_version: u64,
        /// Candidate mean shadow error, seconds.
        cand_err: f64,
        /// Incumbent mean shadow error, seconds.
        incumbent_err: f64,
        /// Shadow rows the candidate scored.
        samples: usize,
    },
    /// The candidate lost the shadow comparison and was discarded.
    Rejected {
        /// Candidate version discarded.
        version: u64,
        /// Candidate mean shadow error, seconds.
        cand_err: f64,
        /// Incumbent mean shadow error, seconds.
        incumbent_err: f64,
    },
    /// The promoted model regressed live; the prior version serves again.
    RolledBack {
        /// Version rolled out of service.
        from_version: u64,
        /// Version restored.
        to_version: u64,
        /// Live mean error that tripped the watch, seconds.
        err: f64,
        /// The displaced model's shadow error the promotion promised to
        /// uphold, seconds.
        baseline_err: f64,
    },
}

impl LifecycleEvent {
    /// Whether the event swapped the serving predictor (`Promoted`,
    /// `RolledBack`): the region's drift window then judged a model that
    /// no longer serves, and the control loop clears it.
    pub fn swaps_model(&self) -> bool {
        matches!(
            self,
            LifecycleEvent::Promoted { .. } | LifecycleEvent::RolledBack { .. }
        )
    }
}

/// The per-region versioned model registry. Owned by the [`crate::Vmc`];
/// driven once per era from the control loop (`begin_era` before the
/// region serves, `end_era` after outcomes are known), fed outcome rows
/// by the VMC's failure/rejuvenation paths.
#[derive(Debug)]
pub struct ModelLifecycle {
    cfg: LifecycleConfig,
    labeler: OnlineLabeler,
    /// Version of the serving predictor (the initial offline model is 1).
    version: u64,
    /// Next candidate version to assign.
    next_version: u64,
    phase: Phase,
    /// The displaced predictor retained across a promotion.
    prior: Option<(u64, RttfPredictor)>,
    watch: Option<RegressionWatch>,
    last_refit_era: Option<u64>,
    /// Dedicated RNG stream; each refit trains on its own split.
    rng: SimRng,
    /// The one-family REP-Tree toolchain every refit runs, and the buffers
    /// it fits in, kept from refit to refit.
    toolchain: F2pmToolchain,
    fit: FitBuffers,
}

impl ModelLifecycle {
    /// A fresh registry serving version 1.
    pub fn new(cfg: LifecycleConfig, rng: SimRng) -> Self {
        ModelLifecycle {
            cfg,
            labeler: OnlineLabeler::new(),
            version: 1,
            next_version: 2,
            phase: Phase::Idle,
            prior: None,
            watch: None,
            last_refit_era: None,
            rng,
            toolchain: F2pmToolchain {
                models: vec![ModelKind::RepTree],
            },
            fit: FitBuffers::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &LifecycleConfig {
        &self.cfg
    }

    /// Flips the poison-refits chaos hook at runtime. Test support: a
    /// poisoned phase after an honest warm-up exercises the promotion
    /// gate against an incumbent fitted to the live distribution, which is
    /// the regression the gate exists to stop.
    pub fn set_poison_refits(&mut self, on: bool) {
        self.cfg.poison_refits = on;
    }

    /// Serving model version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The labeller feeding refits (read).
    pub fn labeler(&self) -> &OnlineLabeler {
        &self.labeler
    }

    /// `(candidate, incumbent)` mean shadow errors, when shadowing and
    /// both models have scored at least one row.
    pub fn shadow_errs(&self) -> Option<(f64, f64)> {
        match &self.phase {
            Phase::Shadowing(s) => Some((s.cand.mean()?, s.incumbent.mean()?)),
            _ => None,
        }
    }

    /// Records a feature snapshot for a VM (one per era per ACTIVE VM).
    pub fn observe(&mut self, vm: VmId, now: SimTime, features: FeatureVec) {
        self.labeler.observe(vm, now, features);
    }

    /// A VM failed at `at`: label its snapshots and score the newly
    /// labelled rows for whatever is shadowing / under regression watch.
    pub fn on_failure(&mut self, vm: VmId, at: SimTime, incumbent: Option<&RttfPredictor>) {
        let rows = self.labeler.on_failure(vm, at);
        for (features, rttf) in rows {
            let f = features.as_slice();
            if let Phase::Shadowing(s) = &mut self.phase {
                s.cand.score_failure(s.predictor.predict(f), *rttf);
                if let Some(m) = incumbent {
                    s.incumbent.score_failure(m.predict(f), *rttf);
                }
            }
            if let (Some(w), Some(m)) = (&mut self.watch, incumbent) {
                w.score.score_failure(m.predict(f), *rttf);
            }
        }
    }

    /// A VM was proactively rejuvenated at `at`: its snapshots become
    /// censored lower bounds and score censored-aware.
    pub fn on_rejuvenation(&mut self, vm: VmId, at: SimTime, incumbent: Option<&RttfPredictor>) {
        let rows = self.labeler.on_rejuvenation(vm, at);
        for (features, bound) in rows {
            let f = features.as_slice();
            if let Phase::Shadowing(s) = &mut self.phase {
                s.cand.score_censored(s.predictor.predict(f), *bound);
                if let Some(m) = incumbent {
                    s.incumbent.score_censored(m.predict(f), *bound);
                }
            }
            if let (Some(w), Some(m)) = (&mut self.watch, incumbent) {
                w.score.score_censored(m.predict(f), *bound);
            }
        }
    }

    /// Era prologue: hand a due candidate to `Shadowing`, at the fixed
    /// era boundary `submitted_era + REFIT_ERAS`.
    pub fn begin_era(&mut self, era_index: u64) -> Vec<LifecycleEvent> {
        let mut events = Vec::new();
        let due = matches!(
            &self.phase,
            Phase::Loading(p) if era_index >= p.submitted_era + REFIT_ERAS
        );
        if due {
            let Phase::Loading(p) = std::mem::replace(&mut self.phase, Phase::Idle) else {
                unreachable!("checked above");
            };
            events.push(LifecycleEvent::RefitDone { version: p.version });
            self.phase = Phase::Shadowing(ShadowCandidate {
                version: p.version,
                predictor: p.predictor,
                holdout_r2: p.holdout_r2,
                cand: ShadowScore::default(),
                incumbent: ShadowScore::default(),
            });
        }
        events
    }

    /// Era epilogue: evaluate the regression watch, deliver the shadow
    /// verdict, and maybe submit a new refit off the drift signal.
    /// `Promoted`/`RolledBack` swap the serving predictor in `source`
    /// in place — the VMC's next prediction uses the new version — and
    /// an era that swapped submits no refit: the drift signal it was
    /// given judged the model that just stopped serving.
    pub fn end_era(
        &mut self,
        era_index: u64,
        drifted: bool,
        source: &mut RttfSource,
    ) -> Vec<LifecycleEvent> {
        let mut events = Vec::new();

        // (1) Post-promotion regression watch: one verdict per promotion,
        // delivered once `ROLLBACK_WINDOW` live rows have been scored.
        if let Some(w) = &self.watch {
            if w.score.samples() >= ROLLBACK_WINDOW {
                let err = w.score.mean().expect("samples > 0");
                let baseline = w.baseline_err;
                self.watch = None;
                if err > baseline * ROLLBACK_FACTOR {
                    if let Some((prior_version, prior_model)) = self.prior.take() {
                        let from = self.version;
                        *source = RttfSource::Model(prior_model);
                        self.version = prior_version;
                        events.push(LifecycleEvent::RolledBack {
                            from_version: from,
                            to_version: prior_version,
                            err,
                            baseline_err: baseline,
                        });
                    }
                }
            }
        }

        // (2) Shadow verdict.
        let verdict_due = match &self.phase {
            Phase::Shadowing(s) => {
                let enough = s.cand.samples() >= self.cfg.shadow_min_samples
                    && s.incumbent.samples() >= self.cfg.shadow_min_samples;
                let forced =
                    self.cfg.force_promote && s.cand.samples() >= 1 && s.incumbent.samples() >= 1;
                enough || forced
            }
            _ => false,
        };
        if verdict_due {
            let Phase::Shadowing(s) = std::mem::replace(&mut self.phase, Phase::Idle) else {
                unreachable!("checked above");
            };
            let cand_err = s.cand.mean().expect("samples >= 1");
            let incumbent_err = s.incumbent.mean().expect("samples >= 1");
            // Skill gate: a constant predictor's holdout R² is ≤ 0 by
            // construction (SSE = SST + n·(train mean − holdout mean)²),
            // so R² > 0 is exactly "beats the mean out of sample".
            let skilled = s.holdout_r2 > 0.0;
            let promote = self.cfg.force_promote || (skilled && cand_err < incumbent_err);
            match (promote, &mut *source) {
                (true, RttfSource::Model(incumbent)) => {
                    let old_version = self.version;
                    self.prior = Some((old_version, incumbent.clone()));
                    let samples = s.cand.samples();
                    *source = RttfSource::Model(s.predictor);
                    self.version = s.version;
                    // The promoted model must at least live up to the
                    // error level of the model it displaced.
                    self.watch = Some(RegressionWatch {
                        baseline_err: incumbent_err,
                        score: ShadowScore::default(),
                    });
                    events.push(LifecycleEvent::Promoted {
                        version: s.version,
                        old_version,
                        cand_err,
                        incumbent_err,
                        samples,
                    });
                }
                _ => {
                    events.push(LifecycleEvent::Rejected {
                        version: s.version,
                        cand_err,
                        incumbent_err,
                    });
                }
            }
        }

        // (3) Maybe submit a refit: idle, drifted, enough labels, out of
        // cooldown, no swap this era. The candidate is trained here, on
        // the rows labelled so far and the serving model's feature
        // selection (the lifecycle never re-selects); `begin_era` deploys
        // it `REFIT_ERAS` eras later.
        let cooled = self
            .last_refit_era
            .is_none_or(|e| era_index.saturating_sub(e) >= self.cfg.cooldown_eras);
        // `Vmc::enable_lifecycle` attaches a registry to model sources only.
        let RttfSource::Model(serving) = &*source else {
            return events;
        };
        if matches!(self.phase, Phase::Idle)
            && drifted
            && cooled
            && !events.iter().any(LifecycleEvent::swaps_model)
            && self.labeler.labelled_rows() >= self.cfg.min_labelled_rows.max(MIN_REFIT_ROWS)
        {
            let rows = self.labeler.labelled_rows();
            let mut job_rng = self.rng.split();
            let version = self.next_version;
            self.next_version += 1;
            let shuffled;
            let db = if self.cfg.poison_refits {
                shuffled = crate::training::shuffle_targets(self.labeler.database(), &mut job_rng);
                &shuffled
            } else {
                self.labeler.database()
            };
            let selected = serving.selected_features();
            let (predictor, report) =
                self.toolchain
                    .fit_on(db, selected, &mut job_rng, &mut self.fit);
            let holdout_r2 = report.outcomes[0].metrics.r2;
            self.phase = Phase::Loading(PendingRefit {
                version,
                submitted_era: era_index,
                predictor,
                holdout_r2,
            });
            self.last_refit_era = Some(era_index);
            events.push(LifecycleEvent::RefitStarted {
                version,
                rows,
                holdout_r2,
            });
        }

        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{collect_database, CollectionConfig};
    use acm_sim::time::Duration;
    use acm_vm::{AnomalyConfig, FailureSpec, Vm, VmFlavor, VmState, FEATURE_COUNT};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn quick_predictor(seed: u64) -> RttfPredictor {
        let mut rng = SimRng::new(seed);
        let db = collect_database(
            &VmFlavor::m3_medium(),
            &AnomalyConfig::default(),
            &FailureSpec::default(),
            &CollectionConfig {
                lambdas: vec![8.0, 16.0],
                runs_per_lambda: 2,
                ..Default::default()
            },
            &mut rng,
        );
        F2pmToolchain {
            models: vec![ModelKind::RepTree],
        }
        .run(&db, &mut rng)
        .0
    }

    fn feature_vec(seed: u64) -> FeatureVec {
        // A real VM snapshot so the predictors see in-distribution rows.
        let vm = Vm::new(
            VmId(0),
            VmFlavor::m3_medium(),
            AnomalyConfig::default(),
            FailureSpec::default(),
            VmState::Active,
            SimRng::new(seed),
        );
        vm.features(SimTime::from_secs(seed), 12.0)
    }

    #[test]
    fn config_validates() {
        LifecycleConfig::default().validate().unwrap();
        for bad in [
            LifecycleConfig {
                min_labelled_rows: 0,
                ..Default::default()
            },
            LifecycleConfig {
                shadow_min_samples: 0,
                ..Default::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must not validate");
        }
    }

    #[test]
    fn censored_scoring_only_penalises_provable_mispredictions() {
        let mut s = ShadowScore::default();
        // Predicting survival past the censor bound is consistent.
        s.score_censored(500.0, 300.0);
        assert_eq!(s.samples(), 0);
        assert_eq!(s.mean(), None);
        // Predicting failure before the bound is provably wrong by at
        // least the shortfall.
        s.score_censored(100.0, 300.0);
        assert_eq!(s.samples(), 1);
        assert_eq!(s.mean(), Some(200.0));
        s.score_failure(50.0, 80.0);
        assert_eq!(s.samples(), 2);
        assert_eq!(s.mean(), Some(115.0));
    }

    /// Feeds `n` labelled failure rows with spread-out targets.
    fn feed_rows(lc: &mut ModelLifecycle, n: u32, seed: u64) {
        for i in 0..n {
            lc.observe(VmId(i), t(0), feature_vec(seed + u64::from(i)));
            lc.on_failure(VmId(i), t(u64::from(i) * 40 + 40), None);
        }
    }

    #[test]
    fn refit_is_submitted_and_collected_at_the_era_boundary() {
        let cfg = LifecycleConfig {
            enabled: true,
            min_labelled_rows: 1,
            ..Default::default()
        };
        let mut lc = ModelLifecycle::new(cfg, SimRng::new(1));
        let mut source = RttfSource::Model(quick_predictor(7));

        feed_rows(&mut lc, 24, 100);
        assert_eq!(lc.labeler().labelled_rows(), 24);

        let ev = lc.end_era(5, true, &mut source);
        assert!(
            matches!(
                ev.as_slice(),
                [LifecycleEvent::RefitStarted {
                    version: 2,
                    rows: 24,
                    ..
                }]
            ),
            "{ev:?}"
        );
        assert!(matches!(lc.phase, Phase::Loading(_)));

        // Not due yet at era 6; due at era 7 = 5 + REFIT_ERAS.
        assert!(lc.begin_era(6).is_empty());
        assert!(matches!(lc.phase, Phase::Loading(_)));
        let ev = lc.begin_era(7);
        assert_eq!(ev, vec![LifecycleEvent::RefitDone { version: 2 }]);
        assert!(matches!(lc.phase, Phase::Shadowing(_)));
        // Still serving version 1 while shadowing.
        assert_eq!(lc.version(), 1);
    }

    #[test]
    fn too_few_rows_never_submit_a_refit() {
        let cfg = LifecycleConfig {
            enabled: true,
            min_labelled_rows: 1, // below the toolchain floor on purpose
            ..Default::default()
        };
        let mut lc = ModelLifecycle::new(cfg, SimRng::new(8));
        let mut source = RttfSource::Model(quick_predictor(7));
        feed_rows(&mut lc, (MIN_REFIT_ROWS - 1) as u32, 500);
        assert!(lc.end_era(0, true, &mut source).is_empty());
        assert!(matches!(lc.phase, Phase::Idle));
    }

    #[test]
    fn poisoned_candidate_is_rejected_by_the_shadow_gate() {
        // The refit trains on label-shuffled data (provably worthless);
        // shadow rows are manufactured so the incumbent is nearly exact
        // (actual = its own prediction, rounded to seconds). A strictly
        // better candidate is impossible → the gate must reject.
        let cfg = LifecycleConfig {
            enabled: true,
            min_labelled_rows: 20,
            shadow_min_samples: 4,
            cooldown_eras: 0,
            poison_refits: true,
            ..Default::default()
        };
        let mut lc = ModelLifecycle::new(cfg, SimRng::new(2));
        let incumbent = quick_predictor(7);
        let mut source = RttfSource::Model(incumbent.clone());

        feed_rows(&mut lc, 24, 100);
        assert!(!lc.end_era(0, true, &mut source).is_empty());
        lc.begin_era(REFIT_ERAS);
        assert!(matches!(lc.phase, Phase::Shadowing(_)));

        for i in 0..4u64 {
            let f = feature_vec(300 + i);
            let actual = incumbent.predict(f.as_slice()).max(1.0);
            lc.observe(VmId(300 + i as u32), t(1_000), f);
            lc.on_failure(
                VmId(300 + i as u32),
                t(1_000) + Duration::from_secs(actual as u64),
                Some(&incumbent),
            );
        }
        let ev = lc.end_era(2, false, &mut source);
        assert!(
            matches!(ev.as_slice(), [LifecycleEvent::Rejected { version: 2, .. }]),
            "worthless candidate must be rejected, got {ev:?}"
        );
        assert_eq!(lc.version(), 1);
        assert!(matches!(lc.phase, Phase::Idle));
        // The incumbent kept serving, untouched.
        let RttfSource::Model(m) = &source else {
            panic!("model source")
        };
        let probe = feature_vec(999);
        assert_eq!(
            m.predict(probe.as_slice()),
            incumbent.predict(probe.as_slice())
        );
    }

    #[test]
    fn force_promote_then_regression_rolls_back_to_prior_exactly() {
        let cfg = LifecycleConfig {
            enabled: true,
            min_labelled_rows: 1,
            shadow_min_samples: 1,
            cooldown_eras: 100, // one refit only
            poison_refits: true,
            force_promote: true,
        };
        let mut lc = ModelLifecycle::new(cfg, SimRng::new(3));
        let original = quick_predictor(7);
        let mut source = RttfSource::Model(original.clone());

        // Enough rows for the poisoned refit to train on.
        feed_rows(&mut lc, 24, 10);
        assert!(!lc.end_era(0, true, &mut source).is_empty());
        lc.begin_era(REFIT_ERAS);

        // One scored failure row for both models, then force-promotion.
        // actual ≈ the incumbent's own prediction, so the regression
        // baseline (the displaced model's shadow error) is < 1 s.
        let f = feature_vec(50);
        let incumbent = match &source {
            RttfSource::Model(m) => m.clone(),
            RttfSource::Oracle => unreachable!(),
        };
        let inc_pred = incumbent.predict(f.as_slice()).max(1.0);
        lc.observe(VmId(100), t(100), f);
        lc.on_failure(
            VmId(100),
            t(100) + Duration::from_secs(inc_pred as u64),
            Some(&incumbent),
        );
        let ev = lc.end_era(2, false, &mut source);
        assert!(
            matches!(
                ev.as_slice(),
                [LifecycleEvent::Promoted {
                    version: 2,
                    old_version: 1,
                    ..
                }]
            ),
            "force_promote must promote, got {ev:?}"
        );
        assert_eq!(lc.version(), 2);

        // Live rows where the original model is exactly right: the
        // poisoned model's error dwarfs the baseline → rollback.
        let serving = match &source {
            RttfSource::Model(m) => m.clone(),
            RttfSource::Oracle => unreachable!(),
        };
        for i in 0..ROLLBACK_WINDOW as u32 {
            let fi = feature_vec(u64::from(i) + 60);
            let actual = original.predict(fi.as_slice()).max(1.0);
            lc.observe(VmId(200 + i), t(1_000), fi);
            lc.on_failure(
                VmId(200 + i),
                t(1_000) + Duration::from_secs(actual as u64),
                Some(&serving),
            );
        }
        let ev = lc.end_era(3, false, &mut source);
        assert!(
            matches!(
                ev.as_slice(),
                [LifecycleEvent::RolledBack {
                    from_version: 2,
                    to_version: 1,
                    ..
                }]
            ),
            "regression must roll back, got {ev:?}"
        );
        assert_eq!(lc.version(), 1);

        // The restored predictor is byte-for-byte the original: its
        // predictions match exactly on arbitrary probes.
        let RttfSource::Model(restored) = &source else {
            panic!("model source");
        };
        for seed in 0..20u64 {
            let p = feature_vec(seed + 300);
            assert_eq!(
                restored.predict(p.as_slice()),
                original.predict(p.as_slice()),
                "rollback must restore the prior version's predictions"
            );
        }
    }

    /// The serving predictor of `source`.
    fn serving(source: &RttfSource) -> &RttfPredictor {
        match source {
            RttfSource::Model(m) => m,
            RttfSource::Oracle => unreachable!("lifecycles serve models"),
        }
    }

    #[test]
    fn a_refit_keeps_the_serving_selection() {
        let cfg = LifecycleConfig {
            enabled: true,
            min_labelled_rows: 20,
            ..Default::default()
        };
        let mut lc = ModelLifecycle::new(cfg, SimRng::new(4));
        let mut source = RttfSource::Model(quick_predictor(7));
        feed_rows(&mut lc, 40, 700);
        let ev = lc.end_era(0, true, &mut source);
        let [LifecycleEvent::RefitStarted { holdout_r2, .. }] = ev.as_slice() else {
            panic!("{ev:?}");
        };
        let Phase::Loading(p) = &lc.phase else {
            panic!("no candidate loading");
        };
        assert_eq!(p.holdout_r2, *holdout_r2);
        assert_eq!(
            p.predictor.selected_features(),
            serving(&source).selected_features()
        );
    }

    /// A lifecycle with one candidate shadowing, whose holdout R² is
    /// overwritten with `r2`, and six failure rows labelled at the
    /// candidate's own predictions rounded to whole seconds, on rows
    /// where the incumbent's prediction rounds differently: the
    /// candidate's shadow error is the lower one.
    fn shadowing_with_r2(r2: f64, force_promote: bool) -> (ModelLifecycle, RttfSource) {
        let cfg = LifecycleConfig {
            enabled: true,
            min_labelled_rows: 20,
            shadow_min_samples: 6,
            cooldown_eras: 100,
            force_promote,
            ..Default::default()
        };
        let mut lc = ModelLifecycle::new(cfg, SimRng::new(6));
        let mut source = RttfSource::Model(quick_predictor(7));
        feed_rows(&mut lc, 40, 800);
        assert!(!lc.end_era(0, true, &mut source).is_empty());
        lc.begin_era(REFIT_ERAS);
        let Phase::Shadowing(s) = &mut lc.phase else {
            panic!("no candidate shadowing");
        };
        s.holdout_r2 = r2;
        let cand = s.predictor.clone();
        let incumbent = serving(&source).clone();
        let scored = |lc: &ModelLifecycle| match &lc.phase {
            Phase::Shadowing(s) => s.cand.samples().min(s.incumbent.samples()),
            _ => unreachable!("still shadowing"),
        };
        let mut i = 0u64;
        while scored(&lc) < 6 {
            i += 1;
            assert!(i < 1_000, "no probe rows where the models disagree");
            let f = feature_vec(900 + i);
            let actual = cand.predict(f.as_slice()).round();
            if actual < 1.0 || actual == incumbent.predict(f.as_slice()).round() {
                continue;
            }
            let vm = VmId(900 + i as u32);
            lc.observe(vm, t(2_000), f);
            lc.on_failure(
                vm,
                t(2_000) + Duration::from_secs(actual as u64),
                Some(&incumbent),
            );
        }
        let (cand_err, incumbent_err) = lc.shadow_errs().expect("both scored");
        assert!(cand_err < incumbent_err, "{cand_err} vs {incumbent_err}");
        (lc, source)
    }

    #[test]
    fn a_candidate_without_holdout_skill_is_never_promoted() {
        for r2 in [0.0, -0.4, f64::NAN] {
            let (mut lc, mut source) = shadowing_with_r2(r2, false);
            let ev = lc.end_era(2, false, &mut source);
            assert!(
                matches!(ev.as_slice(), [LifecycleEvent::Rejected { version: 2, .. }]),
                "R² {r2}: {ev:?}"
            );
            assert_eq!(lc.version(), 1);
        }
        // The same candidate with skill wins on its lower shadow error ...
        let (mut lc, mut source) = shadowing_with_r2(0.3, false);
        let ev = lc.end_era(2, false, &mut source);
        assert!(
            matches!(ev.as_slice(), [LifecycleEvent::Promoted { version: 2, .. }]),
            "{ev:?}"
        );
        // ... and `force_promote` overrides the gate.
        let (mut lc, mut source) = shadowing_with_r2(-0.4, true);
        let ev = lc.end_era(2, false, &mut source);
        assert!(
            matches!(ev.as_slice(), [LifecycleEvent::Promoted { version: 2, .. }]),
            "{ev:?}"
        );
    }

    #[test]
    fn an_era_that_swaps_the_model_submits_no_refit() {
        // Promotion: drifted, idle after the verdict, rows and cooldown
        // allow a refit — and none is submitted in the swapping era.
        let (mut lc, mut source) = shadowing_with_r2(0.3, false);
        lc.cfg.cooldown_eras = 0;
        let ev = lc.end_era(2, true, &mut source);
        assert!(
            matches!(ev.as_slice(), [LifecycleEvent::Promoted { .. }]),
            "{ev:?}"
        );
        assert!(ev.iter().all(LifecycleEvent::swaps_model));
        assert!(matches!(lc.phase, Phase::Idle));
        // The next era refits on the new model's selection.
        let ev = lc.end_era(3, true, &mut source);
        assert!(
            matches!(
                ev.as_slice(),
                [LifecycleEvent::RefitStarted { version: 3, .. }]
            ),
            "{ev:?}"
        );

        // Rollback: the promoted model regresses live.
        let (mut lc, mut source) = shadowing_with_r2(0.3, false);
        lc.cfg.cooldown_eras = 0;
        assert!(lc.end_era(2, false, &mut source)[0].swaps_model());
        let promoted = serving(&source).clone();
        for i in 0..ROLLBACK_WINDOW as u32 {
            let f = feature_vec(u64::from(i) + 77);
            let shortfall = promoted.predict(f.as_slice()) + 10_000.0;
            lc.observe(VmId(77 + i), t(5_000), f);
            lc.on_failure(
                VmId(77 + i),
                t(5_000) + Duration::from_secs(shortfall as u64),
                Some(&promoted),
            );
        }
        let ev = lc.end_era(3, true, &mut source);
        assert!(
            matches!(
                ev.as_slice(),
                [LifecycleEvent::RolledBack {
                    from_version: 2,
                    to_version: 1,
                    ..
                }]
            ),
            "{ev:?}"
        );
        assert!(matches!(lc.phase, Phase::Idle));
        let ev = lc.end_era(4, true, &mut source);
        assert!(
            matches!(ev.as_slice(), [LifecycleEvent::RefitStarted { .. }]),
            "{ev:?}"
        );
    }

    #[test]
    fn lifecycle_is_deterministic_across_thread_counts() {
        let run = || {
            let cfg = LifecycleConfig {
                enabled: true,
                min_labelled_rows: 20,
                shadow_min_samples: 1,
                force_promote: true,
                cooldown_eras: 100,
                ..Default::default()
            };
            let mut lc = ModelLifecycle::new(cfg, SimRng::new(11));
            let mut source = RttfSource::Model(quick_predictor(7));
            let mut transcript: Vec<LifecycleEvent> = Vec::new();
            for era in 0..20u64 {
                transcript.extend(lc.begin_era(era));
                // Three labelled rows per era keep the refit fed.
                let vm = VmId(era as u32);
                for k in 0..3u64 {
                    lc.observe(vm, t(era * 30 + k), feature_vec(era * 3 + k + 1));
                }
                let incumbent = match &source {
                    RttfSource::Model(m) => Some(m.clone()),
                    RttfSource::Oracle => None,
                };
                lc.on_failure(vm, t(era * 30 + 90), incumbent.as_ref());
                transcript.extend(lc.end_era(era, true, &mut source));
            }
            let probe = feature_vec(999);
            let RttfSource::Model(m) = &source else {
                panic!("model source")
            };
            (transcript, m.predict(probe.as_slice()))
        };
        let _width = crate::POOL_WIDTH.lock().unwrap_or_else(|e| e.into_inner());
        let before = acm_exec::current_threads();
        acm_exec::configure_threads(1);
        let seq = run();
        acm_exec::configure_threads(4);
        let par = run();
        acm_exec::configure_threads(before);
        assert_eq!(seq, par, "lifecycle must not depend on pool width");
        assert!(
            seq.0
                .iter()
                .any(|e| matches!(e, LifecycleEvent::Promoted { .. })),
            "scenario must exercise a promotion: {:?}",
            seq.0
        );
    }

    #[test]
    fn snapshots_with_nan_features_never_reach_the_refit_dataset() {
        let cfg = LifecycleConfig {
            enabled: true,
            ..Default::default()
        };
        let mut lc = ModelLifecycle::new(cfg, SimRng::new(5));
        lc.observe(VmId(0), t(0), FeatureVec::new([f64::NAN; FEATURE_COUNT]));
        lc.on_failure(VmId(0), t(10), None);
        assert_eq!(lc.labeler().labelled_rows(), 0);
        assert_eq!(lc.labeler().dropped_non_finite(), 1);
    }
}
