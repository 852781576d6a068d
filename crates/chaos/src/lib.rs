//! Chaos campaigns as a model checker for the proactive control plane.
//!
//! The crate turns the PR 5 fault layer and degradation machinery into
//! machine-checked territory: hundreds of seed-randomized [`FaultPlan`]s
//! run against the control loop on the exec pool, a pluggable
//! [`Invariant`] catalogue is evaluated every era over the run's
//! *observable* trace (telemetry + obs events), violations are shrunk by
//! a delta-debugging [`shrink_plan`] loop to minimal reproducers, and
//! those reproducers are committed as a [`CorpusEntry`] corpus that
//! tier-1 replays as regression tests.
//!
//! Everything is deterministic end to end: cases are pure functions of
//! `(campaign seed, index)`, runs replay byte-identically at every
//! `ACM_THREADS` width, and the campaign fingerprint (canonical verdict
//! lines) is compared verbatim across widths by the tier-1 test
//! `campaign_fingerprint_is_identical_across_thread_widths`.
//!
//! [`FaultPlan`]: acm_overlay::FaultPlan

pub mod campaign;
pub mod corpus;
pub mod invariant;
pub mod shrink;

pub use campaign::{
    build_case, case_from_parts, run_campaign, run_case, CampaignConfig, CampaignReport, ChaosCase,
    Injection, RunTrace, Verdict,
};
pub use corpus::CorpusEntry;
pub use invariant::{
    standard_invariants, ConvergenceAfterHeal, EraView, FlowConservation, HealthTransition,
    Invariant, QuarantineZeroFlow, ReelectionBound, SingleReadmitPerOutage, TransitionKind,
    Violation,
};
pub use shrink::{shrink_plan, ShrinkOutcome};
