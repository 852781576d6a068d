//! Delta-debugging shrinker for violating fault plans.
//!
//! Given a plan whose run violates some invariant, [`shrink_plan`]
//! greedily minimizes it while re-running the (deterministic) checker
//! after every candidate cut. Each round walks one stream of candidate
//! plans, [`candidates`], strongest moves first, and takes the first
//! that still violates:
//!
//! 1. **Drop a component** — a matched fault/recovery window or lone
//!    event ([`FaultPlan::components`]); removes whole faults.
//! 2. **Narrow a window** — halve a surviving window's duration.
//! 3. **Weaken message chaos** — quantized halving with snap-to-zero.
//!
//! Termination is well-founded: every *accepted* move strictly
//! decreases the measure `(event count, total window length in µs,
//! message-chaos weight)` in lexicographic-sum terms, and a round that
//! accepts nothing ends the loop. The checker is a pure function of the
//! plan (same seed → same verdict), so shrinking is deterministic and
//! the final plan still violates — both properties are proptested.

use acm_overlay::{FaultPlan, PlanComponent};
use acm_sim::time::{Duration, SimTime};

/// The result of a shrink.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized plan (still violating under the caller's check).
    pub plan: FaultPlan,
    /// Accepted shrink moves.
    pub steps: u32,
    /// Candidate plans evaluated (accepted + rejected).
    pub attempts: u32,
}

/// Safety valve on checker invocations; generously above what the
/// strictly-decreasing measure allows for any campaign-sized plan.
const MAX_ATTEMPTS: u32 = 2_000;

/// Greedily minimizes `plan` while `still_violates` holds. The caller's
/// closure must be deterministic (it re-runs the world; all campaign
/// runs are) and must return `true` for the input plan — otherwise the
/// input is already "minimal" and is returned unchanged.
pub fn shrink_plan<F>(plan: &FaultPlan, mut still_violates: F) -> ShrinkOutcome
where
    F: FnMut(&FaultPlan) -> bool,
{
    let mut current = plan.clone();
    let mut steps = 0u32;
    let mut attempts = 0u32;
    loop {
        let budget = (MAX_ATTEMPTS - attempts) as usize;
        let next = candidates(&current).take(budget).find(|candidate| {
            attempts += 1;
            still_violates(candidate)
        });
        let Some(next) = next else {
            return ShrinkOutcome {
                plan: current,
                steps,
                attempts,
            };
        };
        current = next;
        steps += 1;
    }
}

/// Every one-move shrink of `plan`, in the order [`shrink_plan`] tries
/// them: each component dropped, then each window that still narrows
/// narrowed, then message chaos weakened (if it is not inert yet). Built
/// lazily, so a first-fit search stops paying at its first hit.
pub fn candidates(plan: &FaultPlan) -> impl Iterator<Item = FaultPlan> + '_ {
    let components = plan.components();
    let narrows = components.clone();
    let drops = components
        .into_iter()
        .map(move |c| without_component(plan, &c));
    let narrows = narrows
        .into_iter()
        .filter_map(move |c| narrow_component(plan, &c));
    let weaken = std::iter::once_with(move || weaken_message(plan)).flatten();
    drops.chain(narrows).chain(weaken)
}

/// The plan with every event of `component` removed. Strictly smaller
/// (fewer events) whenever the component is non-empty.
fn without_component(plan: &FaultPlan, component: &PlanComponent) -> FaultPlan {
    let events = plan
        .events
        .iter()
        .enumerate()
        .filter(|(i, _)| !component.indices.contains(i))
        .map(|(_, ev)| ev.clone())
        .collect();
    FaultPlan { events, ..*plan }
}

/// Halves a matched window's duration (recovery pulled toward the
/// fault, floor 1µs so the result stays valid). `None` for lone events
/// or windows already at the floor — so repeated narrowing terminates
/// (duration strictly decreases).
fn narrow_component(plan: &FaultPlan, component: &PlanComponent) -> Option<FaultPlan> {
    let [start, end] = component.indices[..] else {
        return None;
    };
    let at = plan.events[start].at.as_micros();
    let len = plan.events[end].at.as_micros().checked_sub(at)?;
    let new_len = (len / 2).max(1);
    if new_len >= len {
        return None;
    }
    let mut out = plan.clone();
    out.events[end].at = SimTime::from_micros(at + new_len);
    Some(out)
}

/// Weakens message chaos one quantized step: halves `drop_prob`
/// (snapping to 0 below 1e-3) and halves the extra-delay bound
/// (snapping to zero below 1ms). `None` when already inert, so repeated
/// weakening terminates.
fn weaken_message(plan: &FaultPlan) -> Option<FaultPlan> {
    if plan.message.is_inert() {
        return None;
    }
    let mut out = plan.clone();
    out.message.drop_prob = match plan.message.drop_prob / 2.0 {
        p if p < 1e-3 => 0.0,
        p => p,
    };
    let delay_us = plan.message.extra_delay_max.as_micros() / 2;
    out.message.extra_delay_max = if delay_us < 1_000 {
        Duration::ZERO
    } else {
        Duration::from_micros(delay_us)
    };
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acm_overlay::NodeId;
    use acm_sim::time::{Duration, SimTime};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn shrink_drops_irrelevant_components_and_keeps_the_culprit() {
        let plan = FaultPlan::scripted(9, Vec::new())
            .link_flap(n(0), n(1), t(10), t(40))
            .crash_window(n(2), t(100), t(400))
            .kill_leader_at(t(700))
            .with_message_chaos(0.1, Duration::from_secs(1));
        // "Violation" := the plan still contains the crash window of vmc2.
        let culprit = |p: &FaultPlan| p.components().iter().any(|c| c.label == "crash vmc2");
        assert!(culprit(&plan));
        let out = shrink_plan(&plan, culprit);
        assert!(culprit(&out.plan), "shrinking preserves the violation");
        assert_eq!(out.plan.events.len(), 2, "only the crash window remains");
        assert!(out.plan.message.is_inert(), "message chaos weakened away");
        assert!(out.steps >= 3);
        // The surviving window was narrowed to the floor.
        let comps = out.plan.components();
        assert_eq!(comps.len(), 1);
        let (s, e) = (comps[0].indices[0], comps[0].indices[1]);
        assert_eq!(
            out.plan.events[e].at.as_micros() - out.plan.events[s].at.as_micros(),
            1,
            "window narrowed to the 1µs floor"
        );
    }

    #[test]
    fn candidates_drop_then_narrow_then_weaken_and_each_move_terminates() {
        let plan = FaultPlan::scripted(7, Vec::new())
            .link_flap(n(0), n(1), t(10), t(30))
            .crash_window(n(2), t(5), t(25))
            .kill_leader_at(t(50))
            .with_message_chaos(0.2, Duration::from_secs(2));
        let comps = plan.components();
        let all: Vec<FaultPlan> = candidates(&plan).collect();
        // Three drops, two narrows (the kill is a lone event), one weaken.
        assert_eq!(all.len(), 6);
        for (drop, c) in all.iter().zip(&comps) {
            assert_eq!(drop.events.len(), plan.events.len() - c.indices.len());
            assert!(drop.validate(3, Duration::ZERO).is_ok());
        }
        // The crash window (first component) narrows 20s -> 10s.
        let narrowed = &all[3];
        let [s, e] = narrowed.components()[0].indices[..] else {
            panic!("the crash window stays paired");
        };
        assert_eq!(
            narrowed.events[e].at.as_micros() - narrowed.events[s].at.as_micros(),
            t(10).as_micros(),
            "20s window halves to 10s"
        );
        assert_eq!(all[5].events, plan.events);
        assert_eq!(all[5].message.drop_prob, 0.1);

        // Narrowing terminates: duration strictly decreases to the 1µs floor.
        let mut cur = plan.clone();
        let mut steps = 0usize;
        while let Some(next) = narrow_component(&cur, &cur.components()[0]) {
            cur = next;
            steps += 1;
            assert!(steps < 64, "narrowing must terminate");
        }
        // Message weakening terminates at inert.
        let mut m = plan.clone();
        let mut steps = 0usize;
        while let Some(next) = weaken_message(&m) {
            m = next;
            steps += 1;
            assert!(steps < 64, "weakening must terminate");
        }
        assert!(m.message.is_inert());
        assert_eq!(candidates(&FaultPlan::default()).count(), 0);
    }

    #[test]
    fn shrink_of_a_non_violating_plan_is_identity() {
        let plan = FaultPlan::scripted(1, Vec::new()).link_flap(n(0), n(1), t(5), t(6));
        let out = shrink_plan(&plan, |_| false);
        assert_eq!(out.plan, plan);
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn shrink_terminates_on_always_violating_checks() {
        // Worst case: everything "violates", so every move is accepted
        // until the measure bottoms out at the empty inert plan.
        let plan = FaultPlan::scripted(4, Vec::new())
            .link_flap(n(0), n(1), t(1), t(1000))
            .crash_window(n(1), t(2), t(2000))
            .partition_window(vec![n(2)], t(3), t(3000))
            .kill_leader_at(t(50))
            .with_message_chaos(0.9, Duration::from_secs(30));
        let out = shrink_plan(&plan, |_| true);
        assert!(out.plan.events.is_empty());
        assert!(out.plan.message.is_inert());
        assert!(out.attempts < MAX_ATTEMPTS);
    }
}
