//! Weighted-selection primitives shared by every sampling call site.
//!
//! Two consumers need the same audited arithmetic: the intra-region
//! balancer normalises raw health/capacity weights into shares, and the
//! request router draws millions of region indices per second from the
//! planned flow fractions `f_i`. [`WeightTable`] packages both: a
//! normalised share vector plus a Walker/Vose **alias table** giving O(1)
//! weighted sampling with *exact* exclusion of zero-weight entries — an
//! index whose weight is zero can never be returned, no matter what the
//! RNG draws, because it is simply absent from the compacted slots. The
//! table is rebuilt in place ([`WeightTable::rebuild`]): the alias pass
//! runs in the table's own `prob` slots and two stacks it keeps empty
//! between rebuilds, so a rebuild over no more indices than the table has
//! held allocates nothing.

use crate::rng::SimRng;

/// A prebuilt weighted-sampling table over indices `0..len`.
///
/// ```
/// use acm_sim::rng::SimRng;
/// use acm_sim::weights::WeightTable;
/// let t = WeightTable::build(&[0.7, 0.0, 0.3]);
/// let mut rng = SimRng::new(1);
/// for _ in 0..1000 {
///     assert_ne!(t.sample(&mut rng), 1, "zero weight is never drawn");
/// }
/// assert!((t.shares()[0] - 0.7).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightTable {
    /// Normalised shares, zeros preserved (len = input len).
    shares: Vec<f64>,
    /// Region/index behind each compact slot (positive-weight only).
    slot_index: Vec<u32>,
    /// Acceptance probability of each slot's own index.
    prob: Vec<f64>,
    /// Index (not slot) to fall through to when the acceptance roll fails.
    alias: Vec<u32>,
    /// Vose's two work stacks, empty outside [`WeightTable::rebuild`]
    /// (kept for their capacity).
    small: Vec<usize>,
    large: Vec<usize>,
}

impl WeightTable {
    /// Builds a table from non-negative weights (need not be normalised).
    /// Panics if any weight is negative or non-finite, or if all are zero.
    pub fn build(weights: &[f64]) -> Self {
        let mut t = WeightTable {
            shares: Vec::new(),
            slot_index: Vec::new(),
            prob: Vec::new(),
            alias: Vec::new(),
            small: Vec::new(),
            large: Vec::new(),
        };
        t.rebuild(weights);
        t
    }

    /// Rebuilds the table in place for a new weight vector, reusing every
    /// allocation (the per-plan-swap path of the request router). Same
    /// panics as [`WeightTable::build`].
    pub fn rebuild(&mut self, weights: &[f64]) {
        let total = checked_total(weights);
        assert!(total > 0.0, "at least one weight must be positive");
        self.shares.clear();
        self.shares.extend(weights.iter().map(|w| w / total));

        // Compact to positive-weight entries: zero-weight indices never
        // enter a slot, so sampling can never return them.
        self.slot_index.clear();
        self.slot_index.extend(
            (0..weights.len())
                .filter(|&i| weights[i] > 0.0)
                .map(|i| i as u32),
        );
        let m = self.slot_index.len();
        self.alias.clear();
        self.alias.resize(m, 0);

        // Vose's alias construction over the compact slots. `prob[k]`
        // starts as the slot's share times the slot count; slots below 1
        // are topped up by slots above 1. A slot's value is final once it
        // leaves the small stack, so the scaled values live in `prob`.
        let prob = &mut self.prob;
        prob.clear();
        prob.extend(
            self.slot_index
                .iter()
                .map(|&i| self.shares[i as usize] * m as f64),
        );
        let (small, large) = (&mut self.small, &mut self.large);
        for (k, &s) in prob.iter().enumerate() {
            if s < 1.0 {
                small.push(k);
            } else {
                large.push(k);
            }
        }
        // Peek-then-pop: evaluating both pops in a tuple pattern would
        // silently discard one slot when the other stack runs dry.
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            self.alias[s] = self.slot_index[l];
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers (floating-point slack) accept with certainty.
        for k in large.drain(..).chain(small.drain(..)) {
            prob[k] = 1.0;
            self.alias[k] = self.slot_index[k];
        }
    }

    /// Number of indices the table spans (including zero-weight ones).
    pub fn len(&self) -> usize {
        self.shares.len()
    }

    /// True when the table spans no indices.
    pub fn is_empty(&self) -> bool {
        self.shares.is_empty()
    }

    /// Number of positive-weight indices actually sampleable.
    pub fn support(&self) -> usize {
        self.slot_index.len()
    }

    /// The normalised shares (zeros preserved, sums to 1).
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }

    /// Draws one index with probability proportional to its weight: one
    /// slot pick plus one acceptance roll, O(1) and allocation-free.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let k = rng.index(self.slot_index.len());
        if rng.f64() < self.prob[k] {
            self.slot_index[k] as usize
        } else {
            self.alias[k] as usize
        }
    }

    /// Normalises raw non-negative weights, in place, into shares summing
    /// to 1 — the balancer-facing half of the primitive (no table
    /// construction). Same panics as [`WeightTable::build`].
    pub fn normalize(weights: &mut [f64]) {
        let total = checked_total(weights);
        assert!(total > 0.0, "at least one weight must be positive");
        for w in weights {
            *w /= total;
        }
    }
}

/// Validates weights and returns their sum.
fn checked_total(weights: &[f64]) -> f64 {
    assert!(!weights.is_empty(), "weight vector must be non-empty");
    weights
        .iter()
        .inspect(|w| {
            assert!(
                w.is_finite() && **w >= 0.0,
                "weights must be finite and non-negative"
            )
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_are_normalised_with_zeros_preserved() {
        let t = WeightTable::build(&[2.0, 0.0, 6.0]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.support(), 2);
        assert!((t.shares()[0] - 0.25).abs() < 1e-12);
        assert_eq!(t.shares()[1], 0.0);
        assert!((t.shares()[2] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sampling_tracks_weights() {
        let t = WeightTable::build(&[1.0, 3.0, 6.0]);
        let mut rng = SimRng::new(7);
        let mut counts = [0u64; 3];
        let n = 300_000;
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        for (i, want) in [0.1, 0.3, 0.6].iter().enumerate() {
            let got = counts[i] as f64 / n as f64;
            assert!((got - want).abs() < 0.01, "index {i}: {got} vs {want}");
        }
    }

    #[test]
    fn zero_weight_indices_are_never_sampled() {
        let t = WeightTable::build(&[0.0, 1.0, 0.0, 2.0, 0.0]);
        let mut rng = SimRng::new(9);
        for _ in 0..50_000 {
            let i = t.sample(&mut rng);
            assert!(i == 1 || i == 3, "sampled zero-weight index {i}");
        }
    }

    #[test]
    fn single_positive_weight_is_certain() {
        let t = WeightTable::build(&[0.0, 5.0]);
        let mut rng = SimRng::new(3);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn rebuild_reuses_and_matches_build() {
        let mut t = WeightTable::build(&[1.0, 1.0]);
        t.rebuild(&[0.0, 2.0, 8.0]);
        let fresh = WeightTable::build(&[0.0, 2.0, 8.0]);
        assert_eq!(t, fresh);
    }

    #[test]
    fn rebuild_is_deterministic_sampling() {
        let a = WeightTable::build(&[0.5, 0.2, 0.3]);
        let b = WeightTable::build(&[0.5, 0.2, 0.3]);
        let mut ra = SimRng::new(11);
        let mut rb = SimRng::new(11);
        for _ in 0..1000 {
            assert_eq!(a.sample(&mut ra), b.sample(&mut rb));
        }
    }

    #[test]
    fn normalize_matches_manual_division() {
        let mut s = [2.0, 6.0];
        WeightTable::normalize(&mut s);
        assert_eq!(s, [0.25, 0.75]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn all_zero_weights_panic() {
        let _ = WeightTable::build(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let _ = WeightTable::build(&[1.0, -0.5]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_weights_panic() {
        let _ = WeightTable::build(&[]);
    }

    #[test]
    fn heavily_skewed_weights_stay_exact() {
        let t = WeightTable::build(&[1e-9, 1.0]);
        let mut rng = SimRng::new(5);
        let hits = (0..100_000).filter(|_| t.sample(&mut rng) == 0).count();
        // Share 1e-9: essentially never, but the slot still exists.
        assert!(hits < 5, "{hits} hits on a 1e-9 share");
        assert_eq!(t.support(), 2);
    }
}
