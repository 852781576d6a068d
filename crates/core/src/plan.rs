//! The global forward plan (paper Sec. V).
//!
//! "ACM Framework assumes that a user can arbitrarily connect to whichever
//! cloud region. [...] After the fraction `f_i` of requests that each
//! region should process has been calculated, this plan establishes the
//! fractions of requests that are sent from users to the LB of a region
//! that have to be forwarded to the local region and to LBs of other
//! regions."
//!
//! Formally: clients deliver ingress shares `a` (Σa = 1); the policy wants
//! processing shares `f` (Σf = 1). The plan is a row-stochastic matrix `P`
//! with `Σ_i a_i · P[i][j] = f_j`, built greedily to maximise locally-kept
//! traffic (forwarding costs WAN latency): every region keeps
//! `min(a_i, f_i)` of its own ingress, surplus regions export the rest to
//! deficit regions proportionally to their unmet demand.

/// A row-stochastic forwarding matrix between region load balancers.
///
/// ```
/// use acm_core::plan::ForwardPlan;
/// // Clients arrive 50/50 but region 0 should process 80 % of the flow:
/// let plan = ForwardPlan::build(&[0.5, 0.5], &[0.8, 0.2]);
/// assert!((plan.fraction(1, 0) - 0.6).abs() < 1e-9); // region 1 forwards 60 %
/// assert!((plan.realised_share(0) - 0.8).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ForwardPlan {
    /// Row-major: `rows[i * n + j]` = fraction of region *i*'s ingress
    /// forwarded to *j*.
    rows: Vec<f64>,
    /// The ingress shares the plan was built for.
    ingress: Vec<f64>,
    /// The processing shares the plan realises.
    target: Vec<f64>,
}

impl ForwardPlan {
    /// Builds the plan mapping ingress shares `a` onto target fractions
    /// `f`. Both must be probability vectors of equal length.
    pub fn build(ingress: &[f64], target: &[f64]) -> Self {
        let mut plan = ForwardPlan::default();
        plan.rebuild(ingress, target);
        plan
    }

    /// [`ForwardPlan::build`] into this plan's buffers: a plan rebuilt
    /// era after era over the same regions allocates nothing.
    pub fn rebuild(&mut self, ingress: &[f64], target: &[f64]) {
        assert_eq!(ingress.len(), target.len(), "shape mismatch");
        assert!(!ingress.is_empty(), "need at least one region");
        for v in [ingress, target] {
            let s: f64 = v.iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "shares must sum to 1, got {s}");
            assert!(v.iter().all(|x| *x >= 0.0), "shares must be non-negative");
        }
        let n = ingress.len();
        let rows = &mut self.rows;
        rows.clear();
        rows.resize(n * n, 0.0);

        // Unmet processing demand per region.
        let deficit = |j: usize| (target[j] - ingress[j]).max(0.0);
        let total_deficit: f64 = (0..n).map(deficit).sum();

        for i in 0..n {
            let row = &mut rows[i * n..(i + 1) * n];
            if ingress[i] == 0.0 {
                // No ingress here: row is irrelevant, keep it local by
                // convention so the matrix stays row-stochastic.
                row[i] = 1.0;
                continue;
            }
            let keep = ingress[i].min(target[i]);
            row[i] = keep / ingress[i];
            let surplus = ingress[i] - keep;
            if surplus > 0.0 && total_deficit > 0.0 {
                // Export the surplus proportionally to global deficits.
                for (j, cell) in row.iter_mut().enumerate() {
                    let d = deficit(j);
                    if d > 0.0 {
                        *cell = (surplus * d / total_deficit) / ingress[i];
                    }
                }
            }
        }
        self.ingress.clear();
        self.ingress.extend_from_slice(ingress);
        self.target.clear();
        self.target.extend_from_slice(target);
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.ingress.len()
    }

    /// Fraction of region `i`'s ingress forwarded to region `j`.
    pub fn fraction(&self, i: usize, j: usize) -> f64 {
        self.rows[i * self.regions() + j]
    }

    /// The matrix, one row per ingress region.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.rows.chunks_exact(self.regions())
    }

    /// Effective processing share of region `j` under this plan:
    /// `Σ_i a_i · P[i][j]`.
    pub fn realised_share(&self, j: usize) -> f64 {
        self.ingress
            .iter()
            .zip(self.rows())
            .map(|(a, row)| a * row[j])
            .sum()
    }

    /// Fraction of global traffic forwarded away from its ingress region —
    /// the redirection overhead Policy 1's oscillations inflate ("many
    /// redirections of the request flow between regions, which generates
    /// additional overhead", Sec. VI-B).
    pub fn remote_fraction(&self) -> f64 {
        self.ingress
            .iter()
            .enumerate()
            .map(|(i, a)| a * (1.0 - self.fraction(i, i)))
            .sum()
    }

    /// Given the previous plan, the total |Δ| of the forwarding matrix —
    /// how much of the plan was rewritten this era (flow-redirection churn).
    pub fn churn_from(&self, prev: &ForwardPlan) -> f64 {
        assert_eq!(self.regions(), prev.regions(), "region count changed");
        self.rows
            .iter()
            .zip(&prev.rows)
            .map(|(x, y)| (x - y).abs())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_plan_valid(p: &ForwardPlan, ingress: &[f64], target: &[f64]) {
        // Rows stochastic.
        for (i, row) in p.rows().enumerate() {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
            assert!(row.iter().all(|x| (0.0..=1.0 + 1e-12).contains(x)));
        }
        // Realises the target.
        for (j, want) in target.iter().enumerate() {
            let got = p.realised_share(j);
            assert!(
                (got - want).abs() < 1e-9,
                "region {j}: realised {got}, want {want}"
            );
        }
        let _ = ingress;
    }

    #[test]
    fn identity_when_ingress_matches_target() {
        let a = [0.6, 0.4];
        let p = ForwardPlan::build(&a, &a);
        assert_plan_valid(&p, &a, &a);
        assert_eq!(p.fraction(0, 0), 1.0);
        assert_eq!(p.fraction(1, 1), 1.0);
        assert_eq!(p.remote_fraction(), 0.0);
    }

    #[test]
    fn surplus_flows_to_deficit() {
        // Clients arrive evenly but region 0 should process 80%.
        let a = [0.5, 0.5];
        let f = [0.8, 0.2];
        let p = ForwardPlan::build(&a, &f);
        assert_plan_valid(&p, &a, &f);
        // Region 1 keeps 0.2/0.5 = 40% of its ingress, forwards 60% to 0.
        assert!((p.fraction(1, 1) - 0.4).abs() < 1e-9);
        assert!((p.fraction(1, 0) - 0.6).abs() < 1e-9);
        assert_eq!(p.fraction(0, 0), 1.0);
        assert!((p.remote_fraction() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn three_region_rebalance() {
        let a = [0.2, 0.5, 0.3];
        let f = [0.4, 0.35, 0.25];
        let p = ForwardPlan::build(&a, &f);
        assert_plan_valid(&p, &a, &f);
    }

    #[test]
    fn zero_ingress_region_still_receives() {
        let a = [1.0, 0.0];
        let f = [0.7, 0.3];
        let p = ForwardPlan::build(&a, &f);
        assert_plan_valid(&p, &a, &f);
        assert!((p.fraction(0, 1) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn churn_measures_plan_rewrites() {
        let a = [0.5, 0.5];
        let p1 = ForwardPlan::build(&a, &[0.5, 0.5]);
        let p2 = ForwardPlan::build(&a, &[0.8, 0.2]);
        assert_eq!(p1.churn_from(&p1), 0.0);
        assert!(p2.churn_from(&p1) > 0.5);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn non_probability_target_panics() {
        let _ = ForwardPlan::build(&[0.5, 0.5], &[0.9, 0.9]);
    }

    #[test]
    fn extreme_skew_is_exact() {
        let a = [0.01, 0.99];
        let f = [0.99, 0.01];
        let p = ForwardPlan::build(&a, &f);
        assert_plan_valid(&p, &a, &f);
        assert!(p.remote_fraction() > 0.9);
    }
}
