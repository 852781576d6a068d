//! M5P model tree: a regression tree with linear models at the leaves
//! (Wang & Witten's M5'; paper ref \[29\]).
//!
//! Growing follows the same variance-reduction splits as the REP-Tree.
//! Every node also carries a ridge model fitted on its own data; pruning
//! compares each subtree against its node's linear model using M5's
//! complexity-penalised training error, and prediction is *smoothed* along
//! the root path exactly as in the original algorithm.

use crate::dataset::Dataset;
use crate::ridge::RidgeRegression;

/// Maximum tree depth.
const MAX_DEPTH: usize = 8;
/// Minimum samples to consider a split (M5 default is 4; we keep more
/// because leaf models need support).
const MIN_SAMPLES_SPLIT: usize = 16;
/// Minimum samples per child.
const MIN_SAMPLES_LEAF: usize = 8;
/// Smoothing constant `k` in Quinlan's `(n·p_child + k·p_node)/(n + k)`.
const SMOOTHING_K: f64 = 15.0;
/// Ridge strength of the per-node linear models.
const LEAF_LAMBDA: f64 = 1e-3;

#[derive(Debug, Clone)]
struct M5Node {
    /// Linear model fitted on this node's training rows.
    model: RidgeRegression,
    /// Training rows that reached this node.
    n: usize,
    /// `Some((feature, threshold, left, right))` for internal nodes.
    split: Option<(usize, f64, usize, usize)>,
}

/// A trained M5P model tree.
#[derive(Debug, Clone)]
pub struct M5Prime {
    nodes: Vec<M5Node>,
    root: usize,
}

impl M5Prime {
    /// Fits an M5P tree.
    pub fn fit(ds: &Dataset) -> Self {
        assert!(!ds.is_empty(), "cannot fit on empty dataset");
        let mut builder = M5Builder {
            nodes: Vec::new(),
            ds,
        };
        let indices: Vec<usize> = (0..ds.len()).collect();
        let root = builder.build(&indices, 0);
        let mut tree = M5Prime {
            nodes: builder.nodes,
            root,
        };
        tree.prune(tree.root, &indices, ds);
        tree
    }

    /// Predicts one row with root-path smoothing.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        self.predict_node(self.root, x)
    }

    fn predict_node(&self, idx: usize, x: &[f64]) -> f64 {
        let node = &self.nodes[idx];
        match node.split {
            None => node.model.predict_one(x),
            Some((feature, threshold, left, right)) => {
                let child = if x[feature] <= threshold { left } else { right };
                let child_pred = self.predict_node(child, x);
                let child_n = self.nodes[child].n as f64;
                // Quinlan smoothing toward this node's own model.
                let node_pred = node.model.predict_one(x);
                (child_n * child_pred + SMOOTHING_K * node_pred) / (child_n + SMOOTHING_K)
            }
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.count(self.root)
    }

    fn count(&self, idx: usize) -> usize {
        match self.nodes[idx].split {
            None => 1,
            Some((_, _, l, r)) => self.count(l) + self.count(r),
        }
    }

    /// M5 pruning: collapse a subtree when the node model's complexity-
    /// penalised MAE is no worse than the subtree's. Returns the subtree's
    /// penalised error after pruning.
    fn prune(&mut self, idx: usize, indices: &[usize], ds: &Dataset) -> f64 {
        let node_err = self.penalised_mae(idx, indices, ds);
        let Some((feature, threshold, left, right)) = self.nodes[idx].split else {
            return node_err;
        };
        let (li, ri): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| ds.row(i)[feature] <= threshold);
        let nl = li.len() as f64;
        let nr = ri.len() as f64;
        let n = indices.len() as f64;
        let subtree_err = if n > 0.0 {
            (nl * self.prune(left, &li, ds) + nr * self.prune(right, &ri, ds)) / n
        } else {
            0.0
        };
        if node_err <= subtree_err {
            self.nodes[idx].split = None;
            node_err
        } else {
            subtree_err
        }
    }

    /// MAE of the node's own linear model on `indices`, inflated by the M5
    /// complexity factor `(n + v) / (n - v)` with `v` = parameter count.
    fn penalised_mae(&self, idx: usize, indices: &[usize], ds: &Dataset) -> f64 {
        if indices.is_empty() {
            return 0.0;
        }
        let model = &self.nodes[idx].model;
        let n = indices.len() as f64;
        let v = (ds.width() + 1) as f64;
        let mae: f64 = indices
            .iter()
            .map(|&i| (ds.target(i) - model.predict_one(ds.row(i))).abs())
            .sum::<f64>()
            / n;
        let penalty = if n > v { (n + v) / (n - v) } else { 4.0 };
        mae * penalty
    }
}

struct M5Builder<'a> {
    nodes: Vec<M5Node>,
    ds: &'a Dataset,
}

impl M5Builder<'_> {
    fn build(&mut self, indices: &[usize], depth: usize) -> usize {
        let model = RidgeRegression::fit(&self.ds.subset(indices), LEAF_LAMBDA);
        let split = if depth < MAX_DEPTH && indices.len() >= MIN_SAMPLES_SPLIT {
            self.best_split(indices)
        } else {
            None
        };
        match split {
            None => self.push(M5Node {
                model,
                n: indices.len(),
                split: None,
            }),
            Some((feature, threshold)) => {
                let (li, ri): (Vec<usize>, Vec<usize>) = indices
                    .iter()
                    .partition(|&&i| self.ds.row(i)[feature] <= threshold);
                let left = self.build(&li, depth + 1);
                let right = self.build(&ri, depth + 1);
                self.push(M5Node {
                    model,
                    n: indices.len(),
                    split: Some((feature, threshold, left, right)),
                })
            }
        }
    }

    fn push(&mut self, node: M5Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Same SSE-reduction scan as the REP-Tree builder.
    fn best_split(&self, indices: &[usize]) -> Option<(usize, f64)> {
        let n = indices.len() as f64;
        let total_sum: f64 = indices.iter().map(|&i| self.ds.target(i)).sum();
        let total_sq: f64 = indices
            .iter()
            .map(|&i| {
                let y = self.ds.target(i);
                y * y
            })
            .sum();
        let parent_sse = total_sq - total_sum * total_sum / n;
        let mut best: Option<(usize, f64, f64)> = None;
        let mut order: Vec<usize> = Vec::with_capacity(indices.len());
        for feature in 0..self.ds.width() {
            order.clear();
            order.extend_from_slice(indices);
            order.sort_by(|&a, &b| {
                self.ds.row(a)[feature]
                    .partial_cmp(&self.ds.row(b)[feature])
                    .unwrap()
            });
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for (k, &i) in order.iter().enumerate().take(order.len() - 1) {
                let y = self.ds.target(i);
                left_sum += y;
                left_sq += y * y;
                if (k + 1) < MIN_SAMPLES_LEAF || (order.len() - k - 1) < MIN_SAMPLES_LEAF {
                    continue;
                }
                let x_here = self.ds.row(i)[feature];
                let x_next = self.ds.row(order[k + 1])[feature];
                if x_here == x_next {
                    continue;
                }
                let nl = (k + 1) as f64;
                let nr = n - nl;
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse =
                    (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
                if best.as_ref().is_none_or(|(_, _, b)| sse < *b) {
                    best = Some((feature, 0.5 * (x_here + x_next), sse));
                }
            }
        }
        match best {
            Some((f, t, sse)) if sse < parent_sse - 1e-12 => Some((f, t)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acm_sim::rng::SimRng;

    /// Piecewise-linear target: two different linear regimes.
    fn piecewise_ds(n: usize, seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut ds = Dataset::new(["x"]);
        for _ in 0..n {
            let x = rng.uniform(0.0, 2.0);
            let y = if x < 1.0 {
                3.0 * x
            } else {
                10.0 - 4.0 * (x - 1.0)
            };
            ds.push(vec![x], y + rng.normal(0.0, 0.05));
        }
        ds
    }

    #[test]
    fn beats_a_global_line_on_piecewise_data() {
        let ds = piecewise_ds(800, 1);
        let m5 = M5Prime::fit(&ds);
        let line = crate::linear::LinearRegression::fit(&ds);
        let mut m5_err = 0.0;
        let mut line_err = 0.0;
        for x in [0.1, 0.4, 0.9, 1.1, 1.6, 1.9] {
            let truth = if x < 1.0 {
                3.0 * x
            } else {
                10.0 - 4.0 * (x - 1.0)
            };
            m5_err += (m5.predict_one(&[x]) - truth).abs();
            line_err += (line.predict_one(&[x]) - truth).abs();
        }
        assert!(m5_err < line_err * 0.5, "m5 {m5_err} vs line {line_err}");
    }

    #[test]
    fn purely_linear_target_prunes_to_near_stump() {
        // The node model already fits perfectly: pruning should collapse
        // (almost) everything.
        let mut ds = Dataset::new(["a", "b"]);
        let mut rng = SimRng::new(2);
        for _ in 0..500 {
            let a = rng.uniform(0.0, 1.0);
            let b = rng.uniform(0.0, 1.0);
            // Realistic measurement noise: without it the prune comparison
            // degenerates to bit-level ridge-bias differences.
            ds.push(vec![a, b], 2.0 * a - b + 0.5 + rng.normal(0.0, 0.05));
        }
        let m5 = M5Prime::fit(&ds);
        assert!(m5.leaf_count() <= 2, "leaves {}", m5.leaf_count());
        assert!((m5.predict_one(&[0.5, 0.5]) - 1.0).abs() < 0.05);
    }

    #[test]
    fn extrapolates_within_leaf_regime() {
        // Unlike a plain tree, leaf linear models extrapolate linearly.
        let ds = piecewise_ds(800, 3);
        let m5 = M5Prime::fit(&ds);
        let p = m5.predict_one(&[0.5]);
        assert!((p - 1.5).abs() < 0.3, "{p}");
    }

    #[test]
    fn respects_depth_limit() {
        // Every root-to-leaf path of the grown (unpruned) tree stops at
        // MAX_DEPTH, which a 2000-row piecewise target reaches.
        fn depth(nodes: &[M5Node], idx: usize) -> usize {
            match nodes[idx].split {
                None => 0,
                Some((_, _, l, r)) => 1 + depth(nodes, l).max(depth(nodes, r)),
            }
        }
        let ds = piecewise_ds(2000, 4);
        let mut builder = M5Builder {
            nodes: Vec::new(),
            ds: &ds,
        };
        let root = builder.build(&(0..ds.len()).collect::<Vec<_>>(), 0);
        assert_eq!(depth(&builder.nodes, root), MAX_DEPTH);
    }

    #[test]
    fn smoothing_changes_predictions_continuously() {
        // Near a split boundary, smoothing pulls both sides toward the
        // parent model, so the jump across the boundary is smaller than the
        // raw leaf difference.
        let ds = piecewise_ds(800, 5);
        let smooth = M5Prime::fit(&ds);
        let jump = (smooth.predict_one(&[0.999]) - smooth.predict_one(&[1.001])).abs();
        assert!(jump < 1.0, "smoothed jump {jump}");
    }

    #[test]
    fn tiny_dataset_is_single_leaf() {
        let mut ds = Dataset::new(["x"]);
        for i in 0..6 {
            ds.push(vec![i as f64], 2.0 * i as f64);
        }
        let m5 = M5Prime::fit(&ds);
        assert_eq!(m5.leaf_count(), 1);
        assert!((m5.predict_one(&[3.0]) - 6.0).abs() < 0.05);
    }
}
