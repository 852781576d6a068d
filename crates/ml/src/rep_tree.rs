//! REP-Tree: a variance-reduction regression tree with reduced-error
//! pruning — the model the paper selected for MTTF prediction ("Based on
//! our previous results in \[26\], we selected REP Tree", Sec. VI-A).
//!
//! Growing: greedy binary splits minimising the sum of squared errors, no
//! deeper than `MAX_DEPTH` (14) and no finer than `MIN_SAMPLES_SPLIT` (8) /
//! `MIN_SAMPLES_LEAF` (4) rows. Pruning: the classic *reduced-error* scheme
//! — hold out `PRUNE_FRACTION` (25 %) of the training data, then collapse
//! any internal node whose subtree does not beat its own leaf-mean on the
//! holdout.

use crate::dataset::{split_order, Dataset};
use acm_sim::rng::SimRng;

/// Maximum tree depth (root = depth 0).
const MAX_DEPTH: usize = 14;
/// Minimum samples a node needs to be considered for splitting.
const MIN_SAMPLES_SPLIT: usize = 8;
/// Minimum samples each child of a split must retain.
const MIN_SAMPLES_LEAF: usize = 4;
/// Fraction of the training data held out for reduced-error pruning.
const PRUNE_FRACTION: f64 = 0.25;

/// Arena node.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Mean of the training targets that reached this node (the value
        /// the node would predict if collapsed).
        mean: f64,
        /// SSE reduction this split achieved on the grow set (drives
        /// [`RepTree::feature_importance`]).
        gain: f64,
        left: usize,
        right: usize,
    },
}

/// Leaf sentinel in [`RepTree::flat_feature`] (no real feature index gets
/// near `u32::MAX`).
const FLAT_LEAF: u32 = u32::MAX;

/// A trained REP-Tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RepTree {
    nodes: Vec<Node>,
    root: usize,
    /// Flat structure-of-arrays mirror of the compact arena, rebuilt by
    /// [`RepTree::compact`]. The pre-order layout makes every left child
    /// the next slot, so a walk needs only the split feature (or
    /// [`FLAT_LEAF`]), the threshold (leaf slots reuse it for the
    /// prediction) and the right-child index — 16 bytes of touched state
    /// per node versus the 56-byte `Node` enum, and no discriminant
    /// branch.
    flat_feature: Vec<u32>,
    flat_threshold: Vec<f64>,
    flat_right: Vec<u32>,
}

/// The buffers a REP-Tree fit grows and prunes in: the grow / prune row
/// order, the grown arena, the builder's columns, presort keys, row orders
/// and partition scratch, and the prune's. A caller that fits again and
/// again (the model lifecycle's refits) keeps one, so a fit allocates only
/// the tree it returns once the buffers have grown to the data.
#[derive(Debug, Default)]
pub struct TreeBuffers {
    order: Vec<usize>,
    nodes: Vec<Node>,
    cols: Vec<f64>,
    keys: Vec<u128>,
    y: Vec<f64>,
    orders: Vec<u32>,
    goes_left: Vec<bool>,
    scratch: Vec<u32>,
    prune: Vec<usize>,
}

impl RepTree {
    /// Fits a tree. `rng` draws the grow/prune split, so training is
    /// deterministic per seed.
    pub fn fit(ds: &Dataset, rng: &mut SimRng) -> Self {
        Self::fit_with(ds, rng, &mut TreeBuffers::default())
    }

    /// [`RepTree::fit`] in `buf`'s buffers.
    pub fn fit_with(ds: &Dataset, rng: &mut SimRng, buf: &mut TreeBuffers) -> Self {
        assert!(!ds.is_empty(), "cannot fit on empty dataset");
        let mut order = std::mem::take(&mut buf.order);
        let cut = if ds.len() >= 8 {
            split_order(ds.len(), 1.0 - PRUNE_FRACTION, rng, &mut order)
        } else {
            // Too small to spare a reduced-error-pruning holdout: the tree
            // grows on every row in dataset order.
            order.clear();
            order.extend(0..ds.len());
            ds.len()
        };
        let (grow, prune) = order.split_at_mut(cut);
        let root = Builder::grow(ds, grow, buf);
        let mut tree = RepTree {
            nodes: std::mem::take(&mut buf.nodes),
            root,
            flat_feature: Vec::new(),
            flat_threshold: Vec::new(),
            flat_right: Vec::new(),
        };
        if !prune.is_empty() {
            tree.reduced_error_prune(ds, prune, &mut buf.prune);
        }
        buf.nodes = tree.compact();
        buf.order = order;
        tree
    }

    /// Rewrites the arena in pre-order DFS layout with the root at index 0:
    /// a node's left child is always the next slot, subtrees are
    /// contiguous, and the orphan nodes left behind by pruning are dropped.
    /// Prediction walks then move mostly forward through one cache-resident
    /// array instead of hopping across the build-order arena. Returns the
    /// arena it replaced.
    fn compact(&mut self) -> Vec<Node> {
        fn copy(nodes: &[Node], idx: usize, out: &mut Vec<Node>) -> usize {
            let slot = out.len();
            match &nodes[idx] {
                Node::Leaf { value } => out.push(Node::Leaf { value: *value }),
                Node::Split {
                    feature,
                    threshold,
                    mean,
                    gain,
                    left,
                    right,
                } => {
                    let (feature, threshold, mean, gain, left, right) =
                        (*feature, *threshold, *mean, *gain, *left, *right);
                    out.push(Node::Leaf { value: 0.0 }); // placeholder
                    let l = copy(nodes, left, out);
                    let r = copy(nodes, right, out);
                    out[slot] = Node::Split {
                        feature,
                        threshold,
                        mean,
                        gain,
                        left: l,
                        right: r,
                    };
                }
            }
            slot
        }
        let mut out = Vec::with_capacity(self.nodes.len());
        let root = copy(&self.nodes, self.root, &mut out);
        let grown = std::mem::replace(&mut self.nodes, out);
        self.root = root;
        self.rebuild_flat();
        grown
    }

    /// Regenerates the flat prediction arena from the compact node arena.
    fn rebuild_flat(&mut self) {
        let n = self.nodes.len();
        self.flat_feature.clear();
        self.flat_feature.reserve_exact(n);
        self.flat_threshold.clear();
        self.flat_threshold.reserve_exact(n);
        self.flat_right.clear();
        self.flat_right.reserve_exact(n);
        for (slot, node) in self.nodes.iter().enumerate() {
            match node {
                Node::Leaf { value } => {
                    self.flat_feature.push(FLAT_LEAF);
                    self.flat_threshold.push(*value);
                    self.flat_right.push(0);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    debug_assert_eq!(*left, slot + 1, "compact layout: left = next slot");
                    debug_assert!(*feature < FLAT_LEAF as usize && *right <= u32::MAX as usize);
                    self.flat_feature.push(*feature as u32);
                    self.flat_threshold.push(*threshold);
                    self.flat_right.push(*right as u32);
                }
            }
        }
    }

    /// Arena size. After [`RepTree::fit`] the arena is compact: exactly the
    /// reachable nodes, `2 * leaf_count() - 1`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Predicts one row.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        let feat = self.flat_feature.as_slice();
        let vals = self.flat_threshold.as_slice();
        let right = self.flat_right.as_slice();
        let mut idx = 0usize;
        loop {
            let f = feat[idx];
            if f == FLAT_LEAF {
                return vals[idx];
            }
            // Pre-order arena: the left child is always the next slot.
            idx = if x[f as usize] <= vals[idx] {
                idx + 1
            } else {
                right[idx] as usize
            };
        }
    }

    /// Predicts many rows in one pass over the compact arena, appending one
    /// prediction per row to `out` (which is cleared first). Accepts any
    /// iterator of feature slices so callers can feed packed scratch
    /// buffers without materialising a `Vec<Vec<f64>>`.
    ///
    /// Rows descend the flat arena four abreast: the four walks carry no
    /// data dependence on each other, so the per-level loads overlap
    /// instead of serialising on one chain of cache misses.
    pub fn predict_batch_into<'a, I>(&self, rows: I, out: &mut Vec<f64>)
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        out.clear();
        let feat = self.flat_feature.as_slice();
        let vals = self.flat_threshold.as_slice();
        let right = self.flat_right.as_slice();
        let mut it = rows.into_iter();
        let (lo, _) = it.size_hint();
        out.reserve(lo);
        loop {
            let Some(r0) = it.next() else { return };
            let head = (it.next(), it.next(), it.next());
            let (Some(r1), Some(r2), Some(r3)) = head else {
                // Fewer than four rows left: finish them one at a time.
                out.push(self.predict_one(r0));
                for r in [head.0, head.1, head.2].into_iter().flatten() {
                    out.push(self.predict_one(r));
                }
                return;
            };
            let (mut i0, mut i1, mut i2, mut i3) = (0usize, 0usize, 0usize, 0usize);
            loop {
                let (f0, f1, f2, f3) = (feat[i0], feat[i1], feat[i2], feat[i3]);
                if f0 == FLAT_LEAF && f1 == FLAT_LEAF && f2 == FLAT_LEAF && f3 == FLAT_LEAF {
                    break;
                }
                // Finished rows park at their leaf slot while the others
                // keep descending.
                if f0 != FLAT_LEAF {
                    i0 = if r0[f0 as usize] <= vals[i0] {
                        i0 + 1
                    } else {
                        right[i0] as usize
                    };
                }
                if f1 != FLAT_LEAF {
                    i1 = if r1[f1 as usize] <= vals[i1] {
                        i1 + 1
                    } else {
                        right[i1] as usize
                    };
                }
                if f2 != FLAT_LEAF {
                    i2 = if r2[f2 as usize] <= vals[i2] {
                        i2 + 1
                    } else {
                        right[i2] as usize
                    };
                }
                if f3 != FLAT_LEAF {
                    i3 = if r3[f3 as usize] <= vals[i3] {
                        i3 + 1
                    } else {
                        right[i3] as usize
                    };
                }
            }
            out.extend_from_slice(&[vals[i0], vals[i1], vals[i2], vals[i3]]);
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.count_leaves(self.root)
    }

    /// Depth of the tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        self.node_depth(self.root)
    }

    /// Per-feature importance: the total SSE reduction attributed to splits
    /// on each feature (post-pruning), normalised to sum to 1 when any
    /// split survives. `width` is the feature-vector width.
    pub fn feature_importance(&self, width: usize) -> Vec<f64> {
        let mut imp = vec![0.0; width];
        self.accumulate_importance(self.root, &mut imp);
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    fn accumulate_importance(&self, idx: usize, imp: &mut [f64]) {
        if let Node::Split {
            feature,
            gain,
            left,
            right,
            ..
        } = &self.nodes[idx]
        {
            if *feature < imp.len() {
                imp[*feature] += gain.max(0.0);
            }
            self.accumulate_importance(*left, imp);
            self.accumulate_importance(*right, imp);
        }
    }

    fn count_leaves(&self, idx: usize) -> usize {
        match &self.nodes[idx] {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => self.count_leaves(*left) + self.count_leaves(*right),
        }
    }

    fn node_depth(&self, idx: usize) -> usize {
        match &self.nodes[idx] {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => {
                1 + self.node_depth(*left).max(self.node_depth(*right))
            }
        }
    }

    /// Reduced-error pruning against the holdout rows `holdout` of `ds`:
    /// bottom-up, replace any split whose collapsed-leaf squared error on
    /// the holdout is no worse than its subtree's. Reorders `holdout`.
    fn reduced_error_prune(
        &mut self,
        ds: &Dataset,
        holdout: &mut [usize],
        scratch: &mut Vec<usize>,
    ) {
        scratch.clear();
        scratch.resize(holdout.len(), 0);
        self.prune_node(self.root, ds, holdout, scratch);
    }

    /// Returns the subtree's squared error on `rows` (the node's holdout
    /// rows, in holdout order) after pruning it. The children's rows are
    /// stable-partitioned in place, so every node sums its errors in the
    /// order a fresh per-node list would hold them.
    fn prune_node(
        &mut self,
        idx: usize,
        ds: &Dataset,
        rows: &mut [usize],
        scratch: &mut [usize],
    ) -> f64 {
        let sq_err = |rows: &[usize], v: f64| -> f64 {
            rows.iter()
                .map(|&i| {
                    let d = ds.target(i) - v;
                    d * d
                })
                .sum()
        };
        let (feature, threshold, mean, left, right) = match &self.nodes[idx] {
            Node::Leaf { value } => return sq_err(rows, *value),
            Node::Split {
                feature,
                threshold,
                mean,
                left,
                right,
                ..
            } => (*feature, *threshold, *mean, *left, *right),
        };

        // Summed before the children reorder `rows`.
        let leaf_err = sq_err(rows, mean);
        let seen = !rows.is_empty();
        let mid = stable_partition(rows, scratch, |i| ds.row(i)[feature] <= threshold);
        let (li, ri) = rows.split_at_mut(mid);
        let subtree_err =
            self.prune_node(left, ds, li, scratch) + self.prune_node(right, ds, ri, scratch);
        // Collapse when the leaf is at least as good on held-out data. Nodes
        // that see no holdout rows keep their structure (no evidence).
        if seen && leaf_err <= subtree_err {
            self.nodes[idx] = Node::Leaf { value: mean };
            leaf_err
        } else {
            subtree_err
        }
    }
}

/// Grows the tree over per-feature row orders sorted **once**, at the
/// root, each by one packed integer key per row ([`presort_column`]). A
/// node is a range `lo..hi` shared by all the order arrays; applying
/// a split stable-partitions that range of every array, so each child again
/// sees its rows by ascending feature value with ties by ascending row id —
/// exactly what a stable per-node sort of the ascending row ids yields. The
/// scan therefore adds up the same targets in the same order as a per-node
/// sort would, and the grown tree is the same down to the last bit.
struct Builder {
    nodes: Vec<Node>,
    n: usize,
    width: usize,
    /// Column-major copy of the grow set: `cols[f * n + i]`, row id `i`
    /// being the row's position in the grow set.
    cols: Vec<f64>,
    y: Vec<f64>,
    /// `width + 1` arrays of `n` row ids: array `f < width` by ascending
    /// value of feature `f`, array `width` by ascending row id.
    orders: Vec<u32>,
    /// Side of the split being applied, by row id.
    goes_left: Vec<bool>,
    /// Right-hand rows of the range being partitioned.
    scratch: Vec<u32>,
}

impl Builder {
    /// Grows the unpruned arena on the rows `grow` of `ds` (in that order)
    /// into `buf.nodes`, in `buf`'s buffers; returns its root index.
    fn grow(ds: &Dataset, grow: &[usize], buf: &mut TreeBuffers) -> usize {
        let mut builder = Builder::new(ds, grow, buf);
        let root = builder.build(0, grow.len(), 0);
        let Builder {
            nodes,
            cols,
            y,
            orders,
            goes_left,
            scratch,
            ..
        } = builder;
        (buf.nodes, buf.cols, buf.y) = (nodes, cols, y);
        (buf.orders, buf.goes_left, buf.scratch) = (orders, goes_left, scratch);
        root
    }

    fn new(ds: &Dataset, grow: &[usize], buf: &mut TreeBuffers) -> Self {
        let (n, width) = (grow.len(), ds.width());
        let ids = 0..u32::try_from(n).expect("grow set has fewer than 2^32 rows");
        let mut cols = refilled(&mut buf.cols, width * n, 0.0);
        for (k, &i) in grow.iter().enumerate() {
            for (f, v) in ds.row(i).iter().enumerate() {
                // `+ 0.0` turns -0.0 into 0.0, so the total order of the
                // presort ranks the values exactly as `<` and `==` do.
                cols[f * n + k] = v + 0.0;
            }
        }
        let mut orders = std::mem::take(&mut buf.orders);
        orders.clear();
        orders.reserve((width + 1) * n);
        for f in 0..width {
            presort_column(&cols[f * n..(f + 1) * n], &mut buf.keys, &mut orders);
        }
        orders.extend(ids);
        let mut y = std::mem::take(&mut buf.y);
        y.clear();
        y.extend(grow.iter().map(|&i| ds.target(i)));
        let mut nodes = std::mem::take(&mut buf.nodes);
        nodes.clear();
        Builder {
            nodes,
            n,
            width,
            cols,
            y,
            orders,
            goes_left: refilled(&mut buf.goes_left, n, false),
            scratch: refilled(&mut buf.scratch, n, 0),
        }
    }

    /// The node's rows by ascending value of feature `f` (`f == width`: by
    /// ascending row id).
    fn order(&self, f: usize, lo: usize, hi: usize) -> &[u32] {
        &self.orders[f * self.n + lo..f * self.n + hi]
    }

    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let ids = self.order(self.width, lo, hi);
        let total_sum: f64 = ids.iter().map(|&i| self.y[i as usize]).sum();
        let mean = total_sum / ids.len() as f64;
        if depth >= MAX_DEPTH || ids.len() < MIN_SAMPLES_SPLIT || self.is_pure(ids) {
            return self.push(Node::Leaf { value: mean });
        }
        match self.best_split(lo, hi, total_sum) {
            None => self.push(Node::Leaf { value: mean }),
            Some((feature, threshold, gain)) => {
                let mid = self.partition(lo, hi, feature, threshold);
                debug_assert!(mid - lo >= MIN_SAMPLES_LEAF && hi - mid >= MIN_SAMPLES_LEAF);
                let left = self.build(lo, mid, depth + 1);
                let right = self.build(mid, hi, depth + 1);
                self.push(Node::Split {
                    feature,
                    threshold,
                    mean,
                    gain,
                    left,
                    right,
                })
            }
        }
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn is_pure(&self, ids: &[u32]) -> bool {
        let first = self.y[ids[0] as usize];
        ids.iter()
            .all(|&i| (self.y[i as usize] - first).abs() < 1e-12)
    }

    /// Stable-partitions `lo..hi` of every order array into the rows with
    /// `feature <= threshold` followed by the rest; returns the boundary.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f64) -> usize {
        let col = &self.cols[feature * self.n..(feature + 1) * self.n];
        let mut mid = lo;
        for &i in &self.orders[self.width * self.n + lo..self.width * self.n + hi] {
            let left = col[i as usize] <= threshold;
            self.goes_left[i as usize] = left;
            mid += left as usize;
        }
        for order in self.orders.chunks_exact_mut(self.n) {
            let goes_left = &self.goes_left;
            stable_partition(&mut order[lo..hi], &mut self.scratch, |i| {
                goes_left[i as usize]
            });
        }
        mid
    }

    /// Best `(feature, threshold, sse_reduction)`, scanning sorted values
    /// with prefix sums; `total_sum` is the node's target sum in row-id
    /// order. Returns `None` when no admissible split reduces the error.
    fn best_split(&self, lo: usize, hi: usize, total_sum: f64) -> Option<(usize, f64, f64)> {
        let len = hi - lo;
        let n = len as f64;
        let total_sq: f64 = self
            .order(self.width, lo, hi)
            .iter()
            .map(|&i| {
                let y = self.y[i as usize];
                y * y
            })
            .sum();
        let parent_sse = total_sq - total_sum * total_sum / n;

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for feature in 0..self.width {
            let order = self.order(feature, lo, hi);
            let col = &self.cols[feature * self.n..(feature + 1) * self.n];
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for (k, pair) in order.windows(2).enumerate() {
                let y = self.y[pair[0] as usize];
                left_sum += y;
                left_sq += y * y;
                let nl = (k + 1) as f64;
                let nr = n - nl;
                if (k + 1) < MIN_SAMPLES_LEAF || (len - k - 1) < MIN_SAMPLES_LEAF {
                    continue;
                }
                let x_here = col[pair[0] as usize];
                let x_next = col[pair[1] as usize];
                if x_here == x_next {
                    continue; // cannot split between equal values
                }
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
            Some((f, t, sse)) if sse < parent_sse - 1e-12 => Some((f, t, parent_sse - sse)),
            _ => None,
        }
    }
}

/// The buffer in `slot`, taken out and refilled with `len` copies of `x`.
fn refilled<T: Clone>(slot: &mut Vec<T>, len: usize, x: T) -> Vec<T> {
    let mut v = std::mem::take(slot);
    v.clear();
    v.resize(len, x);
    v
}

/// Appends the row ids `0..col.len()` to `out`, sorted by ascending value
/// in `col` and ties by ascending id — the order of
/// `col[a].total_cmp(&col[b]).then(a.cmp(&b))` — by sorting one integer
/// key per row: the value's total-order bits above the row id. `keys` is
/// scratch.
fn presort_column(col: &[f64], keys: &mut Vec<u128>, out: &mut Vec<u32>) {
    keys.clear();
    keys.extend(
        col.iter()
            .zip(0u32..)
            .map(|(&v, id)| (u128::from(total_order_bits(v)) << 32) | u128::from(id)),
    );
    keys.sort_unstable();
    // The low 32 bits are the row id.
    out.extend(keys.iter().map(|&k| k as u32));
}

/// `v`'s bits, remapped so that unsigned integer order is
/// [`f64::total_cmp`] order: negative values have every bit flipped (a
/// larger magnitude sorts lower), the others only the sign bit (above
/// every negative value).
fn total_order_bits(v: f64) -> u64 {
    let bits = v.to_bits();
    let sign_mask = ((bits as i64) >> 63) as u64;
    bits ^ (sign_mask | (1 << 63))
}

/// Stable-partitions `rows` into the ones `goes_left` accepts followed by
/// the rest, both in their original relative order; returns the boundary.
/// `scratch` holds the rest on the way (at least `rows.len()` long). Each
/// row is written to both sides and only one side's cursor advances, so
/// the loop has no data-dependent branch.
fn stable_partition<T: Copy>(
    rows: &mut [T],
    scratch: &mut [T],
    goes_left: impl Fn(T) -> bool,
) -> usize {
    let len = rows.len();
    let scratch = &mut scratch[..len];
    let mut kept = 0;
    for k in 0..len {
        let i = rows[k];
        let left = goes_left(i);
        // `kept <= k`: the slot written was already read.
        rows[kept] = i;
        scratch[k - kept] = i;
        kept += usize::from(left);
    }
    rows[kept..].copy_from_slice(&scratch[..len - kept]);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The builder this module used before the root presort — every node
    /// re-sorts its rows per feature through the row-major dataset — kept
    /// as the model the presorted builder is checked against.
    struct SortingBuilder<'a> {
        nodes: Vec<Node>,
        ds: &'a Dataset,
    }

    impl SortingBuilder<'_> {
        fn build(&mut self, indices: &[usize], depth: usize) -> usize {
            let ys = || indices.iter().map(|&i| self.ds.target(i));
            let mean = ys().sum::<f64>() / indices.len() as f64;
            let first = self.ds.target(indices[0]);
            let leaf = depth >= MAX_DEPTH
                || indices.len() < MIN_SAMPLES_SPLIT
                || ys().all(|y| (y - first).abs() < 1e-12);
            let split = if leaf { None } else { self.best_split(indices) };
            let node = match split {
                None => Node::Leaf { value: mean },
                Some((feature, threshold, gain)) => {
                    let (li, ri): (Vec<usize>, Vec<usize>) = indices
                        .iter()
                        .partition(|&&i| self.ds.row(i)[feature] <= threshold);
                    let left = self.build(&li, depth + 1);
                    let right = self.build(&ri, depth + 1);
                    Node::Split {
                        feature,
                        threshold,
                        mean,
                        gain,
                        left,
                        right,
                    }
                }
            };
            self.nodes.push(node);
            self.nodes.len() - 1
        }

        fn best_split(&self, indices: &[usize]) -> Option<(usize, f64, f64)> {
            let n = indices.len() as f64;
            let total_sum: f64 = indices.iter().map(|&i| self.ds.target(i)).sum();
            let total_sq: f64 = indices
                .iter()
                .map(|&i| self.ds.target(i) * self.ds.target(i))
                .sum();
            let parent_sse = total_sq - total_sum * total_sum / n;
            let mut best: Option<(usize, f64, f64)> = None;
            for feature in 0..self.ds.width() {
                let mut order = indices.to_vec();
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
                    let nl = (k + 1) as f64;
                    let nr = n - nl;
                    if (k + 1) < MIN_SAMPLES_LEAF || (order.len() - k - 1) < MIN_SAMPLES_LEAF {
                        continue;
                    }
                    let x_here = self.ds.row(i)[feature];
                    let x_next = self.ds.row(order[k + 1])[feature];
                    if x_here == x_next {
                        continue;
                    }
                    let right_sum = total_sum - left_sum;
                    let right_sq = total_sq - left_sq;
                    let sse = (left_sq - left_sum * left_sum / nl)
                        + (right_sq - right_sum * right_sum / nr);
                    if best.as_ref().is_none_or(|(_, _, b)| sse < *b) {
                        best = Some((feature, 0.5 * (x_here + x_next), sse));
                    }
                }
            }
            match best {
                Some((f, t, sse)) if sse < parent_sse - 1e-12 => Some((f, t, parent_sse - sse)),
                _ => None,
            }
        }
    }

    /// The reduced-error prune this module used before it partitioned one
    /// index buffer in place: two fresh `Vec`s per node, over a holdout
    /// copied out into its own dataset.
    fn prune_by_copies(
        tree: &mut RepTree,
        idx: usize,
        indices: &[usize],
        holdout: &Dataset,
    ) -> f64 {
        let sq_err = |v: f64| -> f64 {
            indices
                .iter()
                .map(|&i| {
                    let d = holdout.target(i) - v;
                    d * d
                })
                .sum()
        };
        let (feature, threshold, mean, left, right) = match &tree.nodes[idx] {
            Node::Leaf { value } => return sq_err(*value),
            Node::Split {
                feature,
                threshold,
                mean,
                left,
                right,
                ..
            } => (*feature, *threshold, *mean, *left, *right),
        };
        let (li, ri): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| holdout.row(i)[feature] <= threshold);
        let subtree_err =
            prune_by_copies(tree, left, &li, holdout) + prune_by_copies(tree, right, &ri, holdout);
        let leaf_err = sq_err(mean);
        if !indices.is_empty() && leaf_err <= subtree_err {
            tree.nodes[idx] = Node::Leaf { value: mean };
            leaf_err
        } else {
            subtree_err
        }
    }

    /// [`RepTree::fit`] as it was before the flat grow/prune index split,
    /// the presort and the in-place prune: the grow and prune sets copied
    /// out by [`Dataset::split`], every node re-sorted, every prune node
    /// partitioned into fresh lists.
    fn fit_by_sorting(ds: &Dataset, rng: &mut SimRng) -> RepTree {
        let (grow, prune) = match ds.len() >= 8 {
            true => ds.split(1.0 - PRUNE_FRACTION, rng),
            false => (ds.clone(), Dataset::default()),
        };
        let mut builder = SortingBuilder {
            nodes: Vec::new(),
            ds: &grow,
        };
        let root = builder.build(&(0..grow.len()).collect::<Vec<_>>(), 0);
        let mut tree = RepTree {
            nodes: builder.nodes,
            root,
            flat_feature: Vec::new(),
            flat_threshold: Vec::new(),
            flat_right: Vec::new(),
        };
        if !prune.is_empty() {
            let indices: Vec<usize> = (0..prune.len()).collect();
            prune_by_copies(&mut tree, root, &indices, &prune);
        }
        tree.compact();
        tree
    }

    /// The tree [`RepTree::fit`] grows from `rng`'s grow rows, before it
    /// prunes.
    fn grown(ds: &Dataset, rng: &mut SimRng) -> RepTree {
        let mut order = Vec::new();
        let cut = split_order(ds.len(), 1.0 - PRUNE_FRACTION, rng, &mut order);
        let mut buf = TreeBuffers::default();
        let root = Builder::grow(ds, &order[..cut], &mut buf);
        RepTree {
            nodes: buf.nodes,
            root,
            flat_feature: Vec::new(),
            flat_threshold: Vec::new(),
            flat_right: Vec::new(),
        }
    }

    impl RepTree {
        /// The arena slot of the leaf `x` reaches.
        fn leaf_of(&self, x: &[f64]) -> usize {
            let mut idx = self.root;
            while let Node::Split {
                feature,
                threshold,
                left,
                right,
                ..
            } = self.nodes[idx]
            {
                idx = if x[feature] <= threshold { left } else { right };
            }
            idx
        }
    }

    /// A dataset built to stress tie handling: features drawn from a few
    /// levels (both zeros among them), whole rows repeated with fresh or
    /// repeated targets, targets that collide.
    fn tied_ds(rng: &mut SimRng, n: usize, width: usize, levels: usize) -> Dataset {
        let mut ds = Dataset::new((0..width).map(|f| format!("f{f}")));
        while ds.len() < n {
            if !ds.is_empty() && rng.bernoulli(0.3) {
                let i = rng.index(ds.len());
                let y = if rng.bernoulli(0.5) {
                    ds.target(i)
                } else {
                    rng.normal(0.0, 3.0)
                };
                let repeat = ds.row(i).to_vec();
                ds.push(repeat, y);
                continue;
            }
            let row: Vec<f64> = (0..width)
                .map(|f| match rng.index(levels + 2) {
                    0 => 0.0,
                    1 => -0.0,
                    // The first feature stays coarse, later ones get finer.
                    l => (l as f64 - 3.0) * 0.5 + rng.index(f + 1) as f64 * 0.125,
                })
                .collect();
            let y = (row[0] * 2.0).round() + row.iter().sum::<f64>() * rng.index(2) as f64;
            ds.push(row, y + rng.index(3) as f64);
        }
        ds
    }

    proptest! {
        #[test]
        fn presorted_growth_matches_per_node_sorting(
            seed in 0u64..1_000_000,
            n in 2usize..120,
            width in 1usize..5,
            levels in 1usize..6,
        ) {
            let mut rng = SimRng::new(seed);
            let ds = tied_ds(&mut rng, n, width, levels);
            // `n` straddles the size limits (2 · MIN_SAMPLES_LEAF =
            // MIN_SAMPLES_SPLIT = 8, also the smallest set with a pruning
            // holdout); four grow/prune draws per dataset.
            let seeds: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
            let expect: Vec<RepTree> = seeds
                .iter()
                .map(|&s| fit_by_sorting(&ds, &mut SimRng::new(s)))
                .collect();
            for threads in [1, 4] {
                let pool = acm_exec::ThreadPool::new(threads);
                let got = pool.map_collect(seeds.clone(), |s| RepTree::fit(&ds, &mut SimRng::new(s)));
                prop_assert_eq!(&got, &expect, "threads={}", threads);
            }
        }
    }

    proptest! {
        #[test]
        fn packed_key_presort_matches_total_cmp_then_id(
            seed in 0u64..1_000_000,
            n in 1usize..150,
            levels in 1usize..6,
        ) {
            // The refit's shape (~75 rows × 5 features) and around it:
            // ±0.0, few levels (heavy ties), repeated rows, and wide values
            // of both signs.
            let mut rng = SimRng::new(seed);
            let ds = tied_ds(&mut rng, n, 5, levels);
            let mut keys = Vec::new();
            for f in 0..ds.width() {
                let mut col: Vec<f64> = ds.rows().map(|row| row[f] + 0.0).collect();
                if seed % 4 == 0 {
                    for v in &mut col {
                        *v *= 10f64.powi(rng.index(600) as i32 - 300);
                    }
                }
                let mut expect: Vec<u32> = (0..n as u32).collect();
                expect.sort_unstable_by(|&a, &b| {
                    col[a as usize].total_cmp(&col[b as usize]).then(a.cmp(&b))
                });
                let mut got = Vec::new();
                presort_column(&col, &mut keys, &mut got);
                prop_assert_eq!(got, expect, "feature {}", f);
            }
        }
    }

    #[test]
    fn total_order_bits_rank_like_total_cmp() {
        let vals = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for a in vals {
            for b in vals {
                assert_eq!(
                    total_order_bits(a).cmp(&total_order_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    /// A step function: y = 10 for x < 0.5, y = 20 otherwise.
    fn step_ds(n: usize, seed: u64) -> Dataset {
        let mut rng = SimRng::new(seed);
        let mut ds = Dataset::new(["x"]);
        for _ in 0..n {
            let x = rng.uniform(0.0, 1.0);
            let y = if x < 0.5 { 10.0 } else { 20.0 };
            ds.push(vec![x], y + rng.normal(0.0, 0.1));
        }
        ds
    }

    #[test]
    fn learns_a_step_function() {
        let ds = step_ds(500, 1);
        let mut rng = SimRng::new(2);
        let tree = RepTree::fit(&ds, &mut rng);
        assert!((tree.predict_one(&[0.2]) - 10.0).abs() < 0.5);
        assert!((tree.predict_one(&[0.8]) - 20.0).abs() < 0.5);
    }

    #[test]
    fn pruning_collapses_noise_splits() {
        // Pure-noise target: the pruned tree should be (nearly) a stump.
        let mut rng = SimRng::new(3);
        let mut ds = Dataset::new(["x1", "x2"]);
        for _ in 0..400 {
            ds.push(
                vec![rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)],
                rng.normal(0.0, 1.0),
            );
        }
        let pruned = RepTree::fit(&ds, &mut SimRng::new(4));
        let unpruned = grown(&ds, &mut SimRng::new(4));
        assert!(
            pruned.leaf_count() * 4 < unpruned.leaf_count(),
            "pruned {} vs unpruned {}",
            pruned.leaf_count(),
            unpruned.leaf_count()
        );
    }

    #[test]
    fn respects_max_depth() {
        // Geometric targets: each split peels the few largest rows off, so
        // growth would go far deeper than MAX_DEPTH without the limit.
        let mut ds = Dataset::new(["x"]);
        for i in 0..200 {
            ds.push(vec![i as f64], 1.5f64.powi(i));
        }
        let mut rng = SimRng::new(6);
        assert_eq!(grown(&ds, &mut rng.clone()).depth(), MAX_DEPTH);
        assert!(RepTree::fit(&ds, &mut rng).depth() <= MAX_DEPTH);
    }

    #[test]
    fn constant_target_is_a_single_leaf() {
        let mut ds = Dataset::new(["x"]);
        for i in 0..100 {
            ds.push(vec![i as f64], 7.0);
        }
        let tree = RepTree::fit(&ds, &mut SimRng::new(7));
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.predict_one(&[55.0]), 7.0);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        // y = |x| keeps many leaves after pruning; each must hold at least
        // MIN_SAMPLES_LEAF of the rows the tree grew on.
        let mut ds = Dataset::new(["x"]);
        let mut rng = SimRng::new(8);
        for _ in 0..200 {
            let x = rng.uniform(-2.0, 2.0);
            ds.push(vec![x], x.abs());
        }
        let tree = RepTree::fit(&ds, &mut SimRng::new(9));
        let mut order = Vec::new();
        let cut = split_order(
            ds.len(),
            1.0 - PRUNE_FRACTION,
            &mut SimRng::new(9),
            &mut order,
        );
        let mut rows_per_leaf = std::collections::BTreeMap::new();
        for &i in &order[..cut] {
            *rows_per_leaf.entry(tree.leaf_of(ds.row(i))).or_insert(0) += 1;
        }
        assert!(tree.leaf_count() > 8, "{} leaves", tree.leaf_count());
        assert_eq!(rows_per_leaf.len(), tree.leaf_count());
        assert!(
            rows_per_leaf.values().all(|&n| n >= MIN_SAMPLES_LEAF),
            "{rows_per_leaf:?}"
        );
    }

    #[test]
    fn piecewise_linear_target_approximated() {
        // y = |x|: a tree needs several splits to approximate the vee.
        let mut ds = Dataset::new(["x"]);
        let mut rng = SimRng::new(10);
        for _ in 0..1000 {
            let x = rng.uniform(-2.0, 2.0);
            ds.push(vec![x], x.abs());
        }
        let tree = RepTree::fit(&ds, &mut SimRng::new(11));
        for x in [-1.5, -0.5, 0.5, 1.5] {
            let p = tree.predict_one(&[x]);
            assert!((p - x.abs()).abs() < 0.25, "pred at {x} was {p}");
        }
    }

    #[test]
    fn irrelevant_feature_not_split_on() {
        // Feature 1 is pure noise, feature 0 carries the signal.
        let mut ds = Dataset::new(["signal", "noise"]);
        let mut rng = SimRng::new(12);
        for _ in 0..600 {
            let s = rng.uniform(0.0, 1.0);
            let n = rng.uniform(0.0, 1.0);
            ds.push(vec![s, n], if s < 0.3 { 1.0 } else { 5.0 });
        }
        let tree = RepTree::fit(&ds, &mut SimRng::new(13));
        // Prediction must be driven by feature 0 regardless of feature 1.
        for noise in [0.1, 0.9] {
            assert!((tree.predict_one(&[0.1, noise]) - 1.0).abs() < 0.3);
            assert!((tree.predict_one(&[0.9, noise]) - 5.0).abs() < 0.3);
        }
    }

    #[test]
    fn feature_importance_identifies_the_signal() {
        let mut ds = Dataset::new(["signal", "noise"]);
        let mut rng = SimRng::new(21);
        for _ in 0..600 {
            let s = rng.uniform(0.0, 1.0);
            let n = rng.uniform(0.0, 1.0);
            ds.push(vec![s, n], if s < 0.4 { 2.0 } else { 9.0 });
        }
        let tree = RepTree::fit(&ds, &mut SimRng::new(22));
        let imp = tree.feature_importance(2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.9, "signal importance {imp:?}");
    }

    #[test]
    fn stump_has_zero_importance() {
        let mut ds = Dataset::new(["x"]);
        for i in 0..50 {
            ds.push(vec![i as f64], 1.0);
        }
        let tree = RepTree::fit(&ds, &mut SimRng::new(23));
        assert_eq!(tree.feature_importance(1), vec![0.0]);
    }

    #[test]
    fn arena_is_compact_after_pruning() {
        // Pure-noise target prunes aggressively, orphaning most of the
        // grown arena; compaction must drop every orphan.
        let mut rng = SimRng::new(31);
        let mut ds = Dataset::new(["x1", "x2"]);
        for _ in 0..400 {
            ds.push(
                vec![rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)],
                rng.normal(0.0, 1.0),
            );
        }
        let tree = RepTree::fit(&ds, &mut SimRng::new(32));
        assert_eq!(tree.node_count(), 2 * tree.leaf_count() - 1);
    }

    #[test]
    fn batch_predictions_match_scalar_walks() {
        let ds = step_ds(500, 41);
        let tree = RepTree::fit(&ds, &mut SimRng::new(42));
        let mut rng = SimRng::new(43);
        let rows: Vec<Vec<f64>> = (0..257).map(|_| vec![rng.uniform(-0.5, 1.5)]).collect();
        // The entry point clears and refills its output.
        let mut batch = vec![f64::NAN; 3];
        tree.predict_batch_into(rows.iter().map(|r| r.as_slice()), &mut batch);
        assert_eq!(batch.len(), rows.len());
        for (row, b) in rows.iter().zip(&batch) {
            assert_eq!(*b, tree.predict_one(row), "row {row:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = step_ds(300, 14);
        let t1 = RepTree::fit(&ds, &mut SimRng::new(15));
        let t2 = RepTree::fit(&ds, &mut SimRng::new(15));
        assert_eq!(t1, t2);
    }

    #[test]
    fn tiny_dataset_becomes_leaf() {
        let mut ds = Dataset::new(["x"]);
        ds.push(vec![1.0], 2.0);
        ds.push(vec![2.0], 4.0);
        let tree = RepTree::fit(&ds, &mut SimRng::new(16));
        assert_eq!(tree.leaf_count(), 1);
        assert!((tree.predict_one(&[1.5]) - 3.0).abs() < 1e-12);
    }
}
