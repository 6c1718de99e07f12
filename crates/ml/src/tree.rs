//! CART decision trees with Gini impurity.
//!
//! Table III uses `Dec-Tree` with `Class Weight='Balanced', Max Depth=5`;
//! the Decision Tree with downsampling is the paper's best hate-generation
//! model (macro-F1 0.65, Table IV), so this implementation is central.
//!
//! Supports class weights, depth / min-samples limits, and per-node random
//! feature subsampling (used by [`crate::forest::RandomForest`]).
//!
//! Each node sorts its rows by every feature it examines and scans for the
//! split of least weighted Gini impurity. A tree that examines every
//! feature searches blocks of features on `nn::par::resolve(0)` workers
//! and merges their bests in feature order, so it chooses the split one
//! scan over all features would, for any worker count (DESIGN.md §15).
//! A forest's trees, which subsample features, search on one worker each,
//! since the forest already fits its trees on the workers.

use crate::model::{check_fit_inputs, Classifier};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyperparameters for [`DecisionTree`].
#[derive(Debug, Clone)]
pub struct DecisionTreeConfig {
    /// Maximum tree depth (paper: 5).
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum samples in a leaf.
    pub min_samples_leaf: usize,
    /// Balanced class weights.
    pub balanced: bool,
    /// Features examined per split: `None` = all, `Some(k)` = random k
    /// (for forests).
    pub max_features: Option<usize>,
    /// RNG seed (feature subsampling).
    pub seed: u64,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 5,
            min_samples_split: 2,
            min_samples_leaf: 1,
            balanced: true,
            max_features: None,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Weighted probability of the positive class at this leaf.
        p_pos: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A CART decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    config: DecisionTreeConfig,
    root: Option<Node>,
    n_features: usize,
    /// (positive, negative) class weights computed at fit time.
    cached_cw: (f64, f64),
    /// Workers of the split search, set at fit time.
    workers: usize,
}

/// Features per block of a node's split search; the workers pull whole
/// blocks.
const BLOCK: usize = 64;

impl DecisionTree {
    /// Create an unfitted tree.
    pub fn new(config: DecisionTreeConfig) -> Self {
        Self {
            config,
            root: None,
            n_features: 0,
            cached_cw: (1.0, 1.0),
            workers: 1,
        }
    }

    /// Fit with explicit per-sample weights (used by AdaBoost).
    pub fn fit_weighted(&mut self, x: &[Vec<f64>], y: &[u8], sample_weights: &[f64]) {
        // A tree that subsamples features is a forest's, and the forest
        // fits its trees on the workers already.
        let workers = match self.config.max_features {
            Some(_) => 1,
            None => nn::par::resolve(0),
        };
        self.fit_with_workers(x, y, sample_weights, workers);
    }

    /// [`DecisionTree::fit_weighted`] with `workers` searching each node's
    /// split; every worker count fits the same tree.
    fn fit_with_workers(
        &mut self,
        x: &[Vec<f64>],
        y: &[u8],
        sample_weights: &[f64],
        workers: usize,
    ) {
        check_fit_inputs(x, y);
        assert_eq!(sample_weights.len(), x.len());
        self.workers = workers;
        self.cached_cw = self.class_weights(y);
        self.n_features = x[0].len();
        let idx: Vec<usize> = (0..x.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.root = Some(self.build(x, y, sample_weights, idx, 0, &mut rng));
    }

    fn class_weights(&self, y: &[u8]) -> (f64, f64) {
        if !self.config.balanced {
            return (1.0, 1.0);
        }
        let n = y.len();
        let n_pos = y.iter().filter(|&&l| l == 1).count().max(1);
        let n_neg = (n - y.iter().filter(|&&l| l == 1).count()).max(1);
        (
            n as f64 / (2.0 * n_pos as f64),
            n as f64 / (2.0 * n_neg as f64),
        )
    }

    fn build(
        &self,
        x: &[Vec<f64>],
        y: &[u8],
        w: &[f64],
        idx: Vec<usize>,
        depth: usize,
        rng: &mut StdRng,
    ) -> Node {
        let (wp, wn) = self.cached_cw;
        let w_pos: f64 = idx.iter().filter(|&&i| y[i] == 1).map(|&i| w[i] * wp).sum();
        let w_neg: f64 = idx.iter().filter(|&&i| y[i] == 0).map(|&i| w[i] * wn).sum();
        let total = w_pos + w_neg;
        let p_pos = if total > 0.0 { w_pos / total } else { 0.5 };

        let pure = w_pos <= 0.0 || w_neg <= 0.0;
        if depth >= self.config.max_depth || idx.len() < self.config.min_samples_split || pure {
            return Node::Leaf { p_pos };
        }

        let Some((feature, threshold)) = self.best_split(x, y, w, &idx, rng) else {
            return Node::Leaf { p_pos };
        };

        let (li, ri): (Vec<usize>, Vec<usize>) =
            idx.into_iter().partition(|&i| x[i][feature] <= threshold);
        if li.len() < self.config.min_samples_leaf || ri.len() < self.config.min_samples_leaf {
            return Node::Leaf { p_pos };
        }
        Node::Split {
            feature,
            threshold,
            left: Box::new(self.build(x, y, w, li, depth + 1, rng)),
            right: Box::new(self.build(x, y, w, ri, depth + 1, rng)),
        }
    }

    /// Find the (feature, threshold) minimizing weighted Gini impurity:
    /// the first such split, scanning features in order and each
    /// feature's values in ascending order. The workers search blocks of
    /// [`BLOCK`] features, and the blocks' bests merge in block order, a
    /// later block winning only with a strictly smaller impurity.
    fn best_split(
        &self,
        x: &[Vec<f64>],
        y: &[u8],
        w: &[f64],
        idx: &[usize],
        rng: &mut StdRng,
    ) -> Option<(usize, f64)> {
        let mut features: Vec<usize> = (0..self.n_features).collect();
        if let Some(k) = self.config.max_features {
            features.shuffle(rng);
            features.truncate(k.min(self.n_features));
        }
        let blocks: Vec<&[usize]> = features.chunks(BLOCK).collect();
        let bests = nn::par::map_indexed(blocks.len(), self.workers, |b| {
            self.search_block(blocks[b], x, y, w, idx)
        });
        let mut best: Option<(usize, f64, f64)> = None;
        for (f, threshold, gini) in bests.into_iter().flatten() {
            if best.is_none_or(|(_, _, g)| gini < g) {
                best = Some((f, threshold, gini));
            }
        }
        best.map(|(f, t, _)| (f, t))
    }

    /// The first `(feature, threshold, gini)` of least impurity among
    /// `features`, scanned in order.
    fn search_block(
        &self,
        features: &[usize],
        x: &[Vec<f64>],
        y: &[u8],
        w: &[f64],
        idx: &[usize],
    ) -> Option<(usize, f64, f64)> {
        let (wp, wn) = self.cached_cw;
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gini)
        let mut vals: Vec<(f64, f64, f64)> = Vec::with_capacity(idx.len()); // (x, w_pos, w_neg)
        for &f in features {
            vals.clear();
            for &i in idx {
                let (p, n) = if y[i] == 1 {
                    (w[i] * wp, 0.0)
                } else {
                    (0.0, w[i] * wn)
                };
                vals.push((x[i][f], p, n));
            }
            vals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let tot_pos: f64 = vals.iter().map(|v| v.1).sum();
            let tot_neg: f64 = vals.iter().map(|v| v.2).sum();
            let mut left_pos = 0.0;
            let mut left_neg = 0.0;
            for k in 0..vals.len().saturating_sub(1) {
                left_pos += vals[k].1;
                left_neg += vals[k].2;
                // Only split between distinct values.
                if vals[k].0 == vals[k + 1].0 {
                    continue;
                }
                let right_pos = tot_pos - left_pos;
                let right_neg = tot_neg - left_neg;
                let gini = weighted_gini(left_pos, left_neg) + weighted_gini(right_pos, right_neg);
                if best.map_or(true, |(_, _, g)| gini < g) {
                    let threshold = (vals[k].0 + vals[k + 1].0) / 2.0;
                    best = Some((f, threshold, gini));
                }
            }
        }
        best
    }

    /// Depth of the fitted tree (0 = single leaf).
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        self.root.as_ref().map_or(0, d)
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        fn c(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => c(left) + c(right),
            }
        }
        self.root.as_ref().map_or(0, c)
    }
}

/// Gini impurity of a node scaled by its weight mass:
/// `mass * (1 - p⁺² - p⁻²) = 2*w_pos*w_neg/(w_pos+w_neg)`.
fn weighted_gini(w_pos: f64, w_neg: f64) -> f64 {
    let total = w_pos + w_neg;
    if total <= 0.0 {
        0.0
    } else {
        2.0 * w_pos * w_neg / total
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &[Vec<f64>], y: &[u8]) {
        let w = vec![1.0; x.len()];
        self.fit_weighted(x, y, &w);
    }

    fn predict_proba(&self, x: &[f64]) -> f64 {
        // lint: allow(unwrap) API contract: predict requires a prior fit; lint: allow(panic-reach) API contract, not a data-dependent failure
        let mut node = self.root.as_ref().expect("predict before fit");
        loop {
            match node {
                Node::Leaf { p_pos } => return *p_pos,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    debug_assert!(*feature < x.len());
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::Rng;

    /// A matrix for the split searches' worker counts: 200 columns, more
    /// than three blocks of either search, continuous, tied, mostly zero
    /// and two constant. The labels follow column 7 with noise, and
    /// column 150 is a copy of it, so wherever one is a node's best split
    /// the other ties with it from a later block, and column 7 must win.
    pub(crate) fn copied_column(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row: Vec<f64> = (0..200)
                .map(|j| match j % 4 {
                    0 => rng.gen_range(-1.0..1.0),
                    1 => f64::from(rng.gen_range(0u8..3)),
                    2 if rng.gen_bool(0.1) => rng.gen_range(0.1..2.0),
                    2 => 0.0,
                    _ if j % 50 == 3 => 2.5,
                    _ => rng.gen_range(0.0..1.0),
                })
                .collect();
            row[150] = row[7];
            y.push(u8::from(row[7] + rng.gen_range(-0.3..0.3) > 0.4));
            x.push(row);
        }
        (x, y)
    }

    /// Every split's feature and threshold and every leaf's probability,
    /// as bits, in preorder.
    fn tree_bits(node: &Node, out: &mut Vec<u64>) {
        match node {
            Node::Leaf { p_pos } => out.push(p_pos.to_bits()),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                out.extend([*feature as u64, threshold.to_bits()]);
                tree_bits(left, out);
                tree_bits(right, out);
            }
        }
    }

    #[test]
    fn every_worker_count_grows_the_same_tree() {
        let (x, y) = copied_column(240, 0);
        let (probes, _) = copied_column(40, 1);
        // Uneven weights, so leaf probabilities are not simple fractions.
        let w: Vec<f64> = (0..x.len()).map(|i| 0.5 + (i % 3) as f64).collect();
        let fit = |workers| {
            let mut t = DecisionTree::new(DecisionTreeConfig::default());
            t.fit_with_workers(&x, &y, &w, workers);
            let mut bits = Vec::new();
            tree_bits(t.root.as_ref().expect("fitted"), &mut bits);
            let proba: Vec<u64> = (x.iter().chain(&probes))
                .map(|r| t.predict_proba(r).to_bits())
                .collect();
            (t, bits, proba)
        };
        let (serial, bits, proba) = fit(1);
        assert!(serial.depth() >= 3, "the tree is too shallow to test");
        // Columns 7 and 150 lie in blocks 0 and 2 and tie at the root.
        assert!(
            matches!(serial.root, Some(Node::Split { feature: 7, .. })),
            "the root must split on the first of two tied columns"
        );
        for workers in [2, 3, 8] {
            let (_, b, p) = fit(workers);
            assert_eq!(b, bits, "tree, workers={workers}");
            assert_eq!(p, proba, "predict_proba, workers={workers}");
        }
    }

    fn xor(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let b: f64 = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            x.push(vec![
                a + rng.gen_range(-0.2..0.2),
                b + rng.gen_range(-0.2..0.2),
            ]);
            y.push(u8::from(a * b > 0.0));
        }
        (x, y)
    }

    #[test]
    fn solves_xor() {
        let (x, y) = xor(300, 0);
        let mut t = DecisionTree::new(DecisionTreeConfig::default());
        t.fit(&x, &y);
        let acc = crate::metrics::accuracy(&y, &t.predict_batch(&x));
        assert!(acc > 0.95, "xor acc = {acc}");
    }

    #[test]
    fn respects_max_depth() {
        let (x, y) = xor(300, 1);
        let mut t = DecisionTree::new(DecisionTreeConfig {
            max_depth: 2,
            ..Default::default()
        });
        t.fit(&x, &y);
        assert!(t.depth() <= 2);
    }

    #[test]
    fn depth_zero_tree_is_leaf() {
        let (x, y) = xor(50, 2);
        let mut t = DecisionTree::new(DecisionTreeConfig {
            max_depth: 0,
            ..Default::default()
        });
        t.fit(&x, &y);
        assert_eq!(t.n_leaves(), 1);
        // Leaf probability = weighted class prior.
        let p = t.predict_proba(&x[0]);
        assert!(p > 0.0 && p < 1.0);
    }

    #[test]
    fn pure_node_terminates_early() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![0, 0, 1, 1];
        let mut t = DecisionTree::new(DecisionTreeConfig {
            max_depth: 10,
            ..Default::default()
        });
        t.fit(&x, &y);
        // One split at 1.5 suffices.
        assert_eq!(t.depth(), 1);
        assert_eq!(t.predict(&[0.5]), 0);
        assert_eq!(t.predict(&[2.5]), 1);
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![0, 1, 0, 1];
        let mut t = DecisionTree::new(DecisionTreeConfig {
            min_samples_leaf: 3,
            ..Default::default()
        });
        t.fit(&x, &y);
        assert_eq!(t.n_leaves(), 1, "no split can satisfy min_samples_leaf=3");
    }

    #[test]
    fn sample_weights_shift_split() {
        // Two conflicting points; heavy weight decides the leaf label.
        let x = vec![vec![0.0], vec![0.0]];
        let y = vec![0, 1];
        let mut t = DecisionTree::new(DecisionTreeConfig {
            balanced: false,
            ..Default::default()
        });
        t.fit_weighted(&x, &y, &[10.0, 1.0]);
        assert!(t.predict_proba(&[0.0]) < 0.5);
        t.fit_weighted(&x, &y, &[1.0, 10.0]);
        assert!(t.predict_proba(&[0.0]) > 0.5);
    }

    #[test]
    fn balanced_weights_affect_leaf_probability() {
        // 90:10 imbalance at a single leaf.
        let x: Vec<Vec<f64>> = (0..100).map(|_| vec![0.0]).collect();
        let mut y = vec![0u8; 100];
        for l in y.iter_mut().take(10) {
            *l = 1;
        }
        let mut unbal = DecisionTree::new(DecisionTreeConfig {
            balanced: false,
            max_depth: 0,
            ..Default::default()
        });
        unbal.fit(&x, &y);
        let mut bal = DecisionTree::new(DecisionTreeConfig {
            balanced: true,
            max_depth: 0,
            ..Default::default()
        });
        bal.fit(&x, &y);
        assert!((unbal.predict_proba(&[0.0]) - 0.1).abs() < 1e-9);
        assert!((bal.predict_proba(&[0.0]) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = xor(200, 7);
        let mk = || {
            let mut t = DecisionTree::new(DecisionTreeConfig {
                max_features: Some(1),
                seed: 9,
                ..Default::default()
            });
            t.fit(&x, &y);
            t.predict_proba_batch(&x)
        };
        assert_eq!(mk(), mk());
    }
}
