//! Gradient-boosted decision trees with XGBoost-style second-order leaf
//! weights and regularization.
//!
//! Reproduces the `XGBoost` row of Table III: `eta=0.4`,
//! `objective='binary:logistic'`, `reg_alpha=0.9`, `learning_rate` shrink.
//! Each round fits a regression tree to the (gradient, hessian) statistics
//! of the logistic loss; leaf weights are `-G/(H+λ)` soft-thresholded by
//! `reg_alpha` (L1), as in XGBoost.
//!
//! Trees grow by XGBoost's exact greedy method (Chen & Guestrin, KDD 2016,
//! §4.1): each feature is sorted once per fit, and each depth finds the
//! best split of every open node in one scan per feature. No split falls
//! inside a feature's leading run, the rows tied at its smallest value
//! (the zeros of a sparse feature), so, as in the paper's sparsity-aware
//! search (§3.4), the scan skips it: one masked pass over the rows sums
//! every node's share of every run, and each scan starts from those sums.
//! The columns are searched in fixed blocks on `nn::par::resolve(0)`
//! workers, the paper's column blocks for parallel learning (§4.1), and
//! the blocks' bests merge in column order. It chooses the splits a sort
//! per node would, for any worker count (DESIGN.md §15).

use crate::linalg::sigmoid;
use crate::model::{check_fit_inputs, Classifier};
use std::cmp::Ordering;

/// Hyperparameters for [`Gbdt`].
#[derive(Debug, Clone)]
pub struct GbdtConfig {
    /// Boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage applied to each tree's output (XGBoost `eta` /
    /// `learning_rate`).
    pub eta: f64,
    /// Maximum depth of each regression tree.
    pub max_depth: usize,
    /// L2 regularization on leaf weights (XGBoost `lambda`).
    pub reg_lambda: f64,
    /// L1 regularization on leaf weights (XGBoost `alpha`; paper: 0.9).
    pub reg_alpha: f64,
    /// Minimum hessian mass per leaf (XGBoost `min_child_weight`).
    pub min_child_weight: f64,
    /// Minimum loss reduction to accept a split (XGBoost `gamma`).
    pub gamma: f64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        Self {
            n_rounds: 50,
            eta: 0.4,
            max_depth: 4,
            reg_lambda: 1.0,
            reg_alpha: 0.9,
            min_child_weight: 1.0,
            gamma: 0.0,
        }
    }
}

/// A regression tree node. A split names its children by their index in
/// the tree's node array; a leaf's weight is already multiplied by `eta`.
#[derive(Debug, Clone, Copy)]
enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A regression tree as one node array, root first.
#[derive(Debug, Clone)]
struct RegTree {
    nodes: Vec<Node>,
}

impl RegTree {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut i = 0;
        while let Some(&node) = self.nodes.get(i) {
            match node {
                Node::Leaf(weight) => return weight,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    debug_assert!(feature < x.len());
                    i = if x[feature] <= threshold { left } else { right };
                }
            }
        }
        // Unreachable: `Gbdt::grow` pushes both children of every split.
        f64::NAN
    }
}

/// A non-constant feature's `(value, row)` pairs, sorted once per fit by
/// value with ties in row order: the order in which a stable per-node sort
/// by `partial_cmp` lists any node's rows, because finite values make
/// `partial_cmp` a total preorder. The leading run, every row tied with
/// the smallest value, is kept as flags in [`Presorted::in_run`]; only the
/// pairs after it are stored, 16 B each.
#[derive(Debug)]
struct Column {
    feature: usize,
    /// The value of the run's first entry.
    run_value: f64,
    /// The sorted pairs after the leading run.
    rest: Vec<(f64, usize)>,
}

/// Non-constant columns per block of the split search. The blocks' run
/// flags are contiguous, and the workers pull whole blocks.
const BLOCK: usize = 64;

/// The non-constant features of a fit, presorted.
#[derive(Debug)]
struct Presorted {
    columns: Vec<Column>,
    /// One flag per row and column: whether the row lies in the column's
    /// leading run. Block after block of [`BLOCK`] columns, each one
    /// row-major. Indexed by the column's position in `columns`, not by
    /// its feature, which differ once a constant feature is dropped.
    in_run: Vec<bool>,
}

/// Sort every feature of `x` and drop the constant ones.
fn presort(x: &[Vec<f64>]) -> Presorted {
    let d = x.first().map_or(0, Vec::len);
    let mut entries: Vec<(f64, usize)> = Vec::with_capacity(x.len());
    let mut columns = Vec::new();
    for feature in 0..d {
        entries.clear();
        entries.extend(x.iter().enumerate().map(|(row, xi)| (xi[feature], row)));
        entries.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
        let Some(&(run_value, _)) = entries.first() else {
            continue;
        };
        let run = entries.iter().take_while(|e| e.0 == run_value).count();
        // A constant feature offers no split at any node.
        if run < entries.len() {
            columns.push(Column {
                feature,
                run_value,
                rest: entries[run..].to_vec(),
            });
        }
    }
    let in_run = columns
        .chunks(BLOCK)
        .flat_map(|block| {
            x.iter()
                .flat_map(move |xi| block.iter().map(move |c| xi[c.feature] == c.run_value))
        })
        .collect();
    Presorted { columns, in_run }
}

/// A node of the level being grown, with the state of the scan that
/// looks for its best split.
#[derive(Debug, Clone, Copy, Default)]
struct LevelNode {
    /// Index in the tree's node array.
    node: usize,
    rows: usize,
    /// Gradient and hessian sums over the node's rows, in row order.
    g: f64,
    h: f64,
    parent_score: f64,
    /// Sums over the node's rows the scan of the current feature has
    /// passed, and the value of the last of them.
    gl: f64,
    hl: f64,
    last: Option<f64>,
    /// `(feature, threshold, gain)` of the best split found so far.
    best: Option<(usize, f64, f64)>,
}

/// `slot` of a row whose node is not split further.
const CLOSED: usize = usize::MAX;

/// Gradient-boosted tree classifier for binary logistic loss.
#[derive(Debug, Clone)]
pub struct Gbdt {
    config: GbdtConfig,
    trees: Vec<RegTree>,
    base_score: f64,
}

impl Gbdt {
    /// Create an unfitted booster.
    pub fn new(config: GbdtConfig) -> Self {
        Self {
            config,
            trees: Vec::new(),
            base_score: 0.0,
        }
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Raw margin (log-odds) prediction.
    pub fn decision(&self, x: &[f64]) -> f64 {
        self.base_score + self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }

    /// XGBoost leaf weight with L1 soft-thresholding and L2 shrinkage.
    fn leaf_weight(&self, g: f64, h: f64) -> f64 {
        let a = self.config.reg_alpha;
        let num = if g > a {
            g - a
        } else if g < -a {
            g + a
        } else {
            0.0
        };
        -num / (h + self.config.reg_lambda)
    }

    /// Split gain (without the constant parent term), XGBoost eq. (7).
    fn score(&self, g: f64, h: f64) -> f64 {
        let a = self.config.reg_alpha;
        let num = if g > a {
            g - a
        } else if g < -a {
            g + a
        } else {
            0.0
        };
        num * num / (h + self.config.reg_lambda)
    }

    /// Grow one tree level by level and add each row's leaf weight to its
    /// margin.
    ///
    /// A node is split when it is shallower than `max_depth`, holds at
    /// least two rows, and its best split leaves neither side empty; the
    /// best split has the largest positive gain, the first found winning
    /// ties, scanning features in order and each feature's values in
    /// ascending order. `workers` search the splits.
    fn grow(
        &self,
        x: &[Vec<f64>],
        sorted: &Presorted,
        grad: &[f64],
        hess: &[f64],
        margins: &mut [f64],
        workers: usize,
    ) -> RegTree {
        let cfg = &self.config;
        let mut nodes = vec![Node::Leaf(0.0)];
        // The node each row is in: one of the current level, or the leaf
        // it settled in above it.
        let mut node_of = vec![0usize; x.len()];
        // Each row's index in `level_nodes` while its node may split.
        let mut slot = vec![CLOSED; x.len()];
        let (mut level, mut depth) = (0, 0);
        while level < nodes.len() {
            let end = nodes.len();
            let mut level_nodes: Vec<LevelNode> = (level..end)
                .map(|node| LevelNode {
                    node,
                    ..Default::default()
                })
                .collect();
            for (row, &node) in node_of.iter().enumerate() {
                if let Some(n) = node.checked_sub(level).and_then(|k| level_nodes.get_mut(k)) {
                    n.g += grad[row];
                    n.h += hess[row];
                    n.rows += 1;
                }
            }
            for n in &mut level_nodes {
                nodes[n.node] = Node::Leaf(cfg.eta * self.leaf_weight(n.g, n.h));
                n.parent_score = self.score(n.g, n.h);
            }
            let splits = |k: usize| {
                level_nodes
                    .get(k)
                    .is_some_and(|n| depth < cfg.max_depth && n.rows >= 2)
            };
            for (s, &node) in slot.iter_mut().zip(&node_of) {
                *s = node
                    .checked_sub(level)
                    .filter(|&k| splits(k))
                    .unwrap_or(CLOSED);
            }
            if slot.iter().any(|&s| s != CLOSED) {
                self.find_splits(sorted, grad, hess, &slot, &mut level_nodes, workers);
                Self::split(x, &slot, &level_nodes, &mut nodes, &mut node_of);
            }
            level = end;
            depth += 1;
        }
        for (m, &node) in margins.iter_mut().zip(&node_of) {
            if let Node::Leaf(weight) = nodes[node] {
                *m += weight;
            }
        }
        RegTree { nodes }
    }

    /// Find the best split of every node a row has a `slot` in. `workers`
    /// search the blocks of [`BLOCK`] columns, each block with its own
    /// copy of the level's scan state. The blocks' bests merge in block
    /// order, and a later block wins only with a strictly larger gain, so
    /// each node keeps the first of its best splits in column order, as
    /// one scan over all columns would, for any worker count.
    fn find_splits(
        &self,
        sorted: &Presorted,
        grad: &[f64],
        hess: &[f64],
        slot: &[usize],
        level_nodes: &mut [LevelNode],
        workers: usize,
    ) {
        // `fit` floors every hessian at 1e-16, so a node's run hessian sum
        // is positive exactly when it has a row in the run.
        debug_assert!(hess.iter().all(|&h| h > 0.0));
        let blocks: Vec<_> = sorted
            .columns
            .chunks(BLOCK)
            .zip(sorted.in_run.chunks(BLOCK * slot.len()))
            .collect();
        let bests = nn::par::map_indexed(blocks.len(), workers, |b| {
            let (columns, in_run) = blocks[b];
            let mut scan = level_nodes.to_vec();
            self.search_block(columns, in_run, grad, hess, slot, &mut scan);
            scan.into_iter().map(|n| n.best).collect::<Vec<_>>()
        });
        for block in bests {
            for (n, best) in level_nodes.iter_mut().zip(block) {
                if let Some((_, _, gain)) = best {
                    if n.best.is_none_or(|(_, _, bg)| gain > bg) {
                        n.best = best;
                    }
                }
            }
        }
    }

    /// Evaluate the splits of every node a row has a `slot` in, for each
    /// of a block's columns in the order of the node's own rows sorted by
    /// that feature. One masked pass over the rows sums each node's rows
    /// in every column's leading run, where no split can fall; the scan of
    /// each column starts from those sums and walks only the pairs after
    /// the run.
    fn search_block(
        &self,
        columns: &[Column],
        in_run: &[bool],
        grad: &[f64],
        hess: &[f64],
        slot: &[usize],
        level_nodes: &mut [LevelNode],
    ) {
        let cfg = &self.config;
        let width = columns.len();
        // Node-major: each node's gradient and hessian sums over its rows
        // in each column's leading run, in row order. Adding 0.0 for a row
        // outside the run leaves a sum that started at +0.0 unchanged.
        let mut run_g = vec![0.0; level_nodes.len() * width];
        let mut run_h = vec![0.0; level_nodes.len() * width];
        let rows = slot.iter().zip(grad).zip(hess);
        for (((&s, &g), &h), flags) in rows.zip(in_run.chunks_exact(width)) {
            if s == CLOSED {
                continue;
            }
            let gs = &mut run_g[s * width..][..width];
            let hs = &mut run_h[s * width..][..width];
            for ((gs, hs), &hit) in gs.iter_mut().zip(hs.iter_mut()).zip(flags) {
                *gs += if hit { g } else { 0.0 };
                *hs += if hit { h } else { 0.0 };
            }
        }
        for (c, column) in columns.iter().enumerate() {
            for (k, n) in level_nodes.iter_mut().enumerate() {
                n.gl = run_g[k * width + c];
                n.hl = run_h[k * width + c];
                // The scan leaves the run at its value. A `-0.0`/`0.0` run
                // puts the same bits in `(last + value) / 2` either way.
                n.last = (n.hl > 0.0).then_some(column.run_value);
            }
            for &(value, row) in &column.rest {
                let Some(n) = level_nodes.get_mut(slot[row]) else {
                    continue;
                };
                // The split between the node's previous row and this one.
                if let Some(last) = n.last.filter(|&last| last != value) {
                    let gr = n.g - n.gl;
                    let hr = n.h - n.hl;
                    if n.hl >= cfg.min_child_weight && hr >= cfg.min_child_weight {
                        let gain = 0.5
                            * (self.score(n.gl, n.hl) + self.score(gr, hr) - n.parent_score)
                            - cfg.gamma;
                        if gain > 0.0 && n.best.is_none_or(|(_, _, bg)| gain > bg) {
                            n.best = Some((column.feature, (last + value) / 2.0, gain));
                        }
                    }
                }
                n.gl += grad[row];
                n.hl += hess[row];
                n.last = Some(value);
            }
        }
    }

    /// Turn each node whose best split leaves neither side empty into a
    /// split with two new nodes, and move its rows into them.
    fn split(
        x: &[Vec<f64>],
        slot: &[usize],
        level_nodes: &[LevelNode],
        nodes: &mut Vec<Node>,
        node_of: &mut [usize],
    ) {
        let mut left_rows = vec![0; level_nodes.len()];
        for (row, &s) in slot.iter().enumerate() {
            if let Some((feature, threshold, _)) = level_nodes.get(s).and_then(|n| n.best) {
                if x[row][feature] <= threshold {
                    left_rows[s] += 1;
                }
            }
        }
        for (n, &left) in level_nodes.iter().zip(&left_rows) {
            let Some((feature, threshold, _)) = n.best else {
                continue;
            };
            if left == 0 || left == n.rows {
                continue;
            }
            nodes[n.node] = Node::Split {
                feature,
                threshold,
                left: nodes.len(),
                right: nodes.len() + 1,
            };
            nodes.extend([Node::Leaf(0.0); 2]);
        }
        for (row, &s) in slot.iter().enumerate() {
            if let Some(&Node::Split {
                feature,
                threshold,
                left,
                right,
            }) = level_nodes.get(s).and_then(|n| nodes.get(n.node))
            {
                node_of[row] = if x[row][feature] <= threshold {
                    left
                } else {
                    right
                };
            }
        }
    }

    /// [`Classifier::fit`] with `workers` searching the splits; every
    /// worker count fits the same trees.
    fn fit_with_workers(&mut self, x: &[Vec<f64>], y: &[u8], workers: usize) {
        check_fit_inputs(x, y);
        let n = x.len();
        // Base score: log-odds of the positive rate (XGBoost's default
        // behaviour with base_score=0.5 is margin 0; we use the prior for
        // faster convergence on imbalanced data).
        let pos = y.iter().filter(|&&l| l == 1).count() as f64;
        let p0 = (pos / n as f64).clamp(1e-6, 1.0 - 1e-6);
        self.base_score = (p0 / (1.0 - p0)).ln();
        self.trees.clear();

        let sorted = presort(x);
        let mut margins = vec![self.base_score; n];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        for _round in 0..self.config.n_rounds {
            for i in 0..n {
                let p = sigmoid(margins[i]);
                grad[i] = p - y[i] as f64; // dL/dmargin
                hess[i] = (p * (1.0 - p)).max(1e-16);
            }
            let tree = self.grow(x, &sorted, &grad, &hess, &mut margins, workers);
            self.trees.push(tree);
        }
    }
}

impl Classifier for Gbdt {
    fn fit(&mut self, x: &[Vec<f64>], y: &[u8]) {
        self.fit_with_workers(x, y, nn::par::resolve(0));
    }

    fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(self.decision(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn learns_xor() {
        let (x, y) = xor(300, 0);
        let mut m = Gbdt::new(GbdtConfig {
            n_rounds: 30,
            reg_alpha: 0.0,
            ..Default::default()
        });
        m.fit(&x, &y);
        let acc = crate::metrics::accuracy(&y, &m.predict_batch(&x));
        assert!(acc > 0.95, "gbdt xor acc = {acc}");
    }

    #[test]
    fn more_rounds_reduce_training_loss() {
        let (x, y) = xor(300, 1);
        let loss = |m: &Gbdt| -> f64 {
            x.iter()
                .zip(&y)
                .map(|(row, &t)| {
                    let p = m.predict_proba(row).clamp(1e-9, 1.0 - 1e-9);
                    -(t as f64) * p.ln() - (1.0 - t as f64) * (1.0 - p).ln()
                })
                .sum::<f64>()
                / x.len() as f64
        };
        let mut short = Gbdt::new(GbdtConfig {
            n_rounds: 3,
            reg_alpha: 0.0,
            ..Default::default()
        });
        short.fit(&x, &y);
        let mut long = Gbdt::new(GbdtConfig {
            n_rounds: 40,
            reg_alpha: 0.0,
            ..Default::default()
        });
        long.fit(&x, &y);
        assert!(loss(&long) < loss(&short));
    }

    #[test]
    fn strong_l1_shrinks_leaves_to_zero() {
        let (x, y) = xor(100, 2);
        let mut m = Gbdt::new(GbdtConfig {
            n_rounds: 5,
            reg_alpha: 1e9,
            ..Default::default()
        });
        m.fit(&x, &y);
        // With a huge alpha, every leaf weight soft-thresholds to zero so
        // the margin stays at the prior.
        for row in x.iter().take(10) {
            assert!((m.decision(row) - m.base_score).abs() < 1e-9);
        }
    }

    #[test]
    fn base_score_is_prior_log_odds() {
        let x = vec![vec![0.0]; 10];
        let mut y = vec![0u8; 10];
        y[0] = 1; // 10% positive
        let mut m = Gbdt::new(GbdtConfig {
            n_rounds: 0,
            ..Default::default()
        });
        m.fit(&x, &y);
        let expected = (0.1f64 / 0.9).ln();
        assert!((m.decision(&[0.0]) - expected).abs() < 1e-9);
        assert!((m.predict_proba(&[0.0]) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn n_trees_matches_rounds() {
        let (x, y) = xor(100, 3);
        let mut m = Gbdt::new(GbdtConfig {
            n_rounds: 12,
            ..Default::default()
        });
        m.fit(&x, &y);
        assert_eq!(m.n_trees(), 12);
    }

    #[test]
    fn leaf_weight_soft_threshold_math() {
        let m = Gbdt::new(GbdtConfig {
            reg_alpha: 1.0,
            reg_lambda: 1.0,
            ..Default::default()
        });
        assert_eq!(m.leaf_weight(0.5, 1.0), 0.0); // |g| < alpha
        assert!((m.leaf_weight(3.0, 1.0) + 1.0).abs() < 1e-12); // -(3-1)/2
        assert!((m.leaf_weight(-3.0, 1.0) - 1.0).abs() < 1e-12);
    }

    /// The sort-per-node builder that `Gbdt::grow` replaced, with its
    /// boxed tree: the reference the level-wise grower must match bit for
    /// bit.
    #[derive(Debug)]
    enum RNode {
        Leaf {
            weight: f64,
        },
        Split {
            feature: usize,
            threshold: f64,
            left: Box<RNode>,
            right: Box<RNode>,
        },
    }

    impl RNode {
        fn predict(&self, x: &[f64]) -> f64 {
            match self {
                RNode::Leaf { weight } => *weight,
                RNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    if x[*feature] <= *threshold {
                        left.predict(x)
                    } else {
                        right.predict(x)
                    }
                }
            }
        }

        fn count(&self) -> usize {
            match self {
                RNode::Leaf { .. } => 1,
                RNode::Split { left, right, .. } => 1 + left.count() + right.count(),
            }
        }
    }

    fn build(
        m: &Gbdt,
        x: &[Vec<f64>],
        grad: &[f64],
        hess: &[f64],
        idx: Vec<usize>,
        depth: usize,
    ) -> RNode {
        let g_sum: f64 = idx.iter().map(|&i| grad[i]).sum();
        let h_sum: f64 = idx.iter().map(|&i| hess[i]).sum();
        let leaf = RNode::Leaf {
            weight: m.leaf_weight(g_sum, h_sum),
        };
        if depth >= m.config.max_depth || idx.len() < 2 {
            return leaf;
        }
        let parent_score = m.score(g_sum, h_sum);
        let d = x[0].len();
        let mut best: Option<(usize, f64, f64)> = None;
        let mut vals: Vec<(f64, f64, f64)> = Vec::with_capacity(idx.len());
        for f in 0..d {
            vals.clear();
            for &i in &idx {
                vals.push((x[i][f], grad[i], hess[i]));
            }
            vals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let mut gl = 0.0;
            let mut hl = 0.0;
            for k in 0..vals.len().saturating_sub(1) {
                gl += vals[k].1;
                hl += vals[k].2;
                if vals[k].0 == vals[k + 1].0 {
                    continue;
                }
                let gr = g_sum - gl;
                let hr = h_sum - hl;
                if hl < m.config.min_child_weight || hr < m.config.min_child_weight {
                    continue;
                }
                let gain =
                    0.5 * (m.score(gl, hl) + m.score(gr, hr) - parent_score) - m.config.gamma;
                if gain > 0.0 && best.is_none_or(|(_, _, bg)| gain > bg) {
                    best = Some((f, (vals[k].0 + vals[k + 1].0) / 2.0, gain));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            return leaf;
        };
        let (li, ri): (Vec<usize>, Vec<usize>) =
            idx.into_iter().partition(|&i| x[i][feature] <= threshold);
        if li.is_empty() || ri.is_empty() {
            return leaf;
        }
        RNode::Split {
            feature,
            threshold,
            left: Box::new(build(m, x, grad, hess, li, depth + 1)),
            right: Box::new(build(m, x, grad, hess, ri, depth + 1)),
        }
    }

    fn scale_tree(node: &RNode, eta: f64) -> RNode {
        match node {
            RNode::Leaf { weight } => RNode::Leaf {
                weight: weight * eta,
            },
            RNode::Split {
                feature,
                threshold,
                left,
                right,
            } => RNode::Split {
                feature: *feature,
                threshold: *threshold,
                left: Box::new(scale_tree(left, eta)),
                right: Box::new(scale_tree(right, eta)),
            },
        }
    }

    /// The booster `Gbdt::fit` trained before the level-wise grower.
    struct Oracle {
        base_score: f64,
        trees: Vec<RNode>,
    }

    impl Oracle {
        fn fit(config: GbdtConfig, x: &[Vec<f64>], y: &[u8]) -> Self {
            let m = Gbdt::new(config);
            let n = x.len();
            let pos = y.iter().filter(|&&l| l == 1).count() as f64;
            let p0 = (pos / n as f64).clamp(1e-6, 1.0 - 1e-6);
            let base_score = (p0 / (1.0 - p0)).ln();
            let mut trees = Vec::new();
            let mut margins = vec![base_score; n];
            let mut grad = vec![0.0; n];
            let mut hess = vec![0.0; n];
            for _round in 0..m.config.n_rounds {
                for i in 0..n {
                    let p = sigmoid(margins[i]);
                    grad[i] = p - y[i] as f64;
                    hess[i] = (p * (1.0 - p)).max(1e-16);
                }
                let root = build(&m, x, &grad, &hess, (0..n).collect(), 0);
                for i in 0..n {
                    margins[i] += m.config.eta * root.predict(&x[i]);
                }
                trees.push(scale_tree(&root, m.config.eta));
            }
            Self { base_score, trees }
        }

        fn decision(&self, x: &[f64]) -> f64 {
            self.base_score + self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
        }
    }

    /// Whether the flat subtree at `i` is the oracle's `node`, bit for bit.
    fn same_tree(flat: &RegTree, i: usize, node: &RNode) -> bool {
        match (flat.nodes[i], node) {
            (Node::Leaf(w), RNode::Leaf { weight }) => w.to_bits() == weight.to_bits(),
            (
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                },
                RNode::Split {
                    feature: f,
                    threshold: t,
                    left: l,
                    right: r,
                },
            ) => {
                feature == *f
                    && threshold.to_bits() == t.to_bits()
                    && same_tree(flat, left, l)
                    && same_tree(flat, right, r)
            }
            _ => false,
        }
    }

    /// Fit both builders and require the same trees and the same
    /// `decision` bits on every training row and every probe.
    fn assert_matches_oracle(config: GbdtConfig, x: &[Vec<f64>], y: &[u8], probes: &[Vec<f64>]) {
        let oracle = Oracle::fit(config.clone(), x, y);
        let mut m = Gbdt::new(config.clone());
        m.fit(x, y);
        assert_same_as_oracle(&m, &oracle, x, probes);
    }

    fn assert_same_as_oracle(m: &Gbdt, oracle: &Oracle, x: &[Vec<f64>], probes: &[Vec<f64>]) {
        let config = &m.config;
        assert_eq!(m.trees.len(), oracle.trees.len(), "{config:?}");
        for (t, (flat, boxed)) in m.trees.iter().zip(&oracle.trees).enumerate() {
            assert_eq!(
                flat.nodes.len(),
                boxed.count(),
                "tree {t} node count, {config:?}"
            );
            assert!(same_tree(flat, 0, boxed), "tree {t} differs, {config:?}");
        }
        for row in x.iter().chain(probes) {
            assert_eq!(
                m.decision(row).to_bits(),
                oracle.decision(row).to_bits(),
                "decision on {row:?}, {config:?}"
            );
        }
    }

    /// A dataset mixing the column kinds the presort must order exactly
    /// as a per-node sort does: continuous values, four heavily tied
    /// levels, a constant, a mix of `-0.0` and `0.0` with a few nonzeros,
    /// a column that is at least 90% zeros, and the signed-zero column
    /// again with every zero positive, whose splits tie with its twin's
    /// only while both sum their zeros in row order. Labels follow a
    /// noisy score, or are one class throughout for every seventh seed.
    fn mixed(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let single = (seed % 7 == 3).then(|| u8::from(seed.is_multiple_of(2)));
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let c: f64 = rng.gen_range(-3.0..3.0);
            let level = f64::from(rng.gen_range(0u8..4));
            let signed_zero = match rng.gen_range(0..10) {
                0 => 1.5,
                1..=4 => -0.0,
                _ => 0.0,
            };
            let sparse = if rng.gen_bool(0.06) {
                rng.gen_range(0.1..2.0)
            } else {
                0.0
            };
            let score = c + level - 1.5 + 2.0 * signed_zero + 3.0 * sparse;
            y.push(single.unwrap_or(u8::from(score + rng.gen_range(-2.0..2.0) > 0.0)));
            x.push(vec![
                c,
                level,
                4.25,
                signed_zero,
                sparse,
                rng.gen_range(-1.0..1.0),
                signed_zero.abs(),
            ]);
        }
        (x, y)
    }

    /// A dataset for the leading runs the grower sums apart from its
    /// scan, behind a constant column so that column and feature indices
    /// differ: a continuous column; a column tied at a negative minimum on
    /// about 70% of rows; a column that is zero exactly where the
    /// continuous one is positive, so a split on that one leaves a child
    /// with none of this column's run; and a column whose minimum lies on
    /// one row only. Labels follow a noisy score.
    fn leading_runs(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lone = rng.gen_range(0..n);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for row in 0..n {
            let c: f64 = rng.gen_range(-3.0..3.0);
            let tied = if rng.gen_bool(0.7) {
                -2.0
            } else {
                rng.gen_range(-1.0..2.0)
            };
            let zero_where_positive = if c > 0.0 { 0.0 } else { 1.0 - c };
            let lone_min = if row == lone {
                -5.0
            } else {
                f64::from(rng.gen_range(0u8..3))
            };
            let score = c + tied - 0.5 * zero_where_positive + lone_min;
            y.push(u8::from(score + rng.gen_range(-2.0..2.0) > 0.0));
            x.push(vec![-1.0, c, tied, zero_where_positive, lone_min]);
        }
        (x, y)
    }

    /// Fit every mix of `max_depth` {0, 1, 4, 6}, `min_child_weight`
    /// {0, 1, 50}, `gamma` {0, 0.5} and `reg_alpha` {0, 0.9, 1e9} on two
    /// datasets of its own from `data`.
    fn assert_grid_matches_oracle(data: fn(usize, u64) -> (Vec<Vec<f64>>, Vec<u8>)) {
        let mut configs = Vec::new();
        for max_depth in [0, 1, 4, 6] {
            for min_child_weight in [0.0, 1.0, 50.0] {
                for gamma in [0.0, 0.5] {
                    for reg_alpha in [0.0, 0.9, 1e9] {
                        configs.push(GbdtConfig {
                            n_rounds: 6,
                            max_depth,
                            min_child_weight,
                            gamma,
                            reg_alpha,
                            ..Default::default()
                        });
                    }
                }
            }
        }
        // 72 configs, each fitted on two datasets of its own: 144 seeds.
        for (c, config) in configs.iter().enumerate() {
            for seed in [2 * c as u64, 2 * c as u64 + 1] {
                let n = 3 + (seed as usize * 37) % 180;
                let (x, y) = data(n, seed);
                let (probes, _) = data(20, seed + 10_000);
                assert_matches_oracle(config.clone(), &x, &y, &probes);
            }
        }
    }

    #[test]
    fn level_wise_grower_matches_the_sort_per_node_builder() {
        assert_grid_matches_oracle(mixed);
    }

    #[test]
    fn level_wise_grower_matches_on_leading_runs() {
        assert_grid_matches_oracle(leading_runs);
    }

    #[test]
    fn every_worker_count_fits_the_oracle_s_trees() {
        let (x, y) = crate::tree::tests::copied_column(240, 0);
        let (probes, _) = crate::tree::tests::copied_column(40, 1);
        let config = GbdtConfig {
            n_rounds: 4,
            ..Default::default()
        };
        // Columns 7 and 150 sit at positions 6 and 148 once the constant
        // columns 3 and 103 are dropped, in blocks 0 and 2, and they tie
        // wherever one is a node's best split.
        let sorted = presort(&x);
        assert!(sorted.columns.len() > 3 * BLOCK);
        let position = |f| sorted.columns.iter().position(|c| c.feature == f);
        assert_eq!((position(7), position(150)), (Some(6), Some(148)));
        let oracle = Oracle::fit(config.clone(), &x, &y);
        for workers in [1, 2, 3, 8] {
            let mut m = Gbdt::new(config.clone());
            m.fit_with_workers(&x, &y, workers);
            assert!(
                matches!(m.trees[0].nodes[0], Node::Split { feature: 7, .. }),
                "the root must split on the first of two tied columns, workers={workers}"
            );
            assert_same_as_oracle(&m, &oracle, &x, &probes);
        }
    }

    #[test]
    fn level_wise_grower_matches_on_edge_cases() {
        let config = |min_child_weight| GbdtConfig {
            n_rounds: 4,
            reg_alpha: 0.0,
            min_child_weight,
            ..Default::default()
        };
        let probe = vec![vec![0.5, -1.0], vec![2.0, 3.0]];
        // A side holding exactly `min_child_weight` of hessian is allowed:
        // at the first round every hessian is 0.25.
        let x: Vec<Vec<f64>> = (0..8).map(|i| vec![f64::from(i / 4), 0.0]).collect();
        assert_matches_oracle(config(1.0), &x, &[0, 0, 0, 0, 1, 1, 1, 1], &probe);
        // One row, two rows, one class.
        assert_matches_oracle(config(0.0), &[vec![1.0, 2.0]], &[1], &probe);
        let two = [vec![1.0, 2.0], vec![0.0, 2.0]];
        assert_matches_oracle(config(0.0), &two, &[0, 1], &probe);
        assert_matches_oracle(config(0.0), &two, &[1, 1], &probe);
        let (x, _) = mixed(60, 5);
        assert_matches_oracle(config(1.0), &x, &[0; 60], &mixed(5, 6).0);
        // A negative `reg_alpha` scores an empty side above zero, so a
        // node with none of a column's leading run must not try a split
        // ahead of its first row.
        for seed in 0..4 {
            let (x, y) = leading_runs(90, seed);
            let negative = GbdtConfig {
                reg_alpha: -0.5,
                ..config(0.0)
            };
            assert_matches_oracle(negative, &x, &y, &leading_runs(5, seed + 4).0);
        }

        // Adjacent floats: the midpoint of 1+ε and 1+2ε rounds to 1+2ε,
        // so the only split sends every row left and each root stays a
        // leaf.
        let (a, b) = (1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON);
        assert_eq!((a + b) / 2.0, b);
        let x: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![if i % 2 == 0 { a } else { b }])
            .collect();
        let y: Vec<u8> = (0..20).map(|i| u8::from(i % 2 == 1)).collect();
        assert_matches_oracle(config(0.0), &x, &y, &[vec![a], vec![b], vec![1.0]]);
        let mut m = Gbdt::new(config(0.0));
        m.fit(&x, &y);
        assert!(m.trees.iter().all(|t| t.nodes.len() == 1));
    }
}
