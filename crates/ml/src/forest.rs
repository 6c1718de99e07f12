//! Random forests: bootstrap-aggregated CART trees with per-split feature
//! subsampling. Used as a feature-engineered retweet-prediction baseline
//! ("Random Forest (with 50 estimators)", Section VII-B).

use crate::model::{check_fit_inputs, Classifier};
use crate::tree::{DecisionTree, DecisionTreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyperparameters for [`RandomForest`].
#[derive(Debug, Clone)]
pub struct RandomForestConfig {
    /// Number of trees (paper baseline: 50).
    pub n_estimators: usize,
    /// Per-tree configuration. `max_features = None` here means
    /// `sqrt(d)` is chosen automatically at fit time.
    pub tree: DecisionTreeConfig,
    /// Bootstrap sample size as a fraction of n.
    pub subsample: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            n_estimators: 50,
            tree: DecisionTreeConfig {
                max_depth: 8,
                ..Default::default()
            },
            subsample: 1.0,
            seed: 0,
        }
    }
}

/// A random-forest classifier (average of tree probabilities).
#[derive(Debug, Clone)]
pub struct RandomForest {
    config: RandomForestConfig,
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Create an unfitted forest.
    pub fn new(config: RandomForestConfig) -> Self {
        Self {
            config,
            trees: Vec::new(),
        }
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &[Vec<f64>], y: &[u8]) {
        check_fit_inputs(x, y);
        let n = x.len();
        let d = x[0].len();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let sample_n = ((n as f64 * self.config.subsample).round() as usize).max(1);
        let max_features = self
            .config
            .tree
            .max_features
            .unwrap_or_else(|| ((d as f64).sqrt().ceil() as usize).max(1));

        // Bootstrap draws consume the forest's single RNG stream, so they
        // run serially, in tree order, exactly as before.
        let mut bootstraps = Vec::with_capacity(self.config.n_estimators);
        for _ in 0..self.config.n_estimators {
            let mut bx = Vec::with_capacity(sample_n);
            let mut by = Vec::with_capacity(sample_n);
            for _ in 0..sample_n {
                let i = rng.gen_range(0..n);
                bx.push(x[i].clone());
                by.push(y[i]);
            }
            // Degenerate bootstrap (single class) would make a useless
            // stump; force at least one of each class when possible.
            if by.iter().all(|&l| l == by[0]) {
                if let Some(j) = (0..n).find(|&j| y[j] != by[0]) {
                    bx.push(x[j].clone());
                    by.push(y[j]);
                }
            }
            bootstraps.push((bx, by));
        }
        // Tree fits are independent (each tree derives its own seeded
        // RNG from the tree index) and land in index-order slots, so the
        // fitted forest is identical for any worker count. Per-tree cost
        // varies with the bootstrap; the map's workers pull trees one at
        // a time, so an expensive tree does not hold up a fixed range.
        let workers = nn::par::resolve(0).min(self.config.n_estimators.max(1));
        self.trees = nn::par::map_indexed(self.config.n_estimators, workers, |t| {
            let (bx, by) = &bootstraps[t];
            let mut cfg = self.config.tree.clone();
            cfg.max_features = Some(max_features);
            cfg.seed = self.config.seed.wrapping_add(t as u64 * 7919 + 1);
            let mut tree = DecisionTree::new(cfg);
            tree.fit(bx, by);
            tree
        });
    }

    fn predict_proba(&self, x: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "predict before fit");
        (self.trees.iter().map(|t| t.predict_proba(x)).sum::<f64>()
            / self.trees.len().max(1) as f64)
            .clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn rings(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<u8>) {
        // Inner disk = class 1, outer ring = class 0: needs nonlinearity.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let inner = rng.gen_bool(0.5);
            let r: f64 = if inner {
                rng.gen_range(0.0..1.0)
            } else {
                rng.gen_range(2.0..3.0)
            };
            let th: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            x.push(vec![r * th.cos(), r * th.sin()]);
            y.push(u8::from(inner));
        }
        (x, y)
    }

    #[test]
    fn fits_nonlinear_boundary() {
        let (x, y) = rings(400, 0);
        let mut f = RandomForest::new(RandomForestConfig {
            n_estimators: 20,
            ..Default::default()
        });
        f.fit(&x, &y);
        let acc = crate::metrics::accuracy(&y, &f.predict_batch(&x));
        assert!(acc > 0.9, "rings acc = {acc}");
    }

    #[test]
    fn builds_requested_number_of_trees() {
        let (x, y) = rings(100, 1);
        let mut f = RandomForest::new(RandomForestConfig {
            n_estimators: 7,
            ..Default::default()
        });
        f.fit(&x, &y);
        assert_eq!(f.n_trees(), 7);
    }

    #[test]
    fn probability_is_tree_average_in_bounds() {
        let (x, y) = rings(150, 2);
        let mut f = RandomForest::new(RandomForestConfig {
            n_estimators: 11,
            ..Default::default()
        });
        f.fit(&x, &y);
        for row in x.iter().take(20) {
            let p = f.predict_proba(row);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = rings(100, 3);
        let run = || {
            let mut f = RandomForest::new(RandomForestConfig {
                n_estimators: 5,
                seed: 42,
                ..Default::default()
            });
            f.fit(&x, &y);
            f.predict_proba_batch(&x)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn forest_beats_single_shallow_tree_on_rings() {
        let (x, y) = rings(400, 4);
        let mut tree = DecisionTree::new(DecisionTreeConfig {
            max_depth: 2,
            ..Default::default()
        });
        tree.fit(&x, &y);
        let t_acc = crate::metrics::accuracy(&y, &tree.predict_batch(&x));
        let mut f = RandomForest::new(RandomForestConfig {
            n_estimators: 30,
            tree: DecisionTreeConfig {
                max_depth: 6,
                ..Default::default()
            },
            ..Default::default()
        });
        f.fit(&x, &y);
        let f_acc = crate::metrics::accuracy(&y, &f.predict_batch(&x));
        assert!(f_acc > t_acc, "forest {f_acc} <= tree {t_acc}");
    }
}
