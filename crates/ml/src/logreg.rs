//! Logistic regression trained by mini-batch SGD with L2 regularization
//! and optional balanced class weights (Table III: `LogReg`,
//! `Random state=0`).

use crate::linalg::{dot, sigmoid};
use crate::model::{check_fit_inputs, Classifier};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyperparameters for [`LogisticRegression`].
#[derive(Debug, Clone)]
pub struct LogisticRegressionConfig {
    /// Learning rate.
    pub lr: f64,
    /// Number of epochs over the training set.
    pub epochs: usize,
    /// L2 regularization strength (λ).
    pub l2: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Weight positive/negative classes inversely to frequency
    /// (scikit-learn's `class_weight='balanced'`).
    pub balanced: bool,
    /// RNG seed (shuffling).
    pub seed: u64,
}

impl Default for LogisticRegressionConfig {
    fn default() -> Self {
        Self {
            lr: 0.1,
            epochs: 60,
            l2: 1e-4,
            batch_size: 32,
            balanced: false,
            seed: 0,
        }
    }
}

/// A (fitted) logistic-regression classifier.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    config: LogisticRegressionConfig,
    weights: Vec<f64>,
    bias: f64,
}

impl LogisticRegression {
    /// Create an unfitted model.
    pub fn new(config: LogisticRegressionConfig) -> Self {
        Self {
            config,
            weights: Vec::new(),
            bias: 0.0,
        }
    }

    /// Fitted weights (empty before `fit`).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted intercept.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Raw decision margin `w·x + b`.
    pub fn decision(&self, x: &[f64]) -> f64 {
        dot(&self.weights, x) + self.bias
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, x: &[Vec<f64>], y: &[u8]) {
        check_fit_inputs(x, y);
        let n = x.len();
        let d = x[0].len();
        self.weights = vec![0.0; d];
        self.bias = 0.0;

        let n_pos = y.iter().filter(|&&l| l == 1).count().max(1);
        let n_neg = (n - y.iter().filter(|&&l| l == 1).count()).max(1);
        let (w_pos, w_neg) = if self.config.balanced {
            (
                n as f64 / (2.0 * n_pos as f64),
                n as f64 / (2.0 * n_neg as f64),
            )
        } else {
            (1.0, 1.0)
        };

        // The margin and the gradient walk each row's stored (nonzero)
        // entries only. A skipped entry would add `w·(±0.0)` to the
        // margin, which can move only the sign of a zero margin, and
        // `sigmoid(±0.0)` is 0.5 either way; and `err·(±0.0)` to a gradient
        // entry, which starts each batch at `+0.0` and so never holds
        // `−0.0`, so the add changes nothing. The bits equal the dense
        // loop's while the weights are finite (DESIGN.md §17).
        let rows = StoredEntries::new(x);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut order: Vec<usize> = (0..n).collect();
        let bs = self.config.batch_size.max(1);
        let mut gw = vec![0.0; d];

        for _epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(bs) {
                gw.iter_mut().for_each(|g| *g = 0.0);
                let mut gb = 0.0;
                for &i in chunk {
                    let margin: f64 = rows.row(i).map(|(j, xv)| self.weights[j] * xv).sum();
                    let p = sigmoid(margin + self.bias);
                    let cw = if y[i] == 1 { w_pos } else { w_neg };
                    let err = cw * (y[i] as f64 - p);
                    for (j, xv) in rows.row(i) {
                        gw[j] += err * xv;
                    }
                    gb += err;
                }
                let scale = self.config.lr / chunk.len() as f64;
                for (w, &g) in self.weights.iter_mut().zip(&gw) {
                    *w += scale * g - self.config.lr * self.config.l2 * *w;
                }
                self.bias += scale * gb;
            }
        }
    }

    fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(self.decision(x))
    }
}

/// The stored (nonzero) entries of every row, flat and sized exactly:
/// row `i`'s columns are `cols[starts[i]..starts[i + 1]]`, and its values
/// the same span of `values`.
struct StoredEntries {
    starts: Vec<usize>,
    cols: Vec<u32>,
    values: Vec<f64>,
}

impl StoredEntries {
    fn new(x: &[Vec<f64>]) -> Self {
        // lint: allow(float-cmp) only exact zeros (either sign) are skipped
        let stored = |v: &f64| *v != 0.0;
        let nnz = x.iter().flatten().filter(|v| stored(v)).count();
        let mut starts = Vec::with_capacity(x.len() + 1);
        let mut cols = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        starts.push(0);
        for row in x {
            for (j, v) in (0u32..).zip(row).filter(|(_, v)| stored(v)) {
                cols.push(j);
                values.push(*v);
            }
            starts.push(cols.len());
        }
        Self {
            starts,
            cols,
            values,
        }
    }

    /// Row `i`'s `(column, value)` entries, in column order.
    fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.starts[i]..self.starts[i + 1];
        let cols = self.cols[span.clone()].iter().map(|&j| j as usize);
        cols.zip(self.values[span].iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Linearly separable blobs.
    fn blobs(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let label: u8 = rng.gen_range(0..2);
            let cx = if label == 1 { 2.0 } else { -2.0 };
            x.push(vec![
                cx + rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ]);
            y.push(label);
        }
        (x, y)
    }

    #[test]
    fn learns_separable_data() {
        let (x, y) = blobs(300, 0);
        let mut m = LogisticRegression::new(LogisticRegressionConfig::default());
        m.fit(&x, &y);
        let preds = m.predict_batch(&x);
        let acc = crate::metrics::accuracy(&y, &preds);
        assert!(acc > 0.95, "train acc {acc}");
    }

    #[test]
    fn probabilities_ordered_by_margin() {
        let (x, y) = blobs(200, 1);
        let mut m = LogisticRegression::new(LogisticRegressionConfig::default());
        m.fit(&x, &y);
        let p_far_pos = m.predict_proba(&[5.0, 0.0]);
        let p_far_neg = m.predict_proba(&[-5.0, 0.0]);
        assert!(p_far_pos > 0.9);
        assert!(p_far_neg < 0.1);
    }

    #[test]
    fn balanced_weights_boost_minority_recall() {
        // 95:5 imbalance with overlap; balanced weights should catch more
        // positives than unbalanced.
        let mut rng = StdRng::seed_from_u64(3);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..400 {
            let label = u8::from(i % 20 == 0);
            let cx = if label == 1 { 0.8 } else { -0.2 };
            x.push(vec![cx + rng.gen_range(-1.0..1.0)]);
            y.push(label);
        }
        let mut plain = LogisticRegression::new(LogisticRegressionConfig::default());
        plain.fit(&x, &y);
        let mut bal = LogisticRegression::new(LogisticRegressionConfig {
            balanced: true,
            ..Default::default()
        });
        bal.fit(&x, &y);
        let recall = |m: &LogisticRegression| {
            let preds = m.predict_batch(&x);
            let c = crate::metrics::Confusion::from_predictions(&y, &preds);
            c.recall()
        };
        assert!(recall(&bal) >= recall(&plain));
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = blobs(100, 5);
        let mut a = LogisticRegression::new(LogisticRegressionConfig::default());
        let mut b = LogisticRegression::new(LogisticRegressionConfig::default());
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.weights(), b.weights());
    }

    /// The fit as it was: every row dense, for the margin and the
    /// gradient. Returns the weights and the bias.
    fn dense_oracle(
        config: &LogisticRegressionConfig,
        x: &[Vec<f64>],
        y: &[u8],
    ) -> (Vec<f64>, f64) {
        let n = x.len();
        let d = x[0].len();
        let mut weights = vec![0.0; d];
        let mut bias = 0.0;
        let n_pos = y.iter().filter(|&&l| l == 1).count().max(1);
        let n_neg = (n - y.iter().filter(|&&l| l == 1).count()).max(1);
        let (w_pos, w_neg) = if config.balanced {
            (
                n as f64 / (2.0 * n_pos as f64),
                n as f64 / (2.0 * n_neg as f64),
            )
        } else {
            (1.0, 1.0)
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..n).collect();
        let bs = config.batch_size.max(1);
        let mut gw = vec![0.0; d];
        for _epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(bs) {
                gw.iter_mut().for_each(|g| *g = 0.0);
                let mut gb = 0.0;
                for &i in chunk {
                    let p = sigmoid(dot(&weights, &x[i]) + bias);
                    let cw = if y[i] == 1 { w_pos } else { w_neg };
                    let err = cw * (y[i] as f64 - p);
                    for (g, &xv) in gw.iter_mut().zip(&x[i]) {
                        *g += err * xv;
                    }
                    gb += err;
                }
                let scale = config.lr / chunk.len() as f64;
                for (w, &g) in weights.iter_mut().zip(&gw) {
                    *w += scale * g - config.lr * config.l2 * *w;
                }
                bias += scale * gb;
            }
        }
        (weights, bias)
    }

    fn assert_fit_matches_the_oracle(config: LogisticRegressionConfig, x: &[Vec<f64>], y: &[u8]) {
        let (want_w, want_b) = dense_oracle(&config, x, y);
        let mut m = LogisticRegression::new(config.clone());
        m.fit(x, y);
        let bits = |v: &[f64]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(m.weights()), bits(&want_w), "{config:?}");
        assert_eq!(m.bias().to_bits(), want_b.to_bits(), "{config:?}");
    }

    /// Seeded rows with about `density` of their entries stored, a mix
    /// of signs; labels follow the first few columns, with noise.
    fn sparse_rows(n: usize, d: usize, density: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| {
                        if rng.gen_bool(density) {
                            rng.gen_range(-2.0..3.0)
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let y = x
            .iter()
            .map(|r| u8::from(r[..4].iter().sum::<f64>() + rng.gen_range(-1.0..1.0) > 0.5))
            .collect();
        (x, y)
    }

    #[test]
    fn stored_entry_fit_matches_the_dense_oracle() {
        // An all-zero row and one stored only as `-0.0`; rows whose only
        // stored entries are negative, so the first margins are sums of
        // `+0.0 × negative = -0.0`; 7 rows in batches of 3.
        let x = vec![
            vec![0.0, 0.0, 0.0],
            vec![-0.0, 0.0, -0.0],
            vec![-1.0, 0.0, 0.0],
            vec![0.0, -2.5, -0.5],
            vec![1.0, 0.0, 2.0],
            vec![0.0, 0.0, -3.0],
            vec![0.5, 1.5, 0.0],
        ];
        let y = [0, 1, 0, 1, 1, 0, 1];
        // Four rows, one epoch, one batch: every margin is a signed zero.
        let (x_neg, y_neg) = (x[..4].to_vec(), [0, 1, 1, 0]);
        for balanced in [false, true] {
            for batch_size in [1, 3, 7, 32] {
                let config = LogisticRegressionConfig {
                    balanced,
                    batch_size,
                    epochs: 5,
                    ..Default::default()
                };
                assert_fit_matches_the_oracle(config.clone(), &x, &y);
                let one_pass = LogisticRegressionConfig {
                    epochs: 1,
                    ..config
                };
                assert_fit_matches_the_oracle(one_pass, &x_neg, &y_neg);
            }
        }
        // Table IV's matrix shape (960 × 850, 19.4% stored) and a
        // detector's (510 wide, 1.5% stored), 203 rows in batches of 32.
        for (n, d, density) in [(960, 850, 0.194), (203, 510, 0.015)] {
            let (x, y) = sparse_rows(n, d, density, 34);
            for balanced in [false, true] {
                let config = LogisticRegressionConfig {
                    balanced,
                    epochs: 3,
                    ..Default::default()
                };
                assert_fit_matches_the_oracle(config, &x, &y);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_fit_panics() {
        let mut m = LogisticRegression::new(LogisticRegressionConfig::default());
        m.fit(&[], &[]);
    }
}
