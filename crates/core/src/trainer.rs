//! Class-weighted training loop for RETINA (Section VI-D).
//!
//! * mini-batch training with Adam (static; default parameters) or SGD at
//!   lr 10⁻² (dynamic),
//! * positive-class weight `w = λ(log C − log C⁺)` with λ = 2.0 (static)
//!   or 2.5 (dynamic),
//! * gradient accumulation over `batch_tweets` root tweets per step
//!   (the batched analogue of the paper's batch sizes 16/32).

use crate::retina::{PackedSample, Retina, RetinaMode};
use nn::{Adam, Optimizer, Sgd, WeightedBce};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Optimizer choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    /// Adam with default parameters (paper: static mode).
    Adam,
    /// SGD at the given rate (paper: dynamic mode, lr = 1e-2).
    Sgd,
}

/// Training configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    pub epochs: usize,
    pub optimizer: OptimizerKind,
    pub lr: f64,
    /// λ of the class-weight formula (paper: 2.0 static, 2.5 dynamic).
    pub lambda: f64,
    /// Root tweets per optimizer step.
    pub batch_tweets: usize,
    pub seed: u64,
}

impl TrainConfig {
    /// Paper-default static training (Adam, batch 16, λ = 2.0).
    pub fn static_default() -> Self {
        Self {
            epochs: 6,
            optimizer: OptimizerKind::Adam,
            lr: 1e-3,
            lambda: 2.0,
            batch_tweets: 16,
            seed: 0,
        }
    }

    /// Dynamic-mode training: λ = 2.5 and batch 32 per the paper. The
    /// paper trained RETINA-D with SGD at 1e-2; in this implementation
    /// plain SGD only learns the per-interval base rates within any
    /// reasonable budget, so the default optimizer is Adam at 3e-3
    /// (documented deviation — see EXPERIMENTS.md). `OptimizerKind::Sgd`
    /// remains available to reproduce the paper's configuration.
    pub fn dynamic_default() -> Self {
        Self {
            epochs: 6,
            optimizer: OptimizerKind::Adam,
            lr: 3e-3,
            lambda: 2.5,
            batch_tweets: 32,
            seed: 0,
        }
    }
}

/// The positive-sample weight of Eq. 6 computed over the training packs.
pub fn class_weight(samples: &[PackedSample], mode: RetinaMode, lambda: f64) -> WeightedBce {
    let (total, pos) = match mode {
        RetinaMode::Static => {
            let total: usize = samples.iter().map(|s| s.labels.len()).sum();
            let pos: usize = samples
                .iter()
                .map(|s| s.labels.iter().filter(|&&l| l == 1).count())
                .sum();
            (total, pos)
        }
        RetinaMode::Dynamic => {
            let total: usize = samples
                .iter()
                .map(|s| s.interval_labels.len() * s.interval_labels.first().map_or(0, |r| r.len()))
                .sum();
            let pos: usize = samples
                .iter()
                .flat_map(|s| s.interval_labels.iter())
                .map(|r| r.iter().filter(|&&l| l == 1).count())
                .sum();
            (total, pos)
        }
    };
    WeightedBce::from_counts(total, pos, lambda)
}

/// Train a RETINA model in place; returns the mean training loss per
/// epoch (useful for convergence checks).
pub fn train_retina(model: &mut Retina, train: &[PackedSample], config: &TrainConfig) -> Vec<f64> {
    // Publish the model's thread knob to the nn kernels. Thread count
    // never changes results (see nn::par), only wall-clock time.
    nn::par::set_threads(nn::par::resolve(model.config.threads));
    model.fit_scaler(train);
    let bce = class_weight(train, model.config.mode, config.lambda);
    let mut adam = Adam::new(config.lr);
    let mut sgd = Sgd::new(config.lr);
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Shuffling depends only on the length, so shuffling references
    // visits the samples in the order shuffled indices would.
    let mut order: Vec<&PackedSample> = train.iter().collect();
    let mut epoch_losses = Vec::with_capacity(config.epochs);

    for _epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut total_loss = 0.0;
        for chunk in order.chunks(config.batch_tweets.max(1)) {
            for &s in chunk {
                if s.user_rows.is_empty() {
                    continue;
                }
                let (loss, grad) = model.loss_and_grad(s, &bce);
                total_loss += loss;
                // Scale per-sample gradient by batch size for a stable
                // effective learning rate.
                let grad = grad.scaled(1.0 / chunk.len().max(1) as f64);
                model.backward(s, &grad);
            }
            match config.optimizer {
                OptimizerKind::Adam => adam.step(&mut model.params_mut()),
                OptimizerKind::Sgd => sgd.step(&mut model.params_mut()),
            }
        }
        epoch_losses.push(total_loss / train.len().max(1) as f64);
    }
    epoch_losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retina::{default_intervals, RetinaConfig};
    use nn::SparseRow;

    fn toy_data(n_samples: usize, seed: u64) -> Vec<PackedSample> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_samples)
            .map(|_| {
                let n = 10;
                let labels: Vec<u8> = (0..n).map(|i| u8::from(i % 5 == 0)).collect();
                // Make the task learnable: feature 0 encodes the label.
                let user_rows: Vec<SparseRow> = labels
                    .iter()
                    .map(|&l| {
                        let mut row: Vec<f64> = (0..12).map(|_| rng.gen_range(-0.5..0.5)).collect();
                        row[0] = l as f64 * 2.0 - 1.0;
                        SparseRow::from_dense(&row)
                    })
                    .collect();
                let intervals = default_intervals();
                let retweet_times: Vec<f64> = labels
                    .iter()
                    .map(|&l| if l == 1 { 2.0 } else { f64::INFINITY })
                    .collect();
                let interval_labels = retweet_times
                    .iter()
                    .map(|&t| {
                        let mut row = vec![0u8; intervals.len()];
                        if t.is_finite() {
                            row[1] = 1; // (1,4]
                        }
                        row
                    })
                    .collect();
                PackedSample {
                    user_rows,
                    labels,
                    interval_labels,
                    tweet_d2v: (0..50).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    news_d2v: (0..4)
                        .map(|_| (0..50).map(|_| rng.gen_range(-1.0..1.0)).collect())
                        .collect(),
                    hateful: false,
                    t0: 0.0,
                    retweet_times,
                }
            })
            .collect()
    }

    #[test]
    fn static_training_reduces_loss() {
        let data = toy_data(30, 0);
        let mut m = Retina::new(12, RetinaConfig::static_default());
        let cfg = TrainConfig {
            epochs: 8,
            ..TrainConfig::static_default()
        };
        let losses = train_retina(&mut m, &data, &cfg);
        assert!(
            losses.last().unwrap() < &losses[0],
            "loss should fall: {losses:?}"
        );
    }

    #[test]
    fn static_training_learns_separable_signal() {
        let data = toy_data(40, 1);
        let mut m = Retina::new(12, RetinaConfig::static_default());
        train_retina(
            &mut m,
            &data,
            &TrainConfig {
                epochs: 15,
                ..TrainConfig::static_default()
            },
        );
        // AUC over the first sample should be high.
        let p = m.predict_proba(&data[0]);
        let auc = ml::metrics::roc_auc(&data[0].labels, &p);
        assert!(auc > 0.9, "AUC {auc} after training on separable data");
    }

    #[test]
    fn f32_predict_path_tracks_f64_model() {
        for cfg in [
            RetinaConfig::static_default(),
            RetinaConfig::dynamic_default(),
        ] {
            let data = toy_data(20, 6);
            let mut m = Retina::new(12, cfg);
            // A couple of epochs is enough: parity holds for any trained
            // weights, and the full default schedule is slow un-optimized.
            let tc = TrainConfig {
                epochs: 2,
                ..TrainConfig::static_default()
            };
            train_retina(&mut m, &data, &tc);
            let mut replica = m.to_f32_inference();
            for s in &data {
                let want = m.predict_proba(s);
                for (w, p) in want.iter().zip(replica.predict_proba(s)) {
                    assert!((w - p).abs() < 1e-3, "f32 tier drifted: {w} vs {p}");
                }
            }
        }
    }

    #[test]
    fn dynamic_training_reduces_loss() {
        let data = toy_data(25, 2);
        let mut m = Retina::new(12, RetinaConfig::dynamic_default());
        let losses = train_retina(
            &mut m,
            &data,
            &TrainConfig {
                epochs: 8,
                ..TrainConfig::dynamic_default()
            },
        );
        assert!(losses.last().unwrap() < &losses[0], "{losses:?}");
    }

    #[test]
    fn class_weight_formula() {
        let data = toy_data(5, 3);
        let bce = class_weight(&data, RetinaMode::Static, 2.0);
        // 2 positives in 10 per sample -> w = 2 (ln 50 - ln 10) = 2 ln 5.
        assert!((bce.pos_weight - 2.0 * 5.0f64.ln()).abs() < 1e-9);
    }
}
