//! HIDAN-style ranker (Wang & Li, IJCAI 2019).
//!
//! HIDAN uses **no global graph**: "Any information loss due to the
//! absence of a global graph is substituted by temporal information
//! utilized in the form of ordered time difference of node infection",
//! and "like TopoLSTM, it too uses the set of all seen nodes in the
//! cascade as candidate nodes for prediction."
//!
//! This reimplementation keeps both properties: a time-decay attention
//! over the embeddings of already-infected nodes forms the cascade
//! context, and the model is trained to discriminate the next infected
//! user *only against users it has already seen in training cascades*.
//! Consequently — exactly as in Table VI, where HIDAN scores MAP@20 ≈
//! 0.05 — it transfers poorly to ranking a root's followers, most of whom
//! it has never seen.

use crate::neural_common::{dot, sample_negatives, sigmoid, softmax_ce_target0};
use crate::task::CascadeSample;
use nn::{Embedding, Matrix, Optimizer, Sgd};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyperparameters for [`Hidan`].
#[derive(Debug, Clone)]
pub struct HidanConfig {
    /// Embedding dimensionality.
    pub emb_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Negatives per step (drawn from *seen* users only).
    pub negatives: usize,
    /// Maximum prefix length.
    pub max_seq: usize,
    /// Attention time-decay rate (per hour).
    pub time_decay: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HidanConfig {
    fn default() -> Self {
        Self {
            emb_dim: 32,
            epochs: 4,
            lr: 0.05,
            negatives: 5,
            max_seq: 12,
            time_decay: 0.05,
            seed: 0,
        }
    }
}

/// The HIDAN-style ranker.
pub struct Hidan {
    config: HidanConfig,
    emb: Embedding,
    emb_out: Embedding,
    /// Users observed in any training cascade (HIDAN's candidate world).
    seen: Vec<bool>,
}

impl Hidan {
    /// Create for a user universe of `n_users`.
    pub fn new(n_users: usize, config: HidanConfig) -> Self {
        Self {
            emb: Embedding::new(n_users, config.emb_dim, config.seed),
            emb_out: Embedding::new(n_users, config.emb_dim, config.seed ^ 0xABCD),
            seen: vec![false; n_users],
            config,
        }
    }

    /// Time-decay attention context over a prefix of (user, time) pairs
    /// evaluated at time `now`.
    fn context(&self, prefix: &[(usize, f64)], now: f64) -> Vec<f64> {
        let weights: Vec<f64> = prefix
            .iter()
            .map(|&(_, t)| (-self.config.time_decay * (now - t).max(0.0)).exp())
            .collect();
        let total: f64 = weights.iter().sum();
        let mut ctx = vec![0.0; self.config.emb_dim];
        for (&(u, _), &w) in prefix.iter().zip(&weights) {
            for (c, &e) in ctx.iter_mut().zip(self.emb.vector(u)) {
                *c += w * e;
            }
        }
        if total > 0.0 {
            for c in &mut ctx {
                *c /= total;
            }
        }
        ctx
    }

    /// Train on cascade samples.
    pub fn train(&mut self, samples: &[CascadeSample]) {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x5150);
        let mut opt = Sgd::new(self.config.lr);
        // Record the seen-user world first (the model's candidate set).
        for s in samples {
            self.seen[s.root_user] = true;
            for &u in &s.retweeters_in_order {
                self.seen[u as usize] = true;
            }
        }
        // lint: allow(lossy-cast) user ids are bounded by n_users, far below u32::MAX
        let seen_pool: Vec<u32> = (0..self.seen.len() as u32)
            .filter(|&u| self.seen[u as usize])
            .collect();

        for _epoch in 0..self.config.epochs {
            for sample in samples {
                self.train_one(sample, &seen_pool, &mut rng, &mut opt);
            }
        }
    }

    fn train_one(
        &mut self,
        sample: &CascadeSample,
        seen_pool: &[u32],
        rng: &mut StdRng,
        opt: &mut Sgd,
    ) {
        // Prefix of (user, infection time).
        let mut prefix: Vec<(usize, f64)> = vec![(sample.root_user, sample.t0)];
        let times: std::collections::HashMap<u32, f64> = sample
            .candidates
            .iter()
            .zip(&sample.retweet_times)
            .filter(|(_, &t)| t.is_finite())
            .map(|(&c, &t)| (c, t))
            .collect();
        let steps: Vec<(usize, f64)> = sample
            .retweeters_in_order
            .iter()
            .take(self.config.max_seq)
            .map(|&u| (u as usize, times.get(&u).copied().unwrap_or(sample.t0)))
            .collect();

        for &(target, t_target) in &steps {
            let ctx = self.context(&prefix, t_target);
            // Negatives from the seen world only (HIDAN's restriction).
            // lint: allow(lossy-cast) user ids are bounded by n_users, far below u32::MAX
            let negs = sample_negatives(seen_pool, target as u32, self.config.negatives, rng);
            let mut ids = vec![target];
            ids.extend(negs.iter().map(|&c| c as usize));
            let logits: Vec<f64> = ids
                .iter()
                .map(|&c| dot(&ctx, self.emb_out.vector(c)))
                .collect();
            let (_, dlogits) = softmax_ce_target0(&logits);

            // Gradients: emb_out rows and (via attention weights) emb rows.
            let e_vals = self.emb_out.forward(&ids);
            let mut d_e = Matrix::zeros(ids.len(), self.config.emb_dim);
            let mut d_ctx = vec![0.0; self.config.emb_dim];
            for (j, &dz) in dlogits.iter().enumerate() {
                let ev = e_vals.row(j);
                let der = d_e.row_mut(j);
                for k in 0..self.config.emb_dim {
                    der[k] = dz * ctx[k];
                    d_ctx[k] += dz * ev[k];
                }
            }
            self.emb_out.backward(&d_e);

            // Context backward: uniform over attention weights.
            let weights: Vec<f64> = prefix
                .iter()
                .map(|&(_, t)| (-self.config.time_decay * (t_target - t).max(0.0)).exp())
                .collect();
            let total: f64 = weights.iter().sum();
            if total > 0.0 {
                let ids_prefix: Vec<usize> = prefix.iter().map(|&(u, _)| u).collect();
                let _ = self.emb.forward(&ids_prefix);
                let d_rows = Matrix::from_fn(prefix.len(), self.config.emb_dim, |r, c| {
                    d_ctx[c] * weights[r] / total
                });
                self.emb.backward(&d_rows);
            }

            opt.step(&mut self.emb.params_mut());
            opt.step(&mut self.emb_out.params_mut());
            prefix.push((target, t_target));
        }
    }

    /// Score candidates from the root alone (static setting). Unseen
    /// candidates receive a minimal score — the honest behaviour of a
    /// seen-world ranker.
    pub fn predict_proba(&self, sample: &CascadeSample) -> Vec<f64> {
        let prefix = [(sample.root_user, sample.t0)];
        let ctx = self.context(&prefix, sample.t0);
        sample
            .candidates
            .iter()
            .map(|&c| {
                if self.seen[c as usize] {
                    sigmoid(dot(&ctx, self.emb_out.vector(c as usize)))
                } else {
                    0.0
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::RetweetTask;
    use socialsim::{Dataset, SimConfig};

    fn samples() -> Vec<CascadeSample> {
        let d = Dataset::generate(SimConfig {
            tweet_scale: 0.06,
            n_users: 300,
            ..SimConfig::tiny()
        });
        RetweetTask {
            max_candidates: 40,
            ..Default::default()
        }
        .build(&d)
    }

    #[test]
    fn unseen_candidates_score_zero() {
        let all = samples();
        let mut m = Hidan::new(300, HidanConfig::default());
        m.train(&all[..5.min(all.len())]);
        let s = all.last().unwrap();
        let p = m.predict_proba(s);
        for (i, &c) in s.candidates.iter().enumerate() {
            if !m.seen[c as usize] {
                assert_eq!(p[i], 0.0);
            }
        }
    }

    #[test]
    fn training_does_not_panic_and_scores_bounded() {
        let all = samples();
        let mut m = Hidan::new(300, HidanConfig::default());
        m.train(&all);
        for s in all.iter().take(5) {
            for p in m.predict_proba(s) {
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn context_decays_with_time() {
        let m = Hidan::new(10, HidanConfig::default());
        // Two users at different times: the later one should dominate the
        // context at `now`.
        let prefix = [(0usize, 0.0), (1usize, 100.0)];
        let ctx = m.context(&prefix, 100.0);
        let e1 = m.emb.vector(1);
        // Cosine-ish check: ctx closer to e1 than to e0.
        let sim = |a: &[f64], b: &[f64]| {
            let d: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
            let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
            d / (na * nb)
        };
        assert!(sim(&ctx, e1) > sim(&ctx, m.emb.vector(0)));
    }
}
