//! TopoLSTM-style recurrent cascade ranker (Wang et al., ICDM 2017).
//!
//! The original converts cascades into dynamic DAGs and scores the next
//! participant with a sender–receiver LSTM over user embeddings,
//! considering previously seen nodes as candidates. This reimplementation
//! keeps the essential mechanism at the scale of our corpus:
//!
//! * learned input embeddings of cascade participants,
//! * an LSTM over the (time-ordered) cascade prefix,
//! * next-user scoring `h_t · e_out(candidate)` trained with sampled
//!   softmax against non-retweeting followers,
//!
//! and omits the DAG re-wiring (our cascades carry explicit parent links
//! already matching the diffusion tree). As in the paper's evaluation, it
//! is used as a *ranker* (MAP@k / HITS@k) over candidate retweeters.

use crate::neural_common::{dot, sample_negatives, sigmoid, softmax_ce_target0};
use crate::task::CascadeSample;
use nn::{Embedding, Lstm, Matrix, Optimizer, Sgd};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyperparameters for [`TopoLstm`].
#[derive(Debug, Clone)]
pub struct TopoLstmConfig {
    /// Embedding dimensionality.
    pub emb_dim: usize,
    /// LSTM hidden size.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate (SGD).
    pub lr: f64,
    /// Negatives per positive step.
    pub negatives: usize,
    /// Maximum cascade prefix length used in training.
    pub max_seq: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TopoLstmConfig {
    fn default() -> Self {
        Self {
            emb_dim: 32,
            hidden: 32,
            epochs: 4,
            lr: 0.05,
            negatives: 5,
            max_seq: 12,
            seed: 0,
        }
    }
}

/// The TopoLSTM-style ranker.
pub struct TopoLstm {
    config: TopoLstmConfig,
    emb_in: Embedding,
    emb_out: Embedding,
    lstm: Lstm,
}

impl TopoLstm {
    /// Create for a user universe of `n_users`.
    pub fn new(n_users: usize, config: TopoLstmConfig) -> Self {
        let emb_in = Embedding::new(n_users, config.emb_dim, config.seed);
        let emb_out = Embedding::new(n_users, config.hidden, config.seed ^ 0xBEEF);
        let lstm = Lstm::new(config.emb_dim, config.hidden, config.seed ^ 0xCAFE);
        Self {
            config,
            emb_in,
            emb_out,
            lstm,
        }
    }

    /// Train on cascade samples (sequence = root followed by retweeters in
    /// time order; negatives from the sample's non-retweeting candidates).
    pub fn train(&mut self, samples: &[CascadeSample]) {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x7777);
        let mut opt = Sgd::new(self.config.lr);
        for _epoch in 0..self.config.epochs {
            for sample in samples {
                self.train_one(sample, &mut rng, &mut opt);
            }
        }
    }

    fn sequence(&self, sample: &CascadeSample) -> Vec<usize> {
        let mut seq = Vec::with_capacity(self.config.max_seq + 1);
        seq.push(sample.root_user);
        seq.extend(
            sample
                .retweeters_in_order
                .iter()
                .take(self.config.max_seq)
                .map(|&u| u as usize),
        );
        seq
    }

    fn train_one(&mut self, sample: &CascadeSample, rng: &mut StdRng, opt: &mut Sgd) {
        let seq = self.sequence(sample);
        if seq.len() < 2 {
            return;
        }
        let negatives_pool: Vec<u32> = sample
            .candidates
            .iter()
            .zip(&sample.labels)
            .filter(|(_, &l)| l == 0)
            .map(|(&c, _)| c)
            .collect();

        // Forward the input prefix through the LSTM.
        let inputs = &seq[..seq.len().saturating_sub(1)];
        let x = self.emb_in.forward(inputs);
        let xs: Vec<Matrix> = (0..x.rows())
            .map(|r| Matrix::from_rows(&[x.row(r).to_vec()]))
            .collect();
        let hs = self.lstm.forward(&xs);

        // Per-step scoring loss and hidden-state gradients.
        let mut grad_hs: Vec<Matrix> = (0..hs.len())
            .map(|_| Matrix::zeros(1, self.config.hidden))
            .collect();
        for t in 0..hs.len() {
            let target = seq[t + 1];
            // lint: allow(lossy-cast) user ids are bounded by n_users, far below u32::MAX
            let negs = sample_negatives(&negatives_pool, target as u32, self.config.negatives, rng);
            let mut ids = vec![target];
            ids.extend(negs.iter().map(|&c| c as usize));
            let h = hs[t].row(0);
            let logits: Vec<f64> = ids
                .iter()
                .map(|&c| dot(h, self.emb_out.vector(c)))
                .collect();
            let (_, dlogits) = softmax_ce_target0(&logits);
            // Accumulate grads into emb_out and the hidden state.
            let e_grads = self.emb_out.forward(&ids); // caches ids for scatter
            let mut d_e = Matrix::zeros(ids.len(), self.config.hidden);
            {
                let gh = grad_hs[t].row_mut(0);
                for (j, &dz) in dlogits.iter().enumerate() {
                    let ev = e_grads.row(j);
                    for (g, &e) in gh.iter_mut().zip(ev) {
                        *g += dz * e;
                    }
                    let der = d_e.row_mut(j);
                    for (d, &hv) in der.iter_mut().zip(h) {
                        *d = dz * hv;
                    }
                }
            }
            self.emb_out.backward(&d_e);
        }

        // BPTT and embedding scatter.
        let dxs = self.lstm.backward(&grad_hs);
        let mut dx = Matrix::zeros(inputs.len(), self.config.emb_dim);
        for (t, d) in dxs.iter().enumerate() {
            dx.row_mut(t).copy_from_slice(d.row(0));
        }
        self.emb_in.backward(&dx);

        let mut params = self.lstm.params_mut();
        params.extend(self.emb_in.params_mut());
        // emb_out params borrowed separately to satisfy the borrow checker
        // is not possible in one vec; step twice instead.
        opt.step(&mut params);
        opt.step(&mut self.emb_out.params_mut());
    }

    /// Score each candidate of a sample given the root (static setting:
    /// only the root is observed).
    pub fn predict_proba(&mut self, sample: &CascadeSample) -> Vec<f64> {
        let x = self.emb_in.forward_inference(&[sample.root_user]);
        let xs = vec![x];
        // forward through a cloned LSTM to avoid mutating caches? The
        // LSTM's forward caches but that is harmless for scoring.
        let hs = self.lstm.forward(&xs);
        let h = hs[0].row(0).to_vec();
        sample
            .candidates
            .iter()
            .map(|&c| sigmoid(dot(&h, self.emb_out.vector(c as usize))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{split_samples, RetweetTask};
    use ml::metrics::{map_at_k, rank_by_score};
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
    fn training_improves_ranking_over_untrained() {
        let all = samples();
        let (train, test) = split_samples(all, 0.8, 0);
        let eval = |model: &mut TopoLstm| {
            let lists: Vec<Vec<bool>> = test
                .iter()
                .map(|s| rank_by_score(&model.predict_proba(s), &s.labels))
                .collect();
            map_at_k(&lists, 20)
        };
        let mut untrained = TopoLstm::new(300, TopoLstmConfig::default());
        let before = eval(&mut untrained);
        let mut trained = TopoLstm::new(300, TopoLstmConfig::default());
        trained.train(&train);
        let after = eval(&mut trained);
        assert!(
            after > before,
            "training should improve MAP@20: {before} -> {after}"
        );
    }

    #[test]
    fn scores_are_probability_like() {
        let all = samples();
        let mut m = TopoLstm::new(300, TopoLstmConfig::default());
        m.train(&all[..20.min(all.len())]);
        let p = m.predict_proba(&all[0]);
        assert_eq!(p.len(), all[0].candidates.len());
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn short_cascades_do_not_panic() {
        let all = samples();
        let mut m = TopoLstm::new(300, TopoLstmConfig::default());
        // Train on a sample with a single retweeter (sequence length 2).
        if let Some(s) = all.iter().find(|s| s.retweeters_in_order.len() == 1) {
            m.train(std::slice::from_ref(s));
        }
    }
}
