//! Doc2Vec (PV-DBOW) with negative sampling, from scratch.
//!
//! The paper computes "Doc2Vec representations of the tweets, along with
//! the hashtags present in them as individual tokens" (Section IV-B) and
//! 50-dimensional Doc2Vec vectors of tweets and news headlines as inputs to
//! RETINA's exogenous attention (Section VI-D). The original used gensim;
//! no equivalent Rust crate is available offline, so this module implements
//! the PV-DBOW variant of Le & Mikolov (2014):
//!
//! For each document `d` with paragraph vector `p_d` and each word `w` in
//! it, maximize `log σ(p_d · o_w) + Σ_neg log σ(-p_d · o_n)` where `o_*`
//! are output word vectors and negatives are drawn from the unigram^0.75
//! distribution. Gradients are exact; training is plain SGD with a linearly
//! decaying learning rate, matching gensim's default schedule.

use crate::vocab::Vocabulary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Training configuration for [`Doc2Vec`].
#[derive(Debug, Clone)]
pub struct Doc2VecConfig {
    /// Embedding dimensionality (the paper uses 50).
    pub dim: usize,
    /// Number of passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate (decays linearly to `min_alpha`).
    pub alpha: f64,
    /// Final learning rate.
    pub min_alpha: f64,
    /// Negative samples per positive pair.
    pub negative: usize,
    /// Ignore tokens rarer than this.
    pub min_count: u64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for Doc2VecConfig {
    fn default() -> Self {
        Self {
            dim: 50,
            epochs: 10,
            alpha: 0.05,
            min_alpha: 0.001,
            negative: 5,
            min_count: 1,
            seed: 42,
        }
    }
}

/// A trained PV-DBOW model holding document and word vectors.
#[derive(Debug, Clone)]
pub struct Doc2Vec {
    config: Doc2VecConfig,
    vocab: Vocabulary,
    /// `n_docs x dim` paragraph vectors.
    doc_vecs: Vec<Vec<f64>>,
    /// `|V| x dim` output word vectors.
    word_out: Vec<Vec<f64>>,
    /// Cumulative unigram^0.75 table for negative sampling.
    neg_table: Vec<usize>,
}

const NEG_TABLE_SIZE: usize = 1 << 16;

impl Doc2Vec {
    /// Train PV-DBOW on pre-tokenized documents.
    pub fn train(docs: &[Vec<String>], config: Doc2VecConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let full = {
            let mut v = Vocabulary::new();
            for d in docs {
                for t in d {
                    v.add(t);
                }
            }
            v
        };
        let (vocab, _remap) = full.pruned(config.min_count);

        // Documents as id sequences — a pure per-document lookup, mapped
        // in parallel into index-assigned slots (order-preserving for any
        // thread count).
        let workers = nn::par::resolve(0).min(docs.len().max(1));
        let id_docs: Vec<Vec<usize>> = nn::par::map_indexed(docs.len(), workers, |i| {
            docs[i].iter().filter_map(|t| vocab.get(t)).collect()
        });

        let neg_table = Self::build_neg_table(&vocab);

        let init = |rng: &mut StdRng, n: usize, dim: usize, scale: f64| -> Vec<Vec<f64>> {
            (0..n)
                .map(|_| (0..dim).map(|_| rng.gen_range(-scale..scale)).collect())
                .collect()
        };
        let scale = 0.5 / config.dim as f64;
        let mut doc_vecs = init(&mut rng, docs.len(), config.dim, scale);
        let mut word_out = vec![vec![0.0; config.dim]; vocab.len()];

        let total_steps: u64 =
            (config.epochs as u64) * id_docs.iter().map(|d| d.len() as u64).sum::<u64>().max(1);
        let mut step: u64 = 0;

        // The SGD loop stays serial by design: every update draws
        // negatives from the single seeded RNG stream and writes the
        // shared `word_out` rows, so the (epoch, doc, word) visit order
        // *is* the reproducibility contract — any parallel split (e.g.
        // hogwild sharding) would reorder those draws and updates and
        // change the trained vectors. Threads only accelerate the pure
        // per-document stages above.
        for _epoch in 0..config.epochs {
            for (di, doc) in id_docs.iter().enumerate() {
                for &w in doc {
                    let progress = step as f64 / total_steps as f64;
                    let lr = config.alpha + (config.min_alpha - config.alpha) * progress;
                    Self::sgd_pair(
                        &mut doc_vecs[di],
                        &mut word_out,
                        w,
                        lr,
                        config.negative,
                        &neg_table,
                        &mut rng,
                    );
                    step += 1;
                }
            }
        }

        Self {
            config,
            vocab,
            doc_vecs,
            word_out,
            neg_table,
        }
    }

    fn build_neg_table(vocab: &Vocabulary) -> Vec<usize> {
        if vocab.is_empty() {
            return Vec::new();
        }
        let pow: Vec<f64> = (0..vocab.len())
            .map(|i| (vocab.count(i) as f64).powf(0.75))
            .collect();
        let total: f64 = pow.iter().sum();
        let mut table = Vec::with_capacity(NEG_TABLE_SIZE);
        let mut cum = 0.0;
        let mut w = 0usize;
        for i in 0..NEG_TABLE_SIZE {
            let frac = (i as f64 + 0.5) / NEG_TABLE_SIZE as f64;
            while w + 1 < pow.len() && frac > (cum + pow[w]) / total {
                cum += pow[w];
                w += 1;
            }
            table.push(w);
        }
        table
    }

    /// One SGD update for (doc vector, target word) with negative sampling.
    fn sgd_pair(
        dvec: &mut [f64],
        word_out: &mut [Vec<f64>],
        target: usize,
        lr: f64,
        negative: usize,
        neg_table: &[usize],
        rng: &mut StdRng,
    ) {
        let dim = dvec.len();
        let mut dgrad = vec![0.0; dim];
        // Positive pair + `negative` negatives.
        for k in 0..=negative {
            let (w, label) = if k == 0 {
                (target, 1.0)
            } else {
                let mut n = neg_table[rng.gen_range(0..neg_table.len())];
                if n == target {
                    n = neg_table[rng.gen_range(0..neg_table.len())];
                }
                (n, 0.0)
            };
            let out = &mut word_out[w];
            let dot: f64 = dvec.iter().zip(out.iter()).map(|(a, b)| a * b).sum();
            let pred = sigmoid(dot);
            let g = (label - pred) * lr;
            for i in 0..dim {
                dgrad[i] += g * out[i];
                out[i] += g * dvec[i];
            }
        }
        for i in 0..dim {
            dvec[i] += dgrad[i];
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Number of training documents.
    pub fn n_docs(&self) -> usize {
        self.doc_vecs.len()
    }

    /// The trained vector of training document `i`.
    pub fn doc_vector(&self, i: usize) -> &[f64] {
        &self.doc_vecs[i]
    }

    /// The output vector of a word, if in vocabulary. This is the "word
    /// vector representation of the hashtag" used for topical relatedness
    /// (Section IV-B).
    pub fn word_vector(&self, token: &str) -> Option<&[f64]> {
        self.vocab.get(token).map(|id| self.word_out[id].as_slice())
    }

    /// Infer a vector for an unseen document by holding word vectors fixed
    /// and running SGD on a fresh paragraph vector (gensim's
    /// `infer_vector`).
    pub fn infer(&self, tokens: &[String], steps: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 0.5 / self.config.dim as f64;
        let mut dvec: Vec<f64> = (0..self.config.dim)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        let ids: Vec<usize> = tokens.iter().filter_map(|t| self.vocab.get(t)).collect();
        if ids.is_empty() || self.neg_table.is_empty() {
            return dvec;
        }
        // Freeze word vectors: clone and discard updates to them.
        let mut frozen = self.word_out.clone();
        for s in 0..steps {
            let progress = s as f64 / steps as f64;
            let lr = self.config.alpha + (self.config.min_alpha - self.config.alpha) * progress;
            for &w in &ids {
                Self::sgd_pair(
                    &mut dvec,
                    &mut frozen,
                    w,
                    lr,
                    self.config.negative,
                    &self.neg_table,
                    &mut rng,
                );
            }
        }
        dvec
    }
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::cosine_dense;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    /// Build a tiny two-topic corpus; documents of the same topic should be
    /// more similar to each other than across topics after training.
    fn two_topic_corpus() -> Vec<Vec<String>> {
        let mut docs = Vec::new();
        for _ in 0..20 {
            docs.push(toks("cricket bat ball wicket stadium cricket run ball"));
            docs.push(toks("election vote poll minister party election seat vote"));
        }
        docs
    }

    #[test]
    fn same_topic_docs_more_similar() {
        let docs = two_topic_corpus();
        let model = Doc2Vec::train(
            &docs,
            Doc2VecConfig {
                dim: 16,
                epochs: 40,
                ..Default::default()
            },
        );
        // doc 0 & 2 are cricket; doc 1 is election.
        let same = cosine_dense(model.doc_vector(0), model.doc_vector(2));
        let cross = cosine_dense(model.doc_vector(0), model.doc_vector(1));
        assert!(
            same > cross,
            "same-topic similarity {same} should exceed cross-topic {cross}"
        );
    }

    #[test]
    fn dimensions_respected() {
        let docs = vec![toks("a b c"), toks("c d e")];
        let model = Doc2Vec::train(
            &docs,
            Doc2VecConfig {
                dim: 7,
                epochs: 2,
                ..Default::default()
            },
        );
        assert_eq!(model.dim(), 7);
        assert_eq!(model.doc_vector(0).len(), 7);
        assert_eq!(model.n_docs(), 2);
    }

    #[test]
    fn word_vector_lookup() {
        let docs = vec![toks("alpha beta"), toks("beta gamma")];
        let model = Doc2Vec::train(&docs, Doc2VecConfig::default());
        assert!(model.word_vector("beta").is_some());
        assert!(model.word_vector("nope").is_none());
    }

    #[test]
    fn inference_deterministic_under_seed() {
        let docs = two_topic_corpus();
        let model = Doc2Vec::train(
            &docs,
            Doc2VecConfig {
                dim: 8,
                epochs: 5,
                ..Default::default()
            },
        );
        let q = toks("cricket ball");
        let a = model.infer(&q, 10, 7);
        let b = model.infer(&q, 10, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn inferred_vector_lands_near_topic() {
        let docs = two_topic_corpus();
        let model = Doc2Vec::train(
            &docs,
            Doc2VecConfig {
                dim: 16,
                epochs: 40,
                ..Default::default()
            },
        );
        let inferred = model.infer(&toks("cricket wicket ball run"), 30, 3);
        let to_cricket = cosine_dense(&inferred, model.doc_vector(0));
        let to_election = cosine_dense(&inferred, model.doc_vector(1));
        assert!(
            to_cricket > to_election,
            "inferred cricket doc should be nearer cricket ({to_cricket}) than election ({to_election})"
        );
    }

    #[test]
    fn empty_doc_infer_does_not_panic() {
        let docs = vec![toks("a b")];
        let model = Doc2Vec::train(&docs, Doc2VecConfig::default());
        let v = model.infer(&[], 5, 0);
        assert_eq!(v.len(), model.dim());
    }

    #[test]
    fn min_count_prunes_rare_words() {
        let docs = vec![toks("common common rare"), toks("common common")];
        let model = Doc2Vec::train(
            &docs,
            Doc2VecConfig {
                min_count: 2,
                epochs: 1,
                ..Default::default()
            },
        );
        assert!(model.word_vector("rare").is_none());
        assert!(model.word_vector("common").is_some());
    }
}
