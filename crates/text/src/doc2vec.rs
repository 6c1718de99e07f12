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
    n_docs: usize,
    /// `n_docs x dim` paragraph vectors, row-major.
    doc_vecs: Vec<f64>,
    /// `|V| x dim` output word vectors, row-major.
    word_out: Vec<f64>,
}

const NEG_TABLE_SIZE: usize = 1 << 16;

/// Rows whose dot products [`dots`] computes side by side. The product
/// steps with five negatives, so six rows: one block.
const LANES: usize = 6;

/// The training corpus as vocabulary ids, with its negative-sampling
/// table: everything training needs that no RNG draw goes into.
struct Corpus {
    vocab: Vocabulary,
    id_docs: Vec<Vec<usize>>,
    /// Cumulative unigram^0.75 table for negative sampling.
    neg_table: Vec<usize>,
}

impl Corpus {
    fn new<D: AsRef<[String]> + Sync>(docs: &[D], min_count: u64) -> Self {
        let full = {
            let mut v = Vocabulary::new();
            for d in docs {
                for t in d.as_ref() {
                    v.add(t);
                }
            }
            v
        };
        let (vocab, _remap) = full.pruned(min_count);

        // Documents as id sequences — a pure per-document lookup, mapped
        // in parallel into index-assigned slots (order-preserving for any
        // thread count).
        let workers = nn::par::resolve(0).min(docs.len().max(1));
        let id_docs: Vec<Vec<usize>> = nn::par::map_indexed(docs.len(), workers, |i| {
            docs[i]
                .as_ref()
                .iter()
                .filter_map(|t| vocab.get(t))
                .collect()
        });
        let neg_table = Doc2Vec::build_neg_table(&vocab);
        Self {
            vocab,
            id_docs,
            neg_table,
        }
    }

    /// SGD steps over `epochs`: one per kept token per epoch (at least 1,
    /// the learning-rate schedule's denominator).
    fn total_steps(&self, epochs: usize) -> u64 {
        let tokens: u64 = self.id_docs.iter().map(|d| d.len() as u64).sum();
        (epochs as u64) * tokens.max(1)
    }
}

impl Doc2Vec {
    /// Train PV-DBOW on pre-tokenized documents, owned (`&[Vec<String>]`)
    /// or borrowed (`&[&[String]]`).
    pub fn train<D: AsRef<[String]> + Sync>(docs: &[D], config: Doc2VecConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let corpus = Corpus::new(docs, config.min_count);
        let dim = config.dim;
        let scale = 0.5 / dim as f64;
        let mut doc_vecs: Vec<f64> = (0..docs.len() * dim)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        let mut word_out = vec![0.0; corpus.vocab.len() * dim];

        let total_steps = corpus.total_steps(config.epochs);
        let mut step: u64 = 0;
        let mut sgd = Step::new(dim, config.negative);

        // The SGD loop stays serial by design: every update draws
        // negatives from the single seeded RNG stream and writes the
        // shared `word_out` rows, so the (epoch, doc, word) visit order
        // *is* the reproducibility contract — any parallel split (e.g.
        // hogwild sharding) would reorder those draws and updates and
        // change the trained vectors. Threads only accelerate the pure
        // per-document stages above.
        for _epoch in 0..config.epochs {
            for (di, doc) in corpus.id_docs.iter().enumerate() {
                let dvec = &mut doc_vecs[di * dim..(di + 1) * dim];
                for &w in doc {
                    let progress = step as f64 / total_steps as f64;
                    let lr = config.alpha + (config.min_alpha - config.alpha) * progress;
                    sgd.run(dvec, &mut word_out, w, lr, &corpus.neg_table, &mut rng);
                    step += 1;
                }
            }
        }

        Self {
            config,
            vocab: corpus.vocab,
            n_docs: docs.len(),
            doc_vecs,
            word_out,
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

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Number of training documents.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// The trained vector of training document `i`.
    pub fn doc_vector(&self, i: usize) -> &[f64] {
        let dim = self.config.dim;
        &self.doc_vecs[i * dim..(i + 1) * dim]
    }

    /// The output vector of a word, if in vocabulary. This is the "word
    /// vector representation of the hashtag" used for topical relatedness
    /// (Section IV-B).
    pub fn word_vector(&self, token: &str) -> Option<&[f64]> {
        let dim = self.config.dim;
        self.vocab
            .get(token)
            .map(|id| &self.word_out[id * dim..(id + 1) * dim])
    }
}

/// One SGD update's reused buffers: the rows it touches (the target,
/// then the negatives), their dot products with the doc vector, and the
/// doc vector's gradient.
struct Step {
    rows: Vec<usize>,
    dots: Vec<f64>,
    grad: Vec<f64>,
}

impl Step {
    fn new(dim: usize, negative: usize) -> Self {
        Self {
            rows: Vec::with_capacity(negative + 1),
            dots: vec![0.0; negative + 1],
            grad: vec![0.0; dim],
        }
    }

    /// One SGD update for (doc vector, target word) with negative
    /// sampling, bit-identical to drawing each negative just before its
    /// row's turn and taking each dot product after the previous row's
    /// update (DESIGN.md §16):
    ///
    /// - the negatives are drawn first; no draw depends on the
    ///   arithmetic, so the RNG stream is the same;
    /// - when the rows are distinct, no update writes a row a later dot
    ///   product reads, so [`dots`] takes them all up front;
    /// - a step that repeats a row takes each dot product in turn.
    ///
    /// Either way each row's update and each gradient element's sum run
    /// in row order.
    fn run(
        &mut self,
        dvec: &mut [f64],
        word_out: &mut [f64],
        target: usize,
        lr: f64,
        neg_table: &[usize],
        rng: &mut StdRng,
    ) {
        let dim = dvec.len();
        self.rows.clear();
        self.rows.push(target);
        for _ in 1..self.dots.len() {
            let mut n = neg_table[rng.gen_range(0..neg_table.len())];
            if n == target {
                n = neg_table[rng.gen_range(0..neg_table.len())];
            }
            self.rows.push(n);
        }
        let rows = &self.rows;
        let distinct = rows.iter().enumerate().all(|(k, w)| !rows[..k].contains(w));
        if distinct {
            dots(dvec, word_out, rows, &mut self.dots);
        }
        self.grad.fill(0.0);
        for (k, &w) in rows.iter().enumerate() {
            let out = &mut word_out[w * dim..(w + 1) * dim];
            let dot = if distinct {
                self.dots[k]
            } else {
                dvec.iter().zip(out.iter()).map(|(a, b)| a * b).sum()
            };
            let label = if k == 0 { 1.0 } else { 0.0 };
            let g = (label - sigmoid(dot)) * lr;
            for ((gi, o), &d) in self.grad.iter_mut().zip(out.iter_mut()).zip(dvec.iter()) {
                *gi += g * *o;
                *o += g * d;
            }
        }
        for (d, gi) in dvec.iter_mut().zip(&self.grad) {
            *d += gi;
        }
    }
}

/// `dots[k]` = `d` · row `rows[k]` of `table`, each summed left to right
/// from `-0.0` as `Iterator::sum` does, with [`LANES`] rows' add chains
/// interleaved so that they overlap.
fn dots(d: &[f64], table: &[f64], rows: &[usize], dots: &mut [f64]) {
    let dim = d.len();
    for (block, out) in rows.chunks(LANES).zip(dots.chunks_mut(LANES)) {
        // A short block repeats its last row; those lanes' sums are dropped.
        let lane: [&[f64]; LANES] = std::array::from_fn(|k| {
            let w = block[k.min(block.len() - 1)];
            &table[w * dim..][..dim]
        });
        let mut acc = [-0.0; LANES];
        for (i, &x) in d.iter().enumerate() {
            for (a, row) in acc.iter_mut().zip(&lane) {
                *a += x * row[i];
            }
        }
        out.copy_from_slice(&acc[..block.len()]);
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

    /// The trainer this module had before its step was rewritten: `Vec`
    /// rows, a fresh gradient buffer per step, each negative drawn just
    /// before its row's dot product. Returns the doc and word tables.
    fn oracle(docs: &[Vec<String>], config: &Doc2VecConfig) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let corpus = Corpus::new(docs, config.min_count);
        let init = |rng: &mut StdRng, n: usize, dim: usize, scale: f64| -> Vec<Vec<f64>> {
            (0..n)
                .map(|_| (0..dim).map(|_| rng.gen_range(-scale..scale)).collect())
                .collect()
        };
        let scale = 0.5 / config.dim as f64;
        let mut doc_vecs = init(&mut rng, docs.len(), config.dim, scale);
        let mut word_out = vec![vec![0.0; config.dim]; corpus.vocab.len()];
        let total_steps = corpus.total_steps(config.epochs);
        let mut step: u64 = 0;
        for _epoch in 0..config.epochs {
            for (di, doc) in corpus.id_docs.iter().enumerate() {
                for &w in doc {
                    let progress = step as f64 / total_steps as f64;
                    let lr = config.alpha + (config.min_alpha - config.alpha) * progress;
                    sgd_pair(
                        &mut doc_vecs[di],
                        &mut word_out,
                        w,
                        lr,
                        config.negative,
                        &corpus.neg_table,
                        &mut rng,
                    );
                    step += 1;
                }
            }
        }
        (doc_vecs, word_out)
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Train both ways and compare every doc and word vector bit for bit.
    fn assert_matches_oracle(docs: &[Vec<String>], config: Doc2VecConfig) {
        let (want_docs, want_words) = oracle(docs, &config);
        let what = format!("dim {} negative {}", config.dim, config.negative);
        let model = Doc2Vec::train(docs, config);
        assert_eq!(model.n_docs(), want_docs.len(), "{what}");
        for (i, want) in want_docs.iter().enumerate() {
            assert_eq!(bits(model.doc_vector(i)), bits(want), "{what}: doc {i}");
        }
        assert_eq!(model.vocab.len(), want_words.len(), "{what}");
        for (token, id, _) in model.vocab.iter() {
            let got = model.word_vector(token).unwrap();
            assert_eq!(bits(got), bits(&want_words[id]), "{what}: word {token}");
        }
    }

    /// 300 documents of 0–11 words drawn from a skewed 150-word
    /// vocabulary, so negatives often hit the frequent words; every 29th
    /// document is empty and every 31st holds only words that occur once
    /// (pruned at `min_count` 2).
    fn skewed_corpus() -> Vec<Vec<String>> {
        let mut rng = StdRng::seed_from_u64(5);
        (0..300)
            .map(|i| {
                if i % 29 == 0 {
                    return Vec::new();
                }
                if i % 31 == 0 {
                    return vec![format!("once{i}a"), format!("once{i}b")];
                }
                let len = rng.gen_range(1..12);
                (0..len)
                    .map(|_| {
                        let u: f64 = rng.gen_range(0.0..1.0);
                        format!("w{}", (150.0 * u * u * u) as usize)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn train_matches_the_per_pair_oracle_bit_for_bit() {
        let skewed = skewed_corpus();
        // Two words: with 2+ negatives every step repeats a row.
        let two_words: Vec<Vec<String>> = (0..40)
            .map(|i| match i % 3 {
                0 => toks("yes no yes"),
                1 => toks("no"),
                _ => Vec::new(),
            })
            .collect();
        for negative in [0, 1, 5, 12] {
            for dim in [1, 7, 50] {
                for (docs, min_count) in [(&skewed, 2), (&two_words, 1)] {
                    let config = Doc2VecConfig {
                        dim,
                        epochs: 3,
                        negative,
                        min_count,
                        seed: 11 + negative as u64,
                        ..Default::default()
                    };
                    assert_matches_oracle(docs, config);
                }
            }
        }
    }

    #[test]
    fn train_matches_the_oracle_on_degenerate_corpora() {
        let config = Doc2VecConfig {
            dim: 7,
            epochs: 2,
            min_count: 2,
            ..Default::default()
        };
        // No documents; only empty documents; every word pruned.
        assert_matches_oracle(&[], config.clone());
        assert_matches_oracle(&[Vec::new(), Vec::new()], config.clone());
        assert_matches_oracle(&[toks("a b"), toks("c")], config);
    }
}
