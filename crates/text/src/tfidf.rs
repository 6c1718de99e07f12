//! TF-IDF vectorization over unigrams + bigrams.
//!
//! Matches the feature recipe of Section IV of the paper:
//!
//! > "We use unigram and bigram features weighted by tf-idf values from 30
//! > most recent tweets posted by `u_i` ... To reduce the dimensionality of
//! > the feature space, we keep the top 300 features sorted by their idf
//! > values."
//!
//! IDF uses the smooth formulation `idf(t) = ln((1+N)/(1+df(t))) + 1`
//! (scikit-learn's default, which the paper's pipeline used), and the final
//! document vectors are L2-normalized.

use crate::vocab::Vocabulary;
use std::collections::HashMap;

/// Feature-selection criterion for the `top_k` cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopKBy {
    /// Descending corpus term frequency — scikit-learn's `max_features`
    /// semantics, which the paper's pipeline used (its "top 300 sorted by
    /// idf" wording describes the same vocabulary cut loosely).
    TermFrequency,
    /// Descending IDF (rarest terms). Mostly useful for ablations.
    Idf,
}

/// Configuration for [`TfIdfVectorizer`].
#[derive(Debug, Clone)]
pub struct TfIdfConfig {
    /// Keep only the `top_k` features. `None` keeps everything.
    pub top_k: Option<usize>,
    /// Criterion for the `top_k` cut.
    pub top_k_by: TopKBy,
    /// Drop terms occurring in fewer than `min_df` documents.
    pub min_df: usize,
    /// Include bigrams in addition to unigrams.
    pub use_bigrams: bool,
    /// L2-normalize output vectors.
    pub l2_normalize: bool,
}

impl Default for TfIdfConfig {
    fn default() -> Self {
        Self {
            top_k: Some(300),
            top_k_by: TopKBy::TermFrequency,
            min_df: 1,
            use_bigrams: true,
            l2_normalize: true,
        }
    }
}

/// A fitted TF-IDF vectorizer.
#[derive(Debug, Clone)]
pub struct TfIdfVectorizer {
    vocab: Vocabulary,
    idf: Vec<f64>,
    /// Selected feature ids (into `vocab`) in output-dimension order.
    selected: Vec<usize>,
    /// vocab id -> output dimension.
    dim_of: HashMap<usize, usize>,
    config: TfIdfConfig,
}

impl TfIdfVectorizer {
    /// Fit on a corpus of raw strings.
    pub fn fit<S: AsRef<str>>(docs: &[S], config: TfIdfConfig) -> Self {
        let tokenized: Vec<Vec<String>> = docs
            .iter()
            .map(|d| Self::feature_tokens(d.as_ref(), config.use_bigrams))
            .collect();
        Self::fit_tokenized(&tokenized, config)
    }

    /// Fit on pre-tokenized documents (each a list of feature tokens).
    pub fn fit_tokenized(docs: &[Vec<String>], config: TfIdfConfig) -> Self {
        let n_docs = docs.len();
        let mut vocab = Vocabulary::new();
        let mut df: Vec<u32> = Vec::new();
        let mut seen_in_doc: Vec<bool> = Vec::new();
        for doc in docs {
            for tok in doc {
                let id = vocab.add(tok);
                if id >= df.len() {
                    df.push(0);
                    seen_in_doc.push(false);
                }
                if !seen_in_doc[id] {
                    seen_in_doc[id] = true;
                    df[id] += 1;
                }
            }
            for tok in doc {
                if let Some(id) = vocab.get(tok) {
                    seen_in_doc[id] = false;
                }
            }
        }

        let idf: Vec<f64> = df
            .iter()
            .map(|&d| (((1 + n_docs) as f64) / ((1 + d) as f64)).ln() + 1.0)
            .collect();

        // Candidate features obeying min_df, ranked by the configured
        // criterion, tie-broken by id for determinism.
        let mut candidates: Vec<usize> = (0..vocab.len())
            .filter(|&i| df[i] as usize >= config.min_df)
            .collect();
        match config.top_k_by {
            TopKBy::TermFrequency => {
                candidates.sort_by_key(|&i| (std::cmp::Reverse(vocab.count(i)), i))
            }
            TopKBy::Idf => candidates.sort_by(|&a, &b| {
                idf[b]
                    .partial_cmp(&idf[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            }),
        }
        if let Some(k) = config.top_k {
            candidates.truncate(k);
        }
        // Re-sort selected features by id so output dimensions are stable
        // regardless of IDF ties.
        candidates.sort_unstable();

        let dim_of: HashMap<usize, usize> = candidates
            .iter()
            .enumerate()
            .map(|(d, &id)| (id, d))
            .collect();

        Self {
            vocab,
            idf,
            selected: candidates,
            dim_of,
            config,
        }
    }

    /// The configuration this vectorizer was fit with.
    pub fn config(&self) -> &TfIdfConfig {
        &self.config
    }

    /// Decompose into serializable parts: the vocabulary, per-id IDF
    /// values, selected feature ids (output-dimension order), and config.
    /// `dim_of` is derivable from `selected` and is not exported.
    pub fn to_parts(&self) -> (&Vocabulary, &[f64], &[usize], &TfIdfConfig) {
        (&self.vocab, &self.idf, &self.selected, &self.config)
    }

    /// Rebuild a fitted vectorizer from parts produced by
    /// [`TfIdfVectorizer::to_parts`]. Returns `None` when the parts are
    /// inconsistent (IDF length differs from the vocabulary, or a selected
    /// id is out of range / out of order) — a malformed snapshot, never a
    /// fit result.
    pub fn from_parts(
        vocab: Vocabulary,
        idf: Vec<f64>,
        selected: Vec<usize>,
        config: TfIdfConfig,
    ) -> Option<Self> {
        if idf.len() != vocab.len() {
            return None;
        }
        // `fit_tokenized` leaves `selected` sorted ascending (therefore
        // also duplicate-free) and in-range; require the same here.
        if selected.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        if selected.last().is_some_and(|&id| id >= vocab.len()) {
            return None;
        }
        let dim_of: HashMap<usize, usize> = selected
            .iter()
            .enumerate()
            .map(|(d, &id)| (id, d))
            .collect();
        Some(Self {
            vocab,
            idf,
            selected,
            dim_of,
            config,
        })
    }

    /// Tokenize a raw string into the feature-token universe.
    pub fn feature_tokens(doc: &str, use_bigrams: bool) -> Vec<String> {
        if use_bigrams {
            crate::tokenize::unigrams_and_bigrams(doc)
        } else {
            crate::tokenize::tokenize(doc)
        }
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.selected.len()
    }

    /// The IDF value of output dimension `d`.
    pub fn idf_of_dim(&self, d: usize) -> f64 {
        self.idf[self.selected[d]]
    }

    /// The feature token string of output dimension `d`.
    pub fn token_of_dim(&self, d: usize) -> &str {
        self.vocab.token(self.selected[d])
    }

    /// Transform one raw document to a dense TF-IDF vector.
    pub fn transform(&self, doc: &str) -> Vec<f64> {
        let toks = Self::feature_tokens(doc, self.config.use_bigrams);
        self.transform_tokens(&toks)
    }

    /// Transform pre-tokenized feature tokens to a dense TF-IDF vector.
    pub fn transform_tokens(&self, toks: &[String]) -> Vec<f64> {
        debug_assert!(self.selected.iter().all(|&id| id < self.idf.len()));
        let mut v = vec![0.0; self.dim()];
        for tok in toks {
            if let Some(id) = self.vocab.get(tok) {
                if let Some(&d) = self.dim_of.get(&id) {
                    v[d] += 1.0;
                }
            }
        }
        for (d, val) in v.iter_mut().enumerate() {
            *val *= self.idf[self.selected[d]];
        }
        if self.config.l2_normalize {
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 0.0 {
                for val in &mut v {
                    *val /= norm;
                }
            }
        }
        v
    }

    /// Transform many documents and average the vectors — used for the
    /// exogenous feature of Section IV-D ("average tf-idf vector for the 60
    /// most recent news headlines").
    pub fn transform_average<S: AsRef<str>>(&self, docs: &[S]) -> Vec<f64> {
        let mut acc = vec![0.0; self.dim()];
        if docs.is_empty() {
            return acc;
        }
        for doc in docs {
            let v = self.transform(doc.as_ref());
            for (a, x) in acc.iter_mut().zip(v) {
                *a += x;
            }
        }
        let n = docs.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Vec<&'static str> {
        vec!["cat sat", "cat ran", "dog ran fast"]
    }

    #[test]
    fn idf_matches_hand_computation() {
        // N = 3. df(cat)=2 -> idf = ln(4/3)+1 ; df(dog)=1 -> ln(4/2)+1.
        let v = TfIdfVectorizer::fit(
            &small_corpus(),
            TfIdfConfig {
                top_k: None,
                min_df: 1,
                use_bigrams: false,
                l2_normalize: false,
                ..Default::default()
            },
        );
        let cat_dim = (0..v.dim()).find(|&d| v.token_of_dim(d) == "cat").unwrap();
        let dog_dim = (0..v.dim()).find(|&d| v.token_of_dim(d) == "dog").unwrap();
        assert!((v.idf_of_dim(cat_dim) - ((4.0f64 / 3.0).ln() + 1.0)).abs() < 1e-12);
        assert!((v.idf_of_dim(dog_dim) - ((4.0f64 / 2.0).ln() + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn transform_counts_times_idf() {
        let v = TfIdfVectorizer::fit(
            &["a a b", "b c"],
            TfIdfConfig {
                top_k: None,
                min_df: 1,
                use_bigrams: false,
                l2_normalize: false,
                ..Default::default()
            },
        );
        let x = v.transform("a a a");
        let a_dim = (0..v.dim()).find(|&d| v.token_of_dim(d) == "a").unwrap();
        let expected = 3.0 * ((3.0f64 / 2.0).ln() + 1.0);
        assert!((x[a_dim] - expected).abs() < 1e-12);
    }

    #[test]
    fn l2_normalization_unit_norm() {
        let v = TfIdfVectorizer::fit(&small_corpus(), TfIdfConfig::default());
        let x = v.transform("cat sat dog");
        let norm: f64 = x.iter().map(|a| a * a).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_vector_for_unknown_tokens() {
        let v = TfIdfVectorizer::fit(&small_corpus(), TfIdfConfig::default());
        let x = v.transform("zebra quagga");
        assert!(x.iter().all(|&a| a == 0.0));
    }

    #[test]
    fn top_k_by_term_frequency_keeps_common() {
        let v = TfIdfVectorizer::fit(
            &["common rare", "common x", "common y"],
            TfIdfConfig {
                top_k: Some(1),
                min_df: 1,
                use_bigrams: false,
                l2_normalize: false,
                ..Default::default()
            },
        );
        assert_eq!(v.dim(), 1);
        assert_eq!(v.token_of_dim(0), "common");
    }

    #[test]
    fn top_k_by_idf_keeps_rare() {
        let v = TfIdfVectorizer::fit(
            &["common rare", "common x", "common y"],
            TfIdfConfig {
                top_k: Some(3),
                top_k_by: TopKBy::Idf,
                min_df: 1,
                use_bigrams: false,
                l2_normalize: false,
            },
        );
        assert_eq!(v.dim(), 3);
        let toks: Vec<&str> = (0..v.dim()).map(|d| v.token_of_dim(d)).collect();
        assert!(!toks.contains(&"common"));
        assert!(toks.contains(&"rare"));
    }

    #[test]
    fn bigram_features_present() {
        let v = TfIdfVectorizer::fit(
            &["the cat sat"],
            TfIdfConfig {
                top_k: None,
                min_df: 1,
                use_bigrams: true,
                l2_normalize: false,
                ..Default::default()
            },
        );
        let toks: Vec<&str> = (0..v.dim()).map(|d| v.token_of_dim(d)).collect();
        assert!(toks.contains(&"the cat"));
        assert!(toks.contains(&"cat sat"));
    }

    #[test]
    fn min_df_filters() {
        let v = TfIdfVectorizer::fit(
            &["a b", "a c"],
            TfIdfConfig {
                top_k: None,
                min_df: 2,
                use_bigrams: false,
                l2_normalize: false,
                ..Default::default()
            },
        );
        assert_eq!(v.dim(), 1);
        assert_eq!(v.token_of_dim(0), "a");
    }

    #[test]
    fn average_transform_averages() {
        let v = TfIdfVectorizer::fit(
            &["a", "b"],
            TfIdfConfig {
                top_k: None,
                min_df: 1,
                use_bigrams: false,
                l2_normalize: false,
                ..Default::default()
            },
        );
        let avg = v.transform_average(&["a", "b"]);
        let xa = v.transform("a");
        let xb = v.transform("b");
        for d in 0..v.dim() {
            assert!((avg[d] - (xa[d] + xb[d]) / 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn parts_round_trip_preserves_transform() {
        let v = TfIdfVectorizer::fit(&small_corpus(), TfIdfConfig::default());
        let (vocab, idf, selected, config) = v.to_parts();
        let r = TfIdfVectorizer::from_parts(
            vocab.clone(),
            idf.to_vec(),
            selected.to_vec(),
            config.clone(),
        )
        .unwrap();
        let doc = "cat sat dog ran";
        assert_eq!(v.transform(doc), r.transform(doc));
        assert_eq!(v.dim(), r.dim());
    }

    #[test]
    fn from_parts_rejects_inconsistent_parts() {
        let v = TfIdfVectorizer::fit(&small_corpus(), TfIdfConfig::default());
        let (vocab, idf, selected, config) = v.to_parts();
        // IDF length mismatch.
        assert!(TfIdfVectorizer::from_parts(
            vocab.clone(),
            idf[1..].to_vec(),
            selected.to_vec(),
            config.clone(),
        )
        .is_none());
        // Selected id out of range.
        assert!(TfIdfVectorizer::from_parts(
            vocab.clone(),
            idf.to_vec(),
            vec![vocab.len()],
            config.clone(),
        )
        .is_none());
        // Unsorted selection.
        assert!(TfIdfVectorizer::from_parts(
            vocab.clone(),
            idf.to_vec(),
            vec![1, 0],
            config.clone(),
        )
        .is_none());
    }

    #[test]
    fn average_of_empty_is_zero() {
        let v = TfIdfVectorizer::fit(&["a"], TfIdfConfig::default());
        let empty: [&str; 0] = [];
        assert!(v.transform_average(&empty).iter().all(|&x| x == 0.0));
    }
}
