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
///
/// A fit keeps only the selected terms: its vocabulary, IDF table and
/// selection all have [`TfIdfVectorizer::dim`] entries, in output-dimension
/// order. A vectorizer rebuilt by [`TfIdfVectorizer::from_parts`] may hold
/// unselected terms too (snapshots written before fits were pruned), and
/// transforms to the same bits.
#[derive(Debug, Clone)]
pub struct TfIdfVectorizer {
    vocab: Vocabulary,
    idf: Vec<f64>,
    /// Selected feature ids (into `vocab`), ascending, in output-dimension
    /// order.
    selected: Vec<usize>,
    config: TfIdfConfig,
}

impl TfIdfVectorizer {
    /// Fit on a corpus of raw strings.
    pub fn fit<S: AsRef<str>>(docs: &[S], config: TfIdfConfig) -> Self {
        let tokenized: Vec<Vec<String>> = docs
            .iter()
            .map(|d| crate::tokenize::tokenize(d.as_ref()))
            .collect();
        Self::fit_with_counts(tokenized.iter().map(Vec::as_slice), config).0
    }

    /// Fit on tokenized documents, each a sequence of unigram tokens, and
    /// return with the vectorizer every document's selected-term counts,
    /// as [`TfIdfVectorizer::term_counts`] gives them for its feature
    /// tokens. A document's feature tokens are its unigrams, then, when
    /// `config.use_bigrams`, its bigrams (`"a b"` for adjacent `a`, `b`).
    ///
    /// The fit counts over integer term ids: each unigram is interned once
    /// by its text, each bigram by its two unigrams' ids, and a term
    /// becomes a `String` only when it is selected. Ids follow first sight
    /// in that feature-token order, which is what the `top_k` tie-break
    /// reads.
    ///
    /// # Panics
    /// With `use_bigrams`, on a unigram that holds a space: its text would
    /// equal a bigram's. [`crate::tokenize::tokenize`] never yields one.
    pub fn fit_with_counts<'a, S: AsRef<str> + 'a>(
        docs: impl IntoIterator<Item = &'a [S]>,
        config: TfIdfConfig,
    ) -> (Self, Vec<Vec<(u32, u32)>>) {
        let mut words: HashMap<&'a str, u32> = HashMap::new();
        let mut pairs: HashMap<(u32, u32), u32> = HashMap::new();
        let mut terms: Vec<FitTerm<'a>> = Vec::new();
        // Document i's term ids, unigrams then bigrams, are
        // `doc_terms[starts[i]..starts[i + 1]]`.
        let mut doc_terms: Vec<u32> = Vec::new();
        let mut starts = vec![0];
        // Documents are stamped from 1, so a new term's `last_doc` of 0
        // matches none of them.
        for (stamp, doc) in (1u32..).zip(docs) {
            let first = doc_terms.len();
            for tok in doc {
                let tok = tok.as_ref();
                let id = *words.entry(tok).or_insert_with(|| {
                    assert!(
                        !(config.use_bigrams && tok.contains(' ')),
                        "unigram {tok:?} holds a space, the bigram separator"
                    );
                    FitTerm::push(&mut terms, Term::Word(tok))
                });
                terms[id as usize].observe(stamp);
                doc_terms.push(id);
            }
            if config.use_bigrams {
                for i in first + 1..doc_terms.len() {
                    let key = (doc_terms[i - 1], doc_terms[i]);
                    let id = *pairs
                        .entry(key)
                        .or_insert_with(|| FitTerm::push(&mut terms, Term::Pair(key.0, key.1)));
                    terms[id as usize].observe(stamp);
                    doc_terms.push(id);
                }
            }
            starts.push(doc_terms.len());
        }
        let n_docs = starts.len() - 1;

        let idf: Vec<f64> = terms
            .iter()
            .map(|t| (((1 + n_docs) as f64) / ((1 + t.df) as f64)).ln() + 1.0)
            .collect();

        // Candidate features obeying min_df, ranked by the configured
        // criterion, tie-broken by id for determinism.
        let mut candidates: Vec<usize> = (0..terms.len())
            .filter(|&i| terms[i].df as usize >= config.min_df)
            .collect();
        match config.top_k_by {
            TopKBy::TermFrequency => {
                candidates.sort_by_key(|&i| (std::cmp::Reverse(terms[i].count), i))
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

        // Each document's selected-term counts, from its kept term ids.
        let mut dim_of: Vec<Option<u32>> = vec![None; terms.len()];
        for (d, &id) in (0u32..).zip(&candidates) {
            dim_of[id] = Some(d);
        }
        let mut dims = Vec::new();
        let counts = starts
            .windows(2)
            .map(|w| {
                dims.clear();
                dims.extend(
                    doc_terms[w[0]..w[1]]
                        .iter()
                        .filter_map(|&id| dim_of[id as usize]),
                );
                run_lengths(&mut dims)
            })
            .collect();

        // Keep only the selected terms' tokens, counts and IDF, in
        // output-dimension order.
        let vocab = Vocabulary::from_entries(candidates.iter().map(|&id| {
            let mut token = String::new();
            terms[id].push_text(&terms, &mut token);
            (token, terms[id].count)
        }))
        // Unigrams are distinct map keys, bigrams distinct id pairs joined
        // by the one space no unigram holds.
        .expect("distinct terms have distinct texts");
        let v = Self {
            vocab,
            idf: candidates.iter().map(|&id| idf[id]).collect(),
            selected: (0..candidates.len()).collect(),
            config,
        };
        (v, counts)
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
        // A fit leaves `selected` sorted ascending (therefore
        // also duplicate-free) and in-range; require the same here.
        if selected.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        if selected.last().is_some_and(|&id| id >= vocab.len()) {
            return None;
        }
        Some(Self {
            vocab,
            idf,
            selected,
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
        debug_assert!(d < self.dim(), "dimension {d} of {}", self.dim());
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

    /// Output dimension of a feature token, when it is a selected term.
    fn dim_of(&self, tok: &str) -> Option<usize> {
        let id = self.vocab.get(tok)?;
        self.selected.binary_search(&id).ok()
    }

    /// The selected-term counts of pre-tokenized feature tokens:
    /// `(output dimension, count)` pairs in ascending dimension order.
    /// Unknown and unselected tokens count nowhere.
    pub fn term_counts(&self, toks: &[String]) -> Vec<(u32, u32)> {
        // Dimensions fit `u32`: no vocabulary nears 2³² terms.
        let mut dims: Vec<u32> = toks
            .iter()
            .filter_map(|t| self.dim_of(t))
            .map(|d| d as u32)
            .collect();
        run_lengths(&mut dims)
    }

    /// The one weighting path. `counts` holds `(output dimension, count)`
    /// pairs, each dimension at most once and in ascending order, as
    /// [`TfIdfVectorizer::term_counts`] returns them or as a sum of such
    /// lists. `emit(dim, weight)` receives each pair's TF-IDF weight in
    /// the same order: count × IDF, then divided by the L2 norm over the
    /// dimensions in ascending order when the config normalizes.
    ///
    /// Every other dimension weighs `+0.0`. A dense vector of all the
    /// dimensions gets the same bits: its absent terms add `+0.0` to the
    /// norm's non-negative sum and to nothing else.
    pub fn weigh(&self, counts: &[(u32, u32)], mut emit: impl FnMut(usize, f64)) {
        debug_assert!(counts.windows(2).all(|w| w[0].0 < w[1].0));
        let weight =
            |&(d, c): &(u32, u32)| (d as usize, f64::from(c) * self.idf_of_dim(d as usize));
        let norm = if self.config.l2_normalize {
            counts
                .iter()
                .map(|p| weight(p).1)
                .map(|x| x * x)
                .sum::<f64>()
                .sqrt()
        } else {
            0.0
        };
        for p in counts {
            let (d, x) = weight(p);
            emit(d, if norm > 0.0 { x / norm } else { x });
        }
    }

    /// Dense TF-IDF vector of term counts (see [`TfIdfVectorizer::weigh`]).
    fn transform_counts(&self, counts: &[(u32, u32)]) -> Vec<f64> {
        debug_assert!(counts.iter().all(|&(d, _)| (d as usize) < self.dim()));
        let mut v = vec![0.0; self.dim()];
        self.weigh(counts, |d, x| v[d] = x);
        v
    }

    /// Transform pre-tokenized feature tokens to a dense TF-IDF vector.
    pub fn transform_tokens(&self, toks: &[String]) -> Vec<f64> {
        self.transform_counts(&self.term_counts(toks))
    }
}

/// A term of a fit: a unigram, borrowed from the corpus, or a bigram as
/// its two unigrams' term ids.
#[derive(Debug, Clone, Copy)]
enum Term<'a> {
    Word(&'a str),
    Pair(u32, u32),
}

/// A fit's term and its corpus statistics.
#[derive(Debug)]
struct FitTerm<'a> {
    key: Term<'a>,
    /// Occurrences in the corpus.
    count: u64,
    /// Documents that hold the term.
    df: u32,
    /// Stamp of the last document counted in `df`.
    last_doc: u32,
}

impl<'a> FitTerm<'a> {
    /// Append a term not seen yet; returns its id.
    fn push(terms: &mut Vec<Self>, key: Term<'a>) -> u32 {
        let id = u32::try_from(terms.len()).expect("fewer than 2^32 distinct terms");
        terms.push(Self {
            key,
            count: 0,
            df: 0,
            last_doc: 0,
        });
        id
    }

    /// Count one occurrence in the document stamped `stamp`.
    fn observe(&mut self, stamp: u32) {
        self.count += 1;
        if self.last_doc != stamp {
            self.last_doc = stamp;
            self.df += 1;
        }
    }

    /// Append the term's feature token to `out`.
    fn push_text(&self, terms: &[Self], out: &mut String) {
        match self.key {
            Term::Word(w) => out.push_str(w),
            Term::Pair(a, b) => {
                terms[a as usize].push_text(terms, out);
                out.push(' ');
                terms[b as usize].push_text(terms, out);
            }
        }
    }
}

/// `(dimension, count)` pairs of a list of dimensions, ascending.
fn run_lengths(dims: &mut [u32]) -> Vec<(u32, u32)> {
    dims.sort_unstable();
    let mut counts: Vec<(u32, u32)> = Vec::with_capacity(dims.len());
    for &d in dims.iter() {
        match counts.last_mut() {
            Some((last, c)) if *last == d => *c += 1,
            _ => counts.push((d, 1)),
        }
    }
    counts
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

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `transform_tokens` as it was before the counts path: one `+= 1.0`
    /// per selected token into a dense vector, × IDF, then L2 over every
    /// dimension.
    fn dense_oracle(v: &TfIdfVectorizer, toks: &[String]) -> Vec<f64> {
        let mut out = vec![0.0; v.dim()];
        for tok in toks {
            if let Some(d) = (0..v.dim()).find(|&d| v.token_of_dim(d) == tok) {
                out[d] += 1.0;
            }
        }
        for (d, x) in out.iter_mut().enumerate() {
            *x *= v.idf_of_dim(d);
        }
        if v.config().l2_normalize {
            let norm: f64 = out.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 0.0 {
                for x in &mut out {
                    *x /= norm;
                }
            }
        }
        out
    }

    /// The counts of a document's two halves, summed per dimension as a
    /// user's history sums its tweets' counts.
    fn summed_counts(v: &TfIdfVectorizer, doc: &[String]) -> Vec<(u32, u32)> {
        let (a, b) = doc.split_at(doc.len() / 2);
        let mut sum = vec![0u32; v.dim()];
        for (d, c) in v.term_counts(a).into_iter().chain(v.term_counts(b)) {
            sum[d as usize] += c;
        }
        (0u32..).zip(sum).filter(|&(_, c)| c > 0).collect()
    }

    #[test]
    fn counts_path_matches_the_dense_transform_bit_for_bit() {
        let corpus = ["a a b c", "b c d", "c d e a", "e e e b"];
        let docs = [
            "",
            "zebra quagga okapi",
            "a a a a b",
            "e d c b a a b c d e",
            "c zebra c c",
        ];
        for l2_normalize in [true, false] {
            let v = TfIdfVectorizer::fit(
                &corpus,
                TfIdfConfig {
                    top_k: Some(4),
                    min_df: 1,
                    use_bigrams: false,
                    l2_normalize,
                    ..Default::default()
                },
            );
            for doc in docs {
                let t = toks(doc);
                let want = bits(&dense_oracle(&v, &t));
                assert_eq!(
                    bits(&v.transform_tokens(&t)),
                    want,
                    "{doc:?} l2 {l2_normalize}"
                );
                let summed = v.transform_counts(&summed_counts(&v, &t));
                assert_eq!(bits(&summed), want, "{doc:?} l2 {l2_normalize}");
            }
            let repeated = v.term_counts(&toks("a a a a b zebra"));
            assert!(repeated.iter().any(|&(_, c)| c == 4), "{repeated:?}");
            assert!(v.term_counts(&[]).is_empty());
        }
    }

    /// 300 seeded documents of up to 80 tokens over 150 skewed words: a
    /// norm sums up to ~100 squares, so a sum taken in another order
    /// shows in the last bits of some documents.
    #[test]
    fn counts_path_matches_the_dense_transform_on_a_seeded_corpus() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(26);
        let docs: Vec<Vec<String>> = (0..300)
            .map(|_| {
                let len = rng.gen_range(0..80);
                (0..len)
                    .map(|_| {
                        let u: f64 = rng.gen_range(0.0..1.0);
                        format!("w{}", (u * u * 150.0) as usize)
                    })
                    .collect()
            })
            .collect();
        for l2_normalize in [true, false] {
            let v = fit(
                &docs,
                TfIdfConfig {
                    top_k: Some(120),
                    min_df: 1,
                    use_bigrams: false,
                    l2_normalize,
                    ..Default::default()
                },
            );
            for (i, doc) in docs.iter().enumerate() {
                let want = bits(&dense_oracle(&v, doc));
                assert_eq!(bits(&v.transform_tokens(doc)), want, "doc {i}");
                let summed = v.transform_counts(&summed_counts(&v, doc));
                assert_eq!(bits(&summed), want, "doc {i}");
            }
        }
    }

    #[test]
    fn pruned_fit_transforms_like_a_full_vocabulary() {
        // 40 documents over a skewed 30-word universe: more than `top_k`
        // terms survive `min_df`, so the fit drops some.
        let words: Vec<Vec<String>> = (0..40u32)
            .map(|i| {
                (0..6u32)
                    .map(|j| format!("w{}", (i * 7 + j * j * 3) % (5 + i % 25)))
                    .collect()
            })
            .collect();
        let docs: Vec<Vec<String>> = words.iter().map(|w| with_bigrams(w)).collect();
        for l2_normalize in [true, false] {
            let config = TfIdfConfig {
                top_k: Some(25),
                min_df: 2,
                use_bigrams: true,
                l2_normalize,
                ..Default::default()
            };
            let pruned = fit(&words, config.clone());
            let (vocab, idf, selected, _) = pruned.to_parts();
            assert_eq!(pruned.dim(), 25);
            assert_eq!((vocab.len(), idf.len()), (pruned.dim(), pruned.dim()));
            assert_eq!(selected, (0..pruned.dim()).collect::<Vec<_>>());

            // Every term, as a fit kept them before pruning.
            let all = fit(
                &words,
                TfIdfConfig {
                    top_k: None,
                    min_df: 1,
                    ..config.clone()
                },
            );
            let (full_vocab, full_idf, _, _) = all.to_parts();
            let ids: Vec<usize> = (0..pruned.dim())
                .map(|d| full_vocab.get(pruned.token_of_dim(d)).unwrap())
                .collect();
            let full = TfIdfVectorizer::from_parts(
                full_vocab.clone(),
                full_idf.to_vec(),
                ids,
                config.clone(),
            )
            .unwrap();
            assert!(full.to_parts().0.len() > 2 * full.dim());
            let unknown = toks("never seen w1 w1");
            for doc in docs.iter().chain([&unknown]) {
                assert_eq!(
                    bits(&pruned.transform_tokens(doc)),
                    bits(&full.transform_tokens(doc)),
                    "{doc:?}"
                );
                assert_eq!(pruned.term_counts(doc), full.term_counts(doc));
            }
        }
    }

    fn fit(docs: &[Vec<String>], config: TfIdfConfig) -> TfIdfVectorizer {
        TfIdfVectorizer::fit_with_counts(docs.iter().map(Vec::as_slice), config).0
    }

    fn with_bigrams(tokens: &[String]) -> Vec<String> {
        let mut out = tokens.to_vec();
        out.extend(crate::tokenize::bigrams(tokens));
        out
    }

    /// The fit as it was before it interned terms: each document's
    /// unigrams, then (with `use_bigrams`) its bigrams as strings, added
    /// to a full vocabulary, a second lookup pass resetting the document
    /// flags; then each document's `term_counts`, as that was (its own
    /// sort and run count, so it shares no counting code with the fit).
    fn oracle_fit(
        docs: &[Vec<String>],
        config: TfIdfConfig,
    ) -> (TfIdfVectorizer, Vec<Vec<(u32, u32)>>) {
        let docs: Vec<Vec<String>> = docs
            .iter()
            .map(|d| {
                if config.use_bigrams {
                    with_bigrams(d)
                } else {
                    d.clone()
                }
            })
            .collect();
        let n_docs = docs.len();
        let mut vocab = Vocabulary::new();
        let mut df: Vec<u32> = Vec::new();
        let mut seen_in_doc: Vec<bool> = Vec::new();
        for doc in &docs {
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
        candidates.sort_unstable();
        let kept = candidates
            .iter()
            .map(|&id| (vocab.token(id).to_string(), vocab.count(id)));
        let v = TfIdfVectorizer {
            vocab: Vocabulary::from_entries(kept).unwrap(),
            idf: candidates.iter().map(|&id| idf[id]).collect(),
            selected: (0..candidates.len()).collect(),
            config,
        };
        let term_counts = |toks: &[String]| {
            let mut dims: Vec<u32> = toks
                .iter()
                .filter_map(|t| v.dim_of(t))
                .map(|d| d as u32)
                .collect();
            dims.sort_unstable();
            let mut counts: Vec<(u32, u32)> = Vec::with_capacity(dims.len());
            for d in dims {
                match counts.last_mut() {
                    Some((last, c)) if *last == d => *c += 1,
                    _ => counts.push((d, 1)),
                }
            }
            counts
        };
        let counts = docs.iter().map(|d| term_counts(d)).collect();
        (v, counts)
    }

    /// The fit equals the oracle: vocabulary tokens and counts in order,
    /// IDF bits, selection, and every document's count pairs.
    fn assert_fit_matches_the_oracle(docs: &[Vec<String>], config: TfIdfConfig) {
        let (want, want_counts) = oracle_fit(docs, config.clone());
        let (got, got_counts) =
            TfIdfVectorizer::fit_with_counts(docs.iter().map(Vec::as_slice), config.clone());
        let entries = |v: &TfIdfVectorizer| -> Vec<(String, usize, u64)> {
            v.vocab
                .iter()
                .map(|(t, id, c)| (t.to_string(), id, c))
                .collect()
        };
        assert_eq!(entries(&got), entries(&want), "{config:?}");
        assert_eq!(bits(&got.idf), bits(&want.idf), "{config:?}");
        assert_eq!(got.selected, want.selected, "{config:?}");
        assert_eq!(got_counts, want_counts, "{config:?}");
    }

    fn docs_of(docs: &[&str]) -> Vec<Vec<String>> {
        docs.iter().map(|d| toks(d)).collect()
    }

    #[test]
    fn fit_matches_the_oracle_on_edge_cases() {
        let cases = [
            // Empty and one-token documents.
            docs_of(&["", "a", "", "a", "b", ""]),
            docs_of(&[]),
            docs_of(&["", ""]),
            // A repeated bigram: `a b` three times, `b a` twice.
            docs_of(&["a b a b a b", "b a", "a"]),
            // `x` in exactly two documents, `y` twice in one, `z` once.
            docs_of(&["x y y", "x z", "w w w"]),
            // `q` and `p q` tie on count; both first seen in document 0,
            // the unigram first.
            docs_of(&["p q", "p q", "p r"]),
        ];
        for docs in &cases {
            for (top_k, min_df) in [
                (None, 1),
                (Some(1), 1),
                (Some(2), 1),
                (Some(3), 2),
                (None, 2),
            ] {
                for top_k_by in [TopKBy::TermFrequency, TopKBy::Idf] {
                    for use_bigrams in [true, false] {
                        let config = TfIdfConfig {
                            top_k,
                            top_k_by,
                            min_df,
                            use_bigrams,
                            l2_normalize: true,
                        };
                        assert_fit_matches_the_oracle(docs, config);
                    }
                }
            }
        }
        // The tie: at `top_k` 2 the unigram keeps the place.
        let v = fit(
            &docs_of(&["p q", "p q", "p r"]),
            TfIdfConfig {
                top_k: Some(2),
                min_df: 1,
                ..Default::default()
            },
        );
        assert_eq!((v.token_of_dim(0), v.token_of_dim(1)), ("p", "q"));
    }

    /// Character 2–4-grams without bigrams, as the Waseem–Hovy detector
    /// fits them.
    #[test]
    fn fit_matches_the_oracle_on_char_ngrams() {
        let docs: Vec<Vec<String>> = ["the cat sat on the mat", "a catalogue", "mat at bat", "x"]
            .iter()
            .map(|d| crate::tokenize::char_ngrams(&toks(d), 2, 4))
            .collect();
        for top_k in [None, Some(5)] {
            for top_k_by in [TopKBy::TermFrequency, TopKBy::Idf] {
                let config = TfIdfConfig {
                    top_k,
                    top_k_by,
                    min_df: 2,
                    use_bigrams: false,
                    l2_normalize: true,
                };
                assert_fit_matches_the_oracle(&docs, config);
            }
        }
    }

    /// Tweets and headlines of the tiny simulated corpus, with the
    /// feature tables' configuration and with every term kept.
    #[test]
    fn fit_matches_the_oracle_on_the_tiny_corpus() {
        let data = socialsim::Dataset::generate(socialsim::SimConfig::tiny());
        let tweets: Vec<Vec<String>> = data.tweets().iter().map(|t| t.tokens.clone()).collect();
        let news: Vec<Vec<String>> = data.news().iter().map(|n| n.tokens.clone()).collect();
        for docs in [&tweets, &news] {
            assert!(docs.iter().flatten().all(|t| !t.contains(' ')));
            for (top_k, min_df, top_k_by) in [
                (Some(300), 2, TopKBy::TermFrequency),
                (None, 1, TopKBy::TermFrequency),
                (Some(300), 2, TopKBy::Idf),
            ] {
                let config = TfIdfConfig {
                    top_k,
                    top_k_by,
                    min_df,
                    use_bigrams: true,
                    l2_normalize: true,
                };
                assert_fit_matches_the_oracle(docs, config);
            }
        }
    }

    /// A unigram holding a space would share its text with a bigram; the
    /// old fit merged the two into one term. The fit refuses it instead:
    /// `tokenize` splits on whitespace, and no simulated token holds a
    /// space (`fit_matches_the_oracle_on_the_tiny_corpus`).
    #[test]
    #[should_panic(expected = "holds a space")]
    fn a_unigram_holding_a_space_is_refused_with_bigrams() {
        fit(
            &[toks("a b"), vec!["a b".to_string()]],
            TfIdfConfig::default(),
        );
    }

    /// Without bigrams nothing shares a token's text, so a token holding
    /// a space is an ordinary term; and raw text, split on every
    /// whitespace character, never yields one.
    #[test]
    fn a_token_holding_a_space_is_a_plain_term_without_bigrams() {
        let docs = vec![vec!["a b".to_string(), "a".to_string()]];
        let config = TfIdfConfig {
            top_k: None,
            use_bigrams: false,
            ..Default::default()
        };
        assert_fit_matches_the_oracle(&docs, config.clone());
        assert_eq!(fit(&docs, config).token_of_dim(0), "a b");
        let raw = TfIdfVectorizer::fit(&["a\tb\u{a0}c  d"], TfIdfConfig::default());
        assert!((0..raw.dim()).any(|d| raw.token_of_dim(d) == "b c"));
    }
}
