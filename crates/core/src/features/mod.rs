//! Feature extraction for both tasks (Sections IV and V-A).
//!
//! [`TextModels`] bundles the trained text components (TF-IDF
//! vectorizers, hate lexicon, Doc2Vec) and each document's term and
//! lexicon counts, which every text feature reads. [`HategenFeatures`]
//! assembles the hate-generation feature vector in four named groups —
//! `History` (`H_{i,t}`), `Topic` (`T`), `Endogenous` (`S^en`),
//! `Exogenous` (`S^ex`) — matching the ablation axes of Table V.
//! [`RetweetFeatures`] extends the same stack with the peer signals
//! (`S^P`: shortest path, prior retweets of the root author) and
//! root-tweet features of Section V-A.

pub mod endogenous;
pub mod exogenous;
#[cfg(test)]
pub(crate) mod oracle;
pub mod peer;
pub mod topic;
pub mod user_history;

use nn::SparseRow;
use socialsim::{Dataset, TweetId, UserId};
use text::{Doc2Vec, Doc2VecConfig, HateLexicon, TfIdfConfig, TfIdfVectorizer};

/// The four ablatable signal groups of Eq. 1 / Table V.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureGroup {
    /// User activity history `H_{i,t}`.
    History,
    /// Topic (hashtag) relatedness `T`.
    Topic,
    /// Non-peer endogenous signal `S^en` (trending hashtags).
    Endogenous,
    /// Exogenous signal `S^ex` (news headlines).
    Exogenous,
}

/// All four groups in canonical order.
pub const ALL_GROUPS: [FeatureGroup; 4] = [
    FeatureGroup::History,
    FeatureGroup::Topic,
    FeatureGroup::Endogenous,
    FeatureGroup::Exogenous,
];

/// Sparse per-document counts: each document's `(index, count)` pairs in
/// ascending index order, stored flat in corpus order.
struct CountTable {
    /// Document `i`'s pairs are `entries[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    entries: Vec<(u32, u32)>,
}

impl CountTable {
    fn new(rows: impl IntoIterator<Item = Vec<(u32, u32)>>) -> Self {
        let mut starts = vec![0];
        let mut entries = Vec::new();
        for row in rows {
            entries.extend(row);
            starts.push(entries.len());
        }
        Self { starts, entries }
    }

    fn row(&self, doc: usize) -> &[(u32, u32)] {
        debug_assert!(doc + 1 < self.starts.len(), "document {doc} out of range");
        &self.entries[self.starts[doc]..self.starts[doc + 1]]
    }
}

/// Trained text components shared by both tasks.
pub struct TextModels {
    /// TF-IDF over tweet unigrams+bigrams, the 300 terms most frequent in
    /// the corpus (`TopKBy::TermFrequency`; Section IV-A).
    pub tweet_tfidf: TfIdfVectorizer,
    /// TF-IDF over news-headline unigrams+bigrams, the 300 most frequent
    /// terms (Section IV-D).
    pub news_tfidf: TfIdfVectorizer,
    /// The 209-entry hate lexicon (Section VI-B).
    pub lexicon: HateLexicon,
    /// PV-DBOW over tweets and headlines jointly (Section IV-B / V-A).
    pub doc2vec: Doc2Vec,
    n_tweets: usize,
    /// Per tweet, its `tweet_tfidf` term counts: its unigrams and its own
    /// bigrams.
    tweet_terms: CountTable,
    /// Per tweet, its nonzero `lexicon` counts by entry.
    tweet_lexicon: CountTable,
    /// Per headline, its `news_tfidf` term counts.
    news_terms: CountTable,
}

impl TextModels {
    /// Train all text models on a dataset. `d2v_epochs` trades fidelity
    /// for speed (2–3 in tests; the experiment binaries and perfbench
    /// train 6).
    ///
    /// Fitting is *transductive*: the unsupervised components (TF-IDF
    /// vocabulary, Doc2Vec vectors) see the whole corpus, including
    /// tweets that later land in a test split (EXPERIMENTS.md deviation
    /// 6). Supervised training never sees test labels.
    ///
    /// Each document's term and lexicon counts are counted here, once;
    /// no feature re-tokenizes a document afterwards (DESIGN.md §17).
    pub fn build(data: &Dataset, d2v_epochs: usize) -> Self {
        // Each fit counts its documents' unigrams and bigrams as it goes
        // and returns their selected-term counts.
        let tfidf = |docs: Vec<&[String]>| {
            let (v, counts) = TfIdfVectorizer::fit_with_counts(
                docs,
                TfIdfConfig {
                    top_k: Some(300),
                    min_df: 2,
                    use_bigrams: true,
                    l2_normalize: true,
                    ..Default::default()
                },
            );
            (v, CountTable::new(counts))
        };
        let (tweet_tfidf, tweet_terms) =
            tfidf(data.tweets().iter().map(|t| t.tokens.as_slice()).collect());
        let (news_tfidf, news_terms) =
            tfidf(data.news().iter().map(|n| n.tokens.as_slice()).collect());
        let lexicon = HateLexicon::new(&data.lexicon_terms());
        let tweet_lexicon = CountTable::new(data.tweets().iter().map(|t| {
            (0u32..)
                .zip(lexicon.count_vector(&t.tokens))
                .filter(|&(_, c)| c > 0)
                .collect()
        }));

        // Doc2Vec corpus: tweets then news (doc ids offset by n_tweets).
        let d2v_docs: Vec<&[String]> = data
            .tweets()
            .iter()
            .map(|t| t.tokens.as_slice())
            .chain(data.news().iter().map(|n| n.tokens.as_slice()))
            .collect();
        let doc2vec = Doc2Vec::train(
            &d2v_docs,
            Doc2VecConfig {
                dim: 50,
                epochs: d2v_epochs,
                min_count: 2,
                seed: data.config().seed ^ 0xD2C,
                ..Default::default()
            },
        );

        Self {
            tweet_tfidf,
            news_tfidf,
            lexicon,
            doc2vec,
            n_tweets: data.tweets().len(),
            tweet_terms,
            tweet_lexicon,
            news_terms,
        }
    }

    /// Doc2Vec vector of a tweet.
    pub fn tweet_vec(&self, tweet: TweetId) -> &[f64] {
        self.doc2vec.doc_vector(tweet)
    }

    /// Doc2Vec vector of a news article (by index into `Dataset::news`).
    pub fn news_vec(&self, news_idx: usize) -> &[f64] {
        self.doc2vec.doc_vector(self.n_tweets + news_idx)
    }

    /// Word vector of a hashtag token (topic representation, Section
    /// IV-B).
    pub fn hashtag_vec(&self, hashtag: &str) -> Option<&[f64]> {
        self.doc2vec.word_vector(hashtag)
    }

    /// A tweet's `tweet_tfidf` term counts (its unigrams and its own
    /// bigrams): `(output dimension, count)` pairs in ascending order.
    pub(crate) fn tweet_terms(&self, tweet: TweetId) -> &[(u32, u32)] {
        self.tweet_terms.row(tweet)
    }

    /// A tweet's nonzero hate-lexicon counts: `(entry, count)` pairs in
    /// ascending entry order.
    pub(crate) fn tweet_lexicon(&self, tweet: TweetId) -> &[(u32, u32)] {
        self.tweet_lexicon.row(tweet)
    }

    /// A headline's `news_tfidf` term counts (by index into
    /// `Dataset::news`): `(output dimension, count)` pairs in ascending
    /// order.
    pub(crate) fn news_terms(&self, news_idx: usize) -> &[(u32, u32)] {
        self.news_terms.row(news_idx)
    }

    /// Append the `tweet_tfidf` vector of `tweets` taken as one document
    /// (`tweet_tfidf.dim()` entries): their term counts summed, then
    /// weighted.
    pub(crate) fn push_tweet_tfidf(&self, tweets: &[TweetId], out: &mut Vec<f64>) {
        let tfidf = &self.tweet_tfidf;
        let mut sum = vec![0u32; tfidf.dim()];
        for &t in tweets {
            for &(d, c) in self.tweet_terms(t) {
                debug_assert!((d as usize) < tfidf.dim(), "counts of another vectorizer");
                sum[d as usize] += c;
            }
        }
        let counts: Vec<(u32, u32)> = (0u32..).zip(sum).filter(|&(_, c)| c > 0).collect();
        let start = out.len();
        out.resize(start + tfidf.dim(), 0.0);
        tfidf.weigh(&counts, |d, x| out[start + d] = x);
    }

    /// Append the hate-lexicon counts of `tweets`, summed per entry
    /// (`lexicon.len()` entries).
    pub(crate) fn push_lexicon_counts(&self, tweets: &[TweetId], out: &mut Vec<f64>) {
        let start = out.len();
        out.resize(start + self.lexicon.len(), 0.0);
        for &t in tweets {
            for &(e, c) in self.tweet_lexicon(t) {
                debug_assert!(
                    (e as usize) < self.lexicon.len(),
                    "counts of another lexicon"
                );
                out[start + e as usize] += f64::from(c);
            }
        }
    }
}

/// Hate-generation feature extractor (Section IV).
pub struct HategenFeatures<'a> {
    data: &'a Dataset,
    models: &'a TextModels,
    /// Machine (silver) hate labels per tweet, used for history features
    /// as in Section VI-B ("machine-annotated tags for the features").
    silver: &'a [bool],
    history: user_history::UserHistoryExtractor<'a>,
}

impl<'a> HategenFeatures<'a> {
    /// Create an extractor.
    pub fn new(data: &'a Dataset, models: &'a TextModels, silver: &'a [bool]) -> Self {
        let history = user_history::UserHistoryExtractor::new(data, models, silver);
        Self {
            data,
            models,
            silver,
            history,
        }
    }

    /// The silver labels in use.
    pub fn silver(&self) -> &[bool] {
        self.silver
    }

    /// Extract one group of features for (user, hashtag, time). Each group
    /// is a function of its arguments alone.
    pub fn extract_group(
        &self,
        group: FeatureGroup,
        user: UserId,
        topic: usize,
        t0: f64,
    ) -> Vec<f64> {
        match group {
            FeatureGroup::History => self.history.extract(user, t0),
            FeatureGroup::Topic => {
                topic::topic_relatedness(self.data, self.models, user, topic, t0)
            }
            FeatureGroup::Endogenous => endogenous::trending_vector(self.data, t0),
            FeatureGroup::Exogenous => exogenous::news_tfidf(self.data, self.models, t0, 60),
        }
    }

    /// Full feature vector: all groups except those in `exclude`.
    pub fn extract(
        &self,
        user: UserId,
        topic: usize,
        t0: f64,
        exclude: Option<FeatureGroup>,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim());
        for &g in &ALL_GROUPS {
            if Some(g) != exclude {
                out.extend(self.extract_group(g, user, topic, t0));
            }
        }
        out
    }

    /// Full dimensionality (no exclusions).
    pub fn dim(&self) -> usize {
        self.history.dim() + 1 + self.data.roster().len() + self.models.news_tfidf.dim()
    }
}

/// Retweet-prediction feature extractor (Section V-A).
pub struct RetweetFeatures<'a> {
    data: &'a Dataset,
    models: &'a TextModels,
    history: user_history::UserHistoryExtractor<'a>,
    peer: peer::PeerSignals<'a>,
}

impl<'a> RetweetFeatures<'a> {
    /// Create an extractor.
    pub fn new(data: &'a Dataset, models: &'a TextModels, silver: &'a [bool]) -> Self {
        Self {
            data,
            models,
            history: user_history::UserHistoryExtractor::new(data, models, silver),
            peer: peer::PeerSignals::new(data),
        }
    }

    /// Override the history window (paper default 30; Fig. 7 sweeps
    /// 10..50).
    pub fn set_history_len(&mut self, k: usize) {
        self.history.history_len = k;
    }

    /// Root-tweet features: hate-lexicon vector + top-300 TF-IDF
    /// (Section V-A).
    pub fn tweet_row(&self, tweet: TweetId) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.models.lexicon.len() + self.models.tweet_tfidf.dim());
        self.models.push_lexicon_counts(&[tweet], &mut v);
        self.models.push_tweet_tfidf(&[tweet], &mut v);
        v
    }

    /// Exogenous news TF-IDF for a tweet's posting time.
    pub fn exo_row(&self, tweet: TweetId) -> Vec<f64> {
        let t0 = self.data.tweets()[tweet].time_hours;
        exogenous::news_tfidf(self.data, self.models, t0, 60)
    }

    /// Topic-relatedness of the candidate towards the root tweet — the
    /// retweet-task instantiation of the Section IV-B topical-relatedness
    /// feature: mean cosine of the candidate's recent-tweet Doc2Vec
    /// vectors against (a) the root tweet's vector and (b) the hashtag's
    /// word vector.
    pub fn topic_match_row(&self, tweet: TweetId, candidate: UserId, t0: f64) -> Vec<f64> {
        let hist = self.data.history_before(candidate, t0, 30);
        if hist.is_empty() {
            return vec![0.0, 0.0];
        }
        let tweet_vec = self.models.tweet_vec(tweet);
        let sim_tweet = hist
            .iter()
            .map(|&tid| text::similarity::cosine_dense(self.models.tweet_vec(tid), tweet_vec))
            .sum::<f64>()
            / hist.len() as f64;
        let hashtag = self
            .data
            .roster()
            .get(self.data.tweets()[tweet].topic)
            .hashtag;
        let sim_tag = match self.models.hashtag_vec(hashtag) {
            Some(tag_vec) => {
                hist.iter()
                    .map(|&tid| text::similarity::cosine_dense(self.models.tweet_vec(tid), tag_vec))
                    .sum::<f64>()
                    / hist.len() as f64
            }
            None => 0.0,
        };
        vec![sim_tweet, sim_tag]
    }

    /// RETINA's input rows for a root tweet's candidates, sparse
    /// (exogenous signal handled by the attention module instead of
    /// TF-IDF). Each row is the candidate's history, the trending vector,
    /// the peer and topic-match features and the root-tweet features.
    /// The trending vector and the root-tweet features depend on the
    /// tweet alone, so they are computed once; each row is assembled in
    /// one reused buffer.
    pub(crate) fn retina_rows(
        &self,
        tweet: TweetId,
        root: UserId,
        candidates: &[u32],
    ) -> Vec<SparseRow> {
        let t0 = self.data.tweets()[tweet].time_hours;
        let trending = endogenous::trending_vector(self.data, t0);
        let tweet_row = self.tweet_row(tweet);
        let mut row = Vec::with_capacity(self.retina_dim());
        candidates
            .iter()
            .map(|&c| {
                let c = c as usize;
                row.clear();
                self.history.extract_into(c, t0, &mut row);
                row.extend_from_slice(&trending);
                row.extend(self.peer.extract(root, c, t0));
                row.extend(self.topic_match_row(tweet, c, t0));
                row.extend_from_slice(&tweet_row);
                SparseRow::from_dense(&row)
            })
            .collect()
    }

    /// Width of [`RetweetFeatures::retina_rows`].
    pub fn retina_dim(&self) -> usize {
        self.history.dim()
            + self.data.roster().len()
            + peer::PEER_DIM
            + 2 // topic-match features
            + self.models.lexicon.len()
            + self.models.tweet_tfidf.dim()
    }

    /// Doc2Vec vector of the root tweet (attention query input).
    pub fn tweet_d2v(&self, tweet: TweetId) -> Vec<f64> {
        self.models.tweet_vec(tweet).to_vec()
    }

    /// Doc2Vec vectors of the `k` most recent news before the tweet
    /// (attention key/value inputs), oldest first.
    pub fn news_d2v_seq(&self, tweet: TweetId, k: usize) -> Vec<Vec<f64>> {
        let t0 = self.data.tweets()[tweet].time_hours;
        self.data
            .news_before(t0, k)
            .into_iter()
            .map(|i| self.models.news_vec(i).to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialsim::SimConfig;

    fn setup() -> (Dataset, TextModels) {
        let data = Dataset::generate(SimConfig::tiny());
        let models = TextModels::build(&data, 2);
        (data, models)
    }

    #[test]
    fn hategen_dims_consistent() {
        let (data, models) = setup();
        let silver: Vec<bool> = data.tweets().iter().map(|t| t.hate).collect();
        let f = HategenFeatures::new(&data, &models, &silver);
        let t = data.root_tweets().next().unwrap();
        let full = f.extract(t.user, t.topic, t.time_hours, None);
        assert_eq!(full.len(), f.dim());
        // Excluding a group shrinks the vector by that group's size.
        for g in ALL_GROUPS {
            let partial = f.extract(t.user, t.topic, t.time_hours, Some(g));
            assert!(partial.len() < full.len(), "{g:?} exclusion must shrink");
        }
    }

    #[test]
    fn retweet_dims_consistent() {
        let (data, models) = setup();
        let silver: Vec<bool> = data.tweets().iter().map(|t| t.hate).collect();
        let f = RetweetFeatures::new(&data, &models, &silver);
        let t = data.root_tweets().find(|t| !t.retweets.is_empty()).unwrap();
        let rows = f.retina_rows(t.id, t.user, &[t.retweets[0].user]);
        assert_eq!(rows[0].len(), f.retina_dim());
        assert_eq!(f.exo_row(t.id).len(), models.news_tfidf.dim());
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every hate-generation row of every root tweet, with each group
    /// left out in turn, equals the re-tokenizing extractors bit for bit.
    #[test]
    fn hategen_rows_match_the_oracle_bit_for_bit() {
        let (data, models) = setup();
        let silver: Vec<bool> = data.tweets().iter().map(|t| t.hate).collect();
        let samples = crate::hategen::HategenPipeline::build_samples(&data, 0);
        assert!(samples.len() > 100, "{} samples", samples.len());
        for history_len in [10, 30, 50] {
            let mut f = HategenFeatures::new(&data, &models, &silver);
            f.history.history_len = history_len;
            for s in &samples {
                let at = (s.user, s.topic, s.t0);
                let groups = ALL_GROUPS
                    .map(|g| oracle::hategen_group(&data, &models, &silver, history_len, g, at));
                for exclude in std::iter::once(None).chain(ALL_GROUPS.map(Some)) {
                    let want: Vec<f64> = ALL_GROUPS
                        .iter()
                        .zip(&groups)
                        .filter(|(&g, _)| Some(g) != exclude)
                        .flat_map(|(_, v)| v.iter().copied())
                        .collect();
                    let got = f.extract(s.user, s.topic, s.t0, exclude);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "tweet {} history {history_len} without {exclude:?}",
                        s.tweet
                    );
                }
            }
        }
    }

    /// Every packed candidate row equals the re-tokenizing extractors'
    /// dense row, sparsified, in columns and value bits.
    #[test]
    fn packed_rows_match_the_oracle_bit_for_bit() {
        let (data, models) = setup();
        let silver: Vec<bool> = data.tweets().iter().map(|t| t.hate).collect();
        let samples = diffusion::RetweetTask {
            min_news: 10,
            max_candidates: 25,
            ..Default::default()
        }
        .build(&data);
        assert!(samples.len() > 20, "{} samples", samples.len());
        let intervals = crate::retina::default_intervals();
        for history_len in [10, 30, 50] {
            let mut f = RetweetFeatures::new(&data, &models, &silver);
            f.set_history_len(history_len);
            let packed = crate::retina::pack_samples_parallel(&f, &samples, &intervals, 10, 2);
            for (s, p) in samples.iter().zip(&packed) {
                assert_eq!(p.user_rows.len(), s.candidates.len());
                for (&c, row) in s.candidates.iter().zip(&p.user_rows) {
                    let dense =
                        oracle::retina_user_row(&f, &silver, s.tweet, s.root_user, c as usize);
                    let want = SparseRow::from_dense(&dense);
                    let entries = |r: &SparseRow| -> Vec<(usize, u64)> {
                        r.iter().map(|(j, v)| (j, v.to_bits())).collect()
                    };
                    assert_eq!(row.len(), want.len());
                    assert_eq!(
                        entries(row),
                        entries(&want),
                        "tweet {} candidate {c} history {history_len}",
                        s.tweet
                    );
                }
            }
        }
    }

    /// Two samples in one 6-minute span, on either side of a headline,
    /// each get the window of their own time, in either extraction order.
    #[test]
    fn exogenous_block_is_a_pure_function_of_t0() {
        let (data, models) = setup();
        let silver: Vec<bool> = data.tweets().iter().map(|t| t.hate).collect();
        let exo = |t: f64| exogenous::news_tfidf(&data, &models, t, 60);
        let (before, after) = data
            .news()
            .iter()
            .map(|n| (n.time_hours, n.time_hours + 1e-3))
            .find(|&(a, b)| (a * 10.0) as i64 == (b * 10.0) as i64 && exo(a) != exo(b))
            .expect("a headline that changes the window");
        for order in [[before, after], [after, before]] {
            let f = HategenFeatures::new(&data, &models, &silver);
            for t0 in order {
                let got = f.extract_group(FeatureGroup::Exogenous, 0, 0, t0);
                assert_eq!(bits(&got), bits(&exo(t0)), "t0 {t0} in order {order:?}");
            }
        }
    }

    #[test]
    fn every_document_has_its_counts() {
        let (data, models) = setup();
        let expected =
            |toks: &[String], v: &TfIdfVectorizer| v.term_counts(&oracle::with_bigrams(toks));
        for t in data.tweets() {
            assert_eq!(
                models.tweet_terms(t.id),
                expected(&t.tokens, &models.tweet_tfidf)
            );
        }
        for (i, n) in data.news().iter().enumerate() {
            assert_eq!(
                models.news_terms(i),
                expected(&n.tokens, &models.news_tfidf)
            );
        }
        let hits: usize = (0..data.tweets().len())
            .map(|t| models.tweet_lexicon(t).len())
            .sum();
        assert!(hits > 0, "no tweet has a lexicon hit");
        // The fitted vectorizers keep only the terms they select.
        for v in [&models.tweet_tfidf, &models.news_tfidf] {
            assert_eq!(v.dim(), 300);
            assert_eq!(v.to_parts().0.len(), v.dim());
        }
    }

    #[test]
    fn news_d2v_seq_length() {
        let (data, models) = setup();
        let silver: Vec<bool> = data.tweets().iter().map(|t| t.hate).collect();
        let f = RetweetFeatures::new(&data, &models, &silver);
        // A late tweet has a full 60-news window.
        let t = data
            .root_tweets()
            .filter(|t| t.time_hours > 24.0 * 30.0)
            .next()
            .unwrap();
        let seq = f.news_d2v_seq(t.id, 60);
        assert_eq!(seq.len(), 60);
        assert_eq!(seq[0].len(), 50);
    }

    #[test]
    fn text_models_expose_vectors() {
        let (data, models) = setup();
        assert_eq!(models.tweet_vec(0).len(), 50);
        assert_eq!(models.news_vec(0).len(), 50);
        // Some hashtag appears often enough to have a word vector.
        let any_tag = data
            .roster()
            .iter()
            .find_map(|t| models.hashtag_vec(t.hashtag));
        assert!(any_tag.is_some(), "no hashtag vector trained");
    }

    /// FNV-1a over the bits of every Doc2Vec vector `setup` trains: each
    /// document's in corpus order, then each word's in vocabulary order
    /// (a word's id is its first occurrence in tweets-then-news order).
    /// The constant comes from the per-pair SGD loop that `text`'s
    /// `doc2vec.rs` keeps as its test oracle, so a change to training
    /// that moves any bit fails here.
    #[test]
    fn doc2vec_vectors_are_pinned() {
        let (data, models) = setup();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut absorb = |v: &[f64]| {
            for x in v {
                for b in x.to_bits().to_le_bytes() {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        };
        let d2v = &models.doc2vec;
        for i in 0..d2v.n_docs() {
            absorb(d2v.doc_vector(i));
        }
        let tokens = data
            .tweets()
            .iter()
            .map(|t| &t.tokens)
            .chain(data.news().iter().map(|n| &n.tokens))
            .flatten();
        let mut seen = std::collections::BTreeSet::new();
        let mut words = 0;
        for t in tokens {
            if let Some(v) = d2v.word_vector(t) {
                if seen.insert(t.as_str()) {
                    absorb(v);
                    words += 1;
                }
            }
        }
        assert_eq!((d2v.n_docs(), words), (5679, 2642));
        assert_eq!(hash, 0x9b93_034b_80f9_4988);
    }
}
