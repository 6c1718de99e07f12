//! Feature extraction for both tasks (Sections IV and V-A).
//!
//! [`TextModels`] bundles the trained text components (TF-IDF
//! vectorizers, hate lexicon, Doc2Vec). [`HategenFeatures`] assembles the
//! hate-generation feature vector in four named groups — `History`
//! (`H_{i,t}`), `Topic` (`T`), `Endogenous` (`S^en`), `Exogenous`
//! (`S^ex`) — matching the ablation axes of Table V. [`RetweetFeatures`]
//! extends the same stack with the peer signals (`S^P`: shortest path,
//! prior retweets of the root author) and root-tweet features of Section
//! V-A.

pub mod endogenous;
pub mod exogenous;
pub mod peer;
pub mod topic;
pub mod user_history;

use socialsim::{Dataset, TweetId, UserId};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
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

/// Trained text components shared by both tasks.
pub struct TextModels {
    /// TF-IDF over tweet unigrams+bigrams, top 300 by IDF (Section IV-A).
    pub tweet_tfidf: TfIdfVectorizer,
    /// TF-IDF over news headlines, top 300 (Section IV-D).
    pub news_tfidf: TfIdfVectorizer,
    /// The 209-entry hate lexicon (Section VI-B).
    pub lexicon: HateLexicon,
    /// PV-DBOW over tweets and headlines jointly (Section IV-B / V-A).
    pub doc2vec: Doc2Vec,
    n_tweets: usize,
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
    pub fn build(data: &Dataset, d2v_epochs: usize) -> Self {
        // Each bigram-extended corpus is dropped once its vectorizer is
        // fitted, before Doc2Vec allocates its tables.
        let tfidf = |docs: Vec<Vec<String>>| {
            TfIdfVectorizer::fit_tokenized(
                &docs,
                TfIdfConfig {
                    top_k: Some(300),
                    min_df: 2,
                    use_bigrams: true,
                    l2_normalize: true,
                    ..Default::default()
                },
            )
        };
        let tweet_tfidf = tfidf(
            data.tweets()
                .iter()
                .map(|t| with_bigrams(&t.tokens))
                .collect(),
        );
        let news_tfidf = tfidf(
            data.news()
                .iter()
                .map(|n| with_bigrams(&n.tokens))
                .collect(),
        );
        let lexicon = HateLexicon::new(&data.lexicon_terms());

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
}

fn with_bigrams(tokens: &[String]) -> Vec<String> {
    let mut out = tokens.to_vec();
    out.extend(text::bigrams(tokens));
    out
}

/// Lock a feature cache. A poisoned cache is still consistent (entries
/// are inserted whole, after they are computed), so a panicking peer
/// must not take the cache down with it.
fn lock<T>(cache: &Mutex<T>) -> MutexGuard<'_, T> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hate-generation feature extractor (Section IV).
pub struct HategenFeatures<'a> {
    data: &'a Dataset,
    models: &'a TextModels,
    /// Machine (silver) hate labels per tweet, used for history features
    /// as in Section VI-B ("machine-annotated tags for the features").
    silver: &'a [bool],
    history: user_history::UserHistoryExtractor<'a>,
    exo_cache: Mutex<HashMap<i64, Vec<f64>>>,
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
            exo_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The silver labels in use.
    pub fn silver(&self) -> &[bool] {
        self.silver
    }

    /// Extract one group of features for (user, hashtag, time).
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
            FeatureGroup::Exogenous => self.exogenous_cached(t0),
        }
    }

    /// Exogenous news TF-IDF, cached per ~6-minute time bucket (tweets in
    /// the same bucket see the same most-recent-60 news window).
    fn exogenous_cached(&self, t0: f64) -> Vec<f64> {
        let bucket = (t0 * 10.0) as i64;
        if let Some(v) = lock(&self.exo_cache).get(&bucket) {
            return v.clone();
        }
        let v = exogenous::news_tfidf(self.data, self.models, t0, 60);
        lock(&self.exo_cache).insert(bucket, v.clone());
        v
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
    tweet_cache: Mutex<HashMap<TweetId, Vec<f64>>>,
    exo_cache: Mutex<HashMap<TweetId, Vec<f64>>>,
}

impl<'a> RetweetFeatures<'a> {
    /// Create an extractor.
    pub fn new(data: &'a Dataset, models: &'a TextModels, silver: &'a [bool]) -> Self {
        Self {
            data,
            models,
            history: user_history::UserHistoryExtractor::new(data, models, silver),
            peer: peer::PeerSignals::new(data),
            tweet_cache: Mutex::new(HashMap::new()),
            exo_cache: Mutex::new(HashMap::new()),
        }
    }

    /// Override the history window (paper default 30; Fig. 7 sweeps
    /// 10..50).
    pub fn set_history_len(&mut self, k: usize) {
        self.history.history_len = k;
    }

    /// Per-candidate user feature (history + endo shared with Section IV).
    pub fn user_row(&self, candidate: UserId, t0: f64) -> Vec<f64> {
        let mut v = self.history.extract(candidate, t0);
        v.extend(endogenous::trending_vector(self.data, t0));
        v
    }

    /// Peer features: shortest path root→candidate and prior retweets of
    /// the root author by the candidate.
    pub fn peer_row(&self, root: UserId, candidate: UserId, t0: f64) -> Vec<f64> {
        self.peer.extract(root, candidate, t0)
    }

    /// Root-tweet features: hate-lexicon vector + top-300 TF-IDF
    /// (Section V-A), cached per tweet.
    pub fn tweet_row(&self, tweet: TweetId) -> Vec<f64> {
        if let Some(v) = lock(&self.tweet_cache).get(&tweet) {
            return v.clone();
        }
        let t = &self.data.tweets()[tweet];
        let mut v: Vec<f64> = self
            .models
            .lexicon
            .count_vector(&t.tokens)
            .into_iter()
            .map(|c| c as f64)
            .collect();
        v.extend(
            self.models
                .tweet_tfidf
                .transform_tokens(&with_bigrams(&t.tokens)),
        );
        lock(&self.tweet_cache).insert(tweet, v.clone());
        v
    }

    /// Exogenous news TF-IDF for a tweet's posting time, cached per tweet.
    pub fn exo_row(&self, tweet: TweetId) -> Vec<f64> {
        if let Some(v) = lock(&self.exo_cache).get(&tweet) {
            return v.clone();
        }
        let t0 = self.data.tweets()[tweet].time_hours;
        let v = exogenous::news_tfidf(self.data, self.models, t0, 60);
        lock(&self.exo_cache).insert(tweet, v.clone());
        v
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

    /// Full row for the feature-engineered baselines: user + peer +
    /// topic-match + tweet (+ exogenous TF-IDF when `include_exo`; the †
    /// variants drop it).
    pub fn full_row(
        &self,
        tweet: TweetId,
        root: UserId,
        candidate: UserId,
        include_exo: bool,
    ) -> Vec<f64> {
        let t0 = self.data.tweets()[tweet].time_hours;
        let mut v = self.user_row(candidate, t0);
        v.extend(self.peer_row(root, candidate, t0));
        v.extend(self.topic_match_row(tweet, candidate, t0));
        v.extend(self.tweet_row(tweet));
        if include_exo {
            v.extend(self.exo_row(tweet));
        }
        v
    }

    /// Per-candidate input for RETINA (exogenous signal handled by the
    /// attention module instead of TF-IDF).
    pub fn retina_user_row(&self, tweet: TweetId, root: UserId, candidate: UserId) -> Vec<f64> {
        self.full_row(tweet, root, candidate, false)
    }

    /// Dimensionality of [`RetweetFeatures::retina_user_row`].
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
        let cand = t.retweets[0].user as usize;
        let row = f.retina_user_row(t.id, t.user, cand);
        assert_eq!(row.len(), f.retina_dim());
        let with_exo = f.full_row(t.id, t.user, cand, true);
        assert_eq!(with_exo.len(), f.retina_dim() + models.news_tfidf.dim());
    }

    #[test]
    fn caches_are_consistent() {
        let (data, models) = setup();
        let silver: Vec<bool> = data.tweets().iter().map(|t| t.hate).collect();
        let f = RetweetFeatures::new(&data, &models, &silver);
        let t = data.root_tweets().next().unwrap();
        let a = f.tweet_row(t.id);
        let b = f.tweet_row(t.id);
        assert_eq!(a, b);
        let e1 = f.exo_row(t.id);
        let e2 = f.exo_row(t.id);
        assert_eq!(e1, e2);
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
