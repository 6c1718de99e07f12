//! The text-feature extractors as they were before `TextModels` stored
//! per-document term counts: every row re-tokenizes its documents,
//! appends their bigrams and transforms them densely. The exogenous
//! block is the uncached `news_tfidf`. Tests compare every production
//! row with these bit for bit.

use super::{endogenous, topic, FeatureGroup, RetweetFeatures, TextModels};
use socialsim::{Dataset, TweetId, UserId};
use std::collections::HashMap;
use text::TfIdfVectorizer;

/// A document's feature tokens: its unigrams, then its bigrams.
pub(crate) fn with_bigrams(tokens: &[String]) -> Vec<String> {
    let mut out = tokens.to_vec();
    out.extend(text::bigrams(tokens));
    out
}

/// `TfIdfVectorizer::transform_tokens` as it was: one `+= 1.0` per
/// selected token into a dense vector, × IDF, then divided by the L2
/// norm over every dimension.
fn dense_tfidf(v: &TfIdfVectorizer) -> impl Fn(&[String]) -> Vec<f64> + '_ {
    let dim_of: HashMap<&str, usize> = (0..v.dim()).map(|d| (v.token_of_dim(d), d)).collect();
    move |toks| {
        let mut out = vec![0.0; v.dim()];
        for tok in toks {
            if let Some(&d) = dim_of.get(tok.as_str()) {
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
}

/// `UserHistoryExtractor::extract`.
pub(crate) fn history(
    data: &Dataset,
    models: &TextModels,
    silver: &[bool],
    history_len: usize,
    user: UserId,
    t0: f64,
) -> Vec<f64> {
    let hist = data.history_before(user, t0, history_len);
    let mut out = Vec::new();

    let mut all_tokens: Vec<String> = Vec::new();
    for &tid in &hist {
        all_tokens.extend(with_bigrams(&data.tweets()[tid].tokens));
    }
    out.extend(dense_tfidf(&models.tweet_tfidf)(&all_tokens));

    let n_hate = hist.iter().filter(|&&tid| silver[tid]).count();
    out.push(if hist.is_empty() {
        0.0
    } else {
        n_hate as f64 / hist.len() as f64
    });

    let mut lex = vec![0u32; models.lexicon.len()];
    for &tid in &hist {
        let counts = models.lexicon.count_vector(&data.tweets()[tid].tokens);
        for (a, c) in lex.iter_mut().zip(counts) {
            *a += c;
        }
    }
    out.extend(lex.into_iter().map(|c| (c as f64).min(20.0)));

    let (mut rt_hate, mut rt_clean, mut n_hate_t, mut n_clean_t) = (0usize, 0usize, 0usize, 0usize);
    for &tid in &hist {
        let t = &data.tweets()[tid];
        if silver[tid] {
            rt_hate += t.retweets.len();
            n_hate_t += 1;
        } else {
            rt_clean += t.retweets.len();
            n_clean_t += 1;
        }
    }
    let ratio = |a: f64, b: f64| if a + b <= 0.0 { 0.0 } else { a / (a + b) };
    let per_tweet_hate = rt_hate as f64 / n_hate_t.max(1) as f64;
    let per_tweet_clean = rt_clean as f64 / n_clean_t.max(1) as f64;
    out.push(ratio(per_tweet_hate, per_tweet_clean));
    out.push(ratio(rt_hate as f64, rt_clean as f64));

    out.push((data.graph().follower_count(user) as f64).ln_1p());
    let age = (t0 / 24.0 - data.users()[user].created_day).max(0.0);
    out.push(age / 365.0);

    let mut topics: Vec<usize> = data
        .history_before(user, t0, usize::MAX)
        .iter()
        .map(|&tid| data.tweets()[tid].topic)
        .collect();
    topics.sort_unstable();
    topics.dedup();
    out.push(topics.len() as f64);
    out
}

/// `exogenous::news_tfidf`: the average TF-IDF of the `k` latest
/// headlines before `t0`, each re-tokenized.
pub(crate) fn news_tfidf(data: &Dataset, models: &TextModels, t0: f64, k: usize) -> Vec<f64> {
    let idx = data.news_before(t0, k);
    let mut acc = vec![0.0; models.news_tfidf.dim()];
    if idx.is_empty() {
        return acc;
    }
    let tfidf = dense_tfidf(&models.news_tfidf);
    for &i in &idx {
        let v = tfidf(&with_bigrams(&data.news()[i].tokens));
        for (a, x) in acc.iter_mut().zip(v) {
            *a += x;
        }
    }
    let n = idx.len() as f64;
    for a in &mut acc {
        *a /= n;
    }
    acc
}

/// One group of `HategenFeatures::extract`, the exogenous block uncached.
pub(crate) fn hategen_group(
    data: &Dataset,
    models: &TextModels,
    silver: &[bool],
    history_len: usize,
    group: FeatureGroup,
    (user, topic, t0): (UserId, usize, f64),
) -> Vec<f64> {
    match group {
        FeatureGroup::History => history(data, models, silver, history_len, user, t0),
        FeatureGroup::Topic => topic::topic_relatedness(data, models, user, topic, t0),
        FeatureGroup::Endogenous => endogenous::trending_vector(data, t0),
        FeatureGroup::Exogenous => news_tfidf(data, models, t0, 60),
    }
}

/// `RetweetFeatures::tweet_row`: lexicon counts, then TF-IDF.
pub(crate) fn tweet_row(data: &Dataset, models: &TextModels, tweet: TweetId) -> Vec<f64> {
    let t = &data.tweets()[tweet];
    let mut v: Vec<f64> = models
        .lexicon
        .count_vector(&t.tokens)
        .into_iter()
        .map(|c| c as f64)
        .collect();
    v.extend(dense_tfidf(&models.tweet_tfidf)(&with_bigrams(&t.tokens)));
    v
}

/// `RetweetFeatures::retina_user_row`, dense: history, trending, peer,
/// topic match, root tweet.
pub(crate) fn retina_user_row(
    f: &RetweetFeatures<'_>,
    silver: &[bool],
    tweet: TweetId,
    root: UserId,
    candidate: UserId,
) -> Vec<f64> {
    let t0 = f.data.tweets()[tweet].time_hours;
    let mut v = history(
        f.data,
        f.models,
        silver,
        f.history.history_len,
        candidate,
        t0,
    );
    v.extend(endogenous::trending_vector(f.data, t0));
    v.extend(f.peer.extract(root, candidate, t0));
    v.extend(f.topic_match_row(tweet, candidate, t0));
    v.extend(tweet_row(f.data, f.models, tweet));
    v
}

/// The Davidson (and Neural) detector row: TF-IDF, total lexicon hits,
/// lexicon counts.
pub(crate) fn davidson_row(data: &Dataset, models: &TextModels, tweet: TweetId) -> Vec<f64> {
    let toks = &data.tweets()[tweet].tokens;
    let mut v = dense_tfidf(&models.tweet_tfidf)(&with_bigrams(toks));
    let lex = models.lexicon.count_vector(toks);
    v.push(lex.iter().sum::<u32>() as f64);
    v.extend(lex.into_iter().map(|c| c as f64));
    v
}
