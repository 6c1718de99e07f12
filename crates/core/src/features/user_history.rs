//! User activity-history features `H_{i,t}` (Section IV-A).
//!
//! From the 30 most recent tweets before `t`:
//! * top-300 TF-IDF of unigrams+bigrams,
//! * ratio of hateful vs non-hate tweets (silver labels),
//! * the hate-lexicon frequency vector `HL`,
//! * ratio of retweet counts on hateful vs non-hateful tweets (two
//!   features: per-tweet ratio and total ratio),
//! * follower count and account age,
//! * number of distinct hashtags tweeted on up to `t`.

use super::TextModels;
use socialsim::{Dataset, UserId};

/// Extractor for the history feature group.
pub struct UserHistoryExtractor<'a> {
    data: &'a Dataset,
    models: &'a TextModels,
    silver: &'a [bool],
    /// Number of recent tweets considered (paper: 30).
    pub history_len: usize,
}

impl<'a> UserHistoryExtractor<'a> {
    /// Create with the paper's 30-tweet history window.
    pub fn new(data: &'a Dataset, models: &'a TextModels, silver: &'a [bool]) -> Self {
        Self {
            data,
            models,
            silver,
            history_len: 30,
        }
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.models.tweet_tfidf.dim() + 1 + self.models.lexicon.len() + 2 + 2 + 1
    }

    /// Extract the history features of `user` at time `t0`.
    pub fn extract(&self, user: UserId, t0: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim());
        self.extract_into(user, t0, &mut out);
        out
    }

    /// Append the history features of `user` at time `t0` to `out`. The
    /// text blocks sum the recent tweets' stored counts.
    pub(crate) fn extract_into(&self, user: UserId, t0: f64, out: &mut Vec<f64>) {
        let hist = self.data.history_before(user, t0, self.history_len);

        // TF-IDF over the recent tweets taken as one document.
        self.models.push_tweet_tfidf(&hist, out);

        // Hate ratio (silver labels).
        let n_hate = hist.iter().filter(|&&tid| self.silver[tid]).count();
        out.push(if hist.is_empty() {
            0.0
        } else {
            n_hate as f64 / hist.len() as f64
        });

        // Hate-lexicon frequency vector over the history, capped at 20.
        let start = out.len();
        self.models.push_lexicon_counts(&hist, out);
        for c in &mut out[start..] {
            *c = c.min(20.0);
        }

        // Retweet-attention ratios: hateful vs non-hateful.
        let (mut rt_hate, mut rt_clean, mut n_hate_t, mut n_clean_t) =
            (0usize, 0usize, 0usize, 0usize);
        for &tid in &hist {
            let t = &self.data.tweets()[tid];
            if self.silver[tid] {
                rt_hate += t.retweets.len();
                n_hate_t += 1;
            } else {
                rt_clean += t.retweets.len();
                n_clean_t += 1;
            }
        }
        let per_tweet_hate = rt_hate as f64 / n_hate_t.max(1) as f64;
        let per_tweet_clean = rt_clean as f64 / n_clean_t.max(1) as f64;
        out.push(ratio(per_tweet_hate, per_tweet_clean));
        out.push(ratio(rt_hate as f64, rt_clean as f64));

        // Follower count (log) and account age in days at t0.
        out.push((self.data.graph().follower_count(user) as f64).ln_1p());
        let age = (t0 / 24.0 - self.data.users()[user].created_day).max(0.0);
        out.push(age / 365.0);

        // Number of distinct hashtags tweeted on up to t0.
        let mut topics: Vec<usize> = self
            .data
            .history_before(user, t0, usize::MAX)
            .iter()
            .map(|&tid| self.data.tweets()[tid].topic)
            .collect();
        topics.sort_unstable();
        topics.dedup();
        out.push(topics.len() as f64);
    }
}

/// Smoothed ratio `a / (a + b)` in [0, 1]; 0.5 when both are zero would
/// inject a false signal, so empty evidence maps to 0.
fn ratio(a: f64, b: f64) -> f64 {
    if a + b <= 0.0 {
        0.0
    } else {
        a / (a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialsim::SimConfig;

    #[test]
    fn dim_matches_extract() {
        let data = Dataset::generate(SimConfig::tiny());
        let models = TextModels::build(&data, 2);
        let silver: Vec<bool> = data.tweets().iter().map(|t| t.hate).collect();
        let ex = UserHistoryExtractor::new(&data, &models, &silver);
        let v = ex.extract(0, data.config().span_hours());
        assert_eq!(v.len(), ex.dim());
    }

    #[test]
    fn empty_history_yields_zeroish_vector() {
        let data = Dataset::generate(SimConfig::tiny());
        let models = TextModels::build(&data, 2);
        let silver: Vec<bool> = data.tweets().iter().map(|t| t.hate).collect();
        let ex = UserHistoryExtractor::new(&data, &models, &silver);
        // At t=0 nobody has history.
        let v = ex.extract(0, 0.0);
        // TF-IDF block and lexicon block must be all zeros.
        let tfidf_end = models.tweet_tfidf.dim();
        assert!(v[..tfidf_end].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn hateful_history_raises_hate_ratio_feature() {
        let data = Dataset::generate(SimConfig::tiny());
        let models = TextModels::build(&data, 2);
        let silver: Vec<bool> = data.tweets().iter().map(|t| t.hate).collect();
        let ex = UserHistoryExtractor::new(&data, &models, &silver);
        let t_end = data.config().span_hours();
        let ratio_idx = models.tweet_tfidf.dim();
        // Find the user with the most hateful history.
        let mut best = (0usize, 0.0f64);
        for u in 0..data.users().len() {
            let v = ex.extract(u, t_end);
            if v[ratio_idx] > best.1 {
                best = (u, v[ratio_idx]);
            }
        }
        assert!(best.1 > 0.0, "some user must show hateful history");
        // And that user's lexicon block must be non-zero.
        let v = ex.extract(best.0, t_end);
        let lex_start = ratio_idx + 1;
        let lex_end = lex_start + models.lexicon.len();
        assert!(v[lex_start..lex_end].iter().any(|&x| x > 0.0));
    }
}
