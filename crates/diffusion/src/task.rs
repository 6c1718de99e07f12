//! The retweeter-prediction task.
//!
//! Section VI-D: "We use only those tweets which have more than one
//! retweet and at least 60 news mapping to it from the time of its
//! posting." For each such *root tweet* the task is binary classification
//! over candidate users: will this candidate retweet?
//!
//! Candidates are the root user's followers (the organic audience,
//! Section III). Retweeters that are *not* followers (promoted content,
//! search, invisible links — "beyond organic diffusion") are optionally
//! appended, so experiments can measure how models cope with them.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use socialsim::{Dataset, Retweet, TweetId, UserId};
use std::collections::BTreeMap;

/// One root tweet with its candidate set.
#[derive(Debug, Clone)]
pub struct CascadeSample {
    /// The root tweet id in the dataset.
    pub tweet: TweetId,
    /// The root author.
    pub root_user: UserId,
    /// Posting time (hours).
    pub t0: f64,
    /// Topic id.
    pub topic: usize,
    /// Gold hate label of the root tweet.
    pub hateful: bool,
    /// Candidate users.
    pub candidates: Vec<u32>,
    /// 1 iff the candidate retweeted (any time).
    pub labels: Vec<u8>,
    /// Retweet time (hours) per candidate; `f64::INFINITY` for
    /// non-retweeters. Used by the dynamic task.
    pub retweet_times: Vec<f64>,
    /// Observed retweeters in time order (for sequence models).
    pub retweeters_in_order: Vec<u32>,
}

/// Task construction parameters.
#[derive(Debug, Clone)]
pub struct RetweetTask {
    /// Keep only tweets with more than this many retweets (paper: 1).
    pub min_retweets: usize,
    /// Require at least this many news items before the tweet (paper: 60).
    pub min_news: usize,
    /// Cap on candidates per sample (negatives subsampled beyond this).
    pub max_candidates: usize,
    /// Also include retweeters that are not followers of the root
    /// ("beyond organic diffusion").
    pub include_non_followers: bool,
    /// RNG seed for negative subsampling.
    pub seed: u64,
}

impl Default for RetweetTask {
    fn default() -> Self {
        Self {
            min_retweets: 1,
            min_news: 60,
            max_candidates: 120,
            include_non_followers: false,
            seed: 0,
        }
    }
}

impl RetweetTask {
    /// Build all samples from a dataset.
    pub fn build(&self, data: &Dataset) -> Vec<CascadeSample> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let graph = data.graph();
        let mut out = Vec::new();
        for tweet in data.root_tweets() {
            if tweet.retweets.len() <= self.min_retweets {
                continue;
            }
            if data.news_before(tweet.time_hours, self.min_news).len() < self.min_news {
                continue;
            }
            let followers = graph.followers(tweet.user);
            let (retweeter_time, retweeters_in_order) = retweeters_by_time(&tweet.retweets);

            // Positives among followers always kept; negatives subsampled.
            let mut positives: Vec<u32> = Vec::new();
            let mut negatives: Vec<u32> = Vec::new();
            for &f in followers {
                if retweeter_time.contains_key(&f) {
                    positives.push(f);
                } else {
                    negatives.push(f);
                }
            }
            if self.include_non_followers {
                for r in &tweet.retweets {
                    if !positives.contains(&r.user) {
                        positives.push(r.user);
                    }
                }
            }
            if positives.is_empty() {
                continue;
            }
            let n_neg = self.max_candidates.saturating_sub(positives.len());
            negatives.shuffle(&mut rng);
            negatives.truncate(n_neg);

            let mut candidates = positives;
            candidates.extend(negatives);
            candidates.shuffle(&mut rng);
            let labels: Vec<u8> = candidates
                .iter()
                .map(|c| u8::from(retweeter_time.contains_key(c)))
                .collect();
            let retweet_times: Vec<f64> = candidates
                .iter()
                .map(|c| retweeter_time.get(c).copied().unwrap_or(f64::INFINITY))
                .collect();

            out.push(CascadeSample {
                tweet: tweet.id,
                root_user: tweet.user,
                t0: tweet.time_hours,
                topic: tweet.topic,
                hateful: tweet.hate,
                candidates,
                labels,
                retweet_times,
                retweeters_in_order,
            });
        }
        out
    }
}

/// Each retweeter's retweet time (the last record wins for a user who
/// appears twice) and the retweeters in time order. Ties in time keep
/// ascending user id: the map is a `BTreeMap` and the sort is stable,
/// so the order never falls back to a hasher's (A2).
fn retweeters_by_time(retweets: &[Retweet]) -> (BTreeMap<u32, f64>, Vec<u32>) {
    let retweeter_time: BTreeMap<u32, f64> =
        retweets.iter().map(|r| (r.user, r.time_hours)).collect();
    let mut in_order: Vec<(u32, f64)> = retweeter_time.iter().map(|(&u, &t)| (u, t)).collect();
    in_order.sort_by(|a, b| a.1.total_cmp(&b.1));
    (
        retweeter_time,
        in_order.into_iter().map(|(u, _)| u).collect(),
    )
}

/// Deterministic 80:20 train/test split (shuffled by seed).
pub fn split_samples(
    samples: Vec<CascadeSample>,
    train_frac: f64,
    seed: u64,
) -> (Vec<CascadeSample>, Vec<CascadeSample>) {
    let mut samples = samples;
    let mut rng = StdRng::seed_from_u64(seed);
    samples.shuffle(&mut rng);
    let n_train = ((samples.len() as f64) * train_frac).round() as usize;
    let test = samples.split_off(n_train.min(samples.len()));
    (samples, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialsim::SimConfig;

    fn data() -> Dataset {
        Dataset::generate(SimConfig {
            tweet_scale: 0.08,
            n_users: 400,
            ..SimConfig::tiny()
        })
    }

    #[test]
    fn samples_have_consistent_shapes() {
        let d = data();
        let samples = RetweetTask::default().build(&d);
        assert!(!samples.is_empty(), "no samples built");
        for s in &samples {
            assert_eq!(s.candidates.len(), s.labels.len());
            assert_eq!(s.candidates.len(), s.retweet_times.len());
            assert!(
                s.labels.iter().any(|&l| l == 1),
                "each sample has a positive"
            );
            assert!(s.candidates.len() <= 120 + s.retweeters_in_order.len());
        }
    }

    #[test]
    fn build_replays_identically() {
        // Two builds from one dataset agree exactly. This corpus has no
        // tied retweet times; the tie order is pinned by
        // `tied_retweet_times_come_out_in_ascending_user_id`.
        let d = data();
        let task = RetweetTask::default();
        let a = task.build(&d);
        let b = task.build(&d);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.candidates, y.candidates);
            assert_eq!(x.labels, y.labels);
            assert_eq!(x.retweeters_in_order, y.retweeters_in_order);
        }
    }

    #[test]
    fn tied_retweet_times_come_out_in_ascending_user_id() {
        // Nine retweeters share one time, listed out of id order, between
        // an earlier and a later one. A hash map would hand the nine to
        // the stable sort in hasher order, which changes per process.
        let at = |user: u32, time_hours: f64| Retweet {
            user,
            time_hours,
            depth: 1,
            parent: 0,
        };
        let mut retweets: Vec<Retweet> = [41, 7, 93, 12, 68, 3, 55, 20, 86]
            .iter()
            .map(|&u| at(u, 5.0))
            .collect();
        retweets.insert(4, at(60, 1.5));
        retweets.push(at(99, 9.0));
        let (times, in_order) = retweeters_by_time(&retweets);
        assert_eq!(times.len(), 11);
        assert_eq!(in_order, vec![60, 3, 7, 12, 20, 41, 55, 68, 86, 93, 99]);
    }

    #[test]
    fn labels_match_retweet_times() {
        let d = data();
        let samples = RetweetTask::default().build(&d);
        for s in &samples {
            for (i, &l) in s.labels.iter().enumerate() {
                if l == 1 {
                    assert!(s.retweet_times[i].is_finite());
                    assert!(s.retweet_times[i] > s.t0);
                } else {
                    assert!(s.retweet_times[i].is_infinite());
                }
            }
        }
    }

    #[test]
    fn organic_candidates_are_followers() {
        let d = data();
        let task = RetweetTask {
            include_non_followers: false,
            ..Default::default()
        };
        for s in task.build(&d) {
            let followers = d.graph().followers(s.root_user);
            for &c in &s.candidates {
                assert!(
                    followers.contains(&c),
                    "non-follower candidate in organic mode"
                );
            }
        }
    }

    #[test]
    fn min_retweets_filter_applied() {
        let d = data();
        let strict = RetweetTask {
            min_retweets: 5,
            ..Default::default()
        };
        for s in strict.build(&d) {
            assert!(d.tweets()[s.tweet].retweets.len() > 5);
        }
    }

    #[test]
    fn split_is_disjoint_and_sized() {
        let d = data();
        let samples = RetweetTask::default().build(&d);
        let n = samples.len();
        let (train, test) = split_samples(samples, 0.8, 1);
        assert_eq!(train.len() + test.len(), n);
        assert!((train.len() as f64 / n as f64 - 0.8).abs() < 0.05);
        let train_ids: std::collections::HashSet<usize> = train.iter().map(|s| s.tweet).collect();
        assert!(test.iter().all(|s| !train_ids.contains(&s.tweet)));
    }

    #[test]
    fn min_news_filter_excludes_early_tweets() {
        let d = data();
        let task = RetweetTask {
            min_news: 60,
            ..Default::default()
        };
        for s in task.build(&d) {
            assert!(d.news_before(s.t0, 60).len() == 60);
        }
    }
}
