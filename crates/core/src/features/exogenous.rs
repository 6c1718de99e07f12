//! Exogenous feature (Section IV-D): "the average tf-idf vector for the
//! 60 most recent news headlines from our corpus posted before the time
//! of the tweet", with the top-300 feature selection.

use super::TextModels;
use socialsim::Dataset;

/// Average news TF-IDF over the `k` most recent headlines before `t0`,
/// from each headline's stored term counts.
pub fn news_tfidf(data: &Dataset, models: &TextModels, t0: f64, k: usize) -> Vec<f64> {
    let idx = data.news_before(t0, k);
    let mut acc = vec![0.0; models.news_tfidf.dim()];
    if idx.is_empty() {
        return acc;
    }
    // Headline by headline in window order, as a sum of dense vectors
    // would add them: each absent term's `+0.0` changes no sum.
    for &i in &idx {
        models
            .news_tfidf
            .weigh(models.news_terms(i), |d, x| acc[d] += x);
    }
    let n = idx.len() as f64;
    for a in &mut acc {
        *a /= n;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialsim::SimConfig;

    #[test]
    fn vector_has_tfidf_dim_and_mass() {
        let data = Dataset::generate(SimConfig::tiny());
        let models = TextModels::build(&data, 2);
        let v = news_tfidf(&data, &models, 24.0 * 35.0, 60);
        assert_eq!(v.len(), models.news_tfidf.dim());
        assert!(v.iter().any(|&x| x > 0.0), "news features all zero");
    }

    #[test]
    fn no_news_before_epoch_start() {
        let data = Dataset::generate(SimConfig::tiny());
        let models = TextModels::build(&data, 2);
        let v = news_tfidf(&data, &models, 0.0, 60);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn window_content_shifts_over_time() {
        let data = Dataset::generate(SimConfig::tiny());
        let models = TextModels::build(&data, 2);
        let a = news_tfidf(&data, &models, 24.0 * 10.0, 60);
        let b = news_tfidf(&data, &models, 24.0 * 60.0, 60);
        assert_ne!(a, b);
    }
}
