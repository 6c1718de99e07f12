//! The [`Classifier`] trait implemented by every model in this crate.

/// A binary classifier over dense `f64` feature vectors.
///
/// Labels are `0` (negative / non-hate) and `1` (positive / hate or
/// retweeter). `predict_proba` returns the estimated probability of the
/// positive class; models that natively produce margins map them through a
/// sigmoid so that ranking metrics (AUC, MAP@k) remain meaningful.
pub trait Classifier {
    /// Fit on a training set; `x.len() == y.len()`, all rows equal length.
    fn fit(&mut self, x: &[Vec<f64>], y: &[u8]);

    /// Probability of the positive class for one sample.
    fn predict_proba(&self, x: &[f64]) -> f64;

    /// Hard 0/1 prediction at the 0.5 threshold.
    fn predict(&self, x: &[f64]) -> u8 {
        u8::from(self.predict_proba(x) >= 0.5)
    }

    /// Probabilities for a batch.
    fn predict_proba_batch(&self, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().map(|row| self.predict_proba(row)).collect()
    }

    /// Probabilities for a batch, scored across worker threads
    /// (`threads` = 0 means auto-detect, `RETINA_THREADS` overrides).
    /// Bit-identical to [`Classifier::predict_proba_batch`] for any
    /// thread count: each row's score lands in its index-assigned slot.
    fn predict_proba_batch_par(&self, x: &[Vec<f64>], threads: usize) -> Vec<f64>
    where
        Self: Sync + Sized,
    {
        crate::linalg::par_map_rows(x, threads, |row| self.predict_proba(row))
    }

    /// Hard predictions for a batch.
    fn predict_batch(&self, x: &[Vec<f64>]) -> Vec<u8> {
        x.iter().map(|row| self.predict(row)).collect()
    }
}

/// Validate a training set: its shape, binary labels and finite feature
/// values; panics with a clear message on misuse.
pub(crate) fn check_fit_inputs(x: &[Vec<f64>], y: &[u8]) {
    assert_eq!(x.len(), y.len(), "x and y must have the same length");
    assert!(!x.is_empty(), "cannot fit on an empty training set");
    let d = x[0].len();
    assert!(
        x.iter().all(|r| r.len() == d),
        "all feature rows must have equal dimensionality"
    );
    assert!(y.iter().all(|&l| l <= 1), "labels must be binary (0 or 1)");
    // The tree learners sort feature values, which NaN leaves without a
    // total order, and the linear models would learn NaN weights.
    assert!(
        x.iter().flatten().all(|v| v.is_finite()),
        "feature values must be finite (no NaN or infinity)"
    );
}
