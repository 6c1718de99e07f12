//! Weighted binary cross-entropy — Eq. 6 of the paper:
//!
//! `L = −w·t·log(p) − (1−t)·log(1−p)`
//!
//! where `w` up-weights positive samples to counter class imbalance. The
//! paper sets `w = λ(log C − log C⁺)` with `C`/`C⁺` total/positive training
//! counts and λ swept over 1.0..2.5 (Section VI-D). We compute the loss on
//! *logits* (`p = σ(z)`) for numerical stability:
//!
//! `L = w·t·softplus(−z) + (1−t)·softplus(z)`,
//! `∂L/∂z = (w·t)(σ(z)−1) + (1−t)·σ(z)`.

use crate::activation::stable_sigmoid;
use crate::tensor::Matrix;

/// Probability floor for the probability-space loss: inputs are clamped
/// to `[PROB_EPS, 1 − PROB_EPS]` so `p = 0` and `p = 1` stay finite.
pub const PROB_EPS: f64 = 1e-12;

/// Weighted BCE computed on logits.
#[derive(Debug, Clone, Copy)]
pub struct WeightedBce {
    /// Weight on positive samples (`w` in Eq. 6).
    pub pos_weight: f64,
}

impl WeightedBce {
    /// Unweighted BCE.
    pub fn unweighted() -> Self {
        Self { pos_weight: 1.0 }
    }

    /// The paper's weighting: `w = λ(ln C − ln C⁺)`.
    pub fn from_counts(total: usize, positives: usize, lambda: f64) -> Self {
        let total = total.max(1) as f64;
        let pos = positives.max(1) as f64;
        Self {
            pos_weight: (lambda * (total.ln() - pos.ln())).max(1.0),
        }
    }

    /// Mean loss over all entries. `targets` entries must be 0.0 or 1.0.
    pub fn loss(&self, logits: &Matrix, targets: &Matrix) -> f64 {
        assert_eq!(
            (logits.rows(), logits.cols()),
            (targets.rows(), targets.cols())
        );
        crate::sanitize::check_finite("weighted_bce", "loss", logits);
        let n = (logits.rows() * logits.cols()).max(1) as f64;
        let out = logits
            .data()
            .iter()
            .zip(targets.data())
            .map(|(&z, &t)| self.pos_weight * t * softplus(-z) + (1.0 - t) * softplus(z))
            .sum::<f64>()
            / n;
        crate::sanitize::check_scalar("weighted_bce", "loss", out);
        out
    }

    /// Mean loss over *probabilities* (`p = σ(z)`), for callers that only
    /// have probabilities. Each `p` is clamped to `[PROB_EPS, 1 − PROB_EPS]`
    /// so the exact endpoints `p = 0` and `p = 1` produce a large finite
    /// loss instead of ±∞. Prefer [`Self::loss`] on logits when available.
    pub fn loss_probs(&self, probs: &Matrix, targets: &Matrix) -> f64 {
        assert_eq!(
            (probs.rows(), probs.cols()),
            (targets.rows(), targets.cols())
        );
        let n = (probs.rows() * probs.cols()).max(1) as f64;
        let out = probs
            .data()
            .iter()
            .zip(targets.data())
            .map(|(&p, &t)| {
                let pc = p.clamp(PROB_EPS, 1.0 - PROB_EPS);
                -(self.pos_weight * t * pc.ln()) - (1.0 - t) * (1.0 - pc).ln()
            })
            .sum::<f64>()
            / n;
        crate::sanitize::check_scalar("weighted_bce", "loss_probs", out);
        out
    }

    /// Gradient of the mean loss w.r.t. the logits.
    pub fn grad(&self, logits: &Matrix, targets: &Matrix) -> Matrix {
        let n = (logits.rows() * logits.cols()).max(1) as f64;
        let g = logits.zip(targets, |z, t| {
            (self.pos_weight * t * (stable_sigmoid(z) - 1.0) + (1.0 - t) * stable_sigmoid(z)) / n
        });
        crate::sanitize::check_finite("weighted_bce", "grad", &g);
        g
    }
}

/// Numerically-stable `ln(1 + eˣ)`.
fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        (1.0 + x.exp()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_naive_bce() {
        let loss = WeightedBce::unweighted();
        let z = Matrix::from_vec(1, 2, vec![0.3, -1.2]);
        let t = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let naive = {
            let p1 = stable_sigmoid(0.3f64);
            let p2 = stable_sigmoid(-1.2);
            (-(p1.ln()) - (1.0f64 - p2).ln()) / 2.0
        };
        assert!((loss.loss(&z, &t) - naive).abs() < 1e-12);
    }

    #[test]
    fn grad_matches_finite_difference() {
        let loss = WeightedBce { pos_weight: 2.5 };
        let z = Matrix::from_vec(2, 2, vec![0.5, -0.8, 1.5, -2.0]);
        let t = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let g = loss.grad(&z, &t);
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..2 {
                let mut zp = z.clone();
                zp.set(r, c, z.get(r, c) + eps);
                let lp = loss.loss(&zp, &t);
                zp.set(r, c, z.get(r, c) - eps);
                let lm = loss.loss(&zp, &t);
                let num = (lp - lm) / (2.0 * eps);
                assert!((num - g.get(r, c)).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn pos_weight_scales_positive_term_only() {
        let z = Matrix::from_vec(1, 1, vec![0.0]);
        let t_pos = Matrix::from_vec(1, 1, vec![1.0]);
        let t_neg = Matrix::from_vec(1, 1, vec![0.0]);
        let l1 = WeightedBce::unweighted();
        let l3 = WeightedBce { pos_weight: 3.0 };
        assert!((l3.loss(&z, &t_pos) - 3.0 * l1.loss(&z, &t_pos)).abs() < 1e-12);
        assert!((l3.loss(&z, &t_neg) - l1.loss(&z, &t_neg)).abs() < 1e-12);
    }

    #[test]
    fn from_counts_formula() {
        // w = λ(ln C − ln C⁺) = 2(ln 1000 − ln 10) = 2 ln 100
        let w = WeightedBce::from_counts(1000, 10, 2.0);
        assert!((w.pos_weight - 2.0 * 100.0f64.ln()).abs() < 1e-12);
        // Never below 1 (balanced data).
        let w2 = WeightedBce::from_counts(100, 100, 1.0);
        assert_eq!(w2.pos_weight, 1.0);
    }

    #[test]
    fn prob_space_matches_logit_space_in_the_interior() {
        let loss = WeightedBce { pos_weight: 2.0 };
        let z = Matrix::from_vec(1, 3, vec![0.7, -1.1, 2.4]);
        let p = z.map(stable_sigmoid);
        let t = Matrix::from_vec(1, 3, vec![1.0, 0.0, 1.0]);
        assert!((loss.loss(&z, &t) - loss.loss_probs(&p, &t)).abs() < 1e-9);
    }

    #[test]
    fn prob_exactly_zero_is_finite() {
        // Regression: p = 0.0 on a positive target used to be -inf·1.
        let loss = WeightedBce::unweighted();
        let p = Matrix::from_vec(1, 1, vec![0.0]);
        let t = Matrix::from_vec(1, 1, vec![1.0]);
        let l = loss.loss_probs(&p, &t);
        assert!(l.is_finite(), "clamped loss must be finite, got {l}");
        // Clamp floor ε = 1e-12 → loss = −ln ε ≈ 27.6.
        assert!((l + PROB_EPS.ln()).abs() < 1e-6, "got {l}");
    }

    #[test]
    fn prob_exactly_one_is_finite() {
        // Regression: p = 1.0 on a negative target used to be -inf·1.
        let loss = WeightedBce::unweighted();
        let p = Matrix::from_vec(1, 1, vec![1.0]);
        let t = Matrix::from_vec(1, 1, vec![0.0]);
        let l = loss.loss_probs(&p, &t);
        assert!(l.is_finite(), "clamped loss must be finite, got {l}");
        assert!(
            l > 20.0,
            "endpoint must still be heavily penalized, got {l}"
        );
        // And the correct-prediction direction is ~0, not NaN.
        let t_pos = Matrix::from_vec(1, 1, vec![1.0]);
        assert!(loss.loss_probs(&p, &t_pos).abs() < 1e-9);
    }

    #[test]
    fn empty_batch_loss_is_zero_not_nan() {
        let loss = WeightedBce::unweighted();
        let empty = Matrix::zeros(0, 1);
        assert_eq!(loss.loss(&empty, &empty), 0.0);
        assert_eq!(loss.loss_probs(&empty, &empty), 0.0);
    }

    #[test]
    fn extreme_logits_finite() {
        let loss = WeightedBce::unweighted();
        let z = Matrix::from_vec(1, 2, vec![1000.0, -1000.0]);
        let t = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        assert!(loss.loss(&z, &t).is_finite());
        assert!(loss.grad(&z, &t).data().iter().all(|v| v.is_finite()));
    }
}
