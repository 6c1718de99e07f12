//! Shared machinery for the neural diffusion baselines: sampled-softmax
//! cross-entropy, negative sampling, and the dot product and logistic
//! sigmoid that score a candidate.

use rand::rngs::StdRng;
use rand::Rng;

/// Softmax cross-entropy with the target at index 0 of `logits`.
/// Returns `(loss, dlogits)`.
pub fn softmax_ce_target0(logits: &[f64]) -> (f64, Vec<f64>) {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&z| (z - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    let probs: Vec<f64> = exps.iter().map(|e| (e / sum).clamp(0.0, 1.0)).collect();
    let loss = -probs[0].max(1e-12).ln();
    let mut grad = probs;
    grad[0] -= 1.0;
    (loss, grad)
}

/// Dot product of two embeddings (zipped, so the shorter length rules).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Logistic sigmoid of a candidate's score.
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Sample up to `k` negatives from `pool` avoiding `exclude`.
pub fn sample_negatives(pool: &[u32], exclude: u32, k: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut out = Vec::with_capacity(k);
    if pool.is_empty() {
        return out;
    }
    let mut attempts = 0;
    while out.len() < k && attempts < k * 10 {
        attempts += 1;
        let c = pool[rng.gen_range(0..pool.len())];
        if c != exclude && !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn softmax_ce_gradient_sums_to_zero() {
        let (loss, grad) = softmax_ce_target0(&[2.0, 0.5, -1.0]);
        assert!(loss > 0.0);
        assert!(grad.iter().sum::<f64>().abs() < 1e-12);
        assert!(grad[0] < 0.0, "target gradient pushes logit up");
    }

    #[test]
    fn perfect_logit_low_loss() {
        let (loss, _) = softmax_ce_target0(&[20.0, 0.0, 0.0]);
        assert!(loss < 1e-6);
    }

    #[test]
    fn negatives_exclude_target() {
        let mut rng = StdRng::seed_from_u64(0);
        let pool = vec![1, 2, 3, 4, 5];
        for _ in 0..20 {
            let negs = sample_negatives(&pool, 3, 3, &mut rng);
            assert!(!negs.contains(&3));
            let mut d = negs.clone();
            d.dedup();
            assert_eq!(d.len(), negs.len());
        }
    }

    #[test]
    fn empty_pool_gives_no_negatives() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(sample_negatives(&[], 0, 5, &mut rng).is_empty());
    }
}
