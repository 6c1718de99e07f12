//! Vector similarity utilities.

/// Cosine similarity between two equal-length `f64` slices. Returns 0.0 if
/// either vector has zero norm.
pub fn cosine_dense(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "cosine of mismatched dims");
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na <= 0.0 || nb <= 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_vectors_similarity_one() {
        let v = vec![1.0, 2.0, 3.0];
        assert!((cosine_dense(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_vectors_zero() {
        assert_eq!(cosine_dense(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
    }

    #[test]
    fn opposite_vectors_minus_one() {
        assert!((cosine_dense(&[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_vector_yields_zero() {
        assert_eq!(cosine_dense(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn scale_invariance() {
        let a = vec![0.3, -0.7, 2.0];
        let b = vec![1.1, 0.4, -0.2];
        let scaled: Vec<f64> = a.iter().map(|x| x * 17.0).collect();
        assert!((cosine_dense(&a, &b) - cosine_dense(&scaled, &b)).abs() < 1e-12);
    }
}
