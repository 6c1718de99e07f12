//! Small dense linear-algebra helpers shared by the classifiers.
//!
//! All feature matrices in this workspace are row-major `Vec<Vec<f64>>`
//! (one row per sample); these helpers keep the classifier code terse and
//! allocation-conscious.

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Euclidean norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Normalize `x` to unit norm in place; returns the original norm.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Map `f` over the rows of a row-major matrix across worker threads
/// (`threads` = 0 means auto-detect; the `RETINA_THREADS` environment
/// variable overrides, see [`nn::par::resolve`]).
///
/// Each row's result is written to its own index-assigned output slot,
/// so the returned `Vec` is in row order and bit-identical to the serial
/// `x.iter().map(f)` for any thread count.
pub fn par_map_rows<R, F>(x: &[Vec<f64>], threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&[f64]) -> R + Sync,
{
    let workers = nn::par::resolve(threads).min(x.len().max(1));
    nn::par::map_indexed(x.len(), workers, |i| f(&x[i]))
}

/// Per-column mean of a row-major matrix.
pub fn column_means<R: AsRef<[f64]>>(x: &[R]) -> Vec<f64> {
    if x.is_empty() {
        return Vec::new();
    }
    let d = x[0].as_ref().len();
    let mut m = vec![0.0; d];
    for row in x {
        for (mi, &v) in m.iter_mut().zip(row.as_ref()) {
            *mi += v;
        }
    }
    let n = x.len() as f64;
    for mi in &mut m {
        *mi /= n;
    }
    m
}

/// Modified Gram–Schmidt orthonormalization of the columns of `v`
/// (`v` is a list of column vectors). Columns that collapse to ~zero are
/// replaced by zero vectors.
pub fn gram_schmidt(v: &mut [Vec<f64>]) {
    for i in 0..v.len() {
        for j in 0..i {
            let proj = dot(&v[i], &v[j]);
            let vj = v[j].clone();
            axpy(-proj, &vj, &mut v[i]);
        }
        let n = norm2(&v[i]);
        if n > 1e-12 {
            scale(1.0 / n, &mut v[i]);
        } else {
            v[i].iter_mut().for_each(|x| *x = 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn sigmoid_symmetry_and_stability() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(5.0) + sigmoid(-5.0) - 1.0).abs() < 1e-12);
        // Extreme inputs must not overflow to NaN.
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!(sigmoid(1000.0) <= 1.0);
    }

    #[test]
    fn column_stats() {
        let x = vec![vec![1.0, 2.0], vec![3.0, 6.0]];
        assert_eq!(column_means(&x), vec![2.0, 4.0]);
    }

    #[test]
    fn gram_schmidt_orthonormalizes() {
        let mut v = vec![vec![1.0, 1.0, 0.0], vec![1.0, 0.0, 1.0]];
        gram_schmidt(&mut v);
        assert!((norm2(&v[0]) - 1.0).abs() < 1e-9);
        assert!((norm2(&v[1]) - 1.0).abs() < 1e-9);
        assert!(dot(&v[0], &v[1]).abs() < 1e-9);
    }

    #[test]
    fn normalize_zero_vector_stays_zero() {
        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, vec![0.0, 0.0]);
    }
}
