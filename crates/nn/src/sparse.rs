//! Sparse input rows and the folded standardize-then-dense product.
//!
//! RETINA's candidate rows (paper §V-A: the user's history, trending,
//! peer and topic-match features plus the root tweet's lexicon and
//! TF-IDF block) are about 96% exact zeros, so they are stored as sorted
//! `(column, value)` pairs rather than as dense vectors.
//!
//! Standardizing such a row, `x_j = (v_j − μ_j)/σ_j`, makes it dense, so
//! the user layer folds the scaler into its product instead:
//!
//! ```text
//! x_r·W + b = Σ_{j ∈ nz(r)} (v_rj/σ_j)·W_j + base,   base = b − Σ_j (μ_j/σ_j)·W_j
//! ```
//!
//! `base` is computed once per forward, and each row then costs one
//! `hdim`-wide multiply-add per stored entry. A column with `|μ_j| > σ_j`
//! would cancel catastrophically in that split (`v/σ` and `μ/σ` are both
//! large and nearly equal), so it stays *centred*: `(v − μ)/σ` on every
//! row, as a dense scaler computes it. [`Standardization`] holds
//! `1/σ`, `μ/σ` and the centred columns, precomputed once, so the
//! product only multiplies.

use crate::dense::Dense;
use crate::tensor::{Matrix, Scalar};

/// One row of a `len()`-wide vector, stored sparse: sorted, unique `u32`
/// column indices and their `f64` values. Exact zeros of either sign are
/// never stored; NaN and infinities are, so a poisoned row stays visible
/// to whoever validates it. The fields are private, so every row in
/// existence has in-range, ascending columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseRow {
    width: usize,
    cols: Vec<u32>,
    values: Vec<f64>,
}

impl SparseRow {
    /// The nonzero entries of `row`, in column order.
    pub fn from_dense(row: &[f64]) -> Self {
        assert!(
            u32::try_from(row.len()).is_ok(),
            "sparse rows index columns with u32"
        );
        let (mut cols, mut values) = (Vec::new(), Vec::new());
        for (j, &v) in (0u32..).zip(row) {
            // lint: allow(float-cmp) only exact zeros (either sign) are dropped
            if v != 0.0 {
                cols.push(j);
                values.push(v);
            }
        }
        Self {
            width: row.len(),
            cols,
            values,
        }
    }

    /// Width of the dense row this stands for.
    pub fn len(&self) -> usize {
        self.width
    }

    /// True for a zero-width row.
    pub fn is_empty(&self) -> bool {
        self.width == 0
    }

    /// The stored values, in column order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `(column, value)` for every stored entry, in ascending column
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.cols
            .iter()
            .map(|&j| j as usize)
            .zip(self.values.iter().copied())
    }

    /// Write the dense row into `out` (`len()` wide), zeros included.
    pub fn densify_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.width, "dense buffer width");
        out.fill(0.0);
        for (j, v) in self.iter() {
            out[j] = v;
        }
    }

    /// The dense row.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.width];
        self.densify_into(&mut out);
        out
    }
}

/// A per-column standardization `x_j = (v_j − μ_j)/σ_j`, precomputed
/// into the factors the folded product multiplies by.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Standardization {
    /// `1/σ_j`.
    inv_stds: Vec<f64>,
    /// `μ_j/σ_j` on folded columns, `0` on centred ones.
    shifts: Vec<f64>,
    /// `(j, μ_j)` for each centred column (`|μ_j| > σ_j`), ascending.
    centred: Vec<(usize, f64)>,
}

impl Standardization {
    /// From per-column means and standard deviations; every σ must be
    /// positive (the scaler's fit and restore guarantee it).
    pub fn new(means: &[f64], stds: &[f64]) -> Self {
        assert_eq!(means.len(), stds.len(), "one σ per mean");
        let inv_stds: Vec<f64> = stds
            .iter()
            .map(|&s| 1.0 / s.max(f64::MIN_POSITIVE))
            .collect();
        let mut centred = Vec::new();
        let shifts = (0..means.len())
            .map(|j| {
                if means[j].abs() > stds[j] {
                    centred.push((j, means[j]));
                    0.0
                } else {
                    means[j] * inv_stds[j]
                }
            })
            .collect();
        Self {
            inv_stds,
            shifts,
            centred,
        }
    }

    /// The centred columns, ascending.
    pub fn centred(&self) -> impl Iterator<Item = usize> + '_ {
        self.centred.iter().map(|&(j, _)| j)
    }
}

/// Call `f(j, x_j)` for every term of `row` the folded product
/// multiplies, in ascending `j`. Unscaled, these are the stored entries.
/// Under `scale` they are each stored entry of a folded column as
/// `v·(1/σ)`, and every centred column as `(v − μ)·(1/σ)`, with `v = 0`
/// where the row stores nothing.
fn for_each_term(row: &SparseRow, scale: Option<&Standardization>, mut f: impl FnMut(usize, f64)) {
    let Some(s) = scale else {
        return row.iter().for_each(|(j, v)| f(j, v));
    };
    let inv = s.inv_stds.as_slice();
    assert_eq!(row.len(), inv.len(), "row width disagrees with the scaler");
    let mut centred = s.centred.iter().peekable();
    for (j, v) in row.iter() {
        while let Some(&(c, mu)) = centred.next_if(|&&(c, _)| c < j) {
            f(c, -mu * inv[c]);
        }
        match centred.next_if(|&&(c, _)| c == j) {
            Some(&(_, mu)) => f(j, (v - mu) * inv[j]),
            None => f(j, v * inv[j]),
        }
    }
    for &(c, mu) in centred {
        f(c, -mu * inv[c]);
    }
}

/// `y += a·x`.
#[inline]
fn axpy<T: Scalar>(a: T, x: &[T], y: &mut [T]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

impl<T: Scalar> Dense<T> {
    /// `out = x·W + b` for the sparse rows `v`, standardized by `scale`
    /// (`x = (v − μ)/σ`) or used as they are (`None`), as the folded
    /// product (module docs). Each term `x_j` is computed in `f64` and
    /// narrowed once, like every input at the precision boundary.
    ///
    /// Per row the terms accumulate in ascending column order from zero
    /// and the bias row is added last, so without a scaler the result
    /// is bit-equal to [`Dense::forward_into`] on the dense rows.
    pub fn forward_sparse_into(
        &mut self,
        rows: &[SparseRow],
        scale: Option<&Standardization>,
        out: &mut Matrix<T>,
    ) {
        let (d, h) = (self.in_dim(), self.out_dim());
        let w = &self.w.value;
        // base = b − Σ_j (μ_j/σ_j)·W_j
        let base = &mut self.scratch;
        base.resize_to(1, h);
        if let Some(s) = scale {
            let width = s.inv_stds.len();
            crate::sanitize::check_shape("dense", "sparse_forward", width, d);
            assert_eq!(width, d, "scaler width disagrees with the layer");
            for (j, &shift) in s.shifts.iter().enumerate() {
                let c = T::from_f64(shift);
                if c != T::ZERO {
                    axpy(c, w.row(j), base.row_mut(0));
                }
            }
        }
        for (o, &b) in base.row_mut(0).iter_mut().zip(self.b.value.row(0)) {
            *o = b - *o;
        }
        out.resize_to(rows.len(), h);
        for (r, row) in rows.iter().enumerate() {
            crate::sanitize::check_shape("dense", "sparse_forward", row.len(), d);
            assert_eq!(row.len(), d, "sparse row width disagrees with the layer");
            let o = out.row_mut(r);
            for_each_term(row, scale, |j, x| axpy(T::from_f64(x), w.row(j), o));
            for (o, &b) in o.iter_mut().zip(base.row(0)) {
                *o += b;
            }
        }
        crate::sanitize::check_finite("dense", "sparse_forward", out);
    }
}

impl Dense {
    /// Backward of [`Dense::forward_sparse_into`]: accumulate
    /// `dW = xᵀ·g` and `db = Σ_r g_r`. For the folded columns the
    /// former is `diag(1/σ)·vᵀ·g − (μ/σ)ᵀ ⊗ Σ_r g_r`: one multiply-add
    /// per stored entry, then one rank-one correction per sample.
    pub fn backward_params_sparse(
        &mut self,
        rows: &[SparseRow],
        scale: Option<&Standardization>,
        grad_out: &Matrix,
    ) {
        assert_eq!(
            grad_out.rows(),
            rows.len(),
            "one gradient row per input row"
        );
        grad_out.sum_rows_into(&mut self.scratch);
        self.b.grad.add_assign(&self.scratch);
        let dw = &mut self.w.grad;
        for (r, row) in rows.iter().enumerate() {
            let g = grad_out.row(r);
            for_each_term(row, scale, |j, x| axpy(x, g, dw.row_mut(j)));
        }
        if let Some(s) = scale {
            let g_sum = self.scratch.row(0);
            for (j, &shift) in s.shifts.iter().enumerate() {
                axpy(-shift, g_sum, dw.row_mut(j));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_round_trip_drops_zeros_and_keeps_nan() {
        let dense = [0.0, 1.5, -0.0, f64::NAN, 0.0, -2.0, f64::INFINITY];
        let row = SparseRow::from_dense(&dense);
        assert_eq!(row.len(), 7);
        assert_eq!(row.values().len(), 4, "both zeros dropped");
        let cols: Vec<usize> = row.iter().map(|(j, _)| j).collect();
        assert_eq!(cols, vec![1, 3, 5, 6]);
        assert!(row.values()[1].is_nan(), "NaN is stored");
        let back = row.to_dense();
        for (j, (&a, &b)) in dense.iter().zip(&back).enumerate() {
            if a.is_nan() {
                assert!(b.is_nan(), "column {j}");
            } else {
                // -0.0 comes back as +0.0, equal under `==`.
                assert_eq!(a, b, "column {j}");
            }
        }
        assert_eq!(back[2].to_bits(), 0.0f64.to_bits(), "-0.0 is not stored");
    }

    #[test]
    fn an_all_zero_row_stores_nothing_but_keeps_its_width() {
        let row = SparseRow::from_dense(&[0.0; 5]);
        assert_eq!((row.len(), row.values().len()), (5, 0));
        assert_eq!(row.to_dense(), vec![0.0; 5]);
        assert!(SparseRow::default().is_empty());
    }
}
