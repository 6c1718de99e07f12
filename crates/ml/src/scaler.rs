//! Feature standardization (zero mean, unit variance), as applied before
//! PCA and the margin-based classifiers.

use nn::{SparseRow, Standardization};

/// A fitted standard scaler.
#[derive(Debug, Clone, Default)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
    /// `1/σ`, `μ/σ` and the centred columns, for a folded product.
    standardization: Standardization,
}

impl StandardScaler {
    /// Fit on a row-major matrix, owned rows or borrowed.
    pub fn fit<R: AsRef<[f64]>>(x: &[R]) -> Self {
        Self::fit_visiting(|visit| x.iter().for_each(|r| visit(r.as_ref())))
    }

    /// [`StandardScaler::fit`] over sparse rows. Each row is scattered
    /// into one dense scratch row in turn, so every column sums its rows
    /// in the same order and the fit is bit-equal to the dense one.
    pub fn fit_sparse(rows: &[&SparseRow]) -> Self {
        let mut dense = Vec::new();
        Self::fit_visiting(|visit| {
            for row in rows {
                dense.resize(row.len(), 0.0);
                row.densify_into(&mut dense);
                visit(&dense);
            }
        })
    }

    /// Per-column population mean and standard deviation over the rows
    /// `rows` visits, in two passes, each in row order.
    ///
    /// A column whose values are all equal fits that value with σ = 1,
    /// so it scales to exactly 0. Its summed mean would not be exact
    /// (8,000 rows of 0.2 average to 0.20000000000002835), and σ would
    /// come out as the rounding error, ≈3e-14, instead of 0.
    fn fit_visiting(mut rows: impl FnMut(&mut dyn FnMut(&[f64]))) -> Self {
        let mut n = 0usize;
        let (mut sums, mut first, mut constant) = (Vec::new(), Vec::new(), Vec::new());
        rows(&mut |row| {
            if n == 0 {
                sums = vec![0.0; row.len()];
                first = row.to_vec();
                constant = vec![true; row.len()];
            }
            for (((s, c), &v), &f) in sums.iter_mut().zip(&mut constant).zip(row).zip(&first) {
                *s += v;
                // Constant: every value has the first row's bits.
                *c &= v.to_bits() == f.to_bits();
            }
            n += 1;
        });
        let count = n.max(1) as f64;
        let mut means: Vec<f64> = sums.iter().map(|s| s / count).collect();
        let mut squares = vec![0.0; means.len()];
        rows(&mut |row| {
            for ((q, &v), &m) in squares.iter_mut().zip(row).zip(&means) {
                let d = v - m;
                *q += d * d;
            }
        });
        let mut stds: Vec<f64> = squares
            .iter()
            .map(|q| (q / count).max(0.0).sqrt())
            .collect();
        for (((m, s), &c), &f) in means.iter_mut().zip(&mut stds).zip(&constant).zip(&first) {
            if c {
                (*m, *s) = (f, 1.0);
            } else if *s <= 0.0 {
                // Distinct values whose spread underflows.
                *s = 1.0;
            }
        }
        Self::from_stats(means, stds)
    }

    fn from_stats(means: Vec<f64>, stds: Vec<f64>) -> Self {
        let standardization = Standardization::new(&means, &stds);
        Self {
            means,
            stds,
            standardization,
        }
    }

    /// Transform a single row.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(
            row.len(),
            self.means.len(),
            "row width disagrees with the fit"
        );
        row.iter()
            .zip(&self.means)
            .zip(&self.stds)
            .map(|((&v, &m), &s)| (v - m) / s)
            .collect()
    }

    /// Transform a batch.
    pub fn transform(&self, x: &[Vec<f64>]) -> Vec<Vec<f64>> {
        x.iter().map(|r| self.transform_row(r)).collect()
    }

    /// Fit and transform in one step.
    pub fn fit_transform(x: &[Vec<f64>]) -> (Self, Vec<Vec<f64>>) {
        let s = Self::fit(x);
        let t = s.transform(x);
        (s, t)
    }

    /// Per-column means of the fit (snapshot serialization).
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-column standard deviations of the fit (snapshot
    /// serialization). Constant columns have σ = 1 (see
    /// [`StandardScaler::fit`]).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Rebuild a scaler from previously exported statistics. Returns
    /// `None` unless the two vectors agree in length, every mean is
    /// finite and every σ is finite and positive: anything else would
    /// divide by zero or poison every row it scales.
    pub fn from_parts(means: Vec<f64>, stds: Vec<f64>) -> Option<Self> {
        let valid = means.len() == stds.len()
            && means.iter().all(|m| m.is_finite())
            && stds.iter().all(|&s| s.is_finite() && s > 0.0);
        valid.then(|| Self::from_stats(means, stds))
    }

    /// The fit as the factors [`nn::Dense::forward_sparse_into`]
    /// multiplies by, computed once at fit or restore.
    pub fn standardization(&self) -> &Standardization {
        &self.standardization
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_to_zero_mean_unit_var() {
        let x = vec![vec![1.0], vec![3.0], vec![5.0]];
        let (_, t) = StandardScaler::fit_transform(&x);
        let mean: f64 = t.iter().map(|r| r[0]).sum::<f64>() / 3.0;
        let var: f64 = t.iter().map(|r| r[0] * r[0]).sum::<f64>() / 3.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_column_maps_to_zero() {
        let x = vec![vec![7.0], vec![7.0]];
        let (_, t) = StandardScaler::fit_transform(&x);
        assert_eq!(t[0][0], 0.0);
        assert_eq!(t[1][0], 0.0);
    }

    #[test]
    fn constant_column_with_an_inexact_sum_maps_to_zero() {
        // 8,000 × 0.2 does not sum exactly: the averaged mean is off by
        // ≈3e-14, and a σ fitted from that mean would be the error.
        let x = vec![vec![0.2, 1.0]; 8000];
        let s = StandardScaler::fit(&x);
        assert_eq!((s.means()[0], s.stds()[0]), (0.2, 1.0));
        assert_eq!(s.transform_row(&[0.2, 1.0]), vec![0.0, 0.0]);
        // Another value keeps its deviation at unit scale.
        assert!((s.transform_row(&[0.7, 1.0])[0] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn from_parts_rejects_statistics_that_cannot_scale() {
        let ok = || (vec![0.5, -1.0], vec![2.0, 0.25]);
        assert!(StandardScaler::from_parts(ok().0, ok().1).is_some());
        assert!(StandardScaler::from_parts(vec![0.5], ok().1).is_none());
        for bad_std in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let (m, mut s) = ok();
            s[1] = bad_std;
            assert!(StandardScaler::from_parts(m, s).is_none(), "σ = {bad_std}");
        }
        for bad_mean in [f64::NAN, f64::NEG_INFINITY] {
            let (mut m, s) = ok();
            m[0] = bad_mean;
            assert!(StandardScaler::from_parts(m, s).is_none(), "μ = {bad_mean}");
        }
    }

    #[test]
    fn fit_over_borrowed_rows_is_bit_equal_to_owned() {
        // Mostly zeros, as candidate rows are, so the sparse fit has
        // gaps to fill; column 4 is all zeros.
        let owned: Vec<Vec<f64>> = (0..9)
            .map(|r| {
                (0..5)
                    .map(|c| match (r * 7 + c * 3) % 11 {
                        k if k < 4 && c < 4 => k as f64 * 0.37 - 1.1,
                        _ => 0.0,
                    })
                    .collect()
            })
            .collect();
        let borrowed: Vec<&[f64]> = owned.iter().map(Vec::as_slice).collect();
        let sparse: Vec<SparseRow> = owned.iter().map(|r| SparseRow::from_dense(r)).collect();
        let sparse_refs: Vec<&SparseRow> = sparse.iter().collect();
        let a = StandardScaler::fit(&owned);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for b in [
            StandardScaler::fit(&borrowed),
            StandardScaler::fit_sparse(&sparse_refs),
        ] {
            assert_eq!(bits(a.means()), bits(b.means()));
            assert_eq!(bits(a.stds()), bits(b.stds()));
        }
    }

    #[test]
    fn fits_population_means_and_stds() {
        let s = StandardScaler::fit(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        assert_eq!(s.means(), &[2.0, 4.0]);
        assert_eq!(s.stds(), &[1.0, 2.0]);
    }

    #[test]
    fn transform_uses_training_stats() {
        let x = vec![vec![0.0], vec![2.0]];
        let s = StandardScaler::fit(&x);
        let out = s.transform_row(&[4.0]);
        // mean 1, std 1 -> (4-1)/1 = 3
        assert!((out[0] - 3.0).abs() < 1e-12);
    }
}
