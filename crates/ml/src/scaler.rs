//! Feature standardization (zero mean, unit variance), as applied before
//! PCA and the margin-based classifiers.

use crate::linalg::{column_means, column_stds};

/// A fitted standard scaler.
#[derive(Debug, Clone, Default)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fit on a row-major matrix, owned rows or borrowed.
    pub fn fit<R: AsRef<[f64]>>(x: &[R]) -> Self {
        let means = column_means(x);
        let mut stds = column_stds(x, &means);
        // Constant columns scale to 0 after centering; avoid div-by-zero.
        for s in &mut stds {
            if *s <= 0.0 {
                *s = 1.0;
            }
        }
        Self { means, stds }
    }

    /// Transform a single row.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; row.len()];
        self.transform_row_into(row, &mut out, |v| v);
        out
    }

    /// [`StandardScaler::transform_row`] into a caller-owned buffer,
    /// passing each standardized value through `map` (e.g. a narrowing
    /// cast).
    pub fn transform_row_into<T>(&self, row: &[f64], out: &mut [T], map: impl Fn(f64) -> T) {
        assert_eq!(
            row.len(),
            self.means.len(),
            "row width disagrees with the fit"
        );
        for (((o, &v), &m), &s) in out.iter_mut().zip(row).zip(&self.means).zip(&self.stds) {
            *o = map((v - m) / s);
        }
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
    /// serialization). Constant columns were already clamped to 1 by
    /// [`StandardScaler::fit`].
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Rebuild a scaler from previously exported statistics. Returns
    /// `None` when the two vectors disagree in length (a malformed
    /// snapshot, never a fit result).
    pub fn from_parts(means: Vec<f64>, stds: Vec<f64>) -> Option<Self> {
        if means.len() != stds.len() {
            return None;
        }
        Some(Self { means, stds })
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
    fn fit_over_borrowed_rows_is_bit_equal_to_owned() {
        let owned: Vec<Vec<f64>> = (0..9)
            .map(|r| {
                (0..5)
                    .map(|c| ((r * 7 + c * 3) % 11) as f64 * 0.37 - 1.1)
                    .collect()
            })
            .collect();
        let borrowed: Vec<&[f64]> = owned.iter().map(Vec::as_slice).collect();
        let (a, b) = (StandardScaler::fit(&owned), StandardScaler::fit(&borrowed));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.means()), bits(b.means()));
        assert_eq!(bits(a.stds()), bits(b.stds()));
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
