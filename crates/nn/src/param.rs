//! Trainable parameters: value + accumulated gradient + Adam moments.

use crate::tensor::{Matrix, Scalar};

/// A trainable parameter tensor.
///
/// The gradient is *accumulated* by `backward` passes and must be cleared
/// with [`Param::zero_grad`] between steps (the optimizers do this after
/// applying an update). Only `f64` parameters train; an `f32` one is a
/// narrowed value with empty gradient state (see [`Param::to_f32`]).
#[derive(Debug, Clone)]
pub struct Param<T: Scalar = f64> {
    /// Current value.
    pub value: Matrix<T>,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Matrix<T>,
    /// Adam first moment.
    pub(crate) m: Matrix<T>,
    /// Adam second moment.
    pub(crate) v: Matrix<T>,
}

impl<T: Scalar> Param<T> {
    /// Number of scalar weights.
    pub fn len(&self) -> usize {
        self.value.rows() * self.value.cols()
    }

    /// True for an empty parameter (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Param {
    /// Wrap an initial value.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        let m = grad.clone();
        let v = grad.clone();
        Self { value, grad, m, v }
    }

    /// Xavier-initialized parameter.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        Self::new(Matrix::xavier_seeded(rows, cols, seed))
    }

    /// Zero-initialized parameter (biases).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::new(Matrix::zeros(rows, cols))
    }

    /// Clear the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// The value narrowed to `f32` for the inference tier. The gradient
    /// and moments stay empty: `f32` never trains.
    pub fn to_f32(&self) -> Param<f32> {
        Param {
            value: Matrix::from_f64(&self.value),
            grad: Matrix::default(),
            m: Matrix::default(),
            v: Matrix::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::xavier(3, 4, 0);
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.len(), 12);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::zeros(2, 2);
        p.grad.set(0, 0, 5.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
