//! Fully-connected layer `y = x·W + b`.

use crate::param::Param;
use crate::tensor::{Matrix, Scalar};

/// A dense (feed-forward) layer. The forward keeps no state: backward
/// takes the forward's input from the caller, who holds it anyway.
#[derive(Debug, Clone)]
pub struct Dense<T: Scalar = f64> {
    /// `in × out` weight.
    pub w: Param<T>,
    /// `1 × out` bias.
    pub b: Param<T>,
}

impl<T: Scalar> Dense<T> {
    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.value.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.value.cols()
    }

    /// Forward pass into a caller-owned buffer (resized as needed).
    pub fn forward_into(&self, x: &Matrix<T>, out: &mut Matrix<T>) {
        crate::sanitize::check_shape("dense", "forward", x.cols(), self.in_dim());
        x.matmul_into(&self.w.value, out);
        out.add_row_broadcast_assign(&self.b.value);
        crate::sanitize::check_finite("dense", "forward", out);
    }

    /// Forward pass.
    pub fn forward(&self, x: &Matrix<T>) -> Matrix<T> {
        let mut out = Matrix::default();
        self.forward_into(x, &mut out);
        out
    }
}

impl Dense {
    /// Create with Xavier weights.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Self {
            w: Param::xavier(in_dim, out_dim, seed),
            b: Param::zeros(1, out_dim),
        }
    }

    /// Backward pass for the forward that saw input `x`: accumulate dW,
    /// db; return dx.
    ///
    /// Gradients are computed into fresh matrices and then `add_assign`ed —
    /// never fused into the accumulator — so the floating-point grouping
    /// matches the allocating formulation exactly.
    pub fn backward(&mut self, x: &Matrix, grad_out: &Matrix) -> Matrix {
        self.backward_params(x, grad_out);
        // dx = g · Wᵀ
        grad_out.matmul_t(&self.w.value)
    }

    /// [`Dense::backward`] without the input gradient, for a layer whose
    /// input is data rather than another layer's output: accumulate dW
    /// and db only.
    pub fn backward_params(&mut self, x: &Matrix, grad_out: &Matrix) {
        // dW = xᵀ · g ; db = Σ_rows g
        self.w.grad.add_assign(&x.t_matmul(grad_out));
        self.b.grad.add_assign(&grad_out.sum_rows());
    }

    /// Trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    /// Shared view of the trainable parameters, in the same order as
    /// [`Dense::params_mut`] (used by the snapshot writer).
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }

    /// The `f32` copy of this layer, weights narrowed once.
    pub fn to_f32(&self) -> Dense<f32> {
        Dense {
            w: self.w.to_f32(),
            b: self.b.to_f32(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;

    #[test]
    fn forward_shape_and_value() {
        let mut d = Dense::new(2, 3, 0);
        // Set known weights.
        d.w.value = Matrix::from_vec(2, 3, vec![1., 0., 2., 0., 1., 1.]);
        d.b.value = Matrix::from_vec(1, 3, vec![0.5, -0.5, 0.0]);
        let x = Matrix::from_vec(1, 2, vec![2., 3.]);
        let y = d.forward(&x);
        assert_eq!(y.data(), &[2.5, 2.5, 7.0]);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut d = Dense::new(4, 3, 1);
        let x = Matrix::xavier_seeded(5, 4, 2);
        check_gradients(
            &x,
            |layer: &mut Dense, input| layer.forward(input),
            |layer, g| layer.backward(&x, g),
            |layer| layer.params_mut(),
            &mut d,
            1e-5,
            1e-6,
        );
    }

    #[test]
    fn backward_params_accumulates_what_backward_does() {
        let x = Matrix::xavier_seeded(6, 5, 4);
        let g = Matrix::xavier_seeded(6, 3, 5);
        let (mut full, mut params_only) = (Dense::new(5, 3, 6), Dense::new(5, 3, 6));
        for _ in 0..2 {
            let _ = full.backward(&x, &g);
            params_only.backward_params(&x, &g);
        }
        assert_eq!(full.w.grad.data(), params_only.w.grad.data());
        assert_eq!(full.b.grad.data(), params_only.b.grad.data());
    }

    #[test]
    fn forward_into_reuses_a_dirty_buffer_without_changing_bits() {
        let d = Dense::new(3, 2, 3);
        let x = Matrix::xavier_seeded(4, 3, 4);
        let mut out = Matrix::from_fn(7, 7, |r, c| (r * 7 + c) as f64);
        d.forward_into(&x, &mut out);
        assert_eq!(out, d.forward(&x));
    }

    #[test]
    fn f32_forward_tracks_f64_layer() {
        let d = Dense::new(7, 4, 3);
        let x = Matrix::xavier_seeded(5, 7, 8);
        let want = d.forward(&x);
        let d32 = d.to_f32();
        assert_eq!((d32.in_dim(), d32.out_dim()), (7, 4));
        let got = d32.forward(&Matrix::<f32>::from_f64(&x)).to_f64();
        let gap = want
            .sub(&got)
            .data()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(gap < 1e-5, "f32 dense drifted by {gap}");
    }
}
