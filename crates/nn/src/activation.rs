//! Elementwise activation layers.

use crate::tensor::{Matrix, Scalar};

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationKind {
    Sigmoid,
    Tanh,
    Relu,
}

/// An activation layer caching its output for backward.
#[derive(Debug, Clone)]
pub struct Activation {
    kind: ActivationKind,
    cache_y: Option<Matrix>,
    cache_x: Option<Matrix>,
}

impl Activation {
    /// Create an activation layer.
    pub fn new(kind: ActivationKind) -> Self {
        Self {
            kind,
            cache_y: None,
            cache_x: None,
        }
    }

    /// The function kind.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }

    /// Forward pass (caches what backward needs).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let y = self.forward_inference(x);
        match self.kind {
            ActivationKind::Relu => self.cache_x = Some(x.clone()),
            _ => self.cache_y = Some(y.clone()),
        }
        y
    }

    /// Forward pass without caching.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        match self.kind {
            ActivationKind::Sigmoid => x.map(stable_sigmoid),
            ActivationKind::Tanh => x.map(f64::tanh),
            ActivationKind::Relu => x.map(|v| v.max(0.0)),
        }
    }

    /// Backward pass: dy/dx ⊙ grad_out.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        match self.kind {
            ActivationKind::Sigmoid => {
                // lint: allow(unwrap) API contract: backward requires a prior forward; lint: allow(panic-reach) API contract, not a data-dependent failure
                let y = self.cache_y.as_ref().expect("backward before forward");
                grad_out.zip(y, |g, yv| g * yv * (1.0 - yv))
            }
            ActivationKind::Tanh => {
                // lint: allow(unwrap) API contract: backward requires a prior forward; lint: allow(panic-reach) API contract, not a data-dependent failure
                let y = self.cache_y.as_ref().expect("backward before forward");
                grad_out.zip(y, |g, yv| g * (1.0 - yv * yv))
            }
            ActivationKind::Relu => {
                // lint: allow(unwrap) API contract: backward requires a prior forward; lint: allow(panic-reach) API contract, not a data-dependent failure
                let x = self.cache_x.as_ref().expect("backward before forward");
                grad_out.zip(x, |g, xv| if xv > 0.0 { g } else { 0.0 })
            }
        }
    }
}

/// Numerically-stable sigmoid, at either width: `exp` only ever sees a
/// non-positive argument, so it cannot overflow.
pub fn stable_sigmoid<T: Scalar>(x: T) -> T {
    if x >= T::ZERO {
        T::ONE / (T::ONE + (-x).exp())
    } else {
        let e = x.exp();
        e / (T::ONE + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use crate::param::Param;

    fn check(kind: ActivationKind) {
        let mut a = Activation::new(kind);
        // Offset away from the ReLU kink to keep finite differences valid.
        let x = Matrix::xavier_seeded(4, 5, 9).map(|v| v * 3.0 + 0.11);
        check_gradients(
            &x,
            |l: &mut Activation, input| l.forward(input),
            |l, g| l.backward(g),
            |_| Vec::<&mut Param>::new(),
            &mut a,
            1e-6,
            1e-6,
        );
    }

    #[test]
    fn sigmoid_gradcheck() {
        check(ActivationKind::Sigmoid);
    }

    #[test]
    fn tanh_gradcheck() {
        check(ActivationKind::Tanh);
    }

    #[test]
    fn relu_gradcheck() {
        check(ActivationKind::Relu);
    }

    #[test]
    fn forward_values() {
        let mut a = Activation::new(ActivationKind::Relu);
        let y = a.forward(&Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]));
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);

        let mut s = Activation::new(ActivationKind::Sigmoid);
        let y = s.forward(&Matrix::from_vec(1, 1, vec![0.0]));
        assert!((y.get(0, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stable_sigmoid_is_stable_at_both_widths() {
        assert!((stable_sigmoid(0.0f32) - 0.5).abs() < 1e-7);
        assert!(stable_sigmoid(100.0f32) > 0.999);
        assert!(stable_sigmoid(-100.0f32) < 1e-3);
        for x in [-1000.0f64, 1000.0] {
            assert!(stable_sigmoid(x).is_finite());
            assert!(stable_sigmoid(x as f32).is_finite());
        }
    }
}
