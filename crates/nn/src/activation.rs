//! Elementwise activation layers.

use crate::param::Param;
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

/// One recurrent gate, `out = act(x·W + h·U + b)`, from the gate's input
/// projection `xw = x·W`. The GRU, LSTM and RNN forwards project each
/// input once, so an input repeated over the steps is projected once for
/// all of them. `h·U` is written into `out` and `xw` added to it: float
/// addition commutes, so the sum has the bits of `x·W + h·U`.
pub(crate) fn gate_into<T: Scalar>(
    xw: &Matrix<T>,
    h: &Matrix<T>,
    (u, b): (&Param<T>, &Param<T>),
    act: impl Fn(T) -> T,
    out: &mut Matrix<T>,
) {
    h.matmul_into(&u.value, out);
    out.add_assign(xw);
    out.add_row_broadcast_assign(&b.value);
    out.map_assign(act);
}

/// The input side of a recurrent backward: for gates `g` in the
/// forward's order, `dW_g += xᵀ·dg_g` and `dx = Σ_g dg_g·W_gᵀ`, where
/// `dg_g` is the gate's pre-activation gradient. After a sequence
/// forward each step applies them with its own input. After a repeated
/// forward each step only adds its `dg_g` to a per-gate sum, and
/// [`InputGrads::finish`] applies them once with the shared input: one
/// `xᵀ·Σ_t dg_t` and one `(Σ_t dg_t)·Wᵀ` per gate instead of one of each
/// per step. That regroups the sums over steps, so the repeated path
/// matches the per-step terms to rounding, not bit for bit.
pub(crate) struct InputGrads<const G: usize> {
    /// One per input of the forward.
    dxs: Vec<Matrix>,
    /// `Σ_t dg_t` per gate, after a repeated forward.
    sums: Option<[Matrix; G]>,
    tmp: Matrix,
}

impl<const G: usize> InputGrads<G> {
    /// For a backward over `steps` steps of a forward that took `inputs`
    /// inputs (one per step, or one for every step), with `rows × hidden`
    /// gates.
    pub(crate) fn new(inputs: usize, steps: usize, rows: usize, hidden: usize) -> Self {
        Self {
            dxs: (0..inputs).map(|_| Matrix::zeros(0, 0)).collect(),
            sums: (inputs < steps).then(|| [(); G].map(|()| Matrix::zeros(rows, hidden))),
            tmp: Matrix::default(),
        }
    }

    /// Step `t`'s gate gradients `dgs`, with the weights `ws` in the same
    /// order; `xs` holds the forward's inputs.
    pub(crate) fn step(&mut self, t: usize, xs: &[Matrix], ws: [&mut Param; G], dgs: [&Matrix; G]) {
        debug_assert_eq!(xs.len(), self.dxs.len(), "one gradient per input");
        match &mut self.sums {
            Some(sums) => {
                for (sum, dg) in sums.iter_mut().zip(dgs) {
                    sum.add_assign(dg);
                }
            }
            None => apply_input_grads(&xs[t], ws, dgs, &mut self.dxs[t], &mut self.tmp),
        }
    }

    /// The input gradients, one per input of the forward.
    pub(crate) fn finish(mut self, xs: &[Matrix], ws: [&mut Param; G]) -> Vec<Matrix> {
        debug_assert_eq!(xs.len(), self.dxs.len(), "one gradient per input");
        if let Some(sums) = &self.sums {
            apply_input_grads(&xs[0], ws, sums.each_ref(), &mut self.dxs[0], &mut self.tmp);
        }
        self.dxs
    }
}

/// `dW_g += xᵀ·dg_g` for each gate and `dx = Σ_g dg_g·W_gᵀ`, summed in
/// gate order. `tmp` is scratch.
fn apply_input_grads<const G: usize>(
    x: &Matrix,
    ws: [&mut Param; G],
    dgs: [&Matrix; G],
    dx: &mut Matrix,
    tmp: &mut Matrix,
) {
    for (g, (w, dg)) in ws.into_iter().zip(dgs).enumerate() {
        x.t_matmul_into(dg, tmp);
        w.grad.add_assign(tmp);
        if g == 0 {
            dg.matmul_t_into(&w.value, dx);
        } else {
            dg.matmul_t_into(&w.value, tmp);
            dx.add_assign(tmp);
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
