//! Simple (Elman) RNN — the paper reports "performance degraded with
//! simple RNN" vs the GRU head of RETINA-D; this backs that ablation.
//!
//! `h_t = tanh(x_t·W + h_{t−1}·U + b)`

use crate::activation::{gate_into, InputGrads};
use crate::param::Param;
use crate::tensor::{Matrix, Scalar};

/// A single-layer tanh RNN.
#[derive(Debug, Clone)]
pub struct SimpleRnn<T: Scalar = f64> {
    pub w: Param<T>,
    pub u: Param<T>,
    pub b: Param<T>,
    in_dim: usize,
    hidden: usize,
    /// Activations of the last forward (`None` before the first); the
    /// next forward overwrites them in place.
    cache: Option<Cache<T>>,
}

#[derive(Debug, Clone, Default)]
struct Cache<T: Scalar> {
    xs: Vec<Matrix<T>>, // one per step, or one for every step
    hs: Vec<Matrix<T>>, // h_0..h_T (T+1 entries)
}

impl<T: Scalar> SimpleRnn<T> {
    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Forward over a sequence; returns `h_1..h_T`, valid until the next
    /// call.
    ///
    /// Built on `*_into` kernels, overwriting the previous call's
    /// activations in place; the per-element arithmetic order matches
    /// the allocating formulation exactly.
    pub fn forward(&mut self, xs: &[Matrix<T>]) -> &[Matrix<T>] {
        self.unroll(xs, xs.len())
    }

    /// Forward over `steps` steps that all see the input `x`: `x·W` is
    /// computed once, and the hidden states equal [`SimpleRnn::forward`]
    /// on `steps` copies of `x` bit for bit.
    pub fn forward_repeated(&mut self, x: &Matrix<T>, steps: usize) -> &[Matrix<T>] {
        self.unroll(std::slice::from_ref(x), steps)
    }

    /// The forward body over `xs`, one input per step or one for every
    /// step (projected once).
    fn unroll(&mut self, xs: &[Matrix<T>], steps: usize) -> &[Matrix<T>] {
        assert!(steps > 0, "RNN needs a non-empty sequence");
        let c = self.cache.get_or_insert_with(Cache::default);
        c.xs.resize_with(xs.len(), Matrix::default);
        c.hs.resize_with(steps + 1, Matrix::default);
        c.hs[0].resize_to(xs[0].rows(), self.hidden);
        let mut xw = Matrix::default();
        for t in 0..steps {
            if let Some(x) = xs.get(t) {
                c.xs[t].copy_from(x);
                x.matmul_into(&self.w.value, &mut xw);
            }
            let (done, rest) = c.hs.split_at_mut(t + 1);
            gate_into(&xw, &done[t], (&self.u, &self.b), T::tanh, &mut rest[0]);
        }
        &c.hs[1..]
    }

    /// Hidden states `h_1..h_T` of the last forward (empty before the
    /// first).
    pub fn outputs(&self) -> &[Matrix<T>] {
        self.cache.as_ref().map_or(&[], |c| &c.hs[1..])
    }
}

impl SimpleRnn {
    /// Create with Xavier weights.
    pub fn new(in_dim: usize, hidden: usize, seed: u64) -> Self {
        Self {
            w: Param::xavier(in_dim, hidden, seed),
            u: Param::xavier(hidden, hidden, seed.wrapping_add(1)),
            b: Param::zeros(1, hidden),
            in_dim,
            hidden,
            cache: None,
        }
    }

    /// Full BPTT backward. Returns the gradient on each input of the last
    /// forward: one per step, or after [`SimpleRnn::forward_repeated`] the
    /// one `x`'s, with the input terms collapsed across steps as in
    /// [`crate::Gru::backward`].
    ///
    /// Parameter gradients are computed into a temporary then
    /// `add_assign`ed, preserving the allocating formulation's
    /// floating-point grouping.
    pub fn backward(&mut self, grad_hs: &[Matrix]) -> Vec<Matrix> {
        // lint: allow(unwrap) API contract: backward requires a prior forward; lint: allow(panic-reach) API contract, not a data-dependent failure
        let cache = self.cache.as_ref().expect("backward before forward");
        let t_len = grad_hs.len();
        assert_eq!(cache.hs.len(), t_len + 1);
        let batch = cache.hs[0].rows();
        let mut input = InputGrads::new(cache.xs.len(), t_len, batch, self.hidden);
        let mut dh_next = Matrix::zeros(batch, self.hidden);
        let mut tmp = Matrix::default();

        for t in (0..t_len).rev() {
            let h = &cache.hs[t + 1];
            let h_prev = &cache.hs[t];
            let mut dr = grad_hs[t].clone();
            dr.add_assign(&dh_next);
            dr.zip_assign(h, |g, hv| g * (1.0 - hv * hv));
            h_prev.t_matmul_into(&dr, &mut tmp);
            self.u.grad.add_assign(&tmp);
            dr.sum_rows_into(&mut tmp);
            self.b.grad.add_assign(&tmp);
            dr.matmul_t_into(&self.u.value, &mut dh_next);
            input.step(t, &cache.xs, [&mut self.w], [&dr]);
        }
        input.finish(&cache.xs, [&mut self.w])
    }

    /// Trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.u, &mut self.b]
    }

    /// Shared view of the trainable parameters, in the same order as
    /// [`SimpleRnn::params_mut`] (used by the snapshot writer).
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.u, &self.b]
    }

    /// The forward-only `f32` copy of this RNN, weights narrowed once.
    pub fn to_f32(&self) -> SimpleRnn<f32> {
        SimpleRnn {
            w: self.w.to_f32(),
            u: self.u.to_f32(),
            b: self.b.to_f32(),
            in_dim: self.in_dim,
            hidden: self.hidden,
            cache: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::seq::check_recurrent_gradients;

    #[test]
    fn output_shapes() {
        let mut rnn = SimpleRnn::new(2, 3, 0);
        let xs: Vec<Matrix> = (0..4).map(|i| Matrix::xavier_seeded(2, 2, i)).collect();
        let hs = rnn.forward(&xs);
        assert_eq!(hs.len(), 4);
        assert_eq!((hs[0].rows(), hs[0].cols()), (2, 3));
    }

    #[test]
    fn gradcheck_full_bptt() {
        let mut rnn = SimpleRnn::new(3, 4, 5);
        let xs: Vec<Matrix> = (0..4)
            .map(|i| Matrix::xavier_seeded(2, 3, 70 + i).scaled(2.0))
            .collect();
        check_recurrent_gradients(
            &xs,
            |l: &mut SimpleRnn, seq| l.forward(seq).to_vec(),
            |l, g| l.backward(g),
            |l| l.params_mut(),
            &mut rnn,
            1e-6,
            1e-5,
        );
    }

    #[test]
    fn f32_forward_tracks_f64_layer() {
        let xs: Vec<Matrix> = (0..4)
            .map(|i| Matrix::xavier_seeded(3, 5, 40 + i))
            .collect();
        let mut rnn = SimpleRnn::new(5, 6, 9);
        let want = rnn.forward(&xs).to_vec();
        let mut rnn32 = rnn.to_f32();
        let xs32: Vec<Matrix<f32>> = xs.iter().map(Matrix::from_f64).collect();
        let got = rnn32.forward(&xs32);
        assert_eq!(got.len(), want.len());
        for (w, g) in want.iter().zip(got) {
            let gap = w
                .sub(&g.to_f64())
                .data()
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(gap < 1e-5, "f32 RNN drifted by {gap}");
        }
    }

    #[test]
    fn outputs_bounded_by_tanh() {
        let mut rnn = SimpleRnn::new(2, 3, 1);
        let xs = vec![Matrix::from_vec(1, 2, vec![100.0, -100.0])];
        let hs = rnn.forward(&xs);
        assert!(hs[0].data().iter().all(|v| v.abs() <= 1.0));
    }
}
