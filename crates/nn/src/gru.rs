//! Gated Recurrent Unit over sequences of `batch × in` matrices.
//!
//! RETINA-D replaces the final feed-forward layer with a GRU so that the
//! retweet probability of a user in interval `j` depends on the hidden
//! state carried from intervals `< j` (Fig. 4c). Standard formulation:
//!
//! ```text
//! z_t = σ(x_t·W_z + h_{t−1}·U_z + b_z)          (update gate)
//! r_t = σ(x_t·W_r + h_{t−1}·U_r + b_r)          (reset gate)
//! ĥ_t = tanh(x_t·W_h + (r_t ⊙ h_{t−1})·U_h + b_h)
//! h_t = (1 − z_t) ⊙ h_{t−1} + z_t ⊙ ĥ_t
//! ```
//!
//! Backward is full BPTT; exactness is proven by finite differences in the
//! tests.

use crate::activation::{gate_into, InputGrads};
use crate::param::Param;
use crate::tensor::{Matrix, Scalar};

/// A single-layer GRU.
#[derive(Debug, Clone)]
pub struct Gru<T: Scalar = f64> {
    pub wz: Param<T>,
    pub uz: Param<T>,
    pub bz: Param<T>,
    pub wr: Param<T>,
    pub ur: Param<T>,
    pub br: Param<T>,
    pub wh: Param<T>,
    pub uh: Param<T>,
    pub bh: Param<T>,
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
    zs: Vec<Matrix<T>>,
    rs: Vec<Matrix<T>>,
    h_hats: Vec<Matrix<T>>,
}

impl<T: Scalar> Gru<T> {
    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Forward over a sequence; returns hidden states `h_1..h_T`, valid
    /// until the next call.
    ///
    /// Gate pre-activations are built with `*_into` kernels and in-place
    /// elementwise ops, overwriting the previous call's activations; a
    /// call allocates only its three input projections and two
    /// temporaries. The per-element arithmetic order matches the
    /// allocating formulation exactly.
    pub fn forward(&mut self, xs: &[Matrix<T>]) -> &[Matrix<T>] {
        self.unroll(xs, xs.len())
    }

    /// Forward over `steps` steps that all see the input `x` (RETINA-D's
    /// intervals). Each gate's `x·W` is computed once and reused at every
    /// step; the steps run the sequence forward's body, so the hidden
    /// states equal [`Gru::forward`] on `steps` copies of `x` bit for bit.
    pub fn forward_repeated(&mut self, x: &Matrix<T>, steps: usize) -> &[Matrix<T>] {
        self.unroll(std::slice::from_ref(x), steps)
    }

    /// The forward body: `steps` steps over `xs`, which holds one input
    /// per step or one input for every step. A step projects its input
    /// only when it has its own, so a repeated input is projected once.
    fn unroll(&mut self, xs: &[Matrix<T>], steps: usize) -> &[Matrix<T>] {
        assert!(steps > 0, "GRU needs a non-empty sequence");
        crate::sanitize::check_shape("gru", "forward", xs[0].cols(), self.in_dim);
        let c = self.cache.get_or_insert_with(Cache::default);
        c.xs.resize_with(xs.len(), Matrix::default);
        for v in [&mut c.zs, &mut c.rs, &mut c.h_hats] {
            v.resize_with(steps, Matrix::default);
        }
        c.hs.resize_with(steps + 1, Matrix::default);
        c.hs[0].resize_to(xs[0].rows(), self.hidden);
        let [mut xz, mut xr, mut xh, mut rh, mut tmp]: [Matrix<T>; 5] = Default::default();

        for t in 0..steps {
            if let Some(x) = xs.get(t) {
                c.xs[t].copy_from(x);
                x.matmul_into(&self.wz.value, &mut xz);
                x.matmul_into(&self.wr.value, &mut xr);
                x.matmul_into(&self.wh.value, &mut xh);
            }
            let (done, rest) = c.hs.split_at_mut(t + 1);
            let (h_prev, h) = (&done[t], &mut rest[0]);
            let (z, r, h_hat) = (&mut c.zs[t], &mut c.rs[t], &mut c.h_hats[t]);
            // z = σ(x·Wz + h·Uz + bz) ; r = σ(x·Wr + h·Ur + br)
            gate_into(&xz, h_prev, (&self.uz, &self.bz), T::sigmoid, z);
            gate_into(&xr, h_prev, (&self.ur, &self.br), T::sigmoid, r);
            // ĥ = tanh(x·Wh + (r ⊙ h)·Uh + bh)
            rh.copy_from(r);
            rh.hadamard_assign(h_prev);
            gate_into(&xh, &rh, (&self.uh, &self.bh), T::tanh, h_hat);
            // h = (1−z) ⊙ h_prev + z ⊙ ĥ
            h.copy_from(h_prev);
            h.zip_assign(z, |hp, zv| (T::ONE - zv) * hp);
            tmp.copy_from(z);
            tmp.hadamard_assign(h_hat);
            h.add_assign(&tmp);
            crate::sanitize::check_finite("gru", "step", h);
        }
        &c.hs[1..]
    }

    /// Hidden states `h_1..h_T` of the last forward (empty before the
    /// first).
    pub fn outputs(&self) -> &[Matrix<T>] {
        self.cache.as_ref().map_or(&[], |c| &c.hs[1..])
    }
}

impl Gru {
    /// Create with Xavier weights.
    pub fn new(in_dim: usize, hidden: usize, seed: u64) -> Self {
        let p = |i: u64, r: usize, c: usize| Param::xavier(r, c, seed.wrapping_add(i));
        Self {
            wz: p(0, in_dim, hidden),
            uz: p(1, hidden, hidden),
            bz: Param::zeros(1, hidden),
            wr: p(2, in_dim, hidden),
            ur: p(3, hidden, hidden),
            br: Param::zeros(1, hidden),
            wh: p(4, in_dim, hidden),
            uh: p(5, hidden, hidden),
            bh: Param::zeros(1, hidden),
            in_dim,
            hidden,
            cache: None,
        }
    }

    /// BPTT backward: `grad_hs[t]` is the loss gradient on `h_{t+1}`.
    /// Returns the gradient on each input of the last forward: one per
    /// step after [`Gru::forward`], and after [`Gru::forward_repeated`]
    /// the one `x`'s, summed over the steps. The repeated path collapses
    /// each gate's input terms across steps (one `xᵀ·Σ_t dg_t` and one
    /// `(Σ_t dg_t)·Wᵀ`), which matches the backward over `steps` copies of
    /// `x` to rounding rather than bit for bit.
    ///
    /// Parameter gradients are computed into a temporary and then
    /// `add_assign`ed (never fused), preserving the exact floating-point
    /// grouping of the allocating formulation.
    pub fn backward(&mut self, grad_hs: &[Matrix]) -> Vec<Matrix> {
        // lint: allow(unwrap) API contract: backward requires a prior forward; lint: allow(panic-reach) API contract, not a data-dependent failure
        let cache = self.cache.as_ref().expect("backward before forward");
        let t_len = cache.zs.len();
        assert_eq!(grad_hs.len(), t_len);
        let batch = cache.hs[0].rows();
        let mut input = InputGrads::new(cache.xs.len(), t_len, batch, self.hidden);
        let mut dh_next = Matrix::zeros(batch, self.hidden);
        let mut tmp = Matrix::default();

        for t in (0..t_len).rev() {
            let h_prev = &cache.hs[t];
            let z = &cache.zs[t];
            let r = &cache.rs[t];
            let h_hat = &cache.h_hats[t];

            let mut dh = grad_hs[t].clone();
            dh.add_assign(&dh_next);

            // h = (1-z)⊙h_prev + z⊙ĥ
            let mut dz = h_hat.clone();
            dz.sub_assign(h_prev);
            dz.hadamard_assign(&dh);
            // ĥ = tanh(...): dĥ = dh ⊙ z, then through tanh'.
            let mut dh_hat_raw = dh.clone();
            dh_hat_raw.hadamard_assign(z);
            dh_hat_raw.zip_assign(h_hat, |g, hv| g * (1.0 - hv * hv));
            let mut dh_prev = dh;
            dh_prev.zip_assign(z, |g, zv| g * (1.0 - zv));

            let mut rh = r.clone();
            rh.hadamard_assign(h_prev);
            rh.t_matmul_into(&dh_hat_raw, &mut tmp);
            self.uh.grad.add_assign(&tmp);
            dh_hat_raw.sum_rows_into(&mut tmp);
            self.bh.grad.add_assign(&tmp);
            let mut drh = dh_hat_raw.matmul_t(&self.uh.value);
            let mut dr = drh.clone();
            dr.hadamard_assign(h_prev);
            drh.hadamard_assign(r);
            dh_prev.add_assign(&drh);

            // Gates: σ' turns dz and dr into pre-activation gradients.
            dz.zip_assign(z, |g, zv| g * zv * (1.0 - zv));
            dr.zip_assign(r, |g, rv| g * rv * (1.0 - rv));
            h_prev.t_matmul_into(&dz, &mut tmp);
            self.uz.grad.add_assign(&tmp);
            dz.sum_rows_into(&mut tmp);
            self.bz.grad.add_assign(&tmp);
            h_prev.t_matmul_into(&dr, &mut tmp);
            self.ur.grad.add_assign(&tmp);
            dr.sum_rows_into(&mut tmp);
            self.br.grad.add_assign(&tmp);

            dz.matmul_t_into(&self.uz.value, &mut tmp);
            dh_prev.add_assign(&tmp);
            dr.matmul_t_into(&self.ur.value, &mut tmp);
            dh_prev.add_assign(&tmp);

            input.step(
                t,
                &cache.xs,
                [&mut self.wz, &mut self.wr, &mut self.wh],
                [&dz, &dr, &dh_hat_raw],
            );

            dh_next = dh_prev;
        }
        input.finish(&cache.xs, [&mut self.wz, &mut self.wr, &mut self.wh])
    }

    /// Trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.wz,
            &mut self.uz,
            &mut self.bz,
            &mut self.wr,
            &mut self.ur,
            &mut self.br,
            &mut self.wh,
            &mut self.uh,
            &mut self.bh,
        ]
    }

    /// Shared view of the trainable parameters, in the same order as
    /// [`Gru::params_mut`] (used by the snapshot writer).
    pub fn params(&self) -> Vec<&Param> {
        vec![
            &self.wz, &self.uz, &self.bz, &self.wr, &self.ur, &self.br, &self.wh, &self.uh,
            &self.bh,
        ]
    }

    /// The forward-only `f32` copy of this GRU, weights narrowed once.
    pub fn to_f32(&self) -> Gru<f32> {
        Gru {
            wz: self.wz.to_f32(),
            uz: self.uz.to_f32(),
            bz: self.bz.to_f32(),
            wr: self.wr.to_f32(),
            ur: self.ur.to_f32(),
            br: self.br.to_f32(),
            wh: self.wh.to_f32(),
            uh: self.uh.to_f32(),
            bh: self.bh.to_f32(),
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
        let mut gru = Gru::new(3, 4, 0);
        let xs: Vec<Matrix> = (0..5).map(|i| Matrix::xavier_seeded(2, 3, i)).collect();
        let hs = gru.forward(&xs);
        assert_eq!(hs.len(), 5);
        assert_eq!((hs[0].rows(), hs[0].cols()), (2, 4));
    }

    #[test]
    fn hidden_state_carries_information() {
        // A constant non-zero input drives h away from 0 over time.
        let mut gru = Gru::new(2, 3, 1);
        let x = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let xs = vec![x.clone(), x.clone(), x];
        let hs = gru.forward(&xs);
        let n1 = hs[0].frobenius();
        let n3 = hs[2].frobenius();
        assert!(n3 > 0.0 && n1 > 0.0);
        // States at different timesteps differ (recurrence active).
        assert!(hs[0] != hs[2]);
    }

    #[test]
    fn gradcheck_full_bptt() {
        let mut gru = Gru::new(3, 4, 5);
        let xs: Vec<Matrix> = (0..3)
            .map(|i| Matrix::xavier_seeded(2, 3, 50 + i).scaled(2.0))
            .collect();
        check_recurrent_gradients(
            &xs,
            |l: &mut Gru, seq| l.forward(seq).to_vec(),
            |l, g| l.backward(g),
            |l| l.params_mut(),
            &mut gru,
            1e-6,
            1e-5,
        );
    }

    #[test]
    fn f32_forward_tracks_f64_layer() {
        let xs: Vec<Matrix> = (0..4)
            .map(|i| Matrix::xavier_seeded(3, 5, 40 + i))
            .collect();
        let mut gru = Gru::new(5, 6, 9);
        let want = gru.forward(&xs).to_vec();
        let mut gru32 = gru.to_f32();
        let xs32: Vec<Matrix<f32>> = xs.iter().map(Matrix::from_f64).collect();
        let got = gru32.forward(&xs32);
        assert_eq!(got.len(), want.len());
        for (w, g) in want.iter().zip(got) {
            let gap = w
                .sub(&g.to_f64())
                .data()
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(gap < 1e-5, "f32 GRU drifted by {gap}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty sequence")]
    fn empty_sequence_panics() {
        let mut gru = Gru::new(2, 2, 0);
        let _ = gru.forward(&[]);
    }
}
