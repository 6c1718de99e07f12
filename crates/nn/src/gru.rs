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

use crate::activation::gate_into;
use crate::param::Param;
use crate::tensor::{Matrix, MatrixPool, Scalar};

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
    /// Scratch buffers reused across steps and calls.
    pool: MatrixPool<T>,
}

#[derive(Debug, Clone, Default)]
struct Cache<T: Scalar> {
    xs: Vec<Matrix<T>>,
    hs: Vec<Matrix<T>>, // h_0..h_T (T+1 entries)
    zs: Vec<Matrix<T>>,
    rs: Vec<Matrix<T>>,
    h_hats: Vec<Matrix<T>>,
}

impl<T: Scalar> Gru<T> {
    /// Hidden dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Forward over a sequence; returns hidden states `h_1..h_T`, valid
    /// until the next call.
    ///
    /// Gate pre-activations are built with `*_into` kernels and in-place
    /// elementwise ops, overwriting the previous call's activations, so
    /// steady-state calls allocate nothing. The per-element arithmetic
    /// order matches the allocating formulation exactly.
    pub fn forward(&mut self, xs: &[Matrix<T>]) -> &[Matrix<T>] {
        assert!(!xs.is_empty(), "GRU needs a non-empty sequence");
        crate::sanitize::check_shape("gru", "forward", xs[0].cols(), self.in_dim);
        let c = self.cache.get_or_insert_with(Cache::default);
        for v in [&mut c.xs, &mut c.zs, &mut c.rs, &mut c.h_hats] {
            v.resize_with(xs.len(), Matrix::default);
        }
        c.hs.resize_with(xs.len() + 1, Matrix::default);
        c.hs[0].resize_to(xs[0].rows(), self.hidden);
        let mut tmp = self.pool.grab(0, 0);
        let mut rh = self.pool.grab(0, 0);

        for (t, x) in xs.iter().enumerate() {
            c.xs[t].copy_from(x);
            let (done, rest) = c.hs.split_at_mut(t + 1);
            let (h_prev, h) = (&done[t], &mut rest[0]);
            let (z, r, h_hat) = (&mut c.zs[t], &mut c.rs[t], &mut c.h_hats[t]);
            // z = σ(x·Wz + h·Uz + bz) ; r = σ(x·Wr + h·Ur + br)
            gate_into(
                x,
                h_prev,
                (&self.wz, &self.uz, &self.bz),
                T::sigmoid,
                z,
                &mut tmp,
            );
            gate_into(
                x,
                h_prev,
                (&self.wr, &self.ur, &self.br),
                T::sigmoid,
                r,
                &mut tmp,
            );
            // ĥ = tanh(x·Wh + (r ⊙ h)·Uh + bh)
            rh.copy_from(r);
            rh.hadamard_assign(h_prev);
            gate_into(
                x,
                &rh,
                (&self.wh, &self.uh, &self.bh),
                T::tanh,
                h_hat,
                &mut tmp,
            );
            // h = (1−z) ⊙ h_prev + z ⊙ ĥ
            h.copy_from(h_prev);
            h.zip_assign(z, |hp, zv| (T::ONE - zv) * hp);
            tmp.copy_from(z);
            tmp.hadamard_assign(h_hat);
            h.add_assign(&tmp);
            crate::sanitize::check_finite("gru", "step", h);
        }
        self.pool.recycle(tmp);
        self.pool.recycle(rh);
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
            pool: MatrixPool::new(),
        }
    }

    /// BPTT backward: `grad_hs[t]` is the loss gradient on `h_{t+1}`.
    /// Returns gradients on the inputs.
    ///
    /// Every temporary comes from the scratch pool; parameter gradients
    /// are computed into scratch and then `add_assign`ed (never fused),
    /// preserving the exact floating-point grouping of the allocating
    /// formulation.
    pub fn backward(&mut self, grad_hs: &[Matrix]) -> Vec<Matrix> {
        // lint: allow(unwrap) API contract: backward requires a prior forward; lint: allow(panic-reach) API contract, not a data-dependent failure
        let cache = self.cache.as_ref().expect("backward before forward");
        let t_len = cache.xs.len();
        assert_eq!(grad_hs.len(), t_len);
        let batch = cache.xs[0].rows();
        let mut dxs: Vec<Matrix> = (0..t_len).map(|_| Matrix::zeros(0, 0)).collect();
        let mut dh_next = self.pool.grab(batch, self.hidden);
        let mut tmp = self.pool.grab(0, 0);

        for t in (0..t_len).rev() {
            let h_prev = &cache.hs[t];
            let z = &cache.zs[t];
            let r = &cache.rs[t];
            let h_hat = &cache.h_hats[t];
            let x = &cache.xs[t];

            let mut dh = self.pool.grab(0, 0);
            dh.copy_from(&grad_hs[t]);
            dh.add_assign(&dh_next);

            // h = (1-z)⊙h_prev + z⊙ĥ
            let mut dz = self.pool.grab(0, 0);
            dz.copy_from(h_hat);
            dz.sub_assign(h_prev);
            dz.hadamard_assign(&dh);
            let mut dh_hat_grad = self.pool.grab(0, 0);
            dh_hat_grad.copy_from(&dh);
            dh_hat_grad.hadamard_assign(z);
            let mut dh_prev = self.pool.grab(0, 0);
            dh_prev.copy_from(&dh);
            dh_prev.zip_assign(z, |g, zv| g * (1.0 - zv));

            // ĥ = tanh(...)
            let mut dh_hat_raw = self.pool.grab(0, 0);
            dh_hat_raw.copy_from(&dh_hat_grad);
            dh_hat_raw.zip_assign(h_hat, |g, hv| g * (1.0 - hv * hv));
            let mut rh = self.pool.grab(0, 0);
            rh.copy_from(r);
            rh.hadamard_assign(h_prev);
            x.t_matmul_into(&dh_hat_raw, &mut tmp);
            self.wh.grad.add_assign(&tmp);
            rh.t_matmul_into(&dh_hat_raw, &mut tmp);
            self.uh.grad.add_assign(&tmp);
            dh_hat_raw.sum_rows_into(&mut tmp);
            self.bh.grad.add_assign(&tmp);
            let mut drh = self.pool.grab(0, 0);
            dh_hat_raw.matmul_t_into(&self.uh.value, &mut drh);
            let mut dr = self.pool.grab(0, 0);
            dr.copy_from(&drh);
            dr.hadamard_assign(h_prev);
            tmp.copy_from(&drh);
            tmp.hadamard_assign(r);
            dh_prev.add_assign(&tmp);

            // Gates.
            let mut dz_raw = self.pool.grab(0, 0);
            dz_raw.copy_from(&dz);
            dz_raw.zip_assign(z, |g, zv| g * zv * (1.0 - zv));
            let mut dr_raw = self.pool.grab(0, 0);
            dr_raw.copy_from(&dr);
            dr_raw.zip_assign(r, |g, rv| g * rv * (1.0 - rv));
            x.t_matmul_into(&dz_raw, &mut tmp);
            self.wz.grad.add_assign(&tmp);
            h_prev.t_matmul_into(&dz_raw, &mut tmp);
            self.uz.grad.add_assign(&tmp);
            dz_raw.sum_rows_into(&mut tmp);
            self.bz.grad.add_assign(&tmp);
            x.t_matmul_into(&dr_raw, &mut tmp);
            self.wr.grad.add_assign(&tmp);
            h_prev.t_matmul_into(&dr_raw, &mut tmp);
            self.ur.grad.add_assign(&tmp);
            dr_raw.sum_rows_into(&mut tmp);
            self.br.grad.add_assign(&tmp);

            dz_raw.matmul_t_into(&self.uz.value, &mut tmp);
            dh_prev.add_assign(&tmp);
            dr_raw.matmul_t_into(&self.ur.value, &mut tmp);
            dh_prev.add_assign(&tmp);

            let mut dx = self.pool.grab(0, 0);
            dz_raw.matmul_t_into(&self.wz.value, &mut dx);
            dr_raw.matmul_t_into(&self.wr.value, &mut tmp);
            dx.add_assign(&tmp);
            dh_hat_raw.matmul_t_into(&self.wh.value, &mut tmp);
            dx.add_assign(&tmp);
            dxs[t] = dx;

            self.pool.recycle(std::mem::replace(&mut dh_next, dh_prev));
            for m in [dh, dz, dh_hat_grad, dh_hat_raw, rh, drh, dr, dz_raw, dr_raw] {
                self.pool.recycle(m);
            }
        }
        self.pool.recycle(dh_next);
        self.pool.recycle(tmp);
        dxs
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
            pool: MatrixPool::new(),
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
