//! LSTM layer — the paper reports "no gain with LSTM" over the GRU head
//! of RETINA-D; this implementation backs that ablation
//! (`exp_table6 --recurrent-sweep`). Standard formulation:
//!
//! ```text
//! i_t = σ(x·W_i + h·U_i + b_i)      f_t = σ(x·W_f + h·U_f + b_f)
//! o_t = σ(x·W_o + h·U_o + b_o)      g_t = tanh(x·W_g + h·U_g + b_g)
//! c_t = f_t ⊙ c_{t−1} + i_t ⊙ g_t   h_t = o_t ⊙ tanh(c_t)
//! ```

use crate::activation::{gate_into, InputGrads};
use crate::param::Param;
use crate::tensor::{Matrix, Scalar};

/// A single-layer LSTM.
#[derive(Debug, Clone)]
pub struct Lstm<T: Scalar = f64> {
    pub wi: Param<T>,
    pub ui: Param<T>,
    pub bi: Param<T>,
    pub wf: Param<T>,
    pub uf: Param<T>,
    pub bf: Param<T>,
    pub wo: Param<T>,
    pub uo: Param<T>,
    pub bo: Param<T>,
    pub wg: Param<T>,
    pub ug: Param<T>,
    pub bg: Param<T>,
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
    cs: Vec<Matrix<T>>, // c_0..c_T (T+1 entries)
    is_: Vec<Matrix<T>>,
    fs: Vec<Matrix<T>>,
    os: Vec<Matrix<T>>,
    gs: Vec<Matrix<T>>,
}

impl<T: Scalar> Lstm<T> {
    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Forward over a sequence; returns `h_1..h_T`, valid until the next
    /// call.
    ///
    /// Built on `*_into` kernels, overwriting the previous call's
    /// activations in place, with per-element arithmetic order identical
    /// to the allocating formulation, so the results are bit-identical
    /// to it; a call allocates only its four input projections and one
    /// temporary.
    pub fn forward(&mut self, xs: &[Matrix<T>]) -> &[Matrix<T>] {
        self.unroll(xs, xs.len())
    }

    /// Forward over `steps` steps that all see the input `x`: each gate's
    /// `x·W` is computed once, and the hidden states equal
    /// [`Lstm::forward`] on `steps` copies of `x` bit for bit.
    pub fn forward_repeated(&mut self, x: &Matrix<T>, steps: usize) -> &[Matrix<T>] {
        self.unroll(std::slice::from_ref(x), steps)
    }

    /// The forward body over `xs`, one input per step or one for every
    /// step (projected once).
    fn unroll(&mut self, xs: &[Matrix<T>], steps: usize) -> &[Matrix<T>] {
        assert!(steps > 0, "LSTM needs a non-empty sequence");
        let c = self.cache.get_or_insert_with(Cache::default);
        c.xs.resize_with(xs.len(), Matrix::default);
        for v in [&mut c.is_, &mut c.fs, &mut c.os, &mut c.gs] {
            v.resize_with(steps, Matrix::default);
        }
        for v in [&mut c.hs, &mut c.cs] {
            v.resize_with(steps + 1, Matrix::default);
            v[0].resize_to(xs[0].rows(), self.hidden);
        }
        let [mut xi, mut xf, mut xo, mut xg, mut tmp]: [Matrix<T>; 5] = Default::default();

        for t in 0..steps {
            if let Some(x) = xs.get(t) {
                c.xs[t].copy_from(x);
                x.matmul_into(&self.wi.value, &mut xi);
                x.matmul_into(&self.wf.value, &mut xf);
                x.matmul_into(&self.wo.value, &mut xo);
                x.matmul_into(&self.wg.value, &mut xg);
            }
            let (h_done, h_rest) = c.hs.split_at_mut(t + 1);
            let (h_prev, h) = (&h_done[t], &mut h_rest[0]);
            let (c_done, c_rest) = c.cs.split_at_mut(t + 1);
            let (c_prev, cell) = (&c_done[t], &mut c_rest[0]);
            let (i, f) = (&mut c.is_[t], &mut c.fs[t]);
            let (o, g) = (&mut c.os[t], &mut c.gs[t]);
            gate_into(&xi, h_prev, (&self.ui, &self.bi), T::sigmoid, i);
            gate_into(&xf, h_prev, (&self.uf, &self.bf), T::sigmoid, f);
            gate_into(&xo, h_prev, (&self.uo, &self.bo), T::sigmoid, o);
            gate_into(&xg, h_prev, (&self.ug, &self.bg), T::tanh, g);
            // c = f ⊙ c_prev + i ⊙ g
            cell.copy_from(f);
            cell.hadamard_assign(c_prev);
            tmp.copy_from(i);
            tmp.hadamard_assign(g);
            cell.add_assign(&tmp);
            // h = o ⊙ tanh(c)
            h.copy_from(cell);
            h.map_assign(T::tanh);
            h.hadamard_assign(o);
        }
        &c.hs[1..]
    }

    /// Hidden states `h_1..h_T` of the last forward (empty before the
    /// first).
    pub fn outputs(&self) -> &[Matrix<T>] {
        self.cache.as_ref().map_or(&[], |c| &c.hs[1..])
    }
}

impl Lstm {
    /// Create with Xavier weights. Forget-gate bias starts at 1 (standard
    /// trick for gradient flow).
    pub fn new(in_dim: usize, hidden: usize, seed: u64) -> Self {
        let p = |i: u64, r: usize, c: usize| Param::xavier(r, c, seed.wrapping_add(i));
        let mut bf = Param::zeros(1, hidden);
        bf.value = Matrix::from_fn(1, hidden, |_, _| 1.0);
        Self {
            wi: p(0, in_dim, hidden),
            ui: p(1, hidden, hidden),
            bi: Param::zeros(1, hidden),
            wf: p(2, in_dim, hidden),
            uf: p(3, hidden, hidden),
            bf,
            wo: p(4, in_dim, hidden),
            uo: p(5, hidden, hidden),
            bo: Param::zeros(1, hidden),
            wg: p(6, in_dim, hidden),
            ug: p(7, hidden, hidden),
            bg: Param::zeros(1, hidden),
            in_dim,
            hidden,
            cache: None,
        }
    }

    /// Full BPTT backward. Returns the gradient on each input of the last
    /// forward: one per step, or after [`Lstm::forward_repeated`] the one
    /// `x`'s, with each gate's input terms collapsed across steps as in
    /// [`crate::Gru::backward`].
    ///
    /// Parameter gradients are computed into a temporary then
    /// `add_assign`ed (never fused), keeping the floating-point grouping
    /// of the allocating formulation.
    pub fn backward(&mut self, grad_hs: &[Matrix]) -> Vec<Matrix> {
        // lint: allow(unwrap) API contract: backward requires a prior forward; lint: allow(panic-reach) API contract, not a data-dependent failure
        let cache = self.cache.as_ref().expect("backward before forward");
        let t_len = cache.is_.len();
        assert_eq!(grad_hs.len(), t_len);
        let batch = cache.hs[0].rows();
        let mut input = InputGrads::new(cache.xs.len(), t_len, batch, self.hidden);
        let mut dh_next = Matrix::zeros(batch, self.hidden);
        let mut dc_next = Matrix::zeros(batch, self.hidden);
        let mut tmp = Matrix::default();

        for t in (0..t_len).rev() {
            let c = &cache.cs[t + 1];
            let c_prev = &cache.cs[t];
            let h_prev = &cache.hs[t];
            let (i, f, o, g) = (&cache.is_[t], &cache.fs[t], &cache.os[t], &cache.gs[t]);

            let mut dh = grad_hs[t].clone();
            dh.add_assign(&dh_next);

            let mut tanh_c = c.clone();
            tanh_c.map_assign(f64::tanh);
            let mut do_ = dh.clone();
            do_.hadamard_assign(&tanh_c);
            let mut dc = dh;
            dc.hadamard_assign(o);
            dc.zip_assign(&tanh_c, |v, tc| v * (1.0 - tc * tc));
            dc.add_assign(&dc_next);

            let mut di = dc.clone();
            di.hadamard_assign(g);
            let mut dg = dc.clone();
            dg.hadamard_assign(i);
            let mut df = dc.clone();
            df.hadamard_assign(c_prev);
            dc_next = dc;
            dc_next.hadamard_assign(f);

            // In-place σ'/tanh' turns each gate gradient into its
            // pre-activation gradient (same elementwise expression as
            // the allocating `zip`).
            di.zip_assign(i, |v, s| v * s * (1.0 - s));
            df.zip_assign(f, |v, s| v * s * (1.0 - s));
            do_.zip_assign(o, |v, s| v * s * (1.0 - s));
            dg.zip_assign(g, |v, s| v * (1.0 - s * s));

            let acc = |u: &mut Param, b: &mut Param, raw: &Matrix, scratch: &mut Matrix| {
                h_prev.t_matmul_into(raw, scratch);
                u.grad.add_assign(scratch);
                raw.sum_rows_into(scratch);
                b.grad.add_assign(scratch);
            };
            acc(&mut self.ui, &mut self.bi, &di, &mut tmp);
            acc(&mut self.uf, &mut self.bf, &df, &mut tmp);
            acc(&mut self.uo, &mut self.bo, &do_, &mut tmp);
            acc(&mut self.ug, &mut self.bg, &dg, &mut tmp);

            di.matmul_t_into(&self.ui.value, &mut dh_next);
            df.matmul_t_into(&self.uf.value, &mut tmp);
            dh_next.add_assign(&tmp);
            do_.matmul_t_into(&self.uo.value, &mut tmp);
            dh_next.add_assign(&tmp);
            dg.matmul_t_into(&self.ug.value, &mut tmp);
            dh_next.add_assign(&tmp);

            input.step(
                t,
                &cache.xs,
                [&mut self.wi, &mut self.wf, &mut self.wo, &mut self.wg],
                [&di, &df, &do_, &dg],
            );
        }
        input.finish(
            &cache.xs,
            [&mut self.wi, &mut self.wf, &mut self.wo, &mut self.wg],
        )
    }

    /// Trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.wi,
            &mut self.ui,
            &mut self.bi,
            &mut self.wf,
            &mut self.uf,
            &mut self.bf,
            &mut self.wo,
            &mut self.uo,
            &mut self.bo,
            &mut self.wg,
            &mut self.ug,
            &mut self.bg,
        ]
    }

    /// Shared view of the trainable parameters, in the same order as
    /// [`Lstm::params_mut`] (used by the snapshot writer).
    pub fn params(&self) -> Vec<&Param> {
        vec![
            &self.wi, &self.ui, &self.bi, &self.wf, &self.uf, &self.bf, &self.wo, &self.uo,
            &self.bo, &self.wg, &self.ug, &self.bg,
        ]
    }

    /// The forward-only `f32` copy of this LSTM, weights narrowed once.
    pub fn to_f32(&self) -> Lstm<f32> {
        Lstm {
            wi: self.wi.to_f32(),
            ui: self.ui.to_f32(),
            bi: self.bi.to_f32(),
            wf: self.wf.to_f32(),
            uf: self.uf.to_f32(),
            bf: self.bf.to_f32(),
            wo: self.wo.to_f32(),
            uo: self.uo.to_f32(),
            bo: self.bo.to_f32(),
            wg: self.wg.to_f32(),
            ug: self.ug.to_f32(),
            bg: self.bg.to_f32(),
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
        let mut lstm = Lstm::new(3, 4, 0);
        let xs: Vec<Matrix> = (0..4).map(|i| Matrix::xavier_seeded(2, 3, i)).collect();
        let hs = lstm.forward(&xs);
        assert_eq!(hs.len(), 4);
        assert_eq!((hs[0].rows(), hs[0].cols()), (2, 4));
    }

    #[test]
    fn gradcheck_full_bptt() {
        let mut lstm = Lstm::new(3, 4, 5);
        let xs: Vec<Matrix> = (0..3)
            .map(|i| Matrix::xavier_seeded(2, 3, 60 + i).scaled(2.0))
            .collect();
        check_recurrent_gradients(
            &xs,
            |l: &mut Lstm, seq| l.forward(seq).to_vec(),
            |l, g| l.backward(g),
            |l| l.params_mut(),
            &mut lstm,
            1e-6,
            1e-5,
        );
    }

    #[test]
    fn f32_forward_tracks_f64_layer() {
        let xs: Vec<Matrix> = (0..4)
            .map(|i| Matrix::xavier_seeded(3, 5, 40 + i))
            .collect();
        let mut lstm = Lstm::new(5, 6, 9);
        let want = lstm.forward(&xs).to_vec();
        let mut lstm32 = lstm.to_f32();
        let xs32: Vec<Matrix<f32>> = xs.iter().map(Matrix::from_f64).collect();
        let got = lstm32.forward(&xs32);
        assert_eq!(got.len(), want.len());
        for (w, g) in want.iter().zip(got) {
            let gap = w
                .sub(&g.to_f64())
                .data()
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(gap < 1e-5, "f32 LSTM drifted by {gap}");
        }
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let lstm = Lstm::new(2, 3, 0);
        assert!(lstm.bf.value.data().iter().all(|&v| v == 1.0));
    }
}
