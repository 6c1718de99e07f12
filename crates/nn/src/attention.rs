//! Exogenous scaled dot-product attention — Eqs. 3–5 of the paper.
//!
//! Given the tweet feature `Xᵀ ∈ (batch × d_t)` and a news feature
//! sequence `Xᴺ = {X₁ᴺ … X_kᴺ}` (each `batch × d_n`):
//!
//! ```text
//! Q = Xᵀ·W_Q        K_i = X_iᴺ·W_K        V_i = X_iᴺ·W_V
//! A[b,i] = softmax_i( (Q[b]·K_i[b]) / √hdim )
//! Xᵀ'ᴺ[b] = Σ_i A[b,i] · V_i[b]
//! ```
//!
//! The tweet representation *queries* the contemporary news stream and the
//! attended value summary `Xᵀ'ᴺ` carries the exogenous signal into the
//! predictor. All gradients are exact (verified by finite differences in
//! the tests).

use crate::param::Param;
use crate::tensor::{Matrix, MatrixPool, Scalar};

/// The exogenous attention block of RETINA.
#[derive(Debug, Clone)]
pub struct ExogenousAttention<T: Scalar = f64> {
    /// Query kernel `d_t × h`.
    pub wq: Param<T>,
    /// Key kernel `d_n × h`.
    pub wk: Param<T>,
    /// Value kernel `d_n × h`.
    pub wv: Param<T>,
    hdim: usize,
    /// Activations of the last forward (`None` before the first); the
    /// next forward overwrites them in place.
    cache: Option<Cache<T>>,
    /// Scratch buffers for backward's temporaries.
    pool: MatrixPool<T>,
}

/// Forward cache. News-side matrices are stored *stacked*: item `i`
/// occupies rows `i·batch .. (i+1)·batch`. Stacking lets the k per-item
/// projections run as one matmul while leaving every output row's
/// accumulation untouched (a matmul row only reads its own input row),
/// so the stacked form is bit-identical to the per-item form.
#[derive(Debug, Clone, Default)]
struct Cache<T: Scalar> {
    xt: Matrix<T>,
    xn_all: Matrix<T>, // (k·batch) × d_n
    q: Matrix<T>,
    keys_all: Matrix<T>,   // (k·batch) × h
    values_all: Matrix<T>, // (k·batch) × h
    attn: Matrix<T>,       // batch × k
    out: Matrix<T>,        // batch × h
}

impl<T: Scalar> ExogenousAttention<T> {
    /// Attention output dimensionality (= hdim).
    pub fn out_dim(&self) -> usize {
        self.hdim
    }

    /// Forward pass; the returned context (`batch × hdim`) stays valid
    /// until the next call. `xn` must be non-empty and each element must
    /// have the same batch size as `xt`.
    pub fn forward(&mut self, xt: &Matrix<T>, xn: &[Matrix<T>]) -> &Matrix<T> {
        assert!(!xn.is_empty(), "attention needs at least one news item");
        let batch = xt.rows();
        assert!(
            xn.iter().all(|n| n.rows() == batch),
            "news batch size must match tweet batch size"
        );
        let k = xn.len();
        let hdim = self.hdim;
        let scale = T::ONE / T::from_f64(hdim as f64).max(T::ONE).sqrt();
        let c = self.cache.get_or_insert_with(Cache::default);

        c.xt.copy_from(xt);
        xt.matmul_into(&self.wq.value, &mut c.q);
        // Project all k news items with one matmul each over the stacked
        // (k·batch × d_n) input — bit-identical to k per-item matmuls
        // because each output row only accumulates over its own input row.
        Matrix::vstack_into(xn, &mut c.xn_all);
        c.xn_all.matmul_into(&self.wk.value, &mut c.keys_all);
        c.xn_all.matmul_into(&self.wv.value, &mut c.values_all);

        // At batch 1 (one tweet per call, the production shape) the score
        // pass is exactly q·keysᵀ and the context pass exactly
        // attn·values, so both run on the blocked kernels. Per output
        // element the kernels accumulate strictly ascending — the same
        // order as the general loops, so the fast path changes no bits.
        if batch == 1 {
            c.q.matmul_t_into(&c.keys_all, &mut c.attn);
            c.attn.map_assign(|s| s * scale);
        } else {
            c.attn.resize_to(batch, k);
            for i in 0..k {
                for b in 0..batch {
                    let s: T =
                        c.q.row(b)
                            .iter()
                            .zip(c.keys_all.row(i * batch + b))
                            .map(|(&qv, &kv)| qv * kv)
                            .sum();
                    c.attn.set(b, i, s * scale);
                }
            }
        }
        c.attn.softmax_rows_assign();
        crate::sanitize::check_finite("attention", "scaled_dot", &c.attn);

        if batch == 1 {
            c.attn.matmul_into(&c.values_all, &mut c.out);
        } else {
            c.out.resize_to(batch, hdim);
            for i in 0..k {
                for b in 0..batch {
                    let a = c.attn.get(b, i);
                    let vrow = c.values_all.row(i * batch + b);
                    for (o, &v) in c.out.row_mut(b).iter_mut().zip(vrow) {
                        *o += a * v;
                    }
                }
            }
        }
        crate::sanitize::check_finite("attention", "forward", &c.out);
        &c.out
    }

    /// The attention weights of the last forward pass (`batch × k`).
    pub fn attention_weights(&self) -> Option<&Matrix<T>> {
        self.cache.as_ref().map(|c| &c.attn)
    }
}

impl ExogenousAttention {
    /// Create with Xavier-initialized kernels.
    pub fn new(tweet_dim: usize, news_dim: usize, hdim: usize, seed: u64) -> Self {
        Self {
            wq: Param::xavier(tweet_dim, hdim, seed),
            wk: Param::xavier(news_dim, hdim, seed.wrapping_add(1)),
            wv: Param::xavier(news_dim, hdim, seed.wrapping_add(2)),
            hdim,
            cache: None,
            pool: MatrixPool::new(),
        }
    }

    /// Backward pass: accumulate kernel gradients; return
    /// `(d xt, d xn)`.
    ///
    /// All temporaries come from the scratch pool; kernel gradients are
    /// computed into scratch then `add_assign`ed (never fused). The
    /// `dq` and per-kernel accumulations sum over news items in index
    /// order — reductions, kept serial per the [`crate::par`] contract.
    pub fn backward(&mut self, grad_out: &Matrix) -> (Matrix, Vec<Matrix>) {
        // lint: allow(unwrap) API contract: backward requires a prior forward; lint: allow(panic-reach) API contract, not a data-dependent failure
        let cache = self.cache.as_ref().expect("backward before forward");
        let batch = cache.xt.rows();
        let k = cache.attn.cols();
        let scale = 1.0 / (self.hdim.max(1) as f64).sqrt();

        // dV_i[b] = A[b,i]·gOut[b] ;  dA[b,i] = gOut[b]·V_i[b]
        // d_values is built stacked, mirroring the cache layout.
        let mut dv_all = self.pool.grab(k * batch, self.hdim);
        let mut d_attn = self.pool.grab(batch, k);
        for i in 0..k {
            for b in 0..batch {
                let a = cache.attn.get(b, i);
                let g = grad_out.row(b);
                let dvrow = dv_all.row_mut(i * batch + b);
                let vrow = cache.values_all.row(i * batch + b);
                let mut da = 0.0;
                for ((dvv, &gv), &vv) in dvrow.iter_mut().zip(g).zip(vrow) {
                    *dvv = a * gv;
                    da += gv * vv;
                }
                d_attn.set(b, i, da);
            }
        }

        // Softmax backward per row: dL[b,i] = A[b,i](dA[b,i] − Σ_j A dA).
        let mut d_logits = self.pool.grab(batch, k);
        for b in 0..batch {
            let dot: f64 = (0..k)
                .map(|j| cache.attn.get(b, j) * d_attn.get(b, j))
                .sum();
            for i in 0..k {
                d_logits.set(b, i, cache.attn.get(b, i) * (d_attn.get(b, i) - dot));
            }
        }

        // Through the scaled dot product. d_keys is built stacked.
        let mut dq = self.pool.grab(batch, self.hdim);
        let mut dk_all = self.pool.grab(k * batch, self.hdim);
        for i in 0..k {
            for b in 0..batch {
                let ds = d_logits.get(b, i) * scale;
                let qrow = cache.q.row(b);
                let krow = cache.keys_all.row(i * batch + b);
                {
                    let dqrow = dq.row_mut(b);
                    for (dqv, &kv) in dqrow.iter_mut().zip(krow) {
                        *dqv += ds * kv;
                    }
                }
                let dkrow = dk_all.row_mut(i * batch + b);
                for (dkv, &qv) in dkrow.iter_mut().zip(qrow) {
                    *dkv += ds * qv;
                }
            }
        }

        // Kernel and input gradients.
        let mut tmp = self.pool.grab(0, 0);
        cache.xt.t_matmul_into(&dq, &mut tmp);
        self.wq.grad.add_assign(&tmp);
        let mut d_xt = self.pool.grab(0, 0);
        dq.matmul_t_into(&self.wq.value, &mut d_xt);

        // d xn[i] = dK_i·W_Kᵀ + dV_i·W_Vᵀ — both products run over the
        // stacked gradients in one matmul each (row-independent, hence
        // bit-identical to the per-item products) and are then split back
        // into per-item matrices.
        let mut dxn_k_all = self.pool.grab(0, 0);
        dk_all.matmul_t_into(&self.wk.value, &mut dxn_k_all);
        let mut dxn_v_all = self.pool.grab(0, 0);
        dv_all.matmul_t_into(&self.wv.value, &mut dxn_v_all);

        // The kernel gradients are reductions over news items; they stay
        // serial in index order, each item's contribution computed on a
        // per-item view copied out of the stacked cache.
        let mut xn_i = self.pool.grab(0, 0);
        let mut g_i = self.pool.grab(0, 0);
        let mut d_xn = Vec::with_capacity(k);
        for i in 0..k {
            xn_i.copy_row_range_from(&cache.xn_all, i * batch, batch);
            g_i.copy_row_range_from(&dk_all, i * batch, batch);
            xn_i.t_matmul_into(&g_i, &mut tmp);
            self.wk.grad.add_assign(&tmp);
            g_i.copy_row_range_from(&dv_all, i * batch, batch);
            xn_i.t_matmul_into(&g_i, &mut tmp);
            self.wv.grad.add_assign(&tmp);
            let mut dn = self.pool.grab(0, 0);
            dn.copy_row_range_from(&dxn_k_all, i * batch, batch);
            dn.add_assign_rows(&dxn_v_all, i * batch);
            d_xn.push(dn);
        }

        for m in [
            d_attn, d_logits, dq, tmp, dv_all, dk_all, dxn_k_all, dxn_v_all, xn_i, g_i,
        ] {
            self.pool.recycle(m);
        }

        (d_xt, d_xn)
    }

    /// Trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wq, &mut self.wk, &mut self.wv]
    }

    /// Shared view of the trainable parameters, in the same order as
    /// [`ExogenousAttention::params_mut`] (used by the snapshot writer).
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.wq, &self.wk, &self.wv]
    }

    /// The forward-only `f32` copy of this block, kernels narrowed once.
    pub fn to_f32(&self) -> ExogenousAttention<f32> {
        ExogenousAttention {
            wq: self.wq.to_f32(),
            wk: self.wk.to_f32(),
            wv: self.wv.to_f32(),
            hdim: self.hdim,
            cache: None,
            pool: MatrixPool::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ExogenousAttention, Matrix, Vec<Matrix>) {
        let att = ExogenousAttention::new(3, 4, 5, 7);
        let xt = Matrix::xavier_seeded(2, 3, 11).scaled(3.0);
        let xn: Vec<Matrix> = (0..4)
            .map(|i| Matrix::xavier_seeded(2, 4, 20 + i).scaled(3.0))
            .collect();
        (att, xt, xn)
    }

    fn probe(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            (((r * 31 + c * 17 + 3) as f64) * 0.618).sin()
        })
    }

    fn loss(att: &mut ExogenousAttention, xt: &Matrix, xn: &[Matrix]) -> f64 {
        let y = att.forward(xt, xn);
        let c = probe(y.rows(), y.cols());
        y.hadamard(&c).sum()
    }

    #[test]
    fn attention_weights_form_simplex() {
        let (mut att, xt, xn) = setup();
        let _ = att.forward(&xt, &xn);
        let a = att.attention_weights().unwrap();
        for b in 0..a.rows() {
            let s: f64 = a.row(b).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(a.row(b).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn output_shape() {
        let (mut att, xt, xn) = setup();
        let y = att.forward(&xt, &xn);
        assert_eq!((y.rows(), y.cols()), (2, 5));
    }

    #[test]
    fn gradcheck_xt() {
        let (mut att, xt, xn) = setup();
        let y = att.forward(&xt, &xn);
        let c = probe(y.rows(), y.cols());
        let (dxt, _) = att.backward(&c);
        let eps = 1e-6;
        for r in 0..xt.rows() {
            for cc in 0..xt.cols() {
                let mut xp = xt.clone();
                xp.set(r, cc, xt.get(r, cc) + eps);
                let lp = loss(&mut att, &xp, &xn);
                xp.set(r, cc, xt.get(r, cc) - eps);
                let lm = loss(&mut att, &xp, &xn);
                let num = (lp - lm) / (2.0 * eps);
                let ana = dxt.get(r, cc);
                assert!(
                    (num - ana).abs() < 1e-5 + 1e-4 * num.abs().max(ana.abs()),
                    "dxt[{r},{cc}] numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn gradcheck_xn() {
        let (mut att, xt, xn) = setup();
        let y = att.forward(&xt, &xn);
        let c = probe(y.rows(), y.cols());
        let (_, dxn) = att.backward(&c);
        let eps = 1e-6;
        for i in 0..xn.len() {
            for r in 0..xn[i].rows() {
                for cc in 0..xn[i].cols() {
                    let mut xnp = xn.clone();
                    xnp[i].set(r, cc, xn[i].get(r, cc) + eps);
                    let lp = loss(&mut att, &xt, &xnp);
                    xnp[i].set(r, cc, xn[i].get(r, cc) - eps);
                    let lm = loss(&mut att, &xt, &xnp);
                    let num = (lp - lm) / (2.0 * eps);
                    let ana = dxn[i].get(r, cc);
                    assert!(
                        (num - ana).abs() < 1e-5 + 1e-4 * num.abs().max(ana.abs()),
                        "dxn[{i}][{r},{cc}] numeric {num} vs analytic {ana}"
                    );
                }
            }
        }
    }

    #[test]
    fn gradcheck_kernels() {
        let (mut att, xt, xn) = setup();
        for p in att.params_mut() {
            p.zero_grad();
        }
        let y = att.forward(&xt, &xn);
        let c = probe(y.rows(), y.cols());
        let _ = att.backward(&c);
        let grads: Vec<Vec<f64>> = att
            .params_mut()
            .iter()
            .map(|p| p.grad.data().to_vec())
            .collect();
        let eps = 1e-6;
        for pi in 0..3 {
            let (rows, cols) = {
                let ps = att.params_mut();
                (ps[pi].value.rows(), ps[pi].value.cols())
            };
            for r in 0..rows {
                for cc in 0..cols {
                    let orig = {
                        let ps = att.params_mut();
                        ps[pi].value.get(r, cc)
                    };
                    {
                        let mut ps = att.params_mut();
                        ps[pi].value.set(r, cc, orig + eps);
                    }
                    let lp = loss(&mut att, &xt, &xn);
                    {
                        let mut ps = att.params_mut();
                        ps[pi].value.set(r, cc, orig - eps);
                    }
                    let lm = loss(&mut att, &xt, &xn);
                    {
                        let mut ps = att.params_mut();
                        ps[pi].value.set(r, cc, orig);
                    }
                    let num = (lp - lm) / (2.0 * eps);
                    let ana = grads[pi][r * cols + cc];
                    assert!(
                        (num - ana).abs() < 1e-5 + 1e-4 * num.abs().max(ana.abs()),
                        "kernel {pi} grad[{r},{cc}] numeric {num} vs analytic {ana}"
                    );
                }
            }
        }
    }

    #[test]
    fn attention_focuses_on_matching_news() {
        // Make one news item align with the tweet in input space and use
        // (near-)identity kernels: its attention weight should dominate.
        let mut att = ExogenousAttention::new(4, 4, 4, 0);
        let eye = Matrix::from_fn(4, 4, |r, c| if r == c { 5.0 } else { 0.0 });
        att.wq.value = eye.clone();
        att.wk.value = eye;
        let xt = Matrix::from_vec(1, 4, vec![1.0, 0.0, 0.0, 0.0]);
        let aligned = Matrix::from_vec(1, 4, vec![1.0, 0.0, 0.0, 0.0]);
        let orthogonal = Matrix::from_vec(1, 4, vec![0.0, 1.0, 0.0, 0.0]);
        let _ = att.forward(&xt, &[orthogonal, aligned]);
        let a = att.attention_weights().unwrap();
        assert!(
            a.get(0, 1) > 0.9,
            "aligned news should dominate, got {:?}",
            a.row(0)
        );
    }

    #[test]
    fn stable_softmax_survives_huge_logits() {
        // Audit for the max-subtracted softmax: attention logits of
        // magnitude >= 1e3 (here ~1e6 after the scaled dot product) must
        // still produce finite weights that lie on the simplex, with the
        // mass on the dominant item.
        let mut att = ExogenousAttention::new(4, 4, 4, 0);
        let eye = Matrix::from_fn(4, 4, |r, c| if r == c { 1.0 } else { 0.0 });
        att.wq.value = eye.clone();
        att.wk.value = eye;
        let xt = Matrix::from_vec(1, 4, vec![2e3, 0.0, 0.0, 0.0]);
        let news = [
            Matrix::from_vec(1, 4, vec![1e3, 0.0, 0.0, 0.0]),
            Matrix::from_vec(1, 4, vec![-1e3, 0.0, 0.0, 0.0]),
            Matrix::from_vec(1, 4, vec![9e2, 0.0, 0.0, 0.0]),
        ];
        let y = att.forward(&xt, &news);
        assert!(y.data().iter().all(|v| v.is_finite()));
        let a = att.attention_weights().unwrap();
        assert!(a.data().iter().all(|v| v.is_finite() && *v >= 0.0));
        let sum: f64 = a.row(0).iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-12,
            "weights must sum to 1, got {sum}"
        );
        assert!(a.get(0, 0) > 0.999, "dominant logit takes the mass");
    }

    #[test]
    fn batch_one_fast_path_matches_the_general_loops_bitwise() {
        // A batch of two identical rows takes the general loops; each of
        // its rows must equal the batch-1 kernel path bit for bit. Zeros
        // in the inputs exercise the kernels' exact-zero skip.
        for (d, hdim, k, seed) in [
            (3, 1, 1, 0u64),
            (7, 5, 9, 1),
            (50, 64, 60, 2),
            (12, 33, 70, 3),
        ] {
            let mut att = ExogenousAttention::new(d, d, hdim, seed);
            let sparse = |m: Matrix| m.map(|v| if v.abs() < 0.1 { 0.0 } else { v * 3.0 });
            let xt = sparse(Matrix::xavier_seeded(1, d, 100 + seed));
            let xn: Vec<Matrix> = (0..k as u64)
                .map(|i| sparse(Matrix::xavier_seeded(1, d, 200 + seed * 100 + i)))
                .collect();
            let twice = |m: &Matrix| Matrix::from_rows(&[m.row(0).to_vec(), m.row(0).to_vec()]);
            let xn2: Vec<Matrix> = xn.iter().map(twice).collect();
            let out1 = att.forward(&xt, &xn).clone();
            let attn1 = att.attention_weights().unwrap().clone();
            let out2 = att.forward(&twice(&xt), &xn2).clone();
            let attn2 = att.attention_weights().unwrap().clone();
            for b in 0..2 {
                let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(out2.row(b)),
                    bits(out1.row(0)),
                    "context d={d} h={hdim} k={k}"
                );
                assert_eq!(
                    bits(attn2.row(b)),
                    bits(attn1.row(0)),
                    "weights d={d} h={hdim} k={k}"
                );
            }
        }
    }

    #[test]
    fn f32_forward_tracks_f64_layer() {
        let mut att = ExogenousAttention::new(6, 6, 8, 5);
        let xt = Matrix::xavier_seeded(2, 6, 11);
        let xn: Vec<Matrix> = (0..4)
            .map(|i| Matrix::xavier_seeded(2, 6, 20 + i))
            .collect();
        let want = att.forward(&xt, &xn).clone();
        let mut att32 = att.to_f32();
        assert_eq!(att32.out_dim(), 8);
        let xn32: Vec<Matrix<f32>> = xn.iter().map(Matrix::from_f64).collect();
        let got = att32.forward(&Matrix::from_f64(&xt), &xn32).to_f64();
        let gap = want
            .sub(&got)
            .data()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(gap < 1e-5, "f32 attention drifted by {gap}");
    }

    #[test]
    #[should_panic(expected = "at least one news item")]
    fn empty_news_panics() {
        let mut att = ExogenousAttention::new(2, 2, 2, 0);
        let xt = Matrix::zeros(1, 2);
        let _ = att.forward(&xt, &[]);
    }
}
