//! Exogenous scaled dot-product attention — Eqs. 3–5 of the paper.
//!
//! One tweet's feature row `Xᵀ ∈ (1 × d_t)` queries its news window,
//! the `k` rows of `Xᴺ ∈ (k × d_n)`:
//!
//! ```text
//! q = Xᵀ·W_Q        K = Xᴺ·W_K        V = Xᴺ·W_V
//! a = softmax( q·Kᵀ / √hdim )
//! Xᵀ'ᴺ = a·V
//! ```
//!
//! The tweet representation *queries* the contemporary news stream and the
//! attended value summary `Xᵀ'ᴺ` carries the exogenous signal into the
//! predictor. Both inputs are fixed Doc2Vec features, so backward computes
//! the kernel gradients only; they are exact (verified by finite
//! differences in the tests).

use crate::param::Param;
use crate::tensor::{Matrix, Scalar};

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
}

/// Forward cache; backward reads all of it.
#[derive(Debug, Clone, Default)]
struct Cache<T: Scalar> {
    xt: Matrix<T>,     // 1 × d_t
    xn: Matrix<T>,     // k × d_n
    q: Matrix<T>,      // 1 × h
    keys: Matrix<T>,   // k × h
    values: Matrix<T>, // k × h
    attn: Matrix<T>,   // 1 × k
    out: Matrix<T>,    // 1 × h
}

impl<T: Scalar> ExogenousAttention<T> {
    /// Attention output dimensionality (= hdim).
    pub fn out_dim(&self) -> usize {
        self.hdim
    }

    /// Forward pass for one tweet row `xt` (`1 × d_t`) over its news
    /// window `xn` (`k × d_n`, `k ≥ 1`). Every step runs on the blocked
    /// product kernel; the returned context (`1 × hdim`) stays valid
    /// until the next call.
    pub fn forward(&mut self, xt: &Matrix<T>, xn: &Matrix<T>) -> &Matrix<T> {
        assert_eq!(xt.rows(), 1, "attention takes one tweet row");
        assert!(xn.rows() > 0, "attention needs at least one news item");
        let scale = T::ONE / T::from_f64(self.hdim as f64).max(T::ONE).sqrt();
        let c = self.cache.get_or_insert_with(Cache::default);

        c.xt.copy_from(xt);
        c.xn.copy_from(xn);
        xt.matmul_into(&self.wq.value, &mut c.q);
        xn.matmul_into(&self.wk.value, &mut c.keys);
        xn.matmul_into(&self.wv.value, &mut c.values);
        c.q.matmul_t_into(&c.keys, &mut c.attn);
        c.attn.map_assign(|s| s * scale);
        c.attn.softmax_rows_assign();
        crate::sanitize::check_finite("attention", "scaled_dot", &c.attn);
        c.attn.matmul_into(&c.values, &mut c.out);
        crate::sanitize::check_finite("attention", "forward", &c.out);
        &c.out
    }

    /// The attention weights of the last forward pass (`1 × k`).
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
        }
    }

    /// Backward pass for the last forward, given the context's gradient
    /// (`1 × hdim`): accumulates the W_Q, W_K and W_V gradients.
    ///
    /// Each kernel gradient takes rank-one updates `grad[r][c] += x_r·y_c`,
    /// news item by news item in index order (reductions, kept serial per
    /// the [`crate::par`] contract). That is bit for bit the per-item
    /// `t_matmul` followed by `add_assign`: a gradient that starts at
    /// `+0.0` and only has finite terms added never becomes `−0.0`, so the
    /// product kernel's `+0.0` start and its exact-zero skip, which only
    /// ever add or drop a `±0.0` term, change nothing.
    pub fn backward(&mut self, grad_out: &Matrix) {
        // lint: allow(unwrap) API contract: backward requires a prior forward; lint: allow(panic-reach) API contract, not a data-dependent failure
        let c = self.cache.as_ref().expect("backward before forward");
        let shape = (grad_out.rows(), grad_out.cols());
        assert_eq!(shape, (1, self.hdim), "context gradient shape");
        let scale = 1.0 / (self.hdim.max(1) as f64).sqrt();
        let (g, a, q) = (grad_out.row(0), c.attn.row(0), c.q.row(0));

        // dA_i = g·V_i, then the softmax backward
        // dL_i = A_i·(dA_i − Σ_j A_j·dA_j).
        let d_attn: Vec<f64> = (0..a.len())
            .map(|i| {
                g.iter()
                    .zip(c.values.row(i))
                    .fold(0.0, |d, (&gv, &vv)| d + gv * vv)
            })
            .collect();
        let dot: f64 = a.iter().zip(&d_attn).map(|(&ai, &dai)| ai * dai).sum();

        // Through the scaled dot product and the weighted sum:
        // dq = Σ_i ds_i·K_i,  dK_i = ds_i·q,  dV_i = A_i·g.
        let mut dq = vec![0.0; self.hdim];
        let mut dk = vec![0.0; self.hdim];
        let mut dv = vec![0.0; self.hdim];
        for (i, (&ai, &dai)) in a.iter().zip(&d_attn).enumerate() {
            let ds = ai * (dai - dot) * scale;
            for (dqv, &kv) in dq.iter_mut().zip(c.keys.row(i)) {
                *dqv += ds * kv;
            }
            for (dkv, &qv) in dk.iter_mut().zip(q) {
                *dkv = ds * qv;
            }
            for (dvv, &gv) in dv.iter_mut().zip(g) {
                *dvv = ai * gv;
            }
            add_outer(&mut self.wk.grad, c.xn.row(i), &dk);
            add_outer(&mut self.wv.grad, c.xn.row(i), &dv);
        }
        add_outer(&mut self.wq.grad, c.xt.row(0), &dq);
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
        }
    }
}

/// `grad += xᵀ·y` for row vectors `x` and `y`, one rank-one term per
/// element.
fn add_outer(grad: &mut Matrix, x: &[f64], y: &[f64]) {
    for (r, &xr) in x.iter().enumerate() {
        for (gv, &yc) in grad.row_mut(r).iter_mut().zip(y) {
            *gv += xr * yc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ExogenousAttention, Matrix, Matrix) {
        let att = ExogenousAttention::new(3, 4, 5, 7);
        let xt = Matrix::xavier_seeded(1, 3, 11).scaled(3.0);
        let xn = Matrix::xavier_seeded(4, 4, 20).scaled(3.0);
        (att, xt, xn)
    }

    fn probe(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            (((r * 31 + c * 17 + 3) as f64) * 0.618).sin()
        })
    }

    fn loss(att: &mut ExogenousAttention, xt: &Matrix, xn: &Matrix) -> f64 {
        let y = att.forward(xt, xn);
        let c = probe(y.rows(), y.cols());
        y.hadamard(&c).sum()
    }

    #[test]
    fn attention_weights_form_simplex() {
        let (mut att, xt, xn) = setup();
        let _ = att.forward(&xt, &xn);
        let a = att.attention_weights().unwrap();
        assert_eq!((a.rows(), a.cols()), (1, 4));
        let s: f64 = a.row(0).iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(a.row(0).iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn output_shape() {
        let (mut att, xt, xn) = setup();
        let y = att.forward(&xt, &xn);
        assert_eq!((y.rows(), y.cols()), (1, 5));
    }

    #[test]
    fn gradcheck_kernels() {
        let (mut att, xt, xn) = setup();
        for p in att.params_mut() {
            p.zero_grad();
        }
        let y = att.forward(&xt, &xn);
        let c = probe(y.rows(), y.cols());
        att.backward(&c);
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
        let orthogonal_then_aligned =
            Matrix::from_rows(&[vec![0.0, 1.0, 0.0, 0.0], vec![1.0, 0.0, 0.0, 0.0]]);
        let _ = att.forward(&xt, &orthogonal_then_aligned);
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
        let news = Matrix::from_rows(&[
            vec![1e3, 0.0, 0.0, 0.0],
            vec![-1e3, 0.0, 0.0, 0.0],
            vec![9e2, 0.0, 0.0, 0.0],
        ]);
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
    fn context_weights_and_kernel_gradients_are_pinned() {
        // Three forward+backward calls accumulating into the same kernel
        // gradients, per shape; zeros in the inputs exercise the kernels'
        // exact-zero skip. FNV-1a over the bits of the last context, the
        // last weights and the three kernel gradients. The constants were
        // computed by the batched layer this one replaced, which took
        // each news item as its own one-row matrix.
        let fnv = |ms: &[&Matrix]| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in ms
                .iter()
                .flat_map(|m| m.data())
                .flat_map(|v| v.to_bits().to_le_bytes())
            {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        };
        for ((d, hdim, k, seed), want) in [
            ((3, 1, 1, 0u64), 0x044b_4ef4_de6d_3f32u64),
            ((7, 5, 9, 1), 0x4138_ff54_6183_5176),
            ((50, 64, 60, 2), 0x6d51_336a_18df_7c69),
            ((12, 33, 70, 3), 0x8759_7f04_03b8_1d76),
        ] {
            let mut att = ExogenousAttention::new(d, d, hdim, seed);
            let sparse = |m: Matrix| m.map(|v| if v.abs() < 0.1 { 0.0 } else { v * 3.0 });
            let rows: Vec<Vec<f64>> = (0..k as u64)
                .map(|i| {
                    sparse(Matrix::xavier_seeded(1, d, 200 + seed * 100 + i))
                        .data()
                        .to_vec()
                })
                .collect();
            let xn = Matrix::from_rows(&rows);
            for call in 0..3u64 {
                let xt = sparse(Matrix::xavier_seeded(1, d, 100 + seed + 10 * call));
                let _ = att.forward(&xt, &xn);
                att.backward(&probe(1, hdim).scaled(1.0 + 0.5 * call as f64));
            }
            let c = att.cache.as_ref().unwrap();
            let got = fnv(&[&c.out, &c.attn, &att.wq.grad, &att.wk.grad, &att.wv.grad]);
            assert_eq!(got, want, "d={d} h={hdim} k={k}: {got:#018x}");
        }
    }

    #[test]
    fn f32_forward_tracks_f64_layer() {
        let mut att = ExogenousAttention::new(6, 6, 8, 5);
        let xt = Matrix::xavier_seeded(1, 6, 11);
        let xn = Matrix::xavier_seeded(4, 6, 20);
        let want = att.forward(&xt, &xn).clone();
        let mut att32 = att.to_f32();
        assert_eq!(att32.out_dim(), 8);
        let got = att32
            .forward(&Matrix::from_f64(&xt), &Matrix::from_f64(&xn))
            .to_f64();
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
        let _ = att.forward(&xt, &Matrix::zeros(0, 2));
    }
}
