//! Inference-only `f32` replicas of the layer forward passes.
//!
//! Each layer here is built by narrowing a trained `f64` layer once
//! ([`Matrix::from_f64`]) and then serves forward passes on the
//! [`crate::tensor`] kernels at `T = f32` with warm scratch reuse — zero
//! steady-state allocation, no backward, no parameter plumbing. The
//! arithmetic *structure* (operation order per element) mirrors the
//! `f64` layers exactly, with one documented exception: gate
//! transcendentals go through [`fast_sigmoid32`]/[`fast_tanh32`], a
//! vectorizable polynomial `exp2` whose ≈2e-7 relative error sits three
//! orders of magnitude inside the tier's tolerance contract. Everything
//! else diverges from the `f64` forward only by `f32` rounding; the
//! serving parity suite bounds the total end to end (DESIGN.md §13).

use crate::tensor::{Matrix, MatrixPool};
use crate::{Dense, ExogenousAttention, Gru, Lstm, SimpleRnn};

/// `2^t` over clamped inputs via exponent-bit assembly and a degree-6
/// polynomial for the fractional part — every operation is a plain IEEE
/// add/mul/convert, so `map_assign` loops over it autovectorize on bare
/// SSE2 (no `exp2f` libcall, no SSE4 `roundps`). Callers clamp `t` to
/// `[-126, 126]` so the assembled exponent stays normal.
///
/// Identical bits scalar or vectorized: per-lane IEEE mul/add/convert
/// round the same way, and Rust never contracts to FMA.
#[inline(always)]
fn exp2_fast(t: f32) -> f32 {
    // Round-to-nearest-even without `roundps`: adding 1.5·2²³ pushes the
    // fraction off the end of the f32 mantissa, the subtraction brings
    // back the rounded integer. Valid for |t| < 2²², far beyond the
    // clamped range.
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    let n_f = (t + MAGIC) - MAGIC;
    let f = t - n_f; // fractional part in [-0.5, 0.5]
                     // Degree-6 Taylor of 2^f = e^{f·ln2}; max relative error ≈ 2e-7 on
                     // the reduced interval — below one f32 ulp of the final product.
    let p = 1.540_353e-4_f32;
    let p = p * f + 1.333_355_8e-3;
    let p = p * f + 9.618_13e-3;
    let p = p * f + 5.550_411e-2;
    let p = p * f + 2.402_265_1e-1;
    let p = p * f + 6.931_472e-1;
    let p = p * f + 1.0;
    // lint: allow(lossy-cast) n_f is an exact small integer after the magic-constant round
    let n = n_f as i32;
    // 2^n assembled directly in the exponent field; n ∈ [-126, 126] keeps
    // the result normal on both ends.
    // lint: allow(lossy-cast) n+127 ∈ [1, 253] after the clamp, so the i32→u32 bit pattern is the intended exponent field
    let scale = f32::from_bits(((n + 127) << 23) as u32);
    p * scale
}

const LOG2_E: f32 = std::f32::consts::LOG2_E;

/// Vectorizable sigmoid for the f32 gate paths: `σ(x) = 1/(1+e^{-x})`
/// computed through [`exp2_fast`] on `-|x|` (always-stable form), then
/// reflected for positive inputs. Branch arms are pure, so the
/// autovectorizer turns the select into a blend. Relative error vs the
/// libm [`crate::activation::stable_sigmoid`] is ≈2e-7 — inside the f32-tier tolerance
/// contract (DESIGN.md §13) by three orders of magnitude.
#[inline(always)]
pub fn fast_sigmoid32(x: f32) -> f32 {
    let t = (-x.abs() * LOG2_E).max(-126.0);
    let e = exp2_fast(t); // e^{-|x|} ∈ (0, 1]
    let s = e / (1.0 + e); // σ(-|x|)
    if x >= 0.0 {
        1.0 - s
    } else {
        s
    }
}

/// Vectorizable tanh for the f32 gate paths:
/// `tanh(|x|) = (e^{2|x|} − 1)/(e^{2|x|} + 1)`, sign restored with
/// `copysign`. Same error budget and vectorization story as
/// [`fast_sigmoid32`].
#[inline(always)]
pub fn fast_tanh32(x: f32) -> f32 {
    let t = (2.0 * x.abs() * LOG2_E).min(126.0);
    let e = exp2_fast(t); // e^{2|x|} ∈ [1, 2^126]
    let th = (e - 1.0) / (e + 1.0);
    th.copysign(x)
}

/// `f32` dense layer: `y = x·W + b`, forward only.
#[derive(Debug, Clone)]
pub struct DenseF32 {
    w: Matrix<f32>,
    b: Matrix<f32>,
}

impl DenseF32 {
    /// Narrow a trained `f64` dense layer.
    pub fn from_dense(src: &Dense) -> Self {
        Self {
            w: Matrix::from_f64(&src.w.value),
            b: Matrix::from_f64(&src.b.value),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward into a caller-owned buffer.
    pub fn forward_into(&self, x: &Matrix<f32>, out: &mut Matrix<f32>) {
        x.matmul_into(&self.w, out);
        out.add_row_broadcast_assign(&self.b);
    }
}

/// `f32` exogenous attention, forward only (Eqs. 3–5). News-side
/// projections run stacked exactly like the `f64` layer; all buffers
/// are owned scratch reused across calls.
#[derive(Debug, Clone)]
pub struct AttentionF32 {
    wq: Matrix<f32>,
    wk: Matrix<f32>,
    wv: Matrix<f32>,
    hdim: usize,
    q: Matrix<f32>,
    xn_all: Matrix<f32>,
    keys_all: Matrix<f32>,
    values_all: Matrix<f32>,
    attn: Matrix<f32>,
    out: Matrix<f32>,
}

impl AttentionF32 {
    /// Narrow a trained `f64` attention block.
    pub fn from_attention(src: &ExogenousAttention) -> Self {
        Self {
            wq: Matrix::from_f64(&src.wq.value),
            wk: Matrix::from_f64(&src.wk.value),
            wv: Matrix::from_f64(&src.wv.value),
            hdim: src.out_dim(),
            q: Matrix::zeros(0, 0),
            xn_all: Matrix::zeros(0, 0),
            keys_all: Matrix::zeros(0, 0),
            values_all: Matrix::zeros(0, 0),
            attn: Matrix::zeros(0, 0),
            out: Matrix::zeros(0, 0),
        }
    }

    /// Attention output dimensionality (= hdim).
    pub fn out_dim(&self) -> usize {
        self.hdim
    }

    /// Forward pass; the returned reference stays valid until the next
    /// call. `xn` must be non-empty with the same batch size as `xt`.
    pub fn forward(&mut self, xt: &Matrix<f32>, xn: &[Matrix<f32>]) -> &Matrix<f32> {
        assert!(!xn.is_empty(), "attention needs at least one news item");
        let batch = xt.rows();
        assert!(
            xn.iter().all(|n| n.rows() == batch),
            "news batch size must match tweet batch size"
        );
        let k = xn.len();
        // lint: allow(float-flow) f32 replica of the f64 1/sqrt(hdim) attention scale; lint: allow(lossy-cast) hdim is a small layer width, exact in f32
        let scale = 1.0 / (self.hdim.max(1) as f32).sqrt();

        xt.matmul_into(&self.wq, &mut self.q);
        Matrix::vstack_into(xn, &mut self.xn_all);
        self.xn_all.matmul_into(&self.wk, &mut self.keys_all);
        self.xn_all.matmul_into(&self.wv, &mut self.values_all);

        if batch == 1 {
            // Production shape (one user row per call): the score pass is
            // exactly q·keysᵀ and the context pass exactly attn·values, so
            // both run on the blocked kernels. Per output element the
            // kernels accumulate strictly ascending — the same order as
            // the generic loops below, so this branch changes no bits.
            self.q.matmul_t_into(&self.keys_all, &mut self.attn);
            self.attn.map_assign(|s| s * scale);
            self.attn.softmax_rows_assign();
            self.attn.matmul_into(&self.values_all, &mut self.out);
            return &self.out;
        }

        self.attn.resize_to(batch, k);
        for i in 0..k {
            for b in 0..batch {
                let mut s = 0.0f32;
                for (&qv, &kv) in self.q.row(b).iter().zip(self.keys_all.row(i * batch + b)) {
                    // lint: allow(float-flow) ascending-k dot, order pinned to the f64 attention
                    s += qv * kv;
                }
                self.attn.set(b, i, s * scale);
            }
        }
        self.attn.softmax_rows_assign();

        self.out.resize_to(batch, self.hdim);
        for i in 0..k {
            for b in 0..batch {
                let a = self.attn.get(b, i);
                let vrow = self.values_all.row(i * batch + b);
                let orow = self.out.row_mut(b);
                for (o, &v) in orow.iter_mut().zip(vrow) {
                    *o += a * v;
                }
            }
        }
        &self.out
    }
}

/// `f32` GRU, forward only. Hidden states are layer-owned and reused
/// across calls; the returned slice stays valid until the next call.
#[derive(Debug, Clone)]
pub struct GruF32 {
    wz: Matrix<f32>,
    uz: Matrix<f32>,
    bz: Matrix<f32>,
    wr: Matrix<f32>,
    ur: Matrix<f32>,
    br: Matrix<f32>,
    wh: Matrix<f32>,
    uh: Matrix<f32>,
    bh: Matrix<f32>,
    hidden: usize,
    hs: Vec<Matrix<f32>>,
    pool: MatrixPool<f32>,
}

impl GruF32 {
    /// Narrow a trained `f64` GRU.
    pub fn from_gru(src: &Gru) -> Self {
        Self {
            wz: Matrix::from_f64(&src.wz.value),
            uz: Matrix::from_f64(&src.uz.value),
            bz: Matrix::from_f64(&src.bz.value),
            wr: Matrix::from_f64(&src.wr.value),
            ur: Matrix::from_f64(&src.ur.value),
            br: Matrix::from_f64(&src.br.value),
            wh: Matrix::from_f64(&src.wh.value),
            uh: Matrix::from_f64(&src.uh.value),
            bh: Matrix::from_f64(&src.bh.value),
            hidden: src.hidden_dim(),
            hs: Vec::new(),
            pool: MatrixPool::new(),
        }
    }

    /// Hidden dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Forward over a sequence; returns hidden states `h_1..h_T`.
    pub fn forward(&mut self, xs: &[Matrix<f32>]) -> &[Matrix<f32>] {
        assert!(!xs.is_empty(), "GRU needs a non-empty sequence");
        for m in self.hs.drain(..) {
            self.pool.recycle(m);
        }
        let batch = xs[0].rows();
        let mut h_prev = self.pool.grab(batch, self.hidden);
        let mut tmp = self.pool.grab(0, 0);
        let mut z = self.pool.grab(0, 0);
        let mut r = self.pool.grab(0, 0);
        let mut rh = self.pool.grab(0, 0);
        let mut h_hat = self.pool.grab(0, 0);
        for x in xs {
            // z = σ(x·Wz + h·Uz + bz)
            x.matmul_into(&self.wz, &mut z);
            h_prev.matmul_into(&self.uz, &mut tmp);
            z.add_assign(&tmp);
            z.add_row_broadcast_assign(&self.bz);
            z.map_assign(fast_sigmoid32);
            // r = σ(x·Wr + h·Ur + br)
            x.matmul_into(&self.wr, &mut r);
            h_prev.matmul_into(&self.ur, &mut tmp);
            r.add_assign(&tmp);
            r.add_row_broadcast_assign(&self.br);
            r.map_assign(fast_sigmoid32);
            // ĥ = tanh(x·Wh + (r ⊙ h)·Uh + bh)
            rh.copy_from(&r);
            rh.hadamard_assign(&h_prev);
            x.matmul_into(&self.wh, &mut h_hat);
            rh.matmul_into(&self.uh, &mut tmp);
            h_hat.add_assign(&tmp);
            h_hat.add_row_broadcast_assign(&self.bh);
            h_hat.map_assign(fast_tanh32);
            // h = (1−z) ⊙ h_prev + z ⊙ ĥ
            let mut h = self.pool.grab(0, 0);
            h.copy_from(&h_prev);
            h.zip_assign(&z, |hp, zv| (1.0 - zv) * hp);
            tmp.copy_from(&z);
            tmp.hadamard_assign(&h_hat);
            h.add_assign(&tmp);
            self.hs.push(std::mem::replace(&mut h_prev, h));
        }
        self.hs.push(h_prev);
        for m in [tmp, z, r, rh, h_hat] {
            self.pool.recycle(m);
        }
        &self.hs[1..]
    }
}

/// `f32` LSTM, forward only.
#[derive(Debug, Clone)]
pub struct LstmF32 {
    wi: Matrix<f32>,
    ui: Matrix<f32>,
    bi: Matrix<f32>,
    wf: Matrix<f32>,
    uf: Matrix<f32>,
    bf: Matrix<f32>,
    wo: Matrix<f32>,
    uo: Matrix<f32>,
    bo: Matrix<f32>,
    wg: Matrix<f32>,
    ug: Matrix<f32>,
    bg: Matrix<f32>,
    hidden: usize,
    hs: Vec<Matrix<f32>>,
    pool: MatrixPool<f32>,
}

impl LstmF32 {
    /// Narrow a trained `f64` LSTM.
    pub fn from_lstm(src: &Lstm) -> Self {
        Self {
            wi: Matrix::from_f64(&src.wi.value),
            ui: Matrix::from_f64(&src.ui.value),
            bi: Matrix::from_f64(&src.bi.value),
            wf: Matrix::from_f64(&src.wf.value),
            uf: Matrix::from_f64(&src.uf.value),
            bf: Matrix::from_f64(&src.bf.value),
            wo: Matrix::from_f64(&src.wo.value),
            uo: Matrix::from_f64(&src.uo.value),
            bo: Matrix::from_f64(&src.bo.value),
            wg: Matrix::from_f64(&src.wg.value),
            ug: Matrix::from_f64(&src.ug.value),
            bg: Matrix::from_f64(&src.bg.value),
            hidden: src.hidden_dim(),
            hs: Vec::new(),
            pool: MatrixPool::new(),
        }
    }

    /// Hidden dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Forward over a sequence; returns hidden states `h_1..h_T`.
    pub fn forward(&mut self, xs: &[Matrix<f32>]) -> &[Matrix<f32>] {
        assert!(!xs.is_empty(), "LSTM needs a non-empty sequence");
        for m in self.hs.drain(..) {
            self.pool.recycle(m);
        }
        let batch = xs[0].rows();
        let mut h_prev = self.pool.grab(batch, self.hidden);
        let mut c_prev = self.pool.grab(batch, self.hidden);
        let mut tmp = self.pool.grab(0, 0);
        let mut i = self.pool.grab(0, 0);
        let mut f = self.pool.grab(0, 0);
        let mut o = self.pool.grab(0, 0);
        let mut g = self.pool.grab(0, 0);
        let mut c = self.pool.grab(0, 0);
        for x in xs {
            x.matmul_into(&self.wi, &mut i);
            h_prev.matmul_into(&self.ui, &mut tmp);
            i.add_assign(&tmp);
            i.add_row_broadcast_assign(&self.bi);
            i.map_assign(fast_sigmoid32);
            x.matmul_into(&self.wf, &mut f);
            h_prev.matmul_into(&self.uf, &mut tmp);
            f.add_assign(&tmp);
            f.add_row_broadcast_assign(&self.bf);
            f.map_assign(fast_sigmoid32);
            x.matmul_into(&self.wo, &mut o);
            h_prev.matmul_into(&self.uo, &mut tmp);
            o.add_assign(&tmp);
            o.add_row_broadcast_assign(&self.bo);
            o.map_assign(fast_sigmoid32);
            x.matmul_into(&self.wg, &mut g);
            h_prev.matmul_into(&self.ug, &mut tmp);
            g.add_assign(&tmp);
            g.add_row_broadcast_assign(&self.bg);
            g.map_assign(fast_tanh32);
            // c = f ⊙ c_prev + i ⊙ g
            c.copy_from(&f);
            c.hadamard_assign(&c_prev);
            tmp.copy_from(&i);
            tmp.hadamard_assign(&g);
            c.add_assign(&tmp);
            c_prev.copy_from(&c);
            // h = o ⊙ tanh(c)
            let mut h = self.pool.grab(0, 0);
            h.copy_from(&c);
            h.map_assign(fast_tanh32);
            h.hadamard_assign(&o);
            self.hs.push(std::mem::replace(&mut h_prev, h));
        }
        self.hs.push(h_prev);
        for m in [tmp, i, f, o, g, c, c_prev] {
            self.pool.recycle(m);
        }
        &self.hs[1..]
    }
}

/// `f32` simple (Elman) RNN, forward only.
#[derive(Debug, Clone)]
pub struct RnnF32 {
    w: Matrix<f32>,
    u: Matrix<f32>,
    b: Matrix<f32>,
    hidden: usize,
    hs: Vec<Matrix<f32>>,
    pool: MatrixPool<f32>,
}

impl RnnF32 {
    /// Narrow a trained `f64` RNN.
    pub fn from_rnn(src: &SimpleRnn) -> Self {
        Self {
            w: Matrix::from_f64(&src.w.value),
            u: Matrix::from_f64(&src.u.value),
            b: Matrix::from_f64(&src.b.value),
            hidden: src.hidden_dim(),
            hs: Vec::new(),
            pool: MatrixPool::new(),
        }
    }

    /// Hidden dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Forward over a sequence; returns hidden states `h_1..h_T`.
    pub fn forward(&mut self, xs: &[Matrix<f32>]) -> &[Matrix<f32>] {
        assert!(!xs.is_empty(), "RNN needs a non-empty sequence");
        for m in self.hs.drain(..) {
            self.pool.recycle(m);
        }
        let batch = xs[0].rows();
        let mut h_prev = self.pool.grab(batch, self.hidden);
        let mut tmp = self.pool.grab(0, 0);
        for x in xs {
            let mut h = self.pool.grab(0, 0);
            x.matmul_into(&self.w, &mut h);
            h_prev.matmul_into(&self.u, &mut tmp);
            h.add_assign(&tmp);
            h.add_row_broadcast_assign(&self.b);
            h.map_assign(fast_tanh32);
            self.hs.push(std::mem::replace(&mut h_prev, h));
        }
        self.hs.push(h_prev);
        self.pool.recycle(tmp);
        &self.hs[1..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::stable_sigmoid;

    /// Max |f64 − f32| over all elements of a forward output.
    fn max_abs_gap(wide: &Matrix, narrow: &Matrix<f32>) -> f64 {
        assert_eq!((wide.rows(), wide.cols()), (narrow.rows(), narrow.cols()));
        let mut worst = 0.0f64;
        for r in 0..wide.rows() {
            for c in 0..wide.cols() {
                worst = worst.max((wide.get(r, c) - narrow.get(r, c) as f64).abs());
            }
        }
        worst
    }

    fn narrow_seq(xs: &[Matrix]) -> Vec<Matrix<f32>> {
        xs.iter().map(Matrix::from_f64).collect()
    }

    #[test]
    fn dense_forward_tracks_f64_layer() {
        let mut d = Dense::new(7, 4, 3);
        let x = Matrix::xavier_seeded(5, 7, 8);
        let want = d.forward(&x);
        let d32 = DenseF32::from_dense(&d);
        assert_eq!((d32.in_dim(), d32.out_dim()), (7, 4));
        let mut got = Matrix::zeros(0, 0);
        d32.forward_into(&Matrix::from_f64(&x), &mut got);
        assert!(max_abs_gap(&want, &got) < 1e-5);
    }

    #[test]
    fn attention_forward_tracks_f64_layer() {
        let mut att = ExogenousAttention::new(6, 6, 8, 5);
        let xt = Matrix::xavier_seeded(2, 6, 11);
        let xn: Vec<Matrix> = (0..4)
            .map(|i| Matrix::xavier_seeded(2, 6, 20 + i))
            .collect();
        let want = att.forward(&xt, &xn);
        let mut att32 = AttentionF32::from_attention(&att);
        assert_eq!(att32.out_dim(), 8);
        let got = att32.forward(&Matrix::from_f64(&xt), &narrow_seq(&xn));
        assert!(max_abs_gap(&want, got) < 1e-5);
    }

    #[test]
    fn recurrent_forwards_track_f64_layers() {
        let xs: Vec<Matrix> = (0..4)
            .map(|i| Matrix::xavier_seeded(3, 5, 40 + i))
            .collect();
        let xs32 = narrow_seq(&xs);

        let mut gru = Gru::new(5, 6, 9);
        let want = gru.forward(&xs);
        let mut gru32 = GruF32::from_gru(&gru);
        let got = gru32.forward(&xs32);
        assert_eq!(got.len(), want.len());
        for (w, g) in want.iter().zip(got) {
            assert!(max_abs_gap(w, g) < 1e-5);
        }

        let mut lstm = Lstm::new(5, 6, 9);
        let want = lstm.forward(&xs);
        let mut lstm32 = LstmF32::from_lstm(&lstm);
        let got = lstm32.forward(&xs32);
        for (w, g) in want.iter().zip(got) {
            assert!(max_abs_gap(w, g) < 1e-5);
        }

        let mut rnn = SimpleRnn::new(5, 6, 9);
        let want = rnn.forward(&xs);
        let mut rnn32 = RnnF32::from_rnn(&rnn);
        let got = rnn32.forward(&xs32);
        for (w, g) in want.iter().zip(got) {
            assert!(max_abs_gap(w, g) < 1e-5);
        }
    }

    #[test]
    fn repeated_forward_through_warm_scratch_is_bit_identical() {
        let xs: Vec<Matrix> = (0..4)
            .map(|i| Matrix::xavier_seeded(3, 5, 60 + i))
            .collect();
        let xs32 = narrow_seq(&xs);
        let gru = Gru::new(5, 6, 9);
        let mut gru32 = GruF32::from_gru(&gru);
        let first: Vec<Matrix<f32>> = gru32.forward(&xs32).to_vec();
        for _ in 0..3 {
            let again = gru32.forward(&xs32);
            for (t, (y0, y1)) in first.iter().zip(again).enumerate() {
                assert_eq!(y0.data(), y1.data(), "GRU32 step {t} drifted on reuse");
            }
        }
    }

    #[test]
    fn fast_activations_track_libm_within_budget() {
        // Dense sweep over the range gate pre-activations live in, plus
        // the saturation tails. The documented budget is 2e-7 relative
        // (≈ absolute here, both functions are bounded by 1).
        let mut x = -40.0f32;
        while x <= 40.0 {
            let s = fast_sigmoid32(x);
            let t = fast_tanh32(x);
            assert!(
                (s - stable_sigmoid(x)).abs() < 5e-7,
                "sigmoid gap at {x}: {s} vs {}",
                stable_sigmoid(x)
            );
            assert!(
                (t - x.tanh()).abs() < 5e-7,
                "tanh gap at {x}: {t} vs {}",
                x.tanh()
            );
            x += 0.0137;
        }
        // Saturation and edge cases stay finite and exact-signed.
        assert_eq!(fast_sigmoid32(0.0), 0.5);
        assert_eq!(fast_tanh32(0.0), 0.0);
        assert!(fast_sigmoid32(1000.0) <= 1.0 && fast_sigmoid32(1000.0) > 0.999);
        assert!(fast_sigmoid32(-1000.0) >= 0.0 && fast_sigmoid32(-1000.0) < 1e-6);
        assert_eq!(fast_tanh32(1000.0), 1.0);
        assert_eq!(fast_tanh32(-1000.0), -1.0);
        assert!(fast_tanh32(-3.0) == -fast_tanh32(3.0));
    }
}
