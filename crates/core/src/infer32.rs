//! `RetinaF32` — the forward-only `f32` replica of a trained
//! [`crate::retina::Retina`], used by the serving tier's per-worker
//! replicas.
//!
//! Built once via [`crate::retina::Retina::to_f32_inference`]: every
//! weight matrix is narrowed `f64 → f32` a single time, after which
//! scoring runs entirely on the [`nn::tensor`] kernels at `T = f32`
//! with warm scratch reuse (zero steady-state allocation in the tensor
//! ops).
//!
//! ## Tolerance contract
//!
//! Input normalization still runs in `f64` through the fitted
//! [`ml::StandardScaler`] — the narrowing boundary sits *after* the
//! scaler, so the f32 tier sees exactly the rows the f64 model sees,
//! rounded once to `f32`. The final logit→probability map widens back
//! to `f64` and goes through the same
//! [`nn::activation::stable_sigmoid`] as the f64 model. The end-to-end
//! divergence is therefore pure `f32` rounding through the forward
//! pass; the serving parity suite
//! (`crates/serving/tests/f32_parity.rs`) pins it below `1e-3`
//! absolute on probabilities for the golden snapshot. Within the f32
//! tier, results are bit-identical across thread counts, batching
//! orders and the `simd` feature gate (see DESIGN.md §13).

use crate::retina::{PackedSample, RetinaMode};
use ml::StandardScaler;
use nn::activation::stable_sigmoid;
use nn::{AttentionF32, DenseF32, GruF32, LstmF32, Matrix, RnnF32};

/// Recurrent cell of the f32 dynamic head.
#[derive(Debug, Clone)]
pub(crate) enum CellF32 {
    Gru(GruF32),
    Lstm(LstmF32),
    Rnn(RnnF32),
}

impl CellF32 {
    fn forward(&mut self, xs: &[Matrix<f32>]) -> &[Matrix<f32>] {
        match self {
            CellF32::Gru(c) => c.forward(xs),
            CellF32::Lstm(c) => c.forward(xs),
            CellF32::Rnn(c) => c.forward(xs),
        }
    }
}

/// Prediction head of the f32 replica, mirroring the f64 `Head`.
#[derive(Debug, Clone)]
pub(crate) enum HeadF32 {
    Static(DenseF32),
    Dynamic { cell: CellF32, step: DenseF32 },
}

/// Forward-only `f32` replica of a trained RETINA model.
///
/// Construct with [`crate::retina::Retina::to_f32_inference`]. All
/// intermediate buffers are owned scratch: after the first call,
/// repeated predictions on same-shaped samples allocate nothing in the
/// tensor path and are bit-identical for identical inputs.
pub struct RetinaF32 {
    pub(crate) mode: RetinaMode,
    pub(crate) n_intervals: usize,
    pub(crate) hdim: usize,
    pub(crate) user_dense: DenseF32,
    pub(crate) attention: Option<AttentionF32>,
    pub(crate) head: HeadF32,
    /// Input normalization stays in f64 (see module docs).
    pub(crate) scaler: Option<StandardScaler>,
    // Warm scratch.
    pub(crate) x: Matrix<f32>,
    pub(crate) hidden: Matrix<f32>,
    pub(crate) merged: Matrix<f32>,
    pub(crate) logits: Matrix<f32>,
    pub(crate) step_out: Matrix<f32>,
    pub(crate) xt: Matrix<f32>,
    pub(crate) xn: Vec<Matrix<f32>>,
    pub(crate) xs: Vec<Matrix<f32>>,
    pub(crate) ctx_zero: Matrix<f32>,
}

impl RetinaF32 {
    /// Input dimensionality of the candidate feature rows.
    pub fn d_user(&self) -> usize {
        self.user_dense.in_dim()
    }

    /// Scale one candidate row in f64, then narrow into `out`.
    fn scale_narrow_row(scaler: Option<&StandardScaler>, row: &[f64], out: &mut [f32]) {
        match scaler {
            Some(s) => {
                let scaled = s.transform_row(row);
                for (o, v) in out.iter_mut().zip(&scaled) {
                    // lint: allow(float-flow) one-time f64→f32 narrowing after the f64 scaler
                    *o = *v as f32;
                }
            }
            None => {
                for (o, v) in out.iter_mut().zip(row) {
                    // lint: allow(float-flow) one-time f64→f32 narrowing at the inference boundary
                    *o = *v as f32;
                }
            }
        }
    }

    /// Narrow a borrowed f64 row into a 1×d f32 matrix.
    fn narrow_row_into(row: &[f64], out: &mut Matrix<f32>) {
        out.resize_to(1, row.len());
        for (o, v) in out.row_mut(0).iter_mut().zip(row) {
            // lint: allow(float-flow) one-time f64→f32 narrowing at the inference boundary
            *o = *v as f32;
        }
    }

    /// Forward one sample to per-candidate logits
    /// (`candidates × 1` static, `candidates × T` dynamic), left in
    /// `self.logits`.
    fn forward(&mut self, sample: &PackedSample) {
        let n = sample.user_rows.len();
        let d = self.user_dense.in_dim();
        self.x.resize_to(n, d);
        for (r, row) in sample.user_rows.iter().enumerate() {
            assert_eq!(row.len(), d, "candidate row width mismatch");
            Self::scale_narrow_row(self.scaler.as_ref(), row, self.x.row_mut(r));
        }
        self.user_dense.forward_into(&self.x, &mut self.hidden);
        self.hidden.map_assign(|v| v.max(0.0));

        let h_cols = self.hidden.cols();
        match self.attention.as_mut() {
            Some(att) => {
                let ctx: &Matrix<f32> = if sample.news_d2v.is_empty() {
                    self.ctx_zero.resize_to(1, att.out_dim());
                    &self.ctx_zero
                } else {
                    Self::narrow_row_into(&sample.tweet_d2v, &mut self.xt);
                    self.xn
                        .resize_with(sample.news_d2v.len(), || Matrix::zeros(0, 0));
                    for (buf, row) in self.xn.iter_mut().zip(&sample.news_d2v) {
                        Self::narrow_row_into(row, buf);
                    }
                    att.forward(&self.xt, &self.xn)
                };
                // merged = [hidden | ctx broadcast over rows], assembled
                // in scratch: `ctx` is one row, broadcast to all `n`.
                self.merged.resize_to(n, h_cols + ctx.cols());
                for r in 0..n {
                    let hrow = self.hidden.row(r);
                    let crow = ctx.row(0);
                    let mrow = self.merged.row_mut(r);
                    mrow[..h_cols].copy_from_slice(hrow);
                    mrow[h_cols..].copy_from_slice(crow);
                }
            }
            None => {
                self.merged.copy_from(&self.hidden);
            }
        }

        match &mut self.head {
            HeadF32::Static(out) => {
                out.forward_into(&self.merged, &mut self.logits);
            }
            HeadF32::Dynamic { cell, step } => {
                let t_len = self.n_intervals;
                self.xs.resize_with(t_len, || Matrix::zeros(0, 0));
                for buf in &mut self.xs {
                    buf.copy_from(&self.merged);
                }
                let hs = cell.forward(&self.xs);
                self.logits.resize_to(n, t_len);
                for (t, h) in hs.iter().enumerate() {
                    step.forward_into(h, &mut self.step_out);
                    for r in 0..n {
                        self.logits.set(r, t, self.step_out.get(r, 0));
                    }
                }
            }
        }
    }

    /// Static probabilities per candidate, matching
    /// [`crate::retina::Retina::predict_proba`]: in dynamic mode the
    /// static probability is the union `1 − Π_j (1 − p_j)` over
    /// intervals. Logits widen back to f64 before the sigmoid so the
    /// probability map is the exact f64 formula.
    pub fn predict_proba(&mut self, sample: &PackedSample) -> Vec<f64> {
        self.forward(sample);
        let logits = &self.logits;
        match self.mode {
            RetinaMode::Static => (0..logits.rows())
                // lint: allow(float-flow) widening f32 logit back to f64 is exact
                .map(|r| stable_sigmoid(logits.get(r, 0) as f64))
                .collect(),
            RetinaMode::Dynamic => (0..logits.rows())
                .map(|r| {
                    let mut p_none = 1.0;
                    for t in 0..logits.cols() {
                        // lint: allow(float-flow) widening f32 logit back to f64 is exact
                        p_none *= 1.0 - stable_sigmoid(logits.get(r, t) as f64);
                    }
                    1.0 - p_none
                })
                .collect(),
        }
    }

    /// Hidden size (for sizing checks in serving).
    pub fn hdim(&self) -> usize {
        self.hdim
    }
}
