//! RETINA — Retweeter Identifier Network with Exogenous Attention
//! (Section V-B, Fig. 4).
//!
//! * **Static** (`RETINA-S`, Fig. 4b): each candidate's feature vector is
//!   normalized, passed through a feed-forward layer, concatenated with
//!   the exogenous attention output `X^{T,N}`, and a final feed-forward
//!   layer with sigmoid produces `P^{u_i}`.
//! * **Dynamic** (`RETINA-D`, Fig. 4c): the final feed-forward layer is
//!   replaced by a GRU unrolled over successive time intervals, producing
//!   `P_j^{u_i}` per interval. (LSTM / simple-RNN variants back the
//!   paper's recurrent-cell ablation.)
//! * The `†` ablation (Table VI) removes the exogenous attention branch.
//!
//! Training uses the class-weighted BCE of Eq. 6 with
//! `w = λ(log C − log C⁺)`.

use crate::features::RetweetFeatures;
use crate::seed::SeedStream;
use diffusion::CascadeSample;
use ml::StandardScaler;
use nn::activation::stable_sigmoid;
use nn::{
    Dense, ExogenousAttention, Gru, Lstm, Matrix, Param, Scalar, SimpleRnn, SparseRow, WeightedBce,
};

/// Static vs dynamic prediction (Section V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetinaMode {
    /// All retweeters irrespective of time (`Δt = ∞`).
    Static,
    /// Per-interval prediction with a recurrent head.
    Dynamic,
}

/// Recurrent cell for the dynamic head (paper: GRU best, LSTM no gain,
/// RNN worse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecurrentKind {
    Gru,
    Lstm,
    SimpleRnn,
}

/// RETINA hyperparameters (defaults follow Section VI-D).
#[derive(Debug, Clone)]
pub struct RetinaConfig {
    pub mode: RetinaMode,
    /// Include the exogenous attention branch (`false` = the † ablation).
    pub use_exogenous: bool,
    /// Hidden size for every layer (paper: 64).
    pub hdim: usize,
    /// News items attended per tweet (paper: best at 60).
    pub news_k: usize,
    /// Doc2Vec dimensionality of tweet/news inputs.
    pub d2v_dim: usize,
    /// Interval boundaries (hours after t0) for the dynamic mode.
    pub intervals: Vec<f64>,
    /// Recurrent cell kind for the dynamic mode.
    pub recurrent: RecurrentKind,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for packing/kernels (`0` = auto-detect). The
    /// `RETINA_THREADS` environment variable overrides this; see
    /// [`nn::par::resolve`]. Never affects results — parallel and serial
    /// runs are bit-identical.
    pub threads: usize,
}

impl RetinaConfig {
    /// Paper-default static configuration.
    pub fn static_default() -> Self {
        Self {
            mode: RetinaMode::Static,
            use_exogenous: true,
            hdim: 64,
            news_k: 60,
            d2v_dim: 50,
            intervals: default_intervals(),
            recurrent: RecurrentKind::Gru,
            seed: 0,
            threads: 0,
        }
    }

    /// Paper-default dynamic configuration.
    pub fn dynamic_default() -> Self {
        Self {
            mode: RetinaMode::Dynamic,
            ..Self::static_default()
        }
    }
}

/// Default dynamic-prediction interval boundaries in hours after the root
/// tweet: the last interval is open-ended.
pub fn default_intervals() -> Vec<f64> {
    vec![1.0, 4.0, 12.0, 48.0, 168.0, f64::INFINITY]
}

enum RecurrentCell<T: Scalar> {
    Gru(Gru<T>),
    Lstm(Lstm<T>),
    Rnn(SimpleRnn<T>),
}

impl<T: Scalar> RecurrentCell<T> {
    fn forward_repeated(&mut self, x: &Matrix<T>, steps: usize) -> &[Matrix<T>] {
        match self {
            RecurrentCell::Gru(c) => c.forward_repeated(x, steps),
            RecurrentCell::Lstm(c) => c.forward_repeated(x, steps),
            RecurrentCell::Rnn(c) => c.forward_repeated(x, steps),
        }
    }

    fn outputs(&self) -> &[Matrix<T>] {
        match self {
            RecurrentCell::Gru(c) => c.outputs(),
            RecurrentCell::Lstm(c) => c.outputs(),
            RecurrentCell::Rnn(c) => c.outputs(),
        }
    }
}

impl RecurrentCell<f64> {
    fn backward(&mut self, grads: &[Matrix]) -> Vec<Matrix> {
        match self {
            RecurrentCell::Gru(c) => c.backward(grads),
            RecurrentCell::Lstm(c) => c.backward(grads),
            RecurrentCell::Rnn(c) => c.backward(grads),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            RecurrentCell::Gru(c) => c.params_mut(),
            RecurrentCell::Lstm(c) => c.params_mut(),
            RecurrentCell::Rnn(c) => c.params_mut(),
        }
    }

    fn params(&self) -> Vec<&Param> {
        match self {
            RecurrentCell::Gru(c) => c.params(),
            RecurrentCell::Lstm(c) => c.params(),
            RecurrentCell::Rnn(c) => c.params(),
        }
    }

    fn to_f32(&self) -> RecurrentCell<f32> {
        match self {
            RecurrentCell::Gru(c) => RecurrentCell::Gru(c.to_f32()),
            RecurrentCell::Lstm(c) => RecurrentCell::Lstm(c.to_f32()),
            RecurrentCell::Rnn(c) => RecurrentCell::Rnn(c.to_f32()),
        }
    }
}

/// A packed training/evaluation sample: everything RETINA needs for one
/// root tweet, ready for batched tensor ops.
#[derive(Debug, Clone)]
pub struct PackedSample {
    /// Per-candidate feature rows (`candidates × d_user`), stored
    /// sparse: about 96% of their entries are exact zeros.
    pub user_rows: Vec<SparseRow>,
    /// Static labels per candidate.
    pub labels: Vec<u8>,
    /// Dynamic labels per candidate per interval.
    pub interval_labels: Vec<Vec<u8>>,
    /// Doc2Vec of the root tweet.
    pub tweet_d2v: Vec<f64>,
    /// Doc2Vec sequence of the attended news (`k × d2v`).
    pub news_d2v: Vec<Vec<f64>>,
    /// Gold hate label of the root (used by Figs. 6 and 8).
    pub hateful: bool,
    /// Root-tweet time.
    pub t0: f64,
    /// Retweet times per candidate (∞ = never).
    pub retweet_times: Vec<f64>,
}

/// Pack a task sample into tensors using the feature extractor.
pub fn pack_sample(
    features: &RetweetFeatures<'_>,
    sample: &CascadeSample,
    intervals: &[f64],
    news_k: usize,
) -> PackedSample {
    let user_rows = features.retina_rows(sample.tweet, sample.root_user, &sample.candidates);
    let interval_labels: Vec<Vec<u8>> = sample
        .retweet_times
        .iter()
        .map(|&t| interval_label_row(sample.t0, t, intervals))
        .collect();
    PackedSample {
        user_rows,
        labels: sample.labels.clone(),
        interval_labels,
        tweet_d2v: features.tweet_d2v(sample.tweet),
        news_d2v: features.news_d2v_seq(sample.tweet, news_k),
        hateful: sample.hateful,
        t0: sample.t0,
        retweet_times: sample.retweet_times.clone(),
    }
}

/// Pack many samples in parallel across `n_threads` workers
/// ([`nn::par::map_indexed`]; one worker packs inline, in order). The
/// extractor only reads the corpus and the text models' stored counts,
/// so one extractor is shared by all workers.
///
/// ## Why scheduling cannot reorder outputs
///
/// Each sample `i` is packed into the output slot at index `i`, and the
/// map's cursor hands every index to exactly one worker — a sample's
/// result never travels through a shared queue or channel that could
/// interleave it with another worker's results. The thread count only
/// decides *who* fills a slot, never *which* slot is filled or *what*
/// value goes into it (packing a sample only reads shared state, so
/// each sample's output is a pure function of the sample).
/// Hence the output `Vec` is bit-identical to the serial
/// `samples.iter().map(pack_sample)` for any `n_threads`; the test suite
/// (`tests/parallel_packing.rs`) pins this for 1, 3, and 7 threads.
pub fn pack_samples_parallel(
    features: &RetweetFeatures<'_>,
    samples: &[CascadeSample],
    intervals: &[f64],
    news_k: usize,
    n_threads: usize,
) -> Vec<PackedSample> {
    nn::par::map_indexed(samples.len(), n_threads, |i| {
        pack_sample(features, &samples[i], intervals, news_k)
    })
}

/// One-hot interval membership of a retweet time.
fn interval_label_row(t0: f64, rt_time: f64, intervals: &[f64]) -> Vec<u8> {
    let mut row = vec![0u8; intervals.len()];
    if !rt_time.is_finite() {
        return row;
    }
    let dt = rt_time - t0;
    let mut lo = 0.0;
    for (j, &hi) in intervals.iter().enumerate() {
        if dt > lo && dt <= hi {
            row[j] = 1;
            break;
        }
        lo = hi;
    }
    row
}

/// Prediction head. Exactly one variant exists per model, fixed at
/// construction by [`RetinaMode`], so the hot path never unwraps an
/// `Option` to reach its layers.
enum Head<T: Scalar> {
    /// Static mode: one dense over the merged representation.
    Static(Dense<T>),
    /// Dynamic mode: a recurrent cell unrolled over the intervals plus a
    /// shared per-step dense.
    Dynamic {
        cell: RecurrentCell<T>,
        step: Dense<T>,
    },
}

impl Head<f64> {
    fn to_f32(&self) -> Head<f32> {
        match self {
            Head::Static(out) => Head::Static(out.to_f32()),
            Head::Dynamic { cell, step } => Head::Dynamic {
                cell: cell.to_f32(),
                step: step.to_f32(),
            },
        }
    }
}

/// One forward's activations, overwritten in place by the next forward;
/// backward reads them. The layers allocate their own per-call
/// temporaries (the `nn` crate docs list them).
#[derive(Default)]
struct Activations<T: Scalar> {
    /// `ReLU(x·W + b)` of the user dense (`n × hdim`), where `x` is the
    /// standardized candidate rows.
    hidden: Matrix<T>,
    /// `[hidden | attention context]`, the head's input.
    merged: Matrix<T>,
    /// Per-candidate logits (`n × 1` static, `n × T` dynamic).
    logits: Matrix<T>,
    /// Attention inputs: the tweet's Doc2Vec (`1 × d`) and the news
    /// window's, one row per item (`k × d`).
    xt: Matrix<T>,
    xn: Matrix<T>,
    /// Whether the attention layer ran: it is skipped for a sample with
    /// no news, whose context is zero.
    attended: bool,
    /// One interval's step-dense output.
    step_out: Matrix<T>,
}

/// The RETINA model at width `T`: `Retina` (`f64`) trains;
/// [`Retina::to_f32_inference`] narrows it into a forward-only
/// `Retina<f32>` for the serving tier. Both run the same forward.
///
/// The `f32` tier's tolerance contract: the user layer folds the
/// fitted scaler into its product and computes each term it multiplies
/// (`v/σ`, `μ/σ`, or a centred column's `(v − μ)/σ`) in `f64`, narrowing
/// it once. Logits widen back to `f64` for the probability map. The
/// divergence from `f64` is therefore `f32` rounding through the
/// forward plus the polynomial gate activations ([`Scalar::sigmoid`]);
/// `crates/serving/tests/f32_parity.rs` pins it below `1e-3` absolute
/// on probabilities (DESIGN.md §13).
pub struct Retina<T: Scalar = f64> {
    /// Configuration.
    pub config: RetinaConfig,
    user_dense: Dense<T>,
    attention: Option<ExogenousAttention<T>>,
    head: Head<T>,
    /// Input normalization, folded into `user_dense`; its factors stay
    /// `f64` at both widths.
    scaler: Option<StandardScaler>,
    act: Activations<T>,
}

/// Decorrelated per-layer seeds, in lane order: user dense, exogenous
/// attention, static head, recurrent cell, dynamic step head.
fn layer_seeds(base: u64) -> [u64; 5] {
    let mut stream = SeedStream::new(base);
    [(); 5].map(|()| stream.next_seed())
}

impl<T: Scalar> Retina<T> {
    /// Number of dynamic intervals.
    pub fn n_intervals(&self) -> usize {
        self.config.intervals.len()
    }

    /// Input dimensionality of the candidate feature rows.
    pub fn d_user(&self) -> usize {
        self.user_dense.in_dim()
    }

    /// Attention weights over the news window from the last forward pass
    /// (`1 × k`), when the exogenous branch is enabled and the sample had
    /// news to attend to.
    pub fn attention_weights(&self) -> Option<&Matrix<T>> {
        let att = self.attention.as_ref().filter(|_| self.act.attended)?;
        att.attention_weights()
    }

    /// Forward for one sample: per-candidate logits (`candidates × 1`
    /// static, `candidates × T` dynamic), valid until the next call.
    pub fn forward(&mut self, sample: &PackedSample) -> &Matrix<T> {
        let a = &mut self.act;
        let n = sample.user_rows.len();
        // The scaler folds into the user layer, which multiplies only
        // the rows' stored entries (nn::sparse).
        let scale = self.scaler.as_ref().map(StandardScaler::standardization);
        self.user_dense
            .forward_sparse_into(&sample.user_rows, scale, &mut a.hidden);
        a.hidden.map_assign(|v| v.max(T::ZERO));

        a.attended = false;
        match self.attention.as_mut() {
            Some(att) => {
                let h_cols = a.hidden.cols();
                a.merged.resize_to(n, h_cols + att.out_dim());
                // A sample with no news attends to nothing: its context
                // stays zero.
                if !sample.news_d2v.is_empty() {
                    a.xt.resize_to(1, sample.tweet_d2v.len());
                    narrow_into(&sample.tweet_d2v, a.xt.row_mut(0));
                    a.xn.resize_to(sample.news_d2v.len(), self.config.d2v_dim);
                    for (r, row) in sample.news_d2v.iter().enumerate() {
                        narrow_into(row, a.xn.row_mut(r));
                    }
                    a.attended = true;
                    let ctx = att.forward(&a.xt, &a.xn);
                    for r in 0..n {
                        a.merged.row_mut(r)[h_cols..].copy_from_slice(ctx.row(0));
                    }
                }
                for r in 0..n {
                    a.merged.row_mut(r)[..h_cols].copy_from_slice(a.hidden.row(r));
                }
            }
            None => a.merged.copy_from(&a.hidden),
        }

        match &mut self.head {
            Head::Static(out) => out.forward_into(&a.merged, &mut a.logits),
            Head::Dynamic { cell, step } => {
                // Every interval sees the same merged vector (Fig. 4c).
                let t_len = self.config.intervals.len();
                a.logits.resize_to(n, t_len);
                for (t, h) in cell.forward_repeated(&a.merged, t_len).iter().enumerate() {
                    step.forward_into(h, &mut a.step_out);
                    for r in 0..n {
                        a.logits.set(r, t, a.step_out.get(r, 0));
                    }
                }
            }
        }
        &a.logits
    }

    /// Static probabilities per candidate. In dynamic mode, the static
    /// retweet probability is `1 − Π_j (1 − p_j)` (the union over
    /// intervals). Logits widen to `f64` first, so the probability map
    /// is the `f64` formula at both widths.
    pub fn predict_proba(&mut self, sample: &PackedSample) -> Vec<f64> {
        let mode = self.config.mode;
        let logits = self.forward(sample);
        let p = |r: usize, t: usize| stable_sigmoid(logits.get(r, t).to_f64());
        match mode {
            RetinaMode::Static => (0..logits.rows()).map(|r| p(r, 0)).collect(),
            RetinaMode::Dynamic => (0..logits.rows())
                .map(|r| {
                    let mut p_none = 1.0;
                    for t in 0..logits.cols() {
                        p_none *= 1.0 - p(r, t);
                    }
                    1.0 - p_none
                })
                .collect(),
        }
    }

    /// Per-interval probabilities (`candidates × T`); dynamic mode only.
    pub fn predict_proba_dynamic(&mut self, sample: &PackedSample) -> Matrix {
        assert_eq!(self.config.mode, RetinaMode::Dynamic);
        let logits = self.forward(sample);
        Matrix::from_fn(logits.rows(), logits.cols(), |r, t| {
            stable_sigmoid(logits.get(r, t).to_f64())
        })
    }
}

/// Narrow (or copy, at `f64`) an `f64` row into `out`, of the same width.
fn narrow_into<T: Scalar>(row: &[f64], out: &mut [T]) {
    assert_eq!(row.len(), out.len(), "feature row width");
    for (o, &v) in out.iter_mut().zip(row) {
        *o = T::from_f64(v);
    }
}

impl Retina {
    /// Create an untrained model for `d_user`-dimensional candidate
    /// features.
    pub fn new(d_user: usize, config: RetinaConfig) -> Self {
        let h = config.hdim;
        // Every lane is drawn unconditionally so the layer→seed mapping
        // is independent of which components the config enables.
        let [s_user, s_attn, s_static, s_cell, s_step] = layer_seeds(config.seed);
        let user_dense = Dense::new(d_user, h, s_user);
        let attention = config
            .use_exogenous
            .then(|| ExogenousAttention::new(config.d2v_dim, config.d2v_dim, h, s_attn));
        let merged = if config.use_exogenous { 2 * h } else { h };
        let head = match config.mode {
            RetinaMode::Static => Head::Static(Dense::new(merged, 1, s_static)),
            RetinaMode::Dynamic => {
                let cell = match config.recurrent {
                    RecurrentKind::Gru => RecurrentCell::Gru(Gru::new(merged, h, s_cell)),
                    RecurrentKind::Lstm => RecurrentCell::Lstm(Lstm::new(merged, h, s_cell)),
                    RecurrentKind::SimpleRnn => {
                        RecurrentCell::Rnn(SimpleRnn::new(merged, h, s_cell))
                    }
                };
                Head::Dynamic {
                    cell,
                    step: Dense::new(h, 1, s_step),
                }
            }
        };
        Self {
            config,
            user_dense,
            attention,
            head,
            scaler: None,
            act: Activations::default(),
        }
    }

    /// Fit the input scaler on training rows (called by the trainer).
    pub(crate) fn fit_scaler(&mut self, samples: &[PackedSample]) {
        let rows: Vec<&SparseRow> = samples.iter().flat_map(|s| &s.user_rows).collect();
        self.scaler = Some(StandardScaler::fit_sparse(&rows));
    }

    /// Backward for the last forward (on `sample`) given the logit
    /// gradients; accumulates all parameter gradients.
    pub fn backward(&mut self, sample: &PackedSample, grad_logits: &Matrix) {
        let n = sample.user_rows.len();
        let h = self.config.hdim;
        let a = &self.act;
        let d_merged = match &mut self.head {
            Head::Static(out) => out.backward(&a.merged, grad_logits),
            Head::Dynamic { cell, step } => {
                let mut grad_hs: Vec<Matrix> = Vec::with_capacity(cell.outputs().len());
                for (t, hmat) in cell.outputs().iter().enumerate() {
                    let g = Matrix::from_fn(n, 1, |r, _| grad_logits.get(r, t));
                    grad_hs.push(step.backward(hmat, &g));
                }
                // One input fed every interval: the cell returns its
                // gradient, summed over the steps.
                let mut dxs = cell.backward(&grad_hs);
                assert_eq!(dxs.len(), 1, "one recurrent input per forward");
                dxs.swap_remove(0)
            }
        };
        // Split merged gradient into hidden part and attention context.
        let mut d_hidden = match self.attention.as_mut() {
            Some(att) => {
                let (d_hidden, d_ctx_rows) = d_merged.split_cols(h);
                if a.attended {
                    att.backward(&d_ctx_rows.sum_rows());
                }
                d_hidden
            }
            None => d_merged,
        };
        // ReLU: `hidden > 0` exactly where its pre-activation was.
        d_hidden.zip_assign(&a.hidden, |g, hv| if hv > 0.0 { g } else { 0.0 });
        let scale = self.scaler.as_ref().map(StandardScaler::standardization);
        self.user_dense
            .backward_params_sparse(&sample.user_rows, scale, &d_hidden);
    }

    /// All trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.user_dense.params_mut();
        if let Some(att) = self.attention.as_mut() {
            p.extend(att.params_mut());
        }
        match &mut self.head {
            Head::Static(out) => p.extend(out.params_mut()),
            Head::Dynamic { cell, step } => {
                p.extend(cell.params_mut());
                p.extend(step.params_mut());
            }
        }
        p
    }

    /// Shared view of all trainable parameters, in the same order as
    /// [`Retina::params_mut`] (used by the snapshot writer).
    pub fn params(&self) -> Vec<&Param> {
        let mut p = self.user_dense.params();
        if let Some(att) = self.attention.as_ref() {
            p.extend(att.params());
        }
        match &self.head {
            Head::Static(out) => p.extend(out.params()),
            Head::Dynamic { cell, step } => {
                p.extend(cell.params());
                p.extend(step.params());
            }
        }
        p
    }

    /// The fitted input scaler, if training has run (snapshot capture).
    pub(crate) fn scaler(&self) -> Option<&StandardScaler> {
        self.scaler.as_ref()
    }

    /// Install a previously fitted input scaler (snapshot restore).
    pub(crate) fn set_scaler(&mut self, scaler: Option<StandardScaler>) {
        self.scaler = scaler;
    }

    /// Target matrix matching [`Retina::forward`]'s logit shape.
    pub fn targets(&self, sample: &PackedSample) -> Matrix {
        match self.config.mode {
            RetinaMode::Static => {
                Matrix::from_fn(sample.labels.len(), 1, |r, _| sample.labels[r] as f64)
            }
            RetinaMode::Dynamic => {
                let cols = self.config.intervals.len();
                debug_assert!(sample.interval_labels.iter().all(|row| row.len() == cols));
                Matrix::from_fn(sample.interval_labels.len(), cols, |r, t| {
                    sample.interval_labels[r][t] as f64
                })
            }
        }
    }

    /// Loss/gradient pair for one sample under a weighted BCE.
    pub fn loss_and_grad(&mut self, sample: &PackedSample, bce: &WeightedBce) -> (f64, Matrix) {
        let targets = self.targets(sample);
        let logits = self.forward(sample);
        (bce.loss(logits, &targets), bce.grad(logits, &targets))
    }

    /// The forward-only `f32` replica of this model for the serving
    /// tier: every weight is narrowed `f64 → f32` once; input
    /// normalization keeps the `f64` scaler.
    pub fn to_f32_inference(&self) -> Retina<f32> {
        Retina {
            config: self.config.clone(),
            user_dense: self.user_dense.to_f32(),
            attention: self.attention.as_ref().map(ExogenousAttention::to_f32),
            head: self.head.to_f32(),
            scaler: self.scaler.clone(),
            act: Activations::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_seeds_are_pairwise_distinct_for_representative_bases() {
        // The old `seed ^ 0xA77` derivation produced correlated seeds
        // (for base 0 they *were* the constants); the splitmix64 stream
        // must yield pairwise-distinct lanes for degenerate bases too.
        for base in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let seeds = layer_seeds(base);
            for i in 0..seeds.len() {
                for j in i + 1..seeds.len() {
                    assert_ne!(
                        seeds[i], seeds[j],
                        "lanes {i} and {j} collide for base {base:#x}"
                    );
                }
            }
        }
        assert_ne!(layer_seeds(0), layer_seeds(1));
    }

    fn toy_sample(n: usize, d: usize, k: usize, hateful: bool, seed: u64) -> PackedSample {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let user_rows: Vec<SparseRow> = (0..n)
            .map(|_| {
                let row: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
                SparseRow::from_dense(&row)
            })
            .collect();
        let labels: Vec<u8> = (0..n).map(|i| u8::from(i % 4 == 0)).collect();
        let intervals = default_intervals();
        let retweet_times: Vec<f64> = labels
            .iter()
            .map(|&l| {
                if l == 1 {
                    10.0 + rng.gen_range(0.0..50.0)
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let interval_labels: Vec<Vec<u8>> = retweet_times
            .iter()
            .map(|&t| super::interval_label_row(10.0, t, &intervals))
            .collect();
        PackedSample {
            user_rows,
            labels,
            interval_labels,
            tweet_d2v: (0..50).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            news_d2v: (0..k)
                .map(|_| (0..50).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect(),
            hateful,
            t0: 10.0,
            retweet_times,
        }
    }

    #[test]
    fn static_forward_shape() {
        let mut m = Retina::new(20, RetinaConfig::static_default());
        let s = toy_sample(8, 20, 5, false, 0);
        let logits = m.forward(&s);
        assert_eq!((logits.rows(), logits.cols()), (8, 1));
        let p = m.predict_proba(&s);
        assert_eq!(p.len(), 8);
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn dynamic_forward_shape() {
        let mut m = Retina::new(20, RetinaConfig::dynamic_default());
        let s = toy_sample(6, 20, 5, false, 1);
        let logits = m.forward(&s);
        assert_eq!((logits.rows(), logits.cols()), (6, 6));
        let p = m.predict_proba_dynamic(&s);
        assert!(p.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn ablated_model_has_no_attention() {
        let cfg = RetinaConfig {
            use_exogenous: false,
            ..RetinaConfig::static_default()
        };
        let mut m = Retina::new(20, cfg);
        let s = toy_sample(4, 20, 5, false, 2);
        let logits = m.forward(&s);
        assert_eq!(logits.rows(), 4);
        assert!(m.attention.is_none());
    }

    #[test]
    fn interval_labels_partition_time() {
        let intervals = default_intervals();
        // A retweet at +2h lands in interval 1 ((1,4]).
        let row = super::interval_label_row(0.0, 2.0, &intervals);
        assert_eq!(row, vec![0, 1, 0, 0, 0, 0]);
        // Never-retweet has all-zero labels.
        let none = super::interval_label_row(0.0, f64::INFINITY, &intervals);
        assert!(none.iter().all(|&x| x == 0));
        // Sum over intervals ≤ 1 always.
        for dt in [0.5, 3.0, 10.0, 100.0, 1000.0] {
            let r = super::interval_label_row(0.0, dt, &intervals);
            assert!(r.iter().map(|&x| x as u32).sum::<u32>() <= 1);
        }
    }

    #[test]
    fn backward_accumulates_gradients() {
        let mut m = Retina::new(20, RetinaConfig::static_default());
        let s = toy_sample(8, 20, 5, false, 3);
        let bce = WeightedBce::unweighted();
        let (_, grad) = m.loss_and_grad(&s, &bce);
        m.backward(&s, &grad);
        let has_grad = m
            .params_mut()
            .iter()
            .any(|p| p.grad.data().iter().any(|&g| g != 0.0));
        assert!(has_grad, "no gradient flowed");
    }

    #[test]
    fn dynamic_backward_runs() {
        let mut m = Retina::new(20, RetinaConfig::dynamic_default());
        let s = toy_sample(5, 20, 5, false, 4);
        let bce = WeightedBce { pos_weight: 3.0 };
        let (_, grad) = m.loss_and_grad(&s, &bce);
        m.backward(&s, &grad);
        let total: f64 = m.params_mut().iter().map(|p| p.grad.frobenius()).sum();
        assert!(total > 0.0);
    }

    #[test]
    fn attention_weights_reset_after_newsless_forward() {
        let mut m = Retina::new(20, RetinaConfig::static_default());
        let _ = m.forward(&toy_sample(4, 20, 5, false, 6));
        let shape = m.attention_weights().map(|a| (a.rows(), a.cols()));
        assert_eq!(shape, Some((1, 5)));
        let _ = m.forward(&toy_sample(4, 20, 0, false, 7));
        assert!(
            m.attention_weights().is_none(),
            "a newsless forward must not report the previous sample's weights"
        );
    }

    #[test]
    fn union_probability_exceeds_max_interval() {
        let mut m = Retina::new(20, RetinaConfig::dynamic_default());
        let s = toy_sample(5, 20, 5, false, 5);
        let per = m.predict_proba_dynamic(&s);
        let stat = m.predict_proba(&s);
        for r in 0..5 {
            let max_j = (0..per.cols()).map(|t| per.get(r, t)).fold(0.0, f64::max);
            assert!(stat[r] >= max_j - 1e-12);
        }
    }
}
