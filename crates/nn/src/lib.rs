//! # nn — minimal neural-network substrate with exact manual backprop
//!
//! RETINA (Section V-B of the paper) is a small model: feed-forward layers,
//! a GRU head for the dynamic setting, and a scaled dot-product attention
//! block over news features, trained with Adam/SGD on a weighted binary
//! cross-entropy. No Rust deep-learning crate is available offline, so
//! this crate implements the required subset from scratch:
//!
//! * [`tensor`] — a dense row-major `Matrix<T>` (batch × features) over
//!   `f64` (the default) or `f32`, with the usual operations, blocked
//!   matmul kernels (optional AVX2 path behind `--features simd`,
//!   bit-identical to the scalar fallback), output-reuse `*_into`
//!   variants and a scratch [`tensor::MatrixPool`].
//! * [`par`] — deterministic work-splitting (thread count never changes
//!   results); home of the `RETINA_THREADS` override.
//! * [`param`] — trainable parameters carrying their gradients and Adam
//!   moments.
//! * [`dense`], [`activation`] — feed-forward layers.
//! * [`gru`], [`lstm`], [`rnn`] — recurrent layers over `Vec<Matrix>`
//!   sequences (the paper ablates GRU vs LSTM vs simple RNN).
//! * [`attention`] — the exogenous scaled dot-product attention of Eqs.
//!   3–5.
//! * [`infer32`] — the `f32` inference tier: forward-only replicas of
//!   the layers above on `Matrix<f32>`, built by narrowing a trained
//!   `f64` model once.
//! * [`loss`] — weighted BCE (Eq. 6) computed on logits for stability.
//! * [`optim`] — SGD and Adam.
//! * [`gradcheck`] — finite-difference gradient verification used by the
//!   test-suite to prove every backward pass exact.
//! * [`sanitize`] — opt-in (`--features sanitize`) finiteness and shape
//!   checks at every layer boundary, reporting structured
//!   [`sanitize::NumericError`]s.
//!
//! Every layer exposes `forward` (caching what backward needs), `backward`
//! (returning the input gradient and accumulating parameter gradients) and
//! `params_mut` (for the optimizer).

pub mod activation;
pub mod attention;
pub mod dense;
pub mod embedding;
pub mod gradcheck;
pub mod gru;
pub mod infer32;
pub mod loss;
pub mod lstm;
pub mod optim;
pub mod par;
pub mod param;
pub mod rnn;
pub mod sanitize;
pub mod tensor;

pub use activation::{Activation, ActivationKind};
pub use attention::ExogenousAttention;
pub use dense::Dense;
pub use embedding::Embedding;
pub use gru::Gru;
pub use infer32::{fast_sigmoid32, fast_tanh32, AttentionF32, DenseF32, GruF32, LstmF32, RnnF32};
pub use loss::WeightedBce;
pub use lstm::Lstm;
pub use optim::{Adam, Optimizer, Sgd};
pub use param::Param;
pub use rnn::SimpleRnn;
pub use sanitize::NumericError;
pub use tensor::{Matrix, MatrixPool, Scalar};
