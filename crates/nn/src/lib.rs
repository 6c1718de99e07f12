//! # nn — minimal neural-network substrate with exact manual backprop
//!
//! RETINA (Section V-B of the paper) is a small model: feed-forward layers,
//! a GRU head for the dynamic setting, and a scaled dot-product attention
//! block over news features, trained with Adam/SGD on a weighted binary
//! cross-entropy. No Rust deep-learning crate is available offline, so
//! this crate implements the required subset from scratch:
//!
//! * [`tensor`] — a dense row-major `Matrix<T>` (batch × features) over
//!   the sealed [`Scalar`]: `f64` (the default, the training width) or
//!   `f32` (the inference width), with the usual operations, one
//!   blocked matmul kernel that the transposed products also run (an
//!   AVX2 clone picked at run time on x86_64 CPUs that have it,
//!   bit-identical to the portable kernel) and output-reuse `*_into`
//!   variants.
//! * [`par`] — deterministic work-splitting (thread count never changes
//!   results): one parallel map, the kernels' row partition and the
//!   serving worker pool; home of the `RETINA_THREADS` override.
//! * [`param`] — trainable parameters carrying their gradients and Adam
//!   moments.
//! * [`dense`], [`activation`] — feed-forward layers.
//! * [`gru`], [`lstm`], [`rnn`] — recurrent layers over `Vec<Matrix>`
//!   sequences (the paper ablates GRU vs LSTM vs simple RNN).
//! * [`attention`] — the exogenous scaled dot-product attention of Eqs.
//!   3–5: one tweet row querying its `k × d` news window.
//! * [`loss`] — weighted BCE (Eq. 6) computed on logits for stability.
//! * [`optim`] — SGD and Adam.
//! * [`gradcheck`] — finite-difference gradient verification used by the
//!   test-suite to prove every backward pass exact.
//! * [`sparse`] — sparse input rows ([`SparseRow`]) and the user
//!   layer's folded standardize-then-dense product.
//! * [`sanitize`] — finiteness and shape checks at every layer boundary
//!   in debug builds (compiled away in release), reporting structured
//!   [`sanitize::NumericError`]s.
//!
//! The dense, attention and recurrent layers are generic over the
//! [`Scalar`] width with one forward body each: `Layer<f64>` trains,
//! and its `to_f32()` narrows the weights once into a forward-only
//! `Layer<f32>` for the inference tier. A forward overwrites the layer's
//! activations from the previous call in place; no layer keeps scratch
//! buffers, so in steady state a forward allocates only its own
//! temporaries (a recurrent cell's input projections and step
//! temporaries, the attention's transposed keys, the folded sparse
//! forward's bias row). `backward` (`f64` only) reads the activations,
//! makes its temporaries as locals and accumulates parameter gradients
//! for `params_mut` (the optimizer). It returns the input gradient where
//! a caller reads one; the attention's inputs are fixed features, so its
//! backward returns nothing. The dense layer holds only its weights: its
//! `backward` takes the forward's input.

pub mod activation;
pub mod attention;
pub mod dense;
pub mod embedding;
pub mod gradcheck;
pub mod gru;
pub mod loss;
pub mod lstm;
pub mod optim;
pub mod par;
pub mod param;
pub mod rnn;
pub mod sanitize;
pub mod sparse;
pub mod tensor;

pub use activation::{Activation, ActivationKind};
pub use attention::ExogenousAttention;
pub use dense::Dense;
pub use embedding::Embedding;
pub use gru::Gru;
pub use loss::WeightedBce;
pub use lstm::Lstm;
pub use optim::{Adam, Optimizer, Sgd};
pub use param::Param;
pub use rnn::SimpleRnn;
pub use sanitize::NumericError;
pub use sparse::{SparseRow, Standardization};
pub use tensor::{Matrix, Scalar};
