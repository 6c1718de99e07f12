//! # diffusion — diffusion models and neural retweet-prediction baselines
//!
//! Every baseline RETINA is compared against in Table VI, plus the task
//! construction shared by all retweet-prediction models:
//!
//! * [`task`] — converts a [`socialsim::Dataset`] into per-tweet
//!   (candidate, label) samples: "whether a follower of a user will
//!   retweet (participate in the cascade) or not" (Section II), including
//!   the *beyond-organic* candidates (retweeters not visible in the
//!   follower graph, Section III).
//! * [`sir`] — the Susceptible–Infectious–Recovered contagion model [19].
//! * [`threshold`] — the General (Linear) Threshold model of Kempe et al.
//!   [40].
//! * [`independent_cascade`] — Independent Cascade, an extra rudimentary
//!   baseline for ablations.
//! * [`topolstm`] — a TopoLSTM-style recurrent cascade ranker [26].
//! * [`forest_model`] — a FOREST-style global-graph ranker with structural
//!   context [27].
//! * [`hidan`] — a HIDAN-style temporal-attention ranker without a global
//!   graph [28]; like the original it can only score users already seen in
//!   the cascade, which is why it collapses on follower-candidate ranking
//!   (MAP@20 ≈ 0.05 in the paper).

pub mod forest_model;
pub mod hidan;
pub mod independent_cascade;
pub mod neural_common;
pub mod sir;
pub mod task;
pub mod threshold;
pub mod topolstm;

pub use forest_model::{ForestModel, ForestModelConfig};
pub use hidan::{Hidan, HidanConfig};
pub use independent_cascade::IndependentCascade;
pub use sir::SirModel;
pub use task::{split_samples, CascadeSample, RetweetTask};
pub use threshold::ThresholdModel;
pub use topolstm::{TopoLstm, TopoLstmConfig};
