//! # retina-core — the paper's contribution
//!
//! Implements both prediction problems of *"Hate is the New Infodemic: A
//! Topic-aware Modeling of Hate Speech Diffusion on Twitter"* (ICDE 2021)
//! on top of the workspace substrates:
//!
//! * **Hate generation** (Section IV): [`features`] extracts the full
//!   feature stack (user history, topic relatedness, endogenous trending
//!   vector, exogenous news TF-IDF); [`hategen`] trains the six
//!   classifiers under the five feature/sampling treatments of Table IV;
//!   [`ablation`] reproduces the Table V signal ablation.
//! * **Retweet prediction** (Section V): [`retina`] implements RETINA-S
//!   and RETINA-D — feed-forward / GRU predictors fed by the exogenous
//!   scaled dot-product attention over contemporary news — with the
//!   ± exogenous-attention ablation; [`trainer`] holds the class-weighted
//!   training loop (Eq. 6, λ-weighted BCE).
//! * **Silver labelling** (Section VI-B): [`detector`] is the
//!   Davidson-style hate classifier trained on the gold subset and used
//!   to machine-annotate the remaining corpus.
//! * [`experiments`] regenerates every table and figure of the paper's
//!   evaluation; each module returns printable row structs consumed by the
//!   `exp_*` binaries in the `bench` crate and indexed in EXPERIMENTS.md.

pub mod ablation;
pub mod detector;
pub mod experiments;
pub mod features;
pub mod hategen;
pub mod retina;
pub mod seed;
pub mod snapshot;
pub mod trainer;

pub use detector::HateDetector;
pub use features::{FeatureGroup, HategenFeatures, RetweetFeatures, TextModels};
pub use hategen::{HategenPipeline, HategenSample, ModelKind, Processing};
pub use retina::{RecurrentKind, Retina, RetinaConfig, RetinaMode};
pub use snapshot::{PipelineState, Snapshot, SnapshotError};
pub use trainer::TrainConfig;
