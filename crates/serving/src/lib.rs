//! Long-lived prediction serving for RETINA.
//!
//! This crate turns a [`retina_core::Snapshot`] into a running
//! [`PredictionServer`]: a pool of worker threads (spawned through the
//! blessed [`nn::par::WorkerPool`]), each holding its own restored model
//! replica and its activation buffers, fed from one bounded
//! FIFO request queue. A free worker takes the oldest request as soon as
//! it arrives; one request already scores all of a root tweet's
//! candidates in one forward pass.
//!
//! ## Determinism contract
//!
//! Serving inherits the workspace's bit-identity guarantee: a request's
//! prediction is a pure function of the snapshot weights and the request
//! sample. Which worker picks a request up, the submission order, and
//! the worker count change only wall-clock behaviour — never a single
//! output bit. Every worker's model is restored from the same snapshot,
//! and `predict_proba` carries no cross-request state. The serving test
//! suite pins this for serial vs concurrent submission at several worker
//! counts.
//!
//! ## Backpressure
//!
//! The queue is bounded. When it is full, [`PredictionServer::submit`]
//! rejects immediately with [`SubmitError::QueueFull`] carrying the
//! capacity — callers never block, own their retry policy, and requests
//! are never silently dropped. Shutdown is graceful: accepted requests
//! are drained and fulfilled before workers exit. A ticket whose worker
//! dropped its request without answering fails on [`Ticket::wait`]
//! instead of blocking forever.

pub mod server;

pub use server::{
    Precision, PredictRequest, Prediction, PredictionServer, ServeError, ServerConfig, ServerStats,
    SubmitError, Ticket,
};
