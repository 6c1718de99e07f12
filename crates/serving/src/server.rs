//! The batched prediction server.
//!
//! One bounded queue, N worker threads, one model replica per worker.
//! Workers accumulate batches up to [`ServerConfig::max_batch`] requests
//! or [`ServerConfig::max_delay`] of waiting — whichever comes first —
//! then run each sample through the replica's `predict_proba` (which
//! reuses the model's pooled `*_into` scratch buffers across requests).
//!
//! Locking is `std::sync::{Mutex, Condvar}`. All lock acquisitions
//! recover from poisoning via `into_inner` — a panicking peer must
//! degrade service, not wedge it.

use retina_core::infer32::RetinaF32;
use retina_core::retina::{PackedSample, Retina};
use retina_core::snapshot::{Snapshot, SnapshotError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Numeric tier the worker replicas run in.
///
/// `F32` restores the f64 model once, narrows it via
/// [`Retina::to_f32_inference`], and serves on `nn::Matrix<f32>`
/// kernels. Probabilities stay `f64` on the wire; the divergence from
/// `F64` is bounded by the tolerance contract in `retina_core::infer32`
/// (DESIGN.md §13), and for a fixed request the answer is bit-identical
/// regardless of worker count, batch boundaries, or the `simd` feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full-width replicas (`Retina`), the training-time arithmetic.
    #[default]
    F64,
    /// Narrowed inference replicas (`RetinaF32`).
    F32,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads, each with its own model replica. `0` uses
    /// [`nn::par::available`].
    pub workers: usize,
    /// Maximum queued (accepted but unprocessed) requests. Submissions
    /// beyond this are rejected with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// A worker dispatches as soon as it can take this many requests.
    pub max_batch: usize,
    /// A worker dispatches a partial batch after waiting this long for
    /// more requests. Latency-only: never changes results.
    pub max_delay: Duration,
    /// Numeric tier of the worker replicas (default: `F64`).
    pub precision: Precision,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 256,
            max_batch: 16,
            max_delay: Duration::from_millis(2),
            precision: Precision::F64,
        }
    }
}

/// One prediction request: an opaque caller-chosen id plus the packed
/// sample (candidate feature rows and Doc2Vec context).
#[derive(Debug, Clone)]
pub struct PredictRequest {
    pub id: u64,
    pub sample: PackedSample,
}

/// The server's answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The id of the request this answers.
    pub id: u64,
    /// Static retweet probability per candidate (dynamic models report
    /// the union over intervals, exactly like `Retina::predict_proba`).
    pub probabilities: Vec<f64>,
}

/// Why a submission was not accepted. Rejections are explicit — the
/// server never drops an accepted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity. `depth` is the queue depth
    /// observed at rejection time and `retry_after` a resubmission hint
    /// (one batch deadline).
    QueueFull {
        depth: usize,
        capacity: usize,
        retry_after: Duration,
    },
    /// The request disagrees with the model's input dimensions, or
    /// carries a NaN/±inf feature value, and would fault a worker or
    /// answer with NaN probabilities.
    InvalidRequest { context: &'static str },
    /// The server is shutting down and no longer accepts work.
    ShutDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull {
                depth,
                capacity,
                retry_after,
            } => write!(
                f,
                "queue full ({depth}/{capacity}); retry after {retry_after:?}"
            ),
            SubmitError::InvalidRequest { context } => {
                write!(f, "invalid request: {context}")
            }
            SubmitError::ShutDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Server construction failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The snapshot could not be restored into a model.
    Snapshot(SnapshotError),
    /// Worker threads could not be spawned.
    Spawn(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Snapshot(e) => write!(f, "snapshot restore failed: {e}"),
            ServeError::Spawn(e) => write!(f, "worker spawn failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

/// Counters since server start. `completed + queue depth` always equals
/// `accepted` once submission stops — nothing is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    pub accepted: u64,
    pub completed: u64,
    pub rejected: u64,
}

/// A claim on one in-flight request; redeem with [`Ticket::wait`].
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Block until the prediction is ready.
    pub fn wait(self) -> Prediction {
        let mut guard = lock(&self.slot.result);
        loop {
            if let Some(p) = guard.take() {
                return p;
            }
            guard = self
                .slot
                .ready
                .wait(guard)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking poll; returns the prediction once ready.
    pub fn try_take(&self) -> Option<Prediction> {
        lock(&self.slot.result).take()
    }
}

struct Slot {
    result: Mutex<Option<Prediction>>,
    ready: Condvar,
}

struct QueueState {
    pending: VecDeque<(PredictRequest, Arc<Slot>)>,
    shutting_down: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signalled on new work and on shutdown.
    work: Condvar,
    queue_capacity: usize,
    max_batch: usize,
    max_delay: Duration,
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    /// Request validation dimensions, taken from the snapshot.
    d_user: usize,
    d2v_dim: usize,
    use_exogenous: bool,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One worker's model, in the configured numeric tier.
enum Replica {
    F64(Retina),
    F32(Box<RetinaF32>),
}

impl Replica {
    fn predict_proba(&mut self, sample: &PackedSample) -> Vec<f64> {
        match self {
            Replica::F64(m) => m.predict_proba(sample),
            Replica::F32(m) => m.predict_proba(sample),
        }
    }
}

/// A running prediction server. Dropping it performs a graceful
/// shutdown (drain, then join); [`PredictionServer::shutdown`] does the
/// same and additionally returns the final counters.
pub struct PredictionServer {
    shared: Arc<Shared>,
    pool: Option<nn::par::WorkerPool>,
    workers: usize,
}

impl PredictionServer {
    /// Restore one model replica per worker from `snapshot` and start
    /// the worker pool. Restoring per worker (rather than cloning one
    /// model) gives every thread its own warm scratch pools.
    pub fn start(snapshot: &Snapshot, config: ServerConfig) -> Result<Self, ServeError> {
        let workers = if config.workers == 0 {
            nn::par::available()
        } else {
            config.workers
        }
        .max(1);
        let mut replicas: Vec<Mutex<Option<Replica>>> = Vec::with_capacity(workers);
        for _ in 0..workers {
            let model = snapshot.restore()?;
            let replica = match config.precision {
                Precision::F64 => Replica::F64(model),
                Precision::F32 => Replica::F32(Box::new(model.to_f32_inference())),
            };
            replicas.push(Mutex::new(Some(replica)));
        }
        let replicas = Arc::new(replicas);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                pending: VecDeque::with_capacity(config.queue_capacity),
                shutting_down: false,
            }),
            work: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            max_batch: config.max_batch.max(1),
            max_delay: config.max_delay,
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            d_user: snapshot.d_user,
            d2v_dim: snapshot.config.d2v_dim,
            use_exogenous: snapshot.config.use_exogenous,
        });
        let worker_shared = Arc::clone(&shared);
        let pool = nn::par::WorkerPool::spawn(workers, "retina-serve", move |i| {
            // Every replica was restored above, so the take can only be
            // empty if a worker index repeated — WorkerPool guarantees
            // it does not.
            if let Some(mut model) = replicas.get(i).map(|m| lock(m).take()).unwrap_or(None) {
                worker_loop(&worker_shared, &mut model);
            }
        })
        .map_err(|e| ServeError::Spawn(e.to_string()))?;
        Ok(Self {
            shared,
            pool: Some(pool),
            workers,
        })
    }

    /// Number of worker threads (and model replicas).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submit one request. Never blocks: a full queue, a dimension
    /// mismatch or a non-finite feature rejects immediately with a
    /// structured error.
    pub fn submit(&self, request: PredictRequest) -> Result<Ticket, SubmitError> {
        if let Err(e) = self.validate(&request.sample) {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        // Allocated outside the lock region: the queue mutex guards only
        // the push itself, keeping the producer critical section minimal
        // (the A8 blocking-under-lock pass polices this path).
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        let mut state = lock(&self.shared.state);
        if state.shutting_down {
            drop(state);
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ShutDown);
        }
        if state.pending.len() >= self.shared.queue_capacity {
            let depth = state.pending.len();
            drop(state);
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull {
                depth,
                capacity: self.shared.queue_capacity,
                retry_after: self.shared.max_delay,
            });
        }
        state.pending.push_back((request, Arc::clone(&slot)));
        drop(state);
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        self.shared.work.notify_one();
        Ok(Ticket { slot })
    }

    fn validate(&self, sample: &PackedSample) -> Result<(), SubmitError> {
        if sample.user_rows.is_empty() {
            return Err(SubmitError::InvalidRequest {
                context: "no candidate rows",
            });
        }
        if sample
            .user_rows
            .iter()
            .any(|r| r.len() != self.shared.d_user)
        {
            return Err(SubmitError::InvalidRequest {
                context: "candidate row width disagrees with model d_user",
            });
        }
        if self.shared.use_exogenous {
            if sample.tweet_d2v.len() != self.shared.d2v_dim {
                return Err(SubmitError::InvalidRequest {
                    context: "tweet Doc2Vec width disagrees with model d2v_dim",
                });
            }
            if sample
                .news_d2v
                .iter()
                .any(|r| r.len() != self.shared.d2v_dim)
            {
                return Err(SubmitError::InvalidRequest {
                    context: "news Doc2Vec width disagrees with model d2v_dim",
                });
            }
        }
        let finite = |row: &[f64]| row.iter().all(|v| v.is_finite());
        if !(sample.user_rows.iter().all(|r| finite(r))
            && finite(&sample.tweet_d2v)
            && sample.news_d2v.iter().all(|r| finite(r)))
        {
            return Err(SubmitError::InvalidRequest {
                context: "non-finite feature value",
            });
        }
        Ok(())
    }

    /// Requests accepted but not yet dispatched to a worker.
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.state).pending.len()
    }

    /// Counters since start.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
        }
    }

    /// Graceful shutdown: stop accepting, drain every accepted request,
    /// join the workers, and return the final counters. After this
    /// returns, `completed + rejected` accounts for every submission.
    pub fn shutdown(mut self) -> ServerStats {
        self.initiate_shutdown();
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
        self.stats()
    }

    /// Stop accepting new work without blocking. Queued requests are
    /// still drained and fulfilled; later submissions get
    /// [`SubmitError::ShutDown`]. Call [`PredictionServer::shutdown`]
    /// (or drop the server) to join the workers.
    pub fn initiate_shutdown(&self) {
        let mut state = lock(&self.shared.state);
        state.shutting_down = true;
        drop(state);
        self.shared.work.notify_all();
    }
}

impl Drop for PredictionServer {
    fn drop(&mut self) {
        self.initiate_shutdown();
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
    }
}

/// Worker body: collect a batch (size or deadline cutover), then run it
/// on this worker's replica outside the queue lock.
fn worker_loop(shared: &Shared, model: &mut Replica) {
    // A batch never exceeds the queue capacity, whatever `max_batch`
    // says (callers may pass usize::MAX for "drain everything").
    let mut batch: Vec<(PredictRequest, Arc<Slot>)> =
        Vec::with_capacity(shared.max_batch.min(shared.queue_capacity));
    loop {
        {
            let mut state = lock(&shared.state);
            loop {
                if !state.pending.is_empty() {
                    if !state.shutting_down && state.pending.len() < shared.max_batch {
                        // Deadline cutover: wait (bounded) for the batch
                        // to fill. Affects only latency; the prediction
                        // for each request is batch-independent.
                        // lint: allow(determinism) batching deadline is latency-only, results are batch-independent
                        let deadline = Instant::now() + shared.max_delay;
                        while state.pending.len() < shared.max_batch && !state.shutting_down {
                            // lint: allow(determinism) batching deadline is latency-only, results are batch-independent
                            let now = Instant::now();
                            if now >= deadline {
                                break;
                            }
                            let (next, timeout) = shared
                                .work
                                .wait_timeout(state, deadline - now)
                                .unwrap_or_else(|e| e.into_inner());
                            state = next;
                            if timeout.timed_out() || state.pending.is_empty() {
                                break;
                            }
                        }
                    }
                    if state.pending.is_empty() {
                        // Another worker drained the queue while we
                        // waited; go back to sleeping for work.
                        continue;
                    }
                    let n = shared.max_batch.min(state.pending.len());
                    batch.extend(state.pending.drain(..n));
                    break;
                }
                if state.shutting_down {
                    return;
                }
                state = shared.work.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        }
        for (req, slot) in batch.drain(..) {
            let probabilities = model.predict_proba(&req.sample);
            let mut result = lock(&slot.result);
            *result = Some(Prediction {
                id: req.id,
                probabilities,
            });
            drop(result);
            slot.ready.notify_all();
            shared.completed.fetch_add(1, Ordering::Relaxed);
        }
    }
}
