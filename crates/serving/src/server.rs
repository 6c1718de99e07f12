//! The prediction server.
//!
//! One bounded FIFO queue, N worker threads, one model replica per
//! worker. A free worker takes the oldest request at once and runs it
//! through its replica's `predict_proba`, which reuses the model's
//! pooled `*_into` scratch buffers across requests. RETINA scores all of
//! a root tweet's candidates in one forward pass, so a request is
//! already a batch and never waits for others to arrive.
//!
//! The queue is a `std::sync::{Mutex, Condvar}` pair, and each answer
//! travels back over the request's own `sync_channel(1)`. All lock
//! acquisitions recover from poisoning via `into_inner` — a panicking
//! peer must degrade service, not wedge it.

use retina_core::retina::{PackedSample, Retina};
use retina_core::snapshot::{Snapshot, SnapshotError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Numeric tier the worker replicas run in.
///
/// `F32` restores the f64 model once, narrows it via
/// [`Retina::to_f32_inference`], and serves the same forward at
/// `T = f32`. Probabilities stay `f64` on the wire; the divergence from
/// `F64` is bounded by the tolerance contract documented on
/// [`Retina`] (DESIGN.md §13), and for a fixed request the answer is
/// bit-identical regardless of worker count, submission order, or the
/// `simd` feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full-width replicas (`Retina`), the training-time arithmetic.
    #[default]
    F64,
    /// Narrowed inference replicas (`Retina<f32>`).
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
    /// Numeric tier of the worker replicas (default: `F64`).
    pub precision: Precision,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 256,
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
    /// The bounded queue holds `capacity` requests; the caller owns
    /// the retry policy.
    QueueFull { capacity: usize },
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
            SubmitError::QueueFull { capacity } => {
                write!(f, "queue full ({capacity} requests)")
            }
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

/// Counters since server start. Nothing accepted is dropped:
/// `accepted == completed + in flight + queue depth`, where a request
/// in flight is taken by a worker but not yet answered, and once
/// [`PredictionServer::shutdown`] returns, `completed == accepted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    pub accepted: u64,
    pub completed: u64,
    pub rejected: u64,
}

/// A claim on one in-flight request; redeem with [`Ticket::wait`].
pub struct Ticket {
    answer: Receiver<Prediction>,
}

impl Ticket {
    /// Block until the prediction is ready.
    ///
    /// # Panics
    ///
    /// If the request's answer can never come: its worker unwound
    /// mid-request and dropped it.
    pub fn wait(self) -> Prediction {
        self.answer
            .recv()
            // lint: allow(unwrap) a dropped sender means the worker unwound mid-request; failing beats blocking forever
            .expect("prediction worker dropped the request without answering")
    }

    /// Non-blocking poll; returns the prediction once ready. `None`
    /// while it is pending, and for good if its worker dropped it.
    pub fn try_take(&self) -> Option<Prediction> {
        self.answer.try_recv().ok()
    }
}

struct QueueState {
    pending: VecDeque<(PredictRequest, SyncSender<Prediction>)>,
    shutting_down: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signalled on new work and on shutdown.
    work: Condvar,
    queue_capacity: usize,
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    /// Request validation dimensions, taken from the snapshot.
    d_user: usize,
    d2v_dim: usize,
    use_exogenous: bool,
}

impl Shared {
    /// An empty, open queue of `queue_capacity` (at least 1) that
    /// validates requests against `snapshot`'s input dimensions.
    fn new(snapshot: &Snapshot, queue_capacity: usize) -> Self {
        let queue_capacity = queue_capacity.max(1);
        Self {
            state: Mutex::new(QueueState {
                pending: VecDeque::with_capacity(queue_capacity),
                shutting_down: false,
            }),
            work: Condvar::new(),
            queue_capacity,
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            d_user: snapshot.d_user,
            d2v_dim: snapshot.config.d2v_dim,
            use_exogenous: snapshot.config.use_exogenous,
        }
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One worker's model, in the configured numeric tier.
enum Replica {
    F64(Retina),
    F32(Retina<f32>),
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
                Precision::F32 => Replica::F32(model.to_f32_inference()),
            };
            replicas.push(Mutex::new(Some(replica)));
        }
        let replicas = Arc::new(replicas);
        let shared = Arc::new(Shared::new(snapshot, config.queue_capacity));
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
        // (the A7 lock-discipline pass rejects any call but a std method
        // under the lock, so moving the channel below it fails analyze).
        let (answer_tx, answer) = mpsc::sync_channel(1);
        let mut state = lock(&self.shared.state);
        if state.shutting_down {
            drop(state);
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ShutDown);
        }
        if state.pending.len() >= self.shared.queue_capacity {
            drop(state);
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull {
                capacity: self.shared.queue_capacity,
            });
        }
        state.pending.push_back((request, answer_tx));
        drop(state);
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        self.shared.work.notify_one();
        Ok(Ticket { answer })
    }

    fn validate(&self, sample: &PackedSample) -> Result<(), SubmitError> {
        if sample.user_rows.is_empty() {
            return Err(SubmitError::InvalidRequest {
                context: "no candidate rows",
            });
        }
        // A `SparseRow`'s columns are ascending and inside its width by
        // construction, so its width and stored values are all there is
        // to check.
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
        if !(sample.user_rows.iter().all(|r| finite(r.values()))
            && finite(&sample.tweet_d2v)
            && sample.news_d2v.iter().all(|r| finite(r)))
        {
            return Err(SubmitError::InvalidRequest {
                context: "non-finite feature value",
            });
        }
        Ok(())
    }

    /// Requests accepted but not yet taken by a worker.
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

/// Worker body: take the oldest request, answer it from this worker's
/// replica outside the queue lock, and repeat until shutdown has
/// drained the queue.
fn worker_loop(shared: &Shared, model: &mut Replica) {
    loop {
        let (req, answer) = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(job) = state.pending.pop_front() {
                    break job;
                }
                if state.shutting_down {
                    return;
                }
                state = shared.work.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        let probabilities = model.predict_proba(&req.sample);
        // A caller that dropped its ticket no longer wants the answer.
        let _ = answer.send(Prediction {
            id: req.id,
            probabilities,
        });
        shared.completed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retina_core::retina::RetinaConfig;

    const D_USER: usize = 4;

    /// A request that passes validation; no test here computes it.
    fn request(id: u64) -> PredictRequest {
        let d2v = RetinaConfig::static_default().d2v_dim;
        PredictRequest {
            id,
            sample: PackedSample {
                user_rows: vec![nn::SparseRow::from_dense(&[0.5; D_USER]); 2],
                labels: vec![0; 2],
                interval_labels: vec![vec![0; 6]; 2],
                tweet_d2v: vec![0.1; d2v],
                news_d2v: vec![vec![0.1; d2v]; 3],
                hateful: false,
                t0: 0.0,
                retweet_times: vec![f64::INFINITY; 2],
            },
        }
    }

    #[test]
    fn full_queue_rejects_with_its_capacity() {
        // No worker pool is spawned, so nothing drains the queue and it
        // fills deterministically.
        let snapshot = Snapshot::capture(&Retina::new(D_USER, RetinaConfig::static_default()));
        let server = PredictionServer {
            shared: Arc::new(Shared::new(&snapshot, 4)),
            pool: None,
            workers: 0,
        };
        let tickets: Vec<Ticket> = (0..4)
            .map(|id| server.submit(request(id)).expect("within capacity"))
            .collect();
        assert_eq!(server.queue_depth(), 4);
        match server.submit(request(99)) {
            Err(SubmitError::QueueFull { capacity }) => assert_eq!(capacity, 4),
            Ok(_) => panic!("submission beyond capacity was accepted"),
            Err(e) => panic!("wrong rejection: {e}"),
        }
        let stats = server.stats();
        assert_eq!(stats.accepted, 4);
        assert_eq!(stats.rejected, 1);
        // With no worker left to answer them, the queued requests are
        // dropped with the server and their tickets disconnect.
        drop(server);
        for t in &tickets {
            assert_eq!(t.answer.try_recv(), Err(mpsc::TryRecvError::Disconnected));
        }
    }

    #[test]
    #[should_panic(expected = "dropped the request without answering")]
    fn a_ticket_whose_answer_never_comes_fails_instead_of_hanging() {
        let (answer_tx, answer) = mpsc::sync_channel(1);
        let ticket = Ticket { answer };
        drop(answer_tx);
        assert!(ticket.try_take().is_none());
        ticket.wait();
    }
}
