//! Deterministic work-splitting across scoped worker threads.
//!
//! Every parallel entry point in the workspace routes through this module
//! (the xtask A2 determinism pass flags ad-hoc `thread::spawn`/`scope`
//! usage elsewhere). The module enforces one contract:
//!
//! > **Thread count never changes results.** Work is split into units
//! > whose outputs are disjoint and whose per-element accumulation order
//! > is fixed by the unit itself, so the only thing a thread count
//! > changes is *which worker* executes a unit — never unit boundaries'
//! > effect on values. Serial (1 thread) and parallel (N threads) runs
//! > are bit-identical.
//!
//! Concretely that means the helpers here may only be used for
//! *per-unit-independent* computations (row-partitioned matmuls,
//! per-sample packing, per-document Doc2Vec mapping, per-tree forest
//! fitting, the tree learners' per-block split searches, whose bests the
//! caller merges in block order).
//! Reductions whose floating-point grouping would depend on the partition
//! (gradient accumulation across samples, `sum_rows`, attention's kernel
//! gradients over news items) must stay serial; see DESIGN.md "Compute
//! kernels".
//!
//! There are two scoped helpers: [`for_each_row_chunk`], the tensor
//! kernels' static row partition, and [`map_indexed`], the one parallel
//! map, whose workers pull indices from a shared cursor.
//!
//! ## Thread-count resolution
//!
//! Effective parallelism is resolved in this order:
//!
//! 1. `RETINA_THREADS` environment variable (read once; `0`/unparsable
//!    values are ignored) — overrides everything, for operators.
//! 2. For the tensor kernels ([`threads`]) only, the last
//!    [`set_threads`] call, which RETINA training makes from
//!    `RetinaConfig::threads` (`0` = auto). The other parallel stages
//!    (Doc2Vec's document mapping, random-forest fitting, the GBDT and
//!    CART split searches, feature packing) call [`resolve`]`(0)` and
//!    have no knob of their own.
//! 3. `std::thread::available_parallelism()`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Workspace-wide thread knob; `0` means "not set, use auto resolution".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Hardware parallelism (`available_parallelism`, min 1).
pub fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The `RETINA_THREADS` override, read once per process.
fn env_override() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("RETINA_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// Resolve a config knob (`0` = auto) to an effective thread count:
/// `RETINA_THREADS` wins, then the explicit request, then the hardware.
pub fn resolve(requested: usize) -> usize {
    if let Some(n) = env_override() {
        return n;
    }
    if requested > 0 {
        requested
    } else {
        available()
    }
}

/// Set the process-wide worker count used by [`threads`]. Call with the
/// output of [`resolve`] when honoring a config knob; `0` reverts to
/// auto resolution. Because thread count never changes results (see the
/// module contract), racing setters can only affect speed, not values.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// Effective worker count for the next parallel region.
pub fn threads() -> usize {
    let t = THREADS.load(Ordering::Relaxed);
    if t == 0 {
        resolve(0)
    } else {
        t
    }
}

/// Minimum fused-multiply-adds a matmul must contain before the tensor
/// kernels consider splitting it across threads. Scoped-thread spawn
/// costs tens of microseconds; below this the serial kernel always wins.
pub const MIN_PAR_FLOPS: usize = 1 << 21;

/// Split `data` (a row-major buffer of `row_len`-element rows) into at
/// most `n_workers` contiguous *whole-row* chunks and run
/// `f(first_row, chunk)` on each, one scoped thread per chunk. Used by
/// the tensor kernels to row-partition matmuls: each output row's
/// accumulation order is fixed by the kernel, so the partition (and
/// thread count) cannot change any value. `data.len()` must be a
/// multiple of `row_len`. With one worker (or one row) `f` runs inline on
/// the caller's thread; a panic in a worker reaches the caller once every
/// worker has stopped.
pub fn for_each_row_chunk<T, F>(data: &mut [T], row_len: usize, n_workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    debug_assert!(row_len > 0 && data.len() % row_len == 0);
    let rows = data.len() / row_len;
    let workers = n_workers.max(1).min(rows);
    if workers == 1 {
        f(0, data);
        return;
    }
    let rows_per = rows.div_ceil(workers);
    std::thread::scope(|scope| {
        for (ci, chunk) in data.chunks_mut(rows_per * row_len).enumerate() {
            let f = &f;
            scope.spawn(move || f(ci * rows_per, chunk));
        }
    });
}

/// Deterministic parallel map: `out[i] = f(i)` for `i in 0..n`, computed
/// by at most `n_workers` workers. Workers pull the next index from a
/// shared cursor instead of owning a fixed range, which keeps threads
/// busy when per-item cost is uneven (forest trees, per-cascade packing,
/// the tree learners' split-search blocks). Each index is computed
/// exactly once, by exactly one worker, into its own slot — so output
/// order and every value are independent of scheduling and thread count.
///
/// The calling thread is one of the workers: a region spawns one thread
/// fewer than it has workers (none for one worker, which runs inline in
/// index order), so a caller that opens hundreds of short regions pays
/// one spawn per region at two workers and never idles. A panic in any
/// worker, the caller included, reaches the caller once every worker has
/// stopped.
pub fn map_indexed<R, F>(n: usize, n_workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = n_workers.max(1).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let pull = || loop {
            // Relaxed: the cursor only hands out indices; results
            // travel through the slot mutexes and the scope join.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else {
                break;
            };
            let r = f(i);
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
        };
        for _ in 1..workers {
            scope.spawn(pull);
        }
        pull();
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        // lint: allow(unwrap) every index below n is claimed exactly once; lint: allow(panic-reach) slot fill is proven by the cursor protocol
        .map(|r| r.expect("slot filled"))
        .collect()
}

/// A pool of long-lived named worker threads — the sanctioned way to run
/// *service* workers (e.g. the `serving` crate's prediction workers) that
/// outlive a single parallel region, which the scoped helpers above
/// cannot express.
///
/// The determinism contract of this module still applies: each worker's
/// job must produce outputs disjoint from every other worker's (in the
/// serving crate, each worker answers, over the request's own channel,
/// only the requests it alone dequeued), so the worker count changes
/// throughput only, never any produced value.
///
/// Workers run `job(worker_index)` exactly once, to completion; a
/// long-running worker loops inside its job until an external shutdown
/// signal. [`WorkerPool::join`] blocks until every worker returns and
/// re-raises the first worker panic on the joining thread.
pub struct WorkerPool {
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `n_workers.max(1)` threads named `<name>-<index>` running
    /// `job(index)`. Returns an error only if the OS refuses to spawn a
    /// thread (already-spawned workers keep running and are joined by
    /// [`WorkerPool::join`] as usual).
    pub fn spawn<F>(n_workers: usize, name: &str, job: F) -> std::io::Result<Self>
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        let job = std::sync::Arc::new(job);
        let mut handles = Vec::with_capacity(n_workers.max(1));
        for i in 0..n_workers.max(1) {
            let job = std::sync::Arc::clone(&job);
            let handle = std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || job(i))?;
            handles.push(handle);
        }
        Ok(Self { handles })
    }

    /// Number of worker threads in the pool.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True when the pool holds no workers (only possible after `join`
    /// consumed it, so never observable through this handle).
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Wait for every worker to finish. A worker panic is re-raised here,
    /// never swallowed (matching the scoped helpers above).
    pub fn join(self) {
        let mut first_panic = None;
        for h in self.handles {
            if let Err(payload) = h.join() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_prefers_explicit_request() {
        // No RETINA_THREADS in the test environment (or if there is, the
        // env wins by design and this test is vacuous) — exercise the
        // explicit-request branch only when the env is absent.
        if env_override().is_none() {
            assert_eq!(resolve(3), 3);
            assert_eq!(resolve(0), available());
        }
    }

    #[test]
    fn map_indexed_matches_serial_for_any_worker_count() {
        let serial: Vec<usize> = (0..31).map(|i| i * i).collect();
        for workers in [1usize, 2, 3, 8, 64] {
            assert_eq!(
                map_indexed(31, workers, |i| i * i),
                serial,
                "workers={workers}"
            );
        }
    }

    /// Run `map_indexed` over 16 indices whose first `workers`
    /// wait for each other, so each of them runs on its own thread and
    /// every worker computes at least one index. Returns the caller's
    /// thread and each index's thread; `then` runs after the wait.
    fn pulled_by(
        workers: usize,
        then: impl Fn(usize, std::thread::ThreadId) + Sync,
    ) -> (std::thread::ThreadId, Vec<std::thread::ThreadId>) {
        let caller = std::thread::current().id();
        let gate = std::sync::Barrier::new(workers);
        let ids = map_indexed(16, workers, |i| {
            if i < workers {
                gate.wait();
            }
            let id = std::thread::current().id();
            then(i, id);
            id
        });
        (caller, ids)
    }

    #[test]
    fn map_indexed_puts_the_caller_to_work() {
        for workers in [2usize, 3] {
            let (caller, ids) = pulled_by(workers, |_, _| {});
            assert!(ids.contains(&caller), "workers={workers}");
            let distinct: std::collections::HashSet<_> = ids.iter().collect();
            assert_eq!(distinct.len(), workers, "workers={workers}");
        }
    }

    #[test]
    fn map_indexed_reraises_a_panic_on_any_worker() {
        for workers in [2usize, 3] {
            for on_caller in [true, false] {
                let caller = std::thread::current().id();
                let caught = std::panic::catch_unwind(|| {
                    pulled_by(workers, |i, id| {
                        if i < workers && (id == caller) == on_caller {
                            panic!("boom");
                        }
                    })
                });
                assert!(caught.is_err(), "workers={workers}, caller={on_caller}");
            }
        }
    }

    #[test]
    fn for_each_row_chunk_assigns_whole_rows() {
        for workers in [1usize, 2, 3, 5] {
            let mut data = vec![0usize; 7 * 3];
            for_each_row_chunk(&mut data, 3, workers, |first_row, chunk| {
                for (off, v) in chunk.iter_mut().enumerate() {
                    *v = (first_row + off / 3) * 100 + off % 3;
                }
            });
            let expect: Vec<usize> = (0..7 * 3).map(|i| (i / 3) * 100 + i % 3).collect();
            assert_eq!(data, expect, "workers={workers}");
        }
    }

    #[test]
    fn empty_input_is_a_no_op() {
        for workers in [1usize, 4] {
            let out: Vec<u8> = map_indexed(0, workers, |_| panic!("must not be called"));
            assert!(out.is_empty(), "workers={workers}");
        }
        let mut data: Vec<u8> = Vec::new();
        for_each_row_chunk(&mut data, 3, 4, |_, _| panic!("must not be called"));
    }

    #[test]
    fn worker_pool_runs_every_worker_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let hits = Arc::new([(); 4].map(|()| AtomicUsize::new(0)));
        let pool = {
            let hits = Arc::clone(&hits);
            WorkerPool::spawn(4, "pool-test", move |i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            })
            .expect("spawn")
        };
        assert_eq!(pool.len(), 4);
        pool.join();
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "worker {i}");
        }
    }

    #[test]
    fn worker_pool_join_reraises_worker_panic() {
        let caught = std::panic::catch_unwind(|| {
            let pool = WorkerPool::spawn(2, "pool-panic", |i| {
                if i == 1 {
                    panic!("boom");
                }
            })
            .expect("spawn");
            pool.join();
        });
        assert!(caught.is_err());
    }

    #[test]
    fn worker_panic_propagates() {
        for workers in [1usize, 2] {
            let caught = std::panic::catch_unwind(|| {
                map_indexed(8, workers, |i| {
                    if i > 0 {
                        panic!("boom");
                    }
                    i
                })
            });
            assert!(caught.is_err(), "workers={workers}");
        }
    }
}
