//! Server determinism: the same request set produces byte-identical
//! predictions whether submitted serially, concurrently from four
//! threads, or in shuffled order — at kernel thread counts 1, 2, and 8
//! and matching server worker counts.
//!
//! `RETINA_THREADS` is read once per process by `nn::par`, so the test
//! varies `nn::par::set_threads` and `ServerConfig::workers` in-process
//! instead of re-execing.

mod common;

use common::{bits, sample};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use retina_core::retina::{Retina, RetinaConfig};
use retina_core::snapshot::Snapshot;
use retina_core::trainer::{train_retina, TrainConfig};
use serving::{PredictRequest, PredictionServer, ServerConfig, SubmitError};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

const N_REQUESTS: u64 = 48;
const D_USER: usize = 10;

fn trained_snapshot() -> Snapshot {
    let mut model = Retina::new(D_USER, RetinaConfig::static_default());
    let data: Vec<_> = (0..6).map(|i| sample(8, D_USER, 50, 4, 500 + i)).collect();
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::static_default()
    };
    train_retina(&mut model, &data, &cfg);
    Snapshot::capture(&model)
}

fn request(id: u64) -> PredictRequest {
    PredictRequest {
        id,
        sample: sample(6, D_USER, 50, 4, 9000 + id),
    }
}

/// Submit request `id`, retrying on backpressure; the queue in this
/// test is sized to hold every request, so retries should be rare.
fn submit_with_retry(server: &PredictionServer, id: u64) -> serving::Ticket {
    let req = request(id);
    loop {
        match server.submit(req.clone()) {
            Ok(ticket) => return ticket,
            Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
            Err(e) => panic!("submit failed: {e}"),
        }
    }
}

fn collect_serial(server: &PredictionServer) -> BTreeMap<u64, Vec<u64>> {
    (0..N_REQUESTS)
        .map(|id| {
            let p = submit_with_retry(server, id).wait();
            (p.id, bits(&p.probabilities))
        })
        .collect()
}

fn collect_shuffled(server: &PredictionServer, seed: u64) -> BTreeMap<u64, Vec<u64>> {
    let mut order: Vec<u64> = (0..N_REQUESTS).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let tickets: Vec<_> = order
        .iter()
        .map(|&id| submit_with_retry(server, id))
        .collect();
    tickets
        .into_iter()
        .map(|t| {
            let p = t.wait();
            (p.id, bits(&p.probabilities))
        })
        .collect()
}

/// Four submitter threads, each a strided quarter of the id space, all
/// hammering the server at once.
fn collect_concurrent(server: &Arc<PredictionServer>) -> BTreeMap<u64, Vec<u64>> {
    let results: Arc<Mutex<BTreeMap<u64, Vec<u64>>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let job_results = Arc::clone(&results);
    let job_server = Arc::clone(server);
    let submitters = nn::par::WorkerPool::spawn(4, "submit", move |lane| {
        let mut local = Vec::new();
        for id in ((lane as u64)..N_REQUESTS).step_by(4) {
            let p = submit_with_retry(&job_server, id).wait();
            local.push((p.id, bits(&p.probabilities)));
        }
        job_results.lock().unwrap().extend(local);
    })
    .expect("spawn submitters");
    submitters.join();
    Arc::try_unwrap(results)
        .map(|m| m.into_inner().unwrap())
        .unwrap_or_else(|arc| arc.lock().unwrap().clone())
}

#[test]
fn predictions_are_identical_across_submission_patterns_and_thread_counts() {
    let snapshot = trained_snapshot();

    // Reference: the restored model, serially, single-threaded kernels.
    nn::par::set_threads(1);
    let mut reference_model = snapshot.restore().expect("restore");
    let reference: BTreeMap<u64, Vec<u64>> = (0..N_REQUESTS)
        .map(|id| {
            let req = request(id);
            (id, bits(&reference_model.predict_proba(&req.sample)))
        })
        .collect();
    assert_eq!(reference.len(), N_REQUESTS as usize);

    for threads in [1usize, 2, 8] {
        nn::par::set_threads(threads);
        let config = ServerConfig {
            workers: threads,
            queue_capacity: N_REQUESTS as usize + 8,
            ..ServerConfig::default()
        };

        let server = PredictionServer::start(&snapshot, config.clone()).expect("start");
        let serial = collect_serial(&server);
        let stats = server.shutdown();
        assert_eq!(stats.accepted, stats.completed, "serial run dropped work");
        assert_eq!(
            serial, reference,
            "serial submission diverged at {threads} threads"
        );

        let server = PredictionServer::start(&snapshot, config.clone()).expect("start");
        let shuffled = collect_shuffled(&server, 42 + threads as u64);
        server.shutdown();
        assert_eq!(
            shuffled, reference,
            "shuffled submission diverged at {threads} threads"
        );

        let server = Arc::new(PredictionServer::start(&snapshot, config).expect("start"));
        let concurrent = collect_concurrent(&server);
        assert_eq!(
            concurrent, reference,
            "concurrent submission diverged at {threads} threads"
        );
    }
    nn::par::set_threads(1);
}
