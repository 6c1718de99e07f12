//! Prediction-server tooling: snapshot generation and a synthetic load
//! harness for the serving path.
//!
//! ```text
//! cargo run --release -p bench --bin retina_serve -- snapshot <path>
//! cargo run --release -p bench --bin retina_serve -- serve <path>
//! cargo run --release -p bench --bin retina_serve -- bench
//! ```
//!
//! `snapshot` trains a small deterministic model and writes it (with
//! its text pipeline and trainer config) to `<path>`. `serve` loads a
//! snapshot and drives the standard load scenarios against it, with
//! requests sized to the snapshot's `d_user` and Doc2Vec width. `bench`
//! does the same against an in-memory snapshot and is what
//! `cargo run -p xtask -- serving-report` shells out to. Both print four
//! records per scenario on stdout, in perfbench's fragment format
//! ([`bench::record`]): `<scenario>.pps` in 1/s, `.p50` and `.p99`
//! submit-to-resolve latency in integer ns, and `.requests`. Notices go
//! to stderr.

use bench::record;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retina_core::retina::{PackedSample, Retina, RetinaConfig};
use retina_core::snapshot::{PipelineState, Snapshot};
use retina_core::trainer::{train_retina, TrainConfig};
use serving::{Precision, PredictRequest, PredictionServer, ServerConfig, SubmitError};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Row widths of a request: one candidate row and one Doc2Vec vector.
#[derive(Clone, Copy)]
struct Widths {
    d_user: usize,
    d2v: usize,
}

/// The widths of the model `snapshot` and `bench` train.
const HARNESS: Widths = Widths {
    d_user: 12,
    d2v: 50,
};

/// News vectors per request, and the harness model's news window.
const NEWS_K: usize = 8;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("snapshot") => {
            let Some(path) = args.get(1).filter(|p| !p.starts_with("--")) else {
                eprintln!("usage: retina_serve snapshot <path>");
                std::process::exit(2);
            };
            let snap = build_snapshot();
            if let Err(e) = snap.save(path.as_ref()) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "wrote {path}: d_user={} sections=config+weights{}{}{}",
                snap.d_user,
                if snap.has_scaler() { "+scaler" } else { "" },
                if snap.pipeline.is_some() {
                    "+pipeline"
                } else {
                    ""
                },
                if snap.trainer.is_some() {
                    "+trainer"
                } else {
                    ""
                },
            );
        }
        Some("serve") => {
            let Some(path) = args.get(1).filter(|p| !p.starts_with("--")) else {
                eprintln!("usage: retina_serve serve <path>");
                std::process::exit(2);
            };
            let snap = match Snapshot::load(path.as_ref()) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("failed to load {path}: {e}");
                    std::process::exit(1);
                }
            };
            eprintln!("loaded {path} (d_user={})", snap.d_user);
            run_scenarios(&snap);
        }
        Some("bench") => run_scenarios(&build_snapshot()),
        _ => {
            eprintln!(
                "usage: retina_serve snapshot <path>\n       \
                 retina_serve serve <path>\n       \
                 retina_serve bench"
            );
            std::process::exit(2);
        }
    }
}

/// Deterministic synthetic sample, mirroring the packed-tensor shape
/// the feature extractor produces.
fn sample(w: Widths, n: usize, seed: u64) -> PackedSample {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels: Vec<u8> = (0..n).map(|i| u8::from(i % 3 == 0)).collect();
    PackedSample {
        user_rows: (0..n)
            .map(|_| {
                let row: Vec<f64> = (0..w.d_user).map(|_| rng.gen_range(-1.0..1.0)).collect();
                nn::SparseRow::from_dense(&row)
            })
            .collect(),
        interval_labels: labels
            .iter()
            .map(|&l| {
                let mut row = vec![0u8; 6];
                if l == 1 {
                    row[1] = 1;
                }
                row
            })
            .collect(),
        retweet_times: labels
            .iter()
            .map(|&l| if l == 1 { 2.0 } else { f64::INFINITY })
            .collect(),
        labels,
        tweet_d2v: (0..w.d2v).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        news_d2v: (0..NEWS_K)
            .map(|_| (0..w.d2v).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect(),
        hateful: false,
        t0: 0.0,
    }
}

/// Train the harness model: small enough to build in seconds, large
/// enough that a request's predictions are real work.
fn build_snapshot() -> Snapshot {
    let config = RetinaConfig {
        hdim: 32,
        news_k: NEWS_K,
        d2v_dim: HARNESS.d2v,
        ..RetinaConfig::static_default()
    };
    let mut model = Retina::new(HARNESS.d_user, config);
    let data: Vec<PackedSample> = (0..12).map(|i| sample(HARNESS, 10, 300 + i)).collect();
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::static_default()
    };
    train_retina(&mut model, &data, &cfg);
    let corpus = [
        "they spread hate online",
        "kind words travel further",
        "topic aware diffusion of posts",
    ];
    let tfidf = text::TfIdfVectorizer::fit(&corpus, text::TfIdfConfig::default());
    Snapshot::capture(&model)
        .with_pipeline(PipelineState {
            tweet_tfidf: tfidf.clone(),
            news_tfidf: tfidf,
            lexicon: text::HateLexicon::new(&["slur", "go back"]),
        })
        .with_trainer(cfg)
}

struct Scenario {
    name: &'static str,
    workers: usize,
    submitters: usize,
    precision: Precision,
}

const SCENARIOS: [Scenario; 4] = [
    // Latency floor: one worker, one submitter.
    Scenario {
        name: "serve/static_w1",
        workers: 1,
        submitters: 1,
        precision: Precision::F64,
    },
    // The intended operating point: a couple of workers.
    Scenario {
        name: "serve/static_w2",
        workers: 2,
        submitters: 4,
        precision: Precision::F64,
    },
    // Saturation: more submitters than workers.
    Scenario {
        name: "serve/static_w4",
        workers: 4,
        submitters: 8,
        precision: Precision::F64,
    },
    // The operating point on the f32 inference tier.
    Scenario {
        name: "serve/static_f32_w2",
        workers: 2,
        submitters: 4,
        precision: Precision::F32,
    },
];

/// Requests timed per scenario.
const REQUESTS: u64 = 4000;

fn run_scenarios(snapshot: &Snapshot) {
    let widths = Widths {
        d_user: snapshot.d_user,
        d2v: snapshot.config.d2v_dim,
    };
    for sc in &SCENARIOS {
        run_scenario(snapshot, widths, sc, REQUESTS);
    }
}

fn run_scenario(snapshot: &Snapshot, widths: Widths, sc: &Scenario, n_requests: u64) {
    let config = ServerConfig {
        workers: sc.workers,
        queue_capacity: 128,
        precision: sc.precision,
    };
    let server = Arc::new(PredictionServer::start(snapshot, config).expect("start server"));

    // Warmup: fill scratch buffers and fault in the model replicas.
    for id in 0..32 {
        submit_blocking(&server, request(widths, id)).wait();
    }

    // Timed window: `submitters` threads, each a strided share of the
    // id space, submit-and-wait in a closed loop.
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let job_latencies = Arc::clone(&latencies);
    let job_server = Arc::clone(&server);
    let lanes = sc.submitters;
    let started = Instant::now();
    let pool = nn::par::WorkerPool::spawn(lanes, "load", move |lane| {
        let mut local = Vec::new();
        for id in ((lane as u64)..n_requests).step_by(lanes) {
            let t0 = Instant::now();
            submit_blocking(&job_server, request(widths, id)).wait();
            local.push(t0.elapsed().as_nanos() as u64);
        }
        job_latencies.lock().unwrap().extend(local);
    })
    .expect("spawn load threads");
    pool.join();
    let wall = started.elapsed();

    let stats = match Arc::try_unwrap(server) {
        Ok(s) => s.shutdown(),
        Err(_) => unreachable!("all submitter clones joined"),
    };
    assert_eq!(
        stats.completed, stats.accepted,
        "harness lost requests: {stats:?}"
    );

    let mut lat = latencies.lock().unwrap().clone();
    assert_eq!(lat.len() as u64, n_requests, "missing latency samples");
    lat.sort_unstable();
    let p50 = lat[lat.len() / 2];
    let p99 = lat[(lat.len() as f64 * 0.99) as usize - 1];
    let pps = n_requests as f64 / wall.as_secs_f64();
    println!(
        "{}",
        record(sc.name, "pps", format_args!("{pps:.1}"), "1/s")
    );
    println!("{}", record(sc.name, "p50", p50, "ns"));
    println!("{}", record(sc.name, "p99", p99, "ns"));
    println!("{}", record(sc.name, "requests", n_requests, "count"));
}

fn request(w: Widths, id: u64) -> PredictRequest {
    PredictRequest {
        id,
        sample: sample(w, 8, 7000 + id),
    }
}

/// Submit with backpressure handling: yield and try again.
fn submit_blocking(server: &PredictionServer, req: PredictRequest) -> serving::Ticket {
    loop {
        match server.submit(req.clone()) {
            Ok(t) => return t,
            Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
            Err(e) => panic!("submit failed: {e}"),
        }
    }
}
