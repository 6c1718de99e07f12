//! `serve_open_loop`: a trained RETINA-S behind `PredictionServer` with
//! `ServerConfig::default()`, driven by an open-loop generator.
//!
//! One submit thread sends on a fixed schedule and one collector thread
//! waits on the tickets, so the load adds two threads to the server's
//! workers. Each request replays a packed sample chosen in seeded random
//! order, so request size follows the real candidate-count distribution.
//! Samples repeat: a response cache would look better here than on
//! traffic of unique tweets.
//!
//! Latency runs from a request's scheduled send time, so a stall also
//! counts against the requests queued behind it; the generator's own
//! lateness is reported. Tickets are awaited in submission order, so a
//! request that finishes before an older one is timed when the older one
//! finishes.

use crate::offline::{
    layer_s, pack, prepare, retina_config, rows, same_bits, same_params, shapes, take_rows,
    task_split, work_metrics,
};
use crate::report::{Checks, Metrics};
use crate::stats::{mean, median, percentile, tail_supported};
use crate::trace::Tracer;
use crate::work::TRAIN_FORWARD_PASSES;
use crate::{Outcome, Run};
use ml::metrics::roc_auc;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retina_core::retina::PackedSample;
use retina_core::snapshot::{PipelineState, Snapshot};
use retina_core::trainer::{train_retina, TrainConfig};
use retina_core::{Retina, RetinaMode, RetweetFeatures};
use serving::{PredictRequest, PredictionServer, ServerConfig, Ticket};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Arrival rates of the two fixed-rate phases (requests per second).
const LOW_RPS: f64 = 200.0;
const HIGH_RPS: f64 = 1600.0;
/// Shares of the run the low and high phases take.
const LOW_SHARE: f64 = 0.25;
const HIGH_SHARE: f64 = 0.1;
/// The rate ladder: rung `i` runs at `LADDER_START · LADDER_STEP^i`
/// requests per second for `RUNG_SECONDS`, and sends at least
/// `RUNG_REQUESTS`, enough for a p99 with ten samples beyond it.
const LADDER_START: f64 = 800.0;
const LADDER_STEP: f64 = 1.2;
const LADDER_RUNGS: usize = 10;
const RUNG_SECONDS: f64 = 0.8;
const RUNG_REQUESTS: usize = 1000;
/// A rung meets the objective when its p99 latency is at most this and
/// the queue never builds a backlog.
pub const SLO_P99_MS: f64 = 20.0;
/// Queue depth that counts as a growing backlog: twice what two workers
/// draining full batches of 16 leave behind. A rung stops sending once
/// the queue reaches it, long before the 256-request queue rejects.
const BACKLOG_DEPTH: usize = 64;
/// Warm-up traffic before the measured phases.
const WARMUP_RPS: f64 = 400.0;
const WARMUP_REQUESTS: usize = 300;
/// Candidate rows the server's model trains on, and rows held out for
/// its test AUC. The corpus yields 37k-51k rows depending on the seed; a
/// fixed budget keeps set-up work and memory the same across seeds.
const TRAIN_ROWS: usize = 26_000;
const TEST_ROWS: usize = 6_500;
/// Capacity probe (`serving.burst_s`): the median time to push a burst
/// of requests holding `BURST_ROWS` candidate rows through the server,
/// with at most `BURST_WINDOW` requests awaiting collection.
const BURST_ROWS: usize = 40_000;
const BURST_WINDOW: usize = 64;
/// Segments the low and high phases are split into; a burst precedes
/// each segment and one more ends the run.
const LOW_SEGMENTS: usize = 4;
const HIGH_SEGMENTS: usize = 3;
/// Tickets in flight between the two threads in a fixed-rate phase.
const RATE_WINDOW: usize = 1024;

/// How the submit thread paces its sends.
#[derive(Clone, Copy)]
enum Pace {
    /// Open loop: request `i` is due at `i / rate` seconds.
    Rate(f64),
    /// As fast as the collector frees room in a window of this size.
    Window(usize),
}

/// What one phase sent and observed.
#[derive(Default)]
struct Phase {
    sent: u64,
    ok: u64,
    failed: u64,
    /// Per request, in ms; `+inf` for a rejected submission.
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    depth: Vec<f64>,
    /// Sample index of each request, in send order.
    samples: Vec<usize>,
    backlog: bool,
    wall_s: f64,
}

impl Phase {
    /// Fold `other` into `into`: one phase run as several segments.
    fn absorb(into: &mut Phase, other: Phase) {
        into.sent += other.sent;
        into.ok += other.ok;
        into.failed += other.failed;
        into.latency_ms.extend(other.latency_ms);
        into.lag_ms.extend(other.lag_ms);
        into.depth.extend(other.depth);
        into.samples.extend(other.samples);
        into.backlog |= other.backlog;
        into.wall_s += other.wall_s;
    }
}

/// One step of the measured schedule.
#[derive(Clone, Copy)]
enum Step {
    Low(usize),
    High(usize),
    Rung(f64),
    Burst,
}

/// `n` split into `parts` near-equal whole shares.
fn split(n: usize, parts: usize) -> Vec<usize> {
    (0..parts)
        .map(|i| n / parts + usize::from(i < n % parts))
        .collect()
}

/// One ladder rung's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub rate: f64,
    pub p99_ms: f64,
    pub backlog: bool,
    pub failed: u64,
}

impl Rung {
    pub fn meets(&self, limit_ms: f64) -> bool {
        !self.backlog && self.failed == 0 && self.p99_ms <= limit_ms
    }
}

/// The ladder's arrival rates.
pub fn ladder_rates(start: f64, step: f64, rungs: usize) -> Vec<f64> {
    (0..rungs).map(|i| start * step.powi(i as i32)).collect()
}

/// The highest rate the ladder sustained: the last rung of the unbroken
/// run of rungs, from the bottom, that met the objective (0 if none).
pub fn max_rate_within(rungs: &[Rung], limit_ms: f64) -> f64 {
    rungs
        .iter()
        .take_while(|r| r.meets(limit_ms))
        .last()
        .map_or(0.0, |r| r.rate)
}

/// The server and what the checks compare it against.
struct Service {
    server: PredictionServer,
    packed: Vec<PackedSample>,
    /// Offline `predict_proba` of a snapshot-restored replica, per sample.
    reference: Vec<Vec<f64>>,
    /// That replica's compute time per sample, in µs.
    predict_us: Vec<f64>,
}

pub fn serve_open_loop(run: &Run) -> Outcome {
    let mut checks = Checks::default();
    let mut tr = Tracer::new(run.trace, 1 << 18);
    let mut m = Metrics::new();

    // Set-up: the shared stages, the model the server loads, then the
    // server itself.
    let prep = prepare(run, &mut tr, &mut checks);
    let data = &prep.data;
    let t = Instant::now();
    let (snapshot, mut live, packed, n_test, snapshot_bytes) = tr.span("setup", 0, |tr| {
        let (train, test) = tr.span("task.build", 0, |_| {
            let (train, test) = task_split(data, run.seed);
            (take_rows(train, TRAIN_ROWS), take_rows(test, TEST_ROWS))
        });
        let features = RetweetFeatures::new(data, &prep.models, &prep.silver);
        let (mut packed, ptest) = tr.span("pack", 0, |_| {
            (pack(&features, &train), pack(&features, &test))
        });
        let d_user = packed[0].user_rows[0].len();
        let mut live = Retina::new(d_user, retina_config(RetinaMode::Static, run.seed));
        let cfg = TrainConfig {
            epochs: 1,
            seed: run.seed,
            ..TrainConfig::static_default()
        };
        tr.span("train.static", 0, |_| {
            train_retina(&mut live, &packed, &cfg)
        });
        let n_test = ptest.len();
        packed.extend(ptest);
        let snap = Snapshot::capture(&live)
            .with_pipeline(PipelineState::from_text_models(&prep.models))
            .with_trainer(cfg);
        let bytes = tr.span("snapshot.encode", 0, |_| snap.encode());
        let decoded = tr.span("snapshot.decode", 0, |_| Snapshot::decode(&bytes));
        (decoded, live, packed, n_test, bytes.len())
    });
    let snapshot = snapshot.unwrap_or_else(|e| panic!("snapshot round trip failed: {e}"));
    let server = tr.span("serving.start", 0, |_| {
        PredictionServer::start(&snapshot, ServerConfig::default())
    });
    let server = server.unwrap_or_else(|e| panic!("server failed to start: {e}"));
    let setup_s = prep.setup_s + t.elapsed().as_secs_f64();

    // The reference replica: one restored model, replaying every sample.
    let mut replica = tr
        .span("snapshot.restore", 0, |_| snapshot.restore())
        .expect("restore");
    checks.check(same_params(&replica, &live), || {
        "restored snapshot differs from the live model".into()
    });
    let mut reference = Vec::with_capacity(packed.len());
    let mut predict_us = Vec::with_capacity(packed.len());
    for p in &packed {
        let t = Instant::now();
        reference.push(replica.predict_proba(p));
        predict_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let test_start = packed.len() - n_test;
    for (p, want) in packed[test_start..].iter().zip(&reference[test_start..]) {
        checks.check(same_bits(&live.predict_proba(p), want), || {
            "restored replica scores a test sample differently from the live model".into()
        });
    }
    for r in &reference {
        checks.probabilities("reference replica", r);
    }
    let svc = Service {
        server,
        packed,
        reference,
        predict_us,
    };
    let d_user = svc.packed[0].user_rows[0].len();
    let n_train = test_start;
    eprintln!(
        "perfbench: serve_open_loop seed {}: {} tweets, {} samples, {} candidates, d_user {}, {} workers, setup {:.2}s",
        run.seed,
        data.tweets().len(),
        svc.packed.len(),
        rows(&svc.packed),
        d_user,
        svc.server.workers(),
        setup_s
    );
    drop(prep);

    // The measured phases. Bursts sit between the fixed-rate segments, so
    // their median samples the whole run rather than one stretch of it,
    // and the low phase, which `wall_s` reads, is spread out likewise.
    let mut order = StdRng::seed_from_u64(run.seed ^ 0x5E4E);
    let mut next_id = 0u64;
    let mut phase =
        |tr: &mut Tracer, checks: &mut Checks, name: &'static str, pace: Pace, n: usize| {
            let p = tr.span(name, 0, |tr| {
                drive(&svc, tr, checks, &mut order, &mut next_id, pace, n)
            });
            report_phase(name, pace, &p);
            p
        };
    phase(
        &mut tr,
        &mut checks,
        "phase.warmup",
        Pace::Rate(WARMUP_RPS),
        WARMUP_REQUESTS,
    );
    let mut steps = Vec::new();
    for n in split(count(LOW_RPS, LOW_SHARE * run.seconds), LOW_SEGMENTS) {
        steps.extend([Step::Burst, Step::Low(n)]);
    }
    for n in split(count(HIGH_RPS, HIGH_SHARE * run.seconds), HIGH_SEGMENTS) {
        steps.extend([Step::Burst, Step::High(n)]);
    }
    steps.extend(
        ladder_rates(LADDER_START, LADDER_STEP, LADDER_RUNGS)
            .into_iter()
            .map(Step::Rung),
    );
    steps.push(Step::Burst);

    let (mut low, mut high, mut ladder, mut burst) = (
        Phase::default(),
        Phase::default(),
        Phase::default(),
        Phase::default(),
    );
    let mut rungs: Vec<Rung> = Vec::new();
    let mut walls: Vec<(f64, bool)> = Vec::new();
    for step in steps {
        match step {
            Step::Low(n) => Phase::absorb(
                &mut low,
                phase(&mut tr, &mut checks, "phase.low", Pace::Rate(LOW_RPS), n),
            ),
            Step::High(n) => Phase::absorb(
                &mut high,
                phase(&mut tr, &mut checks, "phase.high", Pace::Rate(HIGH_RPS), n),
            ),
            Step::Rung(rate) => {
                if rungs.last().is_some_and(|r| !r.meets(SLO_P99_MS)) {
                    continue;
                }
                let n = count(rate, RUNG_SECONDS).max(RUNG_REQUESTS);
                let p = phase(&mut tr, &mut checks, "phase.ladder", Pace::Rate(rate), n);
                rungs.push(Rung {
                    rate,
                    p99_ms: percentile(&p.latency_ms, 99.0),
                    backlog: p.backlog,
                    failed: p.failed,
                });
                Phase::absorb(&mut ladder, p);
            }
            Step::Burst => {
                // A traced run orders its bursts untraced, traced, traced,
                // untraced…, so neither side always runs first.
                let traced = run.trace && matches!(walls.len() % 4, 1 | 2);
                tr.set_enabled(traced);
                let p = phase(
                    &mut tr,
                    &mut checks,
                    "phase.burst",
                    Pace::Window(BURST_WINDOW),
                    BURST_ROWS,
                );
                tr.set_enabled(run.trace);
                walls.push((p.wall_s, traced));
                Phase::absorb(&mut burst, p);
            }
        }
    }
    let stats = svc.server.shutdown();
    checks.check(
        stats.completed == stats.accepted && stats.rejected == 0,
        || format!("server lost or rejected requests: {stats:?}"),
    );

    // End-to-end metrics: the unit of work here is one request, sent
    // while the server is lightly loaded.
    m.insert("setup_s", setup_s);
    m.insert("wall_s", median(&low.latency_ms) / 1e3);

    // Per-layer metrics. Served answers equal the reference replica's,
    // so its test AUC is the served model's.
    let labels: Vec<u8> = svc.packed[test_start..]
        .iter()
        .flat_map(|p| p.labels.clone())
        .collect();
    m.insert(
        "auc_static",
        roc_auc(&labels, &svc.reference[test_start..].concat()),
    );
    m.insert("lat_p50_ms.low", percentile(&low.latency_ms, 50.0));
    m.insert("lat_p99_ms.low", percentile(&low.latency_ms, 99.0));
    m.insert("lat_p50_ms.high", percentile(&high.latency_ms, 50.0));
    m.insert("lat_p99_ms.high", percentile(&high.latency_ms, 99.0));
    m.insert("max_rps_slo", max_rate_within(&rungs, SLO_P99_MS));
    let plain: Vec<f64> = walls.iter().filter(|w| !w.1).map(|w| w.0).collect();
    m.insert("serving.burst_s", median(&plain));
    let model_us: Vec<f64> = low.samples.iter().map(|&i| svc.predict_us[i]).collect();
    let model_p50 = percentile(&model_us, 50.0);
    m.insert("model.predict_us.p50", model_p50);
    m.insert(
        "serving.overhead_ms.p50",
        m["lat_p50_ms.low"] - model_p50 / 1000.0,
    );
    let depth: Vec<f64> = low.depth.iter().chain(&high.depth).copied().collect();
    m.insert(
        "serving.queue_depth.max",
        depth.iter().copied().fold(0.0, f64::max),
    );
    m.insert("serving.queue_depth.mean", mean(&depth));
    m.insert("serving.accepted", stats.accepted as f64);
    m.insert("serving.completed", stats.completed as f64);
    m.insert("serving.rejected", stats.rejected as f64);
    let lag: Vec<f64> = [&low.lag_ms, &high.lag_ms, &ladder.lag_ms]
        .into_iter()
        .flatten()
        .copied()
        .collect();
    m.insert("gen.lag_ms.p99", percentile(&lag, 99.0));
    m.insert("gen.lag_ms.max", lag.iter().copied().fold(0.0, f64::max));
    for ([sent, ok, failed], p) in [
        (["phase.low.sent", "phase.low.ok", "phase.low.failed"], &low),
        (
            ["phase.high.sent", "phase.high.ok", "phase.high.failed"],
            &high,
        ),
        (
            [
                "phase.ladder.sent",
                "phase.ladder.ok",
                "phase.ladder.failed",
            ],
            &ladder,
        ),
        (
            ["phase.burst.sent", "phase.burst.ok", "phase.burst.failed"],
            &burst,
        ),
    ] {
        m.insert(sent, p.sent as f64);
        m.insert(ok, p.ok as f64);
        m.insert(failed, p.failed as f64);
    }
    m.insert("snapshot.bytes", snapshot_bytes as f64);
    m.insert("task.samples", svc.packed.len() as f64);
    m.insert("task.candidates", rows(&svc.packed) as f64);
    m.insert("task.d_user", d_user as f64);
    let sh = shapes(d_user);
    let train_rows = rows(&svc.packed[..n_train]);
    work_metrics(&sh, train_rows as f64 / n_train as f64, &mut m);
    if run.trace {
        for (metric, span) in [
            ("text.build_s", "text.build"),
            ("detector.train_s", "detector.train"),
            ("detector.label_s", "detector.label"),
            ("task.build_s", "task.build"),
            ("pack.s", "pack"),
            ("train.static_s", "train.static"),
            ("snapshot.encode_s", "snapshot.encode"),
            ("snapshot.decode_s", "snapshot.decode"),
            ("snapshot.restore_s", "snapshot.restore"),
        ] {
            m.insert(metric, layer_s(&tr, span));
        }
        m.insert("pack.rows_per_s", rows(&svc.packed) as f64 / m["pack.s"]);
        let ts = m["train.static_s"];
        m.insert("train.samples_per_s.static", n_train as f64 / ts);
        m.insert(
            "train.gflop_per_s",
            TRAIN_FORWARD_PASSES * sh.forward_flop(false, train_rows, n_train) / ts * 1e-9,
        );
        let submit_us: Vec<f64> = tr
            .self_s("serving.submit")
            .iter()
            .map(|s| s * 1e6)
            .collect();
        if !submit_us.is_empty() {
            m.insert("serving.submit_us.p50", percentile(&submit_us, 50.0));
            m.insert("serving.submit_us.p99", percentile(&submit_us, 99.0));
        }
        let pick = |traced: bool| -> Vec<f64> {
            walls
                .iter()
                .filter(|w| w.1 == traced)
                .map(|w| w.0)
                .collect()
        };
        m.insert(
            "trace.overhead_pct",
            (median(&pick(true)) / median(&pick(false)) - 1.0) * 100.0,
        );
    }
    Outcome {
        metrics: m,
        checks,
        tracer: tr,
    }
}

/// Requests a fixed-rate phase of `seconds` sends (at least one).
fn count(rate: f64, seconds: f64) -> usize {
    ((rate * seconds).round() as usize).max(1)
}

fn report_phase(name: &str, pace: Pace, p: &Phase) {
    let pace = match pace {
        Pace::Rate(r) => format!("{r:.0} req/s"),
        Pace::Window(w) => format!("window {w}"),
    };
    let support = if tail_supported(p.latency_ms.len(), 99.0) {
        ""
    } else {
        " (under 10 beyond)"
    };
    eprintln!(
        "perfbench: {name:<13} {pace:>12}: sent {} ok {} failed {} p50 {:.3} ms p99 {:.3} ms{support} backlog {} wall {:.3}s",
        p.sent,
        p.ok,
        p.failed,
        percentile(&p.latency_ms, 50.0),
        percentile(&p.latency_ms, 99.0),
        p.backlog,
        p.wall_s
    );
}

/// A request awaiting collection.
struct InFlight {
    id: u64,
    sample: usize,
    due: Instant,
    ticket: Ticket,
}

/// Send requests at `pace` from this thread while one collector thread
/// awaits the tickets; check every answer against the reference. A
/// fixed-rate phase sends `n` requests, a window phase requests holding
/// `n` candidate rows.
fn drive(
    svc: &Service,
    tr: &mut Tracer,
    checks: &mut Checks,
    order: &mut StdRng,
    next_id: &mut u64,
    pace: Pace,
    n: usize,
) -> Phase {
    let mut phase = Phase::default();
    let bound = match pace {
        Pace::Rate(_) => RATE_WINDOW,
        Pace::Window(w) => w,
    };
    let (tx, rx) = mpsc::sync_channel::<InFlight>(bound);
    let reference = &svc.reference;
    let done = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            rx.into_iter()
                .map(|f| {
                    let answer = f.ticket.wait();
                    let at = Instant::now();
                    let ok =
                        answer.id == f.id && same_bits(&answer.probabilities, &reference[f.sample]);
                    (f.id, f.due, at, ok)
                })
                .collect::<Vec<_>>()
        });
        // A fixed-rate schedule starts a moment ahead, so the first send
        // is not already late.
        let start = match pace {
            Pace::Rate(_) => Instant::now() + Duration::from_millis(2),
            Pace::Window(_) => Instant::now(),
        };
        let mut rows_sent = 0;
        for i in 0.. {
            let done = match pace {
                Pace::Rate(_) => i >= n,
                Pace::Window(_) => rows_sent >= n,
            };
            if done {
                break;
            }
            let sample = order.gen_range(0..svc.packed.len());
            rows_sent += svc.packed[sample].user_rows.len();
            let id = *next_id;
            *next_id += 1;
            // Build the request before its send time comes.
            let request = PredictRequest {
                id,
                sample: svc.packed[sample].clone(),
            };
            let due = match pace {
                Pace::Rate(rate) => {
                    let due = start + Duration::from_secs_f64(i as f64 / rate);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let now = Instant::now();
                    phase
                        .lag_ms
                        .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
                    let depth = svc.server.queue_depth();
                    phase.depth.push(depth as f64);
                    if depth >= BACKLOG_DEPTH {
                        phase.backlog = true;
                        break;
                    }
                    due
                }
                Pace::Window(_) => Instant::now(),
            };
            phase.sent += 1;
            phase.samples.push(sample);
            match tr.span("serving.submit", id, |_| svc.server.submit(request)) {
                Ok(ticket) => {
                    let f = InFlight {
                        id,
                        sample,
                        due,
                        ticket,
                    };
                    // Fails only if the collector panicked, which `join`
                    // below reports.
                    if tx.send(f).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    phase.failed += 1;
                    phase.latency_ms.push(f64::INFINITY);
                    checks.check(false, || format!("request {id} rejected: {e}"));
                }
            }
        }
        drop(tx);
        let done = collector.join().expect("collector thread panicked");
        phase.wall_s = start.elapsed().as_secs_f64();
        done
    });
    for (id, due, at, ok) in done {
        tr.record("serving.request", due, at, id);
        phase
            .latency_ms
            .push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
        checks.check(ok, || {
            format!("request {id}: served prediction differs from the reference replica")
        });
        if ok {
            phase.ok += 1;
        } else {
            phase.failed += 1;
        }
    }
    if phase.latency_ms.is_empty() {
        phase.latency_ms.push(f64::INFINITY);
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, p99_ms: f64) -> Rung {
        Rung {
            rate,
            p99_ms,
            backlog: false,
            failed: 0,
        }
    }

    #[test]
    fn ladder_rates_are_geometric() {
        let r = ladder_rates(1000.0, 1.5, 3);
        assert_eq!(r, vec![1000.0, 1500.0, 2250.0]);
    }

    #[test]
    fn max_rate_is_last_rung_of_the_passing_run() {
        let rungs = [
            rung(100.0, 2.0),
            rung(200.0, 4.0),
            rung(300.0, 12.0),
            rung(400.0, 3.0),
        ];
        assert_eq!(max_rate_within(&rungs, 10.0), 200.0);
        assert_eq!(max_rate_within(&rungs, 1.0), 0.0);
        assert_eq!(max_rate_within(&rungs, 20.0), 400.0);
        assert_eq!(max_rate_within(&[], 10.0), 0.0);
    }

    #[test]
    fn backlog_or_failures_fail_a_rung() {
        let mut backlog = rung(300.0, 1.0);
        backlog.backlog = true;
        let mut failed = rung(300.0, 1.0);
        failed.failed = 1;
        for bad in [backlog, failed] {
            assert!(!bad.meets(10.0));
            assert_eq!(max_rate_within(&[rung(200.0, 1.0), bad], 10.0), 200.0);
        }
        // A rejected request is +inf latency and misses any limit.
        assert!(!rung(200.0, f64::INFINITY).meets(1e9));
    }
}
