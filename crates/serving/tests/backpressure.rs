//! Backpressure and shutdown semantics: rejections are explicit,
//! accepted work is never dropped, and shutdown drains gracefully. The
//! full-queue rejection itself is pinned deterministically by a unit
//! test in `server.rs`, on a server whose workers never start.

mod common;

use common::sample;
use retina_core::retina::{Retina, RetinaConfig};
use retina_core::snapshot::Snapshot;
use serving::{PredictRequest, PredictionServer, ServerConfig, SubmitError};

const D_USER: usize = 8;

fn snapshot() -> Snapshot {
    Snapshot::capture(&Retina::new(D_USER, RetinaConfig::static_default()))
}

fn request(id: u64) -> PredictRequest {
    PredictRequest {
        id,
        sample: sample(4, D_USER, 50, 2, id),
    }
}

fn one_worker_server(queue_capacity: usize) -> PredictionServer {
    PredictionServer::start(
        &snapshot(),
        ServerConfig {
            workers: 1,
            queue_capacity,
            ..ServerConfig::default()
        },
    )
    .expect("start")
}

#[test]
fn shutdown_drains_every_accepted_request() {
    let server = one_worker_server(4);
    let tickets: Vec<_> = (0..4)
        .map(|id| server.submit(request(id)).expect("within capacity"))
        .collect();
    // Graceful drain: the worker fulfils every accepted request before
    // exiting, whether it took it before or after shutdown began.
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 4);
    assert_eq!(stats.completed, 4, "shutdown dropped queued work");
    for (i, t) in tickets.into_iter().enumerate() {
        let p = t.wait();
        assert_eq!(p.id, i as u64);
        assert_eq!(p.probabilities.len(), 4);
    }
}

#[test]
fn no_silent_drops_under_sustained_backpressure() {
    let server = PredictionServer::start(
        &snapshot(),
        ServerConfig {
            workers: 2,
            queue_capacity: 3,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    let mut gave_up = 0u64;
    for id in 0..200 {
        match server.submit(request(id)) {
            Ok(t) => tickets.push((id, t)),
            Err(SubmitError::QueueFull { .. }) => {
                rejected += 1;
                // Resubmit once after yielding; give up on a second
                // rejection (the caller owns retry policy).
                std::thread::yield_now();
                match server.submit(request(id)) {
                    Ok(t) => tickets.push((id, t)),
                    Err(_) => {
                        rejected += 1;
                        gave_up += 1;
                    }
                }
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    let accepted = tickets.len() as u64;
    // Conservation: every request was either accepted or given up on,
    // and every rejection was observed by the caller — nothing vanished.
    assert_eq!(accepted + gave_up, 200);
    // Every accepted ticket resolves to its own request id.
    for (id, t) in tickets {
        assert_eq!(t.wait().id, id);
    }
    let stats = server.shutdown();
    assert_eq!(stats.accepted, accepted);
    assert_eq!(stats.completed, accepted, "accepted work went missing");
    assert_eq!(stats.rejected, rejected);
}

#[test]
fn shutdown_rejects_new_submissions() {
    let server = one_worker_server(8);
    let t = server.submit(request(0)).expect("accepted before shutdown");
    server.initiate_shutdown();
    match server.submit(request(1)) {
        Err(SubmitError::ShutDown) => {}
        Ok(_) => panic!("accepted after shutdown"),
        Err(e) => panic!("wrong rejection: {e}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.rejected, 1);
    assert_eq!(t.wait().id, 0);
}

#[test]
fn invalid_requests_are_rejected_not_panicked() {
    let server = one_worker_server(8);
    // Wrong feature width.
    let mut bad = request(0);
    bad.sample.user_rows[0].push(1.0);
    match server.submit(bad) {
        Err(SubmitError::InvalidRequest { .. }) => {}
        other => panic!("expected InvalidRequest, got {:?}", other.err()),
    }
    // No candidates at all.
    let mut empty = request(1);
    empty.sample.user_rows.clear();
    match server.submit(empty) {
        Err(SubmitError::InvalidRequest { .. }) => {}
        other => panic!("expected InvalidRequest, got {:?}", other.err()),
    }
    // Wrong Doc2Vec width on an exogenous model.
    let mut bad_d2v = request(2);
    bad_d2v.sample.tweet_d2v.pop();
    match server.submit(bad_d2v) {
        Err(SubmitError::InvalidRequest { .. }) => {}
        other => panic!("expected InvalidRequest, got {:?}", other.err()),
    }
    assert_eq!(server.stats().rejected, 3);
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 0);
    assert_eq!(stats.completed, 0);
}

#[test]
fn drop_performs_graceful_drain() {
    let tickets: Vec<serving::Ticket> = {
        let server = one_worker_server(8);
        (0..5)
            .map(|id| server.submit(request(id)).expect("submit"))
            .collect()
        // `server` dropped here: drain + join.
    };
    for (i, t) in tickets.into_iter().enumerate() {
        assert_eq!(t.wait().id, i as u64);
    }
}

#[test]
fn non_finite_features_are_rejected_and_service_continues() {
    let server = one_worker_server(8);
    let poisons: [(&str, fn(&mut PredictRequest, f64)); 3] = [
        ("user_rows", |r, v| r.sample.user_rows[1][2] = v),
        ("tweet_d2v", |r, v| r.sample.tweet_d2v[3] = v),
        ("news_d2v", |r, v| r.sample.news_d2v[1][4] = v),
    ];
    let mut id = 0;
    let mut served = 0u64;
    for (field, poison) in poisons {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut req = request(id);
            poison(&mut req, bad);
            match server.submit(req) {
                Err(SubmitError::InvalidRequest { context }) => {
                    assert_eq!(context, "non-finite feature value", "{field} = {bad}");
                }
                other => panic!(
                    "{field} = {bad}: expected InvalidRequest, got {:?}",
                    other.err()
                ),
            }
            id += 1;
            // The next valid request is still served, with finite answers.
            let p = server.submit(request(id)).expect("valid request").wait();
            assert_eq!(p.id, id);
            assert!(p.probabilities.iter().all(|v| v.is_finite()));
            served += 1;
            id += 1;
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.rejected, 9);
    assert_eq!(stats.accepted, served);
    assert_eq!(stats.completed, served);
    assert_eq!(stats.accepted + stats.rejected, id);
}
