//! End-to-end parity contract for the f32 serving tier.
//!
//! Two guarantees, both against the committed golden snapshot fixture:
//!
//! 1. **Tolerance vs f64** — an f32 replica's probabilities match the
//!    f64 replica's within `F32_TOLERANCE` (absolute, on probabilities
//!    in `[0, 1]`). The bound is generous versus the observed error
//!    (~1e-6 for this model) because it must hold for any realistic
//!    weight scale, not just the fixture; DESIGN.md §13 documents the
//!    derivation.
//! 2. **Bit-identity across serving** — for a fixed request, the f32
//!    tier's answer is byte-identical regardless of worker count or
//!    submission order. Each sample runs the same single-sample
//!    forward, and the f32 kernels are bit-identical across thread
//!    counts and kernel legs, portable or AVX2 (pinned in
//!    `nn/tests/kernel_parity.rs` and `nn::tensor`'s tests).

mod common;

use common::{sample, scaler_payload, scaler_stats, with_payload};
use nn::SparseRow;
use retina_core::retina::{PackedSample, Retina, RetinaConfig};
use retina_core::snapshot::{Snapshot, SECTION_SCALER};
use retina_core::trainer::{train_retina, TrainConfig};
use serving::{Precision, PredictRequest, PredictionServer, ServerConfig};
use std::path::PathBuf;

const D_USER: usize = 6;
/// Absolute probability tolerance of the f32 tier vs f64.
const F32_TOLERANCE: f64 = 1e-3;

fn snapshot() -> Snapshot {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden.snap");
    Snapshot::load(&path).expect("golden fixture decodes")
}

fn probes() -> Vec<PackedSample> {
    (0..8).map(|i| sample(5, D_USER, 50, 3, 7100 + i)).collect()
}

/// Score every probe through a server in the given precision, with the
/// requests submitted in `order`; returns probabilities indexed by
/// probe id.
fn serve_all(
    snap: &Snapshot,
    precision: Precision,
    workers: usize,
    order: &[usize],
    probes: &[PackedSample],
) -> Vec<Vec<f64>> {
    let server = PredictionServer::start(
        snap,
        ServerConfig {
            workers,
            queue_capacity: 64,
            precision,
        },
    )
    .expect("start");
    let mut results: Vec<Vec<f64>> = vec![Vec::new(); probes.len()];
    let tickets: Vec<_> = order
        .iter()
        .map(|&i| {
            server
                .submit(PredictRequest {
                    id: i as u64,
                    sample: probes[i].clone(),
                })
                .expect("submit")
        })
        .collect();
    for t in tickets {
        let p = t.wait();
        results[p.id as usize] = p.probabilities;
    }
    server.shutdown();
    results
}

#[test]
fn f32_replica_matches_f64_within_documented_tolerance() {
    let snap = snapshot();
    let order: Vec<usize> = (0..probes().len()).collect();
    let f64_probs = serve_all(&snap, Precision::F64, 1, &order, &probes());
    let f32_probs = serve_all(&snap, Precision::F32, 1, &order, &probes());
    for (i, (a, b)) in f64_probs.iter().zip(&f32_probs).enumerate() {
        assert_eq!(a.len(), b.len(), "probe {i}: candidate count drifted");
        let mut worst = 0.0f64;
        for (x, y) in a.iter().zip(b) {
            worst = worst.max((x - y).abs());
        }
        assert!(
            worst <= F32_TOLERANCE,
            "probe {i}: f32 tier diverged by {worst:e} (> {F32_TOLERANCE:e})"
        );
    }
}

#[test]
fn f32_predictions_are_byte_identical_across_workers_and_orders() {
    let snap = snapshot();
    let n = probes().len();
    let forward: Vec<usize> = (0..n).collect();
    let reverse: Vec<usize> = (0..n).rev().collect();
    // Deterministic interleave: evens then odds.
    let interleaved: Vec<usize> = (0..n).step_by(2).chain((1..n).step_by(2)).collect();

    let baseline = serve_all(&snap, Precision::F32, 1, &forward, &probes());
    for (workers, order) in [
        (1usize, &reverse),
        (2, &forward),
        (2, &interleaved),
        (4, &reverse),
    ] {
        let got = serve_all(&snap, Precision::F32, workers, order, &probes());
        for (i, (want, have)) in baseline.iter().zip(&got).enumerate() {
            assert_eq!(want.len(), have.len(), "probe {i}: candidate count drifted");
            for (j, (w, h)) in want.iter().zip(have).enumerate() {
                assert_eq!(
                    w.to_bits(),
                    h.to_bits(),
                    "probe {i} candidate {j}: {workers} workers changed bits \
                     ({w:.17e} vs {h:.17e})"
                );
            }
        }
    }
}

/// Candidate rows whose column 0 is 0.2, like perfbench's shortest-path
/// feature for follower candidates.
fn with_constant_column(mut s: PackedSample) -> PackedSample {
    for row in &mut s.user_rows {
        let mut v = row.to_dense();
        v[0] = 0.2;
        *row = SparseRow::from_dense(&v);
    }
    s
}

/// A snapshot whose scaler was fitted before constant columns got
/// σ = 1: 8,000 rows of 0.2 fitted μ = 0.20000000000002835 and
/// σ = 2.8e-14. Folding that column would cancel two ≈7e12 terms, so
/// the user layer keeps it centred, and the server answers within 1e-12
/// (relative) of the dense scaled computation at f64 and within the
/// tier's tolerance at f32.
#[test]
fn an_old_fit_near_zero_sigma_column_serves_within_contract() {
    let data: Vec<PackedSample> = (0..4)
        .map(|i| with_constant_column(sample(7, D_USER, 50, 3, 60 + i)))
        .collect();
    let mut model = Retina::new(D_USER, RetinaConfig::static_default());
    let cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::static_default()
    };
    train_retina(&mut model, &data, &cfg);
    let bytes = Snapshot::capture(&model).encode();
    let (mut means, mut stds) = scaler_stats(&bytes);
    (means[0], stds[0]) = (0.200_000_000_000_028_35, 2.8e-14);
    let old = Snapshot::decode(&with_payload(
        &bytes,
        SECTION_SCALER,
        &scaler_payload(&means, &stds),
    ))
    .expect("re-sealed snapshot decodes");
    let probes: Vec<PackedSample> = (0..6)
        .map(|i| with_constant_column(sample(5, D_USER, 50, 3, 7200 + i)))
        .collect();
    let order: Vec<usize> = (0..probes.len()).collect();
    let wide = serve_all(&old, Precision::F64, 1, &order, &probes);
    let narrow = serve_all(&old, Precision::F32, 1, &order, &probes);

    // The dense reference: the same weights with no scaler, fed
    // `x = (v − μ)/σ` computed in f64. Unscaled, the user layer is the
    // dense product bit for bit.
    let mut reference = Snapshot::decode(&with_payload(&bytes, SECTION_SCALER, &[0]))
        .expect("scaler-less snapshot decodes")
        .restore()
        .expect("restore");
    for (i, probe) in probes.iter().enumerate() {
        let mut x = probe.clone();
        for row in &mut x.user_rows {
            let v = row.to_dense();
            let scaled: Vec<f64> = (0..v.len()).map(|j| (v[j] - means[j]) / stds[j]).collect();
            assert!((scaled[0] + 1.0125).abs() < 1e-3, "column 0 scales to ≈ -1");
            *row = SparseRow::from_dense(&scaled);
        }
        let want = reference.predict_proba(&x);
        assert_eq!(want.len(), wide[i].len());
        for (j, ((w, a), b)) in want.iter().zip(&wide[i]).zip(&narrow[i]).enumerate() {
            assert!(
                (w - a).abs() <= 1e-12 * w.abs(),
                "probe {i} candidate {j}: f64 {a:.17e} vs dense {w:.17e}"
            );
            assert!(
                (a - b).abs() <= F32_TOLERANCE,
                "probe {i} candidate {j}: f32 {b} vs f64 {a}"
            );
        }
    }
}
