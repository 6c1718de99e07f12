//! Shared builders for the serving test suite: deterministic samples
//! and randomized-but-seeded model configurations.
#![allow(dead_code)]

use nn::SparseRow;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use retina_core::retina::{PackedSample, RecurrentKind, RetinaConfig, RetinaMode};
use retina_core::snapshot::{fnv1a64, SECTION_SCALER};

/// A deterministic packed sample: `n` candidates of width `d_user`,
/// Doc2Vec width `d2v`, `k` news items. Same `(dims, seed)` → same
/// sample, bit for bit.
pub fn sample(n: usize, d_user: usize, d2v: usize, k: usize, seed: u64) -> PackedSample {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels: Vec<u8> = (0..n).map(|i| u8::from(i % 3 == 0)).collect();
    let retweet_times: Vec<f64> = labels
        .iter()
        .map(|&l| if l == 1 { 2.0 } else { f64::INFINITY })
        .collect();
    PackedSample {
        user_rows: (0..n)
            .map(|_| {
                let row: Vec<f64> = (0..d_user).map(|_| rng.gen_range(-1.0..1.0)).collect();
                SparseRow::from_dense(&row)
            })
            .collect(),
        labels: labels.clone(),
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
        tweet_d2v: (0..d2v).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        news_d2v: (0..k)
            .map(|_| (0..d2v).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect(),
        hateful: false,
        t0: 0.0,
        retweet_times,
    }
}

/// Draw a randomized model shape from a seeded RNG: `(d_user, config)`.
/// Covers both modes, both attention settings, and all recurrent cells.
pub fn random_config(rng: &mut StdRng) -> (usize, RetinaConfig) {
    let d_user = rng.gen_range(3..16);
    let mode = if rng.gen_bool(0.5) {
        RetinaMode::Static
    } else {
        RetinaMode::Dynamic
    };
    let recurrent = match rng.gen_range(0..3) {
        0 => RecurrentKind::Gru,
        1 => RecurrentKind::Lstm,
        _ => RecurrentKind::SimpleRnn,
    };
    let n_intervals = rng.gen_range(2..6);
    let mut intervals: Vec<f64> = (0..n_intervals - 1)
        .map(|i| (i as f64 + 1.0) * rng.gen_range(1.0..4.0))
        .collect();
    intervals.push(f64::INFINITY);
    let config = RetinaConfig {
        mode,
        use_exogenous: rng.gen_bool(0.7),
        hdim: [4, 8, 16][rng.gen_range(0..3)],
        news_k: rng.gen_range(1..5),
        d2v_dim: [8, 12][rng.gen_range(0..2)],
        intervals,
        recurrent,
        seed: rng.next_u64(),
        threads: 0,
    };
    (d_user, config)
}

/// Bit-pattern view of a probability vector, for exact comparisons.
pub fn bits(p: &[f64]) -> Vec<u64> {
    p.iter().map(|x| x.to_bits()).collect()
}

/// Parse the section table straight off the bytes: `(id, offset, len)`.
pub fn section_table(bytes: &[u8]) -> Vec<(u32, usize, usize)> {
    let n = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    (0..n)
        .map(|i| {
            let at = 16 + i * 28;
            let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let off = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap()) as usize;
            (id, off, len)
        })
        .collect()
}

/// Rebuild `bytes` with section `id`'s payload replaced: offsets are
/// recomputed and its checksum re-sealed, so the file decodes and only
/// the values inside are wrong.
pub fn with_payload(bytes: &[u8], id: u32, payload: &[u8]) -> Vec<u8> {
    let table = section_table(bytes);
    let payloads: Vec<&[u8]> = table
        .iter()
        .map(|&(i, off, len)| {
            if i == id {
                payload
            } else {
                &bytes[off..off + len]
            }
        })
        .collect();
    let mut out = bytes[..16].to_vec();
    let mut offset = 16 + table.len() * 28;
    for (&(i, _, _), p) in table.iter().zip(&payloads) {
        out.extend_from_slice(&i.to_le_bytes());
        out.extend_from_slice(&(offset as u64).to_le_bytes());
        out.extend_from_slice(&(p.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(p).to_le_bytes());
        offset += p.len();
    }
    for p in payloads {
        out.extend_from_slice(p);
    }
    out
}

/// A scaler section payload: presence tag, width, means, stds.
pub fn scaler_payload(means: &[f64], stds: &[f64]) -> Vec<u8> {
    let mut out = vec![1u8];
    out.extend_from_slice(&(means.len() as u64).to_le_bytes());
    for v in means.iter().chain(stds) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// The `(means, stds)` in `bytes`' scaler section.
pub fn scaler_stats(bytes: &[u8]) -> (Vec<f64>, Vec<f64>) {
    let (_, off, len) = section_table(bytes)
        .into_iter()
        .find(|&(id, ..)| id == SECTION_SCALER)
        .expect("snapshot has a scaler section");
    let payload = &bytes[off..off + len];
    assert_eq!(payload[0], 1, "the scaler is present");
    let n = u64::from_le_bytes(payload[1..9].try_into().unwrap()) as usize;
    let read = |i: usize| f64::from_le_bytes(payload[9 + 8 * i..17 + 8 * i].try_into().unwrap());
    ((0..n).map(read).collect(), (n..2 * n).map(read).collect())
}
