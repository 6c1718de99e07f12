//! Corruption matrix: every class of on-disk damage maps to the right
//! structured [`SnapshotError`] variant, and decoding never panics.

mod common;

use common::{sample, scaler_payload, scaler_stats, section_table, with_payload};
use retina_core::retina::{Retina, RetinaConfig};
use retina_core::snapshot::{
    PipelineState, Snapshot, SnapshotError, FORMAT_VERSION, SECTION_CONFIG, SECTION_SCALER,
};
use retina_core::trainer::TrainConfig;
use text::{HateLexicon, TfIdfConfig, TfIdfVectorizer};

/// A snapshot exercising all five sections: config, weights, scaler
/// (via a trained model), pipeline, and trainer.
fn full_snapshot() -> Vec<u8> {
    let mut model = Retina::new(8, RetinaConfig::static_default());
    let data: Vec<_> = (0..4).map(|i| sample(5, 8, 50, 3, i)).collect();
    let cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::static_default()
    };
    retina_core::trainer::train_retina(&mut model, &data, &cfg);
    let tfidf = TfIdfVectorizer::fit(&["cat sat", "dog ran"], TfIdfConfig::default());
    Snapshot::capture(&model)
        .with_pipeline(PipelineState {
            tweet_tfidf: tfidf.clone(),
            news_tfidf: tfidf,
            lexicon: HateLexicon::new(&["slur", "go back"]),
        })
        .with_trainer(cfg)
        .encode()
}

#[test]
fn snapshot_has_all_five_sections() {
    let bytes = full_snapshot();
    let ids: Vec<u32> = section_table(&bytes).iter().map(|&(id, _, _)| id).collect();
    assert_eq!(ids, vec![1, 2, 3, 4, 5]);
}

#[test]
fn one_flipped_byte_per_section_is_a_checksum_mismatch_for_that_section() {
    let bytes = full_snapshot();
    for (id, off, len) in section_table(&bytes) {
        assert!(len > 0, "section {id} has an empty payload");
        // Flip the first, middle, and last byte of the payload.
        for at in [off, off + len / 2, off + len - 1] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x40;
            match Snapshot::decode(&corrupt) {
                Err(SnapshotError::ChecksumMismatch { section }) => {
                    assert_eq!(
                        section, id,
                        "flip at byte {at} blamed section {section}, expected {id}"
                    );
                }
                other => panic!(
                    "section {id}, flip at {at}: expected ChecksumMismatch, got {:?}",
                    other.err()
                ),
            }
        }
    }
}

#[test]
fn truncation_at_every_section_boundary_is_structured() {
    let bytes = full_snapshot();
    let table = section_table(&bytes);
    // Boundaries: before the magic, inside the header, at the table
    // start, at every payload start and end, and one byte short of EOF.
    let mut cuts = vec![0, 4, 8, 12, 16, bytes.len() - 1];
    for &(_, off, len) in &table {
        cuts.push(off);
        cuts.push(off + len);
    }
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        if cut >= bytes.len() {
            continue;
        }
        match Snapshot::decode(&bytes[..cut]) {
            Err(SnapshotError::Truncated { .. }) => {}
            other => panic!(
                "cut at {cut}/{}: expected Truncated, got {:?}",
                bytes.len(),
                other.err()
            ),
        }
    }
    // The untruncated input still decodes.
    assert!(Snapshot::decode(&bytes).is_ok());
}

#[test]
fn future_version_is_rejected_with_versions() {
    let mut bytes = full_snapshot();
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 3).to_le_bytes());
    match Snapshot::decode(&bytes) {
        Err(SnapshotError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 3);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {:?}", other.err()),
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = full_snapshot();
    bytes[3] = b'X';
    match Snapshot::decode(&bytes) {
        Err(SnapshotError::BadMagic) => {}
        other => panic!("expected BadMagic, got {:?}", other.err()),
    }
}

#[test]
fn unknown_section_id_is_rejected() {
    let mut bytes = full_snapshot();
    let n = section_table(&bytes).len();
    // Rewrite the last table entry's id to something undefined. Its
    // payload is untouched, so the checksum still passes.
    let at = 16 + (n - 1) * 28;
    bytes[at..at + 4].copy_from_slice(&999u32.to_le_bytes());
    match Snapshot::decode(&bytes) {
        Err(SnapshotError::UnknownSection { section }) => assert_eq!(section, 999),
        other => panic!("expected UnknownSection, got {:?}", other.err()),
    }
}

#[test]
fn duplicate_section_id_is_rejected() {
    let mut bytes = full_snapshot();
    // Rewrite the second table entry's id to collide with the first.
    let at = 16 + 28;
    bytes[at..at + 4].copy_from_slice(&SECTION_CONFIG.to_le_bytes());
    match Snapshot::decode(&bytes) {
        Err(SnapshotError::DuplicateSection { section }) => {
            assert_eq!(section, SECTION_CONFIG);
        }
        other => panic!("expected DuplicateSection, got {:?}", other.err()),
    }
}

#[test]
fn required_section_missing_is_rejected() {
    let bytes = full_snapshot();
    let table = section_table(&bytes);
    // Rebuild the file without the config section: header says one
    // section fewer, table entries shift, payload offsets recomputed.
    let kept: Vec<(u32, usize, usize)> = table
        .iter()
        .copied()
        .filter(|&(id, _, _)| id != SECTION_CONFIG)
        .collect();
    let mut out = bytes[..12].to_vec();
    out.extend_from_slice(&(kept.len() as u32).to_le_bytes());
    let payload_start = 16 + kept.len() * 28;
    let mut offset = payload_start;
    for &(id, _, len) in &kept {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&(offset as u64).to_le_bytes());
        out.extend_from_slice(&(len as u64).to_le_bytes());
        // Copy the original checksum for this section.
        let orig_idx = table.iter().position(|&(i, ..)| i == id).unwrap();
        let sum_at = 16 + orig_idx * 28 + 20;
        out.extend_from_slice(&bytes[sum_at..sum_at + 8]);
        offset += len;
    }
    for &(_, off, len) in &kept {
        out.extend_from_slice(&bytes[off..off + len]);
    }
    match Snapshot::decode(&out) {
        Err(SnapshotError::MissingSection { section }) => {
            assert_eq!(section, SECTION_CONFIG);
        }
        other => panic!("expected MissingSection, got {:?}", other.err()),
    }
}

#[test]
fn truncated_garbage_never_panics() {
    // Fuzz-lite: random prefixes and random byte flips must all come
    // back as structured errors, not panics.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let bytes = full_snapshot();
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..200 {
        let mut mutated = bytes.clone();
        let flips = rng.gen_range(1..8);
        for _ in 0..flips {
            let at = rng.gen_range(0..mutated.len());
            mutated[at] ^= 1 << rng.gen_range(0..8);
        }
        let cut = rng.gen_range(0..=mutated.len());
        let _ = Snapshot::decode(&mutated[..cut]);
    }
}

#[test]
fn resealed_scaler_statistics_that_cannot_scale_are_malformed() {
    let bytes = full_snapshot();
    let (means, stds) = scaler_stats(&bytes);
    let n = means.len();
    let reseal = |m: &[f64], s: &[f64]| {
        Snapshot::decode(&with_payload(&bytes, SECTION_SCALER, &scaler_payload(m, s)))
            .expect("a re-sealed section decodes")
    };
    // Re-sealing the untouched statistics changes nothing.
    assert!(reseal(&means, &stds).restore().is_ok());
    let with = |v: &[f64], at: usize, x: f64| {
        let mut v = v.to_vec();
        v[at] = x;
        v
    };
    let cases = [
        ("zero σ", means.clone(), with(&stds, 2, 0.0)),
        ("negative σ", means.clone(), with(&stds, 2, -1.0)),
        ("NaN σ", means.clone(), with(&stds, 0, f64::NAN)),
        ("infinite σ", means.clone(), with(&stds, 0, f64::INFINITY)),
        ("infinite μ", with(&means, 1, f64::INFINITY), stds.clone()),
        ("NaN μ", with(&means, 1, f64::NAN), stds.clone()),
        (
            "one column short of d_user",
            means[..n - 1].to_vec(),
            stds[..n - 1].to_vec(),
        ),
        (
            "one column past d_user",
            [means.as_slice(), &[0.0]].concat(),
            [stds.as_slice(), &[1.0]].concat(),
        ),
    ];
    for (what, m, s) in cases {
        match reseal(&m, &s).restore() {
            Err(SnapshotError::Malformed { .. }) => {}
            other => panic!("{what}: expected Malformed, got {:?}", other.err()),
        }
    }
}

#[test]
fn a_length_past_the_address_space_is_truncated_not_an_overflow() {
    // Presence tag 1, then a width of 2^60 columns: 16 · 2^60 bytes
    // cannot exist, and the reported need must saturate rather than
    // wrap past `usize::MAX` (a panic in a debug build).
    let bytes = full_snapshot();
    let mut payload = vec![1u8];
    payload.extend_from_slice(&(1u64 << 60).to_le_bytes());
    match Snapshot::decode(&with_payload(&bytes, SECTION_SCALER, &payload)) {
        Err(SnapshotError::Truncated {
            needed, available, ..
        }) => assert!(needed > available, "needed {needed}, available {available}"),
        other => panic!("expected Truncated, got {:?}", other.err()),
    }
}
