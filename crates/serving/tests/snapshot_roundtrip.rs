//! Property test: snapshot save → load → predict is bit-identical to
//! the captured model, across randomized seeded configurations, both
//! through in-memory bytes and through the filesystem.

mod common;

use common::{bits, random_config, sample, sample_with_intervals};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use retina_core::retina::Retina;
use retina_core::snapshot::Snapshot;
use retina_core::trainer::{train_retina, TrainConfig};

#[test]
fn randomized_configs_round_trip_bit_identically() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for case in 0..24 {
        let (d_user, config) = random_config(&mut rng);
        let d2v = config.d2v_dim;
        let news_k = config.news_k;
        let intervals = config.intervals.len();
        let mut model = Retina::new(d_user, config);

        // Train half the cases so the fitted scaler round-trips too.
        let trained = case % 2 == 0;
        if trained {
            let data: Vec<_> = (0..4)
                .map(|i| sample_with_intervals(6, d_user, d2v, news_k, intervals, 100 * case + i))
                .collect();
            let cfg = TrainConfig {
                epochs: 1,
                ..TrainConfig::static_default()
            };
            train_retina(&mut model, &data, &cfg);
        }

        let probes: Vec<_> = (0..3)
            .map(|i| sample(5, d_user, d2v, news_k, 7000 + 10 * case + i))
            .collect();
        let before: Vec<Vec<u64>> = probes
            .iter()
            .map(|s| bits(&model.predict_proba(s)))
            .collect();

        let snap = Snapshot::capture(&model);
        let encoded = snap.encode();
        let decoded = Snapshot::decode(&encoded).unwrap_or_else(|e| {
            panic!("case {case}: decode failed: {e}");
        });
        assert_eq!(
            encoded,
            decoded.encode(),
            "case {case}: re-encode is not byte-identical"
        );
        let mut restored = decoded
            .restore()
            .unwrap_or_else(|e| panic!("case {case}: restore failed: {e}"));
        for (i, probe) in probes.iter().enumerate() {
            let after = bits(&restored.predict_proba(probe));
            assert_eq!(
                before[i], after,
                "case {case} probe {i} (trained={trained}): prediction changed across \
                 the round trip"
            );
        }
    }
}

#[test]
fn file_round_trip_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0xF11E);
    let (d_user, config) = random_config(&mut rng);
    let d2v = config.d2v_dim;
    let news_k = config.news_k;
    let mut model = Retina::new(d_user, config);
    let probe = sample(6, d_user, d2v, news_k, 3);
    let before = bits(&model.predict_proba(&probe));

    let unique: u64 = rng.next_u64();
    let path = std::env::temp_dir().join(format!("retina-snap-{unique:016x}.snap"));
    let snap = Snapshot::capture(&model);
    snap.save(&path).expect("save");
    let loaded = Snapshot::load(&path).expect("load");
    let _ = std::fs::remove_file(&path);
    assert_eq!(snap.encode(), loaded.encode(), "file bytes drifted");
    let mut restored = loaded.restore().expect("restore");
    assert_eq!(before, bits(&restored.predict_proba(&probe)));
}

#[test]
fn load_of_missing_file_is_io_error() {
    let path = std::env::temp_dir().join("retina-snap-definitely-missing.snap");
    match Snapshot::load(&path) {
        Err(retina_core::snapshot::SnapshotError::Io(_)) => {}
        other => panic!("expected Io error, got {:?}", other.err()),
    }
}
