//! Golden fixture pin: a committed snapshot file must keep decoding,
//! keep its on-disk structure, and keep producing the committed
//! predictions. This catches accidental wire-format or numeric drift
//! that in-process round-trip tests cannot see.
//!
//! Regenerate with:
//! `cargo test -p serving --test golden_fixture -- --ignored regenerate`
//! and commit the files it writes under `tests/fixtures/`.

mod common;

use common::sample;
use retina_core::retina::{PackedSample, RecurrentKind, Retina, RetinaConfig};
use retina_core::snapshot::{
    PipelineState, Snapshot, FORMAT_VERSION, MAGIC, SECTION_CONFIG, SECTION_PIPELINE,
    SECTION_SCALER, SECTION_TRAINER, SECTION_WEIGHTS,
};
use retina_core::trainer::{train_retina, TrainConfig};
use std::path::PathBuf;
use text::{HateLexicon, TfIdfConfig, TfIdfVectorizer};

const D_USER: usize = 6;
const N_PROBES: u64 = 4;
/// Pin tolerance: the fixture predictions are stored as decimal text
/// with 17 significant digits, which is exact for f64, so the only
/// slack needed is for the text round trip itself.
const TOLERANCE: f64 = 1e-12;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

fn snapshot_path() -> PathBuf {
    fixture_dir().join("golden.snap")
}

fn predictions_path() -> PathBuf {
    fixture_dir().join("golden_predictions.txt")
}

/// The deterministic model behind the fixture. Must never change — if
/// it has to (e.g. a config field is added), regenerate the fixture
/// and note the format bump in the commit.
fn fixture_snapshot() -> Snapshot {
    let mut model = Retina::new(D_USER, RetinaConfig::static_default());
    let data: Vec<PackedSample> = (0..5).map(|i| sample(7, D_USER, 50, 3, 40 + i)).collect();
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
    let tfidf = TfIdfVectorizer::fit(&corpus, TfIdfConfig::default());
    Snapshot::capture(&model)
        .with_pipeline(PipelineState {
            tweet_tfidf: tfidf.clone(),
            news_tfidf: tfidf,
            lexicon: HateLexicon::new(&["slur", "go back"]),
        })
        .with_trainer(cfg)
}

fn probes() -> Vec<PackedSample> {
    (0..N_PROBES)
        .map(|i| sample(5, D_USER, 50, 3, 7100 + i))
        .collect()
}

fn render_predictions(model: &mut Retina) -> String {
    let mut out = String::new();
    for (i, probe) in probes().iter().enumerate() {
        out.push_str(&format!("{i}:"));
        for p in model.predict_proba(probe) {
            out.push_str(&format!(" {p:.17e}"));
        }
        out.push('\n');
    }
    out
}

fn predictions_f32_path() -> PathBuf {
    fixture_dir().join("golden_predictions_f32.txt")
}

/// The f32 tier's predictions (what a `Precision::F32` replica serves)
/// as exact `to_bits()` hex, so any change to f32 arithmetic shows up.
fn render_predictions_f32(snap: &Snapshot) -> String {
    let mut model = snap.restore().expect("fixture restores").to_f32_inference();
    let mut out = String::new();
    for (i, probe) in probes().iter().enumerate() {
        out.push_str(&format!("{i}:"));
        for p in model.predict_proba(probe) {
            out.push_str(&format!(" {:016x}", p.to_bits()));
        }
        out.push('\n');
    }
    out
}

fn parse_predictions(text: &str) -> Vec<Vec<f64>> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let (_, vals) = line.split_once(':').expect("missing `id:` prefix");
            vals.split_whitespace()
                .map(|v| v.parse::<f64>().expect("unparseable prediction"))
                .collect()
        })
        .collect()
}

#[test]
fn golden_snapshot_structure_is_pinned() {
    let bytes = std::fs::read(snapshot_path()).expect(
        "fixture missing — run `cargo test -p serving --test golden_fixture -- --ignored` \
         to regenerate",
    );
    assert_eq!(&bytes[..8], MAGIC, "magic drifted");
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    assert_eq!(version, FORMAT_VERSION, "format version drifted");
    let n = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let ids: Vec<u32> = (0..n)
        .map(|i| u32::from_le_bytes(bytes[16 + i * 28..20 + i * 28].try_into().unwrap()))
        .collect();
    assert_eq!(
        ids,
        vec![
            SECTION_CONFIG,
            SECTION_WEIGHTS,
            SECTION_SCALER,
            SECTION_PIPELINE,
            SECTION_TRAINER
        ],
        "section layout drifted"
    );
}

#[test]
fn golden_snapshot_predictions_are_pinned() {
    let snap = Snapshot::load(&snapshot_path()).expect("fixture decodes");
    assert_eq!(snap.d_user, D_USER);
    assert!(snap.pipeline.is_some(), "fixture lost its pipeline section");
    assert!(snap.trainer.is_some(), "fixture lost its trainer section");
    let mut model = snap.restore().expect("fixture restores");

    let expected =
        parse_predictions(&std::fs::read_to_string(predictions_path()).expect("predictions file"));
    assert_eq!(expected.len(), N_PROBES as usize);
    let actual = parse_predictions(&render_predictions(&mut model));
    for (i, (exp, act)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(exp.len(), act.len(), "probe {i}: prediction count drifted");
        for (j, (e, a)) in exp.iter().zip(act).enumerate() {
            assert!(
                (e - a).abs() <= TOLERANCE,
                "probe {i} candidate {j}: expected {e:.17e}, got {a:.17e}"
            );
        }
    }
}

/// The f32 tier is pinned bit for bit, not just within the f64
/// tolerance: its kernels are a refactoring target, and a changed
/// summation order must fail here.
#[test]
fn golden_snapshot_f32_predictions_are_pinned_bit_exactly() {
    let snap = Snapshot::load(&snapshot_path()).expect("fixture decodes");
    let expected = std::fs::read_to_string(predictions_f32_path()).expect("f32 predictions file");
    assert_eq!(
        render_predictions_f32(&snap),
        expected,
        "f32 tier bits drifted"
    );
}

fn predictions_variants_path() -> PathBuf {
    fixture_dir().join("golden_predictions_variants.txt")
}

/// The model variants the golden snapshot does not cover: RETINA-D with
/// each recurrent cell of the paper's ablation, and RETINA-S without
/// the exogenous attention branch (the † ablation).
fn variant_configs() -> Vec<(&'static str, RetinaConfig, TrainConfig)> {
    let dynamic = |recurrent| RetinaConfig {
        recurrent,
        ..RetinaConfig::dynamic_default()
    };
    let dynamic_train = TrainConfig {
        epochs: 2,
        ..TrainConfig::dynamic_default()
    };
    let static_train = TrainConfig {
        epochs: 2,
        ..TrainConfig::static_default()
    };
    vec![
        (
            "dynamic-gru",
            dynamic(RecurrentKind::Gru),
            dynamic_train.clone(),
        ),
        (
            "dynamic-lstm",
            dynamic(RecurrentKind::Lstm),
            dynamic_train.clone(),
        ),
        (
            "dynamic-rnn",
            dynamic(RecurrentKind::SimpleRnn),
            dynamic_train,
        ),
        (
            "static-no-exogenous",
            RetinaConfig {
                use_exogenous: false,
                ..RetinaConfig::static_default()
            },
            static_train,
        ),
    ]
}

/// Every variant trained in-test (so the pin covers backward and Adam
/// too), then scored at f64 and, narrowed, at f32, as exact `to_bits()`
/// hex. Training and probes both include a sample with no news items.
fn render_predictions_variants() -> String {
    let mut data: Vec<PackedSample> = (0..5).map(|i| sample(7, D_USER, 50, 3, 40 + i)).collect();
    data.push(sample(7, D_USER, 50, 0, 45));
    let mut probes = probes();
    probes.push(sample(5, D_USER, 50, 0, 7100 + N_PROBES));
    let mut out = String::new();
    for (name, config, train) in variant_configs() {
        let mut model = Retina::new(D_USER, config);
        train_retina(&mut model, &data, &train);
        let mut narrow = model.to_f32_inference();
        for (i, probe) in probes.iter().enumerate() {
            for (width, p) in [
                ("f64", model.predict_proba(probe)),
                ("f32", narrow.predict_proba(probe)),
            ] {
                out.push_str(&format!("{name} {width} {i}:"));
                for v in p {
                    out.push_str(&format!(" {:016x}", v.to_bits()));
                }
                out.push('\n');
            }
        }
    }
    out
}

/// RETINA-D (GRU, LSTM, simple RNN) and the † ablation are pinned bit
/// for bit at both widths.
#[test]
fn variant_predictions_are_pinned_bit_exactly() {
    let expected =
        std::fs::read_to_string(predictions_variants_path()).expect("variant predictions file");
    assert_eq!(
        render_predictions_variants(),
        expected,
        "variant prediction bits drifted"
    );
}

/// Re-encoding the committed fixture must reproduce its exact bytes:
/// the encoder and the committed file agree on the wire format.
#[test]
fn golden_snapshot_reencodes_to_identical_bytes() {
    let bytes = std::fs::read(snapshot_path()).expect("fixture present");
    let snap = Snapshot::decode(&bytes).expect("fixture decodes");
    assert_eq!(snap.encode(), bytes, "encoder output drifted from fixture");
}

#[test]
#[ignore = "regenerates the committed fixture files"]
fn regenerate() {
    std::fs::create_dir_all(fixture_dir()).expect("mkdir fixtures");
    let snap = fixture_snapshot();
    snap.save(&snapshot_path()).expect("write snapshot fixture");
    let mut model = snap.restore().expect("restore");
    std::fs::write(predictions_path(), render_predictions(&mut model))
        .expect("write predictions fixture");
    std::fs::write(predictions_f32_path(), render_predictions_f32(&snap))
        .expect("write f32 predictions fixture");
    std::fs::write(predictions_variants_path(), render_predictions_variants())
        .expect("write variant predictions fixture");
}
