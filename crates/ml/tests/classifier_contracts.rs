//! Contract tests shared by every classifier in the crate: probability
//! bounds, determinism, degenerate-input behaviour and basic learning on
//! a common benchmark set.

use ml::{
    AdaBoost, AdaBoostConfig, Classifier, DecisionTree, DecisionTreeConfig, Gbdt, GbdtConfig,
    LinearSvm, LinearSvmConfig, LogisticRegression, LogisticRegressionConfig, RandomForest,
    RandomForestConfig, RbfSvm, RbfSvmConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn all_models() -> Vec<(&'static str, Box<dyn Classifier>)> {
    vec![
        (
            "logreg",
            Box::new(LogisticRegression::new(LogisticRegressionConfig::default())),
        ),
        (
            "linsvm",
            Box::new(LinearSvm::new(LinearSvmConfig::default())),
        ),
        (
            "rbfsvm",
            Box::new(RbfSvm::new(RbfSvmConfig {
                n_features: 128,
                ..Default::default()
            })),
        ),
        (
            "tree",
            Box::new(DecisionTree::new(DecisionTreeConfig::default())),
        ),
        (
            "forest",
            Box::new(RandomForest::new(RandomForestConfig {
                n_estimators: 10,
                ..Default::default()
            })),
        ),
        (
            "adaboost",
            Box::new(AdaBoost::new(AdaBoostConfig::default())),
        ),
        (
            "gbdt",
            Box::new(Gbdt::new(GbdtConfig {
                n_rounds: 15,
                ..Default::default()
            })),
        ),
    ]
}

fn blobs(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Vec::new();
    let mut y = Vec::new();
    for _ in 0..n {
        let label: u8 = rng.gen_range(0..2);
        let c = if label == 1 { 1.5 } else { -1.5 };
        x.push(vec![c + rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]);
        y.push(label);
    }
    (x, y)
}

#[test]
fn every_model_learns_separable_blobs() {
    let (x, y) = blobs(300, 0);
    for (name, mut m) in all_models() {
        m.fit(&x, &y);
        let acc = ml::metrics::accuracy(&y, &m.predict_batch(&x));
        assert!(acc > 0.85, "{name}: train accuracy {acc}");
    }
}

#[test]
fn probabilities_always_in_unit_interval() {
    let (x, y) = blobs(150, 1);
    // Extreme query points probe saturation behaviour.
    let probes = vec![
        vec![1e6, -1e6],
        vec![-1e6, 1e6],
        vec![0.0, 0.0],
        vec![f64::MIN_POSITIVE, 0.0],
    ];
    for (name, mut m) in all_models() {
        m.fit(&x, &y);
        for p in &probes {
            let prob = m.predict_proba(p);
            assert!(
                (0.0..=1.0).contains(&prob) && prob.is_finite(),
                "{name}: probability {prob} for probe {p:?}"
            );
        }
    }
}

#[test]
fn refitting_is_deterministic() {
    let (x, y) = blobs(120, 2);
    for (name, mut m) in all_models() {
        m.fit(&x, &y);
        let a = m.predict_proba_batch(&x[..10]);
        m.fit(&x, &y);
        let b = m.predict_proba_batch(&x[..10]);
        assert_eq!(a, b, "{name}: refit changed predictions");
    }
}

#[test]
fn constant_features_do_not_crash() {
    let x: Vec<Vec<f64>> = (0..40).map(|_| vec![3.0, 3.0]).collect();
    let y: Vec<u8> = (0..40).map(|i| (i % 2) as u8).collect();
    for (name, mut m) in all_models() {
        m.fit(&x, &y);
        let p = m.predict_proba(&[3.0, 3.0]);
        assert!(p.is_finite(), "{name}: NaN on constant features");
    }
}

#[test]
fn single_class_training_predicts_that_class() {
    let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
    let y = vec![0u8; 30];
    // Tree-based and margin models must not blow up on single-class data.
    let mut tree = DecisionTree::new(DecisionTreeConfig {
        balanced: false,
        ..Default::default()
    });
    tree.fit(&x, &y);
    assert_eq!(tree.predict(&[5.0]), 0);
    let mut gbdt = Gbdt::new(GbdtConfig {
        n_rounds: 3,
        ..Default::default()
    });
    gbdt.fit(&x, &y);
    assert!(gbdt.predict_proba(&[5.0]) < 0.5);
}

#[test]
fn heavy_imbalance_is_survivable() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..300 {
        let label = u8::from(i < 6); // 2% positive
        let c = if label == 1 { 2.0 } else { -0.2 };
        x.push(vec![c + rng.gen_range(-0.5..0.5)]);
        y.push(label);
    }
    for (name, mut m) in all_models() {
        m.fit(&x, &y);
        let scores = m.predict_proba_batch(&x);
        let auc = ml::metrics::roc_auc(&y, &scores);
        assert!(auc > 0.7, "{name}: AUC {auc} on imbalanced separable data");
    }
}

#[test]
fn non_finite_features_are_rejected_at_fit() {
    let (x, y) = blobs(40, 4);
    for bad in [f64::NAN, f64::INFINITY] {
        let mut x = x.clone();
        x[7][1] = bad;
        for (name, mut m) in all_models() {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.fit(&x, &y)))
                .expect_err(&format!("{name}: fit accepted a {bad} feature"));
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(
                message.contains("feature values must be finite"),
                "{name}: fit on a {bad} feature panicked with {message:?}"
            );
        }
    }
}
