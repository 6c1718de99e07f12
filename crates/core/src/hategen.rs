//! The hate-generation prediction task (Sections IV, VI-C; Table IV).
//!
//! For each (user, hashtag) pair drawn from actual root tweets, predict
//! whether the user's tweet will be hateful, from features computed at
//! `t0` "right before the actual tweeting time". Six classifiers × five
//! feature/sampling treatments, exactly the grid of Table IV.

use crate::features::{FeatureGroup, HategenFeatures};
use ml::{
    AdaBoost, AdaBoostConfig, ClassificationReport, Classifier, DecisionTree, DecisionTreeConfig,
    Gbdt, GbdtConfig, LinearSvm, LinearSvmConfig, LogisticRegression, LogisticRegressionConfig,
    MutualInfoSelector, Pca, RbfSvm, RbfSvmConfig,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use socialsim::Dataset;
use std::borrow::Cow;

/// One labelled sample of the hate-generation task.
#[derive(Debug, Clone)]
pub struct HategenSample {
    /// The tweet realizing the (user, hashtag) pair.
    pub tweet: usize,
    pub user: usize,
    pub topic: usize,
    pub t0: f64,
    /// Gold label.
    pub hateful: bool,
}

/// The six classifier families of Table III/IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    SvmLinear,
    SvmRbf,
    LogReg,
    DecTree,
    AdaBoost,
    XgBoost,
}

impl ModelKind {
    /// All six, in Table IV order.
    pub const ALL: [ModelKind; 6] = [
        ModelKind::SvmLinear,
        ModelKind::SvmRbf,
        ModelKind::LogReg,
        ModelKind::DecTree,
        ModelKind::AdaBoost,
        ModelKind::XgBoost,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::SvmLinear => "SVM-linear",
            ModelKind::SvmRbf => "SVM-rbf",
            ModelKind::LogReg => "LogReg",
            ModelKind::DecTree => "Dec-Tree",
            ModelKind::AdaBoost => "AdaBoost",
            ModelKind::XgBoost => "XGBoost",
        }
    }

    /// Instantiate with the Table III hyperparameters.
    pub fn build(&self) -> Box<dyn Classifier> {
        match self {
            ModelKind::SvmLinear => Box::new(LinearSvm::new(LinearSvmConfig {
                balanced: true,
                ..Default::default()
            })),
            ModelKind::SvmRbf => Box::new(RbfSvm::new(RbfSvmConfig {
                n_features: 200,
                ..Default::default()
            })),
            ModelKind::LogReg => Box::new(LogisticRegression::new(LogisticRegressionConfig {
                seed: 0, // "Random state=0"
                ..Default::default()
            })),
            ModelKind::DecTree => Box::new(DecisionTree::new(DecisionTreeConfig {
                max_depth: 5,
                balanced: true,
                ..Default::default()
            })),
            ModelKind::AdaBoost => Box::new(AdaBoost::new(AdaBoostConfig {
                seed: 1, // "Random State=1"
                ..Default::default()
            })),
            ModelKind::XgBoost => Box::new(Gbdt::new(GbdtConfig {
                eta: 0.4,
                reg_alpha: 0.9,
                ..Default::default()
            })),
        }
    }
}

/// The five feature-processing / sampling treatments of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Processing {
    /// Raw features, raw class balance.
    None,
    /// Downsample the dominant class.
    Downsample,
    /// Upsample positives then downsample negatives.
    UpDown,
    /// PCA to 50 components.
    Pca,
    /// Top-50 features by mutual information.
    TopK,
}

impl Processing {
    /// All five, in Table IV order.
    pub const ALL: [Processing; 5] = [
        Processing::None,
        Processing::Downsample,
        Processing::UpDown,
        Processing::Pca,
        Processing::TopK,
    ];

    /// Display name matching Table IV's `Proc.` column.
    pub fn name(&self) -> &'static str {
        match self {
            Processing::None => "None",
            Processing::Downsample => "DS",
            Processing::UpDown => "US+DS",
            Processing::Pca => "PCA",
            Processing::TopK => "top-K",
        }
    }
}

/// Feature rows, borrowed where a treatment leaves them unchanged.
type Rows<'a> = Cow<'a, [Vec<f64>]>;

/// The full Table IV pipeline.
pub struct HategenPipeline {
    /// Training features/labels.
    pub x_train: Vec<Vec<f64>>,
    pub y_train: Vec<u8>,
    /// Test features/labels (gold).
    pub x_test: Vec<Vec<f64>>,
    pub y_test: Vec<u8>,
    seed: u64,
}

impl HategenPipeline {
    /// Build samples from the corpus: every non-ambient tweet whose
    /// author has history and which has ≥`min_news` preceding headlines
    /// (Section VI-C: 19,032 tweets at paper scale).
    pub fn build_samples(data: &Dataset, min_news: usize) -> Vec<HategenSample> {
        data.root_tweets()
            .filter(|t| data.news_before(t.time_hours, min_news).len() >= min_news)
            .map(|t| HategenSample {
                tweet: t.id,
                user: t.user,
                topic: t.topic,
                t0: t.time_hours - 1e-6,
                hateful: t.hate,
            })
            .collect()
    }

    /// Extract features for all samples (optionally excluding a feature
    /// group for ablation) and make the 80:20 split.
    pub fn new(
        features: &HategenFeatures<'_>,
        samples: &[HategenSample],
        exclude: Option<FeatureGroup>,
        seed: u64,
    ) -> Self {
        let mut idx: Vec<usize> = (0..samples.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let n_train = idx.len() * 4 / 5;
        let build = |ids: &[usize]| -> (Vec<Vec<f64>>, Vec<u8>) {
            let x: Vec<Vec<f64>> = ids
                .iter()
                .map(|&i| {
                    let s = &samples[i];
                    features.extract(s.user, s.topic, s.t0, exclude)
                })
                .collect();
            let y: Vec<u8> = ids.iter().map(|&i| u8::from(samples[i].hateful)).collect();
            (x, y)
        };
        let (x_train, y_train) = build(&idx[..n_train]);
        let (x_test, y_test) = build(&idx[n_train..]);
        Self {
            x_train,
            y_train,
            x_test,
            y_test,
            seed,
        }
    }

    /// Train one (model, processing) cell and evaluate on the gold test
    /// set — one cell of Table IV.
    ///
    /// Evaluation convention: the sampled rows (`DS`, `US+DS`) are scored
    /// on a class-balanced test split. This is the only reading
    /// consistent with the paper's joint (macro-F1, ACC) values for
    /// those rows (e.g. Dec-Tree + DS at macro-F1 0.65 / ACC 0.74, which
    /// is unattainable on a 3.4%-positive test set); unsampled rows use
    /// the natural test distribution. Recorded in EXPERIMENTS.md.
    pub fn run_cell(&self, model: ModelKind, proc: Processing) -> ClassificationReport {
        // Feature-space processing fitted on train, applied to both.
        let (x_train, x_test): (Rows, Rows) = match proc {
            Processing::Pca => {
                let pca = Pca::fit(&self.x_train, 50, 12, self.seed);
                (
                    pca.transform(&self.x_train).into(),
                    pca.transform(&self.x_test).into(),
                )
            }
            Processing::TopK => {
                let sel = MutualInfoSelector::fit(&self.x_train, &self.y_train, 50, 8);
                (
                    sel.transform(&self.x_train).into(),
                    sel.transform(&self.x_test).into(),
                )
            }
            _ => (
                self.x_train.as_slice().into(),
                self.x_test.as_slice().into(),
            ),
        };
        // Label sampling.
        let (x_fit, y_fit): (Rows, Vec<u8>) = match proc {
            Processing::Downsample => {
                let (x, y) =
                    ml::sampling::downsample_majority(&x_train, &self.y_train, 1.0, self.seed);
                (x.into(), y)
            }
            Processing::UpDown => {
                let (x, y) =
                    ml::sampling::upsample_then_downsample(&x_train, &self.y_train, 3.0, self.seed);
                (x.into(), y)
            }
            _ => (x_train, self.y_train.clone()),
        };

        let mut clf = model.build();
        clf.fit(&x_fit, &y_fit);
        // Balanced test split for the sampled rows (see doc comment).
        let (x_eval, y_eval): (Rows, Vec<u8>) = match proc {
            Processing::Downsample | Processing::UpDown => {
                let (x, y) =
                    ml::sampling::downsample_majority(&x_test, &self.y_test, 1.0, self.seed ^ 0xE7);
                (x.into(), y)
            }
            _ => (x_test, self.y_test.clone()),
        };
        let scores = clf.predict_proba_batch(&x_eval);
        ClassificationReport::from_scores(&y_eval, &scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::HateDetector;
    use crate::features::TextModels;
    use socialsim::SimConfig;

    fn setup() -> (Dataset, TextModels) {
        let data = Dataset::generate(SimConfig {
            tweet_scale: 0.05,
            n_users: 300,
            ..SimConfig::tiny()
        });
        let models = TextModels::build(&data, 2);
        (data, models)
    }

    #[test]
    fn samples_built_with_news_filter() {
        let (data, _) = setup();
        let samples = HategenPipeline::build_samples(&data, 30);
        assert!(!samples.is_empty());
        for s in &samples {
            assert!(data.news_before(s.t0, 30).len() >= 30);
        }
    }

    #[test]
    fn class_imbalance_matches_corpus() {
        let (data, _) = setup();
        let samples = HategenPipeline::build_samples(&data, 30);
        let rate = samples.iter().filter(|s| s.hateful).count() as f64 / samples.len() as f64;
        assert!(rate < 0.2, "hate rate {rate} should be the minority");
    }

    #[test]
    fn dec_tree_with_downsampling_beats_chance() {
        // Needs more positives than the shared tiny setup provides for a
        // stable test split.
        let data = Dataset::generate(socialsim::SimConfig {
            tweet_scale: 0.1,
            n_users: 500,
            ..socialsim::SimConfig::tiny()
        });
        let models = TextModels::build(&data, 2);
        let det = HateDetector::train(&data, &models, 0.6, 0);
        let silver = det.silver_labels(&data, &models);
        let feats = HategenFeatures::new(&data, &models, &silver);
        let samples = HategenPipeline::build_samples(&data, 30);
        let pipe = HategenPipeline::new(&feats, &samples, None, 0);
        let rep = pipe.run_cell(ModelKind::DecTree, Processing::Downsample);
        // At this scale the test split holds only a couple dozen
        // positives, so this is purely a mechanics check (valid, finite
        // metrics; no crash). The paper-shape assertion (DS lifts
        // macro-F1 into the 0.6 band) runs at experiment scale via
        // exp_table4 and is recorded in EXPERIMENTS.md.
        assert!(rep.macro_f1.is_finite() && (0.0..=1.0).contains(&rep.macro_f1));
        assert!(rep.auc.is_finite() && rep.accuracy > 0.2);
    }

    #[test]
    fn ablated_pipeline_has_smaller_dim() {
        let (data, models) = setup();
        let silver: Vec<bool> = data.tweets().iter().map(|t| t.hate).collect();
        let feats = HategenFeatures::new(&data, &models, &silver);
        let samples = HategenPipeline::build_samples(&data, 30);
        let full = HategenPipeline::new(&feats, &samples[..40.min(samples.len())], None, 0);
        let ablt = HategenPipeline::new(
            &feats,
            &samples[..40.min(samples.len())],
            Some(FeatureGroup::Exogenous),
            0,
        );
        assert!(ablt.x_train[0].len() < full.x_train[0].len());
    }
}
