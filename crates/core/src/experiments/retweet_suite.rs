//! Shared harness for all retweet-prediction experiments (Table VI,
//! Figures 5, 6, 8, 9): builds the task once, trains every model once,
//! and stores per-sample candidate scores so each table/figure reads from
//! the same run.

use super::ExperimentContext;
use crate::features::RetweetFeatures;
use crate::retina::{pack_samples_parallel, PackedSample, Retina, RetinaConfig, RetinaMode};
use crate::trainer::{train_retina, TrainConfig};
use diffusion::{
    split_samples, CascadeSample, ForestModel, ForestModelConfig, Hidan, HidanConfig, RetweetTask,
    SirModel, ThresholdModel, TopoLstm, TopoLstmConfig,
};
use ml::metrics::{hits_at_k, map_at_k, rank_by_score};
use ml::{
    ClassificationReport, Classifier, DecisionTree, DecisionTreeConfig, LinearSvm, LinearSvmConfig,
    LogisticRegression, LogisticRegressionConfig, RandomForest, RandomForestConfig,
};
use nn::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Suite configuration.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Candidate cap per tweet.
    pub max_candidates: usize,
    /// Minimum preceding news (paper: 60).
    pub min_news: usize,
    /// News items attended by RETINA (paper: best at 60).
    pub news_k: usize,
    /// RETINA training epochs.
    pub retina_epochs: usize,
    /// Neural-baseline training epochs.
    pub baseline_epochs: usize,
    /// Negatives kept per tweet when training the classical baselines.
    pub baseline_negs_per_tweet: usize,
    /// Also include retweeters outside the root's follower set
    /// ("beyond organic diffusion", Section III).
    pub include_non_followers: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self {
            max_candidates: 100,
            min_news: 60,
            news_k: 60,
            retina_epochs: 6,
            baseline_epochs: 3,
            baseline_negs_per_tweet: 10,
            include_non_followers: false,
            seed: 0,
        }
    }
}

impl SuiteConfig {
    /// Small configuration for smoke tests.
    pub fn smoke() -> Self {
        Self {
            max_candidates: 30,
            min_news: 20,
            news_k: 15,
            retina_epochs: 2,
            baseline_epochs: 1,
            ..Default::default()
        }
    }
}

/// Which model families to run (figures need only a subset).
#[derive(Debug, Clone, Copy)]
pub struct SuiteModels {
    pub retina: bool,
    pub retina_ablation: bool,
    pub feature_baselines: bool,
    pub neural_baselines: bool,
    pub rudimentary: bool,
}

impl SuiteModels {
    /// Everything (Table VI).
    pub fn all() -> Self {
        Self {
            retina: true,
            retina_ablation: true,
            feature_baselines: true,
            neural_baselines: true,
            rudimentary: true,
        }
    }

    /// RETINA-S/D + TopoLSTM only (Figures 5 and 6).
    pub fn figures() -> Self {
        Self {
            retina: true,
            retina_ablation: false,
            feature_baselines: false,
            neural_baselines: true,
            rudimentary: false,
        }
    }
}

/// Per-model predictions plus the Table VI metrics.
#[derive(Debug, Clone)]
pub struct ModelResult {
    pub name: String,
    /// Per test sample, per candidate positive-class scores.
    pub scores: Vec<Vec<f64>>,
    /// Flattened binary metrics (None for rank-only models).
    pub report: Option<ClassificationReport>,
    pub map20: Option<f64>,
    pub hits20: Option<f64>,
}

impl std::fmt::Display for ModelResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fmt_opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.3}"),
            None => "  -  ".to_string(),
        };
        let (f1, acc, auc) = match &self.report {
            Some(r) => (
                format!("{:.3}", r.macro_f1),
                format!("{:.3}", r.accuracy),
                format!("{:.3}", r.auc),
            ),
            None => ("  -  ".into(), "  -  ".into(), "  -  ".into()),
        };
        write!(
            f,
            "{:22} | macro-F1 {} | ACC {} | AUC {} | MAP@20 {} | HITS@20 {}",
            self.name,
            f1,
            acc,
            auc,
            fmt_opt(self.map20),
            fmt_opt(self.hits20)
        )
    }
}

/// The full suite output.
pub struct RetweetSuite {
    pub train: Vec<CascadeSample>,
    pub test: Vec<CascadeSample>,
    pub packed_test: Vec<PackedSample>,
    /// RETINA-D per-interval probabilities on the test set
    /// (`candidates × T` per sample), when RETINA ran.
    pub dyn_probs: Vec<Matrix>,
    /// Interval boundaries used by RETINA-D.
    pub intervals: Vec<f64>,
    pub results: Vec<ModelResult>,
}

impl RetweetSuite {
    /// Look up a model's result by name.
    pub fn result(&self, name: &str) -> Option<&ModelResult> {
        self.results.iter().find(|r| r.name == name)
    }
}

/// Ranking metrics helper.
fn rank_metrics(scores: &[Vec<f64>], test: &[CascadeSample], k: usize) -> (f64, f64) {
    let lists: Vec<Vec<bool>> = scores
        .iter()
        .zip(test)
        .map(|(s, t)| rank_by_score(s, &t.labels))
        .collect();
    (map_at_k(&lists, k), hits_at_k(&lists, k))
}

/// Flattened binary report helper.
fn flat_report(scores: &[Vec<f64>], test: &[CascadeSample]) -> ClassificationReport {
    let mut ys = Vec::new();
    let mut ss = Vec::new();
    for (s, t) in scores.iter().zip(test) {
        ss.extend_from_slice(s);
        ys.extend_from_slice(&t.labels);
    }
    ClassificationReport::from_scores(&ys, &ss)
}

/// Run the suite.
pub fn run(ctx: &ExperimentContext, cfg: &SuiteConfig, which: SuiteModels) -> RetweetSuite {
    let task = RetweetTask {
        min_retweets: 1,
        min_news: cfg.min_news,
        max_candidates: cfg.max_candidates,
        include_non_followers: cfg.include_non_followers,
        seed: cfg.seed,
    };
    let samples = task.build(&ctx.data);
    let (train, test) = split_samples(samples, 0.8, cfg.seed ^ 0x5EED);

    let feats = RetweetFeatures::new(&ctx.data, &ctx.models, &ctx.silver);
    let intervals = crate::retina::default_intervals();
    // 0 = auto; honors the RETINA_THREADS env override.
    let threads = nn::par::resolve(0);
    let packed_train: Vec<PackedSample> =
        pack_samples_parallel(&feats, &train, &intervals, cfg.news_k, threads);
    let packed_test: Vec<PackedSample> =
        pack_samples_parallel(&feats, &test, &intervals, cfg.news_k, threads);

    let mut results = Vec::new();
    let mut dyn_probs = Vec::new();

    if which.retina {
        // RETINA-S.
        let mut variants: Vec<(&str, bool, RetinaMode)> = vec![
            ("RETINA-S", true, RetinaMode::Static),
            ("RETINA-D", true, RetinaMode::Dynamic),
        ];
        if which.retina_ablation {
            variants.push(("RETINA-S (no exo)", false, RetinaMode::Static));
            variants.push(("RETINA-D (no exo)", false, RetinaMode::Dynamic));
        }
        for (name, exo, mode) in variants {
            let d_user = packed_train
                .first()
                .map(|p| p.user_rows[0].len())
                .unwrap_or(1);
            let rcfg = RetinaConfig {
                mode,
                use_exogenous: exo,
                seed: cfg.seed,
                news_k: cfg.news_k,
                ..RetinaConfig::static_default()
            };
            let mut model = Retina::new(d_user, rcfg);
            let tcfg = match mode {
                RetinaMode::Static => TrainConfig {
                    epochs: cfg.retina_epochs,
                    seed: cfg.seed,
                    ..TrainConfig::static_default()
                },
                RetinaMode::Dynamic => TrainConfig {
                    epochs: cfg.retina_epochs,
                    seed: cfg.seed,
                    ..TrainConfig::dynamic_default()
                },
            };
            train_retina(&mut model, &packed_train, &tcfg);
            let scores: Vec<Vec<f64>> =
                packed_test.iter().map(|p| model.predict_proba(p)).collect();
            // Binary metrics: static thresholds candidate probabilities;
            // dynamic is evaluated per (candidate, interval) as trained.
            let report = match mode {
                RetinaMode::Static => Some(flat_report(&scores, &test)),
                RetinaMode::Dynamic => {
                    let mut ys = Vec::new();
                    let mut ss = Vec::new();
                    for p in &packed_test {
                        let probs = model.predict_proba_dynamic(p);
                        if name == "RETINA-D" {
                            dyn_probs.push(probs.clone());
                        }
                        for (r, row) in p.interval_labels.iter().enumerate() {
                            for (t, &l) in row.iter().enumerate() {
                                ys.push(l);
                                ss.push(probs.get(r, t));
                            }
                        }
                    }
                    Some(ClassificationReport::from_scores(&ys, &ss))
                }
            };
            let (map20, hits20) = rank_metrics(&scores, &test, 20);
            results.push(ModelResult {
                name: name.to_string(),
                scores,
                report,
                map20: Some(map20),
                hits20: Some(hits20),
            });
        }
    }

    if which.feature_baselines {
        run_feature_baselines(
            ctx,
            cfg,
            &feats,
            &train,
            &test,
            &packed_train,
            &packed_test,
            &mut results,
        );
    }

    if which.neural_baselines {
        let n_users = ctx.data.users().len();
        // TopoLSTM.
        let mut topo = TopoLstm::new(
            n_users,
            TopoLstmConfig {
                epochs: cfg.baseline_epochs,
                seed: cfg.seed,
                ..Default::default()
            },
        );
        topo.train(&train);
        let scores: Vec<Vec<f64>> = test.iter().map(|s| topo.predict_proba(s)).collect();
        let (map20, hits20) = rank_metrics(&scores, &test, 20);
        results.push(ModelResult {
            name: "TopoLSTM".into(),
            scores,
            report: None,
            map20: Some(map20),
            hits20: Some(hits20),
        });
        // FOREST.
        let mut forest = ForestModel::new(
            n_users,
            ForestModelConfig {
                epochs: cfg.baseline_epochs,
                seed: cfg.seed,
                ..Default::default()
            },
        );
        forest.train(ctx.data.graph(), &train);
        let scores: Vec<Vec<f64>> = test
            .iter()
            .map(|s| forest.predict_proba(ctx.data.graph(), s))
            .collect();
        let (map20, hits20) = rank_metrics(&scores, &test, 20);
        results.push(ModelResult {
            name: "FOREST".into(),
            scores,
            report: None,
            map20: Some(map20),
            hits20: Some(hits20),
        });
        // HIDAN.
        let mut hidan = Hidan::new(
            n_users,
            HidanConfig {
                epochs: cfg.baseline_epochs,
                seed: cfg.seed,
                ..Default::default()
            },
        );
        hidan.train(&train);
        let scores: Vec<Vec<f64>> = test.iter().map(|s| hidan.predict_proba(s)).collect();
        let (map20, hits20) = rank_metrics(&scores, &test, 20);
        results.push(ModelResult {
            name: "HIDAN".into(),
            scores,
            report: None,
            map20: Some(map20),
            hits20: Some(hits20),
        });
    }

    if which.rudimentary {
        let sir = SirModel::fit(ctx.data.graph(), &train, cfg.seed);
        let scores: Vec<Vec<f64>> = test
            .iter()
            .map(|s| sir.predict_proba(ctx.data.graph(), s))
            .collect();
        results.push(ModelResult {
            name: "SIR".into(),
            report: Some(flat_report(&scores, &test)),
            scores,
            map20: None,
            hits20: None,
        });
        let thresh = ThresholdModel::new(1.5, cfg.seed);
        let scores: Vec<Vec<f64>> = test
            .iter()
            .map(|s| thresh.predict_proba(ctx.data.graph(), s))
            .collect();
        results.push(ModelResult {
            name: "Gen.Thresh.".into(),
            report: Some(flat_report(&scores, &test)),
            scores,
            map20: None,
            hits20: None,
        });
    }

    RetweetSuite {
        train,
        test,
        packed_test,
        dyn_probs,
        intervals,
        results,
    }
}

/// The feature-engineered baselines of Section VII-B: Logistic
/// Regression, Decision Tree, Random Forest (each ± exogenous news
/// features) and Linear SVC (without exogenous only — the paper reports
/// it could not fit the news features in memory).
#[allow(clippy::too_many_arguments)]
fn run_feature_baselines(
    _ctx: &ExperimentContext,
    cfg: &SuiteConfig,
    feats: &RetweetFeatures<'_>,
    train: &[CascadeSample],
    test: &[CascadeSample],
    packed_train: &[PackedSample],
    packed_test: &[PackedSample],
    results: &mut Vec<ModelResult>,
) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xFEA7);
    // Training rows: every positive plus a few negatives per tweet
    // (keeps the classical models tractable; predictions run on the full
    // candidate sets).
    let mut rows_noexo: Vec<Vec<f64>> = Vec::new();
    let mut exo_parts: Vec<Vec<f64>> = Vec::new();
    let mut labels: Vec<u8> = Vec::new();
    for (s, p) in train.iter().zip(packed_train) {
        let exo = feats.exo_row(s.tweet);
        let mut neg_idx: Vec<usize> = (0..s.labels.len()).filter(|&i| s.labels[i] == 0).collect();
        neg_idx.shuffle(&mut rng);
        neg_idx.truncate(cfg.baseline_negs_per_tweet);
        let keep: Vec<usize> = (0..s.labels.len())
            .filter(|&i| s.labels[i] == 1 || neg_idx.contains(&i))
            .collect();
        for i in keep {
            rows_noexo.push(p.user_rows[i].to_dense());
            exo_parts.push(exo.clone());
            labels.push(s.labels[i]);
        }
    }
    let rows_exo: Vec<Vec<f64>> = rows_noexo
        .iter()
        .zip(&exo_parts)
        .map(|(r, e)| {
            let mut v = r.clone();
            v.extend_from_slice(e);
            v
        })
        .collect();

    // Evaluation rows come from the packs (no recomputation).
    let eval = |model: &dyn Classifier, with_exo: bool| -> (Vec<Vec<f64>>, ClassificationReport) {
        let mut scores = Vec::with_capacity(test.len());
        for (s, p) in test.iter().zip(packed_test) {
            let exo = with_exo.then(|| feats.exo_row(s.tweet));
            let per: Vec<f64> = p
                .user_rows
                .iter()
                .map(|r| {
                    let mut row = r.to_dense();
                    if let Some(e) = &exo {
                        row.extend_from_slice(e);
                    }
                    model.predict_proba(&row)
                })
                .collect();
            scores.push(per);
        }
        let report = flat_report(&scores, test);
        (scores, report)
    };

    type ModelCtor = Box<dyn Fn() -> Box<dyn Classifier>>;
    let ctors: Vec<(&str, bool, ModelCtor)> = vec![
        (
            "Logistic Regression",
            true,
            Box::new(|| {
                Box::new(LogisticRegression::new(LogisticRegressionConfig {
                    epochs: 12,
                    balanced: true,
                    ..Default::default()
                }))
            }),
        ),
        (
            "Logistic Regression (no exo)",
            false,
            Box::new(|| {
                Box::new(LogisticRegression::new(LogisticRegressionConfig {
                    epochs: 12,
                    balanced: true,
                    ..Default::default()
                }))
            }),
        ),
        (
            "Decision Tree",
            true,
            Box::new(|| Box::new(DecisionTree::new(DecisionTreeConfig::default()))),
        ),
        (
            "Decision Tree (no exo)",
            false,
            Box::new(|| Box::new(DecisionTree::new(DecisionTreeConfig::default()))),
        ),
        (
            "Random Forest",
            true,
            Box::new(|| {
                Box::new(RandomForest::new(RandomForestConfig {
                    n_estimators: 20,
                    subsample: 0.5,
                    ..Default::default()
                }))
            }),
        ),
        (
            "Random Forest (no exo)",
            false,
            Box::new(|| {
                Box::new(RandomForest::new(RandomForestConfig {
                    n_estimators: 20,
                    subsample: 0.5,
                    ..Default::default()
                }))
            }),
        ),
        (
            "Linear SVC (no exo)",
            false,
            Box::new(|| {
                Box::new(LinearSvm::new(LinearSvmConfig {
                    epochs: 15,
                    balanced: false,
                    ..Default::default()
                }))
            }),
        ),
    ];

    for (name, with_exo, ctor) in ctors {
        let mut model = ctor();
        let rows = if with_exo { &rows_exo } else { &rows_noexo };
        model.fit(rows, &labels);
        let (scores, report) = eval(model.as_ref(), with_exo);
        results.push(ModelResult {
            name: name.to_string(),
            scores,
            report: Some(report),
            map20: None,
            hits20: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_runs_all_models() {
        let ctx = ExperimentContext::build(ExperimentContext::smoke_config(), 2);
        let suite = run(&ctx, &SuiteConfig::smoke(), SuiteModels::all());
        assert!(suite.result("RETINA-S").is_some());
        assert!(suite.result("RETINA-D").is_some());
        assert!(suite.result("RETINA-S (no exo)").is_some());
        assert!(suite.result("TopoLSTM").is_some());
        assert!(suite.result("FOREST").is_some());
        assert!(suite.result("HIDAN").is_some());
        assert!(suite.result("SIR").is_some());
        assert!(suite.result("Gen.Thresh.").is_some());
        assert!(suite.result("Logistic Regression").is_some());
        assert!(suite.result("Linear SVC (no exo)").is_some());
        // RETINA-D per-interval probabilities kept for Fig. 8.
        assert_eq!(suite.dyn_probs.len(), suite.test.len());
        // Scores cover every candidate.
        for r in &suite.results {
            assert_eq!(r.scores.len(), suite.test.len());
            for (s, t) in r.scores.iter().zip(&suite.test) {
                assert_eq!(s.len(), t.candidates.len());
            }
        }
    }
}
