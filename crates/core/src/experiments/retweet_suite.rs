//! Shared harness for every retweet-prediction experiment. Table VI and
//! Figures 5, 6, 8 and 9 read one suite run, which trains every model
//! once and keeps per-sample candidate scores. Every RETINA number,
//! there and in the Fig. 7 and ablation sweeps, comes from
//! [`RetinaTask::train_and_score`].

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

/// Configuration of every retweet-prediction experiment.
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

    /// The Fig. 7 and RETINA-ablation sweeps, which retrain RETINA at
    /// every point: fewer candidates, news items and epochs than Table VI.
    pub fn sweep() -> Self {
        Self {
            max_candidates: 40,
            news_k: 30,
            retina_epochs: 3,
            ..Default::default()
        }
    }

    /// A small sweep configuration for smoke tests.
    pub fn sweep_smoke() -> Self {
        Self {
            max_candidates: 20,
            min_news: 15,
            news_k: 10,
            retina_epochs: 1,
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

/// The retweet task of a [`SuiteConfig`], split 80/20 into train and
/// test samples and packed for RETINA.
pub struct RetinaTask {
    pub train: Vec<CascadeSample>,
    pub test: Vec<CascadeSample>,
    pub packed_train: Vec<PackedSample>,
    pub packed_test: Vec<PackedSample>,
}

/// One RETINA variant's predictions on a task's test samples.
pub struct RetinaScores {
    /// Per test sample, per candidate retweet probability.
    pub scores: Vec<Vec<f64>>,
    /// RETINA-S is scored per candidate, RETINA-D per (candidate,
    /// interval), as each is trained.
    pub report: ClassificationReport,
    /// RETINA-D's per-interval probabilities (`candidates × T` per test
    /// sample); empty for RETINA-S.
    pub dyn_probs: Vec<Matrix>,
}

impl RetinaTask {
    /// Build and split the task of `cfg`, then pack both halves with
    /// `feats` and `cfg.news_k` attended news items.
    pub fn build(ctx: &ExperimentContext, cfg: &SuiteConfig, feats: &RetweetFeatures<'_>) -> Self {
        let samples = RetweetTask {
            min_retweets: 1,
            min_news: cfg.min_news,
            max_candidates: cfg.max_candidates,
            include_non_followers: cfg.include_non_followers,
            seed: cfg.seed,
        }
        .build(&ctx.data);
        let (train, test) = split_samples(samples, 0.8, cfg.seed ^ 0x5EED);
        let intervals = crate::retina::default_intervals();
        // 0 = auto; honors the RETINA_THREADS env override.
        let threads = nn::par::resolve(0);
        let packed_train = pack_samples_parallel(feats, &train, &intervals, cfg.news_k, threads);
        let packed_test = pack_samples_parallel(feats, &test, &intervals, cfg.news_k, threads);
        Self {
            train,
            test,
            packed_train,
            packed_test,
        }
    }

    /// Train the RETINA `variant` (its mode, exogenous branch and
    /// recurrent cell; news window and seed come from `cfg`) for
    /// `cfg.retina_epochs` with the mode's default training setup,
    /// shuffled by `cfg.seed`, and score it on the test samples.
    pub fn train_and_score(&self, cfg: &SuiteConfig, variant: RetinaConfig) -> RetinaScores {
        let d_user = self
            .packed_train
            .first()
            .map_or(1, |p| p.user_rows[0].len());
        let mode = variant.mode;
        let mut model = Retina::new(
            d_user,
            RetinaConfig {
                news_k: cfg.news_k,
                seed: cfg.seed,
                ..variant
            },
        );
        let defaults = match mode {
            RetinaMode::Static => TrainConfig::static_default(),
            RetinaMode::Dynamic => TrainConfig::dynamic_default(),
        };
        let tcfg = TrainConfig {
            epochs: cfg.retina_epochs,
            seed: cfg.seed,
            ..defaults
        };
        train_retina(&mut model, &self.packed_train, &tcfg);
        let scores: Vec<Vec<f64>> = self
            .packed_test
            .iter()
            .map(|p| model.predict_proba(p))
            .collect();
        let (mut ys, mut ss, mut dyn_probs) = (Vec::new(), Vec::new(), Vec::new());
        for (p, s) in self.packed_test.iter().zip(&scores) {
            match mode {
                RetinaMode::Static => {
                    ys.extend_from_slice(&p.labels);
                    ss.extend_from_slice(s);
                }
                RetinaMode::Dynamic => {
                    let probs = model.predict_proba_dynamic(p);
                    for (r, row) in p.interval_labels.iter().enumerate() {
                        for (t, &l) in row.iter().enumerate() {
                            ys.push(l);
                            ss.push(probs.get(r, t));
                        }
                    }
                    dyn_probs.push(probs);
                }
            }
        }
        RetinaScores {
            scores,
            report: ClassificationReport::from_scores(&ys, &ss),
            dyn_probs,
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

/// Flattened binary report over every candidate of `test`.
fn flat_report(scores: &[Vec<f64>], test: &[CascadeSample]) -> ClassificationReport {
    let mut ys = Vec::new();
    let mut ss = Vec::new();
    for (s, t) in scores.iter().zip(test) {
        ss.extend_from_slice(s);
        ys.extend_from_slice(&t.labels);
    }
    ClassificationReport::from_scores(&ys, &ss)
}

/// A result with a flattened binary report and no ranking metrics.
fn scored(name: &str, scores: Vec<Vec<f64>>, test: &[CascadeSample]) -> ModelResult {
    ModelResult {
        name: name.to_string(),
        report: Some(flat_report(&scores, test)),
        scores,
        map20: None,
        hits20: None,
    }
}

/// A result with MAP@20 and HITS@20 added to `report`.
fn ranked(
    name: &str,
    scores: Vec<Vec<f64>>,
    report: Option<ClassificationReport>,
    test: &[CascadeSample],
) -> ModelResult {
    let lists: Vec<Vec<bool>> = scores
        .iter()
        .zip(test)
        .map(|(s, t)| rank_by_score(s, &t.labels))
        .collect();
    ModelResult {
        name: name.to_string(),
        scores,
        report,
        map20: Some(map_at_k(&lists, 20)),
        hits20: Some(hits_at_k(&lists, 20)),
    }
}

/// Run the suite.
pub fn run(ctx: &ExperimentContext, cfg: &SuiteConfig, which: SuiteModels) -> RetweetSuite {
    let feats = RetweetFeatures::new(&ctx.data, &ctx.models, &ctx.silver);
    let task = RetinaTask::build(ctx, cfg, &feats);
    let mut results = Vec::new();
    let mut dyn_probs = Vec::new();

    if which.retina {
        let mut variants = vec![
            ("RETINA-S", RetinaConfig::static_default()),
            ("RETINA-D", RetinaConfig::dynamic_default()),
        ];
        if which.retina_ablation {
            let no_exo = |v: RetinaConfig| RetinaConfig {
                use_exogenous: false,
                ..v
            };
            variants.push(("RETINA-S (no exo)", no_exo(RetinaConfig::static_default())));
            variants.push(("RETINA-D (no exo)", no_exo(RetinaConfig::dynamic_default())));
        }
        for (name, variant) in variants {
            let run = task.train_and_score(cfg, variant);
            if name == "RETINA-D" {
                dyn_probs = run.dyn_probs;
            }
            results.push(ranked(name, run.scores, Some(run.report), &task.test));
        }
    }

    if which.feature_baselines {
        run_feature_baselines(cfg, &feats, &task, &mut results);
    }

    let (train, test) = (&task.train, &task.test);
    let graph = ctx.data.graph();
    if which.neural_baselines {
        let n_users = ctx.data.users().len();
        let mut topo = TopoLstm::new(
            n_users,
            TopoLstmConfig {
                epochs: cfg.baseline_epochs,
                seed: cfg.seed,
                ..Default::default()
            },
        );
        topo.train(train);
        let scores = test.iter().map(|s| topo.predict_proba(s)).collect();
        results.push(ranked("TopoLSTM", scores, None, test));
        let mut forest = ForestModel::new(
            n_users,
            ForestModelConfig {
                epochs: cfg.baseline_epochs,
                seed: cfg.seed,
                ..Default::default()
            },
        );
        forest.train(graph, train);
        let scores = test
            .iter()
            .map(|s| forest.predict_proba(graph, s))
            .collect();
        results.push(ranked("FOREST", scores, None, test));
        let mut hidan = Hidan::new(
            n_users,
            HidanConfig {
                epochs: cfg.baseline_epochs,
                seed: cfg.seed,
                ..Default::default()
            },
        );
        hidan.train(train);
        let scores = test.iter().map(|s| hidan.predict_proba(s)).collect();
        results.push(ranked("HIDAN", scores, None, test));
    }

    if which.rudimentary {
        let sir = SirModel::fit(graph, train, cfg.seed);
        let scores = test.iter().map(|s| sir.predict_proba(graph, s)).collect();
        results.push(scored("SIR", scores, test));
        let thresh = ThresholdModel::new(1.5, cfg.seed);
        let scores = test
            .iter()
            .map(|s| thresh.predict_proba(graph, s))
            .collect();
        results.push(scored("Gen.Thresh.", scores, test));
    }

    RetweetSuite {
        train: task.train,
        test: task.test,
        packed_test: task.packed_test,
        dyn_probs,
        intervals: crate::retina::default_intervals(),
        results,
    }
}

/// The feature-engineered baselines of Section VII-B: Logistic
/// Regression, Decision Tree and Random Forest, each with and without
/// the exogenous news features, and Linear SVC without them only (the
/// paper reports it could not fit the news features in memory).
fn run_feature_baselines(
    cfg: &SuiteConfig,
    feats: &RetweetFeatures<'_>,
    task: &RetinaTask,
    results: &mut Vec<ModelResult>,
) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xFEA7);
    // Training rows: every positive plus a few negatives per tweet
    // (keeps the classical models tractable; predictions run on the full
    // candidate sets).
    let mut rows_noexo: Vec<Vec<f64>> = Vec::new();
    let mut rows_exo: Vec<Vec<f64>> = Vec::new();
    let mut labels: Vec<u8> = Vec::new();
    for (s, p) in task.train.iter().zip(&task.packed_train) {
        let exo = feats.exo_row(s.tweet);
        let mut neg_idx: Vec<usize> = (0..s.labels.len()).filter(|&i| s.labels[i] == 0).collect();
        neg_idx.shuffle(&mut rng);
        neg_idx.truncate(cfg.baseline_negs_per_tweet);
        for i in (0..s.labels.len()).filter(|&i| s.labels[i] == 1 || neg_idx.contains(&i)) {
            let row = p.user_rows[i].to_dense();
            rows_exo.push([row.as_slice(), &exo].concat());
            rows_noexo.push(row);
            labels.push(s.labels[i]);
        }
    }

    // Evaluation rows come from the packs (no recomputation).
    let eval = |model: &dyn Classifier, with_exo: bool| -> Vec<Vec<f64>> {
        task.test
            .iter()
            .zip(&task.packed_test)
            .map(|(s, p)| {
                let exo = if with_exo {
                    feats.exo_row(s.tweet)
                } else {
                    Vec::new()
                };
                p.user_rows
                    .iter()
                    .map(|r| {
                        let mut row = r.to_dense();
                        row.extend_from_slice(&exo);
                        model.predict_proba(&row)
                    })
                    .collect()
            })
            .collect()
    };

    type Ctor = fn() -> Box<dyn Classifier>;
    let models: [(&str, Ctor, bool); 4] = [
        (
            "Logistic Regression",
            || {
                Box::new(LogisticRegression::new(LogisticRegressionConfig {
                    epochs: 12,
                    balanced: true,
                    ..Default::default()
                }))
            },
            true,
        ),
        (
            "Decision Tree",
            || Box::new(DecisionTree::new(DecisionTreeConfig::default())),
            true,
        ),
        (
            "Random Forest",
            || {
                Box::new(RandomForest::new(RandomForestConfig {
                    n_estimators: 20,
                    subsample: 0.5,
                    ..Default::default()
                }))
            },
            true,
        ),
        (
            "Linear SVC",
            || {
                Box::new(LinearSvm::new(LinearSvmConfig {
                    epochs: 15,
                    balanced: false,
                    ..Default::default()
                }))
            },
            false,
        ),
    ];
    for (name, ctor, fits_exo) in models {
        for with_exo in [true, false] {
            if with_exo && !fits_exo {
                continue;
            }
            let mut model = ctor();
            model.fit(if with_exo { &rows_exo } else { &rows_noexo }, &labels);
            let scores = eval(model.as_ref(), with_exo);
            let name = if with_exo {
                name.to_string()
            } else {
                format!("{name} (no exo)")
            };
            results.push(scored(&name, scores, &task.test));
        }
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
        let mut values = Vec::new();
        for r in &suite.results {
            values.extend(r.scores.iter().flatten());
            if let Some(rep) = &r.report {
                values.extend([rep.macro_f1, rep.accuracy, rep.auc]);
            }
            values.extend(r.map20.into_iter().chain(r.hits20));
        }
        for m in &suite.dyn_probs {
            values.extend(m.data());
        }
        assert_eq!(super::super::pin(values), 0xee68_7ee6_cacf_0b17);
    }
}
