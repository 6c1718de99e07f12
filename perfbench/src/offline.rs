//! The two offline workloads, `retweet_pipeline` (Table VI) and
//! `hategen_table4` (Table IV), and the corpus and text stages they
//! share with `serve_open_loop`.

use crate::report::{Checks, Metrics};
use crate::stats::median;
use crate::trace::Tracer;
use crate::work::{Shapes, TRAIN_FORWARD_PASSES};
use crate::{Outcome, Run};
use diffusion::{split_samples, CascadeSample, RetweetTask};
use ml::metrics::roc_auc;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use retina_core::experiments::ExperimentContext;
use retina_core::retina::{default_intervals, pack_samples_parallel, PackedSample};
use retina_core::snapshot::{PipelineState, Snapshot};
use retina_core::trainer::{train_retina, TrainConfig};
use retina_core::{
    HateDetector, HategenFeatures, HategenPipeline, HategenSample, ModelKind, Processing, Retina,
    RetinaConfig, RetinaMode, RetweetFeatures, TextModels,
};
use socialsim::{Dataset, SimConfig};
use std::time::Instant;

/// Doc2Vec epochs of the experiment binaries' default.
const D2V_EPOCHS: usize = 6;
/// Preceding headlines a root tweet needs, and news items attended.
const MIN_NEWS: usize = 60;
const NEWS_K: usize = 60;
const MAX_CANDIDATES: usize = 100;
/// Offline stages run on one thread: at two threads the training kernels
/// run slower and vary more from run to run on a two-core host.
const OFFLINE_THREADS: usize = 1;
/// Corpus generations per run; `setup_s` reports their median.
const SETUP_REPS: usize = 5;

/// Candidate rows a `retweet_pipeline` pass trains and scores on. The
/// corpus yields 37k-51k rows depending on the seed; a fixed budget keeps
/// the work of a pass the same across seeds, and small enough that a run
/// times several passes.
const TRAIN_ROWS: usize = 8_000;
const TEST_ROWS: usize = 2_000;
const EPOCHS_STATIC: usize = 1;
const EPOCHS_DYNAMIC: usize = 1;
/// Largest |f32 − f64| probability difference the `infer32` contract allows.
const F32_TOLERANCE: f64 = 1e-3;

/// The corpus configuration of the experiment binaries, seeded.
fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ..ExperimentContext::default_config()
    }
}

/// Generate the corpus [`SETUP_REPS`] times; return it and the median
/// generation time. Every generation must produce the same corpus.
fn corpus(seed: u64, checks: &mut Checks) -> (Dataset, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut sizes = Vec::with_capacity(SETUP_REPS);
    let mut data = None;
    for _ in 0..SETUP_REPS {
        drop(data.take());
        let t = Instant::now();
        let d = Dataset::generate(sim_config(seed));
        times.push(t.elapsed().as_secs_f64());
        sizes.push((d.tweets().len(), d.news().len()));
        data = Some(d);
    }
    checks.check(sizes.windows(2).all(|w| w[0] == w[1]), || {
        format!("corpus generation is not deterministic: {sizes:?}")
    });
    (data.expect("SETUP_REPS > 0"), median(&times))
}

/// What every workload builds before it measures: the corpus, its text
/// models and the detector's silver labels.
pub struct Prepared {
    pub data: Dataset,
    pub models: TextModels,
    pub silver: Vec<bool>,
    /// Median corpus generation time plus the text and detector stages.
    pub setup_s: f64,
}

pub fn prepare(run: &Run, tr: &mut Tracer, checks: &mut Checks) -> Prepared {
    let (data, corpus_s) = corpus(run.seed, checks);
    let t = Instant::now();
    let (models, silver) = text_and_labels(tr, &data);
    Prepared {
        setup_s: corpus_s + t.elapsed().as_secs_f64(),
        data,
        models,
        silver,
    }
}

/// Text models, then the detector and its silver labels, as
/// `ExperimentContext::build` runs them.
fn text_and_labels(tr: &mut Tracer, data: &Dataset) -> (TextModels, Vec<bool>) {
    let models = tr.span("text.build", 0, |_| TextModels::build(data, D2V_EPOCHS));
    let detector = tr.span("detector.train", 0, |_| {
        HateDetector::train(data, &models, 0.6, data.config().seed ^ 0xDE7)
    });
    let silver = tr.span("detector.label", 0, |_| {
        detector.silver_labels(data, &models)
    });
    (models, silver)
}

/// The Table VI task, split 80:20.
pub fn task_split(data: &Dataset, seed: u64) -> (Vec<CascadeSample>, Vec<CascadeSample>) {
    let task = RetweetTask {
        min_retweets: 1,
        min_news: MIN_NEWS,
        max_candidates: MAX_CANDIDATES,
        include_non_followers: false,
        seed,
    };
    split_samples(task.build(data), 0.8, seed ^ 0x5EED)
}

pub fn pack(features: &RetweetFeatures<'_>, samples: &[CascadeSample]) -> Vec<PackedSample> {
    pack_samples_parallel(
        features,
        samples,
        &default_intervals(),
        NEWS_K,
        OFFLINE_THREADS,
    )
}

pub fn rows(samples: &[PackedSample]) -> usize {
    samples.iter().map(|s| s.user_rows.len()).sum()
}

pub fn retina_config(mode: RetinaMode, seed: u64) -> RetinaConfig {
    RetinaConfig {
        mode,
        seed,
        news_k: NEWS_K,
        threads: OFFLINE_THREADS,
        ..RetinaConfig::static_default()
    }
}

pub fn shapes(d_user: usize) -> Shapes {
    let c = RetinaConfig::static_default();
    Shapes {
        d_user,
        hdim: c.hdim,
        d2v: c.d2v_dim,
        news_k: NEWS_K,
        intervals: c.intervals.len(),
    }
}

/// Whether two models hold bit-identical parameters.
pub fn same_params(a: &Retina, b: &Retina) -> bool {
    let (pa, pb) = (a.params(), b.params());
    pa.len() == pb.len()
        && pa.iter().zip(&pb).all(|(x, y)| {
            let (x, y) = (x.value.data(), y.value.data());
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
        })
}

pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Fewest passes a run times, so that `wall_s` is a median of several.
const MIN_PASSES: usize = 3;

/// Run whole passes while another one fits in `run.seconds` (at least
/// [`MIN_PASSES`]). A traced run orders its passes untraced, traced,
/// traced, untraced…, so that neither side always runs first; the
/// untraced ones are the baseline for the tracing overhead. Returns each
/// pass's wall time and whether it was traced, plus the passes' results.
fn timed_passes<P>(
    run: &Run,
    tr: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer) -> P,
) -> (Vec<(f64, bool)>, Vec<P>) {
    let start = Instant::now();
    let mut walls: Vec<(f64, bool)> = Vec::new();
    let mut outs = Vec::new();
    loop {
        let traced = run.trace && matches!(walls.len() % 4, 1 | 2);
        tr.set_enabled(traced);
        let t = Instant::now();
        outs.push(tr.span("pass", 0, |tr| pass(tr)));
        walls.push((t.elapsed().as_secs_f64(), traced));
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / walls.len() as f64;
        if walls.len() >= MIN_PASSES && elapsed + per_pass > run.seconds {
            break;
        }
    }
    let times: Vec<String> = walls.iter().map(|w| format!("{:.3}", w.0)).collect();
    eprintln!(
        "perfbench: {} passes, seconds each: {}",
        walls.len(),
        times.join(" ")
    );
    tr.set_enabled(run.trace);
    (walls, outs)
}

/// `wall_s` (untraced passes) and, for a traced run, the tracing overhead.
fn wall_metrics(walls: &[(f64, bool)], m: &mut Metrics) {
    let pick = |traced: bool| -> Vec<f64> {
        walls
            .iter()
            .filter(|w| w.1 == traced)
            .map(|w| w.0)
            .collect()
    };
    let (plain, traced) = (pick(false), pick(true));
    m.insert("wall_s", median(&plain));
    if !traced.is_empty() {
        m.insert(
            "trace.overhead_pct",
            (median(&traced) / median(&plain) - 1.0) * 100.0,
        );
    }
}

/// Median self time of the spans named `name`, 0 if there are none.
pub fn layer_s(tr: &Tracer, name: &str) -> f64 {
    let v = tr.self_s(name);
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// The first `budget` candidate rows' worth of samples.
pub fn take_rows(samples: Vec<CascadeSample>, budget: usize) -> Vec<CascadeSample> {
    let mut total = 0;
    samples
        .into_iter()
        .take_while(|s| {
            let take = total < budget;
            total += s.candidates.len();
            take
        })
        .collect()
}

/// What one `retweet_pipeline` pass measured.
struct RetweetPass {
    auc_static: f64,
    auc_dynamic: f64,
    n_train: usize,
    n_test: usize,
    rows_train: usize,
    rows_test: usize,
    d_user: usize,
    snapshot_bytes: usize,
}

/// `retweet_pipeline`: the Table VI path, timed as whole passes.
pub fn retweet_pipeline(run: &Run) -> Outcome {
    let mut checks = Checks::default();
    let mut tr = Tracer::new(run.trace, 1 << 12);
    let prep = prepare(run, &mut tr, &mut checks);
    let (walls, passes) = timed_passes(run, &mut tr, |tr| {
        retweet_pass(tr, &prep, run.seed, &mut checks)
    });
    let first = &passes[0];
    for p in &passes[1..] {
        checks.check(
            p.auc_static.to_bits() == first.auc_static.to_bits()
                && p.auc_dynamic.to_bits() == first.auc_dynamic.to_bits(),
            || "passes over the same corpus disagree".into(),
        );
    }
    eprintln!(
        "perfbench: retweet_pipeline seed {}: {} tweets, {} + {} samples, {} + {} candidates, d_user {}, {} passes",
        run.seed,
        prep.data.tweets().len(),
        first.n_train,
        first.n_test,
        first.rows_train,
        first.rows_test,
        first.d_user,
        passes.len()
    );

    let mut m = Metrics::new();
    m.insert("setup_s", prep.setup_s);
    wall_metrics(&walls, &mut m);
    m.insert("auc_static", first.auc_static);
    m.insert("auc_dynamic", first.auc_dynamic);

    let sh = shapes(first.d_user);
    let rows_per_sample = first.rows_train as f64 / first.n_train as f64;
    m.insert("task.samples", (first.n_train + first.n_test) as f64);
    m.insert(
        "task.candidates",
        (first.rows_train + first.rows_test) as f64,
    );
    m.insert("task.d_user", first.d_user as f64);
    m.insert("snapshot.bytes", first.snapshot_bytes as f64);
    work_metrics(&sh, rows_per_sample, &mut m);
    if run.trace {
        for (metric, span) in [
            ("text.build_s", "text.build"),
            ("detector.train_s", "detector.train"),
            ("detector.label_s", "detector.label"),
            ("task.build_s", "task.build"),
            ("pack.s", "pack"),
            ("train.static_s", "train.static"),
            ("train.dynamic_s", "train.dynamic"),
            ("snapshot.encode_s", "snapshot.encode"),
            ("snapshot.decode_s", "snapshot.decode"),
            ("snapshot.restore_s", "snapshot.restore"),
            ("infer32.narrow_s", "infer32.narrow"),
        ] {
            m.insert(metric, layer_s(&tr, span));
        }
        let rows = (first.rows_train + first.rows_test) as f64;
        m.insert("pack.rows_per_s", rows / m["pack.s"]);
        let (ts, td) = (m["train.static_s"], m["train.dynamic_s"]);
        m.insert(
            "train.samples_per_s.static",
            (first.n_train * EPOCHS_STATIC) as f64 / ts,
        );
        m.insert(
            "train.samples_per_s.dynamic",
            (first.n_train * EPOCHS_DYNAMIC) as f64 / td,
        );
        let train_flop = TRAIN_FORWARD_PASSES
            * (EPOCHS_STATIC as f64 * sh.forward_flop(false, first.rows_train, first.n_train)
                + EPOCHS_DYNAMIC as f64 * sh.forward_flop(true, first.rows_train, first.n_train));
        m.insert("train.gflop_per_s", train_flop / (ts + td) * 1e-9);
        // Each score span scores the test set once with each model.
        let (s64, s32) = (layer_s(&tr, "score.f64"), layer_s(&tr, "score.f32"));
        let scored = 2.0 * first.n_test as f64;
        m.insert("score.us_per_sample.f64", s64 / scored * 1e6);
        m.insert("score.us_per_sample.f32", s32 / scored * 1e6);
        let score_flop = sh.forward_flop(false, first.rows_test, first.n_test)
            + sh.forward_flop(true, first.rows_test, first.n_test);
        m.insert("score.gflop_per_s", score_flop / s64 * 1e-9);
    }
    Outcome {
        metrics: m,
        checks,
        tracer: tr,
    }
}

fn retweet_pass(tr: &mut Tracer, prep: &Prepared, seed: u64, checks: &mut Checks) -> RetweetPass {
    let (data, models) = (&prep.data, &prep.models);
    let (train, test) = tr.span("task.build", 0, |_| {
        let (train, test) = task_split(data, seed);
        (take_rows(train, TRAIN_ROWS), take_rows(test, TEST_ROWS))
    });
    let features = RetweetFeatures::new(data, models, &prep.silver);
    let (ptrain, ptest) = tr.span("pack", 0, |_| {
        (pack(&features, &train), pack(&features, &test))
    });
    let d_user = ptrain[0].user_rows[0].len();

    let mut stat = Retina::new(d_user, retina_config(RetinaMode::Static, seed));
    let stat_cfg = TrainConfig {
        epochs: EPOCHS_STATIC,
        seed,
        ..TrainConfig::static_default()
    };
    tr.span("train.static", 0, |_| {
        train_retina(&mut stat, &ptrain, &stat_cfg)
    });
    let mut dynm = Retina::new(d_user, retina_config(RetinaMode::Dynamic, seed));
    let dyn_cfg = TrainConfig {
        epochs: EPOCHS_DYNAMIC,
        seed,
        ..TrainConfig::dynamic_default()
    };
    tr.span("train.dynamic", 0, |_| {
        train_retina(&mut dynm, &ptrain, &dyn_cfg)
    });

    let snap = Snapshot::capture(&stat)
        .with_pipeline(PipelineState::from_text_models(models))
        .with_trainer(stat_cfg);
    let bytes = tr.span("snapshot.encode", 0, |_| snap.encode());
    let decoded = tr.span("snapshot.decode", 0, |_| Snapshot::decode(&bytes));
    let mut restored = match decoded {
        Ok(s) => tr.span("snapshot.restore", 0, |_| s.restore()).ok(),
        Err(_) => None,
    };
    checks.check(
        restored.as_ref().is_some_and(|r| same_params(r, &stat)),
        || "restored snapshot differs from the live model".into(),
    );

    let (s64, d64) = tr.span("score.f64", 0, |_| {
        let s: Vec<Vec<f64>> = ptest.iter().map(|p| stat.predict_proba(p)).collect();
        let d: Vec<nn::Matrix> = ptest
            .iter()
            .map(|p| dynm.predict_proba_dynamic(p))
            .collect();
        (s, d)
    });
    let (mut stat32, mut dynm32) = tr.span("infer32.narrow", 0, |_| {
        (stat.to_f32_inference(), dynm.to_f32_inference())
    });
    let (s32, d32) = tr.span("score.f32", 0, |_| {
        let s: Vec<Vec<f64>> = ptest.iter().map(|p| stat32.predict_proba(p)).collect();
        let d: Vec<Vec<f64>> = ptest.iter().map(|p| dynm32.predict_proba(p)).collect();
        (s, d)
    });

    for (i, p) in ptest.iter().enumerate() {
        let union: Vec<f64> = (0..d64[i].rows())
            .map(|r| 1.0 - (0..d64[i].cols()).fold(1.0, |acc, t| acc * (1.0 - d64[i].get(r, t))))
            .collect();
        checks.probabilities("RETINA-S f64", &s64[i]);
        checks.probabilities("RETINA-D f64", d64[i].data());
        checks.probabilities("RETINA-S f32", &s32[i]);
        checks.probabilities("RETINA-D f32", &d32[i]);
        for (what, wide, narrow) in [
            ("RETINA-S", &s64[i], &s32[i]),
            ("RETINA-D", &union, &d32[i]),
        ] {
            let worst = wide
                .iter()
                .zip(narrow)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            checks.check(wide.len() == narrow.len() && worst <= F32_TOLERANCE, || {
                format!("{what} f32 scores differ from f64 by {worst:e} on test sample {i}")
            });
        }
        if let Some(r) = restored.as_mut() {
            checks.check(same_bits(&r.predict_proba(p), &s64[i]), || {
                format!("restored model scores test sample {i} differently")
            });
        }
    }

    let labels: Vec<u8> = ptest.iter().flat_map(|p| p.labels.clone()).collect();
    let interval_labels: Vec<u8> = ptest
        .iter()
        .flat_map(|p| p.interval_labels.concat())
        .collect();
    let dyn_scores: Vec<f64> = d64.iter().flat_map(|d| d.data().to_vec()).collect();
    RetweetPass {
        auc_static: roc_auc(&labels, &s64.concat()),
        auc_dynamic: roc_auc(&interval_labels, &dyn_scores),
        n_train: ptrain.len(),
        n_test: ptest.len(),
        rows_train: rows(&ptrain),
        rows_test: rows(&ptest),
        d_user,
        snapshot_bytes: bytes.len(),
    }
}

/// The `computed.*` work counters for these shapes.
pub fn work_metrics(sh: &Shapes, rows_per_sample: f64, m: &mut Metrics) {
    m.insert(
        "computed.flop_per_row.user_dense",
        sh.user_dense_flop_per_row(),
    );
    m.insert(
        "computed.flop_per_row.attention",
        sh.attention_flop_per_sample() / rows_per_sample,
    );
    m.insert(
        "computed.flop_per_row.head_static",
        sh.head_static_flop_per_row(),
    );
    m.insert(
        "computed.flop_per_row.head_dynamic",
        sh.head_dynamic_flop_per_row(),
    );
    m.insert(
        "computed.bytes_per_row.user_dense",
        sh.user_dense_bytes_per_row(rows_per_sample),
    );
    m.insert(
        "computed.bytes_per_row.attention",
        sh.attention_bytes_per_sample() / rows_per_sample,
    );
    m.insert(
        "computed.bytes_per_row.head_static",
        sh.head_static_bytes_per_row(rows_per_sample),
    );
    m.insert(
        "computed.bytes_per_row.head_dynamic",
        sh.head_dynamic_bytes_per_row(rows_per_sample),
    );
}

/// The three Table IV cells the workload runs, with their span and
/// metric names.
const CELLS: [(ModelKind, &str, &str); 3] = [
    (ModelKind::LogReg, "ml.cell.logreg", "ml.cell_s.logreg"),
    (ModelKind::DecTree, "ml.cell.dectree", "ml.cell_s.dectree"),
    (ModelKind::XgBoost, "ml.cell.gbdt", "ml.cell_s.gbdt"),
];

/// Table IV samples a pass uses, drawn at random from the ~3,150 the
/// corpus yields: the gradient-boosting cell alone takes about 9 s on
/// all of them, which would leave room for only two passes a run. How
/// far the boosted trees grow depends on the hateful samples, so their
/// number is fixed too (the corpus holds about 105).
const HATEGEN_SAMPLES: usize = 1200;
const HATEGEN_HATEFUL: usize = 80;

/// A seeded random subset of `HATEGEN_SAMPLES` samples, `HATEGEN_HATEFUL`
/// of them hateful where the corpus has that many.
fn hategen_subset(mut samples: Vec<HategenSample>, seed: u64) -> Vec<HategenSample> {
    samples.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x4A7E));
    let (hateful, benign): (Vec<_>, Vec<_>) = samples.into_iter().partition(|s| s.hateful);
    let n_hateful = hateful.len().min(HATEGEN_HATEFUL);
    let mut subset: Vec<_> = hateful.into_iter().take(n_hateful).collect();
    subset.extend(benign.into_iter().take(HATEGEN_SAMPLES - n_hateful));
    subset
}

/// `hategen_table4`: the Table IV path, timed as whole passes.
pub fn hategen_table4(run: &Run) -> Outcome {
    let mut checks = Checks::default();
    let mut tr = Tracer::new(run.trace, 1 << 12);
    let prep = prepare(run, &mut tr, &mut checks);
    let samples = hategen_subset(
        HategenPipeline::build_samples(&prep.data, MIN_NEWS),
        run.seed,
    );
    let (walls, passes) = timed_passes(run, &mut tr, |tr| {
        hategen_pass(tr, &prep, &samples, run.seed, &mut checks)
    });
    let first = &passes[0];
    for aucs in &passes[1..] {
        checks.check(same_bits(aucs, first), || {
            "passes over the same corpus disagree".into()
        });
    }
    eprintln!(
        "perfbench: hategen_table4 seed {}: {} tweets, {} samples, cell AUCs {:?}",
        run.seed,
        prep.data.tweets().len(),
        samples.len(),
        first
    );
    let mut m = Metrics::new();
    m.insert("setup_s", prep.setup_s);
    wall_metrics(&walls, &mut m);
    m.insert(
        "auc_hategen",
        first.iter().sum::<f64>() / first.len() as f64,
    );
    if run.trace {
        for (metric, span) in [
            ("text.build_s", "text.build"),
            ("detector.train_s", "detector.train"),
            ("detector.label_s", "detector.label"),
            ("features.hategen_s", "features.hategen"),
        ] {
            m.insert(metric, layer_s(&tr, span));
        }
        m.insert(
            "features.rows_per_s",
            samples.len() as f64 / m["features.hategen_s"],
        );
        for (_, span, metric) in CELLS {
            m.insert(metric, layer_s(&tr, span));
        }
    }
    Outcome {
        metrics: m,
        checks,
        tracer: tr,
    }
}

fn hategen_pass(
    tr: &mut Tracer,
    prep: &Prepared,
    samples: &[HategenSample],
    seed: u64,
    checks: &mut Checks,
) -> Vec<f64> {
    let features = HategenFeatures::new(&prep.data, &prep.models, &prep.silver);
    let pipe = tr.span("features.hategen", 0, |_| {
        HategenPipeline::new(&features, samples, None, seed)
    });
    checks.check(
        pipe.x_train
            .iter()
            .chain(&pipe.x_test)
            .flatten()
            .all(|v| v.is_finite()),
        || "hate-generation features hold a non-finite value".into(),
    );
    CELLS
        .iter()
        .map(|&(kind, span, _)| {
            let r = tr.span(span, 0, |_| pipe.run_cell(kind, Processing::None));
            let sane = [r.auc, r.macro_f1, r.accuracy]
                .iter()
                .all(|v| v.is_finite() && (0.0..=1.0).contains(v));
            checks.check(sane, || {
                format!("{} cell report out of range: {r:?}", kind.name())
            });
            r.auc
        })
        .collect()
}
