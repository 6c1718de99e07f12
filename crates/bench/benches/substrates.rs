//! Substrate micro-benchmarks: graph generation, TF-IDF, Doc2Vec,
//! attention forward/backward, GRU BPTT, RETINA's user layer, the
//! gradient-boosting fit — the building blocks every experiment rests on.
//!
//! Each routine prints three records on stdout, in perfbench's fragment
//! format (the one `cargo run -p xtask -- bench-report` reads): `.mean`
//! and `.min` in integer ns, and `.samples`. It is timed 10 times, or
//! once when `--test` is on the command line
//! (`cargo bench -p bench --benches -- --test`), which proves every
//! routine still builds and runs without paying for measurements.

use bench::record;
use ml::{Classifier, Gbdt, GbdtConfig};
use nn::{Dense, ExogenousAttention, Gru, Matrix, SparseRow, Standardization};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retina_core::experiments::ExperimentContext;
use socialsim::{Dataset, FollowerGraph, SimConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};
use text::{Doc2Vec, Doc2VecConfig, TfIdfConfig, TfIdfVectorizer};

/// Times each routine `samples` times and prints its records.
struct Timer {
    samples: usize,
}

impl Timer {
    fn run<O>(&self, name: &str, mut routine: impl FnMut() -> O) {
        self.run_with_setup(name, || (), |()| routine());
    }

    /// Each sample builds its input with `setup`, untimed, then times
    /// `routine` on it.
    fn run_with_setup<I, O>(
        &self,
        name: &str,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) {
        let timings: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                start.elapsed()
            })
            .collect();
        let mean = timings.iter().sum::<Duration>() / self.samples as u32;
        let min = timings.iter().min().copied().unwrap_or_default();
        println!("{}", record(name, "mean", mean.as_nanos(), "ns"));
        println!("{}", record(name, "min", min.as_nanos(), "ns"));
        println!("{}", record(name, "samples", self.samples, "count"));
    }
}

fn main() {
    let timer = Timer {
        samples: if std::env::args().any(|a| a == "--test") {
            1
        } else {
            10
        },
    };
    bench_graph(&timer);
    bench_text(&timer);
    bench_nn(&timer);
    bench_user_layer(&timer);
    bench_gbdt(&timer);
}

fn bench_graph(timer: &Timer) {
    timer.run("graph/generate_2k_users", || {
        FollowerGraph::generate(black_box(2000), 12, 12, 0.82, 7)
    });
    let g = FollowerGraph::generate(2000, 12, 12, 0.82, 7);
    let mut i = 0usize;
    timer.run("graph/bfs_shortest_path_cap4", || {
        i = (i + 17) % 1999;
        black_box(g.shortest_path_len(i, (i + 999) % 2000, 4))
    });
}

fn bench_text(timer: &Timer) {
    let docs: Vec<String> = (0..500)
        .map(|i| {
            format!(
                "word{} common token{} filler text number {}",
                i % 50,
                i % 13,
                i
            )
        })
        .collect();
    timer.run("text/tfidf_fit_500_docs", || {
        TfIdfVectorizer::fit(black_box(&docs), TfIdfConfig::default())
    });
    let v = TfIdfVectorizer::fit(&docs, TfIdfConfig::default());
    timer.run("text/tfidf_transform", || {
        v.transform(black_box("common token3 filler word7 text"))
    });
    let token_docs: Vec<Vec<String>> = docs
        .iter()
        .map(|d| d.split_whitespace().map(str::to_string).collect())
        .collect();
    timer.run("text/doc2vec_train_1_epoch", || {
        Doc2Vec::train(
            black_box(&token_docs),
            Doc2VecConfig {
                dim: 32,
                epochs: 1,
                ..Default::default()
            },
        )
    });
    // One epoch at the product's shape: the experiment binaries' corpus
    // at seed 1 (tweets then headlines, ≈32k documents, ≈10k words kept at
    // `min_count` 2), dim 50. Its ≈4 MB word table does not fit in L2
    // (the toy corpus's above does), so only this one pays the product's
    // random-row traffic.
    let data = Dataset::generate(SimConfig {
        seed: 1,
        ..ExperimentContext::default_config()
    });
    let corpus: Vec<Vec<String>> = data
        .tweets()
        .iter()
        .map(|t| t.tokens.clone())
        .chain(data.news().iter().map(|n| n.tokens.clone()))
        .collect();
    drop(data);
    timer.run("text/doc2vec_train_default_corpus", || {
        Doc2Vec::train(
            black_box(&corpus),
            Doc2VecConfig {
                dim: 50,
                epochs: 1,
                min_count: 2,
                seed: 1 ^ 0xD2C,
                ..Default::default()
            },
        )
    });
}

fn bench_nn(timer: &Timer) {
    // Attention at RETINA's production shape: 60 news, hdim 64.
    let xt = Matrix::xavier_seeded(1, 50, 1);
    let news: Vec<Vec<f64>> = (0..60)
        .map(|i| Matrix::xavier_seeded(1, 50, 2 + i).data().to_vec())
        .collect();
    let xn = Matrix::from_rows(&news);
    timer.run_with_setup(
        "nn/attention_fwd_bwd_60news",
        || ExogenousAttention::new(50, 50, 64, 0),
        |mut att| {
            let g = att.forward(&xt, &xn).map(|v| v * 0.1);
            att.backward(&g);
            black_box(att)
        },
    );

    let xs: Vec<Matrix> = (0..6).map(|i| Matrix::xavier_seeded(64, 128, i)).collect();
    timer.run_with_setup(
        "nn/gru_bptt_6steps_batch64",
        || Gru::new(128, 64, 0),
        |mut gru| {
            let hs = gru.forward(&xs);
            let grads: Vec<Matrix> = hs.iter().map(|h| h.map(|v| v * 0.01)).collect();
            black_box(gru.backward(&grads))
        },
    );

    // RETINA-D's input pattern: one 64×128 input repeated over the six
    // steps, through the constant-input path.
    let x = &xs[0];
    timer.run_with_setup(
        "nn/gru_bptt_6steps_batch64_repeated",
        || Gru::new(128, 64, 0),
        |mut gru| {
            let hs = gru.forward_repeated(x, 6);
            let grads: Vec<Matrix> = hs.iter().map(|h| h.map(|v| v * 0.01)).collect();
            black_box(gru.backward(&grads))
        },
    );

    // Inference-path pairs: forward-only at the same production shapes,
    // f64 vs the f32 tier narrowed from the same f64 layer. Layers are
    // built once — the serving pattern — so what's measured is a warm
    // forward that overwrites the previous call's activations.
    let mut att = ExogenousAttention::new(50, 50, 64, 0);
    let mut att32 = att.to_f32();
    timer.run("nn/attention_infer_60news", || {
        black_box(att.forward(&xt, &xn));
    });
    let xt32 = Matrix::<f32>::from_f64(&xt);
    let xn32 = Matrix::<f32>::from_f64(&xn);
    timer.run("nn/attention_infer_60news_f32", || {
        black_box(att32.forward(&xt32, &xn32));
    });

    let mut gru = Gru::new(128, 64, 0);
    let mut gru32 = gru.to_f32();
    timer.run("nn/gru_infer_6steps_batch64", || {
        black_box(gru.forward(&xs));
    });
    timer.run("nn/gru_infer_6steps_batch64_repeated", || {
        black_box(gru.forward_repeated(x, 6));
    });
    let xs32: Vec<Matrix<f32>> = xs.iter().map(Matrix::from_f64).collect();
    timer.run("nn/gru_infer_6steps_batch64_f32", || {
        black_box(gru32.forward(&xs32));
    });
}

/// RETINA's user layer at the production shape: 28 candidate rows ×
/// 1,062 columns at 4% density into hdim 64, forward then backward. The
/// folded row multiplies only the stored entries; its sibling
/// standardizes the rows densely and runs the dense product, as the
/// layer did before the fold.
fn bench_user_layer(timer: &Timer) {
    let (n, d, h) = (28, 1062, 64);
    let v = Matrix::from_fn(n, d, |r, j| {
        let k = (r * 7919 + j * 104_729) % 100;
        if k < 4 {
            0.25 * (k + 1) as f64
        } else {
            0.0
        }
    });
    let rows: Vec<SparseRow> = (0..n).map(|r| SparseRow::from_dense(v.row(r))).collect();
    let means: Vec<f64> = (0..d)
        .map(|j| (0..n).map(|r| v.get(r, j)).sum::<f64>() / n as f64)
        .collect();
    let stds: Vec<f64> = (0..d)
        .map(|j| {
            let var = (0..n)
                .map(|r| (v.get(r, j) - means[j]).powi(2))
                .sum::<f64>()
                / n as f64;
            if var > 0.0 {
                var.sqrt()
            } else {
                1.0
            }
        })
        .collect();
    let scale = Standardization::new(&means, &stds);
    let g = Matrix::xavier_seeded(n, h, 3);

    let mut layer = Dense::new(d, h, 0);
    let mut out = Matrix::default();
    timer.run("nn/user_layer_fwd_bwd_28x1062_folded", || {
        layer.forward_sparse_into(black_box(&rows), Some(&scale), &mut out);
        layer.backward_params_sparse(&rows, Some(&scale), &g);
        black_box(&out);
    });
    let mut layer = Dense::new(d, h, 0);
    let mut x = Matrix::zeros(n, d);
    timer.run("nn/user_layer_fwd_bwd_28x1062_dense_scaled", || {
        for r in 0..n {
            let dense = black_box(&v).row(r);
            for (j, o) in x.row_mut(r).iter_mut().enumerate() {
                *o = (dense[j] - means[j]) / stds[j];
            }
        }
        layer.forward_into(&x, &mut out);
        layer.backward_params(&x, &g);
        black_box(&out);
    });
}

/// One gradient-boosting fit with Table III's XGBoost settings (the
/// default config) at Table IV's training shape: 960 rows × 850
/// features, 8% positives. 9 columns are constant and 331 at least 90%
/// zeros, so 37.7% of the non-constant entries lie in their column's
/// leading tie run, which the split search sums instead of scanning.
/// The hate-generation features are sparser: perfbench's seed-1 Table IV
/// training matrix has 37 constant columns, 300 of its 813 others are
/// at least 90% zeros, and 79.8% of its non-constant entries lie in a
/// leading run. This row therefore understates the saving on Table IV;
/// its input is kept as it is so that the gated row stays comparable.
fn bench_gbdt(timer: &Timer) {
    let (n, d) = (960, 850);
    let mut rng = StdRng::seed_from_u64(11);
    let y: Vec<u8> = (0..n).map(|_| u8::from(rng.gen_bool(0.08))).collect();
    let x: Vec<Vec<f64>> = y
        .iter()
        .map(|&label| {
            let lift = f64::from(label);
            (0..d)
                .map(|j| match j % 100 {
                    0 => 1.0,
                    k if k % 5 < 2 => {
                        if rng.gen_bool(0.04 + 0.04 * lift) {
                            rng.gen_range(0.0..1.0)
                        } else {
                            0.0
                        }
                    }
                    k => {
                        let signal = if k % 7 == 0 { 0.2 * lift } else { 0.0 };
                        rng.gen_range(-1.0..1.0) + signal
                    }
                })
                .collect()
        })
        .collect();
    timer.run("ml/gbdt_fit_960x850", || {
        let mut m = Gbdt::new(GbdtConfig::default());
        m.fit(black_box(&x), black_box(&y));
        m
    });
}
