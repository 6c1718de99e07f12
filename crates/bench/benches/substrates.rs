//! Substrate micro-benchmarks: graph generation, TF-IDF, Doc2Vec,
//! attention forward/backward, GRU BPTT, RETINA's user layer, the
//! gradient-boosting fit — the building blocks every experiment rests on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ml::{Classifier, Gbdt, GbdtConfig};
use nn::{Dense, ExogenousAttention, Gru, Matrix, SparseRow, Standardization};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retina_core::experiments::ExperimentContext;
use socialsim::{Dataset, FollowerGraph, SimConfig};
use std::hint::black_box;
use text::{Doc2Vec, Doc2VecConfig, TfIdfConfig, TfIdfVectorizer};

fn bench_graph(c: &mut Criterion) {
    c.bench_function("graph/generate_2k_users", |b| {
        b.iter(|| FollowerGraph::generate(black_box(2000), 12, 12, 0.82, 7))
    });
    let g = FollowerGraph::generate(2000, 12, 12, 0.82, 7);
    c.bench_function("graph/bfs_shortest_path_cap4", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 17) % 1999;
            black_box(g.shortest_path_len(i, (i + 999) % 2000, 4))
        })
    });
}

fn bench_text(c: &mut Criterion) {
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
    c.bench_function("text/tfidf_fit_500_docs", |b| {
        b.iter(|| TfIdfVectorizer::fit(black_box(&docs), TfIdfConfig::default()))
    });
    let v = TfIdfVectorizer::fit(&docs, TfIdfConfig::default());
    c.bench_function("text/tfidf_transform", |b| {
        b.iter(|| v.transform(black_box("common token3 filler word7 text")))
    });
    let token_docs: Vec<Vec<String>> = docs
        .iter()
        .map(|d| d.split_whitespace().map(str::to_string).collect())
        .collect();
    c.bench_function("text/doc2vec_train_1_epoch", |b| {
        b.iter(|| {
            Doc2Vec::train(
                black_box(&token_docs),
                Doc2VecConfig {
                    dim: 32,
                    epochs: 1,
                    ..Default::default()
                },
            )
        })
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
    c.bench_function("text/doc2vec_train_default_corpus", |b| {
        b.iter(|| {
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
        })
    });
}

fn bench_nn(c: &mut Criterion) {
    // Attention at RETINA's production shape: 60 news, hdim 64.
    let xt = Matrix::xavier_seeded(1, 50, 1);
    let xn: Vec<Matrix> = (0..60)
        .map(|i| Matrix::xavier_seeded(1, 50, 2 + i))
        .collect();
    c.bench_function("nn/attention_fwd_bwd_60news", |b| {
        b.iter_batched(
            || ExogenousAttention::new(50, 50, 64, 0),
            |mut att| {
                let out = att.forward(&xt, &xn);
                let g = out.map(|v| v * 0.1);
                black_box(att.backward(&g))
            },
            BatchSize::SmallInput,
        )
    });

    let xs: Vec<Matrix> = (0..6).map(|i| Matrix::xavier_seeded(64, 128, i)).collect();
    c.bench_function("nn/gru_bptt_6steps_batch64", |b| {
        b.iter_batched(
            || Gru::new(128, 64, 0),
            |mut gru| {
                let hs = gru.forward(&xs);
                let grads: Vec<Matrix> = hs.iter().map(|h| h.map(|v| v * 0.01)).collect();
                black_box(gru.backward(&grads))
            },
            BatchSize::SmallInput,
        )
    });

    // RETINA-D's input pattern: one 64×128 input repeated over the six
    // steps, through the constant-input path.
    let x = &xs[0];
    c.bench_function("nn/gru_bptt_6steps_batch64_repeated", |b| {
        b.iter_batched(
            || Gru::new(128, 64, 0),
            |mut gru| {
                let hs = gru.forward_repeated(x, 6);
                let grads: Vec<Matrix> = hs.iter().map(|h| h.map(|v| v * 0.01)).collect();
                black_box(gru.backward(&grads))
            },
            BatchSize::SmallInput,
        )
    });

    // Inference-path pairs: forward-only at the same production shapes,
    // f64 vs the f32 tier narrowed from the same f64 layer. Layers are
    // built once — the serving pattern — so steady-state scratch reuse
    // is what's measured.
    let mut att = ExogenousAttention::new(50, 50, 64, 0);
    let mut att32 = att.to_f32();
    c.bench_function("nn/attention_infer_60news", |b| {
        b.iter(|| {
            black_box(att.forward(&xt, &xn));
        })
    });
    let xt32 = Matrix::<f32>::from_f64(&xt);
    let xn32: Vec<Matrix<f32>> = xn.iter().map(Matrix::from_f64).collect();
    c.bench_function("nn/attention_infer_60news_f32", |b| {
        b.iter(|| {
            black_box(att32.forward(&xt32, &xn32));
        })
    });

    let mut gru = Gru::new(128, 64, 0);
    let mut gru32 = gru.to_f32();
    c.bench_function("nn/gru_infer_6steps_batch64", |b| {
        b.iter(|| {
            black_box(gru.forward(&xs));
        })
    });
    c.bench_function("nn/gru_infer_6steps_batch64_repeated", |b| {
        b.iter(|| {
            black_box(gru.forward_repeated(x, 6));
        })
    });
    let xs32: Vec<Matrix<f32>> = xs.iter().map(Matrix::from_f64).collect();
    c.bench_function("nn/gru_infer_6steps_batch64_f32", |b| {
        b.iter(|| {
            black_box(gru32.forward(&xs32));
        })
    });
}

/// RETINA's user layer at the production shape: 28 candidate rows ×
/// 1,062 columns at 4% density into hdim 64, forward then backward. The
/// folded row multiplies only the stored entries; its sibling
/// standardizes the rows densely and runs the dense product, as the
/// layer did before the fold.
fn bench_user_layer(c: &mut Criterion) {
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
    c.bench_function("nn/user_layer_fwd_bwd_28x1062_folded", |b| {
        b.iter(|| {
            layer.forward_sparse_into(black_box(&rows), Some(&scale), &mut out);
            layer.backward_params_sparse(&rows, Some(&scale), &g);
            black_box(&out);
        })
    });
    let mut layer = Dense::new(d, h, 0);
    let mut x = Matrix::zeros(n, d);
    c.bench_function("nn/user_layer_fwd_bwd_28x1062_dense_scaled", |b| {
        b.iter(|| {
            for r in 0..n {
                let dense = black_box(&v).row(r);
                for (j, o) in x.row_mut(r).iter_mut().enumerate() {
                    *o = (dense[j] - means[j]) / stds[j];
                }
            }
            layer.forward_into(&x, &mut out);
            layer.backward_params(&x, &g);
            black_box(&out);
        })
    });
}

/// One gradient-boosting fit with Table III's XGBoost settings (the
/// default config) at Table IV's training shape: 960 rows × 850
/// features, 8% positives, 40% of the columns mostly zeros and a few
/// constant, as the hate-generation features are.
fn bench_gbdt(c: &mut Criterion) {
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
    c.bench_function("ml/gbdt_fit_960x850", |b| {
        b.iter(|| {
            let mut m = Gbdt::new(GbdtConfig::default());
            m.fit(black_box(&x), black_box(&y));
            m
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_graph, bench_text, bench_nn, bench_user_layer, bench_gbdt
}
criterion_main!(benches);
