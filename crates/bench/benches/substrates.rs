//! Substrate micro-benchmarks: graph generation, TF-IDF, Doc2Vec,
//! attention forward/backward, GRU BPTT — the building blocks every
//! experiment rests on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use nn::{ExogenousAttention, Gru, Matrix};
use socialsim::FollowerGraph;
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_graph, bench_text, bench_nn
}
criterion_main!(benches);
