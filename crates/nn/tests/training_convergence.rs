//! End-to-end training convergence for small networks built from the
//! layer zoo — proves the pieces compose, not just that each gradient is
//! exact.

use nn::{
    Activation, ActivationKind, Adam, Dense, ExogenousAttention, Gru, Matrix, Optimizer,
    WeightedBce,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two-layer MLP learns XOR.
#[test]
fn mlp_learns_xor() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..200 {
        let a: f64 = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        let b: f64 = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        xs.push(vec![
            a + rng.gen_range(-0.2..0.2),
            b + rng.gen_range(-0.2..0.2),
        ]);
        ys.push(f64::from(a * b > 0.0));
    }
    let x = Matrix::from_rows(&xs);
    let t = Matrix::from_fn(ys.len(), 1, |r, _| ys[r]);

    let mut l1 = Dense::new(2, 16, 1);
    let mut act = Activation::new(ActivationKind::Tanh);
    let mut l2 = Dense::new(16, 1, 2);
    let mut opt = Adam::new(0.02);
    let bce = WeightedBce::unweighted();

    let mut first_loss = 0.0;
    let mut last_loss = 0.0;
    for epoch in 0..300 {
        let h = act.forward(&l1.forward(&x));
        let z = l2.forward(&h);
        let loss = bce.loss(&z, &t);
        if epoch == 0 {
            first_loss = loss;
        }
        last_loss = loss;
        let g = bce.grad(&z, &t);
        let gh = l2.backward(&h, &g);
        let gp = act.backward(&gh);
        let _ = l1.backward(&x, &gp);
        let mut params = l1.params_mut();
        params.extend(l2.params_mut());
        opt.step(&mut params);
    }
    assert!(
        last_loss < first_loss * 0.3,
        "XOR training stalled: {first_loss} -> {last_loss}"
    );
    // Accuracy check.
    let h = act.forward(&l1.forward(&x));
    let z = l2.forward(&h);
    let correct = (0..ys.len())
        .filter(|&r| (z.get(r, 0) > 0.0) == (ys[r] > 0.5))
        .count();
    assert!(correct as f64 / ys.len() as f64 > 0.95);
}

/// GRU + dense head learns to detect whether a "1" appeared anywhere in a
/// short binary sequence (long-range memory).
#[test]
fn gru_learns_sequence_memory() {
    let mut rng = StdRng::seed_from_u64(1);
    let t_len = 6;
    let n = 120;
    let mut seqs: Vec<Vec<f64>> = Vec::new();
    let mut labels: Vec<f64> = Vec::new();
    for _ in 0..n {
        // Signal appears only at the FIRST step; the GRU must carry it.
        let has = rng.gen_bool(0.5);
        let mut s = vec![0.0; t_len];
        if has {
            s[0] = 1.0;
        }
        seqs.push(s);
        labels.push(f64::from(has));
    }
    let xs: Vec<Matrix> = (0..t_len)
        .map(|t| Matrix::from_fn(n, 1, |r, _| seqs[r][t]))
        .collect();
    let targets = Matrix::from_fn(n, 1, |r, _| labels[r]);

    let mut gru = Gru::new(1, 8, 2);
    let mut head = Dense::new(8, 1, 3);
    let mut opt = Adam::new(0.02);
    let bce = WeightedBce::unweighted();

    let mut last_loss = f64::INFINITY;
    for _ in 0..150 {
        let h_last = gru.forward(&xs).last().unwrap();
        let z = head.forward(h_last);
        last_loss = bce.loss(&z, &targets);
        let g = bce.grad(&z, &targets);
        let gh = head.backward(h_last, &g);
        let mut grads: Vec<Matrix> = (0..t_len - 1).map(|_| Matrix::zeros(n, 8)).collect();
        grads.push(gh);
        let _ = gru.backward(&grads);
        let mut params = gru.params_mut();
        params.extend(head.params_mut());
        opt.step(&mut params);
    }
    assert!(last_loss < 0.2, "GRU memory task loss {last_loss}");
}

/// The attention block learns to route the relevant news item: the target
/// equals a linear readout of whichever memory matches the query.
#[test]
fn attention_learns_to_route() {
    let mut rng = StdRng::seed_from_u64(4);
    let n_samples = 150;
    let dim = 8;
    let k = 4;
    // Build samples: query one-hot-ish; the matching item carries the
    // label signal in its payload half.
    let mut queries = Vec::new();
    let mut news: Vec<Vec<Vec<f64>>> = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..n_samples {
        let slot = rng.gen_range(0..k);
        let label = rng.gen_bool(0.5);
        let mut q = vec![0.0; dim];
        q[slot] = 1.0;
        let mut items = Vec::new();
        for i in 0..k {
            let mut item = vec![0.0; dim];
            item[i] = 1.0;
            // payload in the upper half
            item[dim / 2 + i % (dim / 2)] = if i == slot && label { 2.0 } else { -1.0 };
            items.push(item);
        }
        queries.push(q);
        news.push(items);
        labels.push(f64::from(label));
    }

    let mut att = ExogenousAttention::new(dim, dim, 8, 5);
    let mut head = Dense::new(8, 1, 6);
    let mut opt = Adam::new(0.02);
    let bce = WeightedBce::unweighted();

    let mut last_loss = f64::INFINITY;
    for _ in 0..200 {
        let mut total = 0.0;
        for i in 0..n_samples {
            let xt = Matrix::from_rows(&[queries[i].clone()]);
            let xn = Matrix::from_rows(&news[i]);
            let ctx = att.forward(&xt, &xn);
            let z = head.forward(ctx);
            let t = Matrix::from_vec(1, 1, vec![labels[i]]);
            total += bce.loss(&z, &t);
            let g = bce.grad(&z, &t);
            let gctx = head.backward(ctx, &g);
            att.backward(&gctx);
            let mut params = att.params_mut();
            params.extend(head.params_mut());
            opt.step(&mut params);
        }
        last_loss = total / n_samples as f64;
    }
    assert!(
        last_loss < 0.3,
        "attention routing task did not converge: {last_loss}"
    );
}
