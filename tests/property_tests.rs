//! Property-style tests over the core invariants of the workspace:
//! metrics, tensors, attention, sampling, graphs and text. Each test draws
//! many random cases from a seeded generator (the registry is offline, so
//! `proptest` is replaced by explicit seeded loops — same invariants,
//! deterministic cases).

use ml::metrics::{accuracy, average_precision_at_k, macro_f1, roc_auc};
use nn::{ExogenousAttention, Matrix, WeightedBce};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socialsim::FollowerGraph;
use text::HateLexicon;

const CASES: usize = 64;

fn rng_for(case: usize, salt: u64) -> StdRng {
    StdRng::seed_from_u64(0x9E37 ^ salt ^ (case as u64).wrapping_mul(0x517C_C1B7_2722_0A95))
}

fn random_scores(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

fn random_labels(rng: &mut StdRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.gen_range(0..2u8)).collect()
}

/// AUC is invariant under strictly monotone score transforms.
#[test]
fn auc_monotone_invariant() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 1);
        let n = rng.gen_range(4..40);
        let s = random_scores(&mut rng, n, 0.0, 1.0);
        let y = random_labels(&mut rng, n);
        let a = roc_auc(&y, &s);
        let transformed: Vec<f64> = s.iter().map(|&x| (3.0 * x + 1.0).exp()).collect();
        let b = roc_auc(&y, &transformed);
        assert!((a - b).abs() < 1e-9, "case {case}: {a} vs {b}");
    }
}

/// AUC, accuracy and macro-F1 are always within [0, 1].
#[test]
fn metrics_bounded() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 2);
        let n = rng.gen_range(2..50);
        let scores = random_scores(&mut rng, n, -10.0, 10.0);
        let y = random_labels(&mut rng, n);
        let preds: Vec<u8> = scores.iter().map(|&s| u8::from(s >= 0.0)).collect();
        let f = macro_f1(&y, &preds);
        assert!((0.0..=1.0).contains(&f), "case {case}: macro_f1 {f}");
        let acc = accuracy(&y, &preds);
        assert!((0.0..=1.0).contains(&acc), "case {case}: accuracy {acc}");
        let a = roc_auc(&y, &scores);
        assert!((0.0..=1.0).contains(&a), "case {case}: auc {a}");
    }
}

/// AP@k never exceeds 1 and equals 1 when every top slot is relevant.
#[test]
fn average_precision_bounds() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 3);
        let n = rng.gen_range(1..60);
        let rel: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let k = rng.gen_range(1..80);
        let ap = average_precision_at_k(&rel, k);
        assert!((0.0..=1.0 + 1e-12).contains(&ap), "case {case}: ap {ap}");
        let all_true = vec![true; rel.len()];
        let perfect = average_precision_at_k(&all_true, k);
        assert!((perfect - 1.0).abs() < 1e-12, "case {case}: {perfect}");
    }
}

/// Row softmax always yields a probability simplex.
#[test]
fn softmax_simplex() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 4);
        let cols = 3;
        let rows = rng.gen_range(2..8);
        let m = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-50.0..50.0));
        let s = m.softmax_rows();
        for r in 0..rows {
            let sum: f64 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "case {case} row {r}: sum {sum}");
            assert!(s.row(r).iter().all(|&v| v >= 0.0));
        }
    }
}

/// Attention weights form a simplex for arbitrary inputs.
#[test]
fn attention_simplex() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 5);
        let seed = rng.gen_range(0..1000u64);
        let k = rng.gen_range(1..6);
        let mut att = ExogenousAttention::new(4, 4, 8, seed);
        let xt = Matrix::xavier_seeded(1, 4, seed ^ 1).scaled(5.0);
        let xn = Matrix::xavier_seeded(k, 4, seed ^ 2).scaled(5.0);
        let _ = att.forward(&xt, &xn);
        let w = att.attention_weights().expect("weights cached by forward");
        assert_eq!(w.cols(), k, "case {case}: one weight per news item");
        let sum: f64 = w.row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "case {case}: {sum}");
        assert!(w.row(0).iter().all(|&v| v >= 0.0), "case {case}");
    }
}

/// Weighted BCE is non-negative and finite for any logits.
#[test]
fn bce_nonnegative() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 6);
        let n = rng.gen_range(1..30);
        let logits = random_scores(&mut rng, n, -100.0, 100.0);
        let w = rng.gen_range(1.0..20.0);
        let z = Matrix::from_vec(1, n, logits);
        let t = Matrix::from_fn(1, n, |_, c| (c % 2) as f64);
        let bce = WeightedBce { pos_weight: w };
        let loss = bce.loss(&z, &t);
        assert!(loss.is_finite(), "case {case}: loss {loss}");
        assert!(loss >= 0.0, "case {case}: loss {loss}");
    }
}

/// Generated graphs never contain self-loops or duplicate follows.
#[test]
fn graph_invariants() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 7);
        let n = rng.gen_range(10..120);
        let m = rng.gen_range(1..8);
        let comms = rng.gen_range(1..6);
        let seed = rng.gen_range(0..500u64);
        let g = FollowerGraph::generate(n, m, comms, 0.8, seed);
        assert_eq!(g.n_users(), n);
        for v in 0..n {
            let fs = g.followees(v);
            assert!(!fs.contains(&(v as u32)), "case {case}: self-loop at {v}");
            let mut sorted = fs.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), fs.len(), "case {case}: duplicate follow");
        }
    }
}

/// Downsampling always keeps every minority sample and balances.
#[test]
fn downsample_balances() {
    let mut accepted = 0usize;
    let mut case = 0usize;
    while accepted < CASES {
        let mut rng = rng_for(case, 8);
        case += 1;
        let n = rng.gen_range(10..200);
        let labels = random_labels(&mut rng, n);
        let seed = rng.gen_range(0..100u64);
        if !labels.iter().any(|&l| l == 1) || !labels.iter().any(|&l| l == 0) {
            continue; // degenerate draw, mirrors prop_assume!
        }
        accepted += 1;
        let x: Vec<Vec<f64>> = (0..labels.len()).map(|i| vec![i as f64]).collect();
        let (_, ys) = ml::sampling::downsample_majority(&x, &labels, 1.0, seed);
        let pos = ys.iter().filter(|&&l| l == 1).count();
        let neg = ys.len() - pos;
        let min_class = labels
            .iter()
            .filter(|&&l| l == 1)
            .count()
            .min(labels.iter().filter(|&&l| l == 0).count());
        assert_eq!(pos.min(neg), min_class, "case {case}");
        assert!((pos as i64 - neg as i64).abs() <= 1, "case {case}");
    }
}

/// Lexicon counting never exceeds the token count and is case-insensitive.
#[test]
fn lexicon_counts_bounded() {
    for case in 0..CASES {
        let mut rng = rng_for(case, 9);
        let n = rng.gen_range(1..40);
        let words: Vec<String> = (0..n)
            .map(|_| {
                let len = rng.gen_range(1..=6);
                (0..len)
                    .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                    .collect()
            })
            .collect();
        let lex = HateLexicon::new(&words[..words.len().min(5)]);
        let counts = lex.count_vector(&words);
        let total: u32 = counts.iter().sum();
        assert!(total as usize <= words.len(), "case {case}");
        let upper: Vec<String> = words.iter().map(|t| t.to_uppercase()).collect();
        assert_eq!(lex.count_vector(&upper), counts, "case {case}");
    }
}

/// Tokenizer output is always lowercase and non-empty tokens only.
#[test]
fn tokenizer_invariants() {
    // Printable-ASCII plus some unicode and control characters, random
    // lengths up to 200 — the same space ".{0,200}" explored before.
    let alphabet: Vec<char> = (' '..='~')
        .chain(['é', 'Ω', '中', '\t', '\n', '#', '@', '🙂'])
        .collect();
    for case in 0..CASES {
        let mut rng = rng_for(case, 10);
        let len = rng.gen_range(0..=200usize);
        let input: String = (0..len)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect();
        for tok in text::tokenize(&input) {
            assert!(!tok.is_empty(), "case {case}: empty token");
            assert_eq!(tok.to_lowercase(), tok, "case {case}: token not lowercase");
        }
    }
}
