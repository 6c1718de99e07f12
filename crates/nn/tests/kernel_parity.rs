//! Parity suite for the blocked/parallel matmul kernel.
//!
//! The three products in `nn::tensor` (`matmul`, and `t_matmul` and
//! `matmul_t` through a transposed operand) run one kernel, whose
//! KERNEL_BLOCK unrolling, K-tiling, exact-zero skip and `nn::par` row
//! partitioning promise **bit identity** with the textbook triple loop
//! for every shape, every thread count and both scalar types. This
//! suite holds them to it: a naive reference is evaluated side by side
//! over ragged shapes — 1×1, single rows/cols, prime dimensions, and
//! sizes straddling the 8-wide block — and the transposed products'
//! production shapes, at 1, 2, and 8 threads, at `T = f64` and
//! `T = f32`, comparing raw `data()` bits, not an epsilon.
//!
//! The kernel runs on whichever leg `nn::tensor` dispatches to: the
//! AVX2 clone on an x86_64 CPU that has it, the portable kernel
//! elsewhere. Either leg must equal the *same* scalar reference here;
//! `tensor.rs`'s `dispatch_is_bit_identical_to_the_portable_kernels`
//! compares the two legs with each other on the host that runs it.

use nn::gradcheck::check_gradients;
use nn::gradcheck::seq::check_recurrent_gradients;
use nn::tensor::{Matrix, Scalar};
use nn::{Dense, Gru, Lstm, Param, SimpleRnn, SparseRow, Standardization};

fn naive_matmul<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = T::ZERO;
        for k in 0..a.cols() {
            acc += a.get(i, k) * b.get(k, j);
        }
        acc
    })
}

fn naive_t_matmul<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    Matrix::from_fn(a.cols(), b.cols(), |i, j| {
        let mut acc = T::ZERO;
        for k in 0..a.rows() {
            acc += a.get(k, i) * b.get(k, j);
        }
        acc
    })
}

fn naive_matmul_t<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    Matrix::from_fn(a.rows(), b.rows(), |i, j| {
        let mut acc = T::ZERO;
        for k in 0..a.cols() {
            acc += a.get(i, k) * b.get(j, k);
        }
        acc
    })
}

/// Dense-ish deterministic fill with exact zeros sprinkled in so the
/// kernels' zero-skip fast path is exercised, not just dense math.
fn fill(rows: usize, cols: usize, salt: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let h = (i as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(j as u64)
            .wrapping_mul(1442695040888963407)
            .wrapping_add(salt);
        if h % 5 == 0 {
            0.0
        } else {
            ((h >> 16) % 2048) as f64 / 407.0 - 2.5
        }
    })
}

/// `fill` at either width: f32 inputs are the narrowed f64 fill.
fn fill_as<T: Scalar>(
    rows: usize,
    cols: usize,
    salt: u64,
    narrow: fn(&Matrix) -> Matrix<T>,
) -> Matrix<T> {
    narrow(&fill(rows, cols, salt))
}

/// Ragged shapes (m, k, n): degenerate, prime, block-straddling, and one
/// large enough (m·k·n ≥ 2²¹ flops) to actually cross the parallel
/// threshold so multi-thread runs really split rows.
const SHAPES: [(usize, usize, usize); 10] = [
    (1, 1, 1),
    (1, 7, 1),
    (1, 8, 9),
    (5, 13, 3),
    (3, 8, 2),
    (4, 9, 5),
    (2, 16, 3),
    (6, 17, 7),
    (9, 33, 8),
    (130, 129, 131),
];

/// The documented accumulation order of `mm_rows`, re-implemented
/// literally: the reduction dimension is visited in tiles of 32
/// (mirroring tensor.rs's private `K_TILE`), within each tile the
/// `KERNEL_BLOCK`-wide unrolled block adds its partial products
/// sequentially in ascending `k`, and the remainder loop finishes the
/// tile one term at a time. Per output element this is exactly `k`
/// ascending, the order of the naive loop.
fn reference_tiled_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    const K_TILE: usize = 32;
    let block = nn::tensor::KERNEL_BLOCK;
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = 0.0;
        let kk = a.cols();
        let mut k0 = 0;
        while k0 < kk {
            let k_end = (k0 + K_TILE).min(kk);
            let mut k = k0;
            while k + block <= k_end {
                for u in 0..block {
                    acc += a.get(i, k + u) * b.get(k + u, j);
                }
                k += block;
            }
            while k < k_end {
                acc += a.get(i, k) * b.get(k, j);
                k += 1;
            }
            k0 = k_end;
        }
        acc
    })
}

#[test]
fn blocked_matmul_summation_order_is_pinned_to_the_documented_reference() {
    // Bit identity against the explicit tile/unroll sequence — any
    // reordering of the blocked kernel's accumulation (a changed tile
    // width is fine, a changed per-element order is not) fails here
    // before it shows up as a one-ulp drift in a model test.
    for &(m, k, n) in &SHAPES {
        let a = fill(m, k, 11);
        let b = fill(k, n, 23);
        let got = a.matmul(&b);
        let want = reference_tiled_matmul(&a, &b);
        assert_eq!(got.data(), want.data(), "order drifted at {m}x{k}x{n}");
    }
}

/// The `a·bᵀ` shapes RETINA runs, as `(m, k, n)` for an `m×k · (n×k)ᵀ`
/// product: the GRU backward's per-step input gradient, one attention
/// query over 60 headlines, the user layer's dense input gradient, and a
/// 960-row batch through a 64-wide weight.
const MATMUL_T_SHAPES: [(usize, usize, usize); 4] =
    [(30, 64, 64), (1, 64, 60), (28, 64, 1062), (960, 64, 64)];

/// The weight-gradient shape RETINA runs, as `(m, k, n)` for a
/// `(k×m)ᵀ · k×n` product: `(30×64)ᵀ · 30×192`.
const T_MATMUL_SHAPES: [(usize, usize, usize); 1] = [(64, 30, 192)];

/// Bit identity of all three products against the naive loops, across
/// thread counts.
fn kernels_match_naive_across_thread_counts<T: Scalar>(narrow: fn(&Matrix) -> Matrix<T>) {
    for threads in [1usize, 2, 8] {
        nn::par::set_threads(threads);
        for &(m, k, n) in &SHAPES {
            let a = fill_as(m, k, 1, narrow);
            let b = fill_as(k, n, 2, narrow);
            assert_eq!(
                a.matmul(&b).data(),
                naive_matmul(&a, &b).data(),
                "matmul {m}x{k}x{n} at {threads} threads"
            );
        }
        for &(m, k, n) in SHAPES.iter().chain(&T_MATMUL_SHAPES) {
            let at = fill_as(k, m, 3, narrow);
            let b = fill_as(k, n, 2, narrow);
            assert_eq!(
                at.t_matmul(&b).data(),
                naive_t_matmul(&at, &b).data(),
                "t_matmul {m}x{k}x{n} at {threads} threads"
            );
        }
        for &(m, k, n) in SHAPES.iter().chain(&MATMUL_T_SHAPES) {
            let a = fill_as(m, k, 1, narrow);
            let bt = fill_as(n, k, 4, narrow);
            assert_eq!(
                a.matmul_t(&bt).data(),
                naive_matmul_t(&a, &bt).data(),
                "matmul_t {m}x{k}x{n} at {threads} threads"
            );
        }
    }
    nn::par::set_threads(1);
}

/// The same `out` is recycled across every shape; stale contents and
/// capacity from the previous (larger or smaller) product must never
/// leak into the next result.
fn into_variants_reuse_buffers<T: Scalar>(narrow: fn(&Matrix) -> Matrix<T>) {
    let mut out = Matrix::zeros(0, 0);
    for &(m, k, n) in &SHAPES {
        let a = fill_as(m, k, 5, narrow);
        let b = fill_as(k, n, 6, narrow);
        a.matmul_into(&b, &mut out);
        assert_eq!(
            out.data(),
            naive_matmul(&a, &b).data(),
            "matmul_into {m}x{k}x{n}"
        );
        let at = fill_as(k, m, 7, narrow);
        at.t_matmul_into(&b, &mut out);
        assert_eq!(
            out.data(),
            naive_t_matmul(&at, &b).data(),
            "t_matmul_into {m}x{k}x{n}"
        );
        let bt = fill_as(n, k, 8, narrow);
        a.matmul_t_into(&bt, &mut out);
        assert_eq!(
            out.data(),
            naive_matmul_t(&a, &bt).data(),
            "matmul_t_into {m}x{k}x{n}"
        );
    }
}

#[test]
fn kernels_match_naive_bitwise_across_thread_counts() {
    kernels_match_naive_across_thread_counts(Matrix::clone);
}

#[test]
fn f32_kernels_match_naive_bitwise_across_thread_counts() {
    kernels_match_naive_across_thread_counts(Matrix::<f32>::from_f64);
}

#[test]
fn into_variants_reuse_buffers_without_changing_bits() {
    into_variants_reuse_buffers(Matrix::clone);
}

#[test]
fn f32_into_variants_reuse_buffers_without_changing_bits() {
    into_variants_reuse_buffers(Matrix::<f32>::from_f64);
}

fn stable_on_reuse<T: Scalar, L>(
    what: &str,
    layer: &mut L,
    xs: &[Matrix<T>],
    mut forward: impl FnMut(&mut L, &[Matrix<T>]) -> Vec<Matrix<T>>,
) {
    let first = forward(layer, xs);
    for _ in 0..3 {
        let again = forward(layer, xs);
        for (t, (y0, y1)) in first.iter().zip(&again).enumerate() {
            assert_eq!(y0.data(), y1.data(), "{what} step {t} drifted on reuse");
        }
    }
}

#[test]
fn repeated_forward_through_a_reused_cache_is_bit_identical() {
    let xs: Vec<Matrix> = (0..4).map(|t| fill(3, 5, 100 + t)).collect();
    let xs32: Vec<Matrix<f32>> = xs.iter().map(Matrix::from_f64).collect();
    let (gru, lstm) = (Gru::new(5, 6, 9), Lstm::new(5, 6, 9));
    stable_on_reuse("GRU", &mut gru.clone(), &xs, |l, xs| l.forward(xs).to_vec());
    stable_on_reuse("GRU f32", &mut gru.to_f32(), &xs32, |l, xs| {
        l.forward(xs).to_vec()
    });
    stable_on_reuse("LSTM", &mut lstm.clone(), &xs, |l, xs| {
        l.forward(xs).to_vec()
    });
    stable_on_reuse("LSTM f32", &mut lstm.to_f32(), &xs32, |l, xs| {
        l.forward(xs).to_vec()
    });
}

/// The forward surface the three recurrent cells share, at either width.
trait Recurrent<T: Scalar>: Clone {
    fn sequence(&mut self, xs: &[Matrix<T>]) -> Vec<Matrix<T>>;
    fn repeated(&mut self, x: &Matrix<T>, steps: usize) -> Vec<Matrix<T>>;
}

/// Their training surface (`f64` only).
trait Trainable: Recurrent<f64> {
    type Narrow: Recurrent<f32>;
    fn bptt(&mut self, grad_hs: &[Matrix]) -> Vec<Matrix>;
    fn grads(&mut self) -> Vec<&mut Param>;
    fn narrow(&self) -> Self::Narrow;
}

macro_rules! recurrent {
    ($($cell:ident),*) => {$(
        impl<T: Scalar> Recurrent<T> for $cell<T> {
            fn sequence(&mut self, xs: &[Matrix<T>]) -> Vec<Matrix<T>> {
                self.forward(xs).to_vec()
            }
            fn repeated(&mut self, x: &Matrix<T>, steps: usize) -> Vec<Matrix<T>> {
                self.forward_repeated(x, steps).to_vec()
            }
        }
        impl Trainable for $cell {
            type Narrow = $cell<f32>;
            fn bptt(&mut self, grad_hs: &[Matrix]) -> Vec<Matrix> {
                self.backward(grad_hs)
            }
            fn grads(&mut self) -> Vec<&mut Param> {
                self.params_mut()
            }
            fn narrow(&self) -> $cell<f32> {
                self.to_f32()
            }
        }
    )*};
}
recurrent!(Gru, Lstm, SimpleRnn);

/// FNV-1a over the bits of every element of `ms`, in order, from `h`.
fn fnv<'a>(mut h: u64, ms: impl IntoIterator<Item = &'a Matrix>) -> u64 {
    for b in ms
        .into_iter()
        .flat_map(|m| m.data())
        .flat_map(|v| v.to_bits().to_le_bytes())
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One forward through either path: a 3-step sequence, or one input
/// repeated over 6 steps. `call` picks the inputs.
fn forward_path<T: Scalar>(
    cell: &mut impl Recurrent<T>,
    repeated: bool,
    (batch, d, call): (usize, usize, u64),
    narrow: fn(&Matrix) -> Matrix<T>,
) -> Vec<Matrix<T>> {
    if repeated {
        cell.repeated(&fill_as(batch, d, 600 + call, narrow), 6)
    } else {
        let xs: Vec<Matrix<T>> = (0..3)
            .map(|t| fill_as(batch, d, 610 + 10 * call + t, narrow))
            .collect();
        cell.sequence(&xs)
    }
}

/// Per path, two accumulating forward+backward calls on one layer, so
/// the second call overwrites the first call's cache. Hashes each
/// call's hidden states and returned input gradients and the
/// `to_f32()` replica's hidden states on the same inputs, then every
/// parameter gradient.
fn recurrent_hash(cell: &impl Trainable, batch: usize, d: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for repeated in [false, true] {
        let (mut layer, mut replica) = (cell.clone(), cell.narrow());
        for call in 0..2u64 {
            let hs = forward_path(&mut layer, repeated, (batch, d, call), Matrix::clone);
            let grad_hs: Vec<Matrix> = (0u64..)
                .zip(&hs)
                .map(|(t, m)| fill(m.rows(), m.cols(), 700 + 10 * call + t))
                .collect();
            let dxs = layer.bptt(&grad_hs);
            let hs32 = forward_path(&mut replica, repeated, (batch, d, call), Matrix::from_f64);
            let wide: Vec<Matrix> = hs32.iter().map(Matrix::to_f64).collect();
            h = fnv(h, hs.iter().chain(&dxs).chain(&wide));
        }
        h = fnv(h, layer.grads().into_iter().map(|p| &p.grad));
    }
    h
}

#[test]
fn recurrent_states_and_gradients_are_pinned() {
    // Inputs and upstream gradients come from `fill`, exact zeros
    // included. One shape has batch 1; the other a hidden size that is
    // not a multiple of the kernel block.
    for ((batch, d, hidden), want) in [
        (
            (1, 9, 16),
            [
                0xeea9_7c20_3906_b72au64,
                0x3416_a75e_05c7_b778,
                0x2be6_031d_39b7_327c,
            ],
        ),
        (
            (5, 7, 13),
            [
                0x930d_ce4a_01ea_12a1,
                0x5cce_9125_a148_a361,
                0xce28_7f87_a6cc_5c6c,
            ],
        ),
    ] {
        let got = [
            recurrent_hash(&Gru::new(d, hidden, 51), batch, d),
            recurrent_hash(&Lstm::new(d, hidden, 52), batch, d),
            recurrent_hash(&SimpleRnn::new(d, hidden, 53), batch, d),
        ];
        assert_eq!(
            got, want,
            "GRU, LSTM, RNN at batch {batch}, in {d}, hidden {hidden}: {got:#018x?}"
        );
    }
}

/// `forward_repeated(x, T)` projects `x` once and runs the sequence
/// forward's step body, so it must equal `forward` on `T` clones of `x`
/// bit for bit, on a fresh and on a reused cache.
fn repeated_forward_matches_clones<T: Scalar>(what: &str, cell: &impl Recurrent<T>, x: &Matrix<T>) {
    for steps in [1, 6] {
        let want = cell.clone().sequence(&vec![x.clone(); steps]);
        let mut reused = cell.clone();
        for pass in 0..2 {
            let got = reused.repeated(x, steps);
            assert_eq!(got.len(), steps);
            for (t, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(w.data(), g.data(), "{what} T={steps} step {t} pass {pass}");
            }
        }
    }
}

#[test]
fn repeated_input_forward_matches_the_sequence_forward_on_clones() {
    let x = fill(3, 5, 200);
    let x32 = Matrix::<f32>::from_f64(&x);
    let (gru, lstm, rnn) = (
        Gru::new(5, 6, 9),
        Lstm::new(5, 6, 9),
        SimpleRnn::new(5, 6, 9),
    );
    repeated_forward_matches_clones("GRU", &gru, &x);
    repeated_forward_matches_clones("LSTM", &lstm, &x);
    repeated_forward_matches_clones("RNN", &rnn, &x);
    repeated_forward_matches_clones("GRU f32", &gru.to_f32(), &x32);
    repeated_forward_matches_clones("LSTM f32", &lstm.to_f32(), &x32);
    repeated_forward_matches_clones("RNN f32", &rnn.to_f32(), &x32);
}

/// Finite differences against the collapsed backward of the repeated
/// path, with respect to `x` and every parameter.
fn gradcheck_repeated(what: &str, cell: &impl Trainable) {
    let x = Matrix::xavier_seeded(2, 3, 90).scaled(2.0);
    for steps in [1, 6] {
        eprintln!("{what}: T={steps}");
        check_recurrent_gradients(
            std::slice::from_ref(&x),
            |l, seq| l.repeated(&seq[0], steps),
            |l, g| l.bptt(g),
            |l| l.grads(),
            &mut cell.clone(),
            1e-6,
            1e-5,
        );
    }
}

#[test]
fn repeated_input_backward_passes_gradcheck() {
    gradcheck_repeated("GRU", &Gru::new(3, 4, 23));
    gradcheck_repeated("LSTM", &Lstm::new(3, 4, 24));
    gradcheck_repeated("RNN", &SimpleRnn::new(3, 4, 25));
}

/// `‖got − want‖∞ ≤ 1e-12·‖want‖∞`.
fn assert_close(what: &str, want: &Matrix, got: &Matrix) {
    let norm = |m: &Matrix| m.data().iter().fold(0.0f64, |a, v| a.max(v.abs()));
    let gap = norm(&want.sub(got));
    assert!(
        gap <= 1e-12 * norm(want),
        "{what}: ‖Δ‖∞ = {gap:e} against ‖ref‖∞ = {:e}",
        norm(want)
    );
}

/// The collapsed backward regroups the per-step input terms, so against
/// the sequence backward on `T` clones (with `dx` summed over the steps)
/// every gradient agrees to rounding.
fn collapsed_matches_per_step(what: &str, cell: &impl Trainable) {
    let x = fill(5, 7, 300);
    for steps in [1, 6] {
        let grad_hs: Vec<Matrix> = (0..steps).map(|t| fill(5, 4, 400 + t as u64)).collect();
        let mut per_step = cell.clone();
        let _ = per_step.sequence(&vec![x.clone(); steps]);
        let dxs = per_step.bptt(&grad_hs);
        let mut want_dx = dxs[0].clone();
        for d in &dxs[1..] {
            want_dx.add_assign(d);
        }
        let mut collapsed = cell.clone();
        let _ = collapsed.repeated(&x, steps);
        let got_dx = collapsed.bptt(&grad_hs);
        assert_eq!(got_dx.len(), 1, "{what}: one input, one gradient");
        assert_close(&format!("{what} T={steps} dx"), &want_dx, &got_dx[0]);
        for (i, (w, g)) in per_step.grads().iter().zip(collapsed.grads()).enumerate() {
            assert_close(&format!("{what} T={steps} param {i}"), &w.grad, &g.grad);
        }
    }
}

#[test]
fn collapsed_backward_matches_the_per_step_backward_on_clones() {
    collapsed_matches_per_step("GRU", &Gru::new(7, 4, 26));
    collapsed_matches_per_step("LSTM", &Lstm::new(7, 4, 27));
    collapsed_matches_per_step("RNN", &SimpleRnn::new(7, 4, 28));
}

/// Tolerance contract of the f32 tier against f64 (DESIGN.md §13).
///
/// Inputs are narrowed to f32 and then widened back, so both kernels
/// see *identical* values and the measured gap is pure accumulation
/// error: per output element, `k` sequential f32 rounding steps, each
/// bounded by relative 2⁻²³ ≈ 1.2e-7. For the largest shape here
/// (k = 131) the worst case is ≈ 1.6e-5 relative; 1e-4 leaves margin
/// without masking a broken kernel.
#[test]
fn f32_kernels_track_f64_within_documented_relative_error() {
    const REL_TOL: f64 = 1e-4;
    for &(m, k, n) in &SHAPES {
        let a32 = Matrix::<f32>::from_f64(&fill(m, k, 7));
        let b32 = Matrix::<f32>::from_f64(&fill(k, n, 8));
        // Widen exactly: the f64 reference runs on the f32-rounded values.
        let a64 = a32.to_f64();
        let b64 = b32.to_f64();
        let want = naive_matmul(&a64, &b64);
        let got = a32.matmul(&b32);
        for i in 0..m {
            for j in 0..n {
                let w = want.get(i, j);
                let g = f64::from(got.get(i, j));
                let scale = w.abs().max(1.0);
                assert!(
                    (w - g).abs() / scale <= REL_TOL,
                    "f32 matmul {m}x{k}x{n} at ({i},{j}): {w} vs {g}"
                );
            }
        }
    }
}

#[test]
fn gru_gradcheck_through_a_warm_cache() {
    let mut gru = Gru::new(3, 4, 21);
    let xs: Vec<Matrix> = (0..3)
        .map(|i| Matrix::xavier_seeded(2, 3, 70 + i).scaled(2.0))
        .collect();
    // Warm the cache first so the checked passes overwrite a previous
    // call's activations, not fresh zeroed ones.
    let _ = gru.forward(&xs);
    check_recurrent_gradients(
        &xs,
        |l: &mut Gru, seq| l.forward(seq).to_vec(),
        |l, g| l.backward(g),
        |l| l.params_mut(),
        &mut gru,
        1e-6,
        1e-5,
    );
}

#[test]
fn lstm_gradcheck_through_a_warm_cache() {
    let mut lstm = Lstm::new(3, 4, 22);
    let xs: Vec<Matrix> = (0..3)
        .map(|i| Matrix::xavier_seeded(2, 3, 80 + i).scaled(2.0))
        .collect();
    let _ = lstm.forward(&xs);
    check_recurrent_gradients(
        &xs,
        |l: &mut Lstm, seq| l.forward(seq).to_vec(),
        |l, g| l.backward(g),
        |l| l.params_mut(),
        &mut lstm,
        1e-6,
        1e-5,
    );
}

/// The folded user layer's fixture, `(v, means, stds)`: seven sparse
/// rows over 19 columns standardized by statistics that cover every
/// case the fold must get right.
/// - Column 0 is constant (0.2, fitted as μ = 0.2, σ = 1).
/// - Column 1 has `|μ| > σ` (values near 5), so it stays centred.
/// - Column 2 is a near-zero-σ column as the old scaler fitted it:
///   every value 0.2, μ off by the summation error, σ = 1e-14·|μ|.
/// - Column 3 is all zeros.
/// - Row 4 stores nothing at all; the rest come from `fill`, about a
///   fifth of them exact zeros.
fn fold_fixture() -> (Matrix, Vec<f64>, Vec<f64>) {
    let (n, d) = (7, 19);
    let mut v = fill(n, d, 500);
    for r in 0..n {
        v.set(r, 0, 0.2);
        v.set(r, 1, 5.0 + 0.1 * (r % 3) as f64);
        v.set(r, 2, 0.2);
        v.set(r, 3, 0.0);
    }
    for c in 0..d {
        v.set(4, c, 0.0);
    }
    let mut means: Vec<f64> = (0..d)
        .map(|c| (0..n).map(|r| v.get(r, c)).sum::<f64>() / n as f64)
        .collect();
    let mut stds: Vec<f64> = (0..d)
        .map(|c| {
            let var = (0..n)
                .map(|r| (v.get(r, c) - means[c]).powi(2))
                .sum::<f64>()
                / n as f64;
            if var > 0.0 {
                var.sqrt()
            } else {
                1.0
            }
        })
        .collect();
    (means[0], stds[0]) = (0.2, 1.0);
    (means[1], stds[1]) = (5.1, 0.08);
    means[2] = 0.200_000_000_000_028_35;
    stds[2] = 1e-14 * means[2];
    (means[3], stds[3]) = (0.0, 1.0);
    (v, means, stds)
}

fn sparse_rows(v: &Matrix) -> Vec<SparseRow> {
    (0..v.rows())
        .map(|r| SparseRow::from_dense(v.row(r)))
        .collect()
}

/// The dense scaled reference input, `x = (v − μ)/σ`.
fn standardized(v: &Matrix, means: &[f64], stds: &[f64]) -> Matrix {
    Matrix::from_fn(v.rows(), v.cols(), |r, c| {
        (v.get(r, c) - means[c]) / stds[c]
    })
}

/// Every row within `1e-12` of its own max norm: the all-zero row's
/// `(0 − μ)/σ` on the near-zero-σ column is ≈1e14, which would swamp a
/// whole-matrix norm.
fn assert_rows_close(what: &str, want: &Matrix, got: &Matrix) {
    assert_eq!(
        (want.rows(), want.cols()),
        (got.rows(), got.cols()),
        "{what}"
    );
    for r in 0..want.rows() {
        let norm = want.row(r).iter().fold(0.0f64, |a, v| a.max(v.abs()));
        let gap = want
            .row(r)
            .iter()
            .zip(got.row(r))
            .fold(0.0f64, |a, (w, g)| a.max((w - g).abs()));
        assert!(
            gap <= 1e-12 * norm,
            "{what} row {r}: ‖Δ‖∞ = {gap:e} against ‖ref‖∞ = {norm:e}"
        );
    }
}

fn folded_forward<T: Scalar>(
    layer: &Dense<T>,
    rows: &[SparseRow],
    scale: Option<&Standardization>,
) -> Matrix<T> {
    let mut out = Matrix::from_fn(3, 3, |_, _| T::from_f64(9.0));
    layer.forward_sparse_into(rows, scale, &mut out);
    out
}

#[test]
fn folded_forward_matches_the_dense_scaled_reference() {
    let (v, means, stds) = fold_fixture();
    let scale = Standardization::new(&means, &stds);
    assert_eq!(
        scale.centred().collect::<Vec<_>>(),
        vec![1, 2],
        "|μ| > σ columns stay centred"
    );
    let rows = sparse_rows(&v);
    let mut layer = Dense::new(19, 5, 31);
    layer.b.value = fill(1, 5, 32);
    let want = layer.forward(&standardized(&v, &means, &stds));
    let got = folded_forward(&layer, &rows, Some(&scale));
    assert_rows_close("f64 fold", &want, &got);

    // f32: the existing kernel contract, against an f64 reference over
    // the narrowed weights.
    let narrow = layer.to_f32();
    let mut wide = layer.clone();
    wide.w.value = narrow.w.value.to_f64();
    wide.b.value = narrow.b.value.to_f64();
    let want = wide.forward(&standardized(&v, &means, &stds));
    let got = folded_forward(&narrow, &rows, Some(&scale)).to_f64();
    for r in 0..want.rows() {
        for c in 0..want.cols() {
            let (w, g) = (want.get(r, c), got.get(r, c));
            assert!(
                (w - g).abs() / w.abs().max(1.0) <= 1e-4,
                "f32 fold at ({r},{c}): {w} vs {g}"
            );
        }
    }
}

#[test]
fn unscaled_sparse_forward_is_the_dense_forward_bit_for_bit() {
    let (v, ..) = fold_fixture();
    let rows = sparse_rows(&v);
    let mut layer = Dense::new(19, 5, 33);
    layer.b.value = fill(1, 5, 34);
    assert_eq!(folded_forward(&layer, &rows, None), layer.forward(&v));
    let narrow = layer.to_f32();
    let want = narrow.forward(&Matrix::<f32>::from_f64(&v));
    assert_eq!(folded_forward(&narrow, &rows, None), want);
}

#[test]
fn folded_backward_matches_the_dense_gradients() {
    let (v, means, stds) = fold_fixture();
    let scale = Standardization::new(&means, &stds);
    let rows = sparse_rows(&v);
    let g = fill(7, 5, 35);
    let x = standardized(&v, &means, &stds);
    for scaled in [true, false] {
        let mut layer = Dense::new(19, 5, 36);
        let s = scaled.then_some(&scale);
        layer.backward_params_sparse(&rows, s, &g);
        let input = if scaled { &x } else { &v };
        assert_rows_close(
            &format!("dW, scaled {scaled}"),
            &naive_t_matmul(input, &g),
            &layer.w.grad,
        );
        assert_rows_close(
            &format!("db, scaled {scaled}"),
            &g.sum_rows(),
            &layer.b.grad,
        );
    }
}

#[test]
fn folded_backward_passes_gradcheck() {
    // The rows that store something: the all-zero row's ≈1e14 input
    // would drown the finite differences of every other weight.
    let (v, means, stds) = fold_fixture();
    let scale = Standardization::new(&means, &stds);
    let rows: Vec<SparseRow> = sparse_rows(&v)
        .into_iter()
        .filter(|r| !r.values().is_empty())
        .collect();
    let mut layer = Dense::new(19, 4, 37);
    check_gradients(
        &Matrix::zeros(0, 0),
        |l: &mut Dense, _| folded_forward(l, &rows, Some(&scale)),
        |l, g| {
            l.backward_params_sparse(&rows, Some(&scale), g);
            Matrix::zeros(0, 0)
        },
        |l| l.params_mut(),
        &mut layer,
        1e-6,
        1e-6,
    );
}
