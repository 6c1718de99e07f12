//! Parity suite for the blocked/parallel matmul kernels.
//!
//! The kernels in `nn::tensor` (KERNEL_BLOCK unrolling, K-tiling, the
//! exact-zero skip, and `nn::par` row partitioning) promise **bit
//! identity** with the textbook triple loop for every shape, every
//! thread count and both scalar types. This suite holds them to it: a
//! naive reference is evaluated side by side over ragged shapes — 1×1,
//! single rows/cols, prime dimensions, and sizes straddling the 8-wide
//! block — at 1, 2, and 8 threads, at `T = f64` and `T = f32`,
//! comparing raw `data()` bits, not an epsilon.
//!
//! This is also the simd-on/simd-off identity proof: the CI matrix runs
//! the suite with and without `--features simd`, and both legs must
//! equal the *same* scalar reference — hence each other.

use nn::gradcheck::seq::check_recurrent_gradients;
use nn::tensor::{Matrix, Scalar};
use nn::{Gru, Lstm};

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
/// ascending — the contract A12 relies on when it exempts the blessed
/// `*_rows`/`*_into` kernels from the reduction inventory.
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

/// Bit identity of all three kernels against the naive loops, across
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

            let at = fill_as(k, m, 3, narrow);
            assert_eq!(
                at.t_matmul(&b).data(),
                naive_t_matmul(&at, &b).data(),
                "t_matmul {m}x{k}x{n} at {threads} threads"
            );

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
fn repeated_forward_through_reused_scratch_is_bit_identical() {
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
fn gru_gradcheck_through_scratch_buffers() {
    let mut gru = Gru::new(3, 4, 21);
    let xs: Vec<Matrix> = (0..3)
        .map(|i| Matrix::xavier_seeded(2, 3, 70 + i).scaled(2.0))
        .collect();
    // Warm the scratch buffers first so the checked passes run through
    // recycled allocations, not fresh zeroed ones.
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
fn lstm_gradcheck_through_scratch_buffers() {
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
