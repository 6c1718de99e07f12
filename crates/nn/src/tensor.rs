//! Dense row-major matrices (`batch × features`) — the only tensor shape
//! the RETINA models need; sequences are `Vec<Matrix>`.
//!
//! `Matrix<T>` is generic over the sealed [`Scalar`] trait: `f64` (the
//! default, so a bare `Matrix` is the training matrix) and `f32` (the
//! inference tier, built by narrowing a trained model once through
//! [`Matrix::from_f64`]). Every op has one body, compiled once per type,
//! so each type's summation order — and therefore its bits — is fixed by
//! that one body.
//!
//! ## Kernels
//!
//! The three matrix products (`matmul`, `t_matmul`, `matmul_t`) run on
//! one register-blocked kernel, `a · b`: `t_matmul` transposes `self`
//! and `matmul_t` transposes `other` first. The kernel unrolls the
//! reduction dimension by [`KERNEL_BLOCK`] while keeping the
//! *per-output-element accumulation order* exactly that of the naive
//! triple loop: within a block the partial products are added to the
//! accumulator one at a time, in index order, so rounding is unchanged
//! (Rust never reassociates float arithmetic). Large products are
//! additionally row-partitioned across worker threads via
//! [`crate::par`]; output rows are disjoint, so the thread count cannot
//! change any value — serial and parallel runs are bit-identical. See
//! DESIGN.md "Compute kernels".
//!
//! The inner loops run over the *output columns*: each lane of a vector
//! register holds an independent output element whose own accumulation
//! order is untouched, so the autovectorizer is free to emit SSE2 (the
//! portable kernel) or AVX2 (picked at run time on x86_64 CPUs that
//! have it) without changing results. No FMA is ever emitted from this
//! source (Rust does not contract `a*b + c`), which is what makes
//! scalar, SSE2 and AVX2 runs bit-equivalent.
//!
//! Every product has an `*_into` variant that reuses the caller's output
//! buffer, and [`MatrixPool`] provides a free-list of such buffers for
//! layer forward/backward passes; `t_matmul` and `matmul_t` allocate
//! their transposed operand once per call.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Reduction-dimension unroll factor of the blocked kernel. Parity
/// tests exercise shapes straddling this value.
pub const KERNEL_BLOCK: usize = 8;

/// Reduction-dimension tile length of the product kernel: the active
/// `b` panel (`K_TILE × b.cols` values) is reused across every output
/// row before the next tile is touched. A multiple of [`KERNEL_BLOCK`]
/// so only the final tile takes the scalar remainder path.
const K_TILE: usize = 32;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Element type of a [`Matrix`]: `f64` or `f32`, nothing else (the
/// trait is sealed). Carries just the arithmetic the ops need.
pub trait Scalar:
    sealed::Sealed
    + Copy
    + Default
    + PartialEq
    + PartialOrd
    + std::fmt::Debug
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + for<'a> Sum<&'a Self>
{
    const ZERO: Self;
    const ONE: Self;
    const NEG_INFINITY: Self;
    fn exp(self) -> Self;
    fn sqrt(self) -> Self;
    fn max(self, other: Self) -> Self;
    /// The precision boundary: identity at `f64`, round-to-nearest-even
    /// at `f32`. Weights cross it once when a trained model is narrowed,
    /// inputs once per request.
    fn from_f64(v: f64) -> Self;
    /// Exact widening to `f64`.
    fn to_f64(self) -> f64;
    /// Gate sigmoid of the recurrent layers.
    fn sigmoid(self) -> Self;
    /// Gate tanh of the recurrent layers.
    fn tanh(self) -> Self;
}

macro_rules! impl_scalar {
    ($t:ident, $($width_specific:tt)*) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const NEG_INFINITY: Self = $t::NEG_INFINITY;
            #[inline]
            fn exp(self) -> Self {
                $t::exp(self)
            }
            #[inline]
            fn sqrt(self) -> Self {
                $t::sqrt(self)
            }
            #[inline]
            fn max(self, other: Self) -> Self {
                $t::max(self, other)
            }
            $($width_specific)*
        }
    };
}

// The training width: libm `tanh` and the stable sigmoid.
impl_scalar! {
    f64,
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn sigmoid(self) -> Self {
        crate::activation::stable_sigmoid(self)
    }
    #[inline]
    fn tanh(self) -> Self {
        f64::tanh(self)
    }
}

// The inference width: gates go through the polynomial [`exp2_poly`]
// instead of scalar libm calls, so `map_assign` loops over them
// autovectorize. Its ≈2e-7 relative error sits three orders of
// magnitude inside the f32 tier's tolerance contract (DESIGN.md §13).
impl_scalar! {
    f32,
    #[inline]
    fn from_f64(v: f64) -> Self {
        // lint: allow(lossy-cast) deliberate f64→f32 narrowing at the inference-tier boundary; finite weights and scaled inputs are far inside f32 range
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    /// `σ(x) = 1/(1+e^{-x})` on `-|x|` (always-stable form), reflected
    /// for positive inputs. Branch arms are pure, so the autovectorizer
    /// turns the select into a blend.
    #[inline(always)]
    fn sigmoid(self) -> Self {
        let t = (-self.abs() * LOG2_E_F32).max(-126.0);
        let e = exp2_poly(t); // e^{-|x|} ∈ (0, 1]
        let s = e / (1.0 + e); // σ(-|x|)
        if self >= 0.0 {
            1.0 - s
        } else {
            s
        }
    }
    /// `tanh(|x|) = (e^{2|x|} − 1)/(e^{2|x|} + 1)`, sign restored with
    /// `copysign`.
    #[inline(always)]
    fn tanh(self) -> Self {
        let t = (2.0 * self.abs() * LOG2_E_F32).min(126.0);
        let e = exp2_poly(t); // e^{2|x|} ∈ [1, 2^126]
        let th = (e - 1.0) / (e + 1.0);
        th.copysign(self)
    }
}

const LOG2_E_F32: f32 = std::f32::consts::LOG2_E;

/// `2^t` over clamped inputs via exponent-bit assembly and a degree-6
/// polynomial for the fractional part — every operation is a plain IEEE
/// add/mul/convert, so loops over it autovectorize on bare SSE2 (no
/// `exp2f` libcall, no SSE4 `roundps`). Callers clamp `t` to
/// `[-126, 126]` so the assembled exponent stays normal.
///
/// Identical bits scalar or vectorized: per-lane IEEE mul/add/convert
/// round the same way, and Rust never contracts to FMA.
#[inline(always)]
fn exp2_poly(t: f32) -> f32 {
    // Round-to-nearest-even without `roundps`: adding 1.5·2²³ pushes the
    // fraction off the end of the f32 mantissa, the subtraction brings
    // back the rounded integer. Valid for |t| < 2²², far beyond the
    // clamped range.
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    let n_f = (t + MAGIC) - MAGIC;
    // Fractional part in [-0.5, 0.5], then the degree-6 Taylor of
    // 2^f = e^{f·ln2}: max relative error ≈ 2e-7 on the reduced
    // interval — below one f32 ulp of the final product.
    let f = t - n_f;
    let p = 1.540_353e-4_f32;
    let p = p * f + 1.333_355_8e-3;
    let p = p * f + 9.618_13e-3;
    let p = p * f + 5.550_411e-2;
    let p = p * f + 2.402_265_1e-1;
    let p = p * f + 6.931_472e-1;
    let p = p * f + 1.0;
    // lint: allow(lossy-cast) n_f is an exact small integer after the magic-constant round
    let n = n_f as i32;
    // 2^n assembled directly in the exponent field; n ∈ [-126, 126] keeps
    // the result normal on both ends.
    // lint: allow(lossy-cast) n+127 ∈ [1, 253] after the clamp, so the i32→u32 bit pattern is the intended exponent field
    let scale = f32::from_bits(((n + 127) << 23) as u32);
    p * scale
}

/// A dense row-major `rows × cols` matrix of `T` (`f64` unless stated).
/// The default is the empty `0 × 0` matrix.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix<T: Scalar = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Build from a closure over (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Build from a flat row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    /// Build from nested rows.
    pub fn from_rows(rows: &[Vec<T>]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat data access.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Flat mutable data access.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Reshape to `rows × cols`, zero-filled, keeping the allocation.
    pub fn resize_to(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, T::ZERO);
    }

    /// Reshape without zeroing — every element is about to be overwritten
    /// by a kernel, so stale contents are fine. Private on purpose.
    fn reshape_for_write(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, T::ZERO);
    }

    /// Become a copy of `other`, reusing the allocation.
    pub fn copy_from(&mut self, other: &Self) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Become a copy of `nrows` rows of `src` starting at row `r0`.
    pub fn copy_row_range_from(&mut self, src: &Self, r0: usize, nrows: usize) {
        assert!(r0 + nrows <= src.rows, "row range out of bounds");
        self.rows = nrows;
        self.cols = src.cols;
        self.data.clear();
        for r in r0..r0 + nrows {
            self.data.extend_from_slice(src.row(r));
        }
    }

    /// In-place `self[r] += src[r0 + r]` for every row of `self` — add a
    /// row range of a taller matrix with the same column count.
    pub fn add_assign_rows(&mut self, src: &Self, r0: usize) {
        assert_eq!(self.cols, src.cols, "add_assign_rows column mismatch");
        assert!(r0 + self.rows <= src.rows, "row range out of bounds");
        for r in 0..self.rows {
            for (a, &b) in self.row_mut(r).iter_mut().zip(src.row(r0 + r)) {
                *a += b;
            }
        }
    }

    /// Stack same-width matrices vertically into `out` (rows in item
    /// order), reusing `out`'s allocation.
    pub fn vstack_into(items: &[Self], out: &mut Self) {
        assert!(!items.is_empty(), "vstack needs at least one matrix");
        let cols = items[0].cols;
        assert!(
            items.iter().all(|m| m.cols == cols),
            "vstack width mismatch"
        );
        out.rows = items.iter().map(|m| m.rows).sum();
        out.cols = cols;
        out.data.clear();
        for m in items {
            out.data.extend_from_slice(&m.data);
        }
    }

    /// Matrix product `self (r×k) · other (k×c) -> (r×c)`.
    pub fn matmul(&self, other: &Self) -> Self {
        let mut out = Self::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-owned buffer (resized as needed).
    /// `out` must not alias `self` or `other`.
    pub fn matmul_into(&self, other: &Self, out: &mut Self) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let cols = other.cols;
        out.reshape_for_write(self.rows, cols);
        let workers = par_workers(self.rows, self.rows * self.cols * cols);
        crate::par::for_each_row_chunk(&mut out.data, cols, workers, |first_row, chunk| {
            run_kernel(self, other, first_row, chunk);
        });
    }

    /// `selfᵀ · other`.
    pub fn t_matmul(&self, other: &Self) -> Self {
        let mut out = Self::zeros(0, 0);
        self.t_matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::t_matmul`] into a caller-owned buffer (resized as
    /// needed). `out` must not alias `self` or `other`. Runs
    /// [`Matrix::matmul_into`] on `self`'s transpose, which sums each
    /// output element over `self`'s rows in ascending order, as the naive
    /// loop does.
    pub fn t_matmul_into(&self, other: &Self, out: &mut Self) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        self.transpose().matmul_into(other, out);
    }

    /// `self · otherᵀ`.
    pub fn matmul_t(&self, other: &Self) -> Self {
        let mut out = Self::zeros(0, 0);
        self.matmul_t_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_t`] into a caller-owned buffer (resized as
    /// needed). `out` must not alias `self` or `other`. Runs
    /// [`Matrix::matmul_into`] on `other`'s transpose: each output
    /// element is the dot product summed in ascending column order from
    /// `+0.0`, bit-equal to the naive loop whenever `other` is finite
    /// (the kernel's exact-zero skip drops only `±0 · other` terms).
    pub fn matmul_t_into(&self, other: &Self, out: &mut Self) {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        self.matmul_into(&other.transpose(), out);
    }

    /// Transpose. A transpose has no contiguous runs to `memcpy`, so the
    /// next best thing: scatter each source row down one output column
    /// with an incrementally stepped index, skipping the per-element
    /// bounds assert and offset multiply of [`Matrix::set`].
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        let rows = self.rows;
        let od = out.data_mut();
        // Row `r`'s last write lands at `r + (cols - 1) · rows`, inside
        // the `rows · cols` output.
        debug_assert_eq!(od.len(), rows * self.cols);
        for r in 0..rows {
            let mut idx = r;
            for &v in self.row(r) {
                od[idx] = v;
                idx += rows;
            }
        }
        out
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(T) -> T) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise map in place.
    pub fn map_assign(&mut self, f: impl Fn(T) -> T) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Elementwise combine with another same-shape matrix.
    pub fn zip(&self, other: &Self, f: impl Fn(T, T) -> T) -> Self {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise combine in place: `self[i] = f(self[i], other[i])`.
    pub fn zip_assign(&mut self, other: &Self, f: impl Fn(T, T) -> T) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = f(*a, b);
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// `self - other`.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Hadamard product.
    pub fn hadamard(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Self) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self -= other`.
    pub fn sub_assign(&mut self, other: &Self) {
        self.zip_assign(other, |a, b| a - b);
    }

    /// In-place Hadamard product.
    pub fn hadamard_assign(&mut self, other: &Self) {
        self.zip_assign(other, |a, b| a * b);
    }

    /// Scale all entries.
    pub fn scaled(&self, s: T) -> Self {
        self.map(|v| v * s)
    }

    /// Scale all entries in place.
    pub fn scale_assign(&mut self, s: T) {
        self.map_assign(|v| v * s);
    }

    /// Add a row-vector (1×cols broadcast) to every row.
    pub fn add_row_broadcast(&self, bias: &Self) -> Self {
        let mut out = self.clone();
        out.add_row_broadcast_assign(bias);
        out
    }

    /// In-place row-vector broadcast add.
    pub fn add_row_broadcast_assign(&mut self, bias: &Self) {
        assert_eq!(bias.rows, 1);
        assert_eq!(bias.cols, self.cols);
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
    }

    /// Sum over rows -> 1×cols (gradient of a broadcast bias).
    /// Accumulates rows in ascending order — a reduction, so it stays
    /// serial (see the determinism contract in [`crate::par`]).
    pub fn sum_rows(&self) -> Self {
        let mut out = Self::zeros(0, 0);
        self.sum_rows_into(&mut out);
        out
    }

    /// [`Matrix::sum_rows`] into a caller-owned buffer.
    pub fn sum_rows_into(&self, out: &mut Self) {
        out.resize_to(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Split columns: `self = [left | right]` with `left_cols` columns
    /// on the left.
    pub fn split_cols(&self, left_cols: usize) -> (Self, Self) {
        assert!(left_cols <= self.cols);
        let right_cols = self.cols - left_cols;
        let mut ldata = Vec::with_capacity(self.rows * left_cols);
        let mut rdata = Vec::with_capacity(self.rows * right_cols);
        for r in 0..self.rows {
            let (l, rt) = self.row(r).split_at(left_cols);
            ldata.extend_from_slice(l);
            rdata.extend_from_slice(rt);
        }
        (
            Self {
                rows: self.rows,
                cols: left_cols,
                data: ldata,
            },
            Self {
                rows: self.rows,
                cols: right_cols,
                data: rdata,
            },
        )
    }

    /// Row-wise softmax (each row sums to 1).
    pub fn softmax_rows(&self) -> Self {
        let mut out = self.clone();
        out.softmax_rows_assign();
        out
    }

    /// In-place row-wise softmax.
    pub fn softmax_rows_assign(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let max = row.iter().cloned().fold(T::NEG_INFINITY, T::max);
            let mut sum = T::ZERO;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> T {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> T {
        self.data.iter().map(|&v| v * v).sum::<T>().sqrt()
    }

    /// Fill with zeros (reuse allocation).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = T::ZERO);
    }
}

impl Matrix {
    /// Xavier/Glorot-uniform initialization: `U(±sqrt(6/(fan_in+fan_out)))`.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        let bound = (6.0 / (rows + cols).max(1) as f64).sqrt();
        Self::from_fn(rows, cols, |_, _| rng.gen_range(-bound..bound))
    }

    /// Xavier init from a seed (convenience).
    pub fn xavier_seeded(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::xavier(rows, cols, &mut rng)
    }
}

/// The f32 tier's precision boundary ([`Scalar::from_f64`] per element).
impl Matrix<f32> {
    /// Narrow an `f64` matrix to `f32` storage.
    pub fn from_f64(src: &Matrix) -> Self {
        Self {
            rows: src.rows,
            cols: src.cols,
            data: src.data.iter().map(|&v| f32::from_f64(v)).collect(),
        }
    }

    /// Widen back to `f64` (exact — every `f32` is representable).
    pub fn to_f64(&self) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| v.to_f64()).collect(),
        }
    }
}

/// Worker count for a product with `out_rows` output rows and `flops`
/// multiply-adds: serial below [`crate::par::MIN_PAR_FLOPS`] (thread
/// spawn would dominate), else the resolved thread knob. The partition
/// never changes results — only wall-clock (see [`crate::par`]).
fn par_workers(out_rows: usize, flops: usize) -> usize {
    if out_rows < 2 || flops < crate::par::MIN_PAR_FLOPS {
        1
    } else {
        crate::par::threads()
    }
}

/// Kernel dispatch. On an x86_64 CPU with AVX2 an AVX2 clone of the
/// *same source* runs; everywhere else the portable kernel runs (the
/// autovectorizer emits SSE2 for its column loops on x86_64). Both
/// paths execute the identical sequence of IEEE-754 operations per
/// output element, so they are bit-equivalent — pinned against each
/// other by `dispatch_is_bit_identical_to_the_portable_kernels` and
/// against a naive reference by kernel_parity.
fn run_kernel<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, first_row: usize, out_chunk: &mut [T]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was verified at runtime on the line
        // above; the target_feature clone has no other requirements.
        #[allow(unsafe_code)]
        unsafe {
            return simd::mm_rows_avx2(a, b, first_row, out_chunk);
        }
    }
    mm_rows(a, b, first_row, out_chunk);
}

/// AVX2 clone of [`mm_rows`]: the *same Rust source* compiled with
/// `#[target_feature(enable = "avx2")]` so LLVM's autovectorizer widens
/// the column loops to 256-bit lanes. AVX2 does not imply FMA here (the
/// feature set enables only `avx2`, and Rust never contracts `a*b + c`
/// on its own), so every per-element operation sequence — and therefore
/// every output bit — matches the portable kernel.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{Matrix, Scalar};

    #[target_feature(enable = "avx2")]
    pub fn mm_rows_avx2<T: Scalar>(
        a: &Matrix<T>,
        b: &Matrix<T>,
        first_row: usize,
        out_chunk: &mut [T],
    ) {
        super::mm_rows(a, b, first_row, out_chunk);
    }
}

/// The product kernel, `a · b`, for output rows `[first_row, first_row +
/// n)` where `n = out_chunk.len() / b.cols`. `#[inline(always)]` is what
/// lets the AVX2 clone compile its body with its wider target features.
///
/// Per output element the reduction runs over `k` ascending, with the
/// [`KERNEL_BLOCK`]-unrolled partial products added sequentially — the
/// exact accumulation order of the naive loop, so results are
/// bit-identical. The block-level sparsity skip only drops `a == 0`
/// terms, and adding `±0.0 · b` to an accumulator that started at `+0.0`
/// can never change its bits (for finite `b`), so the skip is
/// value-preserving too. The inner `j` loop walks the output row with
/// every operand a same-length slice — the shape the autovectorizer
/// turns into packed mul/add (lanes = independent output columns).
#[inline(always)]
fn mm_rows<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, first_row: usize, out_chunk: &mut [T]) {
    let cols = b.cols;
    let kk = a.cols;
    if cols == 0 {
        return;
    }
    let n_rows = out_chunk.len() / cols;
    debug_assert!(a.cols == b.rows && first_row + n_rows <= a.rows);
    out_chunk.fill(T::ZERO);
    // Tile the reduction dimension so the active `b` panel stays
    // cache-resident while it is reused across every output row. Tiles
    // are visited in ascending `k` order and each output element keeps a
    // running sum in `out`, so the per-element accumulation order is
    // still exactly `k` ascending.
    let mut k0 = 0;
    while k0 < kk {
        let k_end = (k0 + K_TILE).min(kk);
        for ri in 0..n_rows {
            let arow = a.row(first_row + ri);
            let out_row = &mut out_chunk[ri * cols..(ri + 1) * cols];
            let mut k = k0;
            while k + KERNEL_BLOCK <= k_end {
                let (v0, v1, v2, v3) = (arow[k], arow[k + 1], arow[k + 2], arow[k + 3]);
                let (v4, v5, v6, v7) = (arow[k + 4], arow[k + 5], arow[k + 6], arow[k + 7]);
                let z = T::ZERO;
                // Sparsity fast path: skip exact zeros only.
                let live_lo = v0 != z || v1 != z || v2 != z || v3 != z;
                let live_hi = v4 != z || v5 != z || v6 != z || v7 != z;
                if live_lo || live_hi {
                    let (b0, b1, b2, b3) = (b.row(k), b.row(k + 1), b.row(k + 2), b.row(k + 3));
                    let (b4, b5, b6, b7) = (b.row(k + 4), b.row(k + 5), b.row(k + 6), b.row(k + 7));
                    for ((((((((o, &w0), &w1), &w2), &w3), &w4), &w5), &w6), &w7) in out_row
                        .iter_mut()
                        .zip(b0)
                        .zip(b1)
                        .zip(b2)
                        .zip(b3)
                        .zip(b4)
                        .zip(b5)
                        .zip(b6)
                        .zip(b7)
                    {
                        let mut acc = *o;
                        acc += v0 * w0;
                        acc += v1 * w1;
                        acc += v2 * w2;
                        acc += v3 * w3;
                        acc += v4 * w4;
                        acc += v5 * w5;
                        acc += v6 * w6;
                        acc += v7 * w7;
                        *o = acc;
                    }
                }
                k += KERNEL_BLOCK;
            }
            while k < k_end {
                let v = arow[k];
                // Sparsity fast path: skip exact zeros only.
                if v != T::ZERO {
                    for (o, &w) in out_row.iter_mut().zip(b.row(k)) {
                        *o += v * w;
                    }
                }
                k += 1;
            }
        }
        k0 = k_end;
    }
}

/// A free-list of [`Matrix`] buffers for scratch reuse inside layer
/// forward/backward passes: `grab` a zeroed matrix of the shape you
/// need, `recycle` it (or a retired cache matrix) when done. Reuses
/// allocations, never affects values — a grabbed matrix is
/// indistinguishable from a fresh `Matrix::zeros`.
#[derive(Debug, Clone, Default)]
pub struct MatrixPool<T: Scalar = f64> {
    free: Vec<Matrix<T>>,
}

impl<T: Scalar> MatrixPool<T> {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed `rows × cols` matrix, reusing a recycled allocation when
    /// one is available.
    pub fn grab(&mut self, rows: usize, cols: usize) -> Matrix<T> {
        match self.free.pop() {
            Some(mut m) => {
                m.resize_to(rows, cols);
                m
            }
            None => Matrix::zeros(rows, cols),
        }
    }

    /// Return a buffer to the free list.
    pub fn recycle(&mut self, m: Matrix<T>) {
        self.free.push(m);
    }

    /// Number of buffers currently on the free list.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Whether the free list is empty.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_hand_example() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transposed_products_hand_examples() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]);
        assert_eq!(a.t_matmul(&b).data(), &[6., 8., 8., 10.]);
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(4, 3, vec![1., 0., 1., 0., 1., 1., 2., 2., 2., 1., 1., 0.]);
        assert_eq!(a.matmul_t(&b).data(), &[4., 5., 12., 3., 10., 11., 30., 9.]);
    }

    #[test]
    fn into_variants_reuse_buffers_and_resize() {
        let a = Matrix::xavier_seeded(5, 7, 1);
        let b = Matrix::xavier_seeded(7, 3, 2);
        // Start with a wrong-shaped, dirty buffer: results must not care.
        let mut out = Matrix::from_vec(2, 2, vec![9., 9., 9., 9.]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        a.t_matmul_into(&a, &mut out);
        assert_eq!(out, a.t_matmul(&a));
        a.matmul_t_into(&a, &mut out);
        assert_eq!(out, a.matmul_t(&a));
    }

    #[test]
    fn blocked_kernels_match_naive_reference_exactly() {
        // Shapes around the unroll block (KERNEL_BLOCK = 8), incl. primes.
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 5, 1),
            (3, 4, 5),
            (4, 7, 4),
            (5, 13, 3),
            (8, 8, 8),
            (3, 16, 2),
            (2, 17, 9),
        ] {
            let a = Matrix::xavier_seeded(m, k, (m * 100 + k) as u64);
            let b = Matrix::xavier_seeded(k, n, (k * 100 + n) as u64);
            let naive = Matrix::from_fn(m, n, |r, c| {
                let mut s = 0.0;
                for i in 0..k {
                    s += a.get(r, i) * b.get(i, c);
                }
                s
            });
            assert_eq!(a.matmul(&b).data(), naive.data(), "{m}x{k}·{k}x{n}");
        }
    }

    /// The leg [`run_kernel`] takes on this CPU.
    fn dispatch_leg() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        "portable"
    }

    /// Operands of an `m × n` product over a length-`k` reduction, with
    /// exact zeros mixed in so the sparsity skips run.
    fn kernel_operands(m: usize, k: usize, n: usize) -> (Matrix, Matrix) {
        let fill = |rows: usize, cols: usize, salt: usize| {
            Matrix::from_fn(rows, cols, |i, j| {
                let h = i * 31 + j * 17 + salt;
                if h.is_multiple_of(5) {
                    0.0
                } else {
                    (h as f64 * 0.618_034).sin()
                }
            })
        };
        (fill(m, k, 1), fill(k, n, 2))
    }

    /// Run the portable kernel and [`run_kernel`] over the whole `m × n`
    /// output and over its second half alone, and compare every output
    /// bit.
    fn assert_legs_agree<T: Scalar>(
        a: &Matrix<T>,
        b: &Matrix<T>,
        (m, k, n): (usize, usize, usize),
    ) {
        let (leg, width) = (dispatch_leg(), std::any::type_name::<T>());
        for first_row in [0, m / 2] {
            let len = (m - first_row) * n;
            let mut portable = vec![T::ONE; len];
            let mut dispatched = vec![T::ONE; len];
            mm_rows(a, b, first_row, &mut portable);
            run_kernel(a, b, first_row, &mut dispatched);
            let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&dispatched),
                bits(&portable),
                "{width} {m}x{n} over k={k} from row {first_row}: \
                 the {leg} leg differs from the portable kernel"
            );
        }
    }

    #[test]
    fn dispatch_is_bit_identical_to_the_portable_kernels() {
        // Reductions (k) and widths (n) on either side of KERNEL_BLOCK
        // and K_TILE, 1×1, primes, and empty outputs.
        assert_eq!((KERNEL_BLOCK, K_TILE), (8, 32), "re-pick the shapes");
        let shapes = [
            (1, 1, 1),
            (0, 5, 3),
            (4, 0, 6),
            (3, 7, 0),
            (3, 7, 5),
            (2, 8, 9),
            (5, 9, 7),
            (4, 31, 8),
            (3, 32, 11),
            (7, 33, 13),
            (2, 63, 17),
            (11, 65, 23),
        ];
        println!("run_kernel takes the {} leg here", dispatch_leg());
        for &(m, k, n) in &shapes {
            let (a, b) = kernel_operands(m, k, n);
            assert_legs_agree(&a, &b, (m, k, n));
            let (a, b) = (Matrix::<f32>::from_f64(&a), Matrix::<f32>::from_f64(&b));
            assert_legs_agree(&a, &b, (m, k, n));
        }
    }

    #[test]
    fn zero_rich_inputs_hit_the_sparsity_skip_and_stay_exact() {
        let a = Matrix::from_fn(6, 9, |r, c| {
            if (r + c) % 3 == 0 {
                (r + c) as f64
            } else {
                0.0
            }
        });
        let b = Matrix::xavier_seeded(9, 5, 11);
        let dense = Matrix::from_fn(6, 5, |r, c| {
            let mut s = 0.0;
            for i in 0..9 {
                s += a.get(r, i) * b.get(i, c);
            }
            s
        });
        assert_eq!(a.matmul(&b).data(), dense.data());
        let gram = Matrix::from_fn(9, 9, |r, c| {
            let mut s = 0.0;
            for i in 0..6 {
                s += a.get(i, r) * a.get(i, c);
            }
            s
        });
        assert_eq!(a.t_matmul(&a).data(), gram.data());
    }

    #[test]
    fn softmax_rows_sum_to_one_and_stable() {
        let m = Matrix::from_vec(2, 3, vec![1000., 1001., 1002., -5., 0., 5.]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f64 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(s.row(r).iter().all(|v| v.is_finite()));
        }
        // Larger logit -> larger probability.
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn broadcast_bias_and_sum_rows_roundtrip() {
        let x = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(1, 2, vec![10., 20.]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.data(), &[11., 22., 13., 24.]);
        assert_eq!(y.sum_rows().data(), &[24., 46.]);
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        let a = Matrix::xavier_seeded(3, 4, 5);
        let b = Matrix::xavier_seeded(3, 4, 6);
        let bias = Matrix::xavier_seeded(1, 4, 7);

        let mut m = a.clone();
        m.sub_assign(&b);
        assert_eq!(m, a.sub(&b));

        let mut m = a.clone();
        m.hadamard_assign(&b);
        assert_eq!(m, a.hadamard(&b));

        let mut m = a.clone();
        m.scale_assign(0.5);
        assert_eq!(m, a.scaled(0.5));

        let mut m = a.clone();
        m.add_row_broadcast_assign(&bias);
        assert_eq!(m, a.add_row_broadcast(&bias));

        let mut m = a.clone();
        m.map_assign(f64::tanh);
        assert_eq!(m, a.map(f64::tanh));

        let mut m = a.clone();
        m.softmax_rows_assign();
        assert_eq!(m, a.softmax_rows());

        let mut out = Matrix::zeros(9, 9);
        a.sum_rows_into(&mut out);
        assert_eq!(out, a.sum_rows());
    }

    #[test]
    fn pool_grab_is_indistinguishable_from_fresh_zeros() {
        let mut pool = MatrixPool::new();
        let mut m = pool.grab(2, 3);
        assert_eq!(m, Matrix::zeros(2, 3));
        m.set(1, 2, 42.0);
        pool.recycle(m);
        assert_eq!(pool.len(), 1);
        // Recycled buffer comes back zeroed at the new shape.
        let m = pool.grab(3, 2);
        assert_eq!(m, Matrix::zeros(3, 2));
        assert!(pool.is_empty());
    }

    #[test]
    fn copy_from_and_resize_reuse_allocations() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let mut m = Matrix::zeros(5, 5);
        m.copy_from(&a);
        assert_eq!(m, a);
        m.resize_to(1, 3);
        assert_eq!(m, Matrix::zeros(1, 3));
    }

    #[test]
    fn split_cols_partitions_each_row() {
        let cat = Matrix::from_vec(2, 3, vec![1., 2., 5., 3., 4., 6.]);
        let (l, r) = cat.split_cols(2);
        assert_eq!(l, Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        assert_eq!(r, Matrix::from_vec(2, 1, vec![5., 6.]));
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::xavier_seeded(3, 5, 9);
        let t = a.transpose();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.get(4, 2), a.get(2, 4));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn empty_products_are_well_formed() {
        let a = Matrix::<f64>::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let c = a.matmul(&b);
        assert_eq!((c.rows(), c.cols()), (3, 4));
        assert_eq!(c, Matrix::zeros(3, 4));
        let d = Matrix::<f32>::zeros(2, 5).matmul(&Matrix::zeros(5, 0));
        assert_eq!((d.rows(), d.cols()), (2, 0));
    }

    #[test]
    fn from_f64_narrows_and_to_f64_widens_exactly() {
        let src = Matrix::from_vec(2, 2, vec![1.5, -0.25, 3.0, 0.1]);
        let narrow = Matrix::<f32>::from_f64(&src);
        assert_eq!(narrow.get(0, 0), 1.5);
        assert_eq!(narrow.get(1, 1), 0.1f64 as f32);
        let wide = narrow.to_f64();
        // Widening is exact: round-tripping the narrowed values changes
        // nothing.
        assert_eq!(Matrix::<f32>::from_f64(&wide).data(), narrow.data());
    }

    #[test]
    fn f32_gates_track_libm_within_budget() {
        use crate::activation::stable_sigmoid;
        // Dense sweep over the range gate pre-activations live in, plus
        // the saturation tails. The documented budget is 2e-7 relative
        // (≈ absolute here, both functions are bounded by 1).
        let mut x = -40.0f32;
        while x <= 40.0 {
            let s = Scalar::sigmoid(x);
            let t = Scalar::tanh(x);
            assert!(
                (s - stable_sigmoid(x)).abs() < 5e-7,
                "sigmoid gap at {x}: {s} vs {}",
                stable_sigmoid(x)
            );
            assert!(
                (t - x.tanh()).abs() < 5e-7,
                "tanh gap at {x}: {t} vs {}",
                x.tanh()
            );
            x += 0.0137;
        }
        // Saturation and edge cases stay finite and exact-signed.
        let sig = <f32 as Scalar>::sigmoid;
        let tanh = <f32 as Scalar>::tanh;
        assert_eq!(sig(0.0), 0.5);
        assert_eq!(tanh(0.0), 0.0);
        assert!(sig(1000.0) <= 1.0 && sig(1000.0) > 0.999);
        assert!(sig(-1000.0) >= 0.0 && sig(-1000.0) < 1e-6);
        assert_eq!(tanh(1000.0), 1.0);
        assert_eq!(tanh(-1000.0), -1.0);
        assert!(tanh(-3.0) == -tanh(3.0));
    }

    #[test]
    fn f64_gates_are_the_training_functions() {
        use crate::activation::stable_sigmoid;
        for x in [-30.0f64, -1.5, -0.0, 0.0, 0.3, 2.0, 700.0] {
            assert_eq!(Scalar::sigmoid(x).to_bits(), stable_sigmoid(x).to_bits());
            assert_eq!(Scalar::tanh(x).to_bits(), x.tanh().to_bits());
        }
    }

    #[test]
    fn vstack_into_stacks_in_item_order() {
        let items = vec![
            Matrix::from_vec(1, 2, vec![1.0f32, 2.]),
            Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]),
        ];
        let mut out = Matrix::zeros(9, 9);
        Matrix::vstack_into(&items, &mut out);
        assert_eq!((out.rows(), out.cols()), (3, 2));
        assert_eq!(out.data(), &[1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn xavier_within_bound_and_seeded_deterministic() {
        let m1 = Matrix::xavier_seeded(10, 10, 3);
        let m2 = Matrix::xavier_seeded(10, 10, 3);
        assert_eq!(m1, m2);
        let bound = (6.0 / 20.0f64).sqrt();
        assert!(m1.data().iter().all(|&v| v.abs() <= bound));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn from_rows_and_access() {
        let m = Matrix::from_rows(&[vec![1., 2.], vec![3., 4.]]);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1., 2.]);
    }
}
