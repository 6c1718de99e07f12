//! Numeric sanitizer, armed in every build with `debug_assertions`.
//!
//! In a debug build every layer boundary in this crate checks its
//! tensors for non-finite values and its inputs for shape mismatches.
//! A failed check unwinds with a structured [`NumericError`] payload (via
//! `std::panic::panic_any`) naming the layer, the operation, the flat
//! element index and the offending value, so a training run that produces
//! a NaN dies at the first layer that saw it instead of thousands of
//! steps later in a metric.
//!
//! A release build compiles the checks away: zero cost in release
//! training and benchmarks (`RUSTFLAGS="-C debug-assertions"` arms them
//! there too). Gradients are bit-identical either way, which
//! [`crate::gradcheck::gradient_fingerprint`]'s pinned constant shows in
//! both profiles.

use crate::tensor::{Matrix, Scalar};
use std::fmt;

/// A structured numeric-sanitizer report.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericError {
    /// Layer that detected the problem (e.g. `"dense"`, `"gru"`).
    pub layer: &'static str,
    /// Operation at the boundary (e.g. `"forward"`, `"step"`).
    pub op: &'static str,
    /// Flat element index of the first offending value (row-major), or
    /// the observed dimension for shape errors.
    pub index: usize,
    /// The offending value, or the expected dimension for shape errors.
    pub value: f64,
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.value.is_finite() {
            write!(
                f,
                "sanitize: {}::{} shape mismatch: got {}, expected {}",
                self.layer, self.op, self.index, self.value
            )
        } else {
            write!(
                f,
                "sanitize: {}::{} produced non-finite value {} at flat index {}",
                self.layer, self.op, self.value, self.index
            )
        }
    }
}

impl std::error::Error for NumericError {}

/// Fallible core: first non-finite entry of `m`, if any. Compiled in
/// every profile, so the report format is testable in release too.
pub fn scan_finite<T: Scalar>(
    layer: &'static str,
    op: &'static str,
    m: &Matrix<T>,
) -> Result<(), NumericError> {
    for (index, value) in m.data().iter().map(|v| v.to_f64()).enumerate() {
        if !value.is_finite() {
            return Err(NumericError {
                layer,
                op,
                index,
                value,
            });
        }
    }
    Ok(())
}

/// Fallible core: dimension agreement at a layer boundary.
pub fn scan_shape(
    layer: &'static str,
    op: &'static str,
    got: usize,
    expected: usize,
) -> Result<(), NumericError> {
    if got == expected {
        Ok(())
    } else {
        Err(NumericError {
            layer,
            op,
            index: got,
            value: expected as f64,
        })
    }
}

/// Unwind with the structured error as the panic payload so callers can
/// downcast to [`NumericError`].
fn raise(err: NumericError) -> ! {
    std::panic::panic_any(err)
}

/// Check every entry of `m` for finiteness (debug builds only).
#[inline(always)]
pub fn check_finite<T: Scalar>(layer: &'static str, op: &'static str, m: &Matrix<T>) {
    if cfg!(debug_assertions) {
        if let Err(e) = scan_finite(layer, op, m) {
            raise(e);
        }
    }
}

/// Check a scalar for finiteness (debug builds only).
#[inline(always)]
pub fn check_scalar(layer: &'static str, op: &'static str, value: f64) {
    if cfg!(debug_assertions) && !value.is_finite() {
        raise(NumericError {
            layer,
            op,
            index: 0,
            value,
        });
    }
}

/// Check a boundary dimension (debug builds only).
#[inline(always)]
pub fn check_shape(layer: &'static str, op: &'static str, got: usize, expected: usize) {
    if cfg!(debug_assertions) {
        if let Err(e) = scan_shape(layer, op, got, expected) {
            raise(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_finite_reports_first_bad_entry() {
        let mut m = Matrix::zeros(2, 2);
        m.set(1, 0, f64::NAN);
        m.set(1, 1, f64::INFINITY);
        let e = scan_finite("dense", "forward", &m).unwrap_err();
        assert_eq!(e.layer, "dense");
        assert_eq!(e.op, "forward");
        assert_eq!(e.index, 2, "row-major flat index of the NaN");
        assert!(e.value.is_nan());
        let msg = e.to_string();
        assert!(msg.contains("dense::forward"), "{msg}");
        assert!(msg.contains("index 2"), "{msg}");
    }

    #[test]
    fn scan_finite_accepts_finite_matrices() {
        let m = Matrix::from_vec(1, 3, vec![1.0, -2.5, 1e300]);
        assert!(scan_finite("gru", "step", &m).is_ok());
    }

    #[test]
    fn scan_shape_reports_both_dims() {
        let e = scan_shape("dense", "forward", 7, 4).unwrap_err();
        assert_eq!(e.index, 7);
        // Shape errors carry the expected dim in `value`; exact by
        // construction from a usize.
        assert!(e.value == 4.0);
        let msg = e.to_string();
        assert!(msg.contains("got 7, expected 4"), "{msg}");
    }
}
