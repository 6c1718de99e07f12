//! Opt-in numeric sanitizer (`--features sanitize`).
//!
//! With the feature enabled, every layer boundary in this crate checks
//! its tensors for non-finite values and its inputs for shape mismatches.
//! A failed check unwinds with a structured [`NumericError`] payload (via
//! `std::panic::panic_any`) naming the layer, the operation, the flat
//! element index and the offending value, so a training run that produces
//! a NaN dies at the first layer that saw it instead of thousands of
//! steps later in a metric.
//!
//! With the feature disabled (the default) the check entry points compile
//! to empty inline functions: zero cost in release training/benchmarks,
//! and gradients are bit-identical either way (asserted by
//! [`crate::gradcheck::gradient_fingerprint`]'s tests).

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

/// Fallible core: first non-finite entry of `m`, if any. Always compiled
/// so the report format is testable without the feature.
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
#[cfg(feature = "sanitize")]
fn raise(err: NumericError) -> ! {
    std::panic::panic_any(err)
}

/// Check every entry of `m` for finiteness (feature-gated; no-op when
/// `sanitize` is off).
#[cfg(feature = "sanitize")]
pub fn check_finite<T: Scalar>(layer: &'static str, op: &'static str, m: &Matrix<T>) {
    if let Err(e) = scan_finite(layer, op, m) {
        raise(e);
    }
}

/// No-op stand-in when the sanitizer is disabled.
#[cfg(not(feature = "sanitize"))]
#[inline(always)]
pub fn check_finite<T: Scalar>(_layer: &'static str, _op: &'static str, _m: &Matrix<T>) {}

/// Check a scalar for finiteness (feature-gated).
#[cfg(feature = "sanitize")]
pub fn check_scalar(layer: &'static str, op: &'static str, value: f64) {
    if !value.is_finite() {
        raise(NumericError {
            layer,
            op,
            index: 0,
            value,
        });
    }
}

/// No-op stand-in when the sanitizer is disabled.
#[cfg(not(feature = "sanitize"))]
#[inline(always)]
pub fn check_scalar(_layer: &'static str, _op: &'static str, _value: f64) {}

/// Check a boundary dimension (feature-gated).
#[cfg(feature = "sanitize")]
pub fn check_shape(layer: &'static str, op: &'static str, got: usize, expected: usize) {
    if let Err(e) = scan_shape(layer, op, got, expected) {
        raise(e);
    }
}

/// No-op stand-in when the sanitizer is disabled.
#[cfg(not(feature = "sanitize"))]
#[inline(always)]
pub fn check_shape(_layer: &'static str, _op: &'static str, _got: usize, _expected: usize) {}

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
        // lint: allow(float-cmp) integral value round-trips exactly
        assert!(e.value == 4.0);
        let msg = e.to_string();
        assert!(msg.contains("got 7, expected 4"), "{msg}");
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn injected_nan_is_caught_at_the_dense_boundary() {
        use crate::dense::Dense;
        let mut d = Dense::new(2, 3, 0);
        d.w.value.set(0, 1, f64::NAN);
        let x = Matrix::from_vec(1, 2, vec![1.0, -0.5]);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.forward(&x)))
            .expect_err("sanitizer must trip on the NaN");
        let e = payload
            .downcast::<NumericError>()
            .expect("payload is a NumericError");
        assert_eq!(e.layer, "dense", "error names the layer that saw it");
        assert_eq!(e.op, "forward");
        assert!(e.value.is_nan());
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn shape_mismatch_is_caught_at_the_dense_boundary() {
        use crate::dense::Dense;
        let d = Dense::new(3, 2, 0);
        let x = Matrix::zeros(1, 5);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.forward(&x)))
            .expect_err("sanitizer must trip on the shape mismatch");
        let e = payload
            .downcast::<NumericError>()
            .expect("payload is a NumericError");
        assert_eq!((e.layer, e.index), ("dense", 5));
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn check_finite_panics_with_structured_payload() {
        let mut m = Matrix::zeros(1, 2);
        m.set(0, 1, f64::NEG_INFINITY);
        let payload = std::panic::catch_unwind(|| check_finite("attention", "scaled_dot", &m))
            .expect_err("must unwind");
        let e = payload
            .downcast::<NumericError>()
            .expect("payload is a NumericError");
        assert_eq!(e.layer, "attention");
        assert_eq!(e.index, 1);
    }
}
