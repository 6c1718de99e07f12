//! Numeric-sanitizer acceptance tests. The checks at every `nn` layer
//! boundary run in builds with `debug_assertions` (plain `cargo test`),
//! so these tests compile only there; a release build compiles the
//! checks away.
#![cfg(debug_assertions)]

use nn::{Dense, Gru, Matrix, NumericError, SparseRow, Standardization};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `f`, expecting it to trip the sanitizer, and return the report.
fn trap(f: impl FnOnce() + std::panic::UnwindSafe) -> NumericError {
    let payload = catch_unwind(f).expect_err("sanitizer should have tripped");
    *payload
        .downcast::<NumericError>()
        .expect("panic payload is a structured NumericError")
}

#[test]
fn injected_nan_is_reported_with_the_layer_name() {
    let mut dense = Dense::new(3, 2, 42);
    dense.w.value.set(2, 1, f64::NAN);
    let x = Matrix::from_vec(1, 3, vec![0.5, -1.0, 2.0]);
    let err = trap(AssertUnwindSafe(|| {
        let _ = dense.forward(&x);
    }));
    assert_eq!(err.layer, "dense");
    assert_eq!(err.op, "forward");
    assert!(err.value.is_nan(), "report carries the offending value");
    let rendered = err.to_string();
    assert!(rendered.contains("dense::forward"), "{rendered}");
}

#[test]
fn injected_nan_is_caught_inside_the_gru_scan() {
    let mut gru = Gru::new(2, 3, 7);
    // tanh would saturate an infinity back to 1.0, so inject NaN, which
    // survives every gate nonlinearity and must be caught at the step
    // boundary.
    gru.wh.value.set(0, 0, f64::NAN);
    let xs = vec![Matrix::from_vec(1, 2, vec![1.0, 1.0])];
    let err = trap(AssertUnwindSafe(|| {
        let _ = gru.forward(&xs);
    }));
    assert_eq!(err.layer, "gru");
    assert_eq!(err.op, "step");
}

#[test]
fn injected_nan_is_caught_on_the_repeated_input_gru_forward() {
    // RETINA-D's path: one input projected once for all six steps.
    let mut gru = Gru::new(2, 3, 7);
    gru.wh.value.set(0, 0, f64::NAN);
    let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
    let err = trap(AssertUnwindSafe(|| {
        let _ = gru.forward_repeated(&x, 6);
    }));
    assert_eq!(err.layer, "gru");
    assert_eq!(err.op, "step");
}

#[test]
fn injected_nan_is_caught_in_the_folded_user_layer() {
    // RETINA's user layer: sparse rows through the scaler folded into
    // the product. Column 1 is stored on no row, but its μ/σ shift
    // still carries the NaN weight into every output through the bias
    // row.
    let mut dense = Dense::new(3, 2, 42);
    dense.w.value.set(1, 0, f64::NAN);
    let rows = vec![
        SparseRow::from_dense(&[0.5, 0.0, 2.0]),
        SparseRow::from_dense(&[0.0, 0.0, -1.0]),
    ];
    let scale = Standardization::new(&[0.25, 0.5, 0.1], &[1.0, 2.0, 0.5]);
    let mut out = Matrix::default();
    let err = trap(AssertUnwindSafe(|| {
        dense.forward_sparse_into(&rows, Some(&scale), &mut out);
    }));
    assert_eq!((err.layer, err.op), ("dense", "sparse_forward"));
    assert_eq!(err.index, 0, "first output of the first row");
    assert!(err.value.is_nan());
}

#[test]
fn shape_mismatch_is_a_structured_report_not_an_index_panic() {
    let dense = Dense::new(4, 2, 1);
    let x = Matrix::zeros(2, 6);
    let err = trap(AssertUnwindSafe(|| {
        let _ = dense.forward(&x);
    }));
    assert_eq!(err.layer, "dense");
    assert_eq!(err.index, 6, "observed input width");
    assert_eq!(err.value as usize, 4, "expected input width");
}

#[test]
fn finite_paths_are_untouched_by_the_sanitizer() {
    // The instrumented build must compute the exact same gradients as the
    // release build (`nn`'s own test asserts the constant in both
    // profiles).
    assert_eq!(nn::gradcheck::gradient_fingerprint(), 0x8fe3_5866_5594_4e8e);
}
