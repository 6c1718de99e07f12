//! Finite-difference gradient verification.
//!
//! Every layer's `backward` in this crate is hand-derived; these helpers
//! let the test-suite prove each one exact by comparing against central
//! finite differences of a scalar probe loss
//! `L = Σ_ij c_ij · y_ij` with fixed pseudo-random coefficients `c`.

use crate::param::Param;
use crate::tensor::Matrix;

/// Deterministic pseudo-random probe coefficients for a given shape.
fn probe_coeffs(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        // Cheap deterministic hash → (-1, 1), irrational-ish spread.
        let h = (r * 2654435761 + c * 40503 + 12345) as f64;
        ((h * 0.61803398875).fract() - 0.5) * 2.0
    })
}

/// Verify input and parameter gradients of a single-input layer.
///
/// * `forward(layer, x)` must run a caching forward pass.
/// * `backward(layer, g)` must accumulate parameter grads and return dx.
/// * `params(layer)` exposes the trainable parameters.
///
/// Panics (assert) if any analytic gradient deviates from the central
/// difference by more than `tol_abs + 1e-4 · |numeric|`.
pub fn check_gradients<L>(
    x: &Matrix,
    mut forward: impl FnMut(&mut L, &Matrix) -> Matrix,
    mut backward: impl FnMut(&mut L, &Matrix) -> Matrix,
    mut params: impl FnMut(&mut L) -> Vec<&mut Param>,
    layer: &mut L,
    eps: f64,
    tol_abs: f64,
) {
    // Analytic pass.
    for p in params(layer) {
        p.zero_grad();
    }
    let y = forward(layer, x);
    let c = probe_coeffs(y.rows(), y.cols());
    let dx = backward(layer, &c);

    let loss = |layer: &mut L, x: &Matrix, fwd: &mut dyn FnMut(&mut L, &Matrix) -> Matrix| -> f64 {
        let y = fwd(layer, x);
        let c = probe_coeffs(y.rows(), y.cols());
        y.hadamard(&c).sum()
    };

    // Input gradient.
    let n_in = x.rows() * x.cols();
    for flat in sample_indices(n_in) {
        let (r, cc) = (flat / x.cols(), flat % x.cols());
        let mut xp = x.clone();
        xp.set(r, cc, x.get(r, cc) + eps);
        let lp = loss(layer, &xp, &mut forward);
        xp.set(r, cc, x.get(r, cc) - eps);
        let lm = loss(layer, &xp, &mut forward);
        let num = (lp - lm) / (2.0 * eps);
        let ana = dx.get(r, cc);
        assert!(
            (num - ana).abs() <= tol_abs + 1e-4 * num.abs().max(ana.abs()),
            "input grad mismatch at ({r},{cc}): numeric {num} vs analytic {ana}"
        );
    }

    // Parameter gradients. We must re-run the analytic pass before reading
    // grads because the finite-difference loop above overwrote caches.
    for p in params(layer) {
        p.zero_grad();
    }
    let y = forward(layer, x);
    let c = probe_coeffs(y.rows(), y.cols());
    let _ = backward(layer, &c);

    let n_params = params(layer).len();
    for pi in 0..n_params {
        let (rows, cols, grads): (usize, usize, Vec<f64>) = {
            let ps = params(layer);
            let p = &ps[pi];
            (p.value.rows(), p.value.cols(), p.grad.data().to_vec())
        };
        let _ = &mut params(layer); // appease borrowck lints
        for flat in sample_indices(rows * cols) {
            let (r, cc) = (flat / cols, flat % cols);
            let orig = {
                let ps = params(layer);
                ps[pi].value.get(r, cc)
            };
            {
                let mut ps = params(layer);
                ps[pi].value.set(r, cc, orig + eps);
            }
            let lp = loss(layer, x, &mut forward);
            {
                let mut ps = params(layer);
                ps[pi].value.set(r, cc, orig - eps);
            }
            let lm = loss(layer, x, &mut forward);
            {
                let mut ps = params(layer);
                ps[pi].value.set(r, cc, orig);
            }
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads[flat];
            assert!(
                (num - ana).abs() <= tol_abs + 1e-4 * num.abs().max(ana.abs()),
                "param {pi} grad mismatch at ({r},{cc}): numeric {num} vs analytic {ana}"
            );
        }
    }
}

/// Check up to 64 deterministic indices out of `n` (all if small).
fn sample_indices(n: usize) -> Vec<usize> {
    if n <= 64 {
        (0..n).collect()
    } else {
        // Deterministic stride sampling covering the range.
        let step = n / 64;
        (0..64).map(|i| (i * step + i) % n).collect()
    }
}

/// Gradient checking for sequence (recurrent) layers whose forward maps
/// `&[Matrix] -> Vec<Matrix>`.
pub mod seq {
    use super::{probe_coeffs, sample_indices};
    use crate::param::Param;
    use crate::tensor::Matrix;

    /// Per-timestep probe coefficients (distinct across timesteps so BPTT
    /// paths cannot cancel).
    fn probe_t(t: usize, rows: usize, cols: usize) -> Matrix {
        probe_coeffs(rows, cols).scaled(1.0 + 0.37 * t as f64)
    }

    /// Probe loss over a sequence of outputs.
    fn seq_loss(ys: &[Matrix]) -> f64 {
        ys.iter()
            .enumerate()
            .map(|(t, y)| y.hadamard(&probe_t(t, y.rows(), y.cols())).sum())
            .sum()
    }

    /// Probe gradients matching [`seq_loss`].
    fn seq_probe(ys: &[Matrix]) -> Vec<Matrix> {
        ys.iter()
            .enumerate()
            .map(|(t, y)| probe_t(t, y.rows(), y.cols()))
            .collect()
    }

    /// Verify input and parameter gradients of a recurrent layer.
    pub fn check_recurrent_gradients<L>(
        xs: &[Matrix],
        mut forward: impl FnMut(&mut L, &[Matrix]) -> Vec<Matrix>,
        mut backward: impl FnMut(&mut L, &[Matrix]) -> Vec<Matrix>,
        mut params: impl FnMut(&mut L) -> Vec<&mut Param>,
        layer: &mut L,
        eps: f64,
        tol_abs: f64,
    ) {
        for p in params(layer) {
            p.zero_grad();
        }
        let ys = forward(layer, xs);
        let probes = seq_probe(&ys);
        let dxs = backward(layer, &probes);
        let param_grads: Vec<Vec<f64>> = {
            let ps = params(layer);
            ps.iter().map(|p| p.grad.data().to_vec()).collect()
        };

        // Input gradients.
        for (t, x) in xs.iter().enumerate() {
            for flat in sample_indices(x.rows() * x.cols()) {
                let (r, c) = (flat / x.cols(), flat % x.cols());
                let mut xsp: Vec<Matrix> = xs.to_vec();
                xsp[t].set(r, c, x.get(r, c) + eps);
                let lp = seq_loss(&forward(layer, &xsp));
                xsp[t].set(r, c, x.get(r, c) - eps);
                let lm = seq_loss(&forward(layer, &xsp));
                let num = (lp - lm) / (2.0 * eps);
                let ana = dxs[t].get(r, c);
                assert!(
                    (num - ana).abs() <= tol_abs + 1e-4 * num.abs().max(ana.abs()),
                    "input grad t={t} ({r},{c}): numeric {num} vs analytic {ana}"
                );
            }
        }

        // Parameter gradients.
        let n_params = param_grads.len();
        for pi in 0..n_params {
            let (rows, cols) = {
                let ps = params(layer);
                (ps[pi].value.rows(), ps[pi].value.cols())
            };
            for flat in sample_indices(rows * cols) {
                let (r, c) = (flat / cols, flat % cols);
                let orig = {
                    let ps = params(layer);
                    ps[pi].value.get(r, c)
                };
                {
                    let mut ps = params(layer);
                    ps[pi].value.set(r, c, orig + eps);
                }
                let lp = seq_loss(&forward(layer, xs));
                {
                    let mut ps = params(layer);
                    ps[pi].value.set(r, c, orig - eps);
                }
                let lm = seq_loss(&forward(layer, xs));
                {
                    let mut ps = params(layer);
                    ps[pi].value.set(r, c, orig);
                }
                let num = (lp - lm) / (2.0 * eps);
                let ana = param_grads[pi][flat];
                assert!(
                    (num - ana).abs() <= tol_abs + 1e-4 * num.abs().max(ana.abs()),
                    "param {pi} grad ({r},{c}): numeric {num} vs analytic {ana}"
                );
            }
        }
    }
}

/// Deterministic fingerprint of the gradients produced by one forward +
/// backward pass through every sanitize-instrumented layer (Dense, GRU,
/// exogenous attention, weighted BCE) on fixed seeded inputs: FNV-1a over
/// the IEEE-754 bit patterns of every gradient element.
///
/// The same constant is asserted in debug builds, where the sanitizer
/// checks every layer boundary, and in release builds, where it is
/// compiled away — the checks may only observe values, never perturb
/// them, so on finite inputs the gradients must be bit-identical across
/// the two profiles.
pub fn gradient_fingerprint() -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let absorb = |m: &Matrix, hash: &mut u64| {
        for &v in m.data() {
            for b in v.to_bits().to_le_bytes() {
                *hash = (*hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
    };

    // Dense.
    let mut dense = crate::dense::Dense::new(4, 3, 7);
    let x = Matrix::xavier_seeded(5, 4, 8);
    let y = dense.forward(&x);
    let dx = dense.backward(&x, &probe_coeffs(y.rows(), y.cols()));
    absorb(&dx, &mut hash);
    absorb(&dense.w.grad, &mut hash);
    absorb(&dense.b.grad, &mut hash);

    // GRU over a short sequence.
    let mut gru = crate::gru::Gru::new(3, 4, 9);
    let xs: Vec<Matrix> = (0..3)
        .map(|t| Matrix::xavier_seeded(2, 3, 20 + t))
        .collect();
    let hs = gru.forward(&xs);
    let probes: Vec<Matrix> = hs
        .iter()
        .enumerate()
        .map(|(t, h)| probe_coeffs(h.rows(), h.cols()).scaled(1.0 + 0.37 * t as f64))
        .collect();
    for dxt in gru.backward(&probes) {
        absorb(&dxt, &mut hash);
    }
    for p in gru.params_mut() {
        absorb(&p.grad, &mut hash);
    }

    // Exogenous attention: one tweet querying three news items.
    let mut att = crate::attention::ExogenousAttention::new(3, 4, 5, 11);
    let xt = Matrix::xavier_seeded(1, 3, 30).scaled(3.0);
    let xn = Matrix::xavier_seeded(3, 4, 40).scaled(3.0);
    let y = att.forward(&xt, &xn);
    let probe = probe_coeffs(y.rows(), y.cols());
    att.backward(&probe);
    for p in att.params_mut() {
        absorb(&p.grad, &mut hash);
    }

    // Weighted BCE on logits.
    let loss = crate::loss::WeightedBce { pos_weight: 2.5 };
    let z = Matrix::xavier_seeded(4, 2, 50).scaled(2.0);
    let t = Matrix::from_fn(4, 2, |r, c| f64::from(u8::from((r + c) % 2 == 0)));
    absorb(&loss.grad(&z, &t), &mut hash);

    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_coeffs_deterministic_and_bounded() {
        let a = probe_coeffs(4, 5);
        let b = probe_coeffs(4, 5);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|v| v.abs() <= 1.0));
        // Not all equal (otherwise the probe would miss structure).
        assert!(a.data().iter().any(|&v| (v - a.get(0, 0)).abs() > 1e-9));
    }

    #[test]
    fn gradient_fingerprint_is_deterministic() {
        assert_eq!(gradient_fingerprint(), gradient_fingerprint());
    }

    #[test]
    fn gradient_fingerprint_is_bit_stable_across_profiles() {
        // This exact constant is asserted under both `cargo test` (the
        // sanitizer armed) and `cargo test --release` (compiled away):
        // the sanitize checks must not alter a single gradient bit on
        // finite inputs.
        assert_eq!(gradient_fingerprint(), 0x8fe3_5866_5594_4e8e);
    }

    #[test]
    fn sample_indices_cover_small() {
        assert_eq!(sample_indices(5), vec![0, 1, 2, 3, 4]);
        let big = sample_indices(10_000);
        assert_eq!(big.len(), 64);
        assert!(big.iter().all(|&i| i < 10_000));
    }
}
