//! Optimizers: plain SGD and Adam (Kingma & Ba, 2015).
//!
//! The paper trains RETINA-S with Adam (default parameters) and RETINA-D
//! with SGD at learning rate 10⁻² (Section VI-D).

use crate::param::Param;

/// A first-order optimizer stepping a set of parameters.
pub trait Optimizer {
    /// Apply one update using the accumulated gradients, then zero them.
    fn step(&mut self, params: &mut [&mut Param]);
}

/// Stochastic gradient descent.
#[derive(Debug, Clone, Copy)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
}

impl Sgd {
    /// Create with the given learning rate.
    pub fn new(lr: f64) -> Self {
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        for p in params.iter_mut() {
            for (v, &g) in p.value.data_mut().iter_mut().zip(p.grad.data().iter()) {
                *v -= self.lr * g;
            }
            crate::sanitize::check_finite("sgd", "step", &p.value);
            // borrow dance: zip above needs both; grad mutated after.
            p.zero_grad();
        }
    }
}

/// Adam with the standard bias-corrected moments.
#[derive(Debug, Clone, Copy)]
pub struct Adam {
    pub lr: f64,
    pub beta1: f64,
    pub beta2: f64,
    pub eps: f64,
    t: u64,
}

impl Adam {
    /// Keras-default Adam (lr=1e-3, β₁=0.9, β₂=0.999, ε=1e-7), matching the
    /// paper's "Adam optimizer using default parameters".
    pub fn new(lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-7,
            t: 0,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.t += 1;
        // Saturate: bias correction is indistinguishable from 1.0 long
        // before i32::MAX steps, so clamping is exact there.
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        let b1t = 1.0 - self.beta1.powi(t);
        let b2t = 1.0 - self.beta2.powi(t);
        for p in params.iter_mut() {
            let n = p.len();
            for i in 0..n {
                let g = p.grad.data()[i];
                let m = self.beta1 * p.m.data()[i] + (1.0 - self.beta1) * g;
                let v = self.beta2 * p.v.data()[i] + (1.0 - self.beta2) * g * g;
                p.m.data_mut()[i] = m;
                p.v.data_mut()[i] = v;
                // lint: allow(float-flow) 1 - beta^t >= 1 - beta > 0 for beta in [0,1)
                let m_hat = m / b1t;
                // lint: allow(float-flow) 1 - beta^t >= 1 - beta > 0 for beta in [0,1)
                let v_hat = v / b2t;
                // lint: allow(float-flow) v is an EMA of squared gradients (>= 0) and eps > 0
                p.value.data_mut()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
            crate::sanitize::check_finite("adam", "step", &p.value);
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Matrix;

    /// Minimize f(w) = Σ (w−3)² with gradient 2(w−3).
    fn quadratic_grad(p: &mut Param) {
        let g = p.value.map(|v| 2.0 * (v - 3.0));
        p.grad.add_assign(&g);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut p = Param::new(Matrix::zeros(2, 2));
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            quadratic_grad(&mut p);
            opt.step(&mut [&mut p]);
        }
        assert!(p.value.data().iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Param::new(Matrix::zeros(2, 2));
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            quadratic_grad(&mut p);
            opt.step(&mut [&mut p]);
        }
        assert!(
            p.value.data().iter().all(|&v| (v - 3.0).abs() < 1e-3),
            "{:?}",
            p.value.data()
        );
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut p = Param::new(Matrix::zeros(1, 1));
        p.grad.set(0, 0, 1.0);
        let mut opt = Sgd::new(0.1);
        opt.step(&mut [&mut p]);
        assert_eq!(p.grad.get(0, 0), 0.0);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the very first Adam step ≈ lr in magnitude.
        let mut p = Param::new(Matrix::zeros(1, 1));
        p.grad.set(0, 0, 5.0);
        let mut opt = Adam::new(0.01);
        opt.step(&mut [&mut p]);
        assert!((p.value.get(0, 0).abs() - 0.01).abs() < 1e-6);
    }
}
