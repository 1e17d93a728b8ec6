//! The Adam optimizer with global-norm gradient clipping.

use crate::tensor::Mat;

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Epsilon for numerical stability.
    pub eps: f32,
    /// Global gradient-norm clip (0 disables).
    pub clip: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self { lr: 1e-2, beta1: 0.9, beta2: 0.999, eps: 1e-8, clip: 5.0 }
    }
}

/// Adam state for a list of parameter tensors (aligned by index).
#[derive(Debug)]
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    t: u64,
}

/// Complete serializable Adam state: hyperparameters, both moment vectors
/// and the step counter. Restoring a snapshot and continuing produces the
/// exact update stream of the uninterrupted optimizer — the moments are
/// `f32` and the counter is integral, so the round-trip is bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamSnapshot {
    /// Hyperparameters at capture time.
    pub cfg: AdamConfig,
    /// First-moment estimates, aligned with the parameter tensors.
    pub m: Vec<Vec<f32>>,
    /// Second-moment estimates, aligned with the parameter tensors.
    pub v: Vec<Vec<f32>>,
    /// Completed step count (drives bias correction).
    pub t: u64,
}

impl Adam {
    /// Initialize for parameters with the given shapes.
    pub fn new(cfg: AdamConfig, shapes: &[(usize, usize)]) -> Self {
        Self {
            cfg,
            m: shapes.iter().map(|&(r, c)| vec![0.0; r * c]).collect(),
            v: shapes.iter().map(|&(r, c)| vec![0.0; r * c]).collect(),
            t: 0,
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.cfg.lr
    }

    /// Capture the complete optimizer state.
    pub fn snapshot(&self) -> AdamSnapshot {
        AdamSnapshot { cfg: self.cfg, m: self.m.clone(), v: self.v.clone(), t: self.t }
    }

    /// Rebuild an optimizer at a captured state.
    pub fn from_snapshot(s: &AdamSnapshot) -> Self {
        Self { cfg: s.cfg, m: s.m.clone(), v: s.v.clone(), t: s.t }
    }

    /// Apply one update step. `params` and `grads` must be aligned with the
    /// shapes passed at construction.
    ///
    /// # Panics
    /// Panics on any shape mismatch — that is always a harness bug.
    pub fn step(&mut self, params: &mut [&mut Mat], grads: &[&Mat]) {
        assert_eq!(params.len(), self.m.len(), "param count mismatch");
        assert_eq!(grads.len(), self.m.len(), "grad count mismatch");
        self.t += 1;
        // Global-norm clipping.
        let mut scale = 1.0f32;
        if self.cfg.clip > 0.0 {
            let total: f32 = grads.iter().map(|g| g.data.iter().map(|x| x * x).sum::<f32>()).sum();
            let norm = total.sqrt();
            if norm > self.cfg.clip {
                scale = self.cfg.clip / norm;
            }
        }
        let bc1 = 1.0 - self.cfg.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.cfg.beta2.powi(self.t as i32);
        for ((p, g), (m, v)) in
            params.iter_mut().zip(grads).zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            assert_eq!(p.data.len(), g.data.len(), "tensor shape mismatch");
            assert_eq!(p.data.len(), m.len(), "state shape mismatch");
            // Lockstep iterators keep the inner loop free of bounds checks
            // so it autovectorizes.
            for (((pi, &gd), mi), vi) in
                p.data.iter_mut().zip(&g.data).zip(m.iter_mut()).zip(v.iter_mut())
            {
                let gi = gd * scale;
                *mi = self.cfg.beta1 * *mi + (1.0 - self.cfg.beta1) * gi;
                *vi = self.cfg.beta2 * *vi + (1.0 - self.cfg.beta2) * gi * gi;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *pi -= self.cfg.lr * mhat / (vhat.sqrt() + self.cfg.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_quadratic() {
        // minimize f(x) = (x - 3)^2 over a 1x1 "matrix".
        let mut x = Mat::zeros(1, 1);
        let mut opt = Adam::new(AdamConfig { lr: 0.1, ..AdamConfig::default() }, &[(1, 1)]);
        for _ in 0..500 {
            let g = Mat { rows: 1, cols: 1, data: vec![2.0 * (x.data[0] - 3.0)] };
            opt.step(&mut [&mut x], &[&g]);
        }
        assert!((x.data[0] - 3.0).abs() < 1e-2, "x = {}", x.data[0]);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut x = Mat::zeros(1, 2);
        let cfg = AdamConfig { lr: 1.0, clip: 1.0, ..AdamConfig::default() };
        let mut opt = Adam::new(cfg, &[(1, 2)]);
        let g = Mat { rows: 1, cols: 2, data: vec![1e6, -1e6] };
        opt.step(&mut [&mut x], &[&g]);
        // Post-clip gradient has norm 1; Adam's first step is ~lr in each
        // coordinate direction.
        assert!(x.data.iter().all(|v| v.abs() <= 1.1));
    }

    #[test]
    fn snapshot_resumes_update_stream_bit_exactly() {
        let grad = |x: &Mat| Mat {
            rows: 1,
            cols: 3,
            data: x.data.iter().map(|v| 2.0 * (v - 1.0)).collect(),
        };
        let mut x = Mat::zeros(1, 3);
        let mut opt = Adam::new(AdamConfig { lr: 0.05, ..AdamConfig::default() }, &[(1, 3)]);
        for _ in 0..7 {
            let g = grad(&x);
            opt.step(&mut [&mut x], &[&g]);
        }
        let snap = opt.snapshot();
        let mut y = x.clone();
        let mut opt2 = Adam::from_snapshot(&snap);
        assert_eq!(opt2.snapshot(), snap);
        for _ in 0..9 {
            let g = grad(&x);
            opt.step(&mut [&mut x], &[&g]);
            let g = grad(&y);
            opt2.step(&mut [&mut y], &[&g]);
        }
        let bits = |m: &Mat| m.data.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&x), bits(&y));
    }

    #[test]
    #[should_panic(expected = "param count mismatch")]
    fn misaligned_params_panic() {
        let mut x = Mat::zeros(1, 1);
        let mut opt = Adam::new(AdamConfig::default(), &[(1, 1), (2, 2)]);
        let g = Mat::zeros(1, 1);
        opt.step(&mut [&mut x], &[&g]);
    }
}
