//! Adam optimizer (Kingma & Ba) with bias correction.
//!
//! One [`Adam`] instance owns the first/second-moment buffers for a whole
//! network — exactly the "two auxiliary tensors per parameter" the paper's
//! Table 2 charges as training memory overhead (≈4× the parameter bytes
//! together with the gradient buffers).

/// Adam state for a fixed-size parameter vector.
#[derive(Debug, Clone)]
pub struct Adam {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
    beta1: f32,
    beta2: f32,
    eps: f32,
}

impl Adam {
    /// Creates optimizer state for `param_count` parameters with the
    /// standard hyperparameters (β₁ 0.9, β₂ 0.999, ε 1e-8).
    pub fn new(param_count: usize) -> Self {
        Adam {
            m: vec![0.0; param_count],
            v: vec![0.0; param_count],
            t: 0,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// Applies one update step at learning rate `lr` to every parameter:
    /// `slices` are `(weights, gradients)` pairs of equal length, one
    /// layer's contiguous tensors at a time, in a stable order across calls
    /// that covers the parameter count exactly.
    pub fn step<'a>(
        &mut self,
        slices: impl IntoIterator<Item = (&'a mut [f32], &'a [f32])>,
        lr: f32,
    ) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let mut at = 0;
        for (params, grads) in slices {
            assert_eq!(params.len(), grads.len());
            let end = at + grads.len();
            assert!(end <= self.m.len(), "parameter layout changed");
            let moments = self.m[at..end].iter_mut().zip(&mut self.v[at..end]);
            for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let m_hat = *m / b1t;
                let v_hat = *v / b2t;
                *p -= lr * m_hat / (v_hat.sqrt() + self.eps);
            }
            at = end;
        }
        assert_eq!(at, self.m.len(), "parameter layout changed");
    }

    /// Bytes used by the optimizer state (the 2× moment buffers).
    pub fn memory_bytes(&self) -> usize {
        (self.m.len() + self.v.len()) * std::mem::size_of::<f32>()
    }

    /// Update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adam must drive a convex quadratic to its minimum.
    #[test]
    fn converges_on_quadratic() {
        let mut x = vec![5.0f32, -3.0];
        let mut adam = Adam::new(2);
        for _ in 0..2000 {
            let grads: Vec<f32> = x.iter().map(|&v| 2.0 * v).collect(); // d/dx of x²
            adam.step([(&mut x[..], &grads[..])], 0.05);
        }
        assert!(x.iter().all(|v| v.abs() < 0.05), "did not converge: {x:?}");
        assert_eq!(adam.steps(), 2000);
    }

    #[test]
    fn first_step_is_lr_sized() {
        // With bias correction, the first Adam step has magnitude ≈ lr.
        let mut x = [1.0f32];
        let mut adam = Adam::new(1);
        adam.step([(&mut x[..], &[0.001][..])], 0.1);
        assert!((1.0 - x[0] - 0.1).abs() < 1e-3, "step was {}", 1.0 - x[0]);
    }

    #[test]
    fn memory_accounting() {
        let adam = Adam::new(70_000);
        assert_eq!(adam.memory_bytes(), 70_000 * 2 * 4);
    }

    #[test]
    #[should_panic]
    fn layout_change_is_detected() {
        let mut adam = Adam::new(2);
        let mut x = [0.0f32];
        adam.step([(&mut x[..], &[0.0][..])], 0.1);
    }
}
