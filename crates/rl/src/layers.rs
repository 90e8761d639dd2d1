//! Fully-connected layers with activations and reverse-mode gradients.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Elementwise nonlinearity applied after the affine transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// No nonlinearity.
    Identity,
}

impl Activation {
    fn forward(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed via the *output* value `y = f(x)` (all four
    /// supported activations admit this form).
    fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Identity => 1.0,
        }
    }
}

/// A dense layer `y = act(W x + b)` with gradient accumulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    w: Matrix,
    b: Vec<f32>,
    act: Activation,
    #[serde(skip)]
    grad_w: Option<Matrix>,
    #[serde(skip)]
    grad_b: Vec<f32>,
    #[serde(skip)]
    last_input: Vec<f32>,
    #[serde(skip)]
    last_output: Vec<f32>,
}

/// Deterministic xorshift generator for reproducible initialization.
pub(crate) struct XorShift(pub u64);

impl XorShift {
    pub(crate) fn next_f32(&mut self) -> f32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        ((self.0 >> 11) as f64 / (1u64 << 53) as f64) as f32
    }

    /// Standard normal via Box–Muller.
    pub(crate) fn next_gaussian(&mut self) -> f32 {
        let u1 = self.next_f32().max(1e-12);
        let u2 = self.next_f32();
        ((-2.0 * (u1 as f64).ln()).sqrt() * (2.0 * std::f64::consts::PI * u2 as f64).cos()) as f32
    }
}

impl Linear {
    /// He-style initialization scaled for the fan-in, deterministic in
    /// `seed`.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, seed: u64) -> Self {
        let mut rng = XorShift(seed.max(1));
        let scale = (2.0 / in_dim as f32).sqrt();
        let w = Matrix::from_fn(out_dim, in_dim, |_, _| rng.next_gaussian() * scale);
        Linear {
            w,
            b: vec![0.0; out_dim],
            act,
            grad_w: None,
            grad_b: Vec::new(),
            last_input: Vec::new(),
            last_output: Vec::new(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// Parameter count (weights + biases).
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Forward pass; caches activations for the backward pass.
    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        let mut z = self.w.matvec(x);
        for (zi, bi) in z.iter_mut().zip(&self.b) {
            *zi += bi;
        }
        let y: Vec<f32> = z.iter().map(|&v| self.act.forward(v)).collect();
        self.last_input = x.to_vec();
        self.last_output = y.clone();
        y
    }

    /// Backward pass: given `dL/dy`, accumulates `dL/dW`, `dL/db` and
    /// returns `dL/dx`. Must follow a `forward` call.
    pub fn backward(&mut self, dy: &[f32]) -> Vec<f32> {
        assert_eq!(dy.len(), self.out_dim());
        assert_eq!(
            self.last_input.len(),
            self.in_dim(),
            "backward without forward"
        );
        let dz: Vec<f32> = dy
            .iter()
            .zip(&self.last_output)
            .map(|(&d, &y)| d * self.act.derivative_from_output(y))
            .collect();
        if self.grad_w.is_none() {
            self.grad_w = Some(Matrix::zeros(self.out_dim(), self.in_dim()));
            self.grad_b = vec![0.0; self.out_dim()];
        }
        self.grad_w
            .as_mut()
            .expect("just initialized")
            .add_outer(&dz, &self.last_input);
        for (g, d) in self.grad_b.iter_mut().zip(&dz) {
            *g += d;
        }
        self.w.matvec_t(&dz)
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        if let Some(g) = self.grad_w.as_mut() {
            g.fill_zero();
        }
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Whether `backward` has run, so there are gradients to apply.
    pub fn has_grads(&self) -> bool {
        self.grad_w.is_some()
    }

    /// `(params, grads)` slice pairs for the optimizer, weights then
    /// biases; `None` until `backward` has run.
    pub fn params_and_grads(&mut self) -> Option<[(&mut [f32], &[f32]); 2]> {
        let grad_w = self.grad_w.as_ref()?;
        Some([
            (self.w.as_mut_slice(), grad_w.as_slice()),
            (&mut self.b[..], &self.grad_b[..]),
        ])
    }

    /// Immutable weight access for tests.
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Mutable weight access for tests and finite-difference checks.
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.w
    }

    /// Bias access for tests.
    pub fn biases(&self) -> &[f32] {
        &self.b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_computes_affine_plus_activation() {
        let mut l = Linear::new(2, 2, Activation::Identity, 1);
        // Overwrite weights deterministically.
        *l.weights_mut() = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        l.b = vec![0.5, -0.5];
        let y = l.forward(&[1.0, 1.0]);
        assert_eq!(y, vec![3.5, 6.5]);

        let mut l = Linear::new(1, 1, Activation::Relu, 1);
        *l.weights_mut() = Matrix::from_vec(1, 1, vec![-1.0]);
        l.b = vec![0.0];
        assert_eq!(l.forward(&[2.0]), vec![0.0]);
    }

    /// Finite-difference gradient check across every activation.
    #[test]
    fn gradients_match_finite_differences() {
        for act in [
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Identity,
        ] {
            let mut l = Linear::new(3, 2, act, 42);
            let x = [0.3, -0.7, 0.9];
            // Loss = sum(y), so dL/dy = [1, 1].
            let loss = |l: &mut Linear| -> f32 { l.forward(&x).iter().sum() };

            let base = loss(&mut l);
            let _ = base;
            l.zero_grad();
            l.forward(&x);
            let dx = l.backward(&[1.0, 1.0]);

            let eps = 1e-3;
            // Check dL/dW for a few entries.
            for (r, c) in [(0usize, 0usize), (1, 2), (0, 1)] {
                let orig = l.weights().get(r, c);
                *l.weights_mut().get_mut(r, c) = orig + eps;
                let up = loss(&mut l);
                *l.weights_mut().get_mut(r, c) = orig - eps;
                let down = loss(&mut l);
                *l.weights_mut().get_mut(r, c) = orig;
                let numeric = (up - down) / (2.0 * eps);
                let analytic = l.grad_w.as_ref().unwrap().get(r, c);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "{act:?} dW[{r}][{c}]: numeric {numeric} vs analytic {analytic}"
                );
            }
            // Check dL/dx.
            for i in 0..3 {
                let mut xp = x;
                xp[i] += eps;
                let up: f32 = l.forward(&xp).iter().sum();
                xp[i] -= 2.0 * eps;
                let down: f32 = l.forward(&xp).iter().sum();
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (numeric - dx[i]).abs() < 1e-2,
                    "{act:?} dx[{i}]: numeric {numeric} vs analytic {}",
                    dx[i]
                );
            }
        }
    }

    #[test]
    fn zero_grad_resets_accumulation() {
        let mut l = Linear::new(2, 2, Activation::Identity, 7);
        l.forward(&[1.0, 2.0]);
        l.backward(&[1.0, 1.0]);
        l.zero_grad();
        let [(_, grad_w), (_, grad_b)] = l.params_and_grads().unwrap();
        assert!(grad_w.iter().chain(grad_b).all(|&g| g == 0.0));
    }

    #[test]
    fn param_count_is_exact() {
        let l = Linear::new(12, 256, Activation::Relu, 1);
        assert_eq!(l.param_count(), 12 * 256 + 256);
    }

    #[test]
    fn serde_skips_caches_but_keeps_weights() {
        let mut l = Linear::new(3, 2, Activation::Tanh, 5);
        l.forward(&[1.0, 2.0, 3.0]);
        let s = serde_json::to_string(&l).unwrap();
        let mut back: Linear = serde_json::from_str(&s).unwrap();
        assert_eq!(back.weights(), l.weights());
        assert_eq!(back.biases(), l.biases());
        // The deserialized layer is immediately usable.
        let y1 = l.forward(&[0.5, 0.5, 0.5]);
        let y2 = back.forward(&[0.5, 0.5, 0.5]);
        assert_eq!(y1, y2);
    }
}
