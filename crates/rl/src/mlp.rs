//! Multi-layer perceptron: the network shape used by both the actor and the
//! critic (paper Section 4.3: input layer, two 256-wide hidden layers, an
//! output layer, 32-bit floats).

use crate::adam::Adam;
use crate::layers::{Activation, Linear};
use serde::{Deserialize, Serialize};

/// A feed-forward network with reverse-mode gradients.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds the paper's default topology:
    /// `input → 256 (ReLU) → 256 (ReLU) → output (Identity)`.
    pub fn paper_default(input_dim: usize, output_dim: usize, seed: u64) -> Self {
        Self::new(&[input_dim, 256, 256, output_dim], Activation::Relu, seed)
    }

    /// Builds an MLP with the given layer widths. Hidden layers use
    /// `hidden_act`; the output layer is linear (callers squash as needed).
    pub fn new(widths: &[usize], hidden_act: Activation, seed: u64) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        let mut layers = Vec::with_capacity(widths.len() - 1);
        for (i, w) in widths.windows(2).enumerate() {
            let act = if i + 2 == widths.len() {
                Activation::Identity
            } else {
                hidden_act
            };
            layers.push(Linear::new(
                w[0],
                w[1],
                act,
                seed.wrapping_add(i as u64 * 7919),
            ));
        }
        Mlp { layers }
    }

    /// Forward pass (caches per-layer activations for `backward`).
    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        let mut cur = x.to_vec();
        for layer in &mut self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// Backward pass from `dL/d(output)`; returns `dL/d(input)`.
    pub fn backward(&mut self, dout: &[f32]) -> Vec<f32> {
        let mut grad = dout.to_vec();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        grad
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Parameter bytes at f32 precision.
    pub fn memory_bytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }

    /// Creates optimizer state sized for this network.
    pub fn make_adam(&self) -> Adam {
        Adam::new(self.param_count())
    }

    /// Applies one Adam step using the accumulated gradients, then clears
    /// them. No-op if `backward` was never called.
    pub fn apply_grads(&mut self, adam: &mut Adam, lr: f32) {
        if !self.layers.iter().all(Linear::has_grads) {
            return;
        }
        let slices = self
            .layers
            .iter_mut()
            .flat_map(|l| l.params_and_grads().expect("every layer has gradients"));
        adam.step(slices, lr);
        self.zero_grad();
    }

    /// Serializes the weights to JSON (the pretrained-model format).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("MLP serialization cannot fail")
    }

    /// Restores a network saved with [`Mlp::to_json`].
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Layer widths, input first.
    pub fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.layers.iter().map(|l| l.in_dim()).collect();
        if let Some(last) = self.layers.last() {
            w.push(last.out_dim());
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table2_scale() {
        // State ~12 features, 4 actions: actor+critic together must land
        // near the paper's "roughly 140,000 parameters / ~550 KB".
        let actor = Mlp::paper_default(12, 4, 1);
        let critic = Mlp::paper_default(12, 1, 2);
        let total = actor.param_count() + critic.param_count();
        assert!((130_000..160_000).contains(&total), "total params {total}");
        let bytes = actor.memory_bytes() + critic.memory_bytes();
        assert!((500_000..650_000).contains(&bytes), "weight bytes {bytes}");
    }

    #[test]
    fn learns_a_simple_regression() {
        // Fit y = [2x0 - x1] with plain SGD-through-Adam.
        let mut net = Mlp::new(&[2, 16, 1], Activation::Tanh, 3);
        let mut adam = net.make_adam();
        let data: Vec<([f32; 2], f32)> = (0..64)
            .map(|i| {
                let x0 = ((i % 8) as f32) / 8.0 - 0.5;
                let x1 = ((i / 8) as f32) / 8.0 - 0.5;
                ([x0, x1], 2.0 * x0 - x1)
            })
            .collect();
        for _ in 0..400 {
            for (x, y) in &data {
                let out = net.forward(x);
                let err = out[0] - y;
                net.backward(&[2.0 * err]);
                net.apply_grads(&mut adam, 0.01);
            }
        }
        let mut mse = 0.0;
        for (x, y) in &data {
            let out = net.forward(x);
            mse += (out[0] - y).powi(2);
        }
        mse /= data.len() as f32;
        assert!(mse < 0.01, "mse {mse}");
    }

    #[test]
    fn whole_network_gradient_check() {
        let mut net = Mlp::new(&[3, 8, 2], Activation::Tanh, 11);
        let x = [0.1, -0.2, 0.3];
        net.zero_grad();
        net.forward(&x);
        let dx = net.backward(&[1.0, 1.0]);
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let up: f32 = net.forward(&xp).iter().sum();
            xp[i] -= 2.0 * eps;
            let down: f32 = net.forward(&xp).iter().sum();
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - dx[i]).abs() < 1e-2,
                "dx[{i}]: {numeric} vs {}",
                dx[i]
            );
        }
    }

    #[test]
    fn json_roundtrip_preserves_behaviour() {
        let mut net = Mlp::paper_default(5, 3, 9);
        let x = [0.1, 0.2, 0.3, 0.4, 0.5];
        let y = net.forward(&x);
        let mut restored = Mlp::from_json(&net.to_json()).unwrap();
        assert_eq!(restored.forward(&x), y);
        assert_eq!(restored.widths(), vec![5, 256, 256, 3]);
    }

    /// The flat step the optimizer took before it stepped layer by layer:
    /// one view of every parameter and a copy of every gradient.
    fn flat_step(m: &mut [f32], v: &mut [f32], t: u64, params: &mut [&mut f32], grads: &[f32]) {
        let (beta1, beta2, eps, lr) = (0.9f32, 0.999f32, 1e-8f32, 0.01f32);
        let b1t = 1.0 - beta1.powi(t as i32);
        let b2t = 1.0 - beta2.powi(t as i32);
        for i in 0..grads.len() {
            let g = grads[i];
            m[i] = beta1 * m[i] + (1.0 - beta1) * g;
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
            let m_hat = m[i] / b1t;
            let v_hat = v[i] / b2t;
            *params[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    /// Stepping each layer's own slices changes no bit of any weight
    /// against the flat step, over several steps at 2×64 and 2×256.
    #[test]
    fn layer_steps_match_the_flat_step_bit_for_bit() {
        for hidden in [64, 256] {
            let mut net = Mlp::new(&[12, hidden, hidden, 4], Activation::Relu, 5);
            let mut reference = net.clone();
            let mut adam = net.make_adam();
            let n = net.param_count();
            let (mut m, mut v) = (vec![0.0; n], vec![0.0; n]);
            for t in 1..=5u64 {
                let x: Vec<f32> = (0..12)
                    .map(|i| ((i as u64 * 7 + t) % 11) as f32 / 11.0)
                    .collect();
                let dout: Vec<f32> = (0..4).map(|i| (i as f32 - 1.5) * t as f32 / 4.0).collect();
                for net in [&mut net, &mut reference] {
                    net.forward(&x);
                    net.backward(&dout);
                }
                net.apply_grads(&mut adam, 0.01);
                let mut params: Vec<&mut f32> = Vec::new();
                let mut grads: Vec<f32> = Vec::new();
                for layer in &mut reference.layers {
                    for (p, g) in layer.params_and_grads().unwrap() {
                        params.extend(p.iter_mut());
                        grads.extend_from_slice(g);
                    }
                }
                flat_step(&mut m, &mut v, t, &mut params, &grads);
                reference.zero_grad();
                for (a, b) in net.layers.iter().zip(&reference.layers) {
                    let bits = |l: &Linear| -> Vec<u32> {
                        let w = l.weights().as_slice().iter();
                        w.chain(l.biases()).map(|x| x.to_bits()).collect()
                    };
                    assert_eq!(bits(a), bits(b), "2×{hidden}, step {t}");
                }
            }
        }
    }

    #[test]
    fn apply_grads_without_backward_is_noop() {
        let mut net = Mlp::new(&[2, 4, 1], Activation::Relu, 1);
        let mut adam = net.make_adam();
        let before = net.forward(&[1.0, 1.0]);
        net.apply_grads(&mut adam, 0.1);
        assert_eq!(net.forward(&[1.0, 1.0]), before);
    }
}
