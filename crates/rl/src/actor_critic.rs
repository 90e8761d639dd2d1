//! The actor-critic agent (paper Section 3.5).
//!
//! The actor maps the observed system state (cache statistics + workload
//! features) to continuous control actions in `[0, 1]`: the block/range
//! memory split, the point-admission threshold, and the partial-admission
//! parameters `a` and `b`. The critic estimates the state value; one-step
//! advantage (TD) updates train both online. Exploration adds Gaussian
//! noise around the actor's mean, and the actor's learning rate adapts as
//! `lr ← lr · (1 − reward)` — rising after workload shifts (negative
//! reward) to escape stale optima, decaying during stability.

use crate::adam::Adam;
use crate::layers::XorShift;
use crate::mlp::Mlp;
use serde::{Deserialize, Serialize};

/// One experience tuple.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Transition {
    /// State when the action was chosen.
    pub state: Vec<f32>,
    /// The (possibly exploratory) action taken, each dim in `[0, 1]`.
    pub action: Vec<f32>,
    /// Smoothed reward observed after the action's window.
    pub reward: f32,
    /// State at the end of the window.
    pub next_state: Vec<f32>,
}

/// Agent hyperparameters (defaults follow the paper's Section 5.1 setup).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AgentConfig {
    /// Dimensionality of the state featurization.
    pub state_dim: usize,
    /// Number of control outputs.
    pub action_dim: usize,
    /// Initial actor learning rate (paper: 1e-3).
    pub actor_lr: f32,
    /// Critic learning rate (paper: 1e-3).
    pub critic_lr: f32,
    /// Discount factor for the one-step TD target.
    pub gamma: f32,
    /// Standard deviation of the Gaussian exploration noise.
    pub exploration_std: f32,
    /// Whether the adaptive learning-rate rule is active.
    pub adaptive_lr: bool,
    /// Width of the two hidden layers (paper: 256).
    pub hidden: usize,
    /// RNG seed (exploration is deterministic given the seed).
    pub seed: u64,
}

impl AgentConfig {
    /// The paper's configuration for a given state/action shape.
    pub fn paper_default(state_dim: usize, action_dim: usize) -> Self {
        AgentConfig {
            state_dim,
            action_dim,
            actor_lr: 1e-3,
            critic_lr: 1e-3,
            gamma: 0.9,
            exploration_std: 0.05,
            adaptive_lr: true,
            hidden: 256,
            seed: 0xAD_CAC4E,
        }
    }

    /// A small-network variant for fast tests and simulations where the
    /// full 256-wide model is unnecessary.
    pub fn small(state_dim: usize, action_dim: usize) -> Self {
        AgentConfig {
            hidden: 32,
            ..Self::paper_default(state_dim, action_dim)
        }
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The online actor-critic controller.
pub struct ActorCritic {
    cfg: AgentConfig,
    actor: Mlp,
    critic: Mlp,
    actor_adam: Adam,
    critic_adam: Adam,
    actor_lr: f32,
    rng: XorShift,
    updates: u64,
    nonfinite_inputs: u64,
}

impl ActorCritic {
    /// Creates an agent with freshly initialized paper-topology networks.
    pub fn new(cfg: AgentConfig) -> Self {
        let widths_a = [cfg.state_dim, cfg.hidden, cfg.hidden, cfg.action_dim];
        let widths_c = [cfg.state_dim, cfg.hidden, cfg.hidden, 1];
        let actor = Mlp::new(&widths_a, crate::layers::Activation::Relu, cfg.seed);
        let critic = Mlp::new(
            &widths_c,
            crate::layers::Activation::Relu,
            cfg.seed.wrapping_add(1),
        );
        let actor_adam = actor.make_adam();
        let critic_adam = critic.make_adam();
        let actor_lr = cfg.actor_lr;
        let rng = XorShift(cfg.seed | 1);
        ActorCritic {
            cfg,
            actor,
            critic,
            actor_adam,
            critic_adam,
            actor_lr,
            rng,
            updates: 0,
            nonfinite_inputs: 0,
        }
    }

    /// The deterministic policy mean: `sigmoid(actor(state))`.
    pub fn act_greedy(&mut self, state: &[f32]) -> Vec<f32> {
        self.actor.forward(state).into_iter().map(sigmoid).collect()
    }

    /// Samples an exploratory action: policy mean plus Gaussian noise,
    /// clamped to `[0, 1]` per dimension.
    pub fn act(&mut self, state: &[f32]) -> Vec<f32> {
        let mu = self.act_greedy(state);
        mu.into_iter()
            .map(|m| (m + self.rng.next_gaussian() * self.cfg.exploration_std).clamp(0.0, 1.0))
            .collect()
    }

    /// One-step advantage actor-critic update from `t`. Returns the TD
    /// error (advantage) of the transition, the training-progress signal
    /// surfaced in observability traces.
    pub fn update(&mut self, t: &Transition) -> f32 {
        debug_assert_eq!(t.state.len(), self.cfg.state_dim);
        debug_assert_eq!(t.action.len(), self.cfg.action_dim);

        // Last line of defense: a single NaN/Inf reaching backprop poisons
        // every weight it touches permanently. Upstream (the controller)
        // sanitizes its own telemetry; anything that still arrives
        // non-finite is dropped here, counted, and reported as a zero
        // TD error rather than trained on.
        let finite = t.reward.is_finite()
            && t.state.iter().all(|x| x.is_finite())
            && t.action.iter().all(|x| x.is_finite())
            && t.next_state.iter().all(|x| x.is_finite());
        if !finite {
            self.nonfinite_inputs += 1;
            return 0.0;
        }

        // Critic: TD(0) target with a frozen bootstrap value.
        let v_next = self.critic.forward(&t.next_state)[0];
        let target = t.reward + self.cfg.gamma * v_next;
        self.critic.zero_grad();
        let v_s = self.critic.forward(&t.state)[0];
        let advantage = target - v_s;
        self.critic.backward(&[2.0 * (v_s - target)]);
        self.critic
            .apply_grads(&mut self.critic_adam, self.cfg.critic_lr);

        // Actor: Gaussian policy gradient through the sigmoid squash.
        // ∂(−adv·logπ)/∂μᵢ ∝ −adv·(aᵢ−μᵢ),  ∂μ/∂z = μ(1−μ).
        //
        // The exact likelihood gradient carries a 1/σ² factor; with the
        // small exploration noise used here that amplifies every update by
        // orders of magnitude and turns the policy into a random walk that
        // destroys pretrained initializations. Dropping the factor is the
        // standard practical normalization (it only rescales the learning
        // rate at fixed σ) and keeps online updates gentle.
        self.actor.zero_grad();
        let z = self.actor.forward(&t.state);
        let dz: Vec<f32> = z
            .iter()
            .zip(&t.action)
            .map(|(&zi, &ai)| {
                let mu = sigmoid(zi);
                let d = -advantage * (ai - mu) * mu * (1.0 - mu);
                d.clamp(-1.0, 1.0)
            })
            .collect();
        self.actor.backward(&dz);
        self.actor.apply_grads(&mut self.actor_adam, self.actor_lr);
        self.updates += 1;
        advantage
    }

    /// Adaptive learning-rate rule (paper Section 3.5):
    /// `lr ← lr · (1 − reward)`, clamped to a sane range. Negative rewards
    /// (hit-rate drops after a workload shift) raise the rate; positive
    /// rewards decay it toward convergence.
    pub fn adapt_lr(&mut self, reward: f32) {
        if self.cfg.adaptive_lr {
            self.actor_lr = (self.actor_lr * (1.0 - reward)).clamp(1e-5, 0.1);
        }
    }

    /// The current (possibly adapted) actor learning rate.
    pub fn actor_lr(&self) -> f32 {
        self.actor_lr
    }

    /// Enables or disables the adaptive learning-rate rule (ablations and
    /// pretrained deployments retune this after loading).
    pub fn set_adaptive_lr(&mut self, enabled: bool) {
        self.cfg.adaptive_lr = enabled;
    }

    /// Retunes the exploration noise. The controller couples this to the
    /// adaptive learning rate: explore harder right after a workload shift,
    /// settle once the policy converges.
    pub fn set_exploration_std(&mut self, std: f32) {
        self.cfg.exploration_std = std.clamp(0.0, 0.5);
    }

    /// The current exploration noise level.
    pub fn exploration_std(&self) -> f32 {
        self.cfg.exploration_std
    }

    /// Number of updates applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Transitions rejected because they carried NaN/Inf (never trained on).
    pub fn nonfinite_inputs(&self) -> u64 {
        self.nonfinite_inputs
    }

    /// The agent's configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.cfg
    }

    /// Total parameter count across actor and critic (paper Table 2).
    pub fn param_count(&self) -> usize {
        self.actor.param_count() + self.critic.param_count()
    }

    /// Memory accounting matching the paper's Table 2:
    /// `(model_bytes, gradient_bytes, adam_bytes)`.
    pub fn memory_breakdown(&self) -> (usize, usize, usize) {
        let model = self.actor.memory_bytes() + self.critic.memory_bytes();
        // Backprop needs one gradient per parameter; Adam keeps two moments.
        let grads = model;
        let adam = self.actor_adam.memory_bytes() + self.critic_adam.memory_bytes();
        (model, grads, adam)
    }

    /// Direct access to the actor Adam state (pretraining).
    pub fn actor_parts(&mut self) -> (&mut Mlp, &mut Adam) {
        (&mut self.actor, &mut self.actor_adam)
    }

    /// Serializes both networks plus config to JSON.
    pub fn to_json(&self) -> String {
        let saved = SavedAgent {
            cfg: self.cfg.clone(),
            actor: self.actor.to_json(),
            critic: self.critic.to_json(),
        };
        serde_json::to_string(&saved).expect("agent serialization cannot fail")
    }

    /// Restores an agent saved with [`ActorCritic::to_json`]. Optimizer
    /// state starts fresh (pretrained deployment, paper Section 3.6).
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        let saved: SavedAgent = serde_json::from_str(s)?;
        let actor = Mlp::from_json(&saved.actor)?;
        let critic = Mlp::from_json(&saved.critic)?;
        let actor_adam = actor.make_adam();
        let critic_adam = critic.make_adam();
        let actor_lr = saved.cfg.actor_lr;
        let rng = XorShift(saved.cfg.seed | 1);
        Ok(ActorCritic {
            cfg: saved.cfg,
            actor,
            critic,
            actor_adam,
            critic_adam,
            actor_lr,
            rng,
            updates: 0,
            nonfinite_inputs: 0,
        })
    }
}

#[derive(Serialize, Deserialize)]
struct SavedAgent {
    cfg: AgentConfig,
    actor: String,
    critic: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bandit_reward(a: &[f32]) -> f32 {
        // Peak reward at action (0.8, 0.2): a smooth two-dim bandit.
        1.0 - (a[0] - 0.8).powi(2) - (a[1] - 0.2).powi(2)
    }

    #[test]
    fn actions_are_bounded() {
        let mut agent = ActorCritic::new(AgentConfig::small(4, 3));
        for i in 0..50 {
            let s = vec![i as f32 / 50.0; 4];
            for a in agent.act(&s) {
                assert!((0.0..=1.0).contains(&a));
            }
        }
    }

    #[test]
    fn learns_a_stationary_bandit() {
        let mut cfg = AgentConfig::small(2, 2);
        cfg.exploration_std = 0.1;
        cfg.actor_lr = 3e-3;
        cfg.adaptive_lr = false;
        let mut agent = ActorCritic::new(cfg);
        let state = vec![0.5, 0.5];
        for _ in 0..3000 {
            let action = agent.act(&state);
            let reward = bandit_reward(&action);
            agent.update(&Transition {
                state: state.clone(),
                action,
                reward,
                next_state: state.clone(),
            });
        }
        let mu = agent.act_greedy(&state);
        assert!((mu[0] - 0.8).abs() < 0.2, "mu0 = {}", mu[0]);
        assert!((mu[1] - 0.2).abs() < 0.2, "mu1 = {}", mu[1]);
    }

    #[test]
    fn adaptive_lr_rises_on_negative_reward() {
        let mut agent = ActorCritic::new(AgentConfig::small(2, 2));
        let lr0 = agent.actor_lr();
        agent.adapt_lr(-0.5);
        assert!(agent.actor_lr() > lr0, "negative reward must raise lr");
        let lr1 = agent.actor_lr();
        agent.adapt_lr(0.5);
        assert!(agent.actor_lr() < lr1, "positive reward must lower lr");
        // Clamped at both ends.
        for _ in 0..100 {
            agent.adapt_lr(-1.0);
        }
        assert!(agent.actor_lr() <= 0.1);
        for _ in 0..1000 {
            agent.adapt_lr(0.99);
        }
        assert!(agent.actor_lr() >= 1e-5);
    }

    #[test]
    fn memory_matches_paper_table2() {
        let agent = ActorCritic::new(AgentConfig::paper_default(12, 4));
        let (model, grads, adam) = agent.memory_breakdown();
        // Paper: ~550 KB weights, total training overhead ≈ 4× weights ≈ 2 MB.
        assert!((500_000..650_000).contains(&model), "model bytes {model}");
        assert_eq!(grads, model);
        assert_eq!(adam, 2 * model);
        let total = model + grads + adam;
        assert!((2_000_000..2_600_000).contains(&total), "total {total}");
        assert!((130_000..160_000).contains(&agent.param_count()));
    }

    #[test]
    fn save_load_preserves_policy() {
        let mut agent = ActorCritic::new(AgentConfig::small(3, 2));
        let s = vec![0.2, 0.4, 0.6];
        // Train a little so the weights are not fresh.
        for _ in 0..20 {
            let a = agent.act(&s);
            agent.update(&Transition {
                state: s.clone(),
                action: a,
                reward: 0.3,
                next_state: s.clone(),
            });
        }
        let mu = agent.act_greedy(&s);
        let mut restored = ActorCritic::from_json(&agent.to_json()).unwrap();
        assert_eq!(restored.act_greedy(&s), mu);
        assert_eq!(restored.updates(), 0, "optimizer state starts fresh");
    }

    #[test]
    fn nonfinite_transitions_are_rejected_not_trained_on() {
        let mut agent = ActorCritic::new(AgentConfig::small(2, 2));
        let s = vec![0.5, 0.5];
        let clean_mu = agent.act_greedy(&s);
        let poisoned = Transition {
            state: vec![f32::NAN, 0.5],
            action: vec![0.5, 0.5],
            reward: 0.1,
            next_state: s.clone(),
        };
        assert_eq!(agent.update(&poisoned), 0.0);
        let inf_reward = Transition {
            state: s.clone(),
            action: vec![0.5, 0.5],
            reward: f32::INFINITY,
            next_state: s.clone(),
        };
        assert_eq!(agent.update(&inf_reward), 0.0);
        assert_eq!(agent.nonfinite_inputs(), 2);
        assert_eq!(agent.updates(), 0, "poisoned transitions never count");
        // The policy is untouched and still finite.
        let mu = agent.act_greedy(&s);
        assert_eq!(mu, clean_mu);
        assert!(mu.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn exploration_is_deterministic_per_seed() {
        let mk = |seed| {
            let mut cfg = AgentConfig::small(2, 2);
            cfg.seed = seed;
            ActorCritic::new(cfg)
        };
        let s = vec![0.1, 0.9];
        let a1 = mk(7).act(&s);
        let a2 = mk(7).act(&s);
        let a3 = mk(8).act(&s);
        assert_eq!(a1, a2);
        assert_ne!(a1, a3);
    }
}
