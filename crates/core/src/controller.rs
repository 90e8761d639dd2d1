//! The Policy Decision Controller (paper Figure 4, Sections 3.5/4.2).
//!
//! Every `window` operations the controller consumes a [`WindowSummary`],
//! converts it into the reward signal, trains the actor-critic one step,
//! and emits the next [`CacheDecision`]. Decisions are applied for the
//! *following* window — "cache parameter updates are always one window
//! behind the latest observed workload" (Section 4.2).

use crate::engine::{CachedDb, Strategy};
use crate::reward::{h_estimate, RewardSmoother};
use crate::stats::WindowSummary;
use adcache_obs::{Counter, Event, Obs};
use adcache_rl::{ActorCritic, AgentConfig, Transition};

/// Number of state features fed to the agent.
pub const STATE_DIM: usize = 13;
/// Number of control outputs.
pub const ACTION_DIM: usize = 4;

/// The controller's output: cache partitioning plus admission parameters
/// for the next window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheDecision {
    /// Fraction of total cache memory given to the range cache (the rest
    /// goes to the block cache).
    pub range_ratio: f64,
    /// Normalized-importance threshold for point-lookup admission.
    pub point_threshold: f64,
    /// Full-admission scan-length cut-off `a`.
    pub scan_a: usize,
    /// Partial-admission slope `b`.
    pub scan_b: f64,
}

impl Default for CacheDecision {
    fn default() -> Self {
        // Paper defaults: an even split to start, near-zero threshold, and
        // `a` initialized to the short-scan length.
        CacheDecision {
            range_ratio: 0.5,
            point_threshold: 0.0,
            scan_a: 16,
            scan_b: 0.25,
        }
    }
}

impl CacheDecision {
    /// The action vector that would produce this decision — the inverse of
    /// the controller's action mapping, used to build supervised
    /// pretraining targets from controlled experiments (Section 3.6).
    pub fn to_action(&self) -> Vec<f32> {
        vec![
            self.range_ratio as f32,
            (self.point_threshold / 0.01).clamp(0.0, 1.0) as f32,
            (self.scan_a.min(64) as f64 / 64.0) as f32,
            self.scan_b.clamp(0.0, 1.0) as f32,
        ]
    }
}

/// Featurizes a window into the agent's state vector, given the range
/// ratio currently in force. All features are scaled to roughly `[0, 1]`.
pub fn featurize_with(range_ratio: f64, w: &WindowSummary) -> Vec<f32> {
    let ops = w.ops().max(1) as f64;
    let reads = (w.points + w.scans).max(1) as f64;
    vec![
        (w.points as f64 / ops) as f32,
        (w.scans as f64 / ops) as f32,
        (w.writes as f64 / ops) as f32,
        (w.avg_scan_len / 64.0).min(2.0) as f32,
        ((w.range_hits + w.kv_hits) as f64 / reads) as f32,
        w.block_hit_rate as f32,
        h_estimate(w).max(0.0) as f32,
        range_ratio as f32,
        w.block_occupancy as f32,
        w.range_occupancy as f32,
        (w.compactions as f64 / 4.0).min(1.0) as f32,
        (w.runs as f64 / 16.0).min(1.0) as f32,
        (w.cache_fraction / 2.0) as f32,
    ]
}

/// Controller configuration.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Operations per tuning window (paper: 1000).
    pub window: u64,
    /// Reward smoothing factor α (paper: 0.9).
    pub alpha: f64,
    /// Whether adaptive partitioning is active (ablation switch).
    pub enable_partition: bool,
    /// Whether admission control is active (ablation switch).
    pub enable_admission: bool,
    /// Whether online training runs (off = pretrained-only deployment).
    pub online: bool,
    /// Whether the adaptive learning-rate rule is active (ablation).
    pub adaptive_lr: bool,
    /// Hidden width of the agent's networks (paper: 256; simulations may
    /// shrink it for speed without changing behaviour qualitatively).
    pub hidden: usize,
    /// Agent RNG seed.
    pub seed: u64,
    /// Whether the adversarial-window guard is active: a window whose raw
    /// hit estimate falls more than `GUARD_H_DROP` below the smoothed
    /// signal gets its reward clamped to ±`GUARD_REWARD_CLAMP` and the
    /// lr/exploration adaptation frozen, so one poisoned window cannot
    /// destabilize the boundary policy.
    pub adversarial_guard: bool,
}

/// Raw-vs-smoothed hit-estimate drop that flags a window as adversarial.
/// Organic shifts move the estimate gradually; a drop this steep within
/// one window means the telemetry itself is under attack (scan flood,
/// sketch churn).
const GUARD_H_DROP: f64 = 0.35;

/// Reward magnitude cap applied to adversarial windows.
const GUARD_REWARD_CLAMP: f64 = 0.25;

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            window: 1000,
            alpha: 0.9,
            enable_partition: true,
            enable_admission: true,
            online: true,
            adaptive_lr: true,
            hidden: 256,
            seed: 0xADCA,
            adversarial_guard: true,
        }
    }
}

impl ControllerConfig {
    /// The paper's settings with the agent's hidden width cut from 256 to
    /// 64: the experiment runner's and the shell's starting point.
    pub fn scaled_down() -> Self {
        ControllerConfig {
            hidden: 64,
            ..Default::default()
        }
    }
}

/// One record of what the controller saw and decided (experiment output).
#[derive(Debug, Clone)]
pub struct TuningRecord {
    /// Raw estimated hit rate for the window.
    pub h_estimate: f64,
    /// Smoothed hit rate.
    pub h_smoothed: f64,
    /// Reward fed to the agent.
    pub reward: f64,
    /// Actor learning rate after adaptation.
    pub actor_lr: f32,
    /// The decision applied to the *next* window.
    pub decision: CacheDecision,
    /// Whether the adversarial-window guard flagged this window.
    pub adversarial: bool,
}

/// The windowed RL tuning loop.
pub struct Controller {
    cfg: ControllerConfig,
    agent: ActorCritic,
    smoother: RewardSmoother,
    last: Option<(Vec<f32>, Vec<f32>)>,
    decision: CacheDecision,
    history: Vec<TuningRecord>,
    base_lr: f32,
    base_std: f32,
    nonfinite_repairs: u64,
    feature_clamps: u64,
    adversarial_windows: Counter,
    obs: Obs,
}

impl Controller {
    /// Creates a controller with a freshly initialized agent.
    pub fn new(cfg: ControllerConfig) -> Self {
        let mut agent_cfg = AgentConfig::paper_default(STATE_DIM, ACTION_DIM);
        agent_cfg.hidden = cfg.hidden;
        agent_cfg.seed = cfg.seed;
        agent_cfg.adaptive_lr = cfg.adaptive_lr;
        Self::with_agent(cfg, ActorCritic::new(agent_cfg))
    }

    /// Creates a controller around an existing (e.g. pretrained) agent.
    pub fn with_agent(cfg: ControllerConfig, agent: ActorCritic) -> Self {
        assert_eq!(agent.config().state_dim, STATE_DIM);
        assert_eq!(agent.config().action_dim, ACTION_DIM);
        let smoother = RewardSmoother::new(cfg.alpha);
        let mut agent = agent;
        agent.set_adaptive_lr(cfg.adaptive_lr);
        let base_lr = agent.actor_lr();
        let base_std = agent.exploration_std();
        Controller {
            cfg,
            agent,
            smoother,
            last: None,
            decision: CacheDecision::default(),
            history: Vec::new(),
            base_lr,
            base_std,
            nonfinite_repairs: 0,
            feature_clamps: 0,
            adversarial_windows: Counter::new(),
            obs: Obs::disabled(),
        }
    }

    /// The controller that tunes `db`, or `None` when nothing is tuned
    /// there: every strategy but AdCache, and a store whose decision is
    /// `pinned` (applied here, once). It starts from `pretrained` (an
    /// agent's JSON) when given, untrained otherwise, and journals to
    /// `db`'s trace.
    pub fn for_store(
        db: &CachedDb,
        pinned: Option<&CacheDecision>,
        cfg: ControllerConfig,
        pretrained: Option<&str>,
    ) -> Option<Self> {
        if let Some(d) = pinned {
            db.apply_decision(d);
        }
        if pinned.is_some() || db.strategy() != Strategy::AdCache {
            return None;
        }
        let mut controller = match pretrained.map(ActorCritic::from_json) {
            Some(agent) => Self::with_agent(cfg, agent.expect("invalid pretrained agent JSON")),
            None => Self::new(cfg),
        };
        controller.set_obs(db.obs());
        Some(controller)
    }

    /// Attaches an observability handle: every subsequent window journals
    /// its train step and decision, and the registry names the
    /// adversarial-window count `core.adversarial_windows`.
    pub fn set_obs(&mut self, obs: Obs) {
        obs.adopt_counter("core.adversarial_windows", &self.adversarial_windows);
        self.obs = obs;
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// The decision currently in force.
    pub fn decision(&self) -> CacheDecision {
        self.decision
    }

    /// Per-window tuning records (Figure 10's time series).
    pub fn history(&self) -> &[TuningRecord] {
        &self.history
    }

    /// The underlying agent (for saving a trained model).
    pub fn agent(&self) -> &ActorCritic {
        &self.agent
    }

    /// Featurizes a window into the agent's state vector. All features are
    /// scaled to roughly `[0, 1]`.
    pub fn featurize(&self, w: &WindowSummary) -> Vec<f32> {
        featurize_with(self.decision.range_ratio, w)
    }

    fn map_action(&self, a: &[f32]) -> CacheDecision {
        // Smooth the boundary: flipping the ratio wholesale evicts both
        // caches, so a per-window EMA turns decisive moves into a short
        // ramp and suppresses oscillation when the policy is ambivalent.
        let smoothed_ratio = 0.5 * self.decision.range_ratio + 0.5 * a[0] as f64;
        let mut d = CacheDecision {
            range_ratio: smoothed_ratio,
            // Threshold range [0, 1%]: one-off keys score ~1/window, so a
            // sub-percent ceiling is the meaningful control band.
            point_threshold: a[1] as f64 * 0.01,
            scan_a: (a[2] as f64 * 64.0).round() as usize,
            scan_b: a[3] as f64,
        };
        if !self.cfg.enable_partition {
            // Ablation: admission only — the memory stays a pure range cache.
            d.range_ratio = 1.0;
        }
        if !self.cfg.enable_admission {
            // Ablation: partitioning only — admit everything.
            d.point_threshold = 0.0;
            d.scan_a = usize::MAX;
            d.scan_b = 1.0;
        }
        d
    }

    /// Non-finite features or rewards repaired (replaced by 0.0) before
    /// reaching the agent. Non-zero means a degraded window (fault storm,
    /// counter anomaly) produced bad telemetry — the controller absorbed it
    /// rather than poisoning the network weights.
    pub fn nonfinite_repairs(&self) -> u64 {
        self.nonfinite_repairs
    }

    /// Feature values clipped back into the sane `[0, 2]` band before
    /// reaching the agent. Like [`nonfinite_repairs`](Self::nonfinite_repairs),
    /// non-zero means the telemetry went out of spec and the controller
    /// bounded the damage.
    pub fn feature_clamps(&self) -> u64 {
        self.feature_clamps
    }

    /// Windows the adversarial guard flagged (reward clamped, adaptation
    /// frozen).
    pub fn adversarial_windows(&self) -> u64 {
        self.adversarial_windows.get()
    }

    /// Replaces any NaN/Inf element with 0.0 and clips the rest into the
    /// `[0, 2]` band every feature is scaled to, counting repairs. The
    /// clip means a counter blown out by hostile traffic saturates a
    /// feature instead of dominating the network's input scale.
    fn sanitize(&mut self, v: &mut [f32]) {
        for x in v.iter_mut() {
            if !x.is_finite() {
                *x = 0.0;
                self.nonfinite_repairs += 1;
            } else if !(0.0..=2.0).contains(x) {
                *x = x.clamp(0.0, 2.0);
                self.feature_clamps += 1;
            }
        }
    }

    /// Consumes a finished window; trains; returns the decision for the
    /// next window.
    pub fn end_of_window(&mut self, w: &WindowSummary) -> CacheDecision {
        let mut h = h_estimate(w);
        if !h.is_finite() {
            h = 0.0;
            self.nonfinite_repairs += 1;
        }
        // The guard compares the raw estimate against the *previous*
        // smoothed signal: a collapse steeper than any organic workload
        // shift marks the window adversarial before it can train.
        let prev_smoothed = self.smoother.smoothed();
        let (h_smoothed, mut reward) = self.smoother.update(h);
        if !reward.is_finite() {
            reward = 0.0;
            self.nonfinite_repairs += 1;
        }
        let adversarial =
            self.cfg.adversarial_guard && prev_smoothed.is_some_and(|prev| prev - h > GUARD_H_DROP);
        if adversarial {
            let raw_reward = reward;
            reward = reward.clamp(-GUARD_REWARD_CLAMP, GUARD_REWARD_CLAMP);
            self.adversarial_windows.inc();
            self.obs.emit(|| Event::AdversaryDetected {
                source: "controller".into(),
                h_estimate: h,
                h_smoothed,
                raw_reward,
                clamped_reward: reward,
            });
        }
        let mut next_state = self.featurize(w);
        self.sanitize(&mut next_state);

        if self.cfg.online {
            if let Some((state, action)) = self.last.take() {
                let td_error = self.agent.update(&Transition {
                    state,
                    action: action.clone(),
                    reward: reward as f32,
                    next_state: next_state.clone(),
                });
                self.obs.emit(|| Event::TrainStep {
                    reward,
                    td_error: td_error as f64,
                    actor_lr: self.agent.actor_lr() as f64,
                    action,
                });
            }
            if !adversarial {
                self.agent.adapt_lr(reward as f32);
                // Couple exploration to the adaptive learning rate: a
                // workload shift (negative reward) raises lr and widens
                // exploration; a stable workload narrows it, avoiding
                // boundary jitter that would cause gratuitous evictions.
                // Adversarial windows skip both — raising lr and widening
                // exploration on poisoned feedback is exactly how an
                // attacker would steer the boundary.
                let lr_scale = (self.agent.actor_lr() / self.base_lr).clamp(0.2, 2.0);
                self.agent.set_exploration_std(self.base_std * lr_scale);
            }
        }

        let action = if self.cfg.online {
            self.agent.act(&next_state)
        } else {
            self.agent.act_greedy(&next_state)
        };
        self.decision = self.map_action(&action);
        {
            let d = self.decision;
            let exploratory = self.cfg.online;
            self.obs.emit(|| Event::ControllerDecision {
                range_ratio: d.range_ratio,
                point_threshold: d.point_threshold,
                scan_a: d.scan_a as u64,
                scan_b: d.scan_b,
                exploratory,
            });
        }
        self.last = Some((next_state, action));
        self.history.push(TuningRecord {
            h_estimate: h,
            h_smoothed,
            reward,
            actor_lr: self.agent.actor_lr(),
            decision: self.decision,
            adversarial,
        });
        self.decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(points: u64, scans: u64, writes: u64, io_miss: u64) -> WindowSummary {
        WindowSummary {
            points,
            scans,
            writes,
            avg_scan_len: if scans > 0 { 16.0 } else { 0.0 },
            io_miss,
            entries_per_block: 4.0,
            levels: 3,
            r0_max: 8,
            runs: 5,
            ..Default::default()
        }
    }

    fn small_cfg() -> ControllerConfig {
        ControllerConfig {
            hidden: 16,
            ..Default::default()
        }
    }

    #[test]
    fn decisions_are_always_in_range() {
        let mut c = Controller::new(small_cfg());
        for i in 0..50 {
            let d = c.end_of_window(&window(500 + i, 300, 200, 400));
            assert!((0.0..=1.0).contains(&d.range_ratio));
            assert!((0.0..=0.01).contains(&d.point_threshold));
            assert!(d.scan_a <= 64);
            assert!((0.0..=1.0).contains(&d.scan_b));
        }
        assert_eq!(c.history().len(), 50);
    }

    #[test]
    fn featurization_is_bounded_and_dimensioned() {
        let c = Controller::new(small_cfg());
        let f = c.featurize(&window(900, 50, 50, 100));
        assert_eq!(f.len(), STATE_DIM);
        for (i, v) in f.iter().enumerate() {
            assert!((-0.01..=2.01).contains(v), "feature {i} = {v}");
        }
        // Empty window must not divide by zero.
        let f = c.featurize(&WindowSummary::default());
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ablation_flags_pin_parameters() {
        let mut cfg = small_cfg();
        cfg.enable_partition = false;
        let mut c = Controller::new(cfg);
        let d = c.end_of_window(&window(100, 100, 100, 50));
        assert_eq!(
            d.range_ratio, 1.0,
            "admission-only keeps a pure range cache"
        );

        let mut cfg = small_cfg();
        cfg.enable_admission = false;
        let mut c = Controller::new(cfg);
        let d = c.end_of_window(&window(100, 100, 100, 50));
        assert_eq!(d.point_threshold, 0.0);
        assert_eq!(d.scan_a, usize::MAX);
        assert_eq!(d.scan_b, 1.0);
        assert!(d.range_ratio <= 1.0, "partitioning still free to move");
    }

    #[test]
    fn offline_mode_does_not_train() {
        let mut cfg = small_cfg();
        cfg.online = false;
        let mut c = Controller::new(cfg);
        for _ in 0..10 {
            c.end_of_window(&window(500, 300, 200, 400));
        }
        assert_eq!(c.agent().updates(), 0);
        // Greedy decisions converge: the boundary EMA halves the distance
        // to the policy mean each window, all other outputs are exact.
        let d1 = c.end_of_window(&window(500, 300, 200, 400));
        let d2 = c.end_of_window(&window(500, 300, 200, 400));
        let d3 = c.end_of_window(&window(500, 300, 200, 400));
        // The evolving ratio feature perturbs the other outputs slightly.
        assert!((d1.point_threshold - d2.point_threshold).abs() < 1e-4);
        assert!(d1.scan_a.abs_diff(d2.scan_a) <= 1);
        assert!(
            (d3.range_ratio - d2.range_ratio).abs()
                <= (d2.range_ratio - d1.range_ratio).abs() + 1e-9,
            "ratio must converge: {} {} {}",
            d1.range_ratio,
            d2.range_ratio,
            d3.range_ratio
        );
    }

    #[test]
    fn online_mode_trains_once_per_window_after_first() {
        let mut c = Controller::new(small_cfg());
        c.end_of_window(&window(500, 300, 200, 400));
        assert_eq!(c.agent().updates(), 0, "first window has no transition yet");
        c.end_of_window(&window(500, 300, 200, 400));
        assert_eq!(c.agent().updates(), 1);
        c.end_of_window(&window(500, 300, 200, 400));
        assert_eq!(c.agent().updates(), 2);
    }

    #[test]
    fn poisoned_window_is_repaired_before_training() {
        let mut c = Controller::new(small_cfg());
        let mut w = window(500, 300, 200, 400);
        w.avg_scan_len = f64::NAN;
        w.block_hit_rate = f64::INFINITY;
        // Two windows so a transition actually trains on repaired inputs.
        c.end_of_window(&w);
        let d = c.end_of_window(&w);
        assert!(c.nonfinite_repairs() > 0, "poisoned features were counted");
        assert!(d.range_ratio.is_finite());
        assert!((0.0..=1.0).contains(&d.range_ratio));
        assert!(c.history().iter().all(|r| r.reward.is_finite()));
        // Training continued on sane values: a clean window still works.
        let d = c.end_of_window(&window(500, 300, 200, 400));
        assert!(d.range_ratio.is_finite());
        assert_eq!(c.agent().nonfinite_inputs(), 0, "repairs happen upstream");
    }

    #[test]
    fn adversarial_collapse_clamps_reward_and_freezes_adaptation() {
        // Low alpha so a collapse produces a large raw reward magnitude.
        let mut cfg = small_cfg();
        cfg.alpha = 0.5;
        let mut c = Controller::new(cfg);
        // Healthy windows: ~90% estimated hit rate.
        for _ in 0..5 {
            c.end_of_window(&window(1000, 0, 0, 100));
        }
        assert_eq!(c.adversarial_windows(), 0);
        let lr_before = c.agent().actor_lr();
        let std_before = c.agent().exploration_std();
        // The attack window: every estimated I/O misses.
        c.end_of_window(&window(1000, 0, 0, 1000));
        assert_eq!(c.adversarial_windows(), 1);
        let rec = c.history().last().unwrap();
        assert!(rec.adversarial);
        assert!(
            rec.reward.abs() <= 0.25 + 1e-9,
            "adversarial reward must be clamped: {}",
            rec.reward
        );
        assert_eq!(
            c.agent().actor_lr(),
            lr_before,
            "lr adaptation must freeze on the poisoned window"
        );
        assert_eq!(
            c.agent().exploration_std(),
            std_before,
            "exploration must not widen on the poisoned window"
        );
    }

    #[test]
    fn guard_disabled_passes_raw_reward_through() {
        let mut cfg = small_cfg();
        cfg.alpha = 0.5;
        cfg.adversarial_guard = false;
        let mut c = Controller::new(cfg);
        for _ in 0..5 {
            c.end_of_window(&window(1000, 0, 0, 100));
        }
        c.end_of_window(&window(1000, 0, 0, 1000));
        assert_eq!(c.adversarial_windows(), 0);
        let rec = c.history().last().unwrap();
        assert!(!rec.adversarial);
        assert!(
            rec.reward < -0.25,
            "without the guard the collapse hits the agent raw: {}",
            rec.reward
        );
    }

    #[test]
    fn guard_tolerates_organic_drift() {
        let mut c = Controller::new(small_cfg());
        // Hit rate degrades gradually (workload shift, not an attack).
        for miss in [100u64, 150, 200, 250, 300, 350] {
            c.end_of_window(&window(1000, 0, 0, miss));
        }
        assert_eq!(
            c.adversarial_windows(),
            0,
            "gradual degradation must not trip the guard"
        );
    }

    #[test]
    fn out_of_band_features_are_clipped() {
        let mut c = Controller::new(small_cfg());
        let mut w = window(500, 300, 200, 400);
        w.cache_fraction = 1.0e9; // a blown-out counter feeding a feature
        let d = c.end_of_window(&w);
        assert!(c.feature_clamps() > 0, "oversized feature must be clipped");
        assert!(d.range_ratio.is_finite());
        if let Some((state, _)) = &c.last {
            assert!(state.iter().all(|v| (0.0..=2.0).contains(v)));
        }
    }

    #[test]
    fn reward_history_reflects_hit_rate_trend() {
        let mut c = Controller::new(small_cfg());
        // Improving hit rate (io_miss shrinking) => positive rewards appear.
        for miss in [800u64, 600, 400, 200, 100] {
            c.end_of_window(&window(1000, 0, 0, miss));
        }
        let rewards: Vec<f64> = c.history().iter().map(|r| r.reward).collect();
        assert!(rewards[1..].iter().all(|&r| r > 0.0), "{rewards:?}");
    }
}
