//! Cacheus (Rodriguez et al., FAST '21): LeCaR's successor with
//! scan-resistant and churn-resistant experts and an adaptive learning rate.
//!
//! Two changes over LeCaR, both reproduced here:
//!
//! 1. **Experts.** LRU is replaced by **SR-LRU** (scan-resistant LRU: new
//!    keys enter a probationary segment and only re-accessed keys are
//!    promoted to the protected segment, so a one-pass scan cannot flush
//!    established residents), and LFU by **CR-LFU** (churn-resistant LFU:
//!    frequency ties evict the most recently inserted key, protecting the
//!    established residents under key churn).
//! 2. **Adaptive learning rate.** Instead of LeCaR's fixed λ, the learning
//!    rate grows while the recent regret trend worsens and shrinks while it
//!    improves, following the gradient heuristic in the Cacheus paper.

use super::lfu::TieBreak;
use super::{GhostHistory, LfuPolicy, Policy};
use adcache_lsm::heap;
use std::collections::{BTreeMap, HashMap};

const DISCOUNT: f64 = 0.005;

/// Scan-resistant LRU used as Cacheus's recency expert.
///
/// Residents split into a probationary segment `S` (first touch) and a
/// protected segment `R` (re-accessed). Victims come from `S` first; `R` is
/// demoted into `S` only when `S` is empty.
struct SrLru {
    s: BTreeMap<u64, u32>,
    r: BTreeMap<u64, u32>,
    meta: HashMap<u32, (bool, u64)>, // (protected, tick)
    clock: u64,
}

impl SrLru {
    fn new() -> Self {
        SrLru {
            s: BTreeMap::new(),
            r: BTreeMap::new(),
            meta: HashMap::new(),
            clock: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn insert(&mut self, slot: u32) {
        let t = self.tick();
        self.s.insert(t, slot);
        self.meta.insert(slot, (false, t));
    }

    fn hit(&mut self, slot: u32) {
        let Some(&(protected, tick)) = self.meta.get(&slot) else {
            return;
        };
        if protected {
            self.r.remove(&tick);
        } else {
            self.s.remove(&tick);
        }
        let t = self.tick();
        self.r.insert(t, slot);
        self.meta.insert(slot, (true, t));
    }

    fn victim(&mut self) -> Option<u32> {
        let from_s = !self.s.is_empty();
        let map = if from_s { &mut self.s } else { &mut self.r };
        let (_, slot) = map.pop_first()?;
        self.meta.remove(&slot);
        Some(slot)
    }

    fn remove(&mut self, slot: u32) {
        if let Some((protected, tick)) = self.meta.remove(&slot) {
            if protected {
                self.r.remove(&tick);
            } else {
                self.s.remove(&tick);
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        heap::btree_map(&self.s) + heap::btree_map(&self.r) + heap::hash_map(&self.meta)
    }
}

/// Cacheus policy state.
pub struct CacheusPolicy {
    srlru: SrLru,
    crlfu: LfuPolicy,
    /// Identity of every resident slot's entry (see [`Policy::on_insert`]).
    identities: HashMap<u32, u64>,
    hist_lru: GhostHistory,
    hist_lfu: GhostHistory,
    w_lru: f64,
    w_lfu: f64,
    /// Adaptive learning rate.
    lr: f64,
    /// Regret accumulated in the current and previous adaptation windows.
    window_regret: f64,
    prev_window_regret: f64,
    ops_in_window: u64,
    step: u64,
    resident: usize,
    rng_state: u64,
}

impl CacheusPolicy {
    /// Creates the policy with equal expert weights and the paper's initial
    /// learning rate.
    pub fn new() -> Self {
        Self::with_seed(0x0CAC_4E05)
    }

    /// Deterministic construction.
    pub fn with_seed(seed: u64) -> Self {
        CacheusPolicy {
            srlru: SrLru::new(),
            crlfu: LfuPolicy::with_tiebreak(TieBreak::Mru),
            identities: HashMap::new(),
            hist_lru: GhostHistory::new(),
            hist_lfu: GhostHistory::new(),
            w_lru: 0.5,
            w_lfu: 0.5,
            lr: 0.45,
            window_regret: 0.0,
            prev_window_regret: 0.0,
            ops_in_window: 0,
            step: 0,
            resident: 0,
            rng_state: seed.max(1),
        }
    }

    fn rand_unit(&mut self) -> f64 {
        self.rng_state ^= self.rng_state << 13;
        self.rng_state ^= self.rng_state >> 7;
        self.rng_state ^= self.rng_state << 17;
        (self.rng_state >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Current `(w_srlru, w_crlfu)` weights.
    pub fn weights(&self) -> (f64, f64) {
        (self.w_lru, self.w_lfu)
    }

    /// Current adaptive learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn penalize(&mut self, blame_lru: bool, evicted_at: u64) {
        let age = self.step.saturating_sub(evicted_at) as f64;
        let n = self.resident.max(1) as f64;
        let regret = DISCOUNT.powf(age / n);
        self.window_regret += regret;
        let factor = (self.lr * regret).exp();
        if blame_lru {
            self.w_lfu *= factor;
        } else {
            self.w_lru *= factor;
        }
        let total = self.w_lru + self.w_lfu;
        self.w_lru /= total;
        self.w_lfu /= total;
    }

    fn maybe_adapt_lr(&mut self) {
        // Adapt once per resident-set-sized window, per the Cacheus paper's
        // gradient heuristic: regret rising => explore harder; falling =>
        // settle down.
        self.ops_in_window += 1;
        let window = (self.resident.max(16)) as u64;
        if self.ops_in_window < window {
            return;
        }
        if self.window_regret > self.prev_window_regret {
            self.lr = (self.lr * 1.1).min(1.0);
        } else {
            self.lr = (self.lr * 0.9).max(0.001);
        }
        self.prev_window_regret = self.window_regret;
        self.window_regret = 0.0;
        self.ops_in_window = 0;
    }

    fn trim_history(&mut self) {
        let limit = self.resident.max(8);
        self.hist_lru.trim(limit);
        self.hist_lfu.trim(limit);
    }
}

impl Default for CacheusPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for CacheusPolicy {
    fn on_insert(&mut self, slot: u32, identity: u64) {
        self.step += 1;
        if let Some(at) = self.hist_lru.take(identity) {
            self.penalize(true, at);
        } else if let Some(at) = self.hist_lfu.take(identity) {
            self.penalize(false, at);
        }
        self.identities.insert(slot, identity);
        self.srlru.insert(slot);
        self.crlfu.on_insert(slot, identity);
        self.resident += 1;
        self.maybe_adapt_lr();
        self.trim_history();
    }

    fn on_hit(&mut self, slot: u32) {
        self.step += 1;
        self.srlru.hit(slot);
        self.crlfu.on_hit(slot);
        self.maybe_adapt_lr();
    }

    fn victim(&mut self) -> Option<u32> {
        if self.resident == 0 {
            return None;
        }
        let use_lru = self.rand_unit() < self.w_lru;
        let victim = if use_lru {
            self.srlru.victim()
        } else {
            self.crlfu.victim()
        }?;
        let identity = self.identities.remove(&victim)?;
        if use_lru {
            self.crlfu.on_external_remove(victim);
            self.hist_lru.record(identity, self.step);
        } else {
            self.srlru.remove(victim);
            self.hist_lfu.record(identity, self.step);
        }
        self.resident -= 1;
        self.trim_history();
        Some(victim)
    }

    fn on_external_remove(&mut self, slot: u32) {
        self.identities.remove(&slot);
        self.srlru.remove(slot);
        self.crlfu.on_external_remove(slot);
        self.resident = self.resident.saturating_sub(1);
    }

    fn heap_bytes(&self) -> usize {
        self.srlru.heap_bytes()
            + self.crlfu.heap_bytes()
            + heap::hash_map(&self.identities)
            + self.hist_lru.heap_bytes()
            + self.hist_lfu.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srlru_is_scan_resistant() {
        // Protected (re-accessed) keys survive a one-pass scan that flows
        // through the probationary segment.
        let mut p = CacheusPolicy::with_seed(1);
        p.on_insert(900, 900);
        p.on_insert(901, 901);
        p.on_hit(900);
        p.on_hit(901);
        // Force expert choice to SR-LRU by pinning the weights.
        p.w_lru = 1.0;
        p.w_lfu = 0.0;
        for k in 0..100u32 {
            p.on_insert(k, u64::from(k));
            while p.resident > 6 {
                let v = p.victim().unwrap();
                assert!(v != 900 && v != 901, "protected key {v} evicted by scan");
            }
        }
    }

    #[test]
    fn crlfu_tiebreak_is_churn_resistant() {
        let mut p = CacheusPolicy::with_seed(1);
        p.w_lru = 0.0;
        p.w_lfu = 1.0;
        p.on_insert(1, 1);
        p.on_insert(2, 2);
        // Same frequency: CR-LFU evicts the newest insert.
        assert_eq!(p.victim(), Some(2));
    }

    #[test]
    fn learning_rate_adapts() {
        let mut p = CacheusPolicy::with_seed(5);
        let initial = p.learning_rate();
        // Build regret: insert, evict, re-insert the evicted key repeatedly.
        for round in 0..400u32 {
            for k in 0..8 {
                p.on_insert(round * 8 + k, u64::from(round * 8 + k));
            }
            let mut evicted = Vec::new();
            while p.resident > 8 {
                evicted.extend(p.victim());
            }
            // Re-insert a few historical keys to generate regret.
            let ghosts = evicted
                .into_iter()
                .filter(|&v| p.hist_lru.evicted_at.contains_key(&u64::from(v)))
                .take(2);
            for g in ghosts.collect::<Vec<u32>>() {
                p.on_insert(g, u64::from(g));
            }
        }
        assert_ne!(
            p.learning_rate(),
            initial,
            "learning rate should have moved"
        );
    }

    #[test]
    fn weights_stay_normalized_under_pressure() {
        let mut p = CacheusPolicy::with_seed(9);
        for k in 0..500u32 {
            p.on_insert(k, u64::from(k));
            if k % 3 == 0 {
                p.victim();
            }
            let (a, b) = p.weights();
            assert!((a + b - 1.0).abs() < 1e-9);
            assert!(a >= 0.0 && b >= 0.0);
        }
    }

    #[test]
    fn contract() {
        super::super::check_policy_contract(Box::new(CacheusPolicy::new()));
    }
}
