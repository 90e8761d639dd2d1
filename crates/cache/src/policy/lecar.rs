//! LeCaR: learning cache replacement (Vietri et al., HotStorage '18).
//!
//! LeCaR maintains two expert policies — LRU and LFU — over the same
//! resident set, plus one ghost history per expert recording that expert's
//! past eviction decisions. On a miss whose key sits in expert X's history,
//! X is blamed: its weight decays multiplicatively by `e^(-λ·r)` where the
//! regret discount `r = d^(steps since eviction)` fades with time. Victims
//! are drawn from the expert sampled proportionally to the weights.
//!
//! The paper evaluates "Range Cache with LeCaR" as the representative naive
//! combination of ML eviction with an LSM cache structure; this module is
//! that expert mechanism, driven through the shared [`Policy`] trait.

use super::{GhostHistory, LfuPolicy, Policy, SlotLruPolicy};
use adcache_lsm::heap;
use std::collections::HashMap;

const LAMBDA: f64 = 0.45;
const DISCOUNT: f64 = 0.005;

/// LeCaR policy state.
pub struct LeCaRPolicy {
    lru: SlotLruPolicy,
    lfu: LfuPolicy,
    /// Identity of every resident slot's entry (see [`Policy::on_insert`]).
    identities: HashMap<u32, u64>,
    /// Ghost history of LRU's evictions.
    hist_lru: GhostHistory,
    /// Ghost history of LFU's evictions.
    hist_lfu: GhostHistory,
    w_lru: f64,
    w_lfu: f64,
    step: u64,
    resident: usize,
    rng_state: u64,
}

impl LeCaRPolicy {
    /// Creates the policy with equal initial expert weights.
    pub fn new() -> Self {
        Self::with_seed(0xD1CE_5EED)
    }

    /// Deterministic construction for tests and reproducible experiments.
    pub fn with_seed(seed: u64) -> Self {
        LeCaRPolicy {
            lru: SlotLruPolicy::new(),
            lfu: LfuPolicy::new(),
            identities: HashMap::new(),
            hist_lru: GhostHistory::new(),
            hist_lfu: GhostHistory::new(),
            w_lru: 0.5,
            w_lfu: 0.5,
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

    /// Current `(w_lru, w_lfu)` weights (always normalized).
    pub fn weights(&self) -> (f64, f64) {
        (self.w_lru, self.w_lfu)
    }

    fn penalize(&mut self, blame_lru: bool, evicted_at: u64) {
        let age = self.step.saturating_sub(evicted_at) as f64;
        // Regret fades the longer ago the mistaken eviction happened; the
        // exponent is normalized by the resident size as in the paper.
        let n = self.resident.max(1) as f64;
        let regret = DISCOUNT.powf(age / n);
        let factor = (LAMBDA * regret).exp();
        if blame_lru {
            self.w_lfu *= factor;
        } else {
            self.w_lru *= factor;
        }
        let total = self.w_lru + self.w_lfu;
        self.w_lru /= total;
        self.w_lfu /= total;
    }

    fn trim_history(&mut self) {
        let limit = self.resident.max(8);
        self.hist_lru.trim(limit);
        self.hist_lfu.trim(limit);
    }
}

impl Default for LeCaRPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for LeCaRPolicy {
    fn on_insert(&mut self, slot: u32, identity: u64) {
        self.step += 1;
        // A miss on an item a specific expert evicted is that expert's
        // regret.
        if let Some(at) = self.hist_lru.take(identity) {
            self.penalize(true, at);
        } else if let Some(at) = self.hist_lfu.take(identity) {
            self.penalize(false, at);
        }
        self.identities.insert(slot, identity);
        self.lru.on_insert(slot, identity);
        self.lfu.on_insert(slot, identity);
        self.resident += 1;
        self.trim_history();
    }

    fn on_hit(&mut self, slot: u32) {
        self.step += 1;
        self.lru.on_hit(slot);
        self.lfu.on_hit(slot);
    }

    fn victim(&mut self) -> Option<u32> {
        if self.resident == 0 {
            return None;
        }
        let use_lru = self.rand_unit() < self.w_lru;
        // Sample the winning expert's victim; remove it from both experts.
        let victim = if use_lru {
            self.lru.victim()
        } else {
            self.lfu.victim()
        }?;
        let identity = self.identities.remove(&victim)?;
        if use_lru {
            self.lfu.on_external_remove(victim);
            self.hist_lru.record(identity, self.step);
        } else {
            self.lru.on_external_remove(victim);
            self.hist_lfu.record(identity, self.step);
        }
        self.resident -= 1;
        self.trim_history();
        Some(victim)
    }

    fn on_external_remove(&mut self, slot: u32) {
        self.identities.remove(&slot);
        self.lru.on_external_remove(slot);
        self.lfu.on_external_remove(slot);
        self.resident = self.resident.saturating_sub(1);
    }

    fn heap_bytes(&self) -> usize {
        self.lru.heap_bytes()
            + self.lfu.heap_bytes()
            + heap::hash_map(&self.identities)
            + self.hist_lru.heap_bytes()
            + self.hist_lfu.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_start_equal_and_stay_normalized() {
        let p = LeCaRPolicy::new();
        let (a, b) = p.weights();
        assert_eq!(a, 0.5);
        assert_eq!(b, 0.5);
    }

    #[test]
    fn regret_shifts_weight_away_from_blamed_expert() {
        let mut p = LeCaRPolicy::with_seed(3);
        for k in 0..8u32 {
            p.on_insert(k, u64::from(k));
        }
        // Force evictions and find one from the LRU history, then re-insert
        // it: LRU is blamed, so w_lru must drop.
        let mut lru_victim = None;
        for _ in 0..6 {
            let v = p.victim().unwrap();
            if p.hist_lru.evicted_at.contains_key(&u64::from(v)) {
                lru_victim = Some(v);
                break;
            }
        }
        if let Some(v) = lru_victim {
            let (w_before, _) = p.weights();
            p.on_insert(v, u64::from(v));
            let (w_after, w_lfu_after) = p.weights();
            assert!(w_after < w_before, "LRU blamed: {w_before} -> {w_after}");
            assert!((w_after + w_lfu_after - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn victims_come_from_both_experts_over_time() {
        let mut p = LeCaRPolicy::with_seed(42);
        let mut lru_picks = 0;
        let mut lfu_picks = 0;
        for round in 0..200u32 {
            for k in 0..8 {
                let key = round * 100 + k;
                p.on_insert(key, u64::from(key));
                // Bias frequencies so the experts disagree.
                if k == 0 {
                    p.on_hit(key);
                    p.on_hit(key);
                }
            }
            for _ in 0..8 {
                let v = p.victim().unwrap();
                if p.hist_lru.evicted_at.contains_key(&u64::from(v)) {
                    lru_picks += 1;
                } else {
                    lfu_picks += 1;
                }
            }
        }
        assert!(
            lru_picks > 0 && lfu_picks > 0,
            "lru={lru_picks} lfu={lfu_picks}"
        );
    }

    #[test]
    fn contract() {
        super::super::check_policy_contract(Box::new(LeCaRPolicy::new()));
    }
}
