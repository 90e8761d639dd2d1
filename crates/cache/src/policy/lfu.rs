//! Least-frequently-used eviction.

use super::Policy;
use adcache_lsm::heap;
use std::collections::{BTreeMap, HashMap};

/// How frequency ties are broken when choosing among equally cold keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Evict the least-recently-used of the tied keys (classic LFU).
    Lru,
    /// Evict the *most*-recently-inserted of the tied keys. This is the
    /// churn-resistant variant used by Cacheus's CR-LFU expert: under churn
    /// (many once-accessed keys cycling), keeping the older tied keys
    /// protects established residents from being displaced by the stream.
    Mru,
}

/// LFU with configurable tie-breaking.
///
/// Slots are indexed by `(frequency, tick)`; the victim is the minimal
/// frequency with the tie broken by recency per [`TieBreak`].
pub struct LfuPolicy {
    by_priority: BTreeMap<(u64, u64), u32>,
    meta: HashMap<u32, (u64, u64)>,
    clock: u64,
    tie: TieBreak,
}

impl LfuPolicy {
    /// Classic LFU (LRU tie-break).
    pub fn new() -> Self {
        Self::with_tiebreak(TieBreak::Lru)
    }

    /// LFU with an explicit tie-break rule.
    pub fn with_tiebreak(tie: TieBreak) -> Self {
        LfuPolicy {
            by_priority: BTreeMap::new(),
            meta: HashMap::new(),
            clock: 0,
            tie,
        }
    }

    fn bump(&mut self, slot: u32) {
        let freq = match self.meta.get(&slot).copied() {
            Some((f, t)) => {
                self.by_priority.remove(&(f, t));
                f + 1
            }
            None => 1,
        };
        self.clock += 1;
        let prio = (freq, self.clock);
        self.by_priority.insert(prio, slot);
        self.meta.insert(slot, prio);
    }

    /// Current frequency estimate of a tracked slot.
    pub fn frequency(&self, slot: u32) -> Option<u64> {
        self.meta.get(&slot).map(|(f, _)| *f)
    }

    /// Number of tracked slots.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether no slots are tracked.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }
}

impl Default for LfuPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for LfuPolicy {
    fn on_insert(&mut self, slot: u32, _identity: u64) {
        self.bump(slot);
    }

    fn on_hit(&mut self, slot: u32) {
        self.bump(slot);
    }

    fn victim(&mut self) -> Option<u32> {
        let min_freq = self.by_priority.keys().next()?.0;
        let (&prio, &slot) = match self.tie {
            TieBreak::Lru => self.by_priority.range((min_freq, 0)..).next()?,
            TieBreak::Mru => self
                .by_priority
                .range((min_freq, 0)..=(min_freq, u64::MAX))
                .next_back()?,
        };
        self.by_priority.remove(&prio);
        self.meta.remove(&slot);
        Some(slot)
    }

    fn on_external_remove(&mut self, slot: u32) {
        if let Some(prio) = self.meta.remove(&slot) {
            self.by_priority.remove(&prio);
        }
    }

    fn heap_bytes(&self) -> usize {
        heap::btree_map(&self.by_priority) + heap::hash_map(&self.meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_frequent() {
        let mut p = LfuPolicy::new();
        for k in [1u32, 2, 3] {
            p.on_insert(k, 0);
        }
        p.on_hit(1);
        p.on_hit(1);
        p.on_hit(2);
        // freq: 1 -> 3, 2 -> 2, 3 -> 1
        assert_eq!(p.victim(), Some(3));
        assert_eq!(p.victim(), Some(2));
        assert_eq!(p.victim(), Some(1));
        assert_eq!(p.victim(), None);
    }

    #[test]
    fn lru_tiebreak_prefers_oldest() {
        let mut p = LfuPolicy::new();
        p.on_insert(1u32, 0);
        p.on_insert(2, 0);
        assert_eq!(p.victim(), Some(1));
    }

    #[test]
    fn mru_tiebreak_prefers_newest() {
        let mut p = LfuPolicy::with_tiebreak(TieBreak::Mru);
        p.on_insert(1u32, 0);
        p.on_insert(2, 0);
        assert_eq!(p.victim(), Some(2), "CR-LFU keeps the older tied key");
    }

    #[test]
    fn frequency_tracking() {
        let mut p = LfuPolicy::new();
        p.on_insert(7u32, 0);
        assert_eq!(p.frequency(7), Some(1));
        p.on_hit(7);
        assert_eq!(p.frequency(7), Some(2));
        p.on_external_remove(7);
        assert_eq!(p.frequency(7), None);
        assert!(p.is_empty());
    }

    #[test]
    fn contract_lru_tiebreak() {
        super::super::check_policy_contract(Box::new(LfuPolicy::new()));
    }

    #[test]
    fn contract_mru_tiebreak() {
        super::super::check_policy_contract(Box::new(LfuPolicy::with_tiebreak(TieBreak::Mru)));
    }
}
