//! Eviction policies for the range cache.
//!
//! The block and KV caches are plain LRU caches: [`ChargedCache`] keeps
//! its entries on the same recency list [`SlotLruPolicy`] runs on. The
//! range cache evicts by [`SlotClockPolicy`], a CLOCK with a 2-bit use
//! counter per slot that one-off scan tails cannot flush hot entries
//! through (the paper's Range Cache runs LRU; EXPERIMENTS.md, "Known
//! divergences"); it swaps to LeCaR or Cacheus in the paper's baselines
//! (Section 5.1). A [`Policy`] ranks the range cache's slot ids. The trait
//! is deliberately small: the cache owns the data and the byte accounting;
//! a policy owns only ordering metadata, and reports its heap bytes.
//!
//! [`ChargedCache`]: crate::ChargedCache

mod cacheus;
mod clock;
mod lecar;
mod lfu;
mod lru;

pub use cacheus::CacheusPolicy;
pub use clock::SlotClockPolicy;
pub use lecar::LeCaRPolicy;
pub use lfu::{LfuPolicy, TieBreak};
pub(crate) use lru::RecencyList;
pub use lru::SlotLruPolicy;

use adcache_lsm::heap;
use std::collections::{HashMap, VecDeque};

/// One expert's ghost history in LeCaR and Cacheus: which items it evicted
/// and at which step, oldest first, filed under the items' identities.
struct GhostHistory {
    evicted_at: HashMap<u64, u64>,
    order: VecDeque<u64>,
}

impl GhostHistory {
    fn new() -> Self {
        GhostHistory {
            evicted_at: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn record(&mut self, identity: u64, step: u64) {
        self.evicted_at.insert(identity, step);
        self.order.push_back(identity);
    }

    /// Forgets `identity`, returning the step it was evicted at.
    fn take(&mut self, identity: u64) -> Option<u64> {
        self.evicted_at.remove(&identity)
    }

    fn trim(&mut self, limit: usize) {
        while self.order.len() > limit {
            if let Some(identity) = self.order.pop_front() {
                self.evicted_at.remove(&identity);
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        heap::hash_map(&self.evicted_at) + heap::vec_deque(&self.order)
    }
}

/// Victim-selection strategy over the slot ids of one range-cache shard.
///
/// Call discipline (enforced by the range cache):
/// - `on_insert` exactly once when a slot's entry enters the cache;
/// - `on_hit` on every access to a resident slot;
/// - `victim` only while at least one slot is resident; the returned slot
///   is emptied by the cache (no separate notification);
/// - `on_external_remove` when a resident slot is emptied for another
///   reason (a delete, `clear`).
///
/// Slot ids are recycled once an entry leaves, so a policy that remembers
/// entries *after* evicting them (LeCaR's and Cacheus's ghost histories)
/// matches its history on the `identity` passed to
/// [`on_insert`](Policy::on_insert), not on the slot.
pub trait Policy: Send {
    /// An entry was admitted into `slot`. `identity` is a hash of the
    /// entry's key, equal across an eviction and the key's later
    /// re-admission even when the slot differs. Policies without eviction
    /// history ignore it.
    fn on_insert(&mut self, slot: u32, identity: u64);
    /// A resident slot was accessed.
    fn on_hit(&mut self, slot: u32);
    /// Chooses the slot to evict. Must return a currently resident slot.
    fn victim(&mut self) -> Option<u32>;
    /// A resident slot was emptied without going through `victim`.
    fn on_external_remove(&mut self, slot: u32);
    /// Heap bytes of the policy's bookkeeping, for the memory ledger's
    /// `range.policy` row.
    fn heap_bytes(&self) -> usize;
}

/// Shared test-suite applied to every policy: residency bookkeeping must be
/// consistent regardless of the eviction order the policy chooses.
#[cfg(test)]
pub(crate) fn check_policy_contract(mut p: Box<dyn Policy>) {
    use std::collections::HashSet;
    let mut resident: HashSet<u32> = HashSet::new();
    let mut state = 7u64;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..2000u64 {
        match rand() % 10 {
            0..=4 => {
                let k = (rand() % 64) as u32;
                if !resident.contains(&k) {
                    p.on_insert(k, u64::from(k));
                    resident.insert(k);
                }
            }
            5..=6 => {
                let k = (rand() % 64) as u32;
                if resident.contains(&k) {
                    p.on_hit(k);
                }
            }
            7..=8 => {
                if !resident.is_empty() {
                    let v = p.victim().unwrap_or_else(|| panic!("victim at step {i}"));
                    assert!(resident.remove(&v), "policy evicted non-resident {v}");
                }
            }
            _ => {
                let k = (rand() % 64) as u32;
                if resident.contains(&k) {
                    p.on_external_remove(k);
                    resident.remove(&k);
                }
            }
        }
    }
    // Drain: every resident key must eventually be offered as a victim.
    while !resident.is_empty() {
        let v = p.victim().expect("drain victim");
        assert!(resident.remove(&v));
    }
    assert!(p.victim().is_none(), "victim on empty policy must be None");
}
