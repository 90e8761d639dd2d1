//! Eviction policies.
//!
//! Every cache container in this crate delegates victim selection to a
//! [`Policy`]. The trait is deliberately small: containers own the data and
//! the byte accounting; policies own only ordering metadata. This is what
//! lets the paper's baselines swap the Range Cache's LRU for LeCaR or
//! Cacheus without touching cache structure (Section 5.1).

mod cacheus;
mod lecar;
mod lfu;
mod lru;

pub use cacheus::CacheusPolicy;
pub use lecar::LeCaRPolicy;
pub use lfu::{LfuPolicy, TieBreak};
pub use lru::{LruPolicy, SlotLruPolicy};

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};

/// The identity a ghost-history policy files `key` under when its
/// container supplied none (plain [`Policy::on_insert`]): `K` is then the
/// cached item's own key, so its hash is as stable as the key.
fn fingerprint<K: Hash>(key: &K) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(key)
}

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
}

/// Victim-selection strategy for a cache holding keys of type `K`.
///
/// Call discipline (enforced by the containers):
/// - `on_insert` exactly once when a key enters the cache;
/// - `on_hit` on every access to a resident key;
/// - `victim` only while at least one key is resident; the returned key is
///   removed by the container (no separate notification);
/// - `on_external_remove` when a resident key is dropped for another reason
///   (compaction invalidation, resize, explicit delete).
///
/// `K` need not be the cached item's own key: the range cache hands its
/// policies 4-byte slot ids, which are recycled once an entry leaves. A
/// policy that remembers keys *after* evicting them (LeCaR's and Cacheus's
/// ghost histories) must therefore match its history on the `identity`
/// passed to [`on_insert_as`](Policy::on_insert_as), not on `K`.
pub trait Policy<K: Clone + Eq + Hash>: Send {
    /// A key was inserted into the cache.
    fn on_insert(&mut self, key: &K);
    /// [`on_insert`](Policy::on_insert) by a container whose `K` is a
    /// recyclable handle: `identity` is a hash of the cached item itself,
    /// equal across an eviction and the item's later re-admission even
    /// when the handle differs. Policies without eviction history ignore it.
    fn on_insert_as(&mut self, key: &K, identity: u64) {
        let _ = identity;
        self.on_insert(key);
    }
    /// A resident key was accessed.
    fn on_hit(&mut self, key: &K);
    /// Chooses the key to evict. Must return a currently resident key.
    fn victim(&mut self) -> Option<K>;
    /// A resident key was removed without going through `victim`.
    fn on_external_remove(&mut self, key: &K);
    /// Human-readable policy name for logs and experiment output.
    fn name(&self) -> &'static str;
    /// Heap bytes of the policy's bookkeeping, for the memory ledger. The
    /// LRU policies, which the served caches run, measure theirs; the
    /// others report 0, and what they hold is left unattributed.
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Shared test-suite applied to every policy: residency bookkeeping must be
/// consistent regardless of the eviction order the policy chooses.
#[cfg(test)]
pub(crate) fn check_policy_contract(mut p: Box<dyn Policy<u32>>) {
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
                    p.on_insert(&k);
                    resident.insert(k);
                }
            }
            5..=6 => {
                let k = (rand() % 64) as u32;
                if resident.contains(&k) {
                    p.on_hit(&k);
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
                    p.on_external_remove(&k);
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
