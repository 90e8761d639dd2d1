//! Least-recently-used eviction.

use super::Policy;
use std::collections::HashMap;
use std::hash::Hash;

const NIL: u32 = u32::MAX;
/// `prev` of a node that is not on the list.
const OFF: u32 = u32::MAX - 1;

#[derive(Clone, Copy)]
struct Link {
    /// Towards the LRU end; [`OFF`] while the node is not on the list.
    prev: u32,
    /// Towards the MRU end. Free for the owner's use while off the list.
    next: u32,
}

/// A doubly linked recency list over node numbers: the links live in a
/// vector indexed by the node number itself, so touch, removal and victim
/// are O(1) without a lookup, no unsafe, deterministic. The vector is as
/// long as the largest node number seen.
struct RecencyList {
    links: Vec<Link>,
    /// Least recently used node.
    head: u32,
    /// Most recently used node.
    tail: u32,
}

impl RecencyList {
    fn new() -> Self {
        RecencyList {
            links: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn contains(&self, i: u32) -> bool {
        self.links.get(i as usize).is_some_and(|l| l.prev != OFF)
    }

    /// Takes node `i`, which is on the list, off it.
    fn unlink(&mut self, i: u32) {
        let Link { prev, next } = self.links[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.links[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.links[n as usize].prev = prev,
        }
        self.links[i as usize].prev = OFF;
    }

    /// Puts node `i`, which is not on the list, at the MRU end.
    fn push_mru(&mut self, i: u32) {
        assert!(i < OFF, "LRU node number overflow");
        if i as usize >= self.links.len() {
            let off = Link {
                prev: OFF,
                next: NIL,
            };
            self.links.resize(i as usize + 1, off);
        }
        let old_tail = self.tail;
        self.links[i as usize] = Link {
            prev: old_tail,
            next: NIL,
        };
        match old_tail {
            NIL => self.head = i,
            t => self.links[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Makes node `i` the most recently used, whether or not it was on
    /// the list.
    fn touch(&mut self, i: u32) {
        if self.tail == i {
            return;
        }
        if self.contains(i) {
            self.unlink(i);
        }
        self.push_mru(i);
    }

    /// Takes the least recently used node off the list.
    fn pop_lru(&mut self) -> Option<u32> {
        let i = self.head;
        (i != NIL).then(|| {
            self.unlink(i);
            i
        })
    }
}

/// Classic LRU: the victim is the key whose last access is oldest.
///
/// One `HashMap<K, node>` finds a key's node on a recency list. Freed
/// nodes are recycled, so the node vectors are as long as the largest
/// resident set seen.
pub struct LruPolicy<K> {
    list: RecencyList,
    /// Each node's key; `None` while the node is free.
    keys: Vec<Option<K>>,
    index: HashMap<K, u32>,
    /// Head of the free-node list (linked through `next`).
    free: u32,
}

impl<K: Clone + Eq + Hash> LruPolicy<K> {
    /// Creates an empty policy.
    pub fn new() -> Self {
        LruPolicy {
            list: RecencyList::new(),
            keys: Vec::new(),
            index: HashMap::new(),
            free: NIL,
        }
    }

    /// Frees node `i`, which is off the list, returning its key.
    fn release(&mut self, i: u32) -> Option<K> {
        self.list.links[i as usize].next = self.free;
        self.free = i;
        self.keys[i as usize].take()
    }

    fn touch(&mut self, key: &K) {
        if let Some(&i) = self.index.get(key) {
            self.list.touch(i);
            return;
        }
        let i = match self.free {
            NIL => {
                self.keys.push(None);
                (self.keys.len() - 1) as u32
            }
            i => {
                self.free = self.list.links[i as usize].next;
                i
            }
        };
        self.keys[i as usize] = Some(key.clone());
        self.index.insert(key.clone(), i);
        self.list.push_mru(i);
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no keys are tracked.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

impl<K: Clone + Eq + Hash> Default for LruPolicy<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Clone + Eq + Hash + Send> Policy<K> for LruPolicy<K> {
    fn on_insert(&mut self, key: &K) {
        self.touch(key);
    }

    fn on_hit(&mut self, key: &K) {
        self.touch(key);
    }

    fn victim(&mut self) -> Option<K> {
        let i = self.list.pop_lru()?;
        let key = self.release(i)?;
        self.index.remove(&key);
        Some(key)
    }

    fn on_external_remove(&mut self, key: &K) {
        if let Some(i) = self.index.remove(key) {
            self.list.unlink(i);
            self.release(i);
        }
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

/// [`LruPolicy`] for keys that are already dense, recycled node numbers —
/// the range cache's slot ids: the id indexes the recency list itself,
/// so there is no map to probe on a hit and 8 bytes of links per slot.
/// Same victim order as `LruPolicy<u32>` on every trace.
pub struct SlotLruPolicy(RecencyList);

impl SlotLruPolicy {
    /// Creates an empty policy.
    pub fn new() -> Self {
        SlotLruPolicy(RecencyList::new())
    }
}

impl Default for SlotLruPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy<u32> for SlotLruPolicy {
    fn on_insert(&mut self, key: &u32) {
        self.0.touch(*key);
    }

    fn on_hit(&mut self, key: &u32) {
        self.0.touch(*key);
    }

    fn victim(&mut self) -> Option<u32> {
        self.0.pop_lru()
    }

    fn on_external_remove(&mut self, key: &u32) {
        if self.0.contains(*key) {
            self.0.unlink(*key);
        }
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> [Box<dyn Policy<u32>>; 2] {
        [Box::new(LruPolicy::new()), Box::new(SlotLruPolicy::new())]
    }

    #[test]
    fn evicts_least_recently_used() {
        for mut p in both() {
            for k in [1u32, 2, 3] {
                p.on_insert(&k);
            }
            p.on_hit(&1); // order now: 2, 3, 1
            assert_eq!(p.victim(), Some(2));
            assert_eq!(p.victim(), Some(3));
            assert_eq!(p.victim(), Some(1));
            assert_eq!(p.victim(), None);
        }
    }

    #[test]
    fn external_remove_drops_tracking() {
        for mut p in both() {
            p.on_insert(&1u32);
            p.on_insert(&2);
            p.on_external_remove(&1);
            p.on_external_remove(&7); // never tracked: ignored
            assert_eq!(p.victim(), Some(2));
            assert_eq!(p.victim(), None);
        }
        let mut p = LruPolicy::new();
        p.on_insert(&1u32);
        assert_eq!(p.len(), 1);
        p.on_external_remove(&1);
        assert!(p.is_empty());
    }

    #[test]
    fn contract() {
        for p in both() {
            super::super::check_policy_contract(p);
        }
    }

    /// A recycled slot id comes back as the most recent, in the links it
    /// had: 8 bytes a slot, as many as the largest id seen.
    #[test]
    fn slot_lru_reuses_ids_in_place() {
        let mut p = SlotLruPolicy::new();
        for k in 0..4u32 {
            p.on_insert(&k);
        }
        assert_eq!(p.victim(), Some(0));
        p.on_external_remove(&2);
        p.on_insert(&0);
        p.on_insert(&2);
        assert_eq!(p.0.links.len(), 4);
        assert_eq!(std::mem::size_of::<Link>(), 8);
        let drained: Vec<u32> = std::iter::from_fn(|| p.victim()).collect();
        assert_eq!(drained, [1, 3, 0, 2]);
    }
}
