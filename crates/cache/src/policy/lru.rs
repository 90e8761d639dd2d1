//! Least-recently-used eviction.

use super::Policy;
use std::collections::HashMap;
use std::hash::Hash;

const NIL: u32 = u32::MAX;

struct Node<K> {
    /// `None` while the node sits on the free list.
    key: Option<K>,
    /// Towards the LRU end (or the next free node).
    prev: u32,
    /// Towards the MRU end.
    next: u32,
}

/// Classic LRU: the victim is the key whose last access is oldest.
///
/// A doubly linked recency list whose nodes live in a `Vec` and link by
/// index, plus one `HashMap<K, index>`: touch, victim and removal are
/// O(1), no unsafe, deterministic. Freed nodes are recycled, so the node
/// vector is as long as the largest resident set seen.
pub struct LruPolicy<K> {
    nodes: Vec<Node<K>>,
    index: HashMap<K, u32>,
    /// Least recently used node.
    head: u32,
    /// Most recently used node.
    tail: u32,
    /// Head of the free list (linked through `prev`).
    free: u32,
}

impl<K: Clone + Eq + Hash> LruPolicy<K> {
    /// Creates an empty policy.
    pub fn new() -> Self {
        LruPolicy {
            nodes: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_mru(&mut self, i: u32) {
        let old_tail = self.tail;
        let node = &mut self.nodes[i as usize];
        node.prev = old_tail;
        node.next = NIL;
        match old_tail {
            NIL => self.head = i,
            t => self.nodes[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Unlinks node `i` and puts it on the free list, returning its key.
    fn release(&mut self, i: u32) -> Option<K> {
        self.unlink(i);
        let node = &mut self.nodes[i as usize];
        node.prev = self.free;
        self.free = i;
        node.key.take()
    }

    fn touch(&mut self, key: &K) {
        if let Some(&i) = self.index.get(key) {
            if self.tail != i {
                self.unlink(i);
                self.push_mru(i);
            }
            return;
        }
        let i = match self.free {
            NIL => {
                assert!(self.nodes.len() < NIL as usize, "LRU node index overflow");
                self.nodes.push(Node {
                    key: None,
                    prev: NIL,
                    next: NIL,
                });
                (self.nodes.len() - 1) as u32
            }
            i => {
                self.free = self.nodes[i as usize].prev;
                i
            }
        };
        self.nodes[i as usize].key = Some(key.clone());
        self.index.insert(key.clone(), i);
        self.push_mru(i);
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
        if self.head == NIL {
            return None;
        }
        let key = self.release(self.head)?;
        self.index.remove(&key);
        Some(key)
    }

    fn on_external_remove(&mut self, key: &K) {
        if let Some(i) = self.index.remove(key) {
            self.release(i);
        }
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut p = LruPolicy::new();
        for k in [1u32, 2, 3] {
            p.on_insert(&k);
        }
        p.on_hit(&1); // order now: 2, 3, 1
        assert_eq!(p.victim(), Some(2));
        assert_eq!(p.victim(), Some(3));
        assert_eq!(p.victim(), Some(1));
        assert_eq!(p.victim(), None);
    }

    #[test]
    fn external_remove_drops_tracking() {
        let mut p = LruPolicy::new();
        p.on_insert(&1u32);
        p.on_insert(&2);
        p.on_external_remove(&1);
        assert_eq!(p.victim(), Some(2));
        assert_eq!(p.victim(), None);
        assert!(p.is_empty());
    }

    #[test]
    fn contract() {
        super::super::check_policy_contract(Box::new(LruPolicy::new()));
    }
}
