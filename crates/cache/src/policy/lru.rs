//! Least-recently-used eviction: the recency list every LRU in this crate
//! runs on, and the range cache's LRU over slot ids.

use super::Policy;
use adcache_lsm::heap;

const NIL: u32 = u32::MAX;
/// `prev` of a node that is not on the list.
const OFF: u32 = u32::MAX - 1;

#[derive(Clone, Copy)]
struct Link {
    /// Towards the LRU end; [`OFF`] while the node is not on the list.
    prev: u32,
    /// Towards the MRU end; while the node is released, the next released
    /// node.
    next: u32,
}

/// A doubly linked recency list over node numbers: the links live in a
/// vector indexed by the node number itself, so touch, removal and victim
/// are O(1) without a lookup, no unsafe, deterministic. The vector is as
/// long as the largest node number seen.
///
/// The node numbers are either the owner's own (the range cache's slot
/// ids) or handed out by [`push_new`](RecencyList::push_new), which
/// recycles the numbers given back through
/// [`release`](RecencyList::release).
pub(crate) struct RecencyList {
    links: Vec<Link>,
    /// Least recently used node.
    head: u32,
    /// Most recently used node.
    tail: u32,
    /// The last released node (a chain through `next`).
    free: u32,
}

impl RecencyList {
    pub(crate) fn new() -> Self {
        RecencyList {
            links: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    pub(crate) fn contains(&self, i: u32) -> bool {
        self.links.get(i as usize).is_some_and(|l| l.prev != OFF)
    }

    /// Takes node `i`, which is on the list, off it.
    pub(crate) fn unlink(&mut self, i: u32) {
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
    pub(crate) fn touch(&mut self, i: u32) {
        if self.tail == i {
            return;
        }
        if self.contains(i) {
            self.unlink(i);
        }
        self.push_mru(i);
    }

    /// Takes the least recently used node off the list.
    pub(crate) fn pop_lru(&mut self) -> Option<u32> {
        let i = self.head;
        (i != NIL).then(|| {
            self.unlink(i);
            i
        })
    }

    /// Puts a new node at the MRU end and returns its number: the last
    /// released one, or one past the largest seen.
    pub(crate) fn push_new(&mut self) -> u32 {
        let i = match self.free {
            NIL => self.links.len() as u32,
            i => {
                self.free = self.links[i as usize].next;
                i
            }
        };
        self.push_mru(i);
        i
    }

    /// Takes node `i` off the list if it is on it, and gives its number
    /// back for [`push_new`](RecencyList::push_new).
    pub(crate) fn release(&mut self, i: u32) {
        if self.contains(i) {
            self.unlink(i);
        }
        self.links[i as usize].next = self.free;
        self.free = i;
    }

    /// Heap bytes of the links.
    pub(crate) fn heap_bytes(&self) -> usize {
        heap::vec(&self.links)
    }
}

/// LRU over the range cache's slot ids, which are dense, recycled
/// numbers: the id indexes the recency list itself, so there is no map to
/// probe on a hit and 8 bytes of links per slot.
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

impl Policy for SlotLruPolicy {
    fn on_insert(&mut self, slot: u32, _identity: u64) {
        self.0.touch(slot);
    }

    fn on_hit(&mut self, slot: u32) {
        self.0.touch(slot);
    }

    fn victim(&mut self) -> Option<u32> {
        self.0.pop_lru()
    }

    fn on_external_remove(&mut self, slot: u32) {
        if self.0.contains(slot) {
            self.0.unlink(slot);
        }
    }

    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut p = SlotLruPolicy::new();
        for k in [1u32, 2, 3] {
            p.on_insert(k, 0);
        }
        p.on_hit(1); // order now: 2, 3, 1
        assert_eq!(p.victim(), Some(2));
        assert_eq!(p.victim(), Some(3));
        assert_eq!(p.victim(), Some(1));
        assert_eq!(p.victim(), None);
    }

    #[test]
    fn external_remove_drops_tracking() {
        let mut p = SlotLruPolicy::new();
        p.on_insert(1, 0);
        p.on_insert(2, 0);
        p.on_external_remove(1);
        p.on_external_remove(7); // never tracked: ignored
        assert_eq!(p.victim(), Some(2));
        assert_eq!(p.victim(), None);
    }

    #[test]
    fn contract() {
        super::super::check_policy_contract(Box::new(SlotLruPolicy::new()));
    }

    /// A recycled slot id comes back as the most recent, in the links it
    /// had: 8 bytes a slot, as many as the largest id seen.
    #[test]
    fn slot_lru_reuses_ids_in_place() {
        let mut p = SlotLruPolicy::new();
        for k in 0..4u32 {
            p.on_insert(k, 0);
        }
        assert_eq!(p.victim(), Some(0));
        p.on_external_remove(2);
        p.on_insert(0, 0);
        p.on_insert(2, 0);
        assert_eq!(p.0.links.len(), 4);
        assert_eq!(std::mem::size_of::<Link>(), 8);
        let drained: Vec<u32> = std::iter::from_fn(|| p.victim()).collect();
        assert_eq!(drained, [1, 3, 0, 2]);
    }

    /// `push_new` hands out the most recently released number first and
    /// grows the links only when none is released.
    #[test]
    fn released_numbers_are_reused_last_in_first_out() {
        let mut l = RecencyList::new();
        let ids: Vec<u32> = (0..4).map(|_| l.push_new()).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        l.release(1);
        assert_eq!(l.pop_lru(), Some(0));
        l.release(0);
        assert_eq!((l.push_new(), l.push_new(), l.push_new()), (0, 1, 4));
        assert_eq!(l.links.len(), 5);
        let order: Vec<u32> = std::iter::from_fn(|| l.pop_lru()).collect();
        assert_eq!(order, [2, 3, 0, 1, 4]);
    }
}
