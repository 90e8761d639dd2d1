//! Plug a custom eviction policy into the range cache.
//!
//! The range cache takes its victim-selection strategy through the
//! `Policy` trait, which ranks the cache's slot ids — the same seam the
//! paper uses to evaluate "Range Cache with LeCaR" and "Range Cache with
//! Cacheus" (the block and KV caches are plain LRU). This example
//! implements a toy *random-eviction* policy from scratch, mounts it in a
//! range cache, and compares its hit rate against the range cache's own
//! CLOCK, LRU and LeCaR on a skewed point workload.
//!
//! Run with: `cargo run --release --example custom_policy`

use adcache_suite::cache::{
    LeCaRPolicy, PointLookup, Policy, RangeCache, SlotClockPolicy, SlotLruPolicy,
};
use adcache_suite::workload::{Mix, Operation, WorkloadConfig, WorkloadGen};
use bytes::Bytes;

/// Evicts a pseudo-random resident slot. Simple, and a useful worst-case
/// baseline: any policy that loses to random eviction is broken.
struct RandomPolicy {
    /// The resident slots, in no order.
    slots: Vec<u32>,
    /// Each resident slot's place in `slots`, indexed by slot id (slot ids
    /// are small, dense numbers).
    place: Vec<usize>,
    rng: u64,
}

impl RandomPolicy {
    fn new(seed: u64) -> Self {
        RandomPolicy {
            slots: Vec::new(),
            place: Vec::new(),
            rng: seed.max(1),
        }
    }

    fn next_rand(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Takes the slot at `i` out of `slots`, filling the hole with the last.
    fn take(&mut self, i: usize) -> u32 {
        let slot = self.slots.swap_remove(i);
        if let Some(&moved) = self.slots.get(i) {
            self.place[moved as usize] = i;
        }
        slot
    }
}

impl Policy for RandomPolicy {
    fn on_insert(&mut self, slot: u32, _identity: u64) {
        let slot_at = slot as usize;
        if slot_at >= self.place.len() {
            self.place.resize(slot_at + 1, 0);
        }
        self.place[slot_at] = self.slots.len();
        self.slots.push(slot);
    }

    fn on_hit(&mut self, _slot: u32) {}

    fn victim(&mut self) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let i = (self.next_rand() as usize) % self.slots.len();
        Some(self.take(i))
    }

    fn on_external_remove(&mut self, slot: u32) {
        self.take(self.place[slot as usize]);
    }

    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<u32>() + self.place.capacity() * size_of::<usize>()
    }
}

/// Replays a skewed point workload against a cache and reports hit rate.
fn measure(cache: &RangeCache, label: &str) {
    let mut gen = WorkloadGen::new(WorkloadConfig {
        num_keys: 20_000,
        value_size: 64,
        point_skew: 0.99,
        ..Default::default()
    });
    let mix = Mix::new(100.0, 0.0, 0.0, 0.0);
    let (mut hits, mut total) = (0u64, 0u64);
    for _ in 0..60_000 {
        if let Operation::Get { key } = gen.next_op(&mix) {
            total += 1;
            match cache.get_point(&key) {
                PointLookup::Hit(_) | PointLookup::NegativeHit => hits += 1,
                PointLookup::Miss => {
                    // Simulate the DB fill path.
                    cache.insert_point(key, Bytes::from(vec![b'v'; 64]));
                }
            }
        }
    }
    println!("{label:>8}: hit rate {:.4}", hits as f64 / total as f64);
}

fn main() {
    let capacity = 200_000; // bytes -> roughly 1.4k entries
    println!("point workload, Zipf 0.99, cache holds ~7% of keys\n");
    measure(
        &RangeCache::with_policy(capacity, Box::new(|| Box::new(RandomPolicy::new(7)))),
        "random",
    );
    measure(
        &RangeCache::with_policy(capacity, Box::new(|| Box::new(SlotClockPolicy::new()))),
        "clock",
    );
    measure(
        &RangeCache::with_policy(capacity, Box::new(|| Box::new(SlotLruPolicy::new()))),
        "lru",
    );
    measure(
        &RangeCache::with_policy(capacity, Box::new(|| Box::new(LeCaRPolicy::new()))),
        "lecar",
    );
}
