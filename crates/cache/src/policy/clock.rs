//! Generalized CLOCK over slot ids: the range cache's eviction policy.
//!
//! Each slot has a resident bit and a two-bit use counter that saturates
//! at 3. A new entry enters at 0 and every hit adds 1, so an entry a
//! one-off scan tail brought in is the first the hand takes, while one hit
//! twice survives three sweeps of the hand. The hand takes the first
//! resident slot it finds at 0 and decrements the ones it passes on the
//! way (the scan resistance of S3-FIFO and RocksDB's HyperClockCache, at
//! three bits a slot instead of LRU's eight bytes of links).
//!
//! The bits lie in three bit-planes, one 64-slot word of each side by side,
//! so the hand works a word at a time: it finds the first zero-counter
//! resident slot of a word with one mask and a trailing-zero count, and
//! decrements the 2-bit counters of every slot before it at once.

use super::Policy;
use adcache_lsm::heap;

/// The three bit-planes of 64 slots: slot `64·w + i` is bit `i` of word
/// `w`; its counter is `2·hi + lo`.
#[derive(Clone, Copy, Default)]
struct Planes {
    resident: u64,
    lo: u64,
    hi: u64,
}

impl Planes {
    /// Resident slots whose counter is 0.
    fn cold(&self) -> u64 {
        self.resident & !(self.lo | self.hi)
    }

    /// Decrements the counters of the slots in `mask`, each of them at 1
    /// or more: a 2-bit subtraction of 1 in every lane.
    fn decrement(&mut self, mask: u64) {
        self.hi ^= mask & !self.lo;
        self.lo ^= mask;
    }
}

/// CLOCK with a saturating 2-bit counter per slot over the range cache's
/// dense, recycled slot ids: the id indexes the bit-planes, so a hit is
/// one read-modify-write of a word, and the planes are as long as the
/// largest id seen, rounded up to 64.
pub struct SlotClockPolicy {
    words: Vec<Planes>,
    /// The next slot the hand looks at.
    hand: usize,
    resident: usize,
}

impl SlotClockPolicy {
    /// Creates an empty policy.
    pub fn new() -> Self {
        SlotClockPolicy {
            words: Vec::new(),
            hand: 0,
            resident: 0,
        }
    }

    fn at(slot: u32) -> (usize, u64) {
        (slot as usize / 64, 1u64 << (slot % 64))
    }

    /// Takes the first cold resident slot from the hand on, decrementing
    /// the resident slots it passes; returns it with the number of words
    /// the hand touched.
    fn sweep(&mut self) -> (Option<u32>, usize) {
        if self.resident == 0 {
            return (None, 0);
        }
        let mut w = self.hand / 64;
        // Slots below the hand in its first word wait for the next lap.
        let mut from = !0u64 << (self.hand % 64);
        let mut touched = 0;
        loop {
            if w >= self.words.len() {
                w = 0;
            }
            touched += 1;
            let word = &mut self.words[w];
            let cold = word.cold() & from;
            if cold == 0 {
                word.decrement(word.resident & from);
            } else {
                let bit = cold.trailing_zeros();
                let below = (1u64 << bit) - 1;
                word.decrement(word.resident & from & below);
                word.resident &= !(1u64 << bit);
                let slot = w * 64 + bit as usize;
                self.hand = slot + 1;
                self.resident -= 1;
                return (Some(slot as u32), touched);
            }
            w += 1;
            from = !0;
        }
    }
}

impl Default for SlotClockPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for SlotClockPolicy {
    fn on_insert(&mut self, slot: u32, _identity: u64) {
        let (w, bit) = Self::at(slot);
        if w >= self.words.len() {
            self.words.resize(w + 1, Planes::default());
        }
        let word = &mut self.words[w];
        debug_assert_eq!(word.resident & bit, 0, "slot {slot} inserted twice");
        word.resident |= bit;
        word.lo &= !bit;
        word.hi &= !bit;
        self.resident += 1;
    }

    fn on_hit(&mut self, slot: u32) {
        let (w, bit) = Self::at(slot);
        let word = &mut self.words[w];
        // 0 → 1 → 2 → 3, and 3 stays: the new low bit is set unless the
        // counter was 1, and the high bit once the low one was.
        let (lo, hi) = (word.lo & bit, word.hi & bit);
        word.lo = (word.lo & !bit) | (lo ^ bit) | hi;
        word.hi |= lo;
    }

    fn victim(&mut self) -> Option<u32> {
        self.sweep().0
    }

    fn on_external_remove(&mut self, slot: u32) {
        let (w, bit) = Self::at(slot);
        if let Some(word) = self.words.get_mut(w).filter(|p| p.resident & bit != 0) {
            word.resident &= !bit;
            self.resident -= 1;
        }
    }

    fn heap_bytes(&self) -> usize {
        heap::vec(&self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn counter(p: &SlotClockPolicy, slot: u32) -> u8 {
        let (w, bit) = SlotClockPolicy::at(slot);
        let word = p.words[w];
        2 * u8::from(word.hi & bit != 0) + u8::from(word.lo & bit != 0)
    }

    #[test]
    fn hits_saturate_at_three() {
        let mut p = SlotClockPolicy::new();
        p.on_insert(5, 0);
        let mut seen = vec![counter(&p, 5)];
        for _ in 0..5 {
            p.on_hit(5);
            seen.push(counter(&p, 5));
        }
        assert_eq!(seen, [0, 1, 2, 3, 3, 3]);
    }

    #[test]
    fn new_entries_go_before_hit_ones() {
        let mut p = SlotClockPolicy::new();
        for k in 0..4u32 {
            p.on_insert(k, 0);
        }
        p.on_hit(0);
        p.on_hit(2);
        p.on_hit(2);
        // The hand passes 0 (1 → 0), takes 1, then 3; 0 is now cold too.
        assert_eq!(p.victim(), Some(1));
        assert_eq!(p.victim(), Some(3));
        assert_eq!(p.victim(), Some(0));
        assert_eq!(p.victim(), Some(2));
        assert_eq!(p.victim(), None);
    }

    #[test]
    fn external_remove_drops_tracking() {
        let mut p = SlotClockPolicy::new();
        p.on_insert(1, 0);
        p.on_insert(2, 0);
        p.on_external_remove(1);
        p.on_external_remove(700); // never tracked: ignored
        assert_eq!(p.victim(), Some(2));
        assert_eq!(p.victim(), None);
    }

    #[test]
    fn contract() {
        super::super::check_policy_contract(Box::new(SlotClockPolicy::new()));
    }

    /// With `n` resident slots all at 3 the hand needs three laps to bring
    /// them to 0 and one more slot to take one: at most `3·⌈n/64⌉ + 2`
    /// words, wherever the hand starts.
    #[test]
    fn a_victim_touches_at_most_three_laps_of_words() {
        for n in [1u32, 63, 64, 65, 200, 1000] {
            for start in [0, 1, 37, n / 2, n - 1].into_iter().filter(|&s| s < n) {
                let mut p = SlotClockPolicy::new();
                for s in 0..n {
                    p.on_insert(s, 0);
                    for _ in 0..3 {
                        p.on_hit(s);
                    }
                }
                p.hand = start as usize;
                let (victim, touched) = p.sweep();
                assert_eq!(victim, Some(start), "n {n}, hand at {start}");
                let bound = 3 * n.div_ceil(64) as usize + 2;
                assert!(
                    touched <= bound,
                    "n {n}, hand at {start}: {touched} > {bound}"
                );
            }
        }
    }

    /// Three bits a slot: 24 bytes of planes per 64 slots.
    #[test]
    fn planes_cost_three_bits_a_slot() {
        assert_eq!(std::mem::size_of::<Planes>(), 24);
        let mut p = SlotClockPolicy::new();
        for s in 0..640u32 {
            p.on_insert(s, 0);
        }
        assert_eq!(p.words.len(), 10);
    }

    /// A CLOCK whose hand visits one slot at a time: `counter[s]` is
    /// `Some` while `s` is resident.
    struct OneSlotClock {
        counter: Vec<Option<u8>>,
        hand: usize,
    }

    impl OneSlotClock {
        fn victim(&mut self) -> Option<u32> {
            if self.counter.iter().all(Option::is_none) {
                return None;
            }
            loop {
                if self.hand >= self.counter.len() {
                    self.hand = 0;
                }
                let at = self.hand;
                self.hand += 1;
                match &mut self.counter[at] {
                    Some(0) => {
                        self.counter[at] = None;
                        return Some(at as u32);
                    }
                    Some(c) => *c -= 1,
                    None => {}
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The word-at-a-time hand evicts exactly what the one-slot hand
        /// evicts, over ids spanning several words, each leaving and
        /// coming back many times.
        #[test]
        fn evicts_what_a_one_slot_clock_evicts(
            ops in proptest::collection::vec((any::<u32>(), 0u8..4), 1..600),
        ) {
            const IDS: u32 = 200;
            let mut p = SlotClockPolicy::new();
            let mut reference = OneSlotClock { counter: vec![None; IDS as usize], hand: 0 };
            for (k, action) in ops {
                let k = k % IDS;
                let at = k as usize;
                match (action, reference.counter[at]) {
                    (0, None) => {
                        p.on_insert(k, u64::from(k));
                        reference.counter[at] = Some(0);
                    }
                    (1, Some(c)) => {
                        p.on_hit(k);
                        reference.counter[at] = Some((c + 1).min(3));
                    }
                    (2, _) => prop_assert_eq!(p.victim(), reference.victim()),
                    (3, Some(_)) => {
                        p.on_external_remove(k);
                        reference.counter[at] = None;
                    }
                    _ => {}
                }
            }
            while let Some(expect) = reference.victim() {
                prop_assert_eq!(p.victim(), Some(expect));
            }
            prop_assert_eq!(p.victim(), None);
        }
    }
}
