//! Count-Min Sketch with saturation-halving decay.
//!
//! AdCache's point-lookup admission (paper Section 3.4) tracks miss
//! frequencies "in a compact data structure (e.g., Count-Min Sketch)". To
//! keep counts bounded and responsive, once a key's estimate reaches the
//! saturation point (default 8) every counter and the global sum are halved
//! — the TinyLFU aging mechanism — so stale or bursty keys fade while
//! consistently hot keys stay ranked on top.
//!
//! The row hashes are salt-able: an adversary who knows the hash function
//! can precompute keys that collide with a victim key in every row and
//! inflate its estimate (or saturate the counters). [`CountMinSketch::reset`]
//! zeroes the counters *and* re-seeds every row with a caller-chosen salt,
//! invalidating any precomputed collision set at the cost of forgetting the
//! (already poisoned) frequency history.
//!
//! Counters are four bits each and clamp at 15, as TinyLFU's do: with the
//! default saturation of 8 an estimate never gets there, and only a
//! counter that collisions push ahead of every estimate can. Sixteen
//! counters share a `u64`, so a decay halves them together. All rows live
//! in one zeroed allocation, so a sketch nobody has fed yet occupies no
//! memory, and a fed one half a byte per counter.

/// A Count-Min Sketch over byte-string keys.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    /// `depth` rows of `width` four-bit counters each, row after row,
    /// sixteen to a word: counter `i` is bits `4·(i % 16)..` of word
    /// `i / 16`.
    counters: Vec<u64>,
    width: usize,
    depth: usize,
    /// Sum of all recorded increments (halved on decay). The denominator of
    /// AdCache's normalized importance score.
    total: u64,
    /// Counter value that triggers a global halving. Above 15, which no
    /// counter reaches, the sketch never decays by itself.
    saturation: u32,
    /// Number of decays performed (observability).
    decays: u64,
    /// XORed into every row seed; changed on [`reset`](Self::reset) so
    /// precomputed collisions stop working.
    salt: u64,
    /// Number of resets performed (0 = the unsalted construction epoch).
    epoch: u64,
    /// Counters currently nonzero, maintained incrementally — the
    /// numerator of [`fill_ratio`](Self::fill_ratio).
    nonzero: u64,
    /// Increments since the last reset.
    epoch_increments: u64,
    /// Decays since the last reset.
    epoch_decays: u64,
}

fn hash_with_seed(data: &[u8], seed: u64) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h
}

/// Smallest width [`CountMinSketch::for_keys`] will produce.
pub const MIN_SKETCH_WIDTH: usize = 1024;

/// The largest value a counter holds.
const COUNTER_MAX: u8 = 15;
/// The low bit of every counter in a word.
const LOW_BITS: u64 = 0x1111_1111_1111_1111;

/// Largest width [`CountMinSketch::for_keys`] will produce (64 Mi counters
/// per row = 128 MiB of sketch at depth 4 — already absurd; beyond this the
/// `keys * 4` multiply could also overflow on 32-bit `usize`).
pub const MAX_SKETCH_WIDTH: usize = 1 << 26;

impl CountMinSketch {
    /// Creates a sketch with `width` counters per row and `depth` rows.
    /// A `saturation` above 15 is never reached, so such a sketch decays
    /// only when [`decay`](Self::decay) is called.
    pub fn new(width: usize, depth: usize, saturation: u32) -> Self {
        assert!(width > 0 && depth > 0 && saturation > 1);
        CountMinSketch {
            counters: vec![0u64; (width * depth).div_ceil(16)],
            width,
            depth,
            total: 0,
            saturation,
            decays: 0,
            salt: 0,
            epoch: 0,
            nonzero: 0,
            epoch_increments: 0,
            epoch_decays: 0,
        }
    }

    /// A sketch sized for roughly `keys` distinct hot keys at ~1% relative
    /// error, with the paper's default saturation of 8. Degenerate inputs
    /// are clamped instead of panicking: `keys == 0` gets the minimum
    /// width, and huge values saturate at [`MAX_SKETCH_WIDTH`] rather than
    /// overflowing the `keys * 4` sizing multiply.
    pub fn for_keys(keys: usize) -> Self {
        let width = keys
            .saturating_mul(4)
            .clamp(MIN_SKETCH_WIDTH, MAX_SKETCH_WIDTH)
            .next_power_of_two()
            .min(MAX_SKETCH_WIDTH);
        Self::new(width, 4, 8)
    }

    /// Where in `counters` row `row_no` counts `key`. The per-row hash
    /// seed is the row number XOR the epoch salt: with the construction
    /// salt of 0 this is exactly the historical seeding, so un-reset
    /// sketches hash identically to older builds.
    fn slot(&self, key: &[u8], row_no: usize) -> usize {
        let column = hash_with_seed(key, row_no as u64 ^ self.salt) as usize % self.width;
        row_no * self.width + column
    }

    /// Counter `i`.
    fn get(&self, i: usize) -> u8 {
        ((self.counters[i / 16] >> (4 * (i % 16))) & 0xF) as u8
    }

    /// Records one occurrence of `key` and returns its new estimate.
    /// Triggers a global halving when the estimate reaches saturation.
    pub fn increment(&mut self, key: &[u8]) -> u32 {
        let mut est = COUNTER_MAX;
        for row_no in 0..self.depth {
            let slot = self.slot(key, row_no);
            let mut c = self.get(slot);
            self.nonzero += (c == 0) as u64;
            if c < COUNTER_MAX {
                self.counters[slot / 16] += 1 << (4 * (slot % 16));
                c += 1;
            }
            est = est.min(c);
        }
        self.total += 1;
        self.epoch_increments += 1;
        if u32::from(est) >= self.saturation {
            self.decay();
            return self.estimate(key);
        }
        u32::from(est)
    }

    /// Point estimate (upper bound) of `key`'s frequency.
    pub fn estimate(&self, key: &[u8]) -> u32 {
        let est = (0..self.depth)
            .map(|row_no| self.get(self.slot(key, row_no)))
            .min();
        u32::from(est.expect("a sketch has at least one row"))
    }

    /// `key`'s frequency normalized by the global sum — the paper's
    /// "normalized importance" admission score.
    pub fn normalized_score(&self, key: &[u8]) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.estimate(key) as f64 / self.total as f64
    }

    /// Halves every counter and the global sum, sixteen counters a word.
    pub fn decay(&mut self) {
        let mut emptied = 0;
        for w in &mut self.counters {
            // A counter at 1 empties: its nibble of `w ^ LOW_BITS` is zero.
            let ones = *w ^ LOW_BITS;
            let set = (ones | ones >> 1 | ones >> 2 | ones >> 3) & LOW_BITS;
            emptied += u64::from(16 - set.count_ones());
            *w = (*w >> 1) & 0x7777_7777_7777_7777;
        }
        self.nonzero -= emptied;
        self.total >>= 1;
        self.decays += 1;
        self.epoch_decays += 1;
    }

    /// Zeroes every counter and re-seeds the row hashes with `salt`,
    /// starting a new epoch. The cumulative [`decays`](Self::decays) count
    /// survives (it is a lifetime observability counter); the per-epoch
    /// counters restart.
    pub fn reset(&mut self, salt: u64) {
        self.counters.fill(0);
        self.total = 0;
        self.nonzero = 0;
        self.salt = salt;
        self.epoch += 1;
        self.epoch_increments = 0;
        self.epoch_decays = 0;
    }

    /// Sum of all increments since the last decay cascade.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of halvings performed over the sketch's lifetime.
    pub fn decays(&self) -> u64 {
        self.decays
    }

    /// The salt seeding the current epoch's row hashes.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// Number of resets performed (0 until the first
    /// [`reset`](Self::reset)).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Fraction of counters currently nonzero, in `[0, 1]`. A healthy
    /// zipfian workload leaves most counters empty; a sketch near full is
    /// being saturated.
    pub fn fill_ratio(&self) -> f64 {
        self.nonzero as f64 / (self.width * self.depth) as f64
    }

    /// Increments recorded since the last reset.
    pub fn epoch_increments(&self) -> u64 {
        self.epoch_increments
    }

    /// Decays performed since the last reset.
    pub fn epoch_decays(&self) -> u64 {
        self.epoch_decays
    }

    /// Memory footprint in bytes: half a byte per counter.
    pub fn memory_bytes(&self) -> usize {
        self.counters.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sketch as it was before its counters shrank: a row of `u32`
    /// counters per hash, no clamp anyone can reach. What
    /// [`CountMinSketch`] must equal wherever no counter would pass 15.
    struct WideSketch {
        rows: Vec<Vec<u32>>,
        width: usize,
        total: u64,
        saturation: u32,
        decays: u64,
        salt: u64,
        nonzero: u64,
    }

    impl WideSketch {
        fn new(width: usize, depth: usize, saturation: u32) -> Self {
            WideSketch {
                rows: vec![vec![0u32; width]; depth],
                width,
                total: 0,
                saturation,
                decays: 0,
                salt: 0,
                nonzero: 0,
            }
        }

        fn column(&self, key: &[u8], row_no: usize) -> usize {
            hash_with_seed(key, row_no as u64 ^ self.salt) as usize % self.width
        }

        fn increment(&mut self, key: &[u8]) -> u32 {
            let mut est = u32::MAX;
            for row_no in 0..self.rows.len() {
                let idx = self.column(key, row_no);
                let c = &mut self.rows[row_no][idx];
                if *c == 0 {
                    self.nonzero += 1;
                }
                *c += 1;
                est = est.min(*c);
            }
            self.total += 1;
            if est >= self.saturation {
                self.decay();
                est = self.estimate(key);
            }
            est
        }

        fn estimate(&self, key: &[u8]) -> u32 {
            let counts =
                (0..self.rows.len()).map(|row_no| self.rows[row_no][self.column(key, row_no)]);
            counts.min().unwrap()
        }

        fn decay(&mut self) {
            for c in self.rows.iter_mut().flatten() {
                if *c == 1 {
                    self.nonzero -= 1;
                }
                *c >>= 1;
            }
            self.total >>= 1;
            self.decays += 1;
        }

        fn reset(&mut self, salt: u64) {
            self.rows.iter_mut().flatten().for_each(|c| *c = 0);
            self.total = 0;
            self.nonzero = 0;
            self.salt = salt;
        }

        fn fill_ratio(&self) -> f64 {
            self.nonzero as f64 / (self.rows.len() * self.width) as f64
        }

        fn max_counter(&self) -> u32 {
            *self.rows.iter().flatten().max().unwrap()
        }
    }

    proptest! {
        /// Same answers as the wide sketch at the served saturation, over
        /// few enough columns that rows collide, decays cascade and some
        /// counters run ahead of the estimates, as long as the trace keeps
        /// every counter within 15: past that the clamp answers for it.
        #[test]
        fn nibble_counters_answer_like_wide_ones(
            width in 3usize..40,
            ops in proptest::collection::vec((any::<u8>(), 0u8..100), 1..2000),
        ) {
            let mut narrow = CountMinSketch::new(width, 4, 8);
            let mut wide = WideSketch::new(width, 4, 8);
            for (k, action) in ops {
                // Few hot keys, many cold ones.
                let key = [if action < 60 { k % 4 } else { k }];
                match action {
                    0 => {
                        narrow.decay();
                        wide.decay();
                    }
                    1 => {
                        narrow.reset(k as u64);
                        wide.reset(k as u64);
                    }
                    _ => {
                        let (got, want) = (narrow.increment(&key), wide.increment(&key));
                        if wide.max_counter() > 15 {
                            break;
                        }
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(narrow.estimate(&[k]), wide.estimate(&[k]));
                prop_assert_eq!(narrow.total(), wide.total);
                prop_assert_eq!(narrow.decays(), wide.decays);
                prop_assert_eq!(narrow.fill_ratio(), wide.fill_ratio());
            }
        }
    }

    #[test]
    fn counters_clamp_at_15() {
        // A saturation no counter reaches: never decays by itself.
        let mut s = CountMinSketch::new(64, 4, 16);
        for i in 1..=40u32 {
            assert_eq!(s.increment(b"k"), i.min(15));
        }
        assert_eq!((s.estimate(b"k"), s.total(), s.decays()), (15, 40, 0));
        s.decay();
        assert_eq!((s.estimate(b"k"), s.total()), (7, 20));
        // A clamped counter carries nothing into its neighbours.
        assert_eq!((0..256).filter(|&i| s.get(i) != 0).count(), 4);
    }

    #[test]
    fn decay_halves_every_counter_of_a_word() {
        // One row of 16 counters, one word: counter i holds i.
        let mut s = CountMinSketch::new(16, 1, 16);
        s.counters[0] = (0..16).map(|i| i << (4 * i)).sum();
        s.nonzero = 15;
        s.decay();
        let halves: Vec<u8> = (0..16).map(|i| i / 2).collect();
        assert_eq!((0..16).map(|i| s.get(i)).collect::<Vec<_>>(), halves);
        // Only the counter at 1 emptied.
        assert_eq!(s.nonzero, 14);
    }

    #[test]
    fn estimates_never_undercount_before_decay() {
        let mut s = CountMinSketch::new(1024, 4, u32::MAX - 1);
        for i in 0..200u32 {
            let key = format!("k{i}");
            for _ in 0..=(i % 5) {
                s.increment(key.as_bytes());
            }
        }
        for i in 0..200u32 {
            let key = format!("k{i}");
            assert!(s.estimate(key.as_bytes()) > (i % 5));
        }
    }

    #[test]
    fn hot_keys_rank_above_cold_keys() {
        let mut s = CountMinSketch::for_keys(1000);
        for _ in 0..6 {
            s.increment(b"hot");
        }
        s.increment(b"cold");
        assert!(s.normalized_score(b"hot") > s.normalized_score(b"cold"));
        assert!(s.normalized_score(b"never-seen") <= s.normalized_score(b"cold"));
    }

    #[test]
    fn saturation_triggers_halving() {
        let mut s = CountMinSketch::new(64, 4, 8);
        for _ in 0..7 {
            s.increment(b"k");
        }
        assert_eq!(s.decays(), 0);
        s.increment(b"k"); // reaches 8 -> decay
        assert_eq!(s.decays(), 1);
        assert_eq!(s.estimate(b"k"), 4);
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn decay_preserves_relative_order() {
        let mut s = CountMinSketch::new(4096, 4, 8);
        for _ in 0..6 {
            s.increment(b"hot");
        }
        for i in 0..50u32 {
            s.increment(format!("cold{i}").as_bytes());
        }
        s.decay();
        assert!(s.estimate(b"hot") > s.estimate(b"cold7"));
    }

    #[test]
    fn one_off_keys_have_tiny_scores() {
        let mut s = CountMinSketch::for_keys(10_000);
        for _ in 0..7 {
            s.increment(b"hot");
        }
        for i in 0..1000u32 {
            s.increment(format!("one-off-{i}").as_bytes());
        }
        let hot = s.normalized_score(b"hot");
        let one_off = s.normalized_score(b"one-off-5");
        assert!(hot > 4.0 * one_off, "hot={hot} one_off={one_off}");
    }

    #[test]
    fn memory_footprint_is_reported() {
        let s = CountMinSketch::new(1024, 4, 8);
        assert_eq!(s.memory_bytes(), 1024 * 4 / 2);
    }

    #[test]
    #[should_panic]
    fn zero_width_is_rejected() {
        CountMinSketch::new(0, 4, 8);
    }

    #[test]
    fn for_keys_clamps_degenerate_sizes() {
        assert_eq!(CountMinSketch::for_keys(0).memory_bytes(), 1024 * 4 / 2);
        assert_eq!(CountMinSketch::for_keys(1).memory_bytes(), 1024 * 4 / 2);
        // A huge key count must neither overflow the sizing multiply nor
        // allocate an unbounded sketch.
        let s = CountMinSketch::for_keys(usize::MAX / 2);
        assert_eq!(s.memory_bytes(), MAX_SKETCH_WIDTH * 4 / 2);
        // Mid-range sizing is unchanged from the historical formula.
        assert_eq!(
            CountMinSketch::for_keys(100_000).memory_bytes(),
            (100_000usize * 4).next_power_of_two() * 4 / 2
        );
    }

    #[test]
    fn reset_changes_hash_layout_and_zeroes_counters() {
        let mut s = CountMinSketch::new(1024, 4, 8);
        for _ in 0..5 {
            s.increment(b"victim");
        }
        assert!(s.estimate(b"victim") >= 5);
        assert!(s.fill_ratio() > 0.0);
        s.reset(0xDEAD_BEEF);
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.salt(), 0xDEAD_BEEF);
        assert_eq!(s.estimate(b"victim"), 0);
        assert_eq!(s.total(), 0);
        assert_eq!(s.fill_ratio(), 0.0);
        assert_eq!(s.epoch_increments(), 0);
        // The salted epoch still counts correctly.
        for _ in 0..3 {
            s.increment(b"victim");
        }
        assert_eq!(s.estimate(b"victim"), 3);
        assert_eq!(s.epoch_increments(), 3);
    }

    #[test]
    fn fill_ratio_tracks_decay_to_zero() {
        let mut s = CountMinSketch::new(64, 2, u32::MAX - 1);
        s.increment(b"a");
        let filled = s.fill_ratio();
        assert!(filled > 0.0);
        s.decay(); // every counter was 1 -> all drop to 0
        assert_eq!(s.fill_ratio(), 0.0);
        assert_eq!(s.epoch_decays(), 1);
    }
}
