//! Bloom filter with double hashing.
//!
//! One filter is built per SSTable over every user key in the table, at a
//! configurable bits-per-key budget (the paper uses 10 bits/key, which it
//! treats as driving the false-positive rate "close to zero" in the reward
//! model). The probe count is derived as `k = bits_per_key * ln 2`, clamped
//! to `[1, 30]`, and probes use the Kirsch–Mitzenmacher double-hashing
//! scheme over a single 64-bit hash.

use crate::heap;

/// A serializable Bloom filter over byte-string keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_probes: u32,
}

/// 64-bit FNV-1a; fast, dependency-free, and adequate for filter probing.
/// [`BloomFilter::build_hashed`] takes keys as these hashes.
pub fn hash64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // Final avalanche (splitmix64 tail) to decorrelate low bits.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl BloomFilter {
    /// Heap bytes of the filter's bit array.
    pub fn heap_bytes(&self) -> usize {
        heap::vec(&self.bits)
    }

    /// Builds a filter sized for `keys.len()` keys at `bits_per_key`.
    ///
    /// An empty key set or a zero budget produces a degenerate filter that
    /// reports nothing present.
    pub fn build<K: AsRef<[u8]>>(keys: &[K], bits_per_key: usize) -> Self {
        Self::from_hashes(keys.iter().map(|k| hash64(k.as_ref())), bits_per_key)
    }

    /// [`build`](Self::build) over keys given as their [`hash64`]: the same
    /// filter, bit for bit, without the keys themselves.
    pub fn build_hashed(hashes: &[u64], bits_per_key: usize) -> Self {
        Self::from_hashes(hashes.iter().copied(), bits_per_key)
    }

    fn from_hashes(hashes: impl ExactSizeIterator<Item = u64>, bits_per_key: usize) -> Self {
        if hashes.len() == 0 || bits_per_key == 0 {
            return BloomFilter {
                bits: Vec::new(),
                num_bits: 0,
                num_probes: 0,
            };
        }
        let num_bits = (hashes.len() * bits_per_key).max(64) as u64;
        let num_words = num_bits.div_ceil(64) as usize;
        let num_bits = (num_words * 64) as u64;
        let num_probes =
            ((bits_per_key as f64 * std::f64::consts::LN_2).round() as u32).clamp(1, 30);
        let mut filter = BloomFilter {
            bits: vec![0u64; num_words],
            num_bits,
            num_probes,
        };
        for h in hashes {
            filter.insert(h);
        }
        filter
    }

    fn insert(&mut self, h: u64) {
        let (h1, mut h2) = (h, h.rotate_left(32) | 1);
        let mut pos = h1;
        for _ in 0..self.num_probes {
            let bit = pos % self.num_bits;
            self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
            pos = pos.wrapping_add(h2);
            h2 = h2.wrapping_add(1);
        }
    }

    /// Returns `false` when the key is definitely absent; `true` when it may
    /// be present.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        if self.num_bits == 0 {
            return false;
        }
        let h = hash64(key);
        let (h1, mut h2) = (h, h.rotate_left(32) | 1);
        let mut pos = h1;
        for _ in 0..self.num_probes {
            let bit = pos % self.num_bits;
            if self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
            pos = pos.wrapping_add(h2);
            h2 = h2.wrapping_add(1);
        }
        true
    }

    /// Encodes the filter for inclusion in an SSTable.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.num_bits.to_le_bytes());
        out.extend_from_slice(&self.num_probes.to_le_bytes());
        out.extend_from_slice(&(self.bits.len() as u32).to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Decodes a filter previously produced by [`BloomFilter::encode`].
    /// Returns the filter and the number of bytes consumed.
    pub fn decode(data: &[u8]) -> Option<(Self, usize)> {
        if data.len() < 16 {
            return None;
        }
        let num_bits = u64::from_le_bytes(data[0..8].try_into().ok()?);
        let num_probes = u32::from_le_bytes(data[8..12].try_into().ok()?);
        let num_words = u32::from_le_bytes(data[12..16].try_into().ok()?) as usize;
        let need = 16 + num_words * 8;
        if data.len() < need
            || num_bits as usize != num_words * 64 && !(num_bits == 0 && num_words == 0)
        {
            return None;
        }
        let mut bits = Vec::with_capacity(num_words);
        for i in 0..num_words {
            let off = 16 + i * 8;
            bits.push(u64::from_le_bytes(data[off..off + 8].try_into().ok()?));
        }
        Some((
            BloomFilter {
                bits,
                num_bits,
                num_probes,
            },
            need,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("key-{i:08}").into_bytes()).collect()
    }

    #[test]
    fn no_false_negatives() {
        let ks = keys(10_000);
        let f = BloomFilter::build(&ks, 10);
        for k in &ks {
            assert!(
                f.may_contain(k),
                "false negative for {:?}",
                String::from_utf8_lossy(k)
            );
        }
    }

    #[test]
    fn false_positive_rate_is_low_at_10_bits() {
        let ks = keys(10_000);
        let f = BloomFilter::build(&ks, 10);
        let mut fp = 0usize;
        let trials = 20_000;
        for i in 0..trials {
            let probe = format!("absent-{i:08}").into_bytes();
            if f.may_contain(&probe) {
                fp += 1;
            }
        }
        let rate = fp as f64 / trials as f64;
        // Theoretical FPR at 10 bits/key is ~0.8%; allow generous slack.
        assert!(rate < 0.03, "observed FPR {rate}");
    }

    #[test]
    fn fewer_bits_raise_fpr() {
        let ks = keys(5_000);
        let tight = BloomFilter::build(&ks, 10);
        let loose = BloomFilter::build(&ks, 2);
        let count = |f: &BloomFilter| {
            (0..10_000)
                .filter(|i| f.may_contain(format!("miss-{i}").as_bytes()))
                .count()
        };
        assert!(count(&loose) > count(&tight) * 3);
    }

    #[test]
    fn empty_and_disabled_filters() {
        let f = BloomFilter::build(&Vec::<Vec<u8>>::new(), 10);
        assert!(!f.may_contain(b"anything"));
        let f = BloomFilter::build(&keys(10), 0);
        assert!(!f.may_contain(b"key-00000001"));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ks = keys(1000);
        let f = BloomFilter::build(&ks, 10);
        let mut buf = Vec::new();
        f.encode(&mut buf);
        // Trailing bytes must be left untouched.
        buf.extend_from_slice(b"trailer");
        let (g, used) = BloomFilter::decode(&buf).unwrap();
        assert_eq!(used, buf.len() - 7);
        assert_eq!(f, g);
        for k in &ks {
            assert!(g.may_contain(k));
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let ks = keys(100);
        let f = BloomFilter::build(&ks, 10);
        let mut buf = Vec::new();
        f.encode(&mut buf);
        assert!(BloomFilter::decode(&buf[..8]).is_none());
        assert!(BloomFilter::decode(&buf[..buf.len() - 1]).is_none());
    }
}
