//! Operation-mix workload generation.
//!
//! Mirrors the paper's Section 5 setup: a fixed key space accessed under a
//! Zipfian distribution, with operations drawn from a (get / short-scan /
//! long-scan / write) mix. Keys render as `user`-prefixed fixed-width
//! strings (24 bytes by default, like the paper's key size).

use crate::zipf::Zipf;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How keys are drawn from the key space (YCSB's request distributions).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Distribution {
    /// Zipfian with the configured skew (optionally scrambled).
    Zipfian,
    /// Every key equally likely.
    Uniform,
    /// "Latest": Zipfian over recency — recently *written* keys are hot
    /// (rank 0 = most recently inserted id). Models feeds and queues.
    Latest,
    /// A hot set of `hot_fraction` of the keys receives
    /// `hot_access_fraction` of accesses (YCSB hotspot).
    Hotspot,
}

/// One operation against the store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Operation {
    /// Point lookup of `key`.
    Get {
        /// Target key.
        key: Bytes,
    },
    /// Range scan of `len` entries starting at `from`.
    Scan {
        /// Inclusive start key.
        from: Bytes,
        /// Number of entries to return.
        len: usize,
    },
    /// Insert or overwrite.
    Put {
        /// Target key.
        key: Bytes,
        /// Value payload.
        value: Bytes,
    },
    /// Delete `key`.
    Delete {
        /// Target key.
        key: Bytes,
    },
}

/// Operation-type proportions; they need not sum to 1 (normalized on use).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mix {
    /// Point lookups.
    pub get: f64,
    /// Scans of `short_scan_len`.
    pub short_scan: f64,
    /// Scans of `long_scan_len`.
    pub long_scan: f64,
    /// Writes (puts).
    pub write: f64,
}

impl Mix {
    /// A mix with the given percentages.
    pub const fn new(get: f64, short_scan: f64, long_scan: f64, write: f64) -> Self {
        Mix {
            get,
            short_scan,
            long_scan,
            write,
        }
    }

    fn total(&self) -> f64 {
        self.get + self.short_scan + self.long_scan + self.write
    }
}

/// Workload shape parameters (paper Section 5.1, scaled).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of distinct keys.
    pub num_keys: u64,
    /// Value payload size in bytes (paper: 1000).
    pub value_size: usize,
    /// Zipfian skew for point lookups and writes (paper default: 0.9).
    pub point_skew: f64,
    /// Zipfian skew for scan start keys (defaults to `point_skew`).
    pub scan_skew: f64,
    /// Short-scan length (paper: 16).
    pub short_scan_len: usize,
    /// Long-scan length (paper: 64).
    pub long_scan_len: usize,
    /// Spread hot ranks across the key space (YCSB scrambled Zipfian).
    pub scramble: bool,
    /// Request distribution for point lookups and writes.
    pub distribution: Distribution,
    /// Hotspot: fraction of the key space that is hot.
    pub hot_fraction: f64,
    /// Hotspot: fraction of accesses that go to the hot set.
    pub hot_access_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_keys: 200_000,
            value_size: 100,
            point_skew: 0.9,
            scan_skew: 0.9,
            short_scan_len: 16,
            long_scan_len: 64,
            scramble: true,
            distribution: Distribution::Zipfian,
            hot_fraction: 0.2,
            hot_access_fraction: 0.8,
            seed: 0x5EED,
        }
    }
}

/// Renders key id `i` as the fixed-width 24-byte key used throughout the
/// experiments.
pub fn render_key(i: u64) -> Bytes {
    Bytes::from(format!("user{i:020}"))
}

/// The id encoded in a key produced by [`render_key`].
pub fn parse_key(key: &[u8]) -> Option<u64> {
    std::str::from_utf8(key.strip_prefix(b"user")?)
        .ok()?
        .parse()
        .ok()
}

/// Draws operations from a configurable mix over a Zipfian key space.
pub struct WorkloadGen {
    cfg: WorkloadConfig,
    point_dist: Zipf,
    scan_dist: Zipf,
    rng: StdRng,
    value_counter: u64,
    /// Highest key id written so far (drives the Latest distribution).
    latest_write: u64,
}

impl WorkloadGen {
    /// Creates a generator.
    pub fn new(cfg: WorkloadConfig) -> Self {
        let point_dist = Zipf::new(cfg.num_keys, cfg.point_skew);
        let scan_dist = Zipf::new(cfg.num_keys, cfg.scan_skew);
        let rng = StdRng::seed_from_u64(cfg.seed);
        let latest_write = cfg.num_keys.saturating_sub(1);
        WorkloadGen {
            cfg,
            point_dist,
            scan_dist,
            rng,
            value_counter: 0,
            latest_write,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    fn point_key(&mut self) -> Bytes {
        let id = match self.cfg.distribution {
            Distribution::Zipfian => {
                if self.cfg.scramble {
                    self.point_dist.sample_scrambled(&mut self.rng)
                } else {
                    self.point_dist.sample_rank(&mut self.rng)
                }
            }
            Distribution::Uniform => self.rng.gen_range(0..self.cfg.num_keys),
            Distribution::Latest => {
                // Rank 0 = the most recently written id, counting backwards.
                let rank = self.point_dist.sample_rank(&mut self.rng);
                self.latest_write.wrapping_sub(rank) % self.cfg.num_keys
            }
            Distribution::Hotspot => {
                let hot_keys = ((self.cfg.num_keys as f64) * self.cfg.hot_fraction).max(1.0) as u64;
                if self.rng.gen::<f64>() < self.cfg.hot_access_fraction {
                    // Hot set is spread across the space by hashing.
                    crate::zipf::fnv1a64(self.rng.gen_range(0..hot_keys)) % self.cfg.num_keys
                } else {
                    self.rng.gen_range(0..self.cfg.num_keys)
                }
            }
        };
        render_key(id)
    }

    fn scan_start(&mut self) -> Bytes {
        let id = if self.cfg.scramble {
            self.scan_dist.sample_scrambled(&mut self.rng)
        } else {
            self.scan_dist.sample_rank(&mut self.rng)
        };
        render_key(id)
    }

    /// A deterministic-but-distinct value payload.
    pub fn value(&mut self) -> Bytes {
        self.value_counter += 1;
        let mut v = Vec::with_capacity(self.cfg.value_size);
        let tag = self.value_counter.to_le_bytes();
        while v.len() < self.cfg.value_size {
            v.extend_from_slice(&tag);
        }
        v.truncate(self.cfg.value_size);
        Bytes::from(v)
    }

    /// Draws the next operation from `mix`.
    pub fn next_op(&mut self, mix: &Mix) -> Operation {
        let total = mix.total();
        assert!(total > 0.0, "mix must have positive mass");
        let u: f64 = self.rng.gen::<f64>() * total;
        if u < mix.get {
            Operation::Get {
                key: self.point_key(),
            }
        } else if u < mix.get + mix.short_scan {
            Operation::Scan {
                from: self.scan_start(),
                len: self.cfg.short_scan_len,
            }
        } else if u < mix.get + mix.short_scan + mix.long_scan {
            Operation::Scan {
                from: self.scan_start(),
                len: self.cfg.long_scan_len,
            }
        } else {
            let key = self.point_key();
            if let Some(id) = parse_key(&key) {
                self.latest_write = id;
            }
            let value = self.value();
            Operation::Put { key, value }
        }
    }

    /// Operations that load every key once (sequential ids, constant-size
    /// values); run before measurements so the tree is fully populated.
    pub fn load_ops(&mut self) -> Vec<Operation> {
        (0..self.cfg.num_keys)
            .map(|i| Operation::Put {
                key: render_key(i),
                value: self.value(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_rendering_roundtrip_and_width() {
        let k = render_key(42);
        assert_eq!(k.len(), 24, "paper uses 24-byte keys");
        assert_eq!(parse_key(&k), Some(42));
        assert_eq!(parse_key(b"bogus"), None);
        // Lexicographic order matches numeric order.
        assert!(render_key(9) < render_key(10));
        assert!(render_key(199_999) < render_key(200_000));
    }

    #[test]
    fn mix_proportions_are_respected() {
        let mut g = WorkloadGen::new(WorkloadConfig {
            num_keys: 1000,
            ..Default::default()
        });
        let mix = Mix::new(50.0, 25.0, 0.0, 25.0);
        let mut gets = 0;
        let mut scans = 0;
        let mut puts = 0;
        for _ in 0..10_000 {
            match g.next_op(&mix) {
                Operation::Get { .. } => gets += 1,
                Operation::Scan { len, .. } => {
                    assert_eq!(len, 16);
                    scans += 1;
                }
                Operation::Put { value, .. } => {
                    assert_eq!(value.len(), 100);
                    puts += 1;
                }
                Operation::Delete { .. } => unreachable!(),
            }
        }
        assert!((gets as f64 / 10_000.0 - 0.5).abs() < 0.03);
        assert!((scans as f64 / 10_000.0 - 0.25).abs() < 0.03);
        assert!((puts as f64 / 10_000.0 - 0.25).abs() < 0.03);
    }

    #[test]
    fn long_scans_use_long_length() {
        let mut g = WorkloadGen::new(WorkloadConfig {
            num_keys: 1000,
            ..Default::default()
        });
        let mix = Mix::new(0.0, 0.0, 1.0, 0.0);
        for _ in 0..100 {
            match g.next_op(&mix) {
                Operation::Scan { len, .. } => assert_eq!(len, 64),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = WorkloadConfig {
            num_keys: 1000,
            seed: 99,
            ..Default::default()
        };
        let mut a = WorkloadGen::new(cfg.clone());
        let mut b = WorkloadGen::new(cfg);
        let mix = Mix::new(1.0, 1.0, 1.0, 1.0);
        for _ in 0..100 {
            assert_eq!(a.next_op(&mix), b.next_op(&mix));
        }
    }

    #[test]
    fn load_ops_cover_every_key_once() {
        let mut g = WorkloadGen::new(WorkloadConfig {
            num_keys: 500,
            ..Default::default()
        });
        let ops = g.load_ops();
        assert_eq!(ops.len(), 500);
        let mut seen = std::collections::HashSet::new();
        for op in ops {
            match op {
                Operation::Put { key, .. } => {
                    assert!(seen.insert(key));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn uniform_distribution_is_flat() {
        let mut g = WorkloadGen::new(WorkloadConfig {
            num_keys: 100,
            distribution: Distribution::Uniform,
            ..Default::default()
        });
        let mix = Mix::new(1.0, 0.0, 0.0, 0.0);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            if let Operation::Get { key } = g.next_op(&mix) {
                *counts.entry(key).or_insert(0u64) += 1;
            }
        }
        assert_eq!(counts.len(), 100, "all keys touched");
        let max = *counts.values().max().unwrap();
        let min = *counts.values().min().unwrap();
        assert!(max < min * 2, "uniform spread too lopsided: {min}..{max}");
    }

    #[test]
    fn latest_distribution_tracks_recent_writes() {
        let mut g = WorkloadGen::new(WorkloadConfig {
            num_keys: 10_000,
            distribution: Distribution::Latest,
            ..Default::default()
        });
        // Interleave writes and reads; reads should concentrate near the
        // most recent writes.
        let mut last_written = None;
        let mut near_hits = 0;
        let mut reads = 0;
        for i in 0..20_000 {
            let mix = if i % 2 == 0 {
                Mix::new(0.0, 0.0, 0.0, 1.0)
            } else {
                Mix::new(1.0, 0.0, 0.0, 0.0)
            };
            match g.next_op(&mix) {
                Operation::Put { key, .. } => last_written = parse_key(&key),
                Operation::Get { key } => {
                    reads += 1;
                    if let (Some(w), Some(r)) = (last_written, parse_key(&key)) {
                        // "near" = within 100 ids behind the latest write.
                        if w.wrapping_sub(r) % 10_000 < 100 {
                            near_hits += 1;
                        }
                    }
                }
                _ => {}
            }
        }
        // Under a uniform distribution only ~1% of reads would land within
        // 100 ids of the latest write; "latest" concentrates far above that.
        assert!(
            near_hits as f64 / reads as f64 > 0.25,
            "latest reads should chase writes: {near_hits}/{reads}"
        );
    }

    #[test]
    fn hotspot_concentrates_on_hot_set() {
        let mut g = WorkloadGen::new(WorkloadConfig {
            num_keys: 10_000,
            distribution: Distribution::Hotspot,
            hot_fraction: 0.1,
            hot_access_fraction: 0.9,
            ..Default::default()
        });
        let mix = Mix::new(1.0, 0.0, 0.0, 0.0);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            if let Operation::Get { key } = g.next_op(&mix) {
                *counts.entry(key).or_insert(0u64) += 1;
            }
        }
        // The ~1000 hottest keys should hold ~90% of the mass.
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let hot_mass: u64 = freqs.iter().take(1_000).sum();
        let share = hot_mass as f64 / 50_000.0;
        assert!(share > 0.8, "hot-set share {share}");
    }

    #[test]
    fn skewed_gets_concentrate_on_few_keys() {
        let mut g = WorkloadGen::new(WorkloadConfig {
            num_keys: 10_000,
            point_skew: 1.2,
            ..Default::default()
        });
        let mix = Mix::new(1.0, 0.0, 0.0, 0.0);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            if let Operation::Get { key } = g.next_op(&mix) {
                *counts.entry(key).or_insert(0u64) += 1;
            }
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = freqs.iter().take(10).sum();
        assert!(
            top10 as f64 / 20_000.0 > 0.4,
            "skew 1.2 must concentrate access"
        );
    }
}
