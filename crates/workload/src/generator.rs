//! Operation-mix workload generation.
//!
//! Mirrors the paper's Section 5 setup: a fixed key space accessed under a
//! scrambled Zipfian distribution, with operations drawn from a (get /
//! short-scan / long-scan / write) mix. Keys render as `user`-prefixed
//! fixed-width strings (24 bytes, like the paper's key size).

use crate::zipf::Zipf;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Entries a short scan returns (paper: 16).
pub const SHORT_SCAN_LEN: usize = 16;
/// Entries a long scan returns (paper: 64).
pub const LONG_SCAN_LEN: usize = 64;

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
    /// Scans of [`SHORT_SCAN_LEN`].
    pub short_scan: f64,
    /// Scans of [`LONG_SCAN_LEN`].
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

/// Draws operations from a configurable mix over a scrambled Zipfian key
/// space: the hot ranks are hashed across the key space (YCSB
/// `scrambled_zipfian`).
pub struct WorkloadGen {
    cfg: WorkloadConfig,
    point_dist: Zipf,
    scan_dist: Zipf,
    rng: StdRng,
    value_counter: u64,
}

impl WorkloadGen {
    /// Creates a generator.
    pub fn new(cfg: WorkloadConfig) -> Self {
        let point_dist = Zipf::new(cfg.num_keys, cfg.point_skew);
        let scan_dist = Zipf::new(cfg.num_keys, cfg.scan_skew);
        let rng = StdRng::seed_from_u64(cfg.seed);
        WorkloadGen {
            cfg,
            point_dist,
            scan_dist,
            rng,
            value_counter: 0,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    fn point_key(&mut self) -> Bytes {
        render_key(self.point_dist.sample_scrambled(&mut self.rng))
    }

    fn scan_start(&mut self) -> Bytes {
        render_key(self.scan_dist.sample_scrambled(&mut self.rng))
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
                len: SHORT_SCAN_LEN,
            }
        } else if u < mix.get + mix.short_scan + mix.long_scan {
            Operation::Scan {
                from: self.scan_start(),
                len: LONG_SCAN_LEN,
            }
        } else {
            let key = self.point_key();
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
