//! Zipfian sampling (the paper's access distribution; default skew 0.9).
//!
//! Implements the YCSB-style Zipfian generator: ranks are drawn with the
//! standard inverse-zeta method, and the *scrambled* variant hashes ranks
//! onto the key space so that hot keys are spread uniformly rather than
//! clustered at the low end — the usual assumption when evaluating block
//! caches, since clustering would artificially favour physical locality.

use rand::Rng;

/// A Zipfian distribution over `0..n` with exponent `theta`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Creates a sampler over `0..n`. `theta = 0` degenerates to uniform;
    /// the paper evaluates `theta` from 0.6 to 1.2.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty key space");
        assert!(theta >= 0.0 && theta != 1.0, "theta must be >= 0 and != 1");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact up to a cutoff, then the integral approximation; keeps
        // construction O(1)-ish even for huge key spaces.
        const EXACT: u64 = 10_000_000;
        if n <= EXACT {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=EXACT).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            let tail =
                ((n as f64).powf(1.0 - theta) - (EXACT as f64).powf(1.0 - theta)) / (1.0 - theta);
            head + tail
        }
    }

    /// Draws a rank in `0..n` (0 is the hottest).
    pub fn sample_rank(&self, rng: &mut impl Rng) -> u64 {
        if self.theta == 0.0 {
            return rng.gen_range(0..self.n);
        }
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64 % self.n
    }

    /// Draws a *scrambled* key id: the rank is hashed onto `0..n` so hot
    /// keys are spread across the key space (YCSB `scrambled_zipfian`).
    pub fn sample_scrambled(&self, rng: &mut impl Rng) -> u64 {
        let rank = self.sample_rank(rng);
        fnv1a64(rank) % self.n
    }

    /// Key-space size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew exponent.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

/// FNV-1a over the little-endian bytes of `x`, with avalanche tail.
pub fn fnv1a64(x: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn histogram(theta: f64, n: u64, draws: usize) -> Vec<u64> {
        let z = Zipf::new(n, theta);
        let mut rng = StdRng::seed_from_u64(7);
        let mut h = vec![0u64; n as usize];
        for _ in 0..draws {
            h[z.sample_rank(&mut rng) as usize] += 1;
        }
        h
    }

    #[test]
    fn rank_zero_is_hottest_and_skew_increases_concentration() {
        let mild = histogram(0.6, 1000, 200_000);
        let sharp = histogram(1.2, 1000, 200_000);
        assert!(mild[0] > mild[500], "rank 0 must beat median rank");
        assert!(
            sharp[0] > mild[0],
            "higher skew concentrates mass on rank 0"
        );
        // Top-10 share grows with skew.
        let share = |h: &[u64]| h[..10].iter().sum::<u64>() as f64 / h.iter().sum::<u64>() as f64;
        assert!(
            share(&sharp) > share(&mild) + 0.2,
            "{} vs {}",
            share(&sharp),
            share(&mild)
        );
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let h = histogram(0.0, 100, 100_000);
        let (mn, mx) = (h.iter().min().unwrap(), h.iter().max().unwrap());
        assert!(*mx < mn * 2, "uniform histogram too lopsided: {mn}..{mx}");
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(37, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample_rank(&mut rng) < 37);
            assert!(z.sample_scrambled(&mut rng) < 37);
        }
    }

    #[test]
    fn scrambling_spreads_the_hot_key() {
        let z = Zipf::new(1_000_000, 0.9);
        let mut rng = StdRng::seed_from_u64(3);
        // The hottest scrambled key should not be key 0.
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(z.sample_scrambled(&mut rng)).or_insert(0u64) += 1;
        }
        let hottest = counts.iter().max_by_key(|(_, c)| **c).unwrap();
        assert_ne!(
            *hottest.0, 0,
            "scrambled hot key must move away from rank 0"
        );
        assert_eq!(*hottest.0, fnv1a64(0) % 1_000_000);
    }

    #[test]
    fn huge_keyspace_constructs_quickly() {
        // 10^10 keys exercises the integral tail of zeta.
        let z = Zipf::new(10_000_000_000, 0.9);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(z.sample_rank(&mut rng) < z.n());
        }
        assert_eq!(z.theta(), 0.9);
    }

    #[test]
    #[should_panic]
    fn theta_one_is_rejected() {
        Zipf::new(100, 1.0);
    }
}
