//! The four workloads. Their names are final: later issues cite them.
//!
//! Each exists to make a different set of layers do the work, so that an
//! optimisation has one workload that exercises it and one that bypasses
//! it (see README.md for the reasoning and the predicted interactions).

use adcache_workload::{Mix, TABLE3};

/// Closed-loop connections, each with at most one request outstanding.
/// One polling generator thread drives them all (see `wire::replay`), so
/// on the 2-core reference host the generator has one core and the server
/// the other.
pub const CONNECTIONS: u64 = 2;

/// Length of a measured run in seconds when `--seconds` is not given; the
/// same number is `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 10;

/// How the operation mix evolves over a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MixPlan {
    /// One mix for the whole stream.
    Static(Mix),
    /// The paper's Table 3 phases A→F back to back, equal operations each.
    PaperPhases,
}

impl MixPlan {
    /// The mix in force at operation `op` of a `total`-operation stream.
    pub fn mix_at(&self, op: u64, total: u64) -> Mix {
        match self {
            MixPlan::Static(mix) => *mix,
            MixPlan::PaperPhases => {
                let phases = TABLE3.len() as u64;
                let phase = (op * phases / total.max(1)).min(phases - 1);
                TABLE3[phase as usize].1
            }
        }
    }

    /// Whether any operation of the stream is a write.
    pub fn has_writes(&self) -> bool {
        match self {
            MixPlan::Static(mix) => mix.write > 0.0,
            MixPlan::PaperPhases => true,
        }
    }
}

/// One benchmark workload: data set, cache budget, traffic mix and the
/// frozen amount of work a measured second stands for.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line, in reports and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// Durable store under `--dir` (real WAL and SST files) or in-memory.
    pub durable: bool,
    /// Keys loaded, every one exactly once.
    pub num_keys: u64,
    /// Value size in bytes.
    pub value_size: usize,
    /// `--cache-mb` given to the server.
    pub cache_mb: usize,
    /// Traffic mix over the stream.
    pub plan: MixPlan,
    /// Operations (both connections together) that one second of
    /// `--seconds` stands for. Frozen at the rate the seed commit sustains
    /// on the 2-core reference host, so that a measured run is a fixed
    /// operation count — the same inputs on both sides of a comparison —
    /// that takes about `--seconds` there.
    pub ops_per_second: u64,
    /// Operations of the workload's own stream replayed as warm-up, after
    /// the sequential sweep (both connections together).
    pub warm_ops: u64,
}

impl Workload {
    /// Operations in a measured run of `seconds`, both connections together
    /// (a multiple of the connection count).
    pub fn measured_ops(&self, seconds: u64, scale_div: u64) -> u64 {
        let ops = self.ops_per_second * seconds / scale_div;
        (ops - ops % CONNECTIONS).max(CONNECTIONS)
    }

    /// Whether the loaded data fits the server's cache budget. Only then
    /// is the warm-up's sequential read of every key useful: with a cache
    /// of a tenth of the data it would flood the block cache and feed the
    /// admission sketch one uniform count per key.
    pub fn fits_cache(&self) -> bool {
        let data = self.num_keys * (self.value_size as u64 + 24);
        data <= (self.cache_mb as u64) << 20
    }

    /// The workload at about `1/scale_div` size (smoke mode). The cache
    /// budget shrinks first (the server takes whole megabytes, at least
    /// one) and the key count follows it, so the data keeps its size
    /// relative to the cache and hits and misses both still happen; the
    /// key count stays a multiple of the connection count.
    pub fn scaled(&self, scale_div: u64) -> Workload {
        if scale_div == 1 {
            return *self;
        }
        let cache_mb = (self.cache_mb as u64 / scale_div).max(1);
        let keys = (self.num_keys * cache_mb / self.cache_mb as u64).max(1_000);
        Workload {
            cache_mb: cache_mb as usize,
            num_keys: keys - keys % CONNECTIONS,
            warm_ops: self.warm_ops / scale_div,
            ..*self
        }
    }
}

/// The workloads, in the order they are run and reported.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "get-hot",
        why: "GETs on data that fits the cache: serving loop and cache-hit path do all the work, LSM none",
        durable: false,
        num_keys: 200_000,
        value_size: 100,
        cache_mb: 64,
        plan: MixPlan::Static(Mix::new(100.0, 0.0, 0.0, 0.0)),
        ops_per_second: 90_000,
        warm_ops: 30_000,
    },
    Workload {
        name: "read-miss",
        why: "same reads with a cache of a third of the data: admission, fill, eviction and the LSM read path dominate",
        durable: false,
        num_keys: 200_000,
        value_size: 100,
        cache_mb: 8,
        plan: MixPlan::Static(Mix::new(80.0, 20.0, 0.0, 0.0)),
        ops_per_second: 20_000,
        warm_ops: 20_000,
    },
    Workload {
        name: "write-durable",
        why: "75% writes on a durable store: WAL, flush, compaction and cache invalidation run beside the reads",
        durable: true,
        num_keys: 100_000,
        value_size: 512,
        cache_mb: 8,
        plan: MixPlan::Static(Mix::new(10.0, 10.0, 5.0, 75.0)),
        ops_per_second: 15_000,
        warm_ops: 15_000,
    },
    Workload {
        name: "phase-shift",
        why: "the paper's phases A to F in sequence: scan-heavy to write-heavy, range cache and partial admission work",
        durable: false,
        num_keys: 200_000,
        value_size: 100,
        cache_mb: 8,
        plan: MixPlan::PaperPhases,
        ops_per_second: 7_000,
        warm_ops: 3_000,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_cover_the_stream_in_order() {
        let plan = MixPlan::PaperPhases;
        assert_eq!(plan.mix_at(0, 600), TABLE3[0].1);
        assert_eq!(plan.mix_at(99, 600), TABLE3[0].1);
        assert_eq!(plan.mix_at(100, 600), TABLE3[1].1);
        assert_eq!(plan.mix_at(599, 600), TABLE3[5].1);
        assert!(plan.has_writes());
        assert!(!WORKLOADS[0].plan.has_writes());
    }

    #[test]
    fn scaling_keeps_ownership_divisible() {
        for w in &WORKLOADS {
            assert_eq!(w.num_keys % CONNECTIONS, 0);
            assert_eq!(w.scaled(50).num_keys % CONNECTIONS, 0);
            assert_eq!(w.scaled(50).fits_cache(), w.fits_cache());
            assert_eq!(w.scaled(1).num_keys, w.num_keys);
            assert_eq!(w.measured_ops(DEFAULT_SECONDS, 50) % CONNECTIONS, 0);
            assert!(w.why.len() <= 200);
        }
        assert!(by_name("read-miss").is_some());
        assert!(by_name("nope").is_none());
    }
}
