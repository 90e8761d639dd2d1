//! The Stats Collector (paper Figure 4): per-window workload statistics and
//! block-I/O measurements feeding the Policy Decision Controller.

use adcache_obs::Counter;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters shared by all client threads.
#[derive(Debug, Default)]
pub struct Counters {
    /// Point lookups issued.
    pub points: AtomicU64,
    /// Range scans issued.
    pub scans: AtomicU64,
    /// Writes (puts + deletes) issued.
    pub writes: AtomicU64,
    /// Sum of requested scan lengths (for the average).
    pub scan_len_sum: AtomicU64,
    /// Queries answered by the range cache (full hits, incl. negative).
    pub range_hits: AtomicU64,
    /// Queries answered by the KV cache.
    pub kv_hits: AtomicU64,
    /// Queries that consulted the LSM tree (range/KV caches missed).
    pub cache_misses: AtomicU64,
    /// Entries returned by scans (CPU cost accounting).
    pub entries_returned: AtomicU64,
    /// Reads that failed at the storage layer (fault injection or real I/O
    /// errors). Counted toward `IO_miss` so the controller sees a failing
    /// device as a cold cache, never as free hits.
    pub failed_reads: AtomicU64,
}

impl Counters {
    #[allow(missing_docs)]
    pub fn add_point(&self) {
        self.points.fetch_add(1, Ordering::Relaxed);
    }
    #[allow(missing_docs)]
    pub fn add_scan(&self, len: usize) {
        self.scans.fetch_add(1, Ordering::Relaxed);
        self.scan_len_sum.fetch_add(len as u64, Ordering::Relaxed);
    }
    #[allow(missing_docs)]
    pub fn add_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }
    #[allow(missing_docs)]
    pub fn add_failed_read(&self) {
        self.failed_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Total operations so far.
    pub fn total_ops(&self) -> u64 {
        self.points.load(Ordering::Relaxed)
            + self.scans.load(Ordering::Relaxed)
            + self.writes.load(Ordering::Relaxed)
    }
}

/// Result-cache hits and misses charged to one caller of the `*_in` reads
/// (a served tenant's `cache.tenant.<id>.{hits,misses}`), who owns it.
#[derive(Debug, Default)]
pub struct HitTally {
    /// Reads the result caches answered.
    pub hits: Counter,
    /// Reads that fell through to the LSM-tree.
    pub misses: Counter,
}

impl HitTally {
    /// Charges one read to `tally`, if there is one.
    pub(crate) fn charge(tally: Option<&HitTally>, hit: bool) {
        if let Some(t) = tally {
            if hit { &t.hits } else { &t.misses }.inc();
        }
    }
}

/// A snapshot of every counter relevant to one window boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Snapshot {
    /// Point lookups issued so far.
    pub points: u64,
    /// Scans issued so far.
    pub scans: u64,
    /// Writes issued so far.
    pub writes: u64,
    /// Sum of requested scan lengths so far.
    pub scan_len_sum: u64,
    /// Range-cache query hits so far.
    pub range_hits: u64,
    /// KV-cache query hits so far.
    pub kv_hits: u64,
    /// Cache-system misses so far.
    pub cache_misses: u64,
    /// Query-path SST block reads so far (compaction I/O excluded).
    pub query_block_reads: u64,
    /// Block-cache hits so far.
    pub block_cache_hits: u64,
    /// Block-cache misses so far.
    pub block_cache_misses: u64,
    /// Compactions completed so far.
    pub compactions: u64,
    /// Simulated device nanoseconds so far.
    pub simulated_ns: u64,
    /// Storage-layer read failures so far.
    pub failed_reads: u64,
}

/// Per-window deltas derived from two snapshots, plus tree-shape context —
/// the controller's observation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowSummary {
    /// Point lookups in the window.
    pub points: u64,
    /// Scans in the window.
    pub scans: u64,
    /// Writes in the window.
    pub writes: u64,
    /// Average requested scan length (0 when no scans ran).
    pub avg_scan_len: f64,
    /// Range-cache query hits in the window.
    pub range_hits: u64,
    /// KV-cache query hits in the window.
    pub kv_hits: u64,
    /// Cache-system misses in the window.
    pub cache_misses: u64,
    /// Query-path SST block reads in the window (`IO_miss`).
    pub io_miss: u64,
    /// Block-cache hit rate inside the window.
    pub block_hit_rate: f64,
    /// Compactions that completed during the window.
    pub compactions: u64,
    /// Simulated device time spent in the window (ns).
    pub simulated_ns: u64,
    /// Entries per block (`B`).
    pub entries_per_block: f64,
    /// Non-empty level count (`L`).
    pub levels: usize,
    /// Sorted-run count (`r`).
    pub runs: usize,
    /// Maximum Level-0 runs before write stop (`r0_max`).
    pub r0_max: usize,
    /// Current block-cache occupancy fraction.
    pub block_occupancy: f64,
    /// Current range-cache occupancy fraction.
    pub range_occupancy: f64,
    /// Total cache budget as a fraction of the dataset size.
    pub cache_fraction: f64,
}

impl WindowSummary {
    /// Ops in the window.
    pub fn ops(&self) -> u64 {
        self.points + self.scans + self.writes
    }

    /// Delta between two snapshots (`end - start`).
    ///
    /// Every field saturates at zero: snapshots taken concurrently with
    /// serving threads can observe counters in slightly different orders
    /// (and callers may pass swapped or stale snapshots), and a panic on
    /// wraparound inside the stats path would take the whole run down.
    pub fn from_snapshots(start: &Snapshot, end: &Snapshot) -> Self {
        let scans = end.scans.saturating_sub(start.scans);
        let scan_len = end.scan_len_sum.saturating_sub(start.scan_len_sum);
        let bh = end.block_cache_hits.saturating_sub(start.block_cache_hits);
        let bm = end
            .block_cache_misses
            .saturating_sub(start.block_cache_misses);
        WindowSummary {
            points: end.points.saturating_sub(start.points),
            scans,
            writes: end.writes.saturating_sub(start.writes),
            avg_scan_len: if scans == 0 {
                0.0
            } else {
                scan_len as f64 / scans as f64
            },
            range_hits: end.range_hits.saturating_sub(start.range_hits),
            kv_hits: end.kv_hits.saturating_sub(start.kv_hits),
            cache_misses: end.cache_misses.saturating_sub(start.cache_misses),
            io_miss: end
                .query_block_reads
                .saturating_sub(start.query_block_reads)
                + end.failed_reads.saturating_sub(start.failed_reads),
            block_hit_rate: if bh + bm == 0 {
                0.0
            } else {
                bh as f64 / (bh + bm) as f64
            },
            compactions: end.compactions.saturating_sub(start.compactions),
            simulated_ns: end.simulated_ns.saturating_sub(start.simulated_ns),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = Counters::default();
        c.add_point();
        c.add_scan(16);
        c.add_scan(64);
        c.add_write();
        assert_eq!(c.points.load(Ordering::Relaxed), 1);
        assert_eq!(c.scans.load(Ordering::Relaxed), 2);
        assert_eq!(c.scan_len_sum.load(Ordering::Relaxed), 80);
        assert_eq!(c.total_ops(), 4);
    }

    #[test]
    fn window_summary_is_a_delta() {
        let start = Snapshot {
            points: 10,
            scans: 5,
            scan_len_sum: 80,
            query_block_reads: 100,
            block_cache_hits: 50,
            block_cache_misses: 50,
            ..Default::default()
        };
        let end = Snapshot {
            points: 30,
            scans: 10,
            scan_len_sum: 240,
            query_block_reads: 150,
            block_cache_hits: 80,
            block_cache_misses: 60,
            ..Default::default()
        };
        let w = WindowSummary::from_snapshots(&start, &end);
        assert_eq!(w.points, 20);
        assert_eq!(w.scans, 5);
        assert_eq!(w.avg_scan_len, 32.0);
        assert_eq!(w.io_miss, 50);
        assert!((w.block_hit_rate - 0.75).abs() < 1e-12);
        assert_eq!(w.ops(), 25);
    }

    #[test]
    fn swapped_snapshots_saturate_instead_of_panicking() {
        let newer = Snapshot {
            points: 30,
            scans: 10,
            scan_len_sum: 240,
            query_block_reads: 150,
            block_cache_hits: 80,
            block_cache_misses: 60,
            compactions: 3,
            simulated_ns: 1_000,
            ..Default::default()
        };
        let older = Snapshot {
            points: 10,
            scans: 5,
            ..Default::default()
        };
        // Arguments reversed: every delta would underflow without the
        // saturating arithmetic.
        let w = WindowSummary::from_snapshots(&newer, &older);
        assert_eq!(w.points, 0);
        assert_eq!(w.scans, 0);
        assert_eq!(w.avg_scan_len, 0.0);
        assert_eq!(w.io_miss, 0);
        assert_eq!(w.block_hit_rate, 0.0);
        assert_eq!(w.compactions, 0);
        assert_eq!(w.simulated_ns, 0);
    }

    #[test]
    fn failed_reads_count_toward_io_miss() {
        let start = Snapshot {
            query_block_reads: 100,
            failed_reads: 2,
            ..Default::default()
        };
        let end = Snapshot {
            query_block_reads: 130,
            failed_reads: 7,
            ..Default::default()
        };
        let w = WindowSummary::from_snapshots(&start, &end);
        assert_eq!(w.io_miss, 35, "30 block reads + 5 failed reads");
    }

    #[test]
    fn zero_scan_window_has_zero_avg_len() {
        let w = WindowSummary::from_snapshots(&Snapshot::default(), &Snapshot::default());
        assert_eq!(w.avg_scan_len, 0.0);
        assert_eq!(w.block_hit_rate, 0.0);
    }
}
