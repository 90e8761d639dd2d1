//! Deterministic fault injection for the storage layer.
//!
//! Robustness experiments need misbehaving devices that misbehave the *same
//! way* on every run. This module provides two seeded, scriptable primitives:
//!
//! - [`FaultStorage`]: a decorator over any [`Storage`] backend that injects
//!   faults according to a [`FaultPlan`] — transient and permanent read
//!   errors, whole-write failures, torn writes (a truncated prefix of the
//!   table reaches the device before the "power cut"), bit-flip corruption
//!   of returned blocks, and latency spikes charged to the simulated clock.
//!   Every decision is a pure function of `(seed, op counter)` or
//!   `(seed, file, block)`, so a run replays bit-for-bit from its seed.
//! - [`CrashController`] / [`CrashPoint`]: armable process-death hooks that
//!   the engine checks at its crash-consistency seams (flush, compaction,
//!   manifest commit, WAL reset). When the armed hook fires the engine call
//!   returns [`LsmError::Injected`]; the harness must treat the instance as
//!   dead, drop it, and reopen from durable state — exactly a `kill -9`.
//!
//! Transient faults resolve on retry because the per-op counter advances;
//! permanent read faults are a property of the `(file, block)` address and
//! never heal. Bit flips corrupt the *returned copy* only — the device data
//! stays intact, so a retry after checksum rejection reads clean bytes.
//! Metadata reads are left fault-free by design: table metadata is pinned at
//! open and faulting it would only model a corrupted open, which the manifest
//! rollback path covers separately.

use crate::error::{LsmError, Result};
use crate::storage::{collecting_sink, write_table, IoStats, Storage, TableSink};
use crate::types::FileId;
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// SplitMix64 — the standard 64-bit finalizer. One call per decision keeps
/// fault draws independent across ops and fault kinds; the admission
/// sketch's reset salts, the tenant salts and the crash drill's streams
/// draw from it too.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from 53 high bits.
fn u01(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

const SALT_READ_TRANSIENT: u64 = 0x01;
const SALT_READ_PERMANENT: u64 = 0x02;
const SALT_WRITE_FAIL: u64 = 0x03;
const SALT_TORN_WRITE: u64 = 0x04;
const SALT_TORN_LEN: u64 = 0x05;
const SALT_BIT_FLIP: u64 = 0x06;
const SALT_FLIP_POS: u64 = 0x07;
const SALT_DELETE_FAIL: u64 = 0x08;
const SALT_LATENCY: u64 = 0x09;

/// Per-fault-kind probabilities for a [`FaultStorage`].
///
/// All probabilities are in `[0, 1]` and are drawn independently per
/// operation (per address for `read_permanent`). A default plan injects
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probability a block read fails once with [`LsmError::Injected`];
    /// the same read retried succeeds (unless it draws a new fault).
    pub read_transient: f64,
    /// Probability a given `(file, block)` address is permanently
    /// unreadable. Sticky: a function of the address, not the op counter.
    pub read_permanent: f64,
    /// Probability a table write fails atomically — nothing reaches the
    /// device.
    pub write_fail: f64,
    /// Probability a table write is torn: a strict prefix of the blocks is
    /// persisted (metadata lost) and the write reports failure.
    pub torn_write: f64,
    /// Probability a successfully read block is returned with one byte
    /// flipped. The device copy stays intact; block checksums catch it.
    pub bit_flip: f64,
    /// Probability a table delete (the storage sync/GC path) fails
    /// transiently, leaving the obsolete file behind.
    pub delete_fail: f64,
    /// Probability a block read is charged [`FaultPlan::latency_spike_ns`]
    /// extra simulated nanoseconds.
    pub latency_spike: f64,
    /// Extra simulated time per latency spike.
    pub latency_spike_ns: u64,
}

impl FaultPlan {
    /// No faults at all (useful as a neutral baseline for plan swapping).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The `faultcheck` storm: torn writes, bit flips, transient read
    /// errors, occasional failed writes/deletes, and latency spikes — every
    /// fault class the engine must degrade gracefully under, but no
    /// permanent faults, so all acknowledged data stays reachable.
    pub fn storm() -> Self {
        FaultPlan {
            read_transient: 0.08,
            read_permanent: 0.0,
            write_fail: 0.05,
            torn_write: 0.08,
            bit_flip: 0.04,
            delete_fail: 0.10,
            latency_spike: 0.05,
            latency_spike_ns: 2_000_000,
        }
    }
}

/// Running counters for injected faults, one per fault class.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Transient read errors injected.
    pub read_transient: AtomicU64,
    /// Permanent read errors served (may repeat per address).
    pub read_permanent: AtomicU64,
    /// Atomic write failures injected.
    pub write_fail: AtomicU64,
    /// Torn writes injected.
    pub torn_write: AtomicU64,
    /// Bit flips injected into returned blocks.
    pub bit_flip: AtomicU64,
    /// Delete/sync failures injected.
    pub delete_fail: AtomicU64,
    /// Latency spikes charged.
    pub latency_spike: AtomicU64,
}

impl FaultStats {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.read_transient.load(Ordering::Relaxed)
            + self.read_permanent.load(Ordering::Relaxed)
            + self.write_fail.load(Ordering::Relaxed)
            + self.torn_write.load(Ordering::Relaxed)
            + self.bit_flip.load(Ordering::Relaxed)
            + self.delete_fail.load(Ordering::Relaxed)
            + self.latency_spike.load(Ordering::Relaxed)
    }
}

/// A [`Storage`] decorator that injects deterministic faults per a
/// [`FaultPlan`].
///
/// Wraps any backend, so both `MemStorage` experiments and `FileStorage`
/// crash drills see identical fault semantics. Fault injection can be
/// paused ([`FaultStorage::set_active`]) for setup and verification phases.
pub struct FaultStorage {
    inner: Arc<dyn Storage>,
    seed: u64,
    plan: RwLock<FaultPlan>,
    active: AtomicBool,
    ops: AtomicU64,
    /// Addresses that have served a permanent fault, for reporting.
    permanent_bad: RwLock<HashSet<(FileId, u32)>>,
    stats: FaultStats,
}

impl FaultStorage {
    /// Wraps `inner`, injecting faults per `plan` with draws seeded by
    /// `seed`. Starts active.
    pub fn new(inner: Arc<dyn Storage>, seed: u64, plan: FaultPlan) -> Self {
        FaultStorage {
            inner,
            seed,
            plan: RwLock::new(plan),
            active: AtomicBool::new(true),
            ops: AtomicU64::new(0),
            permanent_bad: RwLock::new(HashSet::new()),
            stats: FaultStats::default(),
        }
    }

    /// Enables or disables injection without touching the plan. The op
    /// counter keeps advancing only on faulted paths, so pausing is free.
    pub fn set_active(&self, active: bool) {
        self.active.store(active, Ordering::SeqCst);
    }

    /// Whether injection is currently active.
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::SeqCst)
    }

    /// Replaces the fault plan (e.g. to escalate a storm mid-run).
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.write() = plan;
    }

    /// Injected-fault counters.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &Arc<dyn Storage> {
        &self.inner
    }

    /// Addresses that have served a permanent read fault so far.
    pub fn permanent_bad(&self) -> Vec<(FileId, u32)> {
        let mut v: Vec<_> = self.permanent_bad.read().iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// One fault draw: uniform in `[0,1)` from `(seed, op, salt)`.
    fn roll(&self, op: u64, salt: u64) -> f64 {
        u01(splitmix64(self.seed ^ splitmix64(op ^ (salt << 56))))
    }

    /// Permanent faults are addressed by `(file, block)`, not by op, so
    /// they persist across retries and reopens of the same device.
    fn address_is_permanent_bad(&self, p: f64, id: FileId, block_no: u32) -> bool {
        if p <= 0.0 {
            return false;
        }
        let h = splitmix64(
            self.seed ^ splitmix64(id ^ ((block_no as u64) << 32) ^ (SALT_READ_PERMANENT << 56)),
        );
        u01(h) < p
    }

    /// A finished table reaching the device: fails, tears or completes by
    /// the plan's draws.
    fn write_whole(&self, id: FileId, blocks: Vec<Bytes>, meta: Bytes) -> Result<()> {
        if !self.is_active() {
            return write_table(self.inner.as_ref(), id, &blocks, meta);
        }
        let plan = self.plan.read().clone();
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        if self.roll(op, SALT_WRITE_FAIL) < plan.write_fail {
            self.stats.write_fail.fetch_add(1, Ordering::Relaxed);
            return Err(LsmError::Injected(format!(
                "write failure: table {id} not persisted"
            )));
        }
        if self.roll(op, SALT_TORN_WRITE) < plan.torn_write {
            // Persist a strict prefix of the blocks and drop the metadata:
            // the device lost power mid-append. The caller sees an error and
            // must not reference the table; the partial file is an orphan.
            let keep = if blocks.is_empty() {
                0
            } else {
                (splitmix64(self.seed ^ splitmix64(op ^ (SALT_TORN_LEN << 56)))
                    % blocks.len() as u64) as usize
            };
            let total = blocks.len();
            self.stats.torn_write.fetch_add(1, Ordering::Relaxed);
            write_table(self.inner.as_ref(), id, &blocks[..keep], Bytes::new())?;
            return Err(LsmError::Injected(format!(
                "torn write: table {id} persisted {keep}/{total} blocks"
            )));
        }
        write_table(self.inner.as_ref(), id, &blocks, meta)
    }
}

impl Storage for FaultStorage {
    /// Buffers the table's blocks, so that the write-fail and torn-write
    /// decisions are made for the whole table at `finish`, as one draw on
    /// the op counter, whatever the inner device does with a stream.
    fn create_table(&self, id: FileId) -> Result<Box<dyn TableSink + '_>> {
        Ok(collecting_sink(move |blocks, meta| {
            self.write_whole(id, blocks, meta)
        }))
    }

    fn read_block(&self, id: FileId, block_no: u32) -> Result<Bytes> {
        if !self.is_active() {
            return self.inner.read_block(id, block_no);
        }
        let plan = self.plan.read().clone();
        if self.address_is_permanent_bad(plan.read_permanent, id, block_no) {
            self.permanent_bad.write().insert((id, block_no));
            self.stats.read_permanent.fetch_add(1, Ordering::Relaxed);
            return Err(LsmError::Injected(format!(
                "permanent read fault: table {id} block {block_no}"
            )));
        }
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        if self.roll(op, SALT_READ_TRANSIENT) < plan.read_transient {
            self.stats.read_transient.fetch_add(1, Ordering::Relaxed);
            return Err(LsmError::Injected(format!(
                "transient read fault: table {id} block {block_no}"
            )));
        }
        if self.roll(op, SALT_LATENCY) < plan.latency_spike {
            self.stats.latency_spike.fetch_add(1, Ordering::Relaxed);
            self.inner
                .stats()
                .simulated_ns
                .fetch_add(plan.latency_spike_ns, Ordering::Relaxed);
        }
        let data = self.inner.read_block(id, block_no)?;
        if self.roll(op, SALT_BIT_FLIP) < plan.bit_flip && !data.is_empty() {
            let pos = (splitmix64(self.seed ^ splitmix64(op ^ (SALT_FLIP_POS << 56)))
                % data.len() as u64) as usize;
            let mut corrupted = data.to_vec();
            corrupted[pos] ^= 0x40;
            self.stats.bit_flip.fetch_add(1, Ordering::Relaxed);
            return Ok(Bytes::from(corrupted));
        }
        Ok(data)
    }

    fn read_meta(&self, id: FileId) -> Result<Bytes> {
        self.inner.read_meta(id)
    }

    fn delete_table(&self, id: FileId) -> Result<()> {
        if self.is_active() {
            let plan = self.plan.read().clone();
            let op = self.ops.fetch_add(1, Ordering::Relaxed);
            if self.roll(op, SALT_DELETE_FAIL) < plan.delete_fail {
                self.stats.delete_fail.fetch_add(1, Ordering::Relaxed);
                return Err(LsmError::Injected(format!(
                    "delete/sync failure: table {id} left behind"
                )));
            }
        }
        self.inner.delete_table(id)
    }

    fn sync_table(&self, id: FileId) -> Result<()> {
        self.inner.sync_table(id)
    }

    fn sync_dir(&self) -> Result<()> {
        self.inner.sync_dir()
    }

    fn list_tables(&self) -> Result<Vec<FileId>> {
        self.inner.list_tables()
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }

    fn blocks_are_the_store(&self) -> bool {
        self.inner.blocks_are_the_store()
    }

    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }
}

/// Crash-consistency seams where the engine volunteers to "die".
///
/// Each point sits between two durability steps whose ordering carries a
/// recovery guarantee; firing there exercises the reopen path with exactly
/// one step persisted and the next one lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Flush: after the L0 SST is on the device, before the version /
    /// manifest reference it. The SST becomes an orphan; the WAL still
    /// covers every record.
    FlushAfterSst,
    /// Inside any manifest commit, before the new manifest is written. The
    /// previous manifest stays authoritative.
    BeforeManifestCommit,
    /// Flush: after the manifest references the new L0 table, before the
    /// WAL is reset. Replay re-applies records already in the table —
    /// recovery must stay idempotent.
    FlushAfterManifest,
    /// Flush: after a flushed WAL segment is renamed to a spare, before
    /// the rename is made durable. The crash keeps or loses the rename;
    /// the manifest's commit must already be durable, and the segment
    /// whole.
    FlushAfterSpareRename,
    /// Flush: after the WAL reset — the fully-committed end state.
    FlushAfterWalReset,
    /// Compaction: after outputs are written and the in-memory version
    /// switched, before the manifest commit. The old manifest still
    /// references the (undeleted) inputs.
    CompactionAfterRun,
    /// Compaction: after the manifest commit, before obsolete inputs are
    /// deleted. Inputs become orphans.
    CompactionAfterManifest,
}

impl CrashPoint {
    /// Stable label, used in the injected error message.
    pub fn label(&self) -> &'static str {
        match self {
            CrashPoint::FlushAfterSst => "flush_after_sst",
            CrashPoint::BeforeManifestCommit => "before_manifest_commit",
            CrashPoint::FlushAfterManifest => "flush_after_manifest",
            CrashPoint::FlushAfterSpareRename => "flush_after_spare_rename",
            CrashPoint::FlushAfterWalReset => "flush_after_wal_reset",
            CrashPoint::CompactionAfterRun => "compaction_after_run",
            CrashPoint::CompactionAfterManifest => "compaction_after_manifest",
        }
    }

    /// Every crash point, for harnesses that pick one pseudo-randomly.
    pub fn all() -> &'static [CrashPoint] {
        &[
            CrashPoint::FlushAfterSst,
            CrashPoint::BeforeManifestCommit,
            CrashPoint::FlushAfterManifest,
            CrashPoint::FlushAfterSpareRename,
            CrashPoint::FlushAfterWalReset,
            CrashPoint::CompactionAfterRun,
            CrashPoint::CompactionAfterManifest,
        ]
    }
}

#[derive(Debug, Clone, Copy)]
struct Armed {
    point: CrashPoint,
    countdown: u64,
}

/// Arms one [`CrashPoint`] to fire on its nth hit.
///
/// When the armed point fires, [`CrashController::check`] returns
/// [`LsmError::Injected`] and the controller disarms. The harness must then
/// treat the engine instance as crashed: stop issuing operations, drop it,
/// and reopen from the durable directory. In-memory state after a fired
/// crash is intentionally unspecified — a real `kill -9` would have taken
/// it too.
#[derive(Debug, Default)]
pub struct CrashController {
    armed: Mutex<Option<Armed>>,
    hits: AtomicU64,
    fired: AtomicBool,
}

impl CrashController {
    /// A disarmed controller.
    pub fn new() -> Arc<Self> {
        Arc::new(CrashController::default())
    }

    /// Arms `point` to fire on its `nth` hit (1-based; `nth == 0` is
    /// treated as 1). Re-arming replaces any previous arming and clears the
    /// fired flag.
    pub fn arm(&self, point: CrashPoint, nth: u64) {
        *self.armed.lock() = Some(Armed {
            point,
            countdown: nth.max(1),
        });
        self.fired.store(false, Ordering::SeqCst);
    }

    /// Disarms without firing.
    pub fn disarm(&self) {
        *self.armed.lock() = None;
    }

    /// Whether the armed point has fired since the last [`Self::arm`].
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// Total crash-point hits observed (any point, armed or not).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Called by the engine at each seam; returns the injected crash error
    /// when the armed point's countdown reaches zero.
    pub fn check(&self, point: CrashPoint) -> Result<()> {
        self.hits.fetch_add(1, Ordering::Relaxed);
        let mut armed = self.armed.lock();
        if let Some(a) = armed.as_mut() {
            if a.point == point {
                a.countdown -= 1;
                if a.countdown == 0 {
                    *armed = None;
                    self.fired.store(true, Ordering::SeqCst);
                    return Err(LsmError::Injected(format!(
                        "crash injected at {}",
                        point.label()
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn blocks(n: usize) -> Vec<Bytes> {
        (0..n)
            .map(|i| Bytes::from(format!("payload-{i}")))
            .collect()
    }

    fn table(storage: &dyn Storage) {
        write_table(storage, 1, &blocks(4), Bytes::from_static(b"meta")).unwrap();
    }

    #[test]
    fn inactive_or_empty_plan_is_transparent() {
        let fs = FaultStorage::new(Arc::new(MemStorage::new()), 7, FaultPlan::none());
        table(&fs);
        for b in 0..4 {
            assert!(fs.read_block(1, b).is_ok());
        }
        let storm = FaultStorage::new(Arc::new(MemStorage::new()), 7, FaultPlan::storm());
        storm.set_active(false);
        table(&storm);
        for _ in 0..100 {
            assert!(storm.read_block(1, 0).is_ok());
        }
        assert_eq!(storm.fault_stats().total(), 0);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = |seed: u64| -> Vec<bool> {
            let fs = FaultStorage::new(
                Arc::new(MemStorage::new()),
                seed,
                FaultPlan {
                    read_transient: 0.5,
                    ..FaultPlan::default()
                },
            );
            table(&fs);
            (0..64).map(|_| fs.read_block(1, 0).is_err()).collect()
        };
        let a = run(42);
        assert_eq!(a, run(42));
        assert_ne!(a, run(43), "different seeds should diverge");
        assert!(a.iter().any(|&e| e) && a.iter().any(|&e| !e));
    }

    #[test]
    fn transient_faults_resolve_on_retry() {
        let fs = FaultStorage::new(
            Arc::new(MemStorage::new()),
            42,
            FaultPlan {
                read_transient: 0.5,
                ..FaultPlan::default()
            },
        );
        table(&fs);
        let mut saw_failure = false;
        for _ in 0..64 {
            let mut attempts = 0;
            loop {
                attempts += 1;
                assert!(attempts < 32, "transient fault never resolved");
                match fs.read_block(1, 0) {
                    Ok(_) => break,
                    Err(LsmError::Injected(_)) => saw_failure = true,
                    Err(e) => panic!("unexpected error {e:?}"),
                }
            }
        }
        assert!(saw_failure);
    }

    #[test]
    fn permanent_faults_are_sticky_per_address() {
        let fs = FaultStorage::new(
            Arc::new(MemStorage::new()),
            9,
            FaultPlan {
                read_permanent: 1.0,
                ..FaultPlan::default()
            },
        );
        table(&fs);
        for _ in 0..4 {
            assert!(matches!(fs.read_block(1, 0), Err(LsmError::Injected(_))));
        }
        assert_eq!(fs.permanent_bad(), vec![(1, 0)]);
        // Pausing injection makes the address readable again — the data was
        // never damaged, only the simulated device path.
        fs.set_active(false);
        assert!(fs.read_block(1, 0).is_ok());
    }

    #[test]
    fn bit_flip_corrupts_copy_not_device() {
        let fs = FaultStorage::new(
            Arc::new(MemStorage::new()),
            5,
            FaultPlan {
                bit_flip: 1.0,
                ..FaultPlan::default()
            },
        );
        table(&fs);
        let corrupted = fs.read_block(1, 0).unwrap();
        fs.set_active(false);
        let clean = fs.read_block(1, 0).unwrap();
        assert_ne!(corrupted, clean);
        assert_eq!(corrupted.len(), clean.len());
        assert_eq!(fs.fault_stats().bit_flip.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn torn_write_persists_strict_prefix() {
        let fs = FaultStorage::new(
            Arc::new(MemStorage::new()),
            11,
            FaultPlan {
                torn_write: 1.0,
                ..FaultPlan::default()
            },
        );
        let err = write_table(&fs, 3, &blocks(4), Bytes::from_static(b"meta")).unwrap_err();
        assert!(matches!(err, LsmError::Injected(_)));
        // The partial table exists but has fewer blocks than requested and
        // no metadata.
        assert_eq!(fs.list_tables().unwrap().len(), 1);
        fs.set_active(false);
        assert!(fs.read_block(3, 3).is_err());
        assert_eq!(fs.read_meta(3).unwrap().len(), 0);
    }

    #[test]
    fn write_fail_persists_nothing() {
        let fs = FaultStorage::new(
            Arc::new(MemStorage::new()),
            13,
            FaultPlan {
                write_fail: 1.0,
                ..FaultPlan::default()
            },
        );
        assert!(write_table(&fs, 3, &blocks(2), Bytes::new()).is_err());
        assert!(fs.list_tables().unwrap().is_empty());
    }

    #[test]
    fn latency_spike_charges_simulated_clock() {
        let fs = FaultStorage::new(
            Arc::new(MemStorage::new()),
            3,
            FaultPlan {
                latency_spike: 1.0,
                latency_spike_ns: 1_000_000,
                ..FaultPlan::default()
            },
        );
        table(&fs);
        let before = fs.stats().simulated_ns();
        fs.read_block(1, 0).unwrap();
        assert!(fs.stats().simulated_ns() >= before + 1_000_000);
        assert_eq!(fs.fault_stats().latency_spike.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn delete_fail_leaves_table_behind() {
        let fs = FaultStorage::new(
            Arc::new(MemStorage::new()),
            17,
            FaultPlan {
                delete_fail: 1.0,
                ..FaultPlan::default()
            },
        );
        table(&fs);
        assert!(fs.delete_table(1).is_err());
        assert_eq!(fs.list_tables().unwrap().len(), 1);
        fs.set_active(false);
        fs.delete_table(1).unwrap();
        assert!(fs.list_tables().unwrap().is_empty());
    }

    #[test]
    fn crash_controller_fires_on_nth_hit() {
        let cc = CrashController::new();
        cc.arm(CrashPoint::FlushAfterSst, 2);
        assert!(cc.check(CrashPoint::FlushAfterSst).is_ok());
        assert!(cc.check(CrashPoint::BeforeManifestCommit).is_ok());
        assert!(!cc.fired());
        assert!(matches!(
            cc.check(CrashPoint::FlushAfterSst),
            Err(LsmError::Injected(_))
        ));
        assert!(cc.fired());
        // Disarmed after firing.
        assert!(cc.check(CrashPoint::FlushAfterSst).is_ok());
        assert_eq!(cc.hits(), 4);
    }
}
