//! The LSM-tree engine facade.
//!
//! [`LsmTree`] wires together the memtable, the level manifest, flushes and
//! compactions into the read/write API the cache layer builds on:
//!
//! - writes land in the memtable; the write that fills it *seals* it, and
//!   one maintenance path flushes the sealed memtable to Level 0 (its SST
//!   built outside the engine lock) and runs any compactions that become
//!   due, on the stripe's pool worker when one is attached and otherwise
//!   on the writer, right after its commit;
//! - point lookups search memtable, then Level-0 runs newest-first, then one
//!   candidate table per deeper level, skipping via Bloom filters;
//! - scans merge the memtable with every overlapping run.
//!
//! All block fetches flow through the caller-supplied [`BlockProvider`] —
//! the seam where AdCache's block cache intercepts — while compactions use a
//! private direct provider so background I/O neither hits nor pollutes the
//! cache.
//!
//! Concurrency follows the paper's Section 4.4: reads share a `RwLock` read
//! guard; writes, seals, flush installs and compactions are exclusive.

use crate::compaction::{run_compaction, CompactionEvent, CompactionListener};
use crate::error::{LsmError, Result};
use crate::fault::{CrashController, CrashPoint};
use crate::fs::{MetaFs, RealFs};
use crate::heap;
use crate::iterator::{MergingIter, Source};
use crate::manifest::{recover_manifest, write_manifest, ManifestState, ManifestSync};
use crate::memtable::MemTable;
use crate::options::{FsyncSite, Options, SyncPolicy, L0_SLOWDOWN_FILES};
use crate::sstable::{table_get, BlockProvider, TableBuilder, TableIter, TableMeta};
use crate::storage::{Storage, SYNC_NS};
use crate::timed_lock::{
    outside_lock_probe, LockPath, TimedReadGuard, TimedRwLock, TimedWriteGuard,
};
use crate::types::{Entry, FileId, Key, Value};
use crate::version::{Version, MAX_LEVELS};
use crate::wal::{replay, zero_fill, WalWriter};
use adcache_obs::{Counter, Event, Obs};
use parking_lot::RwLock;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Backoff charged to the simulated clock before the first query-path read
/// retry; doubles per attempt. Never a real sleep.
const RETRY_BACKOFF_NS: u64 = 50_000;

/// Engine-lock acquisitions that wait longer than this journal a
/// `LockContention` event (when lock timing is enabled via an attached
/// `Obs`); the wait counters accumulate either way.
const LOCK_WAIT_BUDGET_NS: u64 = 1_000_000;

/// The attached observability handle plus the `lsm.*` counters that no
/// [`DbStats`] field keeps, resolved once so event paths never touch the
/// registry lock.
#[derive(Default)]
struct ObsHooks {
    obs: Obs,
    flush_entries: Counter,
    wal_bytes: Counter,
}

impl ObsHooks {
    fn new(obs: Obs) -> Self {
        ObsHooks {
            flush_entries: obs.counter("lsm.flush_entries"),
            wal_bytes: obs.counter("lsm.wal_bytes"),
            obs,
        }
    }
}

/// Engine-level counters (distinct from device I/O counters, which live in
/// [`crate::storage::IoStats`]). The [`Counter`] fields are what
/// [`LsmTree::set_obs`] names in the registry (`lsm.*`), so STATS and
/// METRICS read the same cells.
#[derive(Debug, Default)]
pub struct DbStats {
    /// Memtable flushes performed.
    pub flushes: Counter,
    /// Compactions performed.
    pub compactions: Counter,
    /// Device block reads attributable to compactions. Subtract from the
    /// storage read counter to obtain query-path SST reads.
    pub compaction_block_reads: Counter,
    /// Device block writes attributable to compactions.
    pub compaction_block_writes: Counter,
    /// Times a write observed Level 0 at or beyond the slowdown threshold.
    pub write_slowdowns: AtomicU64,
    /// Device blocks written by memtable flushes (the denominator of write
    /// amplification).
    pub flush_block_writes: AtomicU64,
    /// Query-path block reads retried after a transient error or checksum
    /// failure.
    pub read_retries: AtomicU64,
    /// Blocks quarantined after failing checksum verification even with
    /// retries.
    pub quarantined_blocks: AtomicU64,
    /// Bytes truncated from a torn WAL tail during the last recovery.
    pub wal_torn_tail_bytes: AtomicU64,
    /// WAL records replayed during the last recovery.
    pub wal_replayed_records: AtomicU64,
    /// 1 when the last recovery rolled the manifest back to its previous
    /// good version.
    pub manifest_rollbacks: AtomicU64,
    /// Obsolete-table deletions that failed after compaction (orphan files
    /// left for a future sweep; never a correctness problem).
    pub compaction_delete_failures: AtomicU64,
    /// Orphan table files deleted by the recovery sweep (files present on
    /// the device but absent from the recovered manifest).
    pub orphan_tables_swept: AtomicU64,
    /// Manifest-referenced tables missing or unreadable at recovery, and
    /// dropped because the sync policy permits it (`SyncPolicy::Never`
    /// only; under stronger policies this is a hard error).
    pub missing_tables_dropped: AtomicU64,
    /// Memtables sealed (frozen + WAL segment rotated) for a flush.
    pub seals: Counter,
    /// Writes that stalled because their stripe's sealed memtable was
    /// still in flight and the active one was over its hard budget (or
    /// Level 0 hit the stop threshold).
    pub write_stalls: Counter,
    /// Commit rounds, one per committed batch (each is one WAL push + at
    /// most one fsync).
    pub group_commits: Counter,
}

impl LsmTree {
    /// Write amplification so far: every device block written (flushes plus
    /// compaction rewrites) per block of fresh data flushed. 1.0 means no
    /// rewriting has happened yet; leveled LSM trees typically settle in
    /// the 3–10× range depending on the size ratio and update skew.
    pub fn write_amplification(&self) -> f64 {
        let flushed = self.stats.flush_block_writes.load(Ordering::Relaxed);
        if flushed == 0 {
            return 0.0;
        }
        self.storage.stats().writes() as f64 / flushed as f64
    }
}

/// Spare logs a stripe keeps ready for its seals. A flush recycles its
/// segment while fewer are ready and removes it otherwise; in steady state
/// each seal takes the spare the flush before it left.
const MAX_SPARES: usize = 2;

/// Where (and through which filesystem) the WAL and manifest live.
struct Durability {
    dir: PathBuf,
    fs: Arc<dyn MetaFs>,
    /// Recycled segments whose zeros are durable, for the next seals
    /// ([`LsmTree::recycle`]).
    spares: parking_lot::Mutex<Vec<PathBuf>>,
}

impl Durability {
    /// Sealed segment `seq`'s file.
    fn segment(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("wal-{seq:06}.log"))
    }

    /// The name segment `seq` takes as a spare: replay ignores it, and
    /// recovery removes it.
    fn spare(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("spare-{seq:06}.log"))
    }
}

/// A WAL segment rotated out of the active log by a seal; its records are
/// wholly contained in the sealed (or recovered) memtable and the file is
/// recycled once a flush commits a manifest that covers them.
struct SealedSegment {
    seq: u64,
    bytes: u64,
}

pub(crate) struct Inner {
    mem: MemTable,
    /// A frozen memtable awaiting its flush. Reads check it between `mem`
    /// and Level 0; writers never touch it.
    imm: Option<Arc<MemTable>>,
    version: Version,
    /// Present when durability is enabled; writes are logged before they
    /// enter the memtable and the log rotates at each seal.
    wal: Option<WalWriter>,
    /// Rotated WAL segments covering `imm` (or, right after recovery, the
    /// replayed prefix of `mem`).
    sealed: Vec<SealedSegment>,
    /// Name counter for the next sealed segment file.
    wal_seq: u64,
    /// Footprint at which the active memtable seals: the stripe's phase
    /// ([`first_seal_at`]) until its first seal, `memtable_size` after.
    seal_at: usize,
}

/// A single-writer, multi-reader LSM-tree over a [`Storage`] device.
pub struct LsmTree {
    opts: Options,
    storage: Arc<dyn Storage>,
    inner: TimedRwLock<Inner>,
    listeners: RwLock<Vec<Arc<dyn CompactionListener>>>,
    next_file: AtomicU64,
    stats: DbStats,
    /// WAL + manifest location and filesystem when durability is enabled.
    durability: Option<Durability>,
    /// Observability hooks; disabled (free) unless [`LsmTree::set_obs`] ran.
    obs: RwLock<ObsHooks>,
    /// Armable crash points for recovery tests; `None` in production.
    crash: RwLock<Option<Arc<CrashController>>>,
    /// `(file, block)` addresses that failed checksum verification after
    /// retries. Their cached copies are invalidated and never re-admitted.
    quarantine: RwLock<HashSet<(FileId, u32)>>,
    /// File-id allocation stride: stripes sharing one storage device each
    /// allocate from their own residue class (`id % stride ==
    /// stripe_index`), so ids never collide without coordination.
    id_stride: u64,
    /// Set when a crash point fires inside a background maintenance job:
    /// the process is considered dead and every subsequent operation
    /// errors until the instance is dropped and reopened.
    poisoned: AtomicBool,
    /// Serializes maintenance work (pool worker, writer, explicit flush).
    maintenance: std::sync::Mutex<()>,
    /// Backpressure parking lot: over-budget writers wait here until a
    /// flush or compaction frees room on *this* stripe.
    stall_lock: std::sync::Mutex<()>,
    stall_cv: std::sync::Condvar,
    /// The pool's kick, when a pool runs this tree's maintenance; `None`
    /// runs it on the writer that sealed.
    maintenance_hook: RwLock<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl LsmTree {
    /// Creates an empty tree over `storage` (no durability: nothing
    /// survives a process restart except what the storage backend holds).
    pub fn new(opts: Options, storage: Arc<dyn Storage>) -> Result<Self> {
        opts.validate()
            .map_err(crate::error::LsmError::InvalidArgument)?;
        let (stride, offset) = (opts.stripes.max(1) as u64, opts.stripe_index as u64);
        let inner = Inner {
            mem: MemTable::new(),
            imm: None,
            version: Version::new(MAX_LEVELS),
            wal: None,
            sealed: Vec::new(),
            wal_seq: 0,
            seal_at: first_seal_at(&opts, 0),
        };
        let next_file = first_file_id(stride, offset);
        Ok(Self::assemble(
            opts,
            storage,
            inner,
            next_file,
            DbStats::default(),
            None,
        ))
    }

    /// The tree around its empty or recovered state.
    fn assemble(
        opts: Options,
        storage: Arc<dyn Storage>,
        inner: Inner,
        next_file: u64,
        stats: DbStats,
        durability: Option<Durability>,
    ) -> Self {
        LsmTree {
            storage,
            inner: TimedRwLock::new(inner),
            listeners: RwLock::new(Vec::new()),
            next_file: AtomicU64::new(next_file),
            stats,
            durability,
            obs: RwLock::new(ObsHooks::default()),
            crash: RwLock::new(None),
            quarantine: RwLock::new(HashSet::new()),
            id_stride: opts.stripes.max(1) as u64,
            poisoned: AtomicBool::new(false),
            maintenance: std::sync::Mutex::new(()),
            stall_lock: std::sync::Mutex::new(()),
            stall_cv: std::sync::Condvar::new(),
            maintenance_hook: RwLock::new(None),
            opts,
        }
    }

    /// Opens (or creates) a durable tree: the manifest in `dir` restores
    /// the level structure from `storage`, the WAL replays unflushed
    /// writes into the memtable, and all subsequent writes are logged
    /// before they are applied.
    pub fn with_durability(
        opts: Options,
        storage: Arc<dyn Storage>,
        dir: impl Into<PathBuf>,
    ) -> Result<Self> {
        Self::with_durability_fs(opts, storage, dir, Arc::new(RealFs::new()))
    }

    /// [`LsmTree::with_durability`] over an explicit [`MetaFs`] — the seam
    /// crash drills use to interpose a simulated write-back cache
    /// ([`crate::fs::SimFs`]) under the WAL and manifest.
    pub fn with_durability_fs(
        opts: Options,
        storage: Arc<dyn Storage>,
        dir: impl Into<PathBuf>,
        fs: Arc<dyn MetaFs>,
    ) -> Result<Self> {
        opts.validate()
            .map_err(crate::error::LsmError::InvalidArgument)?;
        let dir = dir.into();
        fs.create_dir_all(&dir)?;

        // Restore the version from the manifest, re-reading pinned table
        // metadata from storage. A corrupt (or mid-commit-missing) manifest
        // rolls back to the previous good version; the WAL replay below
        // still covers everything the lost version added from the memtable.
        let stats = DbStats::default();
        let (manifest_state, rolled_back) =
            match recover_manifest(fs.as_ref(), &dir.join("MANIFEST")) {
                // Without fsyncs a crash can keep a manifest's rename and lose
                // its bytes, with no good backup left behind. The user opted
                // into that loss: reopen with no tables, the WAL on top.
                Err(LsmError::Corruption(_)) if opts.sync == SyncPolicy::Never => (None, true),
                r => r?,
            };
        if rolled_back {
            stats.manifest_rollbacks.store(1, Ordering::Relaxed);
        }
        let mut version = Version::new(MAX_LEVELS);
        let (stride, offset) = (opts.stripes.max(1) as u64, opts.stripe_index as u64);
        let mut next_file = first_file_id(stride, offset);
        let mut live: HashSet<FileId> = HashSet::new();
        if let Some(state) = manifest_state {
            next_file = align_file_id(state.next_file, stride, offset);
            for (level, id) in state.tables {
                let meta = match storage.read_meta(id).and_then(|m| TableMeta::decode(&m)) {
                    Ok(meta) => meta,
                    Err(e) if opts.sync == SyncPolicy::Never => {
                        // Without fsyncs the manifest can legitimately
                        // outlive a table the device cache dropped; the
                        // table's records are lost (the user opted into
                        // that), but recovery must still serve the rest.
                        let _ = e;
                        stats.missing_tables_dropped.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    // Under `always`/`on_flush` a dangling manifest
                    // reference means the engine broke its own fsync
                    // ordering — surface it, never paper over it.
                    Err(e) => return Err(e),
                };
                live.insert(id);
                version.restore_table(level, Arc::new(meta))?;
            }
            version.check_level_invariants()?;
        }

        // Sweep orphans: tables on the device that no recovered manifest
        // references (interrupted flushes and compactions leave them).
        // Deleting them — and bumping the id allocator past everything on
        // the device — prevents a recovered engine from colliding with a
        // leftover file when it re-allocates an id the lost manifest had
        // handed out.
        let mut swept = 0u64;
        for id in storage.list_tables()? {
            if stride > 1 && id % stride != offset {
                // Another stripe's file on the shared device: its manifest
                // shard, not ours, decides whether it lives.
                continue;
            }
            next_file = next_file.max(id + stride);
            if !live.contains(&id) {
                storage.delete_table(id)?;
                swept += 1;
            }
        }
        stats.orphan_tables_swept.store(swept, Ordering::Relaxed);
        if swept > 0 {
            // The deletions must outlive a second crash, or the orphans
            // resurrect after the id allocator was already persisted.
            let _ = storage.sync_dir();
        }

        // Replay unflushed writes: first any sealed WAL segments (rotated
        // by a seal whose background flush never committed its manifest),
        // oldest first, then the active log on top. A torn tail (crash
        // mid-append) was truncated by `replay` and is not an error;
        // mid-log corruption is. Surviving segments are carried in the
        // recovered state so the next flush recycles them. A spare's zeros
        // may not have been durable when the power went, so no spare is
        // reused across a restart: each is removed.
        let wal_path = dir.join("wal.log");
        let mut mem = MemTable::new();
        let mut sealed: Vec<SealedSegment> = Vec::new();
        let mut wal_seq = 0u64;
        let mut replayed = 0u64;
        let mut torn = 0u64;
        let mut segments: Vec<(u64, PathBuf)> = Vec::new();
        for path in fs.list_dir(&dir)? {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let numbered = |prefix| {
                name.strip_prefix(prefix)
                    .and_then(|r| r.strip_suffix(".log"))
                    .and_then(|r| r.parse::<u64>().ok())
            };
            if let Some(seq) = numbered("wal-") {
                segments.push((seq, path));
            } else if numbered("spare-").is_some() {
                fs.remove(&path)?;
            }
        }
        segments.sort_unstable();
        let logs = segments.into_iter().map(|(seq, path)| (Some(seq), path));
        let mut wal_end = 0;
        for (seq, path) in logs.chain([(None, wal_path.clone())]) {
            let outcome = replay(fs.as_ref(), &path)?;
            replayed += outcome.records.len() as u64;
            torn += outcome.torn_tail_bytes;
            for ke in outcome.records {
                match ke.entry {
                    Entry::Put(v) => mem.put(ke.key, v),
                    Entry::Tombstone => mem.delete(ke.key),
                }
            }
            match seq {
                Some(seq) => {
                    wal_seq = seq + 1;
                    sealed.push(SealedSegment {
                        seq,
                        bytes: outcome.end,
                    });
                }
                None => wal_end = outcome.end,
            }
        }
        stats
            .wal_replayed_records
            .store(replayed, Ordering::Relaxed);
        stats.wal_torn_tail_bytes.store(torn, Ordering::Relaxed);
        let sync_at_seal =
            opts.sync != SyncPolicy::Never && opts.misplaced_fsync != Some(FsyncSite::WalReset);
        let wal = WalWriter::open_at(fs.clone(), &wal_path, wal_end, sync_at_seal)?;
        if opts.sync != SyncPolicy::Never {
            // A freshly created WAL is only durable once its directory
            // entry is — without this, a crash before the first manifest
            // commit silently discards the whole log, synced appends and
            // all.
            fs.sync_dir(&dir)?;
            let io = storage.stats();
            io.syncs.fetch_add(1, Ordering::Relaxed);
            io.charge_ns(SYNC_NS);
        }

        let inner = Inner {
            seal_at: first_seal_at(&opts, mem_footprint(&mem)),
            mem,
            imm: None,
            version,
            wal: Some(wal),
            sealed,
            wal_seq,
        };
        let durability = Some(Durability {
            dir,
            fs,
            spares: parking_lot::Mutex::new(Vec::new()),
        });
        Ok(Self::assemble(
            opts, storage, inner, next_file, stats, durability,
        ))
    }

    fn persist_manifest(&self, inner: &Inner) -> Result<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        self.crash_check(CrashPoint::BeforeManifestCommit)?;
        let mut tables = Vec::new();
        for level in 0..inner.version.max_levels() {
            for t in inner.version.level(level) {
                tables.push((level, t.id));
            }
        }
        let state = ManifestState {
            next_file: self.next_file.load(Ordering::Relaxed),
            tables,
        };
        let syncing = self.opts.sync != SyncPolicy::Never;
        let sync = ManifestSync {
            file: syncing,
            dir: syncing && self.opts.misplaced_fsync != Some(FsyncSite::ManifestDir),
        };
        write_manifest(d.fs.as_ref(), &d.dir.join("MANIFEST"), &state, sync)?;
        let syncs = sync.file as u64 + sync.dir as u64;
        if syncs > 0 {
            self.charge_meta_syncs(syncs);
        }
        Ok(())
    }

    /// Charges `n` WAL/manifest fsyncs to the device's simulated clock (the
    /// metadata files bypass the block device but share its platter).
    fn charge_meta_syncs(&self, n: u64) {
        let stats = self.storage.stats();
        stats.syncs.fetch_add(n, Ordering::Relaxed);
        stats.charge_ns(n * SYNC_NS);
    }

    /// Whether the `always` policy requires an fsync after every WAL write
    /// batch (the misplaced-fsync hook deliberately omits it to prove the
    /// crash drills catch the resulting torn acked tail).
    fn wal_sync_per_write(&self) -> bool {
        self.opts.sync == SyncPolicy::Always
            && self.opts.misplaced_fsync != Some(FsyncSite::WalAppend)
    }

    /// Makes a freshly written table durable per the sync policy: fsync the
    /// file, then the device directory so the entry itself survives. Runs
    /// *before* the manifest references the table — the ordering the
    /// manifest commit's own durability depends on.
    fn sync_new_tables(&self, ids: &[FileId]) -> Result<()> {
        if self.durability.is_none() || self.opts.sync == SyncPolicy::Never {
            return Ok(());
        }
        for &id in ids {
            self.storage.sync_table(id)?;
        }
        if self.opts.misplaced_fsync != Some(FsyncSite::SstDir) {
            self.storage.sync_dir()?;
        }
        Ok(())
    }

    /// The engine's options.
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// The underlying storage device (for I/O counters).
    pub fn storage(&self) -> &Arc<dyn Storage> {
        &self.storage
    }

    /// Engine counters.
    pub fn stats(&self) -> &DbStats {
        &self.stats
    }

    /// Registers a compaction observer (e.g. the block cache's invalidator).
    /// Listeners run under the engine write lock and must not re-enter the
    /// engine.
    pub fn add_compaction_listener(&self, l: Arc<dyn CompactionListener>) {
        self.listeners.write().push(l);
    }

    /// Attaches an observability handle. Flushes and compactions emit
    /// journal events through it, and the registry names this tree's
    /// [`DbStats`] counters and lock cells; a disabled handle (the default)
    /// keeps all of that free.
    pub fn set_obs(&self, obs: Obs) {
        let s = &self.stats;
        for (name, cell) in [
            ("lsm.flushes", &s.flushes),
            ("lsm.compactions", &s.compactions),
            ("lsm.compaction_block_reads", &s.compaction_block_reads),
            ("lsm.compaction_block_writes", &s.compaction_block_writes),
            ("lsm.seals", &s.seals),
            ("lsm.write_stalls", &s.write_stalls),
            // Every round commits one batch: one cell, both names.
            ("lsm.group_commit.rounds", &s.group_commits),
            ("lsm.group_commit.batches", &s.group_commits),
        ] {
            obs.adopt_counter(name, cell);
        }
        if self.opts.stripes > 1 {
            // A striped engine's lock cells read under the aggregate
            // `engine.lock.*` names every stripe adds into, and under this
            // stripe's own `engine.stripe.<i>.lock.*`.
            let stripe = format!("engine.stripe.{}.lock", self.opts.stripe_index);
            self.inner
                .attach_obs_prefixes(&obs, &["engine.lock", &stripe]);
        } else {
            self.inner.attach_obs(&obs, "engine.lock");
        }
        *self.obs.write() = ObsHooks::new(obs);
    }

    /// Acquires the engine lock shared, accounting wait/hold to `path` and
    /// journaling a `LockContention` event when the wait blows the budget.
    fn lock_read(&self, path: LockPath) -> TimedReadGuard<'_, Inner> {
        let guard = self.inner.read(path);
        self.note_lock_wait(path, guard.wait_ns());
        guard
    }

    /// Exclusive counterpart of [`lock_read`](Self::lock_read).
    fn lock_write(&self, path: LockPath) -> TimedWriteGuard<'_, Inner> {
        let guard = self.inner.write(path);
        self.note_lock_wait(path, guard.wait_ns());
        guard
    }

    fn note_lock_wait(&self, path: LockPath, wait_ns: u64) {
        // wait_ns is always 0 when lock timing is off, so the disabled
        // path never takes the obs lock here.
        if wait_ns > LOCK_WAIT_BUDGET_NS {
            self.obs.read().obs.emit(|| Event::LockContention {
                path: path.label().to_string(),
                wait_ns,
                budget_ns: LOCK_WAIT_BUDGET_NS,
            });
        }
    }

    /// Installs a [`CrashController`] whose armed [`CrashPoint`] will abort
    /// the matching engine sequence with [`LsmError::Injected`]. After a
    /// crash fires the instance must be dropped and reopened — exactly the
    /// contract of a real process kill.
    pub fn set_crash_controller(&self, cc: Arc<CrashController>) {
        *self.crash.write() = Some(cc);
    }

    fn crash_check(&self, point: CrashPoint) -> Result<()> {
        match self.crash.read().as_ref() {
            Some(cc) => cc.check(point),
            None => Ok(()),
        }
    }

    /// Whether an error class is worth retrying on the read path: injected
    /// or device I/O errors are transient by definition, and a checksum
    /// failure may be a corrupted in-flight copy rather than media damage
    /// (a re-read from the device distinguishes the two).
    fn read_error_is_retryable(e: &LsmError) -> bool {
        matches!(
            e,
            LsmError::Injected(_) | LsmError::Io(_) | LsmError::Corruption(_)
        )
    }

    /// Runs `f` with up to `opts.read_retries` bounded retries, charging an
    /// exponentially growing backoff, from [`RETRY_BACKOFF_NS`], to the
    /// simulated clock between attempts.
    fn with_read_retries<T>(&self, mut f: impl FnMut() -> Result<T>) -> Result<T> {
        let mut backoff = RETRY_BACKOFF_NS;
        let mut attempt = 0u32;
        loop {
            match f() {
                Err(e) if attempt < self.opts.read_retries && Self::read_error_is_retryable(&e) => {
                    attempt += 1;
                    self.stats.read_retries.fetch_add(1, Ordering::Relaxed);
                    self.storage.stats().charge_ns(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                other => return other,
            }
        }
    }

    /// Records a block that failed verification after retries: the address
    /// is quarantined and every cached block of the file is invalidated so
    /// a stale or corrupt copy cannot be served.
    fn note_quarantine(&self, provider: &dyn BlockProvider, file: FileId, block: u32) {
        if self.quarantine.write().insert((file, block)) {
            self.stats
                .quarantined_blocks
                .fetch_add(1, Ordering::Relaxed);
        }
        provider.invalidate_files(&[file]);
    }

    /// Addresses quarantined after failing checksum verification, sorted.
    pub fn quarantined(&self) -> Vec<(FileId, u32)> {
        let mut v: Vec<_> = self.quarantine.read().iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Query-path SST block reads so far: total device reads minus those
    /// attributable to compactions. This is the paper's "SST reads" metric.
    pub fn query_block_reads(&self) -> u64 {
        self.storage
            .stats()
            .reads()
            .saturating_sub(self.stats.compaction_block_reads.get())
    }

    fn alloc_file(&self) -> u64 {
        self.next_file.fetch_add(self.id_stride, Ordering::Relaxed)
    }

    /// Inserts or overwrites `key`.
    pub fn put(&self, key: Key, value: Value) -> Result<()> {
        self.write(vec![(key, Entry::Put(value))], |_| {})
    }

    /// Deletes `key` (writes a tombstone).
    pub fn delete(&self, key: Key) -> Result<()> {
        self.write(vec![(key, Entry::Tombstone)], |_| {})
    }

    /// Applies a batch of writes atomically with respect to readers and to
    /// crash recovery: all records reach the WAL before any reaches the
    /// memtable, and the engine write lock is held across the whole batch
    /// so no reader observes a partial application.
    pub fn write_batch(&self, batch: Vec<(Key, Entry)>) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.write(batch, |_| {})
    }

    /// The write path: the budget gate, the commit (with `then` under its
    /// lock), then the maintenance a seal made due.
    pub(crate) fn write(
        &self,
        batch: Vec<(Key, Entry)>,
        then: impl FnOnce(&[(Key, Entry)]),
    ) -> Result<()> {
        self.wait_for_write_budget()?;
        if self.commit(batch, then)? {
            self.run_maintenance()?;
        }
        Ok(())
    }

    /// Commits one batch under the engine write lock: appends it to the
    /// WAL (one flush, or one fsync under `always`), applies it to the
    /// memtable, runs `then(&batch)` while the lock is still held — so a
    /// cache the caller updates there changes in the same critical section
    /// as the store — and seals the memtable if the batch filled it. `then`
    /// must not call back into the store; the thread's lock probe does not
    /// count its time as hold. A batch that fails before its memtable apply
    /// never reaches `then`. Never parks on backpressure: callers run
    /// [`wait_for_write_budget`](Self::wait_for_write_budget) first.
    ///
    /// Returns whether it sealed the memtable; the caller then owes
    /// [`run_maintenance`](Self::run_maintenance), once it holds no lock.
    pub(crate) fn commit(
        &self,
        batch: Vec<(Key, Entry)>,
        then: impl FnOnce(&[(Key, Entry)]),
    ) -> Result<bool> {
        self.check_poison()?;
        let mut inner = self.lock_write(LockPath::Write);
        if inner.version.level_files(0) >= L0_SLOWDOWN_FILES {
            self.stats.write_slowdowns.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(wal) = inner.wal.as_mut() {
            for (key, entry) in &batch {
                wal.append(key, entry)?;
            }
            if self.wal_sync_per_write() {
                wal.sync()?;
                self.charge_meta_syncs(1);
            } else {
                wal.flush()?;
            }
        }
        for (key, entry) in &batch {
            inner.mem.apply(key, entry.value().map(AsRef::as_ref));
        }
        outside_lock_probe(|| then(&batch));
        self.stats.group_commits.inc();
        // With a seal already in flight the budget gate stalls writers
        // instead.
        if inner.imm.is_some() || mem_footprint(&inner.mem) < inner.seal_at {
            return Ok(false);
        }
        self.seal_locked(&mut inner)?;
        Ok(true)
    }

    /// Backpressure gate: when this stripe's sealed memtable is still in
    /// flight AND the active one blew through its hard budget (2×
    /// `memtable_size`), or Level 0 hit `l0_stop_files`, the writer parks
    /// here until maintenance frees room, or runs it itself when no pool
    /// is attached. Only this stripe's state is consulted — a foreground
    /// write never waits on another stripe's flush.
    pub(crate) fn wait_for_write_budget(&self) -> Result<()> {
        let mut stalled = false;
        loop {
            self.check_poison()?;
            {
                let inner = self.lock_read(LockPath::Write);
                let over = inner.imm.is_some()
                    && (mem_footprint(&inner.mem) >= 2 * self.opts.memtable_size
                        || inner.version.level_files(0) >= self.opts.l0_stop_files);
                if !over {
                    return Ok(());
                }
            }
            if !stalled {
                stalled = true;
                self.stats.write_stalls.inc();
            }
            if self.run_maintenance()? {
                let parked = self.stall_lock.lock().unwrap();
                // The timeout bounds a lost-wakeup race between the check
                // above and parking; correctness never depends on it.
                let _ = self
                    .stall_cv
                    .wait_timeout(parked, std::time::Duration::from_millis(2))
                    .unwrap();
            }
        }
    }

    /// Freezes the memtable for its flush and rotates the active WAL under
    /// it ([`WalWriter::seal_to`], then [`WalWriter::restart`]): the
    /// outgoing segment is fully synced first (policy permitting) so a
    /// later crash can never tear it into a stale prefix that shadows the
    /// SST it becomes, and the renames of the segment and of the next
    /// `wal.log` (a ready spare when there is one) are made durable with a
    /// directory sync before any subsequent write is acked.
    fn seal_locked(&self, inner: &mut Inner) -> Result<()> {
        debug_assert!(inner.imm.is_none());
        debug_assert!(!inner.mem.is_empty());
        if let Some(d) = &self.durability {
            let seq = inner.wal_seq;
            inner.wal_seq += 1;
            let wal = inner.wal.as_mut().expect("durable tree has a WAL");
            let bytes = wal.segment_bytes();
            let synced = wal.seal_to(&d.segment(seq))?;
            // Tracked before the directory sync can fail: the active
            // memtable holds its records either way.
            inner.sealed.push(SealedSegment { seq, bytes });
            if synced {
                self.charge_meta_syncs(1);
            }
            if self.opts.sync == SyncPolicy::Always {
                // The segment holds acked records: its new name must be
                // durable before the next log takes `wal.log`, or a crash
                // that keeps only the second entry change unlinks it.
                d.fs.sync_dir(&d.dir)?;
                self.charge_meta_syncs(1);
            }
            let spare = d.spares.lock().pop();
            wal.restart(spare.as_deref())?;
            if self.opts.sync != SyncPolicy::Never {
                d.fs.sync_dir(&d.dir)?;
                self.charge_meta_syncs(1);
            }
        }
        inner.imm = Some(Arc::new(std::mem::take(&mut inner.mem)));
        inner.seal_at = self.opts.memtable_size;
        self.stats.seals.inc();
        Ok(())
    }

    /// Attaches a pool's kick, which then runs every seal's maintenance in
    /// place of the writer. It is invoked by a writer holding no engine
    /// lock, after a seal or during a stall, so it must only enqueue work —
    /// never call back into the engine.
    pub fn set_maintenance_hook(&self, hook: Arc<dyn Fn() + Send + Sync>) {
        *self.maintenance_hook.write() = Some(hook);
    }

    /// Hands due maintenance to its executor: the pool, when one is
    /// attached (returns `true`: the work is queued), or else this thread,
    /// which runs [`maintain_once`](Self::maintain_once) now.
    pub(crate) fn run_maintenance(&self) -> Result<bool> {
        let hook = self.maintenance_hook.read().clone();
        match hook {
            Some(kick) => {
                kick();
                Ok(true)
            }
            None => self.maintain_once().map(|()| false),
        }
    }

    fn check_poison(&self) -> Result<()> {
        if self.poisoned.load(Ordering::Relaxed) {
            return Err(LsmError::Injected(
                "engine poisoned: a crash point fired in a background worker".into(),
            ));
        }
        Ok(())
    }

    /// Marks the engine dead after a background-worker crash injection:
    /// every subsequent operation fails until the instance is dropped and
    /// reopened — exactly the contract of a real process kill, extended to
    /// threads the foreground cannot observe failing.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Relaxed);
        self.stall_cv.notify_all();
    }

    /// Whether [`LsmTree::poison`] was called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Whether the installed crash controller has fired. Background
    /// workers use this to distinguish an injected process kill (poison
    /// the stripe) from a transient I/O error (retry later).
    pub fn crash_fired(&self) -> bool {
        self.crash.read().as_ref().is_some_and(|c| c.fired())
    }

    /// Whether a sealed memtable is waiting for its background flush.
    pub fn flush_pending(&self) -> bool {
        self.lock_read(LockPath::Read).imm.is_some()
    }

    /// Whether the version currently has a pickable compaction (the
    /// stripe's compaction backlog, as a boolean).
    pub fn compaction_due(&self) -> bool {
        self.lock_read(LockPath::Read)
            .version
            .pick_compaction(&self.opts)
            .is_some()
    }

    /// One round of maintenance: flush the sealed memtable if one is
    /// pending, then run every due compaction. Pool workers, writers that
    /// sealed with no pool attached and [`flush`](Self::flush) all run it,
    /// serialized by the maintenance mutex.
    pub fn maintain_once(&self) -> Result<()> {
        self.check_poison()?;
        let _serial = self.maintenance.lock().unwrap();
        self.flush_imm_once()?;
        while self.maybe_compact_once()? {
            self.stall_cv.notify_all();
        }
        Ok(())
    }

    /// Flushes the sealed memtable to a Level-0 table, if one is pending.
    /// The SST build runs *outside* the engine lock — reads and writes to
    /// this stripe keep flowing — and only the version install takes it.
    /// Callers serialize through the maintenance mutex.
    fn flush_imm_once(&self) -> Result<()> {
        let Some(imm) = self.lock_read(LockPath::Flush).imm.clone() else {
            return Ok(());
        };
        let entries = imm.len() as u64;
        let mut builder = TableBuilder::new(self.alloc_file(), &self.opts, self.storage.as_ref())?;
        for (key, value) in imm.iter() {
            builder.add_value(key, value)?;
        }
        let meta = builder.finish()?;
        let blocks = meta.num_blocks as u64;
        self.sync_new_tables(&[meta.id])?;
        // Crash here: a durable orphan SST; the sealed segments still
        // cover every record — recovery sweeps the orphan, replays them.
        self.crash_check(CrashPoint::FlushAfterSst)?;
        let segments: Vec<SealedSegment> = {
            let mut inner = self.lock_write(LockPath::Flush);
            inner.version.add_l0(meta);
            inner.imm = None;
            self.persist_manifest(&inner)?;
            inner.sealed.drain(..).collect()
        };
        // Counted once installed: a flush whose manifest commit failed is
        // not one.
        self.stats.flushes.inc();
        self.stats
            .flush_block_writes
            .fetch_add(blocks, Ordering::Relaxed);
        {
            let hooks = self.obs.read();
            hooks.flush_entries.add(entries);
            let bytes = blocks * self.opts.block_size as u64;
            hooks.obs.emit(|| Event::Flush { entries, bytes });
        }
        // Crash here: the manifest references the table, the segments are
        // not yet retired — replay re-applies records the table already
        // holds, so recovery must be (and is) idempotent.
        self.crash_check(CrashPoint::FlushAfterManifest)?;
        // Each segment becomes a spare for a later seal (two syncs, no
        // block freed), or is removed when enough are ready. A removal
        // need not be durable: a segment a crash resurrects was synced
        // whole at its seal, so it replays idempotently.
        if let Some(d) = &self.durability {
            for seg in segments {
                if d.spares.lock().len() < MAX_SPARES {
                    let spare = self.recycle(d, seg.seq)?;
                    d.spares.lock().push(spare);
                } else {
                    d.fs.remove(&d.segment(seg.seq))?;
                }
                self.obs.read().wal_bytes.add(seg.bytes);
            }
        }
        self.crash_check(CrashPoint::FlushAfterWalReset)?;
        self.stall_cv.notify_all();
        Ok(())
    }

    /// Turns flushed segment `seq` into a spare log for a later seal, in
    /// this order: rename it to its spare name (which replay ignores), sync
    /// the directory, overwrite the file with zeros in place
    /// ([`zero_fill`]), sync the file. Returns the spare. Frees no disk
    /// block. The two syncs run under every policy: they are what makes
    /// reusing the file safe, not a promise about user data.
    ///
    /// The order is the safety argument. Were the zeros to land before the
    /// rename is durable, a crash could bring the segment back under its
    /// old name half zeroed, and its damaged records would fail the open
    /// or a stale prefix of them shadow the table the segment became. Once
    /// the rename is durable no crash replays the file until a seal renames
    /// it into place as a log, and a seal takes only a spare this returned,
    /// whose zeros are durable.
    fn recycle(&self, d: &Durability, seq: u64) -> Result<PathBuf> {
        let spare = d.spare(seq);
        d.fs.rename(&d.segment(seq), &spare)?;
        // Crash here: the rename is kept or lost, and the segment is what
        // its seal left either way — replayed idempotently, or gone.
        self.crash_check(CrashPoint::FlushAfterSpareRename)?;
        // The misplacement hooks leave syncs out here with the ones they
        // name: `wal_reset` both, as every sync that guards a segment's
        // retirement; `manifest_dir` the directory's, which would make the
        // manifest it left unsynced durable one rename later.
        let hole = self.opts.misplaced_fsync;
        if !matches!(hole, Some(FsyncSite::WalReset | FsyncSite::ManifestDir)) {
            d.fs.sync_dir(&d.dir)?;
            self.charge_meta_syncs(1);
        }
        zero_fill(d.fs.as_ref(), &spare)?;
        if hole != Some(FsyncSite::WalReset) {
            d.fs.sync_file(&spare)?;
            self.charge_meta_syncs(1);
        }
        Ok(spare)
    }

    /// Forces a flush of everything buffered — the sealed memtable if one
    /// is pending, then the active one, sealed here — through the same
    /// [`maintain_once`](Self::maintain_once) the seals use, so it also
    /// runs any compactions that become due.
    pub fn flush(&self) -> Result<()> {
        self.check_poison()?;
        loop {
            // Only one memtable can be sealed at a time, so a pending one
            // (perhaps sealed by a writer since the last round) is flushed
            // before the active one is sealed: never out of write order.
            let last_round = {
                let mut inner = self.lock_write(LockPath::Flush);
                let free = inner.imm.is_none();
                if free && !inner.mem.is_empty() {
                    self.seal_locked(&mut inner)?;
                }
                free
            };
            self.maintain_once()?;
            if last_round {
                return Ok(());
            }
        }
    }

    /// Runs at most one due compaction; returns whether one ran. Exposed for
    /// tests and for experiments that want explicit compaction control.
    pub fn maybe_compact_once(&self) -> Result<bool> {
        self.check_poison()?;
        let mut inner = self.lock_write(LockPath::Compaction);
        let Some(task) = inner.version.pick_compaction(&self.opts) else {
            return Ok(false);
        };
        // The merge edits a copy: the tree names the outputs only once
        // they are synced, so a manifest that a later flush commits never
        // names a table this commit stopped short of syncing.
        let mut version = inner.version.clone();
        let mut alloc = || self.alloc_file();
        let Some(event) = run_compaction(
            &mut version,
            task,
            &self.opts,
            self.storage.as_ref(),
            &mut alloc,
        )?
        else {
            return Ok(false);
        };
        self.note_compaction(&event);
        self.finish_compaction(&mut inner, version, &event)?;
        Ok(true)
    }

    /// Commits a finished compaction: outputs synced, then installed, then
    /// the manifest, then input deletion, so no durable version ever
    /// references a deleted or unsynced table. A crash anywhere in between
    /// leaves orphan files, never dangling references.
    fn finish_compaction(
        &self,
        inner: &mut Inner,
        version: Version,
        event: &CompactionEvent,
    ) -> Result<()> {
        // Crash here: outputs written, old manifest still references the
        // (undeleted) inputs — recovery reopens the pre-compaction version.
        self.crash_check(CrashPoint::CompactionAfterRun)?;
        self.sync_new_tables(&event.new_files)?;
        inner.version = version;
        self.persist_manifest(inner)?;
        // Crash here: new manifest committed, inputs not yet deleted —
        // recovery reopens the post-compaction version plus orphans.
        self.crash_check(CrashPoint::CompactionAfterManifest)?;
        for &id in &event.obsolete_files {
            // A failed delete only strands an orphan file; degrade
            // gracefully instead of failing the write that triggered the
            // compaction.
            if self.storage.delete_table(id).is_err() {
                self.stats
                    .compaction_delete_failures
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    fn note_compaction(&self, event: &CompactionEvent) {
        self.stats.compactions.inc();
        self.stats.compaction_block_reads.add(event.blocks_read);
        self.stats.compaction_block_writes.add(event.blocks_written);
        self.obs.read().obs.emit(|| Event::CompactionFinish {
            from_level: event.from_level as u64,
            to_level: event.to_level as u64,
            blocks_read: event.blocks_read,
            blocks_written: event.blocks_written,
            obsolete_files: event.obsolete_files.len() as u64,
            new_files: event.new_files.len() as u64,
            trivial_move: event.trivial_move,
        });
        for l in self.listeners.read().iter() {
            l.on_compaction(event);
        }
    }

    /// One table probe with bounded retries; a checksum failure that
    /// survives every retry quarantines the block before the error
    /// surfaces.
    fn table_get_hardened(
        &self,
        meta: &TableMeta,
        provider: &dyn BlockProvider,
        key: &[u8],
    ) -> Result<Option<Entry>> {
        let r = self.with_read_retries(|| table_get(meta, provider, self.storage.as_ref(), key));
        if let Err(LsmError::Corruption(_)) = &r {
            let block = meta.block_for_key(key).unwrap_or(0);
            self.note_quarantine(provider, meta.id, block);
        }
        r
    }

    /// Point lookup through `provider`.
    ///
    /// Transient read errors are retried per [`Options::read_retries`];
    /// blocks that fail checksum verification even after a device re-read
    /// are quarantined (and purged from `provider`'s cache) before the
    /// error reaches the caller.
    pub fn get(&self, key: &[u8], provider: &dyn BlockProvider) -> Result<Option<Value>> {
        let inner = self.read_view()?;
        self.get_locked(&inner, key, provider)
    }

    /// The probe sequence of [`get`](Self::get) against an already-locked
    /// version snapshot: memtable → sealed memtable → L0 runs → one
    /// candidate per deeper level.
    pub(crate) fn get_locked(
        &self,
        inner: &Inner,
        key: &[u8],
        provider: &dyn BlockProvider,
    ) -> Result<Option<Value>> {
        match inner.mem.get(key) {
            Some(Entry::Put(v)) => return Ok(Some(v)),
            Some(Entry::Tombstone) => return Ok(None),
            None => {}
        }
        // The sealed memtable (if a background flush is in flight) is the
        // second-newest run.
        if let Some(imm) = &inner.imm {
            match imm.get(key) {
                Some(Entry::Put(v)) => return Ok(Some(v)),
                Some(Entry::Tombstone) => return Ok(None),
                None => {}
            }
        }
        // Level 0, newest run first.
        for meta in inner.version.level(0) {
            if let Some(entry) = self.table_get_hardened(meta, provider, key)? {
                return Ok(entry.value().cloned());
            }
        }
        // One candidate per deeper level.
        for level in 1..inner.version.max_levels() {
            if let Some(meta) = inner.version.table_for_key(level, key) {
                if let Some(entry) = self.table_get_hardened(&meta, provider, key)? {
                    return Ok(entry.value().cloned());
                }
            }
        }
        Ok(None)
    }

    /// Range scan: up to `limit` live entries with keys `>= from`, through
    /// `provider`. The seek phase opens one cursor per overlapping sorted
    /// run (the paper's `(L-1) + r` iterator model).
    pub fn scan(
        &self,
        from: &[u8],
        limit: usize,
        provider: &dyn BlockProvider,
    ) -> Result<Vec<(Key, Value)>> {
        let inner = self.read_view()?;
        let mut merger = MergingIter::new(self.scan_sources(&inner, from, provider)?);
        merger.take_live(limit, provider, self.storage.as_ref())
    }

    /// The poison check plus the engine lock, shared: a view of the tree
    /// that no write can change while it is held.
    pub(crate) fn read_view(&self) -> Result<TimedReadGuard<'_, Inner>> {
        self.check_poison()?;
        Ok(self.lock_read(LockPath::Read))
    }

    /// [`read_view`](Self::read_view) without blocking: `None` while a
    /// writer holds or awaits the engine lock.
    pub(crate) fn try_read_view(&self) -> Result<Option<TimedReadGuard<'_, Inner>>> {
        self.check_poison()?;
        Ok(self.inner.try_read(LockPath::Read))
    }

    /// One ranked cursor per sorted run of `inner` that may hold a key
    /// `>= from`: the memtables, each Level-0 table and each deeper level.
    pub(crate) fn scan_sources<'a>(
        &self,
        inner: &'a Inner,
        from: &[u8],
        provider: &dyn BlockProvider,
    ) -> Result<Vec<(u64, Source<'a>)>> {
        let mut sources: Vec<(u64, Source<'a>)> = Vec::new();
        // Memtable outranks everything; the sealed memtable (if any) is
        // next.
        sources.push((u64::MAX, Source::from_sorted(inner.mem.iter_from(from))));
        if let Some(imm) = &inner.imm {
            sources.push((u64::MAX - 1, Source::from_sorted(imm.iter_from(from))));
        }
        // Level-0 runs: rank by file id (newer flushes have larger ids).
        for meta in inner.version.overlapping(0, from, None) {
            let it = self.with_read_retries(|| {
                TableIter::seek(meta.clone(), provider, self.storage.as_ref(), from)
            })?;
            sources.push((1 + meta.id, Source::Table(it)));
        }
        // Deeper levels: one lazily-opened chain each; shallower is newer.
        let max_levels = inner.version.max_levels();
        for level in 1..max_levels {
            let chain = inner.version.tables_from(level, from);
            if !chain.is_empty() {
                sources.push((
                    (max_levels - level) as u64,
                    Source::level_chain(chain, from),
                ));
            }
        }
        Ok(sources)
    }

    /// `(level, files, bytes)` for every level — the shape of the tree.
    pub fn level_summary(&self) -> Vec<(usize, usize, u64)> {
        let inner = self.lock_read(LockPath::Read);
        (0..inner.version.max_levels())
            .map(|l| {
                (
                    l,
                    inner.version.level_files(l),
                    inner.version.level_bytes(l),
                )
            })
            .collect()
    }

    /// What this tree holds in memory, for the memory ledger: both
    /// memtables, and the index and filter of every live table.
    pub fn memory(&self) -> TreeMemory {
        let inner = self.lock_read(LockPath::Read);
        let mut m = TreeMemory::default();
        for mem in std::iter::once(&inner.mem).chain(inner.imm.as_deref()) {
            m.memtable_charged += mem.approximate_bytes();
            m.memtable_heap += mem.heap_bytes();
            m.memtable_stranded += mem.stranded_bytes();
        }
        for t in inner.version.tables() {
            m.index_bytes += heap::chunk(16 + std::mem::size_of::<TableMeta>())
                + t.index.heap_bytes()
                + heap::arc_bytes(t.smallest.len())
                + heap::arc_bytes(t.largest.len());
            m.bloom_bytes += t.bloom.heap_bytes();
        }
        m
    }

    /// Number of sorted runs (`r` in the paper's reward model).
    pub fn num_runs(&self) -> usize {
        self.lock_read(LockPath::Read).version.num_runs()
    }

    /// Number of non-empty levels (`L` in the paper's reward model).
    pub fn num_levels(&self) -> usize {
        self.lock_read(LockPath::Read).version.num_levels_nonempty()
    }

    /// Entries currently buffered in the memtable(s), sealed one included.
    pub fn memtable_len(&self) -> usize {
        let inner = self.lock_read(LockPath::Read);
        inner.mem.len() + inner.imm.as_ref().map_or(0, |m| m.len())
    }

    /// `(total entries, total blocks)` across all live tables; their ratio
    /// is `B`, the entries-per-block term of the paper's reward model.
    pub fn entries_and_blocks(&self) -> (u64, u64) {
        let inner = self.lock_read(LockPath::Read);
        let mut entries = 0;
        let mut blocks = 0;
        for level in 0..inner.version.max_levels() {
            for t in inner.version.level(level) {
                entries += t.num_entries;
                blocks += t.num_blocks as u64;
            }
        }
        (entries, blocks)
    }
}

/// One stripe's terms of the memory ledger ([`LsmTree::memory`]), in
/// bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeMemory {
    /// What the active and the sealed memtable charge: `key + value + 16`
    /// a key.
    pub memtable_charged: usize,
    /// Heap bytes of both memtables, stranded bytes included.
    pub memtable_heap: usize,
    /// Arena bytes that unequal overwrites stranded (part of
    /// `memtable_heap`).
    pub memtable_stranded: usize,
    /// Block indexes, key bounds and metadata of every live table.
    pub index_bytes: usize,
    /// Bloom filter bits of every live table.
    pub bloom_bytes: usize,
}

/// What the seal and stall checks weigh a memtable at: its charge plus the
/// arena bytes overwrites stranded, so real memory stays bounded by it.
fn mem_footprint(mem: &MemTable) -> usize {
    mem.approximate_bytes() + mem.stranded_bytes()
}

/// Where the first memtable a stripe fills after open seals, so that
/// stripes sharing one stream of writes seal out of phase: for stripe *i*
/// of *n*, the first point of `(i+1)·S/n + k·S` above the `opened` bytes
/// replay left in it (`S` = `memtable_size`). Every later memtable seals
/// at `S`, so the active memtables hold `(n−1)/2` to `(n+1)/2` of `S`
/// together instead of filling in lockstep to `n·S`. A replay already at
/// `S` seals at its first write, and a single stripe at `S`, as before.
fn first_seal_at(opts: &Options, opened: usize) -> usize {
    let s = opts.memtable_size;
    let phase = (opts.stripe_index + 1) * s / opts.stripes.max(1);
    if opened < phase || opened >= s {
        phase
    } else {
        phase + s
    }
}

/// First file id a stripe may allocate: ids stay in the stripe's residue
/// class (`id % stride == stripe_index`) and are never 0, so stripes
/// sharing one storage device never collide without coordination.
fn first_file_id(stride: u64, offset: u64) -> u64 {
    if stride <= 1 {
        1
    } else if offset == 0 {
        stride
    } else {
        offset
    }
}

/// Rounds `id` up into the stripe's residue class (and past 0).
fn align_file_id(mut id: u64, stride: u64, offset: u64) -> u64 {
    if stride <= 1 {
        return id.max(1);
    }
    while id == 0 || id % stride != offset {
        id += 1;
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::DirectProvider;
    use crate::storage::MemStorage;
    use bytes::Bytes;

    fn key(i: usize) -> Bytes {
        Bytes::from(format!("key{i:06}"))
    }

    fn value(i: usize, tag: &str) -> Bytes {
        Bytes::from(format!("value-{tag}-{i}"))
    }

    fn tree() -> LsmTree {
        LsmTree::new(Options::small(), Arc::new(MemStorage::new())).unwrap()
    }

    #[test]
    fn get_from_memtable_and_disk() {
        let db = tree();
        let p = DirectProvider;
        for i in 0..2000 {
            db.put(key(i), value(i, "a")).unwrap();
        }
        // Some data flushed, some still in memtable.
        assert!(db.stats().flushes.get() > 0);
        for i in (0..2000).step_by(97) {
            assert_eq!(
                db.get(&key(i), &p).unwrap().unwrap(),
                value(i, "a"),
                "i={i}"
            );
        }
        assert!(db.get(b"missing", &p).unwrap().is_none());
    }

    #[test]
    fn a_stripe_seals_its_first_memtable_at_its_phase() {
        let at = |stripes, stripe_index, opened| {
            let opts = Options {
                memtable_size: 1000,
                stripes,
                stripe_index,
                ..Options::small()
            };
            first_seal_at(&opts, opened)
        };
        // One stripe seals at the full size from any replay, as ever.
        for opened in [0, 400, 999, 1000, 2500] {
            assert_eq!(at(1, 0, opened), 1000, "opened {opened}");
        }
        // Stripe i of 4: the first point of (i+1)·250 + k·1000 above the
        // replay, and at the first write once the replay is full.
        assert_eq!([0, 1, 2, 3].map(|i| at(4, i, 0)), [250, 500, 750, 1000]);
        assert_eq!([0, 1, 2, 3].map(|i| at(4, i, 600)), [1250, 1500, 750, 1000]);
        assert_eq!(at(4, 1, 500), 1500);
        assert_eq!(at(4, 0, 1000), 250);
    }

    #[test]
    fn overwrites_of_changing_length_seal_the_memtable() {
        // One key rewritten at 1 B and 2 B in turn: the charge stays at
        // ~20 B, but every rewrite strands the old record in the arena.
        // The seal check seals it; with a pool still flushing the last
        // seal, the stall check caps it.
        for background_maintenance in [false, true] {
            let opts = Options {
                background_maintenance,
                ..Options::small()
            };
            // The stall check runs before a write, so one write may land
            // past twice the budget.
            let cap = if background_maintenance {
                2 * opts.memtable_size + 16
            } else {
                opts.memtable_size
            };
            let striped = crate::StripedDb::new(opts, Arc::new(MemStorage::new())).unwrap();
            let db = striped.stripe(0);
            let p = DirectProvider;
            for i in 0..20_000 {
                let v = if i % 2 == 0 { &b"x"[..] } else { &b"yy"[..] };
                db.put(Bytes::from_static(b"hot"), Bytes::copy_from_slice(v))
                    .unwrap();
                let inner = db.lock_read(LockPath::Read);
                assert!(inner.mem.approximate_bytes() <= 3 + 2 + 16);
                assert!(mem_footprint(&inner.mem) < cap, "write {i}");
            }
            striped.flush().unwrap();
            assert!(db.stats().flushes.get() >= 2);
            assert_eq!(db.get(b"hot", &p).unwrap().unwrap().as_ref(), b"yy");
        }
    }

    /// One maintenance path, two executors: the same seeded writes build
    /// the same tree, flush for flush and compaction for compaction,
    /// whether the writer that seals runs the work or a pool does. The
    /// pool is drained after every write, so it keeps the writer's pace.
    #[test]
    fn the_writer_and_a_pool_build_the_same_tree() {
        let build = |background_maintenance: bool| {
            let opts = Options {
                background_maintenance,
                ..Options::small()
            };
            let db = crate::StripedDb::new(opts, Arc::new(MemStorage::new())).unwrap();
            let tree = db.stripe(0);
            let mut x = 42u64;
            for i in 0..30_000 {
                x = crate::fault::splitmix64(x);
                let k = key((x % 6000) as usize);
                match x % 8 {
                    0 => db.delete(k),
                    _ => db.put(k, value(i, "v")),
                }
                .unwrap();
                while tree.flush_pending() || tree.compaction_due() {
                    std::thread::yield_now();
                }
            }
            let inner = tree.lock_read(LockPath::Read);
            let tables: Vec<_> = (0..inner.version.max_levels())
                .flat_map(|level| {
                    inner.version.level(level).iter().map(move |t| {
                        let range = (t.smallest.clone(), t.largest.clone());
                        (level, t.id, range, t.num_entries)
                    })
                })
                .collect();
            let s = tree.stats();
            let counts = [
                s.flushes.get(),
                s.compactions.get(),
                s.flush_block_writes.load(Ordering::Relaxed),
                s.seals.get(),
            ];
            (tables, counts)
        };
        let (inline, pooled) = (build(false), build(true));
        assert!(inline.1[1] > 0, "no compaction ran: {:?}", inline.1);
        assert_eq!(inline, pooled);
    }

    #[test]
    fn overwrites_prefer_newest_across_runs() {
        let db = tree();
        let p = DirectProvider;
        for round in 0..4 {
            for i in 0..800 {
                db.put(key(i), value(i, &format!("r{round}"))).unwrap();
            }
            db.flush().unwrap();
        }
        for i in (0..800).step_by(53) {
            assert_eq!(db.get(&key(i), &p).unwrap().unwrap(), value(i, "r3"));
        }
    }

    #[test]
    fn deletes_shadow_older_versions() {
        let db = tree();
        let p = DirectProvider;
        for i in 0..500 {
            db.put(key(i), value(i, "a")).unwrap();
        }
        db.flush().unwrap();
        for i in (0..500).step_by(2) {
            db.delete(key(i)).unwrap();
        }
        for i in 0..500 {
            let got = db.get(&key(i), &p).unwrap();
            if i % 2 == 0 {
                assert!(got.is_none(), "deleted key {i} resurfaced");
            } else {
                assert_eq!(got.unwrap(), value(i, "a"));
            }
        }
        // Still true after everything reaches disk and compacts.
        db.flush().unwrap();
        while db.maybe_compact_once().unwrap() {}
        for i in 0..500 {
            let got = db.get(&key(i), &p).unwrap();
            if i % 2 == 0 {
                assert!(got.is_none());
            } else {
                assert_eq!(got.unwrap(), value(i, "a"));
            }
        }
    }

    #[test]
    fn scan_merges_all_runs_in_order() {
        let db = tree();
        let p = DirectProvider;
        for i in (0..1000).step_by(2) {
            db.put(key(i), value(i, "even")).unwrap();
        }
        db.flush().unwrap();
        for i in (1..1000).step_by(2) {
            db.put(key(i), value(i, "odd")).unwrap();
        }
        // Mixed memtable + disk.
        let got = db.scan(&key(100), 50, &p).unwrap();
        assert_eq!(got.len(), 50);
        for (j, (k, _)) in got.iter().enumerate() {
            assert_eq!(k, &key(100 + j));
        }
        // Scan past the end.
        let got = db.scan(&key(990), 50, &p).unwrap();
        assert_eq!(got.len(), 10);
        // Scan from before the start.
        let got = db.scan(b"a", 5, &p).unwrap();
        assert_eq!(got[0].0, key(0));
    }

    #[test]
    fn scan_skips_tombstones() {
        let db = tree();
        let p = DirectProvider;
        for i in 0..100 {
            db.put(key(i), value(i, "a")).unwrap();
        }
        db.flush().unwrap();
        db.delete(key(10)).unwrap();
        db.delete(key(11)).unwrap();
        let got = db.scan(&key(9), 4, &p).unwrap();
        let keys: Vec<_> = got.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![key(9), key(12), key(13), key(14)]);
    }

    #[test]
    fn compactions_fire_and_preserve_data() {
        let db = tree();
        let p = DirectProvider;
        for i in 0..20_000 {
            db.put(key(i % 4000), value(i, "x")).unwrap();
        }
        assert!(
            db.stats().compactions.get() > 0,
            "compactions should have run"
        );
        let summary = db.level_summary();
        assert!(
            summary.iter().skip(1).any(|(_, files, _)| *files > 0),
            "deeper levels populated: {summary:?}"
        );
        // All keys readable with the newest value.
        for i in (0..4000).step_by(131) {
            assert!(db.get(&key(i), &p).unwrap().is_some());
        }
        assert!(db.num_runs() >= 1);
        assert!(db.num_levels() >= 1);
    }

    #[test]
    fn compaction_listener_sees_obsolete_files() {
        use std::sync::Mutex;
        struct Rec(Mutex<Vec<CompactionEvent>>);
        impl CompactionListener for Rec {
            fn on_compaction(&self, ev: &CompactionEvent) {
                self.0.lock().unwrap().push(ev.clone());
            }
        }
        let db = tree();
        let rec = Arc::new(Rec(Mutex::new(Vec::new())));
        db.add_compaction_listener(rec.clone());
        for i in 0..20_000 {
            db.put(key(i % 2000), value(i, "x")).unwrap();
        }
        let events = rec.0.lock().unwrap();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| !e.obsolete_files.is_empty()));
    }

    #[test]
    fn query_block_reads_excludes_compaction_io() {
        let db = tree();
        let p = DirectProvider;
        for i in 0..20_000 {
            db.put(key(i % 2000), value(i, "x")).unwrap();
        }
        let total = db.storage().stats().reads();
        let compaction = db.stats().compaction_block_reads.get();
        assert!(compaction > 0);
        // No queries ran yet, so query reads must be zero.
        assert_eq!(db.query_block_reads(), total - compaction);
        assert_eq!(db.query_block_reads(), 0);
        db.get(&key(1), &p).unwrap();
        assert!(db.query_block_reads() > 0);
    }

    #[test]
    fn slowdown_counter_reflects_l0_pressure() {
        // With a huge trigger, L0 accumulates and the slowdown fires.
        let opts = Options {
            l0_compaction_trigger: 100,
            l0_stop_files: 200,
            ..Options::small()
        };
        let db = LsmTree::new(opts, Arc::new(MemStorage::new())).unwrap();
        for i in 0..8000 {
            db.put(key(i), value(i, "x")).unwrap();
        }
        assert!(db.stats().write_slowdowns.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn write_amplification_grows_with_compactions() {
        let db = tree();
        for i in 0..1000 {
            db.put(key(i), value(i, "x")).unwrap();
        }
        db.flush().unwrap();
        let early = db.write_amplification();
        assert!(early >= 1.0, "amp {early}");
        // Repeated overwrites force compaction rewrites.
        for round in 0..10 {
            for i in 0..1000 {
                db.put(key(i), value(round * 1000 + i, "y")).unwrap();
            }
        }
        db.flush().unwrap();
        let late = db.write_amplification();
        assert!(
            late > early,
            "compactions must raise write amp: {early} -> {late}"
        );
        assert!(late < 50.0, "amp implausibly high: {late}");
    }

    #[test]
    fn write_batch_applies_atomically() {
        let db = tree();
        let p = DirectProvider;
        let batch: Vec<(Bytes, Entry)> = (0..100)
            .map(|i| (key(i), Entry::Put(value(i, "batch"))))
            .chain([(key(5), Entry::Tombstone)])
            .collect();
        db.write_batch(batch).unwrap();
        assert_eq!(db.get(&key(0), &p).unwrap().unwrap(), value(0, "batch"));
        assert!(
            db.get(&key(5), &p).unwrap().is_none(),
            "later tombstone wins in-batch"
        );
        assert_eq!(db.get(&key(99), &p).unwrap().unwrap(), value(99, "batch"));
        // Empty batch is a no-op.
        db.write_batch(Vec::new()).unwrap();
        // Large batches trigger flushes like individual writes do.
        let big: Vec<(Bytes, Entry)> = (0..2000)
            .map(|i| (key(i), Entry::Put(value(i, "big"))))
            .collect();
        db.write_batch(big).unwrap();
        assert!(db.stats().flushes.get() > 0);
        assert_eq!(db.get(&key(1999), &p).unwrap().unwrap(), value(1999, "big"));
    }

    #[test]
    fn storage_errors_propagate_not_panic() {
        use crate::fault::{FaultPlan, FaultStorage};
        let fault = Arc::new(FaultStorage::new(
            Arc::new(MemStorage::new()),
            42,
            FaultPlan::none(),
        ));
        let db = LsmTree::new(Options::small(), fault.clone()).unwrap();
        let p = DirectProvider;
        for i in 0..3000 {
            db.put(key(i), value(i, "x")).unwrap();
        }
        db.flush().unwrap();
        // Every read (including each bounded retry) fails.
        fault.set_plan(FaultPlan {
            read_transient: 1.0,
            ..FaultPlan::default()
        });
        let mut saw_error = false;
        for i in 0..3000 {
            if db.get(&key(i), &p).is_err() {
                saw_error = true;
                break;
            }
        }
        assert!(saw_error, "injected failure must surface as Err");
        assert!(
            db.stats().read_retries.load(Ordering::Relaxed) > 0,
            "the bounded retry path must have engaged first"
        );
        // Engine still usable once the device recovers.
        fault.set_active(false);
        assert!(db.get(&key(1), &p).is_ok());
    }

    #[test]
    fn transient_faults_are_absorbed_by_retries() {
        use crate::fault::{FaultPlan, FaultStorage};
        let fault = Arc::new(FaultStorage::new(
            Arc::new(MemStorage::new()),
            7,
            FaultPlan::none(),
        ));
        let opts = Options {
            read_retries: 6,
            ..Options::small()
        };
        let db = LsmTree::new(opts, fault.clone()).unwrap();
        let p = DirectProvider;
        for i in 0..2000 {
            db.put(key(i), value(i, "x")).unwrap();
        }
        db.flush().unwrap();
        // Deterministic for the fixed seed: every read either succeeds
        // outright or within the retry budget.
        fault.set_plan(FaultPlan {
            read_transient: 0.3,
            ..FaultPlan::default()
        });
        for i in (0..2000).step_by(37) {
            assert_eq!(db.get(&key(i), &p).unwrap().unwrap(), value(i, "x"));
        }
        assert!(db.stats().read_retries.load(Ordering::Relaxed) > 0);
        // Backoff was charged to the simulated clock.
        let ns = db.storage().stats().simulated_ns();
        assert!(ns > 0);
    }

    #[test]
    fn corrupt_block_is_quarantined_and_engine_serves_on() {
        use crate::fault::{FaultPlan, FaultStorage};
        let fault = Arc::new(FaultStorage::new(
            Arc::new(MemStorage::new()),
            3,
            FaultPlan::none(),
        ));
        let db = LsmTree::new(Options::small(), fault.clone()).unwrap();
        let p = DirectProvider;
        for i in 0..2000 {
            db.put(key(i), value(i, "x")).unwrap();
        }
        db.flush().unwrap();
        // Every read comes back bit-flipped, so checksum verification fails
        // on every retry and the block must be quarantined.
        fault.set_plan(FaultPlan {
            bit_flip: 1.0,
            ..FaultPlan::default()
        });
        let err = db.get(&key(10), &p).unwrap_err();
        assert!(matches!(err, LsmError::Corruption(_)), "got {err:?}");
        assert_eq!(db.quarantined().len(), 1);
        assert_eq!(db.stats().quarantined_blocks.load(Ordering::Relaxed), 1);
        // Device recovers: the same address serves again (quarantine marks
        // history, it does not fence reads — the cache was purged instead).
        fault.set_active(false);
        assert_eq!(db.get(&key(10), &p).unwrap().unwrap(), value(10, "x"));
    }

    #[test]
    fn a_flush_is_counted_once_its_manifest_is_committed() {
        use crate::fault::{CrashController, CrashPoint};
        let db = LsmTree::with_durability_fs(
            Options::small(),
            Arc::new(MemStorage::new()),
            "/flush-count",
            Arc::new(crate::fs::SimFs::new()),
        )
        .unwrap();
        let cc = CrashController::new();
        db.set_crash_controller(cc.clone());
        let flushes = || db.stats().flushes.get();
        db.put(key(0), value(0, "x")).unwrap();
        db.flush().unwrap();
        assert_eq!(flushes(), 1);
        // The table gets built, then the manifest commit fails.
        cc.arm(CrashPoint::BeforeManifestCommit, 1);
        db.put(key(1), value(1, "x")).unwrap();
        assert!(db.flush().is_err());
        assert_eq!(flushes(), 1, "a flush that was never installed");
        db.put(key(2), value(2, "x")).unwrap();
        db.flush().unwrap();
        assert_eq!(flushes(), 2, "the next installed flush adds exactly one");
        for i in 0..3 {
            assert_eq!(
                db.get(&key(i), &DirectProvider).unwrap().unwrap(),
                value(i, "x")
            );
        }
    }

    #[test]
    fn crash_points_abort_flush_and_recovery_reopens() {
        use crate::fault::{CrashController, CrashPoint};
        let dir = std::env::temp_dir().join(format!("adcache-db-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sst = dir.join("sst");
        let wal_dir = dir.join("meta");
        {
            let storage = Arc::new(crate::storage::FileStorage::open(&sst).unwrap());
            let db = LsmTree::with_durability(Options::small(), storage, &wal_dir).unwrap();
            let cc = CrashController::new();
            db.set_crash_controller(cc.clone());
            cc.arm(CrashPoint::FlushAfterSst, 1);
            for i in 0..5000 {
                if db.put(key(i), value(i, "x")).is_err() {
                    break;
                }
            }
            assert!(cc.fired(), "a flush must have hit the armed crash point");
        }
        // Reopen: the WAL still covers everything the aborted flush lost.
        let storage = Arc::new(crate::storage::FileStorage::open(&sst).unwrap());
        let db = LsmTree::with_durability(Options::small(), storage, &wal_dir).unwrap();
        let p = DirectProvider;
        assert_eq!(db.get(&key(0), &p).unwrap().unwrap(), value(0, "x"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
