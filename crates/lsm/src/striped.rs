//! Keyspace-striped engine router with a background maintenance pool.
//!
//! [`StripedDb`] shards the keyspace into N independent [`LsmTree`] stripes
//! (hash of key → stripe), each with its own memtable, WAL segment set,
//! Level-0..L stack and manifest shard, all over one shared storage device.
//! File ids never collide because each stripe allocates from its own
//! residue class (`id % stripes == stripe_index`).
//!
//! With [`Options::background_maintenance`] on, the router attaches a
//! small worker pool, and a seal hands its flush and compactions to it
//! through a per-stripe queue instead of running them on the writer: a
//! foreground `put` on stripe B never waits on stripe A's flush, and a
//! writer stalls only when its *own* stripe's sealed memtable is still in
//! flight and the active one has blown its hard budget.
//!
//! Every operation has a `_then` form whose callback runs before the
//! stripe's lock drops: a write's under the write lock that applied it,
//! a point read's under the read lock it read with. A cache the caller
//! changes there changes in the same critical section as the store, so a
//! key's cached state only ever moves while its stripe's lock is held.
//!
//! A scan is one instant of the whole store. It holds every stripe's read
//! lock at once and merges all their sorted runs in one [`MergingIter`];
//! no write can commit on any stripe until the merge (and the caller's
//! fill, [`StripedDb::scan_then`]) is done. It never waits for a stripe
//! while holding another: a busy stripe makes it drop what it holds and
//! wait for that stripe alone, so one stripe's compaction cannot stall
//! puts on the others through a scan. A `write_batch` that spans stripes
//! waits out each stripe's backpressure first, then holds the batch gate
//! exclusively while it commits; scans hold the gate shared, so a scan
//! sees such a batch whole or not at all.
//!
//! Lock order: the batch gate, then stripe locks, then whatever the
//! callbacks take (the caller's tenant registry, then its cache locks). A
//! scan waits for at most one stripe lock and only while it holds no
//! other; a writer or point read holds at most one stripe lock at a time;
//! maintenance never takes the gate; and a callback never calls back into
//! the store. So no cycle can form.

use crate::compaction::CompactionListener;
use crate::db::{DbStats, Inner, LsmTree};
use crate::error::Result;
use crate::fault::CrashController;
use crate::fs::{MetaFs, RealFs};
use crate::iterator::MergingIter;
use crate::options::Options;
use crate::sstable::BlockProvider;
use crate::storage::Storage;
use crate::timed_lock::{outside_lock_probe, TimedReadGuard};
use crate::types::{Entry, FileId, Key, Value};
use crate::version::MAX_LEVELS;
use adcache_obs::{Gauge, Obs};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// FNV-1a over the key — stable across runs and platforms, so a reopened
/// store routes every key to the stripe that owns its data.
fn stripe_of(key: &[u8], stripes: usize) -> usize {
    if stripes <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % stripes as u64) as usize
}

/// Shared state of the background maintenance pool: a dedup'd per-stripe
/// work queue (a stripe is enqueued at most once; workers re-enqueue it
/// themselves if more work remains). A stripe whose last round failed with
/// a non-crash error sits in `delayed` until its backoff deadline — kicks
/// during that window are absorbed, so a persistent I/O failure (disk
/// full) retries on a bounded schedule instead of spinning a worker at
/// 100% CPU and minting a partial SST per iteration.
struct PoolState {
    queue: VecDeque<usize>,
    scheduled: Vec<bool>,
    /// Backoff deadline per stripe; `Some` suppresses kicks until then.
    delayed: Vec<Option<std::time::Instant>>,
    shutdown: bool,
}

struct Pool {
    state: Mutex<PoolState>,
    cv: Condvar,
    /// Consecutive failed maintenance rounds per stripe (backoff exponent).
    err_streak: Vec<AtomicU64>,
}

impl Pool {
    fn new(stripes: usize) -> Self {
        Pool {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                scheduled: vec![false; stripes],
                delayed: vec![None; stripes],
                shutdown: false,
            }),
            cv: Condvar::new(),
            err_streak: (0..stripes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn kick(&self, stripe: usize) {
        let mut st = self.state.lock().unwrap();
        if !st.shutdown && !st.scheduled[stripe] && st.delayed[stripe].is_none() {
            st.scheduled[stripe] = true;
            st.queue.push_back(stripe);
            self.cv.notify_one();
        }
    }

    /// Schedules `stripe` no earlier than `deadline`, superseding any
    /// immediate enqueue. Used by workers after a failed round.
    fn kick_after(&self, stripe: usize, deadline: std::time::Instant) {
        let mut st = self.state.lock().unwrap();
        if st.shutdown {
            return;
        }
        if st.scheduled[stripe] {
            st.queue.retain(|&s| s != stripe);
            st.scheduled[stripe] = false;
        }
        st.delayed[stripe] = Some(st.delayed[stripe].map_or(deadline, |d| d.max(deadline)));
        // Wake a waiter so it recomputes its sleep against the new deadline.
        self.cv.notify_one();
    }

    /// Blocks for the next stripe to maintain; `None` means shut down.
    fn next(&self) -> Option<usize> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(stripe) = st.queue.pop_front() {
                st.scheduled[stripe] = false;
                return Some(stripe);
            }
            if st.shutdown {
                return None;
            }
            // Promote delayed stripes whose deadline has passed; sleep
            // until the nearest remaining one (or a notify) otherwise.
            let now = std::time::Instant::now();
            let mut nearest: Option<std::time::Instant> = None;
            let due: Vec<usize> = st
                .delayed
                .iter()
                .enumerate()
                .filter_map(|(i, d)| match d {
                    Some(dl) if *dl <= now => Some(i),
                    Some(dl) => {
                        nearest = Some(nearest.map_or(*dl, |n| n.min(*dl)));
                        None
                    }
                    None => None,
                })
                .collect();
            for i in due {
                st.delayed[i] = None;
                st.scheduled[i] = true;
                st.queue.push_back(i);
            }
            if !st.queue.is_empty() {
                continue;
            }
            st = match nearest {
                Some(dl) => self.cv.wait_timeout(st, dl - now).unwrap().0,
                None => self.cv.wait(st).unwrap(),
            };
        }
    }

    fn depth(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }
}

/// Per-stripe telemetry gauges, installed by [`StripedDb::set_obs`].
#[derive(Default)]
struct StripeGauges {
    flush_queue_depth: Gauge,
    compaction_backlog: Gauge,
}

/// The striped engine router. Mirrors the [`LsmTree`] surface the engine
/// layer uses (get/put/delete/write_batch/scan/flush/stats/…), routing each
/// key to its stripe and aggregating across stripes where the answer is
/// global.
pub struct StripedDb {
    stripes: Vec<Arc<LsmTree>>,
    storage: Arc<dyn Storage>,
    opts: Options,
    /// Held exclusively by a `write_batch` that spans stripes, shared by
    /// scans: a scan never sees part of such a batch.
    batch_gate: parking_lot::RwLock<()>,
    pool: Option<Arc<Pool>>,
    workers: Vec<JoinHandle<()>>,
    gauges: Arc<parking_lot::RwLock<Vec<StripeGauges>>>,
}

impl StripedDb {
    /// Builds a non-durable striped engine over `storage` (see
    /// [`LsmTree::new`]). `opts.stripes` controls the stripe count;
    /// `opts.stripe_index` is ignored (each stripe gets its own).
    pub fn new(opts: Options, storage: Arc<dyn Storage>) -> Result<Self> {
        Self::build(opts, storage, None, None)
    }

    /// Durable striped engine: stripe `i` keeps its WAL segments and
    /// manifest shard under `dir/stripe-<i>` (plain `dir` when
    /// `stripes == 1`, so existing single-stripe layouts keep working).
    pub fn with_durability(
        opts: Options,
        storage: Arc<dyn Storage>,
        dir: impl Into<PathBuf>,
    ) -> Result<Self> {
        Self::build(
            opts,
            storage,
            Some(dir.into()),
            Some(Arc::new(RealFs::new())),
        )
    }

    /// [`StripedDb::with_durability`] over an explicit [`MetaFs`] — the
    /// seam crash drills use to interpose a simulated write-back cache
    /// under every stripe's WAL and manifest.
    pub fn with_durability_fs(
        opts: Options,
        storage: Arc<dyn Storage>,
        dir: impl Into<PathBuf>,
        fs: Arc<dyn MetaFs>,
    ) -> Result<Self> {
        Self::build(opts, storage, Some(dir.into()), Some(fs))
    }

    fn build(
        opts: Options,
        storage: Arc<dyn Storage>,
        dir: Option<PathBuf>,
        fs: Option<Arc<dyn MetaFs>>,
    ) -> Result<Self> {
        opts.validate()
            .map_err(crate::error::LsmError::InvalidArgument)?;
        let n = opts.stripes.max(1);
        let mut stripes = Vec::with_capacity(n);
        for i in 0..n {
            let mut o = opts.clone();
            o.stripe_index = i;
            let tree = match (&dir, &fs) {
                (Some(dir), Some(fs)) => {
                    let stripe_dir = if n == 1 {
                        dir.clone()
                    } else {
                        dir.join(format!("stripe-{i}"))
                    };
                    LsmTree::with_durability_fs(o, storage.clone(), stripe_dir, fs.clone())?
                }
                _ => LsmTree::new(o, storage.clone())?,
            };
            stripes.push(Arc::new(tree));
        }
        let gauges = Arc::new(parking_lot::RwLock::new(
            (0..n).map(|_| StripeGauges::default()).collect::<Vec<_>>(),
        ));
        let mut db = StripedDb {
            stripes,
            storage,
            opts,
            batch_gate: parking_lot::RwLock::new(()),
            pool: None,
            workers: Vec::new(),
            gauges,
        };
        if db.opts.background_maintenance {
            db.spawn_pool();
        }
        Ok(db)
    }

    /// Starts the worker pool and wires each stripe's maintenance hook to
    /// its queue. Workers poison a stripe whose background job trips a
    /// crash point — the foreground then fails exactly as if the process
    /// had died — and otherwise leave transient errors for the next kick.
    fn spawn_pool(&mut self) {
        let n = self.stripes.len();
        let pool = Arc::new(Pool::new(n));
        for (i, tree) in self.stripes.iter().enumerate() {
            let p = pool.clone();
            tree.set_maintenance_hook(Arc::new(move || p.kick(i)));
        }
        // One worker per stripe up to the machine's parallelism: extra
        // threads on a small box only add context switches, never overlap.
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        let workers = n.min(cores).clamp(1, 8);
        for _ in 0..workers {
            let p = pool.clone();
            let trees = self.stripes.clone();
            let gauges = self.gauges.clone();
            self.workers.push(std::thread::spawn(move || {
                while let Some(stripe) = p.next() {
                    let tree = &trees[stripe];
                    let mut failed = false;
                    match tree.maintain_once() {
                        Ok(_) => {
                            p.err_streak[stripe].store(0, Ordering::Relaxed);
                        }
                        Err(_) if tree.crash_fired() => tree.poison(),
                        // Transient (e.g. injected) error: the imm is still
                        // sealed; retry below, with backoff.
                        Err(_) => failed = true,
                    }
                    // Work can arrive while a round runs; re-enqueue until
                    // the stripe is clean. A failed round re-enqueues on an
                    // exponential backoff (1 ms doubling to ~512 ms) so a
                    // persistent error — disk full, say — cannot spin this
                    // worker, and each retry's fresh file id / partial SST
                    // is minted at a bounded rate.
                    if !tree.is_poisoned() && (tree.flush_pending() || tree.compaction_due()) {
                        if failed {
                            let streak = p.err_streak[stripe].fetch_add(1, Ordering::Relaxed);
                            let delay = std::time::Duration::from_millis(1 << streak.min(9));
                            p.kick_after(stripe, std::time::Instant::now() + delay);
                        } else {
                            p.kick(stripe);
                        }
                    }
                    let g = gauges.read();
                    g[stripe].flush_queue_depth.set(tree.flush_pending() as i64);
                    g[stripe]
                        .compaction_backlog
                        .set(tree.compaction_due() as i64);
                }
            }));
        }
        self.pool = Some(pool);
    }

    /// The stripe that owns `key`.
    pub fn stripe_for(&self, key: &[u8]) -> usize {
        stripe_of(key, self.stripes.len())
    }

    /// Number of stripes.
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Direct handle to stripe `i` (drills and tests).
    pub fn stripe(&self, i: usize) -> &Arc<LsmTree> {
        &self.stripes[i]
    }

    /// The shared storage device.
    pub fn storage(&self) -> &Arc<dyn Storage> {
        &self.storage
    }

    /// The router's options (stripe 0's view; `stripe_index` is 0).
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// Inserts or overwrites `key` on its stripe.
    pub fn put(&self, key: Key, value: Value) -> Result<()> {
        self.put_then(key, value, |_| {})
    }

    /// [`put`](Self::put), then `then(&[(key, Entry::Put(value))])` under
    /// the stripe's write lock, right after the memtable took the write.
    /// `then` must not call back into the store.
    pub fn put_then(
        &self,
        key: Key,
        value: Value,
        then: impl FnOnce(&[(Key, Entry)]),
    ) -> Result<()> {
        let stripe = &self.stripes[self.stripe_for(&key)];
        stripe.write(vec![(key, Entry::Put(value))], then)
    }

    /// Deletes `key` (tombstone) on its stripe.
    pub fn delete(&self, key: Key) -> Result<()> {
        self.delete_then(key, |_| {})
    }

    /// [`delete`](Self::delete) with `then` run as in
    /// [`put_then`](Self::put_then).
    pub fn delete_then(&self, key: Key, then: impl FnOnce(&[(Key, Entry)])) -> Result<()> {
        let stripe = &self.stripes[self.stripe_for(&key)];
        stripe.write(vec![(key, Entry::Tombstone)], then)
    }

    /// Applies a batch, grouped per stripe. Atomicity holds within each
    /// stripe (single WAL push under one lock); a crash between stripe
    /// sub-batches can persist one stripe's half without another's — the
    /// cross-stripe contract is documented, not hidden. A batch that spans
    /// stripes holds the batch gate exclusively, so a scan sees it whole
    /// or not at all. It waits out each stripe's write budget before it
    /// takes the gate, so scans never wait for a stall; a stripe that
    /// crosses its budget in between takes the batch anyway. The flushes
    /// its seals make due run after the gate drops.
    pub fn write_batch(&self, batch: Vec<(Key, Entry)>) -> Result<()> {
        self.write_batch_then(batch, |_| {})
    }

    /// [`write_batch`](Self::write_batch), running `then` on each stripe's
    /// share, in batch order, under that stripe's write lock (and inside
    /// the gate when the batch spans stripes). `then` must not call back
    /// into the store.
    pub fn write_batch_then(
        &self,
        batch: Vec<(Key, Entry)>,
        mut then: impl FnMut(&[(Key, Entry)]),
    ) -> Result<()> {
        let n = self.stripes.len();
        let mut per: Vec<Vec<(Key, Entry)>> = (0..n).map(|_| Vec::new()).collect();
        for (key, entry) in batch {
            per[stripe_of(&key, n)].push((key, entry));
        }
        let involved: Vec<usize> = (0..n).filter(|&i| !per[i].is_empty()).collect();
        for &i in &involved {
            self.stripes[i].wait_for_write_budget()?;
        }
        let gate = (involved.len() > 1).then(|| self.batch_gate.write());
        let mut sealed = Vec::new();
        for i in involved {
            if self.stripes[i].commit(std::mem::take(&mut per[i]), &mut then)? {
                sealed.push(i);
            }
        }
        drop(gate);
        for i in sealed {
            self.stripes[i].run_maintenance()?;
        }
        Ok(())
    }

    /// Point lookup on the owning stripe.
    pub fn get(&self, key: &[u8], provider: &dyn BlockProvider) -> Result<Option<Value>> {
        self.get_then(key, provider, |_| {})
    }

    /// [`get`](Self::get), then `then(answer)` before the stripe's read
    /// lock drops, so no write to `key` commits between the read and what
    /// `then` does with it (a cache fill). `then` must not call back into
    /// the store; the thread's lock probe does not count its time as hold.
    pub fn get_then(
        &self,
        key: &[u8],
        provider: &dyn BlockProvider,
        then: impl FnOnce(Option<&Value>),
    ) -> Result<Option<Value>> {
        let tree = &self.stripes[self.stripe_for(key)];
        let view = tree.read_view()?;
        let answer = tree.get_locked(&view, key, provider)?;
        outside_lock_probe(|| then(answer.as_ref()));
        Ok(answer)
    }

    /// Point lookups for many keys, grouped per owning stripe so each
    /// stripe's read lock is acquired **once** per group rather than once
    /// per key. Results are positional: `out[i]` answers `keys[i]`.
    pub fn multi_get(
        &self,
        keys: &[&[u8]],
        provider: &dyn BlockProvider,
    ) -> Result<Vec<Option<Value>>> {
        self.multi_get_then(keys, provider, |_, _| {})
    }

    /// [`multi_get`](Self::multi_get), calling `then(group_keys, answers)`
    /// once per stripe group before that stripe's read lock drops, as
    /// [`get_then`](Self::get_then) does for one key.
    pub fn multi_get_then(
        &self,
        keys: &[&[u8]],
        provider: &dyn BlockProvider,
        mut then: impl FnMut(&[&[u8]], &[Option<Value>]),
    ) -> Result<Vec<Option<Value>>> {
        let n = self.stripes.len();
        if n == 1 || keys.len() == 1 {
            let stripe = keys.first().map_or(0, |key| self.stripe_for(key));
            return self.get_group(stripe, keys, provider, &mut then);
        }
        // Group key *indices* by stripe, probe each group under one lock,
        // then scatter the answers back into request order.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, key) in keys.iter().enumerate() {
            groups[stripe_of(key, n)].push(i);
        }
        let mut out: Vec<Option<Value>> = vec![None; keys.len()];
        for (stripe, idxs) in groups.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let group: Vec<&[u8]> = idxs.iter().map(|&i| keys[i]).collect();
            let answers = self.get_group(stripe, &group, provider, &mut then)?;
            for (&i, v) in idxs.iter().zip(answers) {
                out[i] = v;
            }
        }
        Ok(out)
    }

    /// `keys`, all owned by `stripe`, looked up under one read view, then
    /// `then(keys, answers)` before it drops.
    fn get_group(
        &self,
        stripe: usize,
        keys: &[&[u8]],
        provider: &dyn BlockProvider,
        then: &mut impl FnMut(&[&[u8]], &[Option<Value>]),
    ) -> Result<Vec<Option<Value>>> {
        let tree = &self.stripes[stripe];
        let view = tree.read_view()?;
        let answers = keys
            .iter()
            .map(|key| tree.get_locked(&view, key, provider))
            .collect::<Result<Vec<_>>>()?;
        outside_lock_probe(|| then(keys, &answers));
        Ok(answers)
    }

    /// Range scan: up to `limit` live entries with keys `>= from`, as of
    /// one instant of the whole store.
    pub fn scan(
        &self,
        from: &[u8],
        limit: usize,
        provider: &dyn BlockProvider,
    ) -> Result<Vec<(Key, Value)>> {
        self.scan_then(from, limit, provider, |_| {})
    }

    /// [`scan`](Self::scan), then `then(&result)` before any lock drops,
    /// so no write commits between the read and what `then` does with it
    /// (a cache fill). `then` runs under every stripe's read lock and must
    /// not call back into the store; the thread's lock probe does not
    /// count its time as hold.
    pub fn scan_then(
        &self,
        from: &[u8],
        limit: usize,
        provider: &dyn BlockProvider,
        then: impl FnOnce(&[(Key, Value)]),
    ) -> Result<Vec<(Key, Value)>> {
        let _gate = self.batch_gate.read();
        let views = self.read_views()?;
        // Stripes own disjoint keys, so each stripe's ranks only ever
        // break ties among its own runs.
        let mut sources = Vec::new();
        for (tree, view) in self.stripes.iter().zip(&views) {
            sources.extend(tree.scan_sources(view, from, provider)?);
        }
        let out = MergingIter::new(sources).take_live(limit, provider, self.storage.as_ref())?;
        outside_lock_probe(|| then(&out));
        Ok(out)
    }

    /// Every stripe's read view at once, taken in stripe order without
    /// waiting while holding any: a stripe that is busy makes the scan drop
    /// the views it has, wait for that stripe alone, and try again. A put
    /// on one stripe therefore never queues behind a scan that is itself
    /// waiting for another stripe's flush or compaction.
    fn read_views(&self) -> Result<Vec<TimedReadGuard<'_, Inner>>> {
        let mut views: Vec<Option<TimedReadGuard<'_, Inner>>> =
            self.stripes.iter().map(|_| None).collect();
        loop {
            for (view, tree) in views.iter_mut().zip(&self.stripes) {
                if view.is_none() {
                    *view = tree.try_read_view()?;
                }
            }
            let Some(busy) = views.iter().position(Option::is_none) else {
                return Ok(views.into_iter().flatten().collect());
            };
            views.fill_with(|| None);
            views[busy] = Some(self.stripes[busy].read_view()?);
        }
    }

    /// Flushes every stripe (sealed memtables included) and runs due
    /// compactions.
    pub fn flush(&self) -> Result<()> {
        for tree in &self.stripes {
            tree.flush()?;
        }
        Ok(())
    }

    /// Runs at most one due compaction somewhere; returns whether one ran.
    pub fn maybe_compact_once(&self) -> Result<bool> {
        for tree in &self.stripes {
            if tree.maybe_compact_once()? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Sums a counter across stripes via `f`.
    pub fn stats_sum(&self, f: impl Fn(&DbStats) -> u64) -> u64 {
        self.stripes.iter().map(|t| f(t.stats())).sum()
    }

    /// Total compactions across stripes.
    pub fn compactions(&self) -> u64 {
        self.stats_sum(|s| s.compactions.get())
    }

    /// Commit rounds summed across stripes; each round commits one batch.
    pub fn group_commits(&self) -> u64 {
        self.stats_sum(|s| s.group_commits.get())
    }

    /// Query-path SST block reads: device reads minus every stripe's
    /// compaction reads.
    pub fn query_block_reads(&self) -> u64 {
        self.storage
            .stats()
            .reads()
            .saturating_sub(self.stats_sum(|s| s.compaction_block_reads.get()))
    }

    /// Write amplification across the device: all blocks written per block
    /// of fresh data flushed (any stripe).
    pub fn write_amplification(&self) -> f64 {
        let flushed = self.stats_sum(|s| s.flush_block_writes.load(Ordering::Relaxed));
        if flushed == 0 {
            return 0.0;
        }
        self.storage.stats().writes() as f64 / flushed as f64
    }

    /// Total sorted runs across stripes (a scan opens iterators in every
    /// stripe, so the sum is the real seek fan-out).
    pub fn num_runs(&self) -> usize {
        self.stripes.iter().map(|t| t.num_runs()).sum()
    }

    /// Deepest non-empty level over any stripe.
    pub fn num_levels(&self) -> usize {
        self.stripes
            .iter()
            .map(|t| t.num_levels())
            .max()
            .unwrap_or(0)
    }

    /// `(level, files, bytes)` aggregated across stripes.
    pub fn level_summary(&self) -> Vec<(usize, usize, u64)> {
        let mut agg: Vec<(usize, usize, u64)> = (0..MAX_LEVELS).map(|l| (l, 0, 0)).collect();
        for tree in &self.stripes {
            for (l, files, bytes) in tree.level_summary() {
                agg[l].1 += files;
                agg[l].2 += bytes;
            }
        }
        agg
    }

    /// Entries buffered across every stripe's memtables.
    pub fn memtable_len(&self) -> usize {
        self.stripes.iter().map(|t| t.memtable_len()).sum()
    }

    /// `(total entries, total blocks)` across all stripes' live tables.
    pub fn entries_and_blocks(&self) -> (u64, u64) {
        self.stripes.iter().fold((0, 0), |(entries, blocks), tree| {
            let (e, b) = tree.entries_and_blocks();
            (entries + e, blocks + b)
        })
    }

    /// Quarantined block addresses across stripes, sorted.
    pub fn quarantined(&self) -> Vec<(FileId, u32)> {
        let mut v: Vec<_> = self.stripes.iter().flat_map(|t| t.quarantined()).collect();
        v.sort_unstable();
        v
    }

    /// Registers a compaction observer on every stripe (file ids are
    /// globally unique, so one listener serves all).
    pub fn add_compaction_listener(&self, l: Arc<dyn CompactionListener>) {
        for tree in &self.stripes {
            tree.add_compaction_listener(l.clone());
        }
    }

    /// Installs one crash controller across every stripe — background
    /// workers hit the same armed points foreground paths do.
    pub fn set_crash_controller(&self, cc: Arc<CrashController>) {
        for tree in &self.stripes {
            tree.set_crash_controller(cc.clone());
        }
    }

    /// Whether any stripe was poisoned by a background crash injection.
    pub fn is_poisoned(&self) -> bool {
        self.stripes.iter().any(|t| t.is_poisoned())
    }

    /// Attaches observability to every stripe: lock counters register both
    /// the shared `engine.lock.*` aggregate and per-stripe
    /// `engine.stripe.<i>.lock.*` sets (when striped), plus per-stripe
    /// `flush_queue_depth` / `compaction_backlog` gauges.
    pub fn set_obs(&self, obs: Obs) {
        for tree in &self.stripes {
            tree.set_obs(obs.clone());
        }
        if self.stripes.len() > 1 {
            let mut g = self.gauges.write();
            for (i, sg) in g.iter_mut().enumerate() {
                sg.flush_queue_depth = obs.gauge(&format!("engine.stripe.{i}.flush_queue_depth"));
                sg.compaction_backlog = obs.gauge(&format!("engine.stripe.{i}.compaction_backlog"));
            }
        }
    }

    /// Background queue depth (stripes currently scheduled), 0 without a
    /// pool.
    pub fn maintenance_queue_depth(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.depth())
    }
}

impl Drop for StripedDb {
    fn drop(&mut self) {
        if let Some(pool) = &self.pool {
            {
                let mut st = pool.state.lock().unwrap();
                st.shutdown = true;
            }
            pool.cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::DirectProvider;
    use crate::storage::MemStorage;
    use bytes::Bytes;

    fn kb(i: u32) -> Key {
        Bytes::from(format!("key-{i:05}"))
    }

    #[test]
    fn routes_are_stable_and_cover_all_stripes() {
        let mut seen = [false; 8];
        for i in 0..1000u32 {
            let s = stripe_of(&kb(i), 8);
            assert_eq!(s, stripe_of(&kb(i), 8));
            seen[s] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "1000 keys should touch all 8 stripes"
        );
    }

    #[test]
    fn striped_put_get_scan_roundtrip() {
        let mut opts = Options::small();
        opts.stripes = 4;
        let db = StripedDb::new(opts, Arc::new(MemStorage::new())).unwrap();
        for i in 0..200u32 {
            db.put(kb(i), Bytes::from(format!("v{i}"))).unwrap();
        }
        for i in (0..200u32).step_by(3) {
            db.delete(kb(i)).unwrap();
        }
        let got = db.get(&kb(1), &DirectProvider).unwrap();
        assert_eq!(got.unwrap().as_ref(), b"v1");
        assert_eq!(db.get(&kb(3), &DirectProvider).unwrap(), None);
        let scanned = db.scan(b"key-00000", 500, &DirectProvider).unwrap();
        let expect: Vec<u32> = (0..200).filter(|i| i % 3 != 0).collect();
        assert_eq!(scanned.len(), expect.len());
        let mut sorted = scanned.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(scanned, sorted, "merged scan must be key-ordered");
    }

    #[test]
    fn background_pool_flushes_without_explicit_calls() {
        let mut opts = Options::small();
        opts.stripes = 2;
        opts.background_maintenance = true;
        opts.memtable_size = 1 << 10;
        let db = StripedDb::new(opts, Arc::new(MemStorage::new())).unwrap();
        for i in 0..2000u32 {
            db.put(kb(i), Bytes::from(vec![b'x'; 64])).unwrap();
        }
        // The pool should have flushed something in the background.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while db.stats_sum(|s| s.flushes.get()) == 0 {
            assert!(std::time::Instant::now() < deadline, "no background flush");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        db.flush().unwrap();
        for i in (0..2000u32).step_by(97) {
            let got = db.get(&kb(i), &DirectProvider).unwrap();
            assert_eq!(got.unwrap().as_ref(), vec![b'x'; 64].as_slice());
        }
        assert!(
            db.stats_sum(|s| s.seals.get()) > 0,
            "writes should have sealed"
        );
    }
}
