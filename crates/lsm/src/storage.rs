//! Pluggable storage backends with block-level I/O accounting.
//!
//! The paper's metrics — SST reads, hit rate against a no-cache baseline,
//! and throughput — are all functions of how many data blocks are fetched
//! from the device. Every backend therefore counts block reads and charges a
//! fixed simulated device cost per read, so experiments report
//! deterministic I/O counts and a reproducible simulated-time throughput
//! (the substitution for the paper's NVMe testbed; see DESIGN.md §2).

use crate::error::{LsmError, Result};
use crate::fs::{MetaFs, ReadAt, RealFs};
use crate::heap;
use crate::types::FileId;
use bytes::{Bytes, BytesMut};
use parking_lot::RwLock;
use std::collections::{hash_map, HashMap};
use std::io::{BufWriter, ErrorKind, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// The cost model for simulated device time approximates a fast NVMe SSD:
// ~80 µs per 4 KiB random block read once OS overheads are included, and
// ~40 µs per block written sequentially. Experiments only interpret
// *relative* throughput, so the absolute constants matter little; they
// must merely keep I/O dominant over CPU, as on the paper's testbed.

/// Simulated nanoseconds charged per block read.
pub const READ_BLOCK_NS: u64 = 80_000;
/// Simulated nanoseconds charged per block written.
pub const WRITE_BLOCK_NS: u64 = 40_000;
/// Simulated nanoseconds charged per explicit device sync (fsync of a file
/// or directory, the WAL's and the manifest's included). NVMe flush
/// latency is dominated by the drive cache flush, not the payload size, so
/// the charge is flat.
pub const SYNC_NS: u64 = 100_000;

/// Running I/O counters, shared by all backends.
///
/// Fault injection lives in [`crate::fault::FaultStorage`], a decorator
/// over any backend — the old one-shot `inject_read_failures` counter that
/// used to sit here was replaced by its seeded [`crate::fault::FaultPlan`].
#[derive(Debug, Default)]
pub struct IoStats {
    /// Number of data-block reads served by the device.
    pub block_reads: AtomicU64,
    /// Number of data blocks written (flushes and compactions).
    pub block_writes: AtomicU64,
    /// Number of explicit device syncs issued (file + directory fsyncs,
    /// including WAL and manifest syncs charged by the engine).
    pub syncs: AtomicU64,
    /// Accumulated simulated device time in nanoseconds.
    pub simulated_ns: AtomicU64,
}

impl IoStats {
    /// Snapshot of the read counter.
    pub fn reads(&self) -> u64 {
        self.block_reads.load(Ordering::Relaxed)
    }

    /// Snapshot of the write counter.
    pub fn writes(&self) -> u64 {
        self.block_writes.load(Ordering::Relaxed)
    }

    /// Snapshot of the sync counter.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Snapshot of accumulated simulated nanoseconds.
    pub fn simulated_ns(&self) -> u64 {
        self.simulated_ns.load(Ordering::Relaxed)
    }

    /// Charges extra simulated device time (retry backoff, latency
    /// spikes). Keeps wait costs on the simulated clock instead of real
    /// sleeps.
    pub fn charge_ns(&self, ns: u64) {
        self.simulated_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// A table being written, from [`Storage::create_table`]: the builder
/// appends each data block as it cuts it, then [`TableSink::finish`] seals
/// the table with its metadata blob.
///
/// A sink dropped before `finish` leaves whatever it wrote on the device,
/// as a crash mid-build would; no manifest references it, so recovery's
/// orphan sweep removes it.
pub trait TableSink: Send {
    /// Appends the next data block.
    fn append(&mut self, block: Bytes) -> Result<()>;

    /// Writes the metadata blob and completes the table. Completed is not
    /// durable: see [`Storage::sync_table`].
    fn finish(self: Box<Self>, meta: Bytes) -> Result<()>;
}

/// A block-oriented storage device for SSTables.
///
/// Tables are immutable once written; reads address individual data blocks
/// by `(file, block_no)`. Implementations must be thread-safe: the engine
/// serves concurrent readers (Section 4.4 of the paper).
pub trait Storage: Send + Sync {
    /// Starts writing table `id`; the table exists for readers once the
    /// sink's `finish` returns. The only way a table is written.
    fn create_table(&self, id: FileId) -> Result<Box<dyn TableSink + '_>>;

    /// Reads one data block. Counts as one device I/O.
    fn read_block(&self, id: FileId, block_no: u32) -> Result<Bytes>;

    /// Reads a table's metadata blob (index, bloom, stats). Metadata is
    /// pinned in memory by the engine after open, so this is *not* counted
    /// as a data-block I/O — matching RocksDB's pinned index/filter blocks.
    fn read_meta(&self, id: FileId) -> Result<Bytes>;

    /// Deletes a table (after compaction made it obsolete).
    fn delete_table(&self, id: FileId) -> Result<()>;

    /// Makes a written table's *contents* durable (fsync). Until this (and
    /// [`Storage::sync_dir`]) succeed, a completed table may sit in a
    /// write-back cache (modeled by [`crate::fs::SimFs`]) and vanish or
    /// tear on a crash. Charged to the simulated clock.
    fn sync_table(&self, id: FileId) -> Result<()>;

    /// Makes the device's *namespace* durable (directory fsync): table
    /// creations and deletions issued before this call survive a crash.
    /// Charged to the simulated clock.
    fn sync_dir(&self) -> Result<()>;

    /// Ids of every table currently present on the device — including
    /// files an interrupted flush left behind that no manifest references.
    /// Recovery uses this to sweep orphans, so a device it cannot list
    /// fails the open. Sorted ascending.
    fn list_tables(&self) -> Result<Vec<FileId>>;

    /// Shared I/O counters.
    fn stats(&self) -> &IoStats;

    /// Whether a block [`read_block`](Self::read_block) returns is a view
    /// of bytes the device keeps in memory anyway — the blocks *are* the
    /// store (`MemStorage`) — rather than a buffer private to that read
    /// (`FileStorage`). A cache that keeps a slice of a private buffer pins
    /// all of it, so the engine copies the values it caches when this is
    /// false and keeps the view when it is true.
    fn blocks_are_the_store(&self) -> bool;

    /// Heap bytes the device itself holds: `MemStorage`'s tables,
    /// `FileStorage`'s open-table offsets. A row of the memory ledger.
    fn resident_bytes(&self) -> usize;
}

/// In-memory storage: blocks live in a hash map, reads are counted and
/// charged simulated device time. This is the default experiment substrate.
pub struct MemStorage {
    tables: RwLock<HashMap<FileId, (Vec<Bytes>, Bytes)>>,
    stats: IoStats,
}

impl MemStorage {
    /// Creates an empty in-memory device.
    pub fn new() -> Self {
        MemStorage {
            tables: RwLock::new(HashMap::new()),
            stats: IoStats::default(),
        }
    }
}

impl Default for MemStorage {
    fn default() -> Self {
        Self::new()
    }
}

/// Writes a whole table through [`Storage::create_table`], for callers
/// that hold every block already: the fault decorator replaying what it
/// buffered, and tests.
pub(crate) fn write_table(
    storage: &dyn Storage,
    id: FileId,
    blocks: &[Bytes],
    meta: Bytes,
) -> Result<()> {
    let mut sink = storage.create_table(id)?;
    for block in blocks {
        sink.append(block.clone())?;
    }
    sink.finish(meta)
}

fn already_exists(id: FileId) -> LsmError {
    LsmError::InvalidArgument(format!("table {id} already exists"))
}

/// A sink for a device that takes a table whole: it collects the blocks
/// and hands them, with the metadata blob, to `done` at `finish`.
pub(crate) fn collecting_sink<'a>(
    done: impl FnOnce(Vec<Bytes>, Bytes) -> Result<()> + Send + 'a,
) -> Box<dyn TableSink + 'a> {
    Box::new(Collect {
        blocks: Vec::new(),
        done,
    })
}

struct Collect<F> {
    blocks: Vec<Bytes>,
    done: F,
}

impl<F: FnOnce(Vec<Bytes>, Bytes) -> Result<()> + Send> TableSink for Collect<F> {
    fn append(&mut self, block: Bytes) -> Result<()> {
        self.blocks.push(block);
        Ok(())
    }

    fn finish(self: Box<Self>, meta: Bytes) -> Result<()> {
        (self.done)(self.blocks, meta)
    }
}

impl Storage for MemStorage {
    /// The blocks are the store: a table keeps the very buffers the
    /// builder cut, collected until `finish` files them.
    fn create_table(&self, id: FileId) -> Result<Box<dyn TableSink + '_>> {
        Ok(collecting_sink(move |blocks, meta| {
            let n = blocks.len() as u64;
            match self.tables.write().entry(id) {
                hash_map::Entry::Occupied(_) => return Err(already_exists(id)),
                hash_map::Entry::Vacant(slot) => slot.insert((blocks, meta)),
            };
            self.stats.block_writes.fetch_add(n, Ordering::Relaxed);
            self.stats
                .simulated_ns
                .fetch_add(n * WRITE_BLOCK_NS, Ordering::Relaxed);
            Ok(())
        }))
    }

    fn read_block(&self, id: FileId, block_no: u32) -> Result<Bytes> {
        let tables = self.tables.read();
        let (blocks, _) = tables
            .get(&id)
            .ok_or_else(|| LsmError::NotFound(format!("table {id}")))?;
        let block = blocks
            .get(block_no as usize)
            .ok_or_else(|| LsmError::NotFound(format!("table {id} block {block_no}")))?
            .clone();
        self.stats.block_reads.fetch_add(1, Ordering::Relaxed);
        self.stats
            .simulated_ns
            .fetch_add(READ_BLOCK_NS, Ordering::Relaxed);
        Ok(block)
    }

    fn read_meta(&self, id: FileId) -> Result<Bytes> {
        let tables = self.tables.read();
        let (_, meta) = tables
            .get(&id)
            .ok_or_else(|| LsmError::NotFound(format!("table {id}")))?;
        Ok(meta.clone())
    }

    fn delete_table(&self, id: FileId) -> Result<()> {
        self.tables
            .write()
            .remove(&id)
            .map(|_| ())
            .ok_or_else(|| LsmError::NotFound(format!("table {id}")))
    }

    fn sync_table(&self, id: FileId) -> Result<()> {
        if !self.tables.read().contains_key(&id) {
            return Err(LsmError::NotFound(format!("table {id}")));
        }
        self.stats.syncs.fetch_add(1, Ordering::Relaxed);
        self.stats.charge_ns(SYNC_NS);
        Ok(())
    }

    fn sync_dir(&self) -> Result<()> {
        self.stats.syncs.fetch_add(1, Ordering::Relaxed);
        self.stats.charge_ns(SYNC_NS);
        Ok(())
    }

    fn list_tables(&self) -> Result<Vec<FileId>> {
        let mut ids: Vec<FileId> = self.tables.read().keys().copied().collect();
        ids.sort_unstable();
        Ok(ids)
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn blocks_are_the_store(&self) -> bool {
        true
    }

    fn resident_bytes(&self) -> usize {
        let tables = self.tables.read();
        let held: usize = (tables.values())
            .map(|(blocks, meta)| {
                let data: usize = blocks.iter().map(|b| heap::arc_bytes(b.len())).sum();
                data + heap::vec(blocks) + heap::arc_bytes(meta.len())
            })
            .sum();
        held + heap::hash_map(&tables)
    }
}

/// File-backed storage: one file per table, through a [`MetaFs`] — the
/// real filesystem ([`FileStorage::open`]) or, in the crash drills, the
/// simulated one the WAL and manifest live on.
///
/// Layout: `blocks… | meta | u64 offset × (n+1) | u32 n | u32 meta_len |
/// u64 magic`, every integer little-endian. Block `i` spans
/// `offset[i]..offset[i+1]` from the start of the file, and the metadata
/// blob starts at `offset[n]`. The offset table and the counts come last,
/// as in LevelDB's footer, so a table is written front to back as its
/// blocks are cut and a build holds one block, not the table.
pub struct FileStorage {
    fs: Arc<dyn MetaFs>,
    dir: PathBuf,
    /// One open descriptor and the block offset table per table read so
    /// far, so a block read is one positioned read. Dropped (descriptor
    /// closed) by `delete_table`.
    open: RwLock<HashMap<FileId, Arc<OpenTable>>>,
    stats: IoStats,
}

/// The last eight bytes of every table file.
const TABLE_MAGIC: u64 = u64::from_le_bytes(*b"adcSST\x02\x00");

/// `u32 n | u32 meta_len | u64 magic`.
const TRAILER_LEN: u64 = 16;

/// A table file open for positioned reads.
struct OpenTable {
    file: Box<dyn ReadAt>,
    meta_len: usize,
    /// `block_count + 1` absolute offsets; the last is where the metadata
    /// blob starts.
    offsets: Box<[u64]>,
}

impl OpenTable {
    fn read_at(&self, offset: u64, len: usize) -> Result<Bytes> {
        let mut buf = BytesMut::zeroed(len);
        self.file.read_exact_at(&mut buf, offset)?;
        Ok(buf.freeze())
    }
}

impl FileStorage {
    /// Opens (creating if needed) a directory-backed device.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::with_fs(dir, Arc::new(RealFs::new()))
    }

    /// [`FileStorage::open`] over an explicit [`MetaFs`].
    pub fn with_fs(dir: impl Into<PathBuf>, fs: Arc<dyn MetaFs>) -> Result<Self> {
        let dir = dir.into();
        fs.create_dir_all(&dir)?;
        Ok(FileStorage {
            fs,
            dir,
            open: RwLock::new(HashMap::new()),
            stats: IoStats::default(),
        })
    }

    fn path(&self, id: FileId) -> PathBuf {
        self.dir.join(format!("{id:012}.sst"))
    }

    /// The open handle for table `id`, opening the file and reading its
    /// trailer and offset table on first use. That first use holds the
    /// map's write lock, as `delete_table` does around its unlink, so a
    /// handle is never registered for a table whose deletion it raced.
    fn table(&self, id: FileId) -> Result<Arc<OpenTable>> {
        if let Some(t) = self.open.read().get(&id) {
            return Ok(t.clone());
        }
        let mut open = self.open.write();
        if let Some(t) = open.get(&id) {
            return Ok(t.clone());
        }
        let file = self.fs.open(&self.path(id))?;
        // No checksum covers the trailer or the offsets, and every read
        // sizes its buffer from them: hold them to the file's length once,
        // here, before the first read they size.
        let corrupt =
            || LsmError::Corruption(format!("table {id}: trailer does not match the file"));
        let file_len = file.size()?;
        let trailer_at = file_len.checked_sub(TRAILER_LEN).ok_or_else(corrupt)?;
        let mut trailer = [0u8; TRAILER_LEN as usize];
        file.read_exact_at(&mut trailer, trailer_at)?;
        let n = u32::from_le_bytes(trailer[0..4].try_into().unwrap()) as usize;
        let meta_len = u32::from_le_bytes(trailer[4..8].try_into().unwrap()) as usize;
        if u64::from_le_bytes(trailer[8..16].try_into().unwrap()) != TABLE_MAGIC {
            return Err(corrupt());
        }
        let offsets_at = trailer_at
            .checked_sub((n as u64 + 1) * 8)
            .ok_or_else(corrupt)?;
        let mut buf = vec![0u8; (n + 1) * 8];
        file.read_exact_at(&mut buf, offsets_at)?;
        let offsets: Box<[u64]> = buf
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        if offsets[0] != 0
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets[n].checked_add(meta_len as u64) != Some(offsets_at)
        {
            return Err(corrupt());
        }
        let table = Arc::new(OpenTable {
            file,
            meta_len,
            offsets,
        });
        open.insert(id, table.clone());
        Ok(table)
    }
}

/// Streams a table into its file through a 64 KiB buffer: a block is in
/// memory only until the buffer drains it.
struct FileSink<'a> {
    storage: &'a FileStorage,
    file: BufWriter<Box<dyn Write + Send + 'a>>,
    /// Where each appended block starts, then where the next one would.
    offsets: Vec<u64>,
}

impl TableSink for FileSink<'_> {
    fn append(&mut self, block: Bytes) -> Result<()> {
        self.file.write_all(&block)?;
        let end = self.offsets.last().expect("starts at offset 0") + block.len() as u64;
        self.offsets.push(end);
        Ok(())
    }

    fn finish(self: Box<Self>, meta: Bytes) -> Result<()> {
        let FileSink {
            storage,
            mut file,
            offsets,
        } = *self;
        let n = offsets.len() as u64 - 1;
        file.write_all(&meta)?;
        for offset in &offsets {
            file.write_all(&offset.to_le_bytes())?;
        }
        file.write_all(&(n as u32).to_le_bytes())?;
        file.write_all(&(meta.len() as u32).to_le_bytes())?;
        file.write_all(&TABLE_MAGIC.to_le_bytes())?;
        // Completed, not durable: the engine calls `sync_table` +
        // `sync_dir` when its sync policy requires it; an unconditional
        // fsync here would hide exactly the write-back-cache bugs the
        // crash drills exist to catch.
        file.flush()?;
        storage.stats.block_writes.fetch_add(n, Ordering::Relaxed);
        storage
            .stats
            .simulated_ns
            .fetch_add(n * WRITE_BLOCK_NS, Ordering::Relaxed);
        Ok(())
    }
}

impl Storage for FileStorage {
    fn create_table(&self, id: FileId) -> Result<Box<dyn TableSink + '_>> {
        let file = self.fs.create(&self.path(id)).map_err(|e| match e {
            LsmError::Io(e) if e.kind() == ErrorKind::AlreadyExists => already_exists(id),
            e => e,
        })?;
        Ok(Box::new(FileSink {
            storage: self,
            file: BufWriter::with_capacity(64 << 10, file),
            offsets: vec![0],
        }))
    }

    fn read_block(&self, id: FileId, block_no: u32) -> Result<Bytes> {
        let table = self.table(id)?;
        let i = block_no as usize;
        let (Some(&start), Some(&end)) = (table.offsets.get(i), table.offsets.get(i + 1)) else {
            return Err(LsmError::NotFound(format!("table {id} block {block_no}")));
        };
        let block = table.read_at(start, (end - start) as usize)?;
        self.stats.block_reads.fetch_add(1, Ordering::Relaxed);
        self.stats
            .simulated_ns
            .fetch_add(READ_BLOCK_NS, Ordering::Relaxed);
        Ok(block)
    }

    fn read_meta(&self, id: FileId) -> Result<Bytes> {
        let table = self.table(id)?;
        let end = *table
            .offsets
            .last()
            .expect("offsets always has n+1 entries");
        table.read_at(end, table.meta_len)
    }

    fn delete_table(&self, id: FileId) -> Result<()> {
        let mut open = self.open.write();
        open.remove(&id);
        self.fs.remove(&self.path(id))
    }

    fn sync_table(&self, id: FileId) -> Result<()> {
        self.fs.sync_file(&self.path(id))?;
        self.stats.syncs.fetch_add(1, Ordering::Relaxed);
        self.stats.charge_ns(SYNC_NS);
        Ok(())
    }

    fn sync_dir(&self) -> Result<()> {
        self.fs.sync_dir(&self.dir)?;
        self.stats.syncs.fetch_add(1, Ordering::Relaxed);
        self.stats.charge_ns(SYNC_NS);
        Ok(())
    }

    fn list_tables(&self) -> Result<Vec<FileId>> {
        let mut ids: Vec<FileId> = (self.fs.list_dir(&self.dir)?.iter())
            .filter(|p| p.extension().is_some_and(|x| x == "sst"))
            .filter_map(|p| p.file_stem()?.to_str()?.parse().ok())
            .collect();
        ids.sort_unstable();
        Ok(ids)
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn blocks_are_the_store(&self) -> bool {
        false
    }

    /// Each open table's handle and offsets; the blocks themselves are in
    /// the files, and a read's buffer belongs to whoever keeps it.
    fn resident_bytes(&self) -> usize {
        let open = self.open.read();
        let handles: usize = (open.values())
            .map(|t| {
                heap::chunk(16 + std::mem::size_of::<OpenTable>())
                    + heap::chunk(t.offsets.len() * 8)
            })
            .sum();
        handles + heap::hash_map(&open)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::LsmTree;
    use crate::fs::SimFs;
    use crate::options::Options;

    fn blocks(n: usize) -> Vec<Bytes> {
        (0..n)
            .map(|i| Bytes::from(format!("block-{i}-payload")))
            .collect()
    }

    fn exercise(storage: &dyn Storage) {
        write_table(storage, 1, &blocks(3), Bytes::from_static(b"meta1")).unwrap();
        write_table(storage, 2, &blocks(2), Bytes::from_static(b"meta2")).unwrap();

        assert_eq!(
            storage.read_block(1, 0).unwrap().as_ref(),
            b"block-0-payload"
        );
        assert_eq!(
            storage.read_block(1, 2).unwrap().as_ref(),
            b"block-2-payload"
        );
        assert_eq!(
            storage.read_block(2, 1).unwrap().as_ref(),
            b"block-1-payload"
        );
        assert_eq!(storage.stats().reads(), 3);
        assert_eq!(storage.stats().writes(), 5);
        assert!(storage.stats().simulated_ns() > 0);

        assert_eq!(storage.read_meta(1).unwrap().as_ref(), b"meta1");
        assert_eq!(storage.read_meta(2).unwrap().as_ref(), b"meta2");
        // Meta reads are not data-block I/Os.
        assert_eq!(storage.stats().reads(), 3);

        assert!(storage.read_block(1, 3).is_err());
        assert!(storage.read_block(9, 0).is_err());
        assert!(write_table(storage, 1, &blocks(1), Bytes::new()).is_err());

        assert_eq!(storage.list_tables().unwrap(), vec![1, 2]);
        storage.sync_table(1).unwrap();
        storage.sync_dir().unwrap();
        assert_eq!(storage.stats().syncs(), 2);
        assert!(storage.sync_table(9).is_err());

        storage.delete_table(1).unwrap();
        assert!(storage.read_block(1, 0).is_err());
        assert!(storage.delete_table(1).is_err());
        assert_eq!(storage.list_tables().unwrap(), vec![2]);
    }

    #[test]
    fn mem_storage_semantics() {
        exercise(&MemStorage::new());
    }

    #[test]
    fn file_storage_semantics() {
        let dir = std::env::temp_dir().join(format!("adcache-fs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exercise(&FileStorage::open(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_storage_on_a_simulated_filesystem_semantics() {
        exercise(&FileStorage::with_fs("/sim/sst", Arc::new(SimFs::new())).unwrap());
    }

    #[test]
    fn an_unlistable_table_directory_fails_the_open() {
        let dir = std::env::temp_dir().join(format!("adcache-fs-test6-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sst = dir.join("sst");
        let storage = Arc::new(FileStorage::open(&sst).unwrap());
        std::fs::remove_dir(&sst).unwrap();
        std::fs::write(&sst, b"not a directory").unwrap();
        assert!(storage.list_tables().is_err());
        let opened = LsmTree::with_durability(Options::small(), storage, dir.join("meta"));
        assert!(opened.is_err(), "recovery cannot sweep what it cannot list");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // The SSTable side of the one crash model: a table's bytes and its
    // directory entry sit in `SimFs`'s write-back cache beside the WAL's
    // and the manifest's, and each reopen runs on a fresh `FileStorage`,
    // as a restarted process would.

    const SST: &str = "/sim/sst";

    fn table_on(fs: &Arc<SimFs>) -> FileStorage {
        FileStorage::with_fs(SST, fs.clone()).unwrap()
    }

    /// Whether `storage` serves table 1 as `blocks(3)` and `meta1`.
    fn serves_table_1(storage: &FileStorage) -> bool {
        storage.read_meta(1).unwrap().as_ref() == b"meta1"
            && (0..3).all(|i| storage.read_block(1, i).unwrap() == blocks(3)[i as usize])
    }

    #[test]
    fn a_synced_table_survives_every_crash() {
        for seed in 0..32 {
            let fs = Arc::new(SimFs::new());
            let storage = table_on(&fs);
            write_table(&storage, 1, &blocks(3), Bytes::from_static(b"meta1")).unwrap();
            storage.sync_table(1).unwrap();
            storage.sync_dir().unwrap();
            fs.crash(seed);
            let storage = table_on(&fs);
            assert_eq!(storage.list_tables().unwrap(), vec![1], "seed {seed}");
            assert!(serves_table_1(&storage), "seed {seed}");
        }
    }

    #[test]
    fn an_unsynced_table_is_kept_whole_lost_or_torn() {
        let (mut whole, mut lost, mut torn) = (0, 0, 0);
        for seed in 0..32 {
            let fs = Arc::new(SimFs::new());
            let storage = table_on(&fs);
            write_table(&storage, 1, &blocks(3), Bytes::from_static(b"meta1")).unwrap();
            fs.crash(seed);
            let storage = table_on(&fs);
            if storage.list_tables().unwrap().is_empty() {
                lost += 1;
            } else if storage.read_meta(1).is_ok() {
                assert!(serves_table_1(&storage), "seed {seed}: kept is kept whole");
                whole += 1;
            } else {
                // A torn table fails its trailer check: never served.
                assert!(matches!(storage.read_meta(1), Err(LsmError::Corruption(_))));
                assert!(matches!(
                    storage.read_block(1, 0),
                    Err(LsmError::Corruption(_))
                ));
                torn += 1;
            }
        }
        assert!(whole > 0 && lost > 0 && torn > 0, "{whole}/{lost}/{torn}");
    }

    #[test]
    fn an_unsynced_delete_can_come_back_and_the_next_open_sweeps_it() {
        let mut came_back = false;
        for seed in 0..16 {
            let fs = Arc::new(SimFs::new());
            let storage = table_on(&fs);
            write_table(&storage, 1, &blocks(3), Bytes::from_static(b"meta1")).unwrap();
            storage.sync_table(1).unwrap();
            storage.sync_dir().unwrap();
            storage.delete_table(1).unwrap();
            fs.crash(seed);
            let storage = Arc::new(table_on(&fs));
            if storage.list_tables().unwrap().is_empty() {
                continue;
            }
            came_back = true;
            assert!(serves_table_1(&storage), "seed {seed}");
            // No manifest names it: the open sweeps it, durably.
            LsmTree::with_durability_fs(Options::small(), storage, "/sim/db", fs.clone()).unwrap();
            fs.crash(seed);
            assert!(
                table_on(&fs).list_tables().unwrap().is_empty(),
                "seed {seed}"
            );
        }
        assert!(came_back, "an unsynced delete must be undoable");
    }

    /// A compaction stopped between its merge and its commit (a crash point
    /// here; in a pooled store, another stripe's worker may still be
    /// running) leaves its outputs unsynced. A flush that commits a
    /// manifest afterwards, as the rest of the process still may, must not
    /// name them: a power cut loses or tears them under that manifest.
    #[test]
    fn a_compaction_stopped_before_its_commit_leaves_no_unsynced_table_named() {
        use crate::fault::{CrashController, CrashPoint};
        use crate::sstable::DirectProvider;
        let key = |i: u32| Bytes::from(format!("key-{i:05}"));
        let open = |fs: &Arc<SimFs>| {
            let storage = Arc::new(table_on(fs));
            LsmTree::with_durability_fs(Options::small(), storage, "/sim/db", fs.clone())
        };
        for seed in 0..16 {
            let fs = Arc::new(SimFs::new());
            let db = open(&fs).unwrap();
            let cc = CrashController::new();
            db.set_crash_controller(cc.clone());
            cc.arm(CrashPoint::CompactionAfterRun, 1);
            // Flushes until one runs a compaction, which stops at the
            // crash point after its merge.
            let mut n = 0;
            while !cc.fired() {
                assert!(n < 10_000, "seed {seed}: no compaction ran");
                for _ in 0..50 {
                    db.put(key(n), Bytes::from(format!("v-{n}"))).unwrap();
                    n += 1;
                }
                assert_eq!(db.flush().is_err(), cc.fired(), "seed {seed}");
            }
            db.put(key(n), Bytes::from(format!("v-{n}"))).unwrap();
            db.flush().unwrap();
            drop(db);
            fs.crash(seed);
            let db = open(&fs).unwrap_or_else(|e| panic!("seed {seed}: reopen failed: {e}"));
            for i in 0..=n {
                let got = db.get(&key(i), &DirectProvider).unwrap();
                assert_eq!(got, Some(Bytes::from(format!("v-{i}"))), "seed {seed}");
            }
        }
    }

    #[test]
    fn file_storage_survives_offset_cache_eviction() {
        let dir = std::env::temp_dir().join(format!("adcache-fs-test2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = FileStorage::open(&dir).unwrap();
        write_table(&s, 7, &blocks(4), Bytes::from_static(b"m")).unwrap();
        // Drop the open handles to force the reopen path.
        s.open.write().clear();
        assert_eq!(s.read_block(7, 3).unwrap().as_ref(), b"block-3-payload");
        assert_eq!(s.read_meta(7).unwrap().as_ref(), b"m");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_storage_rejects_a_trailer_the_file_does_not_bear_out() {
        let dir = std::env::temp_dir().join(format!("adcache-fs-test4-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = FileStorage::open(&dir).unwrap();
        write_table(&s, 7, &blocks(3), Bytes::from_static(b"m")).unwrap();
        let good = std::fs::read(s.path(7)).unwrap();
        let trailer = good.len() - TRAILER_LEN as usize;
        let offsets = trailer - 4 * 8;
        // The top byte of block 1's offset, of the last offset, of the
        // metadata length and of the block count: each would size a read
        // buffer in the giga- to exabytes. Then the first offset, which
        // must be 0, and the magic.
        for byte in [
            offsets + 8 + 7,
            offsets + 3 * 8 + 7,
            trailer + 7,
            trailer + 3,
            offsets,
            good.len() - 1,
        ] {
            let mut bad = good.clone();
            bad[byte] ^= 0x40;
            std::fs::write(s.path(7), &bad).unwrap();
            assert!(
                matches!(s.read_block(7, 1), Err(LsmError::Corruption(_))),
                "byte {byte}"
            );
            assert!(matches!(s.read_meta(7), Err(LsmError::Corruption(_))));
        }
        // Shorter than a trailer.
        std::fs::write(s.path(7), &good[good.len() - 9..]).unwrap();
        assert!(matches!(s.read_meta(7), Err(LsmError::Corruption(_))));
        std::fs::write(s.path(7), &good).unwrap();
        assert_eq!(s.read_block(7, 1).unwrap().as_ref(), b"block-1-payload");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_storage_writes_blocks_then_meta_then_offsets_then_trailer() {
        let dir = std::env::temp_dir().join(format!("adcache-fs-test5-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = FileStorage::open(&dir).unwrap();
        let mut sink = s.create_table(3).unwrap();
        sink.append(Bytes::from_static(b"first")).unwrap();
        sink.append(Bytes::from_static(b"second")).unwrap();
        // Creation is exclusive while the first writer is still open.
        assert!(matches!(
            s.create_table(3),
            Err(LsmError::InvalidArgument(_))
        ));
        sink.finish(Bytes::from_static(b"meta")).unwrap();
        let mut want = b"firstsecondmeta".to_vec();
        for offset in [0u64, 5, 11] {
            want.extend_from_slice(&offset.to_le_bytes());
        }
        want.extend_from_slice(&2u32.to_le_bytes());
        want.extend_from_slice(&4u32.to_le_bytes());
        want.extend_from_slice(b"adcSST\x02\x00");
        assert_eq!(std::fs::read(s.path(3)).unwrap(), want);
        assert_eq!(s.read_block(3, 1).unwrap().as_ref(), b"second");
        assert_eq!(s.read_meta(3).unwrap().as_ref(), b"meta");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_storage_cycles_leak_no_descriptors() {
        let dir = std::env::temp_dir().join(format!("adcache-fs-test3-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = FileStorage::open(&dir).unwrap();
        // Other tests of this binary open and close files on their own
        // threads meanwhile, so the bound is a margin no leak of one
        // descriptor per cycle could stay inside.
        let open_fds = || std::fs::read_dir("/proc/self/fd").unwrap().count();
        let before = open_fds();
        for id in 1..=1000 {
            write_table(&s, id, &blocks(2), Bytes::from_static(b"m")).unwrap();
            assert_eq!(s.read_block(id, 1).unwrap().as_ref(), b"block-1-payload");
            assert_eq!(s.read_meta(id).unwrap().as_ref(), b"m");
            s.delete_table(id).unwrap();
            assert!(matches!(s.read_block(id, 1), Err(LsmError::NotFound(_))));
            assert!(matches!(s.read_meta(id), Err(LsmError::NotFound(_))));
        }
        assert!(s.open.read().is_empty(), "delete_table drops the handle");
        let after = open_fds();
        assert!(after <= before + 50, "descriptors {before} -> {after}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_failures_consume_and_recover() {
        // Fault injection moved from IoStats to the FaultStorage decorator;
        // the semantics stay: injected reads fail without touching the
        // device, and pausing the plan restores service.
        use crate::fault::{FaultPlan, FaultStorage};
        let s = FaultStorage::new(
            std::sync::Arc::new(MemStorage::new()),
            1,
            FaultPlan {
                read_transient: 1.0,
                ..FaultPlan::default()
            },
        );
        write_table(&s, 1, &blocks(1), Bytes::new()).unwrap();
        assert!(matches!(s.read_block(1, 0), Err(LsmError::Injected(_))));
        assert!(matches!(s.read_block(1, 0), Err(LsmError::Injected(_))));
        s.set_active(false);
        assert!(s.read_block(1, 0).is_ok());
        // Failed reads are not counted as device I/Os.
        assert_eq!(s.stats().reads(), 1);
    }

    #[test]
    fn cost_model_accumulates_simulated_time() {
        let s = MemStorage::new();
        write_table(&s, 1, &blocks(2), Bytes::new()).unwrap();
        assert_eq!(s.stats().simulated_ns(), 80_000);
        s.read_block(1, 0).unwrap();
        s.read_block(1, 1).unwrap();
        assert_eq!(s.stats().simulated_ns(), 240_000);
        s.sync_table(1).unwrap();
        s.sync_dir().unwrap();
        assert_eq!(s.stats().simulated_ns(), 440_000);
    }
}
