//! Write-ahead log.
//!
//! When the engine runs with durability enabled, every write is appended
//! to the WAL before it touches the memtable (the paper's read path checks
//! "the MemTable and any unflushed data in the Write-ahead Log"). Each
//! memtable seal renames the log to a numbered segment and starts the next
//! one, so the segments plus the log always hold a superset of the
//! memtables and crash recovery is a simple in-order replay. Records carry
//! a CRC-32 so a torn tail write is detected and recovery stops cleanly at
//! the last complete record.
//!
//! Segments are recycled, not deleted: once a segment's flush is
//! installed, the engine turns it into a spare (renamed to a name replay
//! ignores, the rename made durable, its bytes overwritten with zeros by
//! [`zero_fill`] and synced), and a later seal renames a spare into place
//! as the new log.
//! The writer writes at an offset, so a recycled log holds its records
//! followed by the zeros of the fill; replay stops where only zeros
//! remain, and a record that fails its CRC with only zeros after it is a
//! torn tail. Logs written before segments were recycled replay unchanged.
//! Downgrade is not supported: an older reader takes a torn record inside
//! a recycled log for mid-log corruption.
//!
//! Record layout: `len:u32 | crc32:u32 | payload[len]` where the payload is
//! `kind:u8 | klen:u32 | key | (vlen:u32 | value)?` (value only for puts).

use crate::crc::crc32;
use crate::error::{LsmError, Result};
use crate::fs::MetaFs;
use crate::types::{Entry, Key, KeyEntry};
use bytes::Bytes;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const KIND_PUT: u8 = 1;
const KIND_DELETE: u8 = 2;

/// Bytes [`zero_fill`] writes per call.
const FILL_CHUNK: usize = 64 << 10;

/// Append-only writer for the WAL file.
///
/// All I/O goes through a [`MetaFs`], so crash drills can interpose a
/// write-back cache: a flushed record has merely *completed*; only
/// [`WalWriter::sync`] makes it durable.
pub struct WalWriter {
    path: PathBuf,
    fs: Arc<dyn MetaFs>,
    /// Where the next record goes: the end of the records in the log,
    /// before a recycled log's zeros.
    offset: u64,
    /// Records encoded but not yet pushed to the filesystem.
    buf: Vec<u8>,
    /// Fsync a segment when [`WalWriter::seal_to`] seals it, so a crash
    /// can never tear it into a stale prefix that shadows the SSTable its
    /// memtable became. Off under `SyncPolicy::Never` (and under the
    /// `FsyncSite::WalReset` misplacement hook).
    sync_at_seal: bool,
    /// Bytes appended to the current segment (since the last seal).
    segment_bytes: u64,
}

impl WalWriter {
    /// Opens the log at `path` to write after its last byte, or creates it
    /// empty when missing. A recycled log ends in zeros: reopen one with
    /// [`WalWriter::open_at`], at the end its replay found.
    pub fn open(fs: Arc<dyn MetaFs>, path: impl Into<PathBuf>, sync_at_seal: bool) -> Result<Self> {
        let path = path.into();
        let end = if fs.exists(&path) { fs.len(&path)? } else { 0 };
        Self::open_at(fs, path, end, sync_at_seal)
    }

    /// Opens the log at `path` to write from `offset` — the end of its
    /// records, [`ReplayOutcome::end`] — or creates it empty when missing
    /// (`offset` is then 0).
    pub fn open_at(
        fs: Arc<dyn MetaFs>,
        path: impl Into<PathBuf>,
        offset: u64,
        sync_at_seal: bool,
    ) -> Result<Self> {
        let path = path.into();
        if !fs.exists(&path) {
            fs.write_file(&path, &[])?;
        }
        Ok(WalWriter {
            path,
            fs,
            offset,
            buf: Vec::new(),
            sync_at_seal,
            segment_bytes: 0,
        })
    }

    /// Bytes appended since the last [`WalWriter::seal_to`].
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Appends one write record.
    pub fn append(&mut self, key: &[u8], entry: &Entry) -> Result<()> {
        let mut payload = Vec::with_capacity(key.len() + 16);
        match entry {
            Entry::Put(v) => {
                payload.push(KIND_PUT);
                payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
                payload.extend_from_slice(key);
                payload.extend_from_slice(&(v.len() as u32).to_le_bytes());
                payload.extend_from_slice(v);
            }
            Entry::Tombstone => {
                payload.push(KIND_DELETE);
                payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
                payload.extend_from_slice(key);
            }
        }
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        self.buf.extend_from_slice(&payload);
        self.segment_bytes += 8 + payload.len() as u64;
        Ok(())
    }

    /// Pushes buffered records to the filesystem (completed, not durable).
    pub fn flush(&mut self) -> Result<()> {
        if !self.buf.is_empty() {
            self.fs.write_at(&self.path, self.offset, &self.buf)?;
            self.offset += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(())
    }

    /// Flushes and fsyncs the log: every record appended so far survives a
    /// crash.
    pub fn sync(&mut self) -> Result<()> {
        self.flush()?;
        self.fs.sync_file(&self.path)?;
        Ok(())
    }

    /// Seals the current segment as `to` (its memtable was sealed for a
    /// flush), leaving no log at the writer's path until
    /// [`WalWriter::restart`]. The segment is fsynced first when the writer
    /// was opened with `sync_at_seal`; returns whether it was. The rename
    /// is durable only once its directory is synced.
    pub fn seal_to(&mut self, to: &Path) -> Result<bool> {
        self.flush()?;
        if self.sync_at_seal {
            self.fs.sync_file(&self.path)?;
        }
        self.fs.rename(&self.path, to)?;
        Ok(self.sync_at_seal)
    }

    /// Starts the next log at the writer's path after a seal: `spare`, a
    /// retired segment [`zero_fill`] zeroed, renamed into place, or else a
    /// new empty file. Durable only once the directory is synced.
    pub fn restart(&mut self, spare: Option<&Path>) -> Result<()> {
        match spare {
            Some(spare) => self.fs.rename(spare, &self.path)?,
            None => self.fs.write_file(&self.path, &[])?,
        }
        self.offset = 0;
        // The new segment starts as a freshly opened writer does: the
        // batch buffer goes back to the allocator while the flush builds.
        self.buf = Vec::new();
        self.segment_bytes = 0;
        Ok(())
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// What a WAL replay recovered, and what it had to discard.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Intact records, in append order.
    pub records: Vec<KeyEntry>,
    /// Bytes truncated from a torn tail (0 on a clean log). When nonzero
    /// the file on disk has already been truncated to its valid prefix.
    pub torn_tail_bytes: u64,
    /// Offset just past the last intact record: where a writer resumes,
    /// before a recycled log's zeros.
    pub end: u64,
}

/// Overwrites `path` with zeros in place, from one small buffer whatever
/// the file's size (not durable until synced): the fill that makes a
/// flushed segment a spare log, which replay reads as empty. It frees no
/// disk block.
pub fn zero_fill(fs: &dyn MetaFs, path: &Path) -> Result<()> {
    let len = fs.len(path)?;
    let zeros = vec![0u8; FILL_CHUNK];
    let mut at = 0;
    while at < len {
        let n = (len - at).min(FILL_CHUNK as u64);
        fs.write_at(path, at, &zeros[..n as usize])?;
        at += n;
    }
    Ok(())
}

/// Replays a WAL file in order. The log ends where only zeros remain (a
/// recycled log's fill) or at the end of the file, and two failure shapes
/// are told apart:
///
/// - **Torn tail** — the *last record* is incomplete or fails its CRC with
///   nothing but zeros after it. That is exactly what a crash mid-write
///   produces, at the end of the file or into a recycled log's zeros;
///   losing it is not data loss because the record was never
///   acknowledged. The tail is truncated off the file and replay succeeds
///   with [`ReplayOutcome::torn_tail_bytes`] > 0.
/// - **Mid-log corruption** — a record that fails its CRC with a nonzero
///   byte after it. No crash produces that; it is bit rot of acknowledged
///   data, and silently dropping the suffix would lose acknowledged
///   writes. This is a hard [`LsmError::Corruption`].
pub fn replay(fs: &dyn MetaFs, path: &Path) -> Result<ReplayOutcome> {
    let Some(data) = fs.read(path)? else {
        return Ok(ReplayOutcome::default());
    };
    let zeros = |from: usize| data[from..].iter().all(|&b| b == 0);
    let mut out = Vec::new();
    // `end` follows the last record that held one; `pos` also steps over
    // empty records (an all-zero header reads as one: len 0, and the
    // CRC-32 of nothing is 0).
    let (mut pos, mut end) = (0usize, 0usize);
    let mut torn = false;
    while pos < data.len() && !zeros(pos) {
        if pos + 8 > data.len() {
            torn = true; // partial header at the tail
            break;
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        let want_crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        let start = pos + 8;
        if start + len > data.len() {
            torn = true; // record body runs past EOF
            break;
        }
        let payload = &data[start..start + len];
        if crc32(payload) != want_crc {
            if zeros(start + len) {
                // Only zeros follow the damaged record: physically
                // indistinguishable from a torn write, so recoverable.
                torn = true;
                break;
            }
            return Err(LsmError::Corruption(format!(
                "wal corrupt mid-log at offset {pos}: crc mismatch with {} bytes following",
                data.len() - (start + len)
            )));
        }
        if let Some(ke) = decode_payload(payload)? {
            out.push(ke);
            end = start + len;
        }
        pos = start + len;
    }
    let mut outcome = ReplayOutcome {
        records: out,
        torn_tail_bytes: 0,
        end: end as u64,
    };
    if torn {
        outcome.torn_tail_bytes = (data.len() - end) as u64;
        // Truncate to the valid prefix so the writer resumes after the last
        // intact record instead of interleaving with torn garbage, and make
        // the repair durable.
        fs.truncate(path, end as u64)?;
        fs.sync_file(path)?;
    }
    Ok(outcome)
}

fn decode_payload(p: &[u8]) -> Result<Option<KeyEntry>> {
    if p.is_empty() {
        return Ok(None);
    }
    let kind = p[0];
    let take = |pos: usize, n: usize| -> Result<&[u8]> {
        p.get(pos..pos + n)
            .ok_or_else(|| LsmError::Corruption("wal payload truncated".into()))
    };
    let klen = u32::from_le_bytes(take(1, 4)?.try_into().unwrap()) as usize;
    let key: Key = Bytes::copy_from_slice(take(5, klen)?);
    match kind {
        KIND_PUT => {
            let vlen = u32::from_le_bytes(take(5 + klen, 4)?.try_into().unwrap()) as usize;
            let value = Bytes::copy_from_slice(take(9 + klen, vlen)?);
            Ok(Some(KeyEntry {
                key,
                entry: Entry::Put(value),
            }))
        }
        KIND_DELETE => Ok(Some(KeyEntry {
            key,
            entry: Entry::Tombstone,
        })),
        other => Err(LsmError::Corruption(format!(
            "unknown wal record kind {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{RealFs, SimFs};
    use std::io::Write;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("adcache-wal-{}-{name}.log", std::process::id()))
    }

    fn real() -> Arc<dyn MetaFs> {
        Arc::new(RealFs::new())
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = WalWriter::open(real(), &path, false).unwrap();
            w.append(b"k1", &Entry::Put(Bytes::from_static(b"v1")))
                .unwrap();
            w.append(b"k2", &Entry::Tombstone).unwrap();
            w.append(b"k1", &Entry::Put(Bytes::from_static(b"v2")))
                .unwrap();
            w.flush().unwrap();
        }
        let outcome = replay(&RealFs::new(), &path).unwrap();
        assert_eq!(outcome.torn_tail_bytes, 0);
        let records = outcome.records;
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].key.as_ref(), b"k1");
        assert_eq!(records[0].entry, Entry::Put(Bytes::from_static(b"v1")));
        assert!(records[1].entry.is_tombstone());
        assert_eq!(records[2].entry, Entry::Put(Bytes::from_static(b"v2")));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_replays_empty() {
        let path = tmp("missing");
        let _ = std::fs::remove_file(&path);
        assert!(replay(&RealFs::new(), &path).unwrap().records.is_empty());
    }

    #[test]
    fn seal_moves_the_segment_aside_and_starts_an_empty_log() {
        let (path, sealed) = (tmp("seal"), tmp("seal-000000"));
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(real(), &path, true).unwrap();
        w.append(b"k", &Entry::Put(Bytes::from_static(b"v")))
            .unwrap();
        assert!(w.seal_to(&sealed).unwrap(), "opened to sync at seal");
        w.restart(None).unwrap();
        assert_eq!(w.segment_bytes(), 0);
        let records = replay(&RealFs::new(), &sealed).unwrap().records;
        assert_eq!(records.len(), 1);
        assert!(replay(&RealFs::new(), &path).unwrap().records.is_empty());
        // The writer appends to the fresh log.
        w.append(b"k2", &Entry::Put(Bytes::from_static(b"v2")))
            .unwrap();
        w.flush().unwrap();
        let records = replay(&RealFs::new(), &path).unwrap().records;
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].key.as_ref(), b"k2");
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&sealed).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_replay_continues() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = WalWriter::open(real(), &path, false).unwrap();
            w.append(b"good", &Entry::Put(Bytes::from_static(b"v")))
                .unwrap();
            w.flush().unwrap();
        }
        let intact_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: write a partial record.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&100u32.to_le_bytes()).unwrap();
            f.write_all(&0u32.to_le_bytes()).unwrap();
            f.write_all(b"partial").unwrap();
        }
        let outcome = replay(&RealFs::new(), &path).unwrap();
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.records[0].key.as_ref(), b"good");
        assert_eq!(outcome.torn_tail_bytes, 8 + 7);
        // The file was truncated back to its valid prefix, so a second
        // replay sees a clean log.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact_len);
        assert_eq!(replay(&RealFs::new(), &path).unwrap().torn_tail_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_tail_record_recovers_like_a_torn_write() {
        let path = tmp("corrupt-tail");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = WalWriter::open(real(), &path, false).unwrap();
            w.append(b"a", &Entry::Put(Bytes::from_static(b"1")))
                .unwrap();
            w.append(b"b", &Entry::Put(Bytes::from_static(b"2")))
                .unwrap();
            w.flush().unwrap();
        }
        // Flip a byte inside the LAST record's payload: physically
        // indistinguishable from a torn append, so recoverable.
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let outcome = replay(&RealFs::new(), &path).unwrap();
        assert_eq!(outcome.records.len(), 1, "replay keeps the intact prefix");
        assert_eq!(outcome.records[0].key.as_ref(), b"a");
        assert!(outcome.torn_tail_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_a_hard_error() {
        let path = tmp("corrupt-mid");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = WalWriter::open(real(), &path, false).unwrap();
            w.append(b"a", &Entry::Put(Bytes::from_static(b"1")))
                .unwrap();
            w.append(b"b", &Entry::Put(Bytes::from_static(b"2")))
                .unwrap();
            w.flush().unwrap();
        }
        // Flip a byte inside the FIRST record's payload: acknowledged data
        // rotted, and dropping the suffix would lose acknowledged writes.
        let mut data = std::fs::read(&path).unwrap();
        data[9] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(
            replay(&RealFs::new(), &path),
            Err(LsmError::Corruption(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn synced_appends_survive_a_simulated_crash() {
        let fs = Arc::new(SimFs::new());
        let path = PathBuf::from("/sim/wal.log");
        let mut w = WalWriter::open(fs.clone(), &path, true).unwrap();
        fs.sync_dir(path.parent().unwrap()).unwrap(); // the creation itself must be durable
        w.append(b"k1", &Entry::Put(Bytes::from_static(b"v1")))
            .unwrap();
        w.sync().unwrap();
        w.append(b"k2", &Entry::Put(Bytes::from_static(b"v2")))
            .unwrap();
        w.flush().unwrap(); // completed but not durable
        fs.crash(41);
        let records = replay(fs.as_ref(), &path).unwrap().records;
        // k1 always survives; k2 may or may not (a torn suffix is also
        // legal) — but nothing beyond what was appended can appear.
        assert!(!records.is_empty());
        assert_eq!(records[0].key.as_ref(), b"k1");
        assert!(records.len() <= 2);
    }

    #[test]
    fn a_torn_record_followed_by_zeros_is_a_torn_tail() {
        let path = tmp("torn-zeros");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = WalWriter::open(real(), &path, false).unwrap();
            w.append(b"good", &Entry::Put(Bytes::from_static(b"v")))
                .unwrap();
            w.flush().unwrap();
        }
        let intact_len = std::fs::metadata(&path).unwrap().len();
        // A crash tore a record written into a recycled log's zeros: its
        // header and part of its payload landed, the rest is still zero.
        let mut torn = Vec::new();
        torn.extend_from_slice(&20u32.to_le_bytes());
        torn.extend_from_slice(&crc32(&[7u8; 20]).to_le_bytes());
        torn.extend_from_slice(&[7u8; 9]);
        torn.resize(4096, 0);
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&torn).unwrap();
        }
        let outcome = replay(&RealFs::new(), &path).unwrap();
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.records[0].key.as_ref(), b"good");
        assert_eq!(outcome.torn_tail_bytes, 4096);
        assert_eq!(outcome.end, intact_len);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact_len);
        // The same record with one nonzero byte after it is rot, not a
        // torn write.
        torn[4000] = 1;
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&torn)
            .unwrap();
        assert!(matches!(
            replay(&RealFs::new(), &path),
            Err(LsmError::Corruption(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_recycled_log_replays_only_its_new_records() {
        let dir = tmp("recycle-dir");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fs = real();
        let (path, segment, spare) = (
            dir.join("wal.log"),
            dir.join("wal-000000.log"),
            dir.join("spare-000000.log"),
        );
        let mut w = WalWriter::open(fs.clone(), &path, true).unwrap();
        let long = Bytes::from(vec![b'x'; 1000]);
        for i in 0..100u32 {
            w.append(&i.to_le_bytes(), &Entry::Put(long.clone()))
                .unwrap();
        }
        assert!(w.seal_to(&segment).unwrap());
        let old_len = fs.len(&segment).unwrap();
        assert!(old_len > FILL_CHUNK as u64, "the fill takes several writes");
        fs.rename(&segment, &spare).unwrap();
        fs.sync_dir(&dir).unwrap();
        zero_fill(fs.as_ref(), &spare).unwrap();
        fs.sync_file(&spare).unwrap();
        assert!(fs.read(&spare).unwrap().unwrap().iter().all(|&b| b == 0));
        w.restart(Some(&spare)).unwrap();
        for key in [&b"a"[..], b"b"] {
            w.append(key, &Entry::Put(Bytes::from_static(b"short")))
                .unwrap();
        }
        w.flush().unwrap();
        let outcome = replay(fs.as_ref(), &path).unwrap();
        let keys: Vec<&[u8]> = outcome.records.iter().map(|r| r.key.as_ref()).collect();
        assert_eq!(keys, [&b"a"[..], b"b"]);
        assert_eq!(outcome.torn_tail_bytes, 0);
        assert_eq!(outcome.end, w.segment_bytes());
        assert_eq!(fs.len(&path).unwrap(), old_len, "the zeros stay");
        // A writer reopened at the end of the records writes over the
        // zeros, and replay reads all three.
        drop(w);
        let mut w = WalWriter::open_at(fs.clone(), &path, outcome.end, true).unwrap();
        w.append(b"c", &Entry::Tombstone).unwrap();
        w.flush().unwrap();
        let records = replay(fs.as_ref(), &path).unwrap().records;
        assert_eq!(records.len(), 3);
        assert!(records[2].entry.is_tombstone());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Recycling against the engine: power cuts at every step of it, and
    // the count of block-freeing calls it leaves on the write path.

    use crate::db::LsmTree;
    use crate::fs::{Op, Probe};
    use crate::history::{History, Violation};
    use crate::options::{Options, SyncPolicy};
    use crate::sstable::DirectProvider;
    use crate::storage::FileStorage;
    use crate::striped::StripedDb;

    const POLICIES: [SyncPolicy; 3] = [SyncPolicy::Always, SyncPolicy::OnFlush, SyncPolicy::Never];

    fn name(path: &Path) -> &str {
        path.file_name().and_then(|n| n.to_str()).unwrap_or("")
    }

    fn spare(path: &Path) -> bool {
        name(path).starts_with("spare-")
    }

    /// `stripes` stripes, their logs under `/r` and tables under `/r/sst`,
    /// on a [`Probe`] over one `SimFs` that cuts the power before its
    /// `cut`-th operation, if one is given. Four rounds each put 16 keys
    /// (every stripe gets some) and flush, so each stripe seals, recycles
    /// and reuses its segments. The power is then cut with `seed`, the
    /// store reopened on the `SimFs`, every key read and the whole store
    /// scanned. Returns what the history oracle finds, and the operations
    /// the store issued before the cut.
    fn recycle_run(
        sync: SyncPolicy,
        stripes: usize,
        cut: Option<usize>,
        seed: u64,
    ) -> (Vec<Violation>, Vec<Op>) {
        let opts = Options {
            sync,
            stripes,
            ..Options::small()
        };
        let sim = Arc::new(SimFs::new());
        let probe = Arc::new(Probe::new(sim.clone(), cut));
        let open = |fs: Arc<dyn MetaFs>| {
            let storage = Arc::new(FileStorage::with_fs("/r/sst", fs.clone())?);
            StripedDb::with_durability_fs(opts.clone(), storage, "/r", fs)
        };
        let key = |i: usize| Bytes::from(format!("key{i:02}"));
        let mut history = History::default();
        if let Ok(db) = open(probe.clone()) {
            'run: for round in 0..4 {
                for i in 0..16 {
                    let value = Bytes::from(format!("r{round}-{i}"));
                    let _ = history.put(key(i), value, |k, v| db.put(k, v));
                    if probe.is_cut() {
                        break 'run;
                    }
                }
                let _ = db.flush();
                if db.memtable_len() == 0 {
                    history.raise_floor();
                }
                if probe.is_cut() {
                    break;
                }
            }
        }
        let mut violations = history.crash(sync);
        sim.crash(seed);
        let db = open(sim.clone()).unwrap_or_else(|e| panic!("reopen after cut {cut:?}: {e}"));
        let dirs: Vec<PathBuf> = match stripes {
            1 => vec!["/r".into()],
            n => (0..n).map(|i| format!("/r/stripe-{i}").into()).collect(),
        };
        for dir in dirs {
            let files = sim.list_dir(&dir).unwrap();
            assert!(!files.iter().any(|p| spare(p)), "a spare outlived the open");
        }
        for i in 0..16 {
            let _ = history.get(key(i), |k| db.get(k, &DirectProvider));
        }
        let _ = history.scan(Bytes::new(), 17, |k, n| db.scan(k, n, &DirectProvider));
        violations.extend(history.check());
        (violations, probe.log())
    }

    /// Where each step of a recycle happened in an uncut run: renaming the
    /// segment to a spare, the directory sync after it, the zero fill, the
    /// file sync, and a seal's rename of the spare to `wal.log`.
    fn recycle_steps(log: &[Op]) -> Vec<usize> {
        let mut steps = Vec::new();
        for (i, op) in log.iter().enumerate() {
            let step = match op {
                Op::Rename(from, to, _) => spare(from) || spare(to),
                Op::WriteAt(path) | Op::SyncFile(path) => spare(path),
                Op::SyncDir(_) => i > 0 && matches!(&log[i - 1], Op::Rename(_, to, _) if spare(to)),
                _ => false,
            };
            if step {
                steps.push(i);
            }
        }
        steps
    }

    /// Every spare was renamed aside, its directory synced, zero-filled
    /// and file-synced in that order, and only then renamed into place.
    fn assert_recycle_order(log: &[Op]) {
        let at = |want: &dyn Fn(&Op) -> bool| log.iter().position(want);
        let mut reused = 0;
        for (i, op) in log.iter().enumerate() {
            let Op::Rename(from, to, _) = op else {
                continue;
            };
            if !spare(to) {
                continue;
            }
            let dir = to.parent().unwrap();
            let fill = at(&|op| matches!(op, Op::WriteAt(p) if p == to)).expect("zero fill");
            let synced = at(&|op| matches!(op, Op::SyncFile(p) if p == to)).expect("file sync");
            let dir_sync = log[i..fill]
                .iter()
                .any(|op| matches!(op, Op::SyncDir(d) if d == dir));
            assert!(
                dir_sync,
                "{}: zero-filled before its rename was durable",
                name(from)
            );
            let last_fill = log
                .iter()
                .rposition(|op| matches!(op, Op::WriteAt(p) if p == to))
                .unwrap();
            assert!(last_fill < synced, "{}: filled after its sync", name(to));
            if let Some(reuse) = at(&|op| matches!(op, Op::Rename(f, _, _) if f == to)) {
                assert!(
                    synced < reuse,
                    "{}: reused before its zeros were durable",
                    name(to)
                );
                reused += 1;
            }
        }
        assert!(reused > 0, "no seal reused a spare");
    }

    fn assert_every_step_survives_a_cut(stripes: usize) {
        for sync in POLICIES {
            let (violations, log) = recycle_run(sync, stripes, None, 0);
            assert!(violations.is_empty(), "{sync:?} uncut: {violations:?}");
            assert_recycle_order(&log);
            let steps = recycle_steps(&log);
            assert!(steps.len() >= 5, "{sync:?}: {} recycle steps", steps.len());
            // The power goes just before each step, and just after it.
            // The power goes just before each step and just after it, on
            // eight seeds, and before every other operation on two.
            let cuts: std::collections::BTreeSet<usize> =
                steps.iter().flat_map(|&i| [i, i + 1]).collect();
            for cut in 0..=log.len() {
                let seeds = if cuts.contains(&cut) { 8 } else { 2 };
                for seed in 0..seeds {
                    let (violations, _) = recycle_run(sync, stripes, Some(cut), seed);
                    let op = &log[cut.min(log.len() - 1)];
                    assert!(
                        violations.is_empty(),
                        "{sync:?}, {stripes} stripes, cut before {op:?}, seed {seed}: {violations:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_power_cut_at_any_recycle_step_loses_nothing_promised_one_stripe() {
        assert_every_step_survives_a_cut(1);
    }

    #[test]
    fn a_power_cut_at_any_recycle_step_loses_nothing_promised_four_stripes() {
        assert_every_step_survives_a_cut(4);
    }

    #[test]
    fn steady_seal_flush_cycles_free_no_disk_block() {
        // After a stripe's first two seals, every seal takes a spare and
        // every manifest commit reuses its backup: no removal, and no
        // rename or whole-file write over an existing file, on the WAL and
        // manifest directory. (Table files live in their own directory;
        // compaction's deletions there are another matter.)
        const N: usize = 8;
        for sync in POLICIES {
            let sim = Arc::new(SimFs::new());
            let probe = Arc::new(Probe::new(sim, None));
            let opts = Options {
                sync,
                ..Options::small()
            };
            let storage = Arc::new(FileStorage::with_fs("/c/sst", probe.clone()).unwrap());
            let meta = Path::new("/c/meta");
            let db = LsmTree::with_durability_fs(opts, storage, meta, probe.clone()).unwrap();
            let cycle = |round: usize| {
                for i in 0..16 {
                    let key = Bytes::from(format!("key{i:02}"));
                    db.put(key, Bytes::from(format!("r{round}"))).unwrap();
                }
                db.flush().unwrap();
            };
            cycle(0);
            cycle(1);
            let start = probe.log().len();
            (2..2 + N).for_each(cycle);
            let log = probe.log();
            let on_meta = |op: &&Op| match op {
                Op::Create(p) | Op::WriteFile(p, _) | Op::WriteAt(p) | Op::Truncate(p) => {
                    p.starts_with(meta)
                }
                Op::Rename(p, _, _) | Op::Remove(p) | Op::SyncFile(p) => p.starts_with(meta),
                Op::SyncDir(d) => d == meta,
            };
            let window: Vec<&Op> = log[start..].iter().filter(on_meta).collect();
            let removes = window
                .iter()
                .filter(|op| matches!(op, Op::Remove(_)))
                .count();
            let onto = window
                .iter()
                .filter(|op| matches!(op, Op::Rename(_, _, true)))
                .count();
            let frees = window.iter().filter(|op| op.frees()).count();
            assert_eq!((removes, onto, frees), (0, 0, 0), "{sync:?}");
            let reuses = window
                .iter()
                .filter(|op| matches!(op, Op::Rename(from, _, _) if spare(from)))
                .count();
            assert_eq!(reuses, N, "{sync:?}: every seal takes a spare");
        }
    }
}
