//! Write-ahead log.
//!
//! When the engine runs with durability enabled, every write is appended
//! to the WAL before it touches the memtable (the paper's read path checks
//! "the MemTable and any unflushed data in the Write-ahead Log"). Each
//! memtable seal renames the log to a numbered segment and starts a fresh
//! one; the segment is deleted once its memtable's flush is installed, so
//! the segments plus the log always hold a superset of the memtables and
//! crash recovery is a simple in-order replay. Records carry a CRC-32 so a
//! torn tail write is detected and recovery stops cleanly at the last
//! complete record.
//!
//! Record layout: `len:u32 | crc32:u32 | payload[len]` where the payload is
//! `kind:u8 | klen:u32 | key | (vlen:u32 | value)?` (value only for puts).

use crate::error::{LsmError, Result};
use crate::fs::MetaFs;
use crate::types::{Entry, Key, KeyEntry};
use bytes::Bytes;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const KIND_PUT: u8 = 1;
const KIND_DELETE: u8 = 2;

/// Slicing-by-8 lookup tables for [`crc32`]: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table of the reflected IEEE polynomial, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected), eight input bytes per step
/// (slicing-by-8); the tail shorter than eight goes byte by byte.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Append-only writer for the WAL file.
///
/// All I/O goes through a [`MetaFs`], so crash drills can interpose a
/// write-back cache: a flushed record has merely *completed*; only
/// [`WalWriter::sync`] makes it durable.
pub struct WalWriter {
    path: PathBuf,
    fs: Arc<dyn MetaFs>,
    /// Records encoded but not yet pushed to the filesystem.
    buf: Vec<u8>,
    /// Fsync a segment when [`WalWriter::seal_to`] seals it, so a crash
    /// can never tear it into a stale prefix that shadows the SSTable its
    /// memtable became. Off under `SyncPolicy::Never` (and under the
    /// `FsyncSite::WalReset` misplacement hook).
    sync_at_seal: bool,
    /// Records appended to the current segment (since the last seal).
    segment_appends: u64,
    /// Bytes appended to the current segment (since the last seal).
    segment_bytes: u64,
}

impl WalWriter {
    /// Opens (appending) or creates the log at `path`.
    pub fn open(fs: Arc<dyn MetaFs>, path: impl Into<PathBuf>, sync_at_seal: bool) -> Result<Self> {
        let path = path.into();
        if !fs.exists(&path) {
            fs.write_file(&path, &[])?;
        }
        Ok(WalWriter {
            path,
            fs,
            buf: Vec::new(),
            sync_at_seal,
            segment_appends: 0,
            segment_bytes: 0,
        })
    }

    /// Records appended since the last [`WalWriter::seal_to`].
    pub fn segment_appends(&self) -> u64 {
        self.segment_appends
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
        self.segment_appends += 1;
        self.segment_bytes += 8 + payload.len() as u64;
        Ok(())
    }

    /// Pushes buffered records to the filesystem (completed, not durable).
    pub fn flush(&mut self) -> Result<()> {
        if !self.buf.is_empty() {
            self.fs.append(&self.path, &self.buf)?;
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
    /// flush) and starts an empty log at the writer's path. The segment is
    /// fsynced first when the writer was opened with `sync_at_seal`;
    /// returns whether it was. The rename and the new log are durable only
    /// once their directory is synced.
    pub fn seal_to(&mut self, to: &Path) -> Result<bool> {
        self.flush()?;
        if self.sync_at_seal {
            self.fs.sync_file(&self.path)?;
        }
        self.fs.rename(&self.path, to)?;
        self.fs.write_file(&self.path, &[])?;
        // The new segment starts as a freshly opened writer does: the
        // batch buffer goes back to the allocator while the flush builds.
        self.buf = Vec::new();
        self.segment_appends = 0;
        self.segment_bytes = 0;
        Ok(self.sync_at_seal)
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
}

/// Replays a WAL file in order, distinguishing two failure shapes:
///
/// - **Torn tail** — the *last physical record* is incomplete or fails its
///   CRC. That is exactly what a crash mid-append produces; losing it is
///   not data loss because the record was never acknowledged. The tail is
///   truncated off the file and replay succeeds with
///   [`ReplayOutcome::torn_tail_bytes`] > 0.
/// - **Mid-log corruption** — a record *before* the physical tail fails
///   its CRC. No crash produces that; it is bit rot of acknowledged data,
///   and silently dropping the suffix would lose acknowledged writes. This
///   is a hard [`LsmError::Corruption`].
pub fn replay(fs: &dyn MetaFs, path: &Path) -> Result<ReplayOutcome> {
    let Some(data) = fs.read(path)? else {
        return Ok(ReplayOutcome::default());
    };
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut torn = false;
    while pos < data.len() {
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
            if start + len == data.len() {
                // The final record is exactly the damaged one: physically
                // indistinguishable from a torn append, so recoverable.
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
        }
        pos = start + len;
    }
    let mut outcome = ReplayOutcome {
        records: out,
        torn_tail_bytes: 0,
    };
    if torn {
        outcome.torn_tail_bytes = (data.len() - pos) as u64;
        // Truncate to the valid prefix so the writer appends after the last
        // intact record instead of interleaving with torn garbage, and make
        // the repair durable.
        fs.truncate(path, pos as u64)?;
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

    /// The byte-at-a-time routine `crc32` replaced, kept as the reference
    /// the sliced one must agree with bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
        let table = TABLE.get_or_init(|| {
            let mut t = [0u32; 256];
            for (i, slot) in t.iter_mut().enumerate() {
                let mut c = i as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
                *slot = c;
            }
            t
        });
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_the_bytewise_reference_at_every_length_and_alignment() {
        // 8 spare bytes so every start alignment has 4 096 bytes after it.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for align in 0..8 {
            for len in 0..=4096 {
                let data = &buf[align..align + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "align {align} len {len}");
            }
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
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
        assert_eq!((w.segment_appends(), w.segment_bytes()), (0, 0));
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
}
