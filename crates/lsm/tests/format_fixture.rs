//! The on-disk format, pinned by a store another commit wrote.
//!
//! `fixtures/parent_store/` is a small durable store — `MANIFEST`, one WAL
//! segment with unflushed writes, two SSTables — written by
//! [`write_fixture`]. Its `MANIFEST` and WAL are as commit `7963166` wrote
//! them; its SSTables as the change that dropped the 5-byte block frame
//! (`flag | raw_len`) wrote them, where a stored block is exactly its
//! encoding. The tests hold the current code to these bytes in both
//! directions: it reads the store back in full, and the same recipe run
//! now writes the same files byte for byte.
//!
//! Two older table formats are kept beside it, and each must be refused,
//! never misread: the table trailer's magic names the format.
//! - `fixtures/framed/` holds the two SSTables as the parent of that change
//!   wrote them (trailer magic `adcSST\x01\x00`), every block behind a
//!   frame, the second table's LZSS-compressed. Table 1's blocks and
//!   metadata are exactly today's but for the frames: only they went.
//! - `fixtures/header_first/` holds them as commit `7a546ec` wrote them,
//!   with the offset table first. Its blocks and metadata blobs are
//!   exactly the bytes of `framed/`: only the offset table and the counts
//!   moved.
//!
//! To pin a later format, run `regenerate_fixture` at the commit whose
//! bytes are to be kept (`cargo test -p adcache-lsm --test format_fixture
//! -- --ignored`) and check the directory in.

use adcache_lsm::{
    Block, DirectProvider, FileStorage, LsmError, LsmTree, Options, Storage, TableMeta,
};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_store")
}

fn framed_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/framed")
}

fn header_first_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/header_first")
}

/// Bytes in front of every block of a `framed/` table: `flag:u8 (0 raw,
/// 1 LZSS) | raw_len:u32`.
const FRAME: usize = 5;

fn table_file(dir: &Path, id: u64) -> Vec<u8> {
    std::fs::read(dir.join(format!("{id:012}.sst"))).unwrap()
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

fn u64_at(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adcache-fixture-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(i: u32) -> Bytes {
    Bytes::from(format!("user{i:020}"))
}

/// 40 bytes of xorshift noise.
fn noise_value(i: u32) -> Bytes {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ ((i as u64 + 1) << 17);
    (0..40)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

fn text_value(i: u32) -> Bytes {
    Bytes::from(format!("value-{i:06}-").repeat(6))
}

fn options() -> Options {
    Options {
        // One flush, one table: nothing rotates or compacts on its own.
        memtable_size: 1 << 20,
        sstable_size: 1 << 20,
        ..Options::small()
    }
}

fn try_open(dir: &Path) -> adcache_lsm::Result<LsmTree> {
    let storage = Arc::new(FileStorage::open(dir.join("sst")).unwrap());
    LsmTree::with_durability(options(), storage, dir.join("meta"))
}

fn open(dir: &Path) -> LsmTree {
    try_open(dir).unwrap()
}

/// The recipe: two lives of one store. What it leaves is [`expected`].
fn write_store(dir: &Path) {
    {
        let db = open(dir);
        for i in 0..300 {
            db.put(key(i), noise_value(i)).unwrap();
        }
        db.flush().unwrap();
    }
    let db = open(dir);
    for i in 200..500 {
        db.put(key(i), text_value(i)).unwrap();
    }
    db.flush().unwrap();
    // The tail only the WAL holds.
    for i in 480..520 {
        db.put(key(i), noise_value(i + 1000)).unwrap();
    }
    for i in (0..100).step_by(10) {
        db.delete(key(i)).unwrap();
    }
}

/// Every live key of the store [`write_store`] leaves, newest value.
fn expected() -> BTreeMap<Bytes, Bytes> {
    let mut model = BTreeMap::new();
    for i in 0..300 {
        model.insert(key(i), noise_value(i));
    }
    for i in 200..500 {
        model.insert(key(i), text_value(i));
    }
    for i in 480..520 {
        model.insert(key(i), noise_value(i + 1000));
    }
    for i in (0..100).step_by(10) {
        model.remove(&key(i));
    }
    model
}

/// `relative path -> contents` of every file under `dir`.
fn files_of(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for sub in ["sst", "meta"] {
        for entry in std::fs::read_dir(dir.join(sub)).unwrap() {
            let path = entry.unwrap().path();
            let name = format!("{sub}/{}", path.file_name().unwrap().to_str().unwrap());
            out.insert(name, std::fs::read(&path).unwrap());
        }
    }
    out
}

fn copy_store(from: &Path, to: &Path) {
    for (name, contents) in files_of(from) {
        let path = to.join(name);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, contents).unwrap();
    }
}

/// [`write_store`], less the spare logs it leaves: flushed WAL segments
/// kept for reuse, all zeros, which replay ignores and an open removes.
fn write_fixture(dir: &Path) {
    write_store(dir);
    for entry in std::fs::read_dir(dir.join("meta")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap();
        if name.starts_with("spare-") {
            let spare = std::fs::read(&path).unwrap();
            assert!(
                spare.iter().all(|&b| b == 0),
                "{name} holds more than zeros"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }
}

/// A table file split at its trailer (`blocks | meta | u64 offset × (n+1)
/// | u32 n | u32 meta_len | u64 magic`): its blocks and its meta blob.
fn split_table(file: &[u8]) -> (Vec<&[u8]>, &[u8]) {
    let trailer = file.len() - 16;
    let (n, meta_len) = (u32_at(file, trailer), u32_at(file, trailer + 4));
    let offsets_at = trailer - (n + 1) * 8;
    let offsets: Vec<usize> = (0..=n).map(|i| u64_at(file, offsets_at + 8 * i)).collect();
    assert_eq!(offsets_at - offsets[n], meta_len);
    let blocks = offsets.windows(2).map(|w| &file[w[0]..w[1]]).collect();
    (blocks, &file[offsets[n]..offsets_at])
}

#[test]
fn fixture_is_the_store_the_header_describes() {
    let files = files_of(&fixture_dir());
    let names: Vec<&str> = files.keys().map(String::as_str).collect();
    assert_eq!(
        names,
        [
            "meta/MANIFEST",
            "meta/MANIFEST.bak",
            "meta/wal.log",
            "sst/000000000001.sst",
            "sst/000000000002.sst"
        ]
    );
    assert!(!files["meta/wal.log"].is_empty(), "the WAL holds the tail");
    // What storage returns is the block's encoding, nothing in front.
    let storage = FileStorage::open(fixture_dir().join("sst")).unwrap();
    for id in [1, 2] {
        let meta = TableMeta::decode(&storage.read_meta(id).unwrap()).unwrap();
        assert!(meta.num_blocks > 1);
        let stored: u64 = (0..meta.num_blocks)
            .map(|b| {
                let block = storage.read_block(id, b).unwrap();
                let len = block.len() as u64;
                Block::decode(block).unwrap();
                len
            })
            .sum();
        assert_eq!(stored, meta.total_bytes, "table {id}");
    }
}

#[test]
fn store_written_by_the_parent_reads_back_in_full() {
    // Opening replays (and may repair) the WAL: work on a copy.
    let dir = scratch_dir("read");
    copy_store(&fixture_dir(), &dir);
    let db = open(&dir);
    let model = expected();
    for i in 0..520 {
        assert_eq!(
            db.get(&key(i), &DirectProvider).unwrap(),
            model.get(&key(i)).cloned(),
            "key {i}"
        );
    }
    let live: Vec<(Bytes, Bytes)> = model.into_iter().collect();
    assert_eq!(db.scan(b"", 10_000, &DirectProvider).unwrap(), live);
    // Two more flushes reach the Level-0 trigger, and the compaction reads
    // every block of both of the parent's tables through the merge path.
    db.flush().unwrap();
    db.put(key(0), noise_value(0)).unwrap();
    db.delete(key(0)).unwrap();
    db.flush().unwrap();
    while db.maybe_compact_once().unwrap() {}
    assert!(db.stats().compactions.get() > 0);
    assert_eq!(db.level_summary()[0].1, 0, "Level 0 was merged down");
    assert_eq!(db.scan(b"", 10_000, &DirectProvider).unwrap(), live);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_same_recipe_writes_the_parents_bytes() {
    let dir = scratch_dir("write");
    write_fixture(&dir);
    let (ours, theirs) = (files_of(&dir), files_of(&fixture_dir()));
    assert_eq!(
        ours.keys().collect::<Vec<_>>(),
        theirs.keys().collect::<Vec<_>>()
    );
    for (name, contents) in &theirs {
        assert!(
            &ours[name] == contents,
            "{name} differs from the parent's ({} vs {} bytes)",
            ours[name].len(),
            contents.len()
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_header_first_table_is_refused_not_misread() {
    let storage = FileStorage::open(header_first_dir()).unwrap();
    for id in [1, 2] {
        assert!(matches!(
            storage.read_meta(id),
            Err(LsmError::Corruption(_))
        ));
        assert!(matches!(
            storage.read_block(id, 0),
            Err(LsmError::Corruption(_))
        ));
    }
}

#[test]
fn only_the_offset_table_and_the_counts_moved() {
    for id in [1, 2] {
        let old = table_file(&header_first_dir(), id);
        let new = table_file(&framed_dir(), id);
        // Old: `u32 n | u32 meta_len | u64 offset × (n+1) | blocks | meta`,
        // offsets from the start of the file.
        let (n, meta_len) = (u32_at(&old, 0), u32_at(&old, 4));
        let header = 8 + (n + 1) * 8;
        let old_offsets: Vec<usize> = (0..=n).map(|i| u64_at(&old, 8 + 8 * i)).collect();
        // New: `blocks | meta | u64 offset × (n+1) | u32 n | u32 meta_len |
        // u64 magic`.
        let trailer = new.len() - 16;
        assert_eq!(
            (u32_at(&new, trailer), u32_at(&new, trailer + 4)),
            (n, meta_len)
        );
        let offsets_at = trailer - (n + 1) * 8;
        let new_offsets: Vec<usize> = (0..=n).map(|i| u64_at(&new, offsets_at + 8 * i)).collect();
        assert_eq!(
            new_offsets,
            old_offsets.iter().map(|o| o - header).collect::<Vec<_>>(),
            "table {id}: every block keeps its length and order"
        );
        assert_eq!(
            new[..new_offsets[n]],
            old[header..old_offsets[n]],
            "table {id}: block region"
        );
        assert_eq!(
            new[new_offsets[n]..offsets_at],
            old[old_offsets[n]..],
            "table {id}: meta blob"
        );
        assert_eq!(offsets_at - new_offsets[n], meta_len);
    }
}

#[test]
fn a_framed_table_is_refused_not_misread() {
    let storage = FileStorage::open(framed_dir()).unwrap();
    for id in [1, 2] {
        assert!(matches!(
            storage.read_meta(id),
            Err(LsmError::Corruption(_))
        ));
        assert!(matches!(
            storage.read_block(id, 0),
            Err(LsmError::Corruption(_))
        ));
    }
    // The store as the parent left it: its manifest names both tables, and
    // under `on_flush` a table that does not open fails the open.
    let dir = scratch_dir("framed");
    copy_store(&fixture_dir(), &dir);
    for id in [1, 2] {
        let name = format!("{id:012}.sst");
        std::fs::copy(framed_dir().join(&name), dir.join("sst").join(&name)).unwrap();
    }
    assert_eq!(options().sync, adcache_lsm::SyncPolicy::OnFlush);
    assert!(matches!(try_open(&dir), Err(LsmError::Corruption(_))));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn only_the_frames_went() {
    let old = table_file(&framed_dir(), 1);
    let new = table_file(&fixture_dir().join("sst"), 1);
    let ((old_blocks, old_meta), (new_blocks, new_meta)) = (split_table(&old), split_table(&new));
    assert_eq!(old_blocks.len(), new_blocks.len());
    for (i, (old, new)) in old_blocks.iter().zip(&new_blocks).enumerate() {
        // A raw frame: flag 0, then the length of the block it carries.
        let frame = [&[0u8][..], &(new.len() as u32).to_le_bytes()].concat();
        assert_eq!(old[..FRAME], frame[..], "block {i}: frame");
        assert_eq!(old[FRAME..], new[..], "block {i}");
    }
    // The meta blobs differ only in the stored bytes they count.
    let mut old_meta = TableMeta::decode(old_meta).unwrap();
    let new_meta_decoded = TableMeta::decode(new_meta).unwrap();
    assert_eq!(
        old_meta.total_bytes - new_meta_decoded.total_bytes,
        (FRAME * new_blocks.len()) as u64
    );
    old_meta.total_bytes = new_meta_decoded.total_bytes;
    assert_eq!(old_meta.encode()[..], new_meta[..]);
}

#[test]
#[ignore = "rewrites the checked-in fixture with whatever code is checked out"]
fn regenerate_fixture() {
    let _ = std::fs::remove_dir_all(fixture_dir());
    write_fixture(&fixture_dir());
}
