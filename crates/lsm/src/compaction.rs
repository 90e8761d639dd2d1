//! Compaction: merging runs down the tree.
//!
//! Level 0 compacts as a whole (every run overlaps), pulling in the
//! overlapping slice of Level 1; deeper levels move one table at a time into
//! the overlap below, RocksDB-style. Output tables are cut at the configured
//! SSTable size. Tombstones are dropped only when the output lands at the
//! deepest populated level, where nothing older can hide beneath them.
//!
//! Compactions read through a private [`DirectProvider`] so they neither
//! consult nor pollute the query-path block cache; their device reads are
//! reported in the returned event so the engine can separate query I/O from
//! compaction I/O (the paper's SST-read metric counts only the former).

use crate::error::Result;
use crate::iterator::{MergingIter, Source};
use crate::options::Options;
use crate::sstable::{DirectProvider, TableBuilder, TableIter, TableMeta};
use crate::storage::Storage;
use crate::types::FileId;
use crate::version::{CompactionTask, Version};
use std::sync::Arc;

/// What a finished compaction changed; consumed by cache-invalidation
/// listeners and by the stats collector.
#[derive(Debug, Clone)]
pub struct CompactionEvent {
    /// Level the inputs came from.
    pub from_level: usize,
    /// Level the outputs landed in.
    pub to_level: usize,
    /// File ids deleted by this compaction (cache entries for these blocks
    /// are now stale).
    pub obsolete_files: Vec<FileId>,
    /// File ids created by this compaction.
    pub new_files: Vec<FileId>,
    /// Device block reads performed by the merge.
    pub blocks_read: u64,
    /// Device block writes performed by the merge.
    pub blocks_written: u64,
    /// Whether this was a trivial move (metadata-only: the file slid down a
    /// level untouched, so no blocks were rewritten and — crucially for the
    /// cache layer — no cached blocks became stale).
    pub trivial_move: bool,
}

/// Observer notified after each compaction, while the engine's write lock is
/// held. Implementations must not call back into the engine.
pub trait CompactionListener: Send + Sync {
    /// Called once per finished compaction.
    fn on_compaction(&self, event: &CompactionEvent);
}

/// Executes `task` against `version`, writing outputs through `storage`.
///
/// `next_file` allocates output file ids. Returns the event describing the
/// change. The caller owns locking and listener notification.
pub fn run_compaction(
    version: &mut Version,
    task: CompactionTask,
    opts: &Options,
    storage: &dyn Storage,
    next_file: &mut dyn FnMut() -> FileId,
) -> Result<Option<CompactionEvent>> {
    let (from_level, to_level, inputs_from, inputs_to) = match task {
        CompactionTask::L0ToL1 => {
            let l0: Vec<Arc<TableMeta>> = version.level(0).to_vec();
            if l0.is_empty() {
                return Ok(None);
            }
            let start = l0
                .iter()
                .map(|t| t.smallest.clone())
                .min()
                .expect("non-empty");
            let end = l0
                .iter()
                .map(|t| t.largest.clone())
                .max()
                .expect("non-empty");
            let l1 = version.overlapping(1, &start, Some(&end));
            (0usize, 1usize, l0, l1)
        }
        CompactionTask::LevelDown { level } => {
            let Some(table) = version.pick_table(level) else {
                return Ok(None);
            };
            let below = version.overlapping(level + 1, &table.smallest, Some(&table.largest));
            if below.is_empty() && level + 1 < version.max_levels() {
                // Trivial move (RocksDB optimization): nothing overlaps in
                // the level below, so the table slides down by a metadata
                // edit — zero I/O, zero cache invalidation.
                let id = table.id;
                version.apply_compaction(level, level + 1, &[id], vec![table])?;
                return Ok(Some(CompactionEvent {
                    from_level: level,
                    to_level: level + 1,
                    obsolete_files: Vec::new(),
                    new_files: vec![id],
                    blocks_read: 0,
                    blocks_written: 0,
                    trivial_move: true,
                }));
            }
            (level, level + 1, vec![table], below)
        }
    };

    let provider = DirectProvider;
    let reads_before = storage.stats().reads();
    let writes_before = storage.stats().writes();

    // Rank: source-level tables are newer than target-level tables; within
    // Level 0, higher file ids are newer flushes.
    let mut sources: Vec<(u64, Source<'static>)> = Vec::new();
    for t in &inputs_from {
        let it = TableIter::seek(t.clone(), &provider, storage, &t.smallest)?;
        sources.push((1 + t.id, Source::Table(it)));
    }
    if !inputs_to.is_empty() {
        sources.push((0, Source::level_chain(inputs_to.clone(), b"")));
    }

    // Tombstones can be dropped iff nothing lives below the output level.
    let drop_tombstones =
        ((to_level + 1)..version.max_levels()).all(|l| version.level_files(l) == 0);

    let mut merger = MergingIter::new(sources);
    let mut outputs: Vec<Arc<TableMeta>> = Vec::new();
    let mut builder: Option<TableBuilder> = None;
    while let Some(ke) = merger.next_entry(&provider, storage)? {
        if drop_tombstones && ke.entry.is_tombstone() {
            continue;
        }
        let b = match &mut builder {
            Some(b) => b,
            None => builder.insert(TableBuilder::new(next_file(), opts, storage)?),
        };
        b.add_value(&ke.key, ke.entry.value().map(AsRef::as_ref))?;
        if b.estimated_size() >= opts.sstable_size {
            let finished = builder.take().expect("just inserted");
            outputs.push(finished.finish()?);
        }
    }
    if let Some(b) = builder {
        outputs.push(b.finish()?);
    }

    let obsolete: Vec<FileId> = inputs_from
        .iter()
        .chain(inputs_to.iter())
        .map(|t| t.id)
        .collect();
    let new_files: Vec<FileId> = outputs.iter().map(|t| t.id).collect();
    version.apply_compaction(from_level, to_level, &obsolete, outputs)?;
    // Deleting the obsolete inputs is the CALLER's job, and only after the
    // new version is durably committed (manifest first, delete second): a
    // crash in between must leave orphan files, never a manifest that
    // references deleted tables. See `LsmTree::finish_compaction`.

    Ok(Some(CompactionEvent {
        from_level,
        to_level,
        obsolete_files: obsolete,
        new_files,
        blocks_read: storage.stats().reads() - reads_before,
        blocks_written: storage.stats().writes() - writes_before,
        trivial_move: false,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::table_get;
    use crate::storage::MemStorage;
    use crate::types::Entry;

    fn build(
        id: FileId,
        opts: &Options,
        storage: &dyn Storage,
        entries: &[(&str, Option<&str>)],
    ) -> Arc<TableMeta> {
        let mut b = TableBuilder::new(id, opts, storage).unwrap();
        for (k, v) in entries {
            b.add_value(k.as_bytes(), v.map(str::as_bytes)).unwrap();
        }
        b.finish().unwrap()
    }

    /// Mirrors the engine's post-commit step: obsolete inputs are deleted
    /// only after `run_compaction` returns (see `LsmTree::finish_compaction`).
    fn apply_deletes(storage: &dyn Storage, ev: &CompactionEvent) {
        for id in &ev.obsolete_files {
            storage.delete_table(*id).unwrap();
        }
    }

    #[test]
    fn l0_to_l1_merges_newest_wins() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let mut v = Version::new(4);
        // Older flush (id 1), newer flush (id 2) overwriting "b".
        v.add_l0(build(
            1,
            &opts,
            &storage,
            &[("a", Some("1")), ("b", Some("old"))],
        ));
        v.add_l0(build(
            2,
            &opts,
            &storage,
            &[("b", Some("new")), ("c", Some("3"))],
        ));
        let mut next = 10u64;
        let ev = run_compaction(&mut v, CompactionTask::L0ToL1, &opts, &storage, &mut || {
            next += 1;
            next
        })
        .unwrap()
        .unwrap();
        assert_eq!(ev.from_level, 0);
        assert_eq!(ev.to_level, 1);
        assert_eq!(ev.obsolete_files, vec![2, 1]);
        assert_eq!(v.level_files(0), 0);
        assert_eq!(v.level_files(1), 1);
        assert!(ev.blocks_read >= 2);
        assert!(ev.blocks_written >= 1);
        // Inputs survive until the caller commits and deletes them; after
        // that only the output remains, and it is readable.
        assert_eq!(storage.list_tables().unwrap().len(), 3);
        apply_deletes(&storage, &ev);
        assert_eq!(storage.list_tables().unwrap().len(), 1);
        let out = v.level(1)[0].clone();
        let p = DirectProvider;
        assert_eq!(
            table_get(&out, &p, &storage, b"b")
                .unwrap()
                .unwrap()
                .value()
                .unwrap()
                .as_ref(),
            b"new"
        );
        assert_eq!(out.num_entries, 3);
    }

    #[test]
    fn tombstones_dropped_only_at_bottom() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let mut v = Version::new(4);
        // L2 holds the old value, so an L0->L1 compaction must keep the
        // tombstone; a later L1->L2 compaction may drop it (L3 empty).
        v.apply_compaction(
            1,
            2,
            &[],
            vec![build(1, &opts, &storage, &[("k", Some("old"))])],
        )
        .unwrap();
        v.add_l0(build(2, &opts, &storage, &[("k", None)]));
        let mut next = 10u64;
        let mut alloc = || {
            next += 1;
            next
        };
        let ev = run_compaction(&mut v, CompactionTask::L0ToL1, &opts, &storage, &mut alloc)
            .unwrap()
            .unwrap();
        apply_deletes(&storage, &ev);
        assert_eq!(v.level_files(1), 1, "tombstone must survive to L1");
        let p = DirectProvider;
        assert_eq!(
            table_get(&v.level(1)[0], &p, &storage, b"k").unwrap(),
            Some(Entry::Tombstone)
        );
        // Now push it down into L2 where the old value lives.
        let ev = run_compaction(
            &mut v,
            CompactionTask::LevelDown { level: 1 },
            &opts,
            &storage,
            &mut alloc,
        )
        .unwrap()
        .unwrap();
        apply_deletes(&storage, &ev);
        assert_eq!(v.level_files(1), 0);
        // L3 empty => tombstone and the value it shadowed both vanish.
        assert_eq!(
            v.level_files(2),
            0,
            "tombstone plus shadowed value annihilate"
        );
        assert!(storage.list_tables().unwrap().is_empty());
    }

    #[test]
    fn level_down_merges_overlap_only() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let mut v = Version::new(4);
        v.apply_compaction(
            0,
            1,
            &[],
            vec![build(1, &opts, &storage, &[("c", Some("c1"))])],
        )
        .unwrap();
        v.apply_compaction(
            1,
            2,
            &[],
            vec![
                build(2, &opts, &storage, &[("a", Some("a2")), ("c", Some("c2"))]),
                build(3, &opts, &storage, &[("x", Some("x2"))]),
            ],
        )
        .unwrap();
        let mut next = 10u64;
        let ev = run_compaction(
            &mut v,
            CompactionTask::LevelDown { level: 1 },
            &opts,
            &storage,
            &mut || {
                next += 1;
                next
            },
        )
        .unwrap()
        .unwrap();
        // Table 3 ("x") does not overlap table 1 ("c"), so it survives.
        assert!(ev.obsolete_files.contains(&1));
        assert!(ev.obsolete_files.contains(&2));
        assert!(!ev.obsolete_files.contains(&3));
        assert_eq!(v.level_files(1), 0);
        assert_eq!(v.level_files(2), 2);
        let p = DirectProvider;
        let merged = v.table_for_key(2, b"c").unwrap();
        assert_eq!(
            table_get(&merged, &p, &storage, b"c")
                .unwrap()
                .unwrap()
                .value()
                .unwrap()
                .as_ref(),
            b"c1",
            "L1 version wins over L2"
        );
        v.check_level_invariants().unwrap();
    }

    #[test]
    fn compaction_splits_large_outputs() {
        let mut opts = Options::small();
        opts.sstable_size = 2048;
        let storage = MemStorage::new();
        let mut v = Version::new(4);
        let entries: Vec<(String, String)> = (0..200)
            .map(|i| (format!("k{i:05}"), format!("v{i:05}{}", "x".repeat(50))))
            .collect();
        let refs: Vec<(&str, Option<&str>)> = entries
            .iter()
            .map(|(k, v)| (k.as_str(), Some(v.as_str())))
            .collect();
        v.add_l0(build(1, &opts, &storage, &refs));
        let mut next = 10u64;
        run_compaction(&mut v, CompactionTask::L0ToL1, &opts, &storage, &mut || {
            next += 1;
            next
        })
        .unwrap()
        .unwrap();
        // `(first key, entries, blocks, bytes)` of each output, as cut
        // before the builder kept its size as a running total.
        let cuts: Vec<_> = v
            .level(1)
            .iter()
            .map(|t| {
                let first = String::from_utf8(t.smallest.to_vec()).unwrap();
                (first, t.num_entries, t.num_blocks, t.total_bytes)
            })
            .collect();
        let want = [
            ("k00000", 30, 4, 2050),
            ("k00030", 30, 4, 2050),
            ("k00060", 30, 4, 2050),
            ("k00090", 30, 4, 2051),
            ("k00120", 30, 4, 2050),
            ("k00150", 30, 4, 2050),
            ("k00180", 20, 3, 1372),
        ]
        .map(|(k, e, b, t)| (k.to_string(), e, b, t));
        assert_eq!(cuts, want);
        v.check_level_invariants().unwrap();
    }

    #[test]
    fn non_overlapping_table_moves_trivially() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let mut v = Version::new(4);
        // L1 table "a..f"; L2 table "p..z": no overlap -> trivial move.
        v.apply_compaction(
            0,
            1,
            &[],
            vec![build(
                1,
                &opts,
                &storage,
                &[("a", Some("1")), ("f", Some("2"))],
            )],
        )
        .unwrap();
        v.apply_compaction(
            1,
            2,
            &[],
            vec![build(
                2,
                &opts,
                &storage,
                &[("p", Some("3")), ("z", Some("4"))],
            )],
        )
        .unwrap();
        let reads_before = storage.stats().reads();
        let ev = run_compaction(
            &mut v,
            CompactionTask::LevelDown { level: 1 },
            &opts,
            &storage,
            &mut || panic!("trivial move must not allocate files"),
        )
        .unwrap()
        .unwrap();
        assert!(ev.trivial_move);
        assert!(
            ev.obsolete_files.is_empty(),
            "no invalidation on trivial move"
        );
        assert_eq!(ev.new_files, vec![1]);
        assert_eq!(ev.blocks_read, 0);
        assert_eq!(storage.stats().reads(), reads_before, "zero I/O");
        assert_eq!(v.level_files(1), 0);
        assert_eq!(v.level_files(2), 2);
        // File 1 still readable in its new level.
        let p = DirectProvider;
        let t = v.table_for_key(2, b"a").unwrap();
        assert_eq!(
            table_get(&t, &p, &storage, b"a")
                .unwrap()
                .unwrap()
                .value()
                .unwrap()
                .as_ref(),
            b"1"
        );
        v.check_level_invariants().unwrap();
    }

    #[test]
    fn empty_tasks_are_noops() {
        let opts = Options::small();
        let storage = MemStorage::new();
        let mut v = Version::new(4);
        assert!(
            run_compaction(&mut v, CompactionTask::L0ToL1, &opts, &storage, &mut || 1)
                .unwrap()
                .is_none()
        );
        assert!(run_compaction(
            &mut v,
            CompactionTask::LevelDown { level: 2 },
            &opts,
            &storage,
            &mut || 1
        )
        .unwrap()
        .is_none());
    }
}
