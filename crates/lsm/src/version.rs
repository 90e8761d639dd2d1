//! Level bookkeeping: which SSTables are live and where.
//!
//! The tree follows RocksDB's 1-leveling: Level 0 holds overlapping sorted
//! runs in flush order (newest first); every deeper level is a single sorted
//! run partitioned into non-overlapping tables. The version is mutated in
//! place under the engine's write lock — reads hold the read lock for their
//! whole duration, so no MVCC snapshots are needed.

use crate::error::{LsmError, Result};
use crate::options::Options;
use crate::sstable::TableMeta;
use crate::types::FileId;
use std::sync::Arc;

/// Levels in a tree, Level 0 included.
pub const MAX_LEVELS: usize = 7;

/// The live-table manifest.
#[derive(Clone)]
pub struct Version {
    /// `levels[0]` is Level 0, newest run first. Deeper levels are sorted by
    /// smallest key and pairwise non-overlapping.
    levels: Vec<Vec<Arc<TableMeta>>>,
    /// Round-robin compaction cursors, one per level.
    cursors: Vec<usize>,
}

/// What a compaction decided to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactionTask {
    /// Merge every Level-0 run, plus overlapping Level-1 tables, into L1.
    L0ToL1,
    /// Merge one table from `level` with overlaps in `level + 1`.
    LevelDown {
        /// Source level (>= 1).
        level: usize,
    },
}

impl Version {
    /// Creates an empty manifest with `max_levels` levels (a tree has
    /// [`MAX_LEVELS`]).
    pub fn new(max_levels: usize) -> Self {
        Version {
            levels: vec![Vec::new(); max_levels],
            cursors: vec![0; max_levels],
        }
    }

    /// Number of levels (fixed at construction).
    pub fn max_levels(&self) -> usize {
        self.levels.len()
    }

    /// Tables in `level`, in search order.
    pub fn level(&self, level: usize) -> &[Arc<TableMeta>] {
        &self.levels[level]
    }

    /// Registers a fresh flush output as the newest Level-0 run.
    pub fn add_l0(&mut self, meta: Arc<TableMeta>) {
        self.levels[0].insert(0, meta);
    }

    /// Re-registers a table during recovery, appending in manifest order
    /// (Level 0 is recorded newest-first; deeper levels key-sorted).
    pub fn restore_table(&mut self, level: usize, meta: Arc<TableMeta>) -> Result<()> {
        if level >= self.levels.len() {
            return Err(LsmError::Corruption(format!(
                "manifest level {level} out of range"
            )));
        }
        self.levels[level].push(meta);
        Ok(())
    }

    /// Installs compaction results: removes `deleted` from `from_level` and
    /// `to_level`, and inserts `added` into `to_level` keeping key order.
    pub fn apply_compaction(
        &mut self,
        from_level: usize,
        to_level: usize,
        deleted: &[FileId],
        added: Vec<Arc<TableMeta>>,
    ) -> Result<()> {
        if to_level >= self.levels.len() {
            return Err(LsmError::InvalidArgument(
                "compaction below bottom level".into(),
            ));
        }
        for lvl in [from_level, to_level] {
            self.levels[lvl].retain(|t| !deleted.contains(&t.id));
        }
        for meta in added {
            let pos = self.levels[to_level].partition_point(|t| t.smallest < meta.smallest);
            self.levels[to_level].insert(pos, meta);
        }
        // Sanity: deeper levels must stay non-overlapping.
        debug_assert!(self.check_level_invariants().is_ok());
        Ok(())
    }

    /// Validates that levels >= 1 are sorted and non-overlapping.
    pub fn check_level_invariants(&self) -> Result<()> {
        for (lvl, tables) in self.levels.iter().enumerate().skip(1) {
            for pair in tables.windows(2) {
                if pair[0].largest >= pair[1].smallest {
                    return Err(LsmError::Corruption(format!(
                        "level {lvl} tables overlap: {:?} vs {:?}",
                        pair[0].id, pair[1].id
                    )));
                }
            }
        }
        Ok(())
    }

    /// Total data bytes in `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|t| t.total_bytes).sum()
    }

    /// Every live table, level by level.
    pub fn tables(&self) -> impl Iterator<Item = &Arc<TableMeta>> {
        self.levels.iter().flatten()
    }

    /// Number of files in `level`.
    pub fn level_files(&self, level: usize) -> usize {
        self.levels[level].len()
    }

    /// Number of sorted runs: each L0 file is a run; each non-empty deeper
    /// level is one run. This is `r` in the paper's reward model.
    pub fn num_runs(&self) -> usize {
        self.levels[0].len() + self.levels.iter().skip(1).filter(|l| !l.is_empty()).count()
    }

    /// Number of non-empty levels, i.e. `L` in the paper's reward model
    /// (counting Level 0 as one level when populated).
    pub fn num_levels_nonempty(&self) -> usize {
        self.levels.iter().filter(|l| !l.is_empty()).count()
    }

    /// Index of the deepest non-empty level, or 0.
    pub fn deepest_level(&self) -> usize {
        self.levels.iter().rposition(|l| !l.is_empty()).unwrap_or(0)
    }

    /// Every live file id.
    pub fn live_files(&self) -> Vec<FileId> {
        self.levels.iter().flatten().map(|t| t.id).collect()
    }

    /// Tables in `level` overlapping `[start, end]`; `end = None` means
    /// unbounded above. For L0, returns every overlapping run newest-first.
    pub fn overlapping(
        &self,
        level: usize,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> Vec<Arc<TableMeta>> {
        self.levels[level]
            .iter()
            .filter(|t| t.overlaps(start, end))
            .cloned()
            .collect()
    }

    /// In a deeper level, the single table that could contain `key`.
    pub fn table_for_key(&self, level: usize, key: &[u8]) -> Option<Arc<TableMeta>> {
        debug_assert!(level >= 1);
        let tables = &self.levels[level];
        let pp = tables.partition_point(|t| t.smallest.as_ref() <= key);
        if pp == 0 {
            return None;
        }
        let t = &tables[pp - 1];
        t.key_in_range(key).then(|| t.clone())
    }

    /// In a deeper level, the tables with `largest >= from`, in key order —
    /// the chain a scan starting at `from` walks.
    pub fn tables_from(&self, level: usize, from: &[u8]) -> Vec<Arc<TableMeta>> {
        debug_assert!(level >= 1);
        let tables = &self.levels[level];
        let pp = tables.partition_point(|t| t.largest.as_ref() < from);
        tables[pp..].to_vec()
    }

    /// Chooses the next compaction, if any is needed.
    ///
    /// Level 0 compacts when its file count reaches the trigger; deeper
    /// levels compact when their byte size exceeds the budget derived from
    /// [`SIZE_RATIO`](crate::options::SIZE_RATIO). The most overfull level
    /// wins.
    pub fn pick_compaction(&self, opts: &Options) -> Option<CompactionTask> {
        if self.levels[0].len() >= opts.l0_compaction_trigger {
            return Some(CompactionTask::L0ToL1);
        }
        let mut best: Option<(f64, usize)> = None;
        for lvl in 1..self.levels.len() - 1 {
            let max = opts.level_max_bytes(lvl) as f64;
            let score = self.level_bytes(lvl) as f64 / max;
            if score > 1.0 && best.is_none_or(|(s, _)| score > s) {
                best = Some((score, lvl));
            }
        }
        best.map(|(_, level)| CompactionTask::LevelDown { level })
    }

    /// Picks the source table for a `LevelDown { level }` task using the
    /// per-level round-robin cursor (RocksDB's default heuristic).
    pub fn pick_table(&mut self, level: usize) -> Option<Arc<TableMeta>> {
        let tables = &self.levels[level];
        if tables.is_empty() {
            return None;
        }
        let cursor = self.cursors[level] % tables.len();
        self.cursors[level] = cursor + 1;
        Some(tables[cursor].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bloom::BloomFilter;
    use crate::sstable::BlockIndex;
    use bytes::Bytes;

    fn meta(id: FileId, smallest: &str, largest: &str, bytes: u64) -> Arc<TableMeta> {
        let mut index = BlockIndex::default();
        index.push(smallest.as_bytes());
        Arc::new(TableMeta {
            id,
            num_blocks: 1,
            num_entries: 1,
            total_bytes: bytes,
            smallest: Bytes::copy_from_slice(smallest.as_bytes()),
            largest: Bytes::copy_from_slice(largest.as_bytes()),
            index,
            bloom: BloomFilter::build(&[smallest.as_bytes()], 10),
        })
    }

    #[test]
    fn l0_is_newest_first() {
        let mut v = Version::new(7);
        v.add_l0(meta(1, "a", "m", 10));
        v.add_l0(meta(2, "c", "z", 10));
        assert_eq!(v.level(0)[0].id, 2);
        assert_eq!(v.level(0)[1].id, 1);
        assert_eq!(v.num_runs(), 2);
    }

    #[test]
    fn apply_compaction_moves_files_and_sorts() {
        let mut v = Version::new(7);
        v.add_l0(meta(1, "a", "m", 10));
        v.add_l0(meta(2, "n", "z", 10));
        v.apply_compaction(
            0,
            1,
            &[1, 2],
            vec![meta(4, "n", "z", 10), meta(3, "a", "m", 10)],
        )
        .unwrap();
        assert_eq!(v.level_files(0), 0);
        assert_eq!(v.level_files(1), 2);
        assert_eq!(v.level(1)[0].id, 3);
        assert_eq!(v.level(1)[1].id, 4);
        assert_eq!(v.num_runs(), 1);
        assert_eq!(v.num_levels_nonempty(), 1);
        assert_eq!(v.deepest_level(), 1);
        v.check_level_invariants().unwrap();
    }

    #[test]
    fn invariant_detects_overlap() {
        let mut v = Version::new(7);
        v.apply_compaction(0, 1, &[], vec![meta(1, "a", "m", 10)])
            .unwrap();
        // Force an overlapping insert bypassing the checked path.
        v.levels[1].push(meta(2, "k", "z", 10));
        assert!(v.check_level_invariants().is_err());
    }

    #[test]
    fn table_for_key_routes_correctly() {
        let mut v = Version::new(7);
        v.apply_compaction(
            0,
            1,
            &[],
            vec![
                meta(1, "a", "f", 10),
                meta(2, "h", "m", 10),
                meta(3, "p", "z", 10),
            ],
        )
        .unwrap();
        assert_eq!(v.table_for_key(1, b"b").unwrap().id, 1);
        assert_eq!(v.table_for_key(1, b"h").unwrap().id, 2);
        assert_eq!(v.table_for_key(1, b"m").unwrap().id, 2);
        assert!(v.table_for_key(1, b"g").is_none(), "gap between tables");
        assert!(v.table_for_key(1, b"A").is_none(), "before first");
        assert_eq!(v.table_for_key(1, b"z").unwrap().id, 3);
    }

    #[test]
    fn tables_from_returns_scan_chain() {
        let mut v = Version::new(7);
        v.apply_compaction(
            0,
            1,
            &[],
            vec![
                meta(1, "a", "f", 10),
                meta(2, "h", "m", 10),
                meta(3, "p", "z", 10),
            ],
        )
        .unwrap();
        let chain: Vec<_> = v.tables_from(1, b"i").iter().map(|t| t.id).collect();
        assert_eq!(chain, vec![2, 3]);
        let chain: Vec<_> = v.tables_from(1, b"g").iter().map(|t| t.id).collect();
        assert_eq!(chain, vec![2, 3]);
        assert!(v.tables_from(1, b"zz").is_empty());
    }

    #[test]
    fn pick_compaction_prefers_l0_then_overfull_level() {
        let opts = Options {
            l0_compaction_trigger: 2,
            l1_max_bytes: 100,
            ..Options::small()
        };
        let mut v = Version::new(4);
        assert_eq!(v.pick_compaction(&opts), None);
        v.add_l0(meta(1, "a", "b", 10));
        v.add_l0(meta(2, "a", "b", 10));
        assert_eq!(v.pick_compaction(&opts), Some(CompactionTask::L0ToL1));
        // Clear L0; overfill L1.
        v.apply_compaction(0, 1, &[1, 2], vec![meta(3, "a", "m", 150)])
            .unwrap();
        assert_eq!(
            v.pick_compaction(&opts),
            Some(CompactionTask::LevelDown { level: 1 })
        );
        // Move to L2 (within budget 100*ratio) => nothing to do.
        v.apply_compaction(1, 2, &[3], vec![meta(4, "a", "m", 150)])
            .unwrap();
        assert_eq!(v.pick_compaction(&opts), None);
    }

    #[test]
    fn round_robin_table_picking() {
        let mut v = Version::new(4);
        v.apply_compaction(0, 1, &[], vec![meta(1, "a", "b", 1), meta(2, "c", "d", 1)])
            .unwrap();
        assert_eq!(v.pick_table(1).unwrap().id, 1);
        assert_eq!(v.pick_table(1).unwrap().id, 2);
        assert_eq!(v.pick_table(1).unwrap().id, 1);
        assert!(v.pick_table(3).is_none());
    }

    #[test]
    fn overlapping_filters_by_range() {
        let mut v = Version::new(4);
        v.add_l0(meta(1, "a", "f", 1));
        v.add_l0(meta(2, "e", "k", 1));
        v.add_l0(meta(3, "x", "z", 1));
        let ids: Vec<_> = v
            .overlapping(0, b"d", Some(b"g"))
            .iter()
            .map(|t| t.id)
            .collect();
        assert_eq!(ids, vec![2, 1]); // newest first
        let ids: Vec<_> = v.overlapping(0, b"y", None).iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![3]);
    }

    #[test]
    fn live_files_lists_everything() {
        let mut v = Version::new(4);
        v.add_l0(meta(1, "a", "b", 1));
        v.apply_compaction(0, 1, &[], vec![meta(2, "c", "d", 1)])
            .unwrap();
        let mut files = v.live_files();
        files.sort_unstable();
        assert_eq!(files, vec![1, 2]);
    }
}
