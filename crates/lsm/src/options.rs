//! Engine configuration.

/// When the engine issues device syncs (fsync) for its durability
/// metadata — WAL, manifest, and SSTable files.
///
/// The policy only matters when the engine runs with a durability
/// directory; purely in-memory trees never sync. Costs are charged to the
/// simulated clock at [`crate::storage::SYNC_NS`] each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Sync the WAL after every write batch and sync every flush /
    /// compaction artifact (file and directory). No acked write is ever
    /// lost to a crash.
    Always,
    /// Push WAL appends to the OS per write but only fsync at flush and
    /// compaction boundaries. A crash can lose the unsynced memtable tail,
    /// but never data that a flush made durable. This mirrors common
    /// production defaults (RocksDB with `sync=false` + WAL).
    #[default]
    OnFlush,
    /// Never fsync anything. A crash can lose any unsynced suffix of the
    /// history; recovery must still succeed on whatever survived.
    Never,
}

impl SyncPolicy {
    /// Stable lowercase name (CLI flag value).
    pub fn name(self) -> &'static str {
        match self {
            SyncPolicy::Always => "always",
            SyncPolicy::OnFlush => "on_flush",
            SyncPolicy::Never => "never",
        }
    }

    /// Parses a CLI flag value; accepts the stable names.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(SyncPolicy::Always),
            "on_flush" | "on-flush" | "onflush" => Some(SyncPolicy::OnFlush),
            "never" => Some(SyncPolicy::Never),
            _ => None,
        }
    }

    /// All policies, for matrix-style tests and drills.
    pub fn all() -> [SyncPolicy; 3] {
        [SyncPolicy::Always, SyncPolicy::OnFlush, SyncPolicy::Never]
    }
}

/// A deliberately *suppressed* fsync site — a guarded test hook that
/// re-introduces one of the durability bugs this engine fixes, so crash
/// drills can prove they detect each hole. Never set in production paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncSite {
    /// Skip the per-batch WAL sync under [`SyncPolicy::Always`]: acks come
    /// out of an unsynced buffer again.
    WalAppend,
    /// Skip the syncs that make retiring a WAL segment safe: the outgoing
    /// segment's sync at a seal, and the directory and file syncs that
    /// make a flushed segment's rename to a spare and its zero fill
    /// durable (the label is older than seals and recycling). A segment
    /// whose retirement a crash undoes comes back torn or half zeroed: it
    /// replays stale records over the newer SST it became, or fails the
    /// open.
    WalReset,
    /// Skip the parent-directory fsync after the manifest renames, and the
    /// one a flush's segment recycling issues right after them: the
    /// committed manifest itself is not durable.
    ManifestDir,
    /// Skip the storage-directory fsync after SSTable creation: flushed
    /// tables can vanish even though the manifest references them.
    SstDir,
}

impl FsyncSite {
    /// Stable lowercase label (CLI flag value).
    pub fn label(self) -> &'static str {
        match self {
            FsyncSite::WalAppend => "wal_append",
            FsyncSite::WalReset => "wal_reset",
            FsyncSite::ManifestDir => "manifest_dir",
            FsyncSite::SstDir => "sst_dir",
        }
    }

    /// Parses a CLI flag value; accepts the stable labels.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "wal_append" => Some(FsyncSite::WalAppend),
            "wal_reset" => Some(FsyncSite::WalReset),
            "manifest_dir" => Some(FsyncSite::ManifestDir),
            "sst_dir" => Some(FsyncSite::SstDir),
            _ => None,
        }
    }
}

/// Size ratio between adjacent levels (paper: 10).
pub const SIZE_RATIO: usize = 10;

/// Number of Level-0 files at which writes are slowed (paper: 4).
pub(crate) const L0_SLOWDOWN_FILES: usize = 4;

/// Tuning knobs for the LSM-tree, mirroring the paper's experimental setup
/// (Section 5.1) at a configurable scale.
///
/// The defaults model the paper's RocksDB configuration proportionally:
/// 1-leveling (leveled compaction with a tiered Level 0), size ratio 10
/// between levels ([`SIZE_RATIO`]), Bloom filters at 10 bits per key, write
/// slowdown at 4 Level-0 files and stop at 8.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Target encoded size of one data block in bytes (paper: 4 KiB).
    pub block_size: usize,
    /// Number of keys between restart points inside a block.
    pub block_restart_interval: usize,
    /// Target total size of one SSTable in bytes (paper: 4 MiB).
    pub sstable_size: usize,
    /// Memtable flush threshold in bytes. A stripe's first memtable after
    /// open seals at its phase instead, between `(stripe_index + 1) /
    /// stripes` of this and below twice this, so stripes seal out of phase.
    pub memtable_size: usize,
    /// Number of Level-0 files that triggers an L0->L1 compaction.
    pub l0_compaction_trigger: usize,
    /// Number of Level-0 files at which writes stall (paper: 8);
    /// used as `r0_max` in the reward model.
    pub l0_stop_files: usize,
    /// Maximum bytes in Level 1; deeper levels scale by [`SIZE_RATIO`].
    pub l1_max_bytes: usize,
    /// Retries for a failed query-path block read before the error
    /// surfaces (transient device errors and checksum failures resolve on
    /// re-read; see `fault::FaultStorage`). Zero disables retrying.
    pub read_retries: u32,
    /// Fsync placement policy for the durability path (WAL, manifest,
    /// SSTables). Ignored by purely in-memory trees.
    pub sync: SyncPolicy,
    /// Test hook: suppress the fsync at exactly one site, re-introducing a
    /// known durability bug so crash drills can prove they catch it.
    /// `None` (the only sane production value) syncs every site the policy
    /// requires.
    pub misplaced_fsync: Option<FsyncSite>,
    /// Number of keyspace stripes for [`crate::striped::StripedDb`]: each
    /// stripe is an independent engine (own memtable, WAL segments, SST
    /// levels, manifest shard) selected by a hash of the key. `1` keeps
    /// the classic single-engine layout. Also doubles as the file-id
    /// allocation stride so stripes sharing one storage device never
    /// collide.
    pub stripes: usize,
    /// Which stripe this engine instance is (`0..stripes`). Determines the
    /// file-id residue class this engine allocates from when several
    /// stripes share one storage device, and the seal phase of its first
    /// memtable. Leave 0 for standalone trees.
    pub stripe_index: usize,
    /// Who runs the one maintenance path (seal, flush, due compactions):
    /// on, a worker pool that [`crate::striped::StripedDb`] attaches; off
    /// (the default, deterministic, what simulations and tests rely on),
    /// the writer whose commit sealed, once the commit drops the engine
    /// lock. The serving layer turns it on above one stripe.
    pub background_maintenance: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            block_size: 4096,
            block_restart_interval: 16,
            sstable_size: 4 << 20,
            memtable_size: 4 << 20,
            l0_compaction_trigger: 4,
            l0_stop_files: 8,
            l1_max_bytes: 40 << 20,
            read_retries: 2,
            sync: SyncPolicy::OnFlush,
            misplaced_fsync: None,
            stripes: 1,
            stripe_index: 0,
            background_maintenance: false,
        }
    }
}

impl Options {
    /// A small-scale configuration for unit tests and fast simulations:
    /// tiny blocks, tables and memtables so that compactions and multi-level
    /// shapes appear with only thousands of keys.
    pub fn small() -> Self {
        Options {
            block_size: 512,
            block_restart_interval: 8,
            sstable_size: 16 << 10,
            memtable_size: 16 << 10,
            l1_max_bytes: 160 << 10,
            ..Options::default()
        }
    }

    /// The tree a server runs on: the paper's 4 KiB blocks (Section 5.1)
    /// over `write_buffer` bytes of memtable divided over `stripes`, each
    /// stripe an engine with memtable = SSTable = its share (never below
    /// 256 KiB, so a many-stripe server still flushes whole tables) and
    /// Level 1 at [`SIZE_RATIO`] times that. `served(s, s × 4 MiB)` is
    /// [`default`](Self::default) with `s` stripes.
    pub fn served(stripes: usize, write_buffer: usize) -> Self {
        let base = Options::default();
        let memtable = (write_buffer / stripes.max(1)).max(256 << 10);
        Options {
            sstable_size: memtable,
            memtable_size: memtable,
            l1_max_bytes: SIZE_RATIO * memtable,
            stripes,
            ..base
        }
    }

    /// Maximum allowed bytes for `level` (1-based levels; Level 0 is
    /// file-count-triggered instead).
    pub fn level_max_bytes(&self, level: usize) -> usize {
        debug_assert!(level >= 1);
        let mut size = self.l1_max_bytes;
        for _ in 1..level {
            size = size.saturating_mul(SIZE_RATIO);
        }
        size
    }

    /// Validates internal consistency; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.block_size < 64 {
            return Err("block_size must be at least 64 bytes".into());
        }
        if self.block_restart_interval == 0 {
            return Err("block_restart_interval must be positive".into());
        }
        if self.sstable_size < self.block_size {
            return Err("sstable_size must be at least one block".into());
        }
        if self.l0_stop_files < L0_SLOWDOWN_FILES {
            return Err(format!(
                "l0_stop_files must be >= {L0_SLOWDOWN_FILES}, where writes slow down"
            ));
        }
        if self.stripes == 0 {
            return Err("stripes must be at least 1".into());
        }
        if self.stripe_index >= self.stripes {
            return Err("stripe_index must be < stripes".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        Options::default().validate().unwrap();
        Options::small().validate().unwrap();
    }

    #[test]
    fn served_geometry_divides_the_write_buffer_over_the_stripes() {
        for stripes in [1, 2, 4, 8, 16] {
            let o = Options::served(stripes, 4 << 20);
            o.validate().unwrap();
            assert_eq!(o.memtable_size * stripes, 4 << 20);
            assert_eq!(o.sstable_size, o.memtable_size);
            assert_eq!(o.l1_max_bytes, SIZE_RATIO * o.memtable_size);
            assert_eq!((o.block_size, o.block_restart_interval), (4096, 16));
            // A 4 MiB memtable per stripe is the durable tree as it was.
            assert_eq!(
                Options::served(stripes, stripes * (4 << 20)),
                Options {
                    stripes,
                    ..Options::default()
                }
            );
        }
        assert_eq!(Options::served(64, 4 << 20).memtable_size, 256 << 10);
    }

    #[test]
    fn level_sizes_scale_by_ratio() {
        let o = Options::default();
        assert_eq!(o.level_max_bytes(1), o.l1_max_bytes);
        assert_eq!(o.level_max_bytes(2), o.l1_max_bytes * 10);
        assert_eq!(o.level_max_bytes(3), o.l1_max_bytes * 100);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let base = Options::default;
        assert!(Options {
            block_size: 8,
            ..base()
        }
        .validate()
        .is_err());
        assert!(Options {
            block_restart_interval: 0,
            ..base()
        }
        .validate()
        .is_err());
        assert!(Options {
            sstable_size: 63,
            ..base()
        }
        .validate()
        .is_err());
        assert!(Options {
            l0_stop_files: L0_SLOWDOWN_FILES - 1,
            ..base()
        }
        .validate()
        .is_err());
    }
}
