//! Manifest: durable version state.
//!
//! Records which SSTable files are live at which level, plus the file-id
//! allocator, so a restarted engine can rebuild its [`crate::version::Version`]
//! (table metadata itself is re-read from each table's meta blob in
//! storage). The manifest is rewritten atomically (temp file + rename) on
//! every version change — it is tiny, so rewrite beats journaling here.
//! The rewrite reuses the file of the copy two versions back: the
//! superseded backup becomes the temp file and is overwritten in place, so
//! a commit frees no disk block (a manifest fits in one).
//!
//! Format (text, line-oriented, CRC-protected as a whole):
//! ```text
//! adcache-manifest v1
//! next_file <id>
//! table <level> <file_id>
//! ...
//! crc <crc32-of-all-previous-lines>
//! ```

use crate::crc::crc32;
use crate::error::{LsmError, Result};
use crate::fs::MetaFs;
use crate::types::FileId;
use std::path::{Path, PathBuf};

/// Which durability steps [`write_manifest`] takes after writing the new
/// manifest, derived from the engine's sync policy (and its misplacement
/// test hook).
#[derive(Debug, Clone, Copy)]
pub struct ManifestSync {
    /// fsync the temp file before the renames (content durability).
    pub file: bool,
    /// fsync the parent directory after the renames (entry durability) —
    /// without it the commit itself can be lost to a crash.
    pub dir: bool,
}

impl ManifestSync {
    /// Sync everything — full commit durability.
    pub fn full() -> Self {
        ManifestSync {
            file: true,
            dir: true,
        }
    }

    /// Sync nothing (`SyncPolicy::Never`).
    pub fn none() -> Self {
        ManifestSync {
            file: false,
            dir: false,
        }
    }
}

/// The durable version snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ManifestState {
    /// Next file id to allocate.
    pub next_file: FileId,
    /// `(level, file_id)` for every live table, in recovery order (level
    /// 0 entries newest-first, as they are searched).
    pub tables: Vec<(usize, FileId)>,
}

/// The sibling path holding the previous good manifest during a commit.
pub fn backup_path(path: &Path) -> PathBuf {
    path.with_extension("bak")
}

/// Serializes `state` and commits it atomically to `path`.
///
/// Commit sequence: write the new manifest to a temp file and fsync it
/// (when `sync.file`), preserve the current manifest (if any) as
/// `<path>.bak`, rename the temp file into place, then fsync the parent
/// directory (when `sync.dir`) so the renames themselves survive a crash.
/// Any single crash point leaves either the new manifest at `path` or the
/// previous one at the backup path — [`recover_manifest`] checks both.
///
/// The temp file is the previous backup, renamed and overwritten in place
/// when one exists. With the last commit's directory sync done, its file
/// is named nowhere but `.bak`, and a crash before the renames below keeps
/// `path` itself intact.
pub fn write_manifest(
    fs: &dyn MetaFs,
    path: &Path,
    state: &ManifestState,
    sync: ManifestSync,
) -> Result<()> {
    let mut body = String::from("adcache-manifest v1\n");
    body.push_str(&format!("next_file {}\n", state.next_file));
    for (level, id) in &state.tables {
        body.push_str(&format!("table {level} {id}\n"));
    }
    let crc = crc32(body.as_bytes());
    body.push_str(&format!("crc {crc:08x}\n"));

    let tmp: PathBuf = path.with_extension("tmp");
    let bak = backup_path(path);
    if fs.exists(&bak) {
        fs.rename(&bak, &tmp)?;
        fs.write_at(&tmp, 0, body.as_bytes())?;
        fs.truncate(&tmp, body.len() as u64)?;
    } else {
        fs.write_file(&tmp, body.as_bytes())?;
    }
    if sync.file {
        fs.sync_file(&tmp)?;
    }
    if fs.exists(path) {
        fs.rename(path, &bak)?;
    }
    // Rename is atomic on POSIX filesystems — but only durable once the
    // parent directory is synced.
    fs.rename(&tmp, path)?;
    if sync.dir {
        if let Some(parent) = path.parent() {
            fs.sync_dir(parent)?;
        }
    }
    Ok(())
}

/// Loads the manifest, falling back to the previous good version when the
/// current one is missing mid-commit or fails validation.
///
/// Returns `Ok(None)` for a genuinely fresh directory (neither file
/// exists). The `bool` is true when recovery had to roll back to the
/// backup; the caller should surface that (journal + stats) because it
/// means the newest version was lost.
///
/// Also tidies commit litter: a stale `<path>.tmp` left by a crash before
/// the final rename is always removed, and after a clean read of the
/// primary the superseded `<path>.bak` is removed too (it is only kept
/// while it is the fallback).
pub fn recover_manifest(fs: &dyn MetaFs, path: &Path) -> Result<(Option<ManifestState>, bool)> {
    let tmp = path.with_extension("tmp");
    let mut cleaned = false;
    if fs.exists(&tmp) {
        // A crash between writing the temp file and renaming it into
        // place leaves it behind; it was never committed, so drop it.
        let _ = fs.remove(&tmp);
        cleaned = true;
    }
    let primary = read_manifest(fs, path);
    let out = match primary {
        Ok(Some(state)) => {
            let bak = backup_path(path);
            if fs.exists(&bak) {
                // The primary is valid, so the backup is superseded.
                let _ = fs.remove(&bak);
                cleaned = true;
            }
            Ok((Some(state), false))
        }
        Ok(None) | Err(LsmError::Corruption(_)) => {
            // Primary corrupt, or missing because a crash hit between the
            // two commit renames — either way the backup is the last good
            // version.
            let primary_err = primary.err();
            match read_manifest(fs, &backup_path(path)) {
                Ok(Some(state)) => Ok((Some(state), true)),
                Ok(None) => match primary_err {
                    // Corrupt primary and no backup to fall back to.
                    Some(e) => Err(e),
                    None => Ok((None, false)),
                },
                // Both damaged: report the primary's error.
                Err(backup_err) => Err(primary_err.unwrap_or(backup_err)),
            }
        }
        Err(e) => Err(e),
    };
    if cleaned {
        // Make the tidy-up durable best-effort; recovery proceeds even on
        // a device that refuses directory syncs.
        if let Some(parent) = path.parent() {
            let _ = fs.sync_dir(parent);
        }
    }
    out
}

/// Loads and validates a manifest. `Ok(None)` when no manifest exists yet.
pub fn read_manifest(fs: &dyn MetaFs, path: &Path) -> Result<Option<ManifestState>> {
    let Some(raw) = fs.read(path)? else {
        return Ok(None);
    };
    let content =
        String::from_utf8(raw).map_err(|_| LsmError::Corruption("manifest is not utf-8".into()))?;
    let Some(crc_line_start) = content.rfind("crc ") else {
        return Err(LsmError::Corruption("manifest missing crc line".into()));
    };
    let body = &content[..crc_line_start];
    let crc_line = content[crc_line_start..].trim();
    let want = u32::from_str_radix(crc_line.trim_start_matches("crc ").trim(), 16)
        .map_err(|_| LsmError::Corruption("manifest bad crc line".into()))?;
    if crc32(body.as_bytes()) != want {
        return Err(LsmError::Corruption("manifest crc mismatch".into()));
    }

    let mut lines = body.lines();
    match lines.next() {
        Some("adcache-manifest v1") => {}
        other => {
            return Err(LsmError::Corruption(format!(
                "manifest bad header: {other:?}"
            )));
        }
    }
    let mut state = ManifestState::default();
    for line in lines {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("next_file") => {
                state.next_file = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| LsmError::Corruption("manifest bad next_file".into()))?;
            }
            Some("table") => {
                let level: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| LsmError::Corruption("manifest bad table level".into()))?;
                let id: FileId = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| LsmError::Corruption("manifest bad table id".into()))?;
                state.tables.push((level, id));
            }
            Some(other) => {
                return Err(LsmError::Corruption(format!(
                    "manifest unknown directive {other}"
                )));
            }
            None => {}
        }
    }
    Ok(Some(state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::RealFs;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("adcache-manifest-{}-{name}", std::process::id()))
    }

    fn write(path: &Path, state: &ManifestState) {
        write_manifest(&RealFs::new(), path, state, ManifestSync::full()).unwrap();
    }

    fn read(path: &Path) -> Result<Option<ManifestState>> {
        read_manifest(&RealFs::new(), path)
    }

    fn recover(path: &Path) -> Result<(Option<ManifestState>, bool)> {
        recover_manifest(&RealFs::new(), path)
    }

    #[test]
    fn roundtrip() {
        let path = tmp("roundtrip");
        let state = ManifestState {
            next_file: 42,
            tables: vec![(0, 7), (0, 5), (1, 3), (2, 1)],
        };
        write(&path, &state);
        let back = read(&path).unwrap().unwrap();
        assert_eq!(back, state);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_is_none() {
        let path = tmp("missing");
        let _ = std::fs::remove_file(&path);
        assert!(read(&path).unwrap().is_none());
    }

    #[test]
    fn corruption_is_detected() {
        let path = tmp("corrupt");
        write(
            &path,
            &ManifestState {
                next_file: 9,
                tables: vec![(1, 2)],
            },
        );
        let mut content = std::fs::read_to_string(&path).unwrap();
        content = content.replace("table 1 2", "table 1 3");
        std::fs::write(&path, content).unwrap();
        assert!(read(&path).is_err());
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let path = tmp("rewrite");
        write(
            &path,
            &ManifestState {
                next_file: 1,
                tables: vec![],
            },
        );
        write(
            &path,
            &ManifestState {
                next_file: 2,
                tables: vec![(0, 1)],
            },
        );
        let back = read(&path).unwrap().unwrap();
        assert_eq!(back.next_file, 2);
        assert_eq!(back.tables, vec![(0, 1)]);
        assert!(!path.with_extension("tmp").exists(), "temp file cleaned up");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_rolls_back_to_backup_on_corruption() {
        let path = tmp("rollback");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(backup_path(&path));
        let v1 = ManifestState {
            next_file: 3,
            tables: vec![(0, 2)],
        };
        let v2 = ManifestState {
            next_file: 5,
            tables: vec![(0, 4), (1, 2)],
        };
        write(&path, &v1);
        write(&path, &v2);
        // Corrupt the primary: recovery falls back to the preserved v1 and
        // keeps the backup (it is still the only good copy).
        std::fs::write(&path, b"garbage").unwrap();
        let (state, rolled_back) = recover(&path).unwrap();
        assert_eq!(state.unwrap(), v1);
        assert!(rolled_back);
        assert!(backup_path(&path).exists(), "fallback must not be deleted");
        // Re-commit: the primary is valid again, so a clean recovery wins
        // without rollback and tidies the superseded backup away.
        write(&path, &v2);
        let (state, rolled_back) = recover(&path).unwrap();
        assert_eq!(state.unwrap(), v2);
        assert!(!rolled_back);
        assert!(
            !backup_path(&path).exists(),
            "superseded backup must be removed after a clean recovery"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_removes_stale_tmp_left_by_a_crashed_commit() {
        let path = tmp("stale-tmp");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(backup_path(&path));
        let v1 = ManifestState {
            next_file: 3,
            tables: vec![(0, 2)],
        };
        write(&path, &v1);
        // A crash after writing the temp file but before the rename leaves
        // it behind; it was never committed and must not survive recovery.
        let stale = path.with_extension("tmp");
        std::fs::write(&stale, b"uncommitted next version").unwrap();
        let (state, rolled_back) = recover(&path).unwrap();
        assert_eq!(state.unwrap(), v1);
        assert!(!rolled_back);
        assert!(!stale.exists(), "stale manifest.tmp must be swept");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_survives_crash_between_commit_renames() {
        let path = tmp("mid-commit");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(backup_path(&path));
        let v1 = ManifestState {
            next_file: 3,
            tables: vec![(0, 2)],
        };
        write(&path, &v1);
        // Simulate a crash after `rename(path, bak)` but before
        // `rename(tmp, path)`: primary gone, backup holds the last good
        // version.
        std::fs::rename(&path, backup_path(&path)).unwrap();
        let (state, rolled_back) = recover(&path).unwrap();
        assert_eq!(state.unwrap(), v1);
        assert!(rolled_back);
        std::fs::remove_file(backup_path(&path)).unwrap();
    }

    #[test]
    fn recover_fresh_directory_is_none() {
        let path = tmp("fresh");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(backup_path(&path));
        let (state, rolled_back) = recover(&path).unwrap();
        assert!(state.is_none());
        assert!(!rolled_back);
    }

    #[test]
    fn recover_fails_when_both_copies_are_damaged() {
        let path = tmp("both-bad");
        std::fs::write(&path, b"garbage").unwrap();
        std::fs::write(backup_path(&path), b"also garbage").unwrap();
        assert!(recover(&path).is_err());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(backup_path(&path)).unwrap();
    }

    #[test]
    fn truncated_manifest_is_rejected() {
        let path = tmp("truncated");
        write(
            &path,
            &ManifestState {
                next_file: 5,
                tables: vec![(0, 4)],
            },
        );
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &content[..content.len() / 2]).unwrap();
        assert!(read(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
