//! The filesystem seam.
//!
//! WAL, manifest and SSTable file I/O go through the [`MetaFs`] trait
//! instead of `std::fs` directly, so crash drills can model an OS
//! write-back cache: a write that *completed* is not *durable* until an
//! explicit [`MetaFs::sync_file`], and a rename / create / remove is not
//! durable until the parent directory is synced with
//! [`MetaFs::sync_dir`]. Two implementations exist:
//!
//! - [`RealFs`] passes through to `std::fs` (production and the
//!   file-backed integration tests);
//! - [`SimFs`] keeps everything in memory and buffers completed-but-
//!   unsynced operations per file and per directory entry, so
//!   [`SimFs::crash`] can drop an arbitrary unsynced suffix of a file —
//!   wholly or torn mid-write — and any subset of the unsynced creates,
//!   renames and removes, the way a power loss treats a volatile device
//!   cache under a filesystem that does not order its metadata.
//!
//! The write path frees no disk blocks in steady state: the WAL writes
//! at an offset into segments it recycles, and the manifest overwrites
//! its superseded copy in place ([`MetaFs::write_at`]). On a filesystem
//! mounted with online discard an unlink or a rename over a file blocks
//! its caller for tens to hundreds of milliseconds, and a concurrent
//! fsync waits behind it.

use crate::error::{LsmError, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Filesystem operations used by the durability path: WAL, manifest and
/// SSTable files.
///
/// Files are written whole, appended through [`MetaFs::create`]'s writer
/// or overwritten at an offset. `sync_file` and `sync_dir` are the only
/// operations that promise durability — everything else may sit in a
/// modeled write-back cache until then.
pub trait MetaFs: Send + Sync {
    /// Creates `path`, failing with an [`ErrorKind::AlreadyExists`] I/O
    /// error when it exists, and returns an unbuffered writer that appends
    /// to it (not durable until synced).
    fn create(&self, path: &Path) -> Result<Box<dyn Write + Send + '_>>;
    /// Opens `path` for positioned reads.
    fn open(&self, path: &Path) -> Result<Box<dyn ReadAt>>;
    /// Creates `path` and all missing parents.
    fn create_dir_all(&self, path: &Path) -> Result<()>;
    /// Reads the full contents of `path`; `Ok(None)` when it does not
    /// exist.
    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>>;
    /// Creates or replaces `path` with `data` (not durable until synced).
    fn write_file(&self, path: &Path, data: &[u8]) -> Result<()>;
    /// Writes `data` at byte `offset` of `path`, creating the file when
    /// missing and filling any gap past its end with zeros (not durable
    /// until synced).
    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> Result<()>;
    /// Truncates `path` to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> Result<()>;
    /// Renames `from` to `to`, replacing `to` when it exists. Durable
    /// only after the parent directory is synced.
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;
    /// Removes `path`. Durable only after the parent directory is synced.
    fn remove(&self, path: &Path) -> Result<()>;
    /// Whether `path` currently exists (in the possibly-unsynced view).
    fn exists(&self, path: &Path) -> bool;
    /// Current length of `path` in bytes.
    fn len(&self, path: &Path) -> Result<u64>;
    /// Makes the *contents* of `path` durable (fsync).
    fn sync_file(&self, path: &Path) -> Result<()>;
    /// Makes the directory entries under `dir` durable (directory fsync):
    /// creations, renames and removals issued before this call survive a
    /// crash.
    fn sync_dir(&self, dir: &Path) -> Result<()>;
    /// Paths of the files directly under `dir` (in the possibly-unsynced
    /// view), in unspecified order. A missing directory lists as empty.
    fn list_dir(&self, dir: &Path) -> Result<Vec<PathBuf>>;
}

/// A file open for positioned reads, from [`MetaFs::open`].
pub trait ReadAt: Send + Sync {
    /// Fills `buf` from `offset`; fails when the file ends first.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()>;
    /// The file's size in bytes.
    fn size(&self) -> std::io::Result<u64>;
}

impl ReadAt for File {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        FileExt::read_exact_at(self, buf, offset)
    }

    fn size(&self) -> std::io::Result<u64> {
        Ok(self.metadata()?.len())
    }
}

fn not_found(path: &Path) -> LsmError {
    LsmError::NotFound(format!("{} does not exist", path.display()))
}

/// Pass-through [`MetaFs`] over `std::fs`.
///
/// Keeps a small cache of write handles so per-batch WAL writes do not
/// reopen the log file each time. A handle is cloned out of the map and
/// the map's lock dropped before any I/O, so one stripe's fsync never
/// holds up another stripe's write.
pub struct RealFs {
    handles: Mutex<HashMap<PathBuf, Arc<File>>>,
}

impl RealFs {
    /// A new pass-through filesystem.
    pub fn new() -> Self {
        RealFs {
            handles: Mutex::new(HashMap::new()),
        }
    }

    fn drop_handle(&self, path: &Path) {
        self.handles.lock().remove(path);
    }

    /// The cached write handle of `path`, opening (and creating) it on a
    /// miss.
    fn handle(&self, path: &Path) -> Result<Arc<File>> {
        if let Some(file) = self.handles.lock().get(path) {
            return Ok(file.clone());
        }
        let mut options = OpenOptions::new();
        options.create(true).write(true).truncate(false);
        let file = Arc::new(options.open(path)?);
        let mut handles = self.handles.lock();
        Ok(handles.entry(path.to_path_buf()).or_insert(file).clone())
    }
}

impl Default for RealFs {
    fn default() -> Self {
        RealFs::new()
    }
}

impl MetaFs for RealFs {
    fn create(&self, path: &Path) -> Result<Box<dyn Write + Send + '_>> {
        let file = OpenOptions::new().write(true).create_new(true).open(path)?;
        Ok(Box::new(file))
    }

    fn open(&self, path: &Path) -> Result<Box<dyn ReadAt>> {
        match File::open(path) {
            Ok(file) => Ok(Box::new(file)),
            Err(e) if e.kind() == ErrorKind::NotFound => Err(not_found(path)),
            Err(e) => Err(e.into()),
        }
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        std::fs::create_dir_all(path)?;
        Ok(())
    }

    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>> {
        match std::fs::read(path) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn write_file(&self, path: &Path, data: &[u8]) -> Result<()> {
        self.drop_handle(path);
        std::fs::write(path, data)?;
        Ok(())
    }

    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> Result<()> {
        self.handle(path)?.write_all_at(data, offset)?;
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        // Writes name their offset, so a cached handle stays valid across
        // truncation.
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.drop_handle(from);
        self.drop_handle(to);
        std::fs::rename(from, to)?;
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<()> {
        self.drop_handle(path);
        std::fs::remove_file(path)?;
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn len(&self, path: &Path) -> Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn sync_file(&self, path: &Path) -> Result<()> {
        let cached = self.handles.lock().get(path).cloned();
        if let Some(f) = cached {
            f.sync_data()?;
            return Ok(());
        }
        let f = OpenOptions::new().read(true).open(path)?;
        f.sync_data()?;
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        // On Unix a directory can be opened read-only and fsynced to make
        // its entries durable.
        let f = File::open(dir)?;
        f.sync_all()?;
        Ok(())
    }

    fn list_dir(&self, dir: &Path) -> Result<Vec<PathBuf>> {
        let rd = match std::fs::read_dir(dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut out = Vec::new();
        for entry in rd {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        Ok(out)
    }
}

/// One buffered, completed-but-unsynced mutation of a file's contents.
#[derive(Debug, Clone)]
enum PendingOp {
    /// Whole-file replacement (`write_file`). Atomic: survives a crash
    /// entirely or not at all.
    SetContent(Vec<u8>),
    /// A write at an offset (an append writes at the end), which a crash
    /// may tear (persist a strict byte prefix of it).
    Write(u64, Vec<u8>),
    /// A truncation to the given length. Atomic under crash.
    Truncate(u64),
}

#[derive(Debug, Default, Clone)]
struct Inode {
    /// Contents as of the last `sync_file` (`None`: never synced).
    durable: Option<Vec<u8>>,
    /// Completed-but-unsynced operations, in issue order.
    pending: Vec<PendingOp>,
    /// Contents as the running process sees them (durable + all pending).
    view: Vec<u8>,
}

impl Inode {
    /// An unsynced write of `data` at `offset`.
    fn write(&mut self, offset: u64, data: &[u8]) {
        write_into(&mut self.view, offset, data);
        self.pending.push(PendingOp::Write(offset, data.to_vec()));
    }
}

/// One completed-but-unsynced change to a directory entry: `from` stops
/// naming inode `id` and `to` starts (a create has no `from`, a remove no
/// `to`). It becomes durable when its directory is synced — a rename's is
/// its target's.
#[derive(Debug, Clone)]
struct NsOp {
    from: Option<PathBuf>,
    to: Option<PathBuf>,
    id: u64,
}

impl NsOp {
    fn new(from: Option<&Path>, to: Option<&Path>, id: u64) -> Self {
        let (from, to) = (from.map(Path::to_path_buf), to.map(Path::to_path_buf));
        NsOp { from, to, id }
    }

    fn dir(&self) -> Option<&Path> {
        self.to.as_ref().or(self.from.as_ref())?.parent()
    }

    /// Applies the change to `ns`. A lost create does not stop a later
    /// rename from linking its target: without ordered metadata each
    /// directory entry is written on its own.
    fn apply(&self, ns: &mut HashMap<PathBuf, u64>) {
        if let Some(from) = &self.from {
            if ns.get(from) == Some(&self.id) {
                ns.remove(from);
            }
        }
        if let Some(to) = &self.to {
            ns.insert(to.clone(), self.id);
        }
    }
}

#[derive(Default)]
struct SimState {
    inodes: HashMap<u64, Inode>,
    /// Live namespace: path -> inode, as the running process sees it.
    dir: HashMap<PathBuf, u64>,
    /// Namespace as of the last `sync_dir` of each directory.
    durable_dir: HashMap<PathBuf, u64>,
    /// Namespace changes since then, oldest first.
    pending_dir: Vec<NsOp>,
    next_inode: u64,
}

/// What one [`SimFs::crash`] threw away from the write-back cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnsyncedLoss {
    /// Files whose unsynced contents or directory entries were affected.
    pub files: u64,
    /// Content bytes dropped (including torn-write suffixes).
    pub bytes: u64,
}

/// In-memory [`MetaFs`] with an explicit write-back cache model.
///
/// Every content mutation lands in a per-file pending list and every
/// create, rename and remove in a namespace pending list; `sync_file`
/// moves a file's pending list into its durable image, and `sync_dir(dir)`
/// makes the pending entry changes under `dir` (and only those) durable.
/// [`SimFs::crash`] then plays the role of power loss: each file keeps
/// only a seeded prefix of its pending operations (a write at the cut
/// may tear mid-record), and each unsynced entry change is kept or dropped
/// on its own seeded coin, the kept ones applied oldest first.
pub struct SimFs {
    state: Mutex<SimState>,
}

impl SimFs {
    /// A new, empty simulated filesystem.
    pub fn new() -> Self {
        SimFs {
            state: Mutex::new(SimState::default()),
        }
    }

    /// Simulates power loss: drops an arbitrary (seeded) suffix of each
    /// file's unsynced operations — possibly tearing a write mid-record
    /// — and keeps each unsynced create, rename and remove independently
    /// of the others. Returns what was lost. Deterministic in `seed`.
    pub fn crash(&self, seed: u64) -> UnsyncedLoss {
        let mut st = self.state.lock();
        let mut loss = UnsyncedLoss::default();
        let mut ids: Vec<u64> = st.inodes.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let inode = st.inodes.get_mut(&id).expect("inode listed");
            let n = inode.pending.len();
            if n == 0 {
                continue;
            }
            let h = crate::fault::splitmix64(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let keep = (h % (n as u64 + 1)) as usize;
            let mut content = inode.durable.clone().unwrap_or_default();
            for op in &inode.pending[..keep] {
                apply(&mut content, op);
            }
            // The operation at the cut: a write may tear (a strict byte
            // prefix persists); whole-file writes and truncations are
            // atomic and simply vanish.
            if keep < n {
                if let PendingOp::Write(offset, data) = &inode.pending[keep] {
                    let h2 = crate::fault::splitmix64(h ^ 0xD1B5_4A32_D192_ED03);
                    let torn = (h2 % (data.len() as u64 + 1)) as usize;
                    write_into(&mut content, *offset, &data[..torn]);
                }
                loss.files += 1;
            }
            // Bytes the view holds that the survivor does not: a shorter
            // file, or an overwrite that did not land.
            let (view, kept) = (&inode.view, &content);
            let changed = view.iter().zip(kept).filter(|(a, b)| a != b).count();
            loss.bytes += (view.len().saturating_sub(kept.len()) + changed) as u64;
            inode.durable = Some(content.clone());
            inode.pending.clear();
            inode.view = content;
        }
        // Each unsynced namespace change (creation, rename, removal)
        // survives on its own coin; the survivors land oldest first.
        let mut ns = std::mem::take(&mut st.durable_dir);
        for (i, op) in std::mem::take(&mut st.pending_dir).iter().enumerate() {
            let coin = crate::fault::splitmix64(i as u64 ^ 0xC2B2_AE3D_27D4_EB4F);
            let h = crate::fault::splitmix64(seed ^ coin);
            if h & 1 == 0 {
                op.apply(&mut ns);
            }
        }
        for (path, id) in &st.dir {
            if ns.get(path) != Some(id) {
                loss.files += 1;
            }
        }
        let live: std::collections::HashSet<u64> = ns.values().copied().collect();
        st.inodes.retain(|id, _| live.contains(id));
        st.dir = ns.clone();
        st.durable_dir = ns;
        loss
    }

    fn with_inode<T>(&self, path: &Path, f: impl FnOnce(&mut Inode) -> T) -> Result<T> {
        let mut st = self.state.lock();
        let id = *st.dir.get(path).ok_or_else(|| not_found(path))?;
        let inode = st.inodes.get_mut(&id).expect("dir entry has an inode");
        Ok(f(inode))
    }
}

impl Default for SimFs {
    fn default() -> Self {
        SimFs::new()
    }
}

impl SimState {
    /// Links a new, empty file at `path`: an unsynced create.
    fn create(&mut self, path: &Path) -> u64 {
        let id = self.next_inode;
        self.next_inode += 1;
        self.inodes.insert(id, Inode::default());
        self.dir.insert(path.to_path_buf(), id);
        self.pending_dir.push(NsOp::new(None, Some(path), id));
        id
    }
}

/// The writer [`SimFs::create`] returns: each write is one unsynced
/// write at the end of the file it created, wherever that file is linked now.
struct SimWriter<'a> {
    fs: &'a SimFs,
    id: u64,
}

impl Write for SimWriter<'_> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let mut st = self.fs.state.lock();
        // A crash that dropped the file closed the writer with it.
        let inode = st.inodes.get_mut(&self.id).ok_or(ErrorKind::NotFound)?;
        inode.write(inode.view.len() as u64, data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What [`SimFs::open`] returns: the file as it was at the open.
struct Snapshot(Vec<u8>);

impl ReadAt for Snapshot {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        let start = usize::try_from(offset).unwrap_or(usize::MAX);
        let src = start
            .checked_add(buf.len())
            .and_then(|end| self.0.get(start..end))
            .ok_or(ErrorKind::UnexpectedEof)?;
        buf.copy_from_slice(src);
        Ok(())
    }

    fn size(&self) -> std::io::Result<u64> {
        Ok(self.0.len() as u64)
    }
}

fn apply(content: &mut Vec<u8>, op: &PendingOp) {
    match op {
        PendingOp::SetContent(data) => *content = data.clone(),
        PendingOp::Write(offset, data) => write_into(content, *offset, data),
        PendingOp::Truncate(len) => content.truncate(*len as usize),
    }
}

/// Overwrites `content` with `data` from `offset`, zero-filling any gap.
fn write_into(content: &mut Vec<u8>, offset: u64, data: &[u8]) {
    let start = offset as usize;
    let end = start + data.len();
    if content.len() < end {
        content.resize(end, 0);
    }
    content[start..end].copy_from_slice(data);
}

impl MetaFs for SimFs {
    fn create(&self, path: &Path) -> Result<Box<dyn Write + Send + '_>> {
        let mut st = self.state.lock();
        if st.dir.contains_key(path) {
            let exists = format!("{} exists", path.display());
            return Err(std::io::Error::new(ErrorKind::AlreadyExists, exists).into());
        }
        let id = st.create(path);
        Ok(Box::new(SimWriter { fs: self, id }))
    }

    fn open(&self, path: &Path) -> Result<Box<dyn ReadAt>> {
        self.with_inode(path, |inode| {
            Box::new(Snapshot(inode.view.clone())) as Box<dyn ReadAt>
        })
    }

    fn create_dir_all(&self, _path: &Path) -> Result<()> {
        // The simulated namespace is flat; directories always exist.
        Ok(())
    }

    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>> {
        let st = self.state.lock();
        Ok(st.dir.get(path).map(|id| st.inodes[id].view.clone()))
    }

    fn write_file(&self, path: &Path, data: &[u8]) -> Result<()> {
        let mut st = self.state.lock();
        let id = match st.dir.get(path) {
            Some(&id) => id,
            None => st.create(path),
        };
        let inode = st.inodes.get_mut(&id).expect("dir entry has an inode");
        inode.pending.push(PendingOp::SetContent(data.to_vec()));
        inode.view = data.to_vec();
        Ok(())
    }

    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> Result<()> {
        let mut st = self.state.lock();
        let id = match st.dir.get(path) {
            Some(&id) => id,
            None => st.create(path),
        };
        st.inodes
            .get_mut(&id)
            .expect("dir entry has an inode")
            .write(offset, data);
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        self.with_inode(path, |inode| {
            inode.pending.push(PendingOp::Truncate(len));
            inode.view.truncate(len as usize);
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        let mut st = self.state.lock();
        let id = st.dir.remove(from).ok_or_else(|| not_found(from))?;
        st.dir.insert(to.to_path_buf(), id);
        st.pending_dir.push(NsOp::new(Some(from), Some(to), id));
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<()> {
        let mut st = self.state.lock();
        let id = st.dir.remove(path).ok_or_else(|| not_found(path))?;
        st.pending_dir.push(NsOp::new(Some(path), None, id));
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.state.lock().dir.contains_key(path)
    }

    fn len(&self, path: &Path) -> Result<u64> {
        self.with_inode(path, |inode| inode.view.len() as u64)
    }

    fn sync_file(&self, path: &Path) -> Result<()> {
        self.with_inode(path, |inode| {
            inode.durable = Some(inode.view.clone());
            inode.pending.clear();
        })
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        let st = &mut *self.state.lock();
        let (synced, rest): (Vec<NsOp>, _) = std::mem::take(&mut st.pending_dir)
            .into_iter()
            .partition(|op| op.dir() == Some(dir));
        st.pending_dir = rest;
        for op in synced {
            op.apply(&mut st.durable_dir);
        }
        Ok(())
    }

    fn list_dir(&self, dir: &Path) -> Result<Vec<PathBuf>> {
        // The namespace is flat, so "directly under `dir`" means "path has
        // `dir` as its parent".
        let st = self.state.lock();
        Ok(st
            .dir
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }
}

/// One operation a [`Probe`] passed on, for tests that count or order
/// them.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Op {
    Create(PathBuf),
    /// A whole-file write, and whether it replaced an existing file.
    WriteFile(PathBuf, bool),
    WriteAt(PathBuf),
    Truncate(PathBuf),
    /// A rename, and whether its target existed (and was replaced).
    Rename(PathBuf, PathBuf, bool),
    Remove(PathBuf),
    SyncFile(PathBuf),
    SyncDir(PathBuf),
}

#[cfg(test)]
impl Op {
    /// Whether the operation can free disk blocks: a removal, or a rename
    /// or whole-file write over an existing file.
    pub(crate) fn frees(&self) -> bool {
        matches!(
            self,
            Op::Remove(_) | Op::Rename(_, _, true) | Op::WriteFile(_, true)
        )
    }
}

/// A [`MetaFs`] over a [`SimFs`] that logs every write, namespace change
/// and sync, and can cut the power: from its `cut`-th such operation on,
/// every operation fails, reads included, as in a process that died. The
/// test then crashes the [`SimFs`] underneath and reopens on it.
#[cfg(test)]
pub(crate) struct Probe {
    sim: Arc<SimFs>,
    log: Mutex<Vec<Op>>,
    cut: Option<usize>,
}

#[cfg(test)]
impl Probe {
    pub(crate) fn new(sim: Arc<SimFs>, cut: Option<usize>) -> Self {
        Probe {
            sim,
            log: Mutex::new(Vec::new()),
            cut,
        }
    }

    /// The operations passed on so far, in order.
    pub(crate) fn log(&self) -> Vec<Op> {
        self.log.lock().clone()
    }

    /// Whether the power is off.
    pub(crate) fn is_cut(&self) -> bool {
        self.cut.is_some_and(|cut| self.log.lock().len() >= cut)
    }

    fn alive(&self) -> Result<()> {
        if self.is_cut() {
            return Err(LsmError::Injected("power cut".into()));
        }
        Ok(())
    }

    fn pass(&self, op: Op) -> Result<()> {
        self.alive()?;
        self.log.lock().push(op);
        Ok(())
    }
}

/// A [`Probe`]'s table writer: dead once the power is.
#[cfg(test)]
struct ProbeWriter<'a> {
    probe: &'a Probe,
    inner: Box<dyn Write + Send + 'a>,
}

#[cfg(test)]
impl Write for ProbeWriter<'_> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        if self.probe.is_cut() {
            return Err(std::io::Error::other("power cut"));
        }
        self.inner.write(data)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
impl MetaFs for Probe {
    fn create(&self, path: &Path) -> Result<Box<dyn Write + Send + '_>> {
        self.pass(Op::Create(path.into()))?;
        let inner = self.sim.create(path)?;
        Ok(Box::new(ProbeWriter { probe: self, inner }))
    }

    fn open(&self, path: &Path) -> Result<Box<dyn ReadAt>> {
        self.alive()?;
        self.sim.open(path)
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        self.alive()?;
        self.sim.create_dir_all(path)
    }

    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>> {
        self.alive()?;
        self.sim.read(path)
    }

    fn write_file(&self, path: &Path, data: &[u8]) -> Result<()> {
        self.pass(Op::WriteFile(path.into(), self.sim.exists(path)))?;
        self.sim.write_file(path, data)
    }

    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> Result<()> {
        self.pass(Op::WriteAt(path.into()))?;
        self.sim.write_at(path, offset, data)
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        self.pass(Op::Truncate(path.into()))?;
        self.sim.truncate(path, len)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.pass(Op::Rename(from.into(), to.into(), self.sim.exists(to)))?;
        self.sim.rename(from, to)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        self.pass(Op::Remove(path.into()))?;
        self.sim.remove(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.sim.exists(path)
    }

    fn len(&self, path: &Path) -> Result<u64> {
        self.alive()?;
        self.sim.len(path)
    }

    fn sync_file(&self, path: &Path) -> Result<()> {
        self.pass(Op::SyncFile(path.into()))?;
        self.sim.sync_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        self.pass(Op::SyncDir(dir.into()))?;
        self.sim.sync_dir(dir)
    }

    fn list_dir(&self, dir: &Path) -> Result<Vec<PathBuf>> {
        self.alive()?;
        self.sim.list_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> PathBuf {
        PathBuf::from(format!("/sim/{name}"))
    }

    #[test]
    fn simfs_basic_file_operations() {
        let fs = SimFs::new();
        assert!(!fs.exists(&p("a")));
        assert!(fs.read(&p("a")).unwrap().is_none());
        fs.write_file(&p("a"), b"hello").unwrap();
        assert_eq!(fs.read(&p("a")).unwrap().unwrap(), b"hello");
        fs.write_at(&p("a"), 5, b" world").unwrap();
        assert_eq!(fs.len(&p("a")).unwrap(), 11);
        fs.truncate(&p("a"), 5).unwrap();
        assert_eq!(fs.read(&p("a")).unwrap().unwrap(), b"hello");
        fs.rename(&p("a"), &p("b")).unwrap();
        assert!(!fs.exists(&p("a")));
        assert_eq!(fs.read(&p("b")).unwrap().unwrap(), b"hello");
        fs.remove(&p("b")).unwrap();
        assert!(!fs.exists(&p("b")));
        assert!(matches!(fs.remove(&p("b")), Err(LsmError::NotFound(_))));
    }

    #[test]
    fn crash_without_sync_can_lose_the_file_and_its_bytes() {
        let (mut gone, mut empty) = (false, false);
        for seed in 0..16u64 {
            let fs = SimFs::new();
            fs.write_file(&p("a"), b"data").unwrap();
            fs.crash(seed);
            match fs.read(&p("a")).unwrap() {
                None => gone = true,
                Some(bytes) => {
                    assert!(bytes.is_empty() || bytes == b"data", "seed {seed}");
                    empty |= bytes.is_empty();
                }
            }
        }
        assert!(gone, "an unsynced creation must be losable");
        assert!(empty, "a kept creation may keep none of its unsynced bytes");
    }

    #[test]
    fn crash_after_full_sync_loses_nothing() {
        let fs = SimFs::new();
        fs.write_file(&p("a"), b"data").unwrap();
        fs.sync_file(&p("a")).unwrap();
        fs.sync_dir(&p("")).unwrap();
        let loss = fs.crash(7);
        assert_eq!(loss, UnsyncedLoss::default());
        assert_eq!(fs.read(&p("a")).unwrap().unwrap(), b"data");
    }

    #[test]
    fn crash_keeps_only_a_prefix_of_unsynced_appends() {
        let fs = SimFs::new();
        fs.write_file(&p("log"), b"").unwrap();
        fs.sync_file(&p("log")).unwrap();
        fs.sync_dir(&p("")).unwrap();
        let full: Vec<u8> = (0..100u8).collect();
        for (i, chunk) in full.chunks(10).enumerate() {
            fs.write_at(&p("log"), i as u64 * 10, chunk).unwrap();
        }
        // Whatever the seed, the surviving content is a strict prefix of
        // what was appended.
        for seed in 0..32u64 {
            let probe = SimFs::new();
            probe.write_file(&p("log"), b"").unwrap();
            probe.sync_file(&p("log")).unwrap();
            probe.sync_dir(&p("")).unwrap();
            for (i, chunk) in full.chunks(10).enumerate() {
                probe.write_at(&p("log"), i as u64 * 10, chunk).unwrap();
            }
            probe.crash(seed);
            let got = probe.read(&p("log")).unwrap().unwrap();
            assert!(got.len() <= full.len());
            assert_eq!(&got[..], &full[..got.len()], "seed {seed}: prefix only");
        }
        // And at least one seed in a small range actually drops a suffix.
        let mut any_loss = false;
        for seed in 0..32u64 {
            let probe = SimFs::new();
            probe.write_file(&p("log"), b"").unwrap();
            probe.sync_file(&p("log")).unwrap();
            probe.sync_dir(&p("")).unwrap();
            probe.write_at(&p("log"), 0, &full).unwrap();
            any_loss |= probe.crash(seed).bytes > 0;
        }
        assert!(any_loss, "the write-back model must be able to lose data");
    }

    /// The manifest's commit swap — `cur` to `bak`, then `tmp` to `cur` —
    /// with the directory left unsynced (or synced).
    fn swapped(sync_dir: bool, seed: u64) -> (Option<Vec<u8>>, Option<Vec<u8>>) {
        let fs = SimFs::new();
        fs.write_file(&p("cur"), b"old").unwrap();
        fs.sync_file(&p("cur")).unwrap();
        fs.sync_dir(&p("")).unwrap();
        fs.write_file(&p("tmp"), b"new").unwrap();
        fs.sync_file(&p("tmp")).unwrap();
        fs.rename(&p("cur"), &p("bak")).unwrap();
        fs.rename(&p("tmp"), &p("cur")).unwrap();
        if sync_dir {
            fs.sync_dir(&p("")).unwrap();
        }
        fs.crash(seed);
        (fs.read(&p("cur")).unwrap(), fs.read(&p("bak")).unwrap())
    }

    #[test]
    fn crash_keeps_each_unsynced_rename_on_its_own() {
        let old = Some(b"old".to_vec());
        let new = Some(b"new".to_vec());
        let outcomes: std::collections::HashSet<_> = (0..32).map(|s| swapped(false, s)).collect();
        // Neither rename, both, or only the first: `cur` is then missing
        // and only the backup holds the old contents.
        for want in [
            (old.clone(), None),
            (new.clone(), old.clone()),
            (None, old.clone()),
        ] {
            assert!(outcomes.contains(&want), "{want:?} never happened");
        }
        // With the directory synced, the swap sticks.
        for seed in 0..32 {
            assert_eq!(swapped(true, seed), (new.clone(), old.clone()));
        }
    }

    #[test]
    fn sync_dir_makes_only_its_own_directory_durable() {
        let mut other_lost = false;
        for seed in 0..16u64 {
            let fs = SimFs::new();
            for path in ["/sim/a/x", "/sim/b/y"] {
                fs.write_file(Path::new(path), b"data").unwrap();
                fs.sync_file(Path::new(path)).unwrap();
            }
            fs.sync_dir(Path::new("/sim/a")).unwrap();
            fs.crash(seed);
            assert!(fs.exists(Path::new("/sim/a/x")), "seed {seed}");
            other_lost |= !fs.exists(Path::new("/sim/b/y"));
        }
        assert!(other_lost, "another directory's entry must stay losable");
    }

    #[test]
    fn crash_is_deterministic_in_the_seed() {
        let build = || {
            let fs = SimFs::new();
            fs.write_file(&p("log"), b"base").unwrap();
            fs.sync_file(&p("log")).unwrap();
            fs.sync_dir(&p("")).unwrap();
            for i in 0..20u8 {
                fs.write_at(&p("log"), 4 + 7 * i as u64, &[i; 7]).unwrap();
            }
            fs
        };
        let a = build();
        let b = build();
        assert_eq!(a.crash(99), b.crash(99));
        assert_eq!(a.read(&p("log")).unwrap(), b.read(&p("log")).unwrap());
    }

    #[test]
    fn realfs_round_trips_and_syncs() {
        let dir = std::env::temp_dir().join(format!("adcache-realfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = RealFs::new();
        fs.create_dir_all(&dir).unwrap();
        let f = dir.join("x.log");
        assert!(fs.read(&f).unwrap().is_none());
        fs.write_file(&f, b"abc").unwrap();
        fs.write_at(&f, 3, b"def").unwrap();
        assert_eq!(fs.read(&f).unwrap().unwrap(), b"abcdef");
        assert_eq!(fs.len(&f).unwrap(), 6);
        fs.sync_file(&f).unwrap();
        fs.truncate(&f, 3).unwrap();
        assert_eq!(fs.read(&f).unwrap().unwrap(), b"abc");
        // The cached handle stays valid across truncation.
        fs.write_at(&f, 3, b"xyz").unwrap();
        assert_eq!(fs.read(&f).unwrap().unwrap(), b"abcxyz");
        let g = dir.join("y.log");
        fs.rename(&f, &g).unwrap();
        fs.sync_dir(&dir).unwrap();
        assert!(!fs.exists(&f));
        assert_eq!(fs.read(&g).unwrap().unwrap(), b"abcxyz");
        fs.remove(&g).unwrap();
        assert!(!fs.exists(&g));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The crash model against the engine: one store, one power cut, and
    // the write each `--misplace` hole of `adcache faultcheck` loses.

    use crate::options::{FsyncSite, Options, SyncPolicy};
    use crate::sstable::DirectProvider;
    use crate::storage::FileStorage;
    use crate::striped::StripedDb;
    use bytes::Bytes;
    use std::sync::Arc;

    /// Two stripes, each with its own directory, and their tables, all on
    /// this filesystem. Stripe 0 writes `k` twice and flushes; stripe 1
    /// then flushes a write of its own (its seal syncs only its own
    /// directory) and acks `m` on top. The power is cut with `seed` and
    /// the store reopened on fresh handles: returns what `k` and `m` read,
    /// or the error the open failed with.
    fn cut_after_a_flush(
        sync: SyncPolicy,
        hole: Option<FsyncSite>,
        seed: u64,
    ) -> Result<[Option<Bytes>; 2]> {
        let opts = Options {
            sync,
            misplaced_fsync: hole,
            stripes: 2,
            ..Options::small()
        };
        let fs = Arc::new(SimFs::new());
        let open = || {
            let storage = Arc::new(FileStorage::with_fs("/cut/sst", fs.clone())?);
            StripedDb::with_durability_fs(opts.clone(), storage, "/cut", fs.clone())
        };
        let db = open()?;
        let on = |stripe| {
            (0..)
                .map(|i| Bytes::from(format!("key{i}")))
                .find(|key| db.stripe_for(key) == stripe)
                .unwrap()
        };
        let (k, m) = (on(0), on(1));
        db.put(k.clone(), Bytes::from("old"))?;
        db.put(k.clone(), Bytes::from("new"))?;
        db.stripe(0).flush()?;
        db.put(m.clone(), Bytes::from("x"))?;
        db.stripe(1).flush()?;
        db.put(m.clone(), Bytes::from("m"))?;
        drop(db);
        fs.crash(seed);
        let db = open()?;
        Ok([db.get(&k, &DirectProvider)?, db.get(&m, &DirectProvider)?])
    }

    fn value(v: &'static str) -> Option<Bytes> {
        Some(Bytes::from(v))
    }

    #[test]
    fn a_crash_after_a_flush_loses_nothing_the_policy_promised() {
        for seed in 0..24 {
            let [k, m] = cut_after_a_flush(SyncPolicy::Always, None, seed).unwrap();
            assert_eq!((k, m), (value("new"), value("m")), "always, seed {seed}");
            let [k, _] = cut_after_a_flush(SyncPolicy::OnFlush, None, seed).unwrap();
            assert_eq!(k, value("new"), "on_flush, seed {seed}");
        }
    }

    #[test]
    fn a_crash_loses_an_acked_write_whose_wal_sync_was_left_out() {
        let [_, m] = cut_after_a_flush(SyncPolicy::Always, Some(FsyncSite::WalAppend), 0).unwrap();
        assert_eq!(
            m,
            value("x"),
            "the ack of `m` came out of an unsynced buffer"
        );
    }

    #[test]
    fn a_crash_resurrects_a_torn_segment_whose_seal_sync_was_left_out() {
        // The flushed segment's rename to a spare is lost and its unsynced
        // tail torn off: the older write replays over the table's newer
        // one. (Where the torn tail holds part of the zero fill instead,
        // the open fails.)
        let hole = Some(FsyncSite::WalReset);
        let stale = (0..32).any(|seed| {
            let read = cut_after_a_flush(SyncPolicy::OnFlush, hole, seed);
            matches!(read, Ok([k, _]) if k == value("old"))
        });
        assert!(stale, "no seed replayed the torn segment");
    }

    #[test]
    fn a_crash_loses_a_flush_whose_manifest_dir_sync_was_left_out() {
        // The manifest's rename into place is lost, the retirement of the
        // segment it made obsolete is not.
        let hole = Some(FsyncSite::ManifestDir);
        let [k, _] = cut_after_a_flush(SyncPolicy::Always, hole, 2).unwrap();
        assert_eq!(k, None);
    }

    #[test]
    fn a_crash_loses_a_table_whose_sst_dir_sync_was_left_out() {
        // The manifest can name a table whose directory entry never became
        // durable: the store then refuses to open rather than serve
        // without it. Where the entry survived, `k` reads its flush.
        let hole = Some(FsyncSite::SstDir);
        let mut refused = false;
        for seed in 0..16 {
            match cut_after_a_flush(SyncPolicy::OnFlush, hole, seed) {
                Err(_) => refused = true,
                Ok([k, _]) => assert_eq!(k, value("new"), "seed {seed}"),
            }
        }
        assert!(refused, "no seed lost the table");
    }
}
