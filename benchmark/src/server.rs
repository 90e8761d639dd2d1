//! The system under test as a child process: building the `adcache`
//! binary, spawning `adcache serve` on a free loopback port, and making
//! sure the child is reaped and its data directory removed on every path
//! out, including failure.

use crate::wire::Conn;
use adcache_server::{Request, Response};
use std::io::{self, Read};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The repository root: the benchmark crate lives one level below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent directory")
        .to_path_buf()
}

/// Where the benchmark writes reports, traces and temporary stores.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn other(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// Builds `adcache` in release mode from the root workspace (a no-op when
/// it is current) and returns the path of the binary. Honors
/// `CARGO_TARGET_DIR` the way cargo itself does.
pub fn build_server_binary() -> io::Result<PathBuf> {
    let root = repo_root();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "adcache-cli",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(other(format!("building adcache-cli failed: {status}")));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("target"));
    let bin = target.join("release").join("adcache");
    if !bin.is_file() {
        return Err(other(format!("no server binary at {}", bin.display())));
    }
    Ok(bin)
}

/// A directory under [`out_dir`] that is removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh, empty directory named after this process and `tag`.
    pub fn new(tag: &str) -> io::Result<TempDir> {
        let path = out_dir()
            .join("tmp")
            .join(format!("{}-{tag}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            total += dir_bytes(&entry.path())?;
        } else {
            total += meta.len();
        }
    }
    Ok(total)
}

/// The CPU the server child gets when [`separate_cpus`] succeeds.
pub const SERVER_CPU: usize = 0;
/// The CPU the generator (this process) gets.
pub const GENERATOR_CPU: usize = 1;

/// Confines this process, and every thread it creates from now on, to
/// [`GENERATOR_CPU`], and returns [`SERVER_CPU`] for the server children.
///
/// Why: on the 2-core reference host the server's spinning workers and
/// the two generator threads, left to the scheduler, flip between
/// placements that differ 2.4× in throughput (45 k vs 110 k ops/s on
/// `get-hot`) and last seconds each, so no statistic of a 10 s run is
/// steady. Giving the server one core of its own and the generator the
/// other removes the flipping. The server then sizes itself for one core
/// (it reads its affinity mask), which the report records.
///
/// Returns `None`, leaving everything unpinned, on a single-CPU host or
/// where `taskset` is missing or refused.
pub fn separate_cpus() -> Option<usize> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus <= GENERATOR_CPU {
        return None;
    }
    let pinned = Command::new("taskset")
        .args(["-pc", &GENERATOR_CPU.to_string()])
        .arg(std::process::id().to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    pinned.then_some(SERVER_CPU)
}

/// How one server child is configured. Everything not listed is left at
/// the server's shipped default.
#[derive(Debug, Clone)]
pub struct ServeFlags {
    /// `--cache-mb`.
    pub cache_mb: usize,
    /// `--dir` (durable store) or in-memory when `None`.
    pub dir: Option<PathBuf>,
    /// Whether the telemetry plane stays on (`--no-telemetry` otherwise).
    pub telemetry: bool,
    /// The CPU the child is confined to (see [`separate_cpus`]).
    pub cpu: Option<usize>,
}

impl ServeFlags {
    /// The argument list after the binary name, for the given address.
    pub fn args(&self, addr: &str) -> Vec<String> {
        let mut args = vec![
            "serve".to_string(),
            "--addr".to_string(),
            addr.to_string(),
            "--strategy".to_string(),
            "adcache".to_string(),
            "--cache-mb".to_string(),
            self.cache_mb.to_string(),
        ];
        if let Some(dir) = &self.dir {
            args.push("--dir".to_string());
            args.push(dir.display().to_string());
        }
        if !self.telemetry {
            args.push("--no-telemetry".to_string());
        }
        args
    }
}

/// A running `adcache serve` child. Dropping it kills and reaps the child
/// if [`ServerProc::shutdown`] was not called.
pub struct ServerProc {
    child: Child,
    /// `host:port` the server listens on.
    pub addr: String,
    /// The exact arguments the child was started with.
    pub args: Vec<String>,
}

/// Picks a free loopback port by binding `:0` and releasing it.
fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

impl ServerProc {
    /// Spawns the server and waits until it answers a `PING`.
    pub fn spawn(bin: &Path, flags: &ServeFlags) -> io::Result<ServerProc> {
        let addr = format!("127.0.0.1:{}", free_port()?);
        let args = flags.args(&addr);
        let mut command = match flags.cpu {
            Some(cpu) => {
                let mut taskset = Command::new("taskset");
                taskset.args(["-c", &cpu.to_string()]).arg(bin);
                taskset
            }
            None => Command::new(bin),
        };
        let child = command
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut server = ServerProc { child, addr, args };
        server.wait_ready()?;
        Ok(server)
    }

    fn wait_ready(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Err(other(format!("server exited before serving: {status}")));
            }
            if let Ok(mut conn) = Conn::connect(&self.addr) {
                if matches!(conn.call(&Request::Ping), Ok(Response::Ok)) {
                    return Ok(());
                }
            }
            if Instant::now() >= deadline {
                return Err(other("server did not answer PING within 60 s".into()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `SHUTDOWN`, waits for the child to drain and exit, and
    /// returns what it printed. A child that does not exit within 60 s is
    /// reported as an error (and killed when `self` is dropped).
    pub fn shutdown(&mut self) -> io::Result<String> {
        let mut conn = Conn::connect(&self.addr)?;
        match conn.call(&Request::Shutdown)? {
            Response::Ok => {}
            other_reply => return Err(other(format!("SHUTDOWN answered {other_reply:?}"))),
        }
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break status;
            }
            if Instant::now() >= deadline {
                return Err(other("server did not exit within 60 s of SHUTDOWN".into()));
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let mut printed = String::new();
        if let Some(mut out) = self.child.stdout.take() {
            out.read_to_string(&mut printed)?;
        }
        if !status.success() {
            return Err(other(format!("server exited with {status}: {printed}")));
        }
        Ok(printed)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
