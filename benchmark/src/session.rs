//! One server child with its two loaded, warmed connections, and the
//! replay of a measured stream against it.

use crate::procfs;
use crate::server::{ServeFlags, ServerProc, TempDir};
use crate::wire::{self, Conn, Driver, OpKind, Sample, Tally};
use crate::workloads::{Workload, CONNECTIONS};
use serde_json::Value;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Looks up `path` (dot-free keys, one per level) in a JSON tree as `f64`;
/// 0 when absent.
pub fn num(v: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// `after − before` of the number at `path` in two `STATS` snapshots.
pub fn delta(before: &Value, after: &Value, path: &[&str]) -> f64 {
    num(after, path) - num(before, path)
}

/// Runs `f` on every driver, one thread each, and collects the results in
/// connection order. The first error wins.
pub fn on_each<T: Send>(
    drivers: &mut [Driver],
    f: impl Fn(&mut Driver) -> io::Result<T> + Sync,
) -> io::Result<Vec<T>> {
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = drivers
            .iter_mut()
            .map(|d| scope.spawn(move || f(d)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    })
}

/// Waits until background flush and compaction have caught up: every
/// sealed memtable flushed and the compaction count unchanged for 100 ms.
pub fn settle(conn: &mut Conn) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = f64::NAN;
    let mut quiet = 0;
    while quiet < 5 {
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "background work did not settle within 30 s",
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
        let stats = conn.stats()?;
        let compactions = num(&stats, &["engine", "compactions"]);
        let caught_up = num(&stats, &["engine", "flushes"]) >= num(&stats, &["engine", "seals"]);
        quiet = if caught_up && compactions == last {
            quiet + 1
        } else {
            0
        };
        last = compactions;
    }
    Ok(())
}

/// A server child, loaded and warmed, with its connections.
pub struct Session {
    /// The child. Dropping the session kills and reaps it.
    pub server: ServerProc,
    /// One driver per connection, in connection order.
    pub drivers: Vec<Driver>,
    /// The durable store's directory, removed with the session.
    pub dir: Option<TempDir>,
    /// Spawn → first `PING`, wire load, settle, warm-up, in seconds.
    pub setup_s: f64,
    /// The flags the child runs with.
    pub flags: ServeFlags,
}

impl Session {
    /// Spawns the server for `wl` and brings it to the measured state:
    /// every key loaded through the wire exactly once, background work
    /// settled, one sequential read of every key, then `warm_ops` of the
    /// workload's own stream.
    pub fn setup(
        bin: &Path,
        wl: &Workload,
        seed: u64,
        telemetry: bool,
        cpu: Option<usize>,
        tag: &str,
    ) -> io::Result<Session> {
        let started = Instant::now();
        let dir = wl.durable.then(|| TempDir::new(tag)).transpose()?;
        let flags = ServeFlags {
            cache_mb: wl.cache_mb,
            dir: dir.as_ref().map(|d| d.path().to_path_buf()),
            telemetry,
            cpu,
        };
        let server = ServerProc::spawn(bin, &flags)?;
        let mut drivers = (0..CONNECTIONS)
            .map(|i| Driver::connect(&server.addr, wl, seed, i, CONNECTIONS))
            .collect::<io::Result<Vec<_>>>()?;
        on_each(&mut drivers, Driver::load)?;
        settle(&mut drivers[0].conn)?;
        if wl.fits_cache() {
            on_each(&mut drivers, Driver::sweep)?;
        }
        let warm = wire::replay(&mut drivers, wl.warm_ops / CONNECTIONS, 1, |_, _| Ok(()))?;
        if let Some(bad) = warm.iter().find(|t| t.failed > 0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("warm-up replies failed verification: {:?}", bad.examples),
            ));
        }
        settle(&mut drivers[0].conn)?;
        Ok(Session {
            server,
            drivers,
            dir,
            setup_s: started.elapsed().as_secs_f64(),
            flags,
        })
    }

    /// Replays `ops` operations (all connections together) of the measured
    /// stream. `STATS` and the server's CPU time are read at the
    /// `segments + 1` boundaries of `segments` equal parts of the stream
    /// (1: just before and after the replay).
    pub fn replay(&mut self, ops: u64, segments: u64) -> io::Result<Replay> {
        let pid = self.server.pid();
        let mut boundaries = Vec::new();
        let tallies = wire::replay(
            &mut self.drivers,
            ops / CONNECTIONS,
            segments,
            |drivers, _segment| {
                let stats = drivers[0].conn.stats()?;
                boundaries.push(Boundary {
                    at: Instant::now(),
                    stats,
                    cpu_ticks: procfs::cpu_ticks(pid)?,
                });
                Ok(())
            },
        )?;
        Ok(Replay {
            tallies,
            peak_rss_kb: procfs::vm_hwm_kb(pid)?,
            boundaries,
        })
    }

    /// The durability check: drains the server with `SHUTDOWN`, restarts
    /// it on the same directory, and reads back every key, expecting the
    /// version its owning connection wrote last. Returns `(keys read,
    /// mismatches)`; the restarted server replaces the old one.
    pub fn restart_and_read_back(&mut self, bin: &Path) -> io::Result<(u64, u64)> {
        self.server.shutdown()?;
        self.server = ServerProc::spawn(bin, &self.flags)?;
        let addr = self.server.addr.clone();
        for d in &mut self.drivers {
            d.conn = Conn::connect(&addr)?;
        }
        let counts = on_each(&mut self.drivers, Driver::read_back_owned)?;
        Ok(counts
            .into_iter()
            .fold((0, 0), |(n, bad), (m, b)| (n + m, bad + b)))
    }
}

/// The server's counters at one boundary of a replay.
pub struct Boundary {
    /// When the boundary was reached.
    pub at: Instant,
    /// `STATS` at the boundary.
    pub stats: Value,
    /// Server CPU (user + system) clock ticks consumed so far.
    pub cpu_ticks: u64,
}

/// What a measured replay produced.
pub struct Replay {
    /// What each connection measured, in connection order.
    pub tallies: Vec<Tally>,
    /// The server's peak resident set in kB at the end of the replay.
    pub peak_rss_kb: u64,
    /// The segment boundaries, first (before the replay) to last (after).
    pub boundaries: Vec<Boundary>,
}

impl Replay {
    /// Sum of `f` over the connections.
    pub fn total(&self, f: impl Fn(&Tally) -> u64) -> u64 {
        self.tallies.iter().map(f).sum()
    }

    /// The boundary before the replay.
    pub fn before(&self) -> &Boundary {
        self.boundaries.first().expect("a replay has boundaries")
    }

    /// The boundary after the replay.
    pub fn after(&self) -> &Boundary {
        self.boundaries.last().expect("a replay has boundaries")
    }

    /// First send to last reply over all connections, in seconds.
    pub fn wall_s(&self) -> f64 {
        let first = |t: &Tally| t.samples.first().map_or(0, Sample::start_ns);
        let last = |t: &Tally| t.samples.last().map_or(0, |s| s.end_ns);
        let start = self.tallies.iter().map(first).min().unwrap_or(0);
        let end = self.tallies.iter().map(last).max().unwrap_or(0);
        (end - start) as f64 / 1e9
    }

    /// Round-trip nanoseconds of every `kind` operation of all
    /// connections, in order of completion.
    pub fn latencies(&self, kind: OpKind) -> Vec<u32> {
        let mut of_kind: Vec<&Sample> = self
            .tallies
            .iter()
            .flat_map(|t| &t.samples)
            .filter(|s| s.kind == kind)
            .collect();
        of_kind.sort_by_key(|s| s.end_ns);
        of_kind.iter().map(|s| s.latency_ns).collect()
    }
}
