//! A timed wrapper around the engine's `RwLock` for contention accounting.
//!
//! The serving benchmarks flatten with rising concurrency, and the working
//! hypothesis blames the single `RwLock<Inner>` in [`crate::db`]. Before
//! paying for lock striping we quantify it: [`TimedRwLock`] counts
//! acquisitions and accumulates wait/hold nanoseconds per *path* —
//! [`LockPath::Read`], [`Write`](LockPath::Write),
//! [`Flush`](LockPath::Flush), [`Compaction`](LockPath::Compaction) —
//! cells the registry names `engine.lock.{path}.{acquisitions,wait_ns,hold_ns}`
//! once an `Obs` is attached.
//!
//! Costs: timing is off until [`TimedRwLock::attach_obs`] enables it, and
//! the off path adds exactly one relaxed atomic load per acquisition (no
//! `Instant::now()` calls), keeping the telemetry-disabled server at its
//! old speed. Flush/compaction work that runs *inside* a write guard is
//! attributed to the guard's acquisition path; the `Flush`/`Compaction`
//! rows count explicit `flush()`/`maybe_compact_once()` acquisitions.
//!
//! A thread-local probe ([`reset_lock_probe`]/[`lock_probe`]) accumulates
//! the calling thread's wait and hold nanoseconds, letting the server —
//! which executes each request synchronously on a worker thread — split a
//! request's engine time into lock-wait vs in-lock execution without
//! plumbing timings through every engine return type.

use adcache_obs::{Counter, Obs};
use parking_lot::RwLock;
use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
// The vendored parking_lot shim's read()/write() hand back std guards.
use std::sync::{RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Which engine path acquired the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockPath {
    /// Shared acquisitions: gets, scans, stats probes.
    Read = 0,
    /// Exclusive acquisitions by the write path (put/delete/batch).
    Write = 1,
    /// Exclusive acquisitions by explicit flushes.
    Flush = 2,
    /// Exclusive acquisitions by the compaction driver.
    Compaction = 3,
}

/// Number of [`LockPath`] variants.
pub const LOCK_PATHS: usize = 4;

impl LockPath {
    /// All paths, index order.
    pub const ALL: [LockPath; LOCK_PATHS] = [
        LockPath::Read,
        LockPath::Write,
        LockPath::Flush,
        LockPath::Compaction,
    ];

    /// Stable label used in metric names and `LockContention` events.
    pub fn label(self) -> &'static str {
        match self {
            LockPath::Read => "read",
            LockPath::Write => "write",
            LockPath::Flush => "flush",
            LockPath::Compaction => "compaction",
        }
    }
}

#[derive(Default)]
struct PathStats {
    acquisitions: Counter,
    wait_ns: Counter,
    hold_ns: Counter,
}

/// The calling thread's lock time. Hold runs from the outermost timed
/// acquisition to the outermost release, so guards held at once count their
/// common span once, and the wait for a nested acquisition is wait only.
#[derive(Clone, Copy)]
struct Probe {
    wait_ns: u64,
    hold_ns: u64,
    /// Timed guards the thread holds.
    depth: u32,
    /// Start of the open hold span.
    since: Option<Instant>,
}

impl Probe {
    /// Adds the open hold span, ended at `at`, to `hold_ns`.
    fn close(&mut self, at: Instant) {
        if let Some(since) = self.since.take() {
            self.hold_ns += at.saturating_duration_since(since).as_nanos() as u64;
        }
    }
}

thread_local! {
    static PROBE: Cell<Probe> = const {
        Cell::new(Probe { wait_ns: 0, hold_ns: 0, depth: 0, since: None })
    };
}

fn probe(f: impl FnOnce(&mut Probe)) {
    PROBE.with(|c| {
        let mut p = c.get();
        f(&mut p);
        c.set(p);
    });
}

/// Runs `f` with the calling thread's hold span paused, its guards still
/// held: a caller's callback run under the store's locks stays the
/// caller's time.
pub(crate) fn outside_lock_probe(f: impl FnOnce()) {
    let held = PROBE.with(Cell::get).depth > 0;
    if held {
        probe(|p| p.close(Instant::now()));
    }
    f();
    if held {
        probe(|p| p.since = Some(Instant::now()));
    }
}

/// Zeroes the calling thread's lock probe. Call before dispatching one
/// request into the engine.
pub fn reset_lock_probe() {
    probe(|p| (p.wait_ns, p.hold_ns) = (0, 0));
}

/// `(wait_ns, hold_ns)` accumulated on the calling thread since the last
/// [`reset_lock_probe`]. Both are 0 when timing is disabled.
pub fn lock_probe() -> (u64, u64) {
    let p = PROBE.with(Cell::get);
    (p.wait_ns, p.hold_ns)
}

/// An `RwLock` that accounts wait/hold time per [`LockPath`].
pub struct TimedRwLock<T> {
    lock: RwLock<T>,
    timing: AtomicBool,
    stats: [PathStats; LOCK_PATHS],
}

impl<T> TimedRwLock<T> {
    /// Wraps `value`; timing starts disabled.
    pub fn new(value: T) -> Self {
        TimedRwLock {
            lock: RwLock::new(value),
            timing: AtomicBool::new(false),
            stats: Default::default(),
        }
    }

    /// Names the per-path cells `{prefix}.{path}.{acquisitions,wait_ns,hold_ns}`
    /// in the registry and enables timing when `obs` is live. Safe to call
    /// more than once.
    pub fn attach_obs(&self, obs: &Obs, prefix: &str) {
        self.attach_obs_prefixes(obs, &[prefix]);
    }

    /// Like [`attach_obs`](Self::attach_obs) but names the same per-path
    /// cells under several prefixes at once — e.g. a striped engine
    /// naming both the aggregate `engine.lock` set and its own
    /// `engine.stripe.<i>.lock` set. A name reads the sum of its cells, so
    /// the aggregate prefix adds up every stripe; an acquisition still
    /// bumps one cell per quantity.
    pub fn attach_obs_prefixes(&self, obs: &Obs, prefixes: &[&str]) {
        if !obs.is_enabled() {
            return;
        }
        for prefix in prefixes {
            for p in LockPath::ALL {
                let (s, path) = (&self.stats[p as usize], p.label());
                obs.adopt_counter(&format!("{prefix}.{path}.acquisitions"), &s.acquisitions);
                obs.adopt_counter(&format!("{prefix}.{path}.wait_ns"), &s.wait_ns);
                obs.adopt_counter(&format!("{prefix}.{path}.hold_ns"), &s.hold_ns);
            }
        }
        self.timing.store(true, Ordering::Release);
    }

    /// Whether acquisitions are being timed.
    pub fn timing_enabled(&self) -> bool {
        self.timing.load(Ordering::Relaxed)
    }

    /// Force timing on/off (tests; normally [`attach_obs`](Self::attach_obs)
    /// enables it).
    pub fn set_timing(&self, on: bool) {
        self.timing.store(on, Ordering::Release);
    }

    /// Acquires shared, attributing wait/hold to `path`.
    pub fn read(&self, path: LockPath) -> TimedReadGuard<'_, T> {
        let t0 = self.wait_start();
        let guard = self.lock.read();
        TimedReadGuard {
            guard,
            timing: self.note_acquire(path, t0),
        }
    }

    /// [`read`](Self::read) without blocking: `None` while a writer holds
    /// or awaits the lock. A failed attempt is not an acquisition.
    pub fn try_read(&self, path: LockPath) -> Option<TimedReadGuard<'_, T>> {
        let t0 = self.wait_start();
        let guard = self.lock.try_read()?;
        Some(TimedReadGuard {
            guard,
            timing: self.note_acquire(path, t0),
        })
    }

    /// Acquires exclusive, attributing wait/hold to `path`.
    pub fn write(&self, path: LockPath) -> TimedWriteGuard<'_, T> {
        let t0 = self.wait_start();
        let guard = self.lock.write();
        TimedWriteGuard {
            guard,
            timing: self.note_acquire(path, t0),
        }
    }

    /// When an acquisition's wait began; `None` (and no clock read) while
    /// timing is off.
    fn wait_start(&self) -> Option<Instant> {
        self.timing.load(Ordering::Relaxed).then(Instant::now)
    }

    /// Accounts an acquisition whose wait began at `t0` and ended now; an
    /// untimed one (`t0` is `None`) costs nothing.
    fn note_acquire(&self, path: LockPath, t0: Option<Instant>) -> Option<GuardTiming<'_, T>> {
        let t0 = t0?;
        let acquired = Instant::now();
        let wait_ns = acquired.saturating_duration_since(t0).as_nanos() as u64;
        let s = &self.stats[path as usize];
        s.acquisitions.inc();
        s.wait_ns.add(wait_ns);
        probe(|p| {
            p.wait_ns += wait_ns;
            p.close(t0);
            p.since = Some(acquired);
            p.depth += 1;
        });
        Some(GuardTiming {
            owner: self,
            path,
            acquired,
            wait_ns,
        })
    }

    /// Accounts a release of a guard acquired at `acquired`: this lock's
    /// hold counters per guard, the thread's probe per outermost span.
    fn note_release(&self, path: LockPath, acquired: Instant) {
        let now = Instant::now();
        let hold_ns = now.saturating_duration_since(acquired).as_nanos() as u64;
        self.stats[path as usize].hold_ns.add(hold_ns);
        probe(|p| {
            // Runs inside a guard's `Drop`, which must not panic.
            p.depth = p.depth.saturating_sub(1);
            if p.depth == 0 {
                p.close(now);
            }
        });
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TimedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedRwLock")
            .field("timing", &self.timing_enabled())
            .finish_non_exhaustive()
    }
}

struct GuardTiming<'a, T> {
    owner: &'a TimedRwLock<T>,
    path: LockPath,
    acquired: Instant,
    wait_ns: u64,
}

/// Shared guard; accumulates hold time on drop.
pub struct TimedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    timing: Option<GuardTiming<'a, T>>,
}

/// Exclusive guard; accumulates hold time on drop.
pub struct TimedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    timing: Option<GuardTiming<'a, T>>,
}

impl<T> TimedReadGuard<'_, T> {
    /// Nanoseconds this acquisition waited (0 when timing is off).
    pub fn wait_ns(&self) -> u64 {
        self.timing.as_ref().map_or(0, |t| t.wait_ns)
    }
}

impl<T> TimedWriteGuard<'_, T> {
    /// Nanoseconds this acquisition waited (0 when timing is off).
    pub fn wait_ns(&self) -> u64 {
        self.timing.as_ref().map_or(0, |t| t.wait_ns)
    }
}

impl<T> Deref for TimedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Deref for TimedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for TimedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

// Drop runs before the inner guard field drops, so hold time is measured
// while the lock is still held (excludes the release itself — fine).
impl<T> Drop for TimedReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(t) = &self.timing {
            t.owner.note_release(t.path, t.acquired);
        }
    }
}

impl<T> Drop for TimedWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(t) = &self.timing {
            t.owner.note_release(t.path, t.acquired);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// `[acquisitions, wait_ns, hold_ns]` the lock counted on `path`.
    fn counts<T>(l: &TimedRwLock<T>, path: LockPath) -> [u64; 3] {
        let s = &l.stats[path as usize];
        [&s.acquisitions, &s.wait_ns, &s.hold_ns].map(Counter::get)
    }

    #[test]
    fn untimed_lock_records_nothing() {
        let l = TimedRwLock::new(1u32);
        reset_lock_probe();
        {
            let g = l.read(LockPath::Read);
            assert_eq!(*g, 1);
            assert_eq!(g.wait_ns(), 0);
        }
        *l.write(LockPath::Write) = 2;
        assert_eq!(*l.read(LockPath::Read), 2);
        assert_eq!(lock_probe(), (0, 0));
        for p in LockPath::ALL {
            assert_eq!(counts(&l, p), [0; 3]);
        }
    }

    #[test]
    fn timed_lock_accumulates_per_path() {
        let l = TimedRwLock::new(0u32);
        l.set_timing(true);
        reset_lock_probe();
        {
            let mut g = l.write(LockPath::Write);
            *g += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = *l.read(LockPath::Read);
        let _ = *l.read(LockPath::Read);
        let [writes, _, write_hold] = counts(&l, LockPath::Write);
        assert_eq!(writes, 1);
        assert!(write_hold >= 2_000_000);
        assert_eq!(counts(&l, LockPath::Read)[0], 2);
        assert_eq!(counts(&l, LockPath::Flush)[0], 0);
        let (_wait, hold) = lock_probe();
        assert!(hold >= 2_000_000, "probe hold {hold}");
    }

    #[test]
    fn nested_guards_count_their_common_hold_once() {
        let (a, b) = (TimedRwLock::new(()), TimedRwLock::new(()));
        a.set_timing(true);
        b.set_timing(true);
        reset_lock_probe();
        {
            let _ga = a.read(LockPath::Read);
            let _gb = b.read(LockPath::Read);
            std::thread::sleep(Duration::from_millis(20));
        }
        let (_, hold) = lock_probe();
        // Each lock still accounts its own guard, about t each; the probe
        // counts t once, not 2t.
        let per_guard: Vec<u64> = [&a, &b].map(|l| counts(l, LockPath::Read)[2]).into();
        assert!(per_guard.iter().all(|&h| h >= 20_000_000), "{per_guard:?}");
        let sum: u64 = per_guard.iter().sum();
        assert!(
            hold >= 20_000_000 && hold < sum * 3 / 4,
            "two guards held together: probe hold {hold} ns, per guard {per_guard:?}"
        );
    }

    #[test]
    fn a_callback_under_the_guards_is_not_hold() {
        let l = TimedRwLock::new(());
        l.set_timing(true);
        reset_lock_probe();
        {
            let _g = l.read(LockPath::Read);
            outside_lock_probe(|| std::thread::sleep(Duration::from_millis(30)));
        }
        let (_, hold) = lock_probe();
        let guard_hold = counts(&l, LockPath::Read)[2];
        assert!(guard_hold >= 30_000_000, "{guard_hold}");
        assert!(
            hold < guard_hold / 3,
            "a 30 ms callback counted: probe hold {hold} ns of the guard's {guard_hold}"
        );
    }

    #[test]
    fn a_nested_wait_is_wait_only() {
        let outer = TimedRwLock::new(());
        let inner = Arc::new(TimedRwLock::new(()));
        outer.set_timing(true);
        inner.set_timing(true);
        let (held_tx, held) = std::sync::mpsc::channel();
        let holder = {
            let inner = inner.clone();
            std::thread::spawn(move || {
                let _g = inner.write(LockPath::Write);
                held_tx.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(30));
            })
        };
        held.recv().unwrap();
        reset_lock_probe();
        {
            let _go = outer.read(LockPath::Read);
            let _gi = inner.read(LockPath::Read);
        }
        holder.join().unwrap();
        let (wait, hold) = lock_probe();
        assert!(wait >= 10_000_000, "nested wait not counted: {wait} ns");
        assert!(hold < wait / 2, "nested wait counted as hold: {hold} ns");
    }

    #[test]
    fn try_read_fails_only_against_a_writer() {
        let l = TimedRwLock::new(());
        l.set_timing(true);
        let r = l.read(LockPath::Read);
        assert!(l.try_read(LockPath::Read).is_some(), "readers share");
        drop(r);
        let w = l.write(LockPath::Write);
        assert!(l.try_read(LockPath::Read).is_none(), "a writer excludes");
        drop(w);
        assert!(l.try_read(LockPath::Read).is_some());
        assert_eq!(counts(&l, LockPath::Read)[0], 3);
    }

    #[test]
    fn contended_write_measures_wait() {
        let l = Arc::new(TimedRwLock::new(0u32));
        l.set_timing(true);
        let (held_tx, held) = std::sync::mpsc::channel();
        let holder = {
            let l = l.clone();
            std::thread::spawn(move || {
                let _g = l.write(LockPath::Flush);
                held_tx.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(10));
            })
        };
        // The holder has the lock before the contender asks for it: the
        // order is forced, not left to a sleep.
        held.recv().unwrap();
        let g = l.write(LockPath::Write);
        assert!(
            g.wait_ns() >= 1_000_000,
            "expected measurable wait, got {}ns",
            g.wait_ns()
        );
        drop(g);
        holder.join().unwrap();
        assert!(counts(&l, LockPath::Write)[1] >= 1_000_000);
    }

    #[test]
    fn attach_obs_exports_counters() {
        let obs = Obs::enabled();
        let l = TimedRwLock::new(());
        l.attach_obs(&obs, "engine.lock");
        assert!(l.timing_enabled());
        drop(l.read(LockPath::Read));
        drop(l.write(LockPath::Compaction));
        let reg = obs.registry().unwrap();
        assert_eq!(reg.counter_value("engine.lock.read.acquisitions"), 1);
        assert_eq!(reg.counter_value("engine.lock.compaction.acquisitions"), 1);
        let held = counts(&l, LockPath::Compaction)[2];
        assert_eq!(reg.counter_value("engine.lock.compaction.hold_ns"), held);
        // Disabled obs leaves timing off.
        let l2 = TimedRwLock::new(());
        l2.attach_obs(&Obs::disabled(), "engine.lock");
        assert!(!l2.timing_enabled());
    }
}
