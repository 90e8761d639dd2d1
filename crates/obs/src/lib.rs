//! # adcache-obs — unified observability for the AdCache stack
//!
//! One crate, three facilities, shared by every layer (LSM engine, cache
//! structures, controller/runner):
//!
//! - a **metrics registry** ([`metrics::Registry`]) of named counters,
//!   gauges, and histograms with lock-free recording on hot paths;
//! - a **structured event journal** ([`journal::Journal`]) — a bounded ring
//!   of typed [`events::Event`]s (admission verdicts with reason codes,
//!   evictions, compactions, flushes, boundary resizes, RL train steps)
//!   exported as JSONL;
//! - the [`Obs`] handle tying them together, designed so that a *disabled*
//!   handle costs nothing: no allocation, no locking, no atomics — just a
//!   branch on an `Option` that the optimizer hoists.
//!
//! Instrumented code takes an `Obs` by value (it is two pointers) and calls
//! [`Obs::emit`] with a closure, so event construction is skipped entirely
//! when tracing is off:
//!
//! ```
//! use adcache_obs::{Counter, Event, Obs};
//!
//! let obs = Obs::enabled();
//! obs.set_window(3);
//! obs.emit(|| Event::Flush { entries: 100, bytes: 4096 });
//! // A layer counts in its own cell; the registry names it.
//! let flushes = Counter::new();
//! obs.adopt_counter("lsm.flushes", &flushes);
//! flushes.inc();
//! assert_eq!(obs.journal().unwrap().len(), 1);
//! assert_eq!(obs.registry().unwrap().counter_value("lsm.flushes"), 1);
//! ```

#![warn(missing_docs)]

pub mod events;
pub mod histogram;
pub mod journal;
pub mod metrics;
pub mod snapshot;
pub mod stage;

pub use events::{
    AdmissionOutcome, AdmissionReason, CacheStructure, ConnCloseCause, Event, EvictionCause,
    FaultKind,
};
pub use histogram::{AtomicHistogram, Histogram};
pub use journal::{parse_jsonl, parse_jsonl_lenient, Journal, JournalRecord};
pub use metrics::{Counter, Gauge, HistogramHandle, Registry};
pub use snapshot::Snapshotter;
pub use stage::{Stage, StageSet, StageTimer, STAGE_COUNT};

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration for an enabled [`Obs`].
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Maximum events retained by the journal ring (oldest dropped first).
    pub journal_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        // 64k records ≈ a few MB; enough for every controller/compaction
        // event of a long run plus a deep tail of per-op admission events.
        ObsConfig {
            journal_capacity: 1 << 16,
        }
    }
}

struct ObsInner {
    registry: Registry,
    journal: Journal,
    window: AtomicU64,
}

/// The observability handle threaded through the stack.
///
/// Cloning is cheap (an `Option<Arc>`); a handle from [`Obs::disabled`] (or
/// `Obs::default()`) makes every operation a no-op.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Obs {
    /// A disabled handle: every operation is a no-op.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// An enabled handle with default configuration.
    pub fn enabled() -> Self {
        Obs::with_config(ObsConfig::default())
    }

    /// An enabled handle with explicit configuration.
    pub fn with_config(cfg: ObsConfig) -> Self {
        Obs {
            inner: Some(Arc::new(ObsInner {
                registry: Registry::new(),
                journal: Journal::new(cfg.journal_capacity),
                window: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the tuning window stamped onto subsequent events.
    #[inline]
    pub fn set_window(&self, window: u64) {
        if let Some(inner) = &self.inner {
            inner.window.store(window, Ordering::Relaxed);
        }
    }

    /// The current tuning window (0 when disabled).
    pub fn window(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.window.load(Ordering::Relaxed))
    }

    /// Records an event. The closure runs only when enabled, so callers pay
    /// nothing (no allocation, no formatting) on the disabled path.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            inner
                .journal
                .push(inner.window.load(Ordering::Relaxed), make());
        }
    }

    /// Counter handle for `name`; inert when disabled.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .as_ref()
            .map_or_else(Counter::inert, |i| i.registry.counter(name))
    }

    /// Names a cell a layer already counts in: `name` reads it from now
    /// on, summed with any other cells of that name
    /// ([`Registry::adopt_counter`]). Does nothing when disabled; the cell
    /// counts either way.
    pub fn adopt_counter(&self, name: &str, counter: &Counter) {
        if let Some(inner) = &self.inner {
            inner.registry.adopt_counter(name, counter);
        }
    }

    /// Gauge handle for `name`; inert when disabled.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .as_ref()
            .map_or_else(Gauge::default, |i| i.registry.gauge(name))
    }

    /// Histogram handle for `name`; inert when disabled.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        self.inner
            .as_ref()
            .map_or_else(HistogramHandle::default, |i| i.registry.histogram(name))
    }

    /// The underlying registry, when enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// The underlying journal, when enabled.
    pub fn journal(&self) -> Option<&Journal> {
        self.inner.as_deref().map(|i| &i.journal)
    }

    /// Metrics snapshot as pretty JSON, when enabled.
    pub fn metrics_json(&self) -> Option<String> {
        self.inner.as_ref().map(|i| i.registry.snapshot_json())
    }

    /// Journal contents as JSONL, when enabled.
    pub fn trace_jsonl(&self) -> Option<String> {
        self.inner.as_ref().map(|i| i.journal.to_jsonl())
    }

    /// Writes `trace.jsonl` and `metrics.json` into `dir` (created if
    /// missing). Returns `false` without touching the filesystem when
    /// disabled.
    pub fn dump_to_dir(&self, dir: &Path) -> std::io::Result<bool> {
        let Some(inner) = &self.inner else {
            return Ok(false);
        };
        std::fs::create_dir_all(dir)?;
        let mut trace = std::fs::File::create(dir.join("trace.jsonl"))?;
        trace.write_all(inner.journal.to_jsonl().as_bytes())?;
        let mut metrics = std::fs::File::create(dir.join("metrics.json"))?;
        metrics.write_all(inner.registry.snapshot_json().as_bytes())?;
        metrics.write_all(b"\n")?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.set_window(9);
        assert_eq!(obs.window(), 0);
        let mut ran = false;
        obs.emit(|| {
            ran = true;
            Event::Flush {
                entries: 0,
                bytes: 0,
            }
        });
        assert!(!ran, "emit closure must not run when disabled");
        assert!(obs.journal().is_none());
        assert!(obs.metrics_json().is_none());
    }

    #[test]
    fn enabled_handle_records_and_stamps_windows() {
        let obs = Obs::enabled();
        obs.emit(|| Event::Flush {
            entries: 1,
            bytes: 10,
        });
        obs.set_window(7);
        obs.emit(|| Event::Flush {
            entries: 2,
            bytes: 20,
        });
        let recs = obs.journal().unwrap().records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].window, 0);
        assert_eq!(recs[1].window, 7);
        obs.counter("x").add(2);
        assert!(obs.metrics_json().unwrap().contains("\"x\": 2"));
    }

    #[test]
    fn adopting_on_a_disabled_handle_does_nothing() {
        let cell = Counter::new();
        Obs::disabled().adopt_counter("x", &cell);
        cell.inc();
        assert_eq!(cell.get(), 1, "the cell counts without telemetry");
        let obs = Obs::enabled();
        obs.adopt_counter("x", &cell);
        cell.add(2);
        assert_eq!(obs.registry().unwrap().counter_value("x"), 2);
        assert_eq!(cell.get(), 3);
    }

    #[test]
    fn dump_writes_both_files() {
        let obs = Obs::enabled();
        obs.emit(|| Event::RunStart {
            strategy: "t".into(),
            total_cache_bytes: 1,
        });
        obs.counter("c").inc();
        let dir = std::env::temp_dir().join(format!("adcache-obs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(obs.dump_to_dir(&dir).unwrap());
        let trace = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap();
        assert!(trace.contains("RunStart"));
        let metrics = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
        assert!(metrics.contains("\"c\": 1"));
        assert!(!Obs::disabled().dump_to_dir(&dir).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
