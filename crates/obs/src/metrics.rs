//! The metrics registry: named counters, gauges, and histograms.
//!
//! Registration (name → handle) takes a lock once; recording through a
//! handle is lock-free (relaxed atomics). Handles are cheap to clone and
//! remain valid for the registry's lifetime. A handle obtained from a
//! disabled [`crate::Obs`] is inert: recording through it is a no-op with
//! no allocation and no synchronization.
//!
//! A layer that keeps its own statistic keeps it in a live [`Counter`] and
//! lets the registry name that cell ([`Registry::adopt_counter`]) instead
//! of bumping a second copy: each quantity is counted once.

use crate::histogram::{AtomicHistogram, Histogram};
use parking_lot::Mutex;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// One counter cell on a cache line of its own, so the cells of different
/// shards or stripes never share one.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct Cell(AtomicU64);

impl Cell {
    fn load(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing counter handle.
///
/// [`Counter::new`] (or `default`) makes a live cell that counts whether
/// or not telemetry is on: a layer's own statistic, which the registry can
/// adopt. A handle from a disabled [`crate::Obs`] is inert.
#[derive(Debug, Clone)]
pub struct Counter(pub(crate) Option<Arc<Cell>>);

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

impl Counter {
    /// A live cell at 0, owned by no registry until one adopts it.
    pub fn new() -> Self {
        Counter(Some(Arc::default()))
    }

    /// An inert handle: counts nothing, reads 0.
    pub(crate) fn inert() -> Self {
        Counter(None)
    }

    /// Adds one; returns the count reached.
    #[inline]
    pub fn inc(&self) -> u64 {
        self.add(1)
    }

    /// Adds `n` and returns the count reached (0 on an inert handle).
    /// Lock-free.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.0.fetch_add(n, Ordering::Relaxed).wrapping_add(n))
    }

    /// Current value (0 on an inert handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load())
    }
}

/// A gauge handle holding the latest sampled value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicI64>>);

impl Gauge {
    /// Overwrites the value. Lock-free; no-op on an inert handle.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `n` (may be negative). Lock-free; no-op on an inert handle.
    ///
    /// Use this — not `set` — for gauges updated by concurrent writers
    /// (e.g. in-flight request counts), where racing `set` calls clobber
    /// each other.
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtracts `n`. Lock-free; no-op on an inert handle.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Current value (0 on an inert handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// A histogram handle for recording latency-like samples.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(pub(crate) Option<Arc<AtomicHistogram>>);

impl HistogramHandle {
    /// Records one sample. Lock-free; no-op on an inert handle.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }
}

/// The cells one counter name reads: the registry's own (what
/// [`Registry::counter`] hands out) and every adopted cell with its value
/// at adoption. The name's value is their sum, each adopted cell counted
/// from its adoption on.
#[derive(Debug, Default)]
struct CounterCells {
    own: Option<Arc<Cell>>,
    adopted: Vec<(Arc<Cell>, u64)>,
}

impl CounterCells {
    fn value(&self) -> u64 {
        let own = self.own.as_ref().map_or(0, |c| c.load());
        self.adopted.iter().fold(own, |sum, (cell, base)| {
            sum + cell.load().wrapping_sub(*base)
        })
    }
}

/// Named metric storage. Maps are ordered so exports are deterministic.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, CounterCells>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<AtomicHistogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter registered under `name`, creating it if new.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock();
        let cells = map.entry(name.to_string()).or_default();
        Counter(Some(cells.own.get_or_insert_with(Arc::default).clone()))
    }

    /// Counts `counter`'s cell under `name` from its current value on,
    /// beside any other cells of that name. Adopting a cell a second time
    /// under the same name changes nothing; an inert handle is ignored.
    pub fn adopt_counter(&self, name: &str, counter: &Counter) {
        let Some(cell) = &counter.0 else { return };
        let mut map = self.counters.lock();
        let cells = map.entry(name.to_string()).or_default();
        if !cells.adopted.iter().any(|(c, _)| Arc::ptr_eq(c, cell)) {
            cells.adopted.push((cell.clone(), cell.load()));
        }
    }

    /// The value of the counter named `name` (0 when none is).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .get(name)
            .map_or(0, CounterCells::value)
    }

    /// Returns the gauge registered under `name`, creating it if new.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock();
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)));
        Gauge(Some(cell.clone()))
    }

    /// Returns the histogram registered under `name`, creating it if new.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut map = self.histograms.lock();
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicHistogram::new()));
        HistogramHandle(Some(cell.clone()))
    }

    /// Current value of every counter, name-ordered.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect()
    }

    /// Current value of every gauge, name-ordered.
    pub fn gauges_snapshot(&self) -> Vec<(String, i64)> {
        self.gauges
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Snapshot of every histogram, name-ordered.
    pub fn histograms_snapshot(&self) -> Vec<(String, Histogram)> {
        self.histograms
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Snapshot of every metric as a JSON value tree.
    ///
    /// Shape: `{"counters": {name: n}, "gauges": {name: n},
    /// "histograms": {name: {count, sum_ns, mean_ns, p50_ns, p95_ns,
    /// p99_ns, max_ns}}}`.
    pub fn snapshot_value(&self) -> Value {
        let counters = self
            .counters_snapshot()
            .into_iter()
            .map(|(k, v)| (k, Value::from(v)))
            .collect();
        let gauges = self
            .gauges_snapshot()
            .into_iter()
            .map(|(k, v)| (k, Value::from(v)))
            .collect();
        let histograms = self
            .histograms_snapshot()
            .into_iter()
            .map(|(k, h)| {
                let (p50, p95, p99, max) = h.summary();
                (
                    k,
                    Value::Object(vec![
                        ("count".into(), Value::from(h.count())),
                        ("sum_ns".into(), Value::from(h.sum())),
                        ("mean_ns".into(), Value::from(h.mean())),
                        ("p50_ns".into(), Value::from(p50)),
                        ("p95_ns".into(), Value::from(p95)),
                        ("p99_ns".into(), Value::from(p99)),
                        ("max_ns".into(), Value::from(max)),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("counters".into(), Value::Object(counters)),
            ("gauges".into(), Value::Object(gauges)),
            ("histograms".into(), Value::Object(histograms)),
        ])
    }

    /// Snapshot as pretty-printed JSON text.
    pub fn snapshot_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot_value()).expect("metrics serialize")
    }

    /// Snapshot in the Prometheus text exposition format (version 0.0.4).
    ///
    /// Counters and gauges become single samples; histograms become
    /// summaries with `quantile` labels plus `_sum`/`_count` series.
    /// Metric names are prefixed `adcache_` and sanitized to
    /// `[a-zA-Z0-9_]` so dotted registry names stay legal.
    pub fn prometheus_text(&self) -> String {
        fn prom_name(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 8);
            out.push_str("adcache_");
            for ch in name.chars() {
                if ch.is_ascii_alphanumeric() {
                    out.push(ch);
                } else {
                    out.push('_');
                }
            }
            out
        }
        let mut out = String::new();
        for (k, v) in self.counters_snapshot() {
            let n = prom_name(&k);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (k, v) in self.gauges_snapshot() {
            let n = prom_name(&k);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (k, h) in self.histograms_snapshot() {
            let n = prom_name(&k);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (q, v) in [
                ("0.5", h.quantile(0.5)),
                ("0.95", h.quantile(0.95)),
                ("0.99", h.quantile(0.99)),
            ] {
                out.push_str(&format!("{n}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("{n}_sum {}\n", h.sum()));
            out.push_str(&format!("{n}_count {}\n", h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_cell() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        assert_eq!(b.get(), 7);
    }

    #[test]
    fn adopted_cells_sum_each_from_its_adoption() {
        let r = Registry::new();
        let (a, b) = (Counter::new(), Counter::new());
        a.add(5);
        r.adopt_counter("x", &a);
        r.adopt_counter("x", &b);
        r.adopt_counter("x", &a);
        a.add(2);
        b.add(3);
        r.counter("x").inc();
        // The 5 counted before adoption is the cell's own, not the name's;
        // adopting `a` twice counts it once.
        assert_eq!((a.get(), b.get()), (7, 3));
        assert_eq!(r.counter_value("x"), 6);
        assert_eq!(r.counters_snapshot(), vec![("x".to_string(), 6)]);
        assert!(r.prometheus_text().contains("adcache_x 6\n"));
        assert_eq!(r.counter_value("absent"), 0);
    }

    #[test]
    fn inert_handles_are_noops() {
        let c = Counter::inert();
        assert_eq!(c.inc(), 0);
        assert_eq!(c.get(), 0);
        let g = Gauge::default();
        g.set(9);
        assert_eq!(g.get(), 0);
        let h = HistogramHandle::default();
        h.record(100);
    }

    #[test]
    fn snapshot_shapes() {
        let r = Registry::new();
        r.counter("ops").add(5);
        r.gauge("occupancy").set(-2);
        r.histogram("lat").record(1000);
        let v = r.snapshot_value();
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("ops"))
                .and_then(Value::as_u64),
            Some(5)
        );
        assert_eq!(
            v.get("gauges")
                .and_then(|g| g.get("occupancy"))
                .and_then(Value::as_i64),
            Some(-2)
        );
        assert_eq!(
            v.get("histograms")
                .and_then(|h| h.get("lat"))
                .and_then(|l| l.get("count"))
                .and_then(Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::new();
        r.counter("server.requests").add(12);
        r.gauge("server.conns.active").set(3);
        r.histogram("server.stage.total").record(2_000);
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE adcache_server_requests counter\n"));
        assert!(text.contains("adcache_server_requests 12\n"));
        assert!(text.contains("# TYPE adcache_server_conns_active gauge\n"));
        assert!(text.contains("adcache_server_conns_active 3\n"));
        assert!(text.contains("# TYPE adcache_server_stage_total summary\n"));
        assert!(text.contains("adcache_server_stage_total{quantile=\"0.99\"}"));
        assert!(text.contains("adcache_server_stage_total_sum 2000\n"));
        assert!(text.contains("adcache_server_stage_total_count 1\n"));
        // Every line is either a comment or `name[labels] value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE adcache_")
                    || line
                        .split_once(' ')
                        .is_some_and(|(name, val)| name.starts_with("adcache_")
                            && val.parse::<f64>().is_ok()),
                "malformed exposition line: {line}"
            );
        }
    }
}
