//! Periodic metrics snapshots: rolling deltas appended as JSONL.
//!
//! [`Snapshotter`] runs a background thread that wakes on a fixed
//! interval, diffs the registry against the previous tick, and appends
//! one compact JSON line per tick to a `timeseries.jsonl` file:
//!
//! ```json
//! {"seq":3,"uptime_ms":4021,"interval_ms":1000,
//!  "counters":{"server.requests":18423,...},
//!  "gauges":{"server.conns.active":32,...},
//!  "histograms":{"server.stage.total":{"count":18423,"sum_ns":...,
//!    "mean_ns":...,"p50_ns":...,"p99_ns":...,"max_ns":...},...}}
//! ```
//!
//! Counters and histograms are *interval deltas* (what happened since the
//! previous line); gauges are absolute. Interval histogram percentiles
//! come from bucket-wise subtraction ([`Histogram::diff`]), so a line's
//! p99 describes that interval's requests, not the whole run.

use crate::{Histogram, Obs};
use serde::Value;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Handle to the snapshot thread. Stop (or drop) to get a final flush.
#[derive(Debug)]
pub struct Snapshotter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<u64>>,
}

impl Snapshotter {
    /// Spawns the snapshot thread appending to `path` every `interval`.
    ///
    /// The file is opened (created/appended) up front so configuration
    /// errors surface at start rather than silently inside the thread.
    /// With a disabled `obs` the thread exits immediately and no lines
    /// are written.
    pub fn start(obs: Obs, path: &Path, interval: Duration) -> std::io::Result<Snapshotter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("adcache-snapshot".into())
            .spawn(move || run(obs, file, interval, flag))?;
        Ok(Snapshotter {
            stop,
            handle: Some(handle),
        })
    }

    /// Signals the thread, waits for its final (partial-interval)
    /// snapshot, and returns how many lines were written in total.
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::Release);
        self.handle.take().map_or(0, |h| h.join().unwrap_or(0))
    }
}

impl Drop for Snapshotter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn run(obs: Obs, mut file: File, interval: Duration, stop: Arc<AtomicBool>) -> u64 {
    if !obs.is_enabled() {
        return 0;
    }
    let started = Instant::now();
    let mut prev_counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut prev_hists: BTreeMap<String, Histogram> = BTreeMap::new();
    let mut last_tick = started;
    let mut seq = 0u64;
    loop {
        // Sleep in short slices so `stop` is honored promptly; a stop
        // mid-interval still produces one final partial snapshot.
        let mut stopping = stop.load(Ordering::Acquire);
        let mut slept = Duration::ZERO;
        while !stopping && slept < interval {
            let slice = (interval - slept).min(Duration::from_millis(25));
            std::thread::sleep(slice);
            slept += slice;
            stopping = stop.load(Ordering::Acquire);
        }
        let now = Instant::now();
        let line = build_line(
            &obs,
            seq,
            (now - started).as_millis() as u64,
            (now - last_tick).as_millis() as u64,
            &mut prev_counters,
            &mut prev_hists,
        );
        last_tick = now;
        if file.write_all(line.as_bytes()).is_err() {
            return seq;
        }
        seq += 1;
        if stopping {
            let _ = file.flush();
            return seq;
        }
    }
}

/// One JSONL line (newline-terminated). Updates the `prev_*` baselines in
/// place.
fn build_line(
    obs: &Obs,
    seq: u64,
    uptime_ms: u64,
    interval_ms: u64,
    prev_counters: &mut BTreeMap<String, u64>,
    prev_hists: &mut BTreeMap<String, Histogram>,
) -> String {
    let reg = obs.registry().expect("run() checked is_enabled");
    let mut counters = Vec::new();
    for (name, v) in reg.counters_snapshot() {
        let delta = v.saturating_sub(prev_counters.get(&name).copied().unwrap_or(0));
        prev_counters.insert(name.clone(), v);
        counters.push((name, Value::from(delta)));
    }
    let gauges: Vec<(String, Value)> = reg
        .gauges_snapshot()
        .into_iter()
        .map(|(name, v)| (name, Value::from(v)))
        .collect();
    let mut histograms = Vec::new();
    for (name, h) in reg.histograms_snapshot() {
        let d = match prev_hists.get(&name) {
            Some(prev) => h.diff(prev),
            None => h.clone(),
        };
        prev_hists.insert(name.clone(), h);
        let (p50, _p95, p99, max) = d.summary();
        histograms.push((
            name,
            Value::Object(vec![
                ("count".into(), Value::from(d.count())),
                ("sum_ns".into(), Value::from(d.sum())),
                ("mean_ns".into(), Value::from(d.mean())),
                ("p50_ns".into(), Value::from(p50)),
                ("p99_ns".into(), Value::from(p99)),
                ("max_ns".into(), Value::from(max)),
            ]),
        ));
    }
    let root = Value::Object(vec![
        ("seq".into(), Value::from(seq)),
        ("uptime_ms".into(), Value::from(uptime_ms)),
        ("interval_ms".into(), Value::from(interval_ms)),
        ("counters".into(), Value::Object(counters)),
        ("gauges".into(), Value::Object(gauges)),
        ("histograms".into(), Value::Object(histograms)),
    ]);
    let mut line = serde_json::to_string(&root).expect("snapshot serialize");
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_delta_lines_and_final_flush() {
        let obs = Obs::enabled();
        let c = obs.counter("server.requests");
        let h = obs.histogram("server.stage.total");
        c.add(10);
        h.record(1_000);
        let dir = std::env::temp_dir().join(format!("adcache-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("timeseries.jsonl");
        let snap = Snapshotter::start(obs.clone(), &path, Duration::from_millis(30)).unwrap();
        std::thread::sleep(Duration::from_millis(80));
        c.add(5);
        h.record(2_000);
        let lines_written = snap.stop();
        assert!(
            lines_written >= 2,
            "expected >=2 snapshots, got {lines_written}"
        );

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, lines_written);
        let mut total_reqs = 0;
        for (i, line) in lines.iter().enumerate() {
            let v: Value = serde_json::from_str(line).expect("snapshot line parses");
            assert_eq!(
                v.get("seq").and_then(Value::as_u64),
                Some(i as u64),
                "seq must be dense"
            );
            for key in [
                "uptime_ms",
                "interval_ms",
                "counters",
                "gauges",
                "histograms",
            ] {
                assert!(v.get(key).is_some(), "line {i} missing {key}");
            }
            total_reqs += v
                .get("counters")
                .and_then(|c| c.get("server.requests"))
                .and_then(Value::as_u64)
                .unwrap();
        }
        // Deltas across all lines sum to the cumulative counter.
        assert_eq!(total_reqs, 15);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_obs_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("adcache-snap-off-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("timeseries.jsonl");
        let snap = Snapshotter::start(Obs::disabled(), &path, Duration::from_millis(5)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(snap.stop(), 0);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
