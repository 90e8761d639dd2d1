//! The experiment runner: drives workloads against a [`CachedDb`], ticks
//! the tuning cycle ([`Tuner`]) after every operation, and records the
//! per-window series the paper plots.
//!
//! Throughput is reported against *simulated time*: device time accumulated
//! by the storage cost model plus a per-operation CPU charge. This is the
//! substitution for the paper's NVMe testbed (DESIGN.md §2) — relative
//! throughput between strategies is meaningful, absolute QPS is not. Only
//! [`run_multiclient`] reports wall-clock QPS: the training-overhead
//! experiment (Figure 11a) measures real CPU interference.

use crate::controller::{CacheDecision, Controller, ControllerConfig};
use crate::engine::{CachedDb, EngineConfig, Strategy};
use crate::reward::h_estimate;
use crate::stats::WindowSummary;
use crate::tuner::Tuner;
use adcache_lsm::{MemStorage, Options, Result};
use adcache_obs::{Event, Histogram, Obs};
use adcache_workload::{Mix, Operation, Schedule, WorkloadConfig, WorkloadGen};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// CPU nanoseconds charged per operation on top of device time when
/// computing simulated QPS.
const CPU_NS_PER_OP: u64 = 2_000;
/// CPU nanoseconds charged per entry a scan returns.
const CPU_NS_PER_ENTRY: u64 = 100;

/// Full experiment configuration.
#[derive(Clone)]
pub struct RunConfig {
    /// Cache strategy under test.
    pub strategy: Strategy,
    /// Total cache budget in bytes.
    pub total_cache_bytes: usize,
    /// Workload shape.
    pub workload: WorkloadConfig,
    /// Controller configuration (used only by [`Strategy::AdCache`]).
    pub controller: ControllerConfig,
    /// Shards for block/range caches (multi-client runs).
    pub shards: usize,
    /// Optional pretrained agent JSON (AdCache only).
    pub pretrained_agent: Option<String>,
    /// Pin AdCache's decision instead of running the controller (used by
    /// controlled experiments and ablations).
    pub pinned_decision: Option<CacheDecision>,
    /// When set, the run records a structured trace and dumps
    /// `trace.jsonl` + `metrics.json` into this directory on completion.
    /// The `ADCACHE_TRACE` environment variable provides the same behavior
    /// for existing binaries without code changes (the config field wins
    /// when both are present).
    pub trace_dir: Option<PathBuf>,
    /// Keep executing when an operation fails (fault drills): the error is
    /// counted in [`RunResult::op_errors`] instead of aborting the run.
    /// Default `false` — normal experiments treat any I/O error as fatal.
    pub continue_on_error: bool,
}

impl RunConfig {
    /// A sensible scaled-down default for the given strategy and cache size.
    pub fn new(strategy: Strategy, total_cache_bytes: usize, workload: WorkloadConfig) -> Self {
        RunConfig {
            strategy,
            total_cache_bytes,
            workload,
            controller: ControllerConfig::scaled_down(),
            shards: 1,
            pretrained_agent: None,
            pinned_decision: None,
            trace_dir: None,
            continue_on_error: false,
        }
    }
}

/// Builds the observability handle for a run and attaches it to the engine.
/// Returns the handle plus the dump directory (`trace_dir`, else
/// `ADCACHE_TRACE`); both are no-ops when tracing is off.
fn attach_obs(cfg: &RunConfig, db: &CachedDb) -> (Obs, Option<PathBuf>) {
    let env = || std::env::var_os("ADCACHE_TRACE").map(PathBuf::from);
    let Some(dir) = cfg.trace_dir.clone().or_else(env) else {
        return (Obs::disabled(), None);
    };
    db.set_obs(Obs::enabled());
    // `set_obs` is first-write-wins, so read back the handle actually wired
    // into the engine (a shared db may have been traced by an earlier run).
    let obs = db.obs();
    let strategy = cfg.strategy.name();
    let total = cfg.total_cache_bytes as u64;
    obs.emit(|| Event::RunStart {
        strategy: strategy.into(),
        total_cache_bytes: total,
    });
    (obs, Some(dir))
}

/// One window's measurements.
#[derive(Debug, Clone)]
pub struct WindowRecord {
    /// Window index from the start of the measured run.
    pub index: u64,
    /// Name of the phase the window belongs to.
    pub phase: String,
    /// Estimated hit rate (`1 − IO_miss / IO_estimate`).
    pub hit_rate: f64,
    /// SST block reads in the window.
    pub sst_reads: u64,
    /// Simulated QPS inside the window.
    pub qps: f64,
    /// The controller decision applied after this window (AdCache only).
    pub decision: Option<CacheDecision>,
    /// The full window observation (for pretraining and deep analysis).
    pub summary: WindowSummary,
}

/// Aggregate results of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Strategy name.
    pub strategy: &'static str,
    /// Per-window series.
    pub windows: Vec<WindowRecord>,
    /// Total measured operations.
    pub total_ops: u64,
    /// Total SST block reads during measurement.
    pub total_sst_reads: u64,
    /// Overall estimated hit rate across the whole run.
    pub overall_hit_rate: f64,
    /// Overall simulated QPS.
    pub overall_qps: f64,
    /// Distribution of per-operation simulated latencies (device time plus
    /// the CPU charge), in nanoseconds.
    pub latency: Histogram,
    /// Operations that failed and were skipped (only non-zero when
    /// [`RunConfig::continue_on_error`] is set).
    pub op_errors: u64,
    /// Non-finite controller inputs repaired before training (see
    /// [`Controller::nonfinite_repairs`]); always 0 for baselines.
    pub nonfinite_repairs: u64,
}

impl RunResult {
    /// Mean hit rate over windows in `[from, to)` (e.g. one phase).
    pub fn mean_hit_rate(&self, from: usize, to: usize) -> f64 {
        self.mean(from, to, |w| w.hit_rate)
    }

    /// Mean QPS over windows in `[from, to)`.
    pub fn mean_qps(&self, from: usize, to: usize) -> f64 {
        self.mean(from, to, |w| w.qps)
    }

    fn mean(&self, from: usize, to: usize, f: impl Fn(&WindowRecord) -> f64) -> f64 {
        let slice = &self.windows[from.min(self.windows.len())..to.min(self.windows.len())];
        if slice.is_empty() {
            return 0.0;
        }
        slice.iter().map(f).sum::<f64>() / slice.len() as f64
    }
}

/// Simulated QPS over `w`, whose scans returned `entries` entries.
fn simulated_qps(w: &WindowSummary, entries: u64) -> f64 {
    let ns = w.simulated_ns + w.ops() * CPU_NS_PER_OP + entries * CPU_NS_PER_ENTRY;
    if ns == 0 {
        0.0
    } else {
        w.ops() as f64 * 1e9 / ns as f64
    }
}

/// Builds the engine over [`Options::small`], loads `workload.num_keys`
/// keys, and settles compactions so measurement starts from a steady tree.
pub fn prepare_db(cfg: &RunConfig) -> Result<CachedDb> {
    prepare_db_with_storage(cfg, Arc::new(MemStorage::new()))
}

/// Like [`prepare_db`] but over a caller-supplied storage backend (file
/// storage for durability drills, a fault-injecting wrapper for resilience
/// tests).
pub fn prepare_db_with_storage(
    cfg: &RunConfig,
    storage: Arc<dyn adcache_lsm::Storage>,
) -> Result<CachedDb> {
    let mut ecfg = EngineConfig::new(cfg.strategy, cfg.total_cache_bytes);
    ecfg.block_shards = cfg.shards;
    ecfg.expected_keys = cfg.workload.num_keys as usize;
    if cfg.shards > 1 {
        // Evenly split the key space for range-cache sharding.
        let per = cfg.workload.num_keys / cfg.shards as u64;
        ecfg.range_boundaries = (1..cfg.shards as u64)
            .map(|i| adcache_workload::render_key(i * per))
            .collect();
    }
    let db = CachedDb::new(Options::small(), storage, ecfg)?;
    let mut gen = WorkloadGen::new(cfg.workload.clone());
    for op in gen.load_ops() {
        if let Operation::Put { key, value } = op {
            db.load(key, value)?;
        }
    }
    db.db().flush()?;
    while db.db().maybe_compact_once()? {}
    db.refresh_shape();
    Ok(db)
}

/// [`Controller::for_store`] for a run; after [`attach_obs`], so the
/// controller journals to the run's trace.
fn controller_for(cfg: &RunConfig, db: &CachedDb) -> Option<Controller> {
    Controller::for_store(
        db,
        cfg.pinned_decision.as_ref(),
        cfg.controller.clone(),
        cfg.pretrained_agent.as_deref(),
    )
}

/// Executes one operation against the engine.
pub fn execute(db: &CachedDb, op: &Operation) -> Result<()> {
    match op {
        Operation::Get { key } => {
            db.get(key)?;
        }
        Operation::Scan { from, len } => {
            db.scan(from, *len)?;
        }
        Operation::Put { key, value } => {
            db.put(key.clone(), value.clone())?;
        }
        Operation::Delete { key } => {
            db.delete(key.clone())?;
        }
    }
    Ok(())
}

/// Runs `schedule` against a fresh engine and returns the per-window
/// series. Deterministic in the workload seed.
pub fn run_schedule(cfg: &RunConfig, schedule: &Schedule) -> Result<RunResult> {
    let db = prepare_db(cfg)?;
    run_schedule_on(cfg, schedule, &db)
}

/// Like [`run_schedule`] but reuses an already-prepared engine (lets
/// experiments share the load phase across runs of the same strategy).
pub fn run_schedule_on(cfg: &RunConfig, schedule: &Schedule, db: &CachedDb) -> Result<RunResult> {
    let mut gen = WorkloadGen::new(cfg.workload.clone());
    let (obs, trace_dir) = attach_obs(cfg, db);
    let tuner = Tuner::inline(db, controller_for(cfg, db), cfg.controller.window);

    let mut windows = Vec::new();
    let run_start_snapshot = db.snapshot();
    let mut entries_at_win_start = 0u64;
    let mut executed = 0u64;
    let mut latency = Histogram::new();
    let obs_latency = obs.histogram("op.latency_ns");
    let io_stats = db.db().storage().stats();
    let mut last_sim_ns = io_stats.simulated_ns();
    let mut last_entries = 0u64;

    let total = schedule.total_ops();
    let mut op_errors = 0u64;
    while executed < total {
        let (phase, _) = schedule.phase_at(executed).expect("within schedule");
        let op = gen.next_op(&phase.mix);
        match execute(db, &op) {
            Ok(()) => {}
            Err(_) if cfg.continue_on_error => op_errors += 1,
            Err(e) => return Err(e),
        }
        // Per-op simulated latency: device time consumed by this op plus
        // the CPU charge for the op itself and any entries it returned.
        let sim_now = io_stats.simulated_ns();
        let entries_now = db.counters().entries_returned.load(Ordering::Relaxed);
        let op_ns = (sim_now - last_sim_ns)
            + CPU_NS_PER_OP
            + (entries_now - last_entries) * CPU_NS_PER_ENTRY;
        latency.record(op_ns);
        obs_latency.record(op_ns);
        last_sim_ns = sim_now;
        last_entries = entries_now;
        executed += 1;
        if let Some(closed) = tuner.tick(db) {
            let w = closed.summary;
            let entries_now = db.counters().entries_returned.load(Ordering::Relaxed);
            windows.push(WindowRecord {
                index: closed.index,
                phase: phase.name.clone(),
                hit_rate: h_estimate(&w),
                sst_reads: w.io_miss,
                qps: simulated_qps(&w, entries_now - entries_at_win_start),
                decision: closed.decision,
                summary: w,
            });
            entries_at_win_start = entries_now;
        }
    }
    let controller = tuner.shutdown();

    let overall = db.window_summary(&run_start_snapshot);
    let entries_total = db.counters().entries_returned.load(Ordering::Relaxed);
    if let Some(dir) = &trace_dir {
        obs.gauge("run.total_ops").set(overall.ops() as i64);
        obs.gauge("run.windows").set(windows.len() as i64);
        obs.gauge("run.sst_reads").set(overall.io_miss as i64);
        obs.gauge("run.hit_rate_milli")
            .set((h_estimate(&overall) * 1000.0) as i64);
        obs.dump_to_dir(dir)?;
    }
    Ok(RunResult {
        strategy: cfg.strategy.name(),
        total_ops: overall.ops(),
        total_sst_reads: overall.io_miss,
        overall_hit_rate: h_estimate(&overall),
        overall_qps: simulated_qps(&overall, entries_total),
        windows,
        latency,
        op_errors,
        nonfinite_repairs: controller.as_ref().map_or(0, |c| c.nonfinite_repairs()),
    })
}

/// Convenience: run a single static mix for `ops` operations.
pub fn run_static(cfg: &RunConfig, mix: Mix, ops: u64) -> Result<RunResult> {
    let schedule = Schedule {
        phases: vec![adcache_workload::Phase {
            name: "static".into(),
            mix,
            ops,
        }],
    };
    run_schedule(cfg, &schedule)
}

/// Multi-client run (Figure 11a): `clients` threads share the engine and
/// one background [`Tuner`], whose controller runs on its own thread —
/// "model inference and training occur asynchronously in the background"
/// (paper Section 3.1). Returns per-client *wall-clock* QPS, since the
/// experiment measures real CPU interference from training.
pub fn run_multiclient(
    cfg: &RunConfig,
    mix: Mix,
    clients: usize,
    ops_per_client: u64,
) -> Result<Vec<f64>> {
    let db = prepare_db(cfg)?;
    let (obs, trace_dir) = attach_obs(cfg, &db);
    let tuner = Tuner::background(&db, controller_for(cfg, &db), cfg.controller.window);
    let qps = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (db, tuner) = (&db, &tuner);
                let mut wcfg = cfg.workload.clone();
                wcfg.seed = cfg.workload.seed.wrapping_add(client as u64 * 7919 + 1);
                s.spawn(move || -> Result<f64> {
                    let mut gen = WorkloadGen::new(wcfg);
                    let start = std::time::Instant::now();
                    for _ in 0..ops_per_client {
                        execute(db, &gen.next_op(&mix))?;
                        tuner.tick(db);
                    }
                    Ok(ops_per_client as f64 / start.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<f64>>>()
    })?;
    // Waits for the tuning thread to drain, so it cannot compete with
    // whatever runs next.
    tuner.shutdown();
    if let Some(dir) = &trace_dir {
        obs.dump_to_dir(dir)?;
    }
    Ok(qps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcache_workload::paper_dynamic_schedule;

    fn quick_cfg(strategy: Strategy) -> RunConfig {
        let workload = WorkloadConfig {
            num_keys: 3000,
            value_size: 64,
            ..Default::default()
        };
        let mut cfg = RunConfig::new(strategy, 128 << 10, workload);
        cfg.controller.window = 200;
        cfg.controller.hidden = 16;
        cfg
    }

    #[test]
    fn static_run_produces_windows() {
        let cfg = quick_cfg(Strategy::RocksDbBlock);
        let r = run_static(&cfg, Mix::new(100.0, 0.0, 0.0, 0.0), 2000).unwrap();
        assert_eq!(r.total_ops, 2000);
        assert_eq!(r.windows.len(), 10);
        assert!(r.overall_qps > 0.0);
        assert!(r.overall_hit_rate <= 1.0);
        assert_eq!(r.strategy, "rocksdb-block");
        // Hit rate should climb as the cache warms.
        assert!(
            r.windows.last().unwrap().hit_rate >= r.windows[0].hit_rate - 0.05,
            "warming cache should not get colder: {:?}",
            r.windows.iter().map(|w| w.hit_rate).collect::<Vec<_>>()
        );
    }

    #[test]
    fn adcache_run_records_decisions() {
        let cfg = quick_cfg(Strategy::AdCache);
        let r = run_static(&cfg, Mix::new(50.0, 25.0, 0.0, 25.0), 2000).unwrap();
        assert!(r.windows.iter().all(|w| w.decision.is_some()));
        // Baselines never record decisions.
        let cfg = quick_cfg(Strategy::RangeCache);
        let r = run_static(&cfg, Mix::new(50.0, 25.0, 0.0, 25.0), 1000).unwrap();
        assert!(r.windows.iter().all(|w| w.decision.is_none()));
    }

    #[test]
    fn identical_seeds_reproduce_results() {
        let cfg = quick_cfg(Strategy::RangeCache);
        let mix = Mix::new(40.0, 30.0, 10.0, 20.0);
        let a = run_static(&cfg, mix, 1500).unwrap();
        let b = run_static(&cfg, mix, 1500).unwrap();
        assert_eq!(a.total_sst_reads, b.total_sst_reads);
        let ha: Vec<f64> = a.windows.iter().map(|w| w.hit_rate).collect();
        let hb: Vec<f64> = b.windows.iter().map(|w| w.hit_rate).collect();
        assert_eq!(ha, hb);
    }

    #[test]
    fn dynamic_schedule_transitions_phases() {
        let cfg = quick_cfg(Strategy::RocksDbBlock);
        let schedule = paper_dynamic_schedule(400);
        let r = run_schedule(&cfg, &schedule).unwrap();
        assert_eq!(r.total_ops, 2400);
        let phases: Vec<&str> = r.windows.iter().map(|w| w.phase.as_str()).collect();
        assert!(phases.contains(&"A") && phases.contains(&"F"));
    }

    #[test]
    fn multiclient_run_completes_and_scales() {
        let mut cfg = quick_cfg(Strategy::AdCache);
        cfg.shards = 4;
        let qps = run_multiclient(&cfg, Mix::new(50.0, 25.0, 0.0, 25.0), 4, 500).unwrap();
        assert_eq!(qps.len(), 4);
        assert!(qps.iter().all(|&q| q > 0.0));
    }

    #[test]
    fn latency_histogram_covers_every_op() {
        let cfg = quick_cfg(Strategy::AdCache);
        let r = run_static(&cfg, Mix::new(60.0, 20.0, 0.0, 20.0), 2000).unwrap();
        assert_eq!(r.latency.count(), 2000);
        let (p50, p95, p99, max) = r.latency.summary();
        assert!(p50 > 0 && p50 <= p95 && p95 <= p99 && p99 <= max);
        // Cache hits make the median much cheaper than the tail.
        assert!(max >= p50, "{p50} {max}");
    }

    #[test]
    fn traced_run_dumps_trace_and_metrics() {
        let mut cfg = quick_cfg(Strategy::AdCache);
        let dir = std::env::temp_dir().join(format!("adcache-runner-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        cfg.trace_dir = Some(dir.clone());
        let r = run_static(&cfg, Mix::new(50.0, 25.0, 5.0, 20.0), 2000).unwrap();
        assert_eq!(r.total_ops, 2000);

        let trace = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap();
        assert!(trace.contains("\"RunStart\""));
        assert!(
            trace.contains("\"ControllerDecision\""),
            "controller decisions must be journaled"
        );
        assert!(trace.contains("\"range_ratio\""));
        assert!(trace.contains("\"point_threshold\""));
        assert!(
            trace.contains("\"TrainStep\""),
            "online training must journal reward/td_error"
        );
        assert!(trace.contains("\"BoundaryResize\""));
        // The first window's decision is stamped with the window it opens,
        // as the shell's and `serve`'s tuners stamp theirs.
        let records = adcache_obs::parse_jsonl(&trace).unwrap();
        let first_decision = records
            .iter()
            .find(|r| matches!(r.event, Event::ControllerDecision { .. }))
            .unwrap();
        assert_eq!(first_decision.window, 1);

        let metrics = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
        assert!(metrics.contains("cache.block.hits"));
        assert!(metrics.contains("core.admission.accepts"));
        let by_reason = metrics
            .lines()
            .filter(|l| l.contains("core.admission.decisions."));
        assert!(
            by_reason
                .map(|l| l.trim_end().trim_end_matches(','))
                .any(|l| !l.ends_with(": 0")),
            "admission verdicts must be counted by reason"
        );
        assert!(metrics.contains("op.latency_ns"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn untraced_run_writes_nothing_and_stays_disabled() {
        let cfg = quick_cfg(Strategy::AdCache);
        let db = prepare_db(&cfg).unwrap();
        let schedule = Schedule {
            phases: vec![adcache_workload::Phase {
                name: "static".into(),
                mix: Mix::new(100.0, 0.0, 0.0, 0.0),
                ops: 400,
            }],
        };
        run_schedule_on(&cfg, &schedule, &db).unwrap();
        assert!(
            !db.obs().is_enabled(),
            "no trace dir -> engine obs must stay disabled"
        );
    }

    #[test]
    fn fault_storm_run_degrades_gracefully() {
        use adcache_lsm::{FaultPlan, FaultStorage};

        let mut cfg = quick_cfg(Strategy::AdCache);
        cfg.continue_on_error = true;
        let inner = Arc::new(MemStorage::new());
        let faulty = Arc::new(FaultStorage::new(inner, 21, FaultPlan::none()));
        let db = prepare_db_with_storage(&cfg, faulty.clone()).unwrap();
        faulty.set_plan(FaultPlan::storm());
        let schedule = Schedule {
            phases: vec![adcache_workload::Phase {
                name: "storm".into(),
                mix: Mix::new(40.0, 25.0, 15.0, 20.0),
                ops: 2000,
            }],
        };
        let r = run_schedule_on(&cfg, &schedule, &db).unwrap();
        assert!(r.op_errors > 0, "the storm plan must actually bite");
        assert_eq!(r.windows.len(), 10, "a failed operation still counts");
        assert_eq!(
            r.nonfinite_repairs, 0,
            "fault storms must not poison controller inputs"
        );
        assert!(r.overall_hit_rate.is_finite());
        assert!(r.overall_qps.is_finite());
        for w in &r.windows {
            assert!(w.hit_rate.is_finite(), "window {} hit rate", w.index);
            if let Some(d) = &w.decision {
                assert!(d.range_ratio.is_finite() && (0.0..=1.0).contains(&d.range_ratio));
            }
        }
    }

    #[test]
    fn mean_helpers_slice_windows() {
        let cfg = quick_cfg(Strategy::RocksDbBlock);
        let r = run_static(&cfg, Mix::new(100.0, 0.0, 0.0, 0.0), 1000).unwrap();
        let all = r.mean_hit_rate(0, r.windows.len());
        assert!((0.0 - 1.0..=1.0).contains(&all));
        assert_eq!(
            r.mean_hit_rate(100, 200),
            0.0,
            "out of range slices are empty"
        );
        assert!(r.mean_qps(0, 5) > 0.0);
    }
}
