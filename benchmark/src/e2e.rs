//! The end-to-end run: telemetry off, a fixed operation count over two
//! closed-loop connections, every reply verified.

use crate::procfs;
use crate::report::{obj, sizing, strings, Metric, RunResult};
use crate::session::{delta, num, Replay, Session};
use crate::stats::{chunked_p50_p99, median};
use crate::wire::{OpKind, Tally};
use crate::workloads::Workload;
use serde_json::Value;
use std::io;
use std::path::Path;

/// Set-ups per run. `setup_s` is their median, so that one slow spawn or
/// load does not read as a set-up regression.
pub const SETUPS: usize = 3;

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct RunSize {
    /// `--seconds`: the measured run is `ops_per_second × seconds` operations.
    pub seconds: u64,
    /// Divisor applied to data set and operation counts (1, or 50 in smoke mode).
    pub scale_div: u64,
    /// Set-ups to take the `setup_s` median over.
    pub setups: usize,
    /// The CPU server children are confined to, when CPUs are separated.
    pub server_cpu: Option<usize>,
}

/// The read-side ratios from a pair of `STATS` snapshots: `(hit_rate,
/// sst_reads_per_read, reads)`.
pub fn read_ratios(before: &Value, after: &Value) -> (f64, f64, f64) {
    let reads =
        delta(before, after, &["engine", "points"]) + delta(before, after, &["engine", "scans"]);
    if reads <= 0.0 {
        return (0.0, 0.0, 0.0);
    }
    let misses = delta(before, after, &["engine", "cache_misses"]);
    let block_reads = delta(before, after, &["engine", "query_block_reads"]);
    (1.0 - misses / reads, block_reads / reads, reads)
}

/// Verified replies per second of wall time, all connections together.
pub fn ops_per_s(replay: &Replay) -> f64 {
    replay.total(|t| t.verified) as f64 / replay.wall_s()
}

/// The metrics of one measured replay that are defined for end-to-end and
/// traced runs alike (everything but `setup_s`). Latency percentiles are
/// left out below the sample-count rule.
pub fn replay_metrics(replay: &Replay, ticks_per_s: u64) -> Vec<Metric> {
    let attempted = replay.total(Tally::attempted);
    let (before, after) = (replay.before(), replay.after());
    let mut out = vec![Metric::new(
        "ops_per_s",
        ops_per_s(replay),
        "1/s",
        attempted,
    )];
    for kind in [OpKind::Get, OpKind::Scan, OpKind::Put] {
        let latencies = replay.latencies(kind);
        if let Some((p50, p99)) = chunked_p50_p99(&latencies) {
            let (name, n) = (kind.label(), latencies.len() as u64);
            out.push(Metric::new(format!("{name}_p50_us"), p50 / 1e3, "us", n));
            out.push(Metric::new(format!("{name}_p99_us"), p99 / 1e3, "us", n));
        }
    }
    let (hit_rate, sst_reads, reads) = read_ratios(&before.stats, &after.stats);
    if reads > 0.0 {
        out.push(Metric::new("hit_rate", hit_rate, "ratio", reads as u64));
        out.push(Metric::new(
            "sst_reads_per_read",
            sst_reads,
            "blocks/op",
            reads as u64,
        ));
    }
    let cpu_us = (after.cpu_ticks - before.cpu_ticks) as f64 * 1e6 / ticks_per_s as f64;
    out.push(Metric::new(
        "server_cpu_us_per_op",
        cpu_us / attempted.max(1) as f64,
        "us",
        attempted,
    ));
    out.push(Metric::new(
        "server_peak_rss_mb",
        replay.peak_rss_kb as f64 / 1024.0,
        "MB",
        1,
    ));
    out.push(Metric::new(
        "error_frac",
        (replay.total(|t| t.failed) + protocol_errors(replay)) as f64 / attempted.max(1) as f64,
        "ratio",
        attempted,
    ));
    out.push(Metric::new(
        "stale_reads",
        replay.total(|t| t.stale_reads) as f64,
        "count",
        attempted,
    ));
    out
}

/// Frames the server could not decode during the replay.
fn protocol_errors(replay: &Replay) -> u64 {
    delta(
        &replay.before().stats,
        &replay.after().stats,
        &["server", "protocol_errors"],
    ) as u64
}

/// The first few verification failures and stale reads over all
/// connections, for the report.
fn examples(replay: &Replay) -> Vec<(String, Value)> {
    let list = |pick: fn(&Tally) -> &Vec<String>| {
        strings(
            &replay
                .tallies
                .iter()
                .flat_map(pick)
                .cloned()
                .collect::<Vec<_>>(),
        )
    };
    vec![
        ("failure_examples".to_string(), list(|t| &t.examples)),
        (
            "stale_read_examples".to_string(),
            list(|t| &t.stale_examples),
        ),
    ]
}

/// Design assertions on the measured run, from the `STATS` deltas: what
/// each workload must do for its layers to have done the work.
fn violations(wl: &Workload, replay: &Replay, full_scale: bool) -> Vec<String> {
    let mut out = Vec::new();
    let (before, after) = (&replay.before().stats, &replay.after().stats);
    let not_found = replay.total(|t| t.not_found);
    if wl.name == "get-hot" && not_found > 0 {
        out.push(format!("{not_found} GETs found nothing"));
    }
    if wl.name == "write-durable" && full_scale {
        let flushes = delta(before, after, &["engine", "flushes"]);
        let compactions = delta(before, after, &["engine", "compactions"]);
        if flushes < 2.0 {
            out.push(format!("only {flushes} flushes inside the measured run"));
        }
        if compactions < 1.0 {
            out.push(format!(
                "only {compactions} compactions inside the measured run"
            ));
        }
    }
    out
}

/// Runs `wl` end to end and returns every metric it defines.
pub fn run(bin: &Path, wl: &Workload, seed: u64, size: RunSize) -> io::Result<RunResult> {
    let wl = &wl.scaled(size.scale_div);
    let ops = wl.measured_ops(size.seconds, size.scale_div);
    let mut setup_times = Vec::new();
    for k in 1..size.setups {
        let throwaway =
            Session::setup(bin, wl, seed, false, size.server_cpu, &format!("setup{k}"))?;
        setup_times.push(throwaway.setup_s);
    }
    let mut session = Session::setup(bin, wl, seed, false, size.server_cpu, "run")?;
    setup_times.push(session.setup_s);

    let replay = session.replay(ops, 1)?;
    let mut metrics = vec![Metric::new(
        "setup_s",
        median(&setup_times),
        "s",
        setup_times.len() as u64,
    )];
    metrics.extend(replay_metrics(&replay, procfs::clock_ticks_per_s()));

    let mut attempted = replay.total(Tally::attempted);
    let mut failed = replay.total(|t| t.failed) + protocol_errors(&replay);
    let mut details = vec![
        ("sizing".to_string(), sizing(wl, ops)),
        ("server_args".to_string(), strings(&session.server.args)),
        (
            "resolved".to_string(),
            obj(vec![
                (
                    "stripes",
                    Value::from(num(&replay.after().stats, &["engine", "stripes"])),
                ),
                ("workers", Value::from("default: one per core")),
                ("sync_policy", Value::from("on_flush (serve default)")),
            ]),
        ),
        (
            "setup_s_each".to_string(),
            Value::Array(setup_times.iter().map(|&s| Value::from(s)).collect()),
        ),
        ("measured_wall_s".to_string(), Value::from(replay.wall_s())),
        (
            "flushes_in_run".to_string(),
            Value::from(delta(
                &replay.before().stats,
                &replay.after().stats,
                &["engine", "flushes"],
            )),
        ),
        (
            "compactions_in_run".to_string(),
            Value::from(delta(
                &replay.before().stats,
                &replay.after().stats,
                &["engine", "compactions"],
            )),
        ),
    ];

    if wl.durable {
        let (read, mismatched) = session.restart_and_read_back(bin)?;
        attempted += read;
        failed += mismatched;
        details.push((
            "durability".to_string(),
            obj(vec![
                ("keys_read_back", Value::from(read)),
                ("mismatched", Value::from(mismatched)),
            ]),
        ));
        // The read-back counts against the same denominator as the run.
        if let Some(m) = metrics.iter_mut().find(|m| m.name == "error_frac") {
            m.value = failed as f64 / attempted as f64;
            m.samples = attempted;
        }
    }
    details.extend(examples(&replay));
    session.server.shutdown()?;
    Ok(RunResult {
        workload: wl.name.to_string(),
        seed,
        trace: false,
        attempted,
        failed,
        metrics,
        violations: violations(wl, &replay, size.scale_div == 1),
        details,
    })
}
