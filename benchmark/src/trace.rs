//! The traced run: the first third of a workload's stream replayed three
//! ways — over the wire with telemetry off (the baseline the tracing
//! overhead is taken against), over the wire with telemetry on (the
//! server's own stage, lock and cache counters, scraped before and after),
//! and in process against the linked crates (`layers`). All three measure
//! the layers from outside; spans go to `out/<workload>.trace.jsonl`.

use crate::e2e::{ops_per_s, read_ratios, replay_metrics, RunSize};
use crate::layers::{self, Span};
use crate::procfs;
use crate::report::{obj, sizing, Metric, MetricSpec, RunResult};
use crate::server::{dir_bytes, out_dir, TempDir};
use crate::session::{delta, num, Replay, Session};
use crate::stats::median;
use crate::wire::{self, OpKind, Tally};
use crate::workloads::{Workload, CONNECTIONS};
use adcache_workload::TABLE3;
use serde_json::Value;
use std::io::{self, Write};
use std::path::Path;

/// Share of a measured run's stream the traced run replays.
const TRACED_SHARE: u64 = 3;
/// `GET`s of the single-connection probe.
const PROBE_GETS: u64 = 20_000;

fn counter(metrics: &Value, name: &str) -> f64 {
    num(metrics, &["counters", name])
}

/// `after − before` of a counter in two `METRICS` scrapes.
fn counted(before: &Value, after: &Value, name: &str) -> f64 {
    counter(after, name) - counter(before, name)
}

/// Mean nanoseconds per observation a histogram gained between two
/// `METRICS` scrapes (`Δsum ÷ Δcount`), and the observations gained.
fn stage_mean(before: &Value, after: &Value, name: &str) -> (f64, u64) {
    let part = |m: &Value, field: &str| num(m, &["histograms", name, field]);
    let count = part(after, "count") - part(before, "count");
    let sum = part(after, "sum_ns") - part(before, "sum_ns");
    (if count > 0.0 { sum / count } else { 0.0 }, count as u64)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Per-layer metrics from the telemetry-on server's own counters.
fn wire_layer_metrics(
    wl: &Workload,
    replay: &Replay,
    before: &Value,
    after: &Value,
    block_size: f64,
) -> Vec<Metric> {
    let ops = replay.total(Tally::attempted).max(1);
    let per_op = |x: f64| x / ops as f64;
    let per_kop = |x: f64| x * 1_000.0 / ops as f64;
    let d = |name: &str| counted(before, after, name);
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit: &str, samples: u64| {
        out.push(Metric::new(name, value, unit, samples));
    };

    for stage in [
        "parse",
        "queue_wait",
        "lock_wait",
        "engine_exec",
        "cache_layer",
        "reply_flush",
        "total",
    ] {
        let (mean, n) = stage_mean(before, after, &format!("server.stage.{stage}"));
        push(&format!("server.stage.{stage}_ns"), mean, "ns", n);
    }
    push(
        "server.bytes_in_per_op",
        per_op(d("server.bytes_in")),
        "bytes",
        ops,
    );
    push(
        "server.bytes_out_per_op",
        per_op(d("server.bytes_out")),
        "bytes",
        ops,
    );

    let (accepts, rejects, partials) = (
        d("core.admission.accepts"),
        d("core.admission.rejects"),
        d("core.admission.partials"),
    );
    let decisions = accepts + rejects + partials;
    push(
        "core.admission.accept_ratio",
        ratio(accepts, decisions),
        "ratio",
        decisions as u64,
    );
    push(
        "core.admission.partial_ratio",
        ratio(partials, decisions),
        "ratio",
        decisions as u64,
    );
    push(
        "core.boundary.resizes",
        d("core.boundary.resizes"),
        "count",
        1,
    );
    let range_bytes = num(after, &["gauges", "core.boundary.range_bytes"]);
    let block_bytes = num(after, &["gauges", "core.boundary.block_bytes"]);
    push(
        "core.boundary.range_frac_end",
        ratio(range_bytes, range_bytes + block_bytes),
        "ratio",
        1,
    );

    for cache in ["range", "block"] {
        let hits = d(&format!("cache.{cache}.hits"));
        let lookups = hits + d(&format!("cache.{cache}.misses"));
        push(
            &format!("cache.{cache}.hit_ratio"),
            ratio(hits, lookups),
            "ratio",
            lookups as u64,
        );
        let evictions = d(&format!("cache.{cache}.evictions"));
        push(
            &format!("cache.{cache}.evictions_per_kop"),
            per_kop(evictions),
            "1/kop",
            ops,
        );
    }
    push(
        "cache.block.invalidations_per_kop",
        per_kop(d("cache.block.invalidations")),
        "1/kop",
        ops,
    );

    for name in [
        "lsm.flushes",
        "lsm.compactions",
        "lsm.compaction_block_reads",
        "lsm.compaction_block_writes",
        "lsm.write_stalls",
        "lsm.seals",
    ] {
        push(name, d(name), "count", 1);
    }
    let rounds = d("lsm.group_commit.rounds");
    push(
        "lsm.group_commit.mean_batch",
        ratio(d("lsm.group_commit.batches"), rounds),
        "count",
        rounds as u64,
    );
    let entry_bytes = (24 + wl.value_size) as f64;
    let puts = replay
        .tallies
        .iter()
        .flat_map(|t| &t.samples)
        .filter(|s| s.kind == OpKind::Put)
        .count() as f64;
    let user_bytes = puts * entry_bytes;
    if user_bytes > 0.0 {
        let wal = d("lsm.wal_bytes");
        let flushed = d("lsm.flush_entries") * entry_bytes;
        let compacted = d("lsm.compaction_block_writes") * block_size;
        push(
            "lsm.wal_bytes_per_user_byte",
            wal / user_bytes,
            "ratio",
            puts as u64,
        );
        push(
            "lsm.write_amp",
            (wal + flushed + compacted) / user_bytes,
            "ratio",
            puts as u64,
        );
    }
    for (path, parts) in [
        ("read", &["wait", "hold"][..]),
        ("write", &["wait", "hold"][..]),
        ("compaction", &["hold"][..]),
    ] {
        for part in parts {
            push(
                &format!("lsm.lock.{path}.{part}_ns_per_op"),
                per_op(d(&format!("engine.lock.{path}.{part}_ns"))),
                "ns",
                d(&format!("engine.lock.{path}.acquisitions")) as u64,
            );
        }
    }
    out
}

/// `phase.A.hit_rate` … `phase.F.ops_per_s` from the `STATS` scraped at
/// the six segment boundaries. On `phase-shift` the segments are the
/// paper's phases; on the other workloads they are six equal slices of a
/// stationary stream and show how steady the run was.
fn phase_metrics(replay: &Replay, ops: u64) -> Vec<Metric> {
    let per_phase = ops / TABLE3.len() as u64;
    replay
        .boundaries
        .windows(2)
        .zip(TABLE3.iter())
        .flat_map(|(pair, (phase, _))| {
            let (before, after) = (&pair[0], &pair[1]);
            let (hit_rate, _, reads) = read_ratios(&before.stats, &after.stats);
            let seconds = (after.at - before.at).as_secs_f64();
            [
                Metric::new(
                    format!("phase.{phase}.hit_rate"),
                    hit_rate,
                    "ratio",
                    reads as u64,
                ),
                Metric::new(
                    format!("phase.{phase}.ops_per_s"),
                    per_phase as f64 / seconds,
                    "1/s",
                    per_phase,
                ),
            ]
        })
        .collect()
}

fn write_spans(path: &Path, replay: &Replay, in_process: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (conn, tally) in replay.tallies.iter().enumerate() {
        for (op, s) in tally.samples.iter().enumerate() {
            writeln!(
                out,
                r#"{{"conn":{conn},"op":{op},"span":"wire.{}","start_ns":{},"end_ns":{},"parent":null}}"#,
                s.kind.label(),
                s.start_ns(),
                s.end_ns
            )?;
        }
    }
    for s in in_process {
        writeln!(
            out,
            r#"{{"conn":0,"op":{},"span":"{}","start_ns":{},"end_ns":{},"parent":"{}"}}"#,
            s.op,
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.unwrap_or("")
        )?;
    }
    out.flush()
}

/// Runs the traced run of `wl` and returns every per-layer metric that
/// applies to it.
pub fn run(bin: &Path, wl: &Workload, seed: u64, size: RunSize) -> io::Result<RunResult> {
    let wl = &wl.scaled(size.scale_div);
    let ops = {
        let third = wl.measured_ops(size.seconds, size.scale_div) / TRACED_SHARE;
        (third - third % CONNECTIONS).max(CONNECTIONS)
    };
    let ticks = procfs::clock_ticks_per_s();

    // Telemetry off: the untraced rate and the single-connection probe.
    let mut plain = Session::setup(bin, wl, seed, false, size.server_cpu, "plain")?;
    let untraced = plain.replay(ops, 1)?;
    let untraced_ops_per_s = ops_per_s(&untraced);
    let probe = wire::replay_gets(&mut plain.drivers[0], PROBE_GETS / size.scale_div)?;
    let probe_ns: Vec<f64> = probe
        .samples
        .iter()
        .map(|s| f64::from(s.latency_ns))
        .collect();
    let wire_get_p50_ns = median(&probe_ns);
    drop(plain);

    // Telemetry on: the same stream, the server's own counters around it.
    let mut traced = Session::setup(bin, wl, seed, true, size.server_cpu, "traced")?;
    let metrics_before = traced.drivers[0].conn.metrics()?;
    let replay = traced.replay(ops, TABLE3.len() as u64)?;
    let metrics_after = traced.drivers[0].conn.metrics()?;
    let stripes = num(&replay.after().stats, &["engine", "stripes"]).max(1.0) as usize;
    let block_size = if wl.durable { 4096.0 } else { 512.0 };
    traced.server.shutdown()?;

    let mut metrics = replay_metrics(&replay, ticks);
    let traced_ops_per_s = ops_per_s(&replay);
    // In this list `ops_per_s` is the telemetry-off rate of the same stream.
    metrics.retain(|m| m.name != "ops_per_s");
    metrics.push(Metric::new(
        "ops_per_s",
        untraced_ops_per_s,
        "1/s",
        untraced.total(Tally::attempted),
    ));
    metrics.extend(wire_layer_metrics(
        wl,
        &replay,
        &metrics_before,
        &metrics_after,
        block_size,
    ));
    metrics.extend(phase_metrics(&replay, ops));
    let attempted = replay.total(Tally::attempted);
    metrics.push(Metric::new(
        "server.traced_ops_per_s",
        traced_ops_per_s,
        "1/s",
        attempted,
    ));
    metrics.push(Metric::new(
        "server.tracing_overhead_frac",
        1.0 - traced_ops_per_s / untraced_ops_per_s,
        "ratio",
        attempted,
    ));
    if let Some(dir) = &traced.dir {
        // After the drain: what the store keeps on disk per live user byte.
        let live = (wl.num_keys * (24 + wl.value_size as u64)) as f64;
        let on_disk = dir_bytes(dir.path())? as f64;
        metrics.push(Metric::new(
            "lsm.disk_bytes_per_user_byte",
            on_disk / live,
            "ratio",
            1,
        ));
    }

    // In process: the linked crates, called directly.
    let scratch = TempDir::new("layers")?;
    let in_process = layers::run(wl, seed, ops, stripes, scratch.path())?;
    metrics.extend(in_process.metrics);
    metrics.push(Metric::new(
        "server.wire_get_p50_us_1conn",
        wire_get_p50_ns / 1e3,
        "us",
        probe.samples.len() as u64,
    ));
    metrics.push(Metric::new(
        "server.residual_frac",
        (wire_get_p50_ns - in_process.get_path_ns) / wire_get_p50_ns,
        "ratio",
        probe.samples.len() as u64,
    ));

    let span_file = out_dir().join(format!("{}.trace.jsonl", wl.name));
    write_spans(&span_file, &replay, &in_process.spans)?;

    let failed = replay.total(|t| t.failed)
        + delta(
            &replay.before().stats,
            &replay.after().stats,
            &["server", "protocol_errors"],
        ) as u64
        + untraced.total(|t| t.failed)
        + probe.failed;
    let details = vec![
        ("sizing".to_string(), sizing(wl, ops)),
        (
            "resolved".to_string(),
            obj(vec![
                ("stripes", Value::from(stripes)),
                (
                    "server_cpu",
                    size.server_cpu.map_or(Value::Null, Value::from),
                ),
            ]),
        ),
        (
            "untraced_ops_per_s".to_string(),
            Value::from(untraced_ops_per_s),
        ),
        (
            "in_process_get_path_ns".to_string(),
            Value::from(in_process.get_path_ns),
        ),
        (
            "span_file".to_string(),
            Value::from(span_file.display().to_string()),
        ),
    ];
    Ok(RunResult {
        workload: wl.name.to_string(),
        seed,
        trace: true,
        attempted: attempted + untraced.total(Tally::attempted) + probe.attempted(),
        failed,
        metrics,
        violations: Vec::new(),
        details,
    })
}

/// Smoke-mode check that nothing named in `BENCHMARK.json` has silently
/// stopped being measured: every listed metric must be emitted by at
/// least one of `runs`. Latency percentiles are exempt, because at smoke
/// scale the sample-count rule may omit them.
pub fn check_emitted(runs: &[RunResult], listed: &[MetricSpec]) -> io::Result<()> {
    let missing: Vec<&str> = listed
        .iter()
        .map(|m| m.name.as_str())
        .filter(|name| !name.ends_with("_p50_us") && !name.ends_with("_p99_us"))
        .filter(|name| runs.iter().all(|r| r.metric(name).is_none()))
        .collect();
    if missing.is_empty() {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("metrics listed in BENCHMARK.json but never emitted: {missing:?}"),
    ))
}
