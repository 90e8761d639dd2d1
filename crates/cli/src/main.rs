//! `adcache` — an interactive shell over an AdCache-managed LSM store, and
//! the non-interactive subcommands built on the same engine.
//!
//! With `--dir`, the store is durable: SSTables live under `PATH/sst`, the
//! WAL and manifest under `PATH/meta`, and a restart recovers everything.
//! Without it the store is an in-memory simulation with I/O counting.
//!
//! Shell commands: `put`, `get`, `del`, `scan`, `fill`, `bench`, `stats`,
//! `tune`, `flush`, `help`, `quit`.
//!
//! `adcache trace DIR` summarizes a trace directory (`trace.jsonl` +
//! `metrics.json`) produced by `--trace DIR`, the `ADCACHE_TRACE`
//! environment variable, or `RunConfig::trace_dir`. `adcache serve` puts
//! the engine behind a TCP socket (see `adcache-server` for the wire
//! protocol), `adcache loadgen` replays generated workloads against it,
//! `metrics` and `top` read a live server's registry, and `faultcheck`,
//! `advcheck` and `tenantcheck` are the crash, attack and noisy-neighbor
//! drills. `adcache --help` and `adcache SUBCOMMAND --help` list every
//! flag; both are generated from the flag tables below.

use adcache_core::{
    CachedDb, Controller, ControllerConfig, EngineConfig, MemoryReport, Strategy, Tuner,
};
use adcache_lsm::{splitmix64, FileStorage, MemStorage, Options};
use adcache_obs::{parse_jsonl_lenient, Event, Obs};
use adcache_workload::{render_key, AdversaryKind, Mix, Operation, WorkloadConfig, WorkloadGen};
use bytes::Bytes;
use serde_json::Value;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// What a command's run hands to [`Command::dispatch`]: `Ok(false)` is a
/// run that finished and failed its own check (a drill's FAIL, protocol
/// errors).
type CmdResult = Result<bool, Box<dyn std::error::Error>>;
/// Where the renderers write (stdout; a buffer under test).
type Out<'a> = &'a mut dyn Write;

/// One flag: its name as typed, the placeholder of its value (empty for a
/// switch), its default (empty for none) and its help line. The placeholder
/// is also the value's type: `N`, `S` or `Q` is an unsigned integer (`N>=1`
/// a positive one), `F` a fraction, `a|b|c` one of those words, anything
/// else free text. A name that does not start with `-` is the command's
/// required positional.
type Flag = (&'static str, &'static str, &'static str, &'static str);

/// Declares flag rows, one per line: `NAME = "--flag" "PLACEHOLDER" "default" "help";`.
macro_rules! flags {
    ($($name:ident = $flag:literal $placeholder:literal $default:literal $help:literal;)*) => {
        $(const $name: Flag = ($flag, $placeholder, $default, $help);)*
    };
}

/// A subcommand: the flag table its parser, its usage text and `--help`
/// are generated from, and the function the parsed flags go to.
struct Command {
    /// The word after `adcache` (empty for the interactive shell).
    name: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Flags) -> CmdResult,
}

/// A command line parsed against one [`Command`]'s table.
struct Flags {
    /// Every flag given with its value, in command-line order.
    args: Vec<(&'static str, String)>,
}

impl Flags {
    /// `Ok(None)` is a request for help; `Err` is a usage error naming the
    /// offending flag.
    fn parse(command: &Command, args: &[String]) -> Result<Option<Flags>, String> {
        let mut seen = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            let positional = !arg.starts_with('-');
            let takes = |flag: &&Flag| flag.0 == arg || (positional && !flag.0.starts_with('-'));
            let row = command.flags.iter().find(takes);
            let Some(&(name, placeholder, ..)) = row else {
                return Err(format!("unknown flag {arg}"));
            };
            let value = match (positional, placeholder.is_empty()) {
                (true, _) => arg,
                (false, true) => "",
                (false, false) => args.next().ok_or(format!("{name} needs a value"))?,
            };
            let well_formed = match placeholder {
                "N" | "S" | "Q" => value.parse::<u64>().is_ok(),
                "N>=1" => value.parse::<u64>().is_ok_and(|n| n >= 1),
                "F" => value.parse::<f64>().is_ok(),
                words if words.contains('|') => words.split('|').any(|word| word == value),
                _ => true,
            };
            if !well_formed {
                let wanted = match placeholder {
                    "N>=1" => "a number >= 1".to_string(),
                    words if words.contains('|') => format!("one of: {}", words.replace('|', ", ")),
                    _ => "a number".to_string(),
                };
                return Err(format!("{name} needs {wanted}, got {value}"));
            }
            seen.push((name, value.to_string()));
        }
        let required = command.flags.iter().find(|flag| !flag.0.starts_with('-'));
        match required.filter(|flag| !seen.iter().any(|(name, _)| *name == flag.0)) {
            Some(missing) => Err(format!("{} is missing", missing.0)),
            None => Ok(Some(Flags { args: seen })),
        }
    }

    /// The value `flag` was last given, if it was given at all.
    fn given(&self, flag: Flag) -> Option<&str> {
        let last = self.args.iter().rev().find(|(name, _)| *name == flag.0);
        last.map(|(_, value)| value.as_str())
    }

    fn on(&self, switch: Flag) -> bool {
        self.given(switch).is_some()
    }

    /// The value given, or the table's default.
    fn text(&self, flag: Flag) -> &str {
        self.given(flag).unwrap_or(flag.2)
    }

    /// The value as a number (well-formed since `parse`; may not fit `T`).
    fn num<T: std::str::FromStr>(&self, flag: Flag) -> Result<T, String> {
        let parsed = self.text(flag).parse();
        parsed.map_err(|_| format!("{} {} is out of range", flag.0, self.text(flag)))
    }
}

impl Command {
    /// `adcache NAME [--flag VALUE]...`, every flag of the table.
    fn synopsis(&self) -> String {
        let mut line = ["adcache", self.name].join(" ").trim_end().to_string();
        for (name, placeholder, ..) in self.flags {
            line += &match (name.starts_with('-'), placeholder.is_empty()) {
                (false, _) => format!(" {name}"),
                (true, true) => format!(" [{name}]"),
                (true, false) => format!(" [{name} {placeholder}]"),
            };
        }
        line
    }

    /// One help line per flag of the table, defaults included.
    fn flag_help(&self) -> String {
        let row = |(name, placeholder, default, help): &Flag| {
            let default = if default.is_empty() {
                String::new()
            } else {
                format!(" (default {default})")
            };
            let flag = [*name, *placeholder].join(" ");
            format!("  {}\n        {help}{default}\n", flag.trim_end())
        };
        self.flags.iter().map(row).collect()
    }

    /// Parses, runs, and applies the one exit-code rule: 0 when the command
    /// ran (or printed help), 1 when the run or drill failed, 2 on a usage
    /// error.
    fn dispatch(&self, args: &[String]) -> i32 {
        let label = ["adcache", self.name].join(" ");
        match Flags::parse(self, args) {
            Err(msg) => {
                eprintln!("{}: {msg}\nusage: {}", label.trim_end(), self.synopsis());
                2
            }
            Ok(None) if self.name.is_empty() => {
                print_help();
                0
            }
            Ok(None) => {
                let (synopsis, flags) = (self.synopsis(), self.flag_help());
                print!("usage: {synopsis}\n  {}\n\n{flags}", self.about);
                0
            }
            Ok(Some(flags)) => match (self.run)(&flags) {
                Ok(true) => 0,
                Ok(false) => 1,
                Err(e) => {
                    eprintln!("{}: {e}", label.trim_end());
                    1
                }
            },
        }
    }
}

/// Every subcommand; any other command line is the shell's.
const COMMANDS: [&Command; 8] = [
    &TRACE,
    &SERVE,
    &LOADGEN,
    &METRICS,
    &TOP,
    &FAULTCHECK,
    &ADVCHECK,
    &TENANTCHECK,
];

fn print_help() {
    println!("adcache — interactive AdCache key-value shell\n\nusage:");
    for c in [&SHELL].iter().chain(&COMMANDS) {
        println!("  {}\n      {}", c.synopsis(), c.about);
    }
    println!(
        "\n`adcache SUBCOMMAND --help` describes that subcommand's flags.\n\
         exit status: 0 success, 1 a failed run or drill, 2 a usage error\n\
         \n\
         flags:\n\
         {}\n\
         commands:\n\
         \x20 put <key> <value>   insert or overwrite\n\
         \x20 get <key>           point lookup\n\
         \x20 del <key>           delete\n\
         \x20 scan <key> <n>      n entries from key\n\
         \x20 fill <n>            load n synthetic keys (user000...)\n\
         \x20 bench <n> <mix>     run n ops of mix point|scan|mixed|write\n\
         \x20 stats               cache + engine statistics\n\
         \x20 tune                current AdCache decision parameters\n\
         \x20 flush               flush the memtable\n\
         \x20 help | quit",
        SHELL.flag_help()
    );
}

// Flags that mean the same on every command that takes them.
flags! {
    ADDR = "--addr" "HOST:PORT" "127.0.0.1:4400" "the server";
    DIR = "--dir" "PATH" "" "durable store rooted at PATH";
    CACHE_MB = "--cache-mb" "N" "64" "total cache budget in MiB";
    STRATEGY = "--strategy" "rocksdb-block|kv-cache|range-cache|range-lecar|range-cacheus|adcache" "adcache" "cache strategy";
    TRACE_TO = "--trace" "DIR" "" "record a trace, dumped to DIR on exit";
    KEYS = "--keys" "N" "4000" "distinct keys loaded";
    SEED = "--seed" "S" "1" "seed of every generated stream";
    ASSERT_DEFENSES = "--assert-defenses" "" "" "exit 1 unless the defenses bound the degradation";
    MEM = "--mem" "" "" "in-memory store, the default (undoes --dir)";
    SHELL_STRIPES = "--stripes" "N>=1" "1" "keyspace stripes";
}
const SHELL: Command = Command {
    name: "",
    about: "interactive shell",
    flags: &[DIR, CACHE_MB, STRATEGY, TRACE_TO, SHELL_STRIPES, MEM],
    run: cmd_shell,
};

/// The store both the shell and `serve` open.
struct CliConfig {
    dir: Option<PathBuf>,
    cache_mb: usize,
    strategy: Strategy,
    trace: Option<PathBuf>,
    /// Keyspace stripes; >1 also turns on background flush/compaction
    /// workers (`serve` sizes it to the machine, the shell runs 1).
    stripes: usize,
}

impl CliConfig {
    fn from_flags(flags: &Flags, stripes: usize) -> Result<CliConfig, String> {
        // `--dir` and `--mem` undo each other: the later one stands.
        let is_place = |(name, _): &&(&str, String)| [DIR.0, MEM.0].contains(name);
        let place = flags.args.iter().rev().find(is_place);
        let strategy = Strategy::all()
            .into_iter()
            .find(|s| s.name() == flags.text(STRATEGY));
        Ok(CliConfig {
            dir: place.filter(|p| p.0 == DIR.0).map(|p| (&p.1).into()),
            cache_mb: flags.num(CACHE_MB)?,
            strategy: strategy.ok_or("unknown strategy")?,
            trace: flags.given(TRACE_TO).map(PathBuf::from),
            stripes,
        })
    }
}

/// One line naming the tree a stripe runs on, shared by the start-up
/// banner and `adcache top`'s header.
fn tree_geometry(block: u64, memtable: u64, sstable: u64, l1: u64) -> String {
    format!(
        "tree per stripe: block {block} B, memtable {} KiB, sstable {} KiB, L1 {} KiB",
        memtable >> 10,
        sstable >> 10,
        l1 >> 10,
    )
}

fn build_db(cfg: &CliConfig) -> Result<CachedDb, Box<dyn std::error::Error>> {
    let engine = EngineConfig::new(cfg.strategy, cfg.cache_mb << 20);
    let db = CachedDb::served(engine, cfg.stripes, cfg.dir.as_deref())?;
    let store = match &cfg.dir {
        Some(dir) => format!("durable store at {}", dir.display()),
        None => "in-memory store".to_string(),
    };
    let opts = db.db().options();
    println!(
        "{store} (strategy {}, cache {} MiB, {} stripes)\n{}",
        cfg.strategy.name(),
        cfg.cache_mb,
        cfg.stripes,
        tree_geometry(
            opts.block_size as u64,
            opts.memtable_size as u64,
            opts.sstable_size as u64,
            opts.l1_max_bytes as u64,
        ),
    );
    Ok(db)
}

fn cmd_stats(db: &CachedDb) {
    let snap = db.snapshot();
    println!(
        "ops: {} gets, {} scans, {} writes",
        snap.points, snap.scans, snap.writes
    );
    println!(
        "cache: {} result hits, {} kv hits, {} misses",
        snap.range_hits, snap.kv_hits, snap.cache_misses
    );
    if let Some(bc) = db.block_cache() {
        let s = bc.stats();
        println!(
            "block cache: {}/{} bytes, {} blocks, {} hits / {} misses, {} invalidated",
            bc.used(),
            bc.capacity(),
            bc.len(),
            s.hits,
            s.misses,
            s.invalidations
        );
    }
    if let Some(rc) = db.range_cache() {
        let s = rc.stats();
        println!(
            "range cache: {}/{} bytes, {} entries, {} segments ({} dropped), {} hits / {} misses",
            rc.used(),
            rc.capacity(),
            rc.len(),
            rc.segment_count(),
            rc.coverage_dropped(),
            s.hits,
            s.misses
        );
    }
    println!(
        "engine: {} SST reads (queries), {} compactions, {} flushes, {} runs / {} levels",
        db.db().query_block_reads(),
        db.db().compactions(),
        db.db().stats_sum(|s| s.flushes.get()),
        db.db().num_runs(),
        db.db().num_levels(),
    );
    println!("write amplification: {:.2}x", db.db().write_amplification());
    println!(
        "device: {} reads, {} writes, {:.1} ms simulated",
        db.db().storage().stats().reads(),
        db.db().storage().stats().writes(),
        db.db().storage().stats().simulated_ns() as f64 / 1e6,
    );
    let _ = render_memory(&db.memory_report(), &mut std::io::stdout().lock());
}

/// The shell's engine plus the online loop of the paper, driven from a
/// REPL: every data command goes through [`Shell::exec`], which ticks the
/// tuner once per executed operation.
struct Shell {
    db: CachedDb,
    tuner: Tuner,
    obs: Obs,
    /// The start-up banner's line naming what the tuner runs.
    tuning: String,
}

impl Shell {
    fn new(db: CachedDb, obs: Obs) -> Self {
        if obs.is_enabled() {
            db.set_obs(obs.clone());
        }
        let cfg = ControllerConfig::scaled_down();
        let window = cfg.window;
        let controller = Controller::for_store(&db, None, cfg, None);
        // No committed agent was trained on the served tree, so the shell's
        // agent starts untrained.
        let tuning = match &controller {
            Some(c) => format!(
                "tuning: untrained agent, hidden width {}, window {window} ops",
                c.config().hidden
            ),
            None => format!("tuning: none ({} is not tuned)", db.strategy().name()),
        };
        let tuner = Tuner::background(&db, controller, window);
        Shell {
            db,
            tuner,
            obs,
            tuning,
        }
    }

    /// Runs one data operation and counts it toward the tuning window.
    fn exec<T>(
        &self,
        op: impl FnOnce(&CachedDb) -> adcache_lsm::Result<T>,
    ) -> adcache_lsm::Result<T> {
        let out = op(&self.db)?;
        self.tuner.tick(&self.db);
        Ok(out)
    }
}

fn parse_mix(name: &str) -> Result<Mix, String> {
    Ok(match name {
        "point" => Mix::new(100.0, 0.0, 0.0, 0.0),
        "scan" => Mix::new(0.0, 80.0, 20.0, 0.0),
        "write" => Mix::new(0.0, 0.0, 0.0, 100.0),
        "mixed" => Mix::new(40.0, 25.0, 5.0, 30.0),
        other => return Err(format!("unknown mix {other} (point|scan|write|mixed)")),
    })
}

/// Parses a `HOT:COLD` tenant-skew weight pair, e.g. `8:1`.
fn parse_skew(spec: &str) -> Result<(u32, u32), String> {
    let bad = || format!("bad skew {spec} (expected HOT:COLD, e.g. 8:1)");
    let (hot, cold) = spec.split_once(':').ok_or_else(bad)?;
    let hot: u32 = hot.trim().parse().map_err(|_| bad())?;
    let cold: u32 = cold.trim().parse().map_err(|_| bad())?;
    if hot == 0 || cold == 0 {
        return Err(bad());
    }
    Ok((hot, cold))
}

fn cmd_bench(shell: &Shell, n: u64, mix_name: &str) -> Result<(), Box<dyn std::error::Error>> {
    let db = &shell.db;
    let mix = parse_mix(mix_name)?;
    let keys = 100_000;
    let mut gen = WorkloadGen::new(WorkloadConfig {
        num_keys: keys,
        ..Default::default()
    });
    let reads_before = db.db().query_block_reads();
    let start = std::time::Instant::now();
    for _ in 0..n {
        let op = gen.next_op(&mix);
        shell.exec(|db| adcache_core::execute(db, &op))?;
    }
    let secs = start.elapsed().as_secs_f64();
    println!(
        "{n} ops in {:.2}s ({:.0} ops/s wall), {} SST reads",
        secs,
        n as f64 / secs,
        db.db().query_block_reads() - reads_before
    );
    Ok(())
}

/// The per-request stage labels the server records, in pipeline order.
/// `recv` overlaps every frame of a batched read, so it is excluded from
/// the total and from share-of-total math.
const STAGE_LABELS: [&str; 7] = [
    "recv",
    "parse",
    "queue_wait",
    "lock_wait",
    "engine_exec",
    "cache_layer",
    "reply_flush",
];

/// The engine's four timed lock paths.
const LOCK_PATHS: [&str; 4] = ["read", "write", "flush", "compaction"];

/// One histogram of a snapshot: count and sum (the delta, in a view with a
/// previous snapshot) and the cumulative quantiles, all in nanoseconds.
struct Hist {
    count: u64,
    sum: u64,
    p50: u64,
    p95: u64,
    p99: u64,
    max: u64,
}

impl Hist {
    fn mean_us(&self) -> f64 {
        match self.count {
            0 => 0.0,
            n => self.sum as f64 / n as f64 / 1e3,
        }
    }

    /// `p50 … p95 … p99 … max … (N ops)`, quantiles padded to `width`.
    fn quantiles(&self, width: usize) -> String {
        let us = |ns: u64| ns as f64 / 1e3;
        format!(
            "p50 {:>width$.1}us  p95 {:>width$.1}us  p99 {:>width$.1}us  max {:>width$.1}us  ({} ops)",
            us(self.p50),
            us(self.p95),
            us(self.p99),
            us(self.max),
            self.count,
        )
    }
}

/// The one reader of a metrics snapshot (`metrics.json`, a `METRICS` reply,
/// a timeseries line). With a previous snapshot, counters and histogram
/// counts and sums read as the change since it; gauges and quantiles are
/// always the current ones.
#[derive(Clone, Copy)]
struct MetricsView<'a> {
    cur: &'a Value,
    prev: Option<&'a Value>,
}

impl<'a> MetricsView<'a> {
    fn of(cur: &'a Value) -> Self {
        MetricsView { cur, prev: None }
    }

    fn field(snapshot: &'a Value, family: &str, name: &str) -> Option<&'a Value> {
        snapshot.get(family)?.get(name)
    }

    fn counter(&self, name: &str) -> u64 {
        let read = |v| Self::field(v, "counters", name).and_then(Value::as_u64);
        let before = self.prev.and_then(read).unwrap_or(0);
        read(self.cur).unwrap_or(0).saturating_sub(before)
    }

    fn gauge(&self, name: &str) -> i64 {
        let gauge = Self::field(self.cur, "gauges", name);
        gauge.and_then(Value::as_i64).unwrap_or(0)
    }

    fn hist(&self, name: &str) -> Hist {
        let read = |v, key: &str| {
            let h = Self::field(v, "histograms", name);
            h.and_then(|h| h.get(key)?.as_u64()).unwrap_or(0)
        };
        let now = |key| read(self.cur, key);
        let delta = |key| now(key).saturating_sub(self.prev.map_or(0, |p| read(p, key)));
        Hist {
            count: delta("count"),
            sum: delta("sum_ns"),
            p50: now("p50_ns"),
            p95: now("p95_ns"),
            p99: now("p99_ns"),
            max: now("max_ns"),
        }
    }

    /// Every stage as `(label, histogram, share of server.stage.total as a
    /// fraction)`, and that total.
    fn stages(&self) -> ([(&'static str, Hist, f64); 7], Hist) {
        let total = self.hist("server.stage.total");
        let stage = |label| {
            let hist = self.hist(&format!("server.stage.{label}"));
            let share = match label {
                "recv" => 0.0,
                _ if total.sum == 0 => 0.0,
                _ => hist.sum as f64 / total.sum as f64,
            };
            (label, hist, share)
        };
        (STAGE_LABELS.map(stage), total)
    }

    /// `(path, acquisitions, wait_ns, hold_ns)` of the four lock paths
    /// under `scope`: `engine`, or `engine.stripe.N`.
    fn locks(&self, scope: &str) -> [(&'static str, u64, u64, u64); 4] {
        LOCK_PATHS.map(|path| {
            let read = |what| self.counter(&format!("{scope}.lock.{path}.{what}"));
            (path, read("acquisitions"), read("wait_ns"), read("hold_ns"))
        })
    }

    /// `(stripe, lock acquisitions, lock wait_ns, flush queue depth,
    /// compaction backlog)` per stripe; empty unless the engine ran with
    /// stripes > 1.
    fn stripes(&self) -> Vec<(usize, u64, u64, i64, i64)> {
        let mut rows = Vec::new();
        for index in 0.. {
            let scope = format!("engine.stripe.{index}");
            let depth = format!("{scope}.flush_queue_depth");
            let locks = self.locks(&scope);
            let acquisitions = locks.iter().map(|l| l.1).sum();
            if acquisitions == 0 && Self::field(self.cur, "gauges", &depth).is_none() {
                break;
            }
            let wait_ns = locks.iter().map(|l| l.2).sum();
            let backlog = self.gauge(&format!("{scope}.compaction_backlog"));
            rows.push((index, acquisitions, wait_ns, self.gauge(&depth), backlog));
        }
        rows
    }

    /// Every tenant with cache counters, in the snapshot's own order. A
    /// server with telemetry on always counts the default tenant 0, so a
    /// multi-tenant run is one with more than one id.
    fn tenant_ids(&self) -> Vec<u64> {
        let counters = self.cur.get("counters").and_then(Value::as_object);
        let id = |(name, _): &(String, Value)| {
            let id = name.strip_prefix("cache.tenant.")?.strip_suffix(".hits")?;
            id.parse().ok()
        };
        counters.map_or(Vec::new(), |c| c.iter().filter_map(id).collect())
    }

    /// `(cache hits, cache misses, quota-throttled)`.
    fn tenant(&self, id: u64) -> (u64, u64, u64) {
        (
            self.counter(&format!("cache.tenant.{id}.hits")),
            self.counter(&format!("cache.tenant.{id}.misses")),
            self.counter(&format!("server.tenant.{id}.quota.throttled")),
        )
    }
}

/// `hits * 100 / total`, 0 when there was no traffic.
fn percent(hits: u64, total: u64) -> f64 {
    match total {
        0 => 0.0,
        n => hits as f64 * 100.0 / n as f64,
    }
}

fn hit_rate_line(m: &MetricsView, label: &str, prefix: &str) -> String {
    let hits = m.counter(&format!("{prefix}.hits"));
    let misses = m.counter(&format!("{prefix}.misses"));
    let evictions = m.counter(&format!("{prefix}.evictions"));
    if hits + misses == 0 {
        format!("  {label:<12} (no traffic)")
    } else {
        format!(
            "  {label:<12} {:>7.2}% hit ({hits} hits / {misses} misses, {evictions} evictions)",
            percent(hits, hits + misses)
        )
    }
}

flags! {
    TRACE_DIR = "DIR" "" "" "written by --trace DIR or ADCACHE_TRACE=DIR";
}
const TRACE: Command = Command {
    name: "trace",
    about: "summarize a trace directory (trace.jsonl + metrics.json)",
    flags: &[TRACE_DIR],
    run: |flags| {
        let dir = std::path::Path::new(flags.text(TRACE_DIR));
        render_trace(dir, &mut std::io::stdout().lock())?;
        Ok(true)
    },
};

/// `adcache trace DIR` — summarizes a recorded trace directory.
fn render_trace(dir: &std::path::Path, out: Out) -> Result<(), Box<dyn std::error::Error>> {
    let metrics: Value = serde_json::from_str(&std::fs::read_to_string(dir.join("metrics.json"))?)?;
    let m = MetricsView::of(&metrics);
    // Lenient parse: a trace written by another build may contain event
    // kinds this binary does not know (added by a newer build, or retired
    // since an older one wrote it); skip and count them instead of
    // refusing the whole file.
    let (records, skipped) =
        parse_jsonl_lenient(&std::fs::read_to_string(dir.join("trace.jsonl"))?)?;

    writeln!(out, "trace: {} ({} events)", dir.display(), records.len())?;
    if skipped > 0 {
        writeln!(
            out,
            "  ({skipped} events of a kind this build does not know skipped — written by another build?)"
        )?;
    }
    // Journal loss: the ring drops oldest records under pressure. A
    // nonzero first seq is history lost off the front; internal seq gaps
    // would mean records vanished mid-stream (should never happen).
    if let Some(first) = records.first() {
        let head_dropped = first.seq;
        let mut internal_gaps = 0u64;
        for w in records.windows(2) {
            internal_gaps += w[1].seq.saturating_sub(w[0].seq + 1);
        }
        // Lenient-skipped lines are present in the file, just unknown —
        // they account for that many apparent gaps.
        let internal_gaps = internal_gaps.saturating_sub(skipped);
        if head_dropped > 0 || internal_gaps > 0 {
            writeln!(
                out,
                "  WARNING: journal lossy — {head_dropped} events dropped before the \
                 retained window, {internal_gaps} internal seq gaps"
            )?;
        }
    }
    for r in &records {
        if let Event::RunStart {
            strategy,
            total_cache_bytes,
        } = &r.event
        {
            writeln!(
                out,
                "run: strategy {strategy}, cache budget {:.1} MiB",
                *total_cache_bytes as f64 / (1 << 20) as f64
            )?;
        }
    }

    writeln!(out, "\ncache hit rates:")?;
    writeln!(out, "{}", hit_rate_line(&m, "block", "cache.block"))?;
    writeln!(out, "{}", hit_rate_line(&m, "range", "cache.range"))?;
    writeln!(out, "{}", hit_rate_line(&m, "kv", "cache.kv"))?;

    // Admission breakdown by reason, from the whole run's counters.
    writeln!(out, "\nadmission decisions:")?;
    let mut recorded = false;
    let counters = metrics.get("counters").and_then(Value::as_object);
    for (name, _) in counters.into_iter().flatten() {
        let Some(reason) = name.strip_prefix("core.admission.decisions.") else {
            continue;
        };
        let decisions = m.counter(name);
        if decisions > 0 {
            let admitted = m.counter(&format!("core.admission.admitted.{reason}"));
            writeln!(
                out,
                "  {reason:<44} {decisions:>7} decisions, {admitted} entries admitted"
            )?;
            recorded = true;
        }
    }
    if !recorded {
        writeln!(out, "  (none recorded)")?;
    }
    writeln!(
        out,
        "  counters (whole run): {} accepts, {} rejects, {} partials",
        m.counter("core.admission.accepts"),
        m.counter("core.admission.rejects"),
        m.counter("core.admission.partials"),
    )?;

    // Boundary trajectory: where the controller moved the block/range split.
    let moves: Vec<(u64, f64, bool)> = records
        .iter()
        .filter_map(|r| match &r.event {
            Event::BoundaryResize {
                range_ratio,
                applied,
                ..
            } => Some((r.window, *range_ratio, *applied)),
            _ => None,
        })
        .collect();
    writeln!(out, "\nboundary trajectory ({} decisions):", moves.len())?;
    let tail = moves.len().saturating_sub(10);
    if tail > 0 {
        writeln!(out, "  ... {tail} earlier decisions elided ...")?;
    }
    for (window, ratio, applied) in &moves[tail..] {
        writeln!(
            out,
            "  window {window:>5}: range {:>5.1}% / block {:>5.1}%{}",
            ratio * 100.0,
            (1.0 - ratio) * 100.0,
            if *applied {
                ""
            } else {
                "  (suppressed by hysteresis)"
            }
        )?;
    }

    // Training progress.
    let steps: Vec<(f64, f64)> = records
        .iter()
        .filter_map(|r| match &r.event {
            Event::TrainStep {
                reward, td_error, ..
            } => Some((*reward, *td_error)),
            _ => None,
        })
        .collect();
    if let Some((last_reward, _)) = steps.last() {
        let mean_r = steps.iter().map(|(r, _)| r).sum::<f64>() / steps.len() as f64;
        let mean_td = steps.iter().map(|(_, td)| td.abs()).sum::<f64>() / steps.len() as f64;
        writeln!(
            out,
            "\ntraining: {} steps, mean reward {mean_r:+.4}, mean |td error| {mean_td:.4}, last reward {last_reward:+.4}",
            steps.len(),
        )?;
    }

    // LSM maintenance counted from the journal.
    let (mut compactions, mut flushes, mut invalidations) = (0u64, 0u64, 0u64);
    for r in &records {
        match &r.event {
            Event::CompactionFinish { .. } => compactions += 1,
            Event::Flush { .. } => flushes += 1,
            Event::BlockCacheInvalidation { .. } => invalidations += 1,
            _ => {}
        }
    }
    writeln!(
        out,
        "\nlsm: {} flushes, {} compactions (counters: {} / {}), {} block-cache invalidations",
        flushes,
        compactions,
        m.counter("lsm.flushes"),
        m.counter("lsm.compactions"),
        invalidations,
    )?;
    let gc_rounds = m.counter("lsm.group_commit.rounds");
    if gc_rounds > 0 {
        writeln!(
            out,
            "  group commit: {gc_rounds} rounds, {} seals, {} write stalls",
            m.counter("lsm.seals"),
            m.counter("lsm.write_stalls"),
        )?;
    }

    if MetricsView::field(&metrics, "histograms", "op.latency_ns").is_some() {
        let latency = m.hist("op.latency_ns").quantiles(0);
        writeln!(out, "\nlatency (simulated): {latency}")?;
    }

    // Serving summary (present only for traces from `adcache serve`).
    let served = m.counter("server.requests");
    if served > 0 {
        render_trace_serving(&m, &records, served, out)?;
    }

    // Rolling time-series, if the run snapshotted one (`serve
    // --snapshot-ms`). Absent for plain shell traces.
    let ts_path = dir.join("timeseries.jsonl");
    if let Ok(text) = std::fs::read_to_string(&ts_path) {
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        writeln!(
            out,
            "\ntimeseries: {} snapshots in {}",
            lines.len(),
            ts_path.display()
        )?;
        let tail = lines.len().saturating_sub(5);
        if tail > 0 {
            writeln!(out, "  ... {tail} earlier snapshots elided ...")?;
        }
        for line in &lines[tail..] {
            let Ok(v) = serde_json::from_str::<Value>(line) else {
                writeln!(out, "  (malformed snapshot line)")?;
                continue;
            };
            let top = |key| v.get(key).and_then(Value::as_u64).unwrap_or(0);
            let (seq, interval_ms) = (top("seq"), top("interval_ms"));
            // A snapshot line's counters are already interval deltas.
            let interval = MetricsView::of(&v);
            let qps = match interval_ms {
                0 => 0.0,
                ms => interval.counter("server.requests") as f64 * 1e3 / ms as f64,
            };
            writeln!(
                out,
                "  snapshot {seq:>4}: {qps:>9.0} ops/s over {interval_ms} ms, \
                 {} block-cache hits",
                interval.counter("cache.block.hits")
            )?;
        }
    }
    Ok(())
}

/// The `serving:` half of a trace summary: connections, per-opcode
/// latency, stage breakdown, lock and stripe accounting, tenants, and the
/// slowest journaled requests.
fn render_trace_serving(
    m: &MetricsView,
    records: &[adcache_obs::JournalRecord],
    served: u64,
    out: Out,
) -> std::io::Result<()> {
    let (mut accepted, mut closed, mut overloads) = (0u64, 0u64, 0u64);
    let mut close_causes: std::collections::BTreeMap<String, u64> =
        std::collections::BTreeMap::new();
    let mut sampled: std::collections::BTreeMap<String, (u64, u64)> =
        std::collections::BTreeMap::new();
    for r in records {
        match &r.event {
            Event::ConnAccepted { .. } => accepted += 1,
            Event::ConnClosed { cause, .. } => {
                closed += 1;
                *close_causes.entry(format!("{cause:?}")).or_insert(0) += 1;
            }
            Event::ServerOverload { .. } => overloads += 1,
            Event::RequestServed {
                opcode, latency_ns, ..
            } => {
                let e = sampled.entry(opcode.clone()).or_insert((0, 0));
                e.0 += 1;
                e.1 += latency_ns;
            }
            _ => {}
        }
    }
    writeln!(
        out,
        "\nserving: {served} requests, {} protocol errors, {} MiB in / {} MiB out",
        m.counter("server.protocol_errors"),
        m.counter("server.bytes_in") >> 20,
        m.counter("server.bytes_out") >> 20,
    )?;
    let causes = close_causes
        .iter()
        .map(|(k, n)| format!("{n} {k}"))
        .collect::<Vec<_>>()
        .join(", ");
    writeln!(
        out,
        "  connections: {accepted} accepted, {closed} closed{}{}",
        if causes.is_empty() {
            String::new()
        } else {
            format!(" ({causes})")
        },
        if overloads > 0 {
            format!(", {overloads} overload refusals")
        } else {
            String::new()
        }
    )?;
    for op in ["get", "put", "delete", "scan", "ping", "stats"] {
        let latency = m.hist(&format!("server.latency.{op}"));
        if latency.count > 0 {
            writeln!(out, "  {op:<7} {}", latency.quantiles(8))?;
        }
    }
    if !sampled.is_empty() {
        let line = sampled
            .iter()
            .map(|(op, (n, total))| format!("{op} {n}x ~{:.1}us", *total as f64 / *n as f64 / 1e3))
            .collect::<Vec<_>>()
            .join(", ");
        writeln!(out, "  journal samples: {line}")?;
    }

    // Per-request stage breakdown (whole run, from the registry).
    let (stages, total) = m.stages();
    if total.count > 0 {
        writeln!(out, "\nstage breakdown ({} requests):", total.count)?;
        for (label, hist, share) in stages.iter().filter(|s| s.1.count > 0) {
            writeln!(
                out,
                "  {label:<12} {:>5.1}%  mean {:>8.1}us  p99 {:>8.1}us{}",
                share * 100.0,
                hist.mean_us(),
                hist.p99 as f64 / 1e3,
                if *label == "recv" {
                    "  (overlaps batches; outside total)"
                } else {
                    ""
                },
            )?;
        }
    }

    // Engine lock accounting and contention events.
    let locks = m.locks("engine");
    if locks.iter().any(|l| l.1 > 0) {
        writeln!(out, "\nengine lock accounting:")?;
        for (path, acquisitions, wait_ns, hold_ns) in locks.iter().filter(|l| l.1 > 0) {
            writeln!(
                out,
                "  {path:<12} {acquisitions:>9} acquisitions, wait {:>9.2}ms, hold {:>9.2}ms",
                *wait_ns as f64 / 1e6,
                *hold_ns as f64 / 1e6
            )?;
        }
        let contentions = records
            .iter()
            .filter(|r| matches!(r.event, Event::LockContention { .. }))
            .count();
        if contentions > 0 {
            writeln!(
                out,
                "  {contentions} over-budget waits journaled (LockContention)"
            )?;
        }
    }

    // Per-stripe accounting: lock traffic, queue depths, backlog.
    let stripes = m.stripes();
    if let Some((hottest, _, hottest_wait, ..)) = stripes.iter().max_by_key(|s| s.2) {
        let total_wait: u64 = stripes.iter().map(|s| s.2).sum();
        writeln!(out, "\nstripes ({}):", stripes.len())?;
        for (i, acq, wait, depth, backlog) in &stripes {
            writeln!(
                out,
                "  stripe {i:>2}: {acq:>9} lock acquisitions, wait {:>9.2}ms ({:>5.1}%), \
                 flush queue {depth}, compaction backlog {backlog}",
                *wait as f64 / 1e6,
                percent(*wait, total_wait),
            )?;
        }
        writeln!(
            out,
            "  hottest: stripe {hottest} with {:.2}ms lock wait",
            *hottest_wait as f64 / 1e6
        )?;
    }

    // Per-tenant accounting, once connections authenticated.
    let mut tenant_ids = m.tenant_ids();
    tenant_ids.sort_unstable();
    if tenant_ids.len() > 1 {
        let mut bound: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for r in records {
            if let Event::TenantBound { tenant, .. } = &r.event {
                *bound.entry(*tenant).or_insert(0) += 1;
            }
        }
        writeln!(out, "\ntenants ({}):", tenant_ids.len())?;
        for id in &tenant_ids {
            let (hits, misses, throttled) = m.tenant(*id);
            let total = hits + misses;
            writeln!(
                out,
                "  tenant {id:>3}: hit rate {:>5.1}% ({hits}/{total}), {} conns bound{}",
                percent(hits, total),
                bound.get(id).copied().unwrap_or(0),
                if throttled > 0 {
                    format!(", {throttled} quota-throttled")
                } else {
                    String::new()
                },
            )?;
        }
    }

    // Slowest journaled requests, worst first.
    let mut slow: Vec<&adcache_obs::JournalRecord> = records
        .iter()
        .filter(|r| matches!(r.event, Event::SlowRequest { .. }))
        .collect();
    slow.sort_by_key(|r| match &r.event {
        Event::SlowRequest { total_ns, .. } => std::cmp::Reverse(*total_ns),
        _ => std::cmp::Reverse(0),
    });
    if !slow.is_empty() {
        writeln!(out, "\nslow requests ({} journaled, worst 5):", slow.len())?;
        for r in slow.iter().take(5) {
            if let Event::SlowRequest {
                conn,
                opcode,
                status,
                total_ns,
                queue_ns,
                lock_wait_ns,
                engine_ns,
                cache_ns,
                key,
                ..
            } = &r.event
            {
                writeln!(
                    out,
                    "  {:>9.1}us {opcode} ({status}) conn {conn} key {key:?} — queue \
                     {:.1}us, lock {:.1}us, engine {:.1}us, cache {:.1}us",
                    *total_ns as f64 / 1e3,
                    *queue_ns as f64 / 1e3,
                    *lock_wait_ns as f64 / 1e3,
                    *engine_ns as f64 / 1e3,
                    *cache_ns as f64 / 1e3,
                )?;
            }
        }
    }
    Ok(())
}

/// 4 stripes per core, clamped to [2, 16]: enough to spread lock and
/// flush contention without making 16-way scan merges on a small box.
fn default_serve_stripes() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    (cores * 4).clamp(2, 16)
}

flags! {
    LISTEN = "--addr" "HOST:PORT" "127.0.0.1:4400" "listen address (port 0: any free port)";
    WORKERS = "--workers" "N" "0" "worker threads (0: one per core)";
    MAX_CONNS = "--max-conns" "N" "1024" "concurrent-connection ceiling";
    IDLE_TIMEOUT = "--idle-timeout-secs" "N" "60" "close connections idle this long";
    FILL = "--fill" "N" "0" "preload N synthetic keys before listening";
    NO_TELEMETRY = "--no-telemetry" "" "" "strip the metrics registry and stage tracing";
    SNAPSHOT_MS = "--snapshot-ms" "N" "0" "metric deltas to DIR/timeseries.jsonl this often (needs --trace)";
    SLOW_US = "--slow-us" "N" "10000" "journal requests slower than this (0: none)";
    QUOTA_OPS = "--quota-ops" "N" "0" "per-connection tokens/s (0: no quota)";
    QUOTA_BURST = "--quota-burst" "N" "0" "per-connection bucket (0: one second of quota)";
    TENANT_QUOTA_OPS = "--tenant-quota-ops" "N" "0" "per-tenant tokens/s over all its connections";
    TENANT_QUOTA_BURST = "--tenant-quota-burst" "N" "0" "per-tenant bucket (0: one second of quota)";
    SERVE_STRIPES = "--stripes" "N>=1" "" "keyspace stripes (default: 4 per core, 2 to 16); 1 = inline maintenance";
}
const SERVE: Command = Command {
    name: "serve",
    about: "TCP server over the engine (drain via opcode 6)",
    flags: &[
        LISTEN,
        CACHE_MB,
        STRATEGY,
        DIR,
        WORKERS,
        MAX_CONNS,
        IDLE_TIMEOUT,
        FILL,
        TRACE_TO,
        NO_TELEMETRY,
        SNAPSHOT_MS,
        SLOW_US,
        QUOTA_OPS,
        QUOTA_BURST,
        TENANT_QUOTA_OPS,
        TENANT_QUOTA_BURST,
        SERVE_STRIPES,
    ],
    run: cmd_serve,
};

/// An `Obs` for a run over `cfg`'s store, with the run announced.
fn start_obs(enabled: bool, cfg: &CliConfig) -> Obs {
    let obs = if enabled {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    obs.emit(|| Event::RunStart {
        strategy: cfg.strategy.name().into(),
        total_cache_bytes: (cfg.cache_mb as u64) << 20,
    });
    obs
}

fn server_config(flags: &Flags) -> Result<adcache_server::ServerConfig, String> {
    Ok(adcache_server::ServerConfig {
        addr: flags.text(LISTEN).to_string(),
        workers: flags.num(WORKERS)?,
        max_conns: flags.num(MAX_CONNS)?,
        idle_timeout: Duration::from_secs(flags.num(IDLE_TIMEOUT)?),
        slow_request_ns: flags.num::<u64>(SLOW_US)?.saturating_mul(1_000),
        quota_ops: flags.num(QUOTA_OPS)?,
        quota_burst: flags.num(QUOTA_BURST)?,
        tenant_quota_ops: flags.num(TENANT_QUOTA_OPS)?,
        tenant_quota_burst: flags.num(TENANT_QUOTA_BURST)?,
        ..Default::default()
    })
}

/// `adcache serve`: put the engine behind a TCP socket and run until a
/// client sends the `Shutdown` opcode (CI drives drain that way; an
/// operator can use `adcache loadgen --shutdown --ops 0`).
fn cmd_serve(flags: &Flags) -> CmdResult {
    // Serving defaults to a striped engine with background maintenance,
    // sized to the machine (cross-stripe scans cost a per-stripe setup, so
    // more stripes than the hardware can run in parallel only taxes the
    // read path).
    let stripes = match flags.given(SERVE_STRIPES) {
        Some(_) => flags.num(SERVE_STRIPES)?,
        None => default_serve_stripes(),
    };
    let cli = &CliConfig::from_flags(flags, stripes)?;
    let server_cfg = server_config(flags)?;
    let (fill, snapshot_ms): (u64, u64) = (flags.num(FILL)?, flags.num(SNAPSHOT_MS)?);
    if snapshot_ms > 0 && cli.trace.is_none() {
        return Err(
            "--snapshot-ms needs --trace DIR (snapshots land in DIR/timeseries.jsonl)".into(),
        );
    }
    let db = build_db(cli)?;
    // Telemetry is on by default: the registry backs the METRICS opcode
    // and stage histograms. `--no-telemetry` strips all of it for
    // overhead baselines.
    let obs = start_obs(!flags.on(NO_TELEMETRY), cli);
    db.set_obs(obs.clone());
    if fill > 0 {
        for k in 0..fill {
            db.load(render_key(k), Bytes::from(format!("value-{k}")))?;
        }
        db.db().flush()?;
        println!("preloaded {fill} keys");
    }

    let snapshotter = match (&cli.trace, snapshot_ms) {
        (Some(dir), ms) if ms > 0 => {
            std::fs::create_dir_all(dir)?;
            let snap = adcache_obs::Snapshotter::start(
                obs.clone(),
                &dir.join("timeseries.jsonl"),
                Duration::from_millis(ms),
            )?;
            println!(
                "snapshotting metric deltas every {ms} ms to {}",
                dir.join("timeseries.jsonl").display()
            );
            Some(snap)
        }
        _ => None,
    };

    let db = Arc::new(db);
    let server = adcache_server::Server::start(db.clone(), server_cfg)?;
    println!(
        "serving on {} (shutdown: protocol opcode 6)",
        server.local_addr()
    );
    let report = server.wait();
    if let Some(snap) = snapshotter {
        let lines = snap.stop();
        println!("snapshot thread stopped after {lines} timeseries lines");
    }
    println!(
        "drained: {} requests ({} protocol errors), {}/{} connections closed, \
         {} refused, {} quota-throttled, {} MiB in / {} MiB out",
        report.requests,
        report.protocol_errors,
        report.conns_closed,
        report.conns_accepted,
        report.conns_refused,
        report.quota_throttled,
        report.bytes_in >> 20,
        report.bytes_out >> 20,
    );
    if let Some(dir) = &cli.trace {
        obs.dump_to_dir(dir)?;
        println!(
            "trace dumped to {} (summarize: adcache trace)",
            dir.display()
        );
    }
    Ok(true)
}

/// Connects to a serving instance and fetches its metrics registry as a
/// parsed JSON tree (the `METRICS` opcode, JSON format).
fn fetch_metrics_value(addr: &str) -> Result<Value, Box<dyn std::error::Error>> {
    let mut c = adcache_server::Client::connect(addr)?;
    let json = c.metrics(adcache_server::MetricsFormat::Json)?;
    Ok(serde_json::from_str(&json)?)
}

flags! {
    FORMAT = "--format" "json|prom|prometheus" "json" "raw export format";
    SUMMARY = "--summary" "" "" "greppable stage, lock and group-commit breakdown instead";
}
const METRICS: Command = Command {
    name: "metrics",
    about: "one-shot metrics export from a live server",
    flags: &[ADDR, FORMAT, SUMMARY],
    run: cmd_metrics,
};

/// `adcache metrics`: one-shot export of a live server's registry. Raw
/// JSON / Prometheus text by default; `--summary` renders a greppable
/// per-stage breakdown plus the engine lock-wait share.
fn cmd_metrics(flags: &Flags) -> CmdResult {
    let addr = flags.text(ADDR);
    if flags.on(SUMMARY) {
        let snapshot = fetch_metrics_value(addr)?;
        render_metrics_summary(&MetricsView::of(&snapshot), &mut std::io::stdout().lock())?;
        return Ok(true);
    }
    let format = match flags.text(FORMAT) {
        "json" => adcache_server::MetricsFormat::Json,
        _ => adcache_server::MetricsFormat::Prometheus,
    };
    let text = adcache_server::Client::connect(addr)?.metrics(format)?;
    // The export already ends with its own newline (both formats);
    // print it byte-exact so piped output matches the wire payload.
    print!("{text}");
    if !text.ends_with('\n') {
        println!();
    }
    Ok(true)
}

fn render_metrics_summary(m: &MetricsView, out: Out) -> std::io::Result<()> {
    writeln!(out, "requests {}", m.counter("server.requests"))?;
    let (stages, total) = m.stages();
    for (label, hist, share) in &stages {
        writeln!(
            out,
            "stage {label} count {} mean_us {:.1} p99_us {:.1} share_pct {:.1}",
            hist.count,
            hist.mean_us(),
            hist.p99 as f64 / 1e3,
            share * 100.0,
        )?;
    }
    writeln!(
        out,
        "stage total count {} mean_us {:.1} p50_us {:.1} p99_us {:.1}",
        total.count,
        total.mean_us(),
        total.p50 as f64 / 1e3,
        total.p99 as f64 / 1e3,
    )?;
    let lock_wait = stages.iter().find(|s| s.0 == "lock_wait");
    let lock_share = lock_wait.map_or(0.0, |s| s.2 * 100.0);
    writeln!(out, "lock_wait_share_pct {lock_share:.2}")?;
    for (path, acquisitions, wait_ns, hold_ns) in m.locks("engine") {
        writeln!(
            out,
            "lock {path} acquisitions {acquisitions} wait_ns {wait_ns} hold_ns {hold_ns}"
        )?;
    }
    writeln!(
        out,
        "group_commit rounds {} seals {} write_stalls {}",
        m.counter("lsm.group_commit.rounds"),
        m.counter("lsm.seals"),
        m.counter("lsm.write_stalls"),
    )
}

flags! {
    INTERVAL_MS = "--interval-ms" "N" "1000" "time between frames (at least 50)";
    ITERATIONS = "--iterations" "N" "0" "frames to print (0: until the connection breaks)";
}
const TOP: Command = Command {
    name: "top",
    about: "polling live view: QPS, stages, locks, caches",
    flags: &[ADDR, INTERVAL_MS, ITERATIONS],
    run: cmd_top,
};

/// `adcache top`: a polling live view over the wire. Each tick fetches
/// the registry, diffs it against the previous tick, and prints QPS,
/// per-opcode interval latency, the stage breakdown as bars, the engine
/// lock-wait share, cache hit rates, and the RL boundary position.
fn cmd_top(flags: &Flags) -> CmdResult {
    let addr = flags.text(ADDR);
    let interval = Duration::from_millis(flags.num::<u64>(INTERVAL_MS)?.max(50));
    let iterations: u64 = flags.num(ITERATIONS)?;

    // The tree does not change while a server runs: name it once.
    let stats: Value = serde_json::from_str(&adcache_server::Client::connect(addr)?.stats()?)?;
    let tree = |key: &str| {
        let field = stats.get("engine").and_then(|e| e.get(key));
        field.and_then(Value::as_u64).unwrap_or(0)
    };
    println!(
        "{}",
        tree_geometry(
            tree("block_bytes"),
            tree("memtable_bytes"),
            tree("sstable_bytes"),
            tree("l1_bytes"),
        )
    );

    if let Some(memory) = stats.get("memory").cloned() {
        render_memory(
            &serde_json::from_value(memory)?,
            &mut std::io::stdout().lock(),
        )?;
    }

    let mut prev = fetch_metrics_value(addr)?;
    let mut prev_at = std::time::Instant::now();
    let mut tick = 0u64;
    loop {
        std::thread::sleep(interval);
        let cur = fetch_metrics_value(addr)?;
        let now = std::time::Instant::now();
        let secs = now.duration_since(prev_at).as_secs_f64().max(1e-9);
        tick += 1;
        let view = MetricsView {
            cur: &cur,
            prev: Some(&prev),
        };
        render_top_tick(&view, secs, tick, addr, &mut std::io::stdout().lock())?;
        prev = cur;
        prev_at = now;
        if iterations > 0 && tick >= iterations {
            return Ok(true);
        }
    }
}

/// The memory ledger, greppable: one `mem` line per row in bytes, then
/// the totals against the resident set. `top` prints it from `STATS` as
/// it starts, the shell's `stats` from the engine.
fn render_memory(m: &MemoryReport, out: Out) -> std::io::Result<()> {
    for r in &m.rows {
        writeln!(
            out,
            "mem {} charged {} real {} shared {}",
            r.name, r.charged, r.real, r.shared
        )?;
    }
    writeln!(
        out,
        "memory vm_rss {} attributed {} unattributed {}",
        m.vm_rss, m.attributed, m.unattributed
    )
}

/// One `adcache top` frame: everything derived from the delta between
/// two registry snapshots `secs` apart.
fn render_top_tick(
    m: &MetricsView,
    secs: f64,
    tick: u64,
    addr: &str,
    out: Out,
) -> std::io::Result<()> {
    let qps = m.counter("server.requests") as f64 / secs;
    writeln!(
        out,
        "\n== adcache top @ {addr} — tick {tick} — {qps:.0} ops/s =="
    )?;

    // Per-opcode interval mean (delta sum / delta count) plus cumulative
    // tail quantiles (quantiles are not delta-decomposable from the
    // summary export).
    for op in ["get", "put", "delete", "scan", "ping", "stats", "metrics"] {
        let latency = m.hist(&format!("server.latency.{op}"));
        if latency.count == 0 {
            continue;
        }
        writeln!(
            out,
            "  {op:<7} {:>8.0}/s  mean {:>8.1}us  p50 {:>8.1}us  p99 {:>8.1}us",
            latency.count as f64 / secs,
            latency.mean_us(),
            latency.p50 as f64 / 1e3,
            latency.p99 as f64 / 1e3,
        )?;
    }

    // Stage breakdown: interval share of the summed request lifetime,
    // rendered as bars. `recv` is shown but not part of the total.
    let (stages, _) = m.stages();
    writeln!(out, "  stage breakdown (interval):")?;
    for (label, hist, share) in &stages {
        let bar = "#".repeat((share * 30.0).round() as usize);
        writeln!(
            out,
            "    {label:<12} {:>6.1}% {:>9.1}us  {bar}",
            share * 100.0,
            hist.mean_us()
        )?;
    }
    let lock_wait = stages.iter().find(|s| s.0 == "lock_wait");
    let lock_waits: u64 = m.locks("engine").iter().map(|l| l.2).sum();
    writeln!(
        out,
        "  lock: {:.1}% of request time waiting; engine lock wait {:.1}ms/s",
        lock_wait.map_or(0.0, |s| s.2 * 100.0),
        lock_waits as f64 / secs / 1e6
    )?;

    // Hottest stripe over the interval (striped engines only): most
    // interval lock wait, with its queue gauges.
    let stripes = m.stripes();
    if let Some((hot, _, wait_ns, depth, backlog)) = stripes.iter().max_by_key(|s| s.2) {
        writeln!(
            out,
            "  hottest stripe: {hot}/{} with {:.2}ms/s lock wait, flush queue {depth}, \
             compaction backlog {backlog}",
            stripes.len(),
            *wait_ns as f64 / secs / 1e6,
        )?;
    }

    // Hottest tenant over the interval (multi-tenant serving only):
    // most cache traffic, with its interval hit rate.
    let tenant_ids = m.tenant_ids();
    let tenants = tenant_ids.iter().map(|id| (id, m.tenant(*id)));
    let hottest = tenants.max_by_key(|(_, t)| t.0 + t.1);
    let hottest = hottest.filter(|_| tenant_ids.len() > 1);
    if let Some((hot, (hits, misses, throttled))) = hottest {
        writeln!(
            out,
            "  hottest tenant: {hot}/{} with {:.0} lookups/s, {:.1}% hit{}",
            tenant_ids.len(),
            (hits + misses) as f64 / secs,
            percent(hits, hits + misses),
            if throttled > 0 {
                format!(", {throttled} throttled this tick")
            } else {
                String::new()
            },
        )?;
    }

    // Cache hit rates over the interval.
    for (label, prefix) in [
        ("block", "cache.block"),
        ("range", "cache.range"),
        ("kv", "cache.kv"),
    ] {
        let hits = m.counter(&format!("{prefix}.hits"));
        let misses = m.counter(&format!("{prefix}.misses"));
        // The range cache's coverage map: its size now, and what the
        // backstop forgot over the interval.
        let coverage = if label == "range" {
            format!(
                ", {} segments, {} coverage dropped",
                m.gauge("cache.range.segments"),
                m.counter("cache.range.coverage_dropped")
            )
        } else {
            String::new()
        };
        if hits + misses > 0 {
            writeln!(
                out,
                "  cache {label:<6} {:>6.2}% hit ({hits} hits / {misses} misses{coverage})",
                percent(hits, hits + misses)
            )?;
        }
    }

    // Where the controller has the block/range boundary right now.
    let block = m.gauge("core.boundary.block_bytes");
    let range = m.gauge("core.boundary.range_bytes");
    if block + range > 0 {
        writeln!(
            out,
            "  boundary: range {:.1}% / block {:.1}% of {} MiB",
            range as f64 * 100.0 / (block + range) as f64,
            block as f64 * 100.0 / (block + range) as f64,
            (block + range) >> 20,
        )?;
    }
    Ok(())
}

flags! {
    LOAD_OPS = "--ops" "N" "100000" "total operations (0: one ping)";
    CONNECTIONS = "--connections" "N" "8" "concurrent connections";
    MIX = "--mix" "point|scan|write|mixed" "mixed" "operation mix";
    LOAD_KEYS = "--keys" "N" "100000" "distinct keys";
    VALUE_SIZE = "--value-size" "N" "" "bytes per written value";
    LOAD_SEED = "--seed" "S" "" "base seed of the per-connection streams";
    QPS = "--qps" "Q" "" "open loop at Q ops/s overall (default: closed loop)";
    BATCH = "--batch" "N" "0" "ops per wire frame (0 or 1: singletons; max 1024)";
    ADVERSARY = "--adversary" "scan-flood|one-hit-wonder|key-churn|sketch-collision" "" "turn some connections hostile";
    ADVERSARY_FRAC = "--adversary-frac" "F" "0.5" "share of connections that attack";
    TENANTS = "--tenants" "N" "0" "authenticate connections as tenants 1..=N";
    SKEW = "--skew" "HOT:COLD" "1:1" "connection weight of tenant 1 vs each other tenant";
    SHUTDOWN = "--shutdown" "" "" "send the Shutdown opcode when done";
}
const LOADGEN: Command = Command {
    name: "loadgen",
    about: "network load generator (closed loop; --qps = open loop)",
    flags: &[
        ADDR,
        LOAD_OPS,
        CONNECTIONS,
        MIX,
        LOAD_KEYS,
        VALUE_SIZE,
        LOAD_SEED,
        QPS,
        BATCH,
        ADVERSARY,
        ADVERSARY_FRAC,
        TENANTS,
        SKEW,
        SHUTDOWN,
    ],
    run: cmd_loadgen,
};

fn loadgen_config(flags: &Flags) -> Result<adcache_server::LoadgenConfig, String> {
    let mut workload = WorkloadConfig {
        num_keys: flags.num(LOAD_KEYS)?,
        ..Default::default()
    };
    if flags.on(VALUE_SIZE) {
        workload.value_size = flags.num(VALUE_SIZE)?;
    }
    if flags.on(LOAD_SEED) {
        workload.seed = flags.num(LOAD_SEED)?;
    }
    let adversary = flags.given(ADVERSARY).and_then(AdversaryKind::parse);
    let attack_share: f64 = flags.num(ADVERSARY_FRAC)?;
    Ok(adcache_server::LoadgenConfig {
        addr: flags.text(ADDR).to_string(),
        connections: flags.num(CONNECTIONS)?,
        ops: flags.num(LOAD_OPS)?,
        mix: parse_mix(flags.text(MIX))?,
        target_qps: flags.given(QPS).map(|_| flags.num(QPS)).transpose()?,
        batch: flags.num(BATCH)?,
        adversary: adversary.map(|kind| {
            adcache_workload::AdversaryConfig::new(kind, workload.num_keys, workload.seed)
        }),
        // Half the connections attack when the share is left out (or 0).
        adversary_frac: match adversary {
            Some(_) if attack_share > 0.0 => attack_share,
            Some(_) => 0.5,
            None => 0.0,
        },
        tenants: flags.num(TENANTS)?,
        tenant_skew: parse_skew(flags.text(SKEW))?,
        workload,
    })
}

/// `adcache loadgen`: replay a generated workload against a running
/// server and report throughput + tail latency. Exits nonzero if any
/// reply was lost, misordered, or undecodable.
fn cmd_loadgen(flags: &Flags) -> CmdResult {
    let cfg = loadgen_config(flags)?;
    if let Some(attack) = &cfg.adversary {
        println!(
            "adversary: {} on {:.0}% of connections",
            attack.kind.name(),
            cfg.adversary_frac * 100.0
        );
    }
    let shutdown = flags.on(SHUTDOWN);

    let report = if cfg.ops > 0 {
        let report = adcache_server::loadgen::run(&cfg)?;
        println!(
            "{} connections, {} loop{}:",
            cfg.connections,
            if cfg.target_qps.is_some() {
                "open"
            } else {
                "closed"
            },
            if cfg.batch > 1 {
                format!(", batch {}", cfg.batch)
            } else {
                String::new()
            }
        );
        println!("{}", report.render());
        Some(report)
    } else {
        // `--ops 0` is a connectivity probe: one Ping round-trip.
        if !shutdown {
            let mut c = adcache_server::Client::connect(&cfg.addr)?;
            match c.call(&adcache_server::Request::Ping)? {
                adcache_server::Response::Ok => println!("pong from {}", cfg.addr),
                other => return Err(format!("ping answered {other:?}").into()),
            }
        }
        None
    };
    if shutdown {
        let mut c = adcache_server::Client::connect(&cfg.addr)?;
        c.shutdown_server()?;
        println!("server shutdown acknowledged");
    }
    let clean = report.is_none_or(|r| r.protocol_errors == 0);
    if !clean {
        eprintln!("loadgen: protocol errors detected");
    }
    Ok(clean)
}

/// What one A/B/C drill measured on the traffic that is not attacking:
/// before (A), during (B) and after (C) the attack.
struct DrillOutcome {
    /// The victims' hit rate in the all-legit baseline phase (A).
    base_hit: f64,
    /// Victim p99 in phase A, ns.
    base_p99: u64,
    /// Victim p99 while the attack runs (phase B), ns.
    attack_p99: u64,
    /// Hit rate after the attack (phase C): how much warm state it evicted.
    post_hit: f64,
    /// Quota rejections per cause that phase B's load saw.
    attack_errors: std::collections::BTreeMap<String, u64>,
    /// The drained server's counters.
    server: adcache_server::ServeReport,
}

impl DrillOutcome {
    /// Hit-rate loss the attack inflicted on legitimate traffic.
    fn hit_drop(&self) -> f64 {
        (self.base_hit - self.post_hit).max(0.0)
    }

    /// p99 inflation while under attack, as a ratio over `base` ns.
    ///
    /// The baseline is passed in rather than taken from `self` so the
    /// off/on rows of one attack can share a pooled baseline: the
    /// defenses do not touch idle-state latency, so the two base phases
    /// measure the same quantity twice, and dividing each attack p99 by
    /// its own noisy copy can flip the off/on comparison on baseline
    /// jitter alone.
    fn p99_inflation(&self, base: f64) -> f64 {
        self.attack_p99 as f64 / base.max(1.0)
    }
}

/// A fresh one-stripe in-memory served store for a drill, `keys` keys
/// loaded and flushed.
fn drill_db(
    keys: u64,
    defenses: impl FnOnce(&mut EngineConfig),
) -> Result<CachedDb, Box<dyn std::error::Error>> {
    let mut engine = EngineConfig::new(Strategy::AdCache, 256 << 10);
    engine.expected_keys = keys as usize;
    defenses(&mut engine);
    let db = CachedDb::served(engine, 1, None)?;
    // No controller runs inside a drill, so pin a small admission
    // threshold: frequency admission must actually gate the KV cache for
    // pollution attacks to have a defended surface.
    db.apply_decision(&adcache_core::CacheDecision {
        point_threshold: 0.0005,
        ..Default::default()
    });
    for k in 0..keys {
        db.load(render_key(k), Bytes::from(vec![0x5A; 100]))?;
    }
    db.db().flush()?;
    Ok(db)
}

/// The one A/B/C harness under `advcheck` and `tenantcheck`.
struct Drill {
    /// From [`drill_db`], with the engine-side defenses under test.
    db: CachedDb,
    keys: u64,
    seed: u64,
    /// The attack blended into phase B.
    kind: AdversaryKind,
    /// The server-side defenses under test (quotas); the rest is default.
    server: adcache_server::ServerConfig,
    /// The victims' p99 in one phase's load report, ns.
    victim_p99: fn(&adcache_server::LoadReport) -> u64,
    /// The victims' hits and misses so far.
    victim_hits: Box<dyn Fn(&CachedDb) -> Hits>,
}

impl Drill {
    /// Starts a server over the engine, warms it, then runs phase A (all
    /// legit), B (with the attack blended in) and C (all legit again).
    /// Every phase is open loop and shaped by `shape(cfg, attacking)` on
    /// top of a 70/10/0/20 mix over the loaded keys, so victim p99 numbers
    /// compare like for like across phases and token demand is
    /// deterministic (closed-loop rates float with RTT, which made quota
    /// pressure a coin flip). Fails unless the wire stayed frame-clean and
    /// the server closed every connection it accepted.
    fn run(
        self,
        shape: impl Fn(&mut adcache_server::LoadgenConfig, bool),
    ) -> Result<DrillOutcome, Box<dyn std::error::Error>> {
        self.db.set_obs(Obs::enabled());
        let db = Arc::new(self.db);
        let server_cfg = adcache_server::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..self.server
        };
        let server = adcache_server::Server::start(db.clone(), server_cfg)?;
        let attack =
            adcache_workload::AdversaryConfig::new(self.kind, self.keys, self.seed ^ 0xA11);
        let phase = |attacking: bool| {
            let mut cfg = adcache_server::LoadgenConfig {
                addr: server.local_addr().to_string(),
                mix: Mix::new(70.0, 10.0, 0.0, 20.0),
                workload: WorkloadConfig {
                    num_keys: self.keys,
                    value_size: 100,
                    seed: self.seed,
                    ..Default::default()
                },
                adversary: attacking.then(|| attack.clone()),
                ..Default::default()
            };
            shape(&mut cfg, attacking);
            adcache_server::loadgen::run(&cfg)
        };

        // Warm the caches so the phase-A baseline is a steady state.
        phase(false)?;
        let s0 = (self.victim_hits)(&db);
        let a = phase(false)?;
        let s1 = (self.victim_hits)(&db);
        let b = phase(true)?;
        let s2 = (self.victim_hits)(&db);
        let c = phase(false)?;
        let s3 = (self.victim_hits)(&db);

        let report = server.shutdown();
        if a.protocol_errors + b.protocol_errors + c.protocol_errors > 0 {
            return Err("protocol errors during drill — defenses must stay frame-clean".into());
        }
        if report.conns_accepted != report.conns_closed {
            return Err("drill server did not drain cleanly".into());
        }
        Ok(DrillOutcome {
            base_hit: drill_hit_rate(s0, s1),
            base_p99: (self.victim_p99)(&a),
            attack_p99: (self.victim_p99)(&b),
            post_hit: drill_hit_rate(s2, s3),
            attack_errors: b.errors_by_cause,
            server: report,
        })
    }
}

/// `(hits, misses)` of a drill's victims, as counted so far.
type Hits = (u64, u64);

/// Hit rate between two readings.
fn drill_hit_rate(before: Hits, after: Hits) -> f64 {
    let hits = after.0 - before.0;
    let total = hits + (after.1 - before.1);
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// The engine's result-cache hits and misses, over every client.
fn engine_hits(db: &CachedDb) -> Hits {
    let s = db.stats_report();
    (s.range_hits + s.kv_hits, s.cache_misses)
}

/// Runs a drill with its defenses off, then on, and pools the two
/// baseline p99s (see [`DrillOutcome::p99_inflation`]).
fn off_then_on(
    drill: impl Fn(bool) -> Result<DrillOutcome, Box<dyn std::error::Error>>,
) -> Result<(DrillOutcome, DrillOutcome, f64), Box<dyn std::error::Error>> {
    let (off, on) = (drill(false)?, drill(true)?);
    let base = (off.base_p99 + on.base_p99) as f64 / 2.0;
    Ok((off, on, base))
}

/// Runs one attack kind against a fresh in-process engine + server,
/// defenses (sketch guard, per-connection quota) on or off.
fn adv_drill(
    kind: AdversaryKind,
    defenses: bool,
    ops: u64,
    keys: u64,
    seed: u64,
) -> Result<DrillOutcome, Box<dyn std::error::Error>> {
    let drill = Drill {
        db: drill_db(keys, |e| e.sketch_guard = defenses)?,
        keys,
        seed,
        kind,
        server: adcache_server::ServerConfig {
            // 6000 tokens/s per connection: a legit client paced at 2000
            // ops/s (× avg cost ~2.4 under the 70/10/0/20 mix with
            // 16-entry short scans ≈ 4900) keeps ~20% headroom, while
            // write-churn rounds (avg cost ≥ 5), one-hit PUT storms
            // (~6.5), and 512-entry scan floods (257/op) overrun it and
            // get shed. The burst covers a full in-flight window of
            // legit ops (128 × ~2.4 ≈ 300) so a post-stall catch-up
            // burst is not misread as hostile.
            quota_ops: if defenses { 6_000 } else { 0 },
            quota_burst: if defenses { 400 } else { 0 },
            ..Default::default()
        },
        victim_p99: |report| report.legit_latency.quantile(0.99),
        victim_hits: Box::new(engine_hits),
    };
    // 2000 ops/s per connection. The blended phase adds 2 attack
    // connections paced the same but spending far more tokens per op —
    // and doubles total ops so the legit share stays constant.
    drill.run(|cfg, attacking| {
        cfg.connections = if attacking { 4 } else { 2 };
        cfg.ops = if attacking { ops * 2 } else { ops };
        cfg.target_qps = Some(if attacking { 8_000 } else { 4_000 });
        cfg.adversary_frac = if attacking { 0.5 } else { 0.0 };
    })
}

/// The sketch-guard sub-drill: drives a fixed-size attack stream straight
/// into a fresh engine (no server, no quota) and reports how many times
/// the anomaly guard reset the admission sketch — behind the wire, quota
/// shedding also starves the sketch of attack pressure, which is the
/// layering working. Deterministic: no network timing is involved, so the
/// resets column is reproducible.
fn adv_guard_drill(
    kind: AdversaryKind,
    keys: u64,
    seed: u64,
    defenses: bool,
) -> Result<u64, Box<dyn std::error::Error>> {
    let db = drill_db(keys, |e| e.sketch_guard = defenses)?;
    let cfg = adcache_workload::AdversaryConfig::new(kind, keys, seed ^ 0xA11);
    let plan = adcache_workload::AttackPlan::build(&cfg);
    let mut gen = adcache_workload::AdversaryGen::new(cfg, plan);
    for _ in 0..60_000u64 {
        let op = gen.next_op();
        let done = adcache_core::execute(&db, &op);
        // A failed read is part of the storm; a failed write is not.
        if matches!(op, Operation::Put { .. } | Operation::Delete { .. }) {
            done?;
        }
    }
    Ok(db.sketch_resets())
}

/// The controller-layer sub-drill: a reward-poisoning window (estimated
/// hit rate collapsing to zero) against the adversarial guard, on vs
/// off. Returns `(reward_on, reward_off, adversarial_windows_on)`.
fn adv_controller_drill() -> (f64, f64, u64) {
    let window = |io_miss| adcache_core::WindowSummary {
        points: 1000,
        io_miss,
        entries_per_block: 4.0,
        levels: 3,
        r0_max: 8,
        runs: 5,
        ..Default::default()
    };
    let run = |guarded: bool| {
        let mut c = Controller::new(ControllerConfig {
            hidden: 16,
            alpha: 0.5,
            adversarial_guard: guarded,
            ..Default::default()
        });
        c.set_obs(Obs::enabled());
        for _ in 0..5 {
            c.end_of_window(&window(100));
        }
        c.end_of_window(&window(1000));
        let reward = c.history().last().map(|r| r.reward).unwrap_or(0.0);
        (reward, c.adversarial_windows())
    };
    let (on, windows) = run(true);
    let (off, _) = run(false);
    (on, off, windows)
}

flags! {
    DRILL_OPS = "--ops" "N" "4000" "operations per phase";
    KIND = "--kind" "scan-flood|one-hit-wonder|key-churn|sketch-collision|all" "all" "the attack to run";
}
const ADVCHECK: Command = Command {
    name: "advcheck",
    about: "adversarial drills: attacks vs defenses, off/on",
    flags: &[DRILL_OPS, KEYS, SEED, KIND, ASSERT_DEFENSES],
    run: cmd_advcheck,
};

/// `adcache advcheck`: the adversarial-robustness drill. Every attack
/// kind runs against a fresh in-process engine + TCP server twice —
/// defenses off, then on — and the legit traffic's hit-rate loss and p99
/// inflation are shown side by side. `--assert-defenses` exits nonzero
/// unless, for every kind, the defenses engaged (quota rejections or
/// sketch resets, none with them off) and the hit-rate loss is no worse.
fn cmd_advcheck(flags: &Flags) -> CmdResult {
    let (ops, keys, seed) = (flags.num(DRILL_OPS)?, flags.num(KEYS)?, flags.num(SEED)?);
    let kinds = match AdversaryKind::parse(flags.text(KIND)) {
        Some(kind) => vec![kind],
        None => AdversaryKind::ALL.to_vec(),
    };
    println!(
        "advcheck: {} ops/phase over {} keys, seed {}\n\
         {:<17} {:>4}  {:>9} {:>9} {:>9} {:>9}  {:>10} {:>7}",
        ops,
        keys,
        seed,
        "attack",
        "def",
        "hit-drop",
        "base-p99",
        "atk-p99",
        "p99-infl",
        "quota-errs",
        "resets"
    );
    let mut all_bounded = true;
    for kind in kinds {
        let (off, on, base) = off_then_on(|defenses| adv_drill(kind, defenses, ops, keys, seed))?;
        let mut engaged = [false; 2];
        for (label, defenses, o) in [("off", false, &off), ("on", true, &on)] {
            let throttled = o.attack_errors.get("quota").copied().unwrap_or(0);
            let resets = adv_guard_drill(kind, keys, seed, defenses)?;
            engaged[defenses as usize] = throttled > 0 || resets > 0;
            println!(
                "{:<17} {:>4}  {:>8.1}pp {:>7.2}ms {:>7.2}ms {:>8.2}x  {:>10} {:>7}",
                kind.name(),
                label,
                o.hit_drop() * 100.0,
                o.base_p99 as f64 / 1e6,
                o.attack_p99 as f64 / 1e6,
                o.p99_inflation(base),
                throttled,
                resets
            );
        }
        // Decided on what repeats from run to run (the p99 columns do
        // not): the defenses engaged only when on, and the victims lost no
        // more hit rate. Hit-drop gets a 1pp allowance: both sides are
        // often near zero, and a guard re-salt deliberately erases legit
        // frequency state along with the attacker's, which costs a
        // transient fraction of a point while admission re-learns.
        let bounded = engaged == [false, true] && on.hit_drop() <= off.hit_drop() + 0.01;
        all_bounded &= bounded;
        println!(
            "{:<17} {:>4}  degradation bounded: {}",
            kind.name(),
            "=>",
            if bounded { "yes" } else { "NO" }
        );
    }

    let (reward_on, reward_off, windows) = adv_controller_drill();
    println!(
        "controller        reward poisoning: guarded {reward_on:+.3} vs raw {reward_off:+.3} \
         ({windows} adversarial windows flagged)"
    );
    let controller_ok = reward_on.abs() < reward_off.abs() && windows > 0;
    all_bounded &= controller_ok;

    if flags.on(ASSERT_DEFENSES) && !all_bounded {
        eprintln!("advcheck: defenses failed to bound degradation");
        return Ok(false);
    }
    Ok(true)
}

/// Merged quiet-tenant (id >= 2) latency p99 from a load report, ns.
fn quiet_p99(report: &adcache_server::LoadReport) -> u64 {
    let mut h = adcache_obs::Histogram::new();
    for (tenant, lat) in &report.latency_by_tenant {
        if *tenant >= 2 {
            h.merge(lat);
        }
    }
    h.quantile(0.99)
}

/// The quiet tenants' (ids 2 to `tenants`) result-cache hits and misses:
/// each tenant's own tally, not the engine's, which the noisy tenant's
/// reads move too.
fn quiet_hits(db: &CachedDb, tenants: u32) -> Hits {
    let obs = db.obs();
    let reg = obs.registry().expect("a drill's engine counts");
    let count = |id: u32, what: &str| reg.counter_value(&format!("cache.tenant.{id}.{what}"));
    (2..=tenants).fold((0, 0), |(h, m), id| {
        (h + count(id, "hits"), m + count(id, "misses"))
    })
}

/// Runs the noisy-neighbor drill against a fresh in-process engine +
/// server: 1 noisy tenant + `tenants - 1` quiet ones, each tenant two
/// connections, all over one shared cache. Defenses on = aggregated
/// per-tenant quotas; off = no tenant quota.
fn tenant_drill(
    defenses: bool,
    ops: u64,
    keys: u64,
    seed: u64,
    tenants: u32,
) -> Result<DrillOutcome, Box<dyn std::error::Error>> {
    let conns = 2 * tenants as usize;
    let drill = Drill {
        db: drill_db(keys, |_| {})?,
        keys,
        seed,
        kind: AdversaryKind::ScanFlood,
        server: adcache_server::ServerConfig {
            // Same sizing logic as the advcheck quota (see `adv_drill`):
            // each tenant runs 2 connections at 1000 ops/s, avg token
            // cost ~2.4 under the 70/10/0/20 mix ≈ 4900 tokens/s per
            // tenant, so 6000/s leaves legit headroom while scan floods
            // (257 tokens/op) overrun immediately. Aggregated per
            // tenant: both of a tenant's connections drain one bucket.
            tenant_quota_ops: if defenses { 6_000 } else { 0 },
            tenant_quota_burst: if defenses { 400 } else { 0 },
            ..Default::default()
        },
        victim_p99: quiet_p99,
        victim_hits: Box::new(move |db| quiet_hits(db, tenants)),
    };
    drill.run(|cfg, attacking| {
        cfg.connections = conns;
        cfg.ops = ops;
        cfg.target_qps = Some(1_000 * conns as u64);
        cfg.tenants = tenants;
        // With equal skew, tenant 1 owns exactly the first
        // `conns / tenants` connections — the same prefix the
        // adversary fraction claims, so the noisy tenant and the
        // attack connections coincide.
        cfg.adversary_frac = if attacking { 1.0 / tenants as f64 } else { 0.0 };
    })
}

flags! {
    TENANT_OPS = "--ops" "N" "16000" "operations per phase";
    DRILL_TENANTS = "--tenants" "N" "4" "1 noisy tenant + N-1 quiet ones (at least 2)";
}
const TENANTCHECK: Command = Command {
    name: "tenantcheck",
    about: "noisy-neighbor drill: tenant quotas off vs on",
    flags: &[TENANT_OPS, KEYS, SEED, DRILL_TENANTS, ASSERT_DEFENSES],
    run: cmd_tenantcheck,
};

/// `adcache tenantcheck`: the noisy-neighbor drill. One hot tenant
/// attacks while quiet tenants run a paced legit mix over the one shared
/// cache; the drill runs twice — tenant quotas off, then on — and compares the quiet
/// tenants' p99 inflation and post-attack hit-rate loss side by side.
/// `--assert-defenses` exits nonzero unless defenses-on bounds both axes
/// and actually throttled the neighbor.
fn cmd_tenantcheck(flags: &Flags) -> CmdResult {
    let (ops, keys, seed) = (flags.num(TENANT_OPS)?, flags.num(KEYS)?, flags.num(SEED)?);
    let tenants: u32 = flags.num(DRILL_TENANTS)?;
    if tenants < 2 {
        return Err("tenantcheck needs --tenants >= 2 (one noisy, one quiet)".into());
    }
    println!(
        "tenantcheck: 1 noisy + {} quiet tenants, {} ops/phase over {} keys, seed {}\n\
         {:<10} quiet tenants' result-cache hit rate\n\
         {:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        tenants - 1,
        ops,
        keys,
        seed,
        "",
        "defenses",
        "base-hit",
        "post-hit",
        "hit-drop",
        "base-p99",
        "noisy-p99",
        "p99-infl"
    );
    let (off, on, base) = off_then_on(|defenses| tenant_drill(defenses, ops, keys, seed, tenants))?;
    for (label, o) in [("off", &off), ("on", &on)] {
        println!(
            "{:<10} {:>8.1}% {:>8.1}% {:>8.1}pp {:>7.2}ms {:>7.2}ms {:>8.2}x",
            label,
            o.base_hit * 100.0,
            o.post_hit * 100.0,
            o.hit_drop() * 100.0,
            o.base_p99 as f64 / 1e6,
            o.attack_p99 as f64 / 1e6,
            o.p99_inflation(base)
        );
    }
    let throttled = on.server.tenant_throttled;
    println!("defended: neighbor throttled {throttled} times");

    // Bounded means: the quiet tenants' p99 inflation is strictly lower
    // with defenses on, the hit-rate loss is no worse (1pp allowance —
    // both sides are often near zero), and the quota actually fired at
    // the neighbor.
    let bounded = on.p99_inflation(base) < off.p99_inflation(base)
        && on.hit_drop() <= off.hit_drop() + 0.01
        && throttled > 0;
    println!(
        "tenantcheck: quiet-tenant degradation bounded: {}",
        if bounded { "yes" } else { "NO" }
    );
    if flags.on(ASSERT_DEFENSES) && !bounded {
        eprintln!("tenantcheck: defenses failed to bound the noisy neighbor");
        return Ok(false);
    }
    Ok(true)
}

/// Outcome counters for [`cmd_faultcheck`].
#[derive(Default)]
struct FaultCheckReport {
    crashes_fired: u64,
    faults_injected: u64,
    unsynced_files_dropped: u64,
    lost_acked_writes: u64,
    incoherent_reads: u64,
    failed_opens: u64,
    unstable_reopens: u64,
    orphan_leftovers: u64,
    id_collisions: u64,
    nonfinite_updates: u64,
}

impl FaultCheckReport {
    /// Whether every guarantee held.
    fn ok(&self) -> bool {
        self.lost_acked_writes == 0
            && self.incoherent_reads == 0
            && self.failed_opens == 0
            && self.unstable_reopens == 0
            && self.orphan_leftovers == 0
            && self.id_collisions == 0
            && self.nonfinite_updates == 0
    }
}

/// One crash-recover-verify cycle, entirely in memory: a durable
/// [`adcache_lsm::StripedDb`] whose WAL, manifest and SSTables (through
/// fault-injecting [`adcache_lsm::FileStorage`]) all live on one simulated
/// filesystem takes writes under a fault storm with one armed crash point;
/// the process "crashes" — the engine drops AND one power cut tears every
/// completed-but-unsynced write out of that filesystem — then the store
/// reopens on fresh handles. One [`adcache_lsm::history::History`] judges every read:
/// the storm's against the store before the crash, the recovered gets and
/// one full scan against what the configured sync policy promised.
///
/// `stripes` decides who runs maintenance. At 1 the store is the plain
/// single-tree engine (same directory layout): the writer that seals runs
/// the flush and compactions on its own stack, so that is where the armed
/// point fires. Above 1 a worker pool runs them, and a point that fires
/// *inside a background job* poisons its stripe — a process kill the
/// foreground cannot observe.
fn faultcheck_cycle(
    cycle: u64,
    seed: u64,
    sync: adcache_lsm::SyncPolicy,
    misplace: Option<adcache_lsm::FsyncSite>,
    stripes: usize,
    report: &mut FaultCheckReport,
) -> Result<(), Box<dyn std::error::Error>> {
    use adcache_lsm::history::History;
    use adcache_lsm::{
        CrashController, CrashPoint, DirectProvider, FaultPlan, FaultStorage, SimFs, Storage,
        StripedDb,
    };

    let cseed = splitmix64(seed ^ cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let fs = Arc::new(SimFs::new());
    let tables = || FileStorage::with_fs("/faultcheck/sst", fs.clone()).map(Arc::new);
    let storage = Arc::new(FaultStorage::new(tables()?, cseed, FaultPlan::none()));
    let crash = CrashController::new();
    // Tiny memtable + padded values so one cycle crosses several flush and
    // compaction seams — that is where the crash points live.
    let mut opts = Options::small();
    opts.memtable_size = 2 << 10;
    opts.sync = sync;
    opts.misplaced_fsync = misplace;
    opts.stripes = stripes;
    opts.background_maintenance = stripes > 1;
    let meta_dir = std::path::PathBuf::from("/faultcheck/meta");
    let key_space = 64u64;
    let kb = |k: u64| Bytes::from(format!("k{k:04}"));
    let pad = "x".repeat(48);
    let mut history = History::default();
    let mut rng = cseed | 1;
    let mut next = move || {
        rng = splitmix64(rng);
        rng
    };
    {
        let db =
            StripedDb::with_durability_fs(opts.clone(), storage.clone(), &meta_dir, fs.clone())?;
        db.set_crash_controller(crash.clone());
        // With nothing left in any memtable, every write so far was flushed:
        // a flush drops its memtable only once its table is synced, and keeps
        // the WAL segment that covers it until the manifest naming the table
        // commits. Under `on_flush` that is the promise, whoever ran the flush
        // — the writer that sealed, a pool worker or an explicit `flush()` —
        // and even when the op that ran it failed afterwards, in a compaction.
        let raise_floor = |history: &mut History| {
            if db.memtable_len() == 0 {
                history.raise_floor();
            }
        };
        // A put of `v`, or a delete when `None`.
        let write = |history: &mut History, k: u64, v: Option<Bytes>| {
            let _ = match v {
                Some(v) => history.put(kb(k), v, |k, v| db.put(k, v)),
                None => history.delete(kb(k), |k| db.delete(k)),
            };
            raise_floor(history);
        };
        let flush = |history: &mut History| {
            let _ = db.flush();
            raise_floor(history);
        };
        // Baseline data lands cleanly so the faulted phase reads and
        // compacts real tables.
        for k in 0..key_space {
            let v = Bytes::from(format!("base-{cycle}-{k}-{pad}"));
            write(&mut history, k, Some(v));
        }
        flush(&mut history);

        // Storm on, and in two cycles of three one crash point armed. The
        // third runs all its ops and the power cut lands wherever they
        // leave the store, often while a table's deletion or a manifest's
        // rename is still an unsynced directory entry.
        storage.set_plan(FaultPlan::storm());
        let points = CrashPoint::all();
        if next() % 3 != 0 {
            crash.arm(
                points[(next() % points.len() as u64) as usize],
                next() % 3 + 1,
            );
        }
        for i in 0..300u64 {
            let k = next() % key_space;
            match next() % 100 {
                0..=54 => {
                    let v = Bytes::from(format!("c{cycle}-i{i}-{pad}"));
                    write(&mut history, k, Some(v));
                }
                55..=64 => write(&mut history, k, None),
                65..=69 => flush(&mut history),
                70..=74 => {
                    let _ = db.maybe_compact_once();
                }
                75..=79 => {
                    let _ = history.scan(kb(k), 8, |k, n| db.scan(k, n, &DirectProvider));
                }
                _ => {
                    let _ = history.get(kb(k), |k| db.get(k, &DirectProvider));
                }
            }
            if crash.fired() {
                break;
            }
        }
        // Give in-flight background jobs a moment to hit the armed point.
        if opts.background_maintenance && !crash.fired() {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        if crash.fired() {
            report.crashes_fired += 1;
        }
        report.faults_injected += storage.fault_stats().total();
        // The engine drops here (joining the worker pool, if any): the
        // "process" is fully dead before the power is cut below.
    }
    // The storm's reads, judged with every acked write certain.
    for v in history.crash(sync) {
        report.incoherent_reads += 1;
        eprintln!("cycle {cycle}: storm {}", v.what);
    }

    // The power cut tears every completed-but-unsynced write out of the
    // filesystem: SST and WAL bytes, manifests and directory entries.
    drop(storage);
    report.unsynced_files_dropped += fs.crash(splitmix64(cseed ^ 0x5A5A)).files;

    // Recovery runs on a fresh, quiet device, with background maintenance
    // off: recovery is identical (the option only affects the write path)
    // and the verification reads are deterministic.
    let mut verify_opts = opts.clone();
    verify_opts.background_maintenance = false;
    let storage = tables()?;
    let reopen = || {
        StripedDb::with_durability_fs(verify_opts.clone(), storage.clone(), &meta_dir, fs.clone())
    };
    let db = match reopen() {
        Ok(db) => db,
        Err(e) => {
            report.failed_opens += 1;
            eprintln!("cycle {cycle}: reopen failed: {e}");
            return Ok(());
        }
    };
    let mut state = Vec::with_capacity(key_space as usize);
    for k in 0..key_space {
        state.push(history.get(kb(k), |k| db.get(k, &DirectProvider))?);
    }
    let all = key_space as usize + 1;
    history.scan(Bytes::new(), all, |k, n| db.scan(k, n, &DirectProvider))?;
    let mut lost = std::collections::BTreeSet::new();
    for v in history.check() {
        eprintln!("cycle {cycle}: {}, under sync={}", v.what, sync.name());
        lost.insert(v.key);
    }
    report.lost_acked_writes += lost.len() as u64;
    // The recovery sweep (every stripe's, jointly) must leave no table on
    // the device that the recovered version does not reference.
    let live: usize = db.level_summary().iter().map(|(_, files, _)| files).sum();
    let on_device = storage.list_tables()?.len();
    if on_device > live {
        report.orphan_leftovers += (on_device - live) as u64;
        eprintln!("cycle {cycle}: {on_device} tables on device, only {live} referenced");
    }
    drop(db);

    // Recovery must be idempotent: a second reopen (same quiet device)
    // yields the identical state — nothing is applied twice or re-lost.
    let db = match reopen() {
        Ok(db) => db,
        Err(e) => {
            report.failed_opens += 1;
            eprintln!("cycle {cycle}: second reopen failed: {e}");
            return Ok(());
        }
    };
    for k in 0..key_space {
        if db.get(&kb(k), &DirectProvider)? != state[k as usize] {
            report.unstable_reopens += 1;
            eprintln!("cycle {cycle}: key k{k:04} changed between reopens");
        }
    }
    // The recovered store must still be writable on every stripe: fresh
    // keys flushed to new tables. A file-id collision with a leftover
    // orphan (the bug the recovery sweep exists to prevent) surfaces here
    // as a write error.
    for j in 0..key_space {
        let v = Bytes::from(format!("post-{cycle}-{j}-{pad}"));
        if db.put(Bytes::from(format!("z{j:04}")), v).is_err() {
            report.id_collisions += 1;
        }
    }
    if db.flush().is_err() {
        report.id_collisions += 1;
        eprintln!("cycle {cycle}: post-recovery flush failed (file-id collision?)");
    }
    drop(db);
    Ok(())
}
flags! {
    CYCLES = "--cycles" "N" "50" "crash-recover-verify cycles";
    FAULT_SEED = "--seed" "S" "42" "every cycle is a function of the seed";
    SYNC = "--sync" "always|on_flush|never" "always" "WAL sync policy under test";
    MISPLACE = "--misplace" "wal_append|wal_reset|manifest_dir|sst_dir" "" "leave this one fsync out: the drill must then fail";
    FAULT_STRIPES = "--stripes" "N>=1" "1" "1: maintenance inline on the writer; more: a worker pool";
}
const FAULTCHECK: Command = Command {
    name: "faultcheck",
    about: "seeded crash-recover-verify fault drills",
    flags: &[CYCLES, FAULT_SEED, SYNC, MISPLACE, FAULT_STRIPES],
    run: |flags| {
        let sync = adcache_lsm::SyncPolicy::parse(flags.text(SYNC));
        let misplace = flags.given(MISPLACE);
        cmd_faultcheck(
            flags.num(CYCLES)?,
            flags.num(FAULT_SEED)?,
            sync.ok_or("--sync: unknown policy")?,
            misplace.and_then(adcache_lsm::FsyncSite::parse),
            flags.num(FAULT_STRIPES)?,
        )
    },
};

/// `adcache faultcheck` — runs N seeded crash-recover-verify cycles plus
/// an RL storm drill; exits nonzero on any violated guarantee.
fn cmd_faultcheck(
    cycles: u64,
    seed: u64,
    sync: adcache_lsm::SyncPolicy,
    misplace: Option<adcache_lsm::FsyncSite>,
    stripes: usize,
) -> Result<bool, Box<dyn std::error::Error>> {
    use adcache_core::{prepare_db_with_storage, run_schedule_on, RunConfig};
    use adcache_lsm::{FaultPlan, FaultStorage};
    use adcache_workload::{Phase, Schedule};

    let mut report = FaultCheckReport::default();
    for cycle in 0..cycles {
        faultcheck_cycle(cycle, seed, sync, misplace, stripes, &mut report)?;
    }

    // RL guarantee: a full engine + controller run under a fault storm
    // keeps training finite (failed reads become misses, never NaN).
    let mut cfg = RunConfig::new(
        Strategy::AdCache,
        128 << 10,
        WorkloadConfig {
            num_keys: 3000,
            value_size: 64,
            seed,
            ..Default::default()
        },
    );
    cfg.controller.window = 200;
    cfg.controller.hidden = 16;
    cfg.controller.seed = seed;
    cfg.continue_on_error = true;
    let faulty = Arc::new(FaultStorage::new(
        Arc::new(MemStorage::new()),
        seed,
        FaultPlan::none(),
    ));
    let db = prepare_db_with_storage(&cfg, faulty.clone())?;
    faulty.set_plan(FaultPlan::storm());
    let schedule = Schedule {
        phases: vec![Phase {
            name: "storm".into(),
            mix: Mix::new(40.0, 25.0, 15.0, 20.0),
            ops: 4000,
        }],
    };
    let run = run_schedule_on(&cfg, &schedule, &db)?;
    report.nonfinite_updates = run.nonfinite_repairs;
    let storm_errors = run.op_errors;
    if !run.overall_hit_rate.is_finite() || !run.overall_qps.is_finite() {
        report.nonfinite_updates += 1;
    }

    println!(
        "faultcheck: {cycles} cycles (seed {seed}, sync {}{}, stripes {stripes}), {} crash points fired, {} faults injected",
        sync.name(),
        misplace.map_or(String::new(), |m| format!(", misplaced fsync at {}", m.label())),
        report.crashes_fired,
        report.faults_injected
    );
    println!(
        "  crash model: {} unsynced files dropped",
        report.unsynced_files_dropped
    );
    println!(
        "  storage:  {} lost acked writes, {} failed opens, {} unstable reopens, {} incoherent reads",
        report.lost_acked_writes,
        report.failed_opens,
        report.unstable_reopens,
        report.incoherent_reads
    );
    println!(
        "  sweep:    {} orphan tables left behind, {} post-recovery id collisions",
        report.orphan_leftovers, report.id_collisions
    );
    println!(
        "  rl storm: {} op errors absorbed, {} non-finite controller updates",
        storm_errors, report.nonfinite_updates
    );
    let ok = report.ok();
    println!("{}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}
fn handle(shell: &Shell, line: &str) -> Result<bool, Box<dyn std::error::Error>> {
    let db = &shell.db;
    let parts: Vec<&str> = line.split_whitespace().collect();
    match parts.as_slice() {
        [] => {}
        ["quit" | "exit"] => return Ok(false),
        ["help"] => print_help(),
        ["put", key, value] => {
            let (key, value) = (key.as_bytes(), value.as_bytes());
            shell.exec(|db| db.put(Bytes::copy_from_slice(key), Bytes::copy_from_slice(value)))?;
            println!("ok");
        }
        ["get", key] => match shell.exec(|db| db.get(key.as_bytes()))? {
            Some(v) => println!("{}", String::from_utf8_lossy(&v)),
            None => println!("(not found)"),
        },
        ["del", key] => {
            shell.exec(|db| db.delete(Bytes::copy_from_slice(key.as_bytes())))?;
            println!("ok");
        }
        ["scan", key, n] => {
            let n: usize = n.parse()?;
            for (k, v) in shell.exec(|db| db.scan(key.as_bytes(), n))? {
                println!(
                    "{} = {}",
                    String::from_utf8_lossy(&k),
                    String::from_utf8_lossy(&v)
                );
            }
        }
        ["fill", n] => {
            let n: u64 = n.parse()?;
            for i in 0..n {
                db.put(render_key(i), Bytes::from(format!("value-{i}")))?;
            }
            println!("loaded {n} keys (user000... series)");
        }
        ["bench", n, mix] => cmd_bench(shell, n.parse()?, mix)?,
        ["stats"] => cmd_stats(db),
        ["tune"] => {
            if db.strategy() == Strategy::AdCache {
                let s = db.snapshot();
                println!(
                    "strategy adcache; observed so far: {} gets / {} scans / {} writes",
                    s.points, s.scans, s.writes
                );
                if let (Some(bc), Some(rc)) = (db.block_cache(), db.range_cache()) {
                    let total = (bc.capacity() + rc.capacity()).max(1);
                    println!(
                        "boundary: {:.0}% block / {:.0}% range",
                        bc.capacity() as f64 * 100.0 / total as f64,
                        rc.capacity() as f64 * 100.0 / total as f64
                    );
                }
                if let Some((d, tuned)) = shell.tuner.latest() {
                    println!(
                        "latest decision: range_ratio {:.2}, point threshold {:.4}, a {}, b {:.2} ({tuned} windows tuned)",
                        d.range_ratio,
                        d.point_threshold,
                        d.scan_a,
                        d.scan_b,
                    );
                }
            } else {
                println!("strategy {} has no tunable boundary", db.strategy().name());
            }
        }
        ["flush"] => {
            db.db().flush()?;
            println!("flushed");
        }
        _ => println!("unrecognized command (try help)"),
    }
    Ok(true)
}

/// The interactive shell: a REPL over one engine until `quit` or EOF.
fn cmd_shell(flags: &Flags) -> CmdResult {
    let cfg = CliConfig::from_flags(flags, flags.num(SHELL_STRIPES)?)?;
    let db = build_db(&cfg)?;
    let shell = Shell::new(db, start_obs(cfg.trace.is_some(), &cfg));
    println!("{}\ntype 'help' for commands", shell.tuning);
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("adcache> ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => match handle(&shell, line.trim()) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => println!("error: {e}"),
            },
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
    }
    if let Some(dir) = &cfg.trace {
        match shell.obs.dump_to_dir(dir) {
            Ok(true) => println!(
                "trace written to {} (summarize with: adcache trace {})",
                dir.display(),
                dir.display()
            ),
            Ok(false) => {}
            Err(e) => eprintln!("error writing trace: {e}"),
        }
    }
    println!("bye");
    Ok(true)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let subcommand = argv
        .get(1)
        .and_then(|word| COMMANDS.iter().find(|c| c.name == word));
    let code = match subcommand {
        Some(command) => command.dispatch(&argv[2..]),
        None => SHELL.dispatch(&argv[1..]),
    };
    if code != 0 {
        std::process::exit(code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_shell(strategy: Strategy) -> Shell {
        mem_shell_obs(strategy, Obs::disabled())
    }

    fn mem_shell_obs(strategy: Strategy, obs: Obs) -> Shell {
        let db = CachedDb::new(
            Options::small(),
            Arc::new(MemStorage::new()),
            EngineConfig::new(strategy, 1 << 20),
        )
        .unwrap();
        Shell::new(db, obs)
    }

    /// The flags every command took when its eight hand-rolled parsers
    /// became flag tables (and the one positional, `trace`'s), less
    /// `serve --no-sketch-guard`, which nothing passed.
    const FLAGS_BEFORE: [(&Command, &str); 9] = [
        (&SHELL, "--dir --cache-mb --strategy --trace --stripes --mem"),
        (&TRACE, "DIR"),
        (
            &SERVE,
            "--addr --cache-mb --strategy --dir --workers --max-conns --idle-timeout-secs --fill \
             --trace --no-telemetry --snapshot-ms --slow-us --quota-ops --quota-burst \
             --tenant-quota-ops --tenant-quota-burst --stripes",
        ),
        (
            &LOADGEN,
            "--addr --ops --connections --mix --keys --value-size --seed --qps --batch --adversary \
             --adversary-frac --tenants --skew --shutdown",
        ),
        (&METRICS, "--addr --format --summary"),
        (&TOP, "--addr --interval-ms --iterations"),
        (&FAULTCHECK, "--cycles --seed --sync --misplace --stripes"),
        (&ADVCHECK, "--ops --keys --seed --kind --assert-defenses"),
        (&TENANTCHECK, "--ops --keys --seed --tenants --assert-defenses"),
    ];

    #[test]
    fn every_command_takes_the_flags_it_took_before() {
        let words = |line: &str| -> Vec<String> { line.split(' ').map(String::from).collect() };
        for (command, before) in FLAGS_BEFORE {
            let table: Vec<&str> = command.flags.iter().map(|flag| flag.0).collect();
            assert_eq!(
                table.join(" "),
                before,
                "flags of `adcache {}`",
                command.name
            );
            // A command line that satisfies the positional, if there is one.
            let base = if command.name == "trace" {
                "some/dir "
            } else {
                ""
            };
            let refused = |line: &str| {
                let parsed = Flags::parse(command, &words(&format!("{base}{line}")));
                parsed.err().expect("a usage error")
            };
            assert_eq!(refused("--bogus 1"), "unknown flag --bogus");
            assert!(Flags::parse(command, &words("--help")).unwrap().is_none());
            for &flag in command.flags.iter().filter(|flag| flag.0.starts_with('-')) {
                let (name, placeholder, ..) = flag;
                let sample = match placeholder {
                    "" => "",
                    "N" | "S" | "Q" | "N>=1" => "7",
                    "F" => "0.25",
                    words => words.split('|').next().unwrap(),
                };
                let line = format!("{base}{name} {sample}");
                let parsed = Flags::parse(command, &words(line.trim_end()))
                    .unwrap()
                    .unwrap();
                assert_eq!(parsed.given(flag), Some(sample), "{name} round-trips");
                if placeholder.is_empty() {
                    continue;
                }
                assert_eq!(refused(name), format!("{name} needs a value"));
                if sample != placeholder {
                    let complaint = refused(&format!("{name} seven"));
                    assert!(
                        complaint.starts_with(&format!("{name} needs ")),
                        "{complaint}"
                    );
                }
            }
        }
        let missing = Flags::parse(&TRACE, &[]).err().unwrap();
        assert_eq!(missing, "DIR is missing");
    }

    #[test]
    fn flags_read_back_typed_with_their_defaults() {
        let parse = |command, line: &str| {
            let words: Vec<String> = line.split(' ').map(String::from).collect();
            Flags::parse(command, &words).unwrap().unwrap()
        };
        let flags = parse(&SERVE, "--cache-mb 9 --strategy kv-cache");
        assert_eq!(flags.num::<u64>(SLOW_US), Ok(10_000));
        assert_eq!(flags.text(LISTEN), "127.0.0.1:4400");
        assert!(flags
            .num::<u8>(MAX_CONNS)
            .unwrap_err()
            .contains("--max-conns 1024"));
        let store = CliConfig::from_flags(&flags, 3).unwrap();
        assert_eq!((store.cache_mb, store.stripes), (9, 3));
        assert_eq!(store.strategy, Strategy::KvCache);
        assert!(store.dir.is_none() && store.trace.is_none());
        // `--dir` and `--mem` undo each other; the later one stands.
        let store = |line| CliConfig::from_flags(&parse(&SHELL, line), 1).unwrap();
        assert_eq!(store("--mem --dir /d --trace /t").dir, Some("/d".into()));
        assert_eq!(store("--mem --dir /d --trace /t").trace, Some("/t".into()));
        assert_eq!(store("--dir /d --mem").dir, None);
        let zero = Flags::parse(&SHELL, &["--stripes".into(), "0".into()]);
        assert_eq!(zero.err().unwrap(), "--stripes needs a number >= 1, got 0");
        // The tables' defaults are the libraries'; each value lands in its field.
        let debug = |config: &dyn std::fmt::Debug| format!("{config:?}");
        let server = server_config(&parse(&SERVE, "--fill 0")).unwrap();
        assert_eq!(
            debug(&server),
            debug(&adcache_server::ServerConfig::default())
        );
        let mut load = adcache_server::LoadgenConfig::default();
        load.workload.num_keys = 100_000;
        assert_eq!(
            debug(&loadgen_config(&parse(&LOADGEN, "--ops 100000")).unwrap()),
            debug(&load)
        );
        let quotas =
            "--quota-ops 19 --quota-burst 23 --tenant-quota-ops 29 --tenant-quota-burst 31";
        let server = server_config(&parse(&SERVE, quotas)).unwrap();
        let tenant_quota = (server.tenant_quota_ops, server.tenant_quota_burst);
        assert_eq!(
            (server.quota_ops, server.quota_burst, tenant_quota),
            (19, 23, (29, 31))
        );
        let line = "--keys 7 --value-size 8 --seed 9 --qps 10 --adversary key-churn --skew 8:1";
        let load = loadgen_config(&parse(&LOADGEN, line)).unwrap();
        let workload = &load.workload;
        assert_eq!(
            (workload.num_keys, workload.value_size, workload.seed),
            (7, 8, 9)
        );
        assert_eq!(
            (load.target_qps, load.adversary_frac, load.tenant_skew),
            (Some(10), 0.5, (8, 1))
        );
        assert_eq!(
            load.adversary.map(|attack| attack.kind),
            Some(AdversaryKind::KeyChurn)
        );
        // Help is the table: every flag with its default, and README quotes it.
        let readme = include_str!("../../../README.md");
        for c in [&SHELL].iter().chain(&COMMANDS) {
            let block = format!("  {}\n      {}\n", c.synopsis(), c.about);
            assert!(readme.contains(&block), "README lacks: {block}");
        }
        assert!(SERVE
            .synopsis()
            .ends_with("[--tenant-quota-burst N] [--stripes N>=1]"));
        assert!(SERVE
            .flag_help()
            .contains("--max-conns N\n        concurrent-connection ceiling (default 1024)\n"));
    }

    /// The drills attack the tree a server runs: one in-memory stripe of
    /// the served preset, not the unit tests' 512 B blocks.
    #[test]
    fn drills_run_the_served_tree() {
        let engine = EngineConfig::new(Strategy::AdCache, 256 << 10);
        let served = CachedDb::served(engine, 1, None).unwrap();
        let drill = drill_db(10, |_| {}).unwrap();
        assert_eq!(drill.db().options(), served.db().options());
        assert_eq!(drill.db().options().block_size, 4096);
    }

    /// A table's `a|b|c` placeholder admits exactly the words the library
    /// behind the flag parses.
    #[test]
    fn the_words_a_table_admits_are_the_words_the_library_knows() {
        let words = |flag: Flag| -> Vec<&str> { flag.1.split('|').collect() };
        let strategies: Vec<&str> = Strategy::all().iter().map(|s| s.name()).collect();
        assert_eq!(words(STRATEGY), strategies);
        let kinds: Vec<&str> = AdversaryKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(words(ADVERSARY), kinds);
        assert_eq!(words(KIND), [kinds, vec!["all"]].concat());
        let policies: Vec<&str> = adcache_lsm::SyncPolicy::all().map(|p| p.name()).to_vec();
        assert_eq!(words(SYNC), policies);
        let site = |word: &str| adcache_lsm::FsyncSite::parse(word).map(|site| site.label());
        assert!(words(MISPLACE)
            .into_iter()
            .all(|word| site(word) == Some(word)));
        assert!(words(MIX).into_iter().all(|mix| parse_mix(mix).is_ok()));
    }

    #[test]
    fn handle_put_get_scan_del() {
        let shell = mem_shell(Strategy::AdCache);
        assert!(handle(&shell, "put alpha one").unwrap());
        assert!(handle(&shell, "put beta two").unwrap());
        assert!(handle(&shell, "get alpha").unwrap());
        assert!(handle(&shell, "scan alpha 2").unwrap());
        assert!(handle(&shell, "del alpha").unwrap());
        assert!(handle(&shell, "stats").unwrap());
        assert!(handle(&shell, "tune").unwrap());
        assert!(handle(&shell, "flush").unwrap());
        assert!(handle(&shell, "").unwrap());
        assert!(handle(&shell, "nonsense command").unwrap());
        assert!(!handle(&shell, "quit").unwrap());
        // Engine state reflects the commands.
        assert!(shell.db.get(b"alpha").unwrap().is_none());
        assert_eq!(shell.db.get(b"beta").unwrap().unwrap().as_ref(), b"two");
    }

    #[test]
    fn a_thousand_dels_cross_exactly_one_window() {
        let shell = mem_shell(Strategy::AdCache);
        for i in 0..999 {
            assert!(handle(&shell, &format!("del key{i}")).unwrap());
        }
        let tuned = || shell.tuner.latest().unwrap().1;
        assert_eq!(tuned(), 0, "999 operations close no window");
        assert!(handle(&shell, "del key999").unwrap());
        let controller = shell.tuner.shutdown().expect("adcache is tuned");
        assert_eq!(controller.history().len(), 1);
    }

    #[test]
    fn handle_fill_and_bench_drive_the_tuner() {
        let shell = mem_shell(Strategy::AdCache);
        assert!(handle(&shell, "fill 3000").unwrap());
        assert!(handle(&shell, "bench 2500 mixed").unwrap());
        // Bad mix errors but the shell keeps going.
        assert!(handle(&shell, "bench 10 bogus").is_err());
        assert!(handle(&shell, "get user00000000000000000001").unwrap());
        // Two windows crossed -> the tuner trained on both summaries.
        assert_eq!(shell.tuner.shutdown().unwrap().history().len(), 2);
    }

    #[test]
    fn traced_shell_dumps_and_trace_subcommand_parses_it() {
        let shell = mem_shell_obs(Strategy::AdCache, Obs::enabled());
        assert!(handle(&shell, "fill 2000").unwrap());
        assert!(handle(&shell, "bench 2500 mixed").unwrap());
        let dir = std::env::temp_dir().join(format!("adcache-cli-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(shell.obs.dump_to_dir(&dir).unwrap());
        // The summarizer must parse its own dump end to end, and tell the
        // run's admission decisions by reason.
        let mut rendered = Vec::new();
        render_trace(&dir, &mut rendered).unwrap();
        let rendered = String::from_utf8(rendered).unwrap();
        assert!(rendered.contains("  frequency_at_threshold "), "{rendered}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs `cycles` drill cycles and returns the accumulated report.
    fn drill(
        cycles: u64,
        seed: u64,
        sync: adcache_lsm::SyncPolicy,
        misplace: Option<adcache_lsm::FsyncSite>,
        stripes: usize,
    ) -> FaultCheckReport {
        let mut report = FaultCheckReport::default();
        for cycle in 0..cycles {
            faultcheck_cycle(cycle, seed, sync, misplace, stripes, &mut report).unwrap();
        }
        report
    }

    fn assert_guarantees_hold(report: &FaultCheckReport, what: &str) {
        assert!(
            report.ok(),
            "guarantees violated ({what}): {} lost acked, {} incoherent, {} failed opens, \
             {} unstable, {} orphans, {} collisions",
            report.lost_acked_writes,
            report.incoherent_reads,
            report.failed_opens,
            report.unstable_reopens,
            report.orphan_leftovers,
            report.id_collisions,
        );
    }

    #[test]
    fn faultcheck_cycles_hold_guarantees_under_every_sync_policy() {
        for sync in adcache_lsm::SyncPolicy::all() {
            let report = drill(6, 7, sync, None, 1);
            assert_guarantees_hold(&report, sync.name());
            assert!(report.faults_injected > 0, "the storm plan must bite");
            assert!(report.crashes_fired > 0, "crash points must fire");
        }
    }

    #[test]
    fn striped_faultcheck_holds_guarantees_with_background_crash_points() {
        // Above one stripe the drill runs with background maintenance on,
        // so the armed crash point fires inside a pool worker (poisoning
        // that stripe) rather than on the writer's own stack.
        for sync in adcache_lsm::SyncPolicy::all() {
            let report = drill(6, 7, sync, None, 8);
            assert_guarantees_hold(&report, sync.name());
            assert!(report.faults_injected > 0, "the storm plan must bite");
            assert!(report.crashes_fired > 0, "crash points must fire");
        }
    }

    #[test]
    fn on_flush_floor_rises_only_when_nothing_is_buffered() {
        // CI's `on_flush x stripes 1` cells: the flushes a sealing writer
        // runs raise the durability floor whenever they leave no memtable
        // behind, even when a compaction then fails the write — but never
        // past a write still buffered, which no flush has promised yet.
        for seed in [42, 7] {
            let report = drill(40, seed, adcache_lsm::SyncPolicy::OnFlush, None, 1);
            assert_guarantees_hold(&report, &format!("seed {seed}"));
        }
    }

    #[test]
    fn faultcheck_goes_red_when_the_manifest_dir_fsync_is_misplaced() {
        use adcache_lsm::{FsyncSite, SyncPolicy};
        // The guarded hook omits exactly one fsync (the directory sync
        // after the manifest rename). Under `always` that single hole
        // must make the drill fail — proving it can detect a real
        // regression in fsync placement, not just pass vacuously.
        let report = drill(20, 7, SyncPolicy::Always, Some(FsyncSite::ManifestDir), 1);
        assert!(
            !report.ok(),
            "a misplaced manifest-directory fsync must lose acked writes"
        );
    }

    #[test]
    fn faultcheck_goes_red_when_the_wal_reset_sync_is_misplaced() {
        use adcache_lsm::{FsyncSite, SyncPolicy};
        // Under `on_flush` a seal must sync the outgoing WAL segment, and
        // its retirement must be durable before its zero fill; without
        // those a segment whose retirement a crash undid comes back torn
        // or half zeroed, and replays stale records or fails the open.
        let report = drill(12, 7, SyncPolicy::OnFlush, Some(FsyncSite::WalReset), 1);
        assert!(
            !report.ok(),
            "an unsynced sealed segment must eventually resurrect stale records"
        );
    }

    #[test]
    fn baselines_have_no_tuner() {
        let shell = mem_shell(Strategy::RocksDbBlock);
        assert!(shell.tuner.latest().is_none());
        assert_eq!(shell.tuning, "tuning: none (rocksdb-block is not tuned)");
        assert!(handle(&shell, "tune").unwrap());
    }

    #[test]
    fn the_banner_says_the_shell_agent_is_untrained() {
        let shell = mem_shell(Strategy::AdCache);
        assert_eq!(
            shell.tuning,
            "tuning: untrained agent, hidden width 64, window 1000 ops"
        );
    }
    /// One seeded shell run (no controller, so nothing but the engine lock
    /// timers depends on the clock, and those are pinned), recorded after
    /// its load and again after its benchmark.
    fn recorded_pair() -> (Value, Value, PathBuf) {
        let shell = mem_shell_obs(Strategy::RangeCache, Obs::enabled());
        let dir = std::env::temp_dir().join(format!("adcache-cli-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let record = |command: &str, lock_ns: u64| -> Value {
            assert!(handle(&shell, command).unwrap());
            assert!(shell.obs.dump_to_dir(&dir).unwrap());
            let json = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
            let pin = |line: &str| match line.split_once("_ns\": ") {
                Some((name, ns)) if name.contains("engine.lock.") => {
                    format!(
                        "{name}_ns\": {lock_ns}{}",
                        &ns[ns.trim_end_matches(',').len()..]
                    )
                }
                _ => line.to_string(),
            };
            let pinned: Vec<String> = json.lines().map(pin).collect();
            serde_json::from_str(&pinned.join("\n")).unwrap()
        };
        let before = record("fill 2000", 1_000_000);
        (before, record("bench 2500 mixed", 4_000_000), dir)
    }

    const GOLDEN_TRACE: &str = "
cache hit rates:
  block        (no traffic)
  range          89.86% hit (1612 hits / 182 misses, 0 evictions)
  kv           (no traffic)

admission decisions:
  unconditional                                     39 decisions, 507 entries admitted
  counters (whole run): 39 accepts, 0 rejects, 0 partials

boundary trajectory (0 decisions):

lsm: 11 flushes, 2 compactions (counters: 11 / 2), 0 block-cache invalidations
  group commit: 2706 rounds, 11 seals, 0 write stalls
";
    const GOLDEN_SUMMARY: &str = "requests 0
stage recv count 0 mean_us 0.0 p99_us 0.0 share_pct 0.0
stage parse count 0 mean_us 0.0 p99_us 0.0 share_pct 0.0
stage queue_wait count 0 mean_us 0.0 p99_us 0.0 share_pct 0.0
stage lock_wait count 0 mean_us 0.0 p99_us 0.0 share_pct 0.0
stage engine_exec count 0 mean_us 0.0 p99_us 0.0 share_pct 0.0
stage cache_layer count 0 mean_us 0.0 p99_us 0.0 share_pct 0.0
stage reply_flush count 0 mean_us 0.0 p99_us 0.0 share_pct 0.0
stage total count 0 mean_us 0.0 p50_us 0.0 p99_us 0.0
lock_wait_share_pct 0.00
lock read acquisitions 182 wait_ns 4000000 hold_ns 4000000
lock write acquisitions 5412 wait_ns 4000000 hold_ns 4000000
lock flush acquisitions 22 wait_ns 4000000 hold_ns 4000000
lock compaction acquisitions 13 wait_ns 4000000 hold_ns 4000000
group_commit rounds 2706 seals 11 write_stalls 0
";
    const GOLDEN_TOP: &str = "
== adcache top @ golden:1 — tick 3 — 0 ops/s ==
  stage breakdown (interval):
    recv            0.0%       0.0us
    parse           0.0%       0.0us
    queue_wait      0.0%       0.0us
    lock_wait       0.0%       0.0us
    engine_exec     0.0%       0.0us
    cache_layer     0.0%       0.0us
    reply_flush     0.0%       0.0us
  lock: 0.0% of request time waiting; engine lock wait 6.0ms/s
  cache range   89.86% hit (1612 hits / 182 misses, 11 segments, 0 coverage dropped)
  boundary: range 50.0% / block 50.0% of 1 MiB
";

    #[test]
    fn renderers_reproduce_their_golden_output() {
        let (before, after, dir) = recorded_pair();
        // Line by line, bar the trailing blanks an empty bar leaves behind.
        let check = |out: Vec<u8>, golden: &str| {
            let (out, golden) = (String::from_utf8(out).unwrap(), golden.to_string());
            let lines = |text: &String| -> Vec<String> {
                text.lines()
                    .map(|line| line.trim_end().to_string())
                    .collect()
            };
            assert_eq!(lines(&out), lines(&golden));
        };
        // A wall-clock lock wait over the budget journals a
        // `LockContention`, so on a loaded host the journal holds a few
        // more events than the golden run's 13; like the lock counters
        // `recorded_pair` pins, the header takes them as they came, and
        // each must be a wait that really was over its budget.
        let journal = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap();
        let mut contentions = 0;
        for line in journal.lines() {
            let record: Value = serde_json::from_str(line).unwrap();
            if let Some(c) = record.get("event").and_then(|e| e.get("LockContention")) {
                let ns = |field: &str| c.get(field).and_then(Value::as_u64).unwrap();
                assert!(ns("wait_ns") > ns("budget_ns"), "{line}");
                contentions += 1;
            }
        }
        let mut out = Vec::new();
        render_trace(&dir, &mut out).unwrap();
        check(
            out,
            &format!(
                "trace: {} ({} events)\n{GOLDEN_TRACE}",
                dir.display(),
                13 + contentions
            ),
        );
        let mut out = Vec::new();
        render_metrics_summary(&MetricsView::of(&after), &mut out).unwrap();
        check(out, GOLDEN_SUMMARY);
        let mut out = Vec::new();
        let view = MetricsView {
            cur: &after,
            prev: Some(&before),
        };
        render_top_tick(&view, 2.0, 3, "golden:1", &mut out).unwrap();
        check(out, GOLDEN_TOP);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drills_run_at_tiny_scale_and_their_servers_drain() {
        for outcome in [
            adv_drill(AdversaryKind::ScanFlood, true, 300, 500, 1).unwrap(),
            tenant_drill(true, 400, 500, 1, 2).unwrap(),
        ] {
            // `Drill::run` has already refused undrained and frame-dirty runs.
            assert_eq!(outcome.server.conns_accepted, outcome.server.conns_closed);
            assert!(outcome.server.requests > 1_000 && outcome.server.protocol_errors == 0);
            assert!(outcome.base_p99 > 0 && outcome.attack_p99 > 0);
            assert!(outcome.base_hit > 0.0 && outcome.post_hit > 0.0);
            assert!(outcome.hit_drop() < 1.0 && outcome.p99_inflation(1e6) > 0.0);
        }
        assert!(adv_guard_drill(AdversaryKind::SketchCollision, 500, 1, true).unwrap() > 0);
    }
}
