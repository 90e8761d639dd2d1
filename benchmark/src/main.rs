//! The repo benchmark: wire-level workloads against a real `adcache serve`
//! child, end-to-end metrics with telemetry off, and a traced run that
//! attributes time to the `server`, `core`, `cache`, `lsm` and `rl` crates.
//! See README.md for the workloads, the metrics and how they interact.

mod alloc;
mod compare;
mod e2e;
mod layers;
mod procfs;
mod report;
mod server;
mod session;
mod stats;
mod trace;
mod value;
mod wire;
mod workloads;

use report::{RunResult, Spec};
use serde_json::Value;
use std::process::ExitCode;
use workloads::{Workload, DEFAULT_SECONDS, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  benchmark [--workload NAME]... [--seed N] [--seconds N] [--trace 0|1]
            [--repeat N] [--smoke] [--out FILE]
  benchmark compare OLD.json NEW.json

Runs the named workloads (default: all four) and prints every metric by
name with its unit and sample count; the last line of each run is the
result object BENCHMARK.json describes. Exits non-zero when any reply
fails verification.

  --seed N      workload seed (default 1); repeat r runs with seed N + r
  --seconds N   length of the measured run (default 10): the operation
                count is the workload's frozen rate times N
  --trace 1     the traced run (per-layer metrics) instead of end to end
  --repeat N    run the whole set N times
  --smoke       1/50 scale, one set-up: checks correctness and that every
                named metric is emitted, not speed
  --out FILE    where to write the report (default benchmark/out/report.json)";

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: u64,
    smoke: bool,
    out: std::path::PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        smoke: false,
        out: server::out_dir().join("report.json"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |s: &String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {s}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let wl = workloads::by_name(name).ok_or(format!("unknown workload {name}"))?;
                args.workloads.push(wl);
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.trace = number(value()?)? != 0,
            "--repeat" => args.repeat = number(value()?)?.max(1),
            "--smoke" => args.smoke = true,
            "--out" => args.out = value()?.into(),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().collect();
    }
    Ok(args)
}

fn run_all(args: &Args) -> std::io::Result<bool> {
    let spec = Spec::load()?;
    let bin = server::build_server_binary()?;
    // Before pinning, while this process still sees every CPU.
    let fingerprint = report::fingerprint();
    // After the build, which may use every core.
    let server_cpu = server::separate_cpus();
    let size = e2e::RunSize {
        seconds: args.seconds,
        scale_div: if args.smoke { 50 } else { 1 },
        setups: if args.smoke { 1 } else { e2e::SETUPS },
        server_cpu,
    };
    println!(
        "seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut runs: Vec<RunResult> = Vec::new();
    let mut all_correct = true;
    for repeat in 0..args.repeat {
        for wl in &args.workloads {
            let seed = args.seed + repeat;
            eprintln!("{}: {}", wl.name, wl.why);
            let result = if args.trace {
                trace::run(&bin, wl, seed, size)?
            } else {
                e2e::run(&bin, wl, seed, size)?
            };
            all_correct &= result.correct();
            print!("{}", result.table());
            println!("{}", result.contract_line(&spec));
            runs.push(result);
        }
    }
    if args.smoke {
        let listed = if args.trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        trace::check_emitted(&runs, listed)?;
    }
    let report = report::obj(vec![
        ("fingerprint", fingerprint),
        (
            "server_cpu",
            server_cpu.map_or(Value::from("not pinned"), Value::from),
        ),
        ("seed", Value::from(args.seed)),
        ("seconds", Value::from(args.seconds)),
        ("smoke", Value::from(args.smoke)),
        (
            "runs",
            Value::Array(runs.iter().map(RunResult::to_json).collect()),
        ),
    ]);
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string_pretty(&report).expect("a JSON tree serializes");
    std::fs::write(&args.out, text)?;
    // Standard output ends with the last run's result line.
    eprintln!("report written to {}", args.out.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, old, new] => compare::main(old.as_ref(), new.as_ref()),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_all(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAILED: replies failed verification or a design assertion did not hold");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::FAILURE
        }
    }
}
