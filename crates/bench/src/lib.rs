//! Shared experiment harness for the per-figure/table binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (see DESIGN.md §4 for the index). This library holds
//! the common scaffolding: scaled-down default parameters, a tiny CLI
//! parser, run-config construction, and table/CSV output.
//!
//! Scale note: the paper runs a 100 GB store for 50 M operations per
//! phase; these experiments default to a few-MB store and 10⁵-scale op
//! counts so every figure regenerates in minutes on a laptop. The
//! *relative* behaviour (which strategy wins where, crossover shapes) is
//! what EXPERIMENTS.md compares against the paper. All knobs are
//! overridable: `--keys`, `--ops`, `--value-size`, `--skew`, `--seed`,
//! `--quick` (CI-scale), `--full` (closer to paper proportions).

pub mod pretrain;

pub use pretrain::ensure_pretrained;

use adcache_core::{ControllerConfig, RunConfig, Strategy};
use adcache_workload::WorkloadConfig;
use std::fmt::Display;
use std::io::Write;
use std::path::PathBuf;

/// Experiment scale parameters.
#[derive(Debug, Clone)]
pub struct ExpParams {
    /// Number of distinct keys in the store.
    pub num_keys: u64,
    /// Value payload bytes.
    pub value_size: usize,
    /// Measured operations per run.
    pub ops: u64,
    /// Zipfian skew.
    pub skew: f64,
    /// Cache sizes as fractions of the dataset size.
    pub cache_fracs: Vec<f64>,
    /// Controller window (paper: 1000).
    pub window: u64,
    /// Agent hidden width (paper: 256; scaled runs may shrink it).
    pub hidden: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ExpParams {
    fn default() -> Self {
        ExpParams {
            num_keys: 50_000,
            value_size: 64,
            ops: 60_000,
            skew: 0.9,
            cache_fracs: vec![0.025, 0.05, 0.1, 0.2, 0.4],
            window: 1000,
            hidden: 64,
            seed: 42,
        }
    }
}

impl ExpParams {
    /// Parses overrides from `std::env::args`.
    pub fn from_args() -> Self {
        let mut p = ExpParams::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        let get_val = |args: &[String], i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| panic!("missing value for {}", args[*i - 1]))
                .clone()
        };
        while i < args.len() {
            match args[i].as_str() {
                "--keys" => p.num_keys = get_val(&args, &mut i).parse().expect("--keys"),
                "--ops" => p.ops = get_val(&args, &mut i).parse().expect("--ops"),
                "--value-size" => {
                    p.value_size = get_val(&args, &mut i).parse().expect("--value-size")
                }
                "--skew" => p.skew = get_val(&args, &mut i).parse().expect("--skew"),
                "--seed" => p.seed = get_val(&args, &mut i).parse().expect("--seed"),
                "--window" => p.window = get_val(&args, &mut i).parse().expect("--window"),
                "--hidden" => p.hidden = get_val(&args, &mut i).parse().expect("--hidden"),
                "--quick" => {
                    p.num_keys = 10_000;
                    p.ops = 12_000;
                    p.cache_fracs = vec![0.05, 0.2];
                    p.window = 500;
                    p.hidden = 16;
                }
                "--full" => {
                    p.num_keys = 200_000;
                    p.ops = 300_000;
                    p.value_size = 256;
                    p.hidden = 256;
                }
                other => panic!("unknown argument {other}"),
            }
            i += 1;
        }
        p
    }

    /// Approximate dataset size in bytes (keys + values + per-entry
    /// encoding overhead).
    pub fn dataset_bytes(&self) -> usize {
        self.num_keys as usize * (24 + self.value_size + 9)
    }

    /// The workload configuration for these parameters.
    pub fn workload(&self) -> WorkloadConfig {
        WorkloadConfig {
            num_keys: self.num_keys,
            value_size: self.value_size,
            point_skew: self.skew,
            scan_skew: self.skew,
            seed: self.seed,
        }
    }

    /// A run configuration for `strategy` at `cache_frac` of the dataset.
    pub fn run_config(&self, strategy: Strategy, cache_frac: f64) -> RunConfig {
        let cache_bytes = (self.dataset_bytes() as f64 * cache_frac) as usize;
        RunConfig {
            controller: ControllerConfig {
                window: self.window,
                hidden: self.hidden,
                ..Default::default()
            },
            ..RunConfig::new(strategy, cache_bytes, self.workload())
        }
    }
}

/// Prints a fixed-width table to stdout.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    println!("\n== {title} ==");
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let mut widths: Vec<usize> = head.iter().map(|h| h.len()).collect();
    for row in &body {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in &body {
        println!("{}", fmt_row(row));
    }
}

/// Writes rows as CSV under `results/` (created if missing); returns the
/// path.
pub fn write_csv<H: Display, C: Display>(
    name: &str,
    headers: &[H],
    rows: &[Vec<C>],
) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path)?;
    writeln!(
        f,
        "{}",
        headers
            .iter()
            .map(|h| h.to_string())
            .collect::<Vec<_>>()
            .join(",")
    )?;
    for row in rows {
        writeln!(
            f,
            "{}",
            row.iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",")
        )?;
    }
    println!("[csv] wrote {}", path.display());
    Ok(path)
}

/// Formats a float to 4 decimal places (hit rates).
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a float to 1 decimal place (QPS, percentages).
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let p = ExpParams::default();
        assert!(p.dataset_bytes() > 1 << 20);
        let cfg = p.run_config(Strategy::AdCache, 0.1);
        assert_eq!(
            cfg.total_cache_bytes,
            (p.dataset_bytes() as f64 * 0.1) as usize
        );
        assert_eq!(cfg.workload.num_keys, p.num_keys);
    }

    #[test]
    fn csv_writer_produces_files() {
        let p = write_csv("test_csv", &["a", "b"], &[vec![1, 2], vec![3, 4]]).unwrap();
        let content = std::fs::read_to_string(&p).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        std::fs::remove_file(p).unwrap();
    }
}
