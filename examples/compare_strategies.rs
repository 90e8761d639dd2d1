//! Compare all six caching strategies on your own workload mix.
//!
//! A miniature version of the paper's Figure 7 driven entirely through the
//! public API: pick a mix and a cache budget, and the example runs every
//! strategy over the identical operation stream, reporting hit rate, SST
//! reads, simulated throughput, and tail latency.
//!
//! Run with: `cargo run --release --example compare_strategies`

use adcache_suite::core::{run_static, ControllerConfig, RunConfig, Strategy};
use adcache_suite::workload::{Mix, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Customize these three lines for your scenario.
    let mix = Mix::new(50.0, 30.0, 5.0, 15.0); // get / short scan / long scan / write %
    let cache_bytes = 512 << 10;
    let ops = 40_000;

    let workload = WorkloadConfig {
        num_keys: 20_000,
        value_size: 64,
        ..Default::default()
    };
    println!(
        "{} keys, {}B values, cache {} KiB, {} ops of mix {:?}\n",
        workload.num_keys,
        workload.value_size,
        cache_bytes >> 10,
        ops,
        (mix.get, mix.short_scan, mix.long_scan, mix.write),
    );
    println!(
        "{:>14}  {:>8}  {:>10}  {:>10}  {:>9}  {:>9}",
        "strategy", "hit rate", "sst reads", "qps (sim)", "p50 µs", "p99 µs"
    );

    for strategy in Strategy::all() {
        let cfg = RunConfig {
            controller: ControllerConfig {
                window: 1000,
                hidden: 32,
                ..Default::default()
            },
            ..RunConfig::new(strategy, cache_bytes, workload.clone())
        };
        let r = run_static(&cfg, mix, ops)?;
        let (p50, _, p99, _) = r.latency.summary();
        println!(
            "{:>14}  {:>8.4}  {:>10}  {:>10.0}  {:>9.1}  {:>9.1}",
            r.strategy,
            r.overall_hit_rate,
            r.total_sst_reads,
            r.overall_qps,
            p50 as f64 / 1000.0,
            p99 as f64 / 1000.0,
        );
    }
    println!("\n(adcache learns online from scratch here; see the bench crate's");
    println!(" pretraining pipeline for the paper's §3.6 warm-started setup)");
    Ok(())
}
