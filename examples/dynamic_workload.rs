//! Watch AdCache adapt to a workload shift in real time.
//!
//! Runs a point-lookup-heavy phase followed by a scan-heavy phase against
//! the full AdCache engine and prints, per tuning window, the estimated hit
//! rate and the controller's decisions: the block/range memory boundary and
//! the admission parameters. You can see the memory boundary swing from
//! "mostly range cache" (good for point lookups) to "mostly block cache"
//! (good for short scans) right after the shift — the behaviour of the
//! paper's Figure 10.
//!
//! Run with: `cargo run --release --example dynamic_workload`

use adcache_suite::core::{
    run_schedule, ControllerConfig, RunConfig, Strategy, ACTION_DIM, STATE_DIM,
};
use adcache_suite::rl::{pretrain_supervised, ActorCritic, AgentConfig, LabeledSample};
use adcache_suite::workload::{Mix, Phase, Schedule, WorkloadConfig};

/// A tiny supervised warm-up so the 60-window demo starts from a sensible
/// policy (a production deployment would learn this online over millions
/// of operations, or ship the bench crate's controlled-experiment model).
fn demo_agent() -> ActorCritic {
    let mut agent_cfg = AgentConfig::paper_default(STATE_DIM, ACTION_DIM);
    agent_cfg.hidden = 32;
    let mut agent = ActorCritic::new(agent_cfg);
    let mut samples = Vec::new();
    for ratio in [0.0f32, 0.5, 1.0] {
        samples.push(LabeledSample {
            state: vec![
                1.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5, ratio, 0.9, 0.9, 0.1, 0.3, 0.1,
            ],
            target: vec![1.0, 0.05, 0.25, 0.25],
        });
        samples.push(LabeledSample {
            state: vec![
                0.0, 1.0, 0.0, 0.25, 0.5, 0.5, 0.5, ratio, 0.9, 0.9, 0.1, 0.3, 0.1,
            ],
            target: vec![0.0, 0.0, 0.25, 0.25],
        });
    }
    pretrain_supervised(&mut agent, &samples, 500, 3e-3);
    agent
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = WorkloadConfig {
        num_keys: 20_000,
        value_size: 64,
        ..Default::default()
    };
    let cache_bytes = 512 << 10;

    let cfg = RunConfig {
        controller: ControllerConfig {
            window: 1000,
            hidden: 32,
            ..Default::default()
        },
        pretrained_agent: Some(demo_agent().to_json()),
        ..RunConfig::new(Strategy::AdCache, cache_bytes, workload)
    };

    let schedule = Schedule {
        phases: vec![
            Phase {
                name: "points".into(),
                mix: Mix::new(95.0, 2.0, 1.0, 2.0),
                ops: 30_000,
            },
            Phase {
                name: "scans".into(),
                mix: Mix::new(2.0, 95.0, 1.0, 2.0),
                ops: 30_000,
            },
        ],
    };

    println!("window  phase   hit_rate  range_ratio  point_thr  scan_a  scan_b");
    let result = run_schedule(&cfg, &schedule)?;
    for w in &result.windows {
        if let Some(d) = w.decision {
            println!(
                "{:>6}  {:<6}  {:>8.3}  {:>11.3}  {:>9.5}  {:>6}  {:>6.2}",
                w.index, w.phase, w.hit_rate, d.range_ratio, d.point_threshold, d.scan_a, d.scan_b
            );
        }
    }
    println!(
        "\noverall: hit rate {:.3}, {} SST reads, {:.0} simulated QPS",
        result.overall_hit_rate, result.total_sst_reads, result.overall_qps
    );
    Ok(())
}
