//! Pretrain an agent offline, save it to disk, and deploy it without
//! online learning — the paper's Section 3.6 deployment story.
//!
//! The supervised phase fits the actor to target configurations for two
//! synthetic workload profiles (point-heavy → all-range-cache; scan-heavy →
//! all-block-cache); the deployed controller then runs inference-only and
//! still adapts its *decisions* to the observed workload, with zero
//! training cost at serving time.
//!
//! Run with: `cargo run --release --example pretrain_and_deploy`

use adcache_suite::core::{
    run_static, ControllerConfig, RunConfig, Strategy, ACTION_DIM, STATE_DIM,
};
use adcache_suite::rl::{pretrain_supervised, ActorCritic, AgentConfig, LabeledSample};
use adcache_suite::workload::{Mix, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Offline: fit the actor on labeled workload profiles. ---
    let mut agent_cfg = AgentConfig::paper_default(STATE_DIM, ACTION_DIM);
    agent_cfg.hidden = 32; // small demo network
    let mut agent = ActorCritic::new(agent_cfg);

    // Hand-labeled profiles (real deployments derive these from controlled
    // experiments — see `adcache-bench`'s pretraining pipeline). State
    // layout: [point%, scan%, write%, scan_len, result_hit, block_hit,
    // h_est, range_ratio, block_occ, range_occ, compactions, runs, cache%].
    let mut samples = Vec::new();
    for ratio in [0.0f32, 0.5, 1.0] {
        // Point-heavy profile -> all memory to the range cache.
        samples.push(LabeledSample {
            state: vec![
                1.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5, ratio, 0.9, 0.9, 0.1, 0.3, 0.1,
            ],
            target: vec![1.0, 0.05, 0.25, 0.25],
        });
        // Scan-heavy profile -> all memory to the block cache.
        samples.push(LabeledSample {
            state: vec![
                0.0, 1.0, 0.0, 0.25, 0.5, 0.5, 0.5, ratio, 0.9, 0.9, 0.1, 0.3, 0.1,
            ],
            target: vec![0.0, 0.0, 0.25, 0.25],
        });
    }
    let mse = pretrain_supervised(&mut agent, &samples, 500, 3e-3);
    println!("pretrained: final mse {mse:.5}");

    // --- Ship the model: save + reload, as across machines. ---
    let path = std::env::temp_dir().join("adcache-demo-agent.json");
    adcache_suite::rl::save_agent(&agent, &path)?;
    println!(
        "saved model to {} ({} parameters)",
        path.display(),
        agent.param_count()
    );
    let deployed = adcache_suite::rl::load_agent(&path)?;
    std::fs::remove_file(&path).ok();

    // --- Online: deploy with training disabled. ---
    let workload = WorkloadConfig {
        num_keys: 10_000,
        value_size: 64,
        ..Default::default()
    };
    let base = RunConfig {
        controller: ControllerConfig {
            window: 500,
            hidden: 32,
            online: false, // inference-only deployment
            ..Default::default()
        },
        pretrained_agent: Some(deployed.to_json()),
        ..RunConfig::new(Strategy::AdCache, 256 << 10, workload)
    };

    for (name, mix) in [
        ("point-heavy", Mix::new(100.0, 0.0, 0.0, 0.0)),
        ("scan-heavy", Mix::new(0.0, 100.0, 0.0, 0.0)),
    ] {
        let r = run_static(&base, mix, 10_000)?;
        let last = r
            .windows
            .last()
            .and_then(|w| w.decision)
            .expect("adcache records decisions");
        println!(
            "{name:>11}: hit {:.3}, deployed policy chose range_ratio {:.2}",
            r.overall_hit_rate, last.range_ratio
        );
    }
    Ok(())
}
