//! Supervised pretraining via controlled experiments (paper Section 3.6).
//!
//! The paper's supervised pretraining option trains the actor on
//! "representative workload vectors paired with target configurations,
//! where the target values can be obtained through controlled
//! experiments". This module reproduces that pipeline end to end:
//!
//! 1. for each representative workload mix, run AdCache with the decision
//!    *pinned* to each candidate configuration in a small grid;
//! 2. pick the configuration with the best steady-state estimated hit
//!    rate — the experiment-derived target;
//! 3. collect the window states observed under the winning configuration
//!    and fit the actor with MSE regression (plus an unsupervised replay
//!    pass for the critic).
//!
//! The trained agent is cached as JSON under `results/` so every figure
//! binary can start from the same initialization, mirroring the paper's
//! "no per-machine retraining" portability argument. At paper scale (50 M
//! ops per phase) the agent converges online from scratch; at this
//! repository's laptop scale pretraining stands in for that long warm-up
//! (EXPERIMENTS.md discusses the substitution).

use crate::ExpParams;
use adcache_core::{featurize_with, CacheDecision, RunConfig, Strategy};
use adcache_core::{ACTION_DIM, STATE_DIM};
use adcache_rl::{
    pretrain_supervised, pretrain_unsupervised, ActorCritic, AgentConfig, LabeledSample, Transition,
};
use adcache_workload::Mix;

/// Representative workload mixes used to derive pretraining targets. These
/// span the paper's evaluation space: point-heavy, scan-heavy (short and
/// long), balanced, and write-heavy.
pub fn representative_mixes() -> Vec<(&'static str, Mix)> {
    vec![
        ("point", Mix::new(100.0, 0.0, 0.0, 0.0)),
        ("short_scan", Mix::new(0.0, 100.0, 0.0, 0.0)),
        ("long_scan", Mix::new(0.0, 0.0, 100.0, 0.0)),
        ("balanced", Mix::new(33.0, 33.0, 0.0, 33.0)),
        ("write_heavy", Mix::new(10.0, 20.0, 10.0, 60.0)),
        ("scan_write", Mix::new(1.0, 49.0, 1.0, 49.0)),
    ]
}

/// Runs the controlled experiment for one mix via a staged search: sweep
/// the memory ratio first (the dominant knob), then the point-admission
/// threshold and the partial-admission parameters at the winning ratio.
/// The best steady-state hit rate wins each stage.
///
/// Returns `(best decision, states)` where the states come from **every**
/// candidate run, not just the winner's — the online controller will
/// encounter this workload while the cache is configured arbitrarily, and
/// the actor must map all of those situations to the winning action.
pub fn controlled_best(
    params: &ExpParams,
    mix: Mix,
    cache_frac: f64,
    ops: u64,
) -> (CacheDecision, Vec<Vec<f32>>) {
    // One shared engine: caches are wiped between candidates; the tree
    // itself only accumulates overwrites, which every candidate tolerates.
    let base_cfg: RunConfig = params.run_config(Strategy::AdCache, cache_frac);
    let db = adcache_core::prepare_db(&base_cfg).expect("prepare");
    let mut states: Vec<Vec<f32>> = Vec::new();

    // Cold caches favour block-granularity warm-up (each miss admits a
    // whole block), so measuring from cold would systematically misjudge
    // result caches at large sizes. Warm un-measured first, sized so the
    // candidate's cache can fully populate, then measure steady state.
    let entry_charge = (24 + params.value_size + 48) as u64;
    let warm_ops = ops.max(2 * base_cfg.total_cache_bytes as u64 / entry_charge);
    let evaluate = |candidate: CacheDecision, states: &mut Vec<Vec<f32>>| -> f64 {
        db.clear_caches();
        let mut cfg = base_cfg.clone();
        cfg.pinned_decision = Some(candidate);
        let warm = adcache_workload::Schedule {
            phases: vec![adcache_workload::Phase {
                name: "warm".into(),
                mix,
                ops: warm_ops,
            }],
        };
        adcache_core::run_schedule_on(&cfg, &warm, &db).expect("warmup run");
        let schedule = adcache_workload::Schedule {
            phases: vec![adcache_workload::Phase {
                name: "ctl".into(),
                mix,
                ops,
            }],
        };
        let r = adcache_core::run_schedule_on(&cfg, &schedule, &db).expect("controlled run");
        states.extend(
            r.windows
                .iter()
                .skip(r.windows.len() / 4)
                .map(|w| featurize_with(candidate.range_ratio, &w.summary)),
        );
        let half = r.windows.len() / 2;
        r.mean_hit_rate(half, r.windows.len())
    };

    // Stage 1: memory ratio.
    let mut best = CacheDecision {
        range_ratio: 0.0,
        point_threshold: 0.0,
        scan_a: 16,
        scan_b: 0.25,
    };
    let mut best_hit = f64::MIN;
    for &range_ratio in &[0.0, 0.25, 0.5, 0.75, 1.0] {
        let c = CacheDecision {
            range_ratio,
            ..best
        };
        let hit = evaluate(c, &mut states);
        if hit > best_hit {
            best_hit = hit;
            best = c;
        }
    }
    // Stage 2: point-admission threshold at the winning ratio.
    for &point_threshold in &[0.0005, 0.002] {
        let c = CacheDecision {
            point_threshold,
            ..best
        };
        let hit = evaluate(c, &mut states);
        if hit > best_hit {
            best_hit = hit;
            best = c;
        }
    }
    // Stage 3: partial-admission parameters.
    for &(scan_a, scan_b) in &[(24usize, 0.1f64), (64, 1.0)] {
        let c = CacheDecision {
            scan_a,
            scan_b,
            ..best
        };
        let hit = evaluate(c, &mut states);
        if hit > best_hit {
            best_hit = hit;
            best = c;
        }
    }
    (best, states)
}

/// Builds a pretrained agent from controlled experiments across the
/// representative mixes and cache sizes. Returns the agent JSON.
pub fn build_pretrained(params: &ExpParams, cache_fracs: &[f64]) -> String {
    let ops = (params.ops / 3).max(6_000);
    let mut samples: Vec<LabeledSample> = Vec::new();
    let mut replay: Vec<Transition> = Vec::new();
    for &cache_frac in cache_fracs {
        for (name, mix) in representative_mixes() {
            let (decision, states) = controlled_best(params, mix, cache_frac, ops);
            eprintln!(
                "[pretrain] {name}@{cache_frac}: ratio={:.2} thr={:.4} a={} b={:.2} ({} states)",
                decision.range_ratio,
                decision.point_threshold,
                decision.scan_a,
                decision.scan_b,
                states.len()
            );
            let target = decision.to_action();
            for s in states {
                // Critic replay: the winning decision holds its hit rate
                // steady, i.e. a mildly positive stationary reward.
                replay.push(Transition {
                    state: s.clone(),
                    action: target.clone(),
                    reward: 0.05,
                    next_state: s.clone(),
                });
                samples.push(LabeledSample {
                    state: s,
                    target: target.clone(),
                });
            }
        }
    }
    let mut agent_cfg = AgentConfig::paper_default(STATE_DIM, ACTION_DIM);
    agent_cfg.hidden = params.hidden;
    agent_cfg.seed = params.seed ^ 0xBEEF;
    let mut agent = ActorCritic::new(agent_cfg);
    // Epoch count scales inversely with the corpus so total gradient steps
    // (and wall time) stay bounded at any experiment scale.
    let epochs = (400_000 / samples.len().max(1)).clamp(30, 300);
    let mse = pretrain_supervised(&mut agent, &samples, epochs, 2e-3);
    eprintln!(
        "[pretrain] supervised fit over {} samples, final mse {mse:.5}",
        samples.len()
    );
    pretrain_unsupervised(&mut agent, &replay, 2);
    agent.to_json()
}

/// The seed every pretrained agent is built at, whatever `--seed` a figure
/// runs: a seed sweep varies the workloads, not the starting agent, and
/// reuses the one cached agent instead of pretraining per seed.
pub const PRETRAIN_SEED: u64 = 42;

/// Returns the cached pretrained-agent JSON, building it on first use at
/// [`PRETRAIN_SEED`]. The cache key includes the scale parameters so
/// `--quick`/`--full` runs do not reuse a mismatched model.
pub fn ensure_pretrained(params: &ExpParams) -> String {
    let params = &ExpParams {
        seed: PRETRAIN_SEED,
        ..params.clone()
    };
    let dir = std::path::PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("results dir");
    let path = dir.join(format!(
        "pretrained_k{}_v{}_h{}_s{}.json",
        params.num_keys, params.value_size, params.hidden, params.seed
    ));
    if let Ok(json) = std::fs::read_to_string(&path) {
        if ActorCritic::from_json(&json).is_ok() {
            eprintln!("[pretrain] using cached {}", path.display());
            return json;
        }
    }
    eprintln!("[pretrain] building pretrained agent (controlled experiments)...");
    // Size anchors spanning the evaluated range, so the actor learns
    // size-dependent policies (the cache_fraction feature interpolates
    // between them).
    let json = build_pretrained(params, &[0.05, 0.15, 0.4]);
    std::fs::write(&path, &json).expect("write pretrained agent");
    eprintln!("[pretrain] saved {}", path.display());
    json
}
