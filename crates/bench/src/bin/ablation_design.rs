//! Design-choice ablations beyond the paper's Figure 11(b) — the
//! implementation decisions called out in DESIGN.md §5 that still have two
//! settings:
//!
//! 1. **Adaptive learning rate** (on/off): the paper's `lr ← lr·(1−r)`
//!    rule vs a fixed actor learning rate, across a workload shift.
//! 2. **Block compression** (off/LZSS): on-disk footprint and write
//!    amplification against the steady hit rate.
//!
//! Boundary hysteresis and partial range serving are fixed parts of the
//! design (paper §3.4–3.5), not switches, so they have no arm here.
//!
//! Regenerate with:
//! `cargo run --release -p adcache-bench --bin ablation_design [-- --quick]`

use adcache_bench::{ensure_pretrained, f4, print_table, write_csv, ExpParams};
use adcache_core::{run_schedule, RunConfig, Strategy};
use adcache_workload::{Mix, Phase, Schedule};

fn shift_schedule(ops: u64) -> Schedule {
    Schedule {
        phases: vec![
            Phase {
                name: "points".into(),
                mix: Mix::new(95.0, 2.0, 1.0, 2.0),
                ops,
            },
            Phase {
                name: "scans".into(),
                mix: Mix::new(2.0, 95.0, 1.0, 2.0),
                ops,
            },
        ],
    }
}

fn main() {
    let params = ExpParams::from_args();
    let pretrained = ensure_pretrained(&params);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv: Vec<Vec<String>> = Vec::new();

    // --- 1: adaptive-lr across a shift. ---
    for (label, adaptive_lr) in [
        ("baseline (hyst on, adaptive-lr on)", true),
        ("fixed learning rate", false),
    ] {
        let mut cfg: RunConfig = params.run_config(Strategy::AdCache, 0.25);
        cfg.controller.adaptive_lr = adaptive_lr;
        cfg.pretrained_agent = Some(pretrained.clone());
        let r = run_schedule(&cfg, &shift_schedule(params.ops)).expect("run");
        let n = r.windows.len();
        let steady = r.mean_hit_rate(n * 3 / 4, n); // post-shift steady state
        rows.push(vec![label.to_string(), f4(steady), f4(r.overall_hit_rate)]);
        csv.push(vec![
            label.to_string(),
            format!("{steady:.6}"),
            format!("{:.6}", r.overall_hit_rate),
        ]);
    }

    // --- 2: block compression. The cache stores decoded blocks and the
    // device model charges per block, so compression buys on-disk
    // footprint. Level sizes count stored bytes, though, so a compressed
    // tree can sit a level shallower, and the hit estimate's I/O model
    // charges per level (EXPERIMENTS.md, "Design ablations"). ---
    for (label, compression) in [("compression off", false), ("compression on (lzss)", true)] {
        let mut cfg: RunConfig = params.run_config(Strategy::RocksDbBlock, 0.25);
        cfg.db_options.compression = compression;
        let db = adcache_core::prepare_db(&cfg).expect("prepare");
        let schedule = adcache_workload::Schedule {
            phases: vec![adcache_workload::Phase {
                name: "mix".into(),
                mix: Mix::new(40.0, 20.0, 0.0, 40.0),
                ops: params.ops / 2,
            }],
        };
        let r = adcache_core::run_schedule_on(&cfg, &schedule, &db).expect("run");
        let disk_bytes: u64 = db.db().level_summary().iter().map(|(_, _, b)| b).sum();
        let half = r.windows.len() / 2;
        let steady = r.mean_hit_rate(half, r.windows.len());
        rows.push(vec![
            label.to_string(),
            f4(steady),
            format!(
                "{} KiB on disk, write amp {:.1}x",
                disk_bytes >> 10,
                db.db().write_amplification()
            ),
        ]);
        csv.push(vec![
            label.to_string(),
            format!("{steady:.6}"),
            disk_bytes.to_string(),
        ]);
    }

    print_table(
        "Design ablations (steady-state hit rate)",
        &["variant", "steady hit", "note"],
        &rows,
    );
    write_csv("ablation_design", &["variant", "steady_hit", "note"], &csv).expect("csv");
}
