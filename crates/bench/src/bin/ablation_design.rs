//! Design-choice ablations beyond the paper's Figure 11(b) — the
//! implementation decisions called out in DESIGN.md §5 that still have two
//! settings. One is left: the **adaptive learning rate** (on/off), the
//! paper's `lr ← lr·(1−r)` rule vs a fixed actor learning rate, across a
//! workload shift.
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

    // Adaptive lr across a shift.
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

    print_table(
        "Design ablations (steady-state hit rate)",
        &["variant", "steady hit", "overall hit"],
        &rows,
    );
    write_csv(
        "ablation_design",
        &["variant", "steady_hit", "overall_hit"],
        &csv,
    )
    .expect("csv");
}
