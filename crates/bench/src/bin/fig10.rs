//! Figure 10: impact of the training parameters on convergence after a
//! workload shift, in three parts:
//!
//! 1. window size ∈ {100, 1000, 10000} (α = 0.9) plus a pretrained-only
//!    model with no online learning;
//! 2. smoothing factor α ∈ {0, 0.5, 0.9} (window = 1000) plus pretrained;
//! 3. the evolution of the learned cache parameters (range ratio, point
//!    threshold, scan threshold) across the shift.
//!
//! The shift mirrors the paper: warm up under a read-heavy (point) phase,
//! then switch to a short-scan-heavy phase.
//!
//! Regenerate with:
//! `cargo run --release -p adcache-bench --bin fig10 [-- --quick|--full]`

use adcache_bench::{ensure_pretrained, write_csv, ExpParams};
use adcache_core::{run_schedule, RunConfig, Strategy};
use adcache_workload::{Mix, Phase, Schedule};

fn shift_schedule(ops_per_phase: u64) -> Schedule {
    Schedule {
        phases: vec![
            Phase {
                name: "read_heavy".into(),
                mix: Mix::new(97.0, 1.0, 1.0, 1.0),
                ops: ops_per_phase,
            },
            Phase {
                name: "short_scan_heavy".into(),
                mix: Mix::new(1.0, 97.0, 1.0, 1.0),
                ops: ops_per_phase,
            },
        ],
    }
}

fn run_variant(
    params: &ExpParams,
    pretrained: &str,
    window: u64,
    alpha: f64,
    online: bool,
    label: &str,
    csv: &mut Vec<Vec<String>>,
) {
    let ops_per_phase = params.ops;
    let mut cfg: RunConfig = params.run_config(Strategy::AdCache, 0.25);
    cfg.controller.window = window;
    cfg.controller.alpha = alpha;
    cfg.controller.online = online;
    cfg.pretrained_agent = Some(pretrained.to_string());
    let r = run_schedule(&cfg, &shift_schedule(ops_per_phase)).expect("run");
    // Aggregate to fixed 1000-op buckets so curves are comparable across
    // window sizes.
    let windows_per_bucket = (1000 / window).max(1) as usize;
    let mut i = 0usize;
    let mut bucket = 0u64;
    while i < r.windows.len() {
        let end = (i + windows_per_bucket).min(r.windows.len());
        let hit: f64 = r.windows[i..end].iter().map(|w| w.hit_rate).sum::<f64>() / (end - i) as f64;
        csv.push(vec![
            label.to_string(),
            (bucket * window * windows_per_bucket as u64).to_string(),
            format!("{hit:.6}"),
        ]);
        bucket += 1;
        i = end;
    }
    let shift_at = (ops_per_phase / window) as usize;
    let pre = r.mean_hit_rate(shift_at.saturating_sub(5), shift_at);
    let dip = r.windows[shift_at..(shift_at + 5).min(r.windows.len())]
        .iter()
        .map(|w| w.hit_rate)
        .fold(f64::MAX, f64::min);
    let post = r.mean_hit_rate(r.windows.len().saturating_sub(5), r.windows.len());
    println!("{label:>26}: pre-shift {pre:.3}  dip {dip:.3}  recovered {post:.3}");
}

fn main() {
    let params = ExpParams::from_args();
    println!(
        "Figure 10: convergence around a read-heavy -> short-scan shift | keys={} ops/phase={}",
        params.num_keys, params.ops
    );
    let pretrained = ensure_pretrained(&params);

    // Part 1: window size (alpha = 0.9).
    let mut csv1: Vec<Vec<String>> = Vec::new();
    for window in [100u64, 1000, 10_000] {
        if window * 4 > params.ops {
            println!("(skipping window {window}: fewer than 4 windows per phase at this scale)");
            continue;
        }
        run_variant(
            &params,
            &pretrained,
            window,
            0.9,
            true,
            &format!("window={window}"),
            &mut csv1,
        );
    }
    run_variant(
        &params,
        &pretrained,
        1000.min(params.ops / 8),
        0.9,
        false,
        "pretrained (no online)",
        &mut csv1,
    );
    write_csv("fig10_window", &["variant", "ops", "hit_rate"], &csv1).expect("csv");

    // Part 2: smoothing factor (window = 1000).
    let window = 1000.min(params.ops / 8);
    let mut csv2: Vec<Vec<String>> = Vec::new();
    for alpha in [0.0, 0.5, 0.9] {
        run_variant(
            &params,
            &pretrained,
            window,
            alpha,
            true,
            &format!("alpha={alpha}"),
            &mut csv2,
        );
    }
    write_csv("fig10_alpha", &["variant", "ops", "hit_rate"], &csv2).expect("csv");

    // Part 3: parameter evolution (window = 1000, alpha = 0.9).
    let mut cfg = params.run_config(Strategy::AdCache, 0.25);
    cfg.controller.window = window;
    cfg.pretrained_agent = Some(pretrained);
    let r = run_schedule(&cfg, &shift_schedule(params.ops)).expect("run");
    let mut csv3: Vec<Vec<String>> = Vec::new();
    println!("\nparameter evolution (window, phase, range_ratio, point_thr, scan_threshold):");
    for w in &r.windows {
        if let Some(d) = w.decision {
            let scan_threshold = if w.summary.avg_scan_len > 0.0 {
                adcache_cache::ScanAdmission::new(d.scan_a, d.scan_b)
                    .effective_threshold(w.summary.avg_scan_len)
            } else {
                d.scan_a as f64
            };
            if w.index % ((r.windows.len() / 24).max(1) as u64) == 0 {
                println!(
                    "  {:4} {:>17} ratio={:.3} thr={:.4} scan_thr={:.1}",
                    w.index, w.phase, d.range_ratio, d.point_threshold, scan_threshold
                );
            }
            csv3.push(vec![
                w.index.to_string(),
                w.phase.clone(),
                format!("{:.4}", d.range_ratio),
                format!("{:.5}", d.point_threshold),
                format!("{scan_threshold:.2}"),
            ]);
        }
    }
    write_csv(
        "fig10_params",
        &[
            "window",
            "phase",
            "range_ratio",
            "point_threshold",
            "scan_threshold",
        ],
        &csv3,
    )
    .expect("csv");
}
