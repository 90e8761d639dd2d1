//! Validates the paper's reward model (Section 3.5): the estimated
//! no-cache I/O count `IO_estimate = p·(1+FPR) + s·l/B + s·(L + r0/2 − 1)`
//! must approximate the *measured* block reads of a cache-less engine, and
//! the derived `h_estimate` must behave like a real hit rate at the
//! boundaries. The paper asserts this estimator "has been validated in the
//! context of block cache"; this test is that validation for our engine.

use adcache_suite::core::{
    h_estimate, io_estimate_of, run_static, ControllerConfig, RunConfig, Strategy,
};
use adcache_suite::workload::{Mix, WorkloadConfig};

fn no_cache_config() -> RunConfig {
    let workload = WorkloadConfig {
        num_keys: 20_000,
        value_size: 64,
        ..Default::default()
    };
    RunConfig {
        controller: ControllerConfig {
            window: 1000,
            hidden: 16,
            ..Default::default()
        },
        // A zero budget admits nothing: every read hits the device.
        ..RunConfig::new(Strategy::RocksDbBlock, 0, workload)
    }
}

/// With no cache at all, measured I/O should be within a modest factor of
/// the model's estimate for each workload type, and h_estimate ≈ 0.
#[test]
fn io_estimate_tracks_measured_no_cache_io() {
    for (name, mix) in [
        ("points", Mix::new(100.0, 0.0, 0.0, 0.0)),
        ("short scans", Mix::new(0.0, 100.0, 0.0, 0.0)),
        ("long scans", Mix::new(0.0, 0.0, 100.0, 0.0)),
        ("mixed", Mix::new(40.0, 30.0, 10.0, 20.0)),
    ] {
        let r = run_static(&no_cache_config(), mix, 20_000).unwrap();
        // Aggregate the model inputs over the full run via the last
        // window's tree shape (the shape is stable after load).
        let mut total_est = 0.0f64;
        let mut total_measured = 0u64;
        for w in &r.windows {
            total_est += io_estimate_of(&w.summary);
            total_measured += w.summary.io_miss;
        }
        let ratio = total_measured as f64 / total_est.max(1.0);
        assert!(
            (0.5..=2.0).contains(&ratio),
            "{name}: measured {total_measured} vs estimated {total_est:.0} (ratio {ratio:.2})"
        );
        // No cache => h_estimate near zero (allow the model's slack).
        assert!(
            r.overall_hit_rate.abs() < 0.5,
            "{name}: no-cache hit rate should be near 0, got {:.3}",
            r.overall_hit_rate
        );
    }
}

/// Point lookups are the exact case: one block read per lookup, FPR ≈ 0 at
/// 10 bits/key, so the estimate should be tight.
#[test]
fn point_lookup_estimate_is_tight() {
    let r = run_static(&no_cache_config(), Mix::new(100.0, 0.0, 0.0, 0.0), 20_000).unwrap();
    let measured: u64 = r.windows.iter().map(|w| w.summary.io_miss).sum();
    let est: f64 = r.windows.iter().map(|w| io_estimate_of(&w.summary)).sum();
    let ratio = measured as f64 / est;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "point estimate should be within 10%: measured {measured}, est {est:.0}"
    );
}

/// A perfect cache (everything fits) should push h_estimate toward 1.
#[test]
fn h_estimate_approaches_one_with_a_huge_cache() {
    let mut cfg = no_cache_config();
    cfg.strategy = Strategy::RangeCache;
    cfg.total_cache_bytes = 64 << 20; // far larger than the dataset
                                      // Small key space so cold (first-touch) misses are exhausted early and
                                      // the tail windows measure pure steady state.
    cfg.workload.num_keys = 4_000;
    let r = run_static(&cfg, Mix::new(100.0, 0.0, 0.0, 0.0), 40_000).unwrap();
    let tail = r.mean_hit_rate(r.windows.len() - 5, r.windows.len());
    assert!(
        tail > 0.95,
        "steady-state hit rate with an oversized cache: {tail:.3}"
    );
    // And the h_estimate helper agrees with the window records.
    let last = r.windows.last().unwrap();
    assert!((h_estimate(&last.summary) - last.hit_rate).abs() < 1e-12);
}
