//! Admission control (paper Section 3.4).
//!
//! Two mechanisms guard the caches against pollution:
//!
//! - **Frequency-based admission for point lookups** —
//!   [`PointAdmission`]: on a miss the key's counter in a Count-Min
//!   Sketch is incremented and the key is admitted only when its
//!   *normalized importance* (frequency over the global missed-key sum)
//!   clears a threshold. The threshold is not fixed: AdCache's RL agent
//!   retunes it every window.
//! - **Partial admission for range scans** — [`ScanAdmission`]: a scan of
//!   length `l ≤ a` is admitted whole; a longer scan contributes only
//!   `a + ⌈b·(l−a)⌉` leading entries, so infrequent long scans have a
//!   bounded cache footprint while overlapping hot scans still converge to
//!   full residency. `a` and `b` are likewise learned online.

use crate::sketch::CountMinSketch;
use adcache_lsm::splitmix64;
use adcache_obs::{Counter, Event, Obs};

// The sketch guard: an anomaly heuristic that auto-resets (and re-salts)
// the admission sketch when its saturation/decay telemetry looks like a
// deliberate pollution attack rather than organic traffic.
//
// Two signals, both checked every `GUARD_CHECK_EVERY` admits over the
// *delta* since the previous check (so a long healthy history cannot mask
// a fresh attack):
//
// - **decay churn** — a zipfian workload saturates its handful of hot
//   keys slowly (hundreds of increments between decay sweeps, because the
//   miss stream feeding admission is mostly cold-key residue); a targeted
//   key-churn or collision attack concentrates increments on a handful of
//   counters and decays every few dozen. More than one decay sweep per
//   `GUARD_MIN_DECAY_INTERVAL` increments in a window is anomalous.
// - **fill ratio** — a right-sized sketch (4 counters per expected key)
//   stays mostly empty: even if every expected key misses once, row
//   occupancy stays under ~25%. A fill ratio above `GUARD_MAX_FILL` means
//   the counter space is being flooded with distinct keys the sketch was
//   never sized for.

/// Admits between two guard checks.
const GUARD_CHECK_EVERY: u64 = 4096;
/// A window is anomalous when it saw more than one decay per this many
/// increments.
const GUARD_MIN_DECAY_INTERVAL: u64 = 160;
/// A window is anomalous when more than this fraction of counters is
/// nonzero.
const GUARD_MAX_FILL: f64 = 0.5;

/// Frequency-gated admission for point-lookup results.
#[derive(Debug)]
pub struct PointAdmission {
    sketch: CountMinSketch,
    threshold: f64,
    admitted: u64,
    rejected: u64,
    /// Whether the sketch guard runs its checks.
    guard: bool,
    /// Admits since the last guard check.
    since_check: u64,
    /// Sketch decay count at the last guard check.
    checked_decays: u64,
    /// Auto-resets performed.
    resets: Counter,
    obs: Obs,
}

impl PointAdmission {
    /// Creates the filter sized for roughly `expected_keys` hot keys.
    /// `threshold` is the initial normalized-importance cut-off. The
    /// sketch guard is on; see [`with_guard`](Self::with_guard).
    pub fn new(expected_keys: usize, threshold: f64) -> Self {
        Self::with_guard(expected_keys, threshold, true)
    }

    /// [`new`](Self::new) with the sketch guard on or off. Off, the
    /// sketch is never reset.
    pub fn with_guard(expected_keys: usize, threshold: f64, guard: bool) -> Self {
        PointAdmission {
            sketch: CountMinSketch::for_keys(expected_keys),
            threshold,
            admitted: 0,
            rejected: 0,
            guard,
            since_check: 0,
            checked_decays: 0,
            resets: Counter::new(),
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle; each guard reset then journals an
    /// [`Event::SketchReset`], and the registry names the reset count
    /// `cache.sketch.resets`.
    pub fn set_obs(&mut self, obs: Obs) {
        obs.adopt_counter("cache.sketch.resets", &self.resets);
        self.obs = obs;
    }

    /// Records a miss on `key` and decides whether to admit it.
    pub fn admit(&mut self, key: &[u8]) -> bool {
        let freq = self.sketch.increment(key);
        let total = self.sketch.total().max(1);
        let score = freq as f64 / total as f64;
        let admit = score >= self.threshold;
        if admit {
            self.admitted += 1;
        } else {
            self.rejected += 1;
        }
        self.since_check += 1;
        if self.guard && self.since_check >= GUARD_CHECK_EVERY {
            self.check_anomaly();
        }
        admit
    }

    /// The guard check: compares this window's decay/fill telemetry to the
    /// anomaly thresholds and resets the sketch with a fresh salt if it
    /// trips.
    fn check_anomaly(&mut self) {
        let window = self.since_check;
        let delta_decays = self.sketch.decays() - self.checked_decays;
        let fill = self.sketch.fill_ratio();
        let decay_flood = delta_decays > window / GUARD_MIN_DECAY_INTERVAL;
        let saturated = fill > GUARD_MAX_FILL;
        if decay_flood || saturated {
            let epoch = self.sketch.epoch() + 1;
            // Salt derived from the epoch: deterministic for replayable
            // tests, but unknowable to a client that cannot observe resets.
            let salt = splitmix64(0xAD5A_17ED ^ epoch);
            self.obs.emit(|| Event::SketchReset {
                epoch,
                decays: delta_decays,
                fill_pct: (fill * 100.0) as u64,
                increments: window,
            });
            self.sketch.reset(salt);
            self.resets.inc();
        }
        self.since_check = 0;
        self.checked_decays = self.sketch.decays();
    }

    /// Retunes the threshold (called by the RL controller each window).
    pub fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold.max(0.0);
    }

    /// The current threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Auto-resets performed by the guard.
    pub fn resets(&self) -> u64 {
        self.resets.get()
    }

    /// `(admitted, rejected)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.admitted, self.rejected)
    }

    /// Read access to the underlying sketch.
    pub fn sketch(&self) -> &CountMinSketch {
        &self.sketch
    }
}

/// Partial admission for scan results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanAdmission {
    /// Scans up to this length are admitted whole.
    pub a: usize,
    /// Fraction of the excess `(l - a)` admitted for longer scans.
    pub b: f64,
}

impl ScanAdmission {
    /// Creates the policy; `b` is clamped to `[0, 1]`.
    pub fn new(a: usize, b: f64) -> Self {
        ScanAdmission {
            a,
            b: b.clamp(0.0, 1.0),
        }
    }

    /// How many leading entries of a scan of length `l` to admit.
    pub fn admitted_len(&self, l: usize) -> usize {
        if l <= self.a {
            l
        } else {
            let extra = (self.b * (l - self.a) as f64).ceil() as usize;
            (self.a + extra).min(l)
        }
    }

    /// The "scan threshold" reported in the paper's Figure 10: the expected
    /// admitted length for scans of the observed average length `l`.
    pub fn effective_threshold(&self, avg_scan_len: f64) -> f64 {
        if avg_scan_len <= self.a as f64 {
            avg_scan_len
        } else {
            self.a as f64 + self.b * (avg_scan_len - self.a as f64)
        }
    }
}

impl Default for ScanAdmission {
    /// The paper initializes `a` to the average short-scan length (16).
    fn default() -> Self {
        ScanAdmission { a: 16, b: 0.25 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_off_keys_are_rejected_hot_keys_admitted() {
        let mut adm = PointAdmission::new(10_000, 0.002);
        // Warm the sketch with noise.
        for i in 0..2000u32 {
            adm.admit(format!("noise-{i}").as_bytes());
        }
        // A key seen repeatedly crosses the normalized threshold.
        let mut admitted_hot = false;
        for _ in 0..6 {
            admitted_hot = adm.admit(b"hot-key");
        }
        assert!(admitted_hot);
        assert!(!adm.admit(b"fresh-one-off"));
        let (a, r) = adm.counters();
        assert!(a >= 1 && r >= 1);
    }

    #[test]
    fn zero_threshold_admits_everything() {
        let mut adm = PointAdmission::new(100, 0.0);
        for i in 0..50u32 {
            assert!(adm.admit(format!("k{i}").as_bytes()));
        }
    }

    #[test]
    fn threshold_is_tunable_at_runtime() {
        let mut adm = PointAdmission::new(100, 1.0);
        // The very first key is a "monopoly" (score 1.0) and passes even the
        // strictest threshold; once a second key shares the sum, neither can
        // reach 1.0 again.
        assert!(adm.admit(b"warm"));
        assert!(!adm.admit(b"x"), "threshold 1.0 rejects non-monopoly keys");
        adm.set_threshold(0.0);
        assert!(adm.admit(b"x"));
        assert_eq!(adm.threshold(), 0.0);
        adm.set_threshold(-5.0);
        assert_eq!(adm.threshold(), 0.0, "negative thresholds clamp to zero");
    }

    #[test]
    fn short_scans_admitted_whole() {
        let s = ScanAdmission::new(16, 0.25);
        assert_eq!(s.admitted_len(1), 1);
        assert_eq!(s.admitted_len(16), 16);
    }

    #[test]
    fn long_scans_admit_partial_prefix() {
        let s = ScanAdmission::new(16, 0.25);
        assert_eq!(s.admitted_len(64), 16 + 12); // 16 + ceil(0.25*48)
        assert_eq!(s.admitted_len(17), 17); // 16 + ceil(0.25) = 17
        let s = ScanAdmission::new(16, 0.0);
        assert_eq!(s.admitted_len(64), 16);
        let s = ScanAdmission::new(16, 1.0);
        assert_eq!(s.admitted_len(64), 64);
    }

    #[test]
    fn b_is_clamped() {
        let s = ScanAdmission::new(8, 7.5);
        assert_eq!(s.b, 1.0);
        let s = ScanAdmission::new(8, -1.0);
        assert_eq!(s.b, 0.0);
    }

    #[test]
    fn effective_threshold_matches_formula() {
        let s = ScanAdmission::new(16, 0.25);
        assert!((s.effective_threshold(64.0) - 28.0).abs() < 1e-9);
        assert!((s.effective_threshold(8.0) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn guard_resets_under_decay_flood() {
        // Hammering one key drives a decay every few increments — far
        // past the one-per-160 anomaly bar.
        let mut adm = PointAdmission::new(1000, 0.0);
        for _ in 0..GUARD_CHECK_EVERY {
            adm.admit(b"churn-victim");
        }
        assert!(adm.resets() >= 1, "decay flood must trip the guard");
        // The poisoned history is gone and the sketch is salted.
        assert_ne!(adm.sketch().salt(), 0);
        assert!(adm.sketch().epoch() >= 1);
    }

    #[test]
    fn guard_stays_quiet_on_zipfian_traffic() {
        let mut adm = PointAdmission::new(10_000, 0.002);
        // A skewed-but-organic stream: 100 hot keys cycled, plus noise.
        for round in 0..300u32 {
            for k in 0..100u32 {
                adm.admit(format!("hot-{k}").as_bytes());
            }
            adm.admit(format!("noise-{round}").as_bytes());
        }
        assert_eq!(adm.resets(), 0, "organic skew must not trip the guard");
    }

    #[test]
    fn disabled_guard_never_resets() {
        let mut adm = PointAdmission::with_guard(1000, 0.0, false);
        for _ in 0..10_000 {
            adm.admit(b"churn-victim");
        }
        assert_eq!(adm.resets(), 0);
        assert_eq!(adm.sketch().epoch(), 0);
    }

    #[test]
    fn guard_resets_under_distinct_key_flood() {
        // A one-hit-wonder storm with far more distinct keys than the
        // sketch was sized for fills the counter space past its bar.
        // 64 keys: the sketch width clamps to the 1024 minimum, so 4096
        // counters.
        let mut adm = PointAdmission::new(64, 0.0);
        for i in 0..20_000u64 {
            adm.admit(format!("one-hit-{i}").as_bytes());
        }
        assert!(adm.resets() >= 1, "fill flood must trip the guard");
    }
}
