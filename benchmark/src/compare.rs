//! `benchmark compare OLD.json NEW.json`: one row per (workload, metric)
//! with both medians, the relative change, the metric's bound from
//! `BENCHMARK.json` and a verdict. The same code judges a change against
//! its parent and two run sets of one commit against each other.

use crate::report::{MetricSpec, Spec};
use crate::stats::{median, relative_spread};
use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

/// Smallest absolute change of a `ratio` metric that can count as worse:
/// near 0 (`sst_reads_per_read` on `get-hot`) a relative bound alone
/// would flag noise.
const RATIO_FLOOR: f64 = 0.005;

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the runs agree well enough to say so.
    Ok,
    /// Worse than the baseline by more than the bound.
    Worse,
    /// Within the bound, but the run-to-run spread is wider than the
    /// bound, so "unchanged" cannot be claimed.
    Unresolved,
    /// A per-layer metric: reported, not judged.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// Judges `new` against `old` (each the values of one metric over a run
/// set). Returns the medians, the widest relative spread of the two sets
/// (`None` with fewer than two runs a side) and the verdict.
pub fn judge(spec: &MetricSpec, old: &[f64], new: &[f64]) -> (f64, f64, Option<f64>, Verdict) {
    let (old_median, new_median) = (median(old), median(new));
    let spread = match (relative_spread(old), relative_spread(new)) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (a, b) => a.or(b),
    };
    let Some(bound) = spec.bound else {
        return (old_median, new_median, spread, Verdict::Info);
    };
    let worse_by = if spec.higher_is_better {
        old_median - new_median
    } else {
        new_median - old_median
    };
    let mut allowed = bound * old_median.abs();
    if spec.unit == "ratio" {
        allowed = allowed.max(RATIO_FLOOR);
    }
    let verdict = if worse_by > allowed {
        Verdict::Worse
    } else if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (old_median, new_median, spread, verdict)
}

/// `(workload, traced, metric) → values over the runs`, in first-seen order.
type Series = Vec<((String, bool, String), Vec<f64>)>;

fn load(path: &Path) -> Result<Series, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let runs = root
        .get("runs")
        .and_then(Value::as_array)
        .ok_or(format!("{}: no `runs` list", path.display()))?;
    let mut series: Series = Vec::new();
    for run in runs {
        let workload = run.get("workload").and_then(Value::as_str).unwrap_or("?");
        let traced = run.get("trace").and_then(Value::as_bool).unwrap_or(false);
        let metrics = run.get("metrics").and_then(Value::as_object).unwrap_or(&[]);
        for (name, m) in metrics {
            let Some(value) = m.get("value").and_then(Value::as_f64) else {
                continue;
            };
            let key = (workload.to_string(), traced, name.clone());
            match series.iter_mut().find(|(k, _)| *k == key) {
                Some((_, values)) => values.push(value),
                None => series.push((key, vec![value])),
            }
        }
    }
    Ok(series)
}

fn percent(x: Option<f64>) -> String {
    x.map_or("-".to_string(), |x| format!("{:+.1}%", x * 100.0))
}

/// Prints the comparison table; fails only when some row is `worse`.
pub fn main(old: &Path, new: &Path) -> ExitCode {
    let loaded = Spec::load()
        .map_err(|e| e.to_string())
        .and_then(|spec| Ok((spec, load(old)?, load(new)?)));
    let (spec, old, new) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<40} {:>14} {:>14} {:>8} {:>6} {:>7}  verdict",
        "workload", "metric", "old median", "new median", "change", "bound", "spread"
    );
    let mut any_worse = false;
    for ((workload, traced, name), old_values) in &old {
        let key = (workload.clone(), *traced, name.clone());
        let Some((_, new_values)) = new.iter().find(|(k, _)| *k == key) else {
            continue;
        };
        let unlisted = MetricSpec {
            name: name.clone(),
            unit: String::new(),
            higher_is_better: false,
            bound: None,
        };
        let metric = spec.find(name).unwrap_or(&unlisted);
        let (old_median, new_median, spread, verdict) = judge(metric, old_values, new_values);
        let change = (old_median != 0.0).then(|| (new_median - old_median) / old_median.abs());
        println!(
            "{:<14} {:<40} {:>14.4} {:>14.4} {:>8} {:>6} {:>7}  {}",
            workload,
            name,
            old_median,
            new_median,
            percent(change),
            metric.bound.map_or("-".to_string(), |b| format!("{b}")),
            spread.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0)),
            verdict.label()
        );
        any_worse |= verdict == Verdict::Worse;
    }
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(unit: &str, higher_is_better: bool, bound: Option<f64>) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: unit.into(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let throughput = spec("1/s", true, Some(0.1));
        assert_eq!(judge(&throughput, &[100.0], &[95.0]).3, Verdict::Ok);
        assert_eq!(judge(&throughput, &[100.0], &[85.0]).3, Verdict::Worse);
        assert_eq!(judge(&throughput, &[100.0], &[150.0]).3, Verdict::Ok);
        let latency = spec("us", false, Some(0.1));
        assert_eq!(judge(&latency, &[100.0], &[105.0]).3, Verdict::Ok);
        assert_eq!(judge(&latency, &[100.0], &[115.0]).3, Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_not_ok() {
        let latency = spec("us", false, Some(0.1));
        let steady = [100.0, 101.0, 99.0, 100.0];
        let noisy = [70.0, 100.0, 130.0, 100.0];
        assert_eq!(judge(&latency, &steady, &steady).3, Verdict::Ok);
        assert_eq!(judge(&latency, &steady, &noisy).3, Verdict::Unresolved);
        // Worse wins over unresolved.
        let worse = [140.0, 170.0, 200.0, 170.0];
        assert_eq!(judge(&latency, &steady, &worse).3, Verdict::Worse);
    }

    #[test]
    fn ratios_get_an_absolute_floor_and_per_layer_is_not_judged() {
        let reads = spec("ratio", false, Some(0.03));
        // 0.000 → 0.004 is infinitely worse relatively, but inside the floor.
        assert_eq!(judge(&reads, &[0.0], &[0.004]).3, Verdict::Ok);
        assert_eq!(judge(&reads, &[0.0], &[0.006]).3, Verdict::Worse);
        let hit_rate = spec("ratio", true, Some(0.03));
        assert_eq!(judge(&hit_rate, &[0.50], &[0.49]).3, Verdict::Ok);
        assert_eq!(judge(&hit_rate, &[0.50], &[0.48]).3, Verdict::Worse);
        assert_eq!(
            judge(&spec("ns", false, None), &[1.0], &[9.0]).3,
            Verdict::Info
        );
    }
}
