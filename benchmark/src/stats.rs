//! Order statistics: exact percentiles over raw samples, the sample-count
//! rule for reporting them, and the quartile spread the acceptance check
//! uses.

/// Fewest samples a latency percentile is reported from. Below it the
/// metric is omitted (reported as absent), never extrapolated.
pub const MIN_PERCENTILE_SAMPLES: usize = 1_000;

/// The `q`-quantile (0 < q ≤ 1) of `sorted` by the nearest-rank rule.
/// `sorted` must be ascending and non-empty.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples per chunk for [`chunked_p50_p99`].
pub const CHUNK: usize = 2_000;

/// p50 and p99 of a latency series given in time order, made steady
/// against slow spells of the host: the series is cut into consecutive
/// chunks of [`CHUNK`] samples, each chunk's p50 and p99 are taken, and
/// the median chunk is reported. A spell during which the whole
/// distribution shifts (the sandbox's vCPUs slow down together for
/// seconds at a time) then moves the result only if it covers half the
/// run, and a change to the program, which moves every chunk, moves it
/// fully. Between [`MIN_PERCENTILE_SAMPLES`] and one chunk the whole
/// series is one chunk; below that the result is `None`. A chunk's p99
/// always has at least ten samples beyond it.
pub fn chunked_p50_p99(in_time_order: &[u32]) -> Option<(f64, f64)> {
    if in_time_order.len() < MIN_PERCENTILE_SAMPLES {
        return None;
    }
    let chunk = CHUNK.min(in_time_order.len());
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for c in in_time_order.chunks_exact(chunk) {
        let mut sorted: Vec<u64> = c.iter().map(|&ns| u64::from(ns)).collect();
        sorted.sort_unstable();
        p50s.push(nearest_rank(&sorted, 0.50) as f64);
        p99s.push(nearest_rank(&sorted, 0.99) as f64);
    }
    Some((median(&p50s), median(&p99s)))
}

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
/// what the acceptance check computes. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median; `None` when
/// there are fewer than two values or the median is 0.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_a_thousand_samples() {
        let few: Vec<u32> = (1..1_000).collect();
        assert_eq!(chunked_p50_p99(&few), None);
        let enough: Vec<u32> = (1..=1_000).rev().collect();
        assert_eq!(chunked_p50_p99(&enough), Some((500.0, 990.0)));
    }

    #[test]
    fn a_slow_spell_shorter_than_half_the_run_does_not_move_percentiles() {
        // Five chunks; during two of them everything takes ten times longer.
        let mut series: Vec<u32> = Vec::new();
        for chunk in 0..5 {
            let scale = if chunk % 2 == 1 { 10 } else { 1 };
            series.extend((1..=CHUNK as u32).map(|i| i * scale));
        }
        assert_eq!(chunked_p50_p99(&series), Some((1_000.0, 1_980.0)));
        // A trailing partial chunk is left out.
        series.extend([1_000_000; 10]);
        assert_eq!(chunked_p50_p99(&series), Some((1_000.0, 1_980.0)));
    }

    #[test]
    fn nearest_rank_hits_the_ends() {
        let v = [10, 20, 30, 40];
        assert_eq!(nearest_rank(&v, 0.01), 10);
        assert_eq!(nearest_rank(&v, 0.5), 20);
        assert_eq!(nearest_rank(&v, 1.0), 40);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_spread(&v), Some(1.0));
    }
}
