//! Order statistics used for every reported number: medians, quartiles
//! and tail percentiles that refuse to answer when too few samples lie
//! beyond them.

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported; with fewer, the "tail" is a handful of outliers.
pub const MIN_BEYOND_TAIL: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for an even count); NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads this program reports match a reader's own check. Needs at
/// least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(samples);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Nearest-rank percentile `p` (0 < p < 100): the smallest sample with at
/// least `p`% of the samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let s = sorted(samples);
    if s.is_empty() {
        return f64::NAN;
    }
    s[rank_index(s.len(), p)]
}

fn rank_index(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, p)
}

/// The percentile `p` only when at least [`MIN_BEYOND_TAIL`] samples lie
/// beyond it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    (beyond(samples.len(), p) >= MIN_BEYOND_TAIL).then(|| percentile(samples, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5] (extrapolated)
        assert_eq!(quartiles(&[7.0, 5.0]), Some([4.5, 6.0, 7.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples leaves exactly 10 beyond: reported
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(tail_percentile(&v, 90.0), Some(90.0));
        // p99 of the same 100 leaves 1 beyond: refused
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(tail_percentile(&v, 99.0), None);
        // p99 needs 1000 samples
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(&w, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&w[..999], 99.0), None);
        assert_eq!(beyond(0, 50.0), 0);
    }
}
