//! Order statistics for the reports: medians, interpolated percentiles,
//! quartiles, and the tail percentile a sample count can support.

/// Percentile `p` (0..=100) of `samples`, linearly interpolated between
/// the two nearest ranks. 0.0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// Median of `samples` (0.0 for an empty slice).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method), so the spreads this
/// benchmark prints match ones computed from its results in Python.
/// A single sample is its own quartiles; an empty slice gives zeros.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [s[0]; 3],
        _ => {}
    }
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative or beyond n near the ends: Python extrapolates there.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *q = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// "q1 .. q3" of `samples`, for the human-readable report lines.
pub fn iqr(samples: &[f64]) -> String {
    let [q1, _, q3] = quartiles(samples);
    format!("IQR {q1:.3} .. {q3:.3}")
}

/// The highest tail percentile that still has at least ten samples above
/// it: 99.9, 99, 95, 90, 75 or 50. Below 20 samples no percentile
/// qualifies, and the tail is the maximum (100).
pub fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .unwrap_or(100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_arrays() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 100.0);
        assert_eq!(percentile(&hundred, 95.0), 96.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 40.0, 30.0, 20.0, 10.0]),
            [15.0, 30.0, 45.0]
        );
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(3), 100.0);
    }
}
