//! Order statistics used by every metric: medians, quartiles as Python's
//! `statistics.quantiles(values, n=4)` computes them (the driver judges the
//! benchmark's steadiness with exactly that function), and the tail
//! percentile rule of the metrics guide.

/// Sorted copy of `values`.
///
/// # Panics
/// Panics on NaN: a NaN timing is a bug in the harness, never a sample.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    v
}

/// Median of `values` (mean of the two middle samples for even counts).
///
/// # Panics
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The three quartile cut points of `values`, by the "exclusive" method
/// Python's `statistics.quantiles(values, n=4)` uses. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(cuts)
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the driver compares against a metric's bound. `None` below two
/// samples or for a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The highest percentile of `sorted_values` that still has at least ten
/// samples beyond it, as `(percentile in 0..100, value)`. With fewer than
/// eleven samples no percentile qualifies and the maximum is returned as
/// percentile 100.
///
/// # Panics
/// Panics if `sorted_values` is empty.
pub fn tail_percentile(sorted_values: &[f64]) -> (f64, f64) {
    let n = sorted_values.len();
    assert!(n > 0, "tail percentile of no samples");
    if n < 11 {
        return (100.0, sorted_values[n - 1]);
    }
    let index = n - 11;
    (100.0 * (index + 1) as f64 / n as f64, sorted_values[index])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 30, 20], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 30.0, 20.0]).unwrap(), [10.0, 20.0, 30.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]).unwrap(), [0.75, 1.5, 2.25]);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let share = iqr_share(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert!((share - 1.0).abs() < 1e-12);
        assert!(iqr_share(&[0.0, 0.0, 0.0]).is_none());
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, value) = tail_percentile(&v);
        assert_eq!(value, 990.0);
        assert!((p - 99.0).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        // Too few samples: the maximum, labelled as such.
        assert_eq!(tail_percentile(&[1.0, 3.0, 5.0]), (100.0, 5.0));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&eleven).1, 1.0);
    }
}
