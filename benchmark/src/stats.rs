//! Median and quartiles, computed the way Python's `statistics.median` and
//! `statistics.quantiles(values, n=4)` compute them, so the numbers printed
//! here are the numbers an outside checker gets from the same samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q3)`; a single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        assert_eq!(quartiles(&[7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0]), (2.0, 6.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
