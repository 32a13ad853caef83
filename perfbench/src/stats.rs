//! Order statistics over measured samples.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `pct` % of the samples at or below it. `None`
/// for no samples.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// The 1-based nearest rank of `pct` among `n` samples, clamped to
/// `1..=n`. The tiny slack keeps `0.99 × 100` from rounding up to 100.
fn rank(n: usize, pct: f64) -> usize {
    let exact = pct / 100.0 * n as f64;
    ((exact - 1e-9).ceil().max(1.0) as usize).min(n)
}

/// How many samples lie strictly beyond the nearest-rank `pct`.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// Median (nearest rank) of unsorted values; `None` for none.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Geometric mean of positive values; `None` for none.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_edge_cases() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.1), Some(2.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), Some(99.0));
        assert_eq!(percentile(&hundred, 100.0), Some(100.0));
        assert_eq!(percentile(&hundred, 0.0), Some(1.0));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
        assert_eq!(percentile(&thousand, 99.9), Some(999.0));
    }

    #[test]
    fn samples_beyond_the_rank() {
        assert_eq!(beyond(0, 99.0), 0);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1000, 100.0), 0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        let g = geomean(&[1.0, 4.0]).expect("two values");
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }
}
