//! Order statistics with their sample counts, and geometric means.

/// A percentile of `samples` values: `beyond` of them lie strictly above
/// its rank, so a tail percentile is trustworthy only when `beyond` is at
/// least ten.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<Pct> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(Pct {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Median of `xs` (the mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Geometric mean of positive ratios; 1 when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_report_their_sample_counts() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&xs, 90.0).unwrap();
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.samples, 100);
        assert_eq!(p90.beyond, 10);
        let p50 = percentile(&xs, 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (50.0, 50));
        // Order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 90.0), Some(p90));
        // Too few samples leave too few beyond the tail.
        let small = percentile(&xs[..20], 90.0).unwrap();
        assert_eq!((small.value, small.samples, small.beyond), (18.0, 20, 2));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 90.0).unwrap().value, 7.0);
    }

    #[test]
    fn medians_and_geomeans() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[0.9, 0.9, 0.9]) - 0.9).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }
}
