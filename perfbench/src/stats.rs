//! Order statistics the benchmark reports.

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Mean of `values`, 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail the sample supports: the highest whole percentile whose
/// nearest-rank value still has at least [`TAIL_BEYOND`] samples above
/// its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, 50..=99.
    pub percentile: u32,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile in 50..=99 with at least [`TAIL_BEYOND`]
/// samples ranked beyond its nearest-rank value; `None` when even the
/// median has fewer (fewer than 20 samples).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (50..=99u32).rev().find_map(|p| {
        // Nearest rank: the smallest rank r with r/n >= p/100.
        let rank = (p as usize * n).div_ceil(100).max(1);
        let beyond = n - rank;
        (beyond >= TAIL_BEYOND).then(|| Tail {
            percentile: p,
            value: v[rank - 1],
            beyond,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90, 90.0, 10));

        let fifty: Vec<f64> = (1..=50).rev().map(f64::from).collect();
        let t = tail(&fifty).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (80, 40.0, 10));

        // 20 samples: only the median (rank 10) leaves ten beyond it.
        let few: Vec<f64> = (0..20).map(f64::from).collect();
        let t = tail(&few).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50, 9.0, 10));
        assert!(tail(&few[..19]).is_none());
    }

    #[test]
    fn tail_never_reports_fewer_than_ten_beyond() {
        for n in 20..400 {
            let v: Vec<f64> = (0..n).map(f64::from).collect();
            let t = tail(&v).unwrap();
            assert!(t.beyond >= TAIL_BEYOND, "n = {n}");
            assert_eq!(v.iter().filter(|&&x| x > t.value).count(), t.beyond);
            if t.percentile < 99 {
                let next = (t.percentile as usize + 1) * n as usize;
                assert!(n as usize - next.div_ceil(100) < TAIL_BEYOND, "n = {n}");
            }
        }
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
