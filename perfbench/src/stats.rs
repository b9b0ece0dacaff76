//! Order statistics the benchmark reports: median, quartiles (the same
//! "exclusive" method as Python's `statistics.quantiles(values, n=4)`),
//! IQR as a share of the median, and nearest-rank percentiles with the
//! "at least ten samples beyond" rule for the reported tail.

/// Samples a percentile must leave beyond it before it is reported.
pub const TAIL_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by Python's default `exclusive` method:
/// positions `i·(n+1)/4`, clamped to `[1, n-1]`, linearly interpolated.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Nearest-rank percentile: the sample at 1-based rank `ceil(p/100 · n)`,
/// with the number of samples strictly beyond that rank.
pub fn percentile(values: &[f64], p: f64) -> Option<(f64, usize)> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    // The epsilon keeps exact ranks such as 99.9% of 10 000 from
    // rounding up through floating-point error.
    let rank = ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    Some((v[rank - 1], n - rank))
}

/// The reported tail of a timing: the highest candidate percentile
/// (99.9, 99, 95, 90, 75, 50) that leaves at least [`TAIL_BEYOND`]
/// samples beyond it. With too few samples for even the median, the
/// maximum is returned under percentile 100.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile chosen.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Sample count it was taken from.
    pub n: usize,
}

/// See [`Tail`].
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    for pct in TAIL_CANDIDATES {
        if let Some((value, beyond)) = percentile(values, pct) {
            if beyond >= TAIL_BEYOND {
                return Tail { pct, value, n };
            }
        }
    }
    let value = values.iter().copied().fold(f64::NAN, f64::max);
    Tail {
        pct: 100.0,
        value: if value.is_nan() { 0.0 } else { value },
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 7.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn iqr_share_is_relative_to_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile_counts_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some((990.0, 10)));
        assert_eq!(percentile(&v, 50.0), Some((500.0, 500)));
        assert_eq!(percentile(&[5.0], 99.0), Some((5.0, 0)));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_takes_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 99.0);
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        // p99 of 999 is rank 990 with 9 beyond; p95 is rank 950.
        let t = tail(&v);
        assert_eq!((t.pct, t.value, t.n), (95.0, 950.0, 999));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 99.9);
        let t = tail(&[1.0, 3.0, 2.0]);
        assert_eq!((t.pct, t.value), (100.0, 3.0));
    }
}
