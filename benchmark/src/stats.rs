//! Medians, quartiles and the tail percentile a sample can support.

/// Median of `values` (mean of the middle two for an even count).
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the rule the acceptance driver
/// uses). A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The percentiles a tail report may choose from, in per mille, highest
/// first.
const TAIL_CANDIDATES: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest candidate percentile of `sorted` (ascending) that still
/// has at least ten samples beyond it, and its value; falls back to the
/// median when the sample is too small for any tail claim.
pub fn tail_percentile(sorted: &[u64]) -> (f64, u64) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    for pm in TAIL_CANDIDATES {
        // Nearest rank, in integers: ceil(n * pm / 1000).
        let rank = (n * pm).div_ceil(1000);
        if rank >= 1 && n - rank >= 10 {
            return (pm as f64 / 10.0, sorted[rank - 1]);
        }
    }
    (50.0, sorted[(n - 1) / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        // p99 leaves exactly 10 samples beyond (991..=1000); p99.9 leaves 1.
        assert_eq!(tail_percentile(&v), (99.0, 990));
        let v: Vec<u64> = (1..=100_000).collect();
        assert_eq!(tail_percentile(&v), (99.9, 99_900));
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(tail_percentile(&v), (50.0, 10));
        // Too small for any tail claim: the median.
        let v: Vec<u64> = (1..=7).collect();
        assert_eq!(tail_percentile(&v), (50.0, 4));
    }
}
