//! Small statistics and reporting helpers shared by all experiment
//! harnesses: mean/standard deviation over repeated seeded runs, slowdown
//! normalization, and plain-text series rendering that mirrors the rows a
//! figure plots.

use crate::time::Nanos;

/// Sample mean of a slice. Returns 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (n-1 denominator, matching the paper's
/// error-bar convention over three runs). Returns 0 for fewer than two
/// samples.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// A summary of repeated measurements of one quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n-1).
    pub std: f64,
    /// Number of samples.
    pub n: usize,
}

/// Summarizes repeated runs.
pub fn summarize(xs: &[f64]) -> Summary {
    Summary {
        mean: mean(xs),
        std: stddev(xs),
        n: xs.len(),
    }
}

/// The `q`-th percentile (`0..=100`) of a sample, by linear interpolation
/// between closest ranks (the "exclusive of extrapolation" convention
/// numpy calls `linear`). The input need not be sorted. Returns NaN for an
/// empty slice; a single-element slice returns that element for every `q`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    percentile_of_sorted(&sorted, q)
}

/// [`percentile`] over a non-empty sample already in ascending order — for
/// callers that read several percentiles off one sort.
pub(crate) fn percentile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    let q = q.clamp(0.0, 100.0);
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] + (sorted[hi] - sorted[lo]) * frac
    }
}

/// Median ([`percentile`] at 50).
pub fn p50(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// 95th percentile.
pub fn p95(xs: &[f64]) -> f64 {
    percentile(xs, 95.0)
}

/// 99th percentile.
pub fn p99(xs: &[f64]) -> f64 {
    percentile(xs, 99.0)
}

/// Slowdown of `t` relative to `baseline` (1.0 = as fast as baseline,
/// 2.0 = twice as slow). This is the normalization used throughout the
/// paper's figures.
pub fn slowdown(t: Nanos, baseline: Nanos) -> f64 {
    assert!(baseline > Nanos::ZERO, "baseline must be positive");
    t.as_secs_f64() / baseline.as_secs_f64()
}

/// Speedup of `t` relative to `baseline` (inverse of slowdown).
pub fn speedup(t: Nanos, baseline: Nanos) -> f64 {
    assert!(t > Nanos::ZERO, "time must be positive");
    baseline.as_secs_f64() / t.as_secs_f64()
}

/// One plotted curve: a label and `(x, y, y_err)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Curve label (legend entry).
    pub label: String,
    /// `(x, y, y_err)` points in insertion order.
    pub points: Vec<(f64, f64, f64)>,
}

impl Series {
    /// An empty curve with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point with zero error.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y, 0.0));
    }

    /// Appends a point with an error bar.
    pub fn push_err(&mut self, x: f64, y: f64, err: f64) {
        self.points.push((x, y, err));
    }

    /// Mean of the y values — the paper summarizes some curves this way
    /// ("on average, 1.42x per client").
    pub fn mean_y(&self) -> f64 {
        mean(&self.points.iter().map(|p| p.1).collect::<Vec<_>>())
    }

    /// Mean of the per-point error bars — the paper's "a standard deviation
    /// of 0.06" summaries average the per-x-value standard deviations.
    pub fn mean_err(&self) -> f64 {
        mean(&self.points.iter().map(|p| p.2).collect::<Vec<_>>())
    }

    /// The y value at the largest x (e.g. "at 20 clients").
    pub fn last_y(&self) -> Option<f64> {
        self.points
            .iter()
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .map(|p| p.1)
    }
}

/// Renders a set of curves as an aligned text table: one row per x value,
/// one `mean +/- std` column per series. This is the textual equivalent of
/// a figure; EXPERIMENTS.md embeds these tables.
pub fn render_table(x_label: &str, series: &[Series]) -> String {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    // Collect the union of x values, keyed by total order via bit pattern
    // of the (finite) f64.
    let mut xs: Vec<f64> = Vec::new();
    for s in series {
        for &(x, _, _) in &s.points {
            if !xs.contains(&x) {
                xs.push(x);
            }
        }
    }
    xs.sort_by(|a, b| a.total_cmp(b));

    let mut cols: Vec<BTreeMap<u64, (f64, f64)>> = Vec::with_capacity(series.len());
    for s in series {
        let mut m = BTreeMap::new();
        for &(x, y, e) in &s.points {
            m.insert(x.to_bits(), (y, e));
        }
        cols.push(m);
    }

    let mut header: Vec<String> = vec![x_label.to_string()];
    header.extend(series.iter().map(|s| s.label.clone()));

    let mut rows: Vec<Vec<String>> = Vec::with_capacity(xs.len());
    for &x in &xs {
        let mut row = vec![trim_float(x)];
        for col in &cols {
            match col.get(&x.to_bits()) {
                Some(&(y, e)) if e > 0.0 => row.push(format!("{:.3} ±{:.3}", y, e)),
                Some(&(y, _)) => row.push(format!("{y:.3}")),
                None => row.push("-".to_string()),
            }
        }
        rows.push(row);
    }

    // Column widths.
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in &rows {
        for c in 0..ncols {
            widths[c] = widths[c].max(row[c].chars().count());
        }
    }

    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[String]| {
        for (c, cell) in cells.iter().enumerate() {
            if c > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{:>width$}", cell, width = widths[c]);
        }
        out.push('\n');
    };
    write_row(&mut out, &header);
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    write_row(&mut out, &rule);
    for row in &rows {
        write_row(&mut out, row);
    }
    out
}

fn trim_float(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        // Sample std of {2,4,4,4,5,5,7,9} is ~2.138.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((stddev(&xs) - 2.138).abs() < 0.001);
    }

    #[test]
    fn percentile_empty_is_nan() {
        assert!(percentile(&[], 50.0).is_nan());
        assert!(p50(&[]).is_nan());
        assert!(p95(&[]).is_nan());
        assert!(p99(&[]).is_nan());
    }

    #[test]
    fn percentile_single_element_for_all_q() {
        for q in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.5], q), 7.5);
        }
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        // Unsorted on purpose.
        let xs = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert_eq!(p50(&xs), 25.0); // halfway between ranks 1 and 2
                                    // rank = 0.95 * 3 = 2.85 -> 30 + 0.85 * 10.
        assert!((p95(&xs) - 38.5).abs() < 1e-12);
        assert!((p99(&xs) - 39.7).abs() < 1e-12);
        // Out-of-range q clamps.
        assert_eq!(percentile(&xs, -5.0), 10.0);
        assert_eq!(percentile(&xs, 250.0), 40.0);
    }

    #[test]
    fn slowdown_speedup_inverse() {
        let b = Nanos::from_secs(2);
        let t = Nanos::from_secs(6);
        assert_eq!(slowdown(t, b), 3.0);
        assert!((speedup(t, b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn series_summaries() {
        let mut s = Series::new("x");
        s.push_err(1.0, 1.0, 0.1);
        s.push_err(2.0, 3.0, 0.3);
        assert_eq!(s.mean_y(), 2.0);
        assert!((s.mean_err() - 0.2).abs() < 1e-12);
        assert_eq!(s.last_y(), Some(3.0));
    }

    #[test]
    fn table_renders_union_of_xs() {
        let mut a = Series::new("a");
        a.push(1.0, 10.0);
        a.push(2.0, 20.0);
        let mut b = Series::new("b");
        b.push_err(2.0, 5.0, 0.5);
        let t = render_table("clients", &[a, b]);
        assert!(t.contains("clients"));
        assert!(t.contains("10.000"));
        assert!(t.contains("5.000 ±0.500"));
        // Row for x=1 has a dash for series b.
        let row1 = t.lines().find(|l| l.trim_start().starts_with('1')).unwrap();
        assert!(row1.contains('-'));
    }

    #[test]
    fn summarize_reports_n() {
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.mean, 2.0);
    }
}
