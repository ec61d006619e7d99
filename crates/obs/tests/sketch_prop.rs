//! The log-bucket sketch behind `Histogram` and every timeline latency
//! window, against a dense 65-bucket reference kept here: whatever way
//! the sketch holds its counts (a short inline run, or every bucket once
//! a sample lands outside the run or a count passes `u32`), count, sum,
//! min, max and every percentile agree to the bit — after plain
//! recording, after merges in random splits, and per window of a latency
//! series.

use cudele_obs::timeline::PointStat;
use cudele_obs::{Histogram, Registry};
use cudele_sim::Nanos;
use proptest::prelude::*;

/// Every bucket counted, as the sketch's first form did.
#[derive(Debug, Clone)]
struct Dense {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Dense {
    fn new() -> Dense {
        Dense {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn record(&mut self, v: u64) {
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Doubles every count: what merging a histogram into itself does.
    fn double(&mut self) {
        for b in &mut self.buckets {
            *b *= 2;
        }
        self.count *= 2;
        self.sum = self.sum.saturating_add(self.sum);
    }

    fn percentile(&self, q: f64) -> f64 {
        let (count, min, max) = (self.count, self.min, self.max);
        if count == 0 {
            return 0.0;
        }
        if count == 1 || min == max {
            return min as f64;
        }
        let rank = (q / 100.0).clamp(0.0, 1.0) * (count as f64 - 1.0);
        if rank <= 0.0 {
            return min as f64;
        }
        if rank >= count as f64 - 1.0 {
            return max as f64;
        }
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 - 1.0 >= rank {
                let (lo, hi) = match i {
                    0 => (0, 0),
                    64 => (1u64 << 63, u64::MAX),
                    _ => (1u64 << (i - 1), (1u64 << i) - 1),
                };
                let lo = lo.max(min) as f64;
                let hi = hi.min(max) as f64;
                let frac = if c > 1 {
                    ((rank - cum as f64) / (c as f64 - 1.0)).clamp(0.0, 1.0)
                } else {
                    0.5
                };
                return (lo + frac * (hi - lo)).clamp(min as f64, max as f64);
            }
            cum += c;
        }
        max as f64
    }
}

const QS: [f64; 9] = [0.0, 1.0, 25.0, 50.0, 75.0, 95.0, 99.0, 99.9, 100.0];

fn assert_same(h: &Histogram, d: &Dense) -> Result<(), TestCaseError> {
    prop_assert_eq!(h.count(), d.count);
    prop_assert_eq!(h.sum(), d.sum);
    prop_assert_eq!(h.min(), if d.count == 0 { 0 } else { d.min });
    prop_assert_eq!(h.max(), d.max);
    for q in QS {
        prop_assert_eq!(
            h.percentile(q).to_bits(),
            d.percentile(q).to_bits(),
            "p{} of {} samples",
            q,
            d.count
        );
    }
    Ok(())
}

/// Sample streams of every shape the sketch must hold: inside one run
/// (within a factor of 8 of a base), straddling it (a few octaves wide),
/// anywhere in the `u64` range, and the extremes.
fn stream() -> impl Strategy<Value = Vec<u64>> {
    let raw = || proptest::collection::vec(any::<u64>(), 0..60);
    // `[2^e, 2^e + span)` for each raw draw.
    let within = |e: u32, span: u64, raw: Vec<u64>| -> Vec<u64> {
        raw.iter().map(|r| (1u64 << e) + r % span).collect()
    };
    let narrow = (0u32..61, raw()).prop_map(move |(e, raw)| within(e, 7 << e, raw));
    let straddling =
        (0u32..52, raw()).prop_map(move |(e, raw)| within(e, (1 << (e + 12)) - (1 << e), raw));
    let anywhere = proptest::collection::vec((0u8..5, any::<u64>()), 0..60).prop_map(|draws| {
        draws
            .into_iter()
            .map(|(kind, r)| match kind {
                0 => 0,
                1 => u64::MAX,
                2 => 1,
                3 => r,
                _ => 1 << (r % 64),
            })
            .collect()
    });
    prop_oneof![narrow, straddling, anywhere]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Recording a stream sample by sample.
    #[test]
    fn recording_matches_the_dense_reference(values in stream()) {
        let (h, mut d) = (Histogram::default(), Dense::new());
        for &v in &values {
            h.record(v);
            d.record(v);
        }
        assert_same(&h, &d)?;
    }

    /// Splitting the stream at random points, recording each part on its
    /// own and merging the parts in order (into an empty histogram first,
    /// so the copy-into-empty path runs too).
    #[test]
    fn merges_in_random_splits_match_the_dense_reference(
        values in stream(),
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (values.len() + 1)).collect();
        cuts.push(0);
        cuts.push(values.len());
        cuts.sort_unstable();
        let (merged, mut d) = (Histogram::default(), Dense::new());
        for part in cuts.windows(2) {
            let h = Histogram::default();
            for &v in &values[part[0]..part[1]] {
                h.record(v);
                d.record(v);
            }
            merged.merge_from(&h);
        }
        assert_same(&merged, &d)?;
    }

    /// Counts past `u32`: merging a histogram into itself doubles every
    /// count, so 33 merges put each past `2^32`.
    #[test]
    fn counts_past_u32_match_the_dense_reference(
        values in stream(),
        doublings in 30u32..36,
    ) {
        let (h, mut d) = (Histogram::default(), Dense::new());
        for &v in values.iter().take(8) {
            h.record(v);
            d.record(v);
        }
        for _ in 0..doublings {
            h.merge_from(&h);
            d.double();
        }
        assert_same(&h, &d)?;
        // Recording on top of the large counts.
        for &v in values.iter().skip(8) {
            h.record(v);
            d.record(v);
        }
        assert_same(&h, &d)?;
    }

    /// A latency series' points, window by window: count, p50/p95/p99 to
    /// the bit, max and the trace of the first occurrence of the max —
    /// recorded serially, and split across per-task registries merged in
    /// order.
    #[test]
    fn latency_points_match_the_dense_reference(
        samples in proptest::collection::vec((0u64..4, any::<usize>()), 0..120),
        values in stream(),
        tasks in 1usize..=3,
    ) {
        const WINDOW: u64 = 1_000;
        if values.is_empty() {
            return Ok(());
        }
        // (window, value); sample i carries trace id i + 1.
        let samples: Vec<(u64, u64)> = samples
            .iter()
            .map(|&(w, i)| (w, values[i % values.len()]))
            .collect();
        let mut reference: Vec<(Dense, u64)> = vec![(Dense::new(), 0); 4];
        for (i, &(w, v)) in samples.iter().enumerate() {
            let (d, worst) = &mut reference[w as usize];
            if d.count == 0 || v > d.max {
                *worst = i as u64 + 1;
            }
            d.record(v);
        }
        let record = |reg: &Registry, part: &[(u64, u64)]| {
            let lat = reg.timeline().series("lat");
            for &(w, v) in part {
                let root = reg.trace_root(0);
                lat.sample(Nanos(w * WINDOW + 7), v, root.trace_id);
            }
        };
        let serial = Registry::new();
        serial.timeline().configure(Nanos(WINDOW), 64);
        record(&serial, &samples);
        let merged = Registry::new();
        merged.timeline().configure(Nanos(WINDOW), 64);
        for part in samples.chunks(samples.len().div_ceil(tasks).max(1)) {
            let task = Registry::new();
            task.timeline().configure(Nanos(WINDOW), 64);
            record(&task, part);
            merged.merge_from(&task);
        }
        for reg in [&serial, &merged] {
            let snap = reg.timeline().snapshot();
            let points = snap.series("lat").map_or(&[][..], |s| &s.points[..]);
            let expected: Vec<_> = (0..4).filter(|&w| reference[w].0.count > 0).collect();
            prop_assert_eq!(points.len(), expected.len());
            for (p, &w) in points.iter().zip(&expected) {
                let (d, worst) = &reference[w];
                prop_assert_eq!(p.window, w as u64);
                let PointStat::Latency { count, p50, p95, p99, max, worst_trace_id } = p.stat else {
                    return Err(TestCaseError::fail("not a latency point"));
                };
                prop_assert_eq!(count, d.count);
                prop_assert_eq!(p50.to_bits(), d.percentile(50.0).to_bits());
                prop_assert_eq!(p95.to_bits(), d.percentile(95.0).to_bits());
                prop_assert_eq!(p99.to_bits(), d.percentile(99.0).to_bits());
                prop_assert_eq!(max, d.max);
                prop_assert_eq!(worst_trace_id, *worst);
            }
        }
    }
}
