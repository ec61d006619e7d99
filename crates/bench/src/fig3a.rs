//! Figure 3a: "the effect of journaling metadata updates; 'segment(s)' is
//! the number of journal segments dispatched to disk at once", normalized
//! to 1 client that creates 100 K files with journaling off.
//!
//! Paper shape: slowdown of the slowest client grows with client count for
//! every configuration; mid-sized dispatch windows (10, 30) are worst;
//! dispatch 40 (the recommended setting) approaches dispatch 1; the "no
//! journal" curve also degrades (~0.3× per client) because the MDS peaks
//! at ~3000 ops/s.

use cudele_mds::MdLogConfig;
use cudele_sim::{render_plot, render_table, Nanos, Series};
use cudele_workloads::CreateHeavy;

use crate::world::{CreateKind, World};
use crate::Scale;

/// The dispatch configurations the figure sweeps (`None` = journal off).
pub const CONFIGS: [(&str, Option<u32>); 5] = [
    ("no journal", None),
    ("1 segment", Some(1)),
    ("10 segments", Some(10)),
    ("30 segments", Some(30)),
    ("40 segments", Some(40)),
];

/// The figure's curves and rendered table.
#[derive(Debug, Clone)]
pub struct Fig3a {
    pub series: Vec<Series>,
    pub rendered: String,
}

impl Fig3a {
    /// Slowdown of a named configuration at the largest client count.
    pub fn final_slowdown(&self, label: &str) -> f64 {
        self.series
            .iter()
            .find(|s| s.label == label)
            .and_then(|s| s.last_y())
            .unwrap_or_else(|| panic!("no series {label}"))
    }
}

fn run_point(clients: u32, files: u64, dispatch: Option<u32>) -> Nanos {
    let mdlog = dispatch.map(|d| MdLogConfig {
        dispatch_size: d,
        ..MdLogConfig::default()
    });
    World::calibrated(mdlog)
        .run_creates(clients, files, CreateKind::Rpc)
        .report
        .slowest()
}

/// Runs the figure at `scale`.
pub fn run(scale: Scale) -> Fig3a {
    let files = scale.files_per_client;
    // Baseline: 1 client, journal off.
    let baseline = run_point(1, files, None);

    let mut series = Vec::new();
    for (label, dispatch) in CONFIGS {
        let mut s = Series::new(label);
        for point in CreateHeavy::paper_sweep() {
            let t = run_point(point.clients, files, dispatch);
            s.push(
                point.clients as f64,
                t.as_secs_f64() / baseline.as_secs_f64(),
            );
        }
        series.push(s);
    }

    let mut rendered = String::from(
        "Figure 3a: slowdown of the slowest client vs. client count for\n\
         journal dispatch sizes, normalized to 1 client with journaling\n\
         off (lower is better)\n\n",
    );
    rendered.push_str(&render_table("clients", &series));
    rendered.push('\n');
    rendered.push_str(&render_plot(&series, 60, 16));
    Fig3a { series, rendered }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let f = run(Scale {
            files_per_client: 1_000,
            runs: 1,
        });
        // Every journaled configuration is slower than no-journal at every
        // client count.
        let no_journal = &f.series[0];
        for s in &f.series[1..] {
            for (i, &(_, y, _)) in s.points.iter().enumerate() {
                assert!(
                    y >= no_journal.points[i].1 - 1e-9,
                    "{} at point {i}: {y} < {}",
                    s.label,
                    no_journal.points[i].1
                );
            }
        }
        // Mid-sized dispatch windows are worst; 40 approaches 1.
        let d1 = f.final_slowdown("1 segment");
        let d10 = f.final_slowdown("10 segments");
        let d30 = f.final_slowdown("30 segments");
        let d40 = f.final_slowdown("40 segments");
        assert!(d10 > d1 && d10 > d30, "d1={d1} d10={d10} d30={d30}");
        assert!(d30 > d40, "d30={d30} d40={d40}");
        assert!(d40 < d1, "d40={d40} should approach/beat d1={d1}");

        // Slowdowns grow with client count (saturation).
        for s in &f.series {
            let first = s.points.first().unwrap().1;
            let last = s.points.last().unwrap().1;
            assert!(
                last > 2.0 * first,
                "{} did not degrade: {first} -> {last}",
                s.label
            );
        }

        // The no-journal curve saturates against the ~3000 ops/s MDS peak:
        // at 20 clients, slowest-client slowdown ~ 20 * 614 / 3000 ~ 4.1x.
        let nj = f.final_slowdown("no journal");
        assert!((nj - 4.1).abs() < 0.5, "no-journal final {nj}");
    }

    #[test]
    fn baseline_is_one() {
        let f = run(Scale {
            files_per_client: 500,
            runs: 1,
        });
        let first = f.series[0].points.first().unwrap().1;
        assert!((first - 1.0).abs() < 0.05, "baseline {first}");
    }
}
