//! `cudele-bench timeline` — a terminal explorer for `cudele-timeline/v1`
//! files (`mdbench --timeline-out`).
//!
//! The default view renders one sparkline row per series over the file's
//! global window span (downsampled to at most [`SPARK_COLS`] columns),
//! the annotation list (crash, detection, takeover, checkpoint
//! publication markers), and the SLO outcome table. `--series NAME`
//! switches to a per-window table of a single series, with annotations
//! interleaved at their window. Output is plain text and fully
//! deterministic: the same file always renders the same bytes.

use cudele_obs::slo::SloOutcome;
use cudele_obs::timeline::{PointStat, SeriesSnap, TimelineSnapshot};

/// Sparkline width cap: longer spans are downsampled by taking the
/// maximum plotted value per column.
pub const SPARK_COLS: u64 = 64;

const SPARK_RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// The usage string printed on `--help` or a bad invocation.
pub const USAGE: &str = "usage: cudele-bench timeline FILE [--series NAME]\n\nRenders a cudele-timeline/v1 file (mdbench --timeline-out): one\nsparkline per series over virtual time, annotations, and SLO outcomes.\n`--series NAME` prints the per-window table of one series instead.";

/// Parsed `timeline` subcommand arguments.
#[derive(Debug, Clone)]
pub struct ViewConfig {
    /// The `cudele-timeline/v1` file to render.
    pub path: String,
    /// Render a single series as a per-window table instead.
    pub series: Option<String>,
}

/// Parses the argument list after the subcommand name. `Err` carries the
/// message to print before the usage string; `--help` yields
/// `Err(String::new())`.
pub fn parse_args(argv: &[String]) -> Result<ViewConfig, String> {
    let mut path = None;
    let mut series = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--series" => {
                series = Some(
                    argv.get(i + 1)
                        .cloned()
                        .ok_or_else(|| "--series requires a value".to_string())?,
                );
                i += 2;
            }
            other if other.starts_with("--") => return Err(format!("unknown argument {other:?}")),
            other => {
                if path.replace(other.to_string()).is_some() {
                    return Err("exactly one FILE expected".to_string());
                }
                i += 1;
            }
        }
    }
    Ok(ViewConfig {
        path: path.ok_or_else(|| "a timeline FILE is required".to_string())?,
        series,
    })
}

/// Reads and renders the configured file.
pub fn run(cfg: &ViewConfig) -> Result<String, String> {
    let body = std::fs::read_to_string(&cfg.path).map_err(|e| format!("{}: {e}", cfg.path))?;
    render(&body, cfg.series.as_deref()).map_err(|e| format!("{}: {e}", cfg.path))
}

/// Renders a `cudele-timeline/v1` document: the overview, or `series`'s
/// per-window table. Any text is an input: what does not parse, or names
/// no such series, is an `Err`.
pub fn render(body: &str, series: Option<&str>) -> Result<String, String> {
    let snap = TimelineSnapshot::parse(body)?;
    match series {
        Some(name) => render_series_table(&snap, name),
        None => Ok(render_overview(&snap)),
    }
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn format_value(v: f64) -> String {
    if !v.is_finite() {
        "-".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1_000_000.0 || v.abs() < 0.01 {
        format!("{v:.3e}")
    } else if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// One sparkline: the series' plot values over `[lo, hi]` windows,
/// downsampled column-max, `·` where no window was recorded. The column
/// arithmetic is `u128`: a span of windows near 2^64 must not overflow.
fn sparkline(s: &SeriesSnap, lo: u64, hi: u64) -> String {
    let span = u128::from(hi - lo) + 1;
    let cols = span.min(u128::from(SPARK_COLS));
    // Column c covers windows [lo + c*span/cols, lo + (c+1)*span/cols).
    let mut col_max: Vec<Option<f64>> = vec![None; cols as usize];
    for p in &s.points {
        if p.window < lo || p.window > hi {
            continue;
        }
        let c = (u128::from(p.window - lo) * cols / span) as usize;
        let v = p.stat.plot_value();
        col_max[c] = Some(match col_max[c] {
            Some(m) => m.max(v),
            None => v,
        });
    }
    let peak = col_max
        .iter()
        .flatten()
        .fold(0.0_f64, |a, &b| a.max(b))
        .max(1e-12);
    col_max
        .iter()
        .map(|c| match c {
            None => '·',
            Some(v) => {
                let i = ((v / peak) * 7.0).round() as usize;
                SPARK_RAMP[i.min(7)]
            }
        })
        .collect()
}

fn push_slo_table(out: &mut String, slos: &[SloOutcome]) {
    if slos.is_empty() {
        return;
    }
    out.push_str("slo outcomes:\n");
    for o in slos {
        let verdict = if o.met { "met" } else { "MISSED" };
        out.push_str(&format!(
            "  [{verdict}] {spec}  ({bad}/{windows} bad windows, {compliance:.2}% compliant, {alerts} alert{s})\n",
            spec = o.spec,
            bad = o.bad,
            windows = o.windows,
            compliance = o.compliance * 100.0,
            alerts = o.alerts.len(),
            s = if o.alerts.len() == 1 { "" } else { "s" },
        ));
        for a in &o.alerts {
            out.push_str(&format!(
                "         alert @ {} (window {}): value {}, burn {:.1}x/{:.1}x",
                format_ns(a.t_ns),
                a.window,
                format_value(a.value),
                a.burn_short,
                a.burn_long,
            ));
            if a.worst_trace_id != 0 {
                out.push_str(&format!(", worst trace {}", a.worst_trace_id));
            }
            out.push('\n');
        }
    }
}

fn render_overview(snap: &TimelineSnapshot) -> String {
    let mut out = String::new();
    let Some((lo, hi)) = snap.window_span() else {
        out.push_str("timeline: empty (no windows recorded)\n");
        push_slo_table(&mut out, &snap.slos);
        return out;
    };
    let w = snap.window_ns;
    out.push_str(&format!(
        "timeline: {} series over windows {lo}..{hi} ({} per window, {} total)\n",
        snap.series.len(),
        format_ns(w),
        format_ns((hi - lo + 1) * w),
    ));
    if snap.windows_dropped > 0 || snap.annotations_dropped > 0 {
        out.push_str(&format!(
            "  WARNING: {} window sample(s) and {} annotation(s) dropped at capacity\n",
            snap.windows_dropped, snap.annotations_dropped
        ));
    }
    let name_w = snap
        .series
        .iter()
        .map(|s| s.name.len())
        .max()
        .unwrap_or(0)
        .max(6);
    for s in &snap.series {
        let peak = s
            .points
            .iter()
            .map(|p| p.stat.plot_value())
            .fold(0.0_f64, f64::max);
        let unit = match s.kind {
            cudele_obs::timeline::SeriesKind::Rate => "peak /s",
            cudele_obs::timeline::SeriesKind::Gauge => "peak",
            cudele_obs::timeline::SeriesKind::Latency => "peak p99 ns",
        };
        out.push_str(&format!(
            "  {name:<name_w$} {spark}  {unit} {peak}\n",
            name = s.name,
            spark = sparkline(s, lo, hi),
            peak = format_value(peak),
        ));
    }
    if !snap.annotations.is_empty() {
        out.push_str("annotations:\n");
        for a in &snap.annotations {
            out.push_str(&format!(
                "  @ {t:>10} (window {w}) {name}: {detail}\n",
                t = format_ns(a.at.0),
                w = a.at.0 / snap.window_ns.max(1),
                name = a.name,
                detail = a.detail,
            ));
        }
    }
    push_slo_table(&mut out, &snap.slos);
    out
}

fn render_series_table(snap: &TimelineSnapshot, name: &str) -> Result<String, String> {
    let s = snap.series(name).ok_or_else(|| {
        let known: Vec<&str> = snap.series.iter().map(|s| s.name.as_str()).collect();
        format!("no series {name:?}; file has: {}", known.join(", "))
    })?;
    let mut out = String::new();
    out.push_str(&format!(
        "series {name} ({kind:?}), {n} window(s) of {w}:\n",
        kind = s.kind,
        n = s.points.len(),
        w = format_ns(snap.window_ns),
    ));
    for p in &s.points {
        // Interleave annotations that fall inside this window.
        for a in &snap.annotations {
            if a.at.0 / snap.window_ns.max(1) == p.window {
                out.push_str(&format!(
                    "  -- @ {} {}: {}\n",
                    format_ns(a.at.0),
                    a.name,
                    a.detail
                ));
            }
        }
        let stat = match &p.stat {
            PointStat::Rate { count, per_s } => {
                format!("count {count}  rate {}/s", format_value(*per_s))
            }
            PointStat::Gauge { last } => format!("last {}", format_value(*last)),
            PointStat::Latency {
                count,
                p50,
                p95,
                p99,
                max,
                worst_trace_id,
            } => {
                let mut t = format!(
                    "count {count}  p50 {}  p95 {}  p99 {}  max {}",
                    format_ns(*p50 as u64),
                    format_ns(*p95 as u64),
                    format_ns(*p99 as u64),
                    format_ns(*max),
                );
                if *worst_trace_id != 0 {
                    t.push_str(&format!("  worst trace {worst_trace_id}"));
                }
                t
            }
        };
        out.push_str(&format!(
            "  w{w:<6} @ {t:>10}  {stat}\n",
            w = p.window,
            t = format_ns(p.t_ns),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudele_obs::timeline::Timeline;
    use cudele_sim::Nanos;

    fn sample_snapshot() -> TimelineSnapshot {
        let tl = Timeline::default();
        for i in 0..20u64 {
            tl.add("bench.ops", Nanos(i * 5_000_000), 10 + i);
            tl.sample("bench.op_latency.ns", Nanos(i * 5_000_000), 1000 * (i + 1));
        }
        tl.annotate("mds.crash", Nanos(42_000_000), "epoch 1 active down");
        tl.snapshot()
    }

    #[test]
    fn overview_renders_sparkline_and_annotations() {
        let out = render_overview(&sample_snapshot());
        assert!(out.contains("bench.ops"), "{out}");
        assert!(out.contains('█'), "{out}");
        assert!(out.contains("mds.crash"), "{out}");
        // Deterministic render.
        assert_eq!(out, render_overview(&sample_snapshot()));
    }

    #[test]
    fn missing_windows_render_as_dots() {
        let tl = Timeline::default();
        tl.add("gap", Nanos(0), 1);
        tl.add("gap", Nanos(50_000_000), 1);
        let snap = tl.snapshot();
        let out = render_overview(&snap);
        assert!(out.contains('·'), "{out}");
    }

    #[test]
    fn series_table_interleaves_annotations() {
        let snap = sample_snapshot();
        let out = render_series_table(&snap, "bench.op_latency.ns").unwrap();
        assert!(out.contains("p99"), "{out}");
        assert!(out.contains("mds.crash"), "{out}");
        assert!(render_series_table(&snap, "nope").is_err());
    }

    #[test]
    fn parse_args_handles_series_and_errors() {
        let argv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let cfg = parse_args(&argv(&["t.json", "--series", "bench.ops"])).unwrap();
        assert_eq!(cfg.path, "t.json");
        assert_eq!(cfg.series.as_deref(), Some("bench.ops"));
        assert!(parse_args(&argv(&[])).is_err());
        assert!(parse_args(&argv(&["a", "b"])).is_err());
        assert!(parse_args(&argv(&["--help"])).unwrap_err().is_empty());
    }
}
