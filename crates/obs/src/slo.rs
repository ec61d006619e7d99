//! Declarative SLOs over timeline windows, evaluated as multi-window
//! burn rates on the virtual clock.
//!
//! An objective reads like
//!
//! ```text
//! p99(bench.op_latency.ns) < 20ms for 99% of windows
//! rate(bench.ops) > 100/s for 95% of windows
//! ```
//!
//! Evaluation is offline and pure: each window in the evaluation domain
//! is classified good/bad against the threshold, compliance is the good
//! fraction, and alerts fire where the *burn rate* — bad fraction over a
//! trailing window span, divided by the error budget `1 - objective` —
//! exceeds [`ALERT_BURN`] over both a short ([`BURN_SHORT`]) and long
//! ([`BURN_LONG`]) lookback, edge-triggered. That is the classic
//! SRE multiwindow/multi-burn-rate alert transplanted onto virtual time,
//! so same-seed runs alert identically, byte for byte.
//!
//! Domain rules: throughput stats (`rate`, `count`) evaluate every window
//! in the snapshot's global span — a window with no points is a
//! zero-throughput window, which is precisely the failover gap we want
//! alerts to see. Level stats (`p50/p95/p99`, `last`) evaluate only
//! windows where the series recorded — no signal is not a violation.
//!
//! Alerts carry the worst offending sample's `trace_id` from the window
//! (for latency series), linking an alert straight into the
//! critical-path profiler's trace view.

use crate::json::{Float, Value};
use crate::timeline::{PointStat, TimelineSnapshot};

/// Short burn-rate lookback, in windows.
pub const BURN_SHORT: u64 = 3;

/// Long burn-rate lookback, in windows.
pub const BURN_LONG: u64 = 12;

/// Burn-rate threshold: alert when both lookbacks burn error budget at
/// least this many times faster than the objective allows.
pub const ALERT_BURN: f64 = 2.0;

/// The per-window statistic an objective constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloStat {
    /// Median latency of a latency series.
    P50,
    /// 95th-percentile latency of a latency series.
    P95,
    /// 99th-percentile latency of a latency series.
    P99,
    /// Per-second rate of a rate series (missing windows count as 0).
    Rate,
    /// Raw per-window event count (missing windows count as 0).
    Count,
    /// Gauge last-value.
    Last,
}

impl SloStat {
    fn name(self) -> &'static str {
        match self {
            SloStat::P50 => "p50",
            SloStat::P95 => "p95",
            SloStat::P99 => "p99",
            SloStat::Rate => "rate",
            SloStat::Count => "count",
            SloStat::Last => "last",
        }
    }

    /// Whether missing windows evaluate as zero (throughput semantics).
    fn zero_fills(self) -> bool {
        matches!(self, SloStat::Rate | SloStat::Count)
    }
}

/// Comparison direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloOp {
    /// Windows are good when the statistic is strictly below the threshold.
    Lt,
    /// Windows are good when the statistic is strictly above the threshold.
    Gt,
}

/// One parsed objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Statistic the objective constrains.
    pub stat: SloStat,
    /// Timeline series name the objective applies to.
    pub series: String,
    /// Comparison direction against the threshold.
    pub op: SloOp,
    /// Threshold in base units: nanoseconds for latency stats, events
    /// per second for `rate`, raw value otherwise.
    pub threshold: f64,
    /// Required good-window fraction in `(0, 1]`.
    pub objective: f64,
}

impl SloSpec {
    /// Parses `stat(series) <op> value[unit] for N% of windows`.
    /// Units: `ns`/`us`/`ms`/`s` (durations) or `/s` (rates).
    pub fn parse(s: &str) -> Result<SloSpec, String> {
        let err = |m: &str| format!("bad SLO {s:?}: {m}");
        let s = s.trim();
        let open = s.find('(').ok_or_else(|| err("missing '('"))?;
        let close = s.find(')').ok_or_else(|| err("missing ')'"))?;
        if close < open {
            return Err(err("')' before '('"));
        }
        let stat = match &s[..open] {
            "p50" => SloStat::P50,
            "p95" => SloStat::P95,
            "p99" => SloStat::P99,
            "rate" => SloStat::Rate,
            "count" => SloStat::Count,
            "last" => SloStat::Last,
            other => return Err(err(&format!("unknown stat {other:?}"))),
        };
        let series = s[open + 1..close].trim().to_string();
        if series.is_empty() {
            return Err(err("empty series name"));
        }
        let rest = s[close + 1..].trim();
        let (op, rest) = if let Some(r) = rest.strip_prefix('<') {
            (SloOp::Lt, r.trim())
        } else if let Some(r) = rest.strip_prefix('>') {
            (SloOp::Gt, r.trim())
        } else {
            return Err(err("expected '<' or '>'"));
        };
        let (value_part, tail) = match rest.find(" for ") {
            Some(i) => (rest[..i].trim(), rest[i + 5..].trim()),
            None => return Err(err("missing 'for N% of windows'")),
        };
        let threshold = parse_value(value_part).map_err(|m| err(&m))?;
        let pct = tail
            .strip_suffix("% of windows")
            .ok_or_else(|| err("expected 'N% of windows'"))?
            .trim();
        let objective: f64 = pct
            .parse::<f64>()
            .map_err(|_| err(&format!("bad percentage {pct:?}")))?
            / 100.0;
        if !(objective > 0.0 && objective <= 1.0) {
            return Err(err("objective must be in (0, 100]%"));
        }
        Ok(SloSpec {
            stat,
            series,
            op,
            threshold,
            objective,
        })
    }

    /// Canonical rendering (threshold in base units).
    pub fn render(&self) -> String {
        format!(
            "{}({}) {} {} for {}% of windows",
            self.stat.name(),
            self.series,
            match self.op {
                SloOp::Lt => "<",
                SloOp::Gt => ">",
            },
            Float(self.threshold),
            Float(self.objective * 100.0),
        )
    }
}

/// Parses a threshold literal with an optional unit suffix. The value in
/// base units must be finite: `render` could not spell anything else.
fn parse_value(s: &str) -> Result<f64, String> {
    let (num, mult) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = s.strip_suffix("/s") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1e9)
    } else {
        (s, 1.0)
    };
    num.trim()
        .parse::<f64>()
        .ok()
        .map(|v| v * mult)
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("bad value {s:?}"))
}

/// One deterministic alert: the burn-rate condition became true at this
/// window.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// Window index where the burn condition first held.
    pub window: u64,
    /// Window start time, ns.
    pub t_ns: u64,
    /// Budget burn over the short lookback ([`BURN_SHORT`] windows).
    pub burn_short: f64,
    /// Budget burn over the long lookback ([`BURN_LONG`] windows).
    pub burn_long: f64,
    /// The offending window's observed statistic.
    pub value: f64,
    /// Trace id of the window's worst sample (latency series), linking
    /// into the critical-path profiler; 0 when the series carries none.
    pub worst_trace_id: u64,
}

/// One evaluated objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloOutcome {
    /// Canonical spec text.
    pub spec: String,
    /// Windows evaluated.
    pub windows: u64,
    /// Windows violating the threshold.
    pub bad: u64,
    /// Good fraction (1.0 when no windows evaluated).
    pub compliance: f64,
    /// Whether compliance met the objective.
    pub met: bool,
    /// Burn-rate alerts, in firing order.
    pub alerts: Vec<SloAlert>,
}

impl SloOutcome {
    pub(crate) fn from_json(v: &Value) -> Result<SloOutcome, String> {
        let mut alerts = Vec::new();
        for av in v.get("alerts").and_then(|a| a.as_arr()).unwrap_or(&[]) {
            alerts.push(SloAlert {
                window: av.get("w").and_then(|x| x.as_u64()).unwrap_or(0),
                t_ns: av.get("t_ns").and_then(|x| x.as_u64()).unwrap_or(0),
                burn_short: av.get("burn_short").and_then(|x| x.as_f64()).unwrap_or(0.0),
                burn_long: av.get("burn_long").and_then(|x| x.as_f64()).unwrap_or(0.0),
                value: av.get("value").and_then(|x| x.as_f64()).unwrap_or(0.0),
                worst_trace_id: av
                    .get("worst_trace_id")
                    .and_then(|x| x.as_u64())
                    .unwrap_or(0),
            });
        }
        Ok(SloOutcome {
            spec: v
                .get("spec")
                .and_then(|s| s.as_str())
                .ok_or("slo missing spec")?
                .to_string(),
            windows: v.get("windows").and_then(|x| x.as_u64()).unwrap_or(0),
            bad: v.get("bad").and_then(|x| x.as_u64()).unwrap_or(0),
            compliance: v.get("compliance").and_then(|x| x.as_f64()).unwrap_or(1.0),
            met: matches!(v.get("met"), Some(Value::Bool(true))),
            alerts,
        })
    }
}

/// Evaluates `specs` against `snap`. Pure arithmetic over the snapshot —
/// deterministic by construction. Specs referencing absent series yield
/// an outcome with zero windows (vacuously met) for level stats, or an
/// all-bad outcome over the global span for throughput stats.
pub fn evaluate(snap: &TimelineSnapshot, specs: &[SloSpec]) -> Vec<SloOutcome> {
    specs.iter().map(|spec| evaluate_one(snap, spec)).collect()
}

fn evaluate_one(snap: &TimelineSnapshot, spec: &SloSpec) -> SloOutcome {
    let series = snap.series(&spec.series);
    // (window, value, worst_trace) per evaluated window, in window order.
    let mut rows: Vec<(u64, f64, u64)> = Vec::new();
    if spec.stat.zero_fills() {
        if let Some((lo, hi)) = snap.window_span() {
            for w in lo..=hi {
                let (mut value, trace) = (0.0, 0);
                if let Some(p) = series.and_then(|s| s.point(w)) {
                    if let PointStat::Rate { count, per_s } = &p.stat {
                        value = match spec.stat {
                            SloStat::Rate => *per_s,
                            _ => *count as f64,
                        };
                    }
                }
                rows.push((w, value, trace));
            }
        }
    } else if let Some(s) = series {
        for p in &s.points {
            let (value, trace) = match (&p.stat, spec.stat) {
                (
                    PointStat::Latency {
                        p50,
                        worst_trace_id,
                        ..
                    },
                    SloStat::P50,
                ) => (*p50, *worst_trace_id),
                (
                    PointStat::Latency {
                        p95,
                        worst_trace_id,
                        ..
                    },
                    SloStat::P95,
                ) => (*p95, *worst_trace_id),
                (
                    PointStat::Latency {
                        p99,
                        worst_trace_id,
                        ..
                    },
                    SloStat::P99,
                ) => (*p99, *worst_trace_id),
                (PointStat::Gauge { last }, SloStat::Last) => (*last, 0),
                _ => continue,
            };
            rows.push((p.window, value, trace));
        }
    }
    let bad: Vec<bool> = rows
        .iter()
        .map(|&(_, v, _)| {
            // Windows are *good* only when the comparison strictly holds;
            // an incomparable (NaN) value is bad under either operator.
            let ord = v.partial_cmp(&spec.threshold);
            match spec.op {
                SloOp::Lt => ord != Some(std::cmp::Ordering::Less),
                SloOp::Gt => ord != Some(std::cmp::Ordering::Greater),
            }
        })
        .collect();
    let windows = rows.len() as u64;
    let bad_total = bad.iter().filter(|&&b| b).count() as u64;
    let compliance = if windows == 0 {
        1.0
    } else {
        1.0 - bad_total as f64 / windows as f64
    };
    let budget = (1.0 - spec.objective).max(1e-9);
    let burn = |i: usize, span: u64| -> f64 {
        let from = (i + 1).saturating_sub(span as usize);
        let window = &bad[from..=i];
        let frac = window.iter().filter(|&&b| b).count() as f64 / window.len() as f64;
        frac / budget
    };
    let mut alerts = Vec::new();
    let mut firing = false;
    for (i, &(w, value, trace)) in rows.iter().enumerate() {
        let bs = burn(i, BURN_SHORT);
        let bl = burn(i, BURN_LONG);
        let hot = bs >= ALERT_BURN && bl >= ALERT_BURN;
        if hot && !firing {
            alerts.push(SloAlert {
                window: w,
                t_ns: w * snap.window_ns,
                burn_short: bs,
                burn_long: bl,
                value,
                worst_trace_id: trace,
            });
        }
        firing = hot;
    }
    SloOutcome {
        spec: spec.render(),
        windows,
        bad: bad_total,
        compliance,
        met: compliance >= spec.objective,
        alerts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::Timeline;
    use cudele_sim::Nanos;

    #[test]
    fn parses_the_grammar() {
        let s = SloSpec::parse("p99(bench.op_latency.ns) < 20ms for 99% of windows").unwrap();
        assert_eq!(s.stat, SloStat::P99);
        assert_eq!(s.series, "bench.op_latency.ns");
        assert_eq!(s.op, SloOp::Lt);
        assert_eq!(s.threshold, 20e6);
        assert_eq!(s.objective, 0.99);
        assert_eq!(
            s.render(),
            "p99(bench.op_latency.ns) < 20000000.0 for 99.0% of windows"
        );

        let s = SloSpec::parse("rate(bench.ops) > 100/s for 95% of windows").unwrap();
        assert_eq!(s.stat, SloStat::Rate);
        assert_eq!(s.threshold, 100.0);

        assert!(SloSpec::parse("p42(x) < 1 for 99% of windows").is_err());
        assert!(SloSpec::parse("p99(x) < 1ms").is_err());
        assert!(SloSpec::parse("p99() < 1ms for 99% of windows").is_err());
    }

    #[test]
    fn zero_throughput_gap_alerts_and_carries_burn_rates() {
        let tl = Timeline::default();
        tl.configure(Nanos(1000), 256);
        // Steady 5 ops/window for windows 0..10, a dead gap 10..14, then
        // recovery 14..20.
        for w in 0..20u64 {
            if !(10..14).contains(&w) {
                tl.add("ops", Nanos(w * 1000), 5);
            }
        }
        let snap = tl.snapshot();
        let spec = SloSpec::parse("count(ops) > 0 for 95% of windows").unwrap();
        let out = &evaluate(&snap, &[spec])[0];
        assert_eq!(out.windows, 20);
        assert_eq!(out.bad, 4);
        assert!(!out.met);
        // One edge-triggered alert, at the first window where both
        // lookbacks exceed the burn threshold.
        assert_eq!(out.alerts.len(), 1, "{:?}", out.alerts);
        assert_eq!(out.alerts[0].window, 11);
        assert!(out.alerts[0].burn_short >= ALERT_BURN);
        assert!(out.alerts[0].burn_long >= ALERT_BURN);
    }

    #[test]
    fn latency_alert_carries_worst_trace_id() {
        let tl = Timeline::default();
        tl.configure(Nanos(1000), 256);
        for w in 0..16u64 {
            let (v, trace) = if w >= 8 { (50_000, 700 + w) } else { (100, 1) };
            tl.sample_traced("lat", Nanos(w * 1000), v, trace);
        }
        let snap = tl.snapshot();
        let spec = SloSpec::parse("p99(lat) < 1us for 99% of windows").unwrap();
        let out = &evaluate(&snap, &[spec])[0];
        assert!(!out.met);
        assert!(!out.alerts.is_empty());
        // The alert's trace id is the worst op of its own window.
        let a = &out.alerts[0];
        assert_eq!(a.worst_trace_id, 700 + a.window);
    }

    #[test]
    fn compliant_series_fires_no_alerts() {
        let tl = Timeline::default();
        tl.configure(Nanos(1000), 256);
        for w in 0..32u64 {
            tl.sample("lat", Nanos(w * 1000), 100);
        }
        let snap = tl.snapshot();
        let spec = SloSpec::parse("p99(lat) < 1ms for 99% of windows").unwrap();
        let out = &evaluate(&snap, &[spec])[0];
        assert!(out.met);
        assert_eq!(out.compliance, 1.0);
        assert!(out.alerts.is_empty());
    }
}
