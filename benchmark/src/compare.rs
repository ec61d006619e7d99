//! `compare A.json B.json`: applies the end-to-end bounds to two
//! `results.json` files (A = parent, B = change) and prints one row per
//! workload and metric.
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — it is not, but either side's interquartile range is
//!   wider than the bound, so "no regression" cannot be claimed;
//! * `ok` — within the bound, and the bound resolves it.

use std::process::ExitCode;

use cudele_obs::json::{self, Value};

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::workloads::NAMES;

/// The verdict on one workload x metric pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Median and quartiles of one metric on one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Stat {
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.median).abs()
        }
    }
}

/// By how much of A's median B is worse (negative = better).
pub fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match m.better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// Applies `m`'s bound to the two sides.
pub fn judge(m: &EndToEnd, a: Stat, b: Stat) -> Verdict {
    if worsening(m, a.median, b.median) > m.bound {
        Verdict::Worse
    } else if a.spread().max(b.spread()) > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn stat(doc: &Value, workload: &str, metric: &str) -> Option<Stat> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?;
    Some(Stat {
        median: m.get("median")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Entry point of the `compare` subcommand; fails when any row is
/// `worse` or a file cannot be read.
pub fn main(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<18} {:<20} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    let mut worse = 0;
    for w in NAMES {
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (stat(&a, w, m.name), stat(&b, w, m.name)) else {
                println!("{w:<18} {:<20} missing from one side", m.name);
                worse += 1;
                continue;
            };
            let v = judge(m, sa, sb);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{w:<18} {:<20} {:>16.4} {:>16.4} {:>8.2}% {:>6.1}%  {}",
                m.name,
                sa.median,
                sb.median,
                100.0 * worsening(m, sa.median, sb.median),
                100.0 * m.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: f64) -> Stat {
        Stat {
            median: v,
            q1: v,
            q3: v,
        }
    }

    #[test]
    fn bounds_are_direction_aware() {
        let rate = &END_TO_END[0]; // higher is better, 15 %
        assert_eq!(judge(rate, flat(100.0), flat(86.0)), Verdict::Ok);
        assert_eq!(judge(rate, flat(100.0), flat(84.0)), Verdict::Worse);
        assert_eq!(judge(rate, flat(100.0), flat(150.0)), Verdict::Ok);
        let allocs = &END_TO_END[1]; // lower is better, 2 %
        assert_eq!(judge(allocs, flat(40.0), flat(40.5)), Verdict::Ok);
        assert_eq!(judge(allocs, flat(40.0), flat(41.0)), Verdict::Worse);
        assert_eq!(judge(allocs, flat(40.0), flat(20.0)), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let rate = &END_TO_END[0];
        let noisy = Stat {
            median: 100.0,
            q1: 90.0,
            q3: 108.0,
        };
        assert_eq!(judge(rate, noisy, flat(98.0)), Verdict::Unresolved);
        // ...but a regression past the bound is still a regression.
        assert_eq!(judge(rate, noisy, flat(70.0)), Verdict::Worse);
    }
}
