//! `cudele-bench figure` — regenerates one table or figure of the paper's
//! evaluation, all of them, or the ablation studies, and prints it.
//!
//! `--quick` runs a reduced, shape-preserving scale (default: paper
//! scale). `--threads N` fans the independent experiments of `all` and
//! `ablations` across N workers; results print in input order and
//! observability merges in the same order, so the output is byte-identical
//! to a serial run. The sink flags are [`crate::obs_out`]'s.

use crate::obs_out::{self, ObsSession, ObsSinks};
use crate::Scale;

/// Usage string for the `figure` subcommand.
pub const USAGE: &str = "usage: cudele-bench figure \
     <fig2|fig3a|fig3b|fig3c|fig5|fig6a|fig6b|fig6c|table1|all|ablations> \
     [--quick] [--threads N] [--metrics-out PATH] [--trace-out PATH] \
     [--history-out PATH] [--timeline-out PATH] [--span-capacity N]";

/// One experiment: its rendered text at a scale.
pub type Experiment = fn(Scale) -> String;

/// The paper's figures and tables, in the order `all` prints them.
const FIGURES: [(&str, Experiment); 9] = [
    ("fig2", |s| crate::fig2::run(s).rendered),
    ("fig3a", |s| crate::fig3a::run(s).rendered),
    ("fig3b", |s| crate::fig3b::run(s).rendered),
    ("fig3c", |s| crate::fig3c::run(s).rendered),
    ("fig5", |s| crate::fig5::run(s).rendered),
    ("fig6a", |s| crate::fig6a::run(s).rendered),
    ("fig6b", |s| crate::fig6b::run(s).rendered),
    ("fig6c", |s| crate::fig6c::run(s).rendered),
    ("table1", |s| crate::table1::run(s).rendered),
];

/// The ablation studies of the design choices DESIGN.md calls out
/// (journal-arrival overlap, cap re-grant threshold, dirfrag split
/// threshold); only the first reads the scale.
const ABLATIONS: [Experiment; 3] = [
    |s| crate::ablations::run_arrival_ablation(s).1,
    |_| crate::ablations::regrant_threshold_ablation().1,
    |_| crate::ablations::split_threshold_ablation().1,
];

/// The experiments `name` runs, if it names any.
fn experiments(name: &str) -> Option<Vec<Experiment>> {
    match name {
        "all" => Some(FIGURES.iter().map(|&(_, f)| f).collect()),
        "ablations" => Some(ABLATIONS.to_vec()),
        _ => FIGURES
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, f)| vec![f]),
    }
}

/// Command-line configuration of one `figure` invocation.
#[derive(Debug, Clone)]
pub struct FigureConfig {
    /// The named figure's, table's, `all`'s or `ablations`' experiments.
    pub experiments: Vec<Experiment>,
    /// Whether the name was `all`, which prints a header first.
    pub all: bool,
    /// Paper scale, or [`Scale::quick`] under `--quick`.
    pub scale: Scale,
    /// Workers for `all` and `ablations`.
    pub threads: usize,
    /// Observability snapshots to write when the run finishes.
    pub sinks: ObsSinks,
}

/// Parses the arguments after the `figure` subcommand word. `Err` carries
/// the message to print before [`USAGE`]; `--help` yields
/// `Err(String::new())`.
pub fn parse_args(args: &[String]) -> Result<FigureConfig, String> {
    let mut cfg = FigureConfig {
        experiments: Vec::new(),
        all: false,
        scale: Scale::paper(),
        threads: 1,
        sinks: ObsSinks::default(),
    };
    let mut i = 0;
    while i < args.len() {
        if cfg.sinks.parse_flag(args, &mut i)? {
            continue;
        }
        match args[i].as_str() {
            "--quick" => cfg.scale = Scale::quick(),
            "--threads" => {
                let n = args.get(i + 1).ok_or("--threads requires a value")?;
                cfg.threads = cudele_par::parse_threads(n)?;
                i += 1;
            }
            "--help" | "-h" => return Err(String::new()),
            other if cfg.experiments.is_empty() && !other.starts_with('-') => {
                cfg.experiments =
                    experiments(other).ok_or_else(|| format!("unknown figure {other:?}"))?;
                cfg.all = other == "all";
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if cfg.experiments.is_empty() {
        return Err("which figure?".into());
    }
    Ok(cfg)
}

/// Runs the configuration's experiments and writes its snapshots; returns
/// the text to print.
pub fn run(cfg: &FigureConfig) -> Result<String, String> {
    let obs = ObsSession::new(cfg.sinks.clone());
    let mut out = String::new();
    if cfg.all {
        out.push_str(&format!(
            "Cudele reproduction — all experiments (files/client = {}, runs = {})\n\n",
            cfg.scale.files_per_client, cfg.scale.runs
        ));
    }
    // One experiment records straight into the session: a merge skips the
    // counters a task registered but never bumped, and a figure's snapshot
    // lists them at 0.
    let rendered = match cfg.experiments[..] {
        [one] => vec![one(cfg.scale)],
        ref many => obs_out::par_tasks_merged(cfg.threads, many.len(), |i| (many[i])(cfg.scale)),
    };
    for r in rendered {
        out.push_str(&r);
        out.push('\n');
    }
    obs.finish()
        .map_err(|e| format!("writing observability snapshots: {e}"))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<FigureConfig, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&args)
    }

    #[test]
    fn parses_names_scale_threads_and_sinks() {
        let cfg = parse("fig5 --quick --threads 2 --metrics-out m.json").unwrap();
        assert_eq!(cfg.experiments.len(), 1);
        assert!(!cfg.all);
        assert_eq!(cfg.scale.files_per_client, Scale::quick().files_per_client);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.sinks.metrics_out.as_deref(), Some("m.json"));
        let all = parse("--quick all").unwrap();
        assert!(all.all);
        assert_eq!(all.experiments.len(), FIGURES.len());
        assert_eq!(
            parse("ablations").unwrap().experiments.len(),
            ABLATIONS.len()
        );
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        for (line, want) in [
            ("fig5 --bogus", "unknown argument \"--bogus\""),
            ("fig9", "unknown figure \"fig9\""),
            ("fig5 fig2", "unknown argument \"fig2\""),
            ("--quick", "which figure?"),
            ("fig5 --threads", "--threads requires a value"),
            ("fig5 --metrics-out", "--metrics-out requires a value"),
        ] {
            assert_eq!(parse(line).unwrap_err(), want, "{line}");
        }
        assert!(parse("fig5 --threads zero").is_err());
        assert_eq!(parse("fig5 --help").unwrap_err(), "");
    }
}
