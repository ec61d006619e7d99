//! `cudele-bench` — the benchmark driver binary.
//!
//! * `regress` runs the virtual-time regression pipeline (see
//!   [`cudele_bench::regress`]) and exits non-zero unless the measured
//!   snapshot is a valid run and byte-identical to the committed baseline.
//! * `check` replays recorded consistency histories (`mdbench
//!   --history-out`) through the offline checkers and exits non-zero on
//!   any axiom violation (see [`cudele_bench::check`]).
//! * `timeline` renders a recorded telemetry timeline (`mdbench
//!   --timeline-out`) as terminal sparklines, annotation markers, and
//!   SLO outcomes (see [`cudele_bench::timeline_view`]).
//! * `figure` regenerates a table or figure of the paper's evaluation,
//!   all of them, or the ablations (see [`cudele_bench::figure`]).

use cudele_bench::{check, figure, regress, timeline_view};

const USAGE: &str = "usage: cudele-bench <regress|check|timeline|figure> [OPTIONS]\n\nsubcommands:\n  regress   run the benchmark regression pipeline\n  check     verify recorded consistency histories\n  timeline  render a recorded telemetry timeline\n  figure    regenerate a figure or table of the paper";

/// Runs one subcommand to its exit code. `parse` follows the shared
/// contract (`Err("")` = `--help`: usage on stdout, exit 0; any other `Err`:
/// message + usage on stderr, exit 2); `run` returns the report to print
/// and whether it is a failing verdict (exit 1), or an error (exit 2).
fn subcommand<C>(
    args: &[String],
    usage: &str,
    parse: impl FnOnce(&[String]) -> Result<C, String>,
    run: impl FnOnce(&C) -> Result<(String, bool), String>,
) -> i32 {
    let cfg = match parse(args) {
        Ok(cfg) => cfg,
        Err(msg) if msg.is_empty() => {
            println!("{usage}");
            return 0;
        }
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{usage}");
            return 2;
        }
    };
    match run(&cfg) {
        Ok((rendered, failed)) => {
            print!("{rendered}");
            i32::from(failed)
        }
        Err(msg) => {
            eprintln!("{msg}");
            2
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = argv.get(2..).unwrap_or_default();
    let code = match argv.get(1).map(String::as_str) {
        Some("regress") => subcommand(args, regress::USAGE, regress::parse_args, |cfg| {
            regress::run(cfg).map(|out| (out.rendered, !out.violations.is_empty()))
        }),
        Some("check") => subcommand(args, check::USAGE, check::parse_args, |paths| {
            check::run_files(paths).map(|out| (out.rendered, out.violations > 0))
        }),
        Some("timeline") => subcommand(
            args,
            timeline_view::USAGE,
            timeline_view::parse_args,
            |cfg| timeline_view::run(cfg).map(|rendered| (rendered, false)),
        ),
        Some("figure") => subcommand(args, figure::USAGE, figure::parse_args, |cfg| {
            figure::run(cfg).map(|rendered| (rendered, false))
        }),
        Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}");
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
