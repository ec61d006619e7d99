//! The command-line decoders never panic: on any argv built from the known
//! flags and arbitrary values, each of the five `parse_args` — `check`,
//! `figure`, `mdbench`, `regress` and `timeline` — returns, and whatever it
//! accepts obeys the bounds the run relies on (counts of at least 1, a
//! figure to run, a file to read). Parse only: no configuration is run, so
//! an accepted `--threads N` starts nothing.

use cudele_bench::{check, figure, mdbench, regress, timeline_view};
use proptest::prelude::*;

/// Every flag any of the five parsers knows, plus the help flags, a
/// subcommand or figure name, and near misses.
const FLAGS: [&str; 33] = [
    "--clients",
    "--files",
    "--arrival",
    "--policy",
    "--composition",
    "--slo",
    "--faults",
    "--mdlog-segment",
    "--mdlog-dispatch",
    "--checkpoint-interval",
    "--speculate",
    "--threads",
    "--metrics-out",
    "--trace-out",
    "--history-out",
    "--timeline-out",
    "--span-capacity",
    "--quick",
    "--out",
    "--baseline",
    "--write-baseline",
    "--folded-out",
    "--series",
    "--help",
    "-h",
    "--",
    "-",
    "--bogus",
    "--clients=4",
    "fig2",
    "all",
    "ablations",
    "table1",
];

/// One argv word: a known flag, or an arbitrary value — a number that may
/// not fit any integer type, a negative or zero count, a spec-like string,
/// empty, or multi-byte text.
fn arb_word() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..FLAGS.len()).prop_map(|i| FLAGS[i].to_string()),
        (0..FLAGS.len()).prop_map(|i| FLAGS[i].to_string()),
        "[0-9]{1,25}",
        "0|1|-1|-[0-9]{1,3}|1e9|0x10|inf",
        "[a-z0-9_.,=@:/\\-]{0,16}",
        "[α-ωあ-ん]{1,4}",
    ]
}

fn arb_argv() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(arb_word(), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn mdbench_parse_returns_and_what_it_accepts_is_in_bounds(args in arb_argv()) {
        // Element 0 is the program name.
        let argv: Vec<String> = std::iter::once("mdbench".to_string()).chain(args).collect();
        if let Ok(cfg) = mdbench::parse_args(&argv) {
            prop_assert!(cfg.clients >= 1 && cfg.files >= 1 && cfg.threads >= 1, "{argv:?}");
            prop_assert!(cfg.mdlog_segment.is_none_or(|n| n >= 1), "{argv:?}");
            prop_assert!(cfg.mdlog_dispatch.is_none_or(|n| n >= 1), "{argv:?}");
            prop_assert!(cfg.speculate.is_none_or(|d| d >= 1), "{argv:?}");
        }
    }

    #[test]
    fn figure_parse_returns_and_names_something_to_run(args in arb_argv()) {
        if let Ok(cfg) = figure::parse_args(&args) {
            prop_assert!(!cfg.experiments.is_empty() && cfg.threads >= 1, "{args:?}");
        }
    }

    #[test]
    fn check_timeline_and_regress_parse_return(args in arb_argv()) {
        if let Ok(paths) = check::parse_args(&args) {
            prop_assert!(!paths.is_empty(), "{args:?}");
            prop_assert!(paths.iter().all(|p| !p.starts_with("--")), "{args:?}");
        }
        if let Ok(cfg) = timeline_view::parse_args(&args) {
            prop_assert!(!cfg.path.starts_with("--"), "{args:?}");
        }
        let _ = regress::parse_args(&args);
    }
}
