//! The SLO spec decoder never panics: on any string over the grammar's
//! alphabet, [`SloSpec::parse`] returns, and whatever it accepts renders
//! to text that parses back to an equal spec.

use cudele_obs::slo::SloSpec;
use proptest::prelude::*;

const STATS: [&str; 8] = ["p50", "p95", "p99", "rate", "count", "last", "p100", ""];

/// A number as a spec might spell it: mostly well-formed, sometimes
/// signed, non-finite, overflowing or junk.
fn arb_number() -> impl Strategy<Value = String> {
    prop_oneof![
        "[1-9][0-9]{0,1}",
        "[0-9]{1,3}\\.[0-9]{1,4}",
        "[0-9]{1,2}e[0-9]{1,3}|[0-9]{1,2}e-[0-9]{1,3}",
        "-[0-9.]{1,4}|inf|NaN|-0|1e400|0\\.0|100|101",
        "[a-z0-9.%/\\-]{0,6}",
    ]
}

/// A spec: free text over the alphabet, the grammar's parts — each
/// usually valid — put together, or a spec the grammar accepts.
fn arb_spec() -> impl Strategy<Value = String> {
    let head = (
        0..STATS.len(),
        prop_oneof!["[a-z._]{1,12}", "[a-z._]{1,12}", "[a-z._()<> ]{0,12}"],
        "<|>|<|>|=|",
    )
        .prop_map(|(stat, series, op)| format!("{}({series}) {op}", STATS[stat]));
    let structured = (
        head,
        arb_number(),
        "|ns|us|ms|s|/s| ms",
        " for | for | for | for| ",
        arb_number(),
        "% of windows|% of windows| % of windows|%",
    )
        .prop_map(|(head, value, unit, sep, pct, tail)| {
            format!("{head} {value}{unit}{sep}{pct}{tail}")
        });
    let padded = (" {0,2}", structured, " {0,1}").prop_map(|(l, s, r)| format!("{l}{s}{r}"));
    let valid = (
        0..6usize,
        "[a-z._]{1,12}",
        "<|>",
        "[0-9]{1,3}|[0-9]{1,3}\\.[0-9]{1,4}|[0-9]e[0-9]{1,3}|[0-9]e-[0-9]{1,3}",
        "|ns|us|ms|s|/s| ms",
        "[1-9][0-9]{0,1}|[0-9]{1,2}\\.[0-9]{1,3}|100",
    )
        .prop_map(|(stat, series, op, value, unit, pct)| {
            format!(
                "{}({series}) {op} {value}{unit} for {pct}% of windows",
                STATS[stat]
            )
        });
    prop_oneof!["[a-z0-9().<>%/ \\-]{0,64}", padded, valid]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn parse_returns_and_what_it_accepts_round_trips(spec in arb_spec()) {
        if let Ok(parsed) = SloSpec::parse(&spec) {
            let text = parsed.render();
            let again = SloSpec::parse(&text);
            prop_assert_eq!(again.as_ref(), Ok(&parsed), "{:?} rendered as {:?}", spec, text);
        }
    }
}
