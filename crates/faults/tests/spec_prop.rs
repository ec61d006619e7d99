//! The `--faults` spec decoder never panics: on any string over the spec's
//! alphabet, [`FaultConfig::parse`] returns, and whatever it accepts obeys
//! the bounds the fault plan relies on — every `*_ppm` rate at most
//! 1 000 000 (the plan draws against a million), every slow factor finite
//! and at least 1, and the crash schedule sorted.

use cudele_faults::FaultConfig;
use proptest::prelude::*;

const KEYS: [&str; 11] = [
    "seed",
    "eagain_ppm",
    "torn_ppm",
    "torn_write_ppm",
    "bitflip_ppm",
    "spec_abort_ppm",
    "osd_outage",
    "slow",
    "mds_crash",
    "mds-crash@",
    "bogus",
];

/// A spec: free text over the alphabet, or `key=value` items whose values
/// are numbers (often huge) with unit suffixes, windows, factors and junk.
fn arb_spec() -> impl Strategy<Value = String> {
    let value = prop_oneof![
        "[0-9]{1,22}",
        "[0-9]{1,22}[mnus]{0,2}",
        "[0-9.]{1,6}|inf|NaN|-1|1e400",
        "[a-z0-9.@=\\-]{0,12}",
    ];
    let item =
        (0..KEYS.len(), value.clone(), value.clone(), value).prop_map(|(key, a, from, until)| {
            match KEYS[key] {
                "mds-crash@" => format!("mds-crash@{a}"),
                key @ ("osd_outage" | "slow") => format!("{key}={a}@{from}..{until}"),
                key => format!("{key}={a}"),
            }
        });
    prop_oneof![
        "[a-z0-9_=,@.\\- ]{0,64}",
        proptest::collection::vec(item, 0..5).prop_map(|items| items.join(",")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn parse_returns_and_what_it_accepts_is_in_bounds(spec in arb_spec()) {
        if let Ok(cfg) = FaultConfig::parse(&spec) {
            for ppm in [cfg.eagain_ppm, cfg.torn_write_ppm, cfg.bitflip_ppm, cfg.spec_abort_ppm] {
                prop_assert!(ppm <= 1_000_000, "{spec:?} gave a rate of {ppm} ppm");
            }
            for w in &cfg.slow {
                prop_assert!(w.factor.is_finite() && w.factor >= 1.0, "{spec:?}");
            }
            prop_assert!(cfg.mds_crashes.windows(2).all(|w| w[0] <= w[1]), "{spec:?}");
        }
    }
}
