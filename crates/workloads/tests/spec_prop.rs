//! The `--arrival` spec decoder never panics: on any string over the
//! spec's alphabet, [`ArrivalSpec::parse`] returns, and whatever it
//! accepts can be generated — `generate(64)` returns 64 arrivals in
//! non-decreasing time order.

use cudele_workloads::open_loop::ArrivalSpec;
use proptest::prelude::*;

const KEYS: [&str; 9] = [
    "rate", "zipf", "dirs", "tenants", "burst", "diurnal", "seed", "bogus", "",
];

/// A number as a spec might spell it: mostly small, sometimes huge,
/// fractional, tiny, signed, non-finite or junk.
fn arb_number() -> impl Strategy<Value = String> {
    prop_oneof![
        "[0-9]{1,3}",
        "[0-9]{1,3}",
        "[0-9]{1,22}",
        "0\\.[0-9]{1,4}|[0-9]{1,3}\\.[0-9]{0,3}",
        "[0-9]e-[0-9]{1,2}|[0-9]e[0-9]{1,3}",
        "-[0-9.]{1,4}|inf|NaN|-0|1e400|4294967295|1048576|1048577",
        "[a-z0-9.:\\-]{0,8}",
    ]
}

/// A spec: free text over the alphabet; a kind, a rate and `key=value`
/// items whose values are drawn by [`arb_number`] (a diurnal envelope is
/// two of them); or a spec the grammar accepts.
fn arb_spec() -> impl Strategy<Value = String> {
    let item =
        (0..KEYS.len(), arb_number(), arb_number()).prop_map(|(key, a, b)| match KEYS[key] {
            "diurnal" => format!("diurnal={a}:{b}"),
            "" => a,
            key => format!("{key}={a}"),
        });
    prop_oneof![
        "[a-z0-9:=,.\\- ]{0,48}",
        (
            "poisson|bursty|poisson|bursty|uniform",
            arb_number(),
            proptest::collection::vec(item, 0..6),
        )
            .prop_map(|(kind, rate, items)| format!("{kind}:rate={rate},{}", items.join(","))),
        (
            "poisson|bursty",
            "[1-9][0-9]{0,4}",
            proptest::collection::vec(valid_item(), 0..6)
        )
            .prop_map(|(kind, rate, items)| format!("{kind}:rate={rate},{}", items.join(","))),
    ]
}

/// A `key=value` item the grammar accepts, or a diurnal period near the
/// 1 ns floor, on either side of it.
fn valid_item() -> impl Strategy<Value = String> {
    (
        0..6usize,
        "[0-9]\\.[0-9]{1,2}",
        "[1-9][0-9]{0,3}",
        "[1-9][0-9]{0,2}:0\\.[0-9]{1,3}|0\\.5:0\\.9|[1-9]e-[0-9]{1,2}:0\\.[0-9]{1,3}",
        "[0-9]{1,19}",
    )
        .prop_map(|(key, frac, count, diurnal, seed)| match key {
            0 => format!("zipf={frac}"),
            1 => format!("dirs={count}"),
            2 => format!("tenants={count}"),
            3 => format!("burst={count}"),
            4 => format!("diurnal={diurnal}"),
            _ => format!("seed={seed}"),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn parse_returns_and_what_it_accepts_generates(spec in arb_spec()) {
        if let Ok(parsed) = ArrivalSpec::parse(&spec) {
            let arrivals = parsed.generate(64);
            prop_assert_eq!(arrivals.len(), 64, "{:?}", spec);
            prop_assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at), "{:?}", spec);
        }
    }
}
