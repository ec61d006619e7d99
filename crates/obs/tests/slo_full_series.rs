//! SLO evaluation over a series at the window cap. The zero-fill path
//! (`rate`/`count` objectives) asks the series for its point at every
//! window of the snapshot's global span; that lookup must stay a binary
//! search and must keep producing the outcome recorded when it was a
//! linear scan.

use cudele_obs::slo::{evaluate, SloSpec};
use cudele_obs::timeline::{Timeline, DEFAULT_MAX_WINDOWS};
use cudele_sim::Nanos;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn full_rate_series_evaluates_to_the_recorded_outcome() {
    const WINDOW: u64 = 1_000_000;
    let tl = Timeline::default();
    tl.configure(Nanos(WINDOW), DEFAULT_MAX_WINDOWS);
    // 4 096 windows with two empty windows between neighbours, recorded
    // back to front so insertion order is the reverse of export order.
    for w in (0..DEFAULT_MAX_WINDOWS as u64).rev() {
        tl.add("ops", Nanos(w * 3 * WINDOW), w % 7);
    }
    // A second series stretches the global span past the first one's end.
    tl.gauge_at("depth", Nanos(13_000 * WINDOW), 1.0);
    assert_eq!(tl.dropped(), 0);

    let mut snap = tl.snapshot();
    let specs = [
        SloSpec::parse("rate(ops) > 1500/s for 25% of windows").unwrap(),
        SloSpec::parse("count(ops) < 6 for 99% of windows").unwrap(),
    ];
    snap.slos = evaluate(&snap, &specs);

    let rate = &snap.slos[0];
    assert_eq!((rate.windows, rate.bad), (13_001, 10_076));
    assert!(!rate.met);
    let count = &snap.slos[1];
    assert_eq!((count.windows, count.bad), (13_001, 585));
    assert!(!count.met);
    // Every field of both outcomes, alerts included, as serialized.
    let json = snap.to_json();
    let slos = &json[json.find("\"slos\"").expect("slos section")..];
    assert_eq!(count.alerts.len(), 585);
    assert_eq!(fnv1a(slos.as_bytes()), 0x209b_d512_6496_56a1);
}
