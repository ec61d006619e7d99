//! Hostile-input tests for the one JSON writer (`json::Writer`) and its
//! reader: span names, categories, args, and metric names containing
//! quotes, backslashes, and control characters must still produce valid
//! JSON that decodes back to the original strings; any tree the writer
//! writes, in any layout, reads back as itself; no input — arbitrary,
//! truncated or flipped bytes — makes the reader panic; and no nesting depth
//! makes it overflow its stack.

use cudele_obs::json::{self, Layout, Value, Writer};
use cudele_obs::{escape_json, Registry, Span};
use cudele_sim::Nanos;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const HOSTILE: &[&str] = &[
    "quote\"inside",
    "back\\slash",
    "new\nline",
    "tab\there",
    "cr\rreturn",
    "null\u{0}byte",
    "bell\u{7}char",
    "esc\u{1b}seq",
    "unit\u{1f}sep",
    "mixed \"\\\n\t\u{1}\u{1f} end",
    "unicode é 漢 😀",
];

#[test]
fn escape_json_round_trips_through_parser() {
    for s in HOSTILE {
        let doc = format!("\"{}\"", escape_json(s));
        let v = json::parse(&doc).unwrap_or_else(|e| panic!("{s:?} → invalid JSON: {e}"));
        assert_eq!(v.as_str(), Some(*s), "round trip of {s:?}");
    }
}

#[test]
fn chrome_trace_survives_hostile_span_fields() {
    let reg = Registry::new();
    for (i, s) in HOSTILE.iter().enumerate() {
        reg.record_span(Span {
            name: s.to_string(),
            cat: s.to_string(),
            tid: i as u32,
            start: Nanos(i as u64 * 10),
            dur: Nanos(5),
            span_id: 0,
            parent_id: 0,
            trace_id: 0,
            args: vec![(s.to_string(), s.to_string())],
        });
    }
    let trace = reg.chrome_trace_json();
    let v = json::parse(&trace).expect("hostile spans still serialize to valid JSON");
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    assert_eq!(events.len(), HOSTILE.len());
    for (e, s) in events.iter().zip(HOSTILE) {
        assert_eq!(e.get("name").unwrap().as_str(), Some(*s));
        assert_eq!(e.get("cat").unwrap().as_str(), Some(*s));
        let args = e.get("args").unwrap();
        assert_eq!(args.get(s).unwrap().as_str(), Some(*s));
    }
}

#[test]
fn metrics_json_survives_hostile_metric_names() {
    let reg = Registry::new();
    for s in HOSTILE {
        reg.counter(s).inc();
        reg.gauge(s).set(1.25);
        reg.histogram(s).record(42);
    }
    let m = reg.metrics_json();
    let v = json::parse(&m).expect("hostile metric names still serialize to valid JSON");
    let counters = v.get("counters").unwrap();
    for s in HOSTILE {
        assert_eq!(counters.get(s).unwrap().as_u64(), Some(1), "counter {s:?}");
        assert_eq!(
            v.get("histograms")
                .unwrap()
                .get(s)
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }
}

/// Writes `v` with every container in `layout`.
fn write(w: &mut Writer, v: &Value, layout: Layout) {
    match v {
        Value::Null => {
            w.null();
        }
        Value::Bool(b) => {
            w.bool(*b);
        }
        Value::Num(n) => {
            w.f64(*n);
        }
        Value::U64(n) => {
            w.u64(*n);
        }
        Value::Str(s) => {
            w.str(s);
        }
        Value::Arr(items) => {
            w.arr(layout);
            for item in items {
                write(w, item, layout);
            }
            w.close();
        }
        Value::Obj(members) => {
            w.obj(layout);
            for (k, v) in members {
                w.key(k);
                write(w, v, layout);
            }
            w.close();
        }
    }
}

/// An arbitrary tree at most `depth` containers deep: the hostile strings
/// as keys and values; integral, negative, fractional, subnormal, huge and
/// non-finite floats.
fn tree(rng: &mut TestRng, depth: usize) -> Value {
    let string = |rng: &mut TestRng| HOSTILE[rng.index(HOSTILE.len())].to_string();
    let len = |rng: &mut TestRng| rng.index(4);
    match rng.index(if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64() & 1 == 1),
        2 => Value::Num(rng.index(2001) as f64 - 1000.0),
        3 => Value::Str(string(rng)),
        4 => Value::Num(match rng.index(4) {
            0 => f64::from_bits(rng.next_u64()),
            1 => -(rng.next_u64() as f64) / 7.0,
            2 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][rng.index(4)],
            _ => f64::MAX / (1 + rng.index(9)) as f64,
        }),
        5 => Value::Arr((0..len(rng)).map(|_| tree(rng, depth - 1)).collect()),
        _ => Value::Obj(
            (0..len(rng))
                .map(|_| (string(rng), tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// `v` as the reader returns it: JSON has no non-finite numbers, so the
/// writer spells them `null`.
fn read_back(v: &Value) -> Value {
    match v {
        Value::Num(n) if !n.is_finite() => Value::Null,
        Value::Arr(items) => Value::Arr(items.iter().map(read_back).collect()),
        Value::Obj(members) => Value::Obj(
            members
                .iter()
                .map(|(k, v)| (k.clone(), read_back(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_round_trips_arbitrary_trees(seed in any::<u64>()) {
        let v = tree(&mut TestRng::from_seed(seed), 5);
        for layout in [Layout::Pretty, Layout::Inline, Layout::Compact] {
            let mut w = Writer::default();
            write(&mut w, &v, layout);
            let doc = w.finish();
            let back = json::parse(&doc).map_err(|e| TestCaseError::fail(format!("{e}: {doc}")))?;
            prop_assert_eq!(&back, &read_back(&v), "{:?}: {}", layout, doc);
            let container = matches!(v, Value::Arr(_) | Value::Obj(_));
            let pretty = layout == Layout::Pretty;
            prop_assert_eq!(doc.ends_with('\n'), pretty && container, "{:?}: {:?}", layout, doc);
            prop_assert!(pretty || !doc.contains('\n'), "{:?}: {:?}", layout, doc);
        }
    }

    /// The reader is total: arbitrary bytes; a tree the writer wrote, cut
    /// at every byte or with one byte flipped; and containers nested to
    /// `MAX_DEPTH` and one deeper, in any mix of arrays and objects, each
    /// come back `Ok` or `Err` — a panic fails the case. A cut container
    /// is never a document, and only the deeper nest is refused.
    #[test]
    fn reader_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        seed in any::<u64>(),
        at in any::<u16>(),
        flip in 1u8..=255,
        arrays in any::<u64>(),
    ) {
        let parse = |b: &[u8]| json::parse(&String::from_utf8_lossy(b));
        let _ = parse(&bytes);

        let v = tree(&mut TestRng::from_seed(seed), 3);
        let mut w = Writer::default();
        write(&mut w, &v, Layout::Compact);
        let doc = w.finish().into_bytes();
        let container = matches!(v, Value::Arr(_) | Value::Obj(_));
        for cut in 0..doc.len() {
            let got = parse(&doc[..cut]);
            prop_assert!(!container || got.is_err(), "{:?} parsed", &doc[..cut]);
        }
        let mut flipped = doc;
        let at = usize::from(at) % flipped.len();
        flipped[at] ^= flip;
        let _ = parse(&flipped);

        for depth in [json::MAX_DEPTH, json::MAX_DEPTH + 1] {
            let array = |level: usize| arrays >> (level % 64) & 1 == 1;
            let open: String = (0..depth).map(|l| if array(l) { "[" } else { "{\"k\":" }).collect();
            let close: String = (0..depth).rev().map(|l| if array(l) { "]" } else { "}" }).collect();
            let nest = format!("{open}0{close}");
            prop_assert_eq!(parse(nest.as_bytes()).is_ok(), depth == json::MAX_DEPTH);
            for cut in [1, nest.len() / 2, nest.len() - 1] {
                prop_assert!(parse(&nest.as_bytes()[..cut]).is_err());
            }
        }
    }
}

#[test]
fn writer_layouts_write_these_exact_bytes() {
    let doc = |layout: Layout| {
        let mut w = Writer::default();
        w.obj(layout)
            .key("a")
            .arr(layout)
            .u64(1)
            .obj(layout)
            .close();
        w.close().key("b").arr(layout).close();
        w.key("s").str("q\"\n").key("f").f64(2.5).key("g").f64(-3.0);
        w.key("nan")
            .f64(f64::NAN)
            .key("n")
            .null()
            .key("t")
            .bool(true);
        w.key("us").micros(1_005).close();
        w.finish()
    };
    assert_eq!(
        doc(Layout::Pretty),
        "{\n  \"a\": [\n    1,\n    {}\n  ],\n  \"b\": [],\n  \"s\": \"q\\\"\\n\",\n  \
         \"f\": 2.5,\n  \"g\": -3.0,\n  \"nan\": null,\n  \"n\": null,\n  \
         \"t\": true,\n  \"us\": 1.005\n}\n"
    );
    assert_eq!(
        doc(Layout::Inline),
        r#"{"a": [1, {}], "b": [], "s": "q\"\n", "f": 2.5, "g": -3.0, "nan": null, "n": null, "t": true, "us": 1.005}"#
    );
    assert_eq!(
        doc(Layout::Compact),
        r#"{"a":[1,{}],"b":[],"s":"q\"\n","f":2.5,"g":-3.0,"nan":null,"n":null,"t":true,"us":1.005}"#
    );
    // Layouts nest as the metrics snapshot nests them: a Pretty map of
    // Inline rows, and an empty Pretty map.
    let mut w = Writer::default();
    w.obj(Layout::Pretty)
        .key("h")
        .obj(Layout::Inline)
        .key("count")
        .u64(1);
    w.key("p50")
        .f64(2.0)
        .close()
        .key("e")
        .obj(Layout::Pretty)
        .close()
        .close();
    assert_eq!(
        w.finish(),
        "{\n  \"h\": {\"count\": 1, \"p50\": 2.0},\n  \"e\": {}\n}\n"
    );
}

#[test]
fn nesting_is_bounded_not_a_stack_overflow() {
    let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    json::parse(&nested(json::MAX_DEPTH)).expect("the cap itself parses");
    let too_deep = format!(
        "byte {}: nesting deeper than {} levels",
        json::MAX_DEPTH,
        json::MAX_DEPTH
    );
    assert_eq!(
        json::parse(&nested(json::MAX_DEPTH + 1)),
        Err(too_deep.clone())
    );
    // Deep enough to overflow any thread's stack one frame per level.
    assert_eq!(json::parse(&nested(300_000)), Err(too_deep));
    let objects = "{\"k\":".repeat(300_000);
    assert!(json::parse(&objects)
        .unwrap_err()
        .contains("nesting deeper than"));
}
