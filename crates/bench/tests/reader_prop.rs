//! The history and timeline readers never panic. `cudele-bench check FILE`
//! reads a `cudele-history/v1` document through `History::parse` and runs
//! the offline checkers on it; `cudele-bench timeline FILE` reads a
//! `cudele-timeline/v1` document through `TimelineSnapshot::parse` and
//! renders it. Both take any file a user hands them, so both must return —
//! an `Err` for what they cannot read — on arbitrary bytes, on real
//! documents with their text damaged, and on real documents with a value
//! swapped for an arbitrary JSON tree or an extreme number.

use std::sync::OnceLock;

use cudele_bench::mdbench::DEFAULT_SLOS;
use cudele_bench::timeline_view;
use cudele_bench::world::{CreateKind, World};
use cudele_check::check_history;
use cudele_mds::MdLogConfig;
use cudele_obs::history::History;
use cudele_obs::json::{self, Layout, Value, Writer};
use cudele_obs::slo::{evaluate, SloSpec};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Real documents: an RPC run's and a decoupled run's history, each with
/// its timeline (the SLOs evaluated, so the outcome table is read too).
fn corpus() -> &'static [(String, String)] {
    static DOCS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let mdlog = Some(MdLogConfig {
            events_per_segment: 8,
            dispatch_size: 2,
            trim_after_updates: None,
        });
        let rpc = World::calibrated(mdlog)
            .run_creates(2, 40, CreateKind::Rpc)
            .world;
        let p = World::calibrated(mdlog).run_creates(2, 40, CreateKind::Decoupled);
        let (mut decoupled, end) = (p.world, p.report.slowest());
        decoupled.merge_journals(p.journals, end);
        let specs: Vec<SloSpec> = DEFAULT_SLOS
            .iter()
            .map(|s| SloSpec::parse(s).unwrap())
            .collect();
        [(rpc, "rpc"), (decoupled, "decoupled")]
            .into_iter()
            .map(|(w, mode)| {
                let mut snap = w.tl.snapshot();
                snap.slos = evaluate(&snap, &specs);
                (w.obs.history_json(mode), snap.to_json())
            })
            .collect()
    })
}

/// Feeds `text` to both readers and everything downstream of them.
fn read_both(text: &str) {
    if let Ok(h) = History::parse(text) {
        check_history(&h);
    }
    if let Ok(overview) = timeline_view::render(text, None) {
        assert!(overview.starts_with("timeline: "));
        // The first series listed, and one the document does not have.
        let name = overview
            .lines()
            .nth(1)
            .and_then(|l| l.split_whitespace().next())
            .unwrap_or("")
            .to_string();
        let _ = timeline_view::render(text, Some(&name));
        assert!(timeline_view::render(text, Some("\u{0}no such series")).is_err());
    }
}

const TOKENS: &[&str] = &[
    "-1",
    "0",
    "1e999",
    "-1e999",
    "18446744073709551615",
    "18446744073709551616",
    "9007199254740993",
    "0.5",
    "null",
    "true",
    "\"\"",
    "\"",
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"latency\"",
    "\"rate\"",
    "\"gauge\"",
    "\"rename\"",
    "\"lookup\"",
    "\"merge\"",
];

/// `doc` with one to four byte-level injuries: a flipped bit, a cut, a
/// duplicated or deleted range, an inserted token.
fn damage(rng: &mut TestRng, doc: &str) -> String {
    let mut b = doc.as_bytes().to_vec();
    for _ in 0..1 + rng.index(4) {
        if b.is_empty() {
            break;
        }
        let at = rng.index(b.len());
        let len = 1 + rng.index(64.min(b.len() - at));
        match rng.index(5) {
            0 => b[at] ^= 1 << rng.index(8),
            1 => b.truncate(at),
            2 => {
                let copy = b[at..at + len].to_vec();
                b.splice(at..at, copy);
            }
            3 => {
                b.drain(at..at + len);
            }
            _ => {
                let t = TOKENS[rng.index(TOKENS.len())].as_bytes();
                b.splice(at..at + len.min(8), t.iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// An arbitrary tree at most `depth` containers deep (after
/// `crates/obs/tests/escaping.rs`), biased to the values the documents
/// carry: keys, kinds and ops they use, and extreme numbers.
fn tree(rng: &mut TestRng, depth: usize) -> Value {
    const KEYS: &[&str] = &[
        "schema",
        "mode",
        "events",
        "op",
        "dir",
        "name",
        "dir2",
        "name2",
        "found",
        "ino",
        "invoke",
        "ack",
        "window_ns",
        "series",
        "kind",
        "points",
        "w",
        "t_ns",
        "count",
        "p99",
        "slos",
        "alerts",
        "annotations",
        "x",
    ];
    let key = |rng: &mut TestRng| KEYS[rng.index(KEYS.len())].to_string();
    let len = |rng: &mut TestRng| rng.index(4);
    match rng.index(if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64() & 1 == 1),
        2 => number(rng),
        3 => Value::Str(match rng.index(3) {
            0 => key(rng),
            1 => TOKENS[rng.index(TOKENS.len())]
                .trim_matches('"')
                .to_string(),
            _ => "\u{0}\"\\\n é 😀".to_string(),
        }),
        4 => number(rng),
        5 => Value::Arr((0..len(rng)).map(|_| tree(rng, depth - 1)).collect()),
        _ => Value::Obj(
            (0..len(rng))
                .map(|_| (key(rng), tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn number(rng: &mut TestRng) -> Value {
    match rng.index(6) {
        0 => Value::U64(u64::MAX - rng.index(3) as u64),
        1 => Value::U64(rng.index(4) as u64),
        2 => Value::U64(rng.next_u64()),
        3 => Value::Num(-(rng.index(1000) as f64) - 0.5),
        4 => Value::Num(f64::from_bits(rng.next_u64())),
        _ => Value::Num([1e300, -1e300, 0.5, 1e-300][rng.index(4)]),
    }
}

/// Writes `v` compactly.
fn write(w: &mut Writer, v: &Value) {
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
            w.arr(Layout::Compact);
            items.iter().for_each(|item| write(w, item));
            w.close();
        }
        Value::Obj(members) => {
            w.obj(Layout::Compact);
            for (k, v) in members {
                w.key(k);
                write(w, v);
            }
            w.close();
        }
    }
}

/// Every node of `v`, in pre-order.
fn count(v: &Value) -> usize {
    1 + match v {
        Value::Arr(items) => items.iter().map(count).sum(),
        Value::Obj(members) => members.iter().map(|(_, v)| count(v)).sum(),
        _ => 0,
    }
}

/// `v` with its `target`-th node (pre-order) replaced by `with`.
fn replace(v: &mut Value, target: &mut usize, with: &mut Option<Value>) {
    if *target == 0 {
        if let Some(w) = with.take() {
            *v = w;
        }
        return;
    }
    *target -= 1;
    match v {
        Value::Arr(items) => items.iter_mut().for_each(|i| replace(i, target, with)),
        Value::Obj(members) => members
            .iter_mut()
            .for_each(|(_, m)| replace(m, target, with)),
        _ => {}
    }
}

/// `doc` with one to three nodes swapped for arbitrary trees or numbers:
/// still JSON, so the damage reaches the document decoders.
fn swap_values(rng: &mut TestRng, doc: &str) -> String {
    let mut v = json::parse(doc).expect("real documents parse");
    for _ in 0..1 + rng.index(3) {
        let mut target = rng.index(count(&v));
        let with = if rng.index(2) == 0 {
            number(rng)
        } else {
            tree(rng, 2)
        };
        replace(&mut v, &mut target, &mut Some(with));
    }
    let mut w = Writer::default();
    write(&mut w, &v);
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        read_both(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn damaged_documents_never_panic(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        for (history, timeline) in corpus() {
            read_both(&damage(&mut rng, history));
            read_both(&damage(&mut rng, timeline));
        }
    }

    #[test]
    fn documents_with_swapped_values_never_panic(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        for (history, timeline) in corpus() {
            read_both(&swap_values(&mut rng, history));
            read_both(&swap_values(&mut rng, timeline));
        }
    }
}

#[test]
fn the_corpus_reads_clean() {
    for (history, timeline) in corpus() {
        let h = History::parse(history).unwrap();
        assert!(check_history(&h).clean());
        let out = timeline_view::render(timeline, None).unwrap();
        assert!(out.contains("bench.ops"), "{out}");
    }
}

/// Found by `documents_with_swapped_values_never_panic`: a window index
/// near 2^64 overflowed the overview's span arithmetic (and a span of 2^64
/// windows divided by zero in release). The reader now refuses a window
/// that ends past 2^64 ns, and a zero window width.
#[test]
fn a_window_past_the_nanosecond_range_is_refused() {
    let doc = |window_ns: u64, hi: u64| {
        format!(
            r#"{{"schema":"cudele-timeline/v1","window_ns":{window_ns},"series":[{{"name":"s","kind":"rate","points":[{{"w":0}},{{"w":{hi}}}]}}]}}"#
        )
    };
    let err = timeline_view::render(&doc(1000, u64::MAX), None).unwrap_err();
    assert!(err.contains("ends past 2^64 ns"), "{err}");
    assert!(timeline_view::render(&doc(1, u64::MAX), None).is_err());
    let err = timeline_view::render(&doc(0, 1), None).unwrap_err();
    assert!(err.contains("zero window_ns"), "{err}");
    // The widest span a document may hold still renders.
    let out = timeline_view::render(&doc(1, u64::MAX - 1), None).unwrap();
    assert!(
        out.contains("over windows 0..18446744073709551614"),
        "{out}"
    );
}
