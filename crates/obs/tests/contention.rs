//! Obs under real threads. A run's registry has one writer by construction,
//! but its stores are `Sync` and may be shared: here four threads record
//! into one registry at once and every total must come out exact — no lost
//! update in a counter, a histogram, a timeline window, the span log or the
//! history — and a panic inside the span log's critical section must leave
//! it usable from another thread.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use cudele_obs::history::{HistoryEvent, HistoryOp, HistoryResult, HistoryScope};
use cudele_obs::timeline::PointStat;
use cudele_obs::Registry;
use cudele_sim::Nanos;

const THREADS: u64 = 4;
const PER_THREAD: u64 = 10_000;
const TOTAL: u64 = THREADS * PER_THREAD;
/// Below `TOTAL`, so the span log fills while the threads race for it.
const SPAN_CAPACITY: usize = 25_000;
const WINDOW: u64 = 1_000;
const WINDOWS: u64 = 8;

#[test]
fn four_threads_recording_at_once_lose_nothing() {
    let reg = Arc::new(Registry::with_span_capacity(SPAN_CAPACITY));
    let tl = reg.timeline();
    tl.configure(Nanos(WINDOW), WINDOWS as usize);
    let served = tl.series("served");
    let latency = tl.series("latency");
    let ops = reg.counter("ops");
    let lat = reg.histogram("lat");
    let create = reg.span_name("create", "client_op");

    // Every thread starts recording at once, so the stores are contended
    // from the first record on.
    let start = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let reg = Arc::clone(&reg);
            let (served, latency, ops, lat, start) = (&served, &latency, &ops, &lat, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..PER_THREAD {
                    let at = Nanos(i % WINDOWS * WINDOW);
                    ops.inc();
                    lat.record(i);
                    served.add(at, 1);
                    latency.sample(at, i, 0);
                    let ctx = reg.trace_root(t as u32);
                    reg.end_named(ctx, create, at, Nanos(1));
                    reg.record_history_row(HistoryEvent {
                        client: t,
                        scope: HistoryScope::Global,
                        op: HistoryOp::Create { dir: 1, name: "f" },
                        result: HistoryResult::Ok,
                        ino: i,
                        invoke: at,
                        ack: at,
                        epoch: 1,
                        trace_id: ctx.trace_id,
                    });
                }
            });
        }
    });

    assert_eq!(ops.get(), TOTAL);
    assert_eq!(reg.counter_value("ops"), Some(TOTAL));
    assert_eq!(lat.count(), TOTAL);
    assert_eq!(lat.sum(), THREADS * PER_THREAD * (PER_THREAD - 1) / 2);
    assert_eq!((lat.min(), lat.max()), (0, PER_THREAD - 1));

    let snap = tl.snapshot();
    assert_eq!(snap.windows_dropped, 0);
    for name in ["served", "latency"] {
        let series = snap.series.iter().find(|s| s.name == name).unwrap();
        assert_eq!(series.points.len() as u64, WINDOWS, "{name}");
        for p in &series.points {
            let count = match p.stat {
                PointStat::Rate { count, .. } | PointStat::Latency { count, .. } => count,
                PointStat::Gauge { .. } => unreachable!(),
            };
            assert_eq!(count, TOTAL / WINDOWS, "{name} window {}", p.window);
        }
    }

    assert_eq!(reg.span_count(), SPAN_CAPACITY);
    assert_eq!(reg.spans_dropped(), TOTAL - SPAN_CAPACITY as u64);
    let mut ids: Vec<u64> = reg.spans().iter().map(|s| s.span_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), SPAN_CAPACITY, "two retained spans share an id");
    assert_eq!(reg.trace_root(0).span_id, TOTAL + 1, "a span id was lost");

    assert_eq!(reg.history_count() as u64, TOTAL);
    let mut per_client = [0u64; THREADS as usize];
    for ev in reg.history_events() {
        per_client[ev.client as usize] += 1;
    }
    assert_eq!(per_client, [PER_THREAD; THREADS as usize]);
}

/// Writes part of its value, then panics — inside the span log's critical
/// section, since span args are formatted straight into the log's arena.
struct PanicsHalfway;

impl fmt::Display for PanicsHalfway {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("half")?;
        panic!("a span arg's Display panicked");
    }
}

#[test]
fn a_panicking_span_arg_leaves_the_log_usable() {
    let reg = Arc::new(Registry::new());
    let op = reg.span_name("op", "t");
    let ctx = reg.trace_root(0);
    reg.end_named_with(ctx, op, Nanos(0), Nanos(1), "k", "before");
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        reg.end_named_with(ctx, op, Nanos(1), Nanos(1), "k", PanicsHalfway);
    }));
    assert!(panicked.is_err());

    let (tx, rx) = channel();
    let worker = {
        let reg = Arc::clone(&reg);
        std::thread::spawn(move || {
            reg.end_named(ctx, op, Nanos(2), Nanos(1));
            reg.end_named_with(ctx, op, Nanos(3), Nanos(1), "k", "after");
            let _ = tx.send(reg.spans());
        })
    };
    // A spinning worker cannot be joined; any other outcome is, so a panic
    // in it surfaces here.
    let got = rx.recv_timeout(Duration::from_secs(3));
    assert!(
        !matches!(got, Err(RecvTimeoutError::Timeout)),
        "the span log stayed locked after a panic inside it"
    );
    worker.join().expect("the worker panicked");
    let spans = got.expect("the worker sent the spans");

    // The span that panicked was never recorded, and nothing it wrote
    // leaks into the spans recorded after it.
    let args: Vec<Vec<(String, String)>> = spans.into_iter().map(|s| s.args).collect();
    let arg = |v: &str| vec![("k".to_string(), v.to_string())];
    assert_eq!(args, [arg("before"), vec![], arg("after")]);
}
