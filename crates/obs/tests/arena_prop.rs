//! Packing changes the store, not the answer. The span log and the history
//! log are each one byte stream of varints, zigzag deltas (from the previous
//! record's field, or from another field of the same record) and names
//! ended by `0xFF`; both are filled from borrowed strings and decoded, from
//! the start, only when read. Whatever goes in must read back exactly,
//! serialize to the bytes the owned form serializes to, and survive
//! [`Registry::merge_from`] (each kept record decoded and re-packed, ids
//! rebased) as if it had been recorded serially:
//!
//! * every op kind and all eight results, both names of a rename;
//! * names that are empty, multi-byte, or hold NUL or JSON escapes;
//! * ids, times, inodes, epochs and clients over the whole `u64` range —
//!   `u64::MAX` included — so deltas wrap: `ack` before `invoke`, `invoke`
//!   and `trace_id` going backwards from one row to the next, a parent id
//!   above its span's;
//! * zero to three args, and more records than the log holds.

use cudele_obs::history::{
    History, HistoryEvent, HistoryOp, HistoryResult, HistoryScope, HistoryWriter,
};
use cudele_obs::json::{self, Value};
use cudele_obs::{Registry, Span};
use cudele_sim::Nanos;
use proptest::prelude::*;

/// Names: plain, empty, multi-byte, characters JSON must escape, NUL.
fn arb_name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9._\\-]{0,12}|[α-ωあ-ん\"\\\\]{1,6}|[\0a😀é]{0,4}")
        .unwrap()
}

/// A `u64` from anywhere in the range, its ends drawn often: small values,
/// values just below `u64::MAX`, and uniform ones, so any two consecutive
/// draws differ by anything from zero to a wrap-around.
fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..4, (u64::MAX - 3)..=u64::MAX, any::<u64>()]
}

const RESULTS: [HistoryResult; 8] = [
    HistoryResult::Ok,
    HistoryResult::Exists,
    HistoryResult::NoEnt,
    HistoryResult::Busy,
    HistoryResult::NoSession,
    HistoryResult::Timeout,
    HistoryResult::Fenced,
    HistoryResult::Err,
];

fn arb_op() -> impl Strategy<Value = HistoryOp> {
    prop_oneof![
        (arb_u64(), arb_name()).prop_map(|(dir, name)| HistoryOp::Create { dir, name }),
        (arb_u64(), arb_name()).prop_map(|(dir, name)| HistoryOp::Mkdir { dir, name }),
        (arb_u64(), arb_name()).prop_map(|(dir, name)| HistoryOp::Unlink { dir, name }),
        (arb_u64(), arb_name(), arb_u64(), arb_name()).prop_map(
            |(src_dir, src_name, dst_dir, dst_name)| HistoryOp::Rename {
                src_dir,
                src_name,
                dst_dir,
                dst_name,
            }
        ),
        (arb_u64(), arb_name(), any::<bool>(), arb_u64()).prop_map(|(dir, name, hit, ino)| {
            HistoryOp::Lookup {
                dir,
                name,
                found: hit.then_some(ino),
            }
        }),
        (arb_u64(), arb_u64()).prop_map(|(dir, entries)| HistoryOp::Readdir { dir, entries }),
        arb_u64().prop_map(|events| HistoryOp::Merge { events }),
    ]
}

fn arb_history_event() -> impl Strategy<Value = HistoryEvent> {
    (
        arb_op(),
        0usize..RESULTS.len(),
        (arb_u64(), any::<bool>(), arb_u64()),
        (arb_u64(), arb_u64()),
        (arb_u64(), arb_u64()),
    )
        .prop_map(
            |(op, result, (client, local, ino), (invoke, ack), (epoch, trace_id))| HistoryEvent {
                client,
                scope: if local {
                    HistoryScope::Local
                } else {
                    HistoryScope::Global
                },
                op,
                result: RESULTS[result],
                ino,
                invoke: Nanos(invoke),
                ack: Nanos(ack),
                epoch,
                trace_id,
            },
        )
}

/// `ev` with every number cut to 53 bits: what a JSON number (an `f64`)
/// carries exactly, so what `History::parse` must give back unchanged.
fn json_exact(ev: &HistoryEvent) -> HistoryEvent {
    let cut = |v: u64| v & ((1 << 53) - 1);
    let op = match ev.op.clone() {
        HistoryOp::Create { dir, name } => HistoryOp::Create {
            dir: cut(dir),
            name,
        },
        HistoryOp::Mkdir { dir, name } => HistoryOp::Mkdir {
            dir: cut(dir),
            name,
        },
        HistoryOp::Unlink { dir, name } => HistoryOp::Unlink {
            dir: cut(dir),
            name,
        },
        HistoryOp::Rename {
            src_dir,
            src_name,
            dst_dir,
            dst_name,
        } => HistoryOp::Rename {
            src_dir: cut(src_dir),
            src_name,
            dst_dir: cut(dst_dir),
            dst_name,
        },
        HistoryOp::Lookup { dir, name, found } => HistoryOp::Lookup {
            dir: cut(dir),
            name,
            found: found.map(cut),
        },
        HistoryOp::Readdir { dir, entries } => HistoryOp::Readdir {
            dir: cut(dir),
            entries: cut(entries),
        },
        HistoryOp::Merge { events } => HistoryOp::Merge {
            events: cut(events),
        },
    };
    HistoryEvent {
        client: cut(ev.client),
        op,
        ino: cut(ev.ino),
        invoke: Nanos(cut(ev.invoke.0)),
        ack: Nanos(cut(ev.ack.0)),
        epoch: cut(ev.epoch),
        trace_id: cut(ev.trace_id),
        ..ev.clone()
    }
}

/// A span as a caller would hand it to `record_span`: a few names (so the
/// interner is shared), ids, times and tracks over their whole range (0
/// and `u64::MAX` included, a parent above its child), zero to three args.
fn arb_span() -> impl Strategy<Value = Span> {
    let arg = (
        proptest::string::string_regex("[a-c]{1,2}").unwrap(),
        arb_name(),
    );
    (
        (0usize..4, any::<u32>(), arb_u64(), arb_u64()),
        (arb_u64(), arb_u64(), arb_u64()),
        proptest::collection::vec(arg, 0..4),
    )
        .prop_map(
            |((name, tid, start, dur), (span_id, parent_id, trace_id), args)| Span {
                name: ["create", "merge", "mds.service", "a\"b"][name].to_string(),
                cat: ["client_op", "mds"][name % 2].to_string(),
                tid,
                start: Nanos(start),
                dur: Nanos(dur),
                span_id,
                parent_id,
                trace_id,
                args,
            },
        )
}

/// The `ph:"X"` events of a chrome trace, in document order.
fn trace_events(trace: &str) -> Vec<Value> {
    let doc = json::parse(trace).expect("chrome trace is valid JSON");
    doc.get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array")
        .to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The owned and the borrowed entry store the same log: what reads
    /// back is the first `capacity` events that went in, and the log's own
    /// serializer (rows + arena) writes the bytes the owned `History`
    /// writes — which parse back to the same events.
    #[test]
    fn history_reads_back_what_was_recorded_through_either_entry(
        events in proptest::collection::vec(arb_history_event(), 0..60),
        capacity in 0usize..80,
    ) {
        let owned = HistoryWriter::with_capacity(capacity);
        let borrowed = HistoryWriter::with_capacity(capacity);
        let (reg_owned, reg_borrowed) = (Registry::new(), Registry::new());
        for e in &events {
            owned.record(e.clone());
            borrowed.record(e.map_names(String::as_str));
            reg_owned.record_history(e.clone());
            reg_borrowed.record_history_row(e.map_names(String::as_str));
        }
        let kept = &events[..events.len().min(capacity)];
        let dropped = (events.len() - kept.len()) as u64;
        let want = History { mode: "rpc".into(), events: kept.to_vec(), dropped }.to_json();
        for log in [&owned, &borrowed] {
            prop_assert_eq!(log.events(), kept);
            prop_assert_eq!(log.count(), kept.len());
            prop_assert_eq!(log.dropped(), dropped);
            prop_assert_eq!(log.to_json("rpc"), want.clone());
        }
        let exact: Vec<HistoryEvent> = kept.iter().map(json_exact).collect();
        let text = History { mode: "rpc".into(), events: exact.clone(), dropped }.to_json();
        prop_assert_eq!(History::parse(&text).unwrap().events, exact);

        let all = History { mode: "decoupled".into(), events: events.clone(), dropped: 0 }.to_json();
        for reg in [&reg_owned, &reg_borrowed] {
            prop_assert_eq!(reg.history_events(), events.clone());
            prop_assert_eq!(reg.history_json("decoupled"), all.clone());
        }
    }

    /// Merging a log into another re-packs a prefix of its rows: the result
    /// is what recording everything into one log would have kept, trace
    /// ids rebased where nonzero. (A rebased id stays below `u64::MAX`, as
    /// the ids a registry hands out do.)
    #[test]
    fn history_merge_equals_serial_recording(
        first in proptest::collection::vec(arb_history_event(), 0..30),
        second in proptest::collection::vec(arb_history_event(), 0..30),
        capacity in 0usize..70,
        offset in 0u64..1000,
    ) {
        let serial = HistoryWriter::with_capacity(capacity);
        let merged = HistoryWriter::with_capacity(capacity);
        let task = HistoryWriter::with_capacity(1 << 20);
        for e in &first {
            serial.record(e.clone());
            merged.record(e.clone());
        }
        for e in &second {
            let e = &HistoryEvent { trace_id: e.trace_id.min(u64::MAX - offset), ..e.clone() };
            let mut rebased = e.clone();
            if rebased.trace_id != 0 {
                rebased.trace_id += offset;
            }
            serial.record(rebased);
            task.record(e.map_names(String::as_str));
        }
        merged.merge_from(&task, offset);
        prop_assert_eq!(merged.events(), serial.events());
        prop_assert_eq!(merged.dropped(), serial.dropped());
        prop_assert_eq!(merged.to_json("rpc"), serial.to_json("rpc"));
    }

    /// Spans with zero to three args read back from the log as they went
    /// in, and render into the chrome trace in order after the identity
    /// entries.
    #[test]
    fn spans_read_back_with_their_args(
        spans in proptest::collection::vec(arb_span(), 0..40),
        capacity in 0usize..50,
    ) {
        let reg = Registry::with_span_capacity(capacity);
        for s in &spans {
            reg.record_span(s.clone());
        }
        let kept = &spans[..spans.len().min(capacity)];
        prop_assert_eq!(reg.spans(), kept);
        prop_assert_eq!(reg.spans_dropped(), (spans.len() - kept.len()) as u64);

        let events = trace_events(&reg.chrome_trace_json());
        prop_assert_eq!(events.len(), kept.len());
        for (e, s) in events.iter().zip(kept) {
            prop_assert_eq!(e.get("name").and_then(Value::as_str), Some(s.name.as_str()));
            prop_assert_eq!(e.get("cat").and_then(Value::as_str), Some(s.cat.as_str()));
            let rendered: Vec<(String, String)> = e
                .get("args")
                .and_then(Value::as_obj)
                .unwrap_or(&[])
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().expect("args are strings").to_string()))
                .collect();
            let ids = if s.span_id == 0 { 0 } else { 3 };
            prop_assert_eq!(&rendered[ids..], &s.args[..]);
        }
    }

    /// The `--threads 1` vs N contract over packed registries: a
    /// schedule of traced ops (root span with an arg, a child, a history
    /// row naming the trace) split across per-task registries and merged
    /// in input order equals the serial recording — spans, trace bytes,
    /// history, and where the id allocator stands — including when the
    /// destination's span log fills part-way through a source.
    #[test]
    fn merged_registries_equal_serial_recording(
        ops in proptest::collection::vec((arb_name(), 0u32..4, 0usize..3), 0..40),
        tasks in 1usize..=4,
        capacity in 0usize..100,
    ) {
        let record = |reg: &Registry, (name, tid, extra): &(String, u32, usize)| {
            let root = reg.trace_root(*tid);
            reg.child_span(root, "mds.service", "mds", Nanos(1), Nanos(2));
            let args: Vec<(String, String)> =
                (0..*extra).map(|i| (format!("k{i}"), format!("{name}{i}"))).collect();
            reg.end_span_args(root, "create", "client_op", Nanos(0), Nanos(5), args);
            reg.record_history_row(HistoryEvent {
                client: u64::from(*tid),
                scope: HistoryScope::Global,
                op: HistoryOp::Create { dir: 1, name: name.as_str() },
                result: HistoryResult::Ok,
                ino: 9,
                invoke: Nanos(0),
                ack: Nanos(5),
                epoch: 1,
                trace_id: root.trace_id,
            });
        };
        let serial = Registry::with_span_capacity(capacity);
        for op in &ops {
            record(&serial, op);
        }
        let merged = Registry::with_span_capacity(capacity);
        for chunk in ops.chunks(ops.len().div_ceil(tasks).max(1)) {
            let task = Registry::new();
            for op in chunk {
                record(&task, op);
            }
            merged.merge_from(&task);
        }
        prop_assert_eq!(merged.spans(), serial.spans());
        prop_assert_eq!(merged.spans_dropped(), serial.spans_dropped());
        prop_assert_eq!(merged.chrome_trace_json(), serial.chrome_trace_json());
        prop_assert_eq!(merged.history_events(), serial.history_events());
        prop_assert_eq!(merged.history_json("rpc"), serial.history_json("rpc"));
        prop_assert_eq!(merged.metrics_json(), serial.metrics_json());
        prop_assert_eq!(merged.trace_root(0).span_id, serial.trace_root(0).span_id);
    }
}
