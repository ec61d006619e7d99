//! A layered span (`Registry::layered`, `Mechanism::observe_layered`) is
//! one record in the span log, expanded on read. Every reader must see
//! exactly what recording the span and each layer one by one
//! (`trace_child`, then `child_named` per layer) records: the same spans
//! in the same order, the same exports, the same retained and dropped
//! counts — at every span capacity, and through `merge_from` into a
//! registry that already holds spans.

use cudele_obs::{Layer, Registry};
use cudele_sim::Nanos;
use proptest::prelude::*;

/// One client op: a root with its arg, and the layered spans under it.
#[derive(Debug, Clone)]
struct Op {
    tid: u32,
    start: u64,
    dur: u64,
    groups: Vec<Group>,
}

/// A span under the root, drawn with its layers.
#[derive(Debug, Clone)]
struct Group {
    /// 0..3 picks a mechanism (counted, histogrammed), 3 a plain name.
    kind: u8,
    start: u64,
    dur: u64,
    /// (name, start, dur) per layer.
    layers: Vec<(u8, u64, u64)>,
}

/// Instants and durations: mostly near the op, sometimes anywhere in
/// the `u64` range (a layer may start before its span, or wrap).
fn instant() -> impl Strategy<Value = u64> {
    (0u8..4, any::<u64>()).prop_map(|(kind, r)| if kind == 0 { r } else { r % 1_000_000 })
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let layer = (0u8..4, instant(), instant());
    let group = (
        0u8..4,
        instant(),
        instant(),
        proptest::collection::vec(layer, 0..5),
    )
        .prop_map(|(kind, start, dur, layers)| Group {
            kind,
            start,
            dur,
            layers,
        });
    let op = (
        0u32..4,
        0u64..1 << 40,
        instant(),
        proptest::collection::vec(group, 0..4),
    )
        .prop_map(|(tid, start, dur, groups)| Op {
            tid,
            start,
            dur,
            groups,
        });
    proptest::collection::vec(op, 0..10)
}

/// Spans `ops` records.
fn total(ops: &[Op]) -> usize {
    ops.iter()
        .map(|op| 1 + op.groups.iter().map(|g| 1 + g.layers.len()).sum::<usize>())
        .sum()
}

/// Records `ops` into `reg`, each group as one layered record or as a
/// span and its layers one by one.
fn record(reg: &Registry, ops: &[Op], layered: bool) {
    let names = [
        ("mds.queue_wait", "mds"),
        ("mds.service", "mds"),
        ("net.rpc", "net"),
        ("mds.mdlog", "mds"),
    ]
    .map(|(name, cat)| reg.span_name(name, cat));
    let mechs = ["rpcs", "stream", "volatile_apply"].map(|m| reg.mechanism(m));
    let (plain, create) = (
        reg.span_name("client.append", "client"),
        reg.span_name("create", "client_op"),
    );
    let tid = reg.arg_key("tid");
    for op in ops {
        let root = reg.trace_root(op.tid);
        for g in &op.groups {
            let at = |t: u64| Nanos(op.start.wrapping_add(t));
            let (start, dur) = (at(g.start), Nanos(g.dur));
            let layers: Vec<Layer> = g
                .layers
                .iter()
                .map(|&(name, start, dur)| Layer {
                    name: names[usize::from(name)],
                    start: at(start),
                    dur: Nanos(dur),
                })
                .collect();
            let mech = mechs.get(usize::from(g.kind));
            if layered {
                match mech {
                    Some(m) => m.observe_layered(reg, root, start, dur, &layers),
                    None => reg.layered(root, plain, start, dur, &layers),
                };
            } else {
                let ctx = reg.trace_child(root);
                match mech {
                    Some(m) => m.observe(reg, ctx, start, dur),
                    None => reg.end_named(ctx, plain, start, dur),
                }
                for l in &layers {
                    reg.child_named(ctx, l.name, l.start, l.dur);
                }
            }
        }
        reg.end_named_with(root, create, Nanos(op.start), Nanos(op.dur), tid, op.tid);
    }
}

fn assert_same(a: &Registry, b: &Registry) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.span_count(), b.span_count());
    prop_assert_eq!(a.spans_dropped(), b.spans_dropped());
    prop_assert_eq!(a.spans(), b.spans());
    prop_assert_eq!(a.chrome_trace_json(), b.chrome_trace_json());
    prop_assert_eq!(a.metrics_json(), b.metrics_json());
    for name in ["mds.queue_wait", "net.rpc", "mds.mdlog", "stream", "create"] {
        prop_assert_eq!(a.has_span(name), b.has_span(name), "{}", name);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Recorded straight into a registry of every capacity from 0 to one
    /// past the total.
    #[test]
    fn layered_records_read_back_as_their_spans_at_every_capacity(ops in ops()) {
        for cap in 0..=total(&ops) + 1 {
            let (layered, plain) = (Registry::with_span_capacity(cap), Registry::with_span_capacity(cap));
            record(&layered, &ops, true);
            record(&plain, &ops, false);
            assert_same(&layered, &plain)?;
            prop_assert_eq!(layered.span_count(), cap.min(total(&ops)));
        }
    }

    /// Merged into a registry that already holds spans, at every capacity
    /// of the destination: equal to the one-by-one recording merged the
    /// same way, and to one registry recording both parts serially.
    #[test]
    fn layered_records_merge_as_their_spans_at_every_capacity(
        ops in ops(),
        split in any::<usize>(),
    ) {
        let (pre, post) = ops.split_at(split % (ops.len() + 1));
        let sources = [true, false].map(|layered| {
            let src = Registry::new();
            record(&src, post, layered);
            src
        });
        for cap in 0..=total(&ops) + 1 {
            let merged = [true, false].map(|layered| {
                let dst = Registry::with_span_capacity(cap);
                record(&dst, pre, layered);
                dst.merge_from(&sources[usize::from(!layered)]);
                dst
            });
            let serial = Registry::with_span_capacity(cap);
            record(&serial, pre, false);
            record(&serial, post, false);
            assert_same(&merged[0], &merged[1])?;
            assert_same(&merged[0], &serial)?;
        }
    }
}
