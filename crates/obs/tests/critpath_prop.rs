//! Critical-path analyzer coverage: a hand-built span DAG with a known
//! critical path, plus property tests over randomized trees pinning the
//! sweep invariant — layer self-times sum exactly to the trace duration.

use cudele_obs::critpath::{analyze, folded, mechanism_breakdown};
use cudele_obs::Registry;
use cudele_sim::Nanos;
use proptest::prelude::*;

/// A miniature global-persist request, built by hand:
///
/// ```text
/// create (client_op)            [0, 1000)
/// ├── rpcs (mechanism)          [0, 300)
/// │   └── mds.service (mds)     [100, 250)
/// └── global_persist (mech.)    [300, 1000)
///     ├── stripe_append (rados) [300, 700)
///     └── retry (faults)        [700, 950)
/// ```
///
/// Critical path: create → global_persist → retry (latest finisher at
/// every level). Layer self times partition the 1000ns exactly.
#[test]
fn hand_built_dag_has_known_critical_path_and_attribution() {
    let reg = Registry::new();
    let root = reg.trace_root(7);
    reg.end_named(
        root,
        reg.span_name("create", "client_op"),
        Nanos(0),
        Nanos(1000),
    );
    let rpcs = reg.child_span(root, "rpcs", "mechanism", Nanos(0), Nanos(300));
    reg.child_span(rpcs, "mds.service", "mds", Nanos(100), Nanos(150));
    let gp = reg.child_span(root, "global_persist", "mechanism", Nanos(300), Nanos(700));
    reg.child_span(gp, "stripe_append", "rados", Nanos(300), Nanos(400));
    reg.child_span(gp, "retry", "faults", Nanos(700), Nanos(250));

    let a = analyze(&reg.spans());
    assert_eq!(a.traces.len(), 1);
    let t = &a.traces[0];
    assert_eq!(t.total_ns(), 1000);

    let path: Vec<&str> = t
        .critical_path()
        .iter()
        .map(|&i| t.nodes[i].span.name.as_str())
        .collect();
    assert_eq!(path, vec!["create", "global_persist", "retry"]);

    let layers = t.layer_self_ns();
    assert_eq!(layers["mds"], 150);
    assert_eq!(layers["rados"], 400);
    assert_eq!(layers["faults"], 250);
    // rpcs self = 300-150, gp self = 700-400-250.
    assert_eq!(layers["mechanism"], 150 + 50);
    // create's own self: [0,1000) minus the two mechanism windows = 0.
    assert_eq!(layers["client_op"], 0);
    assert_eq!(layers.values().sum::<u64>(), 1000);

    // The folded output carries full stacks and the same total.
    let f = folded(&a);
    assert!(f.contains("create;global_persist;retry 250\n"), "{f}");
    let folded_total: u64 = f
        .lines()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(folded_total, 1000);

    // Per-mechanism breakdown partitions each mechanism's window.
    let rows = mechanism_breakdown(&a);
    let gp_row = rows.iter().find(|r| r.name == "global_persist").unwrap();
    assert_eq!(gp_row.total_ns, 700);
    assert_eq!(gp_row.layers["rados"], 400);
    assert_eq!(gp_row.layers["faults"], 250);
    assert_eq!(gp_row.layers.values().sum::<u64>(), 700);
}

/// Spec for one randomized node: parent selector, start, duration.
/// Children may start before, extend past, or fall entirely outside the
/// root window — the sweep clamps, and the invariant must still hold.
fn arb_tree() -> impl Strategy<Value = (u64, Vec<(u16, u64, u64)>)> {
    (
        0u64..1500,
        proptest::collection::vec((any::<u16>(), 0u64..2000, 0u64..1500), 0..24),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn self_times_sum_to_trace_duration(tree in arb_tree()) {
        let (root_dur, nodes) = tree;
        let reg = Registry::new();
        let root = reg.trace_root(0);
        reg.end_named(root, reg.span_name("root", "client_op"), Nanos(100), Nanos(root_dur));
        let mut ctxs = vec![root];
        for (i, &(psel, start, dur)) in nodes.iter().enumerate() {
            let parent = ctxs[psel as usize % ctxs.len()];
            let cat = ["mds", "journal", "rados", "net", "faults"][i % 5];
            let ctx = reg.child_span(parent, &format!("n{i}"), cat, Nanos(start), Nanos(dur));
            ctxs.push(ctx);
        }
        let a = analyze(&reg.spans());
        prop_assert_eq!(a.traces.len(), 1);
        let t = &a.traces[0];
        let self_total: u64 = t.nodes.iter().map(|n| n.self_ns).sum();
        prop_assert_eq!(self_total, root_dur, "self times must partition the root window");
        let layer_total: u64 = t.layer_self_ns().values().sum();
        prop_assert_eq!(layer_total, root_dur);

        // The critical path is a root-anchored parent→child chain.
        let path = t.critical_path();
        prop_assert_eq!(path[0], t.root);
        for w in path.windows(2) {
            prop_assert!(t.nodes[w[0]].children.contains(&w[1]));
        }
    }

    #[test]
    fn folded_totals_match_trace_totals(tree in arb_tree()) {
        let (root_dur, nodes) = tree;
        let reg = Registry::new();
        let root = reg.trace_root(0);
        reg.end_named(root, reg.span_name("root", "client_op"), Nanos(0), Nanos(root_dur));
        let mut ctxs = vec![root];
        for (i, &(psel, start, dur)) in nodes.iter().enumerate() {
            let parent = ctxs[psel as usize % ctxs.len()];
            let ctx = reg.child_span(parent, &format!("n{i}"), "mds", Nanos(start), Nanos(dur));
            ctxs.push(ctx);
        }
        let a = analyze(&reg.spans());
        let folded_total: u64 = folded(&a)
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        prop_assert_eq!(folded_total, root_dur);
    }
}
