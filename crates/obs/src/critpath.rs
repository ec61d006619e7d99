//! Critical-path and self-time analysis over the span DAG.
//!
//! [`analyze`] groups a registry's spans into per-request traces (rooted
//! at the client op), computes each span's *self time* by a timeline
//! sweep, and exposes:
//!
//! * [`Trace::critical_path`] — the chain of latest-finishing children
//!   from the root down, i.e. the spans that bound the request's latency;
//! * [`folded`] — folded-stack output (`root;child;leaf <self_ns>` lines)
//!   consumable by `inferno` / `flamegraph.pl`;
//! * [`mechanism_breakdown`] — per-mechanism latency attribution by layer
//!   (span category), rendered as a table by [`render_breakdown_table`].
//!
//! Self-time attribution is a sweep over elementary intervals of the root
//! window: every instant is attributed to the *deepest* span covering it
//! (ties: later start, then later recording). Because the root covers its
//! whole window, the self times of a root's subtree always sum exactly to
//! the root's duration — the invariant the property tests pin.

use std::collections::BTreeMap;

use crate::Span;

/// One span placed in its trace tree.
#[derive(Debug, Clone)]
pub struct Node {
    /// The underlying span.
    pub span: Span,
    /// Distance from the trace root (root = 0).
    pub depth: u32,
    /// Indices (into [`Trace::nodes`]) of this span's children, in
    /// recording order.
    pub children: Vec<usize>,
    /// Nanoseconds of the root window attributed to this span alone
    /// (covered by it but by none of its descendants).
    pub self_ns: u64,
}

impl Node {
    /// Clamped interval of this span within `window`.
    fn clamped(&self, window: (u64, u64)) -> (u64, u64) {
        let s = self.span.start.0.max(window.0);
        let e = (self.span.start.0 + self.span.dur.0).min(window.1);
        (s, e.max(s))
    }
}

/// One analyzed request: a tree of spans under a single root.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The `trace_id` shared by every span in the tree (0 for legacy
    /// unidentified spans, which analyze as single-node traces).
    pub trace_id: u64,
    /// Index of the root node in [`Trace::nodes`].
    pub root: usize,
    /// The tree's nodes; `root` plus descendants, recording order.
    pub nodes: Vec<Node>,
}

impl Trace {
    /// The root node.
    pub fn root_node(&self) -> &Node {
        &self.nodes[self.root]
    }

    /// Total duration of the request (the root span's duration).
    pub fn total_ns(&self) -> u64 {
        self.root_node().span.dur.0
    }

    /// The critical path: starting at the root, repeatedly descend into
    /// the child that finishes last (ties: later start, then later
    /// recording). Returns node indices, root first.
    pub fn critical_path(&self) -> Vec<usize> {
        let mut path = vec![self.root];
        let mut cur = self.root;
        loop {
            let next = self.nodes[cur].children.iter().copied().max_by_key(|&c| {
                let s = &self.nodes[c].span;
                (s.start.0 + s.dur.0, s.start.0, c)
            });
            match next {
                Some(c) => {
                    path.push(c);
                    cur = c;
                }
                None => return path,
            }
        }
    }

    /// Self time summed by span category (layer) across the tree.
    pub fn layer_self_ns(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for n in &self.nodes {
            *out.entry(n.span.cat.clone()).or_insert(0) += n.self_ns;
        }
        out
    }
}

/// The full analysis of a span log: every trace found, in order of root
/// recording.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// All analyzed traces.
    pub traces: Vec<Trace>,
}

/// Groups `spans` into traces, builds the trees, and computes self times.
///
/// Spans whose `parent_id` refers to a span that is absent from the log
/// (dropped past capacity, or never recorded) are promoted to roots of
/// their own traces, so analysis degrades gracefully under truncation.
pub fn analyze(spans: &[Span]) -> Analysis {
    // span_id -> position in `spans` (ids are unique per registry; 0 means
    // unidentified and never resolvable as a parent).
    let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.span_id != 0 {
            by_id.insert(s.span_id, i);
        }
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match (s.parent_id != 0)
            .then(|| by_id.get(&s.parent_id))
            .flatten()
        {
            Some(&p) if p != i => children[p].push(i),
            _ => roots.push(i),
        }
    }
    let mut traces = Vec::with_capacity(roots.len());
    for root in roots {
        // Collect the subtree in DFS preorder, tracking depth.
        let mut order: Vec<(usize, u32)> = Vec::new();
        let mut stack = vec![(root, 0u32)];
        while let Some((i, d)) = stack.pop() {
            order.push((i, d));
            // Push in reverse so recording order is preserved in DFS.
            for &c in children[i].iter().rev() {
                stack.push((c, d + 1));
            }
        }
        let mut remap: BTreeMap<usize, usize> = BTreeMap::new();
        for (k, &(i, _)) in order.iter().enumerate() {
            remap.insert(i, k);
        }
        let mut nodes: Vec<Node> = order
            .iter()
            .map(|&(i, d)| Node {
                span: spans[i].clone(),
                depth: d,
                children: children[i].iter().map(|c| remap[c]).collect(),
                self_ns: 0,
            })
            .collect();
        let window = {
            let r = &nodes[0].span;
            (r.start.0, r.start.0 + r.dur.0)
        };
        sweep_self_times(&mut nodes, window);
        traces.push(Trace {
            trace_id: spans[root].trace_id,
            root: 0,
            nodes,
        });
    }
    Analysis { traces }
}

/// Attributes every elementary interval of `window` to the deepest
/// covering node (ties: later start, then larger node index), accumulating
/// into `self_ns`. Instants outside every descendant fall to the root, so
/// the subtree's self times sum exactly to the window length.
fn sweep_self_times(nodes: &mut [Node], window: (u64, u64)) {
    let mut cuts: Vec<u64> = Vec::with_capacity(nodes.len() * 2 + 2);
    cuts.push(window.0);
    cuts.push(window.1);
    for n in nodes.iter() {
        let (s, e) = n.clamped(window);
        cuts.push(s);
        cuts.push(e);
    }
    cuts.sort_unstable();
    cuts.dedup();
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if hi <= lo {
            continue;
        }
        let mut best: Option<(u32, u64, usize)> = None;
        for (i, n) in nodes.iter().enumerate() {
            let (s, e) = n.clamped(window);
            if s <= lo && e >= hi {
                let key = (n.depth, s, i);
                if best.is_none_or(|b| key > b) {
                    best = Some(key);
                }
            }
        }
        if let Some((_, _, i)) = best {
            nodes[i].self_ns += hi - lo;
        }
    }
}

/// Folded-stack output: one `root;child;...;leaf <self_ns>` line per
/// distinct stack, aggregated across all traces and sorted — pipe into
/// `inferno-flamegraph` or `flamegraph.pl` to render a flame graph of
/// virtual time.
pub fn folded(a: &Analysis) -> String {
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for t in &a.traces {
        // Stack names from root to each node.
        let mut stacks: Vec<String> = vec![String::new(); t.nodes.len()];
        let mut order = vec![t.root];
        stacks[t.root] = t.nodes[t.root].span.name.clone();
        while let Some(i) = order.pop() {
            for &c in &t.nodes[i].children {
                stacks[c] = format!("{};{}", stacks[i], t.nodes[c].span.name);
                order.push(c);
            }
            if t.nodes[i].self_ns > 0 {
                *agg.entry(stacks[i].clone()).or_insert(0) += t.nodes[i].self_ns;
            }
        }
    }
    let mut out = String::new();
    for (stack, ns) in agg {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

/// Latency attribution for one mechanism across every run in the log.
#[derive(Debug, Clone)]
pub struct MechanismBreakdown {
    /// The mechanism's DSL spelling (`local_persist`, `rpcs`, ...).
    pub name: String,
    /// Number of mechanism spans aggregated.
    pub runs: u64,
    /// Summed mechanism duration across runs.
    pub total_ns: u64,
    /// Self time by layer (span category) within the mechanism's own
    /// subtree, summed across runs. Sums to `total_ns`.
    pub layers: BTreeMap<String, u64>,
}

impl MechanismBreakdown {
    /// Layer shares as fractions of `total_ns` (empty when total is 0).
    pub fn shares(&self) -> BTreeMap<String, f64> {
        if self.total_ns == 0 {
            return BTreeMap::new();
        }
        self.layers
            .iter()
            .map(|(k, &v)| (k.clone(), v as f64 / self.total_ns as f64))
            .collect()
    }
}

/// Per-mechanism layer attribution. Each `mechanism`-category span gets a
/// sweep over *its own* subtree and window (a global sweep would
/// misattribute overlap between mechanisms that run in parallel, e.g.
/// volatile apply racing global persist), then results aggregate by
/// mechanism name, sorted.
pub fn mechanism_breakdown(a: &Analysis) -> Vec<MechanismBreakdown> {
    let mut agg: BTreeMap<String, MechanismBreakdown> = BTreeMap::new();
    for t in &a.traces {
        for (i, n) in t.nodes.iter().enumerate() {
            if n.span.cat != "mechanism" {
                continue;
            }
            // Re-root the mechanism's subtree and sweep it in isolation.
            let mut order = vec![(i, 0u32)];
            let mut sub: Vec<Node> = Vec::new();
            let mut remap: BTreeMap<usize, usize> = BTreeMap::new();
            while let Some((j, d)) = order.pop() {
                remap.insert(j, sub.len());
                sub.push(Node {
                    span: t.nodes[j].span.clone(),
                    depth: d,
                    children: Vec::new(),
                    self_ns: 0,
                });
                for &c in t.nodes[j].children.iter().rev() {
                    order.push((c, d + 1));
                }
            }
            for (&old, &new) in &remap {
                sub[new].children = t.nodes[old]
                    .children
                    .iter()
                    .filter_map(|c| remap.get(c).copied())
                    .collect();
            }
            let window = (n.span.start.0, n.span.start.0 + n.span.dur.0);
            sweep_self_times(&mut sub, window);
            let e = agg
                .entry(n.span.name.clone())
                .or_insert_with(|| MechanismBreakdown {
                    name: n.span.name.clone(),
                    runs: 0,
                    total_ns: 0,
                    layers: BTreeMap::new(),
                });
            e.runs += 1;
            e.total_ns += n.span.dur.0;
            for s in &sub {
                *e.layers.entry(s.span.cat.clone()).or_insert(0) += s.self_ns;
            }
        }
    }
    agg.into_values().collect()
}

/// Renders the per-mechanism latency breakdown as an aligned text table:
/// one row per mechanism, columns for runs, mean duration, and each
/// layer's share of the mechanism's time.
pub fn render_breakdown_table(rows: &[MechanismBreakdown]) -> String {
    let mut layers: Vec<String> = Vec::new();
    for r in rows {
        for k in r.layers.keys() {
            if !layers.contains(k) {
                layers.push(k.clone());
            }
        }
    }
    layers.sort();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>8} {:>14}",
        "mechanism", "runs", "mean_us"
    ));
    for l in &layers {
        out.push_str(&format!(" {:>12}", l));
    }
    out.push('\n');
    for r in rows {
        let mean_us = if r.runs == 0 {
            0.0
        } else {
            r.total_ns as f64 / r.runs as f64 / 1000.0
        };
        out.push_str(&format!("{:<24} {:>8} {:>14.3}", r.name, r.runs, mean_us));
        let shares = r.shares();
        for l in &layers {
            match shares.get(l) {
                Some(s) => out.push_str(&format!(" {:>11.1}%", s * 100.0)),
                None => out.push_str(&format!(" {:>12}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use cudele_sim::Nanos;

    #[test]
    fn orphan_parent_becomes_root() {
        let reg = Registry::new();
        let root = reg.trace_root(0);
        let child = reg.trace_child(root);
        // Only the child is ever recorded: its parent is missing.
        reg.end_named(child, reg.span_name("io", "rados"), Nanos(5), Nanos(10));
        let a = analyze(&reg.spans());
        assert_eq!(a.traces.len(), 1);
        assert_eq!(a.traces[0].root_node().span.name, "io");
        assert_eq!(a.traces[0].root_node().self_ns, 10);
    }

    #[test]
    fn sweep_attributes_to_deepest() {
        let reg = Registry::new();
        let root = reg.trace_root(0);
        let mid = reg.trace_child(root);
        reg.end_named(root, reg.span_name("op", "client_op"), Nanos(0), Nanos(100));
        reg.end_named(
            mid,
            reg.span_name("mech", "mechanism"),
            Nanos(10),
            Nanos(60),
        );
        reg.child_span(mid, "io", "rados", Nanos(20), Nanos(30));
        let a = analyze(&reg.spans());
        assert_eq!(a.traces.len(), 1);
        let t = &a.traces[0];
        let by_name = |n: &str| t.nodes.iter().find(|x| x.span.name == n).unwrap();
        assert_eq!(by_name("io").self_ns, 30);
        assert_eq!(by_name("mech").self_ns, 30); // 60 - covered 30
        assert_eq!(by_name("op").self_ns, 40); // 100 - 60
        let total: u64 = t.nodes.iter().map(|n| n.self_ns).sum();
        assert_eq!(total, t.total_ns());
    }

    #[test]
    fn critical_path_follows_latest_finisher() {
        let reg = Registry::new();
        let root = reg.trace_root(0);
        reg.end_named(root, reg.span_name("op", "client_op"), Nanos(0), Nanos(100));
        reg.child_span(root, "early", "mds", Nanos(0), Nanos(40));
        let late = reg.child_span(root, "late", "journal", Nanos(10), Nanos(80));
        reg.child_span(late, "leaf", "rados", Nanos(50), Nanos(40));
        let a = analyze(&reg.spans());
        let t = &a.traces[0];
        let path: Vec<&str> = t
            .critical_path()
            .into_iter()
            .map(|i| t.nodes[i].span.name.as_str())
            .collect();
        assert_eq!(path, vec!["op", "late", "leaf"]);
    }

    #[test]
    fn folded_output_aggregates_stacks() {
        let reg = Registry::new();
        for _ in 0..2 {
            let root = reg.trace_root(0);
            reg.end_named(root, reg.span_name("op", "client_op"), Nanos(0), Nanos(10));
            reg.child_span(root, "io", "rados", Nanos(2), Nanos(5));
        }
        let a = analyze(&reg.spans());
        let f = folded(&a);
        assert_eq!(f, "op 10\nop;io 10\n");
    }

    #[test]
    fn breakdown_isolates_parallel_mechanisms() {
        let reg = Registry::new();
        let root = reg.trace_root(0);
        reg.end_named(
            root,
            reg.span_name("merge", "client_op"),
            Nanos(0),
            Nanos(100),
        );
        // Two mechanisms overlapping in time; each must get its own full
        // window attributed, not split between them.
        let m1 = reg.child_span(root, "global_persist", "mechanism", Nanos(0), Nanos(100));
        reg.child_span(m1, "stripe_append", "rados", Nanos(0), Nanos(60));
        let m2 = reg.child_span(root, "volatile_apply", "mechanism", Nanos(0), Nanos(50));
        reg.child_span(m2, "apply", "mds", Nanos(0), Nanos(50));
        let rows = mechanism_breakdown(&analyze(&reg.spans()));
        assert_eq!(rows.len(), 2);
        let gp = rows.iter().find(|r| r.name == "global_persist").unwrap();
        assert_eq!(gp.layers["rados"], 60);
        assert_eq!(gp.layers["mechanism"], 40);
        assert_eq!(gp.layers.values().sum::<u64>(), gp.total_ns);
        let va = rows.iter().find(|r| r.name == "volatile_apply").unwrap();
        assert_eq!(va.layers["mds"], 50);
        assert_eq!(va.layers.values().sum::<u64>(), va.total_ns);
        let table = render_breakdown_table(&rows);
        assert!(table.contains("global_persist"));
        assert!(table.contains("mds"));
    }
}
