//! The metric tables: names, units, directions and regression bounds.
//! `BENCHMARK.json` at the repository root states the same tables for the
//! acceptance driver; a unit test keeps the two in step.

use Better::{Higher, Lower};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    /// The spelling `BENCHMARK.json` uses.
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload.
///
/// * `ops_per_s_norm` — ops completed per host second of the timed
///   region, calibration-normalised; median over the run's repeats.
/// * `allocs_per_op` / `alloc_bytes_per_op` — heap allocation calls and
///   bytes requested in the timed region, per op; exact.
/// * `peak_live_mb` — high-water mark of live heap bytes over set-up and
///   the timed region.
/// * `ok_ops_share` — ops that neither returned an error nor belong to a
///   run whose output check failed, over ops attempted; 1 when healthy
///   (the complement of the failed-ops share, which would read 0).
/// * `setup_s` — input generation + world construction + population,
///   calibration-normalised; median over the run's repeats.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "ops_per_s_norm",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "alloc_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_live_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "ok_ops_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.001,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: `(name, unit, better)`. No bound — these explain
/// a change, they do not gate it.
pub type PerLayer = (&'static str, &'static str, Better);

/// Every per-layer metric a traced run reports, for every workload (0
/// where the workload does not exercise the layer).
pub const PER_LAYER: [PerLayer; 65] = [
    // In situ: the engine and the process steps it dispatches.
    ("sim.engine.self_ns", "ns", Lower),
    ("sim.engine.events", "count", Lower),
    ("sim.engine.ns_per_event", "ns", Lower),
    ("step.count", "count", Lower),
    ("step.ns_p50", "ns", Lower),
    ("step.ns_p999", "ns", Lower),
    ("step.ns_max", "ns", Lower),
    ("step.growth_ratio", "ratio", Lower),
    // In situ: every ObjectStore call.
    ("rados.store.calls", "count", Lower),
    ("rados.store.busy_ns", "ns", Lower),
    ("rados.store.bytes_written_per_op", "B", Lower),
    ("rados.store.bytes_read_per_op", "B", Lower),
    // Replay: the namespace store alone.
    ("mds.store.mutate_ns_per_op", "ns", Lower),
    ("mds.store.lookup_ns_per_op", "ns", Lower),
    ("mds.store.apply_blind_ns_per_event", "ns", Lower),
    ("mds.store.snapshot_ns_per_entry", "ns", Lower),
    ("mds.store.allocs_per_op", "count", Lower),
    // Replay: the server's op methods, obs detached, mdlog off.
    ("mds.server.create_ns_per_op", "ns", Lower),
    ("mds.server.read_ns_per_op", "ns", Lower),
    ("mds.server.allocs_per_op", "count", Lower),
    ("mds.server.rpcs", "count", Lower),
    ("mds.server.errors", "count", Lower),
    ("mds.mdlog.ns_per_event", "ns", Lower),
    ("mds.mdlog.flushes", "count", Lower),
    ("mds.mdlog.segments", "count", Lower),
    ("mds.session.open_close_ns", "ns", Lower),
    // Replay: journal codec and striped I/O.
    ("journal.codec.encode_ns_per_event", "ns", Lower),
    ("journal.codec.decode_ns_per_event", "ns", Lower),
    ("journal.codec.bytes_per_event", "B", Lower),
    ("journal.io.append_ns_per_event", "ns", Lower),
    ("journal.io.read_ns_per_event", "ns", Lower),
    // Replay: the client libraries.
    ("client.rpc.self_ns_per_op", "ns", Lower),
    ("client.rpc.rpcs_per_op", "ratio", Lower),
    ("client.decoupled.append_ns_per_op", "ns", Lower),
    ("client.decoupled.allocs_per_op", "count", Lower),
    ("core.executor.merge_ns_per_event", "ns", Lower),
    ("mds.server.volatile_apply_ns_per_event", "ns", Lower),
    // In situ (failover_recover): checkpoints during the write phase,
    // then the two recoveries.
    ("mds.checkpoint.count", "count", Lower),
    ("mds.checkpoint.publish_ns", "ns", Lower),
    ("mds.checkpoint.bytes_written", "B", Lower),
    ("mds.checkpoint.stall_ns_max", "ns", Lower),
    ("mds.failover.full_replay_ns_per_event", "ns", Lower),
    ("mds.failover.manifest_recover_ns", "ns", Lower),
    ("mds.failover.replayed_events", "count", Lower),
    ("mds.failover.checkpoint_events", "count", Lower),
    // Replay and counts: what observing the run costs and keeps.
    ("obs.registry.span_ns_per_op", "ns", Lower),
    ("obs.registry.attach_tax_ns_per_op", "ns", Lower),
    ("obs.registry.spans_dropped", "count", Lower),
    ("obs.timeline.sample_ns_per_op", "ns", Lower),
    ("obs.timeline.windows_dropped", "count", Lower),
    ("obs.history.record_ns_per_op", "ns", Lower),
    ("obs.history.events", "count", Higher),
    // Replay: the harness around each op, and rendering.
    ("bench.world.charge_ns_per_op", "ns", Lower),
    ("bench.render.ns", "ns", Lower),
    ("workloads.generate_ns", "ns", Lower),
    // Model counts: exact, reported, not gated.
    ("sim.virtual_end_ns", "ns", Lower),
    ("sim.sojourn_p99_ns", "ns", Lower),
    ("mds.store.inodes_final", "count", Higher),
    ("check.violations", "count", Lower),
    // Bookkeeping.
    ("run.total_ns", "ns", Lower),
    ("step.self_ns", "ns", Lower),
    ("e2e.attributed_share", "share", Higher),
    ("e2e.ops_per_s_raw", "1/s", Higher),
    ("e2e.calib_s", "s", Lower),
    ("trace.overhead_share", "share", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use cudele_obs::json::{self, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).expect(key)
    }

    #[test]
    fn benchmark_json_states_the_same_tables() {
        let doc = benchmark_json();
        let e2e = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let layers = doc.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), name);
            assert_eq!(field(j, "unit"), unit);
            assert_eq!(field(j, "better"), better.as_str());
        }
        let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
        let names: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for n in &names {
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
