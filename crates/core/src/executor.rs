//! Executes merge-time mechanism compositions.
//!
//! "The compositions should be considered atomic and there are no
//! guarantees while transitioning between policies" — the executor runs a
//! composition to completion and only then is the cell's guarantee in
//! force. Serial stages (`+`) add their times; parallel mechanisms within
//! a stage (`||`) overlap, so a stage costs its slowest member.

use cudele_client::{DecoupledClient, DiskError, LocalDisk};
use cudele_journal::{read_journal, JournalIoError};
use cudele_mds::{MdsError, MetadataServer, ObjectStoreSink, PersistError};
use cudele_obs::{observe_mechanism_at, Registry, TraceSink};
use cudele_rados::{ObjectStore, PoolId};
use cudele_sim::Nanos;

use crate::dsl::Composition;
use crate::mechanism::Mechanism;
use crate::policy::Durability;

/// Execution failures.
#[derive(Debug)]
pub enum ExecError {
    /// A metadata operation failed.
    Mds(MdsError),
    /// The client's local disk rejected a persist.
    Disk(DiskError),
    /// Journal I/O against the object store failed.
    Journal(JournalIoError),
    /// The object-store metadata representation failed.
    Persist(PersistError),
    /// A non-merge-time mechanism (RPCs, Stream, Append Client Journal)
    /// appeared in a merge composition.
    NotMergeTime(Mechanism),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Mds(e) => write!(f, "metadata error: {e}"),
            ExecError::Disk(e) => write!(f, "local disk error: {e}"),
            ExecError::Journal(e) => write!(f, "journal error: {e}"),
            ExecError::Persist(e) => write!(f, "persistence error: {e}"),
            ExecError::NotMergeTime(m) => {
                write!(f, "mechanism {m} is an operation mode, not a merge step")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<MdsError> for ExecError {
    fn from(e: MdsError) -> Self {
        ExecError::Mds(e)
    }
}

impl From<DiskError> for ExecError {
    fn from(e: DiskError) -> Self {
        ExecError::Disk(e)
    }
}

impl From<JournalIoError> for ExecError {
    fn from(e: JournalIoError) -> Self {
        ExecError::Journal(e)
    }
}

impl From<PersistError> for ExecError {
    fn from(e: PersistError) -> Self {
        ExecError::Persist(e)
    }
}

/// What one merge execution did and how long it (virtually) took.
#[derive(Debug, Clone)]
pub struct MergeReport {
    /// Total elapsed virtual time (serial sum of stage maxima).
    pub elapsed: Nanos,
    /// Per-mechanism elapsed times, in execution order.
    pub per_mechanism: Vec<(Mechanism, Nanos)>,
    /// Journal events the composition operated on.
    pub events: u64,
}

/// Everything a merge needs to touch.
pub struct ExecEnv<'a> {
    /// The metadata server receiving merges.
    pub server: &'a mut MetadataServer,
    /// The object store for persists and Nonvolatile Apply.
    pub os: &'a dyn ObjectStore,
    /// The merging client's local disk (Local Persist).
    pub disk: &'a mut LocalDisk,
}

/// Runs one mechanism; returns its virtual duration. When `trace` is
/// present (its context is the mechanism's own span), the layers doing the
/// work emit child spans: `client` (local disk), `net` (transfers), `mds`
/// (apply CPU), `journal`/`rados` (replay and stripe I/O), and `faults`
/// (injected-retry backoff).
fn run_mechanism(
    m: Mechanism,
    client: &mut DecoupledClient,
    env: &mut ExecEnv<'_>,
    reg: Option<&Registry>,
    trace: Option<TraceSink<'_>>,
) -> Result<Nanos, ExecError> {
    match m {
        Mechanism::LocalPersist => {
            let cm = env.server.cost_model().clone();
            let t = client.local_persist(env.disk, &cm)?;
            if let Some(s) = &trace {
                s.child("disk.write", "client", s.at, t);
            }
            Ok(t)
        }
        Mechanism::GlobalPersist => {
            let cm = env.server.cost_model().clone();
            Ok(client.global_persist_traced(env.os, &cm, trace)?)
        }
        Mechanism::VolatileApply => {
            let (result, cost, transfer) = client.volatile_apply(env.server);
            result?;
            if let Some(s) = &trace {
                s.child("net.transfer", "net", s.at, transfer);
                s.child("mds.apply", "mds", s.at + transfer, cost.mds_cpu);
                s.child(
                    "net.reply",
                    "net",
                    s.at + transfer + cost.mds_cpu,
                    cost.client_extra,
                );
            }
            Ok(transfer + cost.mds_cpu + cost.client_extra)
        }
        Mechanism::NonvolatileApply => {
            let cm = env.server.cost_model().clone();
            let mut elapsed = Nanos::ZERO;
            // NVA communicates through the object store: the journal must
            // be there first ("replays the client's in-memory journal into
            // the object store").
            let jid = client.journal_id();
            if !cudele_journal::journal_exists(env.os, jid) {
                elapsed += client.global_persist_traced(env.os, &cm, trace)?;
            }
            // The MDS's periodic flush keeps the object-store metadata
            // image current; NVA's object-to-object replay assumes that
            // image exists, so bring it up to date first (in CephFS this
            // has already happened by trim time).
            env.server.try_flush_journal()?;
            cudele_mds::flush_store(env.server.store(), env.os, PoolId::METADATA)?;
            // Iterate the journal, pulling/updating/pushing the affected
            // dirfrag object and the root object per event.
            let mut sink = ObjectStoreSink::new(env.os, PoolId::METADATA);
            if let Some(reg) = reg {
                sink.set_obs(reg);
            }
            // Allocate the replay span's identity up front so the sink's
            // retry spans nest under it; the span itself is recorded once
            // the replay's extent is known.
            let replay_start = trace.as_ref().map(|s| s.at + elapsed);
            let replay_ctx = trace.as_ref().map(|s| s.reg.trace_child(s.ctx));
            if let (Some(s), Some(ctx), Some(start)) = (&trace, replay_ctx, replay_start) {
                sink.set_trace(s.nested(ctx, start));
            }
            for e in &read_journal(env.os, jid)? {
                sink.apply_event(e)?;
            }
            let io_time =
                cm.object_op_latency * (sink.counters.object_reads + sink.counters.object_writes);
            if let (Some(s), Some(ctx), Some(start)) = (&trace, replay_ctx, replay_start) {
                // Transient-fault backoff stretches the replay window.
                s.reg.end_span(
                    ctx,
                    "journal.replay",
                    "journal",
                    start,
                    io_time + sink.backoff,
                );
                s.reg
                    .child_span(ctx, "rados.object_io", "rados", start, io_time);
            }
            elapsed += io_time;
            // Transient-fault retries in the sink are paid for in backoff.
            elapsed += sink.backoff;
            // "...and restarts the metadata servers. When the metadata
            // servers re-initialize, they notice new journal updates in the
            // object store and replay the events onto their in-memory
            // metadata stores." A server with a checkpoint manifest
            // recovers from its image and mdlog tail, never the dirfrags,
            // so the MDS logs the replayed events before it restarts.
            env.server.journal_applied(client.events())?;
            env.server.crash_and_recover()?;
            Ok(elapsed)
        }
        other => Err(ExecError::NotMergeTime(other)),
    }
}

/// Executes a merge-time composition for one decoupled client.
///
/// Functionally, mechanisms run in listed order (parallel mechanisms in a
/// stage are executed deterministically left to right); *time* is
/// accounted as `sum over stages of max over stage members`.
pub fn execute_merge(
    comp: &Composition,
    client: &mut DecoupledClient,
    env: &mut ExecEnv<'_>,
) -> Result<MergeReport, ExecError> {
    execute_merge_at(comp, client, env, None, 0, Nanos::ZERO)
}

/// [`execute_merge`] with tracing: when `reg` is given, the merge opens a
/// `client_op` trace root (`merge`) and every executed mechanism emits a
/// child span (and `core.mechanism.<name>.runs`/`.ns` metrics) anchored at
/// virtual time `at`, on trace track `tid` — with the layers below (disk,
/// net, MDS, journal, RADOS, fault retries) nesting as grandchildren.
/// Parallel stage members share a start instant; serial stages are laid
/// out end to end by each stage's maximum, matching the time accounting.
pub fn execute_merge_at(
    comp: &Composition,
    client: &mut DecoupledClient,
    env: &mut ExecEnv<'_>,
    reg: Option<&Registry>,
    tid: u32,
    at: Nanos,
) -> Result<MergeReport, ExecError> {
    let events = client.event_count();
    let root = reg.map(|r| r.trace_root(tid));
    let mut per_mechanism = Vec::new();
    let mut elapsed = Nanos::ZERO;
    for stage in comp.stages() {
        let stage_start = at + elapsed;
        let mut stage_max = Nanos::ZERO;
        for &m in stage {
            let mctx = match (reg, root) {
                (Some(r), Some(root)) => Some(r.trace_child(root)),
                _ => None,
            };
            let trace = match (reg, mctx) {
                (Some(r), Some(ctx)) => Some(TraceSink::new(r, ctx, stage_start)),
                _ => None,
            };
            let t = run_mechanism(m, client, env, reg, trace)?;
            if let (Some(r), Some(ctx)) = (reg, mctx) {
                observe_mechanism_at(r, m.name(), ctx, stage_start, t);
            }
            per_mechanism.push((m, t));
            stage_max = stage_max.max(t);
        }
        elapsed += stage_max;
    }
    if let (Some(r), Some(root)) = (reg, root) {
        r.end_span_args(
            root,
            "merge",
            "client_op",
            at,
            elapsed,
            vec![("events".to_string(), events.to_string())],
        );
        // A composition containing an apply mechanism is a global-
        // visibility point: record it in the consistency history so the
        // eventual-visibility checker knows when acked local ops must
        // become observable.
        let applies = comp
            .stages()
            .iter()
            .flatten()
            .any(|m| matches!(m, Mechanism::VolatileApply | Mechanism::NonvolatileApply));
        if applies {
            r.record_history(cudele_obs::history::HistoryEvent {
                client: u64::from(client.id.0),
                scope: cudele_obs::history::HistoryScope::Global,
                op: cudele_obs::history::HistoryOp::Merge { events },
                result: cudele_obs::history::HistoryResult::Ok,
                ino: 0,
                invoke: at,
                ack: at + elapsed,
                epoch: env.server.epoch().0,
                trace_id: root.trace_id,
            });
        }
    }
    Ok(MergeReport {
        elapsed,
        per_mechanism,
        events,
    })
}

/// The durability class a client journal has *actually* achieved, judged
/// by where it can be recovered from. Used by the failure-injection tests
/// to check that each Table I row delivers (exactly) what it promises.
pub fn achieved_durability(
    client: &DecoupledClient,
    disk: &LocalDisk,
    os: &dyn ObjectStore,
) -> Durability {
    if cudele_journal::journal_exists(os, client.journal_id()) {
        return Durability::Global;
    }
    let path = format!("client{}-journal.bin", client.id.0);
    match disk.read(&path) {
        Ok(_) => Durability::Local,
        // A crashed-but-recoverable node still counts as local durability;
        // probe by cloning with the node revived.
        Err(DiskError::NodeDown) => {
            let mut probe = disk.clone();
            probe.recover();
            if probe.read(&path).is_ok() {
                Durability::Local
            } else {
                Durability::None
            }
        }
        Err(_) => Durability::None,
    }
}

/// Whether the client's updates are visible in the global namespace (the
/// consistency question: after a merge they must be; under "invisible"
/// they must not be until the merge runs).
pub fn visible_in_global(server: &MetadataServer, client: &DecoupledClient) -> bool {
    client.events().iter().all(|e| match e {
        cudele_journal::JournalEvent::Create { parent, name, .. }
        | cudele_journal::JournalEvent::Mkdir { parent, name, .. } => {
            server.store().lookup(*parent, name).is_ok()
        }
        _ => true,
    }) && client.event_count() > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudele_mds::ClientId;
    use cudele_rados::InMemoryStore;
    use std::sync::Arc;

    fn setup() -> (
        MetadataServer,
        Arc<InMemoryStore>,
        LocalDisk,
        DecoupledClient,
    ) {
        let os = Arc::new(InMemoryStore::paper_default());
        let mut server = MetadataServer::new(os.clone());
        server.open_session(ClientId(1));
        server.setup_dir("/batch").unwrap();
        let (client, _) = DecoupledClient::decouple(&mut server, ClientId(1), "/batch", 1000);
        let mut client = client.unwrap();
        for i in 0..100 {
            client.create(client.root, &format!("f{i}")).unwrap();
        }
        (server, os, LocalDisk::new(), client)
    }

    #[test]
    fn volatile_apply_merges_and_times() {
        let (mut server, os, mut disk, mut client) = setup();
        let comp: Composition = "volatile_apply".parse().unwrap();
        let report = execute_merge(
            &comp,
            &mut client,
            &mut ExecEnv {
                server: &mut server,
                os: os.as_ref(),
                disk: &mut disk,
            },
        )
        .unwrap();
        assert_eq!(report.events, 100);
        assert!(report.elapsed > Nanos::ZERO);
        assert!(visible_in_global(&server, &client));
    }

    #[test]
    fn serial_stages_add_parallel_stages_max() {
        let (mut server, os, mut disk, mut client) = setup();
        // Serial: local_persist + volatile_apply.
        let serial: Composition = "local_persist+volatile_apply".parse().unwrap();
        let t_serial = execute_merge(
            &serial,
            &mut client,
            &mut ExecEnv {
                server: &mut server,
                os: os.as_ref(),
                disk: &mut disk,
            },
        )
        .unwrap();
        let sum: Nanos = t_serial.per_mechanism.iter().map(|&(_, t)| t).sum();
        assert_eq!(t_serial.elapsed, sum);

        // Parallel: the same two overlap.
        let (mut server2, os2, mut disk2, mut client2) = setup();
        let parallel: Composition = "local_persist||volatile_apply".parse().unwrap();
        let t_par = execute_merge(
            &parallel,
            &mut client2,
            &mut ExecEnv {
                server: &mut server2,
                os: os2.as_ref(),
                disk: &mut disk2,
            },
        )
        .unwrap();
        let max = t_par.per_mechanism.iter().map(|&(_, t)| t).max().unwrap();
        assert_eq!(t_par.elapsed, max);
        assert!(t_par.elapsed < t_serial.elapsed);
    }

    #[test]
    fn nva_equals_va_plus_gp_final_state() {
        // Paper: "Nonvolatile Apply (78x) and composing Volatile Apply +
        // Global Persist (1.3x) end up with the same final metadata state
        // but using Nonvolatile Apply is clearly inferior."
        let (mut server_a, os_a, mut disk_a, mut client_a) = setup();
        let nva: Composition = "nonvolatile_apply".parse().unwrap();
        let report_a = execute_merge(
            &nva,
            &mut client_a,
            &mut ExecEnv {
                server: &mut server_a,
                os: os_a.as_ref(),
                disk: &mut disk_a,
            },
        )
        .unwrap();

        let (mut server_b, os_b, mut disk_b, mut client_b) = setup();
        let vagp: Composition = "global_persist||volatile_apply".parse().unwrap();
        let report_b = execute_merge(
            &vagp,
            &mut client_b,
            &mut ExecEnv {
                server: &mut server_b,
                os: os_b.as_ref(),
                disk: &mut disk_b,
            },
        )
        .unwrap();

        // Same final namespace shape.
        assert_eq!(server_a.store().shape(), server_b.store().shape());
        // NVA clearly inferior in time.
        assert!(report_a.elapsed > report_b.elapsed.scale(10.0));
    }

    fn merge(
        comp: &str,
        server: &mut MetadataServer,
        os: &InMemoryStore,
        disk: &mut LocalDisk,
        client: &mut DecoupledClient,
    ) -> Result<MergeReport, ExecError> {
        let comp: Composition = comp.parse().unwrap();
        execute_merge(&comp, client, &mut ExecEnv { server, os, disk })
    }

    /// NVA flushes the MDS journal before it replays; a store that refuses
    /// that flush fails the merge instead of panicking the server. Every
    /// OSD but the one holding the client journal's header goes down, so
    /// NVA finds the journal and reaches the flush, whose mdlog stripe is on
    /// a down OSD.
    #[test]
    fn nva_whose_journal_flush_is_refused_is_an_error() {
        let (mut server, os, mut disk, mut client) = setup();
        merge("global_persist", &mut server, &os, &mut disk, &mut client).unwrap();
        server.flush_journal();
        server.setup_dir_durable("/late").unwrap();
        assert!(server.unflushed_events() > 0);
        let jid = client.journal_id();
        for osd in 0..3 {
            os.fail_osd(osd);
            if !cudele_journal::journal_exists(os.as_ref(), jid) {
                os.revive_osd(osd);
            }
        }
        assert!(cudele_journal::journal_exists(os.as_ref(), jid));
        let r = merge(
            "nonvolatile_apply",
            &mut server,
            &os,
            &mut disk,
            &mut client,
        );
        assert!(
            matches!(r, Err(ExecError::Mds(MdsError::Io { .. }))),
            "{r:?}"
        );
    }

    #[test]
    fn traced_merge_emits_span_per_mechanism() {
        let (mut server, os, mut disk, mut client) = setup();
        let reg = Registry::new();
        // All four merge-time mechanisms across three stages: the NVA stage
        // starts after local_persist; the parallel pair shares a start.
        let comp: Composition = "local_persist+global_persist||volatile_apply+nonvolatile_apply"
            .parse()
            .unwrap();
        let at = Nanos::from_millis(5);
        let report = execute_merge_at(
            &comp,
            &mut client,
            &mut ExecEnv {
                server: &mut server,
                os: os.as_ref(),
                disk: &mut disk,
            },
            Some(&reg),
            3,
            at,
        )
        .unwrap();
        for name in [
            "local_persist",
            "global_persist",
            "volatile_apply",
            "nonvolatile_apply",
        ] {
            assert_eq!(
                reg.counter_value(&format!("core.mechanism.{name}.runs")),
                Some(1),
                "{name}"
            );
            assert!(reg.has_span(name), "{name}");
        }
        let spans = reg.spans();
        let lp = spans.iter().find(|s| s.name == "local_persist").unwrap();
        let gp = spans.iter().find(|s| s.name == "global_persist").unwrap();
        let va = spans.iter().find(|s| s.name == "volatile_apply").unwrap();
        let nva = spans
            .iter()
            .find(|s| s.name == "nonvolatile_apply")
            .unwrap();
        assert_eq!(lp.start, at);
        assert_eq!(gp.start, at + lp.dur);
        assert_eq!(va.start, gp.start); // parallel stage members share a start
        assert_eq!(nva.start, gp.start + gp.dur.max(va.dur));
        assert_eq!(nva.start + nva.dur, at + report.elapsed);

        // The whole tree roots at the client op and stays on track 3.
        let root = spans.iter().find(|s| s.cat == "client_op").unwrap();
        assert_eq!(root.name, "merge");
        assert_eq!(root.start, at);
        assert_eq!(root.dur, report.elapsed);
        assert_eq!(root.parent_id, 0);
        assert!(spans.iter().all(|s| s.tid == 3));
        assert!(spans.iter().all(|s| s.trace_id == root.trace_id));
        for m in [lp, gp, va, nva] {
            assert_eq!(m.cat, "mechanism");
            assert_eq!(m.parent_id, root.span_id, "{}", m.name);
        }

        // Each mechanism's layer work nests under it.
        let child = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
        assert_eq!(child("disk.write").parent_id, lp.span_id);
        assert_eq!(child("disk.write").cat, "client");
        assert_eq!(child("rados.stripe_append").parent_id, gp.span_id);
        assert_eq!(child("net.transfer").parent_id, va.span_id);
        assert_eq!(child("mds.apply").parent_id, va.span_id);
        assert_eq!(child("net.reply").parent_id, va.span_id);
        let replay = child("journal.replay");
        assert_eq!(replay.parent_id, nva.span_id);
        assert_eq!(child("rados.object_io").parent_id, replay.span_id);

        // Layer self-times partition the root window exactly.
        let analysis = cudele_obs::critpath::analyze(&spans);
        assert_eq!(analysis.traces.len(), 1);
        let total: u64 = analysis.traces[0].nodes.iter().map(|n| n.self_ns).sum();
        assert_eq!(total, report.elapsed.0);
    }

    #[test]
    fn operation_mode_mechanisms_rejected() {
        let (mut server, os, mut disk, mut client) = setup();
        for bad in ["rpcs", "stream", "append_client_journal"] {
            let comp: Composition = bad.parse().unwrap();
            let err = execute_merge(
                &comp,
                &mut client,
                &mut ExecEnv {
                    server: &mut server,
                    os: os.as_ref(),
                    disk: &mut disk,
                },
            )
            .unwrap_err();
            assert!(matches!(err, ExecError::NotMergeTime(_)), "{bad}");
        }
    }

    #[test]
    fn durability_ladder() {
        let (mut server, os, mut disk, mut client) = setup();
        // Nothing persisted yet.
        assert_eq!(
            achieved_durability(&client, &disk, os.as_ref()),
            Durability::None
        );
        // Local persist -> local.
        let lp: Composition = "local_persist".parse().unwrap();
        execute_merge(
            &lp,
            &mut client,
            &mut ExecEnv {
                server: &mut server,
                os: os.as_ref(),
                disk: &mut disk,
            },
        )
        .unwrap();
        assert_eq!(
            achieved_durability(&client, &disk, os.as_ref()),
            Durability::Local
        );
        // Node crash (recoverable) keeps local durability.
        disk.crash();
        assert_eq!(
            achieved_durability(&client, &disk, os.as_ref()),
            Durability::Local
        );
        disk.recover();
        // Global persist -> global.
        let gp: Composition = "global_persist".parse().unwrap();
        execute_merge(
            &gp,
            &mut client,
            &mut ExecEnv {
                server: &mut server,
                os: os.as_ref(),
                disk: &mut disk,
            },
        )
        .unwrap();
        assert_eq!(
            achieved_durability(&client, &disk, os.as_ref()),
            Durability::Global
        );
        // Even destroying the node cannot lose globally persisted updates.
        disk.destroy();
        assert_eq!(
            achieved_durability(&client, &disk, os.as_ref()),
            Durability::Global
        );
    }

    #[test]
    fn invisible_until_merge() {
        let (server, _os, _disk, client) = setup();
        assert!(!visible_in_global(&server, &client));
    }
}
