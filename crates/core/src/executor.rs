//! Executes merge-time mechanism compositions.
//!
//! "The compositions should be considered atomic and there are no
//! guarantees while transitioning between policies" — the executor runs a
//! composition to completion and only then is the cell's guarantee in
//! force. Serial stages (`+`) add their times; parallel mechanisms within
//! a stage (`||`) overlap, so a stage costs its slowest member.

use cudele_client::{DecoupledClient, DiskError, LocalDisk};
use cudele_journal::{decode_journal, journal_exists, read_journal, JournalEvent, JournalIoError};
use std::sync::Arc;

use cudele_mds::{MdsError, MetadataServer, ObjectStoreSink, PersistError, PersistObs};
use cudele_obs::{ArgKey, Registry, SpanName, TraceCtx};
use cudele_rados::{ObjectStore, PoolId};
use cudele_sim::Nanos;

use crate::dsl::Composition;
use crate::mechanism::Mechanism;
use crate::policy::Durability;

cudele_obs::handles! {
    /// A traced merge's handles: the registry its history rows go to, the
    /// four merge-time mechanisms, the spans of the layers the executor
    /// itself drives, and the Nonvolatile Apply sink's handles, which each
    /// NVA run clones. (Global Persist draws its spans through the client's
    /// own handles.)
    pub struct MergeObs(reg: &Arc<Registry>) {
        reg: Arc<Registry> = Arc::clone(reg),
        persist: PersistObs = PersistObs::new(reg),
        local_persist: cudele_obs::Mechanism = reg.mechanism("local_persist"),
        global_persist: cudele_obs::Mechanism = reg.mechanism("global_persist"),
        volatile_apply: cudele_obs::Mechanism = reg.mechanism("volatile_apply"),
        nonvolatile_apply: cudele_obs::Mechanism = reg.mechanism("nonvolatile_apply"),
        merge: SpanName = reg.span_name("merge", "client_op"),
        events_arg: ArgKey = reg.arg_key("events"),
        disk_write: SpanName = reg.span_name("disk.write", "client"),
        net_transfer: SpanName = reg.span_name("net.transfer", "net"),
        mds_apply: SpanName = reg.span_name("mds.apply", "mds"),
        net_reply: SpanName = reg.span_name("net.reply", "net"),
        replay: SpanName = reg.span_name("journal.replay", "journal"),
        object_io: SpanName = reg.span_name("rados.object_io", "rados"),
    }
}

impl MergeObs {
    /// The handle merge-time mechanism `m` is observed through.
    fn mechanism(&self, m: Mechanism) -> &cudele_obs::Mechanism {
        match m {
            Mechanism::LocalPersist => &self.local_persist,
            Mechanism::GlobalPersist => &self.global_persist,
            Mechanism::VolatileApply => &self.volatile_apply,
            Mechanism::NonvolatileApply => &self.nonvolatile_apply,
            other => unreachable!("{other} never runs in a merge"),
        }
    }
}

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
/// present (the mechanism span's context and its start; `obs` is then
/// present too), the layers doing the work emit child spans: `client`
/// (local disk), `net` (transfers), `mds` (apply CPU), `journal`/`rados`
/// (replay and stripe I/O), and `faults` (injected-retry backoff).
fn run_mechanism(
    m: Mechanism,
    client: &mut DecoupledClient,
    env: &mut ExecEnv<'_>,
    obs: Option<&MergeObs>,
    trace: Option<(TraceCtx, Nanos)>,
) -> Result<Nanos, ExecError> {
    let spans = obs.zip(trace);
    match m {
        Mechanism::LocalPersist => {
            let cm = env.server.cost_model().clone();
            let t = client.local_persist(env.disk, &cm)?;
            if let Some((o, (ctx, at))) = spans {
                o.reg.child_named(ctx, o.disk_write, at, t);
            }
            Ok(t)
        }
        Mechanism::GlobalPersist => {
            let cm = env.server.cost_model().clone();
            Ok(client.global_persist(env.os, &cm, trace)?)
        }
        Mechanism::VolatileApply => {
            let (result, cost, transfer) = client.volatile_apply(env.server);
            result?;
            if let Some((o, (ctx, at))) = spans {
                let (apply, reply) = (at + transfer, at + transfer + cost.mds_cpu);
                o.reg.child_named(ctx, o.net_transfer, at, transfer);
                o.reg.child_named(ctx, o.mds_apply, apply, cost.mds_cpu);
                o.reg
                    .child_named(ctx, o.net_reply, reply, cost.client_extra);
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
            if !journal_exists(env.os, jid) {
                elapsed += client.global_persist(env.os, &cm, trace)?;
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
            if let Some(o) = obs {
                sink.set_obs(o.persist.clone());
            }
            // Allocate the replay span's identity up front so the sink's
            // retry spans nest under it; the span itself is recorded once
            // the replay's extent is known.
            let replay = spans.map(|(o, (ctx, at))| (o, o.reg.trace_child(ctx), at + elapsed));
            if let Some((_, ctx, start)) = replay {
                sink.set_trace(ctx, start);
            }
            for e in &read_journal(env.os, jid)? {
                sink.apply_event(e)?;
            }
            let io_time =
                cm.object_op_latency * (sink.counters.object_reads + sink.counters.object_writes);
            if let Some((o, ctx, start)) = replay {
                // Transient-fault backoff stretches the replay window.
                o.reg
                    .end_named(ctx, o.replay, start, io_time + sink.backoff);
                o.reg.child_named(ctx, o.object_io, start, io_time);
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

/// [`execute_merge`] with tracing: when `obs` is given, the merge opens a
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
    obs: Option<&MergeObs>,
    tid: u32,
    at: Nanos,
) -> Result<MergeReport, ExecError> {
    let events = client.event_count();
    let root = obs.map(|o| (o, o.reg.trace_root(tid)));
    let mut per_mechanism = Vec::new();
    let mut elapsed = Nanos::ZERO;
    for stage in comp.stages() {
        let stage_start = at + elapsed;
        let mut stage_max = Nanos::ZERO;
        for &m in stage {
            let mctx = root.map(|(o, root)| o.reg.trace_child(root));
            let t = run_mechanism(m, client, env, obs, mctx.map(|c| (c, stage_start)))?;
            if let Some(((o, _), ctx)) = root.zip(mctx) {
                o.mechanism(m).observe(&o.reg, ctx, stage_start, t);
            }
            per_mechanism.push((m, t));
            stage_max = stage_max.max(t);
        }
        elapsed += stage_max;
    }
    if let Some((o, root)) = root {
        let r = &o.reg;
        r.end_named_with(root, o.merge, at, elapsed, o.events_arg, events);
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
/// by reading back what each tier holds. Global: the stored journal exists
/// and reads back strictly (every stripe present, every frame's CRC
/// checked), and the client's events are a prefix of it. Local: the
/// local-disk blob passes the same test, probed with a crashed but
/// recoverable node revived. None: anything else. A client a merge cleared
/// holds no events, so for it only the strict read counts. Table I and the
/// durability table in `tests/chaos.rs` ask it whether each row delivers
/// (exactly) what it promises.
pub fn achieved_durability(
    client: &DecoupledClient,
    disk: &LocalDisk,
    os: &dyn ObjectStore,
) -> Durability {
    let holds = |stored: &[JournalEvent]| stored.starts_with(client.events());
    let id = client.journal_id();
    if journal_exists(os, id) && read_journal(os, id).is_ok_and(|e| holds(&e)) {
        return Durability::Global;
    }
    let mut probe = disk.clone();
    probe.recover();
    let path = format!("client{}-journal.bin", client.id.0);
    match probe.read(&path).map(decode_journal) {
        Ok(Ok(events)) if holds(&events) => Durability::Local,
        _ => Durability::None,
    }
}

/// Whether the client's updates are visible in the global namespace (the
/// consistency question: after a merge they must be; under "invisible"
/// they must not be until the merge runs).
pub fn visible_in_global(server: &MetadataServer, client: &DecoupledClient) -> bool {
    client.events().iter().all(|e| match e {
        JournalEvent::Create { parent, name, .. } | JournalEvent::Mkdir { parent, name, .. } => {
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

    /// FNV-1a, 64-bit.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Runs all four merge-time mechanisms across three stages, traced at
    /// 5 ms on track 3 (the NVA stage starts after local_persist; the
    /// parallel pair shares a start), with the client attached to the
    /// merge's registry: Global Persist draws its spans through the
    /// client's handles. With `eagain_ppm` > 0 the merge's store is a
    /// seeded transient-fault store over the server's own, so the journal
    /// writer and the NVA sink retry.
    fn traced_merge(eagain_ppm: u32) -> (Arc<Registry>, MergeReport, Nanos) {
        let (mut server, os, mut disk, mut client) = setup();
        let reg = Arc::new(Registry::new());
        client.attach_obs(&reg);
        let faults = cudele_faults::FaultConfig {
            seed: 14,
            eagain_ppm,
            ..Default::default()
        };
        let (faulty, _) = cudele_faults::wire_faults(os, faults, server.cost_model());
        let comp: Composition = "local_persist+global_persist||volatile_apply+nonvolatile_apply"
            .parse()
            .unwrap();
        let at = Nanos::from_millis(5);
        let report = execute_merge_at(
            &comp,
            &mut client,
            &mut ExecEnv {
                server: &mut server,
                os: faulty.as_ref(),
                disk: &mut disk,
            },
            Some(&MergeObs::new(&reg)),
            3,
            at,
        )
        .unwrap();
        (reg, report, at)
    }

    /// The traced merge's span tree, fault-free and over a transient-fault
    /// store, where every absorbed retry is a `faults` span under the
    /// mechanism (Global Persist) or the replay (NVA) that paid its
    /// backoff. HOW RECORDED: the `chrome_trace_json()` digests were
    /// printed by this assertion, run with 0 in their place at commit
    /// fd7b0dc, before the merge's span names moved into `MergeObs`. A
    /// change that moves a span id, a start, an arg or the recording order
    /// moves them.
    #[test]
    fn traced_merge_emits_span_per_mechanism() {
        for (eagain_ppm, digest) in [(0, 14889440561594403341), (200_000, 9691164827152575460)] {
            let (reg, report, at) = traced_merge(eagain_ppm);
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
            let append = child("rados.stripe_append");
            assert_eq!(append.parent_id, gp.span_id);
            assert_eq!(child("net.transfer").parent_id, va.span_id);
            assert_eq!(child("mds.apply").parent_id, va.span_id);
            assert_eq!(child("net.reply").parent_id, va.span_id);
            let replay = child("journal.replay");
            assert_eq!(replay.parent_id, nva.span_id);
            let object_io = child("rados.object_io");
            assert_eq!(object_io.parent_id, replay.span_id);

            // Retry spans sit under the span that pays their backoff, each
            // at that span's anchor plus the backoff accumulated before it,
            // and stretch it by exactly their total.
            let retries: Vec<_> = spans.iter().filter(|s| s.cat == "faults").collect();
            let mut retry_names: Vec<&str> = retries.iter().map(|s| s.name.as_str()).collect();
            retry_names.sort_unstable();
            retry_names.dedup();
            if eagain_ppm == 0 {
                assert!(retry_names.is_empty(), "{retry_names:?}");
            } else {
                assert_eq!(
                    retry_names,
                    ["retry.journal_io", "retry.object_io", "retry.stripe_append"]
                );
            }
            for (parent, names, work) in [
                (gp, &["retry.stripe_append", "retry.journal_io"][..], append),
                (replay, &["retry.object_io"][..], object_io),
            ] {
                let mut anchor = parent.start;
                for r in retries.iter().filter(|r| r.parent_id == parent.span_id) {
                    assert!(
                        names.contains(&r.name.as_str()),
                        "{} under {}",
                        r.name,
                        parent.name
                    );
                    assert_eq!(r.start, anchor, "{}", r.name);
                    anchor += r.dur;
                }
                assert_eq!(
                    parent.dur,
                    work.dur + (anchor - parent.start),
                    "{}",
                    parent.name
                );
            }
            assert!(retries
                .iter()
                .all(|r| r.parent_id == gp.span_id || r.parent_id == replay.span_id));

            // Layer self-times partition the root window exactly.
            let analysis = cudele_obs::critpath::analyze(&spans);
            assert_eq!(analysis.traces.len(), 1);
            let total: u64 = analysis.traces[0].nodes.iter().map(|n| n.self_ns).sum();
            assert_eq!(total, report.elapsed.0);

            assert_eq!(
                fnv1a(reg.chrome_trace_json().as_bytes()),
                digest,
                "eagain_ppm={eagain_ppm}"
            );
        }
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

    /// Stripe `seq` of `client`'s stored journal.
    fn stripe(client: &DecoupledClient, seq: u64) -> cudele_rados::ObjectId {
        let id = client.journal_id();
        cudele_rados::ObjectId::journal_stripe(id.pool, id.ino, seq)
    }

    /// The judge reads what it rates: a global-persisted journal with one
    /// stripe byte flipped at rest fails its frame CRC, so it is not Global,
    /// and with no local blob it is None.
    #[test]
    fn a_journal_flipped_at_rest_is_not_global() {
        let (mut server, os, mut disk, mut client) = setup();
        merge("global_persist", &mut server, &os, &mut disk, &mut client).unwrap();
        assert_eq!(
            achieved_durability(&client, &disk, os.as_ref()),
            Durability::Global
        );
        let mut data = os.read(&stripe(&client, 0)).unwrap().to_vec();
        let mid = data.len() / 2;
        data[mid] ^= 0x01;
        os.write_full(&stripe(&client, 0), &data).unwrap();
        assert_eq!(
            achieved_durability(&client, &disk, os.as_ref()),
            Durability::None
        );
    }

    /// A multi-stripe journal whose lower stripe lost its last frame still
    /// reads back `Ok`, one event short (the header marks only the last
    /// stripe's end), so the judge asks whether the client's events are a
    /// prefix of what it read.
    #[test]
    fn a_lower_stripe_cut_at_a_frame_boundary_is_not_global() {
        let (_, os, disk, client) = setup();
        let mut w =
            cudele_journal::JournalWriter::open_with_stripe(os.as_ref(), client.journal_id(), 256)
                .unwrap();
        w.append(client.events()).unwrap();
        assert!(w.stripes() > 2);
        let data = os.read(&stripe(&client, 0)).unwrap();
        let (mut last, mut end) = (0, 0);
        while end < data.len() {
            last = end;
            end += 8 + u32::from_le_bytes(data[end..end + 4].try_into().unwrap()) as usize;
        }
        os.write_full(&stripe(&client, 0), &data[..last]).unwrap();
        let read = read_journal(os.as_ref(), client.journal_id()).unwrap();
        assert_eq!(read.len() + 1, client.events().len());
        assert_eq!(
            achieved_durability(&client, &disk, os.as_ref()),
            Durability::None
        );
    }

    /// A local blob that lost its last byte does not decode: None.
    #[test]
    fn a_truncated_local_blob_is_not_local() {
        let (mut server, os, mut disk, mut client) = setup();
        merge("local_persist", &mut server, &os, &mut disk, &mut client).unwrap();
        assert_eq!(
            achieved_durability(&client, &disk, os.as_ref()),
            Durability::Local
        );
        let path = "client1-journal.bin";
        let blob = disk.read(path).unwrap().to_vec();
        disk.write(path, &blob[..blob.len() - 1]).unwrap();
        assert_eq!(
            achieved_durability(&client, &disk, os.as_ref()),
            Durability::None
        );
    }

    #[test]
    fn invisible_until_merge() {
        let (server, _os, _disk, client) = setup();
        assert!(!visible_in_global(&server, &client));
    }
}
