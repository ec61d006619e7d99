//! Failure injection: crash clients, client nodes, the MDS, and OSDs at
//! every stage of each mechanism, and verify that exactly the promised
//! durability/consistency class survives.
//!
//! The paper's framing: "None is different than local durability because
//! regardless of the type of failure, metadata will be lost when
//! components die in a None configuration"; local survives *recoverable*
//! node failures; global survives everything.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use cudele::{achieved_durability, execute_merge, Composition, Durability, ExecEnv};
use cudele_client::{DecoupledClient, LocalDisk};
use cudele_journal::InodeRange;
use cudele_mds::{ClientId, MetadataServer};
use cudele_rados::{
    InMemoryStore, IoDelta, ObjectId, ObjectStat, ObjectStore, PoolId, RadosError,
    Result as RadosResult,
};

const CLIENT: ClientId = ClientId(1);

struct Rig {
    server: MetadataServer,
    os: Arc<InMemoryStore>,
    disk: LocalDisk,
    client: DecoupledClient,
}

fn rig(events: u64) -> Rig {
    let os = Arc::new(InMemoryStore::paper_default());
    let mut server = MetadataServer::new(os.clone());
    server.open_session(CLIENT);
    server.setup_dir("/job").unwrap();
    let (client, _) = DecoupledClient::decouple(&mut server, CLIENT, "/job", events + 10);
    let mut client = client.unwrap();
    for i in 0..events {
        client.create(client.root, &format!("f{i}")).unwrap();
    }
    Rig {
        server,
        os,
        disk: LocalDisk::new(),
        client,
    }
}

fn merge(rig: &mut Rig, comp: &str) {
    let comp: Composition = comp.parse().unwrap();
    execute_merge(
        &comp,
        &mut rig.client,
        &mut ExecEnv {
            server: &mut rig.server,
            os: rig.os.as_ref(),
            disk: &mut rig.disk,
        },
    )
    .unwrap();
}

// ---------------------------------------------------------------------
// Durability classes under node failure
// ---------------------------------------------------------------------

#[test]
fn none_durability_loses_everything_on_any_failure() {
    let mut r = rig(50);
    // No persist ran. Node crash (even recoverable) loses the in-memory
    // journal — there is nothing on disk to replay.
    r.disk.crash();
    r.disk.recover();
    assert!(DecoupledClient::recover_from_local_disk(
        CLIENT,
        r.client.root,
        InodeRange::new(r.client.events()[0].allocates().unwrap(), 60),
        &r.disk
    )
    .is_err());
    assert_eq!(
        achieved_durability(&r.client, &r.disk, r.os.as_ref()),
        Durability::None
    );
}

#[test]
fn local_durability_survives_recoverable_crash_only() {
    let mut r = rig(50);
    merge(&mut r, "local_persist");
    // Recoverable crash: journal comes back.
    r.disk.crash();
    assert_eq!(
        achieved_durability(&r.client, &r.disk, r.os.as_ref()),
        Durability::Local
    );
    r.disk.recover();
    let recovered = DecoupledClient::recover_from_local_disk(
        CLIENT,
        r.client.root,
        InodeRange::new(r.client.events()[0].allocates().unwrap(), 60),
        &r.disk,
    )
    .unwrap();
    assert_eq!(recovered.events(), r.client.events());

    // Permanent node loss: gone. "If the client fails and stays down then
    // computation must be done again."
    r.disk.destroy();
    assert_eq!(
        achieved_durability(&r.client, &r.disk, r.os.as_ref()),
        Durability::None
    );
}

#[test]
fn global_durability_survives_client_loss_and_osd_failure() {
    let mut r = rig(50);
    merge(&mut r, "global_persist");
    // The client node evaporates.
    r.disk.destroy();
    assert_eq!(
        achieved_durability(&r.client, &r.disk, r.os.as_ref()),
        Durability::Global
    );
    // The journal can be fetched from the object store with zero client
    // state.
    let events = cudele_journal::read_journal(r.os.as_ref(), r.client.journal_id()).unwrap();
    assert_eq!(events.len(), 50);
}

#[test]
fn replicated_object_store_survives_single_osd_failure() {
    // With replication 2, one OSD down does not lose the globally
    // persisted journal.
    let os = Arc::new(InMemoryStore::new(3, 2));
    let mut server = MetadataServer::new(os.clone());
    server.open_session(CLIENT);
    server.setup_dir("/job").unwrap();
    let (client, _) = DecoupledClient::decouple(&mut server, CLIENT, "/job", 30);
    let mut client = client.unwrap();
    for i in 0..20 {
        client.create(client.root, &format!("f{i}")).unwrap();
    }
    client
        .global_persist(os.as_ref(), server.cost_model())
        .unwrap();
    for osd in 0..3 {
        os.fail_osd(osd);
        let events = cudele_journal::read_journal(os.as_ref(), client.journal_id()).unwrap();
        assert_eq!(events.len(), 20, "journal unreadable with OSD {osd} down");
        os.revive_osd(osd);
    }
}

// ---------------------------------------------------------------------
// MDS crashes
// ---------------------------------------------------------------------

#[test]
fn mds_crash_before_merge_preserves_nothing_of_the_decoupled_job() {
    let mut r = rig(50);
    // The MDS knows nothing about the decoupled updates; a crash+recover
    // leaves the global namespace without them (by design — invisible).
    r.server.flush_journal();
    r.server.crash_and_recover().unwrap();
    assert!(
        r.server
            .store()
            .readdir(r.client.root)
            .map(|v| v.len())
            .unwrap_or(0)
            == 0
    );
    // The client journal is intact client-side; the merge can run later.
    assert_eq!(r.client.event_count(), 50);
}

#[test]
fn mds_crash_after_volatile_apply_loses_merge_without_stream_flush() {
    let mut r = rig(50);
    merge(&mut r, "volatile_apply");
    assert_eq!(r.server.store().readdir(r.client.root).unwrap().len(), 50);
    // Volatile apply wrote only MDS memory. Crash without flushing: gone.
    // (crash_and_recover does not flush — that is the point.)
    r.server.crash_and_recover().unwrap();
    let survived = r
        .server
        .store()
        .readdir(r.client.root)
        .map(|v| v.len())
        .unwrap_or(0);
    assert_eq!(survived, 0, "volatile apply must not survive an MDS crash");
}

#[test]
fn mds_crash_after_nonvolatile_apply_preserves_merge() {
    let mut r = rig(50);
    merge(&mut r, "nonvolatile_apply");
    // NVA wrote the object store representation; crash+recover again and
    // the files are still there.
    r.server.crash_and_recover().unwrap();
    assert_eq!(r.server.store().readdir(r.client.root).unwrap().len(), 50);
}

#[test]
fn global_persist_plus_volatile_apply_recoverable_end_to_end() {
    // The weak/global cell: after GP||VA, even if the MDS crashes the
    // journal is in the object store, so the merge can be replayed.
    let mut r = rig(50);
    merge(&mut r, "global_persist||volatile_apply");
    r.server.crash_and_recover().unwrap();
    // In-memory merge lost...
    let after_crash = r
        .server
        .store()
        .readdir(r.client.root)
        .map(|v| v.len())
        .unwrap_or(0);
    assert_eq!(after_crash, 0);
    // ...but the journal is global: re-apply it.
    let events = cudele_journal::read_journal(r.os.as_ref(), r.client.journal_id()).unwrap();
    r.server.open_session(CLIENT);
    let applied = r.server.volatile_apply(CLIENT, &events).result.unwrap();
    assert_eq!(applied, 50);
    assert_eq!(r.server.store().readdir(r.client.root).unwrap().len(), 50);
}

#[test]
fn stream_flush_boundary_is_exactly_what_survives() {
    // RPC-path creates with Stream on: everything flushed to the journal
    // survives an MDS crash; everything after the last flush is lost.
    let os = Arc::new(InMemoryStore::paper_default());
    let mut server = MetadataServer::new(os);
    server.open_session(CLIENT);
    let dir = server.setup_dir("/posix").unwrap();
    let sub = server.mkdir(CLIENT, dir, "work").result.unwrap();
    for i in 0..30 {
        server
            .create(CLIENT, sub.ino, &format!("pre-{i}"))
            .result
            .unwrap();
    }
    server.flush_journal(); // checkpoint
    for i in 0..30 {
        server
            .create(CLIENT, sub.ino, &format!("post-{i}"))
            .result
            .unwrap();
    }
    // Crash without flushing the post-writes.
    server.crash_and_recover().unwrap();
    let entries = server.store().readdir(sub.ino).unwrap();
    let pre = entries
        .iter()
        .filter(|(n, _)| n.starts_with("pre-"))
        .count();
    let post = entries
        .iter()
        .filter(|(n, _)| n.starts_with("post-"))
        .count();
    assert_eq!(pre, 30, "flushed updates must survive");
    assert_eq!(post, 0, "unflushed updates must be lost");
}

// ---------------------------------------------------------------------
// Crash *during* a composition: "we make no guarantees while
// transitioning between policies ... the semantics are guaranteed once
// the mechanism completes"
// ---------------------------------------------------------------------

#[test]
fn crash_mid_composition_leaves_previous_class() {
    let mut r = rig(50);
    // Local persist completes, then the node dies before global persist
    // could run: the achieved class is Local, not Global — and after the
    // node is destroyed, None. No intermediate state claims Global.
    merge(&mut r, "local_persist");
    assert_eq!(
        achieved_durability(&r.client, &r.disk, r.os.as_ref()),
        Durability::Local
    );
    r.disk.destroy();
    assert_eq!(
        achieved_durability(&r.client, &r.disk, r.os.as_ref()),
        Durability::None
    );
}

// ---------------------------------------------------------------------
// I/O failures are errors, not observations of absence
// ---------------------------------------------------------------------

/// Every OSD is out while the mdlog (one event per segment, one segment
/// per dispatch) tries to flush an unlink. The server must report an I/O
/// error, not ENOENT: the history oracle treats ENOENT as an observation
/// that the name was absent, and `f` was very much present.
#[test]
fn journal_io_failure_is_an_io_error_not_enoent() {
    use cudele_mds::{MdLogConfig, MdsError};
    use cudele_obs::history::{History, HistoryOp, HistoryResult};
    use cudele_sim::{CostModel, Nanos};

    let os = Arc::new(InMemoryStore::paper_default());
    let mut server = MetadataServer::with_config(
        os.clone(),
        CostModel::calibrated(),
        Some(MdLogConfig {
            events_per_segment: 1,
            dispatch_size: 1,
            trim_after_updates: None,
        }),
    );
    let reg = Arc::new(cudele_obs::Registry::new());
    server.attach_obs(&reg);
    server.open_session(CLIENT);
    let dir = server.setup_dir_durable("/d").unwrap();
    server.set_now(Nanos::from_micros(100));
    server.create(CLIENT, dir, "f").expect_ok();

    let (from, until) = (Nanos::from_millis(1), Nanos::from_millis(2));
    for osd in 0..os.osd_stats().len() {
        os.schedule_outage(osd, from, until);
    }
    let during = Nanos::from_micros(1500);
    os.set_now(during);
    server.set_now(during);
    let reply = server.unlink(CLIENT, dir, "f");
    assert!(
        matches!(reply.result, Err(MdsError::Io { .. })),
        "an outage under the journal append is an I/O error, got {:?}",
        reply.result
    );
    // Known gap (DESIGN.md §11.5): the in-memory mutation stands, exactly as
    // for a fenced append.
    assert!(server.store().lookup(dir, "f").is_err());

    let history = History::parse(&reg.history_json("rpc")).unwrap();
    assert_eq!(history.events.len(), 2);
    let row = &history.events[1];
    assert!(matches!(row.op, HistoryOp::Unlink { .. }));
    assert_eq!(row.result, HistoryResult::Err, "recorded as `err`");
    let report = cudele_check::check_history(&history);
    assert!(report.clean(), "verdict: {:?}", report.violations);
}

// ---------------------------------------------------------------------
// Store failures under a rewrite or an attach are errors, not a fresh start
// ---------------------------------------------------------------------

/// An in-memory store that can be told to fail `Transient` past any retry
/// budget: every `remove` while `stuck_removals` is set, the next few
/// `append`s of chosen objects, the next few writes of a journal header.
/// It can also die on its writer: once `mutations_left` runs out every
/// further mutation fails `Unavailable` and nothing more lands. Everything
/// else passes through, counted.
struct FlakyStore {
    inner: InMemoryStore,
    stuck_removals: AtomicBool,
    failing_appends: Mutex<FailingAppends>,
    failing_header_writes: AtomicU32,
    /// Mutations still allowed to land (`u64::MAX`: no limit).
    mutations_left: AtomicU64,
    /// Mutations admitted so far.
    mutations: AtomicU64,
    /// Calls of any kind — reads, probes and listings too.
    calls: AtomicU64,
}

#[derive(Default)]
struct FailingAppends {
    /// Appends still to fail.
    left: u32,
    /// Only objects whose name ends with this are affected.
    suffix: &'static str,
    /// A failing append first lands its first frame and three bytes of the
    /// next — a torn write that cut the run past a whole frame.
    torn: bool,
}

impl FlakyStore {
    fn new() -> FlakyStore {
        FlakyStore {
            inner: InMemoryStore::paper_default(),
            stuck_removals: AtomicBool::new(false),
            failing_appends: Mutex::default(),
            failing_header_writes: AtomicU32::new(0),
            mutations_left: AtomicU64::new(u64::MAX),
            mutations: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    fn called(&self) -> &InMemoryStore {
        self.calls.fetch_add(1, Ordering::SeqCst);
        &self.inner
    }

    /// Every mutation goes through here: counted, or refused once the
    /// writer's budget is spent.
    fn admit(&self, id: &ObjectId) -> RadosResult<()> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let one_fewer = |n: u64| n.checked_sub(1);
        self.mutations_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, one_fewer)
            .map_err(|_| RadosError::Unavailable(id.clone()))?;
        self.mutations.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn fail_appends(&self, left: u32, suffix: &'static str, torn: bool) {
        *self.failing_appends.lock().unwrap() = FailingAppends { left, suffix, torn };
    }
}

impl ObjectStore for FlakyStore {
    fn remove(&self, id: &ObjectId) -> RadosResult<()> {
        self.admit(id)?;
        if self.stuck_removals.load(Ordering::SeqCst) {
            return Err(RadosError::Transient(id.clone()));
        }
        self.inner.remove(id)
    }
    fn write_full(&self, id: &ObjectId, data: &[u8]) -> RadosResult<u64> {
        self.admit(id)?;
        let one_fewer = |n: u32| n.checked_sub(1);
        if id.name.ends_with("_header")
            && self
                .failing_header_writes
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, one_fewer)
                .is_ok()
        {
            return Err(RadosError::Transient(id.clone()));
        }
        self.inner.write_full(id, data)
    }
    fn cas_write_full(&self, id: &ObjectId, expected: u64, data: &[u8]) -> RadosResult<u64> {
        self.admit(id)?;
        self.inner.cas_write_full(id, expected, data)
    }
    fn append(&self, id: &ObjectId, data: &[u8]) -> RadosResult<u64> {
        self.admit(id)?;
        let mut failing = self.failing_appends.lock().unwrap();
        if failing.left > 0 && id.name.ends_with(failing.suffix) {
            failing.left -= 1;
            if failing.torn {
                let first = 8 + u32::from_le_bytes(data[..4].try_into().unwrap()) as usize;
                assert!(first + 3 < data.len(), "a run of several frames");
                self.inner.append(id, &data[..first + 3])?;
            }
            return Err(RadosError::Transient(id.clone()));
        }
        self.inner.append(id, data)
    }
    fn read(&self, id: &ObjectId) -> RadosResult<Bytes> {
        self.called().read(id)
    }
    fn stat(&self, id: &ObjectId) -> RadosResult<ObjectStat> {
        self.called().stat(id)
    }
    fn exists(&self, id: &ObjectId) -> bool {
        self.called().exists(id)
    }
    fn list(&self, pool: PoolId, prefix: &str) -> Vec<ObjectId> {
        self.called().list(pool, prefix)
    }
    fn omap_set(&self, id: &ObjectId, key: &str, value: &[u8]) -> RadosResult<u64> {
        self.admit(id)?;
        self.inner.omap_set(id, key, value)
    }
    fn omap_get(&self, id: &ObjectId, key: &str) -> RadosResult<Option<Bytes>> {
        self.called().omap_get(id, key)
    }
    fn omap_remove(&self, id: &ObjectId, key: &str) -> RadosResult<bool> {
        self.admit(id)?;
        self.inner.omap_remove(id, key)
    }
    fn omap_list(&self, id: &ObjectId) -> RadosResult<Vec<(String, Bytes)>> {
        self.called().omap_list(id)
    }
    fn take_io_delta(&self) -> IoDelta {
        self.inner.take_io_delta()
    }
}

/// `flush_store` rewrites the image wholesale: stale fragment objects are
/// removed first because `write_full` keeps an object's omap. If that
/// removal fails the flush must fail too — reporting success would let the
/// mdlog trim the journal prefix that still holds the unlink, and the next
/// load would bring the deleted name back.
#[test]
fn failed_stale_removal_fails_the_flush_instead_of_resurrecting_names() {
    use cudele_journal::{Attrs, InodeId};
    use cudele_mds::{flush_store, load_store, MetadataStore};

    let os = FlakyStore::new();
    let mut ms = MetadataStore::new();
    for (i, name) in ["a", "b"].into_iter().enumerate() {
        ms.create(
            InodeId::ROOT,
            name,
            InodeId(0x1000 + i as u64),
            Attrs::file_default(),
        )
        .unwrap();
    }
    flush_store(&ms, &os, PoolId::METADATA).unwrap();
    ms.unlink(InodeId::ROOT, "a").unwrap();

    os.stuck_removals.store(true, Ordering::SeqCst);
    if flush_store(&ms, &os, PoolId::METADATA).is_ok() {
        assert_eq!(
            load_store(&os, PoolId::METADATA).unwrap().snapshot(),
            ms.snapshot(),
            "the flush reported success over a stale fragment"
        );
    }

    // Once removals work again the same flush converges.
    os.stuck_removals.store(false, Ordering::SeqCst);
    flush_store(&ms, &os, PoolId::METADATA).unwrap();
    assert_eq!(
        load_store(&os, PoolId::METADATA).unwrap().snapshot(),
        ms.snapshot()
    );
}

/// Same shape one layer up: `Monitor::persist` replaces the monmap
/// wholesale so a cleared policy does not linger. A failed removal must
/// fail the persist rather than leave the cleared subtree in the omap.
#[test]
fn failed_monmap_removal_fails_the_persist_instead_of_keeping_cleared_policies() {
    use cudele::{Monitor, Policy};

    let os = FlakyStore::new();
    let mut mon = Monitor::new();
    mon.set_policy("/a", Policy::batchfs());
    mon.set_policy("/b", Policy::batchfs());
    mon.persist(&os).unwrap();
    mon.clear_policy("/a").unwrap();

    os.stuck_removals.store(true, Ordering::SeqCst);
    if mon.persist(&os).is_ok() {
        let recovered = Monitor::recover(&os).unwrap();
        assert!(
            recovered.policy_at("/a").is_none(),
            "the persist reported success with the cleared policy still stored"
        );
    }

    os.stuck_removals.store(false, Ordering::SeqCst);
    mon.persist(&os).unwrap();
    let recovered = Monitor::recover(&os).unwrap();
    assert!(recovered.policy_at("/a").is_none());
    assert!(recovered.policy_at("/b").is_some());
    assert_eq!(recovered.version(), mon.version());
}

// ---------------------------------------------------------------------
// A flush that fails keeps what it could not write
// ---------------------------------------------------------------------

/// Creates against a journaling MDS (4-event segments, dispatched one at a
/// time) on a store that `break_store` sets up, part-way through, to fail
/// one kind of write nine times in a row — the first attempt and all eight
/// retries — so one flush fails past the writer's retry budget while the
/// server keeps running and later flushes succeed. Every create that was
/// acknowledged `Ok` must be there after a later flush and a crash, and so
/// must everything else the server applied.
fn acknowledged_creates_survive_a_failed_flush(break_store: impl Fn(&FlakyStore)) {
    use cudele_mds::{MdLogConfig, MdsError};
    use cudele_sim::CostModel;

    let os = Arc::new(FlakyStore::new());
    let mut mds = MetadataServer::with_config(
        os.clone(),
        CostModel::calibrated(),
        Some(MdLogConfig {
            events_per_segment: 4,
            dispatch_size: 1,
            trim_after_updates: None,
        }),
    );
    mds.open_session(CLIENT);
    let dir = mds.setup_dir_durable("/d").unwrap();
    let mut acknowledged = Vec::new();
    for i in 0..24 {
        if i == 6 {
            break_store(&os);
        }
        let name = format!("f{i}");
        match mds.create(CLIENT, dir, &name).result {
            Ok(_) => acknowledged.push(name),
            Err(e) => assert!(matches!(e, MdsError::Io { .. }), "{name}: {e}"),
        }
    }
    assert_eq!(acknowledged.len(), 23, "one create saw its flush fail");

    let applied = mds.store().snapshot();
    mds.try_flush_journal().unwrap();
    mds.crash_and_recover().unwrap();
    for name in &acknowledged {
        assert!(
            mds.store().lookup(dir, name).is_ok(),
            "{name} was acknowledged and did not survive"
        );
    }
    assert_eq!(mds.store().snapshot(), applied);
}

/// The stripe append fails (the header, a different object, is fine): the
/// segment must stay queued until an append of it is acknowledged.
#[test]
fn failed_segment_append_is_retried_by_the_next_flush() {
    acknowledged_creates_survive_a_failed_flush(|os| os.fail_appends(9, "", false));
}

/// Same, with every failed attempt tearing: one whole frame and part of
/// the next land each time, and the writer must cut the stripe back even
/// as it gives up, or the retried segment would sit behind a torn frame.
#[test]
fn failed_torn_segment_append_leaves_nothing_behind() {
    acknowledged_creates_survive_a_failed_flush(|os| os.fail_appends(9, "", true));
}

/// The append lands and the header write fails: the retry re-lands frames
/// that are already in the stripe, and replay applies them twice to the
/// same effect.
#[test]
fn segment_relanded_after_a_failed_header_write_replays_idempotently() {
    acknowledged_creates_survive_a_failed_flush(|os| {
        os.failing_header_writes.store(9, Ordering::SeqCst);
    });
    // The same through the writer alone, where it can be seen: a batch
    // that spans two stripes, the second of which refuses appends.
    use cudele_journal::{read_journal, Attrs, InodeId, JournalEvent, JournalId, JournalWriter};

    let events: Vec<JournalEvent> = (0..10)
        .map(|i| JournalEvent::Create {
            parent: InodeId::ROOT,
            name: format!("f{i}"),
            ino: InodeId(0x1000 + i),
            attrs: Attrs::file_default(),
        })
        .collect();
    let id = JournalId::new(PoolId::METADATA, 0x300);
    let os = FlakyStore::new();
    os.fail_appends(9, ".00000001", false);
    let mut w = JournalWriter::open_with_stripe(&os, id, 400).unwrap();
    assert!(w.append(&events).is_err());
    // What landed is visible to the next writer and reader: the header
    // counts the stripe the failed run opened.
    let landed = read_journal(&os, id).unwrap();
    assert!(!landed.is_empty() && landed.len() < events.len());
    assert_eq!(landed, events[..landed.len()]);
    let mut w = JournalWriter::open_with_stripe(&os, id, 400).unwrap();
    assert_eq!(w.stripes(), 2);
    w.append(&events).unwrap();
    let relanded = read_journal(&os, id).unwrap();
    assert_eq!(relanded, [landed.as_slice(), events.as_slice()].concat());

    assert_eq!(replay(&relanded).snapshot(), replay(&events).snapshot());
}

/// Re-enabling checkpoints while the store is out must not be read as "no
/// checkpoint state": a manager that restarts at epoch 0 on top of five
/// published manifests overwrites the immutable per-epoch objects of the
/// fallback ladder and then loses every HEAD CAS, so each later flush —
/// and every journaled create past the interval — fails.
#[test]
fn outage_while_enabling_checkpoints_is_an_error_not_a_fresh_namespace() {
    use cudele_mds::{CheckpointConfig, MdLogConfig, MdsError};
    use cudele_sim::CostModel;

    let os = Arc::new(InMemoryStore::paper_default());
    let mut mds = MetadataServer::with_config(
        os.clone(),
        CostModel::calibrated(),
        Some(MdLogConfig {
            events_per_segment: 4,
            dispatch_size: 1,
            trim_after_updates: None,
        }),
    );
    let cfg = CheckpointConfig { interval_events: 2 };
    mds.enable_checkpoints(cfg).unwrap();
    mds.open_session(CLIENT);
    let dir = mds.setup_dir_durable("/d").unwrap();
    let mut created = 0;
    while mds.manifest_epoch() < 5 {
        mds.create(CLIENT, dir, &format!("f{created}")).expect_ok();
        created += 1;
    }
    mds.crash_and_recover().unwrap();
    assert_eq!(mds.manifest_epoch(), 5);
    // Everything published so far except the HEAD pointer is immutable.
    let head = cudele_mds::checkpoint::head_object(cudele_journal::JournalId::MDLOG);
    let published: Vec<_> = os
        .list(PoolId::METADATA, "ckpt.")
        .into_iter()
        .filter(|id| *id != head)
        .map(|id| (os.read(&id).unwrap(), id))
        .collect();
    assert!(published.len() >= 10, "five manifests and their images");

    let osds = os.osd_stats().len();
    (0..osds).for_each(|osd| os.fail_osd(osd));
    let attached = mds.enable_checkpoints(cfg);
    (0..osds).for_each(|osd| os.revive_osd(osd));
    match attached {
        Err(e) => assert!(matches!(e, MdsError::Io { .. }), "{e}"),
        Ok(()) => assert_eq!(mds.manifest_epoch(), 5, "restarted the epoch sequence"),
    }

    // The server keeps checkpointing where it left off.
    mds.open_session(CLIENT);
    for i in 0..8 * cfg.interval_events {
        mds.create(CLIENT, dir, &format!("g{i}")).expect_ok();
    }
    mds.try_flush_journal().unwrap();
    assert!(mds.manifest_epoch() > 5);
    for (bytes, id) in &published {
        assert!(
            os.read(id).unwrap() == *bytes,
            "{} was overwritten",
            id.name
        );
    }
}

/// A client-journal writer that dies between a stripe's first append and
/// the header write leaves an object no header counts. `delete_journal` used
/// to return at the missing header, so the next Global Persist appended its
/// journal *behind* the dead writer's frames.
#[test]
fn global_persist_after_a_writer_died_before_its_header_reads_back_alone() {
    use cudele_journal::read_journal;
    use cudele_sim::CostModel;

    let mut rig = rig(6);
    let os = FlakyStore::new();
    let cm = CostModel::calibrated();
    let id = rig.client.journal_id();
    os.mutations_left.store(1, Ordering::SeqCst);
    assert!(rig.client.global_persist(&os, &cm).is_err());
    assert!(!cudele_journal::journal_exists(&os.inner, id));
    assert_eq!(
        os.inner.list(id.pool, &format!("{:x}.", id.ino)).len(),
        1,
        "the dead writer's first stripe, and no header"
    );

    os.mutations_left.store(u64::MAX, Ordering::SeqCst);
    rig.client.create(rig.client.root, "second").unwrap();
    rig.client.global_persist(&os, &cm).unwrap();
    assert_eq!(read_journal(&os, id).unwrap(), rig.client.events());
}

// ---------------------------------------------------------------------
// Checkpoints are an optimisation; recovery reports what it did
// ---------------------------------------------------------------------

/// Blind replay of `events` from the empty namespace — what recovery must
/// return for a journal that reads as `events` (no image, nothing trimmed).
fn replay(events: &[cudele_journal::JournalEvent]) -> cudele_mds::MetadataStore {
    let mut ms = cudele_mds::MetadataStore::new();
    ms.apply_blind_all(events);
    ms
}

/// Flips one bit of the mdlog's first stripe at byte `at`.
fn flip_mdlog_byte(os: &InMemoryStore, at: usize) {
    let stripe = ObjectId::journal_stripe(PoolId::METADATA, 0x200, 0);
    let mut data = os.read(&stripe).unwrap().to_vec();
    data[at] ^= 0x04;
    os.write_full(&stripe, &data).unwrap();
}

/// A silent bit flip in a flushed journal stripe while checkpointing is on.
/// The compactor pass used to read its tail strictly, and the funnel `?`s
/// the pass, so from the next interval on every create failed with `EIO:
/// checkpoint (… failed CRC)`. The pass must instead cover the clean prefix
/// — what recovery keeps — and let the foreground carry on.
#[test]
fn bit_flip_in_a_flushed_stripe_does_not_fail_creates_under_checkpointing() {
    use cudele_journal::{framed_len, read_journal, scan_journal, JournalId};
    use cudele_mds::checkpoint::head_object;
    use cudele_mds::{CheckpointConfig, Manifest, MdLogConfig};
    use cudele_sim::CostModel;

    let os = Arc::new(InMemoryStore::paper_default());
    let mut mds = MetadataServer::with_config(
        os.clone(),
        CostModel::calibrated(),
        Some(MdLogConfig {
            events_per_segment: 4,
            dispatch_size: 1,
            trim_after_updates: None,
        }),
    );
    let interval = 16;
    mds.enable_checkpoints(CheckpointConfig {
        interval_events: interval,
    })
    .unwrap();
    mds.open_session(CLIENT);
    let dir = mds.setup_dir_durable("/d").unwrap();
    let mut created = 0;
    let mut create = |mds: &mut MetadataServer| {
        created += 1;
        mds.create(CLIENT, dir, &format!("f{created}")).result
    };
    while mds.manifest_epoch() < 2 {
        create(&mut mds).unwrap();
    }
    // Flushed but not yet covered: the next pass is an image span away.
    for _ in 0..8 {
        create(&mut mds).unwrap();
    }
    let id = JournalId::MDLOG;
    let journal = read_journal(os.as_ref(), id).unwrap();
    let covered = Manifest::decode(&os.read(&head_object(id)).unwrap())
        .unwrap()
        .journal_highwater_seq as usize;
    let clean = covered + 2;
    assert!(
        clean < journal.len(),
        "two clean uncovered events, then more"
    );
    let offset: usize = journal[..clean].iter().map(framed_len).sum();
    flip_mdlog_byte(&os, offset + 9);
    assert_eq!(scan_journal(os.as_ref(), id).unwrap().events.len(), clean);

    for _ in 0..6 * interval {
        create(&mut mds).expect("a damaged journal must not fail the foreground");
    }
    mds.try_flush_journal().unwrap();
    assert_eq!(
        mds.manifest_epoch(),
        3,
        "one more manifest: the clean prefix, and nothing past the damage"
    );
    mds.crash_and_recover().unwrap();
    assert_eq!(mds.store().snapshot(), replay(&journal[..clean]).snapshot());
    assert_eq!(read_journal(os.as_ref(), id).unwrap(), journal[..clean]);
}

/// A takeover that is superseded while it heals a damaged journal must say
/// `Fenced` — the store rejected a stale writer, nothing is wrong with the
/// disks — and must leave the journal as it found it. Both heal sites used
/// to flatten the store's error into `EIO`.
#[test]
fn superseded_heal_is_fenced_and_leaves_the_journal_untouched() {
    use cudele_mds::{MdLogConfig, MdsError, StandbyReplay};
    use cudele_rados::{Epoch, FencedStore, FencingAuthority};
    use cudele_sim::CostModel;

    let base = Arc::new(InMemoryStore::paper_default());
    let shared: Arc<dyn ObjectStore> = base.clone();
    let authority = Arc::new(FencingAuthority::new());
    let mdlog = MdLogConfig {
        events_per_segment: 4,
        dispatch_size: 1,
        trim_after_updates: None,
    };
    let mut mds = MetadataServer::with_config(
        Arc::new(FencedStore::new(shared.clone(), authority.clone())),
        CostModel::calibrated(),
        Some(mdlog),
    );
    mds.open_session(CLIENT);
    let dir = mds.setup_dir_durable("/d").unwrap();
    for i in 0..20 {
        mds.create(CLIENT, dir, &format!("f{i}")).expect_ok();
    }
    mds.flush_journal();
    flip_mdlog_byte(&base, 200);
    let objects = |os: &InMemoryStore| -> Vec<(ObjectId, Bytes)> {
        let ids = os.list(PoolId::METADATA, "");
        ids.into_iter()
            .map(|id| (id.clone(), os.read(&id).unwrap()))
            .collect()
    };
    let before = objects(&base);

    // Two bumps: the standby was promised the first epoch and lost the
    // race to whoever holds the second.
    let stale = authority.bump();
    authority.bump();
    let mut standby = StandbyReplay::new(
        shared.clone(),
        authority.clone(),
        CostModel::calibrated(),
        Some(mdlog),
    );
    match standby.take_over(stale) {
        Err(MdsError::Fenced { writer, current }) => {
            assert_eq!(
                (Epoch(writer), Epoch(current)),
                (stale, authority.current())
            );
        }
        Err(e) => panic!("a superseded heal is not an I/O error: {e}"),
        Ok(_) => panic!("a stale epoch healed the journal"),
    }
    assert!(objects(&base) == before, "the fenced heal wrote something");
}

/// The worst case an operator can have — HEAD and every per-epoch manifest
/// copy unreadable — must recover by full replay *and say so*: the rungs the
/// ladder skipped used to vanish when it bottomed out.
#[test]
fn bottomed_out_manifest_ladder_reports_its_fallbacks() {
    use cudele_journal::JournalId;
    use cudele_mds::checkpoint::{head_object, manifest_object};
    use cudele_mds::{CheckpointConfig, MdLogConfig, StandbyReplay};
    use cudele_rados::{FencedStore, FencingAuthority};
    use cudele_sim::CostModel;

    let base = Arc::new(InMemoryStore::paper_default());
    let shared: Arc<dyn ObjectStore> = base.clone();
    let authority = Arc::new(FencingAuthority::new());
    let mdlog = MdLogConfig {
        events_per_segment: 4,
        dispatch_size: 1,
        trim_after_updates: None,
    };
    let ckpt = CheckpointConfig { interval_events: 1 };
    let mut mds = MetadataServer::with_config(
        Arc::new(FencedStore::new(shared.clone(), authority.clone())),
        CostModel::calibrated(),
        Some(mdlog),
    );
    mds.enable_checkpoints(ckpt).unwrap();
    mds.open_session(CLIENT);
    let dir = mds.setup_dir_durable("/d").unwrap();
    for i in 0..40 {
        mds.create(CLIENT, dir, &format!("f{i}")).expect_ok();
    }
    mds.flush_journal();
    let flushed = mds.store().snapshot();
    let epochs = mds.manifest_epoch();
    assert!(epochs >= 3);
    let id = JournalId::MDLOG;
    base.write_full(&head_object(id), b"garbage").unwrap();
    for epoch in 1..=epochs {
        base.write_full(&manifest_object(id, epoch), b"garbage")
            .unwrap();
    }

    let reg = Arc::new(cudele_obs::Registry::new());
    let mut standby = StandbyReplay::new(
        shared.clone(),
        authority.clone(),
        CostModel::calibrated(),
        Some(mdlog),
    );
    standby.set_checkpoint_config(ckpt);
    standby.attach_obs(&reg);
    let (server, report) = standby.take_over(authority.bump()).unwrap();
    assert_eq!(server.store().snapshot(), flushed);
    assert_eq!(report.manifest_epoch, 0, "no manifest loaded: full replay");
    assert_eq!(report.checkpoint_events, 0);
    assert!(report.manifest_fallbacks >= 1, "{report:?}");
    assert_eq!(
        reg.counter_value("mds.ckpt.fallbacks"),
        Some(report.manifest_fallbacks)
    );

    // In place, the same.
    let reg = Arc::new(cudele_obs::Registry::new());
    mds.attach_obs(&reg);
    mds.crash_and_recover().unwrap();
    assert_eq!(mds.store().snapshot(), flushed);
    assert!(reg.counter_value("mds.ckpt.fallbacks") >= Some(1));
}

/// A compactor pass that finds less than an image span of flushed events
/// past the last image returns before it touches the store: no journal scan,
/// no object, no manifest copy, no CAS. (With a delta level every interval
/// cost a whole-journal scan and three mutations.)
#[test]
fn compactor_pass_below_the_image_span_makes_no_store_calls() {
    use cudele_journal::{Attrs, InodeId, JournalEvent, JournalId, JournalWriter};
    use cudele_mds::{CheckpointConfig, CheckpointManager};
    use cudele_sim::{CostModel, Nanos};

    let os = FlakyStore::new();
    let id = JournalId::MDLOG;
    let events: Vec<JournalEvent> = (0..20)
        .map(|i| JournalEvent::Create {
            parent: InodeId::ROOT,
            name: format!("f{i}"),
            ino: InodeId(0x1000 + i),
            attrs: Attrs::file_default(),
        })
        .collect();
    JournalWriter::open(&os, id)
        .unwrap()
        .append(&events)
        .unwrap();
    let cost = CostModel::calibrated();
    let mut mgr =
        CheckpointManager::attach(&os, id, CheckpointConfig { interval_events: 2 }).unwrap();
    let calls = || os.calls.load(Ordering::SeqCst);
    let mutations = || os.mutations.load(Ordering::SeqCst);

    let (before, written) = (calls(), mutations());
    for flushed in 0..10 {
        assert!(!mgr
            .maybe_checkpoint(&os, flushed, Nanos::ZERO, &cost)
            .unwrap());
    }
    assert_eq!(calls(), before, "a pass below the span touched the store");
    assert!(mgr.maybe_checkpoint(&os, 10, Nanos::ZERO, &cost).unwrap());
    assert_eq!(mutations(), written + 3, "image, manifest copy, HEAD");

    // The span is measured from the last image, not from zero.
    let before = calls();
    for flushed in 10..20 {
        assert!(!mgr
            .maybe_checkpoint(&os, flushed, Nanos::ZERO, &cost)
            .unwrap());
    }
    assert_eq!(calls(), before);
}

/// ROADMAP item 2's scenario: the images of epochs e and e−1 are damaged,
/// recovery falls back to e−2, the resumed lineage publishes e−1 again — and
/// then the HEAD is lost, so the ladder starts from the newest per-epoch copy,
/// which is the *old* lineage's e. A manifest names only the image written
/// in its own epoch, with its length and CRC, so that copy cannot load over
/// anything the resumed lineage wrote: it is skipped like any damaged rung.
#[test]
fn stale_manifest_above_a_fallback_rung_does_not_load_after_the_lineage_resumes() {
    use cudele_journal::{read_journal, JournalId};
    use cudele_mds::checkpoint::{head_object, manifest_object};
    use cudele_mds::{CheckpointConfig, Manifest, MdLogConfig};
    use cudele_sim::CostModel;

    let os = Arc::new(InMemoryStore::paper_default());
    let mut mds = MetadataServer::with_config(
        os.clone(),
        CostModel::calibrated(),
        Some(MdLogConfig {
            events_per_segment: 4,
            dispatch_size: 1,
            trim_after_updates: None,
        }),
    );
    mds.enable_checkpoints(CheckpointConfig { interval_events: 1 })
        .unwrap();
    mds.open_session(CLIENT);
    let dir = mds.setup_dir_durable("/d").unwrap();
    let mut created = 0;
    let mut create_until = |mds: &mut MetadataServer, epoch: u64| {
        while mds.manifest_epoch() < epoch {
            created += 1;
            mds.create(CLIENT, dir, &format!("f{created}")).expect_ok();
        }
    };
    let id = JournalId::MDLOG;
    let e = 4;
    create_until(&mut mds, e);
    for epoch in [e, e - 1] {
        let manifest = Manifest::decode(&os.read(&manifest_object(id, epoch)).unwrap()).unwrap();
        let image = ObjectId::new(PoolId::METADATA, manifest.image_ref.unwrap());
        let mut data = os.read(&image).unwrap().to_vec();
        data[20] ^= 0x01;
        os.write_full(&image, &data).unwrap();
    }
    mds.crash_and_recover().unwrap();
    assert_eq!(mds.manifest_epoch(), e - 2, "two rungs down");

    // The resumed lineage republishes e−1, then e; after each, lose the HEAD.
    for epoch in [e - 1, e] {
        mds.open_session(CLIENT);
        create_until(&mut mds, epoch);
        mds.try_flush_journal().unwrap();
        os.write_full(&head_object(id), b"garbage").unwrap();
        let expected = replay(&read_journal(os.as_ref(), id).unwrap());
        mds.crash_and_recover().unwrap();
        assert_eq!(mds.store().snapshot(), expected.snapshot(), "epoch {epoch}");
        assert_eq!(mds.manifest_epoch(), epoch, "the resumed lineage's rung");
    }
}

// ---------------------------------------------------------------------
// Crashed at every write
// ---------------------------------------------------------------------

/// One world of the every-k sweep: a checkpointing MDS (segments of 4 ×
/// dispatch 2, an image every 10 flushed events) over a [`FlakyStore`] behind
/// a fence, driven through a fixed seeded schedule of ~60 requests so that
/// segment flushes, image folds, per-epoch manifest copies, HEAD CASes and —
/// one byte of the flushed journal is flipped part-way — a damaged journal
/// all occur.
struct CrashWorld {
    os: Arc<FlakyStore>,
    shared: Arc<dyn ObjectStore>,
    authority: Arc<cudele_rados::FencingAuthority>,
    mds: MetadataServer,
}

impl CrashWorld {
    /// A standby over the world's shared store, configured like its server.
    fn standby(&self) -> cudele_mds::StandbyReplay {
        let mut standby = cudele_mds::StandbyReplay::new(
            self.shared.clone(),
            self.authority.clone(),
            cudele_sim::CostModel::calibrated(),
            Some(SWEEP_MDLOG),
        );
        standby.set_checkpoint_config(SWEEP_CKPT);
        standby
    }
}

const SWEEP_MDLOG: cudele_mds::MdLogConfig = cudele_mds::MdLogConfig {
    events_per_segment: 4,
    dispatch_size: 2,
    trim_after_updates: None,
};
const SWEEP_CKPT: cudele_mds::CheckpointConfig =
    cudele_mds::CheckpointConfig { interval_events: 2 };

/// Runs the schedule with every store mutation after the `budget`-th
/// failing, as for a writer that died there (the server itself carries on,
/// collecting errors; nothing more lands).
fn crash_world(budget: u64) -> CrashWorld {
    use cudele_rados::{FencedStore, FencingAuthority};
    use cudele_sim::CostModel;

    let os = Arc::new(FlakyStore::new());
    os.mutations_left.store(budget, Ordering::SeqCst);
    let shared: Arc<dyn ObjectStore> = os.clone();
    let authority = Arc::new(FencingAuthority::new());
    let mut mds = MetadataServer::with_config(
        Arc::new(FencedStore::new(shared.clone(), authority.clone())),
        CostModel::calibrated(),
        Some(SWEEP_MDLOG),
    );
    // Applied in memory even when its journaling fails (DESIGN.md §11.5).
    let _ = mds.enable_checkpoints(SWEEP_CKPT);
    mds.open_session(CLIENT);
    let _ = mds.setup_dir_durable("/d");
    let dir = mds.store().resolve("/d").unwrap();
    let mut state = 0x0bad_5eed_u64;
    let mut below = |n: u64| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    };
    let mut created = 0;
    for step in 0..60 {
        // Requests may fail — ENOENT for a name already gone, and EIO once
        // the store is: part of the schedule.
        let old = format!("f{}", below(created + 1));
        match below(8) {
            0..=3 => {
                created += 1;
                drop(mds.create(CLIENT, dir, &format!("f{created}")));
            }
            4 => drop(mds.mkdir(CLIENT, dir, &format!("s{}", below(3)))),
            5 => drop(mds.unlink(CLIENT, dir, &old)),
            6 => drop(mds.rename(CLIENT, dir, &old, dir, &format!("r{step}"))),
            _ => drop(mds.try_flush_journal()),
        }
        if step == 45 {
            // At-rest damage, not a store mutation: 30 bytes from the end
            // of whatever has been flushed, if anything has.
            let stripe = ObjectId::journal_stripe(PoolId::METADATA, 0x200, 0);
            if let Some(len) = os.inner.stat(&stripe).ok().map(|s| s.size as usize) {
                if len > 30 {
                    flip_mdlog_byte(&os.inner, len - 30);
                }
            }
        }
    }
    let _ = mds.try_flush_journal();
    CrashWorld {
        os,
        shared,
        authority,
        mds,
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum RecoverBy {
    InPlace,
    Takeover,
}

/// Recovers `w` from whatever landed, on a store that works again, and
/// checks what every crash point must satisfy; returns the recovered
/// namespace and allocator watermark.
///
/// * recovery neither errors nor panics;
/// * it returns the blind replay of the journal as it read before recovery
///   touched it — nothing flushed is lost, nothing is invented;
/// * the manifest it loaded names no missing object;
/// * what the recovered server then writes survives its own crash: a stale
///   object left behind by the dead writer must not resurface.
fn recover_and_check(
    mut w: CrashWorld,
    by: RecoverBy,
    what: &str,
) -> (
    std::collections::BTreeMap<String, (cudele_journal::InodeId, cudele_journal::FileType)>,
    u64,
) {
    use cudele_journal::{scan_journal, JournalId};
    use cudele_mds::checkpoint::manifest_object;
    use cudele_mds::Manifest;

    let id = JournalId::MDLOG;
    w.os.mutations_left.store(u64::MAX, Ordering::SeqCst);
    let expected = replay(&scan_journal(w.os.as_ref(), id).unwrap().events);
    let mut mds = match by {
        RecoverBy::InPlace => {
            w.mds
                .crash_and_recover()
                .unwrap_or_else(|e| panic!("{what}: in-place recovery failed: {e}"));
            w.mds
        }
        RecoverBy::Takeover => {
            let taken = w.standby().take_over(w.authority.bump());
            taken
                .unwrap_or_else(|e| panic!("{what}: takeover failed: {e}"))
                .0
        }
    };
    let recovered = mds.store().snapshot();
    assert_eq!(recovered, expected.snapshot(), "{what} {by:?}: namespace");
    let epoch = mds.manifest_epoch();
    if epoch > 0 {
        let copy = w.os.read(&manifest_object(id, epoch)).unwrap();
        let manifest = Manifest::decode(&copy).unwrap();
        let name = manifest
            .image_ref
            .expect("a published manifest names its image");
        assert!(
            w.os.exists(&ObjectId::new(PoolId::METADATA, name.clone())),
            "{what} {by:?}: manifest {epoch} names {name}, which is missing"
        );
    }
    let watermark = mds.alloc_watermark().0;

    mds.open_session(CLIENT);
    let after = mds.setup_dir_durable("/after").unwrap();
    for i in 0..10 {
        mds.create(CLIENT, after, &format!("a{i}")).expect_ok();
    }
    mds.try_flush_journal().unwrap();
    let served = mds.store().snapshot();
    mds.crash_and_recover().unwrap();
    assert_eq!(
        mds.store().snapshot(),
        served,
        "{what} {by:?}: the recovered server's own flushed writes"
    );
    (recovered, watermark)
}

/// ROADMAP item 2(b), scoped to what this repository's recovery rewrite
/// touches: for every k, the writer dies after its k-th store mutation —
/// between a stripe append and the header write, between an image and its
/// manifest copy, between the copy and the HEAD CAS — and recovery
/// from what landed, in place and by takeover, holds `recover_and_check`'s
/// properties and agrees with itself.
#[test]
fn writer_crashed_at_every_write_recovers_what_landed() {
    let whole = crash_world(u64::MAX);
    let total = whole.os.mutations.load(Ordering::SeqCst);
    assert!(whole.mds.manifest_epoch() >= 2, "an image, then one on top");
    assert!(
        cudele_journal::scan_journal(whole.os.as_ref(), cudele_journal::JournalId::MDLOG)
            .unwrap()
            .damage
            .is_some(),
        "the schedule leaves a damaged journal to heal"
    );
    // Exact, so that an enumeration that silently shrinks fails: per image,
    // the object, its manifest copy and the HEAD CAS; per flush, a stripe
    // append and the header write.
    assert_eq!(total, 40, "store mutations to enumerate");
    for k in 0..=total {
        let what = format!("writer died after mutation {k} of {total}");
        let in_place = recover_and_check(crash_world(k), RecoverBy::InPlace, &what);
        let takeover = recover_and_check(crash_world(k), RecoverBy::Takeover, &what);
        assert_eq!(in_place, takeover, "{what}: in-place vs takeover");
    }
}

/// The same for the heal itself: a recovery of the damaged journal the whole
/// schedule leaves dies after its k-th mutation, for every k, and the next
/// recovery must still find everything that was readable before the first
/// one started. (Deleting the journal and re-appending its prefix — how the
/// heal used to work — has no journal at all for k = 2.)
#[test]
fn heal_crashed_at_every_write_keeps_the_readable_prefix() {
    use cudele_journal::{scan_journal, JournalId};

    // One recovery with `budget` mutations to spend: its outcome, and how
    // many it made.
    let recover_within = |w: &mut CrashWorld, by: RecoverBy, budget: u64| {
        let before = w.os.mutations.load(Ordering::SeqCst);
        w.os.mutations_left.store(budget, Ordering::SeqCst);
        let outcome = match by {
            RecoverBy::InPlace => w.mds.crash_and_recover(),
            RecoverBy::Takeover => w.standby().take_over(w.authority.bump()).map(drop),
        };
        (outcome, w.os.mutations.load(Ordering::SeqCst) - before)
    };
    let id = JournalId::MDLOG;
    for by in [RecoverBy::InPlace, RecoverBy::Takeover] {
        let mut whole = crash_world(u64::MAX);
        let readable = replay(&scan_journal(whole.os.as_ref(), id).unwrap().events).snapshot();
        let (outcome, heal_writes) = recover_within(&mut whole, by, u64::MAX);
        outcome.unwrap();
        assert!(heal_writes >= 2, "a header cut and a stripe cut at least");
        for k in 0..heal_writes {
            let what = format!("healer died after mutation {k} of {heal_writes}");
            let mut w = crash_world(u64::MAX);
            let (outcome, _) = recover_within(&mut w, by, k);
            assert!(outcome.is_err(), "{what}: the heal cannot have finished");
            let (recovered, _) = recover_and_check(w, by, &what);
            assert_eq!(
                recovered, readable,
                "{what} {by:?}: lost part of the prefix"
            );
        }
    }
}

/// The heal's write order, seen at the journal alone: a few 300-byte
/// stripes, a flipped byte in the second. Whichever mutation the healer dies after,
/// the journal still scans to the same prefix; once a heal completes the
/// journal is clean, nothing of the old stripes is left for a writer to roll
/// onto, and appends read back behind the prefix.
#[test]
fn journal_heal_interrupted_at_every_write_scans_to_the_same_prefix() {
    use cudele_journal::{
        read_journal, scan_journal, Attrs, InodeId, JournalEvent, JournalId, JournalTool,
        JournalWriter,
    };

    let create = |i: u64| JournalEvent::Create {
        parent: InodeId::ROOT,
        name: format!("f{i}"),
        ino: InodeId(0x1000 + i),
        attrs: Attrs::file_default(),
    };
    let events: Vec<JournalEvent> = (0..24).map(create).collect();
    let more: Vec<JournalEvent> = (100..124).map(create).collect();
    let id = JournalId::new(PoolId::METADATA, 0x300);
    let damaged = || {
        let os = FlakyStore::new();
        let mut w = JournalWriter::open_with_stripe(&os, id, 300).unwrap();
        w.append(&events).unwrap();
        assert!(w.stripes() >= 4, "stripes past the damaged one");
        let stripe = ObjectId::journal_stripe(id.pool, id.ino, 1);
        let mut data = os.inner.read(&stripe).unwrap().to_vec();
        data[70] ^= 0x01;
        os.inner.write_full(&stripe, &data).unwrap();
        os
    };
    let os = damaged();
    let prefix = scan_journal(&os, id).unwrap().events;
    assert!(!prefix.is_empty() && prefix.len() < events.len());
    let written = os.mutations.load(Ordering::SeqCst);
    assert_eq!(JournalTool::new(&os, id).recover().unwrap(), prefix);
    // The header, every stripe past the damaged one, the damaged one.
    let heal_writes = os.mutations.load(Ordering::SeqCst) - written;
    assert!(heal_writes >= 4, "{heal_writes}");

    for k in 0..=heal_writes {
        let os = damaged();
        os.mutations_left.store(k, Ordering::SeqCst);
        let interrupted = JournalTool::new(&os, id).recover();
        assert_eq!(interrupted.is_ok(), k == heal_writes);
        os.mutations_left.store(u64::MAX, Ordering::SeqCst);
        let scan = scan_journal(&os, id).unwrap();
        assert_eq!(scan.events, prefix, "healer died after mutation {k}");
        assert_eq!(scan.damage.is_some(), k < heal_writes);

        assert_eq!(JournalTool::new(&os, id).recover().unwrap(), prefix);
        let mut w = JournalWriter::open_with_stripe(&os, id, 300).unwrap();
        let stripe_objects = os.inner.list(id.pool, "300.").len() as u64;
        assert_eq!(
            stripe_objects,
            w.stripes(),
            "k = {k}: a stripe past the end"
        );
        w.append(&more).unwrap();
        assert!(w.stripes() >= 4, "rolled over the old stripes' names");
        let all = [prefix.as_slice(), more.as_slice()].concat();
        assert_eq!(read_journal(&os, id).unwrap(), all, "k = {k}");
    }
}
