//! The decoupled client: Append Client Journal plus the persist and apply
//! mechanisms.
//!
//! "Decoupled clients use the Append Client Journal mechanism to append
//! metadata updates to a local, in-memory journal. Clients do not need to
//! check for consistency when writing events." So an update is one append:
//! the event is pushed onto the journal and nothing else is touched.
//!
//! The client can still read its own updates (the global namespace cannot
//! until a merge — that is what "invisible" consistency means) through a
//! local mirror of its subtree. The mirror is a fold over the journal, run
//! when it is read: a cursor marks how much of the journal it already
//! holds, and [`DecoupledClient::local_namespace`] /
//! [`DecoupledClient::resolve_local`] first apply the events past it. A
//! batch client that only creates and merges never builds one.

use cudele_journal::{
    encode_journal, Attrs, InodeId, InodeRange, JournalEvent, JournalId, JournalIoError,
    JournalWriter,
};
use cudele_mds::{ClientId, MdsError, MetadataServer, MetadataStore, OpCost, Rpc};
use cudele_obs::history::{HistoryEvent, HistoryOp, HistoryResult, HistoryScope};
use cudele_obs::{Counter, Registry, TraceSink};
use cudele_rados::ObjectStore;
use cudele_sim::{transfer_time, CostModel, Nanos};

use crate::local_disk::{DiskError, LocalDisk};

/// Metric handles for a decoupled client, published under
/// `client.journal.*` (plus `journal.writer.*` for Global Persist I/O).
#[derive(Debug, Clone)]
struct ClientObs {
    /// `client.journal.appends` — events appended via Append Client
    /// Journal (create/mkdir/unlink/rename on the local journal).
    appends: Counter,
    /// `client.journal.local_persists` — Local Persist invocations.
    local_persists: Counter,
    /// `client.journal.global_persists` — Global Persist invocations.
    global_persists: Counter,
    /// Handles passed to the Global Persist [`JournalWriter`].
    writer: cudele_journal::JournalObs,
    /// Consistency-history sink: every append lands as a `local`-scope
    /// event at the client's current virtual time.
    history: cudele_obs::history::HistoryWriter,
    /// Virtual time stamped on the next recorded event (set by the
    /// harness via [`DecoupledClient::set_now`]).
    now: Nanos,
}

/// A client operating on a decoupled subtree.
#[derive(Debug)]
pub struct DecoupledClient {
    /// The client this decoupled session belongs to.
    pub id: ClientId,
    /// Root inode of the decoupled subtree.
    pub root: InodeId,
    /// Inodes preallocated by the MDS (the policies-file "Allocated
    /// Inodes" contract).
    range: InodeRange,
    used: u64,
    /// The in-memory client journal.
    journal: Vec<JournalEvent>,
    /// Local mirror of the subtree (gives the client read-your-writes):
    /// everything merged away by [`DecoupledClient::clear_journal`] plus
    /// `journal[..mirrored]`. Reads go through
    /// [`DecoupledClient::local_namespace`], which catches it up first.
    local_ns: MetadataStore,
    /// How much of `journal` the mirror already holds.
    mirrored: usize,
    obs: Option<ClientObs>,
}

impl DecoupledClient {
    /// Decouples `path` for `client`: resolves the subtree root and
    /// preallocates `allocated_inodes` inodes. Returns the client and the
    /// setup RPC costs.
    pub fn decouple(
        server: &mut MetadataServer,
        client: ClientId,
        path: &str,
        allocated_inodes: u64,
    ) -> (Result<DecoupledClient, MdsError>, OpCost) {
        let root = match server.store().resolve(path) {
            Ok(ino) => ino,
            Err(e) => {
                return (
                    Err(e),
                    OpCost {
                        mds_cpu: server.cost_model().mds_lookup_cpu,
                        client_extra: server.cost_model().rpc_overhead,
                        rpcs: 1,
                    },
                )
            }
        };
        let Rpc { result, cost } = server.alloc_inodes(client, allocated_inodes);
        match result {
            Ok(range) => (Ok(DecoupledClient::new(client, root, range)), cost),
            Err(e) => (Err(e), cost),
        }
    }

    /// Builds a decoupled client directly from a subtree root and an
    /// already-granted inode range.
    pub fn new(id: ClientId, root: InodeId, range: InodeRange) -> DecoupledClient {
        DecoupledClient {
            id,
            root,
            range,
            used: 0,
            journal: Vec::new(),
            local_ns: MetadataStore::new(),
            mirrored: 0,
            obs: None,
        }
    }

    /// Points the client's metric handles at `reg` (`client.journal.*`).
    pub fn attach_obs(&mut self, reg: &Registry) {
        self.obs = Some(ClientObs {
            appends: reg.counter("client.journal.appends"),
            local_persists: reg.counter("client.journal.local_persists"),
            global_persists: reg.counter("client.journal.global_persists"),
            writer: cudele_journal::JournalObs::attach(reg),
            history: reg.history_writer(),
            now: Nanos::ZERO,
        });
    }

    /// Sets the virtual time stamped on subsequently recorded history
    /// events (appends are local, so invoke == ack == `now`).
    pub fn set_now(&mut self, now: Nanos) {
        if let Some(o) = &mut self.obs {
            o.now = now;
        }
    }

    fn obs_append(&self, ino: u64, op: HistoryOp<&str>) {
        if let Some(o) = &self.obs {
            o.appends.inc();
            o.history.record(HistoryEvent {
                client: u64::from(self.id.0),
                scope: HistoryScope::Local,
                op,
                result: HistoryResult::Ok,
                ino,
                invoke: o.now,
                ack: o.now,
                epoch: 0,
                trace_id: 0,
            });
        }
    }

    fn take_inode(&mut self) -> Result<InodeId, MdsError> {
        if self.used >= self.range.len {
            return Err(MdsError::NoInodes);
        }
        let ino = InodeId(self.range.start.0 + self.used);
        self.used += 1;
        Ok(ino)
    }

    /// Appends a create to the client journal — no existence check, no
    /// RPC. The caller charges [`CostModel::client_append`] per event.
    /// `parent` is an inode in the decoupled subtree (often the root).
    pub fn create(&mut self, parent: InodeId, name: &str) -> Result<InodeId, MdsError> {
        let ino = self.take_inode()?;
        self.journal.push(JournalEvent::Create {
            parent,
            name: name.to_string(),
            ino,
            attrs: Attrs::file_default(),
        });
        self.obs_append(
            ino.0,
            HistoryOp::Create {
                dir: parent.0,
                name,
            },
        );
        Ok(ino)
    }

    /// Appends a mkdir to the client journal.
    pub fn mkdir(&mut self, parent: InodeId, name: &str) -> Result<InodeId, MdsError> {
        let ino = self.take_inode()?;
        self.journal.push(JournalEvent::Mkdir {
            parent,
            name: name.to_string(),
            ino,
            attrs: Attrs::dir_default(),
        });
        self.obs_append(
            ino.0,
            HistoryOp::Mkdir {
                dir: parent.0,
                name,
            },
        );
        Ok(ino)
    }

    /// Appends an unlink.
    pub fn unlink(&mut self, parent: InodeId, name: &str) {
        self.journal.push(JournalEvent::Unlink {
            parent,
            name: name.to_string(),
        });
        self.obs_append(
            0,
            HistoryOp::Unlink {
                dir: parent.0,
                name,
            },
        );
    }

    /// Appends a rename.
    pub fn rename(
        &mut self,
        src_parent: InodeId,
        src_name: &str,
        dst_parent: InodeId,
        dst_name: &str,
    ) {
        self.journal.push(JournalEvent::Rename {
            src_parent,
            src_name: src_name.to_string(),
            dst_parent,
            dst_name: dst_name.to_string(),
        });
        self.obs_append(
            0,
            HistoryOp::Rename {
                src_dir: src_parent.0,
                src_name,
                dst_dir: dst_parent.0,
                dst_name,
            },
        );
    }

    /// Events appended so far.
    pub fn events(&self) -> &[JournalEvent] {
        &self.journal
    }

    /// Number of journal events.
    pub fn event_count(&self) -> u64 {
        self.journal.len() as u64
    }

    /// Inodes remaining in the allocated range.
    pub fn inodes_remaining(&self) -> u64 {
        self.range.len - self.used
    }

    /// The client's local view of its subtree (read-your-writes), caught
    /// up with every event appended since it was last read.
    pub fn local_namespace(&mut self) -> &MetadataStore {
        self.local_ns
            .apply_blind_all(&self.journal[self.mirrored..]);
        self.mirrored = self.journal.len();
        &self.local_ns
    }

    /// Resolves a path *relative to the decoupled subtree root* against the
    /// client's local view (e.g. `"run0/out1"`; `""` is the root itself,
    /// and resolving it reads nothing).
    pub fn resolve_local(&mut self, rel_path: &str) -> Result<InodeId, MdsError> {
        let mut cur = self.root;
        let mut comps = rel_path.split('/').filter(|c| !c.is_empty()).peekable();
        if comps.peek().is_none() {
            return Ok(cur);
        }
        let ns = self.local_namespace();
        for comp in comps {
            cur = ns.lookup(cur, comp)?.ino;
        }
        Ok(cur)
    }

    /// Journal size in paper-calibrated bytes (~2.5 KB per update).
    pub fn journal_bytes(&self, cm: &CostModel) -> u64 {
        cm.journal_bytes(self.event_count())
    }

    // ------------------------------------------------------------------
    // Durability mechanisms
    // ------------------------------------------------------------------

    /// Local Persist: serialize the journal to the client's local disk.
    /// Returns the time charged (local disk bandwidth over the journal's
    /// calibrated size).
    pub fn local_persist(&self, disk: &mut LocalDisk, cm: &CostModel) -> Result<Nanos, DiskError> {
        let blob = encode_journal(&self.journal);
        disk.write(&format!("client{}-journal.bin", self.id.0), &blob)?;
        if let Some(o) = &self.obs {
            o.local_persists.inc();
        }
        Ok(cm.local_persist_time(self.event_count()))
    }

    /// Global Persist: push the journal into the object store under the
    /// client's journal id. Returns the time charged (object-store
    /// streaming bandwidth).
    pub fn global_persist<S: ObjectStore + ?Sized>(
        &self,
        os: &S,
        cm: &CostModel,
    ) -> Result<Nanos, JournalIoError> {
        self.global_persist_traced(os, cm, None)
    }

    /// [`DecoupledClient::global_persist`] with causal tracing: when `sink`
    /// is present, the stripe append lands as a `rados`-layer child span
    /// (covering the streaming transfer) and every fault-injected retry as
    /// a `faults`-layer span at the instant its backoff is charged.
    pub fn global_persist_traced<S: ObjectStore + ?Sized>(
        &self,
        os: &S,
        cm: &CostModel,
        sink: Option<TraceSink<'_>>,
    ) -> Result<Nanos, JournalIoError> {
        let id = self.journal_id();
        // Replace any previous persist of this journal.
        cudele_journal::delete_journal(os, id)?;
        let mut w = JournalWriter::open(os, id)?;
        if let Some(o) = &self.obs {
            o.global_persists.inc();
            w.set_obs(o.writer.clone());
        }
        if let Some(s) = sink {
            w.set_trace(s);
        }
        w.append(&self.journal)?;
        let transfer = cm.global_persist_time(self.event_count());
        if let Some(s) = &sink {
            s.child_args(
                "rados.stripe_append",
                "rados",
                s.at,
                transfer,
                vec![
                    ("events".to_string(), self.event_count().to_string()),
                    ("stripes".to_string(), w.stripes().to_string()),
                ],
            );
        }
        // Retries against a faulty store cost virtual time: charge the
        // writer's accumulated backoff on top of the streaming transfer.
        Ok(transfer + w.backoff)
    }

    /// The object-store journal id this client persists to.
    pub fn journal_id(&self) -> JournalId {
        JournalId::new(
            cudele_rados::PoolId::METADATA,
            0x1000_0000 + self.id.0 as u64,
        )
    }

    /// Recovers a client journal from its local disk after a node restart
    /// ("updates will be retained if the client node recovers and reads
    /// the updates from local storage").
    pub fn recover_from_local_disk(
        id: ClientId,
        root: InodeId,
        range: InodeRange,
        disk: &LocalDisk,
    ) -> Result<DecoupledClient, DiskError> {
        let path = format!("client{}-journal.bin", id.0);
        let events =
            cudele_journal::decode_journal(disk.read(&path)?).map_err(|e| DiskError::Corrupt {
                path,
                detail: e.to_string(),
            })?;
        let mut c = DecoupledClient::new(id, root, range);
        c.used = events.iter().filter_map(|e| e.allocates()).count() as u64;
        c.journal = events;
        Ok(c)
    }

    // ------------------------------------------------------------------
    // Consistency mechanisms
    // ------------------------------------------------------------------

    /// Volatile Apply: ship the journal to the MDS and merge it into the
    /// in-memory metadata store. Returns the events applied, the server
    /// cost, and the network transfer time for the journal bytes.
    pub fn volatile_apply(
        &mut self,
        server: &mut MetadataServer,
    ) -> (Result<u64, MdsError>, OpCost, Nanos) {
        let cm = server.cost_model();
        let transfer = transfer_time(self.journal_bytes(cm), cm.network_bw) + cm.network_latency;
        let Rpc { result, cost } = server.volatile_apply(self.id, &self.journal);
        (result, cost, transfer)
    }

    /// Drains the journal after a successful merge (BatchFS-style "switch
    /// back to synchronous mode" keeps the client reusable). The mirror
    /// keeps what the journal said: events it has not folded yet are folded
    /// before they are dropped.
    pub fn clear_journal(&mut self) {
        self.local_namespace();
        self.journal.clear();
        self.mirrored = 0;
    }

    /// Resumes this decoupled session on a (possibly new) primary after an
    /// MDS failover: reopens the session and reasserts the client's
    /// allocated inode range with the inodes already consumed. The new
    /// primary advances its allocator past the range, so post-failover
    /// grants to other clients can never collide with inodes this client
    /// has yet to merge — the Allocated Inodes contract survives the
    /// failover. The client's journal and local mirror are untouched;
    /// a later merge proceeds as if nothing happened.
    pub fn resume_on(&mut self, server: &mut MetadataServer) -> (Result<(), MdsError>, OpCost) {
        let Rpc { result, cost } = server.reconnect_session(self.id, &[(self.range, self.used)]);
        (result, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudele_rados::{InMemoryStore, PoolId};
    use std::sync::Arc;

    fn server() -> MetadataServer {
        MetadataServer::new(Arc::new(InMemoryStore::paper_default()))
    }

    #[test]
    fn decouple_and_create_locally() {
        let mut srv = server();
        srv.open_session(ClientId(1));
        srv.setup_dir("/batch").unwrap();
        let (c, cost) = DecoupledClient::decouple(&mut srv, ClientId(1), "/batch", 100);
        let mut c = c.unwrap();
        assert_eq!(cost.rpcs, 1);
        for i in 0..100 {
            c.create(c.root, &format!("f{i}")).unwrap();
        }
        assert_eq!(c.event_count(), 100);
        assert_eq!(c.inodes_remaining(), 0);
        // Contract enforced.
        assert!(matches!(c.create(c.root, "extra"), Err(MdsError::NoInodes)));
        // Server namespace unchanged (invisible consistency).
        assert!(srv.store().readdir(c.root).unwrap().is_empty());
        // But the client reads its own writes.
        let root = c.root;
        assert_eq!(c.local_namespace().readdir(root).unwrap().len(), 100);
    }

    #[test]
    fn volatile_apply_merges_into_global() {
        let mut srv = server();
        srv.open_session(ClientId(1));
        srv.setup_dir("/batch").unwrap();
        let (c, _) = DecoupledClient::decouple(&mut srv, ClientId(1), "/batch", 50);
        let mut c = c.unwrap();
        let sub = c.mkdir(c.root, "run0").unwrap();
        for i in 0..10 {
            c.create(sub, &format!("out{i}")).unwrap();
        }
        let (applied, cost, transfer) = c.volatile_apply(&mut srv);
        assert_eq!(applied.unwrap(), 11);
        assert!(cost.mds_cpu > Nanos::ZERO);
        assert!(transfer > Nanos::ZERO);
        assert!(srv.store().resolve("/batch/run0/out9").unwrap().0 > 0);
        // Merged namespace matches the client's local view of the subtree.
        assert_eq!(srv.store().readdir(sub).unwrap().len(), 10);
    }

    #[test]
    fn local_persist_and_recover() {
        let mut srv = server();
        srv.open_session(ClientId(1));
        srv.setup_dir("/batch").unwrap();
        let (c, _) = DecoupledClient::decouple(&mut srv, ClientId(1), "/batch", 50);
        let mut c = c.unwrap();
        for i in 0..20 {
            c.create(c.root, &format!("f{i}")).unwrap();
        }
        let mut disk = LocalDisk::new();
        let cm = CostModel::calibrated();
        let t = c.local_persist(&mut disk, &cm).unwrap();
        assert!(t > Nanos::ZERO);

        // Node crashes and recovers: journal reconstructed from disk.
        disk.crash();
        disk.recover();
        let recovered = DecoupledClient::recover_from_local_disk(
            ClientId(1),
            c.root,
            InodeRange::new(c.range.start, 50),
            &disk,
        )
        .unwrap();
        assert_eq!(recovered.events(), c.events());
        assert_eq!(recovered.inodes_remaining(), c.inodes_remaining());

        // Node stays down: journal is gone.
        disk.destroy();
        assert!(DecoupledClient::recover_from_local_disk(
            ClientId(1),
            c.root,
            InodeRange::new(c.range.start, 50),
            &disk
        )
        .is_err());
    }

    #[test]
    fn global_persist_survives_client_loss() {
        let mut srv = server();
        let os = Arc::new(InMemoryStore::paper_default());
        srv.open_session(ClientId(1));
        srv.setup_dir("/batch").unwrap();
        let (c, _) = DecoupledClient::decouple(&mut srv, ClientId(1), "/batch", 50);
        let mut c = c.unwrap();
        for i in 0..20 {
            c.create(c.root, &format!("f{i}")).unwrap();
        }
        let cm = CostModel::calibrated();
        let t = c.global_persist(os.as_ref(), &cm).unwrap();
        assert!(t > Nanos::ZERO);
        // Global Persist is ~1.2x the Local Persist time.
        let mut disk = LocalDisk::new();
        let lt = c.local_persist(&mut disk, &cm).unwrap();
        let ratio = t.as_secs_f64() / lt.as_secs_f64();
        assert!((ratio - 1.2).abs() < 0.01, "ratio {ratio}");
        // The journal can be read back from the object store with no
        // client state at all.
        let events = cudele_journal::read_journal(os.as_ref(), c.journal_id()).unwrap();
        assert_eq!(events.len(), 20);
        let _ = PoolId::METADATA;
    }

    #[test]
    fn attached_registry_counts_appends_and_persists() {
        let reg = Registry::new();
        let mut c = DecoupledClient::new(
            ClientId(7),
            InodeId::ROOT,
            InodeRange::new(InodeId(0x1000), 10),
        );
        c.attach_obs(&reg);
        let d = c.mkdir(InodeId::ROOT, "d").unwrap();
        c.create(d, "a").unwrap();
        c.rename(d, "a", InodeId::ROOT, "b");
        c.unlink(InodeId::ROOT, "b");
        assert_eq!(reg.counter_value("client.journal.appends"), Some(4));

        let os = InMemoryStore::paper_default();
        let cm = CostModel::calibrated();
        c.global_persist(&os, &cm).unwrap();
        assert_eq!(reg.counter_value("client.journal.global_persists"), Some(1));
        assert_eq!(reg.counter_value("journal.writer.appends"), Some(1));
        assert_eq!(reg.counter_value("journal.writer.events"), Some(4));

        let mut disk = LocalDisk::new();
        c.local_persist(&mut disk, &cm).unwrap();
        assert_eq!(reg.counter_value("client.journal.local_persists"), Some(1));
    }

    #[test]
    fn resume_on_new_primary_preserves_contract() {
        let mut srv = server();
        srv.open_session(ClientId(1));
        srv.setup_dir_durable("/batch").unwrap();
        let (c, _) = DecoupledClient::decouple(&mut srv, ClientId(1), "/batch", 50);
        let mut c = c.unwrap();
        for i in 0..20 {
            c.create(c.root, &format!("f{i}")).unwrap();
        }
        // MDS fails over before the merge; the decoupled client resumes
        // against the recovered primary.
        srv.flush_journal();
        srv.crash_and_recover().unwrap();
        let (res, cost) = c.resume_on(&mut srv);
        res.unwrap();
        assert_eq!(cost.rpcs, 1);
        // A fresh grant on the new primary cannot collide with the
        // resumed range, even though none of its inodes are merged yet.
        srv.open_session(ClientId(2));
        let fresh = srv.alloc_inodes(ClientId(2), 50).result.unwrap();
        for i in 0..20 {
            let ino = InodeId(c.range.start.0 + i);
            assert!(!fresh.contains(ino), "fresh grant overlaps unmerged range");
        }
        // The merge lands on the new primary.
        let (applied, _, _) = c.volatile_apply(&mut srv);
        assert_eq!(applied.unwrap(), 20);
        assert_eq!(srv.store().readdir(c.root).unwrap().len(), 20);
    }

    #[test]
    fn journal_bytes_use_calibrated_size() {
        let mut c = DecoupledClient::new(
            ClientId(1),
            InodeId::ROOT,
            InodeRange::new(InodeId(0x1000), 10),
        );
        c.create(InodeId::ROOT, "f").unwrap();
        let cm = CostModel::calibrated();
        assert_eq!(c.journal_bytes(&cm), cm.journal_bytes_per_event);
    }

    #[test]
    fn unlink_and_rename_tracked_locally() {
        let mut c = DecoupledClient::new(
            ClientId(1),
            InodeId::ROOT,
            InodeRange::new(InodeId(0x1000), 10),
        );
        let d = c.mkdir(InodeId::ROOT, "d").unwrap();
        c.create(d, "a").unwrap();
        c.rename(d, "a", InodeId::ROOT, "b");
        c.unlink(InodeId::ROOT, "b");
        assert_eq!(c.event_count(), 4);
        assert!(c.local_namespace().lookup(d, "a").is_err());
        assert!(c.local_namespace().lookup(InodeId::ROOT, "b").is_err());
    }
}
