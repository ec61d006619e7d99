//! The metadata server: sessions, capabilities, the namespace, the mdlog,
//! and Cudele's merge entry points, glued behind an RPC-shaped interface.
//!
//! Every RPC returns both a functional result and an [`OpCost`] — the
//! MDS CPU time to charge to the server's FIFO queue and the extra
//! client-visible latency (network round trip, journal commit wait). The
//! discrete-event harnesses turn those into completion times; unit tests
//! ignore them and assert on the functional result.
//!
//! Namespace operations are data: a [`Request`] goes through the one
//! [`MetadataServer::serve`] funnel (admit → validate → apply → journal →
//! reply, DESIGN.md §5.1) and comes back as a [`Reply`]. The typed methods
//! (`create`, `lookup`, ...) only build the request and unwrap the reply.
//! The way back from a crash is one function too: `recover_namespace`,
//! shared by in-place recovery and standby takeover.

use std::sync::Arc;

use cudele_journal::{
    recover_journal, Attrs, EventRef, InodeId, InodeRange, JournalEvent, JournalId, Stripes,
};
use cudele_obs::history::{HistoryEvent, HistoryOp, HistoryResult, HistoryScope};
use cudele_obs::timeline::Series;
use cudele_obs::{Counter, FirstUse, Histogram, Layer, Mechanism, Registry, SpanName, TraceCtx};
use cudele_rados::{Epoch, ObjectStore, PoolId};
use cudele_sim::{CostModel, Nanos};

use crate::caps::{CapOutcome, CapTable, ClientId};
use crate::checkpoint::{self, CheckpointConfig, CheckpointManager, CkptObs, Manifest};
use crate::dirfrag::{Dentry, DirListing};
use crate::error::{MdsError, Result};
use crate::mdlog::{MdLog, MdLogConfig, MdLogObs};
use crate::persist;
use crate::session::{InodeAllocator, SessionMap};
use crate::store::MetadataStore;

/// Time charged for one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCost {
    /// CPU time the MDS spends on the request (queued on the MDS server
    /// resource by the harness).
    pub mds_cpu: Nanos,
    /// Client-visible latency outside MDS CPU: per-RPC overhead and, with
    /// Stream on, the journal commit wait.
    pub client_extra: Nanos,
    /// RPC messages this operation represents.
    pub rpcs: u64,
}

impl OpCost {
    fn rpc(mds_cpu: Nanos, client_extra: Nanos) -> OpCost {
        OpCost {
            mds_cpu,
            client_extra,
            rpcs: 1,
        }
    }

    /// Adds a journal commit: Stream CPU on the MDS, commit wait on the
    /// client (what [`MetadataServer::journal`] returns).
    fn journaled(&mut self, (mds_cpu, wait): (Nanos, Nanos)) {
        self.mds_cpu += mds_cpu;
        self.client_extra += wait;
    }

    /// Combines two sequential costs.
    pub fn then(self, other: OpCost) -> OpCost {
        OpCost {
            mds_cpu: self.mds_cpu + other.mds_cpu,
            client_extra: self.client_extra + other.client_extra,
            rpcs: self.rpcs + other.rpcs,
        }
    }
}

/// A handler's reply: functional result plus cost. The cost is meaningful
/// even when the result is an error (rejections still consume MDS cycles —
/// that is the point of Figure 6b's small-cluster overhead).
#[derive(Debug)]
pub struct Rpc<T> {
    /// The functional outcome.
    pub result: Result<T>,
    /// Time to charge for the request, success or not.
    pub cost: OpCost,
}

impl<T> Rpc<T> {
    /// Unwraps the result, panicking with context on error (tests).
    pub fn expect_ok(self) -> T
    where
        T: std::fmt::Debug,
    {
        self.result.expect("rpc failed")
    }

    /// Maps the functional result, keeping the cost.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Rpc<U> {
        Rpc {
            result: self.result.map(f),
            cost: self.cost,
        }
    }
}

/// Reply to a create/mkdir.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreateReply {
    /// The inode assigned to the new file or directory.
    pub ino: InodeId,
    /// Whether the client holds the directory read-caching cap after this
    /// operation — if true, its next create in this directory needs no
    /// lookup RPC.
    pub has_cache: bool,
}

/// Client-side stamp on a speculatively issued operation, making replay
/// after rollback idempotent. The client predicts the outcome (the inode
/// number it expects from its granted range) before the ack arrives; if the
/// speculation is invalidated it replays the op with the *same* token, and
/// the server recognises an already-applied op by its predicted inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayToken {
    /// Client-local sequence number of the speculative op (diagnostics and
    /// fault-plan keying; not used for dedup — the inode is the identity).
    pub seq: u64,
    /// The inode the client predicted from its preallocated range. The
    /// server applies the op with exactly this inode, so a replay that
    /// finds the dentry already present with this inode is a duplicate.
    pub predicted_ino: InodeId,
    /// The MDS epoch the client believed current when it issued the op.
    /// A replay against a newer primary carries its stale birth epoch;
    /// the server counts it as a cross-epoch replay and serves it anyway
    /// (the token, not the epoch, is the idempotence key).
    pub epoch: u64,
}

/// One namespace operation, as data: what [`MetadataServer::serve`] takes
/// through its stages. Names are borrowed, so building a request allocates
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request<'a> {
    /// Looks `name` up in `parent` (a missing name is `Ok(None)`).
    Lookup {
        /// Directory searched.
        parent: InodeId,
        /// Name searched for.
        name: &'a str,
    },
    /// Reads an inode's attributes.
    Stat {
        /// The inode.
        ino: InodeId,
    },
    /// Lists a directory.
    Readdir {
        /// The directory.
        ino: InodeId,
    },
    /// Creates a file. Speculation is a property of the message, not a
    /// second call path: with a `token` the server applies exactly the
    /// predicted inode and acknowledges a replay of an already-applied
    /// token instead of answering `EEXIST`.
    Create {
        /// Directory created in.
        parent: InodeId,
        /// Name created.
        name: &'a str,
        /// The client's speculation stamp, if it ran ahead of the ack.
        token: Option<ReplayToken>,
    },
    /// Creates a directory.
    Mkdir {
        /// Directory created in.
        parent: InodeId,
        /// Name created.
        name: &'a str,
    },
    /// Removes a file.
    Unlink {
        /// Directory removed from.
        parent: InodeId,
        /// Name removed.
        name: &'a str,
    },
    /// Renames a dentry, replacing an existing destination file.
    Rename {
        /// Source directory.
        src_parent: InodeId,
        /// Source name.
        src_name: &'a str,
        /// Destination directory.
        dst_parent: InodeId,
        /// Destination name.
        dst_name: &'a str,
    },
}

impl<'a> Request<'a> {
    /// The inodes the request addresses: what the blocked-subtree check
    /// guards and, for an update, the directories that take write caps.
    fn targets(&self) -> [Option<InodeId>; 2] {
        match *self {
            Request::Lookup { parent, .. }
            | Request::Create { parent, .. }
            | Request::Mkdir { parent, .. }
            | Request::Unlink { parent, .. } => [Some(parent), None],
            Request::Stat { ino } | Request::Readdir { ino } => [Some(ino), None],
            Request::Rename {
                src_parent,
                dst_parent,
                ..
            } => [Some(src_parent), Some(dst_parent)],
        }
    }

    /// The consistency-history row this request leaves given its `reply`
    /// (`None` on error), with the inode the row reports. `stat` observes
    /// no name, so the name-keyed checkers have nothing to learn from it;
    /// a tokened create is recorded by the client's speculation layer when
    /// (and only if) the speculation commits. The row borrows the
    /// request's names; the history log copies them into its arena.
    fn history_row(&self, reply: Option<&Reply>) -> Option<(HistoryOp<&'a str>, u64)> {
        let created = || match reply {
            Some(Reply::Created(r)) => r.ino.0,
            _ => 0,
        };
        Some(match *self {
            Request::Stat { .. } | Request::Create { token: Some(_), .. } => return None,
            Request::Create { parent, name, .. } => (
                HistoryOp::Create {
                    dir: parent.0,
                    name,
                },
                created(),
            ),
            Request::Mkdir { parent, name } => (
                HistoryOp::Mkdir {
                    dir: parent.0,
                    name,
                },
                created(),
            ),
            Request::Lookup { parent, name } => {
                let found = match reply {
                    Some(Reply::Dentry(Some(d))) => Some(d.ino.0),
                    _ => None,
                };
                (
                    HistoryOp::Lookup {
                        dir: parent.0,
                        name,
                        found,
                    },
                    found.unwrap_or(0),
                )
            }
            Request::Unlink { parent, name } => (
                HistoryOp::Unlink {
                    dir: parent.0,
                    name,
                },
                0,
            ),
            Request::Rename {
                src_parent,
                src_name,
                dst_parent,
                dst_name,
            } => (
                HistoryOp::Rename {
                    src_dir: src_parent.0,
                    src_name,
                    dst_dir: dst_parent.0,
                    dst_name,
                },
                0,
            ),
            Request::Readdir { ino } => {
                let entries = match reply {
                    Some(Reply::Entries(v)) => v.len() as u64,
                    _ => 0,
                };
                (
                    HistoryOp::Readdir {
                        dir: ino.0,
                        entries,
                    },
                    ino.0,
                )
            }
        })
    }
}

/// What a served [`Request`] returns, one variant per reply shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `Create` / `Mkdir`: the inode applied and the caller's cap state.
    Created(CreateReply),
    /// `Lookup`: the dentry, or `None` for ENOENT.
    Dentry(Option<Dentry>),
    /// `Stat`: the inode's attributes.
    Attrs(Attrs),
    /// `Readdir`: the listing, sorted by name.
    Entries(DirListing),
    /// `Unlink` / `Rename`: nothing to return.
    Done,
}

/// The typed methods' half of the contract: each names the one reply shape
/// its request kind is answered with.
impl Reply {
    fn created(self) -> CreateReply {
        match self {
            Reply::Created(r) => r,
            other => unreachable!("create/mkdir answered with {other:?}"),
        }
    }

    fn dentry(self) -> Option<Dentry> {
        match self {
            Reply::Dentry(d) => d,
            other => unreachable!("lookup answered with {other:?}"),
        }
    }

    fn attrs(self) -> Attrs {
        match self {
            Reply::Attrs(a) => a,
            other => unreachable!("stat answered with {other:?}"),
        }
    }

    fn entries(self) -> DirListing {
        match self {
            Reply::Entries(v) => v,
            other => unreachable!("readdir answered with {other:?}"),
        }
    }

    fn done(self) {
        match self {
            Reply::Done => {}
            other => unreachable!("unlink/rename answered with {other:?}"),
        }
    }
}

/// Aggregate request counters (Figure 3c plots these over time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Total requests handled.
    pub rpcs: u64,
    /// Create requests serviced.
    pub creates: u64,
    /// Lookup requests serviced.
    pub lookups: u64,
    /// Requests rejected with EBUSY (interfere=block).
    pub rejects: u64,
    /// Volatile Apply merges performed.
    pub merges: u64,
    /// Journal events merged in total.
    pub merged_events: u64,
}

/// How many inodes the MDS transparently preallocates to an RPC-path
/// session when it runs dry (CephFS similarly hands sessions inode ranges).
const SESSION_PREALLOC: u64 = 1 << 16;

cudele_obs::handles! {
    /// The server's metric handles, published under `mds.*`, and the handles
    /// of the layers it owns: its mdlog's (which carry the journal writer's)
    /// and its checkpoint manager's. [`MdsObs::new`] is the one place these
    /// names are resolved; every server given a clone — the mdlog an in-place
    /// recovery rebuilds, the primary a standby promotes, a manager
    /// checkpoints are re-enabled on — reuses them. Functional counters
    /// ([`ServerCounters`]) are unaffected — this layer only mirrors activity
    /// into the shared [`Registry`].
    ///
    /// Names only some runs touch are resolved on first use and shared by
    /// every clone, so a run that never touches them registers nothing:
    /// `mds.mdlog.*` and `journal.writer.*` (the first journaling server),
    /// `mds.ckpt.*` (the first server to enable checkpoints),
    /// `mds.session.reconnects` (the first reconnect) and
    /// `mds.ckpt.{recoveries,fallbacks}` (the first recovery that climbs the
    /// manifest ladder).
    pub struct MdsObs(reg: &Arc<Registry>) {
        reg: Arc<Registry> = Arc::clone(reg),
        /// `mds.rpc.service_ns` — per-request service time (MDS CPU + extra
        /// client-visible latency), the RPC latency histogram.
        service_ns: Histogram = reg.histogram("mds.rpc.service_ns"),
        rpcs: Counter = reg.counter("mds.rpc.total"),
        creates: Counter = reg.counter("mds.rpc.creates"),
        lookups: Counter = reg.counter("mds.rpc.lookups"),
        rejects: Counter = reg.counter("mds.rpc.rejects"),
        cap_grants: Counter = reg.counter("mds.caps.grants"),
        cap_revocations: Counter = reg.counter("mds.caps.revocations"),
        cap_cache_hits: Counter = reg.counter("mds.caps.cache_hits"),
        merges: Counter = reg.counter("mds.merge.runs"),
        merged_events: Counter = reg.counter("mds.merge.merged_events"),
        /// `mds.spec.creates` — speculatively stamped creates served.
        spec_creates: Counter = reg.counter("mds.spec.creates"),
        /// `mds.spec.deduped` — replays recognised as already applied (the
        /// dentry existed with the token's predicted inode).
        spec_deduped: Counter = reg.counter("mds.spec.deduped"),
        /// `mds.spec.cross_epoch` — replays whose token was born under an
        /// older epoch than the serving primary (post-failover replays).
        spec_cross_epoch: Counter = reg.counter("mds.spec.cross_epoch"),
        /// The Stream mechanism (one observation per journaled update) and
        /// its `mds.mdlog` layer child.
        stream: Mechanism = reg.mechanism("stream"),
        mdlog_span: SpanName = reg.span_name("mds.mdlog", "mds"),
        /// Windowed time series: per-window service rate/latency, journal
        /// backlog and flush cadence, reconnects and cross-epoch replays.
        tl_served: Series = reg.timeline().series("mds.rpc.served"),
        tl_service_ns: Series = reg.timeline().series("mds.rpc.service_ns"),
        tl_backlog_events: Series = reg.timeline().series("mds.mdlog.backlog_events"),
        tl_flushes: Series = reg.timeline().series("mds.mdlog.flushes"),
        tl_flushed_events: Series = reg.timeline().series("mds.mdlog.flushed_events"),
        tl_reconnects: Series = reg.timeline().series("mds.session.reconnects"),
        tl_cross_epoch: Series = reg.timeline().series("mds.spec.cross_epoch"),
        /// For annotations (session reconnect markers).
        tl: cudele_obs::timeline::Timeline = reg.timeline(),
        mdlog: FirstUse<MdLogObs> = FirstUse::new(reg, MdLogObs::new),
        ckpt: FirstUse<CkptObs> = FirstUse::new(reg, CkptObs::new),
        reconnects: FirstUse<Counter> = FirstUse::new(reg, |r| r.counter("mds.session.reconnects")),
        recoveries: FirstUse<Counter> = FirstUse::new(reg, |r| r.counter("mds.ckpt.recoveries")),
        fallbacks: FirstUse<Counter> = FirstUse::new(reg, |r| r.counter("mds.ckpt.fallbacks")),
    }
}

impl MdsObs {
    /// Publishes `mds.ckpt.recoveries` / `mds.ckpt.fallbacks` when the
    /// manifest ladder was climbed at all (a run that never checkpointed
    /// registers neither).
    pub(crate) fn recovered(&self, rec: &RecoveredNamespace) {
        if rec.manifest.is_some() {
            self.recoveries.get().inc();
        }
        if rec.manifest.is_some() || rec.fallbacks > 0 {
            self.fallbacks.get().add(rec.fallbacks);
        }
    }

    fn note_caps(&self, c: &CapOutcome) {
        if c.granted {
            self.cap_grants.inc();
        }
        if c.revoked_from.is_some() {
            self.cap_revocations.inc();
        }
        if c.writer_has_cache && !c.granted {
            self.cap_cache_hits.inc();
        }
    }
}

/// The metadata server.
pub struct MetadataServer {
    cost: CostModel,
    store: MetadataStore,
    caps: CapTable,
    sessions: SessionMap,
    alloc: InodeAllocator,
    mdlog: Option<MdLog>,
    os: Arc<dyn ObjectStore>,
    pool: PoolId,
    /// Decoupled subtrees with interfere=block: subtree root -> owner.
    blocked: Vec<(InodeId, ClientId)>,
    counters: ServerCounters,
    /// The checkpoint compactor, when enabled: folds the flushed mdlog into
    /// manifest-governed images so recovery replays only the tail.
    ckpt: Option<CheckpointManager>,
    obs: Option<MdsObs>,
    /// Parent trace context supplied via [`MetadataServer::set_trace_ctx`];
    /// when present, server-side Stream spans join the caller's trace tree
    /// instead of opening traces of their own.
    trace_ctx: Option<TraceCtx>,
    /// The MDS epoch this instance believes it holds. Fencing is enforced
    /// at the object store (a [`cudele_rados::FencedStore`] stamped with
    /// the same epoch); this copy is for reporting and reconnect checks.
    epoch: Epoch,
    /// Whether the instance is serving. A crashed MDS stops answering:
    /// every RPC to it times out after [`MetadataServer::rpc_timeout`].
    up: bool,
    /// Virtual-time RPC timeout charged to a client calling a down MDS.
    rpc_timeout: Nanos,
    /// The one virtual clock below the harness, set by
    /// [`MetadataServer::set_now`]: it stamps the server's spans, series,
    /// history rows and checkpoints, and the object store keeps a copy
    /// that outage windows and the store, fault and journal-writer series
    /// read.
    now: Nanos,
}

/// Default virtual-time RPC timeout for calls to a dead MDS. Long against
/// an RPC (~hundreds of microseconds) but short against the beacon grace,
/// like real client timeouts versus monitor failure detection.
const DEFAULT_RPC_TIMEOUT: Nanos = Nanos::from_millis(5);

impl MetadataServer {
    /// A server with Stream journaling on at the paper's reference
    /// configuration (dispatch size 40).
    pub fn new(os: Arc<dyn ObjectStore>) -> MetadataServer {
        MetadataServer::with_config(os, CostModel::calibrated(), Some(MdLogConfig::default()))
    }

    /// Full configuration control. `mdlog: None` turns the journal off
    /// (the "no journal" baselines in Figures 3a and 5).
    pub fn with_config(
        os: Arc<dyn ObjectStore>,
        cost: CostModel,
        mdlog: Option<MdLogConfig>,
    ) -> MetadataServer {
        MetadataServer::from_parts(
            os,
            cost,
            mdlog.map(MdLog::new),
            MetadataStore::new(),
            InodeAllocator::new(),
            Epoch::INITIAL,
        )
    }

    /// Assembles a server around a namespace and allocator — empty for a
    /// fresh boot, or recovered from the object store on the
    /// standby-replay takeover path.
    pub(crate) fn from_parts(
        os: Arc<dyn ObjectStore>,
        cost: CostModel,
        mdlog: Option<MdLog>,
        store: MetadataStore,
        alloc: InodeAllocator,
        epoch: Epoch,
    ) -> MetadataServer {
        MetadataServer {
            cost,
            store,
            caps: CapTable::new(),
            sessions: SessionMap::new(),
            alloc,
            mdlog,
            os,
            pool: PoolId::METADATA,
            blocked: Vec::new(),
            counters: ServerCounters::default(),
            ckpt: None,
            obs: None,
            trace_ctx: None,
            epoch,
            up: true,
            rpc_timeout: DEFAULT_RPC_TIMEOUT,
            now: Nanos::ZERO,
        }
    }

    /// Attaches `reg` to the whole server: the object store counts its I/O
    /// there (`rados.*`, through [`ObjectStore::attach_obs`]) and the server
    /// and the layers it owns take [`MdsObs::new`]`(reg)`. Attach before
    /// the workload; re-attaching swaps the registry.
    pub fn attach_obs(&mut self, reg: &Arc<Registry>) {
        self.os.attach_obs(reg);
        self.set_obs(MdsObs::new(reg));
    }

    /// Counts on `obs`, and hands its children's handles to the mdlog
    /// (`mds.mdlog.*`, `journal.writer.*`) and the checkpoint manager
    /// (`mds.ckpt.*`). The object store keeps its own handles.
    pub fn set_obs(&mut self, obs: MdsObs) {
        if let Some(log) = self.mdlog.as_mut() {
            log.set_obs(obs.mdlog.get().clone());
        }
        if let Some(ckpt) = self.ckpt.as_mut() {
            ckpt.set_obs(obs.ckpt.get().clone());
        }
        self.obs = Some(obs);
    }

    /// Sets the virtual clock — the only clock setter a harness calls. The
    /// MDS's own behaviour is time-agnostic; the instant stamps its spans,
    /// series, history rows and checkpoints, and is pushed into the object
    /// store ([`ObjectStore::set_now`]), where OSD outage windows open and
    /// close against it and the `rados.*`, `faults.injected.*` and
    /// `journal.writer.*` series read it.
    pub fn set_now(&mut self, now: Nanos) {
        self.now = now;
        self.os.set_now(now);
    }

    /// Sets (or clears) the parent trace context for server-side spans.
    /// Harnesses set this per request alongside [`MetadataServer::set_now`]
    /// so Stream activity nests under the client op that caused it.
    pub fn set_trace_ctx(&mut self, ctx: Option<TraceCtx>) {
        self.trace_ctx = ctx;
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Read access to the namespace (verification, snapshots).
    pub fn store(&self) -> &MetadataStore {
        &self.store
    }

    /// Capability-table statistics.
    pub fn caps(&self) -> &CapTable {
        &self.caps
    }

    /// Request counters so far.
    pub fn counters(&self) -> ServerCounters {
        self.counters
    }

    /// Whether Stream journaling is on.
    pub fn journal_enabled(&self) -> bool {
        self.mdlog.is_some()
    }

    /// Reconfigures the capability re-grant cool-down (ablation knob).
    /// Existing capability state is reset.
    pub fn set_cap_regrant_after(&mut self, ops: u64) {
        self.caps = CapTable::with_regrant_after(ops);
    }

    /// The object store this server writes through (for failover harnesses
    /// that need to point a standby at the same cluster).
    pub fn object_store(&self) -> Arc<dyn ObjectStore> {
        Arc::clone(&self.os)
    }

    /// The MDS epoch this instance holds.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Stamps the instance's epoch (takeover bookkeeping; enforcement
    /// lives in the fenced object store).
    pub fn set_epoch(&mut self, epoch: Epoch) {
        self.epoch = epoch;
    }

    /// Whether the instance is serving requests.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Crashes the instance: it stops beaconing and every subsequent RPC
    /// to it times out. In-memory state is kept (it is a zombie process,
    /// not a wiped machine) so tests can drive stale writes through it.
    pub fn fail(&mut self) {
        self.up = false;
    }

    /// Restarts a failed instance in place (used by the in-place
    /// `crash_and_recover` path after recovery completes).
    pub fn restart(&mut self) {
        self.up = true;
    }

    /// The virtual-time RPC timeout charged to callers when this MDS is
    /// down.
    pub fn rpc_timeout(&self) -> Nanos {
        self.rpc_timeout
    }

    /// Inode-allocator watermark (diagnostics and collision assertions).
    pub fn alloc_watermark(&self) -> InodeId {
        self.alloc.watermark()
    }

    /// Turns on checkpointing: once five `config.interval_events` of
    /// flushed mdlog events lie past the last image, the compactor folds
    /// that image and the journal past it into the next one and publishes
    /// the manifest naming it, so recovery and standby takeover replay only
    /// the journal tail past the manifest's high-water mark — at most one
    /// image span. Resumes from a stored manifest when one exists.
    ///
    /// Meaningless without a journal, so rejected there.
    pub fn enable_checkpoints(&mut self, config: CheckpointConfig) -> Result<()> {
        let Some(log) = self.mdlog.as_ref() else {
            return Err(MdsError::NoEnt {
                what: "checkpoints need the mdlog enabled".to_string(),
            });
        };
        let mut ckpt = CheckpointManager::attach(self.os.as_ref(), log.journal_id(), config)
            .map_err(|e| MdsError::from_store("checkpoint", &e))?;
        if let Some(o) = &self.obs {
            ckpt.set_obs(o.ckpt.get().clone());
        }
        self.ckpt = Some(ckpt);
        Ok(())
    }

    /// The manifest epoch last published or recovered (0 = no checkpoint
    /// yet, or checkpointing off).
    pub fn manifest_epoch(&self) -> u64 {
        self.ckpt.as_ref().map_or(0, |c| c.manifest().epoch)
    }

    /// Rebinds the checkpoint manager onto the manifest a recovery
    /// actually used — `None` when no rung held, and the compactor starts
    /// over from the empty manifest — at the HEAD version it observed
    /// (standby takeover calls this after
    /// [`MetadataServer::enable_checkpoints`], since the stored HEAD may
    /// be a damaged epoch the recovery ladder skipped).
    pub(crate) fn resume_checkpoints(
        &mut self,
        manifest: Option<Manifest>,
        head_version: u64,
        replayed: u64,
    ) {
        if let Some(ckpt) = self.ckpt.as_mut() {
            ckpt.resume(manifest.unwrap_or_default(), head_version, replayed);
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn journal(&mut self, event: EventRef<'_>) -> Result<(Nanos, Nanos)> {
        self.journal_impl(event, true)
    }

    fn journal_impl(&mut self, event: EventRef<'_>, observe: bool) -> Result<(Nanos, Nanos)> {
        match self.mdlog.as_mut() {
            Some(log) => {
                let dispatch = log.config().dispatch_size;
                let flushed_before = log.flushed_events();
                log.submit(self.os.as_ref(), event)
                    .map_err(|e| MdsError::from_store("journal append", &e))?;
                if let Some(o) = &self.obs {
                    // Writer-side transients the whole-run counters hide:
                    // how deep the unflushed backlog runs and when segment
                    // flushes actually land on the virtual clock.
                    o.tl_backlog_events
                        .set(self.now, log.unflushed_events() as f64);
                    let flushed = log.flushed_events() - flushed_before;
                    if flushed > 0 {
                        o.tl_flushes.add(self.now, 1);
                        o.tl_flushed_events.add(self.now, flushed);
                    }
                }
                if let Some(ckpt) = self.ckpt.as_mut() {
                    ckpt.maybe_checkpoint(
                        self.os.as_ref(),
                        log.flushed_events(),
                        self.now,
                        &self.cost,
                    )
                    .map_err(|e| MdsError::from_store("checkpoint", &e))?;
                }
                let cpu = self.cost.stream_mds_cpu_at_dispatch(dispatch);
                if observe {
                    if let Some(o) = &self.obs {
                        match self.trace_ctx {
                            Some(parent) => {
                                // Nest under the client op: stream mechanism
                                // span, with the mdlog submit as its MDS-layer
                                // child.
                                let submit = Layer {
                                    name: o.mdlog_span,
                                    start: self.now,
                                    dur: cpu,
                                };
                                o.stream
                                    .observe_layered(&o.reg, parent, self.now, cpu, &[submit]);
                            }
                            None => o.stream.observe(&o.reg, o.reg.trace_root(0), self.now, cpu),
                        }
                    }
                }
                Ok((cpu, self.cost.stream_client_latency))
            }
            None => Ok((Nanos::ZERO, Nanos::ZERO)),
        }
    }

    /// Journals an inode-range grant. Grants are journaled *before* any
    /// inode from the range can appear in a namespace event (CephFS
    /// journals session `prealloc_inos` the same way), so recovery and
    /// standby replay can rebuild the allocator watermark from the journal
    /// alone. Grants are allocator bookkeeping, not a client update
    /// streamed through the mdlog, so they do not emit a `stream`
    /// mechanism span (they can fire outside any traced client op, e.g.
    /// at session mount).
    fn journal_grant(&mut self, client: ClientId, range: InodeRange) -> Result<(Nanos, Nanos)> {
        self.journal_impl(
            EventRef::AllocRange {
                client: client.0,
                start: range.start,
                len: range.len,
            },
            false,
        )
    }

    /// The reply every RPC gets while the instance is down: no result, no
    /// MDS CPU consumed, and the caller's virtual clock charged the full
    /// RPC timeout.
    fn down_reply<T>(&self) -> Option<Rpc<T>> {
        if self.up {
            return None;
        }
        Some(Rpc {
            result: Err(MdsError::Timeout),
            cost: OpCost {
                mds_cpu: Nanos::ZERO,
                client_extra: self.rpc_timeout,
                rpcs: 1,
            },
        })
    }

    /// The two stages every RPC shares, around its `body`. **Admit**: a
    /// down instance answers nothing (timeout, no counter moves); a live
    /// one counts the request and opens its cost at `mds_cpu` plus one
    /// RPC's overhead. **Reply**: whatever `body` made of the cost — it
    /// holds `&mut OpCost`, so an early `?` carries what accrued so far —
    /// is mirrored with the outcome into the registry, when one is
    /// attached.
    fn rpc<T>(
        &mut self,
        mds_cpu: Nanos,
        body: impl FnOnce(&mut Self, &mut OpCost) -> Result<T>,
    ) -> Rpc<T> {
        if let Some(r) = self.down_reply() {
            return r;
        }
        self.counters.rpcs += 1;
        let mut cost = OpCost::rpc(mds_cpu, self.cost.rpc_overhead);
        let result = body(self, &mut cost);
        if let Some(o) = &self.obs {
            o.rpcs.inc();
            let service = (cost.mds_cpu + cost.client_extra).0;
            o.service_ns.record(service);
            // Windowed view of the same signal: service rate and latency
            // distribution over virtual time, worst op linked by trace.
            o.tl_served.add(self.now, 1);
            o.tl_service_ns
                .sample(self.now, service, self.trace_ctx.map_or(0, |c| c.trace_id));
        }
        Rpc { result, cost }
    }

    /// Runs `f` against the metric handles when a registry is attached.
    fn obs(&self, f: impl FnOnce(&MdsObs)) {
        if let Some(o) = &self.obs {
            f(o);
        }
    }

    /// Collapses an outcome into the history result classes.
    fn history_result<T>(result: &Result<T>) -> HistoryResult {
        match result {
            Ok(_) => HistoryResult::Ok,
            Err(MdsError::Exists { .. }) => HistoryResult::Exists,
            Err(MdsError::NoEnt { .. }) => HistoryResult::NoEnt,
            Err(MdsError::Busy { .. }) => HistoryResult::Busy,
            Err(MdsError::NoSession { .. }) => HistoryResult::NoSession,
            Err(MdsError::Timeout) => HistoryResult::Timeout,
            Err(MdsError::Fenced { .. }) => HistoryResult::Fenced,
            Err(_) => HistoryResult::Err,
        }
    }

    /// Records one answered request into the consistency history (no-op
    /// without an attached registry, or for the kinds
    /// [`Request::history_row`] exempts). The interval is
    /// `[now, now + service time]` — the server mutates state at
    /// invocation, so `now` (set per request by the harness) is the
    /// linearization-point side and the ack lands after the charged cost.
    fn record_history(&self, client: ClientId, req: &Request<'_>, rpc: &Rpc<Reply>) {
        let Some(o) = &self.obs else { return };
        let Some((op, ino)) = req.history_row(rpc.result.as_ref().ok()) else {
            return;
        };
        o.reg.record_history_row(HistoryEvent {
            client: u64::from(client.0),
            scope: HistoryScope::Global,
            op,
            result: Self::history_result(&rpc.result),
            ino,
            invoke: self.now,
            ack: self.now + rpc.cost.mds_cpu + rpc.cost.client_extra,
            epoch: self.epoch.0,
            trace_id: self.trace_ctx.map_or(0, |c| c.trace_id),
        });
    }

    /// Returns Busy if `ino` is inside a subtree blocked for someone other
    /// than `client`.
    fn check_blocked(&self, ino: InodeId, client: ClientId) -> Result<()> {
        for &(root, owner) in &self.blocked {
            if owner != client && self.store.is_within(ino, root) {
                return Err(MdsError::Busy { ino: root });
            }
        }
        Ok(())
    }

    fn take_session_inode(&mut self, client: ClientId) -> Result<InodeId> {
        // "skip inodes used by the client at merge time": a session's
        // preallocated range may partially exist in the namespace after a
        // decoupled merge, so skip any number already in use.
        loop {
            let session = self.sessions.get_mut(client)?;
            match session.take_inode() {
                Some(ino) if self.store.inode_in_use(ino) => continue,
                Some(ino) => return Ok(ino),
                None => {
                    let range = self.alloc.allocate(SESSION_PREALLOC)?;
                    self.sessions.grant_range(client, range)?;
                    self.journal_grant(client, range)?;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Session management
    // ------------------------------------------------------------------

    /// Opens a session for `client`.
    pub fn open_session(&mut self, client: ClientId) -> Rpc<()> {
        self.rpc(self.cost.mds_lookup_cpu, |s, _| {
            s.sessions.open(client);
            Ok(())
        })
    }

    /// Closes a session, dropping its capabilities.
    pub fn close_session(&mut self, client: ClientId) -> Rpc<()> {
        self.rpc(self.cost.mds_lookup_cpu, |s, _| {
            s.sessions.close(client);
            s.caps.drop_client(client);
            s.blocked.retain(|&(_, owner)| owner != client);
            Ok(())
        })
    }

    /// Explicitly preallocates `count` inodes to the client — the
    /// "Allocated Inodes" contract for decoupled namespaces. The grant is
    /// journaled so recovery can rebuild the allocator watermark. A `count`
    /// that would run past the last inode number is refused with
    /// [`MdsError::NoInodes`]; nothing is granted or journaled.
    pub fn alloc_inodes(&mut self, client: ClientId, count: u64) -> Rpc<InodeRange> {
        self.rpc(self.cost.mds_lookup_cpu, |s, cost| {
            // Refuse an unknown session before the allocator moves.
            s.sessions.get(client)?;
            let range = s.alloc.allocate(count)?;
            s.sessions.grant_range(client, range)?;
            cost.journaled(s.journal_grant(client, range)?);
            Ok(range)
        })
    }

    /// What [`MetadataServer::alloc_inodes`] would refuse `client` before
    /// journaling anything — no open session, or a range past the last
    /// inode number — checked without reserving, journaling or charging
    /// anything. A grant this passes can still fail on journal I/O.
    pub fn check_grant(&self, client: ClientId, count: u64) -> Result<()> {
        self.sessions.get(client)?;
        self.alloc.check(count)
    }

    /// Client reconnect after a failover: reopens the session on the new
    /// primary and re-registers the client's surviving preallocated ranges
    /// (each with the number of inodes already consumed before the crash).
    /// The allocator is advanced past every reasserted range, so
    /// post-failover grants can never collide with pre-crash ones even if
    /// the original grant event was lost with the journal tail; the
    /// reassertion itself is re-journaled for the next recovery.
    pub fn reconnect_session(
        &mut self,
        client: ClientId,
        surviving: &[(InodeRange, u64)],
    ) -> Rpc<()> {
        self.rpc(self.cost.mds_lookup_cpu, |s, cost| {
            s.sessions.open(client);
            s.obs(|o| {
                o.reconnects.get().inc();
                // Reconnects cluster right after a takeover; the windowed
                // rate plus the marker make that visible against the
                // failover annotations.
                o.tl_reconnects.add(s.now, 1);
                o.tl.annotate(
                    "mds.session.reconnect",
                    s.now,
                    &format!("client {}", client.0),
                );
            });
            for &(range, used) in surviving {
                s.alloc.advance_to(range.end());
                s.sessions.restore_range(client, range, used)?;
                cost.journaled(s.journal_grant(client, range)?);
            }
            Ok(())
        })
    }

    // ------------------------------------------------------------------
    // Namespace RPCs: one funnel
    // ------------------------------------------------------------------

    /// Serves one namespace [`Request`] — the only path a namespace
    /// operation takes through the server. The stages, in order (DESIGN.md
    /// §5.1 tabulates what each may reject with, charge and count):
    ///
    /// 1. **admit** — a down instance times out; a live one counts the
    ///    request, and a target inside a subtree blocked for another
    ///    client rejects it (once, however many targets are blocked);
    /// 2. **validate** — a [`ReplayToken`] must predict an inode its
    ///    session was granted, and a replay of an already-applied token is
    ///    acknowledged at lookup cost without touching anything;
    /// 3. **apply** — reads answer from the store; an update takes its
    ///    inode and the write caps on its target directories, builds the
    ///    event it is about to log — as an [`EventRef`] borrowing the
    ///    request's names — and applies *that* through
    ///    [`MetadataStore::apply_checked`]: the store's read-only
    ///    [`MetadataStore::check`], then the one blind body replay and
    ///    merge use too;
    /// 4. **journal** — the event enters the mdlog (a failure here leaves
    ///    the in-memory mutation standing: a fenced zombie's private
    ///    hallucination, or the known gap of DESIGN.md §11.5 for I/O);
    /// 5. **reply** — cost and outcome mirrored into the registry, then
    ///    the history row (none for `stat` or tokened creates).
    pub fn serve(&mut self, client: ClientId, req: Request<'_>) -> Rpc<Reply> {
        let rpc = self.rpc(self.cost.mds_reject_cpu, |s, cost| {
            s.run(client, &req, cost)
        });
        self.record_history(client, &req, &rpc);
        rpc
    }

    /// Stages 2–4 plus the blocked-subtree half of admission. The cost
    /// arrives priced as a rejection and is re-priced once the request
    /// gets past validation.
    fn run(&mut self, client: ClientId, req: &Request<'_>, cost: &mut OpCost) -> Result<Reply> {
        // Admit.
        if let Request::Create {
            token: Some(token), ..
        } = req
        {
            // A token born under an older epoch (a replay across a
            // failover) is counted, not refused: the token, not the epoch,
            // is the idempotence key.
            let stale = token.epoch < self.epoch.0;
            self.obs(|o| {
                o.spec_creates.inc();
                if stale {
                    o.spec_cross_epoch.inc();
                    o.tl_cross_epoch.add(self.now, 1);
                }
            });
        }
        for ino in req.targets().into_iter().flatten() {
            if let Err(e) = self.check_blocked(ino, client) {
                self.counters.rejects += 1;
                self.obs(|o| o.rejects.inc());
                return Err(e);
            }
        }

        // Validate.
        if let Request::Create {
            parent,
            name,
            token: Some(token),
        } = *req
        {
            let ino = token.predicted_ino;
            if !self.sessions.get(client)?.ranges().any(|r| r.contains(ino)) {
                return Err(MdsError::BadSpeculation { ino });
            }
            match self.store.probe(parent, name) {
                // Replay of an op that applied before the invalidation.
                Ok(Some(d)) if d.ino == ino => {
                    self.obs(|o| o.spec_deduped.inc());
                    cost.mds_cpu = self.cost.mds_lookup_cpu;
                    return Ok(Reply::Created(CreateReply {
                        ino,
                        has_cache: false,
                    }));
                }
                Ok(Some(_)) => {
                    return Err(MdsError::Exists {
                        parent,
                        name: name.to_string(),
                    })
                }
                // Absent (or no such directory: the store will say so).
                Ok(None) | Err(_) => {}
            }
        }

        // Apply: reads answer here (re-priced as lookups); an update
        // becomes the event it logs.
        cost.mds_cpu = self.cost.mds_create_cpu;
        let (event, created) = match *req {
            Request::Lookup { parent, name } => {
                self.counters.lookups += 1;
                self.obs(|o| o.lookups.inc());
                cost.mds_cpu = self.cost.mds_lookup_cpu;
                return match self.store.probe(parent, name) {
                    // A directory that does not exist holds no names either.
                    Err(MdsError::NoEnt { .. }) => Ok(Reply::Dentry(None)),
                    found => found.map(Reply::Dentry),
                };
            }
            Request::Stat { ino } => {
                cost.mds_cpu = self.cost.mds_lookup_cpu;
                let inode = self.store.inode(ino).ok_or_else(|| MdsError::NoEnt {
                    what: format!("inode {ino}"),
                })?;
                return Ok(Reply::Attrs(inode.attrs));
            }
            Request::Readdir { ino } => {
                // "ls" is "notoriously heavy-weight": one lookup's CPU per
                // 64 entries scanned, plus base (a missing directory costs
                // the base alone).
                cost.mds_cpu = self.cost.mds_lookup_cpu;
                let entries = self.store.readdir(ino)?;
                cost.mds_cpu = cost.mds_cpu.scale(1.0 + entries.len() as f64 / 64.0);
                return Ok(Reply::Entries(entries));
            }
            Request::Create {
                parent,
                name,
                token,
            } => {
                self.counters.creates += 1;
                self.obs(|o| o.creates.inc());
                let ino = match token {
                    Some(token) => token.predicted_ino,
                    None => self.take_session_inode(client)?,
                };
                (
                    EventRef::Create {
                        parent,
                        name,
                        ino,
                        attrs: Attrs::file_default(),
                    },
                    Some(ino),
                )
            }
            Request::Mkdir { parent, name } => {
                let ino = self.take_session_inode(client)?;
                (
                    EventRef::Mkdir {
                        parent,
                        name,
                        ino,
                        attrs: Attrs::dir_default(),
                    },
                    Some(ino),
                )
            }
            Request::Unlink { parent, name } => (EventRef::Unlink { parent, name }, None),
            Request::Rename {
                src_parent,
                src_name,
                dst_parent,
                dst_name,
            } => (
                EventRef::Rename {
                    src_parent,
                    src_name,
                    dst_parent,
                    dst_name,
                },
                None,
            ),
        };
        let mut has_cache = false;
        for dir in req.targets().into_iter().flatten() {
            let caps = self.caps.on_dir_write(dir, client);
            self.obs(|o| o.note_caps(&caps));
            if caps.revoked_from.is_some() {
                cost.mds_cpu += self.cost.mds_cap_revoke_cpu;
            }
            has_cache = caps.writer_has_cache;
        }
        self.store.apply_checked(event)?;

        // Journal. On failure the in-memory mutation stands.
        cost.journaled(self.journal(event)?);
        Ok(match created {
            Some(ino) => Reply::Created(CreateReply { ino, has_cache }),
            None => Reply::Done,
        })
    }

    /// Creates a file in `parent`, allocating the inode from the client's
    /// session.
    pub fn create(&mut self, client: ClientId, parent: InodeId, name: &str) -> Rpc<CreateReply> {
        let req = Request::Create {
            parent,
            name,
            token: None,
        };
        self.serve(client, req).map(Reply::created)
    }

    /// Creates a file under a speculative [`ReplayToken`] — the typed
    /// alias for [`Request::Create`] with `token: Some(..)`. The client
    /// already predicted `token.predicted_ino` from its granted range and
    /// ran ahead assuming success, so the server must (a) apply the op with
    /// exactly that inode, and (b) treat a replay of an already-applied
    /// token as success, not `EEXIST`. Unlike [`MetadataServer::create`]
    /// this does **not** record a history event — the client's speculation
    /// layer records the op only when the speculation commits, so the
    /// consistency checkers never see an acked-but-rolled-back op.
    ///
    /// Validation, in order:
    /// 1. the session must own a granted range containing the predicted
    ///    inode (else [`MdsError::BadSpeculation`]);
    /// 2. a dentry `(parent, name)` already holding the predicted inode is
    ///    an idempotent replay — success at lookup cost, nothing re-applied
    ///    (any other inode under that name is `EEXIST`);
    /// 3. the predicted inode in use under a *different* name is an
    ///    allocation-contract violation ([`MdsError::InodeCollision`]).
    ///
    /// A token born under an older epoch (replay across a failover) is
    /// counted in `mds.spec.cross_epoch` and served normally: the token,
    /// not the epoch, is the idempotence key.
    pub fn create_speculative(
        &mut self,
        client: ClientId,
        parent: InodeId,
        name: &str,
        token: ReplayToken,
    ) -> Rpc<CreateReply> {
        let req = Request::Create {
            parent,
            name,
            token: Some(token),
        };
        self.serve(client, req).map(Reply::created)
    }

    /// Creates a directory in `parent`.
    pub fn mkdir(&mut self, client: ClientId, parent: InodeId, name: &str) -> Rpc<CreateReply> {
        self.serve(client, Request::Mkdir { parent, name })
            .map(Reply::created)
    }

    /// Looks up `name` in `parent`. `Ok(None)` is ENOENT — the reply the
    /// create path *wants* to see.
    pub fn lookup(&mut self, client: ClientId, parent: InodeId, name: &str) -> Rpc<Option<Dentry>> {
        self.serve(client, Request::Lookup { parent, name })
            .map(Reply::dentry)
    }

    /// Removes a file.
    pub fn unlink(&mut self, client: ClientId, parent: InodeId, name: &str) -> Rpc<()> {
        self.serve(client, Request::Unlink { parent, name })
            .map(Reply::done)
    }

    /// Renames within the namespace.
    pub fn rename(
        &mut self,
        client: ClientId,
        src_parent: InodeId,
        src_name: &str,
        dst_parent: InodeId,
        dst_name: &str,
    ) -> Rpc<()> {
        self.serve(
            client,
            Request::Rename {
                src_parent,
                src_name,
                dst_parent,
                dst_name,
            },
        )
        .map(Reply::done)
    }

    /// Stats an inode.
    pub fn stat(&mut self, client: ClientId, ino: InodeId) -> Rpc<Attrs> {
        self.serve(client, Request::Stat { ino }).map(Reply::attrs)
    }

    /// Lists a directory ("ls" — "notoriously heavy-weight"): MDS CPU
    /// scales with the entry count.
    pub fn readdir(&mut self, client: ClientId, ino: InodeId) -> Rpc<DirListing> {
        self.serve(client, Request::Readdir { ino })
            .map(Reply::entries)
    }

    // ------------------------------------------------------------------
    // Cudele entry points
    // ------------------------------------------------------------------

    /// Installs a serialized policy blob on the inode at `path`, journals
    /// it, and (for interfere=block) registers the subtree as owned by
    /// `client`. Distributed by the monitor in the core crate.
    pub fn set_subtree_policy(
        &mut self,
        client: ClientId,
        path: &str,
        policy: Vec<u8>,
        block_for_others: bool,
    ) -> Rpc<InodeId> {
        self.rpc(self.cost.mds_create_cpu, |s, _| {
            let ino = s.store.resolve(path)?;
            let event = EventRef::SetPolicy {
                ino,
                policy: &policy,
            };
            s.store.apply_checked(event)?;
            s.journal(event)?;
            if block_for_others {
                s.blocked.retain(|&(root, _)| root != ino);
                s.blocked.push((ino, client));
            }
            Ok(ino)
        })
    }

    /// Lifts an interfere=block registration (merge completed).
    pub fn release_subtree(&mut self, ino: InodeId) {
        self.blocked.retain(|&(root, _)| root != ino);
    }

    /// Volatile Apply: merges a decoupled client's journal straight into
    /// the in-memory metadata store, blindly ("the metadata server blindly
    /// applies the updates because it assumes the events were already
    /// checked for consistency").
    pub fn volatile_apply(&mut self, _client: ClientId, events: &[JournalEvent]) -> Rpc<u64> {
        self.rpc(Nanos::ZERO, |s, cost| {
            s.counters.merges += 1;
            // Journal-only bookkeeping events apply as no-ops.
            let applied = s.store.apply_blind_all(events);
            s.counters.merged_events += applied;
            s.obs(|o| {
                o.merges.inc();
                o.merged_events.add(applied);
            });
            // One bulk message; network transfer time is charged separately
            // by the harness from the journal's byte size.
            cost.mds_cpu = s.cost.volatile_apply_per_event * applied;
            Ok(applied)
        })
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// Flushes the mdlog (clean-shutdown path). A fenced flush is a no-op
    /// with an error — a zombie flushing its buffer must not panic and must
    /// not reach the store; any other store failure still panics (tests and
    /// harnesses treat the in-memory store as infallible outside faults).
    pub fn flush_journal(&mut self) {
        match self.try_flush_journal() {
            Ok(()) | Err(MdsError::Fenced { .. }) => {}
            Err(e) => panic!("object store rejected journal flush: {e}"),
        }
    }

    /// Fallible flush for callers that care about the outcome. A flush is
    /// also a checkpoint opportunity (still interval-gated), so a clean
    /// shutdown after a long run does not leave a full interval uncovered.
    pub fn try_flush_journal(&mut self) -> Result<()> {
        if let Some(log) = self.mdlog.as_mut() {
            log.flush(self.os.as_ref())
                .map_err(|e| MdsError::from_store("journal append", &e))?;
            if let Some(ckpt) = self.ckpt.as_mut() {
                ckpt.maybe_checkpoint(self.os.as_ref(), log.flushed_events(), self.now, &self.cost)
                    .map_err(|e| MdsError::from_store("checkpoint", &e))?;
            }
        }
        Ok(())
    }

    /// Journals and flushes events another path already wrote to the
    /// object store: Nonvolatile Apply replays a client journal straight
    /// into the dirfrag objects, which a recovery with a checkpoint
    /// manifest never reads — it starts from the image and replays the
    /// mdlog tail. Logging the events makes them survive that recovery
    /// too: the journal is the source of truth (DESIGN.md §12.2). The
    /// in-memory namespace is left alone (the caller restarts the server
    /// next), no `stream` span is recorded, and without an mdlog this is a
    /// no-op — recovery then starts from the dirfrags.
    pub fn journal_applied(&mut self, events: &[JournalEvent]) -> Result<()> {
        if self.mdlog.is_none() {
            return Ok(());
        }
        for event in events {
            self.journal_impl(event.into(), false)?;
        }
        self.try_flush_journal()
    }

    /// Events accepted into the mdlog but not yet persisted to the object
    /// store — exactly what a crash at this instant would lose (the
    /// quantified bounded loss of the stream durability class).
    pub fn unflushed_events(&self) -> u64 {
        self.mdlog.as_ref().map_or(0, MdLog::unflushed_events)
    }

    /// Simulates an MDS restart: the in-memory store, caps, and sessions
    /// are dropped and the namespace and allocator are rebuilt from the
    /// object store by `recover_namespace` — the same ladder standby
    /// takeover climbs, here reading and healing through the server's own
    /// handle. Unflushed journal events are lost — exactly the durability
    /// gap the Stream/none configurations trade away. The in-memory mdlog
    /// restarts empty at its own configuration (the persisted stripes
    /// remain) and, when checkpointing is on, the compactor resumes from the
    /// manifest recovery actually used.
    pub fn crash_and_recover(&mut self) -> Result<()> {
        let journal_id = self
            .mdlog
            .as_ref()
            .map_or(JournalId::MDLOG, MdLog::journal_id);
        let rec = recover_namespace(self.os.as_ref(), self.os.as_ref(), self.pool, journal_id)?;
        if let Some(o) = &self.obs {
            o.recovered(&rec);
        }
        self.alloc = rec.alloc;
        self.resume_checkpoints(rec.manifest, rec.head_version, rec.replayed_events);
        self.store = rec.store;
        self.caps = CapTable::new();
        self.sessions = SessionMap::new();
        if let Some(log) = self.mdlog.as_mut() {
            *log = MdLog::with_id(log.config(), journal_id);
            if let Some(o) = &self.obs {
                log.set_obs(o.mdlog.get().clone());
            }
        }
        self.up = true;
        Ok(())
    }

    /// Test/benchmark setup helper: mkdir -p without cost accounting and
    /// without journaling (directories created this way do not survive an
    /// MDS crash — use [`MetadataServer::setup_dir_durable`] when recovery
    /// matters).
    pub fn setup_dir(&mut self, path: &str) -> Result<InodeId> {
        self.setup_dir_inner(path, false)
    }

    /// mkdir -p without cost accounting but *with* journaling, so the
    /// directories are recoverable like any RPC-created ones.
    pub fn setup_dir_durable(&mut self, path: &str) -> Result<InodeId> {
        self.setup_dir_inner(path, true)
    }

    fn setup_dir_inner(&mut self, path: &str, durable: bool) -> Result<InodeId> {
        let mut cur = InodeId::ROOT;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = match self.store.lookup(cur, comp) {
                Ok(d) => d.ino,
                Err(MdsError::NoEnt { .. }) => {
                    let ino = self.alloc.allocate(1)?.start;
                    let event = EventRef::Mkdir {
                        parent: cur,
                        name: comp,
                        ino,
                        attrs: Attrs::dir_default(),
                    };
                    self.store.apply_checked(event)?;
                    if durable {
                        self.journal(event)?;
                    }
                    ino
                }
                Err(e) => return Err(e),
            };
        }
        Ok(cur)
    }
}

/// What [`recover_namespace`] rebuilt from the object store.
pub(crate) struct RecoveredNamespace {
    /// The namespace: the base, plus the replayed journal tail.
    pub store: MetadataStore,
    /// The allocator, past every inode the recovered state proves granted.
    pub alloc: InodeAllocator,
    /// Journal events replayed (with a manifest: only the tail past its
    /// high-water mark).
    pub replayed_events: u64,
    /// Whether the journal was damaged and its corrupt region was erased
    /// (lossy recovery).
    pub healed: bool,
    /// The manifest whose image was the base — the HEAD's, or a fallback
    /// epoch's. `None` = no manifest rung held: full replay.
    pub manifest: Option<Manifest>,
    /// Object version of the manifest HEAD (0 = there is none), for the
    /// checkpoint manager to resume at.
    pub head_version: u64,
    /// Events materialized from the manifest's image.
    pub checkpoint_events: u64,
    /// Manifest epochs skipped because a checkpoint object was damaged —
    /// counted on the full-replay rung too, where every one was.
    pub fallbacks: u64,
}

/// Recovery — the one way back from the object store to a namespace, shared
/// by in-place [`MetadataServer::crash_and_recover`] (`read` = `write` = its
/// own handle) and standby [`crate::StandbyReplay::take_over`] (`read` = the
/// raw store, `write` = the handle fenced at the new epoch), so the two can
/// never recover differently. It is one fold, `base ⊕ journal tail ⊕
/// allocator`, and each durable representation has one reader:
///
/// 1. **Base** ([`checkpoint::load_covered`]): the newest manifest whose
///    image materializes, falling back one epoch per damaged object;
///    when no rung holds, the persisted image ([`persist::load_store`])
///    covering nothing of the journal.
/// 2. **Journal** ([`recover_journal`]): one lenient borrowed walk. Every
///    frame is checked once; the covered prefix (below the base's
///    high-water mark) is verified and nothing of it is kept, and the tail
///    comes back as views into the stripe bytes, parsed by the same pass. A
///    journal damaged on disk (torn stripe write, bit flip caught by the
///    frame CRC, missing stripe) does not abort recovery: the corrupt region
///    is cut away *through `write`* and the surviving prefix is what
///    replays — the `cephfs-journal-tool` disaster-recovery workflow. If
///    that prefix ends below the base's high-water mark the manifest
///    lineage is void ([`checkpoint::purge_manifests`]) and the base is the
///    image after all, with the whole clean journal (parsed again from the
///    kept bytes) as its tail: what recovery returns is always the replay
///    of the journal as it reads.
/// 3. **Tail**: the journal past the base's high-water mark, blind-applied
///    straight from the stripe bytes.
/// 4. **Allocator**: rebuilt from what was recovered, never carried over —
///    every journaled range grant ([`JournalEvent::AllocRange`]) and inode
///    the tail's views name, every inode in the recovered namespace (the
///    persisted image a Nonvolatile Apply merge writes, after Global
///    Persist, holds inodes no mdlog event names) and, under a manifest,
///    its covered-prefix watermark (the fold into a canonical image drops
///    grants and unlinked inodes).
pub(crate) fn recover_namespace(
    read: &dyn ObjectStore,
    write: &dyn ObjectStore,
    pool: PoolId,
    journal_id: JournalId,
) -> Result<RecoveredNamespace> {
    let (mut base, mut head_version, mut fallbacks) = checkpoint::load_covered(read, journal_id)
        .map_err(|e| MdsError::from_store("checkpoint", &e))?;
    let covered = base.as_ref().map_or(0, |(_, m, _)| m.journal_highwater_seq);
    let mut stripes = Stripes::default();
    let journal = recover_journal(read, write, journal_id, covered, &mut stripes)
        .map_err(|e| MdsError::from_store("mdlog replay", &e))?;
    let healed = journal.damage.is_some();
    let tail = if covered > journal.events {
        checkpoint::purge_manifests(read, write, journal_id)
            .map_err(|e| MdsError::from_store("checkpoint", &e))?;
        (base, head_version, fallbacks) = (None, 0, fallbacks + 1);
        journal.all_events()
    } else {
        journal.tail
    };
    let (mut store, manifest, checkpoint_events) = match base {
        Some((store, manifest, events)) => (store, Some(manifest), events),
        None => {
            let image = persist::load_store(read, pool)
                .map_err(|e| MdsError::from_store("persisted metadata", &e))?;
            (image, None, 0)
        }
    };
    store.apply_blind_all(&tail);

    let mut alloc = InodeAllocator::new();
    alloc.advance_to(InodeId(manifest.as_ref().map_or(0, |m| m.alloc_watermark)));
    for w in tail.iter().filter_map(EventRef::alloc_watermark) {
        alloc.advance_to(w);
    }
    if let Some(max) = store.max_inode() {
        alloc.advance_to(max.next());
    }
    Ok(RecoveredNamespace {
        store,
        alloc,
        replayed_events: tail.len() as u64,
        healed,
        manifest,
        head_version,
        checkpoint_events,
        fallbacks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudele_rados::InMemoryStore;

    fn server() -> MetadataServer {
        MetadataServer::new(Arc::new(InMemoryStore::paper_default()))
    }

    fn server_no_journal() -> MetadataServer {
        MetadataServer::with_config(
            Arc::new(InMemoryStore::paper_default()),
            CostModel::calibrated(),
            None,
        )
    }

    const C1: ClientId = ClientId(1);
    const C2: ClientId = ClientId(2);

    #[test]
    fn create_through_rpc_path() {
        let mut s = server();
        s.open_session(C1);
        let dir = s.setup_dir("/work").unwrap();
        let r = s.create(C1, dir, "f0");
        let reply = r.result.unwrap();
        assert!(reply.has_cache, "sole client gets the dir cap");
        assert!(r.cost.mds_cpu >= s.cost_model().mds_create_cpu);
        assert!(r.cost.client_extra > s.cost_model().rpc_overhead); // + stream wait
        assert_eq!(s.store().lookup(dir, "f0").unwrap().ino, reply.ino);
    }

    #[test]
    fn speculative_create_applies_predicted_inode_and_replays_idempotently() {
        let mut s = server();
        let reg = Arc::new(Registry::new());
        s.attach_obs(&reg);
        s.open_session(C1);
        let dir = s.setup_dir("/spec").unwrap();
        let range = s.alloc_inodes(C1, 16).expect_ok();
        let token = ReplayToken {
            seq: 0,
            predicted_ino: range.start,
            epoch: s.epoch().0,
        };
        let first = s.create_speculative(C1, dir, "f0", token);
        assert_eq!(first.result.unwrap().ino, range.start);
        assert!(first.cost.mds_cpu >= s.cost_model().mds_create_cpu);
        // Replay with the same token: success at lookup cost, not EEXIST,
        // and nothing re-applied.
        let replay = s.create_speculative(C1, dir, "f0", token);
        assert_eq!(replay.result.unwrap().ino, range.start);
        assert!(replay.cost.mds_cpu < s.cost_model().mds_create_cpu);
        assert_eq!(s.counters().creates, 1);
        assert_eq!(reg.counter_value("mds.spec.creates"), Some(2));
        assert_eq!(reg.counter_value("mds.spec.deduped"), Some(1));
        // A token predicting an inode the session never owned is rejected.
        let bogus = ReplayToken {
            seq: 1,
            predicted_ino: InodeId(0xdead_beef),
            epoch: s.epoch().0,
        };
        assert!(matches!(
            s.create_speculative(C1, dir, "f1", bogus).result,
            Err(MdsError::BadSpeculation { .. })
        ));
        // A different op colliding with the applied name is still EEXIST.
        let other = ReplayToken {
            seq: 2,
            predicted_ino: InodeId(range.start.0 + 1),
            epoch: s.epoch().0,
        };
        assert!(matches!(
            s.create_speculative(C1, dir, "f0", other).result,
            Err(MdsError::Exists { .. })
        ));
        // A stale birth epoch is counted, not rejected.
        let stale = ReplayToken {
            seq: 3,
            predicted_ino: InodeId(range.start.0 + 1),
            epoch: 0,
        };
        s.create_speculative(C1, dir, "f1", stale).expect_ok();
        assert_eq!(reg.counter_value("mds.spec.cross_epoch"), Some(1));
        // Speculative serves record no history: the client does at commit.
        let h = cudele_obs::history::History::parse(&reg.history_json("rpc")).unwrap();
        assert!(h.events.is_empty(), "server must not record spec history");
    }

    #[test]
    fn attached_registry_sees_rpcs_caps_and_stream() {
        let mut s = server();
        let reg = Arc::new(Registry::new());
        s.attach_obs(&reg);
        s.open_session(C1);
        s.open_session(C2);
        let dir = s.setup_dir("/work").unwrap();
        s.set_now(Nanos::from_micros(10));
        s.create(C1, dir, "a").expect_ok();
        s.create(C2, dir, "b").expect_ok(); // contended dir: revocation
        s.lookup(C1, dir, "a").expect_ok();
        let c = s.counters();
        assert_eq!(reg.counter_value("mds.rpc.total"), Some(c.rpcs));
        assert_eq!(reg.counter_value("mds.rpc.creates"), Some(c.creates));
        assert_eq!(reg.counter_value("mds.rpc.lookups"), Some(c.lookups));
        assert!(reg.counter_value("mds.caps.grants").unwrap() >= 1);
        assert!(reg.counter_value("mds.caps.revocations").unwrap() >= 1);
        // Every journaled update emits a Stream mechanism span + counter.
        assert!(reg.counter_value("core.mechanism.stream.runs").unwrap() >= 2);
        assert!(reg.has_span("stream"));
        // The latency histogram saw every request.
        let h = reg.histogram("mds.rpc.service_ns");
        assert_eq!(h.count(), c.rpcs);
        assert!(h.p99() > 0.0);
        // Cascade reached the object store: journal flush traffic is not
        // guaranteed yet (dispatch window may not have filled), but the
        // handles exist.
        assert!(reg.counter_value("rados.store.write_ops").is_some());
    }

    #[test]
    fn blocked_subtree_rejection_counted_in_registry() {
        let mut s = server_no_journal();
        let reg = Arc::new(Registry::new());
        s.attach_obs(&reg);
        s.open_session(C1);
        s.open_session(C2);
        let dir = s.setup_dir("/priv").unwrap();
        s.set_subtree_policy(C1, "/priv", vec![1], true).expect_ok();
        assert!(s.create(C2, dir, "x").result.is_err());
        assert_eq!(reg.counter_value("mds.rpc.rejects"), Some(1));
        assert_eq!(reg.counter_value("core.mechanism.stream.runs"), None);
    }

    #[test]
    fn duplicate_create_fails_but_costs() {
        let mut s = server();
        s.open_session(C1);
        let dir = s.setup_dir("/d").unwrap();
        s.create(C1, dir, "f").result.unwrap();
        let r = s.create(C1, dir, "f");
        assert!(matches!(r.result, Err(MdsError::Exists { .. })));
        assert!(r.cost.mds_cpu > Nanos::ZERO);
    }

    #[test]
    fn journal_off_removes_stream_costs() {
        let mut s = server_no_journal();
        let reg = Arc::new(Registry::new());
        s.attach_obs(&reg);
        s.open_session(C1);
        let dir = s.setup_dir("/d").unwrap();
        let r = s.create(C1, dir, "f");
        r.result.unwrap();
        assert_eq!(r.cost.client_extra, s.cost_model().rpc_overhead);
        assert_eq!(r.cost.mds_cpu, s.cost_model().mds_create_cpu);
        assert_eq!(reg.counter_value("mds.mdlog.events"), None);
    }

    #[test]
    fn interference_revokes_and_costs_more() {
        let mut s = server();
        s.open_session(C1);
        s.open_session(C2);
        let dir = s.setup_dir("/shared").unwrap();
        let r1 = s.create(C1, dir, "a").result.unwrap();
        assert!(r1.has_cache);
        let r2 = s.create(C2, dir, "b");
        let reply2 = r2.result.unwrap();
        assert!(!reply2.has_cache);
        // Revocation charged to MDS CPU.
        assert!(r2.cost.mds_cpu > s.cost_model().mds_create_cpu);
        assert_eq!(s.caps().revocations(), 1);
        // C1 lost its cache.
        let r3 = s.create(C1, dir, "c").result.unwrap();
        assert!(!r3.has_cache);
    }

    #[test]
    fn lookup_enoent_is_ok_none() {
        let mut s = server();
        s.open_session(C1);
        let dir = s.setup_dir("/d").unwrap();
        assert_eq!(s.lookup(C1, dir, "missing").result.unwrap(), None);
        s.create(C1, dir, "here").result.unwrap();
        assert!(s.lookup(C1, dir, "here").result.unwrap().is_some());
        assert_eq!(s.counters().lookups, 2);
    }

    #[test]
    fn blocked_subtree_returns_busy_for_others() {
        let mut s = server();
        s.open_session(C1);
        s.open_session(C2);
        let dir = s.setup_dir("/batch/job1").unwrap();
        s.set_subtree_policy(C1, "/batch/job1", vec![1], true)
            .result
            .unwrap();
        // Owner passes.
        s.create(C1, dir, "mine").result.unwrap();
        // Interferer gets EBUSY, cheap reject cost.
        let r = s.create(C2, dir, "theirs");
        assert!(matches!(r.result, Err(MdsError::Busy { .. })));
        assert_eq!(r.cost.mds_cpu, s.cost_model().mds_reject_cpu);
        assert_eq!(s.counters().rejects, 1);
        // Nested dirs inside the subtree are blocked too.
        let nested = s.setup_dir("/batch/job1/sub").unwrap();
        assert!(matches!(
            s.create(C2, nested, "x").result,
            Err(MdsError::Busy { .. })
        ));
        // Release lifts the block.
        let root = s.store().resolve("/batch/job1").unwrap();
        s.release_subtree(root);
        s.create(C2, dir, "theirs").result.unwrap();
    }

    /// A refused rename of a directory into its own subtree leaves the
    /// parent links a chain, so a blocked-subtree check from another client
    /// still walks to the root and returns. (A rename that formed a cycle
    /// used to make that walk spin: the watchdog turns a hang into a
    /// failure.)
    #[test]
    fn blocked_subtree_check_returns_after_a_refused_subtree_rename() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (tx, rx) = channel();
        let worker = std::thread::spawn(move || {
            let mut s = server_no_journal();
            s.open_session(C1);
            s.open_session(C2);
            let a = s.setup_dir("/a").unwrap();
            let b = s.setup_dir("/a/b").unwrap();
            s.setup_dir("/c").unwrap();
            s.set_subtree_policy(C1, "/c", vec![1], true).expect_ok();
            let renamed = s.rename(C1, InodeId::ROOT, "a", b, "x").result;
            let looked_up = s.lookup(C2, b, "y").result;
            let _ = tx.send((a, renamed, looked_up, s.store().snapshot().len()));
        });
        // A spinning worker cannot be joined; any other outcome is, so a
        // panic in it surfaces here.
        let got = rx.recv_timeout(std::time::Duration::from_secs(3));
        assert!(
            !matches!(got, Err(RecvTimeoutError::Timeout)),
            "the blocked-subtree check did not return"
        );
        worker.join().expect("the worker panicked");
        let (a, renamed, looked_up, entries) = got.expect("the worker sent its outcome");
        assert_eq!(renamed, Err(MdsError::Invalid { ino: a }));
        assert_eq!(looked_up, Ok(None));
        assert_eq!(entries, 3, "/a, /a/b and /c stay reachable");
    }

    #[test]
    fn alloc_inodes_contract() {
        let mut s = server();
        s.open_session(C1);
        let r = s.alloc_inodes(C1, 100).result.unwrap();
        assert_eq!(r.len, 100);
        // A second client's range is disjoint.
        s.open_session(C2);
        let r2 = s.alloc_inodes(C2, 100).result.unwrap();
        assert!(!r.contains(r2.start) && !r2.contains(r.start));
    }

    /// A grant refused for want of a session leaves the allocator where
    /// it was, and `check_grant` refuses what `alloc_inodes` would.
    #[test]
    fn a_grant_without_a_session_burns_no_inodes() {
        let mut s = server();
        let before = s.alloc_watermark();
        let stranger = ClientId(9);
        assert_eq!(
            s.check_grant(stranger, 10),
            Err(MdsError::NoSession { client: 9 })
        );
        let r = s.alloc_inodes(stranger, 10);
        assert_eq!(r.result, Err(MdsError::NoSession { client: 9 }));
        assert_eq!(s.alloc_watermark(), before);
        s.open_session(C1);
        assert_eq!(s.check_grant(C1, u64::MAX), Err(MdsError::NoInodes));
        assert_eq!(s.check_grant(C1, 10), Ok(()));
        assert_eq!(s.alloc_watermark(), before);
        assert_eq!(s.alloc_inodes(C1, 10).result.unwrap().start, before);
    }

    #[test]
    fn volatile_apply_merges_blindly() {
        let mut s = server();
        s.open_session(C1);
        let dir = s.setup_dir("/decoupled").unwrap();
        let range = s.alloc_inodes(C1, 10).result.unwrap();
        let events: Vec<JournalEvent> = range
            .iter()
            .enumerate()
            .map(|(i, ino)| JournalEvent::Create {
                parent: dir,
                name: format!("f{i}"),
                ino,
                attrs: Attrs::file_default(),
            })
            .collect();
        let r = s.volatile_apply(C1, &events);
        assert_eq!(r.result.unwrap(), 10);
        assert_eq!(r.cost.mds_cpu, s.cost_model().volatile_apply_per_event * 10);
        assert_eq!(s.store().readdir(dir).unwrap().len(), 10);
        assert_eq!(s.counters().merged_events, 10);
    }

    /// A boxed listing is no larger than `stat`'s attributes, so every other
    /// reply is moved at the size it had before listings had an arena.
    #[test]
    fn carrying_a_listing_does_not_widen_the_reply() {
        assert_eq!(
            std::mem::size_of::<Reply>(),
            std::mem::size_of::<Attrs>() + 8
        );
    }

    #[test]
    fn unlink_rename_stat_readdir() {
        let mut s = server();
        s.open_session(C1);
        let d1 = s.setup_dir("/a").unwrap();
        let d2 = s.setup_dir("/b").unwrap();
        let f = s.create(C1, d1, "f").result.unwrap();
        s.rename(C1, d1, "f", d2, "g").result.unwrap();
        assert_eq!(s.stat(C1, f.ino).result.unwrap(), Attrs::file_default());
        let entries = s.readdir(C1, d2).result.unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries.iter().next().map(|(n, _)| n), Some("g"));
        s.unlink(C1, d2, "g").result.unwrap();
        assert!(s.readdir(C1, d2).result.unwrap().is_empty());
    }

    #[test]
    fn crash_loses_unflushed_recovers_flushed() {
        let mut s = server();
        s.open_session(C1);
        let dir = s.setup_dir("/ckpt").unwrap();
        for i in 0..10 {
            s.create(C1, dir, &format!("f{i}")).result.unwrap();
        }
        // Without a flush, everything may be lost (setup_dir dirs too) —
        // journal segments have not been dispatched (default segment size
        // is much larger than 10 events).
        s.crash_and_recover().unwrap();
        assert!(s.store().resolve("/ckpt").is_err());

        // Now with a clean flush: everything survives.
        s.open_session(C1);
        let dir = s.setup_dir("/ckpt2").unwrap();
        // setup_dir bypasses the journal, so journal the mkdir explicitly
        // through the RPC path instead.
        let sub = s.mkdir(C1, dir, "run").result.unwrap();
        for i in 0..10 {
            s.create(C1, sub.ino, &format!("f{i}")).result.unwrap();
        }
        s.flush_journal();
        s.crash_and_recover().unwrap();
        // /ckpt2 was created outside the journal, but /ckpt2/run and its
        // files were journaled... /ckpt2 itself is missing, so the replay
        // recreated the journaled part under an orphaned parent. Verify by
        // inode instead of path.
        assert!(s.store().inode(sub.ino).is_some());
        assert!(s.store().dir(sub.ino).map(|d| d.len()).unwrap_or(0) == 10);
    }

    #[test]
    fn corrupt_mdlog_recovers_valid_prefix_via_tool() {
        let os = Arc::new(InMemoryStore::paper_default());
        let mut s = MetadataServer::with_config(
            os.clone(),
            CostModel::calibrated(),
            Some(MdLogConfig {
                events_per_segment: 8,
                dispatch_size: 2,
                trim_after_updates: None,
            }),
        );
        s.open_session(C1);
        let dir = s
            .mkdir(C1, cudele_journal::InodeId::ROOT, "work")
            .result
            .unwrap();
        for i in 0..20 {
            s.create(C1, dir.ino, &format!("f{i}")).result.unwrap();
        }
        s.flush_journal();

        // Flip a bit deep in the persisted mdlog: a strict replay fails.
        let journal_id = cudele_journal::JournalId::MDLOG;
        let stripe = cudele_rados::ObjectId::journal_stripe(journal_id.pool, journal_id.ino, 0);
        let mut data = os.read(&stripe).unwrap().to_vec();
        let cut = data.len() * 3 / 4;
        data[cut] ^= 0x08;
        os.write_full(&stripe, &data).unwrap();
        assert!(cudele_journal::read_journal(os.as_ref(), journal_id).is_err());

        // Recovery heals through `recover_journal`: the corrupt suffix is
        // erased, the valid prefix replays, and the journal is healed.
        s.crash_and_recover().unwrap();
        let recovered = s.store().dir(dir.ino).map(|d| d.len()).unwrap_or(0);
        assert!(
            recovered < 20,
            "corruption must cost some tail events, kept {recovered}"
        );
        assert!(
            cudele_journal::read_journal(os.as_ref(), journal_id).is_ok(),
            "recovery heals the on-disk journal"
        );
    }

    #[test]
    fn session_required_for_create() {
        let mut s = server();
        let dir = s.setup_dir("/d").unwrap();
        let r = s.create(ClientId(99), dir, "f");
        assert!(matches!(r.result, Err(MdsError::NoSession { client: 99 })));
    }

    #[test]
    fn counters_track_rpcs() {
        let mut s = server();
        s.open_session(C1);
        let dir = s.setup_dir("/d").unwrap();
        s.create(C1, dir, "f");
        s.lookup(C1, dir, "f");
        let c = s.counters();
        assert_eq!(c.rpcs, 3); // open_session + create + lookup
        assert_eq!(c.creates, 1);
        assert_eq!(c.lookups, 1);
    }
}
