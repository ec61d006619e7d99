//! The shared discrete-event world for the create-heavy experiments:
//! one metadata server (functional state + a FIFO CPU resource) driven by
//! closed-loop client processes.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use cudele_client::{AckOutcome, RpcClient, SpeculativeClient};
use cudele_faults::FaultPlan;
use cudele_journal::InodeId;
use cudele_mds::{ClientId, MdsError, MetadataServer, OpCost};
use cudele_obs::timeline::Series;
use cudele_obs::{Histogram, Mechanism, Registry, SpanName, TraceCtx};
use cudele_sim::{Engine, FifoServer, Nanos, Process, RunReport, Step};
use cudele_workloads::{client_dir, file_name, write_file_name, Interference};

/// Shared simulation state: the functional MDS plus its CPU queue and any
/// named traces processes append to.
pub struct World {
    pub server: MetadataServer,
    /// The MDS CPU: all `OpCost::mds_cpu` time serializes through here.
    pub mds: FifoServer,
    /// Named time series recorded by processes, for time-trace figures.
    pub traces: HashMap<&'static str, Vec<(Nanos, f64)>>,
    /// The run's metrics/trace registry. Attached to the server (and so to
    /// the object store, mdlog, and journal writers) at construction; the
    /// world's processes add per-mechanism spans on top.
    pub obs: Arc<Registry>,
    /// The registry's shared virtual-time timeline (windowed samplers).
    pub tl: cudele_obs::timeline::Timeline,
    /// Everything the processes record per op, resolved once from `obs`.
    pub(crate) h: WorldHandles,
    /// Closed-loop decoupled clients that finished their creates, parked
    /// here because the engine drops its processes when it returns (see
    /// [`run_decoupled_creates`]).
    parked: Vec<DecoupledCreateProcess>,
    /// The buffer create processes format each file name into. It lives
    /// here, not in the process, so an open-loop run's one-create clients
    /// share it too; a step takes it and puts it back.
    name_buf: String,
}

/// The harness's per-op telemetry, resolved against the world's registry
/// when the world is built so no process step looks a name up. Open-loop
/// runs hold one process per arrival, so the handles live here, once,
/// rather than in each process. All of them are lazy (an unused series,
/// span name or mechanism leaves no trace in any artifact), which is why
/// a histogram only some runs record stays an `Option` filled on first use.
pub(crate) struct WorldHandles {
    rpcs: Mechanism,
    volatile_apply: Mechanism,
    append_client_journal: Mechanism,
    speculate: Mechanism,
    queue_wait: SpanName,
    service: SpanName,
    net_rpc: SpanName,
    create: SpanName,
    net_transfer: SpanName,
    mds_apply: SpanName,
    net_reply: SpanName,
    merge: SpanName,
    client_append: SpanName,
    append_batch: SpanName,
    spec_create: SpanName,
    client_rollback: SpanName,
    backlog: Series,
    ops: Series,
    op_latency: Series,
    merge_latency: Series,
    timeouts: Series,
    retries: Series,
    spec_rollbacks: Series,
    spec_replayed: Series,
    spec_commits: Series,
    spec_depth: Series,
    pub(crate) sojourn: Series,
    /// `bench.sojourn.ns`, registered by the first open-loop completion.
    pub(crate) sojourn_hist: Option<Histogram>,
}

impl WorldHandles {
    fn resolve(obs: &Registry) -> WorldHandles {
        let tl = obs.timeline();
        WorldHandles {
            rpcs: obs.mechanism("rpcs"),
            volatile_apply: obs.mechanism("volatile_apply"),
            append_client_journal: obs.mechanism("append_client_journal"),
            speculate: obs.mechanism("speculate"),
            queue_wait: obs.span_name("mds.queue_wait", "mds"),
            service: obs.span_name("mds.service", "mds"),
            net_rpc: obs.span_name("net.rpc", "net"),
            create: obs.span_name("create", "client_op"),
            net_transfer: obs.span_name("net.transfer", "net"),
            mds_apply: obs.span_name("mds.apply", "mds"),
            net_reply: obs.span_name("net.reply", "net"),
            merge: obs.span_name("merge", "client_op"),
            client_append: obs.span_name("client.append", "client"),
            append_batch: obs.span_name("append_batch", "client_op"),
            spec_create: obs.span_name("spec_create", "client_op"),
            client_rollback: obs.span_name("client.rollback", "client"),
            backlog: tl.series("mds.rpc.backlog_ns"),
            ops: tl.series("bench.ops"),
            op_latency: tl.series("bench.op_latency.ns"),
            merge_latency: tl.series("bench.merge_latency.ns"),
            timeouts: tl.series("client.rpc.timeouts"),
            retries: tl.series("client.rpc.retries"),
            spec_rollbacks: tl.series("client.spec.rollbacks"),
            spec_replayed: tl.series("client.spec.replayed"),
            spec_commits: tl.series("client.spec.commits"),
            spec_depth: tl.series("client.spec.depth"),
            sojourn: tl.series("bench.sojourn.ns"),
            sojourn_hist: None,
        }
    }
}

impl World {
    /// Builds the world and attaches a metrics registry to every layer:
    /// the session registry when one is installed (see [`crate::obs_out`]),
    /// else a private one.
    pub fn new(mut server: MetadataServer) -> World {
        let obs = crate::obs_out::session().unwrap_or_else(|| Arc::new(Registry::new()));
        server.attach_obs(&obs);
        let tl = obs.timeline();
        let h = WorldHandles::resolve(&obs);
        World {
            server,
            mds: FifoServer::new("mds-cpu"),
            traces: HashMap::new(),
            obs,
            tl,
            h,
            parked: Vec::new(),
            name_buf: String::new(),
        }
    }

    /// Charges one client-visible operation: each RPC queues on the MDS
    /// CPU, then the client waits out its non-CPU latency. Returns the
    /// completion instant. Attributed to trace track `tid` (usually the
    /// client index): each charged RPC cost emits an `rpcs` mechanism span
    /// covering its queue wait + service + client-visible latency.
    pub fn charge_as(&mut self, tid: u32, mut t: Nanos, costs: &[OpCost]) -> Nanos {
        for c in costs {
            let start = t;
            t = self.mds.serve(t, c.mds_cpu) + c.client_extra;
            if c.rpcs > 0 {
                let ctx = self.obs.trace_root(tid);
                self.h.rpcs.observe(&self.obs, ctx, start, t - start);
            }
        }
        t
    }

    /// [`World::charge_as`] with causal tracing: each charged RPC becomes
    /// an `rpcs` mechanism span *under `parent`* (the client op's root),
    /// itself broken into `mds.queue_wait` (only when the MDS CPU made the
    /// request wait), `mds.service`, and `net.rpc` layer children.
    pub fn charge_ctx(&mut self, parent: TraceCtx, mut t: Nanos, costs: &[OpCost]) -> Nanos {
        for c in costs {
            let start = t;
            let served = self.mds.serve(t, c.mds_cpu);
            t = served + c.client_extra;
            if c.rpcs > 0 {
                let ctx = self.obs.trace_child(parent);
                self.h.rpcs.observe(&self.obs, ctx, start, t - start);
                self.rpc_layers(ctx, start, served, c);
            }
        }
        t
    }

    /// The layer breakdown under one charged RPC's mechanism span `ctx`:
    /// the backlog gauge, `mds.queue_wait` (only when the MDS CPU made the
    /// request wait), `mds.service` and `net.rpc`.
    fn rpc_layers(&self, ctx: TraceCtx, start: Nanos, served: Nanos, c: &OpCost) {
        let service_start = served - c.mds_cpu;
        let wait = service_start - start;
        self.h.backlog.set(start, wait.0 as f64);
        if wait > Nanos::ZERO {
            self.obs.child_named(ctx, self.h.queue_wait, start, wait);
        }
        self.obs
            .child_named(ctx, self.h.service, service_start, c.mds_cpu);
        self.obs
            .child_named(ctx, self.h.net_rpc, served, c.client_extra);
    }

    /// Appends a point to a named trace.
    pub fn trace(&mut self, name: &'static str, t: Nanos, v: f64) {
        self.traces.entry(name).or_default().push((t, v));
    }

    /// Creates the private directories for `n` clients (setup, uncharged).
    pub fn setup_private_dirs(&mut self, n: u32) -> Vec<InodeId> {
        (0..n)
            .map(|c| self.server.setup_dir(&client_dir(c)).expect("setup dirs"))
            .collect()
    }
}

/// A closed-loop RPC client creating `total` files in one directory.
/// Follows the full capability discipline via [`RpcClient`], so the number
/// of RPCs per create depends on caps state.
pub struct RpcCreateProcess {
    client: RpcClient,
    idx: u32,
    dir: InodeId,
    total: u64,
    done: u64,
    op_lat: Histogram,
    timeouts_seen: u64,
    retries_seen: u64,
    /// Record a per-op trace of the victim's behaviour (Figure 3c).
    pub record_trace: bool,
    /// Completion instant of the most recent create. The closed-loop
    /// contract returns `Done` at the final create's *issuance* step, so
    /// wrappers that need the true finish time (open-loop sojourn) read
    /// it here instead of from the step clock.
    pub last_op_end: Nanos,
}

impl RpcCreateProcess {
    /// Builds the process and opens the session (setup, uncharged).
    pub fn new(world: &mut World, idx: u32, dir: InodeId, total: u64) -> RpcCreateProcess {
        let (mut client, _) = RpcClient::mount(&mut world.server, ClientId(idx));
        client.attach_obs(&world.obs);
        RpcCreateProcess {
            client,
            idx,
            dir,
            total,
            done: 0,
            op_lat: world.obs.histogram("bench.op_latency.ns"),
            timeouts_seen: 0,
            retries_seen: 0,
            record_trace: false,
            last_op_end: Nanos::ZERO,
        }
    }
}

impl Process<World> for RpcCreateProcess {
    fn step(&mut self, now: Nanos, world: &mut World) -> Step {
        if self.done >= self.total {
            return Step::Done;
        }
        let mut name = std::mem::take(&mut world.name_buf);
        write_file_name(&mut name, self.idx, self.done);
        // Open the client op's trace root before touching the server so
        // server-side activity (Stream journaling) nests under it.
        let root = world.obs.trace_root(self.idx);
        world.server.set_now(now);
        world.server.set_trace_ctx(Some(root));
        let out = self.client.create(&mut world.server, self.dir, &name);
        world.server.set_trace_ctx(None);
        match out.result {
            Ok(_) => {}
            Err(e) => panic!("client {} create failed: {e}", self.idx),
        }
        let t = world.charge_ctx(root, now, &out.costs);
        world
            .obs
            .end_named_with(root, world.h.create, now, t - now, "file", &name);
        world.name_buf = name;
        self.op_lat.record((t - now).0);
        self.last_op_end = t;
        world.h.ops.add(t, 1);
        world.h.op_latency.sample(t, (t - now).0, root.trace_id);
        let timeouts = self.client.timeouts_seen;
        if timeouts > self.timeouts_seen {
            world.h.timeouts.add(t, timeouts - self.timeouts_seen);
            self.timeouts_seen = timeouts;
        }
        // Non-terminal retry attempts, windowed: a bounded-retry storm that
        // eventually succeeds is invisible in the timeout series alone.
        let retries = self.client.retries_seen;
        if retries > self.retries_seen {
            world.h.retries.add(t, retries - self.retries_seen);
            self.retries_seen = retries;
        }
        self.done += 1;
        if self.record_trace {
            world.trace("victim-lookups", t, self.client.lookups_sent as f64);
            world.trace("victim-creates", t, self.done as f64);
            world.trace("mds-rpcs", t, world.server.counters().rpcs as f64);
        }
        if self.done >= self.total {
            Step::Done
        } else {
            Step::ResumeAt(t)
        }
    }

    fn name(&self) -> String {
        format!("rpc-client{}", self.idx)
    }
}

/// A decoupled client appending `total` creates to its in-memory journal:
/// no RPCs, no MDS — pure client CPU at the append rate.
pub struct DecoupledCreateProcess {
    pub client: cudele_client::DecoupledClient,
    idx: u32,
    total: u64,
    done: u64,
    append: Nanos,
    op_lat: Histogram,
}

impl DecoupledCreateProcess {
    /// Decouples the client's private dir (setup, uncharged) with enough
    /// allocated inodes for the whole run.
    pub fn new(world: &mut World, idx: u32, dir_path: &str, total: u64) -> DecoupledCreateProcess {
        world.server.open_session(ClientId(idx));
        let (dc, _) = cudele_client::DecoupledClient::decouple(
            &mut world.server,
            ClientId(idx),
            dir_path,
            total,
        );
        let append = world.server.cost_model().client_append;
        let mut client = dc.expect("decouple");
        client.attach_obs(&world.obs);
        DecoupledCreateProcess {
            client,
            idx,
            total,
            done: 0,
            append,
            op_lat: world.obs.histogram("bench.op_latency.ns"),
        }
    }

    /// Ships the journal to the MDS (Volatile Apply) starting at `t`,
    /// charging the MDS queue; returns the merge completion time. Called
    /// by harnesses after all clients finish ("journals land on the
    /// metadata server at the same time"). `concurrent` is the number of
    /// journals arriving in the same window (cache/lock interference makes
    /// concurrent merges costlier — see the cost model).
    pub fn merge_at(&mut self, world: &mut World, t: Nanos, concurrent: u32) -> Nanos {
        let factor = world
            .server
            .cost_model()
            .volatile_apply_concurrency_factor(concurrent);
        let events = self.client.event_count();
        let root = world.obs.trace_root(self.idx);
        world.server.set_now(t);
        world.server.set_trace_ctx(Some(root));
        let (result, cost, transfer) = self.client.volatile_apply(&mut world.server);
        world.server.set_trace_ctx(None);
        result.expect("merge");
        let arrive = t + transfer;
        let served = world.mds.serve(arrive, cost.mds_cpu.scale(factor));
        let done = served + cost.client_extra;
        // The journal ships over the network, then the apply runs (and may
        // queue) on the MDS CPU — all under one client-op root.
        world
            .obs
            .child_named(root, world.h.net_transfer, t, transfer);
        let va = world.obs.trace_child(root);
        world
            .h
            .volatile_apply
            .observe(&world.obs, va, arrive, done - arrive);
        let service_start = served - cost.mds_cpu.scale(factor);
        let wait = service_start - arrive;
        if wait > Nanos::ZERO {
            world.obs.child_named(va, world.h.queue_wait, arrive, wait);
        }
        world.obs.child_named(
            va,
            world.h.mds_apply,
            service_start,
            cost.mds_cpu.scale(factor),
        );
        world
            .obs
            .child_named(va, world.h.net_reply, served, cost.client_extra);
        world
            .obs
            .end_named_with(root, world.h.merge, t, done - t, "events", events);
        world
            .obs
            .histogram("bench.merge_latency.ns")
            .record((done - t).0);
        world
            .h
            .merge_latency
            .sample(done, (done - t).0, root.trace_id);
        // The merge is the run's global-visibility point: record it so
        // the eventual-visibility checker knows when the journal's acked
        // ops must become observable.
        world.obs.record_history(cudele_obs::history::HistoryEvent {
            client: u64::from(self.client.id.0),
            scope: cudele_obs::history::HistoryScope::Global,
            op: cudele_obs::history::HistoryOp::Merge { events },
            result: cudele_obs::history::HistoryResult::Ok,
            ino: 0,
            invoke: t,
            ack: done,
            epoch: world.server.epoch().0,
            trace_id: root.trace_id,
        });
        done
    }
}

impl Process<World> for DecoupledCreateProcess {
    fn step(&mut self, now: Nanos, world: &mut World) -> Step {
        if self.done >= self.total {
            return Step::Done;
        }
        // Batch appends between wake-ups: waking the engine 100 K times per
        // client at 91 us each is pointless — appends are CPU-local with no
        // shared resources, so 1000-op batches preserve exact timing.
        let batch = (self.total - self.done).min(1000);
        let mut name = std::mem::take(&mut world.name_buf);
        for k in 0..batch {
            write_file_name(&mut name, self.idx, self.done);
            self.client.set_now(now + self.append * k);
            self.client
                .create(self.client.root, &name)
                .expect("decoupled create");
            self.done += 1;
        }
        world.name_buf = name;
        let t = now + self.append * batch;
        for _ in 0..batch {
            self.op_lat.record(self.append.0);
        }
        // One windowed sample per batch: every append in it has the same
        // latency, so the batch collapses to a count plus one exemplar.
        world.h.ops.add(t, batch);
        world.h.op_latency.sample(t, self.append.0, 0);
        // One parented tree per batch: the whole window is client-local
        // append CPU, so the mechanism span and its client child coincide.
        let root = world.obs.trace_root(self.idx);
        let acj = world.obs.trace_child(root);
        world
            .h
            .append_client_journal
            .observe(&world.obs, acj, now, t - now);
        world
            .obs
            .child_named(acj, world.h.client_append, now, t - now);
        world
            .obs
            .end_named_with(root, world.h.append_batch, now, t - now, "ops", batch);
        // The final batch's time still elapses: the wake-up after it finds
        // nothing left and completes.
        Step::ResumeAt(t)
    }

    fn name(&self) -> String {
        format!("decoupled-client{}", self.idx)
    }
}

/// The engine's handle on a closed-loop decoupled client: steps it and,
/// at `Done`, parks it on the world with the journal it appended.
struct ParkWhenDone(Option<DecoupledCreateProcess>);

impl Process<World> for ParkWhenDone {
    fn step(&mut self, now: Nanos, world: &mut World) -> Step {
        let step = self
            .0
            .as_mut()
            .expect("engine never steps a finished process")
            .step(now, world);
        if matches!(step, Step::Done) {
            world.parked.extend(self.0.take());
        }
        step
    }

    fn name(&self) -> String {
        self.0.as_ref().map_or_else(String::new, Process::name)
    }
}

/// The closed-loop decoupled create phase: client `c` appends `files`
/// creates to its journal under [`client_dir`]`(c)` (which must exist).
/// Returns the finished clients in client order, each still holding the
/// journal it appended, so the caller merges *that* journal with
/// [`DecoupledCreateProcess::merge_at`] instead of appending it again.
pub fn run_decoupled_creates(
    world: World,
    clients: u32,
    files: u64,
) -> (World, RunReport, Vec<DecoupledCreateProcess>) {
    let mut eng = Engine::new(world);
    for c in 0..clients {
        let p = DecoupledCreateProcess::new(eng.world_mut(), c, &client_dir(c), files);
        eng.add_process(Box::new(ParkWhenDone(Some(p))));
    }
    let (mut world, report) = eng.run();
    let mut parked = std::mem::take(&mut world.parked);
    parked.sort_by_key(|p| p.idx);
    (world, report, parked)
}

/// The interfering client: starting at its configured time, creates
/// `files_per_dir` files in every victim directory (Figures 3b/3c/6b).
/// Interference against a `block`ed subtree is rejected with EBUSY; the
/// interferer keeps going (and the rejects still cost MDS cycles).
pub struct InterfererProcess {
    client: RpcClient,
    id: u32,
    dirs: Vec<InodeId>,
    files_per_dir: u64,
    issued: u64,
    pub rejected: u64,
}

impl InterfererProcess {
    /// Builds the interferer (session opened at setup). `victim_dirs` are
    /// visited in the seeded order of `spec`.
    pub fn new(
        world: &mut World,
        id: u32,
        spec: &Interference,
        victim_dirs: &[InodeId],
    ) -> InterfererProcess {
        let (client, _) = RpcClient::mount(&mut world.server, ClientId(id));
        let order = spec.visit_order(victim_dirs.len() as u32);
        InterfererProcess {
            client,
            id,
            dirs: order.into_iter().map(|d| victim_dirs[d as usize]).collect(),
            files_per_dir: spec.files_per_dir,
            issued: 0,
            rejected: 0,
        }
    }

    fn total(&self) -> u64 {
        self.dirs.len() as u64 * self.files_per_dir
    }
}

impl Process<World> for InterfererProcess {
    fn step(&mut self, now: Nanos, world: &mut World) -> Step {
        if self.issued >= self.total() {
            return Step::Done;
        }
        let dir_idx = (self.issued / self.files_per_dir) as usize;
        let i = self.issued % self.files_per_dir;
        let dir = self.dirs[dir_idx];
        let name = format!("intruder.{dir_idx}.{i}");
        world.server.set_now(now);
        let out = self.client.create(&mut world.server, dir, &name);
        match out.result {
            Ok(_) => {}
            Err(MdsError::Busy { .. }) => self.rejected += 1,
            Err(e) => panic!("interferer create failed: {e}"),
        }
        let t = world.charge_as(self.id, now, &out.costs);
        self.issued += 1;
        if self.issued >= self.total() {
            Step::Done
        } else {
            Step::ResumeAt(t)
        }
    }

    fn name(&self) -> String {
        "interferer".to_string()
    }
}

/// Injects MDS lag episodes: at each scheduled instant the MDS CPU is
/// occupied for the episode's duration, stalling every queued request.
///
/// Figure 3b's interference runs exhibit large run-to-run variance in the
/// paper ("the metadata server complains about laggy and unresponsive
/// requests" once capability churn sets in); the deterministic simulation
/// reproduces that systemic effect with seeded episodes, enabled only for
/// allow-interference configurations (block prevents the revocation storms
/// that trigger them).
pub struct MdsLagProcess {
    /// (start, duration) pairs in schedule order.
    episodes: Vec<(Nanos, Nanos)>,
    next: usize,
}

impl MdsLagProcess {
    pub fn new(mut episodes: Vec<(Nanos, Nanos)>) -> MdsLagProcess {
        episodes.sort();
        MdsLagProcess { episodes, next: 0 }
    }

    /// First wake-up time (engine start time for this process).
    pub fn first_wake(&self) -> Option<Nanos> {
        self.episodes.first().map(|&(t, _)| t)
    }
}

impl Process<World> for MdsLagProcess {
    fn step(&mut self, now: Nanos, world: &mut World) -> Step {
        if self.next >= self.episodes.len() {
            return Step::Done;
        }
        let (_, dur) = self.episodes[self.next];
        world.mds.serve(now, dur);
        self.next += 1;
        match self.episodes.get(self.next) {
            Some(&(t, _)) => Step::ResumeAt(t.max(now)),
            None => Step::Done,
        }
    }

    fn name(&self) -> String {
        "mds-lag".to_string()
    }
}

/// One issued-but-undelivered speculative ack in flight back to the
/// client.
struct PendingAck {
    seq: u64,
    /// Virtual instant the ack lands at the client.
    at: Nanos,
    /// The fault plan turned this ack into a NACK (speculation abort).
    nack: bool,
    root: TraceCtx,
    issued_at: Nanos,
}

/// An open-window RPC client creating `total` files in one directory via
/// [`SpeculativeClient`]: up to `depth` creates run ahead of the last ack,
/// each ack riding the normal RPC path (MDS CPU queue + network round
/// trip) while the client keeps issuing at its local append cadence. A
/// NACK from the fault plan rolls back the dependent suffix and replays it
/// synchronously against the primary.
pub struct SpeculativeCreateProcess {
    pub client: SpeculativeClient,
    idx: u32,
    dir: InodeId,
    total: u64,
    issued: u64,
    depth: usize,
    append: Nanos,
    pending: VecDeque<PendingAck>,
    plan: Option<Arc<FaultPlan>>,
    op_lat: Histogram,
    /// Where the client's own CPU has got to (issue cadence).
    clock: Nanos,
    /// Completion instant of the most recent commit (see
    /// [`RpcCreateProcess::last_op_end`]).
    pub last_op_end: Nanos,
}

impl SpeculativeCreateProcess {
    /// Builds the process: opens the session and preallocates the
    /// speculation range (setup, uncharged). `plan` supplies the
    /// `spec_abort_ppm` NACK draws; `None` never NACKs.
    pub fn new(
        world: &mut World,
        idx: u32,
        dir: InodeId,
        total: u64,
        depth: usize,
        plan: Option<Arc<FaultPlan>>,
    ) -> SpeculativeCreateProcess {
        let (client, _) = SpeculativeClient::mount(&mut world.server, ClientId(idx));
        let mut client = client.expect("speculative mount");
        client.attach_obs(&world.obs);
        let append = world.server.cost_model().client_append;
        SpeculativeCreateProcess {
            client,
            idx,
            dir,
            total,
            issued: 0,
            depth: depth.max(1),
            append,
            pending: VecDeque::new(),
            plan,
            op_lat: world.obs.histogram("bench.op_latency.ns"),
            clock: Nanos::ZERO,
            last_op_end: Nanos::ZERO,
        }
    }

    /// Records one client-visible completion: the op's latency runs from
    /// its speculative issue to the ack (or replay) that committed it.
    fn complete(&mut self, world: &mut World, p: &PendingAck, at: Nanos) {
        let lat = at - p.issued_at;
        self.op_lat.record(lat.0);
        world.h.ops.add(at, 1);
        world.h.op_latency.sample(at, lat.0, p.root.trace_id);
        world
            .obs
            .end_named_with(p.root, world.h.spec_create, p.issued_at, lat, "seq", p.seq);
        self.last_op_end = self.last_op_end.max(at);
    }

    /// Handles an invalidated ack: replays the doomed closure synchronously
    /// against the primary (the rollback span parents under the aborted
    /// op's root), then completes every doomed op — including later ones
    /// whose acks were still pending — at the replay's end.
    fn rollback_and_replay(&mut self, world: &mut World, p: &PendingAck, doomed: &[u64]) -> Nanos {
        world.h.spec_rollbacks.add(p.at, 1);
        world.server.set_now(p.at);
        world.server.set_trace_ctx(Some(p.root));
        self.client.set_now(p.at);
        let (r, costs) = self.client.replay(&mut world.server, doomed);
        world.server.set_trace_ctx(None);
        r.expect("speculative replay");
        let t = world.charge_ctx(p.root, p.at, &costs);
        world
            .obs
            .child_named(p.root, world.h.client_rollback, p.at, t - p.at);
        world.h.spec_replayed.add(t, doomed.len() as u64);
        let mut rest = VecDeque::with_capacity(self.pending.len());
        for q in std::mem::take(&mut self.pending) {
            if doomed.contains(&q.seq) {
                self.complete(world, &q, t);
            } else {
                rest.push_back(q);
            }
        }
        self.pending = rest;
        self.complete(world, p, t);
        t
    }
}

impl Process<World> for SpeculativeCreateProcess {
    fn step(&mut self, now: Nanos, world: &mut World) -> Step {
        // Deliver every ack due by now, in arrival order.
        while self.pending.front().is_some_and(|p| p.at <= now) {
            let p = self.pending.pop_front().expect("front checked");
            self.client.set_now(p.at);
            match self.client.deliver_ack(p.seq, p.nack) {
                AckOutcome::Committed(n) => {
                    self.complete(world, &p, p.at);
                    if n > 0 {
                        world.h.spec_commits.add(p.at, n);
                    }
                }
                AckOutcome::RolledBack(doomed) => {
                    let t = self.rollback_and_replay(world, &p, &doomed);
                    self.clock = self.clock.max(t);
                }
            }
        }
        // Issue while the window has room, at the local append cadence:
        // this is where speculation wins — the client never blocks on the
        // MDS round trip.
        let mut t = self.clock.max(now);
        while self.issued < self.total && self.client.depth() < self.depth {
            let name = file_name(self.idx, self.issued);
            let root = world.obs.trace_root(self.idx);
            world.server.set_now(t);
            world.server.set_trace_ctx(Some(root));
            self.client.set_now(t);
            let (seq, costs) = self.client.issue_create(&mut world.server, self.dir, &name);
            world.server.set_trace_ctx(None);
            // The ack rides the normal RPC path — queue on the MDS CPU,
            // then the network round trip — without the client waiting.
            let mut ack_at = t;
            for c in &costs {
                let start = ack_at;
                let served = world.mds.serve(ack_at, c.mds_cpu);
                ack_at = served + c.client_extra;
                if c.rpcs > 0 {
                    let ctx = world.obs.trace_child(root);
                    world
                        .h
                        .speculate
                        .observe(&world.obs, ctx, start, ack_at - start);
                    world.rpc_layers(ctx, start, served, c);
                }
            }
            // Per-client NACK draws: keyed by (client, seq) so the draw is
            // independent of engine interleaving and thread count.
            let nack = self
                .plan
                .as_ref()
                .is_some_and(|pl| pl.spec_abort((u64::from(self.idx) << 40) | seq));
            self.pending.push_back(PendingAck {
                seq,
                at: ack_at,
                nack,
                root,
                issued_at: t,
            });
            world.h.spec_depth.set(t, self.client.depth() as f64);
            self.issued += 1;
            t += self.append;
        }
        self.clock = self.clock.max(t);
        if let Some(a) = self.pending.front().map(|p| p.at) {
            Step::ResumeAt(a)
        } else if self.issued >= self.total {
            Step::Done
        } else {
            Step::ResumeAt(t)
        }
    }

    fn name(&self) -> String {
        format!("spec-client{}", self.idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudele_rados::InMemoryStore;

    fn world() -> World {
        World::new(MetadataServer::new(
            Arc::new(InMemoryStore::paper_default()),
        ))
    }

    #[test]
    fn single_rpc_client_rate_matches_calibration() {
        let mut w = world();
        let dirs = w.setup_private_dirs(1);
        let mut eng = Engine::new(w);
        let total = 1000;
        let mut proc0 = RpcCreateProcess::new(eng.world_mut(), 0, dirs[0], total);
        proc0.record_trace = false;
        eng.add_process(Box::new(proc0));
        let (w, report) = eng.run();
        // ~542 creates/sec with journal on (the calibrated 1-client rate;
        // the paper's separate runs measured 513-549).
        let rate = total as f64 / report.slowest().as_secs_f64();
        assert!((rate - 542.0).abs() < 15.0, "rate {rate}");
        assert_eq!(w.server.counters().creates, total);
    }

    #[test]
    fn decoupled_client_rate_matches_append() {
        let mut w = world();
        w.server.setup_dir("/clients/dir0").unwrap();
        let mut eng = Engine::new(w);
        let p = DecoupledCreateProcess::new(eng.world_mut(), 0, "/clients/dir0", 5000);
        eng.add_process(Box::new(p));
        let (_, report) = eng.run();
        let rate = 5000.0 / report.slowest().as_secs_f64();
        assert!((rate - 11_000.0).abs() < 150.0, "rate {rate}");
    }

    #[test]
    fn twenty_decoupled_clients_scale_linearly() {
        let mut w = world();
        for c in 0..20 {
            w.server.setup_dir(&client_dir(c)).unwrap();
        }
        let mut eng = Engine::new(w);
        for c in 0..20 {
            let p = DecoupledCreateProcess::new(eng.world_mut(), c, &client_dir(c), 2000);
            eng.add_process(Box::new(p));
        }
        let (_, report) = eng.run();
        // All clients work in parallel: wall time ~ one client's time.
        let rate = 20.0 * 2000.0 / report.slowest().as_secs_f64();
        assert!(rate > 19.0 * 11_000.0, "aggregate rate {rate}");
    }

    #[test]
    fn rpc_clients_saturate_the_mds() {
        let mut w = world();
        let dirs = w.setup_private_dirs(10);
        let mut eng = Engine::new(w);
        for c in 0..10 {
            let p = RpcCreateProcess::new(eng.world_mut(), c, dirs[c as usize], 500);
            eng.add_process(Box::new(p));
        }
        let (w, report) = eng.run();
        // Total throughput capped near the journal-on MDS peak (~2470/s).
        let rate = 10.0 * 500.0 / report.slowest().as_secs_f64();
        assert!(rate < 2600.0, "rate {rate}");
        assert!(rate > 2200.0, "rate {rate}");
        assert!(w.mds.wait_fraction() > 0.5, "MDS should be congested");
    }

    #[test]
    fn interferer_triggers_revocations_and_lookups() {
        let mut w = world();
        let dirs = w.setup_private_dirs(2);
        let mut eng = Engine::new(w);
        for c in 0..2 {
            let p = RpcCreateProcess::new(eng.world_mut(), c, dirs[c as usize], 3000);
            eng.add_process(Box::new(p));
        }
        let spec = Interference {
            start: Nanos::from_secs(1),
            files_per_dir: 50,
            seed: 7,
        };
        let intf = InterfererProcess::new(eng.world_mut(), 99, &spec, &dirs);
        eng.add_process_at(Box::new(intf), spec.start);
        let (w, _) = eng.run();
        assert!(w.server.caps().revocations() >= 2);
        assert!(w.server.counters().lookups > 2);
    }

    #[test]
    fn lag_process_stalls_the_queue() {
        let mut w = world();
        let dirs = w.setup_private_dirs(1);
        let mut eng = Engine::new(w);
        let p = RpcCreateProcess::new(eng.world_mut(), 0, dirs[0], 500);
        eng.add_process(Box::new(p));
        let (_, clean) = eng.run();

        let mut w = world();
        let dirs = w.setup_private_dirs(1);
        let mut eng = Engine::new(w);
        let p = RpcCreateProcess::new(eng.world_mut(), 0, dirs[0], 500);
        eng.add_process(Box::new(p));
        let stall = Nanos::from_millis(200);
        let lag = MdsLagProcess::new(vec![(Nanos::from_millis(100), stall)]);
        let start = lag.first_wake().unwrap();
        eng.add_process_at(Box::new(lag), start);
        let (_, lagged) = eng.run();
        let delta = lagged.completions[0] - clean.completions[0];
        assert!(
            (delta.as_secs_f64() - stall.as_secs_f64()).abs() < 0.01,
            "stall should add ~{stall}, added {delta}"
        );
    }

    #[test]
    fn speculative_client_pipelines_at_mds_cadence() {
        // Closed-loop RPC baseline: one client, journal on, ~542/s.
        let mut w = world();
        let dirs = w.setup_private_dirs(1);
        let mut eng = Engine::new(w);
        let p = RpcCreateProcess::new(eng.world_mut(), 0, dirs[0], 1000);
        eng.add_process(Box::new(p));
        let (_, rpc_report) = eng.run();

        // Speculating removes the per-op stall: throughput rises to the
        // MDS service cadence (the pipeline's bottleneck).
        let mut w = world();
        let dirs = w.setup_private_dirs(1);
        let mut eng = Engine::new(w);
        let p = SpeculativeCreateProcess::new(eng.world_mut(), 0, dirs[0], 1000, 16, None);
        eng.add_process(Box::new(p));
        let (w, spec_report) = eng.run();
        assert_eq!(w.server.counters().creates, 1000);
        let rpc_rate = 1000.0 / rpc_report.slowest().as_secs_f64();
        let spec_rate = 1000.0 / spec_report.slowest().as_secs_f64();
        assert!(
            spec_rate > 2.5 * rpc_rate,
            "speculation should pipeline past the stall: rpc {rpc_rate}/s spec {spec_rate}/s"
        );
        assert_eq!(w.obs.counter_value("client.spec.issued"), Some(1000));
        assert_eq!(w.obs.counter_value("client.spec.commits"), Some(1000));
        assert_eq!(w.obs.counter_value("client.spec.rollbacks"), Some(0));
    }

    #[test]
    fn speculative_nacks_roll_back_and_converge() {
        let run = || {
            let mut w = world();
            let dirs = w.setup_private_dirs(1);
            let dir = dirs[0];
            let mut eng = Engine::new(w);
            let plan = Arc::new(cudele_faults::FaultPlan::new(
                cudele_faults::FaultConfig::parse("seed=9,spec_abort_ppm=50000").unwrap(),
            ));
            let p = SpeculativeCreateProcess::new(eng.world_mut(), 0, dir, 500, 16, Some(plan));
            eng.add_process(Box::new(p));
            let (w, report) = eng.run();
            (w, report, dir)
        };
        let (w, report, dir) = run();
        // Every NACK rolled back a suffix and replayed it — the namespace
        // still converges on all 500 files.
        assert_eq!(w.server.store().readdir(dir).unwrap().len(), 500);
        let rollbacks = w.obs.counter_value("client.spec.rollbacks").unwrap();
        assert!(rollbacks > 5, "5% NACKs over 500 ops: {rollbacks}");
        assert_eq!(
            w.obs.counter_value("client.spec.replayed"),
            w.obs.counter_value("client.spec.aborted_ops")
        );
        // Deterministic: the rerun lands on the identical virtual instant.
        let (_, again, _) = run();
        assert_eq!(report.slowest(), again.slowest());
    }

    #[test]
    fn merge_at_lands_journals_on_mds() {
        let mut w = world();
        w.server.setup_dir("/clients/dir0").unwrap();
        w.server.setup_dir("/clients/dir1").unwrap();
        let mut eng = Engine::new(w);
        let mut ps = Vec::new();
        for c in 0..2 {
            ps.push(DecoupledCreateProcess::new(
                eng.world_mut(),
                c,
                &client_dir(c),
                1000,
            ));
        }
        // Run the create phase manually (no engine needed for this check).
        let w = eng.world_mut();
        let t = Nanos::ZERO;
        for p in ps.iter_mut() {
            for i in 0..1000u64 {
                p.client
                    .create(p.client.root, &file_name(p.idx, i))
                    .unwrap();
            }
        }
        let end0 = ps[0].merge_at(w, t, 2);
        let end1 = ps[1].merge_at(w, t, 2);
        // Second journal queued behind the first on the MDS CPU.
        assert!(end1 > end0);
        assert_eq!(w.server.counters().merged_events, 2000);
    }
}
