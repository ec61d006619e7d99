//! The shared discrete-event world for the create-heavy experiments:
//! one metadata server (functional state + a FIFO CPU resource) driven by
//! closed-loop client processes.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use cudele_client::{AckOutcome, DecoupledObs, RpcClient, RpcObs, SpecObs, SpeculativeClient};
use cudele_faults::FaultPlan;
use cudele_journal::{InodeId, InodeRange};
use cudele_mds::{ClientId, MdLogConfig, MdsError, MetadataServer, OpCost};
use cudele_obs::timeline::Series;
use cudele_obs::{ArgKey, FirstUse, Histogram, Layer, Mechanism, Registry, SpanName, TraceCtx};
use cudele_rados::InMemoryStore;
use cudele_sim::{CostModel, Engine, FifoServer, Nanos, Process, RunReport, Step};
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
    /// The buffer create processes format each file name into. It lives
    /// here, not in the process, so an open-loop run's one-create clients
    /// share it too; a step takes it and puts it back.
    name_buf: String,
    /// Creates the MDS refused mid-run (an OSD outage under the journal,
    /// a retry budget spent). A refused create is an outcome, not a
    /// panic: its time is charged like any other op's and it is counted
    /// here.
    pub failed_ops: u64,
    /// The first refusal that ends a client: a decouple, a speculative
    /// mount or a speculative replay the MDS could not complete. That
    /// client stops; the run goes on, and `mdbench` reports this as its
    /// error.
    pub fatal: Option<String>,
}

cudele_obs::handles! {
    /// The harness's per-op and per-arrival telemetry, resolved against the
    /// world's registry so no process step, no process construction and no
    /// merge looks a name up: open-loop runs build one process per arrival,
    /// so the handles live here, once, and every process clones what it needs.
    ///
    /// - **Run-wide** (resolved when the world is built): the mechanisms, span
    ///   names and series. They are lazy in the registry, so an unused one
    ///   leaves no trace in any artifact.
    /// - **First-use** ([`FirstUse`]: resolved the first time a process
    ///   needs it, then cloned): everything that registers a counter or
    ///   histogram, which shows in the metrics snapshot as soon as it is
    ///   resolved — the client layers' handles ([`RpcObs`], [`DecoupledObs`],
    ///   [`SpecObs`]) and `bench.op_latency.ns`, `bench.merge_latency.ns` and
    ///   `bench.sojourn.ns`. A run of one client kind registers only its own.
    pub(crate) struct WorldHandles(reg: &Arc<Registry>) {
        rpcs: Mechanism = reg.mechanism("rpcs"),
        volatile_apply: Mechanism = reg.mechanism("volatile_apply"),
        append_client_journal: Mechanism = reg.mechanism("append_client_journal"),
        speculate: Mechanism = reg.mechanism("speculate"),
        queue_wait: SpanName = reg.span_name("mds.queue_wait", "mds"),
        service: SpanName = reg.span_name("mds.service", "mds"),
        net_rpc: SpanName = reg.span_name("net.rpc", "net"),
        create: SpanName = reg.span_name("create", "client_op"),
        net_transfer: SpanName = reg.span_name("net.transfer", "net"),
        mds_apply: SpanName = reg.span_name("mds.apply", "mds"),
        net_reply: SpanName = reg.span_name("net.reply", "net"),
        merge: SpanName = reg.span_name("merge", "client_op"),
        client_append: SpanName = reg.span_name("client.append", "client"),
        append_batch: SpanName = reg.span_name("append_batch", "client_op"),
        spec_create: SpanName = reg.span_name("spec_create", "client_op"),
        client_rollback: SpanName = reg.span_name("client.rollback", "client"),
        file_arg: ArgKey = reg.arg_key("file"),
        events_arg: ArgKey = reg.arg_key("events"),
        ops_arg: ArgKey = reg.arg_key("ops"),
        seq_arg: ArgKey = reg.arg_key("seq"),
        backlog: Series = reg.timeline().series("mds.rpc.backlog_ns"),
        ops: Series = reg.timeline().series("bench.ops"),
        op_latency: Series = reg.timeline().series("bench.op_latency.ns"),
        merge_latency: Series = reg.timeline().series("bench.merge_latency.ns"),
        timeouts: Series = reg.timeline().series("client.rpc.timeouts"),
        retries: Series = reg.timeline().series("client.rpc.retries"),
        spec_rollbacks: Series = reg.timeline().series("client.spec.rollbacks"),
        spec_replayed: Series = reg.timeline().series("client.spec.replayed"),
        spec_commits: Series = reg.timeline().series("client.spec.commits"),
        spec_depth: Series = reg.timeline().series("client.spec.depth"),
        pub(crate) sojourn: Series = reg.timeline().series("bench.sojourn.ns"),
        rpc: FirstUse<RpcObs> = FirstUse::new(reg, |r| RpcObs::new(r)),
        decoupled: FirstUse<DecoupledObs> = FirstUse::new(reg, DecoupledObs::new),
        spec: FirstUse<SpecObs> = FirstUse::new(reg, |r| SpecObs::new(r)),
        op_latency_hist: FirstUse<Histogram> =
            FirstUse::new(reg, |r| r.histogram("bench.op_latency.ns")),
        merge_latency_hist: FirstUse<Histogram> =
            FirstUse::new(reg, |r| r.histogram("bench.merge_latency.ns")),
        pub(crate) sojourn_hist: FirstUse<Histogram> =
            FirstUse::new(reg, |r| r.histogram("bench.sojourn.ns")),
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
        let h = WorldHandles::new(&obs);
        World {
            server,
            mds: FifoServer::new("mds-cpu"),
            traces: HashMap::new(),
            obs,
            tl,
            h,
            name_buf: String::new(),
            failed_ops: 0,
            fatal: None,
        }
    }

    /// Mounts RPC client `idx` (setup, uncharged), counting its timeouts
    /// and retries on the world's registry.
    fn mount_rpc_client(&mut self, idx: u32) -> RpcClient {
        let (mut client, _) = RpcClient::mount(&mut self.server, ClientId(idx));
        client.set_obs(self.h.rpc.get().clone());
        client
    }

    /// Records a refusal that ends a client, keeping the first.
    fn refuse(&mut self, what: String) {
        self.fatal.get_or_insert(what);
    }

    /// A world on the paper's default object store and the calibrated cost
    /// model; `mdlog: None` turns the MDS journal off.
    pub fn calibrated(mdlog: Option<MdLogConfig>) -> World {
        World::new(MetadataServer::with_config(
            Arc::new(InMemoryStore::paper_default()),
            CostModel::calibrated(),
            mdlog,
        ))
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
    pub fn charge_ctx(&mut self, parent: TraceCtx, t: Nanos, costs: &[OpCost]) -> Nanos {
        self.charge_via(Via::Rpc, parent, t, costs)
    }

    /// [`World::charge_ctx`] with the mechanism `via` names: every cost
    /// queues on the MDS CPU, and one that carries RPCs is drawn by
    /// [`World::serve_layered`].
    fn charge_via(&mut self, via: Via, parent: TraceCtx, mut t: Nanos, costs: &[OpCost]) -> Nanos {
        for c in costs {
            t = if c.rpcs > 0 {
                self.serve_layered(via, parent, t, c)
            } else {
                self.mds.serve(t, c.mds_cpu) + c.client_extra
            };
        }
        t
    }

    /// Serves one request that reaches the MDS at `start` and returns the
    /// instant its reply lands. It is drawn as a `via` mechanism span under
    /// `parent`, broken into `mds.queue_wait` (only when the MDS CPU made
    /// the request wait), the MDS's service span and the reply's network
    /// span — one layered record; an RPC also samples the MDS backlog it
    /// met.
    fn serve_layered(&mut self, via: Via, parent: TraceCtx, start: Nanos, c: &OpCost) -> Nanos {
        let served = self.mds.serve(start, c.mds_cpu);
        let done = served + c.client_extra;
        let h = &self.h;
        let (mech, service, reply) = match via {
            Via::Rpc => (&h.rpcs, h.service, h.net_rpc),
            Via::Speculate => (&h.speculate, h.service, h.net_rpc),
            Via::Merge => (&h.volatile_apply, h.mds_apply, h.net_reply),
        };
        let service_start = served - c.mds_cpu;
        let wait = service_start - start;
        if via != Via::Merge {
            h.backlog.set(start, wait.0 as f64);
        }
        let queue_wait = Layer {
            name: h.queue_wait,
            start,
            dur: wait,
        };
        let service = Layer {
            name: service,
            start: service_start,
            dur: c.mds_cpu,
        };
        let reply = Layer {
            name: reply,
            start: served,
            dur: c.client_extra,
        };
        let layers: &[Layer] = if wait > Nanos::ZERO {
            &[queue_wait, service, reply]
        } else {
            &[service, reply]
        };
        mech.observe_layered(&self.obs, parent, start, done - start, layers);
        done
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

    /// The closed-loop create phase: client `c` creates `files` files in
    /// [`client_dir`]`(c)`, which this sets up (uncharged). One boxed
    /// process per client is registered in client order at t = 0, and each
    /// is `Done` at its last op's completion, so `report.slowest()` is the
    /// end of the phase.
    pub fn run_creates(mut self, clients: u32, files: u64, kind: CreateKind) -> CreatePhase {
        let dirs = self.setup_private_dirs(clients);
        let mut eng = Engine::new(self);
        let mut journals = Vec::new();
        for (c, dir) in (0..clients).zip(dirs) {
            let w = eng.world_mut();
            let p: Box<dyn Process<World>> = match &kind {
                CreateKind::Rpc => Box::new(RpcCreateProcess::new(w, c, dir, files)),
                CreateKind::Speculative { depth, plan } => {
                    match SpeculativeCreateProcess::new(w, c, dir, files, *depth, plan.clone()) {
                        Ok(p) => Box::new(p),
                        Err(e) => {
                            w.refuse(format!("client {c} speculative mount: {e}"));
                            continue;
                        }
                    }
                }
                CreateKind::Decoupled => {
                    let p = DecoupledCreateProcess::new(w, c, &client_dir(c), files);
                    let p = Rc::new(RefCell::new(p));
                    journals.push(Rc::clone(&p));
                    Box::new(p)
                }
            };
            eng.add_process(p);
        }
        let (world, report) = eng.run();
        let journals = journals
            .into_iter()
            .map(|p| {
                Rc::into_inner(p)
                    .expect("the engine drops its processes when it returns")
                    .into_inner()
            })
            .collect();
        CreatePhase {
            world,
            report,
            journals,
        }
    }

    /// Lands every journal on the MDS at `at` (Volatile Apply): "journals
    /// land on the metadata server at the same time", so the concurrency
    /// each merge pays for is the number of journals. Returns the instant
    /// the last merge completes (`at` when there are none). Each client is
    /// dropped as soon as its merge lands.
    pub fn merge_journals(&mut self, journals: Vec<DecoupledCreateProcess>, at: Nanos) -> Nanos {
        let concurrent = journals.len() as u32;
        journals
            .into_iter()
            .fold(at, |end, mut p| end.max(p.merge_at(self, at, concurrent)))
    }
}

/// Which mechanism a request served on the MDS CPU is drawn as (see
/// [`World::serve_layered`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Via {
    /// A synchronous RPC: `rpcs` over `mds.service` and `net.rpc`.
    Rpc,
    /// A speculative create's ack: `speculate` over the same layers.
    Speculate,
    /// A shipped journal: `volatile_apply` over `mds.apply` and `net.reply`.
    Merge,
}

/// The client kind a closed-loop create phase runs (see
/// [`World::run_creates`]).
#[derive(Debug, Clone)]
pub enum CreateKind {
    /// [`RpcCreateProcess`]: one synchronous create RPC at a time.
    Rpc,
    /// [`SpeculativeCreateProcess`]: up to `depth` creates ahead of the
    /// last ack; `plan` draws the NACKs (`None` never NACKs).
    Speculative {
        depth: usize,
        plan: Option<Arc<FaultPlan>>,
    },
    /// [`DecoupledCreateProcess`]: appends to the client's own journal.
    Decoupled,
}

/// What [`World::run_creates`] hands back.
pub struct CreatePhase {
    pub world: World,
    /// One completion instant per client, in client order.
    pub report: RunReport,
    /// [`CreateKind::Decoupled`] only: the finished clients in client
    /// order, each still holding the journal it appended, for
    /// [`World::merge_journals`]. Empty for the other kinds.
    pub journals: Vec<DecoupledCreateProcess>,
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
}

impl RpcCreateProcess {
    /// Builds the process and opens the session (setup, uncharged).
    pub fn new(world: &mut World, idx: u32, dir: InodeId, total: u64) -> RpcCreateProcess {
        RpcCreateProcess {
            client: world.mount_rpc_client(idx),
            idx,
            dir,
            total,
            done: 0,
            op_lat: world.h.op_latency_hist.get().clone(),
            timeouts_seen: 0,
            retries_seen: 0,
            record_trace: false,
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
        if out.result.is_err() {
            world.failed_ops += 1;
        }
        let t = world.charge_ctx(root, now, &out.costs);
        world
            .obs
            .end_named_with(root, world.h.create, now, t - now, world.h.file_arg, &name);
        world.name_buf = name;
        self.op_lat.record((t - now).0);
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
        // The final create's time still elapses: the wake-up after it
        // finds nothing left and completes.
        Step::ResumeAt(t)
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
    /// allocated inodes for the whole run. A decouple the MDS refuses is
    /// recorded in [`World::fatal`] and leaves a client with no inodes and
    /// nothing to append.
    pub fn new(world: &mut World, idx: u32, dir_path: &str, total: u64) -> DecoupledCreateProcess {
        world.server.open_session(ClientId(idx));
        let (dc, _) = cudele_client::DecoupledClient::decouple(
            &mut world.server,
            ClientId(idx),
            dir_path,
            total,
        );
        let append = world.server.cost_model().client_append;
        let (mut client, total) = match dc {
            Ok(client) => (client, total),
            Err(e) => {
                world.refuse(format!("client {idx} decouple: {e}"));
                let none = InodeRange::new(InodeId::ROOT, 0);
                let client =
                    cudele_client::DecoupledClient::new(ClientId(idx), InodeId::ROOT, none);
                (client, 0)
            }
        };
        client.set_obs(world.h.decoupled.get().clone());
        DecoupledCreateProcess {
            client,
            idx,
            total,
            done: 0,
            append,
            op_lat: world.h.op_latency_hist.get().clone(),
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
        // The journal ships over the network, then the apply runs (and may
        // queue) on the MDS CPU — all under one client-op root.
        world
            .obs
            .child_named(root, world.h.net_transfer, t, transfer);
        let apply = OpCost {
            mds_cpu: cost.mds_cpu.scale(factor),
            ..cost
        };
        let done = world.serve_layered(Via::Merge, root, t + transfer, &apply);
        world
            .obs
            .end_named_with(root, world.h.merge, t, done - t, world.h.events_arg, events);
        world.h.merge_latency_hist.get().record((done - t).0);
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
        self.op_lat.record_n(self.append.0, batch);
        // One windowed sample per batch: every append in it has the same
        // latency, so the batch collapses to a count plus one exemplar.
        world.h.ops.add(t, batch);
        world.h.op_latency.sample(t, self.append.0, 0);
        // One parented tree per batch: the whole window is client-local
        // append CPU, so the mechanism span and its client child coincide.
        let root = world.obs.trace_root(self.idx);
        let append = Layer {
            name: world.h.client_append,
            start: now,
            dur: t - now,
        };
        world
            .h
            .append_client_journal
            .observe_layered(&world.obs, root, now, t - now, &[append]);
        world.obs.end_named_with(
            root,
            world.h.append_batch,
            now,
            t - now,
            world.h.ops_arg,
            batch,
        );
        // The final batch's time still elapses: the wake-up after it finds
        // nothing left and completes.
        Step::ResumeAt(t)
    }

    fn name(&self) -> String {
        format!("decoupled-client{}", self.idx)
    }
}

/// The engine's handle on a decoupled client in [`World::run_creates`]:
/// the driver keeps the other handle, and takes the client back — journal
/// and all — once the engine has dropped its own.
impl Process<World> for Rc<RefCell<DecoupledCreateProcess>> {
    fn step(&mut self, now: Nanos, world: &mut World) -> Step {
        self.borrow_mut().step(now, world)
    }

    fn name(&self) -> String {
        self.borrow().name()
    }
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
            Err(_) => world.failed_ops += 1,
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
    /// Where the client's own CPU has got to: its issue cadence and the
    /// end of any replay it ran.
    clock: Nanos,
}

impl SpeculativeCreateProcess {
    /// Builds the process: opens the session and preallocates the
    /// speculation range (setup, uncharged). `plan` supplies the
    /// `spec_abort_ppm` NACK draws; `None` never NACKs. Fails when the MDS
    /// refuses the mount.
    pub fn new(
        world: &mut World,
        idx: u32,
        dir: InodeId,
        total: u64,
        depth: usize,
        plan: Option<Arc<FaultPlan>>,
    ) -> Result<SpeculativeCreateProcess, MdsError> {
        let (client, _) = SpeculativeClient::mount(&mut world.server, ClientId(idx));
        let mut client = client?;
        client.set_obs(world.h.spec.get().clone());
        let append = world.server.cost_model().client_append;
        Ok(SpeculativeCreateProcess {
            client,
            idx,
            dir,
            total,
            issued: 0,
            depth: depth.max(1),
            append,
            pending: VecDeque::new(),
            plan,
            op_lat: world.h.op_latency_hist.get().clone(),
            clock: Nanos::ZERO,
        })
    }

    /// Records one client-visible completion: the op's latency runs from
    /// its speculative issue to the ack (or replay) that committed it.
    fn complete(&mut self, world: &mut World, p: &PendingAck, at: Nanos) {
        let lat = at - p.issued_at;
        self.op_lat.record(lat.0);
        world.h.ops.add(at, 1);
        world.h.op_latency.sample(at, lat.0, p.root.trace_id);
        world.obs.end_named_with(
            p.root,
            world.h.spec_create,
            p.issued_at,
            lat,
            world.h.seq_arg,
            p.seq,
        );
    }

    /// Handles an invalidated ack: replays the doomed closure synchronously
    /// against the primary (the rollback span parents under the aborted
    /// op's root), then completes every doomed op — including later ones
    /// whose acks were still pending — at the replay's end. A replay the
    /// MDS refuses ends the client.
    fn rollback_and_replay(
        &mut self,
        world: &mut World,
        p: &PendingAck,
        doomed: &[u64],
    ) -> Result<Nanos, MdsError> {
        world.h.spec_rollbacks.add(p.at, 1);
        world.server.set_now(p.at);
        world.server.set_trace_ctx(Some(p.root));
        self.client.set_now(p.at);
        let (r, costs) = self.client.replay(&mut world.server, doomed);
        world.server.set_trace_ctx(None);
        r?;
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
        Ok(t)
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
                    match self.rollback_and_replay(world, &p, &doomed) {
                        Ok(t) => self.clock = self.clock.max(t),
                        Err(e) => {
                            world.refuse(format!("client {} speculative replay: {e}", self.idx));
                            return Step::Done;
                        }
                    }
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
            let ack_at = world.charge_via(Via::Speculate, root, t, &costs);
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
        } else if self.issued < self.total || self.clock > now {
            // Issue on, or wait out a replay whose ops commit after `now`.
            Step::ResumeAt(self.clock)
        } else {
            Step::Done
        }
    }

    fn name(&self) -> String {
        format!("spec-client{}", self.idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::calibrated(Some(MdLogConfig::default()))
    }

    /// `clients` x `files` creates of `kind`: the world and the aggregate
    /// rate over the slowest client.
    fn rate(clients: u32, files: u64, kind: CreateKind) -> (World, f64) {
        let phase = world().run_creates(clients, files, kind);
        let ops = f64::from(clients) * files as f64;
        (phase.world, ops / phase.report.slowest().as_secs_f64())
    }

    #[test]
    fn single_rpc_client_rate_matches_calibration() {
        let (w, rate) = rate(1, 1000, CreateKind::Rpc);
        // ~542 creates/sec with journal on (the calibrated 1-client rate;
        // the paper's separate runs measured 513-549).
        assert!((rate - 542.0).abs() < 15.0, "rate {rate}");
        assert_eq!(w.server.counters().creates, 1000);
    }

    #[test]
    fn decoupled_client_rate_matches_append() {
        let (_, rate) = rate(1, 5000, CreateKind::Decoupled);
        assert!((rate - 11_000.0).abs() < 150.0, "rate {rate}");
    }

    #[test]
    fn twenty_decoupled_clients_scale_linearly() {
        // All clients work in parallel: wall time ~ one client's time.
        let (_, rate) = rate(20, 2000, CreateKind::Decoupled);
        assert!(rate > 19.0 * 11_000.0, "aggregate rate {rate}");
    }

    #[test]
    fn rpc_clients_saturate_the_mds() {
        // Total throughput capped near the journal-on MDS peak (~2470/s).
        let (w, rate) = rate(10, 500, CreateKind::Rpc);
        assert!(rate < 2600.0, "rate {rate}");
        assert!(rate > 2200.0, "rate {rate}");
        assert!(w.mds.wait_fraction() > 0.5, "MDS should be congested");
    }

    #[test]
    fn every_kind_is_done_when_its_last_op_completes() {
        // With one client and a window of one, every kind runs its ops
        // back to back, so the last completion is the sum of the latencies.
        let speculative = CreateKind::Speculative {
            depth: 1,
            plan: None,
        };
        for kind in [CreateKind::Rpc, speculative, CreateKind::Decoupled] {
            for files in [1, 3] {
                let phase = world().run_creates(1, files, kind.clone());
                let lat = phase.world.obs.histogram("bench.op_latency.ns");
                let end = phase.report.slowest();
                assert_eq!(lat.count(), files, "{kind:?} x {files}");
                assert!(end > Nanos::ZERO, "{kind:?} x {files}");
                assert_eq!(end.0, lat.sum(), "{kind:?} x {files}");
            }
        }
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
        let (_, rpc_rate) = rate(1, 1000, CreateKind::Rpc);
        // Speculating removes the per-op stall: throughput rises to the
        // MDS service cadence (the pipeline's bottleneck).
        let speculative = CreateKind::Speculative {
            depth: 16,
            plan: None,
        };
        let (w, spec_rate) = rate(1, 1000, speculative);
        assert_eq!(w.server.counters().creates, 1000);
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
            let plan = Arc::new(cudele_faults::FaultPlan::new(
                cudele_faults::FaultConfig::parse("seed=9,spec_abort_ppm=50000").unwrap(),
            ));
            let kind = CreateKind::Speculative {
                depth: 16,
                plan: Some(plan),
            };
            world().run_creates(1, 500, kind)
        };
        let CreatePhase {
            world: w, report, ..
        } = run();
        // Every NACK rolled back a suffix and replayed it — the namespace
        // still converges on all 500 files.
        let dir = w.server.store().resolve(&client_dir(0)).unwrap();
        assert_eq!(w.server.store().readdir(dir).unwrap().len(), 500);
        let rollbacks = w.obs.counter_value("client.spec.rollbacks").unwrap();
        assert!(rollbacks > 5, "5% NACKs over 500 ops: {rollbacks}");
        assert_eq!(
            w.obs.counter_value("client.spec.replayed"),
            w.obs.counter_value("client.spec.aborted_ops")
        );
        // Deterministic: the rerun lands on the identical virtual instant.
        assert_eq!(report.slowest(), run().report.slowest());
    }

    #[test]
    fn merge_at_lands_journals_on_mds() {
        let CreatePhase {
            world: mut w,
            journals,
            ..
        } = world().run_creates(2, 1000, CreateKind::Decoupled);
        let mut ends = journals
            .into_iter()
            .map(|mut p| p.merge_at(&mut w, Nanos::ZERO, 2));
        let (end0, end1) = (ends.next().unwrap(), ends.next().unwrap());
        // Second journal queued behind the first on the MDS CPU.
        assert!(end1 > end0);
        assert_eq!(w.server.counters().merged_events, 2000);
    }
}
