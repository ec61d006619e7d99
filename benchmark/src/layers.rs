//! Replay estimates: what one layer costs when the run's own sequence of
//! operations is re-issued against that layer's public functions alone.
//!
//! In-situ spans ([`crate::trace`]) can only see the boundaries the
//! benchmark can wrap from outside — the engine, each process step, each
//! object-store call. Everything between (client library, MDS handler,
//! namespace store, mdlog, journal codec, obs recording) is one opaque
//! stretch of step self-time. A replay splits that stretch: it feeds a
//! fresh instance of one layer the same inputs in the same order and
//! times it with nothing else running. The estimates are taken with warm
//! caches and no interleaving, so they are a lower bound on what the
//! layer cost in place; they do not sum exactly to the step self-time,
//! and `e2e.attributed_share` says how much they leave unexplained.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::BytesMut;
use cudele::{execute_merge, Composition, ExecEnv, Mechanism};
use cudele_bench::World;
use cudele_client::{DecoupledClient, LocalDisk, RpcClient};
use cudele_journal::{
    decode_frames, encode_event, read_journal, InodeId, JournalEvent, JournalId, JournalWriter,
};
use cudele_mds::{ClientId, MdLogConfig, MetadataServer, MetadataStore, OpCost};
use cudele_obs::history::{HistoryEvent, HistoryOp, HistoryResult, HistoryScope};
use cudele_obs::Registry;
use cudele_rados::{InMemoryStore, ObjectStore};
use cudele_sim::{CostModel, Nanos};

use crate::alloc;
use crate::stats::median;
use crate::trace::{self, TimedStore};

/// One request to a `MetadataServer` op method.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `create(client, dir, name)`.
    Create {
        client: u32,
        dir: InodeId,
        name: String,
    },
    /// `mkdir(client, dir, name)`.
    Mkdir {
        client: u32,
        dir: InodeId,
        name: String,
    },
    /// `lookup(client, dir, name)`; `present` is what the reference model
    /// says the answer is.
    Lookup {
        client: u32,
        dir: InodeId,
        name: String,
        present: bool,
    },
    /// `stat(client, ino)`.
    Stat { client: u32, ino: InodeId },
    /// `unlink(client, dir, name)`.
    Unlink {
        client: u32,
        dir: InodeId,
        name: String,
    },
    /// `rename(client, src_dir, src_name, dst_dir, dst_name)`.
    Rename {
        client: u32,
        src_dir: InodeId,
        src_name: String,
        dst_dir: InodeId,
        dst_name: String,
    },
    /// `readdir(client, dir)`.
    Readdir { client: u32, dir: InodeId },
}

/// What issuing an [`Op`] returned.
#[derive(Debug, Clone, Copy)]
pub struct Issued {
    /// Whether the server answered as the reference model predicts.
    pub ok: bool,
    /// The virtual-time cost to charge.
    pub cost: OpCost,
    /// The inode a create or mkdir assigned.
    pub ino: Option<InodeId>,
}

impl Op {
    /// Whether the op changes the namespace (and so is journaled).
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            Op::Create { .. } | Op::Mkdir { .. } | Op::Unlink { .. } | Op::Rename { .. }
        )
    }

    /// Span/label name.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Create { .. } => "create",
            Op::Mkdir { .. } => "mkdir",
            Op::Lookup { .. } => "lookup",
            Op::Stat { .. } => "stat",
            Op::Unlink { .. } => "unlink",
            Op::Rename { .. } => "rename",
            Op::Readdir { .. } => "readdir",
        }
    }

    /// Sends the op to `server`.
    pub fn issue(&self, server: &mut MetadataServer) -> Issued {
        match self {
            Op::Create { client, dir, name } => {
                let r = server.create(ClientId(*client), *dir, name);
                Issued {
                    ok: r.result.is_ok(),
                    cost: r.cost,
                    ino: r.result.ok().map(|c| c.ino),
                }
            }
            Op::Mkdir { client, dir, name } => {
                let r = server.mkdir(ClientId(*client), *dir, name);
                Issued {
                    ok: r.result.is_ok(),
                    cost: r.cost,
                    ino: r.result.ok().map(|c| c.ino),
                }
            }
            Op::Lookup {
                client,
                dir,
                name,
                present,
            } => {
                let r = server.lookup(ClientId(*client), *dir, name);
                Issued {
                    ok: matches!(&r.result, Ok(d) if d.is_some() == *present),
                    cost: r.cost,
                    ino: None,
                }
            }
            Op::Stat { client, ino } => {
                let r = server.stat(ClientId(*client), *ino);
                Issued {
                    ok: r.result.is_ok(),
                    cost: r.cost,
                    ino: None,
                }
            }
            Op::Unlink { client, dir, name } => {
                let r = server.unlink(ClientId(*client), *dir, name);
                Issued {
                    ok: r.result.is_ok(),
                    cost: r.cost,
                    ino: None,
                }
            }
            Op::Rename {
                client,
                src_dir,
                src_name,
                dst_dir,
                dst_name,
            } => {
                let r = server.rename(ClientId(*client), *src_dir, src_name, *dst_dir, dst_name);
                Issued {
                    ok: r.result.is_ok(),
                    cost: r.cost,
                    ino: None,
                }
            }
            Op::Readdir { client, dir } => {
                let r = server.readdir(ClientId(*client), *dir);
                Issued {
                    ok: r.result.is_ok(),
                    cost: r.cost,
                    ino: None,
                }
            }
        }
    }
}

/// Names one decoupled client appended to its journal.
#[derive(Debug, Clone, PartialEq)]
pub struct DecoupledAppends {
    /// The client.
    pub client: u32,
    /// The subtree it decoupled.
    pub dir: String,
    /// The creates it appended, in order.
    pub names: Vec<String>,
}

/// What a run sent down the stack, in order: the input to every replay.
#[derive(Debug, Clone, Default)]
pub struct Script {
    /// Directories made with `setup_dir` before anything else.
    pub setup_dirs: Vec<String>,
    /// Sessions opened before the first op.
    pub sessions: Vec<u32>,
    /// The run's mdlog configuration (`None` = journal off).
    pub mdlog: Option<MdLogConfig>,
    /// Requests to the server's op methods; `ops[..timed_from]` populated
    /// the namespace during set-up.
    pub ops: Vec<Op>,
    /// First op of the timed region.
    pub timed_from: usize,
    /// Whether creates reached the server through `RpcClient`.
    pub via_rpc_client: bool,
    /// Namespace events the run journaled, merged or recovered.
    pub events: Vec<JournalEvent>,
    /// Creates appended client-side by decoupled clients.
    pub decoupled: Vec<DecoupledAppends>,
    /// Virtual instant the run ended at.
    pub virtual_end_ns: u64,
}

impl Script {
    /// Rebuilds the server-level request sequence of a create-only RPC
    /// run from the events it journaled: range grants say which client
    /// owns each inode, and a client's first create in a directory is
    /// preceded by the existence lookup `RpcClient` sends while it does
    /// not hold the directory's cap.
    pub fn from_create_journal(
        setup_dirs: Vec<String>,
        sessions: Vec<u32>,
        mdlog: Option<MdLogConfig>,
        events: Vec<JournalEvent>,
    ) -> Script {
        let mut ranges: Vec<(u64, u64, u32)> = Vec::new();
        let mut touched: HashSet<(u32, InodeId)> = HashSet::new();
        let mut ops = Vec::with_capacity(events.len());
        for e in &events {
            match e {
                JournalEvent::AllocRange { client, start, len } => {
                    ranges.push((start.0, start.0 + len, *client));
                }
                JournalEvent::Create {
                    parent, name, ino, ..
                } => {
                    let client = ranges
                        .iter()
                        .rev()
                        .find(|(lo, hi, _)| (*lo..*hi).contains(&ino.0))
                        .map_or(0, |r| r.2);
                    if touched.insert((client, *parent)) {
                        ops.push(Op::Lookup {
                            client,
                            dir: *parent,
                            name: name.clone(),
                            present: false,
                        });
                    }
                    ops.push(Op::Create {
                        client,
                        dir: *parent,
                        name: name.clone(),
                    });
                }
                _ => {}
            }
        }
        Script {
            setup_dirs,
            sessions,
            mdlog,
            ops,
            timed_from: 0,
            via_rpc_client: true,
            events,
            decoupled: Vec::new(),
            virtual_end_ns: 0,
        }
    }

    fn timed_ops(&self) -> &[Op] {
        &self.ops[self.timed_from..]
    }

    fn updates(&self) -> impl Iterator<Item = &JournalEvent> {
        self.events.iter().filter(|e| e.is_update())
    }
}

/// Repeats of each replay; the median is reported.
const REPLAY_REPEATS: usize = 3;

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..REPLAY_REPEATS).map(|_| f()).collect();
    median(&v)
}

fn per(ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A fresh server prepared like the run's: same directories, same
/// sessions, optionally the same mdlog and an attached registry.
fn fresh_server(
    s: &Script,
    os: Arc<dyn ObjectStore>,
    mdlog: bool,
    reg: Option<&Arc<Registry>>,
) -> MetadataServer {
    let mut server = MetadataServer::with_config(
        os,
        CostModel::calibrated(),
        if mdlog { s.mdlog } else { None },
    );
    if let Some(reg) = reg {
        server.attach_obs(reg);
    }
    for d in &s.setup_dirs {
        server.setup_dir(d).expect("replay set-up directory");
    }
    for c in &s.sessions {
        server.open_session(ClientId(*c));
    }
    server
}

/// One pass of the script's ops through a fresh server.
#[derive(Debug, Clone, Copy, Default)]
struct ServerPass {
    mutate_ns: u64,
    mutations: u64,
    read_ns: u64,
    reads: u64,
    allocs: u64,
    errors: u64,
    store_ns: u64,
}

fn server_pass(s: &Script, mdlog: bool, attached: bool) -> ServerPass {
    let reg = attached.then(|| Arc::new(Registry::new()));
    // With the mdlog on, the store is wrapped so the object-store time the
    // journal flush spends (counted in situ as `rados.store.busy_ns`) can
    // be taken back out of the mdlog estimate.
    trace::enable();
    let os: Arc<dyn ObjectStore> = Arc::new(TimedStore(InMemoryStore::paper_default()));
    let mut server = fresh_server(s, os, mdlog, reg.as_ref());
    for op in &s.ops[..s.timed_from] {
        op.issue(&mut server);
    }
    let _ = trace::finish();
    trace::enable();
    let mut p = ServerPass::default();
    // The virtual clock advances as it did in the run, so windowed
    // telemetry on an attached registry fills the way the run's did.
    let tick = Nanos(s.virtual_end_ns / s.timed_ops().len().max(1) as u64);
    let mut now = Nanos::ZERO;
    for op in s.timed_ops() {
        server.set_now(now);
        now += tick;
        let a0 = alloc::counts();
        let t = Instant::now();
        let r = op.issue(&mut server);
        let ns = elapsed_ns(t);
        p.allocs += alloc::delta(a0, alloc::counts()).0;
        if op.is_mutation() {
            p.mutate_ns += ns;
            p.mutations += 1;
        } else {
            p.read_ns += ns;
            p.reads += 1;
        }
        p.errors += u64::from(!r.ok);
    }
    p.store_ns = trace::finish().durations(trace::STORE).iter().sum();
    p
}

/// Replays every layer estimate for `s` and returns them by metric name,
/// together with the counts they are multiplied by in the attribution.
pub fn replay(s: &Script) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    server_layers(s, &mut m);
    store_layers(s, &mut m);
    journal_layers(s, &mut m);
    session_layer(s, &mut m);
    client_rpc_layer(s, &mut m);
    decoupled_layers(s, &mut m);
    obs_layers(s, &mut m);
    harness_layer(s, &mut m);
    m
}

/// Host time the replay estimates account for in one run of `s`: each
/// per-unit estimate times how often the run did that unit. The terms are
/// disjoint by construction (the server estimate excludes the mdlog, the
/// mdlog estimate excludes object-store time, the client estimate
/// excludes the server, the harness estimate excludes the client call),
/// so they may be added to the in-situ self times.
///
/// `decoded`/`applied` are the
/// journal events a recovery decoded and blind-applied (0 elsewhere).
pub fn replayed_ns(s: &Script, m: &BTreeMap<&'static str, f64>, decoded: u64, applied: u64) -> f64 {
    let ops = s.timed_ops();
    let mutations = ops.iter().filter(|o| o.is_mutation()).count() as f64;
    let reads = ops.len() as f64 - mutations;
    let creates = ops
        .iter()
        .filter(|o| matches!(o, Op::Create { .. }))
        .count() as f64;
    let mut ns = mutations * (m["mds.server.create_ns_per_op"] + m["mds.mdlog.ns_per_event"])
        + reads * m["mds.server.read_ns_per_op"]
        + ops.len() as f64 * m["obs.registry.attach_tax_ns_per_op"]
        + creates * m["client.rpc.self_ns_per_op"];
    // One harness round per client-visible op: a create with its lookup
    // is one, and an open-loop client's closing step is none.
    let client_ops = if s.via_rpc_client {
        creates
    } else {
        ops.len() as f64
    };
    ns += client_ops * m["bench.world.charge_ns_per_op"];
    // mdbench's batchfs route appends every create twice: once in the
    // engine phase (those journals are dropped) and once in the merge
    // phase (those are merged).
    let merged: usize = s.decoupled.iter().map(|d| d.names.len()).sum();
    ns += 2.0 * merged as f64 * m["client.decoupled.append_ns_per_op"]
        + merged as f64 * m["mds.server.volatile_apply_ns_per_event"];
    ns += decoded as f64 * m["journal.codec.decode_ns_per_event"]
        + applied as f64 * m["mds.store.apply_blind_ns_per_event"];
    ns
}

fn server_layers(s: &Script, m: &mut BTreeMap<&'static str, f64>) {
    let n_mut = s.timed_ops().iter().filter(|o| o.is_mutation()).count() as u64;
    let n_read = s.timed_ops().len() as u64 - n_mut;
    if s.timed_ops().is_empty() {
        for k in [
            "mds.server.create_ns_per_op",
            "mds.server.read_ns_per_op",
            "mds.server.allocs_per_op",
            "mds.mdlog.ns_per_event",
            "obs.registry.attach_tax_ns_per_op",
        ] {
            m.insert(k, 0.0);
        }
        return;
    }
    let bare: Vec<ServerPass> = (0..REPLAY_REPEATS)
        .map(|_| server_pass(s, false, false))
        .collect();
    let med = |f: &dyn Fn(&ServerPass) -> u64, v: &[ServerPass]| {
        median(&v.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
    };
    let bare_mut = med(&|p| p.mutate_ns, &bare);
    let bare_read = med(&|p| p.read_ns, &bare);
    m.insert(
        "mds.server.create_ns_per_op",
        bare_mut / n_mut.max(1) as f64,
    );
    m.insert(
        "mds.server.read_ns_per_op",
        bare_read / n_read.max(1) as f64,
    );
    m.insert(
        "mds.server.allocs_per_op",
        bare[0].allocs as f64 / s.timed_ops().len() as f64,
    );
    // mdlog on - off, with the object-store time of the flushes removed.
    let logged: Vec<ServerPass> = (0..REPLAY_REPEATS)
        .map(|_| server_pass(s, true, false))
        .collect();
    let logged_mut = med(&|p| p.mutate_ns.saturating_sub(p.store_ns), &logged);
    let mdlog_ns = if s.mdlog.is_some() {
        ((logged_mut - bare_mut) / n_mut.max(1) as f64).max(0.0)
    } else {
        0.0
    };
    m.insert("mds.mdlog.ns_per_event", mdlog_ns);
    // obs attached - detached, over every op.
    let attached: Vec<ServerPass> = (0..REPLAY_REPEATS)
        .map(|_| server_pass(s, false, true))
        .collect();
    let att_total = med(&|p| p.mutate_ns + p.read_ns, &attached);
    m.insert(
        "obs.registry.attach_tax_ns_per_op",
        ((att_total - bare_mut - bare_read) / s.timed_ops().len() as f64).max(0.0),
    );
}

/// The namespace as it stood before the script's first event: set-up
/// directories only (with the inode numbers the run gave them).
fn base_store(s: &Script) -> MetadataStore {
    let dirs_only = Script {
        setup_dirs: s.setup_dirs.clone(),
        ..Script::default()
    };
    fresh_server(
        &dirs_only,
        Arc::new(InMemoryStore::paper_default()),
        false,
        None,
    )
    .store()
    .clone()
}

fn store_layers(s: &Script, m: &mut BTreeMap<&'static str, f64>) {
    let updates: Vec<&JournalEvent> = s.updates().collect();
    if updates.is_empty() {
        for k in [
            "mds.store.mutate_ns_per_op",
            "mds.store.lookup_ns_per_op",
            "mds.store.apply_blind_ns_per_event",
            "mds.store.snapshot_ns_per_entry",
            "mds.store.allocs_per_op",
        ] {
            m.insert(k, 0.0);
        }
        return;
    }
    let base = base_store(s);
    let n = updates.len() as u64;
    let mut allocs = 0;
    let mut last = base.clone();
    let mutate = median_of(|| {
        let mut store = base.clone();
        let a0 = alloc::counts();
        let t = Instant::now();
        for e in &updates {
            // Errors are possible only for events the checked path rejects
            // but replay tolerates (none in these workloads); the attempt
            // is what is timed.
            let _ = match e {
                JournalEvent::Create {
                    parent,
                    name,
                    ino,
                    attrs,
                } => store.create(*parent, name, *ino, *attrs),
                JournalEvent::Mkdir {
                    parent,
                    name,
                    ino,
                    attrs,
                } => store.mkdir(*parent, name, *ino, *attrs),
                JournalEvent::Unlink { parent, name } => store.unlink(*parent, name),
                JournalEvent::Rename {
                    src_parent,
                    src_name,
                    dst_parent,
                    dst_name,
                } => store.rename(*src_parent, src_name, *dst_parent, dst_name),
                _ => Ok(()),
            };
        }
        let ns = elapsed_ns(t);
        allocs = alloc::delta(a0, alloc::counts()).0;
        last = store;
        per(ns, n)
    });
    m.insert("mds.store.mutate_ns_per_op", mutate);
    m.insert("mds.store.allocs_per_op", per(allocs, n));
    let lookup = median_of(|| {
        let t = Instant::now();
        for e in &updates {
            if let JournalEvent::Create { parent, name, .. } = e {
                let _ = black_box(last.lookup(*parent, name));
            }
        }
        let creates = updates
            .iter()
            .filter(|e| matches!(e, JournalEvent::Create { .. }))
            .count();
        per(elapsed_ns(t), creates as u64)
    });
    m.insert("mds.store.lookup_ns_per_op", lookup);
    let blind = median_of(|| {
        let mut store = base.clone();
        let t = Instant::now();
        for e in &updates {
            store.apply_blind(e);
        }
        per(elapsed_ns(t), n)
    });
    m.insert("mds.store.apply_blind_ns_per_event", blind);
    let snap = median_of(|| {
        let t = Instant::now();
        let snap = black_box(last.snapshot());
        per(elapsed_ns(t), snap.len() as u64)
    });
    m.insert("mds.store.snapshot_ns_per_entry", snap);
}

fn journal_layers(s: &Script, m: &mut BTreeMap<&'static str, f64>) {
    let n = s.events.len() as u64;
    if n == 0 {
        for k in [
            "journal.codec.encode_ns_per_event",
            "journal.codec.decode_ns_per_event",
            "journal.codec.bytes_per_event",
            "journal.io.append_ns_per_event",
            "journal.io.read_ns_per_event",
        ] {
            m.insert(k, 0.0);
        }
        return;
    }
    let mut frames = BytesMut::new();
    let encode = median_of(|| {
        let mut buf = BytesMut::new();
        let t = Instant::now();
        for e in &s.events {
            encode_event(&mut buf, e);
        }
        let ns = elapsed_ns(t);
        frames = buf;
        per(ns, n)
    });
    m.insert("journal.codec.encode_ns_per_event", encode);
    m.insert("journal.codec.bytes_per_event", per(frames.len() as u64, n));
    let decode = median_of(|| {
        let t = Instant::now();
        let decoded = decode_frames(&frames).expect("frames just encoded decode");
        let ns = elapsed_ns(t);
        black_box(decoded);
        per(ns, n)
    });
    m.insert("journal.codec.decode_ns_per_event", decode);
    // Append in mdlog-sized segments, then read the whole journal back.
    let mut store = InMemoryStore::paper_default();
    let append = median_of(|| {
        let os = InMemoryStore::paper_default();
        let t = Instant::now();
        {
            let mut w = JournalWriter::open(&os, JournalId::MDLOG).expect("open journal");
            for seg in s.events.chunks(1024) {
                w.append(seg).expect("append to an in-memory store");
            }
        }
        let ns = elapsed_ns(t);
        store = os;
        per(ns, n)
    });
    m.insert("journal.io.append_ns_per_event", append);
    let read = median_of(|| {
        let t = Instant::now();
        let events = read_journal(&store, JournalId::MDLOG).expect("journal reads back");
        let ns = elapsed_ns(t);
        black_box(events);
        per(ns, n)
    });
    m.insert("journal.io.read_ns_per_event", read);
}

fn session_layer(s: &Script, m: &mut BTreeMap<&'static str, f64>) {
    if s.sessions.is_empty() {
        m.insert("mds.session.open_close_ns", 0.0);
        return;
    }
    let v = median_of(|| {
        let mut server = MetadataServer::with_config(
            Arc::new(InMemoryStore::paper_default()),
            CostModel::calibrated(),
            None,
        );
        let t = Instant::now();
        for c in &s.sessions {
            server.open_session(ClientId(*c));
        }
        for c in &s.sessions {
            server.close_session(ClientId(*c));
        }
        per(elapsed_ns(t), s.sessions.len() as u64)
    });
    m.insert("mds.session.open_close_ns", v);
}

fn client_rpc_layer(s: &Script, m: &mut BTreeMap<&'static str, f64>) {
    let creates: Vec<(u32, InodeId, &str)> = s
        .timed_ops()
        .iter()
        .filter_map(|o| match o {
            Op::Create { client, dir, name } => Some((*client, *dir, name.as_str())),
            _ => None,
        })
        .collect();
    if !s.via_rpc_client || creates.is_empty() {
        m.insert("client.rpc.self_ns_per_op", 0.0);
        return;
    }
    let lookups = s
        .timed_ops()
        .iter()
        .filter(|o| matches!(o, Op::Lookup { .. }))
        .count() as f64;
    let bare = Script {
        setup_dirs: s.setup_dirs.clone(),
        ..Script::default()
    };
    let through_client = median_of(|| {
        let mut server = fresh_server(&bare, Arc::new(InMemoryStore::paper_default()), false, None);
        let mut clients: BTreeMap<u32, RpcClient> = BTreeMap::new();
        for c in &s.sessions {
            clients.insert(*c, RpcClient::mount(&mut server, ClientId(*c)).0);
        }
        let t = Instant::now();
        for (c, dir, name) in &creates {
            let client = clients.get_mut(c).expect("session mounted");
            black_box(client.create(&mut server, *dir, name));
        }
        per(elapsed_ns(t), creates.len() as u64)
    });
    let direct = m["mds.server.create_ns_per_op"]
        + m["mds.server.read_ns_per_op"] * lookups / creates.len() as f64;
    m.insert(
        "client.rpc.self_ns_per_op",
        (through_client - direct).max(0.0),
    );
}

fn decoupled_layers(s: &Script, m: &mut BTreeMap<&'static str, f64>) {
    let total: u64 = s.decoupled.iter().map(|d| d.names.len() as u64).sum();
    if total == 0 {
        for k in [
            "client.decoupled.append_ns_per_op",
            "client.decoupled.allocs_per_op",
            "core.executor.merge_ns_per_event",
            "mds.server.volatile_apply_ns_per_event",
        ] {
            m.insert(k, 0.0);
        }
        return;
    }
    let prepared = |reg: &Arc<Registry>| {
        let mut server = fresh_server(s, Arc::new(InMemoryStore::paper_default()), true, Some(reg));
        let clients: Vec<DecoupledClient> = s
            .decoupled
            .iter()
            .map(|d| {
                server.open_session(ClientId(d.client));
                let (c, _) = DecoupledClient::decouple(
                    &mut server,
                    ClientId(d.client),
                    &d.dir,
                    d.names.len() as u64,
                );
                let mut c = c.expect("replay decouple");
                c.attach_obs(reg);
                c
            })
            .collect();
        (server, clients)
    };
    let append_all = |clients: &mut [DecoupledClient]| {
        for (c, d) in clients.iter_mut().zip(&s.decoupled) {
            for name in &d.names {
                c.create(c.root, name).expect("replay append");
            }
        }
    };
    let mut allocs = 0;
    let append = median_of(|| {
        let reg = Arc::new(Registry::new());
        let (_server, mut clients) = prepared(&reg);
        let a0 = alloc::counts();
        let t = Instant::now();
        append_all(&mut clients);
        let ns = elapsed_ns(t);
        allocs = alloc::delta(a0, alloc::counts()).0;
        per(ns, total)
    });
    m.insert("client.decoupled.append_ns_per_op", append);
    m.insert("client.decoupled.allocs_per_op", per(allocs, total));
    let apply = median_of(|| {
        let reg = Arc::new(Registry::new());
        let (mut server, mut clients) = prepared(&reg);
        append_all(&mut clients);
        let t = Instant::now();
        for c in &clients {
            server
                .volatile_apply(c.id, c.events())
                .result
                .expect("replay volatile apply");
        }
        per(elapsed_ns(t), total)
    });
    m.insert("mds.server.volatile_apply_ns_per_event", apply);
    let merge = median_of(|| {
        let reg = Arc::new(Registry::new());
        let (mut server, mut clients) = prepared(&reg);
        append_all(&mut clients);
        let os = server.object_store();
        let comp = Composition::single(Mechanism::VolatileApply);
        let t = Instant::now();
        for c in clients.iter_mut() {
            let mut disk = LocalDisk::new();
            let mut env = ExecEnv {
                server: &mut server,
                os: os.as_ref(),
                disk: &mut disk,
            };
            execute_merge(&comp, c, &mut env).expect("replay merge");
        }
        per(elapsed_ns(t), total)
    });
    m.insert("core.executor.merge_ns_per_event", merge);
}

/// Ops per obs/harness replay: the timed op count, bounded so a replay
/// stays a fraction of a second.
fn obs_ops(s: &Script) -> u64 {
    (s.timed_ops().len() as u64).clamp(1_000, 100_000)
}

/// Virtual time between consecutive ops of an obs/harness replay: the
/// run's own virtual span spread over the replayed ops, so the replay's
/// telemetry fills (and overflows) its windows the way the run's did.
fn obs_tick(s: &Script) -> Nanos {
    match s.virtual_end_ns / obs_ops(s) {
        0 => CostModel::calibrated().mds_create_cpu,
        dt => Nanos(dt),
    }
}

fn obs_layers(s: &Script, m: &mut BTreeMap<&'static str, f64>) {
    let n = obs_ops(s);
    let tick = obs_tick(s);
    let cm = CostModel::calibrated();
    let span = median_of(|| {
        let reg = Registry::new();
        let t = Instant::now();
        let mut now = Nanos::ZERO;
        for i in 0..n {
            let root = reg.trace_root((i % 4) as u32);
            let rpc = reg.trace_child(root);
            cudele_obs::observe_mechanism_at(&reg, "rpcs", rpc, now, cm.mds_create_cpu);
            reg.child_span(rpc, "mds.queue_wait", "mds", now, cm.rpc_overhead);
            reg.child_span(rpc, "mds.service", "mds", now, cm.mds_create_cpu);
            reg.child_span(rpc, "net.rpc", "net", now, cm.rpc_overhead);
            reg.end_span_args(
                root,
                "create",
                "client_op",
                now,
                cm.mds_create_cpu,
                vec![("file".to_string(), "file.0.0".to_string())],
            );
            now += tick;
        }
        per(elapsed_ns(t), n)
    });
    m.insert("obs.registry.span_ns_per_op", span);
    let timeline = median_of(|| {
        let reg = Registry::new();
        let tl = reg.timeline();
        let t = Instant::now();
        let mut now = Nanos::ZERO;
        for i in 0..n {
            tl.gauge_at("mds.rpc.backlog_ns", now, i as f64);
            tl.add("bench.ops", now, 1);
            tl.sample_traced("bench.op_latency.ns", now, cm.mds_create_cpu.0, i);
            now += tick;
        }
        per(elapsed_ns(t), n)
    });
    m.insert("obs.timeline.sample_ns_per_op", timeline);
    let history = median_of(|| {
        let reg = Registry::new();
        let t = Instant::now();
        let mut now = Nanos::ZERO;
        for i in 0..n {
            reg.record_history(HistoryEvent {
                client: i % 4,
                scope: HistoryScope::Global,
                op: HistoryOp::Create {
                    dir: 0x1000,
                    name: "file.0.0".to_string(),
                },
                result: HistoryResult::Ok,
                ino: i,
                invoke: now,
                ack: now + cm.mds_create_cpu,
                epoch: 1,
                trace_id: i,
            });
            now += tick;
        }
        per(elapsed_ns(t), n)
    });
    m.insert("obs.history.record_ns_per_op", history);
}

/// The harness's own per-op work around the client call, as
/// `RpcCreateProcess::step` does it: name formatting, trace root,
/// `World::charge_ctx`, span end, latency histogram, timeline samples.
fn harness_layer(s: &Script, m: &mut BTreeMap<&'static str, f64>) {
    let n = obs_ops(s);
    let tick = obs_tick(s);
    let cm = CostModel::calibrated();
    let cost = [OpCost {
        mds_cpu: cm.mds_create_cpu,
        client_extra: cm.rpc_overhead,
        rpcs: 1,
    }];
    let v = median_of(|| {
        let mut world = World::new(MetadataServer::with_config(
            Arc::new(InMemoryStore::paper_default()),
            cm.clone(),
            None,
        ));
        let hist = world.obs.histogram("bench.op_latency.ns");
        let t = Instant::now();
        let mut now = Nanos::ZERO;
        for i in 0..n {
            let name = cudele_workloads::file_name((i % 4) as u32, i);
            let root = world.obs.trace_root((i % 4) as u32);
            let done = world.charge_ctx(root, now, &cost);
            world.obs.end_span_args(
                root,
                "create",
                "client_op",
                now,
                done - now,
                vec![("file".to_string(), name)],
            );
            hist.record((done - now).0);
            world.tl.add("bench.ops", done, 1);
            world
                .tl
                .sample_traced("bench.op_latency.ns", done, (done - now).0, root.trace_id);
            now += tick;
        }
        per(elapsed_ns(t), n)
    });
    m.insert("bench.world.charge_ns_per_op", v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudele_journal::Attrs;

    fn tiny_script() -> Script {
        let dir = InodeId(InodeId::FIRST_DYNAMIC.0 + 1);
        let base = 0x2000;
        let mut events = vec![JournalEvent::AllocRange {
            client: 3,
            start: InodeId(base),
            len: 100,
        }];
        for i in 0..50u64 {
            events.push(JournalEvent::Create {
                parent: dir,
                name: format!("f{i}"),
                ino: InodeId(base + i),
                attrs: Attrs::file_default(),
            });
        }
        Script::from_create_journal(
            vec!["/clients/dir0".to_string()],
            vec![3],
            Some(MdLogConfig::default()),
            events,
        )
    }

    #[test]
    fn create_journal_becomes_lookup_then_creates() {
        let s = tiny_script();
        assert_eq!(s.ops.len(), 51);
        assert!(matches!(
            &s.ops[0],
            Op::Lookup {
                client: 3,
                present: false,
                ..
            }
        ));
        assert!(s.ops[1..]
            .iter()
            .all(|o| matches!(o, Op::Create { client: 3, .. })));
    }

    #[test]
    fn replay_reissues_the_script_without_errors() {
        let s = tiny_script();
        // The set-up directory must get the inode the events name.
        let base = base_store(&s);
        assert_eq!(
            base.resolve("/clients/dir0").unwrap(),
            InodeId(InodeId::FIRST_DYNAMIC.0 + 1)
        );
        let p = server_pass(&s, true, true);
        assert_eq!((p.mutations, p.reads, p.errors), (50, 1, 0));
        let m = replay(&s);
        assert!(m["mds.server.create_ns_per_op"] > 0.0);
        assert!(m["mds.store.mutate_ns_per_op"] > 0.0);
        assert!(m["journal.codec.bytes_per_event"] > 10.0);
        assert_eq!(m["client.decoupled.append_ns_per_op"], 0.0);
    }
}
