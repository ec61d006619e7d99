//! The request funnel's stage table, pinned at the commit *before* the
//! seven hand-written handlers became one `serve` path: for every request
//! kind × outcome, the result class, the exact [`OpCost`], the
//! [`ServerCounters`] delta, the `mds.rpc.*` / `mds.caps.*` / `mds.spec.*`
//! registry deltas and whether a history row appears. The expectations
//! were taken from the typed methods at that commit (this file ran green
//! there unchanged), so any stage that moves — a counter bumped before a
//! rejection, a cost charged on a different branch, a history row gained
//! or lost — fails here by name.
//!
//! The last test drives a seeded 2 000-request script over all seven kinds
//! and digests every artifact the server produces, one digest per artifact;
//! the digests were recorded at the same parent commit, except where the
//! test says one was re-recorded and why.

use std::sync::Arc;

use cudele_journal::{InodeId, InodeRange};
use cudele_mds::{
    ClientId, MdLogConfig, MdsError, MetadataServer, OpCost, ReplayToken, Rpc, ServerCounters,
};
use cudele_obs::history::{HistoryOp, HistoryResult};
use cudele_obs::Registry;
use cudele_rados::{FencedStore, FencingAuthority, InMemoryStore, ObjectStore, PoolId};
use cudele_sim::{CostModel, Nanos};

const C1: ClientId = ClientId(1);
const C2: ClientId = ClientId(2);
/// A client that never opened a session.
const STRANGER: ClientId = ClientId(99);
/// An inode number nothing in the rig uses.
const NOWHERE: InodeId = InodeId(0xdead_0000);

/// Registry counters the funnel touches, in [`Delta`] field order.
const OBS_COUNTERS: [&str; 10] = [
    "mds.rpc.total",
    "mds.rpc.creates",
    "mds.rpc.lookups",
    "mds.rpc.rejects",
    "mds.caps.grants",
    "mds.caps.revocations",
    "mds.caps.cache_hits",
    "mds.spec.creates",
    "mds.spec.deduped",
    "mds.spec.cross_epoch",
];

/// What one request moved.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Delta {
    rpcs: u64,
    creates: u64,
    lookups: u64,
    rejects: u64,
    grants: u64,
    revocations: u64,
    cache_hits: u64,
    spec: u64,
    deduped: u64,
    cross_epoch: u64,
}

/// One served (non-timeout) request and nothing else.
const SERVED: Delta = Delta {
    rpcs: 1,
    creates: 0,
    lookups: 0,
    rejects: 0,
    grants: 0,
    revocations: 0,
    cache_hits: 0,
    spec: 0,
    deduped: 0,
    cross_epoch: 0,
};
/// A rejection at the blocked-subtree check.
const REJECTED: Delta = Delta {
    rejects: 1,
    ..SERVED
};
/// A write by the directory's cap holder.
const CACHED_WRITE: Delta = Delta {
    cache_hits: 1,
    ..SERVED
};
/// A file create by the directory's cap holder.
const CACHED_CREATE: Delta = Delta {
    creates: 1,
    ..CACHED_WRITE
};
/// A down server counts nothing.
const NOTHING: Delta = Delta { rpcs: 0, ..SERVED };

struct Rig {
    srv: MetadataServer,
    reg: Arc<Registry>,
    authority: Arc<FencingAuthority>,
    /// `/a`: C1 holds the write cap (it created `/a/seed` and `/a/sub/`).
    a: InodeId,
    /// `/b`: nobody has written here yet.
    b: InodeId,
    /// `/priv`: blocked for everyone but C1; contains file `held`.
    privd: InodeId,
    /// `/a/sub`, a directory.
    sub: InodeId,
    /// `/a/seed`'s inode.
    seed: InodeId,
    /// C1's explicitly granted range (tokens predict from its tail).
    r1: InodeRange,
    /// C2's explicitly granted range.
    r2: InodeRange,
}

fn rig() -> Rig {
    let os: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::paper_default());
    let authority = Arc::new(FencingAuthority::new());
    let fenced: Arc<dyn ObjectStore> =
        Arc::new(FencedStore::new(Arc::clone(&os), Arc::clone(&authority)));
    // One event per segment, one segment per dispatch: every journaled
    // update reaches the object store inside its own request, so a fence
    // or an outage fails exactly the request that hit it.
    let mut srv = MetadataServer::with_config(
        fenced,
        CostModel::calibrated(),
        Some(MdLogConfig {
            events_per_segment: 1,
            dispatch_size: 1,
            trim_after_updates: None,
        }),
    );
    let reg = Arc::new(Registry::new());
    srv.attach_obs(&reg);
    srv.open_session(C1);
    srv.open_session(C2);
    let a = srv.setup_dir("/a").unwrap();
    let b = srv.setup_dir("/b").unwrap();
    let privd = srv.setup_dir("/priv").unwrap();
    let r1 = srv.alloc_inodes(C1, 32).expect_ok();
    let r2 = srv.alloc_inodes(C2, 32).expect_ok();
    let seed = srv.create(C1, a, "seed").expect_ok().ino;
    let sub = srv.mkdir(C1, a, "sub").expect_ok().ino;
    srv.create(C1, privd, "held").expect_ok();
    srv.set_subtree_policy(C1, "/priv", vec![1], true)
        .expect_ok();
    srv.set_now(Nanos::from_micros(50));
    Rig {
        srv,
        reg,
        authority,
        a,
        b,
        privd,
        sub,
        seed,
        r1,
        r2,
    }
}

/// The journal-stage failure: a newer epoch fences this server's store
/// handle, so the next flushed append dies at the object store.
fn fenced_rig() -> Rig {
    let r = rig();
    r.authority.bump();
    r
}

fn down_rig() -> Rig {
    let mut r = rig();
    r.srv.fail();
    r
}

fn token(ino: InodeId) -> ReplayToken {
    ReplayToken {
        seq: 0,
        predicted_ino: ino,
        epoch: 1,
    }
}

/// A token predicting the `n`-th inode from the tail of `range` (the
/// session's own cursor walks the range from the front).
fn tail(range: InodeRange, n: u64) -> ReplayToken {
    token(InodeId(range.end().0 - 1 - n))
}

fn class<T>(r: &Result<T, MdsError>) -> &'static str {
    match r {
        Ok(_) => "ok",
        Err(MdsError::NoEnt { .. }) => "noent",
        Err(MdsError::Exists { .. }) => "exists",
        Err(MdsError::NotDir { .. }) => "notdir",
        Err(MdsError::IsDir { .. }) => "isdir",
        Err(MdsError::NotEmpty { .. }) => "notempty",
        Err(MdsError::Busy { .. }) => "busy",
        Err(MdsError::NoInodes) => "noinodes",
        Err(MdsError::NoSession { .. }) => "nosession",
        Err(MdsError::InodeCollision { .. }) => "collision",
        Err(MdsError::BadSpeculation { .. }) => "badspec",
        Err(MdsError::Timeout) => "timeout",
        Err(MdsError::Fenced { .. }) => "fenced",
        Err(_) => "other",
    }
}

fn outcome<T>(r: Rpc<T>) -> (&'static str, OpCost) {
    (class(&r.result), r.cost)
}

fn op_kind(op: &HistoryOp) -> &'static str {
    match op {
        HistoryOp::Create { .. } => "create",
        HistoryOp::Mkdir { .. } => "mkdir",
        HistoryOp::Unlink { .. } => "unlink",
        HistoryOp::Rename { .. } => "rename",
        HistoryOp::Lookup { .. } => "lookup",
        HistoryOp::Readdir { .. } => "readdir",
        HistoryOp::Merge { .. } => "merge",
    }
}

fn probe(r: &Rig) -> (ServerCounters, [u64; 10], u64, usize) {
    (
        r.srv.counters(),
        OBS_COUNTERS.map(|n| r.reg.counter_value(n).unwrap_or(0)),
        r.reg.histogram("mds.rpc.service_ns").count(),
        r.reg.history_count(),
    )
}

/// Runs one request against `r` and asserts everything it may move.
#[allow(clippy::too_many_arguments)]
fn case(
    label: &str,
    r: &mut Rig,
    op: impl FnOnce(&mut Rig) -> (&'static str, OpCost),
    want_class: &str,
    want_cpu: Nanos,
    want_extra: Nanos,
    want: Delta,
    want_history: Option<(&str, HistoryResult)>,
) {
    let (c0, o0, served0, h0) = probe(r);
    let (got_class, cost) = op(r);
    let (c1, o1, served1, h1) = probe(r);
    assert_eq!(got_class, want_class, "{label}: result class");
    assert_eq!(
        cost,
        OpCost {
            mds_cpu: want_cpu,
            client_extra: want_extra,
            rpcs: 1
        },
        "{label}: cost"
    );
    let d: Vec<u64> = o1.iter().zip(o0).map(|(a, b)| a - b).collect();
    let got = Delta {
        rpcs: d[0],
        creates: d[1],
        lookups: d[2],
        rejects: d[3],
        grants: d[4],
        revocations: d[5],
        cache_hits: d[6],
        spec: d[7],
        deduped: d[8],
        cross_epoch: d[9],
    };
    assert_eq!(got, want, "{label}: registry counter deltas");
    // The functional counters and the latency histogram mirror the
    // registry exactly.
    assert_eq!(c1.rpcs - c0.rpcs, want.rpcs, "{label}: counters.rpcs");
    assert_eq!(
        c1.creates - c0.creates,
        want.creates,
        "{label}: counters.creates"
    );
    assert_eq!(
        c1.lookups - c0.lookups,
        want.lookups,
        "{label}: counters.lookups"
    );
    assert_eq!(
        c1.rejects - c0.rejects,
        want.rejects,
        "{label}: counters.rejects"
    );
    assert_eq!(served1 - served0, want.rpcs, "{label}: service_ns samples");
    match want_history {
        None => assert_eq!(h1, h0, "{label}: must record no history row"),
        Some((kind, result)) => {
            assert_eq!(h1, h0 + 1, "{label}: must record one history row");
            let ev = r.reg.history_events().pop().unwrap();
            assert_eq!(op_kind(&ev.op), kind, "{label}: history op");
            assert_eq!(ev.result, result, "{label}: history result");
            assert_eq!(ev.invoke, Nanos::from_micros(50), "{label}: invoke");
            assert_eq!(
                ev.ack,
                ev.invoke + cost.mds_cpu + cost.client_extra,
                "{label}: ack = invoke + service time"
            );
        }
    }
}

/// The cost vocabulary of the table.
struct Costs {
    /// `mds_lookup_cpu`.
    look: Nanos,
    /// `mds_create_cpu`.
    make: Nanos,
    /// `mds_reject_cpu`.
    reject: Nanos,
    /// `mds_cap_revoke_cpu`.
    revoke: Nanos,
    /// `rpc_overhead`.
    wire: Nanos,
    /// Stream CPU per journaled event at dispatch size 1.
    jcpu: Nanos,
    /// Stream commit wait.
    jwait: Nanos,
    /// The RPC timeout charged by a down server.
    timeout: Nanos,
}

fn costs(r: &Rig) -> Costs {
    let m = r.srv.cost_model();
    Costs {
        look: m.mds_lookup_cpu,
        make: m.mds_create_cpu,
        reject: m.mds_reject_cpu,
        revoke: m.mds_cap_revoke_cpu,
        wire: m.rpc_overhead,
        jcpu: m.stream_mds_cpu_at_dispatch(1),
        jwait: m.stream_client_latency,
        timeout: r.srv.rpc_timeout(),
    }
}

use HistoryResult as H;

#[test]
fn lookup_stages() {
    let mut r = rig();
    let k = costs(&r);
    let looked = Delta {
        lookups: 1,
        ..SERVED
    };
    case(
        "lookup hit",
        &mut r,
        |r| outcome(r.srv.lookup(C1, r.a, "seed")),
        "ok",
        k.look,
        k.wire,
        looked,
        Some(("lookup", H::Ok)),
    );
    case(
        "lookup miss is Ok(None)",
        &mut r,
        |r| {
            let rpc = r.srv.lookup(C1, r.a, "missing");
            assert_eq!(rpc.result, Ok(None));
            outcome(rpc)
        },
        "ok",
        k.look,
        k.wire,
        looked,
        Some(("lookup", H::Ok)),
    );
    case(
        "lookup in a missing dir is Ok(None) too",
        &mut r,
        |r| outcome(r.srv.lookup(C1, NOWHERE, "x")),
        "ok",
        k.look,
        k.wire,
        looked,
        Some(("lookup", H::Ok)),
    );
    case(
        "lookup under a file",
        &mut r,
        |r| outcome(r.srv.lookup(C1, r.seed, "x")),
        "notdir",
        k.look,
        k.wire,
        looked,
        Some(("lookup", H::Err)),
    );
    case(
        "lookup blocked",
        &mut r,
        |r| outcome(r.srv.lookup(C2, r.privd, "held")),
        "busy",
        k.reject,
        k.wire,
        REJECTED,
        Some(("lookup", H::Busy)),
    );
    case(
        "lookup by the subtree owner",
        &mut r,
        |r| outcome(r.srv.lookup(C1, r.privd, "held")),
        "ok",
        k.look,
        k.wire,
        looked,
        Some(("lookup", H::Ok)),
    );
    let mut f = fenced_rig();
    case(
        "lookup on a fenced server (reads journal nothing)",
        &mut f,
        |r| outcome(r.srv.lookup(C1, r.a, "seed")),
        "ok",
        k.look,
        k.wire,
        looked,
        Some(("lookup", H::Ok)),
    );
    let mut d = down_rig();
    case(
        "lookup down",
        &mut d,
        |r| outcome(r.srv.lookup(C1, r.a, "seed")),
        "timeout",
        Nanos::ZERO,
        k.timeout,
        NOTHING,
        Some(("lookup", H::Timeout)),
    );
}

#[test]
fn stat_stages_record_no_history() {
    let mut r = rig();
    let k = costs(&r);
    case(
        "stat hit",
        &mut r,
        |r| outcome(r.srv.stat(C1, r.seed)),
        "ok",
        k.look,
        k.wire,
        SERVED,
        None,
    );
    case(
        "stat of a missing inode",
        &mut r,
        |r| outcome(r.srv.stat(C1, NOWHERE)),
        "noent",
        k.look,
        k.wire,
        SERVED,
        None,
    );
    case(
        "stat blocked",
        &mut r,
        |r| outcome(r.srv.stat(C2, r.privd)),
        "busy",
        k.reject,
        k.wire,
        REJECTED,
        None,
    );
    let mut f = fenced_rig();
    case(
        "stat on a fenced server",
        &mut f,
        |r| outcome(r.srv.stat(C1, r.seed)),
        "ok",
        k.look,
        k.wire,
        SERVED,
        None,
    );
    let mut d = down_rig();
    case(
        "stat down",
        &mut d,
        |r| outcome(r.srv.stat(C1, r.seed)),
        "timeout",
        Nanos::ZERO,
        k.timeout,
        NOTHING,
        None,
    );
}

#[test]
fn readdir_stages() {
    let mut r = rig();
    let k = costs(&r);
    for i in 0..70 {
        r.srv.create(C1, r.a, &format!("e{i}")).expect_ok();
    }
    case(
        "readdir scales with the entry count",
        &mut r,
        |r| {
            let rpc = r.srv.readdir(C1, r.a);
            assert_eq!(rpc.result.as_ref().unwrap().len(), 72);
            outcome(rpc)
        },
        "ok",
        k.look.scale(1.0 + 72.0 / 64.0),
        k.wire,
        SERVED,
        Some(("readdir", H::Ok)),
    );
    case(
        "readdir of an empty dir",
        &mut r,
        |r| outcome(r.srv.readdir(C1, r.b)),
        "ok",
        k.look,
        k.wire,
        SERVED,
        Some(("readdir", H::Ok)),
    );
    case(
        "readdir of a missing dir is charged one lookup",
        &mut r,
        |r| outcome(r.srv.readdir(C1, NOWHERE)),
        "noent",
        k.look,
        k.wire,
        SERVED,
        Some(("readdir", H::NoEnt)),
    );
    case(
        "readdir blocked",
        &mut r,
        |r| outcome(r.srv.readdir(C2, r.privd)),
        "busy",
        k.reject,
        k.wire,
        REJECTED,
        Some(("readdir", H::Busy)),
    );
    let mut f = fenced_rig();
    case(
        "readdir on a fenced server",
        &mut f,
        |r| outcome(r.srv.readdir(C1, r.b)),
        "ok",
        k.look,
        k.wire,
        SERVED,
        Some(("readdir", H::Ok)),
    );
    let mut d = down_rig();
    case(
        "readdir down",
        &mut d,
        |r| outcome(r.srv.readdir(C1, r.a)),
        "timeout",
        Nanos::ZERO,
        k.timeout,
        NOTHING,
        Some(("readdir", H::Timeout)),
    );
}

#[test]
fn create_stages() {
    let mut r = rig();
    let k = costs(&r);
    case(
        "create by the cap holder",
        &mut r,
        |r| outcome(r.srv.create(C1, r.a, "f")),
        "ok",
        k.make + k.jcpu,
        k.wire + k.jwait,
        CACHED_CREATE,
        Some(("create", H::Ok)),
    );
    case(
        "create EEXIST still counts, touches caps and burns an inode",
        &mut r,
        |r| outcome(r.srv.create(C1, r.a, "seed")),
        "exists",
        k.make,
        k.wire,
        CACHED_CREATE,
        Some(("create", H::Exists)),
    );
    case(
        "create by a second writer revokes the holder's cap",
        &mut r,
        |r| {
            let rpc = r.srv.create(C2, r.a, "g");
            assert!(!rpc.result.as_ref().unwrap().has_cache);
            outcome(rpc)
        },
        "ok",
        k.make + k.revoke + k.jcpu,
        k.wire + k.jwait,
        Delta {
            creates: 1,
            revocations: 1,
            ..SERVED
        },
        Some(("create", H::Ok)),
    );
    case(
        "create in a missing dir grants a cap before the store says no",
        &mut r,
        |r| outcome(r.srv.create(C1, NOWHERE, "f")),
        "noent",
        k.make,
        k.wire,
        Delta {
            creates: 1,
            grants: 1,
            ..SERVED
        },
        Some(("create", H::NoEnt)),
    );
    case(
        "create without a session is counted as a create",
        &mut r,
        |r| outcome(r.srv.create(STRANGER, r.b, "f")),
        "nosession",
        k.make,
        k.wire,
        Delta {
            creates: 1,
            ..SERVED
        },
        Some(("create", H::NoSession)),
    );
    case(
        "create blocked",
        &mut r,
        |r| outcome(r.srv.create(C2, r.privd, "f")),
        "busy",
        k.reject,
        k.wire,
        REJECTED,
        Some(("create", H::Busy)),
    );
    let mut f = fenced_rig();
    case(
        "create fenced at the journal: charged up to the store, mutation stands",
        &mut f,
        |r| {
            let out = outcome(r.srv.create(C1, r.a, "zombie"));
            assert!(r.srv.store().lookup(r.a, "zombie").is_ok());
            out
        },
        "fenced",
        k.make,
        k.wire,
        CACHED_CREATE,
        Some(("create", H::Fenced)),
    );
    let mut d = down_rig();
    case(
        "create down",
        &mut d,
        |r| outcome(r.srv.create(C1, r.a, "f")),
        "timeout",
        Nanos::ZERO,
        k.timeout,
        NOTHING,
        Some(("create", H::Timeout)),
    );
}

#[test]
fn tokened_create_stages_record_no_history() {
    let mut r = rig();
    let k = costs(&r);
    let spec = Delta { spec: 1, ..SERVED };
    let t0 = tail(r.r1, 0);
    case(
        "tokened create applies the predicted inode",
        &mut r,
        |r| {
            let rpc = r.srv.create_speculative(C1, r.a, "s0", t0);
            assert_eq!(rpc.result.as_ref().unwrap().ino, t0.predicted_ino);
            outcome(rpc)
        },
        "ok",
        k.make + k.jcpu,
        k.wire + k.jwait,
        Delta {
            spec: 1,
            ..CACHED_CREATE
        },
        None,
    );
    case(
        "replay of an applied token acks at lookup cost, creates not bumped",
        &mut r,
        |r| {
            let rpc = r.srv.create_speculative(C1, r.a, "s0", t0);
            let reply = rpc.result.as_ref().unwrap();
            assert_eq!(reply.ino, t0.predicted_ino);
            assert!(!reply.has_cache);
            outcome(rpc)
        },
        "ok",
        k.look,
        k.wire,
        Delta { deduped: 1, ..spec },
        None,
    );
    case(
        "a token born under an older epoch is counted and served",
        &mut r,
        |r| {
            let stale = ReplayToken {
                epoch: 0,
                ..tail(r.r1, 1)
            };
            outcome(r.srv.create_speculative(C1, r.a, "s1", stale))
        },
        "ok",
        k.make + k.jcpu,
        k.wire + k.jwait,
        Delta {
            spec: 1,
            cross_epoch: 1,
            ..CACHED_CREATE
        },
        None,
    );
    case(
        "tokened create without a session",
        &mut r,
        |r| outcome(r.srv.create_speculative(STRANGER, r.a, "s2", tail(r.r1, 2))),
        "nosession",
        k.reject,
        k.wire,
        spec,
        None,
    );
    case(
        "token predicting another session's inode",
        &mut r,
        |r| outcome(r.srv.create_speculative(C1, r.a, "s2", tail(r.r2, 0))),
        "badspec",
        k.reject,
        k.wire,
        spec,
        None,
    );
    case(
        "token whose name is held by another inode",
        &mut r,
        |r| outcome(r.srv.create_speculative(C1, r.a, "seed", tail(r.r1, 2))),
        "exists",
        k.reject,
        k.wire,
        spec,
        None,
    );
    case(
        "token whose inode is in use under another name",
        &mut r,
        |r| outcome(r.srv.create_speculative(C1, r.a, "s3", t0)),
        "collision",
        k.make,
        k.wire,
        Delta {
            spec: 1,
            ..CACHED_CREATE
        },
        None,
    );
    case(
        "tokened create in a missing dir",
        &mut r,
        |r| {
            outcome(
                r.srv
                    .create_speculative(C1, InodeId(NOWHERE.0 + 1), "s", tail(r.r1, 2)),
            )
        },
        "noent",
        k.make,
        k.wire,
        Delta {
            spec: 1,
            creates: 1,
            grants: 1,
            ..SERVED
        },
        None,
    );
    case(
        "tokened create blocked (still counted as speculative)",
        &mut r,
        |r| outcome(r.srv.create_speculative(C2, r.privd, "s", tail(r.r2, 0))),
        "busy",
        k.reject,
        k.wire,
        Delta {
            spec: 1,
            ..REJECTED
        },
        None,
    );
    let mut f = fenced_rig();
    case(
        "tokened create fenced at the journal",
        &mut f,
        |r| outcome(r.srv.create_speculative(C1, r.a, "s", tail(r.r1, 0))),
        "fenced",
        k.make,
        k.wire,
        Delta {
            spec: 1,
            ..CACHED_CREATE
        },
        None,
    );
    let mut d = down_rig();
    case(
        "tokened create down: no row, not even counted as speculative",
        &mut d,
        |r| outcome(r.srv.create_speculative(C1, r.a, "s", tail(r.r1, 0))),
        "timeout",
        Nanos::ZERO,
        k.timeout,
        NOTHING,
        None,
    );
}

#[test]
fn mkdir_stages() {
    let mut r = rig();
    let k = costs(&r);
    case(
        "mkdir is not counted as a create",
        &mut r,
        |r| outcome(r.srv.mkdir(C1, r.a, "d")),
        "ok",
        k.make + k.jcpu,
        k.wire + k.jwait,
        CACHED_WRITE,
        Some(("mkdir", H::Ok)),
    );
    case(
        "mkdir EEXIST",
        &mut r,
        |r| outcome(r.srv.mkdir(C1, r.a, "sub")),
        "exists",
        k.make,
        k.wire,
        CACHED_WRITE,
        Some(("mkdir", H::Exists)),
    );
    case(
        "mkdir under a file",
        &mut r,
        |r| outcome(r.srv.mkdir(C1, r.seed, "d")),
        "notdir",
        k.make,
        k.wire,
        Delta {
            grants: 1,
            ..SERVED
        },
        Some(("mkdir", H::Err)),
    );
    case(
        "mkdir in a missing dir",
        &mut r,
        |r| outcome(r.srv.mkdir(C1, NOWHERE, "d")),
        "noent",
        k.make,
        k.wire,
        Delta {
            grants: 1,
            ..SERVED
        },
        Some(("mkdir", H::NoEnt)),
    );
    case(
        "mkdir without a session",
        &mut r,
        |r| outcome(r.srv.mkdir(STRANGER, r.b, "d")),
        "nosession",
        k.make,
        k.wire,
        SERVED,
        Some(("mkdir", H::NoSession)),
    );
    case(
        "mkdir blocked",
        &mut r,
        |r| outcome(r.srv.mkdir(C2, r.privd, "d")),
        "busy",
        k.reject,
        k.wire,
        REJECTED,
        Some(("mkdir", H::Busy)),
    );
    let mut f = fenced_rig();
    case(
        "mkdir fenced at the journal",
        &mut f,
        |r| outcome(r.srv.mkdir(C1, r.a, "d")),
        "fenced",
        k.make,
        k.wire,
        CACHED_WRITE,
        Some(("mkdir", H::Fenced)),
    );
    let mut d = down_rig();
    case(
        "mkdir down",
        &mut d,
        |r| outcome(r.srv.mkdir(C1, r.a, "d")),
        "timeout",
        Nanos::ZERO,
        k.timeout,
        NOTHING,
        Some(("mkdir", H::Timeout)),
    );
}

#[test]
fn unlink_stages() {
    let mut r = rig();
    let k = costs(&r);
    case(
        "unlink ENOENT touches caps first",
        &mut r,
        |r| outcome(r.srv.unlink(C1, r.a, "missing")),
        "noent",
        k.make,
        k.wire,
        CACHED_WRITE,
        Some(("unlink", H::NoEnt)),
    );
    case(
        "unlink of a directory",
        &mut r,
        |r| outcome(r.srv.unlink(C1, r.a, "sub")),
        "isdir",
        k.make,
        k.wire,
        CACHED_WRITE,
        Some(("unlink", H::Err)),
    );
    case(
        "unlink in a missing dir",
        &mut r,
        |r| outcome(r.srv.unlink(C1, NOWHERE, "f")),
        "noent",
        k.make,
        k.wire,
        Delta {
            grants: 1,
            ..SERVED
        },
        Some(("unlink", H::NoEnt)),
    );
    case(
        "unlink needs no session",
        &mut r,
        |r| outcome(r.srv.unlink(STRANGER, r.a, "seed")),
        "ok",
        k.make + k.revoke + k.jcpu,
        k.wire + k.jwait,
        Delta {
            revocations: 1,
            ..SERVED
        },
        Some(("unlink", H::Ok)),
    );
    case(
        "unlink blocked",
        &mut r,
        |r| outcome(r.srv.unlink(C2, r.privd, "held")),
        "busy",
        k.reject,
        k.wire,
        REJECTED,
        Some(("unlink", H::Busy)),
    );
    case(
        "unlink by the subtree owner",
        &mut r,
        |r| outcome(r.srv.unlink(C1, r.privd, "held")),
        "ok",
        k.make + k.jcpu,
        k.wire + k.jwait,
        CACHED_WRITE,
        Some(("unlink", H::Ok)),
    );
    let mut f = fenced_rig();
    case(
        "unlink fenced at the journal: the in-memory removal stands",
        &mut f,
        |r| {
            let out = outcome(r.srv.unlink(C1, r.a, "seed"));
            assert!(r.srv.store().lookup(r.a, "seed").is_err());
            out
        },
        "fenced",
        k.make,
        k.wire,
        CACHED_WRITE,
        Some(("unlink", H::Fenced)),
    );
    let mut d = down_rig();
    case(
        "unlink down",
        &mut d,
        |r| outcome(r.srv.unlink(C1, r.a, "seed")),
        "timeout",
        Nanos::ZERO,
        k.timeout,
        NOTHING,
        Some(("unlink", H::Timeout)),
    );
}

#[test]
fn rename_stages() {
    let mut r = rig();
    let k = costs(&r);
    case(
        "rename writes both directories: cache hit on src, first grant on dst",
        &mut r,
        |r| outcome(r.srv.rename(C1, r.a, "seed", r.b, "moved")),
        "ok",
        k.make + k.jcpu,
        k.wire + k.jwait,
        Delta {
            grants: 1,
            ..CACHED_WRITE
        },
        Some(("rename", H::Ok)),
    );
    case(
        "rename of a missing source touches both caps first",
        &mut r,
        |r| outcome(r.srv.rename(C1, r.a, "missing", r.b, "x")),
        "noent",
        k.make,
        k.wire,
        Delta {
            cache_hits: 2,
            ..SERVED
        },
        Some(("rename", H::NoEnt)),
    );
    case(
        "rename onto a directory",
        &mut r,
        |r| outcome(r.srv.rename(C1, r.b, "moved", r.a, "sub")),
        "isdir",
        k.make,
        k.wire,
        Delta {
            cache_hits: 2,
            ..SERVED
        },
        Some(("rename", H::Err)),
    );
    case(
        "rename by a second writer revokes both caps",
        &mut r,
        |r| outcome(r.srv.rename(C2, r.b, "moved", r.a, "back")),
        "ok",
        k.make + k.revoke * 2 + k.jcpu,
        k.wire + k.jwait,
        Delta {
            revocations: 2,
            ..SERVED
        },
        Some(("rename", H::Ok)),
    );
    // `/sub` from here on is an unwritten directory: no caps state yet.
    let caps_before = (r.srv.caps().grants(), r.srv.caps().revocations());
    case(
        "rename blocked only through its destination: one reject, no caps",
        &mut r,
        |r| outcome(r.srv.rename(C2, r.a, "back", r.privd, "stolen")),
        "busy",
        k.reject,
        k.wire,
        REJECTED,
        Some(("rename", H::Busy)),
    );
    case(
        "rename blocked through its source",
        &mut r,
        |r| outcome(r.srv.rename(C2, r.privd, "held", r.sub, "stolen")),
        "busy",
        k.reject,
        k.wire,
        REJECTED,
        Some(("rename", H::Busy)),
    );
    case(
        "rename blocked through both ends rejects once",
        &mut r,
        |r| outcome(r.srv.rename(C2, r.privd, "held", r.privd, "again")),
        "busy",
        k.reject,
        k.wire,
        REJECTED,
        Some(("rename", H::Busy)),
    );
    assert_eq!(
        (r.srv.caps().grants(), r.srv.caps().revocations()),
        caps_before,
        "a rejected rename must not reach the cap table"
    );
    let mut f = fenced_rig();
    case(
        "rename fenced at the journal",
        &mut f,
        |r| outcome(r.srv.rename(C1, r.a, "seed", r.b, "moved")),
        "fenced",
        k.make,
        k.wire,
        Delta {
            grants: 1,
            ..CACHED_WRITE
        },
        Some(("rename", H::Fenced)),
    );
    let mut d = down_rig();
    case(
        "rename down",
        &mut d,
        |r| outcome(r.srv.rename(C1, r.a, "seed", r.b, "moved")),
        "timeout",
        Nanos::ZERO,
        k.timeout,
        NOTHING,
        Some(("rename", H::Timeout)),
    );
}

#[test]
fn session_and_merge_rpcs_share_the_admit_and_reply_stages() {
    let mut r = rig();
    let k = costs(&r);
    case(
        "open_session",
        &mut r,
        |r| outcome(r.srv.open_session(ClientId(7))),
        "ok",
        k.look,
        k.wire,
        SERVED,
        None,
    );
    case(
        "alloc_inodes journals its grant",
        &mut r,
        |r| outcome(r.srv.alloc_inodes(ClientId(7), 8)),
        "ok",
        k.look + k.jcpu,
        k.wire + k.jwait,
        SERVED,
        None,
    );
    case(
        "alloc_inodes without a session",
        &mut r,
        |r| outcome(r.srv.alloc_inodes(STRANGER, 8)),
        "nosession",
        k.look,
        k.wire,
        SERVED,
        None,
    );
    case(
        "reconnect_session re-journals each surviving range",
        &mut r,
        |r| {
            let ranges = [(r.r2, 3), (InodeRange::new(InodeId(0x9000_0000), 4), 0)];
            outcome(r.srv.reconnect_session(C2, &ranges))
        },
        "ok",
        k.look + k.jcpu * 2,
        k.wire + k.jwait * 2,
        SERVED,
        None,
    );
    case(
        "set_subtree_policy journals but charges no stream wait",
        &mut r,
        |r| outcome(r.srv.set_subtree_policy(C1, "/b", vec![2], false)),
        "ok",
        k.make,
        k.wire,
        SERVED,
        None,
    );
    case(
        "set_subtree_policy on a missing path",
        &mut r,
        |r| outcome(r.srv.set_subtree_policy(C1, "/nope", vec![2], true)),
        "noent",
        k.make,
        k.wire,
        SERVED,
        None,
    );
    case(
        "close_session",
        &mut r,
        |r| outcome(r.srv.close_session(ClientId(7))),
        "ok",
        k.look,
        k.wire,
        SERVED,
        None,
    );
    let merges = r.srv.counters().merges;
    case(
        "volatile_apply of nothing",
        &mut r,
        |r| outcome(r.srv.volatile_apply(C1, &[])),
        "ok",
        Nanos::ZERO,
        k.wire,
        SERVED,
        None,
    );
    assert_eq!(r.srv.counters().merges, merges + 1);
    let mut f = fenced_rig();
    case(
        "alloc_inodes fenced at its grant",
        &mut f,
        |r| outcome(r.srv.alloc_inodes(C1, 8)),
        "fenced",
        k.look,
        k.wire,
        SERVED,
        None,
    );
    let mut d = down_rig();
    for (label, op) in [
        (
            "open_session down",
            (|r: &mut Rig| outcome(r.srv.open_session(C1))) as fn(&mut Rig) -> _,
        ),
        ("close_session down", |r| outcome(r.srv.close_session(C1))),
        ("alloc_inodes down", |r| outcome(r.srv.alloc_inodes(C1, 8))),
        ("reconnect_session down", |r| {
            outcome(r.srv.reconnect_session(C1, &[]))
        }),
        ("set_subtree_policy down", |r| {
            outcome(r.srv.set_subtree_policy(C1, "/b", vec![2], false))
        }),
        ("volatile_apply down", |r| {
            outcome(r.srv.volatile_apply(C1, &[]))
        }),
    ] {
        case(
            label,
            &mut d,
            op,
            "timeout",
            Nanos::ZERO,
            k.timeout,
            NOTHING,
            None,
        );
    }
}

// ---------------------------------------------------------------------
// The seeded script
// ---------------------------------------------------------------------

/// FNV-1a, 64-bit.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One digest per artifact the script leaves behind, so a change that is
/// meant to move one of them (store-call granularity shows up in
/// `metrics_json` and nowhere else) re-records that one and is held to
/// the rest.
#[derive(Debug, PartialEq)]
struct ScriptDigests {
    /// Every request's result class and exact cost, in order.
    requests: u64,
    /// The server's `ServerCounters`.
    counters: u64,
    history: u64,
    timeline: u64,
    /// Every object in the metadata pool: name, then bytes.
    objects: u64,
    /// The namespace snapshot.
    namespace: u64,
    /// The allocator watermark.
    watermark: u64,
    metrics_json: u64,
}

/// 2 000 seeded requests over all seven kinds from three clients, with a
/// blocked subtree (owned by client 1), a down window and token replays;
/// returns the digests of everything the run left behind.
fn script_digests() -> ScriptDigests {
    let os = Arc::new(InMemoryStore::paper_default());
    let mut srv = MetadataServer::with_config(
        os.clone(),
        CostModel::calibrated(),
        Some(MdLogConfig {
            events_per_segment: 8,
            dispatch_size: 2,
            trim_after_updates: None,
        }),
    );
    let reg = Arc::new(Registry::new());
    srv.attach_obs(&reg);
    let clients = [ClientId(1), ClientId(2), ClientId(3)];
    let mut dirs = Vec::new();
    for d in ["/d0", "/d1", "/d2", "/priv"] {
        dirs.push(srv.setup_dir_durable(d).unwrap());
    }
    let mut ranges = Vec::new();
    for &c in &clients {
        srv.open_session(c);
        ranges.push(srv.alloc_inodes(c, 4096).expect_ok());
    }
    srv.set_subtree_policy(clients[0], "/priv", vec![1], true)
        .expect_ok();

    let mut rng = Rng(0x00c0_de1e);
    let mut requests = FNV_BASIS;
    // Tokens each client has issued, for replay: (dir, name, token).
    let mut issued: Vec<Vec<(InodeId, String, ReplayToken)>> = vec![Vec::new(); 3];
    let mut predicted = [0u64; 3];
    for step in 0..2000u64 {
        srv.set_now(Nanos::from_micros(step * 40));
        match step {
            900 => srv.fail(),
            960 => srv.restart(),
            _ => {}
        }
        let who = rng.below(3) as usize;
        let client = clients[who];
        let dir = dirs[rng.below(4) as usize];
        let name = format!("n{}", rng.below(12));
        let (class, cost) = match rng.below(16) {
            0..=3 => outcome(srv.create(client, dir, &name)),
            4 => {
                let t = ReplayToken {
                    seq: step,
                    predicted_ino: InodeId(ranges[who].end().0 - 1 - predicted[who]),
                    epoch: 1,
                };
                predicted[who] += 1;
                issued[who].push((dir, name.clone(), t));
                outcome(srv.create_speculative(client, dir, &name, t))
            }
            5 => match issued[who].len() as u64 {
                0 => outcome(srv.stat(client, dir)),
                n => {
                    let (d, nm, t) = issued[who][rng.below(n) as usize].clone();
                    outcome(srv.create_speculative(client, d, &nm, t))
                }
            },
            6 => outcome(srv.mkdir(client, dir, &format!("s{}", rng.below(3)))),
            7 | 8 => outcome(srv.lookup(client, dir, &name)),
            9 | 10 => outcome(srv.unlink(client, dir, &name)),
            11 | 12 => {
                let dst = dirs[rng.below(4) as usize];
                let dst_name = match rng.below(8) {
                    0 => format!("s{}", rng.below(3)),
                    _ => format!("n{}", rng.below(12)),
                };
                outcome(srv.rename(client, dir, &name, dst, &dst_name))
            }
            13 => match srv.store().lookup(dir, &name) {
                Ok(d) => outcome(srv.stat(client, d.ino)),
                Err(_) => outcome(srv.stat(client, NOWHERE)),
            },
            _ => outcome(srv.readdir(client, dir)),
        };
        requests = fnv1a(requests, class.as_bytes());
        requests = fnv1a(requests, &cost.mds_cpu.0.to_le_bytes());
        requests = fnv1a(requests, &cost.client_extra.0.to_le_bytes());
    }
    srv.flush_journal();

    let mut ids = os.list(PoolId::METADATA, "");
    ids.sort_by(|a, b| a.name.cmp(&b.name));
    let objects = ids.iter().fold(FNV_BASIS, |h, id| {
        fnv1a(fnv1a(h, id.name.as_bytes()), &os.read(id).unwrap())
    });
    let one = |bytes: &[u8]| fnv1a(FNV_BASIS, bytes);
    ScriptDigests {
        requests,
        counters: one(format!("{:?}", srv.counters()).as_bytes()),
        history: one(reg.history_json("rpc").as_bytes()),
        timeline: one(reg.timeline().snapshot().to_json().as_bytes()),
        objects,
        namespace: one(format!("{:?}", srv.store().snapshot()).as_bytes()),
        watermark: one(&srv.alloc_watermark().0.to_le_bytes()),
        metrics_json: one(reg.metrics_json().as_bytes()),
    }
}

#[test]
fn seeded_script_reproduces_the_digests_recorded_at_the_parent() {
    let got = script_digests();
    assert_eq!(got, script_digests(), "the script itself is deterministic");
    assert_eq!(
        got,
        ScriptDigests {
            requests: 0x07a8_b8bf_7906_7e3c,
            counters: 0x8420_343a_0f4f_6521,
            history: 0xd941_801f_f9ff_4e94,
            timeline: 0xe59b_2cb7_6247_2b25,
            objects: 0xed26_c258_9299_aea4,
            namespace: 0xd930_97ec_1d49_ed6e,
            watermark: 0x817b_bea2_7151_c801,
            // Re-recorded when the mdlog began writing a run of frames per
            // store call (0xd29b…300c before): `rados.store.write_ops` and
            // `rados.osd.1.ops` count object writes, and nothing else moved.
            metrics_json: 0x9b9d_5a27_191f_3317,
        },
        "script digests: {got:#018x?}"
    );
}
