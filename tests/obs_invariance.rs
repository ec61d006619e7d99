//! Obs never changes the model. One seeded schedule drives every layer a
//! registry can attach to — RPC creates, lookups and renames; a decoupled
//! client's appends and its Volatile Apply merge; a Nonvolatile Apply merge
//! through the executor; checkpoints, an in-place `crash_and_recover` and a
//! standby takeover — once with no handles anywhere and once with every
//! layer attached. Both runs must leave the same namespaces and answer the
//! same replies at the same costs. The schedule runs twice more with its
//! Nonvolatile Apply merge over a seeded transient-fault store, where the
//! merge's traced retry paths run.

use std::sync::Arc;

use cudele::{execute_merge_at, Composition, ExecEnv, MergeObs};
use cudele_client::{DecoupledClient, LocalDisk, RpcClient, RpcObs};
use cudele_faults::{wire_faults, FaultConfig};
use cudele_journal::InodeId;
use cudele_mds::{
    CheckpointConfig, ClientId, MdLogConfig, MetadataServer, OpCost, StandbyReplay, TakeoverReport,
};
use cudele_obs::Registry;
use cudele_rados::{FencedStore, FencingAuthority, InMemoryStore, ObjectStore};
use cudele_sim::{CostModel, Nanos};

/// What one run of the schedule observably did.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Every reply, in order, as its `Debug` rendering.
    replies: Vec<String>,
    /// Every charged cost, in order.
    costs: Vec<OpCost>,
    /// The namespace after each phase.
    snapshots: Vec<String>,
    takeover: TakeoverReport,
    /// Transient faults injected into the NVA merge's store.
    eagains: u64,
}

impl Outcome {
    fn reply(&mut self, r: impl std::fmt::Debug) {
        self.replies.push(format!("{r:?}"));
    }

    fn snapshot(&mut self, server: &MetadataServer) {
        self.snapshots
            .push(format!("{:?}", server.store().snapshot()));
    }
}

/// splitmix64: the schedule's only source of choices.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A decoupled client on `path` holding `n` appended creates.
fn decoupled(
    mds: &mut MetadataServer,
    id: ClientId,
    path: &str,
    n: u64,
    reg: Option<&Arc<Registry>>,
) -> DecoupledClient {
    mds.open_session(id);
    let (c, _) = DecoupledClient::decouple(mds, id, path, n);
    let mut c = c.unwrap();
    if let Some(reg) = reg {
        c.attach_obs(reg);
    }
    for i in 0..n {
        c.set_now(Nanos::from_micros(i));
        c.create(c.root, &format!("d{}.{i}", id.0)).unwrap();
    }
    c
}

/// Runs the schedule; with `eagain_ppm` > 0 its NVA merge goes through a
/// transient-fault store seeded by `seed`.
fn run(seed: u64, reg: Option<&Arc<Registry>>, eagain_ppm: u32) -> Outcome {
    let mut out = Outcome {
        replies: Vec::new(),
        costs: Vec::new(),
        snapshots: Vec::new(),
        takeover: TakeoverReport {
            epoch: cudele_rados::Epoch::INITIAL,
            replayed_events: 0,
            healed: false,
            alloc_watermark: InodeId::ROOT,
            manifest_epoch: 0,
            checkpoint_events: 0,
            manifest_fallbacks: 0,
        },
        eagains: 0,
    };
    let base = Arc::new(InMemoryStore::paper_default());
    let shared: Arc<dyn ObjectStore> = base.clone();
    let authority = Arc::new(FencingAuthority::new());
    let mdlog = MdLogConfig {
        events_per_segment: 8,
        dispatch_size: 2,
        trim_after_updates: None,
    };
    let ckpt = CheckpointConfig { interval_events: 8 };
    let mut mds = MetadataServer::with_config(
        Arc::new(FencedStore::new(
            Arc::clone(&shared),
            Arc::clone(&authority),
        )),
        CostModel::calibrated(),
        Some(mdlog),
    );
    // Attached before checkpoints are on, so enabling them hands the
    // manager the server's handles.
    if let Some(reg) = reg {
        mds.attach_obs(reg);
    }
    mds.enable_checkpoints(ckpt).unwrap();

    // RPC creates, lookups and renames over four directories.
    let rpc = ClientId(1);
    let (mut c, cost) = RpcClient::mount(&mut mds, rpc);
    out.costs.push(cost);
    if let Some(reg) = reg {
        c.set_obs(RpcObs::new(reg));
    }
    let dirs: Vec<InodeId> = (0..4)
        .map(|d| mds.setup_dir_durable(&format!("/d{d}")).unwrap())
        .collect();
    let mut rng = seed;
    let mut now = Nanos::ZERO;
    for i in 0..240u64 {
        now += Nanos::from_micros(10);
        mds.set_now(now);
        let dir = dirs[(next(&mut rng) % 4) as usize];
        let other = next(&mut rng) % (i + 1);
        match next(&mut rng) % 3 {
            0 => {
                let o = c.create(&mut mds, dir, &format!("f{i}"));
                out.reply(&o.result);
                out.costs.extend(o.costs.iter().copied());
            }
            1 => {
                let r = mds.lookup(rpc, dir, &format!("f{other}"));
                out.reply(&r.result);
                out.costs.push(r.cost);
            }
            _ => {
                let r = mds.rename(rpc, dir, &format!("f{other}"), dir, &format!("r{i}"));
                out.reply(&r.result);
                out.costs.push(r.cost);
            }
        }
    }
    out.snapshot(&mds);

    // A decoupled client's appends, merged by Volatile Apply.
    let mut vc = decoupled(&mut mds, ClientId(2), "/d0", 40, reg);
    let (result, cost, transfer) = vc.volatile_apply(&mut mds);
    out.reply((&result, transfer));
    out.costs.push(cost);
    out.snapshot(&mds);

    // A Nonvolatile Apply merge through the executor (it recovers the
    // server in place at its end), over a store that may fail transiently.
    let faults = FaultConfig {
        seed,
        eagain_ppm,
        ..Default::default()
    };
    let (faulty, _) = wire_faults(Arc::clone(&base), faults, &CostModel::calibrated());
    let mut nc = decoupled(&mut mds, ClientId(3), "/d1", 30, reg);
    let comp: Composition = "global_persist+nonvolatile_apply".parse().unwrap();
    let merge_obs = reg.map(MergeObs::new);
    let mut disk = LocalDisk::new();
    let report = execute_merge_at(
        &comp,
        &mut nc,
        &mut ExecEnv {
            server: &mut mds,
            os: faulty.as_ref(),
            disk: &mut disk,
        },
        merge_obs.as_ref(),
        3,
        now,
    )
    .unwrap();
    out.reply((report.elapsed, &report.per_mechanism, report.events));
    out.snapshot(&mds);
    out.eagains = faulty.injected().0;

    // More journaled creates, so checkpoints are cut past the recovery.
    for i in 0..200u64 {
        let dir = dirs[(next(&mut rng) % 4) as usize];
        let o = c.create(&mut mds, dir, &format!("late{i}"));
        out.reply(&o.result);
        out.costs.extend(o.costs.iter().copied());
    }
    mds.flush_journal();
    assert!(mds.manifest_epoch() > 0, "the schedule cuts a checkpoint");
    out.reply(mds.manifest_epoch());

    // An in-place crash and recovery.
    mds.fail();
    mds.crash_and_recover().unwrap();
    out.reply(mds.manifest_epoch());
    out.snapshot(&mds);
    let r = mds.create(rpc, dirs[0], "after-recovery");
    out.reply(&r.result);
    out.costs.push(r.cost);
    mds.flush_journal();

    // A standby takeover, then the promoted primary serves.
    let mut standby = StandbyReplay::new(
        Arc::clone(&shared),
        Arc::clone(&authority),
        CostModel::calibrated(),
        Some(mdlog),
    );
    standby.set_checkpoint_config(ckpt);
    if let Some(reg) = reg {
        standby.attach_obs(reg);
    }
    let (mut promoted, takeover) = standby.take_over(authority.bump()).unwrap();
    out.takeover = takeover;
    out.snapshot(&promoted);
    promoted.open_session(rpc);
    for i in 0..50u64 {
        let r = promoted.create(rpc, dirs[(i % 4) as usize], &format!("post{i}"));
        out.reply(&r.result);
        out.costs.push(r.cost);
    }
    out.reply(promoted.manifest_epoch());
    out.snapshot(&promoted);
    out
}

#[test]
fn attaching_every_layer_changes_no_model_byte() {
    for (seed, eagain_ppm) in [(1, 0), (7, 0), (42, 0), (7, 50_000), (42, 50_000)] {
        let reg = Arc::new(Registry::new());
        let bare = run(seed, None, eagain_ppm);
        let observed = run(seed, Some(&reg), eagain_ppm);
        assert_eq!(bare, observed, "seed {seed}, eagain_ppm {eagain_ppm}");
        if eagain_ppm > 0 {
            assert!(bare.eagains > 0, "seed {seed}: no fault fired");
            assert!(reg.counter_value("mds.persist.retries").unwrap() > 0);
        }
        // The attached run really recorded at every layer.
        for name in [
            "mds.rpc.total",
            "client.journal.appends",
            "journal.writer.appends",
            "mds.mdlog.events",
            "rados.store.write_ops",
            "rados.fenced_writes",
            "mds.persist.retries",
            "mds.ckpt.checkpoints",
            "mds.ckpt.recoveries",
            "mds.failover.takeovers",
        ] {
            assert!(reg.counter_value(name).is_some(), "seed {seed}: {name}");
        }
        assert!(reg.counter_value("mds.rpc.total").unwrap() > 0);
        assert_eq!(reg.counter_value("mds.failover.takeovers"), Some(1));
    }
}
