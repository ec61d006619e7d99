//! Conditional registration: `metrics_json` prints every registered name,
//! even at 0, so a layer that a run never exercises must register nothing.
//! Each case reads the snapshot's keys for a run that skips the layer and
//! for one that uses it, so neither half passes vacuously.

use std::sync::Arc;

use cudele_bench::world::{CreateKind, World};
use cudele_mds::{CheckpointConfig, ClientId, MdLogConfig, MdsCluster, MetadataServer};
use cudele_obs::json::{self, Value};
use cudele_obs::Registry;
use cudele_rados::InMemoryStore;
use cudele_sim::{CostModel, Nanos};

/// Every name in `reg`'s metrics snapshot.
fn names(reg: &Registry) -> Vec<String> {
    let doc = json::parse(&reg.metrics_json()).expect("metrics snapshot parses");
    ["counters", "gauges", "histograms"]
        .iter()
        .flat_map(|kind| {
            doc.get(kind)
                .and_then(Value::as_obj)
                .unwrap_or_default()
                .iter()
                .map(|(name, _)| name.clone())
        })
        .collect()
}

fn has(reg: &Registry, prefix: &str) -> bool {
    names(reg).iter().any(|n| n.starts_with(prefix))
}

fn small_mdlog() -> MdLogConfig {
    MdLogConfig {
        events_per_segment: 8,
        dispatch_size: 2,
        trim_after_updates: None,
    }
}

/// A closed-loop create phase of `kind` on a fresh world.
fn phase(mdlog: Option<MdLogConfig>, kind: CreateKind) -> World {
    World::calibrated(mdlog).run_creates(2, 200, kind).world
}

#[test]
fn a_journal_off_server_registers_no_mdlog_or_writer_names() {
    let off = phase(None, CreateKind::Rpc);
    assert!(!has(&off.obs, "mds.mdlog."));
    assert!(!has(&off.obs, "journal.writer."));
    let on = phase(Some(small_mdlog()), CreateKind::Rpc);
    assert!(has(&on.obs, "mds.mdlog."));
    assert!(has(&on.obs, "journal.writer."));
}

#[test]
fn a_run_that_never_checkpointed_registers_no_ckpt_names() {
    let plain = phase(Some(small_mdlog()), CreateKind::Rpc);
    assert!(!has(&plain.obs, "mds.ckpt."));

    let mut server = MetadataServer::with_config(
        Arc::new(InMemoryStore::paper_default()),
        CostModel::calibrated(),
        Some(small_mdlog()),
    );
    server
        .enable_checkpoints(CheckpointConfig { interval_events: 8 })
        .unwrap();
    let checkpointed = World::new(server)
        .run_creates(2, 200, CreateKind::Rpc)
        .world;
    assert!(has(&checkpointed.obs, "mds.ckpt.checkpoints"));
}

#[test]
fn a_run_with_no_merge_registers_no_merge_latency() {
    let rpc = phase(Some(small_mdlog()), CreateKind::Rpc);
    assert!(!names(&rpc.obs).contains(&"bench.merge_latency.ns".to_string()));

    let p = World::calibrated(Some(small_mdlog())).run_creates(2, 200, CreateKind::Decoupled);
    let (mut world, end) = (p.world, p.report.slowest());
    world.merge_journals(p.journals, end);
    assert!(names(&world.obs).contains(&"bench.merge_latency.ns".to_string()));
}

/// A two-client cluster run: creates, then (when `crash`) a failover and
/// one client's reconnect to the promoted primary.
fn cluster_run(crash: bool) -> Arc<Registry> {
    let mut cluster = MdsCluster::new(
        Arc::new(InMemoryStore::paper_default()),
        CostModel::calibrated(),
        Some(small_mdlog()),
    );
    let reg = Arc::new(Registry::new());
    cluster.attach_obs(&reg);
    let c = ClientId(1);
    cluster.active_mut().open_session(c);
    let dir = cluster.active_mut().setup_dir_durable("/d").unwrap();
    for i in 0..100 {
        cluster
            .active_mut()
            .create(c, dir, &format!("f{i}"))
            .expect_ok();
    }
    cluster.active_mut().flush_journal();
    if crash {
        cluster.crash_active();
    }
    cluster.advance_to(Nanos::from_millis(60)).unwrap();
    if crash {
        cluster.active_mut().reconnect_session(c, &[]).expect_ok();
    }
    reg
}

#[test]
fn a_cluster_that_never_failed_over_registers_no_failover_or_reconnect_names() {
    let calm = cluster_run(false);
    assert!(!has(&calm, "mds.failover."));
    assert!(!has(&calm, "mds.session.reconnects"));
    assert!(has(&calm, "monitor.failovers"));

    let failed = cluster_run(true);
    assert!(has(&failed, "mds.failover.takeovers"));
    assert!(has(&failed, "mds.session.reconnects"));
}
