//! The checkpoint tier's headline guarantee, asserted directly: recovery
//! replay is bounded by one image span — five checkpoint intervals — NOT
//! by the workload length. CI's `recovery-bound` job runs exactly this
//! binary.
//!
//! Method: run the same checkpointed failover drill at 1x, 2x, and 4x
//! workload sizes and require the replayed journal tail to stay flat
//! (within one image span plus one dispatch window of slack), while a
//! checkpoint-free control replays the whole journal and scales linearly.

use std::sync::Arc;

use cudele_mds::{
    CheckpointConfig, ClientId, FailoverConfig, FailoverReport, MdLogConfig, MdsCluster,
};
use cudele_rados::InMemoryStore;
use cudele_sim::{CostModel, Nanos};

const INTERVAL: u64 = 16;
/// Flushed events between two images: `mds::checkpoint` cuts one every five
/// intervals, and the journal past the last one is what recovery replays.
const IMAGE_SPAN: u64 = 5 * INTERVAL;
const SEGMENT: usize = 16;
const DISPATCH: u32 = 2;

/// Create `files` files, flush, crash the active MDS, and return the
/// takeover report from the standby promotion.
fn drill(files: u64, checkpoints: bool) -> FailoverReport {
    let mut cluster = MdsCluster::new(
        Arc::new(InMemoryStore::paper_default()),
        CostModel::calibrated(),
        Some(MdLogConfig {
            events_per_segment: SEGMENT,
            dispatch_size: DISPATCH,
            trim_after_updates: None,
        }),
        FailoverConfig::default(),
    );
    if checkpoints {
        cluster
            .enable_checkpoints(CheckpointConfig {
                interval_events: INTERVAL,
            })
            .unwrap();
    }
    cluster.active_mut().open_session(ClientId(0));
    let dir = cluster.active_mut().setup_dir_durable("/bound").unwrap();
    for i in 0..files {
        cluster
            .active_mut()
            .create(ClientId(0), dir, &format!("f{i}"))
            .result
            .unwrap();
    }
    cluster.active_mut().flush_journal();
    cluster.advance_to(Nanos::from_millis(5)).unwrap();
    cluster.crash_active();
    cluster.advance_to(Nanos::from_millis(60)).unwrap();
    cluster.reports().first().copied().expect("crash detected")
}

#[test]
fn replay_is_bounded_by_the_interval_not_the_workload() {
    let sizes = [300u64, 600, 1200];
    let reports: Vec<FailoverReport> = sizes.iter().map(|&n| drill(n, true)).collect();

    // Every run checkpointed (the workloads dwarf the image span) and the
    // replayed tail fits in one image span plus the dispatch window the
    // pass that cut the last image may have overshot by (each segment
    // carries one boundary event) — at every size.
    let bound = IMAGE_SPAN + u64::from(DISPATCH) * (SEGMENT as u64 + 1);
    for (&files, r) in sizes.iter().zip(&reports) {
        assert!(
            r.takeover.manifest_epoch > 0,
            "{files} files: no manifest published"
        );
        assert!(
            r.takeover.replayed_events < bound,
            "{files} files: replayed {} events, bound is {bound}",
            r.takeover.replayed_events
        );
        assert_eq!(r.takeover.manifest_fallbacks, 0);
    }

    // Flat across a 4x workload spread: the tail may wobble by where the
    // last image cut fell, but never by the workload delta.
    let replays: Vec<u64> = reports.iter().map(|r| r.takeover.replayed_events).collect();
    let (min, max) = (
        *replays.iter().min().unwrap(),
        *replays.iter().max().unwrap(),
    );
    assert!(
        max - min < IMAGE_SPAN,
        "replay scales with workload: {replays:?}"
    );

    // What the manifest materialized *does* scale — that is the work the
    // replay no longer pays.
    let covered: Vec<u64> = reports
        .iter()
        .map(|r| r.takeover.checkpoint_events)
        .collect();
    assert!(
        covered.windows(2).all(|w| w[1] > w[0]),
        "manifest coverage should grow with the workload: {covered:?}"
    );
}

#[test]
fn full_replay_control_scales_linearly() {
    let small = drill(300, false);
    let large = drill(1200, false);
    assert_eq!(small.takeover.manifest_epoch, 0);
    assert_eq!(large.takeover.manifest_epoch, 0);
    // Without checkpoints the replayed tail IS the workload (creates plus
    // setup/boundary events), so 4x the files means ~4x the replay.
    assert!(
        large.takeover.replayed_events >= 3 * small.takeover.replayed_events,
        "control did not scale: {} vs {}",
        small.takeover.replayed_events,
        large.takeover.replayed_events
    );
    // And the checkpointed run at the same size replays a tiny fraction.
    let ckpt = drill(1200, true);
    assert!(
        ckpt.takeover.replayed_events * 10 < large.takeover.replayed_events,
        "checkpoints saved too little: {} vs {}",
        ckpt.takeover.replayed_events,
        large.takeover.replayed_events
    );
}
