//! The checkpoint tier's headline guarantee, asserted directly: recovery
//! replay is bounded by one image span — five checkpoint intervals — NOT
//! by the workload length. CI's `recovery-bound` job runs exactly this
//! binary.
//!
//! Method: run the same checkpointed failover drill at 1x, 2x, and 4x
//! workload sizes and require the replayed journal tail to stay flat
//! (within one image span plus one dispatch window of slack), while a
//! checkpoint-free control replays the whole journal and scales linearly.
//! The same drill over a namespace that does not grow, counted with a
//! per-thread counting allocator, shows the covered prefix costs a takeover
//! no allocation either: it is verified, never materialized.

use std::sync::Arc;

use cudele_mds::{CheckpointConfig, ClientId, FailoverReport, MdLogConfig, MdsCluster};
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

// ---------------------------------------------------------------------
// What a takeover allocates: flat in the covered prefix.
// ---------------------------------------------------------------------

/// Allocation calls made on the current thread. Thread-local, so the other
/// tests of this binary, each on its own thread, never count here.
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    fn bump() {
        // `try_with`: the slot is gone while the thread tears down.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }

    pub struct Counting;

    // SAFETY: defers every operation to `System` unchanged; the only
    // addition is a bump of a const-initialised, destructor-free
    // thread-local, which allocates nothing.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            bump();
            System.alloc(layout)
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            bump();
            System.alloc_zeroed(layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            bump();
            System.realloc(ptr, layout, new_size)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    /// Allocation calls this thread makes while `f` runs.
    pub fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = ALLOCS.with(Cell::get);
        let out = f();
        (out, ALLOCS.with(Cell::get) - before)
    }
}

#[global_allocator]
static GLOBAL: counting::Counting = counting::Counting;

/// Creates past the last image in [`churn_drill`]: the fixed tail.
const TAIL: u64 = 40;

/// The drill's shape with a namespace that does not grow: `rounds` of
/// create-then-unlink (so every checkpoint image holds one directory,
/// however long the journal), then [`TAIL`] creates no image covers,
/// flushed, then the active MDS crashed. Returns the takeover report and
/// what the standby's promotion allocated.
fn churn_drill(rounds: u64) -> (FailoverReport, u64) {
    let mut cluster = MdsCluster::new(
        Arc::new(InMemoryStore::paper_default()),
        CostModel::calibrated(),
        Some(MdLogConfig {
            events_per_segment: SEGMENT,
            dispatch_size: DISPATCH,
            trim_after_updates: None,
        }),
    );
    cluster
        .enable_checkpoints(CheckpointConfig {
            interval_events: INTERVAL,
        })
        .unwrap();
    cluster.active_mut().open_session(ClientId(0));
    let dir = cluster.active_mut().setup_dir_durable("/churn").unwrap();
    for i in 0..rounds {
        let name = format!("f{i}");
        let mds = cluster.active_mut();
        mds.create(ClientId(0), dir, &name).result.unwrap();
        mds.unlink(ClientId(0), dir, &name).result.unwrap();
    }
    for i in 0..TAIL {
        let mds = cluster.active_mut();
        mds.create(ClientId(0), dir, &format!("t{i}"))
            .result
            .unwrap();
    }
    cluster.active_mut().flush_journal();
    cluster.advance_to(Nanos::from_millis(5)).unwrap();
    cluster.crash_active();
    let ((), allocs) = counting::allocs(|| cluster.advance_to(Nanos::from_millis(60)).unwrap());
    let report = cluster.reports().first().copied().expect("crash detected");
    (report, allocs)
}

/// A manifest takeover verifies the covered journal prefix without keeping
/// anything from it: at 1x, 2x and 4x the journal length, with the image
/// and the tail fixed, it allocates the same to within `SLACK`. (Decoding
/// the prefix into owned events costs one allocation per covered name, a
/// few thousand here.)
#[test]
fn takeover_allocations_do_not_scale_with_the_covered_prefix() {
    /// Growth of the few vectors whose size is not fixed by the tail.
    const SLACK: u64 = 16;
    // An image is cut every third dispatch window — 96 journaled ops — and
    // a round is two, so multiples of 48 rounds end the churn at the same
    // point of that cycle: every size has the same tail past its image.
    let runs: Vec<(u64, FailoverReport, u64)> = [480u64, 960, 1920]
        .into_iter()
        .map(|rounds| {
            let (r, allocs) = churn_drill(rounds);
            (rounds, r, allocs)
        })
        .collect();
    let (_, first, base) = runs[0];
    for (rounds, r, allocs) in &runs {
        assert!(
            r.takeover.manifest_epoch > 0,
            "{rounds} rounds: no manifest"
        );
        assert_eq!(
            (r.takeover.replayed_events, r.takeover.checkpoint_events),
            (
                first.takeover.replayed_events,
                first.takeover.checkpoint_events
            ),
            "{rounds} rounds: the tail and image must not move with the prefix"
        );
        assert!(
            r.takeover.replayed_events > TAIL,
            "{rounds} rounds: the tail holds the fixed creates"
        );
        assert!(
            allocs.abs_diff(base) <= SLACK,
            "{rounds} rounds: {allocs} allocations against {base} at {} rounds",
            runs[0].0
        );
    }
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
