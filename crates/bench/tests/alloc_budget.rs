//! The per-op allocation budget of the two create paths, as a test: a warm
//! `RpcCreateProcess` step (RPC funnel, default mdlog, obs attached) and a
//! warm `DecoupledCreateProcess` step, counted with a counting
//! `#[global_allocator]`.
//!
//! One test function, so no other test thread allocates while a region is
//! being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cudele_bench::world::{DecoupledCreateProcess, RpcCreateProcess, World};
use cudele_mds::{ClientId, MetadataServer};
use cudele_rados::InMemoryStore;
use cudele_sim::{Nanos, Process, Step};
use cudele_workloads::client_dir;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a relaxed counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls made while `f` runs.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_create_steps_stay_within_the_allocation_budget() {
    let mut world = World::new(MetadataServer::new(
        Arc::new(InMemoryStore::paper_default()),
    ));
    let dirs = world.setup_private_dirs(4);
    let mut clients: Vec<(Nanos, RpcCreateProcess)> = (0..4)
        .map(|c| {
            let p = RpcCreateProcess::new(&mut world, c, dirs[c as usize], u64::MAX);
            (Nanos::ZERO, p)
        })
        .collect();
    // The engine's loop without the engine: step whoever wakes first.
    let mut step = |world: &mut World| {
        let (at, p) = clients.iter_mut().min_by_key(|(at, _)| *at).unwrap();
        match p.step(*at, world) {
            Step::ResumeAt(next) => *at = next,
            _ => unreachable!("the clients never run out of creates"),
        }
    };
    for _ in 0..3_000 {
        step(&mut world);
    }
    // What a warm create has to allocate is its dentry's name: the request,
    // the event it logs, its history row, its span arg and its costs all
    // borrow or sit inline. On top of that comes amortised growth — a
    // table doubling, a dentry chunk, a sealed mdlog segment — one at a
    // time, except on the step that opens a new 5 ms timeline window in
    // every series it samples (each latency window boxes its buckets).
    let per_step: Vec<u64> = (0..2_000).map(|_| allocs(|| step(&mut world))).collect();
    let total: u64 = per_step.iter().sum();
    assert!(
        total <= 3_000,
        "{total} allocations in 2000 warm rpc creates (budget 1.5 per create)"
    );
    let above = |n: u64| per_step.iter().filter(|&&a| a > n).count();
    assert!(
        above(2) <= 40 && above(8) == 0,
        "steps above dentry + one growth: {} (of 2000), above 8: {}",
        above(2),
        above(8)
    );

    // A lookup that misses — what every cold client's create starts with —
    // formats no error message nobody reads: a hundred of them allocate at
    // most the history log's growth.
    let misses = allocs(|| {
        for _ in 0..100 {
            let found = world.server.lookup(ClientId(0), dirs[0], "absent");
            assert_eq!(found.result.unwrap(), None);
        }
    });
    assert!(misses <= 2, "{misses} allocations in 100 lookup misses");

    // A decoupled create owns its name once — in the journal event the
    // client keeps for the merge; the local mirror is folded from that
    // journal only when the client reads it — and a step is a batch of
    // 1000 of them.
    world.server.setup_dir(&client_dir(9)).unwrap();
    let mut p = DecoupledCreateProcess::new(&mut world, 9, &client_dir(9), 1 << 20);
    let mut at = Nanos::ZERO;
    let mut step = |world: &mut World| match p.step(at, world) {
        Step::ResumeAt(next) => at = next,
        _ => unreachable!("the client never runs out of creates"),
    };
    for _ in 0..3 {
        step(&mut world);
    }
    for _ in 0..4 {
        let batch = allocs(|| step(&mut world));
        assert!(
            batch <= 1_100,
            "{batch} allocations in a 1000-create decoupled step (budget 1.1 per create)"
        );
    }

    // A listing is one name arena and one row table, whatever its length.
    let big = world.server.setup_dir("/listed").unwrap();
    for i in 0..1_000 {
        world
            .server
            .create(ClientId(0), big, &format!("file.{i}"))
            .result
            .unwrap();
    }
    let mut listed = 0;
    let readdir = allocs(|| listed = world.server.readdir(ClientId(0), big).result.unwrap().len());
    assert_eq!(listed, 1_000);
    assert!(
        readdir <= 4,
        "{readdir} allocations in a readdir of 1000 entries"
    );
}
