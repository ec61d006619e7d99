//! The per-op allocation budget of the two create paths, as a test: a warm
//! `RpcCreateProcess` step (RPC funnel, default mdlog, obs attached), a
//! warm `DecoupledCreateProcess` step, a blind batch apply (what merge
//! and replay run) and an open-loop arrival (mount, session, one create),
//! counted with a counting `#[global_allocator]`.
//!
//! One test function, so no other test thread allocates while a region is
//! being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cudele_bench::open_loop_run::run_open_loop;
use cudele_bench::world::{DecoupledCreateProcess, RpcCreateProcess, World};
use cudele_journal::{Attrs, InodeId, JournalEvent};
use cudele_mds::{ClientId, MetadataServer, MetadataStore};
use cudele_rados::InMemoryStore;
use cudele_sim::{Nanos, Process, Step};
use cudele_workloads::client_dir;
use cudele_workloads::open_loop::ArrivalSpec;

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
    // A warm create has nothing of its own to allocate: the request, the
    // event it logs, its history row, its span arg and its costs borrow or
    // sit inline, and the dentry's name is copied into its directory's name
    // block. What is left is amortised growth — a table doubling, a dentry
    // chunk, a name block, a sealed mdlog segment, a series' window vector
    // — one at a time. Opening a 5 ms timeline window allocates nothing: a
    // latency window's sketch counts its few buckets inline.
    let per_step: Vec<u64> = (0..2_000).map(|_| allocs(|| step(&mut world))).collect();
    let total: u64 = per_step.iter().sum();
    assert!(
        total <= 150,
        "{total} allocations in 2000 warm rpc creates (budget 0.075 per create)"
    );
    let above = |n: u64| per_step.iter().filter(|&&a| a > n).count();
    assert!(
        above(2) <= 10 && above(8) == 0,
        "steps above two growths: {} (of 2000), above 8: {}",
        above(2),
        above(8)
    );

    // Merge and replay pay per block, not per dentry: 60 000 creates spread
    // round-robin over 16 directories (no run for `apply_blind_all` to
    // reserve ahead of), applied blindly into a fresh store, allocate the
    // inode table's index once and its 1 024-inode chunks as they fill
    // (the first grows by doubling), then dentry chunks, name blocks and
    // index doublings.
    let mut events: Vec<JournalEvent> = (0..16)
        .map(|d| JournalEvent::Mkdir {
            parent: InodeId::ROOT,
            name: format!("d{d}"),
            ino: InodeId(0x100 + d),
            attrs: Attrs::dir_default(),
        })
        .collect();
    events.extend((0..60_000).map(|i| JournalEvent::Create {
        parent: InodeId(0x100 + i % 16),
        name: format!("file.{i}"),
        ino: InodeId(0x1_0000 + i),
        attrs: Attrs::file_default(),
    }));
    let mut store = MetadataStore::new();
    let merged = allocs(|| {
        store.apply_blind_all(&events);
    });
    assert_eq!(store.inode_count(), 1 + events.len());
    assert!(
        merged * 20 < 60_000,
        "{merged} allocations in a blind batch of 60000 creates (budget 0.05 per create)"
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

    // A listing is one name arena and one row table, whatever its length:
    // the row table is the name order's key vector, collected in place.
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
    assert_eq!(
        readdir, 2,
        "{readdir} allocations in a readdir of 1000 entries"
    );

    // An open-loop arrival is a client that mounts, opens a session, takes
    // one inode grant and creates one file in a shared hot directory. It
    // owns nothing on the heap — its cap belief and its session's working
    // range sit inline, its obs handles are the world's — so what a longer
    // run adds is amortised growth: table chunks and doublings, name
    // blocks, sealed mdlog segments.
    let spec = ArrivalSpec::parse("poisson:rate=5000,zipf=1.1,dirs=64,seed=7").unwrap();
    let open_loop = |arrivals: u32| {
        let world = World::new(MetadataServer::new(
            Arc::new(InMemoryStore::paper_default()),
        ));
        let mut failed = 0;
        let n = allocs(|| {
            failed = run_open_loop(world, &spec, arrivals, 1, false)
                .unwrap()
                .failed_ops
        });
        assert_eq!(failed, 0);
        n
    };
    let (short, long) = (open_loop(2_000), open_loop(4_000));
    let per_arrival = long.saturating_sub(short) as f64 / 2_000.0;
    assert!(
        per_arrival <= 0.5,
        "{per_arrival} allocations per extra open-loop arrival ({short} for 2000, {long} for 4000)"
    );
}
