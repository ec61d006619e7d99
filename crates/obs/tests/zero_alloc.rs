//! The recording calls that run once per simulated op must not allocate
//! once warm: a sample into an existing window, a sample dropped at the
//! window cap, a span dropped at the span cap, and a mechanism
//! observation — through handles and through the name-keyed shims alike —
//! a retained span with an arg, a history row with a borrowed name, and a
//! scheduler push/pop once its bucket buffers are in circulation.
//!
//! One test function, so no other test thread allocates while a region is
//! being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cudele_obs::history::{HistoryEvent, HistoryOp, HistoryResult, HistoryScope};
use cudele_obs::{observe_mechanism_at, Registry};
use cudele_sim::{CalendarQueue, Nanos};

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
fn warm_recording_paths_do_not_allocate() {
    const WINDOW: u64 = 1_000;
    let reg = Registry::with_span_capacity(2);
    let tl = reg.timeline();
    tl.configure(Nanos(WINDOW), 2);
    let ops = tl.series("ops");
    let depth = tl.series("depth");
    let lat = tl.series("lat");

    // Warm-up: fill both windows of every series, resolve the mechanism
    // and register its metrics.
    for w in 0..2 {
        let t = Nanos(w * WINDOW);
        ops.add(t, 1);
        depth.set(t, 1.0);
        lat.sample(t, 500, 1);
    }
    let rpcs = reg.mechanism("rpcs");
    let create = reg.span_name("create", "client_op");
    let root = reg.trace_root(0);
    rpcs.observe(&reg, reg.trace_child(root), Nanos(0), Nanos(10));

    // A sample into an existing window.
    let hit = Nanos(WINDOW + 7);
    assert_eq!(allocs(|| ops.add(hit, 3)), 0, "rate hit, handle");
    assert_eq!(allocs(|| depth.set(hit, 2.0)), 0, "gauge hit, handle");
    assert_eq!(allocs(|| lat.sample(hit, 900, 2)), 0, "latency hit, handle");
    assert_eq!(allocs(|| tl.add("ops", hit, 3)), 0, "rate hit, name");
    assert_eq!(
        allocs(|| tl.gauge_at("depth", hit, 2.0)),
        0,
        "gauge hit, name"
    );
    assert_eq!(
        allocs(|| tl.sample_traced("lat", hit, 900, 2)),
        0,
        "latency hit, name"
    );

    // A sample dropped at capacity.
    let past = Nanos(9 * WINDOW);
    let dropped = tl.dropped();
    assert_eq!(allocs(|| ops.add(past, 3)), 0, "rate drop, handle");
    assert_eq!(
        allocs(|| lat.sample(past, 900, 2)),
        0,
        "latency drop, handle"
    );
    assert_eq!(allocs(|| tl.add("ops", past, 3)), 0, "rate drop, name");
    assert_eq!(
        allocs(|| tl.sample_traced("lat", past, 900, 2)),
        0,
        "latency drop, name"
    );
    assert_eq!(tl.dropped() - dropped, 3 + 1 + 3 + 1);

    // The span log (capacity 2) is full after one more span; from here on
    // every span is dropped.
    let ctx = reg.trace_child(root);
    reg.end_named(ctx, create, Nanos(0), Nanos(1));
    assert_eq!((reg.span_count(), reg.spans_dropped()), (2, 0));

    // A span dropped at capacity: nothing is built, args included.
    assert_eq!(
        allocs(|| reg.end_named(ctx, create, Nanos(0), Nanos(1))),
        0,
        "span drop, handle"
    );
    assert_eq!(
        allocs(|| reg.end_named_with(ctx, create, Nanos(0), Nanos(1), "file", "f")),
        0,
        "span drop, handle, with an arg"
    );
    assert_eq!(
        allocs(|| {
            reg.child_span(ctx, "mds.service", "mds", Nanos(0), Nanos(1));
        }),
        0,
        "span drop, name never seen before"
    );
    assert_eq!(
        allocs(|| rpcs.observe(&reg, ctx, Nanos(0), Nanos(10))),
        0,
        "mechanism, handle"
    );
    assert_eq!(
        allocs(|| observe_mechanism_at(&reg, "rpcs", ctx, Nanos(0), Nanos(10))),
        0,
        "mechanism, name"
    );
    assert_eq!(reg.spans_dropped(), 5);
    assert_eq!(reg.counter_value("core.mechanism.rpcs.runs"), Some(3));

    // With room in the log a retained span is one `Vec` push: a thousand
    // observations allocate only when the `Vec` doubles.
    let roomy = Registry::new();
    let rpcs = roomy.mechanism("rpcs");
    let ctx = roomy.trace_root(0);
    rpcs.observe(&roomy, ctx, Nanos(0), Nanos(10));
    let growths = allocs(|| {
        for _ in 0..1_000 {
            rpcs.observe(&roomy, ctx, Nanos(0), Nanos(10));
        }
    });
    assert!(
        growths <= 10,
        "{growths} allocations for 1000 retained spans"
    );
    assert_eq!(roomy.span_count(), 1_001);

    // A retained span *with* an arg is a push into the span table, one
    // into the arg table and the value's bytes into the arena; a history
    // row is a push plus the name's bytes. Once those have grown (each
    // doubles, so a thousand records leave room for ten more) neither
    // allocates — the name is borrowed all the way in.
    let create = roomy.span_name("create", "client_op");
    let row = |name| HistoryEvent {
        client: 1,
        scope: HistoryScope::Global,
        op: HistoryOp::Create { dir: 1, name },
        result: HistoryResult::Ok,
        ino: 7,
        invoke: Nanos(0),
        ack: Nanos(1),
        epoch: 1,
        trace_id: ctx.trace_id,
    };
    roomy.end_named_with(ctx, create, Nanos(0), Nanos(1), "ops", 7u64);
    for _ in 0..1_000 {
        roomy.end_named_with(ctx, create, Nanos(0), Nanos(1), "file", "f");
        roomy.record_history_row(row("f"));
    }
    for _ in 0..10 {
        assert_eq!(
            allocs(|| roomy.end_named_with(ctx, create, Nanos(0), Nanos(1), "file", "f")),
            0,
            "retained span with a borrowed arg"
        );
        assert_eq!(
            allocs(|| roomy.end_named_with(ctx, create, Nanos(0), Nanos(1), "ops", 7u64)),
            0,
            "retained span with a formatted arg"
        );
        assert_eq!(
            allocs(|| roomy.record_history_row(row("f"))),
            0,
            "history row with a borrowed name"
        );
    }
    assert_eq!(roomy.history_count(), 1_010);

    // The scheduler: a closed-loop client pops its wake-up and pushes the
    // next a few microseconds on. A drained bucket's buffer goes to the
    // next bucket that fills, so once a stretch has cascaded through the
    // coarser wheel (60 ms crosses three level-1 buckets) there are
    // buffers enough and a push allocates nothing.
    let mut q = CalendarQueue::new();
    let mut seq = 0;
    let mut stretch = || {
        for _ in 0..20_000 {
            seq += 1;
            q.push(Nanos(seq * 3_000), seq, 0);
            assert_eq!(q.pop(), Some((Nanos(seq * 3_000), seq, 0)));
        }
    };
    stretch();
    assert_eq!(allocs(stretch), 0, "scheduler, warm");
}
