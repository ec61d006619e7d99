//! A namespace as deep as a journal or a client makes it. The
//! whole-namespace walk behind `snapshot()` / `shape()` keeps its own
//! stack, so no chain of directories can overflow the thread's.
//!
//! In a file of its own: a recursive walk does not fail this test, it
//! aborts the process ("has overflowed its stack").

use cudele_journal::{Attrs, FileType, InodeId};
use cudele_mds::MetadataStore;

/// `/d/d/…/d`, `depth` directories deep.
fn chain(depth: u64) -> MetadataStore {
    let mut s = MetadataStore::new();
    let mut parent = InodeId::ROOT;
    for i in 0..depth {
        let ino = InodeId(0x1000 + i);
        s.mkdir(parent, "d", ino, Attrs::dir_default()).unwrap();
        parent = ino;
    }
    s
}

/// The walk runs on a 64 KiB stack, which a recursive walk exhausts within
/// a few hundred levels. The snapshot owns every path, and those grow with
/// the square of the depth, so the chain stops at 4 000 levels (16 MB of
/// paths): the bound under test is the stack, not the heap.
#[test]
fn a_chain_deeper_than_the_stack_snapshots_whole() {
    const DEPTH: usize = 4_000;
    let s = chain(DEPTH as u64);
    let walked = std::thread::Builder::new()
        .stack_size(64 << 10)
        .spawn(move || {
            let snap = s.snapshot();
            let shape = s.shape();
            let deepest = snap.keys().max_by_key(|p| p.len()).cloned();
            (
                snap.len(),
                shape.len(),
                deepest.map(|p| (p.len(), snap[&p])),
            )
        })
        .unwrap()
        .join()
        .expect("the walk finished on a 64 KiB stack");
    let deepest = (
        2 * DEPTH,
        (InodeId(0x1000 + DEPTH as u64 - 1), FileType::Dir),
    );
    assert_eq!(walked, (DEPTH, DEPTH, Some(deepest)));
}
