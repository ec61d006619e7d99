//! Counting global allocator: exact allocation calls, bytes requested and
//! the high-water mark of live heap bytes.
//!
//! Counters are per thread (const-initialised thread-locals, so the
//! allocator itself never allocates): the benchmark drives the stack from
//! one thread and reads that thread's counters, and parallel `cargo test`
//! threads cannot disturb each other's exact counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator the benchmark binary installs as `#[global_allocator]`.
pub struct CountingAlloc;

/// One thread's allocation counters at an instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Bytes requested by those calls (a `realloc` counts its new size).
    pub bytes: u64,
    /// Bytes currently allocated and not yet freed.
    pub live: u64,
    /// Highest value `live` has reached since the last [`reset_peak`].
    pub peak: u64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { calls: 0, bytes: 0, live: 0, peak: 0 })
    };
}

fn record(requested: u64, freed: u64, grown: u64) {
    // `try_with`: allocations made while a thread tears down its
    // thread-locals are simply not counted.
    let _ = COUNTS.try_with(|c| {
        let mut v = c.get();
        if requested > 0 {
            v.calls += 1;
            v.bytes += requested;
        }
        v.live = v.live.saturating_sub(freed) + grown;
        v.peak = v.peak.max(v.live);
        c.set(v);
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds bookkeeping on a thread-local `Cell`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(layout.size() as u64, 0, layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record(layout.size() as u64, 0, layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) };
        record(0, layout.size() as u64, 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record(new_size as u64, layout.size() as u64, new_size as u64);
        }
        p
    }
}

/// The calling thread's counters.
pub fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

/// Restarts the calling thread's high-water mark from its current live
/// bytes.
pub fn reset_peak() {
    COUNTS.with(|c| {
        let mut v = c.get();
        v.peak = v.live;
        c.set(v);
    });
}

/// Calls and bytes between two readings of the same thread.
pub fn delta(before: Counts, after: Counts) -> (u64, u64) {
    (after.calls - before.calls, after.bytes - before.bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_sequence_exactly() {
        let before = counts();
        let a = vec![0u8; 1000]; // 1 call, 1000 bytes
        let mut b: Vec<u64> = Vec::with_capacity(4); // 1 call, 32 bytes
        b.extend_from_slice(&[1, 2, 3, 4]);
        b.reserve_exact(4); // realloc: 1 call, 64 bytes
        let mid = counts();
        assert_eq!(delta(before, mid), (3, 1000 + 32 + 64));
        assert_eq!(mid.live - before.live, 1000 + 64);
        drop(a);
        drop(b);
        let after = counts();
        assert_eq!(after.live, before.live);
        assert_eq!(delta(mid, after), (0, 0));
    }

    #[test]
    fn peak_is_a_high_water_mark() {
        reset_peak();
        let base = counts().live;
        let big = vec![0u8; 1 << 20];
        drop(big);
        let small = vec![0u8; 1 << 10];
        let c = counts();
        assert_eq!(c.live - base, 1 << 10);
        assert!(c.peak - base >= 1 << 20, "peak {} base {base}", c.peak);
        drop(small);
        reset_peak();
        assert_eq!(counts().peak, counts().live);
    }
}
