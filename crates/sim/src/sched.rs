//! The engine's event scheduler: a hierarchical calendar queue.
//!
//! The discrete-event engine needs one operation done billions of times:
//! "give me the earliest pending wake-up". A binary heap does that in
//! O(log n) with a comparison-heavy inner loop; at a million concurrent
//! processes the constant matters. This module replaces it with a
//! three-level timing wheel (a calendar queue with power-of-two bucket
//! widths) whose push and pop are amortized O(1) for the short-horizon
//! wake-ups that dominate simulation workloads.
//!
//! # Ordering contract
//!
//! [`CalendarQueue`] pops events in exactly the order the engine's
//! original `BinaryHeap<Reverse<(Nanos, u64, usize)>>` did: ascending
//! `(time, seq)`, where `seq` is the engine's monotone push counter.
//! Because `seq` is unique per event the order is total, so the two
//! structures are observationally identical — every artifact produced
//! under the heap (BENCH model bytes, histories, timelines) is
//! byte-identical under the wheel. `crates/sim/tests/sched_prop.rs`
//! proves this on arbitrary schedules, including same-instant ties and
//! zero-length resumes.
//!
//! # Structure
//!
//! Virtual time is nanoseconds in a `u64`. Three wheel levels bucket the
//! timestamp by successively coarser shifts:
//!
//! * level 0: 4096 buckets of 2^12 ns (~4 us) — spans ~16.8 ms
//! * level 1: 4096 buckets of 2^24 ns (~16.8 ms) — spans ~68.7 s
//! * level 2: 4096 buckets of 2^36 ns (~68.7 s) — spans ~78 h
//!
//! Events inside the *current* level-0 bucket live in a small binary
//! heap (`cur`) so same-bucket ordering is exact; events past the
//! level-2 span live in an overflow heap. A per-level occupancy bitmap
//! (64 words per level) finds the next non-empty bucket with
//! `trailing_zeros`, so advancing over empty buckets is a word scan,
//! not a bucket scan. When the cursor reaches a level-1 (or level-2)
//! bucket its events cascade down one level; each event therefore moves
//! at most three times before it is popped.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// log2 of the bucket count per level.
const BUCKET_BITS: u32 = 12;
/// Buckets per level.
const NUM_BUCKETS: usize = 1 << BUCKET_BITS;
/// Index mask within a level.
const MASK: u64 = (NUM_BUCKETS as u64) - 1;
/// Bit shift of each level's bucket width: level `k` buckets time by
/// `t >> SHIFT[k]`.
const SHIFT: [u32; 3] = [12, 24, 36];
/// Everything at or beyond `cursor >> OVERFLOW_SHIFT` + 1 pages goes to
/// the overflow heap.
const OVERFLOW_SHIFT: u32 = 48;
/// Words in an occupancy bitmap.
const BITMAP_WORDS: usize = NUM_BUCKETS / 64;

/// One scheduled event: `(time, seq, index)` with the same ordering the
/// engine's heap used.
type Ev = (u64, u64, u32);

struct Level {
    buckets: Vec<Vec<Ev>>,
    occupied: [u64; BITMAP_WORDS],
}

impl Level {
    fn new() -> Level {
        Level {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; BITMAP_WORDS],
        }
    }

    /// Adds `ev` to bucket `idx`. An unoccupied bucket owns no memory: it
    /// takes the most recently drained buffer off `spare` (see
    /// [`CalendarQueue::spare`]) before it would allocate one.
    #[inline]
    fn push(&mut self, idx: usize, ev: Ev, spare: &mut Vec<Vec<Ev>>) {
        let bucket = &mut self.buckets[idx];
        if bucket.capacity() == 0 {
            if let Some(buf) = spare.pop() {
                *bucket = buf;
            }
        }
        bucket.push(ev);
        self.occupied[idx >> 6] |= 1u64 << (idx & 63);
    }

    /// Takes the whole bucket, clearing its occupancy bit.
    fn take(&mut self, idx: usize) -> Vec<Ev> {
        self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
        std::mem::take(&mut self.buckets[idx])
    }

    /// Index of the first occupied bucket at or after `from`, if any.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= NUM_BUCKETS {
            return None;
        }
        let mut word = from >> 6;
        let mut bits = self.occupied[word] & (!0u64 << (from & 63));
        loop {
            if bits != 0 {
                return Some((word << 6) + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= BITMAP_WORDS {
                return None;
            }
            bits = self.occupied[word];
        }
    }
}

/// A hierarchical calendar queue over `(Nanos, seq, index)` events.
///
/// Pop order is ascending `(time, seq)` — identical to a min-heap over
/// the same tuples. Pushing an event earlier than the last popped time
/// is a contract violation (the engine already asserts wake-ups are
/// never in the past) and panics in debug builds.
pub struct CalendarQueue {
    levels: [Level; 3],
    /// Events in the current level-0 bucket, popped in exact order.
    cur: BinaryHeap<Reverse<Ev>>,
    /// Events beyond the level-2 span.
    overflow: BinaryHeap<Reverse<Ev>>,
    /// Time of the last popped event (lower bound on everything queued).
    cursor: u64,
    len: usize,
    /// Drained bucket buffers, most recent last, for the next bucket that
    /// becomes occupied. A stack rather than leaving each bucket its own
    /// buffer: the wheel takes a whole turn to come back to a bucket, by
    /// which time its buffer has left the cache, while the buffer drained
    /// a moment ago has not — what the allocator's free list gave the
    /// take-and-drop this replaces, without the call.
    spare: Vec<Vec<Ev>>,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl CalendarQueue {
    /// An empty queue with its cursor at the origin of virtual time.
    pub fn new() -> CalendarQueue {
        CalendarQueue {
            levels: [Level::new(), Level::new(), Level::new()],
            cur: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            cursor: 0,
            len: 0,
            spare: Vec::new(),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules an event. `t` must be at or after the last popped time.
    pub fn push(&mut self, t: Nanos, seq: u64, idx: u32) {
        debug_assert!(
            t.0 >= self.cursor,
            "push into the past: {} < {}",
            t.0,
            self.cursor
        );
        self.len += 1;
        self.place((t.0, seq, idx));
    }

    /// Routes an event to the structure that owns its timestamp given
    /// the current cursor.
    #[inline]
    fn place(&mut self, ev: Ev) {
        let t = ev.0;
        let c = self.cursor;
        if t >> SHIFT[0] == c >> SHIFT[0] {
            // Current level-0 bucket: ordering inside it must be exact.
            self.cur.push(Reverse(ev));
        } else if t >> SHIFT[1] == c >> SHIFT[1] {
            self.levels[0].push(((t >> SHIFT[0]) & MASK) as usize, ev, &mut self.spare);
        } else if t >> SHIFT[2] == c >> SHIFT[2] {
            self.levels[1].push(((t >> SHIFT[1]) & MASK) as usize, ev, &mut self.spare);
        } else if t >> OVERFLOW_SHIFT == c >> OVERFLOW_SHIFT {
            self.levels[2].push(((t >> SHIFT[2]) & MASK) as usize, ev, &mut self.spare);
        } else {
            self.overflow.push(Reverse(ev));
        }
    }

    /// Removes and returns the earliest event, `(time, seq)` order.
    pub fn pop(&mut self) -> Option<(Nanos, u64, u32)> {
        loop {
            if let Some(Reverse(ev)) = self.cur.pop() {
                self.len -= 1;
                self.cursor = ev.0;
                return Some((Nanos(ev.0), ev.1, ev.2));
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// Moves the cursor to the next non-empty bucket, cascading coarser
    /// levels down until `cur` holds the earliest pending bucket.
    fn advance(&mut self) {
        // Next level-0 bucket in the current level-0 page.
        let l0 = ((self.cursor >> SHIFT[0]) & MASK) as usize;
        if let Some(i) = self.levels[0].next_occupied(l0 + 1) {
            let page = self.cursor & !((MASK << SHIFT[0]) | ((1 << SHIFT[0]) - 1));
            self.cursor = page | ((i as u64) << SHIFT[0]);
            let mut bucket = self.levels[0].take(i);
            self.cur.extend(bucket.drain(..).map(Reverse));
            self.spare.push(bucket);
            return;
        }
        // Next level-1 bucket in the current level-1 page: cascade it
        // into level 0 (its earliest sub-bucket lands in `cur`).
        let l1 = ((self.cursor >> SHIFT[1]) & MASK) as usize;
        if let Some(i) = self.levels[1].next_occupied(l1 + 1) {
            let page = self.cursor & !((MASK << SHIFT[1]) | ((1 << SHIFT[1]) - 1));
            self.cursor = page | ((i as u64) << SHIFT[1]);
            let mut bucket = self.levels[1].take(i);
            for ev in bucket.drain(..) {
                self.place(ev);
            }
            self.spare.push(bucket);
            return;
        }
        // Next level-2 bucket in the current level-2 page.
        let l2 = ((self.cursor >> SHIFT[2]) & MASK) as usize;
        if let Some(i) = self.levels[2].next_occupied(l2 + 1) {
            let page = self.cursor & !((MASK << SHIFT[2]) | ((1 << SHIFT[2]) - 1));
            self.cursor = page | ((i as u64) << SHIFT[2]);
            let mut bucket = self.levels[2].take(i);
            for ev in bucket.drain(..) {
                self.place(ev);
            }
            self.spare.push(bucket);
            return;
        }
        // Everything pending is in the overflow heap: jump the cursor to
        // its minimum and re-home every event sharing that overflow page,
        // restoring the invariant that overflow events are beyond the
        // level-2 span.
        let Some(&Reverse((t, _, _))) = self.overflow.peek() else {
            unreachable!("len > 0 but no event found in any structure");
        };
        self.cursor = t;
        while let Some(&Reverse((u, _, _))) = self.overflow.peek() {
            if u >> OVERFLOW_SHIFT != t >> OVERFLOW_SHIFT {
                break;
            }
            let Reverse(ev) = self.overflow.pop().unwrap();
            self.place(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, s, i)) = q.pop() {
            out.push((t.0, s, i));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(Nanos(50), 1, 0);
        q.push(Nanos(50), 0, 1);
        q.push(Nanos(10), 2, 2);
        assert_eq!(drain(&mut q), vec![(10, 2, 2), (50, 0, 1), (50, 1, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn matches_heap_across_all_levels() {
        // Timestamps spanning current bucket, level 0/1/2, and overflow.
        let ts: Vec<u64> = vec![
            0,
            1,
            4_095,
            4_096,
            1 << 20,
            (1 << 24) + 7,
            (1 << 30) + 3,
            (1 << 36) + 11,
            (1 << 44) + 5,
            (1 << 48) + 13,
            u64::MAX,
        ];
        let mut q = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        for (s, &t) in ts.iter().rev().enumerate() {
            q.push(Nanos(t), s as u64, s as u32);
            heap.push(Reverse((t, s as u64, s as u32)));
        }
        let mut want = Vec::new();
        while let Some(Reverse(ev)) = heap.pop() {
            want.push(ev);
        }
        assert_eq!(drain(&mut q), want);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        // Pop one event, then push new events relative to the popped
        // time (the engine's access pattern), including a zero-length
        // resume at the same instant.
        let mut q = CalendarQueue::new();
        q.push(Nanos(100), 0, 0);
        q.push(Nanos(200), 1, 1);
        let (t, s, _) = q.pop().unwrap();
        assert_eq!((t.0, s), (100, 0));
        q.push(Nanos(100), 2, 0); // zero-length resume
        q.push(Nanos(150), 3, 2);
        assert_eq!(drain(&mut q), vec![(100, 2, 0), (150, 3, 2), (200, 1, 1)]);
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn dense_same_bucket_ties() {
        let mut q = CalendarQueue::new();
        for s in 0..100u64 {
            q.push(Nanos(42), s, s as u32);
        }
        let got = drain(&mut q);
        for (s, &(t, seq, idx)) in got.iter().enumerate() {
            assert_eq!((t, seq, idx), (42, s as u64, s as u32));
        }
    }

    #[test]
    fn far_future_then_near_events() {
        // An overflow event must not be returned before later-pushed
        // near-term events with smaller timestamps.
        let mut q = CalendarQueue::new();
        q.push(Nanos(u64::MAX - 1), 0, 0);
        q.push(Nanos(5), 1, 1);
        assert_eq!(drain(&mut q), vec![(5, 1, 1), (u64::MAX - 1, 0, 0)]);
    }
}
