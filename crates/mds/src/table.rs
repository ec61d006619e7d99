//! The one dense hash table: an open-addressed index over entries stored
//! in chunks that never move.
//!
//! The store's inode table and every directory's dentry table are a
//! [`DenseTable`]. An entry type says which 32-bit hash it is indexed under
//! ([`Tagged`]); a probe brings that hash and a test for its key, so the
//! table never owns or hashes a key itself (a dentry's name lives in its
//! directory's arena, an inode's number in the inode).

/// An entry that knows the 32-bit hash it is indexed under — read when a
/// removal moves the entry to another position.
pub(crate) trait Tagged {
    /// The hash a probe for this entry's key brings.
    fn tag(&self) -> u32;
}

/// What a probe ends on.
pub(crate) enum Probe {
    /// The key is stored: its index slot and entry position.
    Found { slot: usize, pos: usize },
    /// The key is absent; `slot` is the vacant index slot it would take.
    Vacant { slot: usize },
}

/// Smallest index allocated.
const MIN_SLOTS: usize = 8;

/// A hash table of `E`: an open-addressed index over densely stored
/// entries, `CHUNK` to a chunk.
///
/// * `slots` is linear-probed, a power of two long and at most 3/4 full.
///   A slot is `0` when vacant, else `tag << 32 | position + 1`, so a miss
///   is decided inside the index and a hit reads exactly one entry.
///   Removal shifts the probe run back instead of leaving tombstones.
/// * Entries live in `CHUNK`-entry chunks. The first grows like any `Vec`
///   (a small table stays small); later ones are allocated whole and never
///   reallocated, so growth copies only the (8 bytes per slot) index — a
///   flat `Vec<E>` would re-copy every entry at each doubling and request
///   about twice its final size in total. Removal swaps the last entry
///   into the hole; order is not meaningful.
#[derive(Debug, Clone)]
pub(crate) struct DenseTable<E, const CHUNK: usize> {
    slots: Vec<u64>,
    chunks: Vec<Vec<E>>,
    len: usize,
}

impl<E, const CHUNK: usize> Default for DenseTable<E, CHUNK> {
    fn default() -> Self {
        DenseTable {
            slots: Vec::new(),
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<E: Tagged, const CHUNK: usize> DenseTable<E, CHUNK> {
    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The entry at `pos` (a position a probe returned).
    pub(crate) fn entry(&self, pos: usize) -> &E {
        &self.chunks[pos / CHUNK][pos % CHUNK]
    }

    pub(crate) fn entry_mut(&mut self, pos: usize) -> &mut E {
        &mut self.chunks[pos / CHUNK][pos % CHUNK]
    }

    /// Every entry, in position order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &E> {
        self.chunks.iter().flatten()
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut E> {
        self.chunks.iter_mut().flatten()
    }

    fn slot_value(tag: u32, pos: usize) -> u64 {
        let tagged = u32::try_from(pos + 1).expect("a table holds fewer than 2^32 entries");
        u64::from(tag) << 32 | u64::from(tagged)
    }

    /// Looks for the entry `eq` accepts among those tagged `tag`. The index
    /// must be allocated ([`DenseTable::reserve`] first when inserting).
    pub(crate) fn probe(&self, tag: u32, eq: impl Fn(&E) -> bool) -> Probe {
        debug_assert!(!self.slots.is_empty());
        let mask = self.slots.len() - 1;
        let mut slot = tag as usize & mask;
        loop {
            let s = self.slots[slot];
            if s == 0 {
                return Probe::Vacant { slot };
            }
            if (s >> 32) as u32 == tag {
                let pos = (s as u32 - 1) as usize;
                if eq(self.entry(pos)) {
                    return Probe::Found { slot, pos };
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The slot and position of the entry `eq` accepts among those tagged
    /// `tag`, in a table that may have no index yet.
    fn locate(&self, tag: u32, eq: impl Fn(&E) -> bool) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        match self.probe(tag, eq) {
            Probe::Found { slot, pos } => Some((slot, pos)),
            Probe::Vacant { .. } => None,
        }
    }

    /// The position of the entry `eq` accepts among those tagged `tag`.
    pub(crate) fn find(&self, tag: u32, eq: impl Fn(&E) -> bool) -> Option<usize> {
        self.locate(tag, eq).map(|(_, pos)| pos)
    }

    /// Index length that keeps `entries` entries at or under 3/4 load.
    fn slots_for(entries: usize) -> usize {
        (entries * 4).div_ceil(3).next_power_of_two().max(MIN_SLOTS)
    }

    /// Makes room in the index for `additional` more entries, so it does
    /// not grow again before then. Chunks are allocated as they fill.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let entries = self.len + additional;
        if entries * 4 > self.slots.len() * 3 {
            self.rebuild_index(Self::slots_for(entries));
        }
    }

    /// Re-buckets every stored slot into an index `new_len` long. Reads
    /// only the old index: the tag in each slot is the hash.
    fn rebuild_index(&mut self, new_len: usize) {
        let mask = new_len - 1;
        let mut slots = vec![0u64; new_len];
        for &s in self.slots.iter().filter(|&&s| s != 0) {
            let mut i = (s >> 32) as usize & mask;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = s;
        }
        self.slots = slots;
    }

    /// Stores `entry` at the vacant `slot` a probe for its key returned.
    pub(crate) fn push(&mut self, slot: usize, entry: E) {
        self.slots[slot] = Self::slot_value(entry.tag(), self.len);
        let chunk = self.len / CHUNK;
        if chunk == self.chunks.len() {
            self.chunks.push(if chunk == 0 {
                Vec::new()
            } else {
                Vec::with_capacity(CHUNK)
            });
        }
        self.chunks[chunk].push(entry);
        self.len += 1;
    }

    /// Removes and returns the entry `eq` accepts among those tagged
    /// `tag`; the last entry moves into its position.
    pub(crate) fn swap_remove(&mut self, tag: u32, eq: impl Fn(&E) -> bool) -> Option<E> {
        let (slot, pos) = self.locate(tag, eq)?;
        Some(self.remove_at(slot, pos))
    }

    /// Removes and returns the entry a probe found at `slot`, `pos`.
    fn remove_at(&mut self, slot: usize, pos: usize) -> E {
        // Close the gap in the probe run: any later slot whose home is at
        // or before the hole moves back into it.
        let mask = self.slots.len() - 1;
        let mut hole = slot;
        let mut next = slot;
        loop {
            next = (next + 1) & mask;
            let s = self.slots[next];
            if s == 0 {
                break;
            }
            let home = (s >> 32) as usize & mask;
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.slots[hole] = s;
                hole = next;
            }
        }
        self.slots[hole] = 0;

        let last = self.len - 1;
        let tail = self.chunks[last / CHUNK]
            .pop()
            .expect("the last position holds an entry");
        self.len = last;
        // Keep at most one spare chunk so a table hovering at a chunk
        // boundary does not allocate on every other op.
        self.chunks.truncate(last / CHUNK + 2);
        if pos == last {
            return tail;
        }
        // Re-point the moved entry's slot at its new position.
        let tag = tail.tag();
        let from = Self::slot_value(tag, last);
        let mut i = tag as usize & mask;
        while self.slots[i] != from {
            i = (i + 1) & mask;
        }
        self.slots[i] = Self::slot_value(tag, pos);
        std::mem::replace(self.entry_mut(pos), tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    use cudele_journal::InodeId;

    use crate::inode::ino_tag;

    /// A keyed value, tagged the way the inode table tags an inode number.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Item {
        key: u64,
        value: u64,
    }

    fn tag_of(key: u64) -> u32 {
        ino_tag(InodeId(key))
    }

    impl Tagged for Item {
        fn tag(&self) -> u32 {
            tag_of(self.key)
        }
    }

    type Table = DenseTable<Item, 4>;

    fn get(t: &Table, key: u64) -> Option<u64> {
        t.find(tag_of(key), |e| e.key == key)
            .map(|pos| t.entry(pos).value)
    }

    /// Inserts or overwrites; the previous value.
    fn insert(t: &mut Table, key: u64, value: u64) -> Option<u64> {
        t.reserve(1);
        match t.probe(tag_of(key), |e| e.key == key) {
            Probe::Found { pos, .. } => Some(std::mem::replace(&mut t.entry_mut(pos).value, value)),
            Probe::Vacant { slot } => {
                t.push(slot, Item { key, value });
                None
            }
        }
    }

    /// The paths a case set must have taken (see `every_path_is_taken`).
    static MOVED: AtomicBool = AtomicBool::new(false);
    static SHIFTED: AtomicBool = AtomicBool::new(false);
    static REBUILT: AtomicBool = AtomicBool::new(false);

    /// Removes `key`, noting which removal paths ran.
    fn remove(t: &mut Table, key: u64) -> Option<u64> {
        if t.len == 0 {
            return None;
        }
        let Probe::Found { slot, pos } = t.probe(tag_of(key), |e| e.key == key) else {
            return None;
        };
        if pos != t.len - 1 {
            MOVED.store(true, Ordering::Relaxed);
        }
        let removed = t.swap_remove(tag_of(key), |e| e.key == key);
        // The hole is refilled exactly when a later slot shifted back.
        if t.slots[slot] != 0 {
            SHIFTED.store(true, Ordering::Relaxed);
        }
        removed.map(|e| e.value)
    }

    /// Keys as the allocator grants them: dense runs from bases far apart.
    fn key(run: u8, offset: u16) -> u64 {
        (u64::from(run) << 40 | 0x1000) + u64::from(offset)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Insert / overwrite / remove / get against a `HashMap`. After
        /// every op: `len`, every key's `get`, and iteration yields exactly
        /// the model's entries.
        fn ops_agree_with_a_model(
            ops in proptest::collection::vec((0u8..7, 0u8..3, 0u16..48, 0u64..1_000), 1..300),
        ) {
            let mut t = Table::default();
            let mut model: HashMap<u64, u64> = HashMap::new();
            for &(op, run, offset, value) in &ops {
                let k = key(run, offset);
                match op {
                    0..=2 => {
                        let index = t.slots.len();
                        prop_assert_eq!(insert(&mut t, k, value), model.insert(k, value));
                        if index != 0 && t.slots.len() != index {
                            REBUILT.store(true, Ordering::Relaxed);
                        }
                    }
                    3..=4 => prop_assert_eq!(remove(&mut t, k), model.remove(&k)),
                    _ => prop_assert_eq!(get(&t, k), model.get(&k).copied()),
                }
                prop_assert_eq!(t.len(), model.len());
                for (&k, &v) in &model {
                    prop_assert_eq!(get(&t, k), Some(v));
                }
                let mut stored: Vec<(u64, u64)> = t.iter().map(|e| (e.key, e.value)).collect();
                let mut expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                stored.sort_unstable();
                expected.sort_unstable();
                prop_assert_eq!(stored, expected);
                prop_assert!(t.len <= t.slots.len() * 3 / 4);
            }
        }
    }

    /// The model test's cases re-point a moved entry, shift a probe run
    /// back and rebuild a grown index, across 4-entry chunk boundaries.
    #[test]
    fn every_path_is_taken() {
        ops_agree_with_a_model();
        assert!(MOVED.load(Ordering::Relaxed), "no non-last removal");
        assert!(SHIFTED.load(Ordering::Relaxed), "no backward shift");
        assert!(REBUILT.load(Ordering::Relaxed), "no index rebuild");
    }

    /// A reserved table never re-grows its index while it fills.
    #[test]
    fn reserve_sizes_the_index_once() {
        let mut t = Table::default();
        t.reserve(1000);
        let slots = t.slots.len();
        assert!(t.chunks.is_empty(), "a reserve allocates no chunk");
        for k in 0..1000 {
            insert(&mut t, key(1, 0) + k, k);
        }
        assert_eq!(t.slots.len(), slots);
        assert_eq!(t.chunks.len(), 250);
    }
}
