//! Directory fragments.
//!
//! CephFS structures each directory as a *fragtree* of directory fragments
//! so large directories can be split (and distributed). "The metadata store
//! data structure is structured as a tree of directory fragments making it
//! easier to read and traverse." Dentries are assigned to fragments by a
//! hash of their name; when a fragment outgrows a threshold the directory
//! doubles its fragment count.
//!
//! In memory a [`Dir`] is one name-keyed hash table; the fragtree is a
//! *view* of it. A dentry's fragment is a pure function of its name and the
//! directory's fragment count, so the table keeps only a per-fragment
//! dentry count (which drives the split rule) and materialises sorted
//! fragments on demand — when persisting ([`Dir::fragments`]) or listing
//! ([`Dir::listing`]). Lookup, insert and remove hash the name once and
//! probe once; nothing on those paths sorts or walks a tree.
//!
//! Fragment scans are the "poorly scaling data structure" behind the RPC
//! path's cost in the paper (every create checks the fragment for
//! existence); that cost is charged by the cost model, not re-enacted here.

use cudele_journal::{FileType, InodeId};

/// One directory entry: the name maps to an inode and its type. (CephFS
/// embeds the whole inode in the dentry; we keep inodes in the store's
/// inode table and embed only the identity, which is equivalent for the
/// metadata workloads modeled here.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dentry {
    /// Inode the name resolves to.
    pub ino: InodeId,
    /// Kind of that inode.
    pub ftype: FileType,
}

/// Stable FNV-1a hash of a dentry name; its low bits pick the fragment.
pub fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Deepest fragtree: 2^8 fragments. CephFS caps fragtree depth similarly.
const MAX_FRAG_BITS: u8 = 8;

/// A dentry name hashed once: the fragment-selecting bits of
/// [`name_hash`] plus the hash the in-memory table buckets by.
///
/// The two must not be the same bits. FNV-1a only carries entropy upward
/// (a byte never influences bits below its own), so its low bits are a
/// poor bucket index for names that differ in a middle digit run
/// (`file.<i>.0`), and fragment-mates agree on them by construction. The
/// table hash is the whole 64-bit value pushed through a finalising mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NameHash {
    frag: u8,
    table: u32,
}

impl NameHash {
    /// Hashes `name` (one pass over its bytes).
    pub(crate) fn of(name: &str) -> NameHash {
        let raw = name_hash(name);
        // MurmurHash3's 64-bit finaliser: every output bit depends on
        // every input bit.
        let mut h = raw;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        NameHash {
            frag: raw as u8,
            table: h as u32,
        }
    }

    fn frag_index(self, bits: u8) -> usize {
        usize::from(self.frag) & ((1usize << bits) - 1)
    }
}

/// One stored dentry. 32 bytes: the hash rides in what would otherwise be
/// padding, so moving an entry or re-counting fragments never re-reads a
/// name.
#[derive(Debug, Clone)]
struct Entry {
    name: Box<str>,
    ino: InodeId,
    table: u32,
    frag: u8,
    ftype: FileType,
}

impl Entry {
    fn new(name: &str, hash: NameHash, dentry: Dentry) -> Entry {
        Entry {
            name: name.into(),
            ino: dentry.ino,
            table: hash.table,
            frag: hash.frag,
            ftype: dentry.ftype,
        }
    }

    fn dentry(&self) -> Dentry {
        Dentry {
            ino: self.ino,
            ftype: self.ftype,
        }
    }

    fn hash(&self) -> NameHash {
        NameHash {
            frag: self.frag,
            table: self.table,
        }
    }
}

/// Dentries per storage chunk.
const CHUNK: usize = 64;
/// Smallest index allocated.
const MIN_SLOTS: usize = 8;

/// What a probe for a name ends on.
enum Probe {
    /// The name is stored: its index slot and entry position.
    Found { slot: usize, pos: usize },
    /// The name is absent; `slot` is the vacant index slot it would take.
    Vacant { slot: usize },
}

/// Name → dentry hash table: an open-addressed index over densely stored
/// entries.
///
/// * `slots` is linear-probed, a power of two long and at most 3/4 full.
///   A slot is `0` when vacant, else `table hash << 32 | position + 1`, so
///   a miss is decided inside the index and a hit reads exactly one entry.
///   Removal shifts the probe run back instead of leaving tombstones.
/// * Entries live in fixed-size chunks that are never reallocated once
///   full, so a directory's growth copies only its (8 bytes per slot)
///   index — a flat `Vec<Entry>` would re-copy every dentry at each
///   doubling and allocate about twice the bytes a `BTreeMap` does.
///   Removal swaps the last entry into the hole; order is not meaningful.
#[derive(Debug, Clone, Default)]
struct NameTable {
    slots: Vec<u64>,
    chunks: Vec<Vec<Entry>>,
    len: usize,
}

impl NameTable {
    fn entry(&self, pos: usize) -> &Entry {
        &self.chunks[pos / CHUNK][pos % CHUNK]
    }

    fn entry_mut(&mut self, pos: usize) -> &mut Entry {
        &mut self.chunks[pos / CHUNK][pos % CHUNK]
    }

    fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.chunks.iter().flatten()
    }

    fn slot_value(hash: u32, pos: usize) -> u64 {
        let tagged = u32::try_from(pos + 1).expect("a directory holds fewer than 2^32 dentries");
        u64::from(hash) << 32 | u64::from(tagged)
    }

    fn probe(&self, hash: NameHash, name: &str) -> Probe {
        debug_assert!(!self.slots.is_empty());
        let mask = self.slots.len() - 1;
        let mut slot = hash.table as usize & mask;
        loop {
            let s = self.slots[slot];
            if s == 0 {
                return Probe::Vacant { slot };
            }
            if (s >> 32) as u32 == hash.table {
                let pos = (s as u32 - 1) as usize;
                if &*self.entry(pos).name == name {
                    return Probe::Found { slot, pos };
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    fn find(&self, hash: NameHash, name: &str) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        match self.probe(hash, name) {
            Probe::Found { pos, .. } => Some(pos),
            Probe::Vacant { .. } => None,
        }
    }

    /// Index length that keeps `entries` dentries at or under 3/4 load.
    fn slots_for(entries: usize) -> usize {
        (entries * 4).div_ceil(3).next_power_of_two().max(MIN_SLOTS)
    }

    /// Makes room for `additional` more dentries without growing the
    /// index again.
    fn reserve(&mut self, additional: usize) {
        let entries = self.len + additional;
        if entries * 4 > self.slots.len() * 3 {
            self.rebuild_index(NameTable::slots_for(entries));
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

    /// Stores a new entry at the vacant `slot` a probe returned.
    fn push(&mut self, slot: usize, entry: Entry) {
        self.slots[slot] = NameTable::slot_value(entry.table, self.len);
        let chunk = self.len / CHUNK;
        if chunk == self.chunks.len() {
            // The first chunk grows like any `Vec` (small directories stay
            // small); later ones are allocated whole.
            self.chunks.push(if chunk == 0 {
                Vec::new()
            } else {
                Vec::with_capacity(CHUNK)
            });
        }
        self.chunks[chunk].push(entry);
        self.len += 1;
    }

    /// Removes the entry a probe found.
    fn remove_at(&mut self, slot: usize, pos: usize) -> Entry {
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
        // Keep at most one spare chunk so a directory hovering at a chunk
        // boundary does not allocate on every other op.
        self.chunks.truncate(last / CHUNK + 2);
        if pos == last {
            return tail;
        }
        // Re-point the moved entry's slot at its new position.
        let from = NameTable::slot_value(tail.table, last);
        let mut i = tail.table as usize & mask;
        while self.slots[i] != from {
            i = (i + 1) & mask;
        }
        self.slots[i] = NameTable::slot_value(tail.table, pos);
        std::mem::replace(self.entry_mut(pos), tail)
    }
}

/// One fragment of a directory, as a name-sorted view.
#[derive(Debug, Clone)]
pub struct DirFragment<'a> {
    entries: Vec<(&'a str, Dentry)>,
}

impl<'a> DirFragment<'a> {
    /// Number of dentries in this fragment.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the fragment holds no dentries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates dentries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, Dentry)> + '_ {
        self.entries.iter().copied()
    }
}

/// One row of a [`DirListing`]: a dentry and where its name sits in the
/// listing's arena.
#[derive(Debug, Clone, Copy)]
struct Row {
    dentry: Dentry,
    start: u32,
    end: u32,
}

impl Row {
    fn new(start: usize, end: usize, dentry: Dentry) -> Row {
        let at = |n| u32::try_from(n).expect("a directory's names total fewer than 2^32 bytes");
        Row {
            dentry,
            start: at(start),
            end: at(end),
        }
    }

    fn name(self, names: &str) -> &str {
        &names[self.start as usize..self.end as usize]
    }
}

/// A full directory listing in name order — what `readdir` answers with.
///
/// Every name lives in one string arena and every row in one table, so a
/// listing costs two allocations and is freed with two, however many
/// entries it has. Names are handed out borrowed; a caller that keeps one
/// copies that one. Both are boxed (no spare capacity to remember), which
/// keeps the listing at 32 bytes — no larger than the `stat` reply it
/// shares [`crate::server::Reply`] with, so carrying it costs the other
/// replies nothing.
#[derive(Debug, Clone, Default)]
pub struct DirListing {
    names: Box<str>,
    rows: Box<[Row]>,
}

impl DirListing {
    /// Number of entries listed.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the directory was empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates `(name, dentry)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Dentry)> + '_ {
        self.rows.iter().map(|r| (r.name(&self.names), r.dentry))
    }
}

/// Two listings are equal when they list the same entries: the arena keeps
/// names in table order, which is not part of what a listing says.
impl PartialEq for DirListing {
    fn eq(&self, other: &DirListing) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for DirListing {}

/// A directory: one hash table of dentries, viewed as a power-of-two set
/// of fragments addressed by name hash.
#[derive(Debug, Clone)]
pub struct Dir {
    table: NameTable,
    /// log2 of the fragment count.
    bits: u8,
    /// Fragment-split threshold (entries per fragment). CephFS Jewel's
    /// `mds_bal_split_size` default is 10000.
    split_threshold: usize,
    /// Dentries per fragment. Empty while the directory is unsplit (its
    /// one fragment holds `table.len`), so a new directory allocates
    /// nothing.
    frag_len: Vec<u32>,
}

impl Dir {
    /// CephFS Jewel default split threshold.
    pub const DEFAULT_SPLIT_THRESHOLD: usize = 10_000;

    /// A new, unfragmented, empty directory.
    pub fn new() -> Dir {
        Dir::with_split_threshold(Self::DEFAULT_SPLIT_THRESHOLD)
    }

    /// A directory that splits fragments beyond `threshold` entries.
    pub fn with_split_threshold(threshold: usize) -> Dir {
        assert!(threshold > 0);
        Dir {
            table: NameTable::default(),
            bits: 0,
            split_threshold: threshold,
            frag_len: Vec::new(),
        }
    }

    /// Number of dentries across all fragments.
    pub fn len(&self) -> usize {
        self.table.len
    }

    /// Whether the directory holds no dentries.
    pub fn is_empty(&self) -> bool {
        self.table.len == 0
    }

    /// Number of fragments (always a power of two).
    pub fn frag_count(&self) -> usize {
        1 << self.bits
    }

    /// Looks a name up.
    pub fn get(&self, name: &str) -> Option<Dentry> {
        self.get_hashed(NameHash::of(name), name)
    }

    /// [`Dir::get`] for a name already hashed.
    pub(crate) fn get_hashed(&self, hash: NameHash, name: &str) -> Option<Dentry> {
        self.table
            .find(hash, name)
            .map(|pos| self.table.entry(pos).dentry())
    }

    /// Whether the name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Inserts a dentry, replacing (and returning) any dentry the name
    /// already had — the blind-merge discipline.
    pub fn insert(&mut self, name: &str, dentry: Dentry) -> Option<Dentry> {
        self.insert_hashed(NameHash::of(name), name, dentry)
    }

    /// [`Dir::insert`] for a name already hashed.
    pub(crate) fn insert_hashed(
        &mut self,
        hash: NameHash,
        name: &str,
        dentry: Dentry,
    ) -> Option<Dentry> {
        self.table.reserve(1);
        match self.table.probe(hash, name) {
            Probe::Found { pos, .. } => {
                let e = self.table.entry_mut(pos);
                let prev = e.dentry();
                e.ino = dentry.ino;
                e.ftype = dentry.ftype;
                Some(prev)
            }
            Probe::Vacant { slot } => {
                self.push_new(slot, hash, name, dentry);
                None
            }
        }
    }

    /// Inserts a dentry only if the name is free — the POSIX discipline,
    /// in one probe. Returns the dentry already there otherwise.
    pub(crate) fn try_insert(&mut self, name: &str, dentry: Dentry) -> Result<(), Dentry> {
        let hash = NameHash::of(name);
        self.table.reserve(1);
        match self.table.probe(hash, name) {
            Probe::Found { pos, .. } => Err(self.table.entry(pos).dentry()),
            Probe::Vacant { slot } => {
                self.push_new(slot, hash, name, dentry);
                Ok(())
            }
        }
    }

    fn push_new(&mut self, slot: usize, hash: NameHash, name: &str, dentry: Dentry) {
        self.table.push(slot, Entry::new(name, hash, dentry));
        let in_frag = if self.bits == 0 {
            self.table.len
        } else {
            let n = &mut self.frag_len[hash.frag_index(self.bits)];
            *n += 1;
            *n as usize
        };
        if in_frag > self.split_threshold {
            self.split();
        }
    }

    /// Removes a dentry by name.
    pub fn remove(&mut self, name: &str) -> Option<Dentry> {
        self.remove_hashed(NameHash::of(name), name)
    }

    /// [`Dir::remove`] for a name already hashed.
    pub(crate) fn remove_hashed(&mut self, hash: NameHash, name: &str) -> Option<Dentry> {
        if self.table.len == 0 {
            return None;
        }
        let Probe::Found { slot, pos } = self.table.probe(hash, name) else {
            return None;
        };
        let removed = self.table.remove_at(slot, pos);
        if self.bits > 0 {
            self.frag_len[hash.frag_index(self.bits)] -= 1;
        }
        Some(removed.dentry())
    }

    /// Makes room for `additional` more dentries up front (bulk paths that
    /// know how many creates are coming).
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.table.reserve(additional);
    }

    /// All dentries in name order, names borrowed.
    pub(crate) fn sorted(&self) -> Vec<(&str, Dentry)> {
        let mut out = Vec::with_capacity(self.table.len);
        out.extend(self.table.iter().map(|e| (&*e.name, e.dentry())));
        out.sort_unstable_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// All dentries in name order (a full `readdir`), as one
    /// [`DirListing`]: two allocations whatever the directory's size.
    pub fn listing(&self) -> DirListing {
        let name_bytes = self.table.iter().map(|e| e.name.len()).sum();
        let mut names = String::with_capacity(name_bytes);
        let mut rows = Vec::with_capacity(self.table.len);
        for e in self.table.iter() {
            let start = names.len();
            names.push_str(&e.name);
            rows.push(Row::new(start, names.len(), e.dentry()));
        }
        // Rows are sorted in place by the names they point at: no second,
        // borrowed list is built just to be ordered and copied out of.
        rows.sort_unstable_by(|a, b| a.name(&names).cmp(b.name(&names)));
        // Both were sized exactly, so boxing them moves no bytes.
        DirListing {
            names: names.into_boxed_str(),
            rows: rows.into_boxed_slice(),
        }
    }

    /// The fragments with their indices, each sorted by name (persistence
    /// writes one object per fragment).
    pub fn fragments(&self) -> impl Iterator<Item = (u32, DirFragment<'_>)> {
        let mut frags: Vec<Vec<(&str, Dentry)>> = if self.bits == 0 {
            vec![Vec::with_capacity(self.table.len)]
        } else {
            self.frag_len
                .iter()
                .map(|&n| Vec::with_capacity(n as usize))
                .collect()
        };
        for e in self.table.iter() {
            frags[e.hash().frag_index(self.bits)].push((&*e.name, e.dentry()));
        }
        frags.into_iter().enumerate().map(|(i, mut entries)| {
            entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
            (i as u32, DirFragment { entries })
        })
    }

    /// Doubles the fragment count and re-counts every fragment.
    fn split(&mut self) {
        if self.bits >= MAX_FRAG_BITS {
            return;
        }
        self.bits += 1;
        self.frag_len = vec![0; 1 << self.bits];
        for e in self.table.iter() {
            self.frag_len[e.hash().frag_index(self.bits)] += 1;
        }
    }
}

impl Default for Dir {
    fn default() -> Self {
        Dir::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn dentry(i: u64) -> Dentry {
        Dentry {
            ino: InodeId(0x1000 + i),
            ftype: FileType::File,
        }
    }

    #[test]
    fn insert_get_remove() {
        let mut d = Dir::new();
        assert!(d.insert("a", dentry(1)).is_none());
        assert_eq!(d.get("a"), Some(dentry(1)));
        assert!(d.contains("a"));
        assert_eq!(d.len(), 1);
        assert_eq!(d.remove("a"), Some(dentry(1)));
        assert!(d.is_empty());
        assert_eq!(d.remove("a"), None);
    }

    #[test]
    fn reinsert_replaces_without_growing() {
        let mut d = Dir::new();
        d.insert("a", dentry(1));
        let prev = d.insert("a", dentry(2));
        assert_eq!(prev, Some(dentry(1)));
        assert_eq!(d.len(), 1);
        assert_eq!(d.get("a"), Some(dentry(2)));
    }

    #[test]
    fn try_insert_refuses_a_taken_name() {
        let mut d = Dir::new();
        assert_eq!(d.try_insert("a", dentry(1)), Ok(()));
        assert_eq!(d.try_insert("a", dentry(2)), Err(dentry(1)));
        assert_eq!(d.get("a"), Some(dentry(1)));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn splits_at_threshold_and_stays_consistent() {
        let mut d = Dir::with_split_threshold(8);
        for i in 0..100u64 {
            d.insert(&format!("file-{i}"), dentry(i));
        }
        assert_eq!(d.len(), 100);
        assert!(d.frag_count() > 1, "directory should have fragmented");
        // Every entry still findable after the split.
        for i in 0..100u64 {
            assert_eq!(d.get(&format!("file-{i}")), Some(dentry(i)), "file-{i}");
        }
        // Fragment count is a power of two.
        assert!(d.frag_count().is_power_of_two());
    }

    #[test]
    fn listing_is_sorted_across_fragments() {
        let mut d = Dir::with_split_threshold(4);
        for i in (0..32u64).rev() {
            d.insert(&format!("{i:04}"), dentry(i));
        }
        let listing = d.listing();
        let names: Vec<&str> = listing.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(names.len(), 32);
        assert_eq!(listing.len(), 32);
        for (name, dentry) in listing.iter() {
            assert_eq!(d.get(name), Some(dentry));
        }
        assert!(Dir::new().listing().is_empty());
    }

    #[test]
    fn fragments_partition_entries() {
        let mut d = Dir::with_split_threshold(4);
        for i in 0..64u64 {
            d.insert(&format!("f{i}"), dentry(i));
        }
        let total: usize = d.fragments().map(|(_, f)| f.len()).sum();
        assert_eq!(total, 64);
        // Each dentry hashes to the fragment it is listed in, and each
        // fragment lists in name order.
        for (idx, frag) in d.fragments() {
            let names: Vec<&str> = frag.iter().map(|(n, _)| n).collect();
            assert!(names.windows(2).all(|w| w[0] < w[1]));
            for name in names {
                assert_eq!(
                    (name_hash(name) & ((d.frag_count() as u64) - 1)) as u32,
                    idx
                );
            }
        }
    }

    #[test]
    fn split_cap_prevents_unbounded_fragmentation() {
        let mut d = Dir::with_split_threshold(1);
        for i in 0..2000u64 {
            d.insert(&format!("f{i}"), dentry(i));
        }
        assert!(d.frag_count() <= 256);
        assert_eq!(d.len(), 2000);
    }

    #[test]
    fn name_hash_is_stable() {
        assert_eq!(name_hash("file-1"), name_hash("file-1"));
        assert_ne!(name_hash("file-1"), name_hash("file-2"));
        // Pinned: the fragment a name lands in is part of the persisted
        // layout.
        assert_eq!(name_hash(""), 0xcbf29ce484222325);
        assert_eq!(name_hash("a"), 0xaf63dc4c8601ec8c);
    }

    /// Removal keeps every other name reachable (backward-shift in the
    /// index, swap-remove in the chunks), across chunk boundaries and
    /// index growth, and a reserved table never re-grows.
    #[test]
    fn churn_keeps_the_table_consistent() {
        let mut d = Dir::with_split_threshold(16);
        let mut live: HashSet<u64> = HashSet::new();
        let mut x = 7u64;
        for step in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (x >> 33) % 700;
            let name = format!("n{i}");
            if live.contains(&i) && step % 3 != 0 {
                assert_eq!(d.remove(&name), Some(dentry(i)), "step {step}");
                live.remove(&i);
            } else {
                let prev = d.insert(&name, dentry(i));
                assert_eq!(prev.is_some(), !live.insert(i), "step {step}");
            }
            assert_eq!(d.len(), live.len());
        }
        for i in 0..700 {
            assert_eq!(
                d.get(&format!("n{i}")),
                live.contains(&i).then(|| dentry(i)),
                "n{i}"
            );
        }
        let per_frag: usize = d.fragments().map(|(_, f)| f.len()).sum();
        assert_eq!(per_frag, live.len());

        let mut r = Dir::new();
        r.reserve(1000);
        let slots = r.table.slots.len();
        for i in 0..1000u64 {
            r.insert(&format!("n{i}"), dentry(i));
        }
        assert_eq!(r.table.slots.len(), slots);
    }

    /// The table hash must spread the name families the workloads use over
    /// its *low* bits (the bucket index). A multiply-only string hash does
    /// not: names that differ only in a middle digit run collapse onto a
    /// fraction of the buckets (this halved `open_loop_churn` in a
    /// prototype). A uniform hash fills about 12 800 of 2^14 buckets with
    /// 25 000 keys.
    #[test]
    fn table_hash_spreads_workload_names_over_its_low_bits() {
        fn distinct_low14(names: impl Iterator<Item = String>) -> usize {
            names
                .map(|n| NameHash::of(&n).table & 0x3fff)
                .collect::<HashSet<u32>>()
                .len()
        }
        let churn = distinct_low14((0..25_000).map(|i| format!("file.{i}.0")));
        assert!(churn > 12_000, "file.<i>.0 fills only {churn} buckets");
        let private =
            distinct_low14((0..8).flat_map(|c| (0..3_125).map(move |i| format!("file.{c}.{i}"))));
        assert!(
            private > 12_000,
            "file.<c>.<i> fills only {private} buckets"
        );
        // The fragment-selecting bits are not the bucket bits: names in
        // one fragment of a 256-way split still spread.
        let mates = distinct_low14(
            (0..)
                .map(|i| format!("file.{i}.0"))
                .filter(|n| name_hash(n) & 0xff == 0)
                .take(25_000),
        );
        assert!(mates > 12_000, "fragment-mates fill only {mates} buckets");
    }

    #[test]
    fn a_stored_dentry_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 32);
    }
}
