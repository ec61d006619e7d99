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
//! A directory owns its dentries' names: they are packed end to end in
//! the directory's own 4 KiB blocks, so a create, a replayed event or a
//! merged event allocates nothing for its name, and dropping a directory
//! frees its names a block at a time.
//!
//! Fragment scans are the "poorly scaling data structure" behind the RPC
//! path's cost in the paper (every create checks the fragment for
//! existence); that cost is charged by the cost model, not re-enacted here.

use cudele_journal::{FileType, InodeId};

use crate::table::{DenseTable, Probe, Tagged};

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
struct NameHash {
    frag: u8,
    table: u32,
}

impl NameHash {
    /// Hashes `name` (one pass over its bytes).
    fn of(name: &str) -> NameHash {
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

/// One stored dentry. 24 bytes: the name is where it sits in the table's
/// [`NameArena`] (block, offset, length), and the hash rides in what would
/// otherwise be padding, so moving an entry or re-counting fragments never
/// re-reads a name.
#[derive(Debug, Clone)]
struct Entry {
    ino: InodeId,
    block: u32,
    len: u32,
    table: u32,
    offset: u16,
    frag: u8,
    ftype: FileType,
}

impl Entry {
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

impl Tagged for Entry {
    fn tag(&self) -> u32 {
        self.table
    }
}

/// Bytes per name block.
const BLOCK: usize = 4096;

/// A directory's dentry names, packed end to end in byte blocks.
///
/// Blocks hold [`BLOCK`] bytes and are never reallocated once full, except
/// the first, which grows like a `String` up to a block so a small
/// directory stays small. A name that would overrun the last block opens a
/// new one; a name longer than a block gets a block of its own, so every
/// length fits. A removed name's bytes stay where they are, counted as
/// `dead`, until they exceed both one block and the live bytes; then the
/// owner re-packs the live names ([`NameTable::compact_names`]). The
/// arena therefore holds at most 2 × its live bytes + one block.
#[derive(Debug, Clone, Default)]
struct NameArena {
    blocks: Vec<String>,
    /// Bytes of names still in the directory.
    live: usize,
    /// Bytes of removed names still held in `blocks`.
    dead: usize,
}

impl NameArena {
    fn get(&self, e: &Entry) -> &str {
        let at = usize::from(e.offset);
        &self.blocks[e.block as usize][at..at + e.len as usize]
    }

    /// Appends `name`; returns its block and offset.
    fn push(&mut self, name: &str) -> (u32, u16) {
        let n = name.len();
        if self.blocks.last().is_none_or(|b| b.len() + n > BLOCK) {
            let cap = if self.blocks.is_empty() || n > BLOCK {
                n
            } else {
                BLOCK
            };
            self.blocks.push(String::with_capacity(cap));
        }
        let block = self.blocks.last_mut().expect("a block was just opened");
        let at = block.len();
        if block.capacity() - at < n {
            // Only the first block (or one a clone sized exactly) grows:
            // doubling, up to one block.
            block.reserve_exact((2 * block.capacity()).clamp(at + n, BLOCK) - at);
        }
        block.push_str(name);
        self.live += n;
        let index =
            u32::try_from(self.blocks.len() - 1).expect("a directory holds fewer than 2^32 blocks");
        let offset = u16::try_from(at).expect("a name starts within its block");
        (index, offset)
    }

    /// Marks `len` bytes of a removed name dead; whether the arena should
    /// now be re-packed.
    fn release(&mut self, len: usize) -> bool {
        self.live -= len;
        self.dead += len;
        self.dead > BLOCK && self.dead > self.live
    }
}

/// Dentries per storage chunk. A larger chunk leaves a populated directory
/// still reallocating its first chunk as later creates land.
const CHUNK: usize = 64;

/// Name → dentry hash table: the [`DenseTable`] of a directory's entries,
/// tagged by the table hash, plus the arena their names live in (an entry
/// records where).
#[derive(Debug, Clone, Default)]
struct NameTable {
    entries: DenseTable<Entry, CHUNK>,
    names: NameArena,
}

impl NameTable {
    fn probe(&self, hash: NameHash, name: &str) -> Probe {
        self.entries
            .probe(hash.table, |e| self.names.get(e) == name)
    }

    fn find(&self, hash: NameHash, name: &str) -> Option<usize> {
        self.entries.find(hash.table, |e| self.names.get(e) == name)
    }

    /// Stores a new dentry at the vacant `slot` a probe returned.
    fn push(&mut self, slot: usize, name: &str, hash: NameHash, dentry: Dentry) {
        let (block, offset) = self.names.push(name);
        let entry = Entry {
            ino: dentry.ino,
            block,
            len: u32::try_from(name.len()).expect("a dentry name is shorter than 4 GiB"),
            table: hash.table,
            offset,
            frag: hash.frag,
            ftype: dentry.ftype,
        };
        self.entries.push(slot, entry);
    }

    fn remove(&mut self, hash: NameHash, name: &str) -> Option<Dentry> {
        let removed = self
            .entries
            .swap_remove(hash.table, |e| self.names.get(e) == name)?;
        if self.names.release(removed.len as usize) {
            self.compact_names();
        }
        Some(removed.dentry())
    }

    /// Re-packs the live names into fresh blocks, in entry order, and
    /// points every entry at its copy.
    fn compact_names(&mut self) {
        let old = std::mem::take(&mut self.names);
        for e in self.entries.iter_mut() {
            (e.block, e.offset) = self.names.push(old.get(e));
        }
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

/// One row of a [`DirListing`]: a dentry and where its name ends in the
/// listing's arena (it starts where the previous row's ends). 16 bytes,
/// the size and alignment of a `Dir::order` pair, so the order's
/// vector is collected into rows in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    ino: InodeId,
    end: u32,
    ftype: FileType,
}

/// A full directory listing in name order — what `readdir` answers with.
///
/// Every name lives in one string arena, in listing order, and every row
/// in one table, so a listing costs two allocations and is freed with two,
/// however many entries it has. Names are handed out borrowed; a caller
/// that keeps one copies that one. Both are boxed (no spare capacity to
/// remember), which keeps the listing at 32 bytes — no larger than the
/// `stat` reply it shares [`crate::server::Reply`] with, so carrying it
/// costs the other replies nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
        let mut start = 0;
        self.rows.iter().map(move |&Row { ino, end, ftype }| {
            let name = &self.names[std::mem::replace(&mut start, end as usize)..end as usize];
            (name, Dentry { ino, ftype })
        })
    }
}

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
    /// one fragment holds every dentry), so a new directory allocates
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
        self.table.entries.len()
    }

    /// Whether the directory holds no dentries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of fragments (always a power of two).
    pub fn frag_count(&self) -> usize {
        1 << self.bits
    }

    /// Looks a name up.
    pub fn get(&self, name: &str) -> Option<Dentry> {
        self.table
            .find(NameHash::of(name), name)
            .map(|pos| self.table.entries.entry(pos).dentry())
    }

    /// Whether the name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Inserts a dentry, replacing (and returning) any dentry the name
    /// already had — the blind-merge discipline.
    pub fn insert(&mut self, name: &str, dentry: Dentry) -> Option<Dentry> {
        let hash = NameHash::of(name);
        self.table.entries.reserve(1);
        match self.table.probe(hash, name) {
            Probe::Found { pos, .. } => {
                let e = self.table.entries.entry_mut(pos);
                let prev = e.dentry();
                e.ino = dentry.ino;
                e.ftype = dentry.ftype;
                Some(prev)
            }
            Probe::Vacant { slot } => {
                self.table.push(slot, name, hash, dentry);
                let in_frag = if self.bits == 0 {
                    self.table.entries.len()
                } else {
                    let n = &mut self.frag_len[hash.frag_index(self.bits)];
                    *n += 1;
                    *n as usize
                };
                if in_frag > self.split_threshold {
                    self.split();
                }
                None
            }
        }
    }

    /// Removes a dentry by name.
    pub fn remove(&mut self, name: &str) -> Option<Dentry> {
        let hash = NameHash::of(name);
        let removed = self.table.remove(hash, name)?;
        if self.bits > 0 {
            self.frag_len[hash.frag_index(self.bits)] -= 1;
        }
        Some(removed)
    }

    /// Makes room for `additional` more dentries up front (bulk paths that
    /// know how many creates are coming).
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.table.entries.reserve(additional);
    }

    /// The directory's one name order: every dentry's position, sorted by
    /// name — what [`Dir::sorted`], [`Dir::listing`] and [`Dir::fragments`]
    /// all read.
    ///
    /// One pass finds `skip`, the length of the prefix every name shares
    /// (`file.<c>.` in a client's directory). Each dentry's key is the 8
    /// name bytes past it, zero-padded and read big-endian, so keys order as
    /// the names do and most comparisons are one integer compare of a
    /// contiguous 16-byte pair. Equal keys compare whole names: all of them
    /// share the skipped prefix, so that is the order of what follows it.
    /// Names are read as bytes, since the prefix may end inside a character.
    fn order(&self) -> Vec<(u64, u32)> {
        fn key(rest: &[u8]) -> u64 {
            let mut key = [0u8; 8];
            let n = rest.len().min(8);
            key[..n].copy_from_slice(&rest[..n]);
            u64::from_be_bytes(key)
        }
        let NameTable { entries, names } = &self.table;
        let name_at = |pos: u32| names.get(entries.entry(pos as usize)).as_bytes();
        let mut all = entries.iter().map(|e| names.get(e).as_bytes());
        let first = all.next().unwrap_or_default();
        // `None` ends the pass as soon as no byte is shared.
        let skip = all
            .try_fold(first.len(), |skip, name| {
                let shared = first[..skip].iter().zip(name).take_while(|(a, b)| a == b);
                Some(shared.count()).filter(|&n| n > 0)
            })
            .unwrap_or(0);
        let mut keys: Vec<(u64, u32)> = Vec::with_capacity(entries.len());
        keys.extend((0..).zip(entries.iter()).map(|(pos, e)| {
            // Every name is at least `skip` bytes long; `get` reads it
            // without a panic path.
            let name = names.get(e).as_bytes();
            (key(name.get(skip..).unwrap_or_default()), pos)
        }));
        keys.sort_unstable_by(|&(a, i), &(b, j)| {
            a.cmp(&b).then_with(|| name_at(i).cmp(name_at(j)))
        });
        keys
    }

    /// All dentries in name order, names borrowed.
    pub(crate) fn sorted(&self) -> impl DoubleEndedIterator<Item = (&str, Dentry)> + '_ {
        let NameTable { entries, names } = &self.table;
        self.order().into_iter().map(move |(_, pos)| {
            let e = entries.entry(pos as usize);
            (names.get(e), e.dentry())
        })
    }

    /// All dentries in name order (a full `readdir`), as one
    /// [`DirListing`]: two allocations whatever the directory's size.
    pub fn listing(&self) -> DirListing {
        let table = &self.table;
        let mut names = String::with_capacity(table.names.live);
        // The order's pairs become the rows in place (both 16 bytes,
        // 8-aligned), and both were sized exactly, so boxing moves nothing.
        let rows = Vec::from_iter(self.order().into_iter().map(|(_, pos)| {
            let e = table.entries.entry(pos as usize);
            names.push_str(table.names.get(e));
            let end = u32::try_from(names.len()).expect("a listing's names fit in 4 GiB");
            let Dentry { ino, ftype } = e.dentry();
            Row { ino, end, ftype }
        }));
        DirListing {
            names: names.into_boxed_str(),
            rows: rows.into_boxed_slice(),
        }
    }

    /// The fragments with their indices, each sorted by name (persistence
    /// writes one object per fragment).
    pub fn fragments(&self) -> impl Iterator<Item = (u32, DirFragment<'_>)> {
        let mut frags: Vec<Vec<(&str, Dentry)>> = if self.bits == 0 {
            vec![Vec::with_capacity(self.len())]
        } else {
            self.frag_len
                .iter()
                .map(|&n| Vec::with_capacity(n as usize))
                .collect()
        };
        // Split in name order, so each fragment comes out sorted.
        for (_, pos) in self.order() {
            let e = self.table.entries.entry(pos as usize);
            frags[e.hash().frag_index(self.bits)].push((self.table.names.get(e), e.dentry()));
        }
        (0..)
            .zip(frags)
            .map(|(i, entries)| (i, DirFragment { entries }))
    }

    /// Doubles the fragment count and re-counts every fragment.
    fn split(&mut self) {
        if self.bits >= MAX_FRAG_BITS {
            return;
        }
        self.bits += 1;
        self.frag_len = vec![0; 1 << self.bits];
        for e in self.table.entries.iter() {
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

    impl NameArena {
        /// Bytes written into the blocks, live and dead.
        fn held(&self) -> usize {
            self.blocks.iter().map(String::len).sum()
        }
    }

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
        // A one-name directory holds a one-byte block, not a whole one.
        assert_eq!(d.table.names.blocks[0].capacity(), 1);
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
    /// index growth.
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
    fn a_stored_dentry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }

    /// `listing` turns the order's pairs into rows in place only while the
    /// two share a size and an alignment.
    #[test]
    fn a_listing_row_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Row>(), 16);
        assert_eq!(std::mem::size_of::<(u64, u32)>(), 16);
        assert_eq!(
            std::mem::align_of::<Row>(),
            std::mem::align_of::<(u64, u32)>()
        );
    }

    /// Every view of the one name order against a `BTreeMap`, on the
    /// order's edge cases: a shared prefix that ends inside a two-byte
    /// character (`ß` and `à` share only `0xC3`), a name that is a prefix
    /// of another (and one that differs from it by a trailing NUL, which
    /// pads to the same key), the empty name, names equal in the 8 bytes
    /// past the shared prefix, one entry and none.
    #[test]
    fn every_view_of_the_order_agrees_with_a_model() {
        let cases: [&[&str]; 6] = [
            &["àb", "ßa"],
            &["file.10", "file.1\0", "file.1"],
            &["b", "", "a"],
            &["p.a12345678z", "p.b12345678", "p.a12345678", "p.a12345678y"],
            &["only"],
            &[],
        ];
        for names in cases {
            // Threshold 2: three names or more split the directory.
            let mut d = Dir::with_split_threshold(2);
            let mut model = std::collections::BTreeMap::new();
            for (i, &name) in (0..).zip(names) {
                d.insert(name, dentry(i));
                model.insert(name, dentry(i));
            }
            let expected = || model.iter().map(|(&n, &d)| (n, d));
            let listing = d.listing();
            assert!(listing.iter().eq(expected()), "listing of {names:?}");
            assert!(d.sorted().eq(expected()), "sorted of {names:?}");
            let mask = d.frag_count() as u64 - 1;
            for (idx, frag) in d.fragments() {
                let in_frag = expected().filter(|(n, _)| name_hash(n) & mask == u64::from(idx));
                assert!(frag.iter().eq(in_frag), "fragment {idx} of {names:?}");
            }
        }
    }

    /// The name arena against a model: insert / replace / remove churn
    /// over names from 0 bytes through one block and a byte to 70 000
    /// bytes (a block of its own, past any `u16` offset), some of them
    /// multi-byte UTF-8 or holding NULs, in a directory that splits,
    /// cloned halfway.
    mod arena {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        const LENS: [usize; 8] = [0, 1, 12, 300, 4_095, 4_096, 4_097, 70_000];
        const POOL: usize = 24;

        /// Pool name `i`, about `LENS[i % 8]` bytes: `"<i>:"` and padding
        /// — two-byte, NUL or ASCII — with the number last for even `i`, so
        /// names of one length share their first 8 bytes and sort by their
        /// whole name.
        fn pool_name(i: usize) -> String {
            let len = LENS[i % LENS.len()];
            let id = format!("{i}:");
            if len <= id.len() {
                return id[..len].to_string();
            }
            let pad = ['x', 'ß', 'x', '\0'][i % 4];
            let pads = pad.to_string().repeat((len - id.len()) / pad.len_utf8());
            if i.is_multiple_of(2) {
                pads + &id
            } else {
                id + &pads
            }
        }

        /// `d` agrees with `model` in every view, and looking up each of
        /// `probed` (hashing a 70 000-byte name is most of a step's cost).
        fn agrees<'a>(
            d: &Dir,
            model: &BTreeMap<String, Dentry>,
            probed: impl IntoIterator<Item = &'a String>,
        ) -> Result<(), TestCaseError> {
            prop_assert_eq!(d.len(), model.len());
            for name in probed {
                prop_assert_eq!(d.get(name), model.get(name).copied());
            }
            let expected = || model.iter().map(|(n, d)| (n.as_str(), *d));
            let listing = d.listing();
            prop_assert!(listing.iter().eq(expected()), "listing");
            prop_assert!(d.sorted().eq(expected()), "sorted");
            let mut fragmented = Vec::new();
            for (_, frag) in d.fragments() {
                let entries: Vec<(&str, Dentry)> = frag.iter().collect();
                prop_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
                fragmented.extend(entries);
            }
            fragmented.sort_unstable_by(|a, b| a.0.cmp(b.0));
            prop_assert!(fragmented.into_iter().eq(expected()), "fragments");

            let names = &d.table.names;
            let live: usize = model.keys().map(String::len).sum();
            prop_assert_eq!(names.live, live);
            prop_assert_eq!(names.held(), live + names.dead);
            prop_assert!(
                names.held() <= 2 * live + BLOCK,
                "{} bytes held for {live} live",
                names.held()
            );
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn churn_agrees_with_a_model(
                ops in proptest::collection::vec((0u8..4, 0..POOL, 0u64..1_000), 1..160),
            ) {
                let pool: Vec<String> = (0..POOL).map(pool_name).collect();
                let mut d = Dir::with_split_threshold(4);
                let mut model = BTreeMap::new();
                for (step, &(op, i, ino)) in ops.iter().enumerate() {
                    let name = &pool[i];
                    if op < 2 {
                        prop_assert_eq!(d.insert(name, dentry(ino)), model.insert(name.clone(), dentry(ino)));
                    } else {
                        prop_assert_eq!(d.remove(name), model.remove(name));
                    }
                    if step == ops.len() / 2 {
                        let clone = d.clone();
                        prop_assert!(clone.listing() == d.listing(), "clone");
                        d = clone;
                    }
                    agrees(&d, &model, [name])?;
                }
                agrees(&d, &model, &pool)?;
            }
        }
    }
}
