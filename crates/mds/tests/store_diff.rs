//! Differential test of [`MetadataStore`] against a `BTreeMap` reference
//! namespace over the whole checked + blind vocabulary, at split
//! thresholds 1, 4 and 10 000.
//!
//! The reference restates the store's contract op by op — including the
//! corners blind replay leaves behind (a create over a directory name
//! orphans that directory's fragtree; a create for an unknown parent
//! materialises one) and what a checked op refuses on them (a new directory
//! whose number owns a table is a collision; a file whose number owns one
//! is a directory to unlink and to rename over; a rename onto another
//! dentry of the same inode is a collision; a directory moved into its own
//! subtree is `Invalid`) — and the fragtree as pure arithmetic: a dentry lives
//! in fragment `name_hash(name) & (2^bits - 1)`, and inserting a *new* name
//! that pushes its fragment past the threshold doubles the fragment count
//! once, up to 2^8. After every op the two must agree on the result class,
//! `snapshot()`, `readdir` order, `frag_count`, per-fragment membership,
//! `parent_of` / `is_within`, and inode attributes.
//!
//! `persisted_dirfrag_objects_match_the_recorded_digest` additionally
//! drives a seeded script and digests every object `flush_store` writes.
//! HOW RECORDED: first by running this file at commit 78926ce (the
//! `BTreeMap`-fragment store), whose digests the hash-table store matched
//! unchanged. Re-recorded once, when the checked ops became `check` plus
//! the blind body: the scripts reach the refusals above dozens of times
//! (and blind self-renames, which no longer re-insert), so this file ran
//! at commit ea5cc18 with `apply` skipping the store call wherever the
//! model now refuses and for blind self-renames, and that commit's
//! `flush_store` of the resulting namespace printed the digests below.

use std::collections::BTreeMap;

use proptest::prelude::*;

use cudele_journal::{Attrs, FileType, InodeId, JournalEvent};
use cudele_mds::dirfrag::name_hash;
use cudele_mds::{flush_store, MdsError, MetadataStore};
use cudele_rados::{InMemoryStore, ObjectStore, PoolId};

/// Result classes the two sides must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Ok,
    NoEnt,
    Exists,
    NotDir,
    IsDir,
    NotEmpty,
    Collision,
    Invalid,
}

fn class(r: Result<(), MdsError>) -> Class {
    match r {
        Ok(()) => Class::Ok,
        Err(MdsError::NoEnt { .. }) => Class::NoEnt,
        Err(MdsError::Exists { .. }) => Class::Exists,
        Err(MdsError::NotDir { .. }) => Class::NotDir,
        Err(MdsError::IsDir { .. }) => Class::IsDir,
        Err(MdsError::NotEmpty { .. }) => Class::NotEmpty,
        Err(MdsError::InodeCollision { .. }) => Class::Collision,
        Err(MdsError::Invalid { .. }) => Class::Invalid,
        Err(e) => panic!("store returned an error outside its contract: {e}"),
    }
}

#[derive(Debug, Clone, PartialEq)]
struct RefInode {
    ftype: FileType,
    size: u64,
    policy: Option<Vec<u8>>,
    version: u64,
}

#[derive(Debug, Clone, Default)]
struct RefDir {
    bits: u8,
    entries: BTreeMap<String, (u64, FileType)>,
    /// Dentries per fragment, so the split rule is O(1) per insert
    /// (recounted from `entries` whenever `bits` changes).
    counts: BTreeMap<u64, usize>,
}

impl RefDir {
    fn frag_of(&self, name: &str) -> u64 {
        name_hash(name) & ((1u64 << self.bits) - 1)
    }

    /// Returns the previous dentry; a new name may split the fragtree.
    fn insert(
        &mut self,
        name: &str,
        d: (u64, FileType),
        threshold: usize,
    ) -> Option<(u64, FileType)> {
        let prev = self.entries.insert(name.to_string(), d);
        if prev.is_none() {
            let in_frag = self.counts.entry(self.frag_of(name)).or_default();
            *in_frag += 1;
            if *in_frag > threshold && self.bits < 8 {
                self.bits += 1;
                self.counts.clear();
                for n in self.entries.keys() {
                    *self
                        .counts
                        .entry(name_hash(n) & ((1u64 << self.bits) - 1))
                        .or_default() += 1;
                }
            }
        }
        prev
    }

    fn remove(&mut self, name: &str) -> Option<(u64, FileType)> {
        let prev = self.entries.remove(name);
        if prev.is_some() {
            *self.counts.get_mut(&self.frag_of(name)).unwrap() -= 1;
        }
        prev
    }
}

/// The reference namespace.
#[derive(Debug, Clone)]
struct Model {
    threshold: usize,
    inodes: BTreeMap<u64, RefInode>,
    dirs: BTreeMap<u64, RefDir>,
    parents: BTreeMap<u64, u64>,
}

impl Model {
    fn new(threshold: usize) -> Model {
        let root = RefInode {
            ftype: FileType::Dir,
            size: 0,
            policy: None,
            version: 1,
        };
        Model {
            threshold,
            inodes: BTreeMap::from([(1, root)]),
            dirs: BTreeMap::from([(1, RefDir::default())]),
            parents: BTreeMap::new(),
        }
    }

    fn fresh(ftype: FileType) -> RefInode {
        RefInode {
            ftype,
            size: 0,
            policy: None,
            version: 1,
        }
    }

    fn forget(&mut self, ino: u64, and_dir: bool) {
        self.inodes.remove(&ino);
        self.parents.remove(&ino);
        if and_dir {
            self.dirs.remove(&ino);
        }
    }

    /// The checked paths' "is this a directory I can write to" test.
    fn dir_class(&self, ino: u64) -> Class {
        if !self.inodes.contains_key(&ino) {
            Class::NoEnt
        } else if !self.dirs.contains_key(&ino) {
            Class::NotDir
        } else {
            Class::Ok
        }
    }

    fn checked(&mut self, e: &JournalEvent) -> Class {
        let t = self.threshold;
        match e {
            JournalEvent::Create {
                parent, name, ino, ..
            }
            | JournalEvent::Mkdir {
                parent, name, ino, ..
            } => {
                let ftype = if matches!(e, JournalEvent::Mkdir { .. }) {
                    FileType::Dir
                } else {
                    FileType::File
                };
                // A new directory's number must not own a table either.
                if self.inodes.contains_key(&ino.0)
                    || (ftype == FileType::Dir && self.dirs.contains_key(&ino.0))
                {
                    return Class::Collision;
                }
                match self.dir_class(parent.0) {
                    Class::Ok => {}
                    c => return c,
                }
                let dir = self.dirs.get_mut(&parent.0).unwrap();
                if dir.entries.contains_key(name) {
                    return Class::Exists;
                }
                dir.insert(name, (ino.0, ftype), t);
                self.inodes.insert(ino.0, Model::fresh(ftype));
                if ftype == FileType::Dir {
                    self.dirs.insert(ino.0, RefDir::default());
                }
                self.parents.insert(ino.0, parent.0);
                Class::Ok
            }
            JournalEvent::Unlink { parent, name } | JournalEvent::Rmdir { parent, name } => {
                let rmdir = matches!(e, JournalEvent::Rmdir { .. });
                match self.dir_class(parent.0) {
                    Class::Ok => {}
                    c => return c,
                }
                let Some(&(ino, ftype)) = self.dirs[&parent.0].entries.get(name) else {
                    return Class::NoEnt;
                };
                if rmdir {
                    if ftype != FileType::Dir {
                        return Class::NotDir;
                    }
                    if self.dirs.get(&ino).is_some_and(|d| !d.entries.is_empty()) {
                        return Class::NotEmpty;
                    }
                } else if ftype == FileType::Dir || self.dirs.contains_key(&ino) {
                    // A file whose number owns a table is a directory here.
                    return Class::IsDir;
                }
                self.dirs.get_mut(&parent.0).unwrap().remove(name);
                self.forget(ino, rmdir);
                Class::Ok
            }
            JournalEvent::Rename {
                src_parent,
                src_name,
                dst_parent,
                dst_name,
            } => {
                match self.dir_class(src_parent.0) {
                    Class::Ok => {}
                    c => return c,
                }
                let Some(&src) = self.dirs[&src_parent.0].entries.get(src_name) else {
                    return Class::NoEnt;
                };
                if (src_parent, src_name) == (dst_parent, dst_name) {
                    return Class::Ok;
                }
                match self.dir_class(dst_parent.0) {
                    Class::Ok => {}
                    c => return c,
                }
                let dst = self.dirs[&dst_parent.0].entries.get(dst_name).copied();
                if let Some((dst, dtype)) = dst {
                    // Another dentry of the same inode.
                    if dst == src.0 {
                        return Class::Collision;
                    }
                    if dtype == FileType::Dir || self.dirs.contains_key(&dst) {
                        return Class::IsDir;
                    }
                }
                // A directory may not move into its own subtree.
                if src.1 == FileType::Dir && self.is_within(dst_parent.0, src.0) {
                    return Class::Invalid;
                }
                if let Some((dst, _)) = dst {
                    self.forget(dst, false);
                }
                self.dirs.get_mut(&src_parent.0).unwrap().remove(src_name);
                self.dirs
                    .get_mut(&dst_parent.0)
                    .unwrap()
                    .insert(dst_name, src, t);
                self.parents.insert(src.0, dst_parent.0);
                Class::Ok
            }
            JournalEvent::SetAttr { ino, attrs } => match self.inodes.get_mut(&ino.0) {
                Some(i) => {
                    i.size = attrs.size;
                    i.version += 1;
                    Class::Ok
                }
                None => Class::NoEnt,
            },
            JournalEvent::SetPolicy { ino, policy } => match self.inodes.get_mut(&ino.0) {
                Some(i) => {
                    i.policy = Some(policy.clone());
                    i.version += 1;
                    Class::Ok
                }
                None => Class::NoEnt,
            },
            _ => Class::Ok,
        }
    }

    fn blind(&mut self, e: &JournalEvent) {
        let t = self.threshold;
        match e {
            JournalEvent::Create {
                parent, name, ino, ..
            } => {
                let dir = self.dirs.entry(parent.0).or_default();
                if let Some((prev, _)) = dir.insert(name, (ino.0, FileType::File), t) {
                    self.forget(prev, false);
                }
                self.inodes.insert(ino.0, Model::fresh(FileType::File));
                self.parents.insert(ino.0, parent.0);
            }
            JournalEvent::Mkdir {
                parent, name, ino, ..
            } => {
                let dir = self.dirs.entry(parent.0).or_default();
                if let Some((prev, _)) = dir.insert(name, (ino.0, FileType::Dir), t) {
                    if prev != ino.0 {
                        self.forget(prev, true);
                    }
                }
                self.inodes.insert(ino.0, Model::fresh(FileType::Dir));
                self.dirs.entry(ino.0).or_default();
                self.parents.insert(ino.0, parent.0);
            }
            JournalEvent::Unlink { parent, name } | JournalEvent::Rmdir { parent, name } => {
                if let Some((prev, _)) = self.dirs.get_mut(&parent.0).and_then(|d| d.remove(name)) {
                    self.forget(prev, true);
                }
            }
            JournalEvent::Rename {
                src_parent,
                src_name,
                dst_parent,
                dst_name,
            } => {
                if (src_parent, src_name) == (dst_parent, dst_name) {
                    return;
                }
                let moved = self
                    .dirs
                    .get_mut(&src_parent.0)
                    .and_then(|d| d.remove(src_name));
                if let Some(d) = moved {
                    let dst = self.dirs.entry(dst_parent.0).or_default();
                    if let Some((prev, _)) = dst.insert(dst_name, d, t) {
                        if prev != d.0 {
                            self.forget(prev, true);
                        }
                    }
                    self.parents.insert(d.0, dst_parent.0);
                }
            }
            JournalEvent::SetAttr { .. } | JournalEvent::SetPolicy { .. } => {
                self.checked(e);
            }
            _ => {}
        }
    }

    fn snapshot(&self) -> BTreeMap<String, (InodeId, FileType)> {
        fn walk(m: &Model, ino: u64, path: &str, out: &mut BTreeMap<String, (InodeId, FileType)>) {
            let Some(dir) = m.dirs.get(&ino) else { return };
            for (name, &(child, ftype)) in &dir.entries {
                let p = format!("{path}/{name}");
                out.insert(p.clone(), (InodeId(child), ftype));
                if ftype == FileType::Dir {
                    walk(m, child, &p, out);
                }
            }
        }
        let mut out = BTreeMap::new();
        walk(self, 1, "", &mut out);
        out
    }

    /// Bounded like the store's: more steps than inodes is a cycle.
    fn is_within(&self, ino: u64, root: u64) -> bool {
        let mut cur = ino;
        for _ in 0..=self.inodes.len() {
            if cur == root {
                return true;
            }
            match self.parents.get(&cur) {
                Some(&p) => cur = p,
                None => return false,
            }
        }
        false
    }
}

/// Inode numbers every generated op draws from: the root, a pool small
/// enough that creates collide and targets go missing, and one number no
/// op ever creates.
const INOS: std::ops::Range<u64> = 0x1000..0x1018;
const GHOST: u64 = 0xdead;

fn compare(ms: &MetadataStore, m: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(ms.snapshot(), m.snapshot());
    prop_assert_eq!(ms.inode_count(), m.inodes.len());
    let universe: Vec<u64> = std::iter::once(1).chain(INOS).chain([GHOST]).collect();
    for &ino in &universe {
        let id = InodeId(ino);
        prop_assert_eq!(
            ms.parent_of(id).map(|p| p.0),
            m.parents.get(&ino).copied(),
            "parent_of {}",
            ino
        );
        prop_assert_eq!(ms.inode_in_use(id), m.inodes.contains_key(&ino));
        let got = ms.inode(id).map(|i| RefInode {
            ftype: i.ftype,
            size: i.attrs.size,
            policy: i.policy.clone(),
            version: i.version,
        });
        prop_assert_eq!(got.as_ref(), m.inodes.get(&ino), "inode {}", ino);
        for &root in &universe {
            prop_assert_eq!(
                ms.is_within(id, InodeId(root)),
                m.is_within(ino, root),
                "is_within {} {}",
                ino,
                root
            );
        }
        match (ms.dir(id), m.dirs.get(&ino)) {
            (None, None) => prop_assert!(ms.readdir(id).is_err()),
            (Some(dir), Some(rd)) => {
                // The listing is the model's sorted `(name, dentry)` list —
                // empty directories and split ones (thresholds 1 and 4)
                // included — and says so through `len` / `is_empty` too.
                let listing = ms.readdir(id).unwrap();
                let listed: Vec<(&str, (u64, FileType))> = listing
                    .iter()
                    .map(|(n, d)| (n, (d.ino.0, d.ftype)))
                    .collect();
                let want: Vec<(&str, (u64, FileType))> =
                    rd.entries.iter().map(|(n, d)| (n.as_str(), *d)).collect();
                prop_assert_eq!(&listed, &want, "readdir {}", ino);
                prop_assert_eq!(listing.len(), rd.entries.len());
                prop_assert_eq!(listing.is_empty(), rd.entries.is_empty());
                prop_assert_eq!(&dir.listing(), &listing);
                prop_assert_eq!(dir.len(), rd.entries.len());
                prop_assert_eq!(dir.frag_count(), 1usize << rd.bits, "frag_count of {}", ino);
                let mut seen = 0;
                for (idx, frag) in dir.fragments() {
                    let got: Vec<(String, u64)> =
                        frag.iter().map(|(n, d)| (n.to_string(), d.ino.0)).collect();
                    let want: Vec<(String, u64)> = rd
                        .entries
                        .iter()
                        .filter(|(n, _)| rd.frag_of(n) == u64::from(idx))
                        .map(|(n, d)| (n.clone(), d.0))
                        .collect();
                    prop_assert_eq!(frag.len(), want.len());
                    prop_assert_eq!(got, want, "fragment {} of {}", idx, ino);
                    seen += 1;
                }
                prop_assert_eq!(seen, dir.frag_count());
                for (n, d) in &rd.entries {
                    prop_assert_eq!(ms.lookup(id, n).ok().map(|x| (x.ino.0, x.ftype)), Some(*d));
                }
                prop_assert!(ms.lookup(id, "no-such-name").is_err());
            }
            (a, b) => prop_assert!(
                false,
                "dir {} present {} vs model {}",
                ino,
                a.is_some(),
                b.is_some()
            ),
        }
    }
    Ok(())
}

/// Whether the namespace is one both sides can walk: blind replay can link
/// a directory under its own subtree, and `snapshot` does not terminate on
/// such a loop. The generator swaps a *blind* op that would leave one
/// behind for a no-op; a checked one reaches the store, which refuses a
/// move into any subtree the parent links show (`Invalid`).
fn walkable(m: &Model) -> bool {
    fn acyclic(m: &Model, ino: u64, path: &mut Vec<u64>) -> bool {
        if path.contains(&ino) {
            return false;
        }
        path.push(ino);
        let ok = m.dirs.get(&ino).is_none_or(|d| {
            d.entries
                .values()
                .all(|&(child, ftype)| ftype != FileType::Dir || acyclic(m, child, path))
        });
        path.pop();
        ok
    }
    let chains_end = m.parents.keys().all(|&start| {
        let mut cur = start;
        (0..=m.parents.len()).any(|_| match m.parents.get(&cur) {
            Some(&p) => {
                cur = p;
                false
            }
            None => true,
        })
    });
    chains_end && acyclic(m, 1, &mut Vec::new())
}

/// Whether `e` renames a dentry whose inode a reused inode number already
/// took away. The parent link lives in the inode record, so there is
/// nothing to re-point; the `BTreeMap`-era store kept links in a side map
/// and would remember one for the missing inode. The generator skips the
/// case rather than pin either answer.
fn moves_a_dangling_dentry(m: &Model, e: &JournalEvent) -> bool {
    let JournalEvent::Rename {
        src_parent,
        src_name,
        ..
    } = e
    else {
        return false;
    };
    m.dirs
        .get(&src_parent.0)
        .and_then(|d| d.entries.get(src_name))
        .is_some_and(|d| !m.inodes.contains_key(&d.0))
}

/// Decodes four bytes into one op over small name / inode pools. Files
/// are `f*`, directories `d*`; a rename may target either pool (EISDIR,
/// overwrite, self-rename).
fn decode(m: &Model, kind: u8, a: u8, b: u8, c: u8) -> (bool, JournalEvent) {
    let dir_inos: Vec<u64> = m.dirs.keys().copied().collect();
    let pick_dir = |x: u8| -> InodeId {
        match x % 8 {
            0 => InodeId(GHOST),
            1 => InodeId(INOS.start + u64::from(x) % (INOS.end - INOS.start)),
            _ => InodeId(dir_inos[usize::from(x) % dir_inos.len()]),
        }
    };
    let ino = |x: u8| {
        InodeId(if x.is_multiple_of(16) {
            GHOST
        } else {
            INOS.start + u64::from(x) % (INOS.end - INOS.start)
        })
    };
    let fname = |x: u8| format!("f{}", x % 12);
    let dname = |x: u8| format!("d{}", x % 4);
    let any_name = |x: u8| {
        if x.is_multiple_of(5) {
            dname(x)
        } else {
            fname(x)
        }
    };
    let blind = kind & 0x80 != 0;
    let event = match kind % 16 {
        0..=4 => JournalEvent::Create {
            parent: pick_dir(a),
            name: fname(b),
            ino: ino(c),
            attrs: Attrs::file_default(),
        },
        5 | 6 => JournalEvent::Mkdir {
            parent: pick_dir(a),
            name: dname(b),
            ino: ino(c),
            attrs: Attrs::dir_default(),
        },
        7 | 8 => JournalEvent::Unlink {
            parent: pick_dir(a),
            name: any_name(b),
        },
        9 => JournalEvent::Rmdir {
            parent: pick_dir(a),
            name: any_name(b),
        },
        10..=12 => {
            let src_parent = pick_dir(a);
            let src_name = any_name(b);
            let dst_parent = if c.is_multiple_of(3) {
                src_parent
            } else {
                pick_dir(c)
            };
            let dst_name = if c.is_multiple_of(7) {
                src_name.clone()
            } else {
                any_name(c.wrapping_mul(31))
            };
            JournalEvent::Rename {
                src_parent,
                src_name,
                dst_parent,
                dst_name,
            }
        }
        13 => JournalEvent::SetAttr {
            ino: ino(a),
            attrs: Attrs {
                size: u64::from(b),
                ..Attrs::file_default()
            },
        },
        14 => JournalEvent::SetPolicy {
            ino: if a.is_multiple_of(4) {
                InodeId::ROOT
            } else {
                ino(a)
            },
            policy: vec![b, c],
        },
        _ => JournalEvent::SegmentBoundary { seq: u64::from(a) },
    };
    let cycles = blind && {
        let mut trial = m.clone();
        trial.blind(&event);
        !walkable(&trial)
    };
    if cycles || moves_a_dangling_dentry(m, &event) {
        return (blind, JournalEvent::SegmentBoundary { seq: 0 });
    }
    (blind, event)
}

fn apply(
    ms: &mut MetadataStore,
    m: &mut Model,
    blind: bool,
    e: &JournalEvent,
) -> Result<(), TestCaseError> {
    if blind {
        ms.apply_blind(e);
        m.blind(e);
    } else {
        // Half through the typed wrappers, half through `apply_checked`.
        let got = match e {
            JournalEvent::Create {
                parent,
                name,
                ino,
                attrs,
            } if ino.0 % 2 == 0 => ms.create(*parent, name, *ino, *attrs),
            JournalEvent::Mkdir {
                parent,
                name,
                ino,
                attrs,
            } if ino.0 % 2 == 0 => ms.mkdir(*parent, name, *ino, *attrs),
            JournalEvent::Unlink { parent, name } if name.len() % 2 == 0 => {
                ms.unlink(*parent, name)
            }
            JournalEvent::Rename {
                src_parent,
                src_name,
                dst_parent,
                dst_name,
            } if src_name.len() % 2 == 0 => ms.rename(*src_parent, src_name, *dst_parent, dst_name),
            _ => ms.apply_checked(e),
        };
        prop_assert_eq!(class(got), m.checked(e), "checked {:?}", e);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn store_matches_the_reference_namespace(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..160),
        which in 0usize..3,
    ) {
        let threshold = [1usize, 4, 10_000][which];
        let mut ms = MetadataStore::with_split_threshold(threshold);
        let mut m = Model::new(threshold);
        for (i, &(kind, a, b, c)) in ops.iter().enumerate() {
            let (blind, e) = decode(&m, kind, a, b, c);
            apply(&mut ms, &mut m, blind, &e)?;
            // Full comparison is quadratic in the universe; do it every
            // few ops and at the end, cheap checks every op.
            if i % 8 == 7 || i + 1 == ops.len() {
                compare(&ms, &m)?;
            } else {
                prop_assert_eq!(ms.inode_count(), m.inodes.len(), "after {:?}", e);
            }
        }
    }
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x100000001b3);
    }
    // Length-delimit so adjacent fields cannot run together.
    *h ^= bytes.len() as u64;
    *h = h.wrapping_mul(0x100000001b3);
}

/// Digest of everything `flush_store` leaves in the metadata pool: object
/// names in listing order, object bytes, omap keys and values.
fn persisted_digest(ms: &MetadataStore) -> u64 {
    let os = InMemoryStore::paper_default();
    let mut h = 0xcbf29ce484222325u64;
    match flush_store(ms, &os, PoolId::METADATA) {
        Ok(()) => {}
        Err(e) => panic!("scripted namespace does not flush: {e}"),
    }
    for obj in os.list(PoolId::METADATA, "") {
        fnv(&mut h, obj.name.as_bytes());
        if let Ok(data) = os.read(&obj) {
            fnv(&mut h, &data);
        }
        for (k, v) in os.omap_list(&obj).unwrap_or_default() {
            fnv(&mut h, k.as_bytes());
            fnv(&mut h, &v);
        }
    }
    h
}

/// A seeded script over the same vocabulary (SplitMix64 bytes through
/// [`decode`]), followed for the large threshold by enough creates in one
/// directory to split it twice.
fn scripted_store(threshold: usize, seed: u64) -> (MetadataStore, Model) {
    let mut ms = MetadataStore::with_split_threshold(threshold);
    let mut m = Model::new(threshold);
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for _ in 0..3_000 {
        let r = next();
        let (blind, e) = decode(
            &m,
            r as u8,
            (r >> 8) as u8,
            (r >> 16) as u8,
            (r >> 24) as u8,
        );
        apply(&mut ms, &mut m, blind, &e).expect("script op");
    }
    // Reused inode numbers leave dentries whose inode a later unlink took
    // away; `flush_store` refuses those, so drop them (blindly) first.
    let dangling: Vec<(u64, String)> = m
        .dirs
        .iter()
        .flat_map(|(&dir, d)| {
            d.entries
                .iter()
                .map(move |(n, &(ino, _))| (dir, n.clone(), ino))
        })
        .filter(|(_, _, ino)| !m.inodes.contains_key(ino))
        .map(|(dir, n, _)| (dir, n))
        .collect();
    for (dir, name) in dangling {
        let e = JournalEvent::Unlink {
            parent: InodeId(dir),
            name,
        };
        apply(&mut ms, &mut m, true, &e).expect("heal");
    }
    if threshold == 10_000 {
        for i in 0..25_000u64 {
            let e = JournalEvent::Create {
                parent: InodeId::ROOT,
                name: format!("file.{}.{i}", i % 3),
                ino: InodeId(0x10_0000 + i),
                attrs: Attrs::file_default(),
            };
            apply(&mut ms, &mut m, i % 2 == 0, &e).expect("bulk create");
        }
        for i in (0..25_000u64).step_by(7) {
            let e = JournalEvent::Unlink {
                parent: InodeId::ROOT,
                name: format!("file.{}.{i}", i % 3),
            };
            apply(&mut ms, &mut m, i % 2 == 1, &e).expect("bulk unlink");
        }
    }
    (ms, m)
}

#[test]
fn persisted_dirfrag_objects_match_the_recorded_digest() {
    // (threshold, digest of the flushed pool, root fragment count).
    const RECORDED: [(usize, u64, usize); 3] = [
        (1, 0x8e56_d406_e253_409d, 64),
        (4, 0x5a94_eadf_2d39_be50, 8),
        (10_000, 0xf2a2_8f9b_84a8_a002, 4),
    ];
    let got: Vec<(usize, u64, usize)> = RECORDED
        .iter()
        .map(|&(threshold, _, _)| {
            let (ms, m) = scripted_store(threshold, 0x5eed_0000 + threshold as u64);
            assert_eq!(ms.snapshot(), m.snapshot(), "threshold {threshold}");
            let frags = ms.dir(InodeId::ROOT).unwrap().frag_count();
            assert_eq!(frags, 1usize << m.dirs[&1].bits, "threshold {threshold}");
            let digest = persisted_digest(&ms);
            println!("({threshold}, {digest:#018x}, {frags}),");
            (threshold, digest, frags)
        })
        .collect();
    assert_eq!(got, RECORDED);
}

/// A listing says which entries a directory holds, in name order — not in
/// which order they were inserted, and not how the directory is split.
#[test]
fn listings_of_empty_and_split_directories_match_the_model() {
    let (threshold, n) = (4usize, 300u64);
    let create = |i: u64| JournalEvent::Create {
        parent: InodeId(0x2000),
        name: format!("file.{}.{i}", i % 3),
        ino: InodeId(0x10_0000 + i),
        attrs: Attrs::file_default(),
    };
    let mkdir = JournalEvent::Mkdir {
        parent: InodeId::ROOT,
        name: "d".into(),
        ino: InodeId(0x2000),
        attrs: Attrs::dir_default(),
    };
    let mut forward = MetadataStore::with_split_threshold(threshold);
    let mut backward = MetadataStore::with_split_threshold(threshold);
    let mut m = Model::new(threshold);
    apply(&mut forward, &mut m, false, &mkdir).unwrap();
    backward.apply_blind(&mkdir);

    let empty = forward.readdir(InodeId(0x2000)).unwrap();
    assert!(empty.is_empty());
    assert_eq!(empty.len(), 0);
    assert_eq!(empty.iter().next(), None);
    assert_eq!(empty, backward.readdir(InodeId(0x2000)).unwrap());

    for i in 0..n {
        apply(&mut forward, &mut m, i % 2 == 0, &create(i)).unwrap();
        backward.apply_blind(&create(n - 1 - i));
    }
    let dir = forward.dir(InodeId(0x2000)).unwrap();
    assert!(dir.frag_count() > 1, "the directory should have split");
    let listing = forward.readdir(InodeId(0x2000)).unwrap();
    let listed: Vec<(&str, u64)> = listing.iter().map(|(n, d)| (n, d.ino.0)).collect();
    let want: Vec<(&str, u64)> = m.dirs[&0x2000]
        .entries
        .iter()
        .map(|(n, d)| (n.as_str(), d.0))
        .collect();
    assert_eq!(listed, want);
    assert_eq!(listing.len(), n as usize);
    // Same entries, opposite insertion order: the same listing.
    assert_eq!(listing, backward.readdir(InodeId(0x2000)).unwrap());
    backward.apply_blind(&JournalEvent::Unlink {
        parent: InodeId(0x2000),
        name: "file.0.0".into(),
    });
    assert_ne!(listing, backward.readdir(InodeId(0x2000)).unwrap());
}
