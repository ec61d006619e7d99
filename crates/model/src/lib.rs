//! `cudele-model`: the one reference namespace every namespace test asks.
//!
//! [`Model`] restates the metadata store's contract op by op over
//! `BTreeMap`s, sharing no code with the store — including the corners
//! blind replay leaves behind (a create over a directory name orphans that
//! directory's fragtree; a create for an unknown parent materialises one)
//! and what a checked op refuses on them (a new directory whose number owns
//! a table is a collision; a file whose number owns one is a directory to
//! unlink and to rename over; a rename onto another dentry of the same inode
//! is a collision; a directory moved into its own subtree is `Invalid`).
//!
//! Given the store's name hash ([`Model::with_fragtree`]) it also keeps the
//! fragtree as pure arithmetic: a dentry lives in fragment
//! `hash(name) & (2^bits - 1)`, and inserting a *new* name that pushes its
//! fragment past the threshold doubles the fragment count once, up to 2^8.
//!
//! A test drives the store and the model with the same events and compares
//! what both answer: the result class of a checked op ([`Class`]), the
//! `snapshot()`, listings, parent links, `is_within`, path resolution,
//! effective policies and inode attributes. A recovered namespace is the
//! model's blind fold of the journal prefix recovery kept
//! ([`Model::replay`]).

#![warn(missing_docs)]

use std::collections::BTreeMap;

use cudele_journal::{FileType, InodeId, JournalEvent};

/// The result class of a checked op: `Ok`, or which POSIX refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Applied.
    Ok,
    /// The parent, the name or the inode is missing.
    NoEnt,
    /// The name is taken.
    Exists,
    /// The parent, or an rmdir's target, is not a directory.
    NotDir,
    /// An unlink's target, or a rename's destination, is a directory.
    IsDir,
    /// An rmdir's target still holds dentries.
    NotEmpty,
    /// The inode number is in use, or a rename would link one inode twice.
    Collision,
    /// A directory would move into its own subtree.
    Invalid,
}

/// An inode as the model keeps it: what every event can change.
#[derive(Debug, Clone, PartialEq)]
pub struct RefInode {
    /// File or directory.
    pub ftype: FileType,
    /// The size the last setattr wrote.
    pub size: u64,
    /// The policy blob the last setpolicy wrote.
    pub policy: Option<Vec<u8>>,
    /// 1 at creation, one more per setattr or setpolicy.
    pub version: u64,
}

impl RefInode {
    fn fresh(ftype: FileType) -> RefInode {
        RefInode {
            ftype,
            size: 0,
            policy: None,
            version: 1,
        }
    }
}

/// The store's fragmentation parameters: its split threshold and name hash.
#[derive(Debug, Clone, Copy)]
struct Split {
    threshold: usize,
    hash: fn(&str) -> u64,
}

/// One directory: its dentries by name and, in a model with a fragtree,
/// how many times it split.
#[derive(Debug, Clone, Default)]
pub struct RefDir {
    bits: u8,
    entries: BTreeMap<String, (u64, FileType)>,
    /// Dentries per fragment, so the split rule is O(1) per insert
    /// (recounted from `entries` whenever `bits` changes).
    counts: BTreeMap<u64, usize>,
}

impl RefDir {
    /// The dentries, `name → (inode, type)`, in name order.
    pub fn entries(&self) -> &BTreeMap<String, (u64, FileType)> {
        &self.entries
    }

    /// How many fragments the directory is split into.
    pub fn frag_count(&self) -> usize {
        1 << self.bits
    }

    fn frag_of(&self, hash: fn(&str) -> u64, name: &str) -> u64 {
        hash(name) & ((1u64 << self.bits) - 1)
    }

    /// Returns the previous dentry; a new name may split the fragtree.
    fn insert(
        &mut self,
        name: &str,
        d: (u64, FileType),
        split: Option<Split>,
    ) -> Option<(u64, FileType)> {
        let prev = self.entries.insert(name.to_string(), d);
        if let (None, Some(s)) = (prev, split) {
            let in_frag = self.counts.entry(self.frag_of(s.hash, name)).or_default();
            *in_frag += 1;
            if *in_frag > s.threshold && self.bits < 8 {
                self.bits += 1;
                self.counts.clear();
                for n in self.entries.keys() {
                    *self
                        .counts
                        .entry((s.hash)(n) & ((1u64 << self.bits) - 1))
                        .or_default() += 1;
                }
            }
        }
        prev
    }

    fn remove(&mut self, name: &str, split: Option<Split>) -> Option<(u64, FileType)> {
        let prev = self.entries.remove(name);
        if let (Some(_), Some(s)) = (prev, split) {
            *self.counts.get_mut(&self.frag_of(s.hash, name)).unwrap() -= 1;
        }
        prev
    }
}

/// The reference namespace.
#[derive(Debug, Clone)]
pub struct Model {
    split: Option<Split>,
    inodes: BTreeMap<u64, RefInode>,
    dirs: BTreeMap<u64, RefDir>,
    parents: BTreeMap<u64, u64>,
}

impl Default for Model {
    fn default() -> Model {
        Model {
            split: None,
            inodes: BTreeMap::from([(1, RefInode::fresh(FileType::Dir))]),
            dirs: BTreeMap::from([(1, RefDir::default())]),
            parents: BTreeMap::new(),
        }
    }
}

impl Model {
    /// The empty namespace: the root directory alone. Directories never
    /// split ([`RefDir::frag_count`] stays 1).
    pub fn new() -> Model {
        Model::default()
    }

    /// The empty namespace, with the fragtree of a store that splits a
    /// fragment past `threshold` dentries and places names by `hash`.
    pub fn with_fragtree(threshold: usize, hash: fn(&str) -> u64) -> Model {
        Model {
            split: Some(Split { threshold, hash }),
            ..Model::default()
        }
    }

    /// The blind fold of `events` from the empty namespace — what a
    /// recovery must return for a journal that reads as `events`.
    pub fn replay<'e>(events: impl IntoIterator<Item = &'e JournalEvent>) -> Model {
        let mut m = Model::new();
        events.into_iter().for_each(|e| m.blind(e));
        m
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

    /// Applies `e` under POSIX rules: changes nothing unless the class is
    /// [`Class::Ok`].
    pub fn checked(&mut self, e: &JournalEvent) -> Class {
        let s = self.split;
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
                dir.insert(name, (ino.0, ftype), s);
                self.inodes.insert(ino.0, RefInode::fresh(ftype));
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
                self.dirs.get_mut(&parent.0).unwrap().remove(name, s);
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
                self.dirs
                    .get_mut(&src_parent.0)
                    .unwrap()
                    .remove(src_name, s);
                self.dirs
                    .get_mut(&dst_parent.0)
                    .unwrap()
                    .insert(dst_name, src, s);
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
            JournalEvent::SegmentBoundary { .. } | JournalEvent::AllocRange { .. } => Class::Ok,
        }
    }

    /// Applies `e` without checks, as replay and the merge path do: an
    /// existing dentry is overwritten, a missing target is ignored.
    pub fn blind(&mut self, e: &JournalEvent) {
        let s = self.split;
        match e {
            JournalEvent::Create {
                parent, name, ino, ..
            } => {
                let dir = self.dirs.entry(parent.0).or_default();
                if let Some((prev, _)) = dir.insert(name, (ino.0, FileType::File), s) {
                    self.forget(prev, false);
                }
                self.inodes.insert(ino.0, RefInode::fresh(FileType::File));
                self.parents.insert(ino.0, parent.0);
            }
            JournalEvent::Mkdir {
                parent, name, ino, ..
            } => {
                let dir = self.dirs.entry(parent.0).or_default();
                if let Some((prev, _)) = dir.insert(name, (ino.0, FileType::Dir), s) {
                    if prev != ino.0 {
                        self.forget(prev, true);
                    }
                }
                self.inodes.insert(ino.0, RefInode::fresh(FileType::Dir));
                self.dirs.entry(ino.0).or_default();
                self.parents.insert(ino.0, parent.0);
            }
            JournalEvent::Unlink { parent, name } | JournalEvent::Rmdir { parent, name } => {
                let removed = self.dirs.get_mut(&parent.0).and_then(|d| d.remove(name, s));
                if let Some((prev, _)) = removed {
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
                    .and_then(|d| d.remove(src_name, s));
                if let Some(d) = moved {
                    let dst = self.dirs.entry(dst_parent.0).or_default();
                    if let Some((prev, _)) = dst.insert(dst_name, d, s) {
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
            JournalEvent::SegmentBoundary { .. } | JournalEvent::AllocRange { .. } => {}
        }
    }

    /// Every path reachable from the root, `"/a/b" → (inode, type)`.
    pub fn snapshot(&self) -> BTreeMap<String, (InodeId, FileType)> {
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

    /// The inodes `path`'s components name, root first (`""` and `"/"` are
    /// the root alone); `None` if a component is missing.
    fn walk_path(&self, path: &str) -> Option<Vec<u64>> {
        let mut inos = vec![1];
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let dir = self.dirs.get(inos.last()?)?;
            inos.push(dir.entries.get(comp)?.0);
        }
        Some(inos)
    }

    /// The inode an absolute slash-separated path names.
    pub fn resolve(&self, path: &str) -> Option<u64> {
        self.walk_path(path)?.last().copied()
    }

    /// The nearest inode on `path` (inclusive, leaf first) with a policy,
    /// and that policy: `Some(None)` if none has one, `None` if the path
    /// does not resolve.
    pub fn effective_policy(&self, path: &str) -> Option<Option<(u64, &[u8])>> {
        let inos = self.walk_path(path)?;
        Some(inos.into_iter().rev().find_map(|ino| {
            let policy = self.inodes.get(&ino)?.policy.as_deref()?;
            Some((ino, policy))
        }))
    }

    /// The directory `ino` was last linked into.
    pub fn parent_of(&self, ino: u64) -> Option<u64> {
        self.parents.get(&ino).copied()
    }

    /// Whether `root` is `ino` or one of its ancestors. Bounded like the
    /// store's: more steps than inodes is a cycle.
    pub fn is_within(&self, ino: u64, root: u64) -> bool {
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

    /// The inode numbered `ino`, if one is live.
    pub fn inode(&self, ino: u64) -> Option<&RefInode> {
        self.inodes.get(&ino)
    }

    /// How many inodes are live, the root included.
    pub fn inode_count(&self) -> usize {
        self.inodes.len()
    }

    /// The dentry table inode `ino` owns, if any.
    pub fn dir(&self, ino: u64) -> Option<&RefDir> {
        self.dirs.get(&ino)
    }

    /// Every dentry table, by owning inode.
    pub fn dirs(&self) -> impl Iterator<Item = (u64, &RefDir)> {
        self.dirs.iter().map(|(&ino, d)| (ino, d))
    }

    /// The fragment of directory `dir` that `name` lives in (0 without a
    /// fragtree).
    pub fn fragment_of(&self, dir: u64, name: &str) -> u64 {
        match (self.split, self.dirs.get(&dir)) {
            (Some(s), Some(d)) => d.frag_of(s.hash, name),
            _ => 0,
        }
    }

    /// Whether both the model and a store can walk the namespace: blind
    /// replay can link a directory under its own subtree, and neither
    /// `snapshot` terminates on such a loop.
    pub fn walkable(&self) -> bool {
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
        let chains_end = self.parents.keys().all(|&start| {
            let mut cur = start;
            (0..=self.parents.len()).any(|_| match self.parents.get(&cur) {
                Some(&p) => {
                    cur = p;
                    false
                }
                None => true,
            })
        });
        chains_end && acyclic(self, 1, &mut Vec::new())
    }
}
