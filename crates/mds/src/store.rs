//! The in-memory metadata store: "a data structure that represents the
//! file system namespace", kept as hash tables — inodes by number,
//! directories by number and, per directory, dentries by name — so every
//! operation is one probe per table it touches and no tree walk.
//!
//! * `inodes`: inode number → [`Inode`], a `DenseTable` (the one
//!   open-addressed index over chunked entries that a directory's dentry
//!   table also is), so growing it copies its 8-byte index slots, never
//!   the inodes. The record carries its parent directory, so
//!   subtree-membership checks (Cudele's interfere=block) walk the same
//!   table.
//! * `dirs`: directory inode number → [`Dir`], itself one name-keyed
//!   `DenseTable` with the fragtree as a view (see [`crate::dirfrag`]).
//!
//! Both are keyed by [`InodeId`] and hashed by [`cudele_sim::IntHasher`]'s
//! mix rather than SipHash: the keys are allocator-issued numbers, not
//! attacker-chosen strings, and the store is probed several times per op.
//!
//! Every update is one journal event ([`EventRef`]) and there is one body
//! that applies it, plus one read-only precondition:
//!
//! * [`MetadataStore::apply_blind`] — the only mutation body. "The metadata
//!   server blindly applies the updates because it assumes the events were
//!   already checked": this is the merge path for decoupled journals and
//!   journal replay. Decoupled-namespace updates "take priority at merge
//!   time", so a blind create overwrites.
//! * [`MetadataStore::check`] — full POSIX validity (EEXIST on duplicate
//!   create, ...), changing nothing. The existence check is exactly the
//!   fragment scan that makes RPCs expensive.
//! * [`MetadataStore::apply_checked`] — the RPC discipline: `check`, then
//!   the blind body. A corner can therefore not behave one way on the RPC
//!   path and another on replay; where blind replay of an ill-formed
//!   journal left a state on which the blind effect is not the POSIX one,
//!   `check` refuses (DESIGN.md §5.2 "Ill-formed journals").

use std::collections::BTreeMap;

use cudele_journal::{Attrs, EventRef, FileType, InodeId};
use cudele_sim::IntMap;

use crate::dirfrag::{Dentry, Dir, DirListing};
use crate::error::{MdsError, Result};
use crate::inode::{ino_tag, Inode};
use crate::table::{DenseTable, Probe};

type InoMap<V> = IntMap<InodeId, V>;

/// Inodes per chunk of the inode table (≈ 96 KiB). Smaller chunks add
/// allocations to every create; larger ones make the insert that crosses
/// a chunk boundary allocate more at once.
const INODE_CHUNK: usize = 1024;

/// The namespace: an inode table plus per-directory dentry tables.
#[derive(Debug, Clone)]
pub struct MetadataStore {
    inodes: DenseTable<Inode, INODE_CHUNK>,
    dirs: InoMap<Dir>,
    split_threshold: usize,
}

/// The inode table, keyed by [`Inode::ino`].
impl DenseTable<Inode, INODE_CHUNK> {
    fn position(&self, ino: InodeId) -> Option<usize> {
        self.find(ino_tag(ino), |i| i.ino == ino)
    }

    fn get(&self, ino: InodeId) -> Option<&Inode> {
        self.position(ino).map(|pos| self.entry(pos))
    }

    fn get_mut(&mut self, ino: InodeId) -> Option<&mut Inode> {
        self.position(ino).map(|pos| self.entry_mut(pos))
    }

    fn contains(&self, ino: InodeId) -> bool {
        self.position(ino).is_some()
    }

    /// Stores `inode`, replacing any inode of its number.
    fn insert(&mut self, inode: Inode) {
        self.reserve(1);
        let ino = inode.ino;
        match self.probe(ino_tag(ino), |i| i.ino == ino) {
            Probe::Found { pos, .. } => *self.entry_mut(pos) = inode,
            Probe::Vacant { slot } => self.push(slot, inode),
        }
    }

    fn remove(&mut self, ino: InodeId) {
        self.swap_remove(ino_tag(ino), |i| i.ino == ino);
    }
}

impl MetadataStore {
    /// An empty namespace containing only `/`.
    pub fn new() -> MetadataStore {
        MetadataStore::with_split_threshold(Dir::DEFAULT_SPLIT_THRESHOLD)
    }

    /// An empty namespace with a custom directory-fragment split threshold.
    pub fn with_split_threshold(threshold: usize) -> MetadataStore {
        let mut inodes = DenseTable::default();
        inodes.insert(Inode::root());
        let mut dirs = InoMap::default();
        dirs.insert(InodeId::ROOT, Dir::with_split_threshold(threshold));
        MetadataStore {
            inodes,
            dirs,
            split_threshold: threshold,
        }
    }

    /// Number of inodes (including `/`).
    pub fn inode_count(&self) -> usize {
        self.inodes.len()
    }

    /// Whether an inode number is in use. The merge path uses this to
    /// enforce the allocated-inode contract.
    pub fn inode_in_use(&self, ino: InodeId) -> bool {
        self.inodes.contains(ino)
    }

    /// The inode, if present.
    pub fn inode(&self, ino: InodeId) -> Option<&Inode> {
        self.inodes.get(ino)
    }

    /// The highest inode number present in the namespace. Allocator
    /// recovery uses this as a floor for the watermark: the persisted image
    /// a Nonvolatile Apply merge writes holds inodes no mdlog event names.
    pub fn max_inode(&self) -> Option<InodeId> {
        self.inodes.iter().map(|i| i.ino).max()
    }

    /// The parent directory of `ino` (None for the root or unknown inodes).
    pub fn parent_of(&self, ino: InodeId) -> Option<InodeId> {
        self.inodes.get(ino).and_then(Inode::parent)
    }

    /// Whether `ino` lies inside the subtree rooted at `root` (inclusive).
    /// Used to enforce Cudele's interfere=block policy on every request
    /// that targets a decoupled subtree. An acyclic chain visits each inode
    /// once, so the walk is bounded by the table's size: a parent cycle
    /// (blind replay can still leave one) is `false`, not a hang.
    pub fn is_within(&self, ino: InodeId, root: InodeId) -> bool {
        std::iter::successors(Some(ino), |&cur| self.parent_of(cur))
            .take(self.inodes.len() + 1)
            .any(|cur| cur == root)
    }

    /// The directory fragtree of `ino`, if it is a directory.
    pub fn dir(&self, ino: InodeId) -> Option<&Dir> {
        self.dirs.get(&ino)
    }

    /// Why `ino` has no dentry table: it does not exist, or is not a
    /// directory.
    fn not_a_dir(&self, ino: InodeId) -> MdsError {
        if self.inodes.contains(ino) {
            MdsError::NotDir { ino }
        } else {
            MdsError::NoEnt {
                what: format!("directory {ino}"),
            }
        }
    }

    /// The dentry table a checked mutation may write to: the directory
    /// must exist as an inode too. Blind replay of an ill-formed journal
    /// can leave a table whose inode is gone (a create under an unknown
    /// parent, a file created over a directory's name); POSIX says ENOENT
    /// there, so the inode is confirmed too — an integer-hash probe.
    fn writable_dir(&self, ino: InodeId) -> Result<&Dir> {
        match self.dirs.get(&ino) {
            Some(dir) if self.inodes.contains(ino) => Ok(dir),
            _ => Err(self.not_a_dir(ino)),
        }
    }

    /// The dentry a checked removal or rename acts on.
    fn existing(&self, parent: InodeId, name: &str) -> Result<Dentry> {
        self.writable_dir(parent)?
            .get(name)
            .ok_or_else(|| MetadataStore::no_such_name(parent, name))
    }

    /// Whether removing `d` would drop a dentry table: it is a directory,
    /// or (only after blind replay of an ill-formed journal) a file whose
    /// number still owns one. Checked unlink and rename-over refuse both
    /// with EISDIR.
    fn owns_a_table(&self, d: Dentry) -> bool {
        d.ftype == FileType::Dir || self.dirs.contains_key(&d.ino)
    }

    /// Drops an inode and, if it had one, its dentry table.
    fn forget(&mut self, ino: InodeId) {
        self.inodes.remove(ino);
        self.dirs.remove(&ino);
    }

    fn no_such_name(parent: InodeId, name: &str) -> MdsError {
        MdsError::NoEnt {
            what: format!("{name:?} in {parent}"),
        }
    }

    // ------------------------------------------------------------------
    // Checked (POSIX) operations — one event each through `apply_checked`
    // ------------------------------------------------------------------

    /// Creates a regular file. Fails with EEXIST if the name is taken and
    /// with an allocation-contract error if the inode number is in use.
    pub fn create(
        &mut self,
        parent: InodeId,
        name: &str,
        ino: InodeId,
        attrs: Attrs,
    ) -> Result<()> {
        self.apply_checked(EventRef::Create {
            parent,
            name,
            ino,
            attrs,
        })
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, parent: InodeId, name: &str, ino: InodeId, attrs: Attrs) -> Result<()> {
        self.apply_checked(EventRef::Mkdir {
            parent,
            name,
            ino,
            attrs,
        })
    }

    /// Removes a file.
    pub fn unlink(&mut self, parent: InodeId, name: &str) -> Result<()> {
        self.apply_checked(EventRef::Unlink { parent, name })
    }

    /// Renames `src_parent/src_name` to `dst_parent/dst_name`. An existing
    /// destination *file* is replaced (POSIX rename); an existing
    /// destination directory is an error, and so is moving a directory
    /// into its own subtree.
    pub fn rename(
        &mut self,
        src_parent: InodeId,
        src_name: &str,
        dst_parent: InodeId,
        dst_name: &str,
    ) -> Result<()> {
        self.apply_checked(EventRef::Rename {
            src_parent,
            src_name,
            dst_parent,
            dst_name,
        })
    }

    /// Looks up one name in a directory; a missing name is `ENOENT`.
    pub fn lookup(&self, parent: InodeId, name: &str) -> Result<Dentry> {
        self.probe(parent, name)?
            .ok_or_else(|| MetadataStore::no_such_name(parent, name))
    }

    /// [`MetadataStore::lookup`] for callers that expect the miss: a
    /// missing name is `Ok(None)` and formats no error message (a missing
    /// *directory* is still an error).
    pub fn probe(&self, parent: InodeId, name: &str) -> Result<Option<Dentry>> {
        let dir = self
            .dirs
            .get(&parent)
            .ok_or_else(|| self.not_a_dir(parent))?;
        Ok(dir.get(name))
    }

    /// Full directory listing, sorted by name.
    pub fn readdir(&self, ino: InodeId) -> Result<DirListing> {
        self.dirs
            .get(&ino)
            .map(|d| d.listing())
            .ok_or_else(|| self.not_a_dir(ino))
    }

    /// Resolves an absolute slash-separated path to an inode. `""` and `"/"`
    /// both resolve to the root.
    pub fn resolve(&self, path: &str) -> Result<InodeId> {
        let mut cur = InodeId::ROOT;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let dentry = self.lookup(cur, comp)?;
            cur = dentry.ino;
        }
        Ok(cur)
    }

    /// The nearest ancestor of `path` (inclusive) that has a policy blob,
    /// walking from the leaf upward — subtree policy resolution with
    /// inheritance ("subtrees without policies inherit the consistency/
    /// durability semantics of the parent").
    pub fn effective_policy(&self, path: &str) -> Result<Option<(InodeId, &[u8])>> {
        let policy_of = |ino: InodeId| {
            let policy = self.inodes.get(ino)?.policy.as_deref()?;
            Some((ino, policy))
        };
        let mut cur = InodeId::ROOT;
        let mut owner = policy_of(cur);
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = self.lookup(cur, comp)?.ino;
            owner = policy_of(cur).or(owner);
        }
        Ok(owner)
    }

    // ------------------------------------------------------------------
    // Apply: one precondition, one body
    // ------------------------------------------------------------------

    /// Whether `event` may be applied under POSIX rules; changes nothing.
    /// Tested in this order:
    ///
    /// * create / mkdir — `InodeCollision` (the number names an inode or,
    ///   for a directory, still owns a dentry table), the parent (`NoEnt`,
    ///   `NotDir`), `Exists`;
    /// * unlink — the parent, the name (`NoEnt`), `IsDir`;
    /// * rmdir — the parent, the name, `NotDir`, `NotEmpty`;
    /// * rename — the source parent and name, the destination parent; a
    ///   dentry renamed onto itself then passes (a POSIX no-op); else
    ///   `InodeCollision` for a destination that is another dentry of the
    ///   source's inode, `IsDir`, and `Invalid` for a directory moved into
    ///   its own subtree (which would detach it in a parent cycle);
    /// * setattr / setpolicy — the inode (`NoEnt`).
    pub fn check(&self, event: EventRef<'_>) -> Result<()> {
        match event {
            EventRef::Create {
                parent, name, ino, ..
            }
            | EventRef::Mkdir {
                parent, name, ino, ..
            } => {
                // Blind mkdir keeps an orphaned table for its number, so a
                // checked one would bring the orphan's dentries back.
                let is_dir = matches!(event, EventRef::Mkdir { .. });
                if self.inodes.contains(ino) || (is_dir && self.dirs.contains_key(&ino)) {
                    return Err(MdsError::InodeCollision { ino });
                }
                if self.writable_dir(parent)?.contains(name) {
                    return Err(MdsError::Exists {
                        parent,
                        name: name.to_string(),
                    });
                }
            }
            EventRef::Unlink { parent, name } => {
                let d = self.existing(parent, name)?;
                if self.owns_a_table(d) {
                    return Err(MdsError::IsDir { ino: d.ino });
                }
            }
            EventRef::Rmdir { parent, name } => {
                let d = self.existing(parent, name)?;
                if d.ftype != FileType::Dir {
                    return Err(MdsError::NotDir { ino: d.ino });
                }
                if !self.dirs.get(&d.ino).is_none_or(Dir::is_empty) {
                    return Err(MdsError::NotEmpty { ino: d.ino });
                }
            }
            EventRef::Rename {
                src_parent,
                src_name,
                dst_parent,
                dst_name,
            } => {
                let src = self.existing(src_parent, src_name)?;
                return match self.writable_dir(dst_parent)?.get(dst_name) {
                    // Onto itself: a POSIX no-op.
                    _ if (src_parent, src_name) == (dst_parent, dst_name) => Ok(()),
                    Some(d) if d.ino == src.ino => Err(MdsError::InodeCollision { ino: d.ino }),
                    Some(d) if self.owns_a_table(d) => Err(MdsError::IsDir { ino: d.ino }),
                    _ if src.ftype == FileType::Dir && self.is_within(dst_parent, src.ino) => {
                        Err(MdsError::Invalid { ino: src.ino })
                    }
                    _ => Ok(()),
                };
            }
            EventRef::SetAttr { ino, .. } | EventRef::SetPolicy { ino, .. } => {
                if !self.inodes.contains(ino) {
                    return Err(MdsError::NoEnt {
                        what: format!("inode {ino}"),
                    });
                }
            }
            EventRef::SegmentBoundary { .. } | EventRef::AllocRange { .. } => {}
        }
        Ok(())
    }

    /// Applies one journal event with full validity checks — the RPC
    /// discipline, and what the serving funnel calls with the request's
    /// own names: [`MetadataStore::check`], then the one body. A refused
    /// event changes nothing.
    pub fn apply_checked<'a>(&mut self, event: impl Into<EventRef<'a>>) -> Result<()> {
        let event = event.into();
        self.check(event)?;
        self.apply_blind(event);
        Ok(())
    }

    /// The dentry table of `ino`, materialised if a blind event names a
    /// parent the namespace has not seen.
    fn dir_or_new(&mut self, ino: InodeId) -> &mut Dir {
        let threshold = self.split_threshold;
        self.dirs
            .entry(ino)
            .or_insert_with(|| Dir::with_split_threshold(threshold))
    }

    /// Applies one journal event without validity checks — the one body
    /// that mutates the namespace, behind the merge path, replay and
    /// [`MetadataStore::apply_checked`]. Decoupled updates take priority:
    /// existing dentries are overwritten, missing unlink targets are
    /// ignored.
    pub fn apply_blind<'a>(&mut self, event: impl Into<EventRef<'a>>) {
        match event.into() {
            EventRef::Create {
                parent,
                name,
                ino,
                attrs,
            } => {
                let dentry = Dentry {
                    ino,
                    ftype: FileType::File,
                };
                if let Some(prev) = self.dir_or_new(parent).insert(name, dentry) {
                    self.inodes.remove(prev.ino);
                }
                self.inodes.insert(Inode::file(ino, attrs).child_of(parent));
            }
            EventRef::Mkdir {
                parent,
                name,
                ino,
                attrs,
            } => {
                let dentry = Dentry {
                    ino,
                    ftype: FileType::Dir,
                };
                let prev = self.dir_or_new(parent).insert(name, dentry);
                if let Some(prev) = prev.filter(|prev| prev.ino != ino) {
                    self.forget(prev.ino);
                }
                self.inodes.insert(Inode::dir(ino, attrs).child_of(parent));
                self.dir_or_new(ino);
            }
            EventRef::Unlink { parent, name } | EventRef::Rmdir { parent, name } => {
                if let Some(prev) = self.dirs.get_mut(&parent).and_then(|d| d.remove(name)) {
                    self.forget(prev.ino);
                }
            }
            EventRef::Rename {
                src_parent,
                src_name,
                dst_parent,
                dst_name,
            } => {
                // A dentry renamed onto itself stays put: taking it out and
                // putting it back could split its fragment.
                if (src_parent, src_name) == (dst_parent, dst_name) {
                    return;
                }
                let Some(dentry) = self
                    .dirs
                    .get_mut(&src_parent)
                    .and_then(|d| d.remove(src_name))
                else {
                    return;
                };
                let prev = self.dir_or_new(dst_parent).insert(dst_name, dentry);
                if let Some(prev) = prev.filter(|prev| prev.ino != dentry.ino) {
                    self.forget(prev.ino);
                }
                if let Some(inode) = self.inodes.get_mut(dentry.ino) {
                    inode.set_parent(dst_parent);
                }
            }
            EventRef::SetAttr { ino, attrs } => {
                if let Some(inode) = self.inodes.get_mut(ino) {
                    inode.set_attrs(attrs);
                }
            }
            EventRef::SetPolicy { ino, policy } => {
                if let Some(inode) = self.inodes.get_mut(ino) {
                    inode.set_policy(policy.to_vec());
                }
            }
            EventRef::SegmentBoundary { .. } | EventRef::AllocRange { .. } => {}
        }
    }

    /// Applies a batch of events blindly, in order — a merged client
    /// journal, a journal replay, a checkpoint image. The batch's size is
    /// known, so the tables are sized once up front instead of doubling
    /// their way there: the inode table for the inodes the batch adds net
    /// of those it removes, each directory for the run of creates about to
    /// land in it. Returns how many of the events were namespace updates
    /// ([`EventRef::is_update`]; bookkeeping events apply as no-ops).
    ///
    /// Takes owned events (a merge) and views parsed from journal bytes (a
    /// replay, an image) alike: anything whose reference is an [`EventRef`].
    pub fn apply_blind_all<'e, E>(&mut self, events: &'e [E]) -> u64
    where
        &'e E: Into<EventRef<'e>>,
    {
        fn links_into(e: EventRef<'_>) -> Option<InodeId> {
            match e {
                EventRef::Create { parent, .. } | EventRef::Mkdir { parent, .. } => Some(parent),
                _ => None,
            }
        }
        let view = |e: &'e E| -> EventRef<'e> { e.into() };
        let net_new = events.iter().fold(0usize, |n, e| match view(e) {
            EventRef::Unlink { .. } | EventRef::Rmdir { .. } => n.saturating_sub(1),
            e if e.allocates().is_some() => n + 1,
            _ => n,
        });
        self.inodes.reserve(net_new);
        let mut updates = 0;
        let mut rest = events;
        while let Some(first) = rest.first() {
            let parent = links_into(view(first));
            let run = rest
                .iter()
                .take_while(|e| links_into(view(e)) == parent)
                .count();
            if let Some(parent) = parent.filter(|_| run > 1) {
                self.dir_or_new(parent).reserve(run);
            }
            let (now, later) = rest.split_at(run);
            for e in now {
                // The element, not its view: each element type gets an
                // `apply_blind` of its own that inlines here. The view's is
                // shared with `apply_checked` and stays a call (≈ 15 % per
                // merged event).
                self.apply_blind(e);
                updates += u64::from(view(e).is_update());
            }
            rest = later;
        }
        updates
    }

    // ------------------------------------------------------------------
    // Raw construction (persistence/recovery support)
    // ------------------------------------------------------------------

    /// Inserts an inode directly, without touching any directory. Used by
    /// recovery when rebuilding the store from dirfrag objects.
    pub(crate) fn raw_insert_inode(&mut self, inode: Inode) {
        if inode.is_dir() {
            self.dir_or_new(inode.ino);
        }
        self.inodes.insert(inode);
    }

    /// Links `inode` under `dir_ino` as `name` directly, creating the
    /// directory's dentry table if the parent has not been materialized yet
    /// (recovery encounters children before parents when object listing
    /// order is arbitrary).
    pub(crate) fn raw_link(&mut self, dir_ino: InodeId, name: &str, inode: Inode) {
        let dentry = Dentry {
            ino: inode.ino,
            ftype: inode.ftype,
        };
        self.dir_or_new(dir_ino).insert(name, dentry);
        self.raw_insert_inode(inode.child_of(dir_ino));
    }

    /// Sizes the tables for `entries` dentries about to be linked under
    /// `dir_ino` (recovery knows each dirfrag object's length).
    pub(crate) fn raw_reserve(&mut self, dir_ino: InodeId, entries: usize) {
        self.inodes.reserve(entries);
        self.dir_or_new(dir_ino).reserve(entries);
    }

    /// Mutable access to an inode for recovery (e.g. restoring root attrs).
    pub(crate) fn raw_inode_mut(&mut self, ino: InodeId) -> Option<&mut Inode> {
        self.inodes.get_mut(ino)
    }

    // ------------------------------------------------------------------
    // Snapshots (test and verification support)
    // ------------------------------------------------------------------

    /// Depth-first walk over every dentry, presenting each full path in one
    /// shared buffer (push a component, descend, truncate back) — no
    /// per-entry `format!` allocation. `snapshot` and `shape` both build on
    /// this.
    ///
    /// The walk keeps its own stack: a chain of directories is as deep as
    /// a journal or a client makes it, and a thread's stack is not. It
    /// runs in *descending* path order — children from the last name to
    /// the first, each directory after its subtree — because its callers
    /// insert every path into a `BTreeMap`, whose nodes are searched left
    /// to right: a key below all those already in is placed after one
    /// comparison per level, where ascending order scans the right spine.
    ///
    /// A directory is entered only while the stack holds fewer levels than
    /// there are tables. An acyclic walk never reaches that bound (each
    /// level is a different table); blind replay can link a directory
    /// under its own subtree, and there the walk stops descending at that
    /// depth instead of going round forever.
    fn walk_paths(&self, mut visit: impl FnMut(&str, Dentry)) {
        struct Level<I> {
            /// The dentries not yet visited ([`Dir::sorted`]), taken from
            /// the end.
            rest: I,
            /// The directory itself, visited once `rest` is empty (`None`
            /// for `/`).
            dir: Option<Dentry>,
            /// Length of the directory's path.
            depth: usize,
        }
        let Some(root) = self.dirs.get(&InodeId::ROOT) else {
            return;
        };
        let mut path = String::new();
        let mut stack = vec![Level {
            rest: root.sorted(),
            dir: None,
            depth: 0,
        }];
        while let Some(level) = stack.last_mut() {
            path.truncate(level.depth);
            let Some((name, dentry)) = level.rest.next_back() else {
                if let Some(dir) = level.dir {
                    visit(&path, dir);
                }
                stack.pop();
                continue;
            };
            path.push('/');
            path.push_str(name);
            let table = (dentry.ftype == FileType::Dir)
                .then(|| self.dirs.get(&dentry.ino))
                .flatten();
            match table {
                Some(table) if stack.len() < self.dirs.len() => stack.push(Level {
                    rest: table.sorted(),
                    dir: Some(dentry),
                    depth: path.len(),
                }),
                _ => visit(&path, dentry),
            }
        }
    }

    /// Flattens the namespace into `path -> (ino, type)` for equivalence
    /// checks (e.g. "Nonvolatile Apply and Volatile Apply + Global Persist
    /// end up with the same final metadata state").
    pub fn snapshot(&self) -> BTreeMap<String, (InodeId, FileType)> {
        let mut out = BTreeMap::new();
        self.walk_paths(|path, dentry| {
            out.insert(path.to_owned(), (dentry.ino, dentry.ftype));
        });
        out
    }

    /// Like [`MetadataStore::snapshot`] but ignoring inode numbers — two
    /// runs that allocate different inode ranges still produce the same
    /// *shape*.
    pub fn shape(&self) -> BTreeMap<String, FileType> {
        let mut out = BTreeMap::new();
        self.walk_paths(|path, dentry| {
            out.insert(path.to_owned(), dentry.ftype);
        });
        out
    }
}

impl Default for MetadataStore {
    fn default() -> Self {
        MetadataStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudele_journal::JournalEvent;

    fn attrs() -> Attrs {
        Attrs::file_default()
    }

    fn set_policy(s: &mut MetadataStore, ino: InodeId, policy: &[u8]) -> Result<()> {
        s.apply_checked(EventRef::SetPolicy { ino, policy })
    }

    #[test]
    fn create_and_lookup() {
        let mut s = MetadataStore::new();
        s.create(InodeId::ROOT, "f", InodeId(0x1000), attrs())
            .unwrap();
        let d = s.lookup(InodeId::ROOT, "f").unwrap();
        assert_eq!(d.ino, InodeId(0x1000));
        assert_eq!(d.ftype, FileType::File);
        assert_eq!(s.inode_count(), 2);
    }

    #[test]
    fn probe_tells_a_missing_name_from_a_missing_directory() {
        let mut s = MetadataStore::new();
        s.create(InodeId::ROOT, "f", InodeId(0x1000), attrs())
            .unwrap();
        assert_eq!(
            s.probe(InodeId::ROOT, "f").unwrap().map(|d| d.ino),
            Some(InodeId(0x1000))
        );
        assert_eq!(s.probe(InodeId::ROOT, "g").unwrap(), None);
        assert!(matches!(
            s.probe(InodeId(0xdead), "f"),
            Err(MdsError::NoEnt { .. })
        ));
        assert!(matches!(
            s.probe(InodeId(0x1000), "f"),
            Err(MdsError::NotDir { .. })
        ));
        // `lookup` is the same probe with the miss turned into ENOENT.
        assert!(matches!(
            s.lookup(InodeId::ROOT, "g"),
            Err(MdsError::NoEnt { .. })
        ));
    }

    #[test]
    fn duplicate_create_is_eexist() {
        let mut s = MetadataStore::new();
        s.create(InodeId::ROOT, "f", InodeId(0x1000), attrs())
            .unwrap();
        let err = s
            .create(InodeId::ROOT, "f", InodeId(0x1001), attrs())
            .unwrap_err();
        assert!(matches!(err, MdsError::Exists { .. }));
    }

    #[test]
    fn inode_reuse_is_collision() {
        let mut s = MetadataStore::new();
        s.create(InodeId::ROOT, "a", InodeId(0x1000), attrs())
            .unwrap();
        let err = s
            .create(InodeId::ROOT, "b", InodeId(0x1000), attrs())
            .unwrap_err();
        assert!(matches!(err, MdsError::InodeCollision { .. }));
    }

    #[test]
    fn mkdir_then_nested_create_and_resolve() {
        let mut s = MetadataStore::new();
        s.mkdir(InodeId::ROOT, "a", InodeId(0x1000), Attrs::dir_default())
            .unwrap();
        s.mkdir(InodeId(0x1000), "b", InodeId(0x1001), Attrs::dir_default())
            .unwrap();
        s.create(InodeId(0x1001), "f", InodeId(0x1002), attrs())
            .unwrap();
        assert_eq!(s.resolve("/a/b/f").unwrap(), InodeId(0x1002));
        assert_eq!(s.resolve("/").unwrap(), InodeId::ROOT);
        assert_eq!(s.resolve("").unwrap(), InodeId::ROOT);
        assert!(s.resolve("/a/x").is_err());
    }

    #[test]
    fn create_in_file_is_notdir() {
        let mut s = MetadataStore::new();
        s.create(InodeId::ROOT, "f", InodeId(0x1000), attrs())
            .unwrap();
        let err = s
            .create(InodeId(0x1000), "g", InodeId(0x1001), attrs())
            .unwrap_err();
        assert!(matches!(err, MdsError::NotDir { .. }));
    }

    #[test]
    fn unlink_semantics() {
        let mut s = MetadataStore::new();
        s.create(InodeId::ROOT, "f", InodeId(0x1000), attrs())
            .unwrap();
        s.mkdir(InodeId::ROOT, "d", InodeId(0x1001), Attrs::dir_default())
            .unwrap();
        assert!(matches!(
            s.unlink(InodeId::ROOT, "d").unwrap_err(),
            MdsError::IsDir { .. }
        ));
        s.unlink(InodeId::ROOT, "f").unwrap();
        assert!(matches!(
            s.unlink(InodeId::ROOT, "f").unwrap_err(),
            MdsError::NoEnt { .. }
        ));
        assert!(!s.inode_in_use(InodeId(0x1000)));
    }

    #[test]
    fn rmdir_requires_empty() {
        let mut s = MetadataStore::new();
        s.mkdir(InodeId::ROOT, "d", InodeId(0x1000), Attrs::dir_default())
            .unwrap();
        s.create(InodeId(0x1000), "f", InodeId(0x1001), attrs())
            .unwrap();
        let rmdir = EventRef::Rmdir {
            parent: InodeId::ROOT,
            name: "d",
        };
        assert!(matches!(
            s.apply_checked(rmdir).unwrap_err(),
            MdsError::NotEmpty { .. }
        ));
        s.unlink(InodeId(0x1000), "f").unwrap();
        s.apply_checked(rmdir).unwrap();
        assert_eq!(s.inode_count(), 1);
    }

    #[test]
    fn rename_moves_and_replaces_files() {
        let mut s = MetadataStore::new();
        s.mkdir(InodeId::ROOT, "d", InodeId(0x1000), Attrs::dir_default())
            .unwrap();
        s.create(InodeId::ROOT, "src", InodeId(0x1001), attrs())
            .unwrap();
        s.create(InodeId(0x1000), "dst", InodeId(0x1002), attrs())
            .unwrap();
        // Move + overwrite.
        s.rename(InodeId::ROOT, "src", InodeId(0x1000), "dst")
            .unwrap();
        assert!(s.lookup(InodeId::ROOT, "src").is_err());
        assert_eq!(
            s.lookup(InodeId(0x1000), "dst").unwrap().ino,
            InodeId(0x1001)
        );
        assert!(!s.inode_in_use(InodeId(0x1002)));
        // Renaming onto a directory fails.
        s.create(InodeId::ROOT, "f", InodeId(0x1003), attrs())
            .unwrap();
        assert!(matches!(
            s.rename(InodeId::ROOT, "f", InodeId::ROOT, "d")
                .unwrap_err(),
            MdsError::IsDir { .. }
        ));
    }

    #[test]
    fn rename_onto_itself_is_a_noop() {
        let mut s = MetadataStore::new();
        s.create(InodeId::ROOT, "f", InodeId(0x1000), attrs())
            .unwrap();
        s.mkdir(InodeId::ROOT, "d", InodeId(0x1001), Attrs::dir_default())
            .unwrap();
        // POSIX: rename(p, p) succeeds and changes nothing — the dentry
        // must not dangle afterwards (the destination "replacement" path
        // must not remove the source inode).
        s.rename(InodeId::ROOT, "f", InodeId::ROOT, "f").unwrap();
        assert_eq!(s.lookup(InodeId::ROOT, "f").unwrap().ino, InodeId(0x1000));
        assert!(s.inode_in_use(InodeId(0x1000)));
        s.rename(InodeId::ROOT, "d", InodeId::ROOT, "d").unwrap();
        assert!(s.inode_in_use(InodeId(0x1001)));
        assert_eq!(s.resolve("/d").unwrap(), InodeId(0x1001));
    }

    /// Taking a dentry out and putting it back would count it as a new
    /// name, and a fragment already over the threshold would split.
    #[test]
    fn rename_onto_itself_never_splits_a_fragment() {
        let mut s = MetadataStore::with_split_threshold(1);
        // Two names in fragment 0 of a two-way split: it holds 2 > 1.
        let names: Vec<String> = (0..)
            .map(|i| format!("f{i}"))
            .filter(|n| crate::dirfrag::name_hash(n) & 1 == 0)
            .take(2)
            .collect();
        for (i, n) in (0..).zip(&names) {
            s.create(InodeId::ROOT, n, InodeId(0x1000 + i), attrs())
                .unwrap();
        }
        assert_eq!(s.dir(InodeId::ROOT).unwrap().frag_count(), 2);
        let n = names[0].as_str();
        s.rename(InodeId::ROOT, n, InodeId::ROOT, n).unwrap();
        s.apply_blind(EventRef::Rename {
            src_parent: InodeId::ROOT,
            src_name: n,
            dst_parent: InodeId::ROOT,
            dst_name: n,
        });
        assert_eq!(s.dir(InodeId::ROOT).unwrap().frag_count(), 2);
    }

    #[test]
    fn rename_of_a_directory_into_its_own_subtree_is_einval() {
        let (a, b) = (InodeId(0x1000), InodeId(0x1001));
        let mut s = MetadataStore::new();
        s.mkdir(InodeId::ROOT, "a", a, Attrs::dir_default())
            .unwrap();
        s.mkdir(a, "b", b, Attrs::dir_default()).unwrap();
        let before = s.snapshot();
        // Under its own child, and under itself: either would leave the
        // subtree unreachable from `/` with `a` and `b` each other's parent.
        assert_eq!(
            s.rename(InodeId::ROOT, "a", b, "x"),
            Err(MdsError::Invalid { ino: a })
        );
        assert_eq!(
            s.rename(InodeId::ROOT, "a", a, "x"),
            Err(MdsError::Invalid { ino: a })
        );
        assert_eq!(s.snapshot(), before);
        assert_eq!(s.parent_of(a), Some(InodeId::ROOT));
        assert!(s.is_within(b, InodeId::ROOT));
        // A file may move in, and the child may move out.
        s.create(InodeId::ROOT, "f", InodeId(0x1002), attrs())
            .unwrap();
        s.rename(InodeId::ROOT, "f", b, "f").unwrap();
        s.rename(a, "b", InodeId::ROOT, "b").unwrap();
        assert_eq!(s.resolve("/b/f").unwrap(), InodeId(0x1002));
    }

    #[test]
    fn is_within_stops_on_a_parent_cycle() {
        let (a, b) = (InodeId(0x1000), InodeId(0x1001));
        let mut s = MetadataStore::new();
        s.mkdir(InodeId::ROOT, "a", a, Attrs::dir_default())
            .unwrap();
        s.mkdir(a, "b", b, Attrs::dir_default()).unwrap();
        // Blind replay is unchecked: the rename `check` refuses goes through.
        s.apply_blind(EventRef::Rename {
            src_parent: InodeId::ROOT,
            src_name: "a",
            dst_parent: b,
            dst_name: "x",
        });
        assert_eq!((s.parent_of(a), s.parent_of(b)), (Some(b), Some(a)));
        assert!(s.snapshot().is_empty());
        assert!(!s.is_within(b, InodeId::ROOT));
        assert!(s.is_within(b, a));
    }

    #[test]
    fn snapshot_of_a_directory_linked_inside_itself_ends() {
        let a = InodeId(0x1000);
        let mut s = MetadataStore::new();
        s.mkdir(InodeId::ROOT, "a", a, Attrs::dir_default())
            .unwrap();
        // Blind replay links `a` under itself, still reachable from `/`:
        // `/a/c` is `/a`.
        s.apply_blind(EventRef::Mkdir {
            parent: a,
            name: "c",
            ino: a,
            attrs: Attrs::dir_default(),
        });
        let paths: Vec<String> = s.shape().into_keys().collect();
        assert_eq!(paths, ["/a", "/a/c"]);
    }

    /// A file created blindly over a directory's name takes the directory's
    /// inode away but not its table, which stays behind as an orphan.
    fn orphaned_table() -> (MetadataStore, InodeId) {
        let d = InodeId(0x1000);
        let mut s = MetadataStore::new();
        s.mkdir(InodeId::ROOT, "d", d, Attrs::dir_default())
            .unwrap();
        s.create(d, "f", InodeId(0x1001), attrs()).unwrap();
        s.apply_blind(EventRef::Create {
            parent: InodeId::ROOT,
            name: "d",
            ino: InodeId(0x1002),
            attrs: attrs(),
        });
        assert!(s.dir(d).is_some() && !s.inode_in_use(d));
        (s, d)
    }

    #[test]
    fn mkdir_over_a_number_that_owns_an_orphaned_table_is_a_collision() {
        let (mut s, d) = orphaned_table();
        // The blind body keeps an existing table, so "/e/f" would be back.
        assert_eq!(
            s.mkdir(InodeId::ROOT, "e", d, Attrs::dir_default()),
            Err(MdsError::InodeCollision { ino: d })
        );
        assert!(s.lookup(InodeId::ROOT, "e").is_err());
    }

    /// A file that takes the orphan's number inherits its table.
    fn file_owning_a_table() -> (MetadataStore, InodeId) {
        let (mut s, d) = orphaned_table();
        s.create(InodeId::ROOT, "g", d, attrs()).unwrap();
        (s, d)
    }

    #[test]
    fn unlink_of_a_file_whose_number_owns_a_table_is_eisdir() {
        let (mut s, d) = file_owning_a_table();
        // The blind body drops the table with the inode.
        assert_eq!(
            s.unlink(InodeId::ROOT, "g"),
            Err(MdsError::IsDir { ino: d })
        );
        assert!(s.inode_in_use(d) && s.dir(d).is_some());
    }

    #[test]
    fn rename_over_a_file_whose_number_owns_a_table_is_eisdir() {
        let (mut s, d) = file_owning_a_table();
        s.create(InodeId::ROOT, "h", InodeId(0x1003), attrs())
            .unwrap();
        assert_eq!(
            s.rename(InodeId::ROOT, "h", InodeId::ROOT, "g"),
            Err(MdsError::IsDir { ino: d })
        );
        assert!(s.inode_in_use(d) && s.dir(d).is_some());
    }

    #[test]
    fn rename_onto_another_dentry_of_the_same_inode_is_a_collision() {
        let f = InodeId(0x1000);
        let mut s = MetadataStore::new();
        s.create(InodeId::ROOT, "a", f, attrs()).unwrap();
        // One number under two names: only blind replay links a second.
        s.apply_blind(EventRef::Create {
            parent: InodeId::ROOT,
            name: "b",
            ino: f,
            attrs: attrs(),
        });
        // The blind body would drop "a" and keep "b".
        assert_eq!(
            s.rename(InodeId::ROOT, "a", InodeId::ROOT, "b"),
            Err(MdsError::InodeCollision { ino: f })
        );
        assert_eq!(s.snapshot().len(), 2);
    }

    #[test]
    fn setattr_and_policy() {
        let mut s = MetadataStore::new();
        s.create(InodeId::ROOT, "f", InodeId(0x1000), attrs())
            .unwrap();
        let setattr = |ino, size| EventRef::SetAttr {
            ino,
            attrs: Attrs { size, ..attrs() },
        };
        s.apply_checked(setattr(InodeId(0x1000), 99)).unwrap();
        assert_eq!(s.inode(InodeId(0x1000)).unwrap().attrs.size, 99);
        set_policy(&mut s, InodeId::ROOT, &[7]).unwrap();
        assert_eq!(
            s.inode(InodeId::ROOT).unwrap().policy.as_deref(),
            Some(&[7u8][..])
        );
        assert!(matches!(
            s.apply_checked(setattr(InodeId(0xdead), 1)),
            Err(MdsError::NoEnt { .. })
        ));
    }

    #[test]
    fn effective_policy_walks_up() {
        let mut s = MetadataStore::new();
        s.mkdir(InodeId::ROOT, "a", InodeId(0x1000), Attrs::dir_default())
            .unwrap();
        s.mkdir(InodeId(0x1000), "b", InodeId(0x1001), Attrs::dir_default())
            .unwrap();
        assert_eq!(s.effective_policy("/a/b").unwrap(), None);
        set_policy(&mut s, InodeId(0x1000), &[1]).unwrap();
        // /a/b inherits /a's policy.
        let (ino, p) = s.effective_policy("/a/b").unwrap().unwrap();
        assert_eq!(ino, InodeId(0x1000));
        assert_eq!(p, &[1]);
        // A closer policy shadows it.
        set_policy(&mut s, InodeId(0x1001), &[2]).unwrap();
        let (ino, p) = s.effective_policy("/a/b").unwrap().unwrap();
        assert_eq!(ino, InodeId(0x1001));
        assert_eq!(p, &[2]);
        // Root policy applies everywhere once set.
        set_policy(&mut s, InodeId::ROOT, &[0]).unwrap();
        assert_eq!(s.effective_policy("/").unwrap().unwrap().1, &[0]);
    }

    #[test]
    fn batch_apply_equals_event_by_event_apply() {
        let mut events = Vec::new();
        for d in 0..3u64 {
            events.push(JournalEvent::Mkdir {
                parent: InodeId::ROOT,
                name: format!("d{d}"),
                ino: InodeId(0x1000 + d),
                attrs: Attrs::dir_default(),
            });
        }
        for i in 0..400u64 {
            // Runs of creates per directory, with removals and journal
            // bookkeeping breaking them up.
            events.push(JournalEvent::Create {
                parent: InodeId(0x1000 + (i / 50) % 3),
                name: format!("f{i}"),
                ino: InodeId(0x2000 + i),
                attrs: attrs(),
            });
            if i % 7 == 0 {
                events.push(JournalEvent::Unlink {
                    parent: InodeId(0x1000 + (i / 50) % 3),
                    name: format!("f{}", i / 2),
                });
            }
            if i % 64 == 0 {
                events.push(JournalEvent::SegmentBoundary { seq: i });
            }
        }
        let mut one_by_one = MetadataStore::with_split_threshold(32);
        for e in &events {
            one_by_one.apply_blind(e);
        }
        let mut batched = MetadataStore::with_split_threshold(32);
        let updates = batched.apply_blind_all(&events);
        // Segment boundaries apply as no-ops and are not counted.
        assert_eq!(
            updates,
            events.iter().filter(|e| e.is_update()).count() as u64
        );
        assert!(updates < events.len() as u64);
        assert_eq!(batched.snapshot(), one_by_one.snapshot());
        assert_eq!(batched.inode_count(), one_by_one.inode_count());
        for d in 0..3u64 {
            let ino = InodeId(0x1000 + d);
            assert_eq!(
                batched.dir(ino).unwrap().frag_count(),
                one_by_one.dir(ino).unwrap().frag_count()
            );
            assert_eq!(batched.parent_of(ino), Some(InodeId::ROOT));
        }
    }

    #[test]
    fn blind_apply_overwrites() {
        let mut s = MetadataStore::new();
        s.create(InodeId::ROOT, "f", InodeId(0x1000), attrs())
            .unwrap();
        // A decoupled client also created "f" with its own inode; its
        // update wins at merge.
        s.apply_blind(&JournalEvent::Create {
            parent: InodeId::ROOT,
            name: "f".into(),
            ino: InodeId(0x2000),
            attrs: attrs(),
        });
        assert_eq!(s.lookup(InodeId::ROOT, "f").unwrap().ino, InodeId(0x2000));
        assert!(!s.inode_in_use(InodeId(0x1000)));
        // Blind unlink of a missing name is a no-op.
        s.apply_blind(&JournalEvent::Unlink {
            parent: InodeId::ROOT,
            name: "ghost".into(),
        });
    }

    #[test]
    fn snapshot_lists_full_paths() {
        let mut s = MetadataStore::new();
        s.mkdir(InodeId::ROOT, "d", InodeId(0x1000), Attrs::dir_default())
            .unwrap();
        s.create(InodeId(0x1000), "f", InodeId(0x1001), attrs())
            .unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap["/d"].1, FileType::Dir);
        assert_eq!(snap["/d/f"], (InodeId(0x1001), FileType::File));
        let shape = s.shape();
        assert_eq!(shape["/d/f"], FileType::File);
    }

    #[test]
    fn readdir_sorted() {
        let mut s = MetadataStore::new();
        for (i, n) in ["c", "a", "b"].iter().enumerate() {
            s.create(InodeId::ROOT, n, InodeId(0x1000 + i as u64), attrs())
                .unwrap();
        }
        let listing = s.readdir(InodeId::ROOT).unwrap();
        let names: Vec<&str> = listing.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn large_directory_fragments_and_stays_correct() {
        let mut s = MetadataStore::with_split_threshold(64);
        for i in 0..1000u64 {
            s.create(
                InodeId::ROOT,
                &format!("f{i}"),
                InodeId(0x1000 + i),
                attrs(),
            )
            .unwrap();
        }
        assert!(s.dir(InodeId::ROOT).unwrap().frag_count() > 1);
        assert_eq!(s.readdir(InodeId::ROOT).unwrap().len(), 1000);
        assert_eq!(
            s.lookup(InodeId::ROOT, "f999").unwrap().ino,
            InodeId(0x1000 + 999)
        );
    }
}
