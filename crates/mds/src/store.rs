//! The in-memory metadata store: "a data structure that represents the
//! file system namespace", kept as two flat tables — inodes by number and,
//! per directory, dentries by name — so every operation is one hash probe
//! per table it touches and no tree walk.
//!
//! * `inodes`: inode number → [`Inode`]. The record carries its parent
//!   directory, so subtree-membership checks (Cudele's interfere=block)
//!   walk the same table.
//! * `dirs`: directory inode number → [`Dir`], itself one name-keyed hash
//!   table with the fragtree as a view (see [`crate::dirfrag`]).
//!
//! Both tables are keyed by [`InodeId`] and hashed by
//! [`cudele_sim::IntHasher`] rather than SipHash: the keys are
//! allocator-issued numbers, not attacker-chosen strings, and the store is
//! probed several times per op.
//!
//! Two apply disciplines exist, and the difference is load-bearing for the
//! paper's results:
//!
//! * **Checked** — full POSIX validity (EEXIST on duplicate create, ...).
//!   This is what the RPC path does, and the existence check is exactly the
//!   fragment scan that makes RPCs expensive.
//! * **Blind** — "clients do not need to check for consistency when writing
//!   events and the metadata server blindly applies the updates because it
//!   assumes the events were already checked". This is the merge path for
//!   decoupled journals; decoupled-namespace updates "take priority at
//!   merge time", so blind applies overwrite.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

use cudele_journal::{Attrs, EventRef, FileType, InodeId, JournalEvent};
use cudele_sim::IntMap;

use crate::dirfrag::{Dentry, Dir, DirListing, NameHash};
use crate::error::{MdsError, Result};
use crate::inode::Inode;

type InoMap<V> = IntMap<InodeId, V>;

/// The namespace: an inode table plus per-directory dentry tables.
#[derive(Debug, Clone)]
pub struct MetadataStore {
    inodes: InoMap<Inode>,
    dirs: InoMap<Dir>,
    split_threshold: usize,
}

impl MetadataStore {
    /// An empty namespace containing only `/`.
    pub fn new() -> MetadataStore {
        MetadataStore::with_split_threshold(Dir::DEFAULT_SPLIT_THRESHOLD)
    }

    /// An empty namespace with a custom directory-fragment split threshold.
    pub fn with_split_threshold(threshold: usize) -> MetadataStore {
        let mut inodes = InoMap::default();
        inodes.insert(InodeId::ROOT, Inode::root());
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
        self.inodes.contains_key(&ino)
    }

    /// The inode, if present.
    pub fn inode(&self, ino: InodeId) -> Option<&Inode> {
        self.inodes.get(&ino)
    }

    /// The highest inode number present in the namespace. Allocator
    /// recovery uses this as a floor for the watermark: inodes persisted
    /// before the journal was trimmed have no surviving grant event.
    pub fn max_inode(&self) -> Option<InodeId> {
        self.inodes.keys().max().copied()
    }

    /// The parent directory of `ino` (None for the root or unknown inodes).
    pub fn parent_of(&self, ino: InodeId) -> Option<InodeId> {
        self.inodes.get(&ino).and_then(Inode::parent)
    }

    /// Whether `ino` lies inside the subtree rooted at `root` (inclusive).
    /// Used to enforce Cudele's interfere=block policy on every request
    /// that targets a decoupled subtree.
    pub fn is_within(&self, ino: InodeId, root: InodeId) -> bool {
        let mut cur = ino;
        loop {
            if cur == root {
                return true;
            }
            match self.parent_of(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// The directory fragtree of `ino`, if it is a directory.
    pub fn dir(&self, ino: InodeId) -> Option<&Dir> {
        self.dirs.get(&ino)
    }

    /// Why `ino` has no dentry table: it does not exist, or is not a
    /// directory.
    fn not_a_dir(&self, ino: InodeId) -> MdsError {
        if self.inodes.contains_key(&ino) {
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
    /// there, so the inode is confirmed first — an integer-hash probe.
    fn dir_mut(&mut self, ino: InodeId) -> Result<&mut Dir> {
        if !self.inodes.contains_key(&ino) {
            return Err(self.not_a_dir(ino));
        }
        self.dirs.get_mut(&ino).ok_or(MdsError::NotDir { ino })
    }

    /// Drops an inode and, if it had one, its dentry table.
    fn forget(&mut self, ino: InodeId) {
        self.inodes.remove(&ino);
        self.dirs.remove(&ino);
    }

    fn no_such_name(parent: InodeId, name: &str) -> MdsError {
        MdsError::NoEnt {
            what: format!("{name:?} in {parent}"),
        }
    }

    // ------------------------------------------------------------------
    // Checked (POSIX) operations
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
        self.link_new(parent, name, Inode::file(ino, attrs))
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, parent: InodeId, name: &str, ino: InodeId, attrs: Attrs) -> Result<()> {
        self.link_new(parent, name, Inode::dir(ino, attrs))?;
        self.dirs
            .insert(ino, Dir::with_split_threshold(self.split_threshold));
        Ok(())
    }

    /// The shared body of `create` and `mkdir`. The inode table is probed
    /// once for the new number (collision check and insertion slot in one)
    /// and the parent's dentry table once for the name (existence check
    /// and insertion slot in one).
    fn link_new(&mut self, parent: InodeId, name: &str, inode: Inode) -> Result<()> {
        let ino = inode.ino;
        let parent_exists = self.inodes.contains_key(&parent);
        let Entry::Vacant(slot) = self.inodes.entry(ino) else {
            return Err(MdsError::InodeCollision { ino });
        };
        let dir = match self.dirs.get_mut(&parent) {
            Some(dir) if parent_exists => dir,
            _ => return Err(self.not_a_dir(parent)),
        };
        let dentry = Dentry {
            ino,
            ftype: inode.ftype,
        };
        if dir.try_insert(name, dentry).is_err() {
            return Err(MdsError::Exists {
                parent,
                name: name.to_string(),
            });
        }
        slot.insert(inode.child_of(parent));
        Ok(())
    }

    /// Removes a file.
    pub fn unlink(&mut self, parent: InodeId, name: &str) -> Result<()> {
        let hash = NameHash::of(name);
        let dir = self.dir_mut(parent)?;
        let dentry = dir
            .get_hashed(hash, name)
            .ok_or_else(|| MetadataStore::no_such_name(parent, name))?;
        if dentry.ftype == FileType::Dir {
            return Err(MdsError::IsDir { ino: dentry.ino });
        }
        dir.remove_hashed(hash, name);
        self.inodes.remove(&dentry.ino);
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, parent: InodeId, name: &str) -> Result<()> {
        let hash = NameHash::of(name);
        let dentry = self
            .dir_mut(parent)?
            .get_hashed(hash, name)
            .ok_or_else(|| MetadataStore::no_such_name(parent, name))?;
        if dentry.ftype != FileType::Dir {
            return Err(MdsError::NotDir { ino: dentry.ino });
        }
        if !self.dirs.get(&dentry.ino).is_none_or(|d| d.is_empty()) {
            return Err(MdsError::NotEmpty { ino: dentry.ino });
        }
        if let Some(dir) = self.dirs.get_mut(&parent) {
            dir.remove_hashed(hash, name);
        }
        self.forget(dentry.ino);
        Ok(())
    }

    /// Renames `src_parent/src_name` to `dst_parent/dst_name`. An existing
    /// destination *file* is replaced (POSIX rename); an existing
    /// destination directory is an error.
    pub fn rename(
        &mut self,
        src_parent: InodeId,
        src_name: &str,
        dst_parent: InodeId,
        dst_name: &str,
    ) -> Result<()> {
        let (src_hash, dst_hash) = (NameHash::of(src_name), NameHash::of(dst_name));
        let src = self
            .dir_mut(src_parent)?
            .get_hashed(src_hash, src_name)
            .ok_or_else(|| MetadataStore::no_such_name(src_parent, src_name))?;
        if let Some(dst) = self.dir_mut(dst_parent)?.get_hashed(dst_hash, dst_name) {
            if dst.ino == src.ino {
                // Renaming a dentry onto itself is a POSIX no-op. Without
                // this guard the replacement path below would remove the
                // *source* inode and leave the dentry dangling — and blind
                // replay (which treats self-rename as a no-op) would then
                // recover a different namespace than the live server held.
                return Ok(());
            }
            if dst.ftype == FileType::Dir {
                return Err(MdsError::IsDir { ino: dst.ino });
            }
            self.inodes.remove(&dst.ino);
        }
        // Both tables were found above; nothing since removed them.
        if let Some(dir) = self.dirs.get_mut(&src_parent) {
            dir.remove_hashed(src_hash, src_name);
        }
        if let Some(dir) = self.dirs.get_mut(&dst_parent) {
            dir.insert_hashed(dst_hash, dst_name, src);
        }
        if let Some(inode) = self.inodes.get_mut(&src.ino) {
            inode.set_parent(dst_parent);
        }
        Ok(())
    }

    /// Overwrites an inode's attributes.
    pub fn setattr(&mut self, ino: InodeId, attrs: Attrs) -> Result<()> {
        self.inode_mut(ino)?.set_attrs(attrs);
        Ok(())
    }

    /// Installs a Cudele policy blob on a directory inode.
    pub fn set_policy(&mut self, ino: InodeId, policy: Vec<u8>) -> Result<()> {
        self.inode_mut(ino)?.set_policy(policy);
        Ok(())
    }

    fn inode_mut(&mut self, ino: InodeId) -> Result<&mut Inode> {
        self.raw_inode_mut(ino).ok_or_else(|| MdsError::NoEnt {
            what: format!("inode {ino}"),
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
            .ok_or_else(|| MdsError::NoEnt {
                what: format!("directory {ino}"),
            })
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
            let policy = self.inodes.get(&ino)?.policy.as_deref()?;
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
    // Blind (merge) operations
    // ------------------------------------------------------------------

    /// The dentry table of `ino`, materialised if a blind event names a
    /// parent the namespace has not seen.
    fn dir_or_new(&mut self, ino: InodeId) -> &mut Dir {
        let threshold = self.split_threshold;
        self.dirs
            .entry(ino)
            .or_insert_with(|| Dir::with_split_threshold(threshold))
    }

    /// Applies one journal event without validity checks, as the merge path
    /// does. Decoupled updates take priority: existing dentries are
    /// overwritten, missing unlink targets are ignored.
    pub fn apply_blind(&mut self, event: &JournalEvent) {
        self.apply_blind_ref(event.into());
    }

    /// [`MetadataStore::apply_blind`] over the borrowed view — the one
    /// blind-apply body.
    pub fn apply_blind_ref(&mut self, event: EventRef<'_>) {
        match event {
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
                    self.inodes.remove(&prev.ino);
                }
                self.inodes
                    .insert(ino, Inode::file(ino, attrs).child_of(parent));
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
                if let Some(prev) = self.dir_or_new(parent).insert(name, dentry) {
                    if prev.ino != ino {
                        self.forget(prev.ino);
                    }
                }
                self.inodes
                    .insert(ino, Inode::dir(ino, attrs).child_of(parent));
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
                let Some(dentry) = self
                    .dirs
                    .get_mut(&src_parent)
                    .and_then(|d| d.remove(src_name))
                else {
                    return;
                };
                if let Some(prev) = self.dir_or_new(dst_parent).insert(dst_name, dentry) {
                    if prev.ino != dentry.ino {
                        self.forget(prev.ino);
                    }
                }
                if let Some(inode) = self.inodes.get_mut(&dentry.ino) {
                    inode.set_parent(dst_parent);
                }
            }
            EventRef::SetAttr { ino, attrs } => {
                if let Some(inode) = self.inodes.get_mut(&ino) {
                    inode.set_attrs(attrs);
                }
            }
            EventRef::SetPolicy { ino, policy } => {
                if let Some(inode) = self.inodes.get_mut(&ino) {
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
    /// ([`JournalEvent::is_update`]; bookkeeping events apply as no-ops).
    pub fn apply_blind_all(&mut self, events: &[JournalEvent]) -> u64 {
        fn links_into(e: &JournalEvent) -> Option<InodeId> {
            match e {
                JournalEvent::Create { parent, .. } | JournalEvent::Mkdir { parent, .. } => {
                    Some(*parent)
                }
                _ => None,
            }
        }
        let net_new = events.iter().fold(0usize, |n, e| match e {
            JournalEvent::Unlink { .. } | JournalEvent::Rmdir { .. } => n.saturating_sub(1),
            e if e.allocates().is_some() => n + 1,
            _ => n,
        });
        self.inodes.reserve(net_new);
        let mut updates = 0;
        let mut rest = events;
        while let Some(first) = rest.first() {
            let parent = links_into(first);
            let run = rest.iter().take_while(|e| links_into(e) == parent).count();
            if let Some(parent) = parent.filter(|_| run > 1) {
                self.dir_or_new(parent).reserve(run);
            }
            let (now, later) = rest.split_at(run);
            for e in now {
                self.apply_blind(e);
                updates += u64::from(e.is_update());
            }
            rest = later;
        }
        updates
    }

    /// Applies one journal event with full validity checks (the RPC
    /// discipline), mapping each event to its checked operation.
    pub fn apply_checked(&mut self, event: &JournalEvent) -> Result<()> {
        self.apply_checked_ref(event.into())
    }

    /// [`MetadataStore::apply_checked`] over the borrowed view — the one
    /// checked-apply body, and what the serving funnel calls with the
    /// request's own names.
    pub fn apply_checked_ref(&mut self, event: EventRef<'_>) -> Result<()> {
        match event {
            EventRef::Create {
                parent,
                name,
                ino,
                attrs,
            } => self.create(parent, name, ino, attrs),
            EventRef::Mkdir {
                parent,
                name,
                ino,
                attrs,
            } => self.mkdir(parent, name, ino, attrs),
            EventRef::Unlink { parent, name } => self.unlink(parent, name),
            EventRef::Rmdir { parent, name } => self.rmdir(parent, name),
            EventRef::Rename {
                src_parent,
                src_name,
                dst_parent,
                dst_name,
            } => self.rename(src_parent, src_name, dst_parent, dst_name),
            EventRef::SetAttr { ino, attrs } => self.setattr(ino, attrs),
            EventRef::SetPolicy { ino, policy } => self.set_policy(ino, policy.to_vec()),
            EventRef::SegmentBoundary { .. } | EventRef::AllocRange { .. } => Ok(()),
        }
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
        self.inodes.insert(inode.ino, inode);
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
        self.inodes.get_mut(&ino)
    }

    // ------------------------------------------------------------------
    // Snapshots (test and verification support)
    // ------------------------------------------------------------------

    /// Depth-first walk over every dentry, presenting each full path in one
    /// shared buffer (push a component, recurse, truncate back) — no
    /// per-entry `format!` allocation. `snapshot` and `shape` both build on
    /// this.
    fn walk_paths(&self, visit: &mut impl FnMut(&str, &Dentry)) {
        let mut path = String::new();
        self.walk_dir(InodeId::ROOT, &mut path, visit);
    }

    fn walk_dir(&self, ino: InodeId, path: &mut String, visit: &mut impl FnMut(&str, &Dentry)) {
        if let Some(dir) = self.dirs.get(&ino) {
            for (name, dentry) in dir.sorted() {
                let depth = path.len();
                path.push('/');
                path.push_str(name);
                visit(path, &dentry);
                if dentry.ftype == FileType::Dir {
                    self.walk_dir(dentry.ino, path, visit);
                }
                path.truncate(depth);
            }
        }
    }

    /// Flattens the namespace into `path -> (ino, type)` for equivalence
    /// checks (e.g. "Nonvolatile Apply and Volatile Apply + Global Persist
    /// end up with the same final metadata state").
    pub fn snapshot(&self) -> BTreeMap<String, (InodeId, FileType)> {
        let mut out = BTreeMap::new();
        self.walk_paths(&mut |path, dentry| {
            out.insert(path.to_owned(), (dentry.ino, dentry.ftype));
        });
        out
    }

    /// Like [`MetadataStore::snapshot`] but ignoring inode numbers — two
    /// runs that allocate different inode ranges still produce the same
    /// *shape*.
    pub fn shape(&self) -> BTreeMap<String, FileType> {
        let mut out = BTreeMap::new();
        self.walk_paths(&mut |path, dentry| {
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

    fn attrs() -> Attrs {
        Attrs::file_default()
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
        assert!(matches!(
            s.rmdir(InodeId::ROOT, "d").unwrap_err(),
            MdsError::NotEmpty { .. }
        ));
        s.unlink(InodeId(0x1000), "f").unwrap();
        s.rmdir(InodeId::ROOT, "d").unwrap();
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

    #[test]
    fn setattr_and_policy() {
        let mut s = MetadataStore::new();
        s.create(InodeId::ROOT, "f", InodeId(0x1000), attrs())
            .unwrap();
        s.setattr(
            InodeId(0x1000),
            Attrs {
                size: 99,
                ..attrs()
            },
        )
        .unwrap();
        assert_eq!(s.inode(InodeId(0x1000)).unwrap().attrs.size, 99);
        s.set_policy(InodeId::ROOT, vec![7]).unwrap();
        assert_eq!(
            s.inode(InodeId::ROOT).unwrap().policy.as_deref(),
            Some(&[7u8][..])
        );
        assert!(s.setattr(InodeId(0xdead), attrs()).is_err());
    }

    #[test]
    fn effective_policy_walks_up() {
        let mut s = MetadataStore::new();
        s.mkdir(InodeId::ROOT, "a", InodeId(0x1000), Attrs::dir_default())
            .unwrap();
        s.mkdir(InodeId(0x1000), "b", InodeId(0x1001), Attrs::dir_default())
            .unwrap();
        assert_eq!(s.effective_policy("/a/b").unwrap(), None);
        s.set_policy(InodeId(0x1000), vec![1]).unwrap();
        // /a/b inherits /a's policy.
        let (ino, p) = s.effective_policy("/a/b").unwrap().unwrap();
        assert_eq!(ino, InodeId(0x1000));
        assert_eq!(p, &[1]);
        // A closer policy shadows it.
        s.set_policy(InodeId(0x1001), vec![2]).unwrap();
        let (ino, p) = s.effective_policy("/a/b").unwrap().unwrap();
        assert_eq!(ino, InodeId(0x1001));
        assert_eq!(p, &[2]);
        // Root policy applies everywhere once set.
        s.set_policy(InodeId::ROOT, vec![0]).unwrap();
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
    fn blind_and_checked_agree_on_clean_input() {
        let events: Vec<JournalEvent> = (0..20)
            .map(|i| JournalEvent::Create {
                parent: InodeId::ROOT,
                name: format!("f{i}"),
                ino: InodeId(0x1000 + i),
                attrs: attrs(),
            })
            .collect();
        let mut a = MetadataStore::new();
        let mut b = MetadataStore::new();
        for e in &events {
            a.apply_checked(e).unwrap();
            b.apply_blind(e);
        }
        assert_eq!(a.snapshot(), b.snapshot());
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
