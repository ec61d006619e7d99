//! Inodes, including Cudele's "large inodes" that carry subtree policy.
//!
//! CephFS inodes "already store policies, like how the file is striped
//! across the object store or for managing subtrees for load balancing";
//! Cudele extends this so "the large inodes also store consistency and
//! durability policies" using the Malacology File Type interface. We model
//! that as an opaque serialized policy blob on the inode — the core crate
//! owns the blob's schema, the MDS just stores, journals, and serves it.

use std::hash::Hasher;

use cudele_journal::{Attrs, FileType, InodeId};
use cudele_sim::IntHasher;

use crate::table::Tagged;

/// One inode in the metadata store.
#[derive(Debug, Clone, PartialEq)]
pub struct Inode {
    /// This inode's number.
    pub ino: InodeId,
    /// File or directory.
    pub ftype: FileType,
    /// POSIX attributes.
    pub attrs: Attrs,
    /// Serialized Cudele policy, if this inode roots a policied subtree.
    /// `None` means the subtree inherits its parent's semantics.
    pub policy: Option<Vec<u8>>,
    /// Version bumped on every attribute or policy change (capability
    /// invalidation and persistence both key off it).
    pub version: u64,
    /// Directory this inode is linked under; `NO_PARENT` for the root and
    /// for inodes recovery has not linked yet. Maintained by the store on
    /// every namespace mutation.
    parent: InodeId,
}

/// "No parent": inode number 0 is never allocated.
const NO_PARENT: InodeId = InodeId(0);

impl Inode {
    /// A fresh regular file.
    pub fn file(ino: InodeId, attrs: Attrs) -> Inode {
        Inode {
            ino,
            ftype: FileType::File,
            attrs,
            policy: None,
            version: 1,
            parent: NO_PARENT,
        }
    }

    /// A fresh directory.
    pub fn dir(ino: InodeId, attrs: Attrs) -> Inode {
        Inode {
            ino,
            ftype: FileType::Dir,
            attrs,
            policy: None,
            version: 1,
            parent: NO_PARENT,
        }
    }

    /// The root directory.
    pub fn root() -> Inode {
        Inode::dir(InodeId::ROOT, Attrs::dir_default())
    }

    /// Whether this inode is a directory.
    pub fn is_dir(&self) -> bool {
        self.ftype == FileType::Dir
    }

    /// The directory this inode is linked under (None for the root).
    pub fn parent(&self) -> Option<InodeId> {
        (self.parent != NO_PARENT).then_some(self.parent)
    }

    /// This inode, linked under `parent`.
    pub(crate) fn child_of(mut self, parent: InodeId) -> Inode {
        self.parent = parent;
        self
    }

    pub(crate) fn set_parent(&mut self, parent: InodeId) {
        self.parent = parent;
    }

    /// Replaces the attributes, bumping the version.
    pub fn set_attrs(&mut self, attrs: Attrs) {
        self.attrs = attrs;
        self.version += 1;
    }

    /// Installs or replaces the policy blob, bumping the version.
    pub fn set_policy(&mut self, policy: Vec<u8>) {
        self.policy = Some(policy);
        self.version += 1;
    }

    /// Clears the policy blob (subtree reverts to inheriting).
    pub fn clear_policy(&mut self) {
        if self.policy.take().is_some() {
            self.version += 1;
        }
    }
}

/// Inodes are indexed by their number's `IntHasher` mix (DESIGN.md "Hash
/// requirements" §3): one multiply and a fold of the high half into the
/// low, which the table's low bits bucket by.
impl Tagged for Inode {
    fn tag(&self) -> u32 {
        ino_tag(self.ino)
    }
}

/// The table hash of inode number `ino`.
pub(crate) fn ino_tag(ino: InodeId) -> u32 {
    let mut h = IntHasher::default();
    h.write_u64(ino.0);
    h.finish() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let f = Inode::file(InodeId(0x1000), Attrs::file_default());
        assert!(!f.is_dir());
        assert_eq!(f.version, 1);
        let d = Inode::root();
        assert!(d.is_dir());
        assert_eq!(d.ino, InodeId::ROOT);
        assert_eq!(d.parent(), None);
        assert_eq!(f.child_of(InodeId::ROOT).parent(), Some(InodeId::ROOT));
    }

    #[test]
    fn version_bumps_on_mutation() {
        let mut i = Inode::file(InodeId(0x1000), Attrs::file_default());
        i.set_attrs(Attrs {
            size: 10,
            ..Attrs::file_default()
        });
        assert_eq!(i.version, 2);
        i.set_policy(vec![1, 2, 3]);
        assert_eq!(i.version, 3);
        assert_eq!(i.policy.as_deref(), Some(&[1u8, 2, 3][..]));
        i.clear_policy();
        assert_eq!(i.version, 4);
        assert!(i.policy.is_none());
        // Clearing an absent policy does not bump.
        i.clear_policy();
        assert_eq!(i.version, 4);
    }
}
