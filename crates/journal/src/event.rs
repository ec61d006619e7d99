//! The metadata journal event model.
//!
//! CephFS represents the namespace twice: as a tree (the metadata store)
//! and as a log of updates (the journal). Cudele reuses the journal
//! *format* for four of its mechanisms — Stream, Append Client Journal,
//! Local Persist, and Global Persist all write events in this format, which
//! is what lets the MDS "read and use the recovery code to materialize the
//! updates from a client's decoupled namespace" without changes.
//!
//! This module defines the event vocabulary plus the base identifier types
//! shared by every crate above (`InodeId`, `FileType`, `Attrs`).

use cudele_sim::Nanos;

/// A CephFS inode number.
///
/// CephFS partitions the inode space: the root is `0x1`, MDS-local inodes
/// are low, and client-allocated ranges are handed out from a high
/// watermark. We mirror that: [`InodeId::ROOT`] is 1 and the allocator in
/// the MDS hands out ranges starting at [`InodeId::FIRST_DYNAMIC`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InodeId(pub u64);

impl InodeId {
    /// The root directory `/`.
    pub const ROOT: InodeId = InodeId(1);
    /// First inode number handed out by the allocator (below this is
    /// reserved for MDS-internal use, as in CephFS).
    pub const FIRST_DYNAMIC: InodeId = InodeId(0x1000);

    /// The next inode number (for iterating allocated ranges).
    pub fn next(self) -> InodeId {
        InodeId(self.0 + 1)
    }
}

impl std::fmt::Display for InodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A contiguous range of preallocated inode numbers `[start, start+len)`.
///
/// Cudele's "Allocated Inodes" policy parameter is a contract: the client
/// asks for `len` inodes up front so the MDS "can provision enough
/// resources for the incumbent merge and ... give valid inodes to other
/// clients".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InodeRange {
    /// First inode in the range.
    pub start: InodeId,
    /// Number of inodes in the range.
    pub len: u64,
}

impl InodeRange {
    /// A range of `len` inodes starting at `start`.
    pub fn new(start: InodeId, len: u64) -> Self {
        InodeRange { start, len }
    }

    /// Whether `ino` falls inside the range.
    pub fn contains(&self, ino: InodeId) -> bool {
        ino.0 >= self.start.0 && ino.0 < self.start.0 + self.len
    }

    /// One past the last inode in the range.
    pub fn end(&self) -> InodeId {
        InodeId(self.start.0 + self.len)
    }

    /// Iterates the inodes in the range.
    pub fn iter(&self) -> impl Iterator<Item = InodeId> {
        (self.start.0..self.start.0 + self.len).map(InodeId)
    }
}

/// File vs directory. CephFS also has symlinks; no Cudele event creates
/// one, so a persisted type tag other than these two is corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileType {
    /// A regular file.
    File,
    /// A directory.
    Dir,
}

impl FileType {
    /// Single-byte tag used in serialized dentries (dirfrag omap values).
    pub fn to_tag(self) -> u8 {
        match self {
            FileType::File => 0,
            FileType::Dir => 1,
        }
    }

    /// Inverse of [`FileType::to_tag`].
    pub fn from_tag(t: u8) -> Option<FileType> {
        match t {
            0 => Some(FileType::File),
            1 => Some(FileType::Dir),
            _ => None,
        }
    }
}

/// The attribute block carried by create/setattr events — a compact
/// stand-in for the ~1400-byte CephFS inode (the full weight is accounted
/// by the cost model, not by shipping dead bytes around).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attrs {
    /// POSIX permission bits.
    pub mode: u32,
    /// Owning user id.
    pub uid: u32,
    /// Owning group id.
    pub gid: u32,
    /// File size in bytes.
    pub size: u64,
    /// Modification time in virtual nanoseconds.
    pub mtime: Nanos,
}

impl Attrs {
    /// 0644 regular-file attributes owned by root at time zero.
    pub fn file_default() -> Attrs {
        Attrs {
            mode: 0o644,
            uid: 0,
            gid: 0,
            size: 0,
            mtime: Nanos::ZERO,
        }
    }

    /// 0755 directory attributes.
    pub fn dir_default() -> Attrs {
        Attrs {
            mode: 0o755,
            uid: 0,
            gid: 0,
            size: 0,
            mtime: Nanos::ZERO,
        }
    }
}

/// One metadata update. The journal is an ordered sequence of these.
///
/// One vocabulary in two forms: names are held as `N` and the policy blob
/// as `B`. A [`JournalEvent`] owns them. An [`EventRef`] borrows them: it
/// is what the serving path builds from a request's `&str`s, what an owned
/// event converts to for free, and what the codec's one parser returns,
/// borrowed from the frame bytes. The encoder, the parser and the metadata
/// store's apply functions are written against the view, so logging,
/// replaying and applying an update never requires owning its name; an
/// owned event exists only where a caller keeps one
/// ([`EventRef::to_owned`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event<N = String, B = Vec<u8>> {
    /// Create a regular file `name` under directory `parent` with inode
    /// `ino`.
    Create {
        /// Directory receiving the new file.
        parent: InodeId,
        /// Dentry name.
        name: N,
        /// Inode number assigned to the file.
        ino: InodeId,
        /// Initial attributes.
        attrs: Attrs,
    },
    /// Create a directory.
    Mkdir {
        /// Directory receiving the new subdirectory.
        parent: InodeId,
        /// Dentry name.
        name: N,
        /// Inode number assigned to the directory.
        ino: InodeId,
        /// Initial attributes.
        attrs: Attrs,
    },
    /// Remove the file `name` from `parent`.
    Unlink {
        /// Directory holding the dentry.
        parent: InodeId,
        /// Dentry name to remove.
        name: N,
    },
    /// Remove the (empty) directory `name` from `parent`.
    Rmdir {
        /// Directory holding the dentry.
        parent: InodeId,
        /// Dentry name to remove.
        name: N,
    },
    /// Move `src_parent/src_name` to `dst_parent/dst_name`.
    Rename {
        /// Source directory.
        src_parent: InodeId,
        /// Source dentry name.
        src_name: N,
        /// Destination directory.
        dst_parent: InodeId,
        /// Destination dentry name.
        dst_name: N,
    },
    /// Overwrite the attributes of `ino`.
    SetAttr {
        /// Target inode.
        ino: InodeId,
        /// Replacement attributes.
        attrs: Attrs,
    },
    /// Store a serialized Cudele policy blob on a directory inode (the
    /// "large inode" File Type interface from Malacology: executable policy
    /// travels with the inode).
    SetPolicy {
        /// Subtree-root inode the policy attaches to.
        ino: InodeId,
        /// Opaque serialized policy (the core crate owns the schema).
        policy: B,
    },
    /// Segment boundary marker, written by the MDS journaler at the end of
    /// each segment.
    SegmentBoundary {
        /// Sequence number of the segment this marker closes.
        seq: u64,
    },
    /// Inode-range grant marker: the MDS journals every range it hands a
    /// session *before* any inode in the range can be used, so a recovering
    /// (or standby-replay) MDS can rebuild the allocator watermark from the
    /// journal alone and never re-issue a pre-crash inode. Mirrors CephFS's
    /// journaled `prealloc_inos` in the session map.
    AllocRange {
        /// Client the range was granted to.
        client: u32,
        /// First inode in the granted range.
        start: InodeId,
        /// Number of inodes granted.
        len: u64,
    },
}

/// An [`Event`] that owns its names and policy blob.
pub type JournalEvent = Event<String, Vec<u8>>;

/// An [`Event`] that borrows its names and policy blob.
pub type EventRef<'a> = Event<&'a str, &'a [u8]>;

impl<N, B> Event<N, B> {
    /// The same event with every name passed through `map_name` and the
    /// policy blob through `map_blob`, in field order (a rename's source
    /// before its destination): the one conversion between the two forms.
    #[inline]
    fn map_ref<'s, M, C>(
        &'s self,
        mut map_name: impl FnMut(&'s N) -> M,
        map_blob: impl FnOnce(&'s B) -> C,
    ) -> Event<M, C> {
        match *self {
            Event::Create {
                parent,
                ref name,
                ino,
                attrs,
            } => Event::Create {
                parent,
                name: map_name(name),
                ino,
                attrs,
            },
            Event::Mkdir {
                parent,
                ref name,
                ino,
                attrs,
            } => Event::Mkdir {
                parent,
                name: map_name(name),
                ino,
                attrs,
            },
            Event::Unlink { parent, ref name } => Event::Unlink {
                parent,
                name: map_name(name),
            },
            Event::Rmdir { parent, ref name } => Event::Rmdir {
                parent,
                name: map_name(name),
            },
            Event::Rename {
                src_parent,
                ref src_name,
                dst_parent,
                ref dst_name,
            } => Event::Rename {
                src_parent,
                src_name: map_name(src_name),
                dst_parent,
                dst_name: map_name(dst_name),
            },
            Event::SetAttr { ino, attrs } => Event::SetAttr { ino, attrs },
            Event::SetPolicy { ino, ref policy } => Event::SetPolicy {
                ino,
                policy: map_blob(policy),
            },
            Event::SegmentBoundary { seq } => Event::SegmentBoundary { seq },
            Event::AllocRange { client, start, len } => Event::AllocRange { client, start, len },
        }
    }

    /// Whether this event mutates the namespace (segment boundaries and
    /// allocator grants don't — they are journal-only bookkeeping).
    pub fn is_update(&self) -> bool {
        !matches!(
            self,
            Event::SegmentBoundary { .. } | Event::AllocRange { .. }
        )
    }

    /// The inode this event allocates, if any. The merge path uses this to
    /// honour the allocated-inode contract ("skip inodes used by the client
    /// at merge time").
    pub fn allocates(&self) -> Option<InodeId> {
        match self {
            Event::Create { ino, .. } | Event::Mkdir { ino, .. } => Some(*ino),
            _ => None,
        }
    }

    /// One past the highest inode number this event proves was handed out:
    /// the end of a journaled grant, or the successor of an allocated
    /// inode. Allocator recovery takes the max of these over the journal.
    pub fn alloc_watermark(&self) -> Option<InodeId> {
        match self {
            Event::AllocRange { start, len, .. } => Some(InodeId(start.0 + len)),
            _ => self.allocates().map(InodeId::next),
        }
    }
}

impl<'a> From<&'a JournalEvent> for EventRef<'a> {
    // Replay converts every event it applies, from another crate.
    #[inline]
    fn from(event: &'a JournalEvent) -> EventRef<'a> {
        event.map_ref(String::as_str, Vec::as_slice)
    }
}

/// What iterating a list of borrowed events (`&[&JournalEvent]`) yields;
/// `impl Into<EventRef>` parameters take it as they take `&JournalEvent`.
impl<'a> From<&&'a JournalEvent> for EventRef<'a> {
    #[inline]
    fn from(event: &&'a JournalEvent) -> EventRef<'a> {
        EventRef::from(*event)
    }
}

/// What iterating a list of views (`&[EventRef]`) yields, so bulk apply
/// takes parsed views as it takes owned events.
impl<'a, 'b: 'a> From<&'a EventRef<'b>> for EventRef<'a> {
    #[inline]
    fn from(event: &'a EventRef<'b>) -> EventRef<'a> {
        *event
    }
}

impl EventRef<'_> {
    /// The owned event, names copied out of whatever the view borrows.
    pub fn to_owned(self) -> JournalEvent {
        self.map_ref(|&name| name.to_owned(), |&blob| blob.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inode_range_contains() {
        let r = InodeRange::new(InodeId(0x1000), 100);
        assert!(r.contains(InodeId(0x1000)));
        assert!(r.contains(InodeId(0x1063)));
        assert!(!r.contains(InodeId(0x1064)));
        assert!(!r.contains(InodeId(0xFFF)));
        assert_eq!(r.end(), InodeId(0x1064));
        assert_eq!(r.iter().count(), 100);
    }

    #[test]
    fn event_kinds_and_allocations() {
        let c = JournalEvent::Create {
            parent: InodeId::ROOT,
            name: "f".into(),
            ino: InodeId(0x1000),
            attrs: Attrs::file_default(),
        };
        assert!(c.is_update());
        assert_eq!(c.allocates(), Some(InodeId(0x1000)));

        let s = JournalEvent::SegmentBoundary { seq: 3 };
        assert!(!s.is_update());
        assert_eq!(s.allocates(), None);

        let u = JournalEvent::Unlink {
            parent: InodeId::ROOT,
            name: "f".into(),
        };
        assert_eq!(u.allocates(), None);
    }

    #[test]
    fn filetype_tags_roundtrip() {
        for t in [FileType::File, FileType::Dir] {
            assert_eq!(FileType::from_tag(t.to_tag()), Some(t));
        }
        assert_eq!(FileType::from_tag(2), None);
        assert_eq!(FileType::from_tag(9), None);
    }
}
