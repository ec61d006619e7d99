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

/// File vs directory. (CephFS also has symlinks; the Cudele workloads never
/// create one, but the variant exists so the journal format is complete.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileType {
    /// A regular file.
    File,
    /// A directory.
    Dir,
    /// A symbolic link.
    Symlink,
}

impl FileType {
    /// Single-byte tag used in serialized dentries (dirfrag omap values).
    pub fn to_tag(self) -> u8 {
        match self {
            FileType::File => 0,
            FileType::Dir => 1,
            FileType::Symlink => 2,
        }
    }

    /// Inverse of [`FileType::to_tag`].
    pub fn from_tag(t: u8) -> Option<FileType> {
        match t {
            0 => Some(FileType::File),
            1 => Some(FileType::Dir),
            2 => Some(FileType::Symlink),
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
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// Create a regular file `name` under directory `parent` with inode
    /// `ino`.
    Create {
        /// Directory receiving the new file.
        parent: InodeId,
        /// Dentry name.
        name: String,
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
        name: String,
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
        name: String,
    },
    /// Remove the (empty) directory `name` from `parent`.
    Rmdir {
        /// Directory holding the dentry.
        parent: InodeId,
        /// Dentry name to remove.
        name: String,
    },
    /// Move `src_parent/src_name` to `dst_parent/dst_name`.
    Rename {
        /// Source directory.
        src_parent: InodeId,
        /// Source dentry name.
        src_name: String,
        /// Destination directory.
        dst_parent: InodeId,
        /// Destination dentry name.
        dst_name: String,
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
        policy: Vec<u8>,
    },
    /// Segment boundary marker, written by the MDS journaler between
    /// segments so the trimmer knows where it may cut.
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

/// A [`JournalEvent`] with its names and policy blob borrowed: what the
/// serving path builds from a request's `&str`s, and what an owned event
/// converts to for free. The codec's encoder and the metadata store's apply
/// functions are written against this view, so logging and applying an
/// update never requires owning its name; only decoding produces owned
/// events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventRef<'a> {
    /// See [`JournalEvent::Create`].
    Create {
        /// Directory receiving the new file.
        parent: InodeId,
        /// Dentry name.
        name: &'a str,
        /// Inode number assigned to the file.
        ino: InodeId,
        /// Initial attributes.
        attrs: Attrs,
    },
    /// See [`JournalEvent::Mkdir`].
    Mkdir {
        /// Directory receiving the new subdirectory.
        parent: InodeId,
        /// Dentry name.
        name: &'a str,
        /// Inode number assigned to the directory.
        ino: InodeId,
        /// Initial attributes.
        attrs: Attrs,
    },
    /// See [`JournalEvent::Unlink`].
    Unlink {
        /// Directory holding the dentry.
        parent: InodeId,
        /// Dentry name to remove.
        name: &'a str,
    },
    /// See [`JournalEvent::Rmdir`].
    Rmdir {
        /// Directory holding the dentry.
        parent: InodeId,
        /// Dentry name to remove.
        name: &'a str,
    },
    /// See [`JournalEvent::Rename`].
    Rename {
        /// Source directory.
        src_parent: InodeId,
        /// Source dentry name.
        src_name: &'a str,
        /// Destination directory.
        dst_parent: InodeId,
        /// Destination dentry name.
        dst_name: &'a str,
    },
    /// See [`JournalEvent::SetAttr`].
    SetAttr {
        /// Target inode.
        ino: InodeId,
        /// Replacement attributes.
        attrs: Attrs,
    },
    /// See [`JournalEvent::SetPolicy`].
    SetPolicy {
        /// Subtree-root inode the policy attaches to.
        ino: InodeId,
        /// Opaque serialized policy.
        policy: &'a [u8],
    },
    /// See [`JournalEvent::SegmentBoundary`].
    SegmentBoundary {
        /// Sequence number of the segment this marker closes.
        seq: u64,
    },
    /// See [`JournalEvent::AllocRange`].
    AllocRange {
        /// Client the range was granted to.
        client: u32,
        /// First inode in the granted range.
        start: InodeId,
        /// Number of inodes granted.
        len: u64,
    },
}

impl<'a> From<&'a JournalEvent> for EventRef<'a> {
    // Replay converts every event it applies, from another crate.
    #[inline]
    fn from(event: &'a JournalEvent) -> EventRef<'a> {
        match *event {
            JournalEvent::Create {
                parent,
                ref name,
                ino,
                attrs,
            } => EventRef::Create {
                parent,
                name,
                ino,
                attrs,
            },
            JournalEvent::Mkdir {
                parent,
                ref name,
                ino,
                attrs,
            } => EventRef::Mkdir {
                parent,
                name,
                ino,
                attrs,
            },
            JournalEvent::Unlink { parent, ref name } => EventRef::Unlink { parent, name },
            JournalEvent::Rmdir { parent, ref name } => EventRef::Rmdir { parent, name },
            JournalEvent::Rename {
                src_parent,
                ref src_name,
                dst_parent,
                ref dst_name,
            } => EventRef::Rename {
                src_parent,
                src_name,
                dst_parent,
                dst_name,
            },
            JournalEvent::SetAttr { ino, attrs } => EventRef::SetAttr { ino, attrs },
            JournalEvent::SetPolicy { ino, ref policy } => EventRef::SetPolicy { ino, policy },
            JournalEvent::SegmentBoundary { seq } => EventRef::SegmentBoundary { seq },
            JournalEvent::AllocRange { client, start, len } => {
                EventRef::AllocRange { client, start, len }
            }
        }
    }
}

impl EventRef<'_> {
    /// Whether this event mutates the namespace (see
    /// [`JournalEvent::is_update`]).
    pub fn is_update(&self) -> bool {
        !matches!(
            self,
            EventRef::SegmentBoundary { .. } | EventRef::AllocRange { .. }
        )
    }
}

impl JournalEvent {
    /// A short label for traces and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::Create { .. } => "create",
            JournalEvent::Mkdir { .. } => "mkdir",
            JournalEvent::Unlink { .. } => "unlink",
            JournalEvent::Rmdir { .. } => "rmdir",
            JournalEvent::Rename { .. } => "rename",
            JournalEvent::SetAttr { .. } => "setattr",
            JournalEvent::SetPolicy { .. } => "setpolicy",
            JournalEvent::SegmentBoundary { .. } => "segment",
            JournalEvent::AllocRange { .. } => "allocrange",
        }
    }

    /// Whether this event mutates the namespace (segment boundaries and
    /// allocator grants don't — they are journal-only bookkeeping).
    pub fn is_update(&self) -> bool {
        !matches!(
            self,
            JournalEvent::SegmentBoundary { .. } | JournalEvent::AllocRange { .. }
        )
    }

    /// The inode this event allocates, if any. The merge path uses this to
    /// honour the allocated-inode contract ("skip inodes used by the client
    /// at merge time").
    pub fn allocates(&self) -> Option<InodeId> {
        match self {
            JournalEvent::Create { ino, .. } | JournalEvent::Mkdir { ino, .. } => Some(*ino),
            _ => None,
        }
    }

    /// One past the highest inode number this event proves was handed out:
    /// the end of a journaled grant, or the successor of an allocated
    /// inode. Allocator recovery takes the max of these over the journal.
    pub fn alloc_watermark(&self) -> Option<InodeId> {
        match self {
            JournalEvent::AllocRange { start, len, .. } => Some(InodeId(start.0 + len)),
            _ => self.allocates().map(InodeId::next),
        }
    }
}

/// Anything a journal can be replayed onto. The MDS metadata store is the
/// canonical sink; tests use counting/recording sinks.
pub trait EventSink {
    /// The sink's error type for invalid updates (e.g. create over an
    /// existing name when validity checking is on).
    type Error: std::fmt::Debug;

    /// Applies one event.
    fn apply_event(&mut self, event: &JournalEvent) -> Result<(), Self::Error>;

    /// Applies a whole sequence, stopping at the first error.
    fn apply_all<'a>(
        &mut self,
        events: impl IntoIterator<Item = &'a JournalEvent>,
    ) -> Result<u64, Self::Error> {
        let mut n = 0;
        for e in events {
            self.apply_event(e)?;
            n += 1;
        }
        Ok(n)
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
        assert_eq!(c.kind(), "create");
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
        for t in [FileType::File, FileType::Dir, FileType::Symlink] {
            assert_eq!(FileType::from_tag(t.to_tag()), Some(t));
        }
        assert_eq!(FileType::from_tag(9), None);
    }

    #[test]
    fn counting_sink_applies_all() {
        struct Count(u64);
        impl EventSink for Count {
            type Error = ();
            fn apply_event(&mut self, e: &JournalEvent) -> Result<(), ()> {
                if e.is_update() {
                    self.0 += 1;
                }
                Ok(())
            }
        }
        let mut c = Count(0);
        let events = vec![
            JournalEvent::SegmentBoundary { seq: 0 },
            JournalEvent::Unlink {
                parent: InodeId::ROOT,
                name: "x".into(),
            },
        ];
        let applied = c.apply_all(&events).unwrap();
        assert_eq!(applied, 2);
        assert_eq!(c.0, 1);
    }
}
