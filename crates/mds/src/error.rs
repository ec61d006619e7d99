//! Metadata-operation errors, named after the POSIX errno each maps to at
//! the filesystem boundary.

use cudele_journal::InodeId;

/// Errors returned by the metadata store and server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdsError {
    /// ENOENT: path component or inode does not exist.
    NoEnt {
        /// Human-readable description of what was missing.
        what: String,
    },
    /// EEXIST: create/mkdir over an existing name.
    Exists {
        /// Directory holding the conflicting dentry.
        parent: InodeId,
        /// The name that already exists.
        name: String,
    },
    /// ENOTDIR: path component is not a directory.
    NotDir {
        /// The non-directory inode.
        ino: InodeId,
    },
    /// EISDIR: file operation on a directory.
    IsDir {
        /// The directory inode.
        ino: InodeId,
    },
    /// ENOTEMPTY: rmdir of a non-empty directory.
    NotEmpty {
        /// The non-empty directory.
        ino: InodeId,
    },
    /// EBUSY: the Cudele interfere policy is `block` and this client does
    /// not own the decoupled subtree ("any requests to this part of the
    /// namespace returns with 'Device is busy'").
    Busy {
        /// Root of the blocked subtree.
        ino: InodeId,
    },
    /// ENOSPC-like: the decoupled client exhausted its allocated inode
    /// range (the "Allocated Inodes" contract).
    NoInodes,
    /// A request referenced a session the server does not know.
    NoSession {
        /// The unknown client id.
        client: u32,
    },
    /// An inode number was reused in violation of the allocation contract.
    InodeCollision {
        /// The already-in-use inode.
        ino: InodeId,
    },
    /// A speculative replay token predicted an inode outside every range
    /// granted to the issuing session: the client speculated against state
    /// it never owned, so the op cannot be (re)applied idempotently. The
    /// client must drop the speculation and re-issue non-speculatively.
    BadSpeculation {
        /// The predicted inode the session does not own.
        ino: InodeId,
    },
    /// ETIMEDOUT: the MDS did not answer within the virtual-time RPC
    /// timeout — it is down (or partitioned). The client should back off
    /// and reconnect to the current primary.
    Timeout,
    /// This MDS has been fenced: a newer epoch took over and the object
    /// store rejected its write. Permanent for this instance.
    Fenced {
        /// The fenced instance's (stale) epoch.
        writer: u64,
        /// The cluster's current epoch.
        current: u64,
    },
    /// EIO: the object store failed underneath the operation (journal
    /// append, checkpoint publication, image load, mdlog replay). Says
    /// nothing about the namespace — in particular it is *not* an
    /// observation that a name is absent, which is what
    /// [`MdsError::NoEnt`] means to the history checkers.
    Io {
        /// What failed, with the store's own error.
        what: String,
    },
}

impl std::fmt::Display for MdsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MdsError::NoEnt { what } => write!(f, "ENOENT: {what}"),
            MdsError::Exists { parent, name } => {
                write!(f, "EEXIST: {name:?} already exists in {parent}")
            }
            MdsError::NotDir { ino } => write!(f, "ENOTDIR: {ino} is not a directory"),
            MdsError::IsDir { ino } => write!(f, "EISDIR: {ino} is a directory"),
            MdsError::NotEmpty { ino } => write!(f, "ENOTEMPTY: {ino} is not empty"),
            MdsError::Busy { ino } => write!(f, "EBUSY: subtree at {ino} is decoupled"),
            MdsError::NoInodes => write!(f, "allocated inode range exhausted"),
            MdsError::NoSession { client } => write!(f, "no session for client {client}"),
            MdsError::InodeCollision { ino } => {
                write!(
                    f,
                    "inode {ino} already in use (allocation contract violated)"
                )
            }
            MdsError::BadSpeculation { ino } => {
                write!(f, "bad speculation: predicted inode {ino} is not granted")
            }
            MdsError::Timeout => write!(f, "ETIMEDOUT: MDS did not respond within the RPC timeout"),
            MdsError::Fenced { writer, current } => {
                write!(
                    f,
                    "MDS fenced: epoch e{writer} is stale (current e{current})"
                )
            }
            MdsError::Io { what } => write!(f, "EIO: {what}"),
        }
    }
}

impl std::error::Error for MdsError {}

/// Result alias for metadata operations.
pub type Result<T> = std::result::Result<T, MdsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(MdsError::NoEnt {
            what: "/a/b".into()
        }
        .to_string()
        .contains("ENOENT"));
        assert!(MdsError::Busy { ino: InodeId::ROOT }
            .to_string()
            .contains("EBUSY"));
        assert!(MdsError::Exists {
            parent: InodeId::ROOT,
            name: "f".into()
        }
        .to_string()
        .contains("EEXIST"));
        assert!(MdsError::Io {
            what: "journal append (osd down)".into()
        }
        .to_string()
        .starts_with("EIO: journal append"));
    }
}
