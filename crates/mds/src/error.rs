//! Metadata-operation errors, named after the POSIX errno each maps to at
//! the filesystem boundary.

use cudele_journal::InodeId;
use cudele_rados::RadosError;

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

impl MdsError {
    /// Classifies a store failure under `what` — the one place in this
    /// crate where an object-store, journal, checkpoint or image error
    /// becomes an [`MdsError`]. A fenced write anywhere in the error's
    /// `source` chain stays [`MdsError::Fenced`]: the one survivable case,
    /// the zombie (or a takeover superseded mid-recovery) keeps running with
    /// an error and its write simply died at the store. Everything else is
    /// [`MdsError::Io`] — never ENOENT, which the history checkers read as an
    /// observation of absence.
    pub(crate) fn from_store(what: &str, e: &(dyn std::error::Error + 'static)) -> MdsError {
        let mut chain = std::iter::successors(Some(e), |cause| cause.source());
        match chain.find_map(|cause| cause.downcast_ref()) {
            Some(RadosError::Fenced {
                writer, current, ..
            }) => MdsError::Fenced {
                writer: writer.0,
                current: current.0,
            },
            _ => MdsError::Io {
                what: format!("{what} ({e})"),
            },
        }
    }
}

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

    #[test]
    fn store_failures_are_classified_in_one_place() {
        use crate::checkpoint::CheckpointError;
        use cudele_journal::JournalIoError;
        use cudele_rados::{Epoch, ObjectId, PoolId};

        let object = ObjectId::new(PoolId::METADATA, "200_header");
        // A fence stays a fence however deep it sits in the chain.
        let fenced = CheckpointError::Journal(JournalIoError::Rados(RadosError::Fenced {
            object: object.clone(),
            writer: Epoch(2),
            current: Epoch(3),
        }));
        assert_eq!(
            MdsError::from_store("checkpoint", &fenced),
            MdsError::Fenced {
                writer: 2,
                current: 3
            }
        );
        // Anything else is EIO under the caller's label, never ENOENT.
        let gone = JournalIoError::Rados(RadosError::NoEnt(object));
        let e = MdsError::from_store("mdlog replay", &gone);
        assert!(matches!(&e, MdsError::Io { what } if what.starts_with("mdlog replay (")));
        let corrupt = CheckpointError::Corrupt("bad manifest magic".into());
        assert!(matches!(
            MdsError::from_store("checkpoint", &corrupt),
            MdsError::Io { .. }
        ));
    }
}
