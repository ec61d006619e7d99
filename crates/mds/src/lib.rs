#![warn(missing_docs)]

//! The CephFS-style metadata service the Cudele framework programs.
//!
//! This crate builds the server side of the paper's substrate from scratch:
//!
//! * [`store`] — the in-memory namespace (inode table + per-directory
//!   fragtrees) with checked (POSIX/RPC) and blind (merge) apply paths.
//! * [`dirfrag`] — directory fragments with hash-based placement and
//!   splitting, the "poorly scaling data structure" of Figure 5.
//! * [`persist`] — the object-store representation (one object per
//!   dirfrag, dentries in omaps), recovery, and the Nonvolatile Apply
//!   object sink with its faithful pull/update/push of the experiment
//!   directory *and* the root object per event.
//! * [`caps`] — the capability protocol whose revocations under false
//!   sharing drive Figures 3b/3c and 6b.
//! * [`session`] — client sessions and the allocated-inode contract.
//! * [`mdlog`] — the Stream journal with segment and dispatch-size
//!   tunables (Figure 3a).
//! * [`failover`] — beacon failure detection, epoch fencing, and
//!   standby-replay takeover on the virtual clock.
//! * [`checkpoint`] — canonical images of the journaled namespace under a
//!   CAS-advanced manifest, bounding recovery replay to the journal tail
//!   past the covered high-water mark.
//! * [`server`] — the metadata server tying it together: namespace
//!   operations are [`Request`]s through the one
//!   [`MetadataServer::serve`] funnel, recovery is one fold (base, journal
//!   tail, allocator) shared by restart and takeover, and every RPC returns
//!   a functional result plus an [`OpCost`] for the simulation harness.
//!
//! ```
//! use std::sync::Arc;
//! use cudele_mds::{ClientId, MetadataServer};
//! use cudele_rados::InMemoryStore;
//!
//! let mut mds = MetadataServer::new(Arc::new(InMemoryStore::paper_default()));
//! mds.open_session(ClientId(1));
//! let dir = mds.setup_dir("/work").unwrap();
//! let reply = mds.create(ClientId(1), dir, "data.bin").result.unwrap();
//! assert!(reply.has_cache); // sole writer gets the dir cap
//! ```

pub mod caps;
pub mod checkpoint;
pub mod compact;
pub mod dirfrag;
pub mod error;
pub mod failover;
pub mod inode;
pub mod mdlog;
pub mod persist;
pub mod server;
pub mod session;
pub mod store;

pub use caps::{CapOutcome, CapTable, ClientId};
pub use checkpoint::{CheckpointConfig, CheckpointError, CheckpointManager, Manifest};
pub use compact::{compact_events, compact_with_report, emit_canonical, CompactionReport};
pub use dirfrag::{Dentry, Dir, DirListing};
pub use error::{MdsError, Result};
pub use failover::{
    FailoverConfig, FailoverDecision, FailoverMonitor, FailoverReport, MdsCluster, StandbyReplay,
    TakeoverReport,
};
pub use inode::Inode;
pub use mdlog::{MdLog, MdLogConfig, MdLogStats};
pub use persist::{flush_store, load_store, NvaCounters, ObjectStoreSink, PersistError};
pub use server::{
    CreateReply, MetadataServer, OpCost, ReplayToken, Reply, Request, Rpc, ServerCounters,
};
pub use session::{InodeAllocator, Session, SessionMap};
pub use store::MetadataStore;
