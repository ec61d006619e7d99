#![warn(missing_docs)]

//! Simulated RADOS: the replicated object store CephFS (and therefore
//! Cudele) builds on.
//!
//! The paper's prototype stores all metadata durability state in RADOS:
//! the MDS journal is striped over objects, directory fragments live in
//! object omaps, and Cudele's Global Persist pushes client journals into
//! the same pool. This crate provides:
//!
//! * [`ObjectStore`] — the trait covering the RADOS operations the metadata
//!   path uses (blob write/append/read, omap get/set/list, listing, stat).
//! * [`InMemoryStore`] — a thread-safe in-memory cluster with stable
//!   hash-based placement across OSDs, a replication factor, and OSD
//!   outages in virtual time (durability tests). Its I/O is counted by an
//!   attached registry (`rados.store.*`, `rados.osd.<i>.*`) and timed by
//!   the simulation crate's cost model.
//! * [`FencedStore`] / [`FencingAuthority`] — epoch fencing for MDS
//!   failover: mutations are stamped with the writer's epoch and rejected
//!   once a newer primary has taken over, mirroring Ceph's OSD blocklist.
//!
//! Functional behaviour is real (bytes are stored and returned); timing is
//! accounted separately by the simulation layer.

pub mod fence;
pub mod store;
pub mod types;

pub use fence::{FenceObs, FencedStore, FencingAuthority};
pub use store::{InMemoryStore, IoDelta, ObjectStat, ObjectStore};
pub use types::{Epoch, ObjectId, PoolId, RadosError, Result};
