#![warn(missing_docs)]

//! The Cudele client library.
//!
//! "Cudele provides a library for clients to link into and all operations
//! are performed by the client." Two client personalities:
//!
//! * [`RpcClient`] — strong consistency: every metadata operation is an
//!   RPC, with a client-side mirror of the capability state so a cached
//!   directory needs one RPC per create and an uncached one needs two.
//! * [`DecoupledClient`] — Append Client Journal: updates go to a local
//!   in-memory journal (with a local namespace mirror for
//!   read-your-writes), to be persisted (Local/Global Persist) and merged
//!   (Volatile/Nonvolatile Apply) later.
//! * [`SpeculativeClient`] — RPC-mode semantics without the per-op stall:
//!   ops issue against predicted outcomes while a dependency frontier
//!   tracks what each later op consumed; acks commit, invalidations roll
//!   back the dependent suffix and replay it idempotently.
//!
//! Plus [`LocalDisk`] (the local-durability medium and its failure model)
//! and [`NamespaceSync`] (periodic partial updates, Figure 6c).
//!
//! ```
//! use std::sync::Arc;
//! use cudele_client::DecoupledClient;
//! use cudele_mds::{ClientId, MetadataServer};
//! use cudele_rados::InMemoryStore;
//!
//! let mut mds = MetadataServer::new(Arc::new(InMemoryStore::paper_default()));
//! mds.open_session(ClientId(1));
//! mds.setup_dir("/batch").unwrap();
//! let (dc, _cost) = DecoupledClient::decouple(&mut mds, ClientId(1), "/batch", 100);
//! let mut dc = dc.unwrap();
//! dc.create(dc.root, "out-0").unwrap();          // local journal append
//! let (applied, _, _) = dc.volatile_apply(&mut mds); // merge
//! assert_eq!(applied.unwrap(), 1);
//! ```

pub mod decoupled;
pub mod local_disk;
pub mod rpc;
pub mod speculate;
pub mod sync;

pub use decoupled::{DecoupledClient, DecoupledObs};
pub use local_disk::{DiskError, LocalDisk};
pub use rpc::{Costs, OpOutcome, RpcClient, RpcObs};
pub use speculate::{AckOutcome, SpecObs, SpecState, SpeculativeClient, SPEC_PREALLOC};
pub use sync::{NamespaceSync, SyncAction};
