#![warn(missing_docs)]

//! # Cudele
//!
//! A from-scratch Rust reproduction of *Cudele: An API and Framework for
//! Programmable Consistency and Durability in a Global Namespace*
//! (Sevilla et al., IPDPS 2018).
//!
//! Cudele lets administrators assign consistency and durability semantics
//! to *subtrees* of one global namespace, so POSIX applications, HPC batch
//! jobs (BatchFS/DeltaFS style), and scratch/RAMDisk workloads can coexist
//! on one file system, each with custom-fit guarantees.
//!
//! * [`mechanism`] — the seven building blocks of Figure 4.
//! * [`dsl`] — `+` (serial) / `||` (parallel) mechanism compositions.
//! * [`policy`] — the consistency × durability spectrum of Table I, with
//!   presets for the systems the paper maps onto it (POSIX/CephFS,
//!   BatchFS, DeltaFS, RAMDisk).
//! * [`policies_file`] — the `policies.yml` format and the large-inode
//!   policy blob.
//! * [`monitor`] — versioned subtree→policy distribution with
//!   longest-prefix inheritance.
//! * [`executor`] — runs merge-time compositions with the paper's cost
//!   semantics (serial stages add, parallel stages overlap) and verifies
//!   achieved durability/visibility.
//! * [`fs`] — [`CudeleFs`], the end-user facade: mount, decouple, create,
//!   merge, transition.
//!
//! ```
//! use cudele::{CudeleFs, Policy};
//! use cudele_mds::ClientId;
//!
//! let mut fs = CudeleFs::new();
//! fs.mount(ClientId(1)).unwrap();
//! fs.mkdir_p("/batch").unwrap();
//! fs.decouple(ClientId(1), "/batch", &Policy::batchfs()).unwrap();
//! fs.create(ClientId(1), "/batch/out0").unwrap();     // local journal append
//! let report = fs.merge(ClientId(1), "/batch").unwrap(); // persist + apply
//! assert_eq!(report.events, 1);
//! ```

pub mod dsl;
pub mod executor;
pub mod fs;
pub mod mechanism;
pub mod monitor;
pub mod policies_file;
pub mod policy;

pub use dsl::{Composition, DslError, DslWarning};
pub use executor::{
    achieved_durability, execute_merge, execute_merge_at, visible_in_global, ExecEnv, ExecError,
    MergeObs, MergeReport,
};
pub use fs::{CudeleFs, FsError, FsResult};
pub use mechanism::Mechanism;
pub use monitor::{normalize_path, Monitor, MonitorRecoveryError};
pub use policies_file::{parse_policies, policy_from_blob, policy_to_blob, render_policies};
pub use policy::{table1_cell, Consistency, Durability, InterferePolicy, OperationMode, Policy};
