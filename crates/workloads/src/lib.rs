#![warn(missing_docs)]

//! Workload generators for every experiment in the paper.
//!
//! * [`create_heavy`] — N clients × K creates in private directories (the
//!   mdtest-style pattern of Figures 3a/3b/6a/6b, motivated by
//!   checkpoint-restart).
//! * [`interference`] — the interfering client that touches every other
//!   client's directory (Figures 3b/3c/6b).
//! * [`compile_trace`] — the Linux-kernel-compile phase trace of Figure 2
//!   (download/untar/configure/make/install op mixes).
//! * [`checkpoint`] — N:N and N:1 checkpoint-restart create patterns.
//! * [`partial`] — the read-while-writing workload of Figure 6c (1 M
//!   updates, periodic namespace sync, end-user polling).
//! * [`open_loop`] — production-shaped open-loop traffic (Poisson/bursty
//!   arrivals, zipf hotspots, diurnal envelopes, multi-tenant subtrees);
//!   the load generator behind `mdbench --arrival`.

pub mod checkpoint;
pub mod compile_trace;
pub mod create_heavy;
pub mod interference;
pub mod open_loop;
pub mod partial;

pub use checkpoint::{CheckpointPattern, CheckpointWorkload};
pub use compile_trace::{compile_phases, Phase, PhaseOp};
pub use create_heavy::{client_dir, file_name, write_file_name, CreateHeavy};
pub use interference::Interference;
pub use open_loop::{Arrival, ArrivalSpec, ZipfSelector};
pub use partial::PartialResults;
