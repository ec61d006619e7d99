#![warn(missing_docs)]

//! Discrete-event simulation substrate for the Cudele reproduction.
//!
//! The paper evaluated Cudele on a 34-node CloudLab cluster running a Ceph
//! fork. This crate replaces the *testbed* — and only the testbed — with a
//! deterministic virtual-time simulation:
//!
//! * [`time::Nanos`] — virtual instants/durations.
//! * [`engine`] — a process-driven event loop; each simulated client or
//!   daemon is a [`engine::Process`] woken in global time order.
//! * [`resource`] — FIFO servers (MDS CPU, a client's CPU) that turn actions
//!   into completion times and track utilization.
//! * [`cost::CostModel`] — every timing constant used anywhere in the
//!   workspace, each derived from a number the paper itself reports.
//! * [`stats`] — mean/σ over seeded repetitions, slowdown normalization,
//!   and the text tables the figure harnesses print.
//!
//! All *functional* behaviour (namespace trees, journal bytes, capability
//! state machines) lives in the other crates and executes for real; this
//! crate only accounts for time.
//!
//! ```
//! use cudele_sim::{ClosedLoopClient, Engine, FifoServer, Nanos};
//!
//! struct World { server: FifoServer }
//! let mut eng = Engine::new(World { server: FifoServer::new("mds") });
//! eng.add_process(Box::new(ClosedLoopClient::new("client", 100, |now, w: &mut World| {
//!     w.server.serve(now, Nanos::from_micros(333))
//! })));
//! let (_, report) = eng.run();
//! assert_eq!(report.slowest(), Nanos::from_micros(333) * 100);
//! ```

pub mod cost;
pub mod engine;
pub mod hash;
pub mod plot;
pub mod resource;
pub mod sched;
pub mod stats;
pub mod time;

pub use cost::{dispatch_penalty, CostModel};
pub use engine::{ClosedLoopClient, CompletionSummary, Engine, Process, RunReport, Step};
pub use hash::{IntHasher, IntMap};
pub use plot::render_plot;
pub use resource::FifoServer;
pub use sched::CalendarQueue;
pub use stats::{
    mean, p50, p95, p99, percentile, render_table, slowdown, speedup, stddev, summarize, Series,
    Summary,
};
pub use time::{per_op, transfer_time, Nanos};
