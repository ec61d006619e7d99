//! The five workloads. Each one prepares its inputs from the seed, runs
//! them through the real stack, and checks what came out.
//!
//! Sizes are a fifth to a half of what a standalone study would pick: the
//! acceptance driver gives every run (set-up included) about fifteen
//! seconds, and a steadier median needs several repeats inside that, so
//! one repeat is kept under a second. Each size is still past the point
//! where the mdlog flushes its first dispatch window (40 960 events), so
//! the journal and object-store layers do real work in every repeat.

pub mod creates;
pub mod failover;
pub mod mix;

use std::collections::BTreeMap;
use std::sync::Arc;

use cudele_bench::World;
use cudele_journal::{FileType, JournalEvent};
use cudele_mds::{MdLogConfig, MetadataServer};
use cudele_obs::history::History;
use cudele_obs::Registry;
use cudele_rados::{InMemoryStore, ObjectStore};
use cudele_sim::{CostModel, Engine, Process};

use crate::layers::Script;
use crate::trace::{self, Recording, Timed, TimedStore};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 5] = [
    "rpc_create",
    "decoupled_merge",
    "open_loop_churn",
    "namespace_mix",
    "failover_recover",
];

/// The final namespace as `path -> type`: what the generator's reference
/// model predicts and what `MetadataStore::shape()` reports.
pub type Shape = BTreeMap<String, FileType>;

/// What one run of a workload's timed region produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Virtual instant the run ended at.
    pub virtual_end_ns: u64,
    /// Every virtual-time result the run reported; a pure function of the
    /// inputs, so it must read the same on every repeat.
    pub fingerprint: String,
}

/// What a run assembled from the public pieces (rather than through
/// `mdbench::run`) hands back: everything the output checks and the
/// per-layer report read off the world afterwards.
pub struct Assembled {
    /// The run's results.
    pub outcome: Outcome,
    /// The final namespace.
    pub shape: Shape,
    /// The registry the run recorded into.
    pub obs: Arc<Registry>,
    /// Requests the server handled.
    pub server_rpcs: u64,
    /// mdlog segments flushed during the run (before the final flush the
    /// report itself forces to read the journal back).
    pub mdlog_segments: u64,
    /// Inodes in the final namespace.
    pub inodes_final: u64,
    /// Engine events (process steps) dispatched.
    pub engine_events: u64,
    /// p99 of per-client sojourn (open-loop runs; 0 otherwise).
    pub sojourn_p99_ns: u64,
    /// What the run sent down the stack, for the per-layer replays.
    pub script: Script,
    /// The in-situ spans (empty unless the run was traced).
    pub recording: Recording,
    /// Layer metrics only this workload can measure in place.
    pub extra: BTreeMap<&'static str, f64>,
}

impl Assembled {
    /// Reads a finished world into the report, journal events included.
    pub fn from_world(
        mut world: World,
        outcome: Outcome,
        engine_events: u64,
        recording: Recording,
        script: impl FnOnce(Vec<JournalEvent>) -> Script,
    ) -> Assembled {
        let shape = world.server.store().shape();
        let inodes_final = world.server.store().inode_count() as u64;
        let server_rpcs = world.server.counters().rpcs;
        let mdlog_segments = world
            .obs
            .counter_value("mds.mdlog.segments_flushed")
            .unwrap_or(0);
        let events = journaled_events(&mut world.server);
        let script = Script {
            virtual_end_ns: outcome.virtual_end_ns,
            ..script(events)
        };
        Assembled {
            outcome,
            shape,
            obs: Arc::clone(&world.obs),
            server_rpcs,
            mdlog_segments,
            inodes_final,
            engine_events,
            sojourn_p99_ns: 0,
            script,
            recording,
            extra: BTreeMap::new(),
        }
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Name on the command line and in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Consistency mode its history claims (`rpc` or `decoupled`).
    const HISTORY_MODE: &'static str;

    /// Set-up: generates the inputs (and the reference model) from
    /// `seed`, builds the world and populates it. `scale` divides the
    /// workload's size (1 = full size).
    fn prepare(seed: u64, scale: u64) -> Self;

    /// The timed region.
    fn run(&mut self) -> Outcome;

    /// Output checks on the run just made that need more than its
    /// [`Outcome`] (the final namespace against the reference model).
    fn verify(&self) -> Result<(), String> {
        Ok(())
    }

    /// The same program assembled from the stack's public pieces, with the
    /// object store and every process wrapped in timers (and the spans
    /// returned) when `traced`. Does its own set-up. Must reproduce
    /// [`Workload::run`]'s virtual-time results exactly.
    fn assemble(&mut self, traced: bool) -> Assembled;

    /// The generator's reference model of the final namespace.
    fn expected(&self) -> &Shape;

    /// Nanoseconds [`Workload::prepare`] spent generating inputs.
    fn generate_ns(&self) -> u64;
}

/// A fresh paper-default object store, behind the timing wrapper when the
/// run is traced.
fn new_store(traced: bool) -> Arc<dyn ObjectStore> {
    if traced {
        Arc::new(TimedStore(InMemoryStore::paper_default()))
    } else {
        Arc::new(InMemoryStore::paper_default())
    }
}

/// A world around a fresh server with the calibrated cost model.
pub fn new_world(traced: bool, mdlog: Option<MdLogConfig>) -> World {
    let _s = trace::span("world.build");
    World::new(MetadataServer::with_config(
        new_store(traced),
        CostModel::calibrated(),
        mdlog,
    ))
}

/// Registers `p` with the engine, one span per step when `traced`.
pub fn add_process<P: Process<World> + 'static>(eng: &mut Engine<World>, p: P, traced: bool) {
    if traced {
        eng.add_process(Box::new(Timed(p)));
    } else {
        eng.add_process(Box::new(p));
    }
}

/// The namespace events the server journaled, in journal order (flushes
/// the mdlog first so the tail is included).
pub fn journaled_events(server: &mut MetadataServer) -> Vec<JournalEvent> {
    server.flush_journal();
    cudele_journal::read_journal(
        server.object_store().as_ref(),
        cudele_journal::JournalId::MDLOG,
    )
    .expect("the run's own journal reads back")
}

/// Runs `f` as the root span of a recording (when `traced`) and returns
/// what was recorded.
pub fn traced_region<T>(traced: bool, f: impl FnOnce() -> T) -> (T, Recording) {
    if traced {
        trace::enable();
    }
    let t = std::time::Instant::now();
    let out = {
        let _run = trace::span(trace::RUN);
        f()
    };
    let region_ns = t.elapsed().as_nanos() as u64;
    (
        out,
        Recording {
            region_ns,
            ..trace::finish()
        },
    )
}

/// The consistency history a run recorded, claiming `mode`.
pub fn history_of(obs: &Registry, mode: &str) -> History {
    History {
        mode: mode.to_string(),
        events: obs.history_events(),
        dropped: 0,
    }
}

/// Compares a final namespace with the reference model; the error names
/// the first few paths that differ.
pub fn check_shape(got: &Shape, expected: &Shape) -> Result<(), String> {
    if got == expected {
        return Ok(());
    }
    let missing: Vec<&String> = expected
        .keys()
        .filter(|k| got.get(*k) != expected.get(*k))
        .take(3)
        .collect();
    let extra: Vec<&String> = got
        .keys()
        .filter(|k| !expected.contains_key(*k))
        .take(3)
        .collect();
    Err(format!(
        "final namespace differs from the reference model: {} entries vs {} expected; \
missing or wrong {missing:?}, unexpected {extra:?}",
        got.len(),
        expected.len()
    ))
}
