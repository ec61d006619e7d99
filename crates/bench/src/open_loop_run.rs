//! Open-loop mdbench runs: `--arrival` drives the simulated cluster with
//! production-shaped traffic instead of the closed-loop create sweep.
//!
//! Each arrival from [`cudele_workloads::open_loop::ArrivalSpec`] is one
//! short-lived client that shows up at its scheduled instant (regardless
//! of how loaded the MDS is — that is what "open loop" means), performs
//! `--files` creates against its zipf-chosen hot directory, and leaves.
//! Under an RPC policy the client does full-capability RPC creates in the
//! *shared* hot directory (cap churn across arrivals is the realistic
//! contention); under a decoupled policy it decouples a private subdir of
//! the hot directory, appends locally, and merges its journal back —
//! so the MDS sees a stream of volatile-apply merges instead of RPCs.
//!
//! All arrivals live in one [`cudele_sim::Engine`] arena segment
//! ([`Engine::add_arena`]) dispatched through the [`OpenLoopProcess`]
//! enum: no per-client box, which is what keeps six-figure arrival counts
//! cheap. The run records the same observability surface as closed-loop
//! mdbench (timeline series, SLOs, history, metrics) plus per-client
//! sojourn (arrival → last op done) in `bench.sojourn.ns`.

use cudele_journal::InodeId;
use cudele_mds::ClientId;
use cudele_sim::{Engine, Nanos, Process, RunReport, Step};
use cudele_workloads::open_loop::{tenant_dir, Arrival, ArrivalSpec};

use crate::world::{DecoupledCreateProcess, RpcCreateProcess, World};

/// Per-arrival visibility probes after a decoupled open-loop run (capped,
/// like closed-loop mdbench's `PROBE_LOOKUPS`): each probed name becomes
/// an eventual-visibility obligation `cudele-bench check` verifies.
const PROBE_ARRIVALS: usize = 64;

/// One open-loop client: arena-stored, enum-dispatched.
pub enum OpenLoopProcess {
    /// RPC policy: closed-loop creates in the shared hot dir, wrapped to
    /// stamp the sojourn when the last create completes. `finishing` is
    /// set once the inner process returns `Done` — which it does at the
    /// final create's *issuance* instant — so the wrapper can resume to
    /// `last_op_end` and record the sojourn at the true completion time.
    Rpc {
        inner: RpcCreateProcess,
        arrival: Nanos,
        finishing: bool,
    },
    /// Decoupled policy: local appends (delegated), then one merge. The
    /// inner client (journal, namespace image) is boxed so an RPC-mode
    /// arena — the million-client path — pays only the small variant's
    /// footprint per element.
    Decoupled {
        inner: Box<DecoupledCreateProcess>,
        arrival: Nanos,
        merged: bool,
    },
}

impl OpenLoopProcess {
    fn finish(arrival: Nanos, now: Nanos, world: &mut World) -> Step {
        let sojourn = (now - arrival).0;
        world.h.sojourn.sample(now, sojourn, 0);
        let obs = &world.obs;
        world
            .h
            .sojourn_hist
            .get_or_insert_with(|| obs.histogram("bench.sojourn.ns"))
            .record(sojourn);
        Step::Done
    }
}

impl Process<World> for OpenLoopProcess {
    fn step(&mut self, now: Nanos, world: &mut World) -> Step {
        match self {
            OpenLoopProcess::Rpc {
                inner,
                arrival,
                finishing,
            } => {
                if *finishing {
                    return OpenLoopProcess::finish(*arrival, now, world);
                }
                match inner.step(now, world) {
                    Step::Done => {
                        let end = inner.last_op_end.max(now);
                        if end > now {
                            *finishing = true;
                            Step::ResumeAt(end)
                        } else {
                            OpenLoopProcess::finish(*arrival, now, world)
                        }
                    }
                    s => s,
                }
            }
            OpenLoopProcess::Decoupled {
                inner,
                arrival,
                merged,
            } => {
                if *merged {
                    return OpenLoopProcess::finish(*arrival, now, world);
                }
                match inner.step(now, world) {
                    Step::Done => {
                        // Appends finished: ship the journal. Open-loop
                        // merges arrive staggered, so no concurrency
                        // surcharge (cf. the closed-loop barrier merge).
                        let end = inner.merge_at(world, now, 1);
                        *merged = true;
                        Step::ResumeAt(end)
                    }
                    s => s,
                }
            }
        }
    }

    fn name(&self) -> String {
        match self {
            OpenLoopProcess::Rpc { inner, .. } => format!("open-{}", inner.name()),
            OpenLoopProcess::Decoupled { inner, .. } => format!("open-{}", inner.name()),
        }
    }
}

/// What [`run_open_loop`] hands back to mdbench for rendering.
pub struct OpenLoopOutcome {
    /// Instant the last client finished.
    pub end: Nanos,
    /// The engine report: one completion instant per arrival.
    pub report: RunReport,
    /// The arrival schedule's last arrival instant (offered-load span).
    pub last_arrival: Nanos,
    /// Sojourn percentiles (p50, p95, p99) in ns, read off the registry
    /// histogram `bench.sojourn.ns` — log-bucket estimates over the stream
    /// of sojourns, unlike the report's exact completion percentiles.
    pub sojourn_ns: (f64, f64, f64),
}

/// Drives `clients` open-loop arrivals of `files` creates each through
/// the world. `decoupled` selects the per-arrival flow; the caller picked
/// it from the policy's operation mode.
pub fn run_open_loop(
    mut world: World,
    spec: &ArrivalSpec,
    clients: u32,
    files: u64,
    decoupled: bool,
) -> Result<OpenLoopOutcome, String> {
    let arrivals = spec.generate(clients as usize);
    let last_arrival = arrivals.last().map(|a| a.at).unwrap_or(Nanos::ZERO);

    // Hot directories, shared across arrivals (setup, uncharged).
    let mut hot = std::collections::HashMap::new();
    for a in &arrivals {
        if let std::collections::hash_map::Entry::Vacant(e) = hot.entry((a.tenant, a.dir)) {
            let ino = world
                .server
                .setup_dir(&tenant_dir(a.tenant, a.dir))
                .map_err(|e| format!("open-loop setup: {e}"))?;
            e.insert(ino);
        }
    }

    let sojourn = world.obs.histogram("bench.sojourn.ns");
    let mut eng = Engine::new(world);
    let mut procs = Vec::with_capacity(arrivals.len());
    let starts: Vec<Nanos> = arrivals.iter().map(|a| a.at).collect();
    for (i, a) in arrivals.iter().enumerate() {
        procs.push(make_process(
            eng.world_mut(),
            i as u32,
            a,
            hot[&(a.tenant, a.dir)],
            files,
            decoupled,
        ));
    }
    eng.add_arena(procs, &starts);
    let (mut world, report) = eng.run();

    if decoupled {
        // Post-merge visibility probes (bounded): a reader walks the first
        // merged name of the earliest arrivals so the recorded history
        // carries observations for the eventual-visibility checker.
        let end = report.slowest();
        world.server.set_now(end);
        for (i, a) in arrivals.iter().enumerate().take(PROBE_ARRIVALS) {
            let probe = ClientId(clients + i as u32);
            let dir = hot[&(a.tenant, a.dir)];
            let sub = world
                .server
                .lookup(probe, dir, &arrival_subdir(i as u32))
                .result
                .ok()
                .flatten();
            if let Some(d) = sub {
                let _ =
                    world
                        .server
                        .lookup(probe, d.ino, &cudele_workloads::file_name(i as u32, 0));
            }
        }
    }

    Ok(OpenLoopOutcome {
        end: report.slowest(),
        report,
        last_arrival,
        sojourn_ns: (
            sojourn.percentile(50.0),
            sojourn.percentile(95.0),
            sojourn.percentile(99.0),
        ),
    })
}

/// The private subdir arrival `i` decouples under its hot directory.
fn arrival_subdir(i: u32) -> String {
    format!("a{i}")
}

fn make_process(
    world: &mut World,
    i: u32,
    a: &Arrival,
    hot_ino: InodeId,
    files: u64,
    decoupled: bool,
) -> OpenLoopProcess {
    if decoupled {
        let path = format!("{}/{}", a.dir_path(), arrival_subdir(i));
        world.server.setup_dir(&path).expect("open-loop subdir");
        OpenLoopProcess::Decoupled {
            inner: Box::new(DecoupledCreateProcess::new(world, i, &path, files)),
            arrival: a.at,
            merged: false,
        }
    } else {
        OpenLoopProcess::Rpc {
            inner: RpcCreateProcess::new(world, i, hot_ino, files),
            arrival: a.at,
            finishing: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudele_mds::MetadataServer;
    use cudele_rados::InMemoryStore;
    use std::sync::Arc;

    fn world() -> World {
        World::new(MetadataServer::new(
            Arc::new(InMemoryStore::paper_default()),
        ))
    }

    #[test]
    fn rpc_open_loop_finishes_every_arrival() {
        let spec = ArrivalSpec::parse("poisson:rate=200,zipf=1.1,dirs=4").unwrap();
        let out = run_open_loop(world(), &spec, 50, 3, false).unwrap();
        assert_eq!(out.report.completions.len(), 50);
        assert!(out.end >= out.last_arrival);
        assert!(out.sojourn_ns.2 >= out.sojourn_ns.0);
    }

    #[test]
    fn decoupled_open_loop_merges_every_journal() {
        let spec = ArrivalSpec::parse("poisson:rate=500,dirs=2,tenants=2").unwrap();
        let out = run_open_loop(world(), &spec, 20, 10, true).unwrap();
        assert_eq!(out.report.completions.len(), 20);
        // Each arrival merged its 10 creates; a fresh world count-check:
        // merge counters live on the run's registry, asserted indirectly
        // by the sojourn histogram having one entry per arrival.
        assert!(out.sojourn_ns.0 > 0.0);
    }

    #[test]
    fn rpc_sojourn_includes_the_final_op() {
        // The inner closed-loop process returns Done at the last create's
        // issuance instant; a files=1 arrival would record a zero sojourn
        // if the wrapper trusted that clock instead of `last_op_end`.
        let spec = ArrivalSpec::parse("poisson:rate=100,dirs=2").unwrap();
        let out = run_open_loop(world(), &spec, 10, 1, false).unwrap();
        assert!(
            out.sojourn_ns.0 > 0.0,
            "single-create sojourn must include the op's service time"
        );
    }

    #[test]
    fn summary_json_bytes_are_pinned() {
        // Recorded at 86819d1. Metrics snapshots, `BENCH_baseline.json` and
        // the host-time benchmark's fingerprints embed this object, so its
        // bytes are part of the byte-identical-artifact contract.
        let spec =
            ArrivalSpec::parse("poisson:rate=4000,zipf=1.1,dirs=4,tenants=2,seed=7").unwrap();
        let out = run_open_loop(world(), &spec, 300, 1, false).unwrap();
        assert_eq!(
            out.report.summary_json(),
            "{\"end_time_ns\": 557645924, \"slowest_ns\": 557645924, \"steps\": 600, \
\"finished\": 300, \"unfinished\": 0, \"completions_ns\": {\"count\": 300, \
\"p50\": 281329410, \"p95\": 530014273, \"p99\": 552119594, \"max\": 557645924}}"
        );
    }

    #[test]
    fn the_report_is_exact_on_both_sides_of_100k_arrivals() {
        // Six-figure arrival counts are this path's reason to exist; the
        // report holds every completion on either side of 100 000.
        let spec = ArrivalSpec::parse("poisson:rate=4000,zipf=1.1,dirs=4,seed=7").unwrap();
        for clients in [100_000u32, 100_001] {
            let report = run_open_loop(world(), &spec, clients, 1, false)
                .unwrap()
                .report;
            assert_eq!(report.completions.len(), clients as usize);
            let xs: Vec<f64> = report.completions.iter().map(|c| c.0 as f64).collect();
            let s = report.completion_summary();
            assert_eq!(s.count, u64::from(clients));
            assert_eq!(s.p50, cudele_sim::stats::p50(&xs).round() as u64);
            assert_eq!(s.p95, cudele_sim::stats::p95(&xs).round() as u64);
            assert_eq!(s.p99, cudele_sim::stats::p99(&xs).round() as u64);
        }
    }

    #[test]
    fn open_loop_is_deterministic() {
        let spec = ArrivalSpec::parse("poisson:rate=300,zipf=1.0,burst=4,seed=9").unwrap();
        let a = run_open_loop(world(), &spec, 40, 2, false).unwrap();
        let b = run_open_loop(world(), &spec, 40, 2, false).unwrap();
        assert_eq!(a.end, b.end);
        assert_eq!(a.report.summary_json(), b.report.summary_json());
        assert_eq!(a.sojourn_ns, b.sojourn_ns);
    }
}
