//! `mdbench` — an mdtest-style metadata benchmark for the simulated
//! cluster, with a policy knob.
//!
//! Sweeps nothing; runs exactly one configuration and prints absolute
//! virtual-time throughput, so administrators can explore the policy
//! space interactively:
//!
//! ```text
//! $ mdbench --clients 8 --files 50000 --policy batchfs
//! $ mdbench --clients 8 --files 50000 --policy posix
//! $ mdbench --clients 4 --files 10000 --policy custom \
//!           --composition "append_client_journal+global_persist||volatile_apply"
//! $ mdbench --policy deltafs --metrics-out metrics.json --trace-out trace.json
//! ```
//!
//! The logic lives here (rather than in the binary) so the workspace can
//! expose `mdbench` both as a root-package binary and to integration
//! tests, which run the same configuration twice to assert byte-identical
//! observability output.

use std::sync::Arc;

use cudele::{Composition, Policy};
use cudele_mds::{CheckpointConfig, ClientId, FailoverConfig, MdsCluster, MetadataServer};
use cudele_rados::InMemoryStore;
use cudele_sim::{Nanos, RunReport};

use crate::obs_out::{ObsSession, ObsSinks};
use crate::world::{CreateKind, CreatePhase, World};

/// Speculation window when `--speculate` is given without a depth.
pub const DEFAULT_SPEC_DEPTH: usize = 16;

/// One mdbench configuration, as parsed from the command line.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Concurrent client processes (closed loop), or total arrivals when
    /// `--arrival` turns the run open-loop.
    pub clients: u32,
    /// Creates per client.
    pub files: u64,
    /// Open-loop arrival spec (see
    /// [`cudele_workloads::open_loop::ArrivalSpec::parse`]), e.g.
    /// `poisson:rate=5000,zipf=1.1,tenants=4`. When set, `--clients`
    /// arrivals of `--files` creates each are released on the spec's
    /// schedule instead of running the closed-loop sweep.
    pub arrival: Option<String>,
    /// Policy name: posix|ramdisk|batchfs|deltafs|hdfs|custom.
    pub policy: String,
    /// DSL composition (required when `policy` is `custom`).
    pub composition: Option<String>,
    /// The snapshots written when the run finishes: metrics, Chrome trace,
    /// consistency history (for `cudele-bench check`; single-policy runs
    /// only, since a sweep would interleave unrelated virtual clocks) and
    /// telemetry timeline (for `cudele-bench timeline`), plus the span
    /// buffer's bound (extra spans are dropped and counted in
    /// `obs.spans_dropped`).
    pub sinks: ObsSinks,
    /// SLO objectives evaluated over the timeline, e.g.
    /// `p99(bench.op_latency.ns) < 20ms for 99% of windows`. Defaults
    /// apply when `--timeline-out` is set and no `--slo` was given.
    pub slos: Vec<String>,
    /// Fault-injection spec (see `cudele_faults::FaultConfig::parse`),
    /// e.g. `seed=7,eagain_ppm=20000,osd_outage=3@1ms..5ms`. Any
    /// `mds-crash@T` entries run a failover drill after the workload:
    /// the active MDS crashes at each scheduled drill-clock instant, the
    /// monitor detects it after the beacon grace, a standby replays the
    /// run's mdlog, and the clients reconnect to the new epoch.
    pub faults: Option<String>,
    /// Override the mdlog's events-per-segment (default 1024). Smaller
    /// segments flush to the object store sooner — useful with `--faults`
    /// so short runs still exercise store I/O.
    pub mdlog_segment: Option<usize>,
    /// Override the mdlog's dispatch size (sealed segments flushed
    /// together; the paper's recommended value, and the default, is 40).
    pub mdlog_dispatch: Option<u32>,
    /// Checkpoint cadence unit: the MDS folds a canonical image of the
    /// namespace, published under a fenced manifest, once five times this
    /// many flushed journal events lie past the last one. Recovery —
    /// including the `mds-crash@T` failover drill — then replays only the
    /// journal tail past the manifest's high-water mark instead of the
    /// whole log.
    /// Requires a journaling policy.
    pub checkpoint_interval: Option<u64>,
    /// Speculation window for RPC-mode clients (`--speculate [DEPTH]`):
    /// each client runs up to this many creates ahead of the last ack via
    /// [`cudele_client::SpeculativeClient`], rolling back and replaying on
    /// invalidation. `None` keeps the stalling RPC client.
    pub speculate: Option<usize>,
    /// Worker threads for a multi-policy sweep (`--policy a,b,c`); each
    /// policy runs in its own world/registry and results are reported in
    /// the order given, so output is identical at any thread count.
    pub threads: usize,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            clients: 4,
            files: 10_000,
            arrival: None,
            policy: "posix".to_string(),
            composition: None,
            sinks: ObsSinks::default(),
            slos: Vec::new(),
            faults: None,
            mdlog_segment: None,
            mdlog_dispatch: None,
            checkpoint_interval: None,
            speculate: None,
            threads: 1,
        }
    }
}

/// The usage string printed on `--help` or a bad invocation.
pub const USAGE: &str = "usage: mdbench [--clients N] [--files N] \
     [--arrival poisson:rate=R[,zipf=S][,dirs=D][,tenants=T][,burst=B]\
[,diurnal=P:A][,seed=N]] \
     [--policy posix|ramdisk|batchfs|deltafs|hdfs|custom] \
     [--composition DSL] [--metrics-out PATH] [--trace-out PATH] \
     [--history-out PATH] [--timeline-out PATH] [--slo SPEC]... \
     [--span-capacity N] \
     [--faults seed=N,eagain_ppm=N,torn_ppm=N,bitflip_ppm=N,\
osd_outage=OSD@FROM..UNTIL,slow=FACTOR@FROM..UNTIL,mds-crash@T] \
     [--mdlog-segment EVENTS] [--mdlog-dispatch SEGMENTS] \
     [--checkpoint-interval EVENTS] [--speculate [DEPTH]] [--threads N]
A comma-separated --policy list (e.g. --policy posix,batchfs,deltafs) runs
each policy independently, fanned across --threads workers; output order
and bytes match a serial run. `mds-crash@T` entries (repeatable) schedule
a deterministic MDS failover drill after the workload: crash, beacon-grace
detection, epoch bump, standby replay of the run's mdlog, client
reconnects. `--history-out` records every namespace op's invoke/ack
interval as a `cudele-history/v1` file for `cudele-bench check`
(single-policy runs only). `--timeline-out` records windowed telemetry
(rates, gauges, latency percentiles per virtual-time window) plus SLO
burn-rate outcomes as a `cudele-timeline/v1` file; explore it with
`cudele-bench timeline PATH`. `--slo` (repeatable) declares an objective
over a timeline series, e.g. `p99(bench.op_latency.ns) < 20ms for 99%
of windows`. `--checkpoint-interval N` folds a checkpoint image
(published under a fenced manifest) once 5 x N flushed journal events
lie past the last one, so recovery and the failover drill replay only
the journal tail past the manifest; requires a journaling policy.
`--speculate [DEPTH]` (RPC-mode policies only, default window 16) lets
each client run up to DEPTH creates ahead of the last ack against
predicted inode numbers; invalidated speculations (including NACKs from
a `spec_abort_ppm=N` fault) roll back the dependent suffix and replay it
idempotently, and histories still claim linearizability. `--arrival`
switches to open-loop traffic: --clients arrivals of --files creates each
are released on a Poisson (or `bursty:`) schedule against zipf-hot
directories partitioned across tenant subtrees, with per-client sojourn
recorded in the timeline (`bench.sojourn.ns`); the whole schedule is a
pure function of the spec, so reruns are byte-identical.";

/// Parses an argument list (element 0 is the program name). `Err` carries
/// the message to print before the usage string; `--help` yields
/// `Err(String::new())`.
pub fn parse_args(argv: &[String]) -> Result<BenchConfig, String> {
    let mut cfg = BenchConfig::default();
    let mut i = 1;
    let value = |i: &mut usize, what: &str| -> Result<String, String> {
        *i += 2;
        argv.get(*i - 1)
            .cloned()
            .ok_or_else(|| format!("{what} requires a value"))
    };
    while i < argv.len() {
        if cfg.sinks.parse_flag(argv, &mut i)? {
            continue;
        }
        match argv[i].as_str() {
            "--clients" => cfg.clients = at_least_one("--clients", &value(&mut i, "--clients")?)?,
            "--files" => cfg.files = at_least_one("--files", &value(&mut i, "--files")?)?,
            "--arrival" => {
                let spec = value(&mut i, "--arrival")?;
                cudele_workloads::open_loop::ArrivalSpec::parse(&spec)
                    .map_err(|e| format!("bad --arrival: {e}"))?;
                cfg.arrival = Some(spec);
            }
            "--policy" => cfg.policy = value(&mut i, "--policy")?,
            "--composition" => cfg.composition = Some(value(&mut i, "--composition")?),
            "--slo" => {
                let spec = value(&mut i, "--slo")?;
                cudele_obs::slo::SloSpec::parse(&spec).map_err(|e| format!("bad --slo: {e}"))?;
                cfg.slos.push(spec);
            }
            "--faults" => cfg.faults = Some(value(&mut i, "--faults")?),
            "--mdlog-segment" => {
                let v = value(&mut i, "--mdlog-segment")?;
                cfg.mdlog_segment = Some(at_least_one("--mdlog-segment", &v)?);
            }
            "--mdlog-dispatch" => {
                let v = value(&mut i, "--mdlog-dispatch")?;
                cfg.mdlog_dispatch = Some(at_least_one("--mdlog-dispatch", &v)?);
            }
            "--checkpoint-interval" => {
                cfg.checkpoint_interval = Some(
                    value(&mut i, "--checkpoint-interval")?
                        .parse()
                        .map_err(|e| format!("bad --checkpoint-interval: {e}"))?,
                );
            }
            "--speculate" => {
                // DEPTH is optional: consume the next token only when it
                // parses as a number.
                match argv.get(i + 1).map(|v| v.parse::<usize>()) {
                    Some(Ok(0)) => return Err("--speculate depth must be at least 1".to_string()),
                    Some(Ok(d)) => {
                        cfg.speculate = Some(d);
                        i += 2;
                    }
                    _ => {
                        cfg.speculate = Some(DEFAULT_SPEC_DEPTH);
                        i += 1;
                    }
                }
            }
            "--threads" => {
                cfg.threads = cudele_par::parse_threads(&value(&mut i, "--threads")?)?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cfg)
}

/// Parses the value of count flag `flag`, which must be at least 1.
fn at_least_one<T>(flag: &str, v: &str) -> Result<T, String>
where
    T: std::str::FromStr + PartialEq + From<u8>,
    T::Err: std::fmt::Display,
{
    let n: T = v.parse().map_err(|e| format!("bad {flag}: {e}"))?;
    if n == T::from(0) {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

/// Post-merge visibility probes per client (capped so history size stays
/// bounded on large runs): each probed name becomes an eventual-visibility
/// obligation `cudele-bench check` verifies.
const PROBE_LOOKUPS: u64 = 64;
/// Client ids of the post-merge readers: probe `c` is this plus `c`.
const PROBE_CLIENT_BASE: u32 = 200;

/// Objectives stamped into the timeline when `--timeline-out` is given
/// without any explicit `--slo`: op latency stays sane and client-visible
/// timeouts stay rare.
pub const DEFAULT_SLOS: [&str; 2] = [
    "p99(bench.op_latency.ns) < 100ms for 99% of windows",
    "count(client.rpc.timeouts) < 1 for 99% of windows",
];

/// The configuration's SLO specs (defaults applied), parsed.
fn resolve_slos(cfg: &BenchConfig) -> Result<Vec<cudele_obs::slo::SloSpec>, String> {
    let specs: Vec<String> = if cfg.slos.is_empty() {
        DEFAULT_SLOS.iter().map(|s| s.to_string()).collect()
    } else {
        cfg.slos.clone()
    };
    specs
        .iter()
        .map(|s| cudele_obs::slo::SloSpec::parse(s).map_err(|e| format!("bad --slo: {e}")))
        .collect()
}

/// The consistency mode a policy's history claims: RPC-mode policies
/// promise linearizability, decoupled ones only session guarantees plus
/// visibility after merge.
pub fn history_mode(policy: &Policy) -> &'static str {
    if policy.operation_mode() == cudele::OperationMode::Rpcs {
        "rpc"
    } else {
        "decoupled"
    }
}

/// [`history_mode`] straight from a configuration's policy name.
pub fn history_mode_of(cfg: &BenchConfig) -> Result<&'static str, String> {
    Ok(history_mode(&resolve_policy(cfg)?))
}

fn resolve_policy(cfg: &BenchConfig) -> Result<Policy, String> {
    match cfg.policy.as_str() {
        "posix" | "cephfs" => Ok(Policy::posix()),
        "ramdisk" => Ok(Policy::ramdisk()),
        "batchfs" => Ok(Policy::batchfs()),
        "deltafs" => Ok(Policy::deltafs()),
        "hdfs" => Ok(Policy::hdfs()),
        "custom" => {
            let dsl = cfg
                .composition
                .clone()
                .ok_or_else(|| "--policy custom requires --composition".to_string())?;
            let comp: Composition = dsl.parse().map_err(|e| format!("bad composition: {e}"))?;
            let mut p = Policy::batchfs();
            p.custom_composition = Some(comp);
            Ok(p)
        }
        other => Err(format!("unknown policy {other:?}")),
    }
}

/// What one mdbench run measured.
#[derive(Debug, Clone)]
pub struct BenchOutcome {
    /// End of the create phase (virtual time).
    pub create_end: Nanos,
    /// End of the merge phase (equals `create_end` when no merge runs).
    pub merge_end: Nanos,
    /// Engine report of the create phase.
    pub report: RunReport,
    /// The human-readable summary that the binary prints.
    pub rendered: String,
}

/// Runs one configuration. Writes the `--metrics-out`/`--trace-out`
/// snapshots (if requested) before returning.
pub fn run(cfg: &BenchConfig) -> Result<BenchOutcome, String> {
    let policy = resolve_policy(cfg)?;
    if cfg.speculate.is_some() {
        if policy.operation_mode() != cudele::OperationMode::Rpcs {
            return Err(format!(
                "--speculate needs an RPC-mode policy; `{}` already journals client-side",
                cfg.policy
            ));
        }
        if cfg.arrival.is_some() {
            return Err("--speculate runs the closed-loop RPC sweep; drop --arrival".to_string());
        }
    }
    let mut obs = ObsSession::new(cfg.sinks.clone());
    obs.set_history_mode(history_mode(&policy));
    obs.set_slos(resolve_slos(cfg)?);

    let mut rendered = match &cfg.arrival {
        Some(spec) => format!(
            "mdbench: open-loop `{spec}` -> {} arrivals x {} creates under `{}`\n",
            cfg.clients,
            cfg.files,
            policy.composition()
        ),
        None => format!(
            "mdbench: {} clients x {} creates under `{}`\n",
            cfg.clients,
            cfg.files,
            policy.composition()
        ),
    };
    if let Some(depth) = cfg.speculate {
        rendered.push_str(&format!("  speculation  : window {depth}\n"));
    }

    let mut cost = cudele_sim::CostModel::calibrated();
    let mut mds_crashes: Vec<Nanos> = Vec::new();
    let mut spec_plan: Option<Arc<cudele_faults::FaultPlan>> = None;
    let os: Arc<dyn cudele_rados::ObjectStore> = match &cfg.faults {
        None => Arc::new(InMemoryStore::paper_default()),
        Some(spec) => {
            let fc = cudele_faults::FaultConfig::parse(spec)
                .map_err(|e| format!("bad --faults: {e}"))?;
            mds_crashes = fc.mds_crashes.clone();
            // The NACK draws for `--speculate` come from the same seeded
            // config; clone it before `wire_faults` consumes it.
            spec_plan = Some(Arc::new(cudele_faults::FaultPlan::new(fc.clone())));
            let (store, degraded) =
                cudele_faults::wire_faults(Arc::new(InMemoryStore::paper_default()), fc, &cost);
            cost = degraded;
            store
        }
    };
    let journal_on = policy.composition().contains(cudele::Mechanism::Stream);
    let mut mdlog_config = cudele_mds::MdLogConfig::default();
    if let Some(seg) = cfg.mdlog_segment {
        mdlog_config.events_per_segment = seg;
    }
    if let Some(d) = cfg.mdlog_dispatch {
        mdlog_config.dispatch_size = d;
    }
    let mdlog = if journal_on {
        Some(mdlog_config)
    } else if policy.operation_mode() == cudele::OperationMode::Rpcs {
        None // rpcs without stream: journal off
    } else {
        Some(mdlog_config)
    };
    let drill_store = Arc::clone(&os);
    let drill_cost = cost.clone();
    let ckpt_config = match cfg.checkpoint_interval {
        None => None,
        Some(0) => return Err("--checkpoint-interval must be at least 1".to_string()),
        Some(n) => {
            if mdlog.is_none() {
                return Err(format!(
                    "--checkpoint-interval needs a journaling policy; `{}` runs without an mdlog",
                    cfg.policy
                ));
            }
            Some(CheckpointConfig { interval_events: n })
        }
    };
    let mut world = World::new(MetadataServer::with_config(os, cost, mdlog));
    if let Some(ck) = ckpt_config {
        world
            .server
            .enable_checkpoints(ck)
            .map_err(|e| format!("enabling checkpoints: {e}"))?;
    }
    let run_reg = Arc::clone(&world.obs);

    use std::fmt::Write as _;
    let total_ops = cfg.clients as u64 * cfg.files;
    let (create_end, merge_end, report, failed_ops) = if let Some(spec_str) = &cfg.arrival {
        let spec = cudele_workloads::open_loop::ArrivalSpec::parse(spec_str)
            .map_err(|e| format!("bad --arrival: {e}"))?;
        let decoupled = policy.operation_mode() == cudele::OperationMode::Decoupled;
        let out =
            crate::open_loop_run::run_open_loop(world, &spec, cfg.clients, cfg.files, decoupled)?;

        let offered = cfg.clients as f64 / out.last_arrival.as_secs_f64().max(1e-9);
        let _ = writeln!(
            rendered,
            "  arrivals     : {} over {} ({offered:.0} clients/s offered)",
            cfg.clients, out.last_arrival
        );
        let _ = writeln!(
            rendered,
            "  completed    : {} ({:.0} creates/s aggregate)",
            out.end,
            total_ops as f64 / out.end.as_secs_f64().max(1e-9)
        );
        let _ = writeln!(
            rendered,
            "  sojourn      : p50 {} p95 {} p99 {}",
            Nanos(out.sojourn_ns.0 as u64),
            Nanos(out.sojourn_ns.1 as u64),
            Nanos(out.sojourn_ns.2 as u64),
        );
        (out.end, out.end, out.report, out.failed_ops)
    } else {
        let kind = match (policy.operation_mode(), cfg.speculate) {
            (cudele::OperationMode::Decoupled, _) => CreateKind::Decoupled,
            (cudele::OperationMode::Rpcs, None) => CreateKind::Rpc,
            (cudele::OperationMode::Rpcs, Some(depth)) => CreateKind::Speculative {
                depth,
                plan: spec_plan,
            },
        };
        let mut phase = world.run_creates(cfg.clients, cfg.files, kind);
        if let Some(e) = phase.world.fatal.take() {
            return Err(e);
        }
        let create_end = phase.report.slowest();
        let merge_end = merge_and_probe(&mut phase, cfg, &policy);

        let rate = |t: Nanos| total_ops as f64 / t.as_secs_f64();
        let _ = writeln!(
            rendered,
            "  create phase : {create_end} ({:.0} creates/s aggregate)",
            rate(create_end)
        );
        if merge_end > create_end {
            let _ = writeln!(
                rendered,
                "  with merge   : {merge_end} ({:.0} creates/s end-to-end)",
                rate(merge_end)
            );
        }
        (create_end, merge_end, phase.report, phase.world.failed_ops)
    };
    if failed_ops > 0 {
        let _ = writeln!(
            rendered,
            "  refused ops  : {failed_ops} of {total_ops} creates (the MDS answered an error)"
        );
    }

    let _ = writeln!(rendered, "  run          : {}", report.summary_json());
    if !mds_crashes.is_empty() {
        failover_drill(
            drill_store,
            drill_cost,
            mdlog,
            ckpt_config,
            &mds_crashes,
            cfg.clients,
            &run_reg,
            &mut rendered,
        )?;
    }
    let counter = |name: &str| run_reg.counter_value(name).unwrap_or(0);
    // Closed-loop summaries only: an open-loop run prints no checkpoint line.
    if ckpt_config.is_some() && cfg.arrival.is_none() {
        let _ = writeln!(
            rendered,
            "  ckpt obs     : mds.ckpt.checkpoints={} \
mds.ckpt.replay_events_saved={} mds.ckpt.fallbacks={}",
            counter("mds.ckpt.checkpoints"),
            counter("mds.ckpt.replay_events_saved"),
            counter("mds.ckpt.fallbacks"),
        );
    }
    if cfg.speculate.is_some() {
        let _ = writeln!(
            rendered,
            "  spec obs     : client.spec.issued={} client.spec.commits={} \
client.spec.rollbacks={} client.spec.replayed={}",
            counter("client.spec.issued"),
            counter("client.spec.commits"),
            counter("client.spec.rollbacks"),
            counter("client.spec.replayed"),
        );
    }
    let _ = writeln!(
        rendered,
        "  fault obs    : rados.fenced_writes={} client.rpc.timeouts={} \
client.rpc.retries={} mds.session.reconnects={}",
        counter("rados.fenced_writes"),
        counter("client.rpc.timeouts"),
        counter("client.rpc.retries"),
        counter("mds.session.reconnects"),
    );

    obs.finish()
        .map_err(|e| format!("writing snapshots: {e}"))?;
    Ok(BenchOutcome {
        create_end,
        merge_end,
        report,
        rendered,
    })
}

/// The closed-loop merge phase: if the policy merges with Volatile
/// Apply, the journals the decoupled clients appended land on the MDS at
/// the end of the create phase, and a reader probes the merged names.
/// Returns the end of the merge phase (the end of the create phase when
/// nothing merges).
fn merge_and_probe(phase: &mut CreatePhase, cfg: &BenchConfig, policy: &Policy) -> Nanos {
    let create_end = phase.report.slowest();
    let merges = policy
        .merge_composition()
        .is_some_and(|m| m.contains(cudele::Mechanism::VolatileApply));
    if !merges {
        return create_end;
    }
    // A decoupled client's root is its private directory.
    let dirs: Vec<_> = phase.journals.iter().map(|p| p.client.root).collect();
    let world = &mut phase.world;
    let merge_end = world.merge_journals(std::mem::take(&mut phase.journals), create_end);
    // Post-merge visibility probes: a reader walks the merged names so
    // the recorded history carries the observations the
    // eventual-visibility checker verifies. Bounded so large runs stay
    // cheap.
    for (c, dir) in (0..cfg.clients).zip(dirs) {
        let probe = ClientId(PROBE_CLIENT_BASE + c);
        world.server.set_now(merge_end);
        for i in 0..cfg.files.min(PROBE_LOOKUPS) {
            let _ = world
                .server
                .lookup(probe, dir, &cudele_workloads::file_name(c, i));
        }
        let _ = world.server.readdir(probe, dir);
    }
    merge_end
}

/// Runs the `mds-crash@T` failover drill against the object store the
/// workload just populated: for each scheduled instant (on the drill's
/// own virtual clock) the active MDS crashes, the monitor declares it
/// dead once the beacon grace expires, the epoch is bumped (fencing the
/// old primary), a standby finishes replaying the run's persisted mdlog,
/// and every bench client reconnects to the new primary. Appends one
/// rendered line per failover. Deterministic: the same schedule over the
/// same workload yields byte-identical lines, epochs, and timings.
#[allow(clippy::too_many_arguments)]
fn failover_drill(
    base: Arc<dyn cudele_rados::ObjectStore>,
    cost: cudele_sim::CostModel,
    mdlog: Option<cudele_mds::MdLogConfig>,
    ckpt_config: Option<CheckpointConfig>,
    crashes: &[Nanos],
    clients: u32,
    reg: &Arc<cudele_obs::Registry>,
    rendered: &mut String,
) -> Result<(), String> {
    use std::fmt::Write as _;
    let fo = FailoverConfig::default();
    let mut cluster = MdsCluster::new(base, cost, mdlog, fo);
    if let Some(ck) = ckpt_config {
        // The drill's active MDS resumes from the manifest the workload
        // published; every takeover then replays only the journal tail.
        cluster
            .enable_checkpoints(ck)
            .map_err(|e| format!("failover drill: enabling checkpoints: {e}"))?;
    }
    // The world's registry is the session when one is installed, so the
    // drill's fencing/reconnect counters land where the summary (and any
    // `--metrics-out` snapshot) reads them.
    cluster.attach_obs(reg);
    // Detection happens on the beacon grid at most one interval past the
    // grace; two extra intervals of margin keep the drill schedule-proof.
    let margin = fo.beacon_grace + fo.beacon_interval * 4;
    // A probe client walks the cluster on a fixed 1 ms grid around each
    // crash, so the timeline records the transient end to end: fast
    // lookups before the crash, full-RPC-timeout probes during the
    // detection gap, fast lookups again once the standby serves.
    let tl = reg.timeline();
    let step = Nanos::MILLI;
    let probe_tail = step * 3;
    let probe = |cluster: &mut MdsCluster, at: Nanos| -> Result<(), String> {
        cluster
            .advance_to(at)
            .map_err(|e| format!("failover drill: {e}"))?;
        let srv = cluster.active_mut();
        srv.set_now(at);
        let r = srv.lookup(ClientId(990), cudele_journal::InodeId::ROOT, "drill.probe");
        tl.sample(
            "drill.probe.latency_ns",
            at,
            (r.cost.mds_cpu + r.cost.client_extra).0,
        );
        match r.result {
            Err(cudele_mds::MdsError::Timeout) => tl.add("drill.probe.timeouts", at, 1),
            _ => tl.add("drill.probe.ok", at, 1),
        }
        Ok(())
    };
    for (i, &t) in crashes.iter().enumerate() {
        let crash_at = t.max(cluster.now() + fo.beacon_interval);
        let mut pt = cluster
            .now()
            .max(Nanos(crash_at.0.saturating_sub(probe_tail.0)));
        while pt < crash_at {
            probe(&mut cluster, pt)?;
            pt += step;
        }
        cluster
            .advance_to(crash_at)
            .map_err(|e| format!("failover drill: {e}"))?;
        cluster.crash_active();
        let deadline = crash_at + margin;
        while pt <= deadline {
            probe(&mut cluster, pt)?;
            pt += step;
        }
        cluster
            .advance_to(deadline)
            .map_err(|e| format!("failover drill: {e}"))?;
        let r = match cluster.reports().get(i) {
            Some(r) => *r,
            None => return Err(format!("failover drill: crash {i} was never detected")),
        };
        // Recovery tail: keep probing past takeover completion so the
        // timeline shows the cluster serving again.
        let tail_end = r.completed_at.max(pt) + probe_tail;
        while pt <= tail_end {
            probe(&mut cluster, pt)?;
            pt += step;
        }
        let mut ok = 0u32;
        for c in 0..clients {
            if cluster
                .active_mut()
                .reconnect_session(ClientId(c), &[])
                .result
                .is_ok()
            {
                ok += 1;
            }
        }
        let manifest = if r.takeover.manifest_epoch > 0 {
            format!(
                " from manifest m{} ({} checkpointed)",
                r.takeover.manifest_epoch, r.takeover.checkpoint_events
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            rendered,
            "  failover #{n} : crash@{crash_at} -> epoch e{epoch}, detected in {lat}, \
replayed {replayed} events{healed}{manifest}, {ok}/{clients} sessions reconnected",
            n = i + 1,
            epoch = r.takeover.epoch.0,
            lat = r.decision.detection_latency(),
            replayed = r.takeover.replayed_events,
            healed = if r.takeover.healed {
                " (healed tail)"
            } else {
                ""
            },
        );
    }
    Ok(())
}

/// Runs the configuration's policy list. A comma-separated `--policy`
/// value becomes one independent run per policy, fanned across
/// `cfg.threads` workers via [`crate::obs_out::par_tasks_merged`]: each
/// run gets a per-thread session registry, and after the sweep the
/// registries merge into the session in policy order, so
/// `--metrics-out`/`--trace-out` snapshots are byte-identical to a
/// `--threads 1` sweep. A single policy falls through to [`run`].
pub fn run_sweep(cfg: &BenchConfig) -> Result<Vec<BenchOutcome>, String> {
    let policies: Vec<String> = cfg
        .policy
        .split(',')
        .filter(|p| !p.is_empty())
        .map(str::to_string)
        .collect();
    if policies.len() <= 1 {
        return run(cfg).map(|o| vec![o]);
    }
    if cfg.sinks.history_out.is_some() {
        return Err(
            "--history-out needs a single policy: each run restarts virtual time, so a \
multi-policy history would interleave unrelated clocks"
                .to_string(),
        );
    }
    // Validate every policy name up front so a typo fails before any run.
    for p in &policies {
        resolve_policy(&BenchConfig {
            policy: p.clone(),
            ..cfg.clone()
        })?;
    }
    // The sweep owns the session; per-policy runs must not re-install it,
    // so their output paths are stripped. The merged timeline overlays
    // every policy's windows on one virtual-time axis (each run restarts
    // its clock), which is exactly what the byte-identity contract needs:
    // per-thread timelines merge in policy order, reproducing a serial
    // sweep's recording bit for bit.
    let mut obs = ObsSession::new(cfg.sinks.clone());
    obs.set_slos(resolve_slos(cfg)?);
    let results = crate::obs_out::par_tasks_merged(cfg.threads, policies.len(), |i| {
        run(&BenchConfig {
            policy: policies[i].clone(),
            sinks: ObsSinks {
                metrics_out: None,
                trace_out: None,
                timeline_out: None,
                ..cfg.sinks.clone()
            },
            ..cfg.clone()
        })
    });
    let outcomes: Result<Vec<BenchOutcome>, String> = results.into_iter().collect();
    let outcomes = outcomes?;
    obs.finish()
        .map_err(|e| format!("writing snapshots: {e}"))?;
    Ok(outcomes)
}

/// The binary entry point: parse argv, run, print, exit non-zero on error.
pub fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let cfg = match parse_args(&argv) {
        Ok(cfg) => cfg,
        Err(msg) => {
            if msg.is_empty() {
                // --help
                println!("{USAGE}");
                return;
            }
            eprintln!("{msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    match run_sweep(&cfg) {
        Ok(outs) => {
            for out in outs {
                print!("{}", out.rendered);
            }
        }
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mds_crash_faults_run_the_failover_drill() {
        let cfg = BenchConfig {
            clients: 2,
            files: 50,
            faults: Some("mds-crash@5ms,mds-crash@80ms".to_string()),
            mdlog_segment: Some(8),
            mdlog_dispatch: Some(2),
            ..BenchConfig::default()
        };
        let out = run(&cfg).unwrap();
        assert!(out.rendered.contains("failover #1"), "{}", out.rendered);
        assert!(out.rendered.contains("epoch e2"), "{}", out.rendered);
        assert!(out.rendered.contains("failover #2"), "{}", out.rendered);
        assert!(out.rendered.contains("epoch e3"), "{}", out.rendered);
        assert!(
            out.rendered.contains("2/2 sessions reconnected"),
            "{}",
            out.rendered
        );
        // Deterministic: a rerun renders byte-identical output, timings
        // included.
        let again = run(&cfg).unwrap();
        assert_eq!(out.rendered, again.rendered);
    }

    #[test]
    fn checkpointed_drill_replays_only_the_tail() {
        let base = BenchConfig {
            clients: 2,
            files: 200,
            faults: Some("mds-crash@5ms".to_string()),
            mdlog_segment: Some(8),
            mdlog_dispatch: Some(2),
            ..BenchConfig::default()
        };
        let full = run(&base).unwrap();
        let ckpt = run(&BenchConfig {
            checkpoint_interval: Some(8),
            ..base.clone()
        })
        .unwrap();
        assert!(
            ckpt.rendered.contains("from manifest m"),
            "{}",
            ckpt.rendered
        );
        assert!(ckpt.rendered.contains("ckpt obs"), "{}", ckpt.rendered);
        let replayed = |r: &str| -> u64 {
            let tail = r.split("replayed ").nth(1).unwrap();
            tail.split(' ').next().unwrap().parse().unwrap()
        };
        assert!(
            replayed(&ckpt.rendered) < replayed(&full.rendered),
            "checkpointed drill should replay less:\n{}\nvs\n{}",
            ckpt.rendered,
            full.rendered
        );
        // Deterministic, timings and counters included.
        let again = run(&BenchConfig {
            checkpoint_interval: Some(8),
            ..base
        })
        .unwrap();
        assert_eq!(ckpt.rendered, again.rendered);
    }

    /// `mdbench` followed by the whitespace-separated words of `s`.
    fn argv(s: &str) -> Vec<String> {
        std::iter::once("mdbench".to_string())
            .chain(s.split_whitespace().map(str::to_string))
            .collect()
    }

    #[test]
    fn speculate_flag_parses_with_and_without_depth() {
        let cfg = parse_args(&argv("--speculate 4 --files 10")).unwrap();
        assert_eq!(cfg.speculate, Some(4));
        assert_eq!(cfg.files, 10);
        // Depth omitted before another flag: the default window applies.
        let cfg = parse_args(&argv("--speculate --files 10")).unwrap();
        assert_eq!(cfg.speculate, Some(DEFAULT_SPEC_DEPTH));
        assert_eq!(cfg.files, 10);
        let cfg = parse_args(&argv("--speculate")).unwrap();
        assert_eq!(cfg.speculate, Some(DEFAULT_SPEC_DEPTH));
        assert!(parse_args(&argv("--speculate 0")).is_err());
    }

    #[test]
    fn zero_counts_are_refused() {
        // A zero count printed `NaN creates/s` or was quietly clamped to 1.
        for flag in [
            "--clients",
            "--files",
            "--mdlog-segment",
            "--mdlog-dispatch",
        ] {
            let err = parse_args(&argv(&format!("{flag} 0"))).unwrap_err();
            assert_eq!(err, format!("{flag} must be at least 1"));
            assert!(parse_args(&argv(&format!("{flag} 1"))).is_ok(), "{flag} 1");
        }
    }

    #[test]
    fn speculate_needs_an_rpc_mode_policy() {
        let err = run(&BenchConfig {
            policy: "batchfs".to_string(),
            speculate: Some(8),
            clients: 1,
            files: 10,
            ..BenchConfig::default()
        })
        .unwrap_err();
        assert!(err.contains("RPC-mode"), "{err}");
    }

    #[test]
    fn speculative_run_outpaces_rpc_and_stays_deterministic_under_nacks() {
        let base = BenchConfig {
            clients: 2,
            files: 200,
            policy: "ramdisk".to_string(),
            ..BenchConfig::default()
        };
        let rpc = run(&base).unwrap();
        let spec_cfg = BenchConfig {
            speculate: Some(8),
            faults: Some("seed=9,spec_abort_ppm=50000".to_string()),
            ..base
        };
        let spec = run(&spec_cfg).unwrap();
        assert!(
            spec.create_end < rpc.create_end,
            "speculation should finish sooner: {} vs {}",
            spec.create_end,
            rpc.create_end
        );
        assert!(spec.rendered.contains("speculation  : window 8"));
        assert!(spec.rendered.contains("client.spec.issued=400"));
        assert!(
            spec.rendered.contains("client.rpc.retries="),
            "{}",
            spec.rendered
        );
        // NACKs fired and were replayed; the summary carries the counts.
        let rollbacks: u64 = spec
            .rendered
            .split("client.spec.rollbacks=")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(rollbacks > 0, "{}", spec.rendered);
        // Deterministic: rerun renders byte-identical output.
        let again = run(&spec_cfg).unwrap();
        assert_eq!(spec.rendered, again.rendered);
    }

    /// The batchfs route appends each create once and merges that journal:
    /// nothing is re-created under a second client id.
    #[test]
    fn batchfs_merges_the_journals_the_clients_appended() {
        use cudele_obs::history::{HistoryOp, HistoryScope};
        let cfg = BenchConfig {
            clients: 3,
            files: 150,
            policy: "batchfs".to_string(),
            ..BenchConfig::default()
        };
        let policy = resolve_policy(&cfg).unwrap();
        let mut phase = World::calibrated(Some(cudele_mds::MdLogConfig::default())).run_creates(
            cfg.clients,
            cfg.files,
            CreateKind::Decoupled,
        );
        let create_end = phase.report.slowest();
        let merge_end = merge_and_probe(&mut phase, &cfg, &policy);
        let world = phase.world;
        assert!(merge_end > create_end);

        let ops = u64::from(cfg.clients) * cfg.files;
        assert_eq!(world.server.counters().merged_events, ops);
        // The files, the three client dirs and their parent, and `/`.
        assert_eq!(world.server.store().inode_count() as u64, ops + 3 + 1 + 1);

        let history = world.obs.history_events();
        let local_creates = history
            .iter()
            .filter(|e| e.scope == HistoryScope::Local && matches!(e.op, HistoryOp::Create { .. }))
            .count() as u64;
        assert_eq!(local_creates, ops);
        let merges: Vec<u64> = history
            .iter()
            .filter_map(|e| match e.op {
                HistoryOp::Merge { events } => Some(events),
                _ => None,
            })
            .collect();
        assert_eq!(merges, vec![cfg.files; cfg.clients as usize]);
        let mut probes = 0;
        for e in &history {
            match &e.op {
                HistoryOp::Lookup { found, name, .. } => {
                    assert!(found.is_some(), "probe missed {name}");
                    assert!(e.client >= u64::from(PROBE_CLIENT_BASE));
                    probes += 1;
                }
                HistoryOp::Readdir { .. } => assert!(e.client >= u64::from(PROBE_CLIENT_BASE)),
                _ => assert!(e.client < u64::from(cfg.clients), "writer {}", e.client),
            }
        }
        assert_eq!(probes, u64::from(cfg.clients) * PROBE_LOOKUPS);
    }

    #[test]
    fn checkpoint_interval_needs_a_journal() {
        let err = run(&BenchConfig {
            policy: "ramdisk".to_string(),
            checkpoint_interval: Some(64),
            clients: 1,
            files: 10,
            ..BenchConfig::default()
        })
        .unwrap_err();
        assert!(err.contains("journaling policy"), "{err}");
    }

    #[test]
    fn drill_without_a_journal_replays_nothing() {
        // hdfs runs decoupled with no mdlog flushes from the RPC path;
        // the drill still fails over, it just has nothing to replay.
        let cfg = BenchConfig {
            clients: 1,
            files: 20,
            policy: "hdfs".to_string(),
            faults: Some("mds-crash@5ms".to_string()),
            ..BenchConfig::default()
        };
        let out = run(&cfg).unwrap();
        assert!(out.rendered.contains("failover #1"), "{}", out.rendered);
    }
}
