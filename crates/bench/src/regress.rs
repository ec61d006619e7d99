//! `cudele-bench regress` — the virtual-time model's regression gate.
//!
//! Runs a fixed, seeded set of workloads entirely in virtual time:
//!
//! 1. `mdbench` at a small scale under the posix, batchfs and deltafs
//!    policies (throughput plus p50/p95/p99 virtual op latency),
//! 2. a traced run exercising all seven Figure-4 mechanisms, profiled
//!    with [`cudele_obs::critpath`] (per-mechanism mean latency and
//!    per-layer critical-path shares),
//! 3. the Figure-5 normalized slowdowns, a speculative run under seeded
//!    NACKs, and a checkpointed failover drill.
//!
//! The results are written as a schema-versioned `BENCH_cudele.json`. Every
//! number in it is deterministic virtual time, so the gate is byte
//! equality with the committed baseline: equal bytes pass, anything else
//! is reported as one line per differing JSON path ([`compare`]) and the
//! binary exits non-zero, which is what CI gates on. A snapshot whose run
//! was itself invalid — a consistency violation, a dropped span or
//! timeline window ([`MUST_BE_ZERO`]) — is refused before it is compared
//! or installed as a baseline. Host time is not measured here; that is
//! `benchmark/`'s job.

use std::sync::Arc;

use cudele::{execute_merge_at, Composition, ExecEnv};
use cudele_client::LocalDisk;
use cudele_mds::{CheckpointConfig, ClientId, MdLogConfig, MdsCluster, MetadataServer};
use cudele_obs::critpath::{self, MechanismBreakdown};
use cudele_obs::json::Layout::{Inline, Pretty};
use cudele_obs::json::{self, Value, Writer};
use cudele_rados::InMemoryStore;
use cudele_sim::{CostModel, Engine, Nanos};
use cudele_workloads::client_dir;

use crate::mdbench::{self, BenchConfig};
use crate::obs_out;
use crate::{DecoupledCreateProcess, RpcCreateProcess, Scale, World};

/// Version tag of the `BENCH_cudele.json` layout. Bump on any change to
/// the emitted structure; a mismatched tag is a difference like any other.
pub const SCHEMA: &str = "cudele-bench-regress/v5";

/// Default path of the freshly measured snapshot.
pub const DEFAULT_OUT: &str = "BENCH_cudele.json";

/// Default path of the committed baseline to compare against.
pub const DEFAULT_BASELINE: &str = "BENCH_baseline.json";

/// Usage string for the `regress` subcommand.
pub const USAGE: &str = "usage: cudele-bench regress [--out PATH] \
     [--baseline PATH] [--write-baseline] [--trace-out PATH] [--folded-out PATH]";

/// Command-line configuration of one `regress` invocation.
#[derive(Debug, Clone)]
pub struct RegressConfig {
    /// Where to write the measured snapshot.
    pub out: String,
    /// Baseline to compare against (unless `write_baseline`).
    pub baseline: String,
    /// Write the snapshot as the new baseline instead of comparing.
    pub write_baseline: bool,
    /// Also write the traced-mechanisms run as a Chrome trace here.
    pub trace_out: Option<String>,
    /// Also write the traced-mechanisms run as folded stacks here.
    pub folded_out: Option<String>,
}

impl Default for RegressConfig {
    fn default() -> RegressConfig {
        RegressConfig {
            out: DEFAULT_OUT.to_string(),
            baseline: DEFAULT_BASELINE.to_string(),
            write_baseline: false,
            trace_out: None,
            folded_out: None,
        }
    }
}

/// Parses the arguments after the `regress` subcommand word. `Err`
/// carries the message to print before [`USAGE`]; `--help` yields
/// `Err(String::new())`.
pub fn parse_args(args: &[String]) -> Result<RegressConfig, String> {
    let mut cfg = RegressConfig::default();
    let mut i = 0;
    let value = |i: &mut usize, what: &str| -> Result<String, String> {
        *i += 2;
        args.get(*i - 1)
            .cloned()
            .ok_or_else(|| format!("{what} requires a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--out" => cfg.out = value(&mut i, "--out")?,
            "--baseline" => cfg.baseline = value(&mut i, "--baseline")?,
            "--write-baseline" => {
                cfg.write_baseline = true;
                i += 1;
            }
            "--trace-out" => cfg.trace_out = Some(value(&mut i, "--trace-out")?),
            "--folded-out" => cfg.folded_out = Some(value(&mut i, "--folded-out")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cfg)
}

/// One mdbench workload's measurements.
struct MdbenchRow {
    policy: &'static str,
    clients: u32,
    files: u64,
    create_ops_per_s: f64,
    end_to_end_ops_per_s: f64,
    p50_ns: f64,
    p95_ns: f64,
    p99_ns: f64,
    /// Events in the run's recorded consistency history.
    history_events: u64,
    /// Operations the consistency checkers verified over that history.
    check_ops: u64,
    /// Axiom violations, rendered; must be empty for a passing run.
    check_violations: Vec<String>,
    /// Non-empty timeline windows recorded across all series.
    timeline_windows: u64,
    /// Median per-window `bench.ops` rate (steady-state throughput).
    steady_ops_per_s: f64,
    /// SLO burn-rate alerts fired under the default objectives.
    timeline_alerts: u64,
    /// Spans dropped at the session span-buffer capacity.
    spans_dropped: u64,
    /// Timeline samples/annotations dropped at capacity.
    windows_dropped: u64,
}

/// Median per-window plot value of `series` — the steady-state level,
/// robust to the ramp-up and tail windows.
fn median_rate(snap: &cudele_obs::timeline::TimelineSnapshot, series: &str) -> f64 {
    let Some(s) = snap.series(series) else {
        return 0.0;
    };
    let mut rates: Vec<f64> = s.points.iter().map(|p| p.stat.plot_value()).collect();
    if rates.is_empty() {
        return 0.0;
    }
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

const MDBENCH_POLICIES: [&str; 3] = ["posix", "batchfs", "deltafs"];
const MDBENCH_CLIENTS: u32 = 2;
const MDBENCH_FILES: u64 = 500;

fn run_mdbench_workload(policy: &'static str) -> Result<MdbenchRow, String> {
    // Install the session registry ourselves: `mdbench::run` without
    // `--metrics-out`/`--trace-out` leaves the installed session alone,
    // so every world it builds attaches here and we can read the
    // latency histogram after the run.
    let reg = obs_out::install_session();
    let cfg = BenchConfig {
        clients: MDBENCH_CLIENTS,
        files: MDBENCH_FILES,
        policy: policy.to_string(),
        ..BenchConfig::default()
    };
    let mode = mdbench::history_mode_of(&cfg);
    let out = mdbench::run(&cfg);
    obs_out::clear_session();
    let out = out?;
    // Replay the run's consistency history through the offline checkers,
    // via the serialized form so every regress run also round-trips the
    // on-disk schema. Violations fail the run-validity gate.
    let history = cudele_obs::history::History::parse(&reg.history_json(mode?))
        .map_err(|e| format!("mdbench[{policy}] history: {e}"))?;
    let check = cudele_check::check_history(&history);
    let ops = (MDBENCH_CLIENTS as u64 * MDBENCH_FILES) as f64;
    let h = reg.histogram("bench.op_latency.ns");
    // The windowed view of the same run, under the default objectives:
    // window counts and steady-state rates are deterministic, so they
    // are gated like any other measurement.
    let mut tsnap = reg.timeline().snapshot();
    let specs: Vec<_> = mdbench::DEFAULT_SLOS
        .iter()
        .map(|s| cudele_obs::slo::SloSpec::parse(s).expect("default SLOs parse"))
        .collect();
    tsnap.slos = cudele_obs::slo::evaluate(&tsnap, &specs);
    Ok(MdbenchRow {
        policy,
        clients: MDBENCH_CLIENTS,
        files: MDBENCH_FILES,
        create_ops_per_s: ops / out.create_end.as_secs_f64(),
        end_to_end_ops_per_s: ops / out.merge_end.as_secs_f64(),
        p50_ns: h.p50(),
        p95_ns: h.p95(),
        p99_ns: h.p99(),
        history_events: check.events as u64,
        check_ops: check.ops_checked,
        check_violations: check.violations.iter().map(ToString::to_string).collect(),
        timeline_windows: tsnap.series.iter().map(|s| s.points.len() as u64).sum(),
        steady_ops_per_s: median_rate(&tsnap, "bench.ops"),
        timeline_alerts: tsnap.slos.iter().map(|o| o.alerts.len() as u64).sum(),
        spans_dropped: reg.spans_dropped(),
        windows_dropped: reg.timeline().dropped(),
    })
}

/// The speculative-execution workload's measurements: the same RPC-mode
/// run with and without `--speculate`, under seeded NACK faults, plus the
/// commit-time history replayed through the checkers.
struct SpeculationRow {
    clients: u32,
    files: u64,
    depth: usize,
    /// Throughput with speculation on (NACK faults firing).
    create_ops_per_s: f64,
    /// Throughput of the identical stalling-RPC run.
    rpc_ops_per_s: f64,
    /// Rollback events the NACKs forced.
    rollbacks: u64,
    /// Aborted ops replayed to completion.
    replayed: u64,
    /// Events in the commit-time consistency history.
    history_events: u64,
    /// Operations the checkers verified over that history.
    check_ops: u64,
    /// Axiom violations, rendered; must be empty for a passing run.
    check_violations: Vec<String>,
}

const SPECULATION_CLIENTS: u32 = 2;
const SPECULATION_FILES: u64 = 500;
const SPECULATION_DEPTH: usize = 16;
/// Seeded NACK rate for the speculation row: ~2% of speculative issues
/// invalidate, so every regress run exercises rollback + replay.
const SPECULATION_FAULTS: &str = "seed=11,spec_abort_ppm=20000";

fn run_speculation_workload() -> Result<SpeculationRow, String> {
    // The stalling-RPC baseline runs on a private registry.
    obs_out::clear_session();
    let base_cfg = BenchConfig {
        clients: SPECULATION_CLIENTS,
        files: SPECULATION_FILES,
        policy: "ramdisk".to_string(),
        ..BenchConfig::default()
    };
    let rpc = mdbench::run(&base_cfg)?;
    // The speculative run records counters and the commit-time history in
    // a session registry so the checkers can replay it.
    let reg = obs_out::install_session();
    let out = mdbench::run(&BenchConfig {
        speculate: Some(SPECULATION_DEPTH),
        faults: Some(SPECULATION_FAULTS.to_string()),
        ..base_cfg
    });
    obs_out::clear_session();
    let out = out?;
    let history = cudele_obs::history::History::parse(&reg.history_json("rpc"))
        .map_err(|e| format!("speculation history: {e}"))?;
    let check = cudele_check::check_history(&history);
    let ops = (SPECULATION_CLIENTS as u64 * SPECULATION_FILES) as f64;
    Ok(SpeculationRow {
        clients: SPECULATION_CLIENTS,
        files: SPECULATION_FILES,
        depth: SPECULATION_DEPTH,
        create_ops_per_s: ops / out.create_end.as_secs_f64(),
        rpc_ops_per_s: ops / rpc.create_end.as_secs_f64(),
        rollbacks: reg.counter_value("client.spec.rollbacks").unwrap_or(0),
        replayed: reg.counter_value("client.spec.replayed").unwrap_or(0),
        history_events: check.events as u64,
        check_ops: check.ops_checked,
        check_violations: check.violations.iter().map(ToString::to_string).collect(),
    })
}

/// The checkpointed-recovery workload's measurements.
struct RecoveryRow {
    /// Creates driven through the active MDS before the crash.
    files: u64,
    /// Journal-tail events the standby replayed past the manifest.
    replay_events: u64,
    /// Events materialized from the manifest's image instead.
    checkpoint_events: u64,
    /// detected-at → takeover-complete, virtual nanoseconds.
    takeover_ns: u64,
    /// Manifest epoch the takeover recovered from.
    manifest_epoch: u64,
}

/// Workload size for the recovery row. With `interval_events` 32 the run
/// cuts an image every 160 flushed events — three of them — so the replayed
/// tail is a small fixed residue of the workload, not proportional to it.
const RECOVERY_FILES: u64 = 600;

/// Runs a checkpointed failover on a private cluster: create
/// [`RECOVERY_FILES`] files with the compactor cutting an image every
/// 5 x 32 flushed events, crash the active MDS, and measure what the
/// standby takeover actually replayed.
fn run_recovery_workload() -> Result<RecoveryRow, String> {
    let fail = |e: cudele_mds::MdsError| format!("recovery workload: {e}");
    let mut cluster = MdsCluster::new(
        Arc::new(InMemoryStore::paper_default()),
        CostModel::calibrated(),
        Some(MdLogConfig {
            events_per_segment: 32,
            dispatch_size: 2,
            trim_after_updates: None,
        }),
    );
    cluster
        .enable_checkpoints(CheckpointConfig {
            interval_events: 32,
        })
        .map_err(fail)?;
    cluster.active_mut().open_session(ClientId(0));
    let dir = cluster
        .active_mut()
        .setup_dir_durable("/regress")
        .map_err(fail)?;
    for i in 0..RECOVERY_FILES {
        cluster
            .active_mut()
            .create(ClientId(0), dir, &format!("f{i}"))
            .result
            .map_err(fail)?;
    }
    cluster.active_mut().flush_journal();
    cluster.advance_to(Nanos::from_millis(5)).map_err(fail)?;
    cluster.crash_active();
    cluster.advance_to(Nanos::from_millis(60)).map_err(fail)?;
    let r = cluster
        .reports()
        .first()
        .copied()
        .ok_or("recovery workload: crash was never detected")?;
    Ok(RecoveryRow {
        files: RECOVERY_FILES,
        replay_events: r.takeover.replayed_events,
        checkpoint_events: r.takeover.checkpoint_events,
        takeover_ns: (r.completed_at - r.decision.detected_at).0,
        manifest_epoch: r.takeover.manifest_epoch,
    })
}

/// Drives all seven Figure-4 mechanisms in one traced run on a private
/// registry and returns the critical-path breakdown plus the raw trace
/// exports (Chrome JSON and folded stacks).
fn run_traced_mechanisms() -> (Vec<MechanismBreakdown>, String, String) {
    obs_out::clear_session();
    let world = seven_mechanism_world();
    let spans = world.obs.spans();
    let analysis = critpath::analyze(&spans);
    let mut rows = critpath::mechanism_breakdown(&analysis);
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    (
        rows,
        world.obs.chrome_trace_json(),
        critpath::folded(&analysis),
    )
}

/// One journaling world in which every Figure-4 mechanism runs at least
/// once, each under a client op's trace root: client 0 creates 64 files by
/// RPC (`rpcs` + `stream`), client 1 appends 64 creates to its journal
/// (`append_client_journal`), client 10 merges a 32-create journal
/// (`volatile_apply`) and client 11 persists one with
/// `local_persist+global_persist+nonvolatile_apply`. The world attaches to
/// the session registry when one is installed.
pub fn seven_mechanism_world() -> World {
    let os = Arc::new(InMemoryStore::paper_default());
    let mut world = World::new(MetadataServer::with_config(
        os.clone(),
        CostModel::calibrated(),
        Some(MdLogConfig::default()),
    ));
    for c in 0..3 {
        world.server.setup_dir(&client_dir(c)).unwrap();
    }
    let rpc_dir = world.server.store().resolve(&client_dir(0)).unwrap();

    // rpcs + stream.
    let mut eng = Engine::new(world);
    let p = RpcCreateProcess::new(eng.world_mut(), 0, rpc_dir, 64);
    eng.add_process(Box::new(p));
    let (world, _) = eng.run();

    // append_client_journal.
    let mut eng = Engine::new(world);
    let p = DecoupledCreateProcess::new(eng.world_mut(), 1, &client_dir(1), 64);
    eng.add_process(Box::new(p));
    let (mut world, report) = eng.run();

    // volatile_apply.
    let mut merger = DecoupledCreateProcess::new(&mut world, 10, &client_dir(1), 32);
    for i in 0..32 {
        merger
            .client
            .create(merger.client.root, &format!("m{i}"))
            .unwrap();
    }
    merger.merge_at(&mut world, report.slowest(), 1);

    // local_persist + global_persist + nonvolatile_apply.
    let mut persister = DecoupledCreateProcess::new(&mut world, 11, &client_dir(2), 32);
    for i in 0..32 {
        persister
            .client
            .create(persister.client.root, &format!("p{i}"))
            .unwrap();
    }
    let comp: Composition = "local_persist+global_persist+nonvolatile_apply"
        .parse()
        .unwrap();
    let mut disk = LocalDisk::new();
    execute_merge_at(
        &comp,
        &mut persister.client,
        &mut ExecEnv {
            server: &mut world.server,
            os: os.as_ref(),
            disk: &mut disk,
        },
        Some(&world.obs),
        11,
        report.slowest(),
    )
    .unwrap();
    world
}

fn render_json(
    mdbench_rows: &[MdbenchRow],
    recovery: &RecoveryRow,
    speculation: &SpeculationRow,
    fig5: &crate::fig5::Fig5,
    mechanisms: &[MechanismBreakdown],
) -> String {
    let mut w = Writer::default();
    w.obj(Pretty).key("schema").str(SCHEMA);
    w.key("mdbench").arr(Pretty);
    for r in mdbench_rows {
        w.obj(Pretty).key("policy").str(r.policy);
        w.key("clients").u64(r.clients.into());
        w.key("files").u64(r.files);
        w.key("create_ops_per_s").f64(r.create_ops_per_s);
        w.key("end_to_end_ops_per_s").f64(r.end_to_end_ops_per_s);
        w.key("latency_ns").obj(Inline).key("p50").f64(r.p50_ns);
        w.key("p95").f64(r.p95_ns).key("p99").f64(r.p99_ns).close();
        w.key("timeline").obj(Inline);
        w.key("windows").u64(r.timeline_windows);
        w.key("steady_ops_per_s").f64(r.steady_ops_per_s);
        w.key("alerts").u64(r.timeline_alerts).close().close();
    }
    w.close().key("recovery").obj(Pretty);
    w.key("files").u64(recovery.files);
    w.key("replay_events").u64(recovery.replay_events);
    w.key("checkpoint_events").u64(recovery.checkpoint_events);
    w.key("takeover_ns").u64(recovery.takeover_ns);
    w.key("manifest_epoch").u64(recovery.manifest_epoch);
    w.close();

    // How much of the RPC↔append gap the fig5 speculative column closed:
    // 0 = no better than stalling RPCs, 1 = as fast as the baseline.
    let gap_closed = {
        let rpcs = fig5.slowdown("rpcs");
        let spec = fig5.slowdown("speculative");
        (rpcs - spec) / (rpcs - 1.0)
    };
    let s = speculation;
    w.key("speculation").obj(Pretty);
    w.key("clients").u64(s.clients.into());
    w.key("files").u64(s.files);
    w.key("depth").u64(s.depth as u64);
    w.key("create_ops_per_s").f64(s.create_ops_per_s);
    w.key("rpc_ops_per_s").f64(s.rpc_ops_per_s);
    w.key("speedup").f64(s.create_ops_per_s / s.rpc_ops_per_s);
    w.key("gap_closed").f64(gap_closed);
    w.key("rollbacks").u64(s.rollbacks);
    w.key("replayed").u64(s.replayed);
    w.key("history_events").u64(s.history_events);
    w.key("check_ops").u64(s.check_ops);
    w.key("violations").u64(s.check_violations.len() as u64);
    w.close().key("fig5_slowdowns").obj(Pretty);
    for b in &fig5.bars {
        w.key(b.label).f64(b.slowdown);
    }
    w.close().key("mechanisms").arr(Pretty);
    for m in mechanisms {
        let mean = if m.runs > 0 {
            m.total_ns as f64 / m.runs as f64
        } else {
            0.0
        };
        w.obj(Pretty).key("name").str(&m.name);
        w.key("runs").u64(m.runs);
        w.key("mean_ns").f64(mean).key("layer_shares").obj(Inline);
        for (layer, share) in m.shares() {
            w.key(&layer).f64(share);
        }
        w.close().close();
    }
    w.close();

    let sum = |f: fn(&MdbenchRow) -> u64| mdbench_rows.iter().map(f).sum::<u64>();
    // Observability loss: any dropped span or timeline sample in the
    // regress workloads means the buffers are undersized for the pinned
    // scale. Both must be 0 (`MUST_BE_ZERO`).
    w.key("obs").obj(Pretty);
    w.key("spans_dropped").u64(sum(|r| r.spans_dropped));
    w.key("windows_dropped").u64(sum(|r| r.windows_dropped));
    // Aggregate consistency-check verdict over the mdbench histories.
    // `violations` must be 0 (`MUST_BE_ZERO`).
    let violations = sum(|r| r.check_violations.len() as u64);
    w.close().key("check").obj(Pretty);
    w.key("histories").u64(mdbench_rows.len() as u64);
    w.key("events").u64(sum(|r| r.history_events));
    w.key("ops").u64(sum(|r| r.check_ops));
    w.key("violations").u64(violations);
    w.close().close();
    w.finish()
}

/// Paths that must read 0 in a measured snapshot for the run behind it to
/// count at all: a consistency violation means the stack misbehaved, a
/// dropped span or timeline window means the recording is partial and
/// every other number is suspect.
pub const MUST_BE_ZERO: [&str; 4] = [
    "check.violations",
    "speculation.violations",
    "obs.spans_dropped",
    "obs.windows_dropped",
];

/// The run-validity gate: one line per [`MUST_BE_ZERO`] path of `snapshot`
/// that is missing or non-zero. Judges the snapshot alone, no baseline.
pub fn invalid_run(snapshot: &str) -> Result<Vec<String>, String> {
    let v = json::parse(snapshot).map_err(|e| format!("snapshot: {e}"))?;
    Ok(MUST_BE_ZERO
        .iter()
        .filter_map(|path| {
            let leaf = path.split('.').try_fold(&v, |v, key| v.get(key));
            match leaf.and_then(Value::as_u64) {
                Some(0) => None,
                Some(n) => Some(format!("{path}: {n} — must be 0")),
                None => Some(format!("{path}: missing — must be 0")),
            }
        })
        .collect())
}

/// How a value reads in a difference line: scalars verbatim, containers
/// by size.
fn describe(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => n.to_string(),
        Value::U64(n) => n.to_string(),
        Value::Str(s) => format!("{s:?}"),
        Value::Arr(a) => format!("[{} elements]", a.len()),
        Value::Obj(m) => format!("{{{} keys}}", m.len()),
    }
}

/// Walks two JSON trees in step and pushes one line per path where they
/// differ: a changed leaf, a key on one side only, an array-length change.
fn diff(path: &str, cur: &Value, base: &Value, out: &mut Vec<String>) {
    match (cur, base) {
        (Value::Obj(c), Value::Obj(b)) => {
            let at = |key: &str| match path {
                "" => key.to_string(),
                _ => format!("{path}.{key}"),
            };
            for (key, bv) in b {
                match cur.get(key) {
                    Some(cv) => diff(&at(key), cv, bv, out),
                    None => out.push(format!("{}: missing (baseline {})", at(key), describe(bv))),
                }
            }
            for (key, cv) in c {
                if base.get(key).is_none() {
                    out.push(format!("{}: {} not in baseline", at(key), describe(cv)));
                }
            }
        }
        (Value::Arr(c), Value::Arr(b)) => {
            if c.len() != b.len() {
                out.push(format!(
                    "{path}: {} elements vs baseline {}",
                    c.len(),
                    b.len()
                ));
            }
            for (i, (cv, bv)) in c.iter().zip(b).enumerate() {
                diff(&format!("{path}[{i}]"), cv, bv, out);
            }
        }
        _ if cur != base => out.push(format!(
            "{path}: {} vs baseline {}",
            describe(cur),
            describe(base)
        )),
        _ => {}
    }
}

/// Compares a measured snapshot against a baseline (both JSON text): equal
/// bytes pass; otherwise the differences, one line per JSON path — empty
/// means no regression.
pub fn compare(current: &str, baseline: &str) -> Result<Vec<String>, String> {
    if current == baseline {
        return Ok(Vec::new());
    }
    let cur = json::parse(current).map_err(|e| format!("current snapshot: {e}"))?;
    let base = json::parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let mut out = Vec::new();
    diff("", &cur, &base, &mut out);
    if out.is_empty() {
        // Same tree, different text (key order, number spelling, spacing):
        // still not the committed bytes.
        out.push("bytes differ from the baseline though every JSON path matches".to_string());
    }
    Ok(out)
}

/// Everything one measurement sweep produces: the three mdbench rows, the
/// Figure-5 slowdowns, the traced-mechanism breakdown, and the raw trace
/// exports. [`run`] writes and gates it.
pub struct Measurement {
    mdbench_rows: Vec<MdbenchRow>,
    recovery: RecoveryRow,
    speculation: SpeculationRow,
    fig5: crate::fig5::Fig5,
    mech_rows: Vec<MechanismBreakdown>,
    /// Chrome trace of the traced-mechanisms run.
    pub trace_json: String,
    /// Folded stacks of the traced-mechanisms run.
    pub folded: String,
}

impl Measurement {
    /// The schema-versioned snapshot JSON (deterministic bytes).
    pub fn to_json(&self) -> String {
        render_json(
            &self.mdbench_rows,
            &self.recovery,
            &self.speculation,
            &self.fig5,
            &self.mech_rows,
        )
    }
}

/// Result of one independent sweep task (see [`measure`]).
enum TaskOut {
    Mechs(Box<(Vec<MechanismBreakdown>, String, String)>),
    Mdbench(Box<Result<MdbenchRow, String>>),
    Fig5(Box<crate::fig5::Fig5>),
    Recovery(Box<Result<RecoveryRow, String>>),
    Speculation(Box<Result<SpeculationRow, String>>),
}

/// Runs the full measurement sweep — the traced all-mechanisms run,
/// Figure 5, the checkpointed-recovery drill, the speculation pair and the
/// three mdbench policies — as seven independent tasks fanned across
/// `threads` workers (1 = serial, which is what [`run`] uses). Each task
/// owns its store, world, and registry (the mdbench tasks install
/// per-thread sessions), so results are assembled in fixed input order and
/// the output is byte-identical to a serial sweep.
pub fn measure(threads: usize) -> Result<Measurement, String> {
    let results = obs_out::par_tasks_merged(threads, 4 + MDBENCH_POLICIES.len(), |i| match i {
        0 => TaskOut::Mechs(Box::new(run_traced_mechanisms())),
        1 => TaskOut::Fig5(Box::new(crate::fig5::run(Scale {
            files_per_client: 2_000,
            runs: 1,
        }))),
        2 => TaskOut::Recovery(Box::new(run_recovery_workload())),
        3 => TaskOut::Speculation(Box::new(run_speculation_workload())),
        _ => TaskOut::Mdbench(Box::new(run_mdbench_workload(MDBENCH_POLICIES[i - 4]))),
    });

    let mut mech = None;
    let mut fig5 = None;
    let mut recovery = None;
    let mut speculation = None;
    let mut mdbench_rows = Vec::new();
    for r in results {
        match r {
            TaskOut::Mechs(m) => mech = Some(*m),
            TaskOut::Fig5(f) => fig5 = Some(*f),
            TaskOut::Recovery(row) => recovery = Some((*row)?),
            TaskOut::Speculation(row) => speculation = Some((*row)?),
            TaskOut::Mdbench(row) => mdbench_rows.push((*row)?),
        }
    }
    let (mech_rows, trace_json, folded) = mech.expect("mechanisms task ran");
    Ok(Measurement {
        mdbench_rows,
        recovery: recovery.expect("recovery task ran"),
        speculation: speculation.expect("speculation task ran"),
        fig5: fig5.expect("fig5 task ran"),
        mech_rows,
        trace_json,
        folded,
    })
}

/// What one `regress` invocation produced.
pub struct RegressOutcome {
    /// The measured snapshot (also written to `cfg.out`).
    pub json: String,
    /// Why the run failed: must-be-zero gates the snapshot tripped, else
    /// its differences against the baseline (empty = pass).
    pub violations: Vec<String>,
    /// Human-readable report for the terminal.
    pub rendered: String,
}

fn write(path: &str, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))
}

/// Judges a measured snapshot. The run-validity gate ([`invalid_run`])
/// comes first — an invalid run is neither compared nor installed; then
/// `write_baseline` installs the snapshot at `baseline`, otherwise it is
/// compared against the file there. Returns what failed (empty = pass) and
/// the verdict lines for the terminal.
pub fn gate(
    json: &str,
    baseline: &str,
    write_baseline: bool,
) -> Result<(Vec<String>, String), String> {
    let invalid = invalid_run(json)?;
    let (mut rendered, failures) = if !invalid.is_empty() {
        let n = invalid.len();
        (
            format!("INVALID RUN: snapshot refused, {n} must-be-zero gate(s) failed:\n"),
            invalid,
        )
    } else if write_baseline {
        write(baseline, json)?;
        (format!("baseline written to {baseline}\n"), Vec::new())
    } else {
        let committed = std::fs::read_to_string(baseline).map_err(|e| {
            format!("baseline {baseline}: {e} (run with --write-baseline to create it)")
        })?;
        let diffs = compare(json, &committed)?;
        let headline = match diffs.len() {
            0 => format!("no regressions against {baseline}\n"),
            n => format!("REGRESSION: {n} difference(s) against {baseline}:\n"),
        };
        (headline, diffs)
    };
    for failure in &failures {
        rendered.push_str(&format!("  - {failure}\n"));
    }
    Ok((failures, rendered))
}

/// Runs the whole pipeline: measure, write the snapshot (and optional
/// trace/folded exports), then [`gate`] it.
pub fn run(cfg: &RegressConfig) -> Result<RegressOutcome, String> {
    let mut rendered = String::new();

    let m = measure(1)?;
    let json = m.to_json();
    write(&cfg.out, &json)?;
    if let Some(path) = &cfg.trace_out {
        write(path, &m.trace_json)?;
    }
    if let Some(path) = &cfg.folded_out {
        write(path, &m.folded)?;
    }

    rendered.push_str(&critpath::render_breakdown_table(&m.mech_rows));
    rendered.push('\n');
    for r in &m.mdbench_rows {
        rendered.push_str(&format!(
            "mdbench {:<8} {:>8.0} creates/s (end-to-end {:>8.0}/s, p99 {:.1} us)\n",
            r.policy,
            r.create_ops_per_s,
            r.end_to_end_ops_per_s,
            r.p99_ns / 1000.0
        ));
    }
    rendered.push_str(&format!(
        "speculation: {:>8.0} creates/s vs stalling rpc {:>8.0}/s \
({:.1}x, {} rollbacks, {} replayed)\n",
        m.speculation.create_ops_per_s,
        m.speculation.rpc_ops_per_s,
        m.speculation.create_ops_per_s / m.speculation.rpc_ops_per_s,
        m.speculation.rollbacks,
        m.speculation.replayed,
    ));
    rendered.push_str(&format!(
        "recovery: {} creates -> takeover replayed {} tail events \
(+{} from manifest m{}) in {}\n",
        m.recovery.files,
        m.recovery.replay_events,
        m.recovery.checkpoint_events,
        m.recovery.manifest_epoch,
        Nanos(m.recovery.takeover_ns),
    ));
    let checked: u64 = m.mdbench_rows.iter().map(|r| r.check_ops).sum();
    let check_viols: Vec<&String> = m
        .mdbench_rows
        .iter()
        .flat_map(|r| &r.check_violations)
        .collect();
    rendered.push_str(&format!(
        "check: {} histories, {} ops verified, {} violation(s)\n",
        m.mdbench_rows.len(),
        checked,
        check_viols.len()
    ));
    for w in &check_viols {
        rendered.push_str(&format!("  witness: {w}\n"));
    }
    rendered.push_str(&format!("snapshot written to {}\n", cfg.out));

    let (violations, verdict) = gate(&json, &cfg.baseline, cfg.write_baseline)?;
    rendered.push_str(&verdict);

    Ok(RegressOutcome {
        json,
        violations,
        rendered,
    })
}
