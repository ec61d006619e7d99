//! Observability acceptance tests: every Figure-4 mechanism is traced, and
//! same-seed runs produce byte-identical metrics/trace snapshots.
//!
//! `mdbench::run` installs a process-global session registry while it runs,
//! so tests that build `World`s and tests that call `mdbench::run` must not
//! interleave — they serialize on [`OBS_LOCK`].

use std::sync::{Mutex, OnceLock};

use cudele_bench::mdbench::{self, BenchConfig};
use cudele_bench::obs_out::ObsSinks;

fn obs_lock() -> &'static Mutex<()> {
    static OBS_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    OBS_LOCK.get_or_init(|| Mutex::new(()))
}

/// All seven mechanisms of the paper's Figure 4.
const MECHANISMS: [&str; 7] = [
    "rpcs",
    "stream",
    "append_client_journal",
    "volatile_apply",
    "local_persist",
    "global_persist",
    "nonvolatile_apply",
];

#[test]
fn all_seven_mechanisms_emit_spans_and_counters() {
    let _guard = obs_lock().lock().unwrap();

    let world = cudele_bench::regress::seven_mechanism_world();

    for name in MECHANISMS {
        let runs = world
            .obs
            .counter_value(&format!("core.mechanism.{name}.runs"))
            .unwrap_or(0);
        assert!(runs >= 1, "{name}: expected >= 1 run, got {runs}");
        assert!(world.obs.has_span(name), "{name}: expected a span");
    }
    assert_eq!(world.obs.spans_dropped(), 0);
    cudele_obs::json::validate(&world.obs.metrics_json()).unwrap();
    cudele_obs::json::validate(&world.obs.chrome_trace_json()).unwrap();

    // Tentpole acceptance: every mechanism span sits in a parented tree
    // whose root is a client op, and the critical-path profiler reports
    // layer shares for all seven mechanisms.
    let spans = world.obs.spans();
    let by_id: std::collections::BTreeMap<u64, &cudele_obs::Span> = spans
        .iter()
        .filter(|s| s.span_id != 0)
        .map(|s| (s.span_id, s))
        .collect();
    for s in spans.iter().filter(|s| s.cat == "mechanism") {
        assert_ne!(s.parent_id, 0, "{}: mechanism span has no parent", s.name);
        let mut cur = *by_id.get(&s.span_id).unwrap();
        while cur.parent_id != 0 {
            cur = by_id
                .get(&cur.parent_id)
                .unwrap_or_else(|| panic!("{}: dangling parent id", s.name));
        }
        assert_eq!(cur.cat, "client_op", "{}: root is not a client op", s.name);
    }
    let analysis = cudele_obs::critpath::analyze(&spans);
    assert!(!analysis.traces.is_empty());
    let rows = cudele_obs::critpath::mechanism_breakdown(&analysis);
    for name in MECHANISMS {
        let row = rows
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("{name}: missing from breakdown"));
        assert!(row.runs >= 1, "{name}: breakdown lost its runs");
        if row.total_ns > 0 {
            let covered: f64 = row.shares().values().sum();
            assert!(
                (covered - 1.0).abs() < 1e-9,
                "{name}: layer shares sum to {covered}, not 1"
            );
        }
    }
    let table = cudele_obs::critpath::render_breakdown_table(&rows);
    for name in MECHANISMS {
        assert!(table.contains(name), "{name}: missing from rendered table");
    }
}

fn snapshot_paths(label: &str) -> (String, String) {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    (
        dir.join(format!("cudele_obs_{pid}_{label}_metrics.json"))
            .to_string_lossy()
            .into_owned(),
        dir.join(format!("cudele_obs_{pid}_{label}_trace.json"))
            .to_string_lossy()
            .into_owned(),
    )
}

/// The value of counter `name` in a metrics snapshot.
fn counter_in(metrics: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let at = metrics
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing"));
    let digits = metrics[at + key.len()..].chars();
    let digits: String = digits.take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap()
}

fn run_with_snapshots(policy: &str, label: &str) -> (String, Vec<u8>, Vec<u8>) {
    run_faulted_snapshots(policy, label, None)
}

fn run_faulted_snapshots(
    policy: &str,
    label: &str,
    faults: Option<&str>,
) -> (String, Vec<u8>, Vec<u8>) {
    let (metrics, trace) = snapshot_paths(label);
    let cfg = BenchConfig {
        clients: 2,
        files: 500,
        arrival: None,
        policy: policy.to_string(),
        composition: None,
        sinks: ObsSinks {
            metrics_out: Some(metrics.clone()),
            trace_out: Some(trace.clone()),
            ..ObsSinks::default()
        },
        faults: faults.map(str::to_string),
        // Small mdlog windows so faulted runs flush to the store often
        // enough for the plan to actually fire within 500 creates.
        mdlog_segment: faults.map(|_| 32),
        mdlog_dispatch: faults.map(|_| 4),
        checkpoint_interval: None,
        speculate: None,
        slos: Vec::new(),
        threads: 1,
    };
    let out = mdbench::run(&cfg).unwrap();
    let metrics_bytes = std::fs::read(&metrics).unwrap();
    let trace_bytes = std::fs::read(&trace).unwrap();
    let _ = std::fs::remove_file(&metrics);
    let _ = std::fs::remove_file(&trace);
    (out.rendered, metrics_bytes, trace_bytes)
}

#[test]
fn same_config_runs_are_byte_identical() {
    let _guard = obs_lock().lock().unwrap();

    for policy in ["posix", "batchfs"] {
        let (rendered_a, metrics_a, trace_a) = run_with_snapshots(policy, "a");
        let (rendered_b, metrics_b, trace_b) = run_with_snapshots(policy, "b");
        assert_eq!(rendered_a, rendered_b, "{policy}: rendered output differs");
        assert_eq!(metrics_a, metrics_b, "{policy}: metrics snapshot differs");
        assert_eq!(trace_a, trace_b, "{policy}: trace snapshot differs");
        cudele_obs::json::validate(std::str::from_utf8(&metrics_a).unwrap()).unwrap();
        cudele_obs::json::validate(std::str::from_utf8(&trace_a).unwrap()).unwrap();
        assert!(!metrics_a.is_empty() && !trace_a.is_empty());
    }
}

/// Determinism regression for the fault layer: the same `--faults` plan
/// (seed + rates + windows) must reproduce byte-identical observability
/// snapshots across two runs, including the `faults.injected.*` and retry
/// counters the plan perturbs.
#[test]
fn same_fault_plan_runs_are_byte_identical() {
    let _guard = obs_lock().lock().unwrap();

    // Fault rates are per store op, and a flushed segment is two ops (one
    // append per stripe run, one header write), so the rate is what keeps
    // the plan firing within 1 000 creates.
    let spec = "seed=42,eagain_ppm=50000,slow=2.5@0..10ms";
    let (rendered_a, metrics_a, trace_a) = run_faulted_snapshots("posix", "fa", Some(spec));
    let (rendered_b, metrics_b, trace_b) = run_faulted_snapshots("posix", "fb", Some(spec));
    assert_eq!(rendered_a, rendered_b, "faulted rendered output differs");
    assert_eq!(metrics_a, metrics_b, "faulted metrics snapshot differs");
    assert_eq!(trace_a, trace_b, "faulted trace snapshot differs");
    // The plan actually fired: injections and absorbed retries show up in
    // the metrics snapshot with nonzero values.
    let metrics = String::from_utf8(metrics_a).unwrap();
    let counter = |name: &str| counter_in(&metrics, name);
    assert!(counter("faults.injected.eagain") > 0, "plan never fired");
    assert!(
        counter("journal.io.retries") > 0,
        "mdlog writer should have absorbed some transients"
    );
}

/// The store and the fault injector keep no clock of their own: they read
/// the one the server's `set_now` pushes into the store, so a faulted run's
/// `rados.osd.*` and `faults.injected.*` samples land where the I/O
/// happened — spread over the run, like `journal.writer.appends` — instead
/// of piling into window 0.
#[test]
fn faulted_store_series_cover_the_run() {
    let _guard = obs_lock().lock().unwrap();

    let path = std::env::temp_dir()
        .join(format!(
            "cudele_obs_{}_clock.timeline.json",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned();
    let cfg = BenchConfig {
        clients: 2,
        files: 2000,
        faults: Some("seed=42,eagain_ppm=50000,torn_ppm=100000".to_string()),
        mdlog_segment: Some(8),
        mdlog_dispatch: Some(2),
        sinks: ObsSinks {
            timeline_out: Some(path.clone()),
            ..ObsSinks::default()
        },
        ..BenchConfig::default()
    };
    mdbench::run(&cfg).unwrap();
    let body = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let snap = cudele_obs::timeline::TimelineSnapshot::parse(&body).unwrap();
    let windows = |name: &str| {
        let series = snap.series(name).unwrap_or_else(|| panic!("no {name}"));
        let busy = series.points.iter().filter(
            |p| matches!(p.stat, cudele_obs::timeline::PointStat::Rate { count, .. } if count > 0),
        );
        busy.count()
    };
    let appends = windows("journal.writer.appends");
    assert!(appends > 100, "{appends} windows of journal appends");
    for name in ["faults.injected.eagain", "rados.osd.1.write_bytes"] {
        let n = windows(name);
        assert!(n > 1, "{name} covers {n} window(s) of a run with {appends}");
    }
}

/// Every OSD down while the first mdlog flushes land: no create is
/// refused (an accepted event's flush is the mdlog's to retry), the refused
/// window flushes are counted in `mds.mdlog.flush_failures`, the window
/// closes on the server's clock, and the run finishes. A window open from
/// 0 ms used to never close (the store's clock stood still) and the first
/// refused create panicked the run.
#[test]
fn an_all_osd_outage_is_counted_not_a_panic() {
    let _guard = obs_lock().lock().unwrap();

    let all_osds = |window: &str| {
        (0..3)
            .map(|osd| format!("osd_outage={osd}@{window}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    for window in ["0ms..50ms", "1ms..50ms"] {
        let (metrics_path, _) = snapshot_paths("all_osd_outage");
        let cfg = BenchConfig {
            clients: 2,
            files: 2000,
            faults: Some(all_osds(window)),
            mdlog_segment: Some(8),
            mdlog_dispatch: Some(2),
            sinks: ObsSinks {
                metrics_out: Some(metrics_path.clone()),
                ..ObsSinks::default()
            },
            ..BenchConfig::default()
        };
        let out = mdbench::run(&cfg).unwrap_or_else(|e| panic!("{window}: {e}"));
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        let _ = std::fs::remove_file(&metrics_path);
        assert!(
            !out.rendered.contains("refused ops"),
            "{window}: refused ops\n{}",
            out.rendered
        );
        // Only the flushes inside the first 50 ms fail.
        let failures = counter_in(&metrics, "mds.mdlog.flush_failures");
        assert!(failures > 0 && failures < 100, "{window}: {failures}");
    }

    // A refusal the accepted-event rule leaves: a standby takeover whose
    // mdlog replay the store refuses (the failover drill's takeover, at
    // about 21 ms on the drill's clock, falls inside the window) ends the
    // run with an error, not a panic.
    let faults = format!("mds-crash@5ms,{}", all_osds("10ms..60ms"));
    let cfg = BenchConfig {
        clients: 2,
        files: 200,
        faults: Some(faults),
        mdlog_segment: Some(1),
        mdlog_dispatch: Some(1),
        ..BenchConfig::default()
    };
    let err = mdbench::run(&cfg).unwrap_err();
    assert!(err.contains("failover drill: EIO: mdlog replay"), "{err}");
}

/// The `mds-crash@5ms` drill probes the cluster on a 1 ms grid, so the
/// recorded timeline must show the whole transient, bounded: the crash is
/// detected within the 15 ms beacon grace plus two 4 ms beacon intervals,
/// probes time out in the detection gap and none is served there, the
/// standby serves probes again after its takeover, nothing was dropped,
/// and every default SLO is met. (CI's `timeline` job reruns the same
/// drill from the command line and `cmp`s the two files.)
#[test]
fn failover_drill_timeline_shows_a_bounded_transient() {
    let _guard = obs_lock().lock().unwrap();

    let path = std::env::temp_dir()
        .join(format!(
            "cudele_obs_{}_drill.timeline.json",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned();
    let cfg = BenchConfig {
        clients: 2,
        files: 2000,
        faults: Some("mds-crash@5ms".to_string()),
        mdlog_segment: Some(8),
        mdlog_dispatch: Some(2),
        sinks: ObsSinks {
            timeline_out: Some(path.clone()),
            ..ObsSinks::default()
        },
        ..BenchConfig::default()
    };
    mdbench::run(&cfg).unwrap();
    let body = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    // `parse` refuses any schema tag but `cudele-timeline/v1`.
    let snap = cudele_obs::timeline::TimelineSnapshot::parse(&body).unwrap();
    assert_eq!((snap.windows_dropped, snap.annotations_dropped), (0, 0));

    let at = |name: &str| {
        let a = snap.annotations.iter().find(|a| a.name == name);
        a.unwrap_or_else(|| panic!("no {name} annotation")).at.0
    };
    let crash = at("mds.crash");
    let detected = at("mds.failover.detected");
    let takeover = at("mds.failover.takeover");
    assert!(
        crash < detected && detected <= crash + 23_000_000,
        "crash {crash} detected {detected}"
    );
    assert!(
        takeover >= detected,
        "detected {detected} takeover {takeover}"
    );

    let points = |name: &str| {
        &snap
            .series(name)
            .unwrap_or_else(|| panic!("no {name}"))
            .points
    };
    let in_gap = |t_ns: u64| crash <= t_ns && t_ns < detected;
    assert!(
        points("drill.probe.timeouts")
            .iter()
            .any(|p| in_gap(p.t_ns)),
        "no timeout spike in the detection gap"
    );
    let ok = points("drill.probe.ok");
    assert!(
        !ok.iter().any(|p| in_gap(p.t_ns)),
        "a probe was served by the dead primary"
    );
    assert!(
        ok.iter().any(|p| p.window >= takeover / snap.window_ns),
        "no served probe after the takeover"
    );
    assert!(!snap.slos.is_empty());
    for slo in &snap.slos {
        assert!(slo.met, "SLO missed: {}", slo.spec);
    }
}

/// `mdbench --clients 2 --files 400 --policy posix --checkpoint-interval 64
/// --mdlog-segment 8 --mdlog-dispatch 2 --faults seed=11,bitflip_ppm=30000`:
/// a silent bit flip lands in a flushed journal stripe while checkpointing
/// is on. Checkpoints are an optimisation, so the compactor pass that next
/// reads the journal must cover the clean prefix and carry on — not fail
/// every later create with `EIO: checkpoint (… failed CRC)`, which is what
/// the strict tail read did (the run panicked at the first such create).
#[test]
fn bitflip_under_checkpointing_does_not_fail_foreground_ops() {
    let _guard = obs_lock().lock().unwrap();

    let (metrics_path, _) = snapshot_paths("bitflip_ckpt");
    let cfg = BenchConfig {
        clients: 2,
        files: 400,
        policy: "posix".to_string(),
        checkpoint_interval: Some(64),
        mdlog_segment: Some(8),
        mdlog_dispatch: Some(2),
        faults: Some("seed=11,bitflip_ppm=30000".to_string()),
        sinks: ObsSinks {
            metrics_out: Some(metrics_path.clone()),
            ..ObsSinks::default()
        },
        ..BenchConfig::default()
    };
    let out = mdbench::run(&cfg).unwrap();
    let metrics = std::fs::read_to_string(&metrics_path).unwrap();
    let _ = std::fs::remove_file(&metrics_path);
    assert!(out.rendered.contains("\"finished\": 2"), "{}", out.rendered);
    let counter = |name: &str| counter_in(&metrics, name);
    assert!(counter("faults.injected.bitflips") > 0, "plan never fired");
    assert!(counter("mds.ckpt.checkpoints") > 0);
    assert!(
        counter("mds.ckpt.journal_damage") > 0,
        "the damaged passes are counted"
    );
}
