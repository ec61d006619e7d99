//! Determinism gate for open-loop `mdbench --arrival` runs: the same spec
//! and seed must reproduce byte-identical rendered output, metrics,
//! timelines, and consistency histories across reruns and across
//! `--threads` values. Open-loop traffic is the million-client path — if
//! its outputs wobble, every sojourn baseline becomes unverifiable.

use std::sync::{Mutex, OnceLock};

use cudele_bench::mdbench::{self, BenchConfig};
use cudele_sim::{stats, CompletionSummary, Engine, FifoServer, Nanos, Process, Step};
use cudele_workloads::open_loop::ArrivalSpec;

/// `mdbench::run` installs a process-global session registry, so tests in
/// this binary must not interleave (same convention as `tests/obs.rs`).
fn run_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

const SPEC: &str = "poisson:rate=4000,zipf=1.1,dirs=4,tenants=2,seed=7";

fn run_open(policy: &str, threads: usize, tag: &str) -> (String, String, String, String) {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let metrics = dir.join(format!("cudele-ol-{pid}-{tag}.metrics.json"));
    let timeline = dir.join(format!("cudele-ol-{pid}-{tag}.timeline.json"));
    let history = dir.join(format!("cudele-ol-{pid}-{tag}.history.jsonl"));
    let cfg = BenchConfig {
        clients: 300,
        files: 1,
        arrival: Some(SPEC.to_string()),
        policy: policy.to_string(),
        metrics_out: Some(metrics.to_string_lossy().into_owned()),
        timeline_out: Some(timeline.to_string_lossy().into_owned()),
        history_out: Some(history.to_string_lossy().into_owned()),
        threads,
        ..BenchConfig::default()
    };
    let out = mdbench::run(&cfg).unwrap();
    let metrics_bytes = std::fs::read_to_string(&metrics).unwrap();
    let timeline_bytes = std::fs::read_to_string(&timeline).unwrap();
    let history_bytes = std::fs::read_to_string(&history).unwrap();
    let _ = std::fs::remove_file(&metrics);
    let _ = std::fs::remove_file(&timeline);
    let _ = std::fs::remove_file(&history);
    (out.rendered, metrics_bytes, timeline_bytes, history_bytes)
}

#[test]
fn open_loop_runs_are_byte_identical_across_reruns_and_threads() {
    let _guard = run_lock().lock().unwrap();
    for policy in ["posix", "batchfs"] {
        let (r1, m1, tl1, h1) = run_open(policy, 1, "a");
        let (r2, m2, tl2, h2) = run_open(policy, 1, "b");
        assert_eq!(r1, r2, "{policy}: rendered output differs across reruns");
        assert_eq!(m1, m2, "{policy}: metrics differ across reruns");
        assert_eq!(tl1, tl2, "{policy}: timeline differs across reruns");
        assert_eq!(h1, h2, "{policy}: history differs across reruns");
        let (r4, m4, tl4, h4) = run_open(policy, 4, "t4");
        assert_eq!(r1, r4, "{policy}: rendered output differs at --threads 4");
        assert_eq!(m1, m4, "{policy}: metrics differ at --threads 4");
        assert_eq!(tl1, tl4, "{policy}: timeline differs at --threads 4");
        assert_eq!(h1, h4, "{policy}: history differs at --threads 4");

        // The run is a real open-loop recording, not an empty shell.
        assert!(r1.contains("open-loop"), "{policy}: header missing spec");
        assert!(r1.contains("sojourn"), "{policy}: no sojourn line");
        let snap = cudele_obs::timeline::TimelineSnapshot::parse(&tl1).unwrap();
        assert!(
            snap.series.iter().any(|s| s.name == "bench.sojourn.ns"),
            "{policy}: no sojourn series in the timeline"
        );
        assert!(!h1.is_empty(), "{policy}: empty history");
    }
}

#[test]
fn rejects_malformed_arrival_spec() {
    let _guard = run_lock().lock().unwrap();
    let cfg = BenchConfig {
        clients: 10,
        files: 1,
        arrival: Some("poisson:rate=not-a-number".to_string()),
        policy: "posix".to_string(),
        ..BenchConfig::default()
    };
    assert!(mdbench::run(&cfg).is_err());
}

/// One open-loop arrival of the million-client smoke: ~2 us of directory
/// work, queued FIFO behind every other client on the same hot directory.
struct SmokeClient {
    dir: u32,
    served: bool,
}

impl Process<Vec<FifoServer>> for SmokeClient {
    fn step(&mut self, now: Nanos, dirs: &mut Vec<FifoServer>) -> Step {
        if self.served {
            return Step::Done;
        }
        self.served = true;
        Step::ResumeAt(dirs[self.dir as usize].serve(now, Nanos(2_000)))
    }
}

/// The scale the arena engine exists for: a million zipf-1.1 Poisson
/// arrivals over 1 024 directory queues all finish, in two engine events
/// each, at the same virtual instant on a rerun — and the report is as
/// exact there as at ten clients. (The functional MDS under the same
/// arrival process is `mdbench --arrival`, above.)
#[test]
fn a_million_open_loop_clients_complete_deterministically() {
    const CLIENTS: u64 = 1_000_000;
    const DIRS: u32 = 1_024;
    let run = || {
        let spec = ArrivalSpec {
            zipf: 1.1,
            dirs: DIRS,
            ..ArrivalSpec::poisson(100_000.0)
        };
        let arrivals = spec.generate(CLIENTS as usize);
        let dirs: Vec<FifoServer> = (0..DIRS).map(|_| FifoServer::new("dir")).collect();
        let mut eng = Engine::new(dirs);
        let procs: Vec<SmokeClient> = arrivals
            .iter()
            .map(|a| SmokeClient {
                dir: a.dir,
                served: false,
            })
            .collect();
        let starts: Vec<Nanos> = arrivals.iter().map(|a| a.at).collect();
        eng.add_arena(procs, &starts);
        let (_, report) = eng.run();
        report
    };
    let first = run();
    assert_eq!(first.completions.len() as u64, CLIENTS);
    assert_eq!(first.steps, 2 * CLIENTS);
    assert!(first.slowest() > Nanos::ZERO);
    let xs: Vec<f64> = first.completions.iter().map(|c| c.0 as f64).collect();
    let s = first.completion_summary();
    assert_eq!(
        s,
        CompletionSummary {
            count: CLIENTS,
            p50: stats::p50(&xs).round() as u64,
            p95: stats::p95(&xs).round() as u64,
            p99: stats::p99(&xs).round() as u64,
            max: first.slowest().0,
        }
    );
    assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    assert_eq!(
        run().slowest(),
        first.slowest(),
        "virtual end moved on rerun"
    );
}
