//! Determinism gate for the parallel sweep engine: every harness output —
//! BENCH snapshot JSON, metrics snapshots, chrome traces, folded stacks,
//! rendered tables — must be byte-identical at any `--threads` value.
//! (The schedule-level test, which forces workers to *complete* in a
//! permuted order and checks the results still come back in input order,
//! lives in `cudele-par`'s unit tests.)

use cudele_bench::mdbench::{self, BenchConfig};
use cudele_bench::obs_out::ObsSinks;
use cudele_bench::regress;
use cudele_obs::json::{self, Value};

#[test]
fn regress_measure_is_byte_identical_across_thread_counts() {
    let serial = regress::measure(1).unwrap();
    let parallel = regress::measure(4).unwrap();
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "BENCH snapshot differs at --threads 4"
    );
    assert_eq!(
        serial.trace_json, parallel.trace_json,
        "chrome trace differs at --threads 4"
    );
    assert_eq!(
        serial.folded, parallel.folded,
        "folded stacks differ at --threads 4"
    );

    // The recovery drill runs as its own task, so its row rides the same
    // contract — and the row itself must show bounded replay: a manifest
    // was published and the replayed journal tail is a small fraction of
    // the workload, the bulk coming out of the manifest's image + deltas.
    let v = json::parse(&serial.to_json()).unwrap();
    let rec = v.get("recovery").expect("snapshot has a recovery section");
    let field = |key: &str| {
        rec.get(key)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("recovery.{key} missing"))
    };
    let files = field("files");
    let replay = field("replay_events");
    let materialized = field("checkpoint_events");
    assert!(field("manifest_epoch") > 0, "no manifest was published");
    assert!(field("takeover_ns") > 0);
    assert!(
        replay < files / 2,
        "replayed {replay} of a {files}-create workload — checkpoints idle?"
    );
    assert!(materialized > replay, "manifest covered less than the tail");
}

#[test]
fn mdbench_sweep_is_byte_identical_across_thread_counts() {
    let dir = std::env::temp_dir();
    let run_at = |threads: usize, tag: &str| {
        let metrics = dir.join(format!("cudele-par-test-{tag}.metrics.json"));
        let trace = dir.join(format!("cudele-par-test-{tag}.trace.json"));
        let timeline = dir.join(format!("cudele-par-test-{tag}.timeline.json"));
        let cfg = BenchConfig {
            clients: 2,
            files: 200,
            policy: "posix,batchfs,deltafs".to_string(),
            sinks: ObsSinks {
                metrics_out: Some(metrics.to_string_lossy().into_owned()),
                trace_out: Some(trace.to_string_lossy().into_owned()),
                timeline_out: Some(timeline.to_string_lossy().into_owned()),
                ..ObsSinks::default()
            },
            threads,
            ..BenchConfig::default()
        };
        let outcomes = mdbench::run_sweep(&cfg).unwrap();
        let rendered: Vec<String> = outcomes.iter().map(|o| o.rendered.clone()).collect();
        let ends: Vec<_> = outcomes
            .iter()
            .map(|o| (o.create_end, o.merge_end))
            .collect();
        let metrics_bytes = std::fs::read_to_string(&metrics).unwrap();
        let trace_bytes = std::fs::read_to_string(&trace).unwrap();
        let timeline_bytes = std::fs::read_to_string(&timeline).unwrap();
        let _ = std::fs::remove_file(&metrics);
        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_file(&timeline);
        (rendered, ends, metrics_bytes, trace_bytes, timeline_bytes)
    };
    let (r1, e1, m1, t1, tl1) = run_at(1, "t1");
    let (r4, e4, m4, t4, tl4) = run_at(4, "t4");
    assert_eq!(r1, r4, "rendered sweep output differs at --threads 4");
    assert_eq!(e1, e4, "virtual-time results differ at --threads 4");
    assert_eq!(m1, m4, "metrics snapshot differs at --threads 4");
    assert_eq!(t1, t4, "chrome trace differs at --threads 4");
    assert_eq!(tl1, tl4, "timeline snapshot differs at --threads 4");
    // The merged timeline is a real recording: windowed series present,
    // schema stamped, SLO outcomes evaluated.
    let snap = cudele_obs::timeline::TimelineSnapshot::parse(&tl1).unwrap();
    assert!(
        snap.series.iter().any(|s| s.name == "bench.ops"),
        "no bench.ops series"
    );
    assert!(!snap.slos.is_empty(), "default SLOs were not evaluated");
}
