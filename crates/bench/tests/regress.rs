//! Regression-pipeline acceptance tests: the snapshot is byte-identical
//! across same-seed runs, the generic diff names every kind of difference
//! by its JSON path, and an invalid run is refused before it can be
//! compared or installed.
//!
//! `regress::run` installs/clears the session registry, so the tests that
//! call it serialize on a local lock (they live in their own test binary,
//! so they cannot interleave with `tests/obs.rs`).

use std::sync::{Mutex, OnceLock};

use cudele_bench::regress::{self, RegressConfig};
use cudele_obs::json::{self, Value};

/// The committed baseline: a real, valid snapshot to edit in the gate tests.
const BASELINE: &str = include_str!("../../../BENCH_baseline.json");

fn lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn tmp(label: &str) -> String {
    std::env::temp_dir()
        .join(format!("cudele_regress_{}_{label}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn run_once(label: &str) -> (String, Vec<String>) {
    let out = tmp(&format!("{label}_out.json"));
    let baseline = tmp(&format!("{label}_baseline.json"));
    let cfg = RegressConfig {
        out: out.clone(),
        baseline: baseline.clone(),
        write_baseline: true,
        ..RegressConfig::default()
    };
    let outcome = regress::run(&cfg).unwrap();
    let written = std::fs::read_to_string(&out).unwrap();
    assert_eq!(written, outcome.json, "{label}: file differs from outcome");
    let installed = std::fs::read_to_string(&baseline).unwrap();
    assert_eq!(installed, outcome.json, "{label}: baseline differs");
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(&baseline);
    (outcome.json, outcome.violations)
}

/// `snapshot` with the number at `"section": {... "key": N` replaced.
fn with_leaf(snapshot: &str, section: &str, key: &str, value: u64) -> String {
    let section_at = snapshot.find(&format!("\"{section}\": {{")).unwrap();
    let needle = format!("\"{key}\": ");
    let at = section_at + snapshot[section_at..].find(&needle).unwrap() + needle.len();
    let end = at + snapshot[at..].find([',', '\n', '}']).unwrap();
    format!("{}{value}{}", &snapshot[..at], &snapshot[end..])
}

/// The committed baseline with one more replayed event, and the one line
/// that difference must produce.
fn drifted_replay() -> (String, String) {
    let replay = json::parse(BASELINE)
        .unwrap()
        .get("recovery")
        .and_then(|r| r.get("replay_events"))
        .and_then(Value::as_u64)
        .unwrap();
    (
        with_leaf(BASELINE, "recovery", "replay_events", replay + 1),
        format!(
            "recovery.replay_events: {} vs baseline {replay}",
            replay + 1
        ),
    )
}

#[test]
fn same_seed_snapshots_are_byte_identical_and_self_consistent() {
    let _guard = lock().lock().unwrap();

    let (a, va) = run_once("a");
    let (b, vb) = run_once("b");
    assert_eq!(a, b, "same-seed BENCH_cudele.json differs");
    assert!(va.is_empty() && vb.is_empty());

    // Schema-versioned, parseable, and covers all three sections.
    let v = json::parse(&a).unwrap();
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some(regress::SCHEMA)
    );
    let mechs = v.get("mechanisms").and_then(Value::as_arr).unwrap();
    assert_eq!(mechs.len(), 7, "expected all seven Figure-4 mechanisms");
    assert_eq!(
        v.get("mdbench").and_then(Value::as_arr).map(<[Value]>::len),
        Some(3)
    );
    assert!(v.get("fig5_slowdowns").is_some());

    // The speculative column closes at least half the RPC↔append gap.
    let gap_closed = v
        .get("speculation")
        .and_then(|s| s.get("gap_closed"))
        .and_then(Value::as_f64)
        .unwrap();
    assert!(gap_closed >= 0.5, "speculation.gap_closed = {gap_closed}");

    assert!(regress::compare(&a, &a).unwrap().is_empty());
    assert!(regress::invalid_run(&a).unwrap().is_empty());
}

/// The comparator is one generic tree walk: every kind of difference is
/// reported once, by JSON path, and nothing else is.
#[test]
fn diff_names_each_difference_by_its_json_path() {
    const BASE: &str = r#"{"schema": "s/v5", "mdbench": [{"policy": "posix", "latency_ns": {"p50": 1.5}}, {"policy": "batchfs", "latency_ns": {"p50": 2}}], "recovery": {"files": 600, "replay_events": 93}}"#;
    let cases: [(&str, String, &[&str]); 8] = [
        ("identical bytes", BASE.to_string(), &[]),
        (
            "one changed leaf",
            BASE.replace("93", "94"),
            &["recovery.replay_events: 94 vs baseline 93"],
        ),
        (
            "a leaf inside an array element",
            BASE.replace("1.5", "1.75"),
            &["mdbench[0].latency_ns.p50: 1.75 vs baseline 1.5"],
        ),
        (
            "a missing key",
            BASE.replace("\"files\": 600, ", ""),
            &["recovery.files: missing (baseline 600)"],
        ),
        (
            "an extra key",
            BASE.replace("\"files\"", "\"tail\": [1, 2], \"files\""),
            &["recovery.tail: [2 elements] not in baseline"],
        ),
        (
            "a shorter array",
            BASE.replace(r#", {"policy": "batchfs", "latency_ns": {"p50": 2}}"#, ""),
            &["mdbench: 1 elements vs baseline 2"],
        ),
        (
            "a changed schema tag",
            BASE.replace("s/v5", "s/v0"),
            &["schema: \"s/v0\" vs baseline \"s/v5\""],
        ),
        (
            "the same tree spelled differently",
            BASE.replace(": ", ":"),
            &["bytes differ from the baseline though every JSON path matches"],
        ),
    ];
    for (label, current, expected) in cases {
        assert_eq!(
            regress::compare(&current, BASE).unwrap(),
            expected,
            "{label}"
        );
    }
    assert!(regress::compare("not json", BASE).is_err());
    assert!(regress::compare(BASE, "{\"schema\": ").is_err());

    // On the real schema: one drifted replay event is exactly one line.
    let (drifted, line) = drifted_replay();
    assert_eq!(regress::compare(&drifted, BASELINE).unwrap(), [line]);
}

/// The run-validity gate judges the measured snapshot alone and comes
/// before everything else: an invalid run is neither compared nor — even
/// under `--write-baseline` — installed.
#[test]
fn invalid_runs_are_refused_before_compare_or_write_baseline() {
    for path in regress::MUST_BE_ZERO {
        let (section, key) = path.split_once('.').unwrap();
        let bad = with_leaf(BASELINE, section, key, 1);
        assert_eq!(
            regress::invalid_run(&bad).unwrap(),
            [format!("{path}: 1 — must be 0")]
        );
        let baseline = tmp(&format!("refused_{section}_{key}.json"));
        for write_baseline in [true, false] {
            let (failures, rendered) = regress::gate(&bad, &baseline, write_baseline).unwrap();
            assert_eq!(failures, [format!("{path}: 1 — must be 0")]);
            assert!(rendered.starts_with("INVALID RUN"), "{rendered}");
            assert!(
                !std::path::Path::new(&baseline).exists(),
                "{path}: an invalid run was installed as the baseline"
            );
        }
    }
    // A snapshot without the gated section is invalid, not vacuously fine.
    assert_eq!(
        regress::invalid_run("{\"check\": {\"violations\": 0}}").unwrap(),
        [
            "speculation.violations: missing — must be 0",
            "obs.spans_dropped: missing — must be 0",
            "obs.windows_dropped: missing — must be 0",
        ]
    );
    assert!(regress::invalid_run("not json").is_err());

    // A valid snapshot installs, then compares clean; a drifted one fails
    // with the one path that moved.
    let baseline = tmp("installed.json");
    let (failures, _) = regress::gate(BASELINE, &baseline, true).unwrap();
    assert!(failures.is_empty());
    assert_eq!(std::fs::read_to_string(&baseline).unwrap(), BASELINE);
    let (failures, rendered) = regress::gate(BASELINE, &baseline, false).unwrap();
    assert!(failures.is_empty(), "{rendered}");
    let (drifted, line) = drifted_replay();
    let (failures, rendered) = regress::gate(&drifted, &baseline, false).unwrap();
    assert_eq!(failures, [line]);
    assert!(
        rendered.starts_with("REGRESSION: 1 difference(s)"),
        "{rendered}"
    );
    let _ = std::fs::remove_file(&baseline);
}

#[test]
fn traced_run_exports_trace_and_folded_stacks() {
    let _guard = lock().lock().unwrap();

    let out = tmp("exports_out.json");
    let baseline = tmp("exports_baseline.json");
    let trace = tmp("exports_trace.json");
    let folded = tmp("exports.folded");
    let cfg = RegressConfig {
        out: out.clone(),
        baseline: baseline.clone(),
        write_baseline: true,
        trace_out: Some(trace.clone()),
        folded_out: Some(folded.clone()),
    };
    regress::run(&cfg).unwrap();

    let trace_body = std::fs::read_to_string(&trace).unwrap();
    json::validate(&trace_body).unwrap();
    for mech in ["rpcs", "stream", "volatile_apply", "nonvolatile_apply"] {
        assert!(trace_body.contains(mech), "{mech} missing from trace");
    }
    let folded_body = std::fs::read_to_string(&folded).unwrap();
    assert!(
        folded_body.lines().any(|l| l.contains(';')),
        "folded stacks have no nested frames:\n{folded_body}"
    );
    for p in [&out, &baseline, &trace, &folded] {
        let _ = std::fs::remove_file(p);
    }
}
