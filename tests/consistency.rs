//! End-to-end tests of the consistency oracle: `mdbench --history-out`
//! recording, the `cudele-bench check` replay, and the determinism of the
//! recorded histories across reruns and thread counts.

use cudele_bench::check;
use cudele_bench::mdbench::{self, BenchConfig};
use cudele_bench::obs_out::{self, ObsSinks};
use cudele_obs::history::History;

fn history_path(label: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "cudele_consistency_{}_{label}.json",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned()
}

fn bench_cfg(policy: &str, history_out: Option<String>) -> BenchConfig {
    BenchConfig {
        clients: 2,
        files: 200,
        policy: policy.to_string(),
        sinks: ObsSinks {
            history_out,
            ..ObsSinks::default()
        },
        ..BenchConfig::default()
    }
}

fn record(policy: &str, label: &str) -> (String, String) {
    let path = history_path(label);
    mdbench::run(&bench_cfg(policy, Some(path.clone()))).unwrap();
    let bytes = std::fs::read_to_string(&path).unwrap();
    (path, bytes)
}

#[test]
fn recorded_histories_verify_clean_for_both_modes() {
    let (rpc_path, rpc_bytes) = record("posix", "clean_rpc");
    let (dec_path, dec_bytes) = record("batchfs", "clean_dec");

    let rpc = History::parse(&rpc_bytes).unwrap();
    assert_eq!(rpc.mode, "rpc");
    assert!(rpc.events.len() >= 400, "rpc history too small");
    let dec = History::parse(&dec_bytes).unwrap();
    assert_eq!(dec.mode, "decoupled");
    // Each create is appended (and recorded) once; the merges and the
    // post-merge probe observations land in the same history.
    assert!(dec.events.len() >= 400 + 2, "decoupled history too small");

    let out = check::run_files(&[rpc_path.clone(), dec_path.clone()]).unwrap();
    assert_eq!(out.violations, 0, "{}", out.rendered);
    assert!(out.rendered.contains("mode=rpc"), "{}", out.rendered);
    assert!(out.rendered.contains("mode=decoupled"), "{}", out.rendered);
    assert!(out.rendered.contains("linearizability"), "{}", out.rendered);
    assert!(
        out.rendered.contains("eventual-visibility"),
        "{}",
        out.rendered
    );

    let _ = std::fs::remove_file(&rpc_path);
    let _ = std::fs::remove_file(&dec_path);
}

#[test]
fn failover_run_histories_verify_clean() {
    let path = history_path("failover");
    let mut cfg = bench_cfg("batchfs", Some(path.clone()));
    cfg.faults = Some("mds-crash@5ms".to_string());
    cfg.mdlog_segment = Some(8);
    cfg.mdlog_dispatch = Some(2);
    let out = mdbench::run(&cfg).unwrap();
    assert!(out.rendered.contains("failover #1"), "{}", out.rendered);
    assert!(out.rendered.contains("fault obs"), "{}", out.rendered);
    assert!(
        !out.rendered.contains("mds.session.reconnects=0"),
        "drill reconnected no sessions: {}",
        out.rendered
    );

    let verdict = check::run_files(std::slice::from_ref(&path)).unwrap();
    assert_eq!(verdict.violations, 0, "{}", verdict.rendered);
    let _ = std::fs::remove_file(&path);
}

/// Checkpoints change *how* the standby recovers (manifest + tail instead
/// of full replay) but must not change anything a client can observe: the
/// recorded history of a checkpointed failover run verifies clean against
/// the oracle and is byte-identical across reruns.
#[test]
fn checkpointed_failover_histories_verify_clean_and_deterministic() {
    let run = |label: &str| {
        let path = history_path(label);
        // posix journals during the create phase itself, so the 5ms crash
        // lands on a journal the checkpointer has already covered (batchfs
        // only fills the mdlog at merge time, after this crash point).
        let mut cfg = bench_cfg("posix", Some(path.clone()));
        cfg.faults = Some("mds-crash@5ms".to_string());
        cfg.mdlog_segment = Some(8);
        cfg.mdlog_dispatch = Some(2);
        cfg.checkpoint_interval = Some(16);
        let out = mdbench::run(&cfg).unwrap();
        let bytes = std::fs::read_to_string(&path).unwrap();
        (out.rendered, path, bytes)
    };

    let (rendered, path_a, bytes) = run("ckpt_failover_a");
    assert!(
        rendered.contains("from manifest m"),
        "takeover did not use the manifest: {rendered}"
    );
    assert!(rendered.contains("ckpt obs"), "{rendered}");

    let out = check::run_files(std::slice::from_ref(&path_a)).unwrap();
    assert_eq!(out.violations, 0, "{}", out.rendered);
    let _ = std::fs::remove_file(&path_a);

    let (_, path_b, again) = run("ckpt_failover_b");
    assert_eq!(
        bytes, again,
        "checkpointed failover history differs across reruns"
    );
    let _ = std::fs::remove_file(&path_b);
}

#[test]
fn same_seed_reruns_record_identical_history_bytes() {
    for policy in ["posix", "batchfs"] {
        let (pa, a) = record(policy, &format!("rerun_a_{policy}"));
        let (pb, b) = record(policy, &format!("rerun_b_{policy}"));
        assert_eq!(a, b, "{policy}: history bytes differ across reruns");
        let _ = std::fs::remove_file(&pa);
        let _ = std::fs::remove_file(&pb);
    }
}

/// The sweep engine merges per-task histories into the session registry in
/// input order, so recording is byte-identical no matter how many worker
/// threads carried the runs — the same contract metrics and traces keep.
#[test]
fn history_recording_is_byte_identical_across_thread_counts() {
    const POLICIES: [&str; 3] = ["posix", "batchfs", "deltafs"];
    let sweep = |threads: usize| {
        let reg = obs_out::install_session_with_capacity(None);
        obs_out::par_tasks_merged(threads, POLICIES.len(), |i| {
            mdbench::run(&bench_cfg(POLICIES[i], None)).unwrap();
        });
        let json = reg.history_json("sweep");
        obs_out::clear_session();
        json
    };
    let serial = sweep(1);
    let parallel = sweep(4);
    assert!(
        History::parse(&serial).unwrap().events.len() > 1000,
        "sweep recorded too little to be meaningful"
    );
    assert_eq!(
        serial, parallel,
        "history bytes differ at --threads 4 vs --threads 1"
    );
}

#[test]
fn sweep_rejects_history_out() {
    let mut cfg = bench_cfg("posix,batchfs", Some(history_path("sweep_reject")));
    cfg.threads = 2;
    let err = mdbench::run_sweep(&cfg).unwrap_err();
    assert!(err.contains("single policy"), "{err}");
}

/// A deliberately corrupted history file is rejected with a concrete
/// witness naming the violating event.
#[test]
fn corrupted_history_file_is_rejected_with_witness() {
    let (path, bytes) = record("posix", "mutate");
    let mut h = History::parse(&bytes).unwrap();
    // Append a stale read of a name whose create acked earlier: no
    // linearization can order the miss before the create.
    let create = h
        .events
        .iter()
        .find(|e| {
            matches!(e.op, cudele_obs::history::HistoryOp::Create { .. })
                && e.result == cudele_obs::history::HistoryResult::Ok
        })
        .cloned()
        .expect("history has a successful create");
    let (dir, name) = match &create.op {
        cudele_obs::history::HistoryOp::Create { dir, name } => (*dir, name.clone()),
        _ => unreachable!(),
    };
    let last_ack = h.events.iter().map(|e| e.ack).max().unwrap();
    h.events.push(cudele_obs::history::HistoryEvent {
        client: 99,
        scope: cudele_obs::history::HistoryScope::Global,
        op: cudele_obs::history::HistoryOp::Lookup {
            dir,
            name,
            found: None,
        },
        result: cudele_obs::history::HistoryResult::NoEnt,
        ino: 0,
        invoke: last_ack + cudele_sim::Nanos(1),
        ack: last_ack + cudele_sim::Nanos(2),
        epoch: create.epoch,
        trace_id: 0,
    });
    std::fs::write(&path, h.to_json()).unwrap();

    let out = check::run_files(std::slice::from_ref(&path)).unwrap();
    assert!(out.violations > 0, "{}", out.rendered);
    assert!(out.rendered.contains("verdict: FAIL"), "{}", out.rendered);
    assert!(out.rendered.contains("witness:"), "{}", out.rendered);
    assert!(
        out.rendered.contains("missed present name"),
        "{}",
        out.rendered
    );
    let _ = std::fs::remove_file(&path);
}
