//! Golden digests of the four observability artifacts, recorded at the
//! commit *before* the obs hot path was re-implemented (indexed timeline
//! windows, interned span names, pre-resolved handles). The artifacts are
//! a pure function of the simulated schedule, so any change to a drop
//! decision, a merge order, an id or a float rendering moves a digest.
//!
//! Two shapes: the benchmark's `rpc_create` (4 × 12 500 posix creates —
//! overflows both the span log and the timeline's window cap, so the
//! at-capacity paths are in the digest) and a small open-loop run (session
//! churn, sojourn series, shared hot directories).

use cudele_bench::mdbench;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs mdbench with all four `--*-out` sinks and digests each file, in
/// the order metrics, trace, timeline, history.
fn digests(label: &str, args: &[&str]) -> [u64; 4] {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = |kind: &str| {
        dir.join(format!("golden_{label}_{kind}.json"))
            .to_string_lossy()
            .into_owned()
    };
    let outs = [
        ("--metrics-out", path("metrics")),
        ("--trace-out", path("trace")),
        ("--timeline-out", path("timeline")),
        ("--history-out", path("history")),
    ];
    let mut argv = vec!["mdbench".to_string()];
    argv.extend(args.iter().map(|a| a.to_string()));
    for (flag, p) in &outs {
        argv.push(flag.to_string());
        argv.push(p.clone());
    }
    let cfg = mdbench::parse_args(&argv).expect("golden args parse");
    mdbench::run(&cfg).expect("golden run");
    outs.map(|(_, p)| {
        let bytes = std::fs::read(&p).expect("artifact written");
        let _ = std::fs::remove_file(&p);
        fnv1a(&bytes)
    })
}

#[test]
fn rpc_create_shape_artifacts_match_the_recorded_digests() {
    let got = digests(
        "rpc_create",
        &["--clients", "4", "--files", "12500", "--policy", "posix"],
    );
    assert_eq!(
        got,
        [
            // Metrics re-recorded when the mdlog trimmer was deleted
            // (0x0066…55ae before): the zero-valued `mds.mdlog.trims`
            // counter is gone. Trace and timeline re-recorded when the
            // object store began reading the server's clock
            // (0x1a6c…104a and 0x73ea…f593 before): the two
            // `rados.osd.*.write_bytes` points, and their trace counter
            // events, moved from t = 0 to the 18.9 s mdlog flush that wrote
            // them. Nothing else moved.
            0xc0e7_da92_e2d2_a804,
            0x664e_35d9_e1dd_9376,
            0x3a9a_d12d_1d6f_bdf9,
            0x6121_210c_cf3c_e7e3,
        ],
        "metrics / trace / timeline / history digests: {got:#018x?}"
    );
}

#[test]
fn open_loop_shape_artifacts_match_the_recorded_digests() {
    let got = digests(
        "open_loop",
        &[
            "--clients",
            "2000",
            "--files",
            "1",
            "--policy",
            "posix",
            "--arrival",
            "poisson:rate=5000,zipf=1.1,tenants=4,seed=7",
        ],
    );
    assert_eq!(
        got,
        [
            // Metrics re-recorded with the trimmer's counter gone
            // (0x8a8f…3f8b before).
            0x9f9d_ab58_89b7_83dd,
            0x548a_a262_e4cf_3a32,
            0x5b1a_fa64_0534_4151,
            0x2475_4a65_6cb6_bf8d,
        ],
        "metrics / trace / timeline / history digests: {got:#018x?}"
    );
}
