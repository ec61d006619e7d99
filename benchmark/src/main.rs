//! Host-time benchmark of the real Cudele stack (client -> MDS -> journal
//! -> RADOS -> obs), driven from one thread.
//!
//! ```text
//! cudele-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! cudele-benchmark [--workload all] [--seed N] [--seconds S]
//! cudele-benchmark compare A.json B.json
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics over repeats of
//! the workload's timed region; with `--trace 1` it runs the workload
//! once more wrapped in timers and reports every per-layer metric. The
//! last line of standard output is one JSON object with the results.
//! See `README.md` beside this crate for the glossary.

mod alloc;
mod calib;
mod compare;
mod layers;
mod metrics;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{END_TO_END, PER_LAYER};
use stats::{median, quartiles};
use workloads::creates::{DecoupledMerge, OpenLoopChurn, RpcCreate};
use workloads::failover::FailoverRecover;
use workloads::mix::NamespaceMix;
use workloads::{check_shape, history_of, Outcome, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Timed repeats a run makes at least, however short `--seconds` is.
const MIN_REPEATS: usize = 3;
/// Divisor of the copy of each workload whose history is checked.
const HISTORY_SCALE: u64 = 50;
/// Where `--trace 1` and `--workload all` leave their files, relative to
/// the directory the benchmark is started from (the checkout root).
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage: cudele-benchmark --workload NAME --seed N --seconds S --trace 0|1
       cudele-benchmark [--workload all] [--seed N] [--seconds S]
       cudele-benchmark compare A.json B.json
workloads: rpc_create decoupled_merge open_loop_churn namespace_mix failover_recover";

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: "all".to_string(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} requires a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => o.workload = value.clone(),
            "--seed" => o.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    if o.workload != "all" && !workloads::NAMES.contains(&o.workload.as_str()) {
        return Err(format!("unknown workload {:?}", o.workload));
    }
    Ok(o)
}

/// One reported metric: its median over the run's repeats (or its single
/// value), with the quartiles and the sample count for the table.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    q1: f64,
    q3: f64,
    samples: usize,
}

/// What a run reports: the contract's last-line JSON, plus the spread of
/// each metric over the run's repeats for the human-readable table.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The metrics, in table order.
    metrics: Vec<Metric>,
    /// Why the run is not correct, if it is not.
    errors: Vec<String>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The same, with quartiles and sample counts, for `results.json`.
    fn to_detailed_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \
\"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    num(m.q1),
                    num(m.q3),
                    m.samples,
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn print_table(&self, workload: &str, what: &str) {
        println!("# {workload}: {what}");
        for m in &self.metrics {
            if m.samples > 1 {
                println!(
                    "{:<42} {:>16} {:<6} q1 {} q3 {} n {}",
                    m.name,
                    show(m.value),
                    m.unit,
                    show(m.q1),
                    show(m.q3),
                    m.samples
                );
            } else {
                println!("{:<42} {:>16} {}", m.name, show(m.value), m.unit);
            }
        }
        for e in &self.errors {
            println!("CHECK FAILED: {e}");
        }
    }
}

/// A JSON number with all its digits; non-finite values (a ratio over an
/// empty sample) read 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn show(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.6}")
    }
}

/// What [`reference_checks`] established.
struct Reference {
    /// The virtual-time results every repeat must reproduce.
    outcome: Outcome,
    /// Axiom violations in the 1/50-scale history.
    violations: u64,
    /// Wall time of the untraced assembled run's timed region.
    region_ns: u64,
}

/// The one-time checks every run makes before measuring: the assembled
/// run's final namespace equals the reference model, and a 1/50-scale
/// copy's recorded history satisfies the consistency axioms its mode
/// claims.
fn reference_checks<W: Workload>(seed: u64, errors: &mut Vec<String>) -> Reference {
    let mut w = W::prepare(seed, 1);
    let reference = w.assemble(false);
    if let Err(e) = check_shape(&reference.shape, w.expected()) {
        errors.push(format!("assembled run: {e}"));
    }
    if reference.outcome.failed > 0 {
        errors.push(format!(
            "assembled run: {} of {} ops failed: {}",
            reference.outcome.failed, reference.outcome.attempted, reference.outcome.fingerprint
        ));
    }
    let small = W::prepare(seed, HISTORY_SCALE).assemble(false);
    let verdict = cudele_check::check_history(&history_of(&small.obs, W::HISTORY_MODE));
    for v in &verdict.violations {
        errors.push(format!("history check at 1/{HISTORY_SCALE} scale: {v}"));
    }
    Reference {
        outcome: reference.outcome,
        violations: verdict.violations.len() as u64,
        region_ns: reference.recording.region_ns,
    }
}

/// Checks one repeat's outputs; on failure every op of the run counts as
/// failed.
fn check_repeat<W: Workload>(
    w: &W,
    out: &Outcome,
    reference: &Outcome,
    errors: &mut Vec<String>,
) -> u64 {
    let mut bad = Vec::new();
    if out.fingerprint != reference.fingerprint || out.virtual_end_ns != reference.virtual_end_ns {
        bad.push(format!(
            "virtual-time results differ from the assembled reference run: {} (end {}) vs {} \
(end {})",
            out.fingerprint, out.virtual_end_ns, reference.fingerprint, reference.virtual_end_ns
        ));
    }
    if let Err(e) = w.verify() {
        bad.push(e);
    }
    if out.failed > 0 {
        bad.push(format!("{} of {} ops failed", out.failed, out.attempted));
    }
    let failed = if bad.is_empty() { 0 } else { out.attempted };
    errors.extend(bad);
    failed.max(out.failed)
}

/// One timed repeat's measurements.
struct Sample {
    ops_per_s_norm: f64,
    ops_per_s_raw: f64,
    allocs_per_op: f64,
    alloc_bytes_per_op: f64,
    peak_live_mb: f64,
    setup_s: f64,
    calib_s: f64,
}

/// Repeats set-up + timed region until `seconds` have passed.
fn timed_repeats<W: Workload>(
    seed: u64,
    seconds: f64,
    reference: &Outcome,
    errors: &mut Vec<String>,
) -> (Vec<Sample>, u64, u64) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Warm-up: one untimed repeat lets lazy set-up (allocator arenas, page
    // faults on first touch) finish before anything is timed.
    {
        let mut w = W::prepare(seed, 1);
        let out = w.run();
        check_repeat(&w, &out, reference, errors);
    }
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPEATS || started.elapsed().as_secs_f64() < seconds {
        let c0 = calib::measure();
        alloc::reset_peak();
        let t = Instant::now();
        let mut w = W::prepare(seed, 1);
        let setup_s = t.elapsed().as_secs_f64();
        let c1 = calib::measure();
        let a0 = alloc::counts();
        let t = Instant::now();
        let out = black_box(w.run());
        let run_s = t.elapsed().as_secs_f64();
        let a1 = alloc::counts();
        let c2 = calib::measure();
        let (calls, bytes) = alloc::delta(a0, a1);
        attempted += out.attempted;
        failed += check_repeat(&w, &out, reference, errors);
        let ops = out.attempted.max(1) as f64;
        samples.push(Sample {
            ops_per_s_norm: ops / run_s * calib::slowdown(c1, c2),
            ops_per_s_raw: ops / run_s,
            allocs_per_op: calls as f64 / ops,
            alloc_bytes_per_op: bytes as f64 / ops,
            peak_live_mb: a1.peak as f64 / 1e6,
            setup_s: setup_s / calib::slowdown(c0, c1),
            calib_s: (c1 + c2) / 2.0,
        });
    }
    (samples, attempted, failed)
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end<W: Workload>(seed: u64, seconds: f64) -> RunResult {
    let mut errors = Vec::new();
    let reference = reference_checks::<W>(seed, &mut errors);
    let (samples, attempted, failed) =
        timed_repeats::<W>(seed, seconds, &reference.outcome, &mut errors);
    let col = |f: fn(&Sample) -> f64| -> (f64, f64, f64, usize) {
        let v: Vec<f64> = samples.iter().map(f).collect();
        let (q1, med, q3) = quartiles(&v);
        (med, q1, q3, v.len())
    };
    let ok = 1.0 - failed as f64 / attempted.max(1) as f64;
    let values: [(f64, f64, f64, usize); 6] = [
        col(|s| s.ops_per_s_norm),
        col(|s| s.allocs_per_op),
        col(|s| s.alloc_bytes_per_op),
        col(|s| s.peak_live_mb),
        (ok, ok, ok, 1),
        col(|s| s.setup_s),
    ];
    errors.dedup();
    // Not part of the result: the un-normalised rate and the calibration
    // reading, so a reader can see what normalisation did.
    let (raw, raw_q1, raw_q3, _) = col(|s| s.ops_per_s_raw);
    let (calib_s, ..) = col(|s| s.calib_s);
    println!(
        "# {}: raw {} ops/s (q1 {} q3 {}), calibration kernel {:.6} s (reference {} s)",
        W::NAME,
        show(raw),
        show(raw_q1),
        show(raw_q3),
        calib_s,
        calib::REFERENCE_S
    );
    RunResult {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, (value, q1, q3, samples))| Metric {
                name: m.name,
                unit: m.unit,
                value,
                q1,
                q3,
                samples,
            })
            .collect(),
        errors,
    }
}

/// `--trace 1`: one more run of the workload wrapped in timers, the
/// replay estimates, and every per-layer metric.
fn per_layer<W: Workload>(seed: u64, seconds: f64) -> RunResult {
    let mut errors = Vec::new();
    let Reference {
        outcome: reference,
        violations,
        region_ns,
    } = reference_checks::<W>(seed, &mut errors);
    // Untraced repeats for about a third of the time, for the raw rate and
    // the calibration reading the traced numbers sit beside.
    let (samples, ..) = timed_repeats::<W>(seed, seconds / 3.0, &reference, &mut errors);

    let mut w = W::prepare(seed, 1);
    // The assembly without and with the wrappers, alternating so machine
    // drift hits both alike: tracing overhead is the ratio of the medians,
    // and the per-layer numbers come from the median traced run.
    let mut untraced_ns = vec![region_ns as f64];
    let mut traced_runs = Vec::new();
    for _ in 0..3 {
        traced_runs.push(w.assemble(true));
        untraced_ns.push(w.assemble(false).recording.region_ns as f64);
    }
    let untraced_ns = median(&untraced_ns);
    let traced_ns = median(
        &traced_runs
            .iter()
            .map(|t| t.recording.region_ns as f64)
            .collect::<Vec<_>>(),
    );
    traced_runs.sort_by_key(|t| t.recording.region_ns);
    let traced = traced_runs.swap_remove(1);
    drop(traced_runs);
    if traced.outcome.fingerprint != reference.fingerprint
        || traced.outcome.virtual_end_ns != reference.virtual_end_ns
    {
        errors.push(format!(
            "the traced run is not the same program: {} vs {}",
            traced.outcome.fingerprint, reference.fingerprint
        ));
    }
    if let Err(e) = check_shape(&traced.shape, w.expected()) {
        errors.push(format!("traced run: {e}"));
    }
    let rec = &traced.recording;
    let own = rec.self_by_name();
    let get = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
    let total = rec.total() as f64;
    if own.values().sum::<u64>() != rec.total() {
        errors.push("in-situ self times do not sum to run.total_ns".to_string());
    }

    let mut m: BTreeMap<&'static str, f64> = layers::replay(&traced.script);
    m.extend(traced.extra.iter().map(|(k, v)| (*k, *v)));

    // The engine and its steps.
    let steps = rec.durations(trace::STEP);
    let mut sorted = steps.clone();
    sorted.sort_unstable();
    m.insert("sim.engine.self_ns", get(trace::ENGINE));
    m.insert("sim.engine.events", traced.engine_events as f64);
    m.insert(
        "sim.engine.ns_per_event",
        get(trace::ENGINE) / (traced.engine_events.max(1)) as f64,
    );
    m.insert("step.count", steps.len() as f64);
    m.insert("step.self_ns", get(trace::STEP));
    if sorted.is_empty() {
        for k in [
            "step.ns_p50",
            "step.ns_p999",
            "step.ns_max",
            "step.growth_ratio",
        ] {
            m.insert(k, 0.0);
        }
    } else {
        m.insert("step.ns_p50", sorted[(sorted.len() - 1) / 2] as f64);
        // p99.9, or the highest percentile with ten samples beyond it.
        m.insert("step.ns_p999", stats::tail_percentile(&sorted).1 as f64);
        m.insert("step.ns_max", sorted[sorted.len() - 1] as f64);
        let q = (steps.len() / 4).max(1);
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        m.insert(
            "step.growth_ratio",
            mean(&steps[steps.len() - q..]) / mean(&steps[..q]).max(1.0),
        );
    }

    // The object store.
    let ops = traced.outcome.attempted.max(1) as f64;
    m.insert("rados.store.calls", rec.io.calls as f64);
    m.insert("rados.store.busy_ns", get(trace::STORE));
    m.insert(
        "rados.store.bytes_written_per_op",
        rec.io.bytes_written as f64 / ops,
    );
    m.insert(
        "rados.store.bytes_read_per_op",
        rec.io.bytes_read as f64 / ops,
    );
    // A flush is a step that reached the store.
    let flushing_steps: std::collections::BTreeSet<u32> = rec
        .spans
        .iter()
        .filter(|s| {
            s.name == trace::STORE
                && s.parent != trace::NO_PARENT
                && rec.spans[s.parent as usize].name == trace::STEP
        })
        .map(|s| s.parent)
        .collect();
    m.insert("mds.mdlog.flushes", flushing_steps.len() as f64);
    m.insert("mds.mdlog.segments", traced.mdlog_segments as f64);
    m.insert("mds.server.rpcs", traced.server_rpcs as f64);
    m.insert("mds.server.errors", traced.outcome.failed as f64);
    m.insert("client.rpc.rpcs_per_op", traced.server_rpcs as f64 / ops);
    for k in [
        "mds.checkpoint.count",
        "mds.checkpoint.publish_ns",
        "mds.checkpoint.bytes_written",
        "mds.checkpoint.stall_ns_max",
        "mds.failover.full_replay_ns_per_event",
        "mds.failover.manifest_recover_ns",
        "mds.failover.replayed_events",
        "mds.failover.checkpoint_events",
    ] {
        m.entry(k).or_insert(0.0);
    }

    // What the run's own telemetry kept and dropped, and rendering it.
    m.insert(
        "obs.registry.spans_dropped",
        traced.obs.spans_dropped() as f64,
    );
    m.insert(
        "obs.timeline.windows_dropped",
        traced.obs.timeline().dropped() as f64,
    );
    m.insert("obs.history.events", traced.obs.history_count() as f64);
    let t = Instant::now();
    black_box(traced.obs.metrics_json());
    black_box(traced.obs.history_json(W::HISTORY_MODE));
    m.insert("bench.render.ns", t.elapsed().as_nanos() as f64);
    m.insert("workloads.generate_ns", w.generate_ns() as f64);

    // Model counts.
    m.insert("sim.virtual_end_ns", traced.outcome.virtual_end_ns as f64);
    m.insert("sim.sojourn_p99_ns", traced.sojourn_p99_ns as f64);
    m.insert("mds.store.inodes_final", traced.inodes_final as f64);
    m.insert("check.violations", violations as f64);

    // Bookkeeping: how much of the run the layers account for.
    let recovered = m["mds.failover.replayed_events"] + m["mds.failover.checkpoint_events"];
    let decoded = if recovered > 0.0 {
        2.0 * traced.script.events.len() as f64 + m["mds.failover.checkpoint_events"]
    } else {
        0.0
    };
    let replayed = layers::replayed_ns(&traced.script, &m, decoded as u64, recovered as u64);
    let in_situ =
        get(trace::ENGINE) + get(trace::STORE) + get("world.build") + get("workloads.generate");
    m.insert("run.total_ns", total);
    m.insert(
        "e2e.attributed_share",
        (in_situ + replayed) / total.max(1.0),
    );
    m.insert(
        "e2e.ops_per_s_raw",
        median(&samples.iter().map(|s| s.ops_per_s_raw).collect::<Vec<_>>()),
    );
    m.insert(
        "e2e.calib_s",
        median(&samples.iter().map(|s| s.calib_s).collect::<Vec<_>>()),
    );
    m.insert(
        "trace.overhead_share",
        (traced_ns - untraced_ns) / untraced_ns,
    );

    if let Err(e) = write_out(&format!("trace_{}.json", W::NAME), &rec.to_json()) {
        errors.push(format!("writing the trace: {e}"));
    }
    errors.dedup();
    RunResult {
        correct: errors.is_empty(),
        attempted: traced.outcome.attempted,
        failed: if errors.is_empty() {
            traced.outcome.failed
        } else {
            traced.outcome.attempted
        },
        metrics: PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                let v = *m
                    .get(name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was not computed"));
                Metric {
                    name,
                    unit,
                    value: v,
                    q1: v,
                    q3: v,
                    samples: 1,
                }
            })
            .collect(),
        errors,
    }
}

/// The output directory: `benchmark/out` from the checkout root, `out`
/// when started inside the crate (as `cargo test` does).
fn out_dir() -> &'static str {
    if std::path::Path::new("benchmark").is_dir() {
        OUT_DIR
    } else {
        "out"
    }
}

fn write_out(file: &str, body: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(format!("{}/{file}", out_dir()), body)
}

fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool) -> RunResult {
    macro_rules! go {
        ($w:ty) => {
            if trace {
                per_layer::<$w>(seed, seconds)
            } else {
                end_to_end::<$w>(seed, seconds)
            }
        };
    }
    match workload {
        "rpc_create" => go!(RpcCreate),
        "decoupled_merge" => go!(DecoupledMerge),
        "open_loop_churn" => go!(OpenLoopChurn),
        "namespace_mix" => go!(NamespaceMix),
        "failover_recover" => go!(FailoverRecover),
        other => unreachable!("workload {other:?} passed validation"),
    }
}

/// `nproc` and the CPU model, for `results.json`.
fn machine_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"calib_reference_s\": {}}}",
        cudele_obs::escape_json(&cpu),
        calib::REFERENCE_S
    )
}

/// `--workload all`: every workload, untraced then traced; one table each
/// and `results.json`.
fn run_all(seed: u64, seconds: f64) -> bool {
    let mut ok = true;
    let mut entries = Vec::new();
    for name in workloads::NAMES {
        let e2e = run_one(name, seed, seconds, false);
        e2e.print_table(name, "end to end");
        let layers = run_one(name, seed, seconds, true);
        layers.print_table(name, "per layer");
        ok &= e2e.correct && layers.correct;
        entries.push(format!(
            "\"{name}\": {{\"end_to_end\": {}, \"per_layer\": {}}}",
            e2e.to_detailed_json(),
            layers.to_detailed_json()
        ));
    }
    let body = format!(
        "{{\"schema\": \"cudele-benchmark-results/v1\", \"seed\": {seed}, \"seconds\": {}, \
\"machine\": {}, \"workloads\": {{\n{}\n}}}}\n",
        num(seconds),
        machine_json(),
        entries.join(",\n")
    );
    match write_out("results.json", &body) {
        Ok(()) => println!("results written to {OUT_DIR}/results.json"),
        Err(e) => {
            eprintln!("writing results.json: {e}");
            ok = false;
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match (args.get(1), args.get(2), args.len()) {
            (Some(a), Some(b), 3) => compare::main(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.workload == "all" {
        return if run_all(opts.seed, opts.seconds) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let result = run_one(&opts.workload, opts.seed, opts.seconds, opts.trace);
    let what = if opts.trace {
        "per layer"
    } else {
        "end to end"
    };
    result.print_table(&opts.workload, what);
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_contract_arguments() {
        let o = parse_opts(&argv(
            "--workload rpc_create --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("rpc_create", 7, 3.0, true)
        );
        assert_eq!(parse_opts(&[]).unwrap().workload, "all");
        assert!(parse_opts(&argv("--workload nope")).is_err());
        assert!(parse_opts(&argv("--trace 2")).is_err());
        assert!(parse_opts(&argv("--seconds 0")).is_err());
        assert!(parse_opts(&argv("--seed")).is_err());
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let r = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 0.25,
                    q1: 0.2,
                    q3: 0.3,
                    samples: 5,
                },
                Metric {
                    name: "x",
                    unit: "1/s",
                    value: f64::NAN,
                    q1: 0.0,
                    q3: 0.0,
                    samples: 1,
                },
            ],
            errors: Vec::new(),
        };
        let doc = cudele_obs::json::parse(&r.to_json()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        // A non-finite value never reaches the output.
        let x = doc.get("metrics").unwrap().get("x").unwrap();
        assert_eq!(x.get("value").unwrap().as_f64(), Some(0.0));
        cudele_obs::json::parse(&r.to_detailed_json()).unwrap();
    }

    /// The wrappers must not change the program: a traced assembly, a
    /// plain assembly and the workload's own run agree on every
    /// virtual-time result and on the final namespace.
    fn wrappers_are_transparent<W: Workload>() {
        let mut w = W::prepare(5, HISTORY_SCALE);
        let plain = w.assemble(false);
        let traced = w.assemble(true);
        let run = w.run();
        w.verify().expect("the run's outputs check");
        assert_eq!(plain.outcome, traced.outcome, "{}", W::NAME);
        assert_eq!(plain.shape, traced.shape, "{}", W::NAME);
        assert_eq!(run, plain.outcome, "{}", W::NAME);
        check_shape(&plain.shape, w.expected()).expect(W::NAME);
        assert!(plain.recording.spans.is_empty());
        let own = traced.recording.self_by_name();
        assert_eq!(own.values().sum::<u64>(), traced.recording.total());
        assert!(traced.recording.total() > 0);
        let verdict = cudele_check::check_history(&history_of(&plain.obs, W::HISTORY_MODE));
        assert!(verdict.clean(), "{}: {:?}", W::NAME, verdict.violations);
        assert!(verdict.events > 0, "{}", W::NAME);
    }

    #[test]
    fn timed_wrappers_leave_rpc_create_unchanged() {
        wrappers_are_transparent::<RpcCreate>();
    }

    #[test]
    fn timed_wrappers_leave_decoupled_merge_unchanged() {
        wrappers_are_transparent::<DecoupledMerge>();
    }

    #[test]
    fn timed_wrappers_leave_open_loop_churn_unchanged() {
        wrappers_are_transparent::<OpenLoopChurn>();
    }

    #[test]
    fn timed_wrappers_leave_namespace_mix_unchanged() {
        wrappers_are_transparent::<NamespaceMix>();
    }

    #[test]
    fn timed_wrappers_leave_failover_recover_unchanged() {
        wrappers_are_transparent::<FailoverRecover>();
    }

    #[test]
    fn a_failed_output_check_fails_every_op_of_the_run() {
        let mut w = NamespaceMix::prepare(5, HISTORY_SCALE);
        let out = w.run();
        let mut errors = Vec::new();
        assert_eq!(check_repeat(&w, &out, &out, &mut errors), 0);
        // The same outputs against a reference that disagrees.
        let mut other = out.clone();
        other.virtual_end_ns += 1;
        assert_eq!(check_repeat(&w, &out, &other, &mut errors), out.attempted);
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn every_per_layer_metric_is_reported() {
        let r = per_layer::<NamespaceMix>(5, 0.05);
        // At full size this takes a second or two; it is the one test that
        // drives the whole traced path.
        assert!(r.correct, "{:?}", r.errors);
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        let v = |name: &str| r.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert!(v("run.total_ns") > 0.0);
        assert!(v("step.count") == 40_000.0);
        assert!(v("mds.server.create_ns_per_op") > 0.0);
        assert!(v("e2e.attributed_share") > 0.0);
        assert_eq!(v("check.violations"), 0.0);
    }
}
