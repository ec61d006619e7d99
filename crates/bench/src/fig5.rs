//! Figure 5: "Overhead of processing 100K create events for each mechanism
//! in Figure 4, normalized to the runtime of writing events to client
//! memory. The far right graph shows the overhead of building semantics of
//! real world systems."
//!
//! Paper shape to reproduce: Append Client Journal = 1.0 (baseline);
//! Volatile Apply ≈ 0.9; RPCs ≈ 17.9 (19.9× slower than Volatile Apply);
//! Nonvolatile Apply ≈ 78; Stream ≈ 2.4; Global Persist ≈ 1.2× Local
//! Persist; compositions: CephFS/IndexFS (rpcs+stream) ≈ 20, RAMDisk
//! (rpcs) ≈ 18, BatchFS ≈ 2.2, DeltaFS ≈ 1.3.

use std::sync::Arc;

use cudele::{execute_merge, Composition, ExecEnv};
use cudele_client::LocalDisk;
use cudele_mds::MdLogConfig;
use cudele_rados::InMemoryStore;
use cudele_sim::Nanos;

use crate::world::{CreateKind, DecoupledCreateProcess, World};
use crate::Scale;

/// Speculation window used for the figure's speculative column.
pub const FIG5_SPEC_DEPTH: usize = 16;

/// One bar of the figure.
#[derive(Debug, Clone)]
pub struct Bar {
    pub group: &'static str,
    pub label: &'static str,
    /// Absolute virtual time to process all events.
    pub time: Nanos,
    /// Normalized to the Append Client Journal baseline.
    pub slowdown: f64,
}

/// The full figure: bars in paper order plus the rendered table.
#[derive(Debug, Clone)]
pub struct Fig5 {
    pub bars: Vec<Bar>,
    pub rendered: String,
}

impl Fig5 {
    /// The slowdown of a bar by label (panics if absent — test helper).
    pub fn slowdown(&self, label: &str) -> f64 {
        self.bars
            .iter()
            .find(|b| b.label == label)
            .unwrap_or_else(|| panic!("no bar {label}"))
            .slowdown
    }
}

/// One client's create phase of `events` creates, journal on or off.
fn time_creates(events: u64, kind: CreateKind, journal: bool) -> Nanos {
    World::calibrated(journal.then(MdLogConfig::default))
        .run_creates(1, events, kind)
        .report
        .slowest()
}

/// Builds a journal of `events` creates and measures one merge-time
/// composition over it (the append phase is *not* included).
fn time_merge(events: u64, composition: &str) -> Nanos {
    let mut world = World::calibrated(Some(MdLogConfig::default()));
    world.server.setup_dir("/decoupled").unwrap();
    let mut p = DecoupledCreateProcess::new(&mut world, 0, "/decoupled", events);
    for i in 0..events {
        p.client
            .create(p.client.root, &cudele_workloads::file_name(0, i))
            .unwrap();
    }
    let mut client = p.client;
    let comp: Composition = composition.parse().unwrap();
    let mut disk = LocalDisk::new();
    let os = Arc::new(InMemoryStore::paper_default());
    let report = execute_merge(
        &comp,
        &mut client,
        &mut ExecEnv {
            server: &mut world.server,
            os: os.as_ref(),
            disk: &mut disk,
        },
    )
    .expect("merge composition");
    report.elapsed
}

/// Runs the whole figure at `scale`.
pub fn run(scale: Scale) -> Fig5 {
    let events = scale.files_per_client;
    // The baseline: one client appending to its client journal.
    let t_acj = time_creates(events, CreateKind::Decoupled, true);
    let base = t_acj.as_secs_f64();

    let t_rpcs_off = time_creates(events, CreateKind::Rpc, false);
    let t_rpcs_on = time_creates(events, CreateKind::Rpc, true);
    // Same durability class as the `rpcs` bar (journal off), but the
    // client runs ahead of the acks: MDS-service-bound, not
    // round-trip-bound.
    let speculative = CreateKind::Speculative {
        depth: FIG5_SPEC_DEPTH,
        plan: None,
    };
    let t_spec = time_creates(events, speculative, false);
    let t_va = time_merge(events, "volatile_apply");
    let t_nva = time_merge(events, "nonvolatile_apply");
    // Stream is the paper's approximation: journal on minus journal off.
    let t_stream = t_rpcs_on - t_rpcs_off;
    let t_lp = time_merge(events, "local_persist");
    let t_gp = time_merge(events, "global_persist");

    // Compositions (system semantics): operation phase + merge phase.
    let t_posix = t_rpcs_on;
    let t_ramdisk = t_rpcs_off;
    let t_batchfs = t_acj + time_merge(events, "local_persist+volatile_apply");
    let t_deltafs = t_acj + time_merge(events, "local_persist");

    let bar = |group, label, time: Nanos| Bar {
        group,
        label,
        time,
        slowdown: time.as_secs_f64() / base,
    };
    let bars = vec![
        bar("baseline", "append_client_journal", t_acj),
        bar("consistency", "rpcs", t_rpcs_off),
        bar("consistency", "speculative", t_spec),
        bar("consistency", "volatile_apply", t_va),
        bar("consistency", "nonvolatile_apply", t_nva),
        bar("durability", "stream", t_stream),
        bar("durability", "local_persist", t_lp),
        bar("durability", "global_persist", t_gp),
        bar("systems", "cephfs/indexfs", t_posix),
        bar("systems", "ramdisk", t_ramdisk),
        bar("systems", "batchfs", t_batchfs),
        bar("systems", "deltafs", t_deltafs),
    ];

    let mut rendered = String::from(
        "Figure 5: per-mechanism overhead of processing create events,\n\
         normalized to Append Client Journal (1.0)\n\n",
    );
    rendered.push_str(&format!(
        "{:<12} {:<22} {:>12} {:>10}\n",
        "group", "mechanism", "time", "slowdown"
    ));
    rendered.push_str(&"-".repeat(60));
    rendered.push('\n');
    for b in &bars {
        rendered.push_str(&format!(
            "{:<12} {:<22} {:>12} {:>9.2}x\n",
            b.group,
            b.label,
            b.time.to_string(),
            b.slowdown
        ));
    }
    Fig5 { bars, rendered }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig5 {
        run(Scale {
            files_per_client: 2_000,
            runs: 1,
        })
    }

    #[test]
    fn mechanism_ratios_match_paper() {
        let f = quick();
        assert!((f.slowdown("append_client_journal") - 1.0).abs() < 1e-9);
        // RPCs ~17.9x (plus the cold-start lookup, within tolerance).
        let rpcs = f.slowdown("rpcs");
        assert!((rpcs - 17.9).abs() < 0.5, "rpcs {rpcs}");
        // RPCs ~19.9x slower than Volatile Apply.
        let va = f.slowdown("volatile_apply");
        assert!(va < 1.0, "volatile apply {va} should beat the baseline");
        let ratio = rpcs / va;
        assert!((ratio - 19.9).abs() < 1.5, "rpcs/va {ratio}");
        // Nonvolatile Apply ~78x.
        let nva = f.slowdown("nonvolatile_apply");
        assert!((nva - 78.0).abs() < 4.0, "nva {nva}");
        // Stream ~2.4x.
        let stream = f.slowdown("stream");
        assert!((stream - 2.4).abs() < 0.3, "stream {stream}");
        // Global Persist ~1.2x Local Persist, both sub-baseline.
        let lp = f.slowdown("local_persist");
        let gp = f.slowdown("global_persist");
        assert!((gp / lp - 1.2).abs() < 0.05, "gp/lp {}", gp / lp);
        assert!(lp < 1.0 && gp < 1.0);
    }

    #[test]
    fn speculation_closes_most_of_the_rpc_gap() {
        let f = quick();
        let rpcs = f.slowdown("rpcs");
        let spec = f.slowdown("speculative");
        // Same durability class (journal off), but the stall is gone: the
        // run becomes MDS-service-bound at ~3.7x the append baseline.
        assert!((spec - 3.7).abs() < 0.4, "speculative {spec}");
        // The speculative column must close at least half the gap between
        // RPCs and the append_client_journal baseline (1.0).
        let closed = (rpcs - spec) / (rpcs - 1.0);
        assert!(
            closed >= 0.5,
            "gap closed {closed} (rpcs {rpcs} spec {spec})"
        );
    }

    #[test]
    fn system_compositions_match_paper() {
        let f = quick();
        // CephFS/IndexFS ~ rpcs + stream ~ 20x.
        let posix = f.slowdown("cephfs/indexfs");
        assert!((posix - 20.3).abs() < 1.0, "posix {posix}");
        // RAMDisk = rpcs only.
        assert!((f.slowdown("ramdisk") - f.slowdown("rpcs")).abs() < 1e-9);
        // BatchFS ~ 1 + lp + va ~ 2.2x.
        let batchfs = f.slowdown("batchfs");
        assert!((batchfs - 2.2).abs() < 0.3, "batchfs {batchfs}");
        // DeltaFS ~ 1 + lp ~ 1.3x.
        let deltafs = f.slowdown("deltafs");
        assert!((deltafs - 1.33).abs() < 0.15, "deltafs {deltafs}");
        // Ordering: posix > batchfs > deltafs > baseline.
        assert!(posix > batchfs && batchfs > deltafs && deltafs > 1.0);
    }

    #[test]
    fn rendered_table_lists_all_bars() {
        let f = quick();
        for label in ["rpcs", "stream", "batchfs", "deltafs"] {
            assert!(
                f.rendered.contains(label),
                "{label} missing:\n{}",
                f.rendered
            );
        }
    }
}
