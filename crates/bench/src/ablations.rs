//! Ablations for the design choices DESIGN.md calls out — experiments the
//! paper gestures at but does not run:
//!
//! 1. **Journal-arrival overlap** (§V-B1): "Had we added infrastructure to
//!    overlay journal arrivals or time client sync intervals, we could
//!    have scaled more closely to decoupled: create." We stagger the merge
//!    arrivals and measure how much of the gap closes.
//! 2. **Cap re-grant threshold**: how long the MDS waits before returning
//!    a directory's read-caching cap after contention. Short thresholds
//!    thrash; long ones leave the victim paying lookups long after the
//!    interferer has left.
//! 3. **Dirfrag split threshold**: the fragment size at which directories
//!    split, traded against per-fragment scan cost (here we check the
//!    fragment counts the policy produces).

use std::sync::Arc;

use cudele_mds::{MdLogConfig, MetadataServer, MetadataStore};
use cudele_rados::InMemoryStore;
use cudele_sim::{render_table, CostModel, Nanos, Series};

use crate::world::{CreateKind, World};
use crate::Scale;

/// Ablation 1: merge wall-clock with journals arriving simultaneously vs
/// staggered by `stagger` per client.
pub fn merge_arrival_overlap(clients: u32, files: u64, stagger: Nanos) -> Nanos {
    // Create phase (parallel, identical for both arms).
    let phase = World::calibrated(Some(MdLogConfig::default())).run_creates(
        clients,
        files,
        CreateKind::Decoupled,
    );
    let (mut world, create_end) = (phase.world, phase.report.slowest());

    // Merge phase with staggered arrivals. With a large enough stagger
    // each journal finds an idle MDS; concurrency drops accordingly.
    let mut slowest = create_end;
    for (c, mut p) in phase.journals.into_iter().enumerate() {
        let arrival = create_end + stagger * c as u64;
        // Overlapped arrivals reduce the concurrent-merge interference: if
        // the stagger exceeds one journal's apply time, merges are
        // effectively serial-but-private (concurrency 1).
        let apply_time = world.server.cost_model().volatile_apply_per_event * files;
        let concurrent = if stagger >= apply_time {
            1
        } else if stagger == Nanos::ZERO {
            clients
        } else {
            // Journals overlapping within one apply window.
            ((apply_time.as_nanos() / stagger.as_nanos().max(1)) as u32 + 1).min(clients)
        };
        let done = p.merge_at(&mut world, arrival, concurrent);
        slowest = slowest.max(done);
    }
    slowest
}

/// The rendered ablation-1 table: total-job throughput (normalized to the
/// simultaneous-arrival run) across stagger values.
pub fn run_arrival_ablation(scale: Scale) -> (Vec<Series>, String) {
    let files = scale.files_per_client;
    let clients = 20;
    let apply_time = CostModel::calibrated().volatile_apply_per_event * files;
    let mut s = Series::new("speedup vs simultaneous");
    let simultaneous = merge_arrival_overlap(clients, files, Nanos::ZERO);
    for frac in [0.0, 0.25, 0.5, 1.0, 2.0] {
        let stagger = apply_time.scale(frac);
        let t = merge_arrival_overlap(clients, files, stagger);
        s.push(frac, simultaneous.as_secs_f64() / t.as_secs_f64());
    }
    let series = vec![s];
    let mut rendered = String::from(
        "Ablation: staggering decoupled-journal arrivals at the MDS\n\
         (x = stagger as a fraction of one journal's apply time)\n\n",
    );
    rendered.push_str(&render_table("stagger", &series));
    rendered.push_str(
        "\nOverlapping arrivals recover part of the gap between\n\
         create+merge and create (paper §V-B1's conjecture); past one\n\
         apply-time of stagger the idle waiting dominates and the benefit\n\
         reverses.\n",
    );
    (series, rendered)
}

/// Ablation 2: cap re-grant threshold vs victim lookups after a transient
/// interferer. Returns (threshold, lookups the victim paid).
pub fn regrant_threshold_ablation() -> (Vec<(u64, u64)>, String) {
    use cudele_client::RpcClient;
    use cudele_mds::ClientId;

    let mut rows = Vec::new();
    for threshold in [10u64, 50, 100, 500, 2000] {
        let os = Arc::new(InMemoryStore::paper_default());
        let mut server = MetadataServer::new(os);
        if let Some(reg) = crate::obs_out::session() {
            server.attach_obs(&reg);
        }
        // Install a cap table with the ablated threshold.
        server.set_cap_regrant_after(threshold);
        let (mut victim, _) = RpcClient::mount(&mut server, ClientId(1));
        let (mut intruder, _) = RpcClient::mount(&mut server, ClientId(2));
        let dir = server.setup_dir("/d").unwrap();
        // Victim warms up, intruder touches once, victim continues.
        for i in 0..10 {
            victim
                .create(&mut server, dir, &format!("w{i}"))
                .result
                .unwrap();
        }
        intruder.create(&mut server, dir, "x").result.unwrap();
        let before = victim.lookups_sent;
        for i in 0..4000 {
            victim
                .create(&mut server, dir, &format!("v{i}"))
                .result
                .unwrap();
        }
        rows.push((threshold, victim.lookups_sent - before));
    }
    let mut rendered = String::from(
        "Ablation: capability re-grant threshold vs lookups paid by the\n\
         victim after one transient interfering create\n\n  threshold  victim lookups\n",
    );
    for (t, l) in &rows {
        rendered.push_str(&format!("  {t:>9}  {l:>14}\n"));
    }
    (rows, rendered)
}

/// Ablation 3: dirfrag split threshold vs resulting fragment counts for a
/// 100 K-entry directory (the paper's recommended max directory size).
pub fn split_threshold_ablation() -> (Vec<(usize, usize)>, String) {
    let mut rows = Vec::new();
    for threshold in [1_000usize, 10_000, 100_000] {
        let mut ms = MetadataStore::with_split_threshold(threshold);
        for i in 0..100_000u64 {
            ms.create(
                cudele_journal::InodeId::ROOT,
                &format!("f{i}"),
                cudele_journal::InodeId(0x1000 + i),
                cudele_journal::Attrs::file_default(),
            )
            .unwrap();
        }
        let frags = ms.dir(cudele_journal::InodeId::ROOT).unwrap().frag_count();
        rows.push((threshold, frags));
    }
    let mut rendered = String::from(
        "Ablation: dirfrag split threshold vs fragments for a 100K-entry\n\
         directory\n\n  threshold  fragments\n",
    );
    for (t, f) in &rows {
        rendered.push_str(&format!("  {t:>9}  {f:>9}\n"));
    }
    (rows, rendered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staggered_arrivals_speed_up_merge() {
        let files = 2_000;
        let simultaneous = merge_arrival_overlap(8, files, Nanos::ZERO);
        let apply = CostModel::calibrated().volatile_apply_per_event * files;
        let staggered = merge_arrival_overlap(8, files, apply);
        assert!(
            staggered < simultaneous,
            "staggered {staggered} should beat simultaneous {simultaneous}"
        );
    }

    #[test]
    fn arrival_ablation_peaks_at_one_apply_time() {
        let (series, rendered) = run_arrival_ablation(Scale {
            files_per_client: 1_000,
            runs: 1,
        });
        let ys: Vec<f64> = series[0].points.iter().map(|p| p.1).collect();
        // Speedup grows while stagger <= one apply time (overlap removes
        // interference)...
        for w in ys[..4].windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "{ys:?}");
        }
        assert!(ys[3] > 1.2, "full overlap should help: {ys:?}");
        // ...then over-staggering wastes wall-clock idling the MDS.
        assert!(ys[4] < ys[3], "{ys:?}");
        assert!((ys[0] - 1.0).abs() < 1e-9);
        assert!(rendered.contains("stagger"));
    }

    #[test]
    fn lower_regrant_threshold_means_fewer_lookups() {
        let (rows, _) = regrant_threshold_ablation();
        // Victim lookups grow with the threshold (until the run length
        // caps them).
        assert!(rows[0].1 < rows[2].1);
        assert!(rows[2].1 <= rows[4].1);
        // And roughly track the threshold while un-capped (the first
        // post-interference create rides the stale client cache, and the
        // re-granting create's lookup is the last one paid).
        assert!(
            rows[0].1 + 2 >= rows[0].0,
            "expected ~threshold lookups, got {} for threshold {}",
            rows[0].1,
            rows[0].0
        );
    }

    #[test]
    fn split_threshold_controls_fragmentation() {
        let (rows, _) = split_threshold_ablation();
        assert!(rows[0].1 > rows[1].1);
        assert!(rows[1].1 > rows[2].1 || rows[2].1 == 1);
        assert_eq!(rows[2].1, 1, "no split when threshold >= dir size");
    }
}
