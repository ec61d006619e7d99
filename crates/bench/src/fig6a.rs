//! Figure 6a: "parallel creates on clients — the speedup of decoupled
//! namespaces over RPCs; `create` is the throughput of clients creating
//! files in-parallel and writing updates locally; `create+merge` includes
//! the time to merge updates at the metadata server."
//!
//! Paper shape: total-job throughput normalized to 1 client using RPCs.
//! The RPC curve flattens at ~4.5× (MDS saturation); `create+merge`
//! flattens at ~15× (3.37× over RPCs); `create` scales linearly, reaching
//! a ~91.7× speedup over RPCs at 20 clients.

use cudele_mds::MdLogConfig;
use cudele_sim::{render_plot, render_table, Nanos, Series};
use cudele_workloads::CreateHeavy;

use crate::world::{CreateKind, World};
use crate::Scale;

/// The three curves plus the headline statistics.
#[derive(Debug, Clone)]
pub struct Fig6a {
    pub series: Vec<Series>,
    /// Speedup of decoupled-create over RPCs at the largest client count.
    pub create_speedup_at_max: f64,
    /// Speedup of create+merge over RPCs at the largest client count.
    pub merge_speedup_at_max: f64,
    pub rendered: String,
}

/// Total-job duration for N clients of `kind` (journal on). With
/// `merge`, all decoupled journals then land on the MDS at once ("a
/// scenario in which all client journals arrive at the same time") and
/// serialize through its CPU.
fn run_phase(clients: u32, files: u64, kind: CreateKind, merge: bool) -> Nanos {
    let mut phase =
        World::calibrated(Some(MdLogConfig::default())).run_creates(clients, files, kind);
    let create_end = phase.report.slowest();
    if !merge {
        return create_end;
    }
    phase.world.merge_journals(phase.journals, create_end)
}

/// Runs the figure at `scale`.
pub fn run(scale: Scale) -> Fig6a {
    let files = scale.files_per_client;
    let rpcs = |n| run_phase(n, files, CreateKind::Rpc, false);
    let decoupled = |n, merge| run_phase(n, files, CreateKind::Decoupled, merge);
    let baseline = rpcs(1); // 1 client via RPCs (journal on)
    let base_rate = files as f64 / baseline.as_secs_f64();

    let mut s_rpc = Series::new("rpcs");
    let mut s_create = Series::new("decoupled: create");
    let mut s_merge = Series::new("decoupled: create+merge");

    for point in CreateHeavy::paper_sweep() {
        let n = point.clients;
        let total_ops = (n as u64 * files) as f64;
        let norm = |t: Nanos| (total_ops / t.as_secs_f64()) / base_rate;
        s_rpc.push(n as f64, norm(rpcs(n)));
        s_create.push(n as f64, norm(decoupled(n, false)));
        s_merge.push(n as f64, norm(decoupled(n, true)));
    }

    let create_speedup = s_create.last_y().unwrap() / s_rpc.last_y().unwrap();
    let merge_speedup = s_merge.last_y().unwrap() / s_rpc.last_y().unwrap();

    let series = vec![s_rpc, s_create, s_merge];
    let mut rendered = String::from(
        "Figure 6a: total-job create throughput, normalized to 1 client\n\
         using RPCs (higher is better)\n\n",
    );
    rendered.push_str(&render_table("clients", &series));
    rendered.push('\n');
    rendered.push_str(&render_plot(&series, 60, 16));
    rendered.push_str(&format!(
        "\nAt max clients: decoupled-create is {create_speedup:.1}x RPCs \
         (paper: 91.7x); create+merge is {merge_speedup:.2}x RPCs (paper: 3.37x)\n"
    ));
    Fig6a {
        series,
        create_speedup_at_max: create_speedup,
        merge_speedup_at_max: merge_speedup,
        rendered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let f = run(Scale {
            files_per_client: 2_000,
            runs: 1,
        });
        let rpc = &f.series[0];
        let create = &f.series[1];
        let merge = &f.series[2];

        // RPC curve flattens around 4.5x.
        let rpc_max = rpc.last_y().unwrap();
        assert!((rpc_max - 4.5).abs() < 0.6, "rpc plateau {rpc_max}");

        // Decoupled create scales ~linearly: 20 clients ~ 20 x the
        // decoupled 1-client normalized rate.
        let c1 = create.points[0].1;
        let c20 = create.last_y().unwrap();
        assert!(
            (c20 / c1 - 20.0).abs() < 1.0,
            "create linearity {}",
            c20 / c1
        );

        // Headline speedups.
        assert!(
            (f.create_speedup_at_max - 91.7).abs() < 10.0,
            "create speedup {}",
            f.create_speedup_at_max
        );
        assert!(
            (f.merge_speedup_at_max - 3.37).abs() < 0.7,
            "merge speedup {}",
            f.merge_speedup_at_max
        );

        // Ordering everywhere: create >= merge >= rpc.
        for i in 0..rpc.points.len() {
            assert!(create.points[i].1 >= merge.points[i].1 - 1e-9);
            assert!(merge.points[i].1 >= rpc.points[i].1 - 1e-9);
        }
        let _ = &f.rendered;
    }
}
