//! Figure 2: "For the CephFS metadata server, create-heavy workloads
//! (e.g., untar) incur the highest disk, network, and CPU utilization
//! because of consistency/durability demands."
//!
//! We replay the synthetic kernel-compile trace (same per-phase op mixes
//! as the paper's) through one client against the MDS and report per-phase
//! MDS CPU utilization plus network and disk throughput. The claim to
//! reproduce: untar dominates every resource.

use std::sync::Arc;

use cudele_client::RpcClient;
use cudele_journal::InodeId;
use cudele_mds::{ClientId, MetadataServer};
use cudele_rados::{InMemoryStore, ObjectId, ObjectStore, PoolId};
use cudele_sim::{transfer_time, FifoServer, Nanos};
use cudele_workloads::{compile_phases, PhaseOp};

use crate::Scale;

/// Per-phase resource report.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    pub name: &'static str,
    pub duration: Nanos,
    /// Fraction of the phase the MDS CPU was busy (0..1).
    pub mds_cpu_util: f64,
    /// Network throughput during the phase (MB/s).
    pub net_mbps: f64,
    /// OSD disk write throughput during the phase (MB/s).
    pub disk_mbps: f64,
    pub creates: u64,
    pub reads: u64,
}

impl PhaseReport {
    /// The "combined CPU, network, and disk" signal the paper eyeballs;
    /// normalized units so the three resources are comparable (CPU
    /// fraction + each bandwidth as a fraction of 100 MB/s).
    pub fn combined(&self) -> f64 {
        self.mds_cpu_util + self.net_mbps / 100.0 + self.disk_mbps / 100.0
    }
}

/// The figure output.
#[derive(Debug, Clone)]
pub struct Fig2 {
    pub phases: Vec<PhaseReport>,
    pub rendered: String,
}

impl Fig2 {
    pub fn phase(&self, name: &str) -> &PhaseReport {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("no phase {name}"))
    }
}

/// Runs the trace at `scale` (files_per_client 100_000 ≈ a 1.0-scale
/// kernel tree; smaller values shrink the tree proportionally).
pub fn run(scale: Scale) -> Fig2 {
    let trace_scale = scale.files_per_client as f64 / 100_000.0;
    let os = Arc::new(InMemoryStore::paper_default());
    let mut server = MetadataServer::new(os.clone());
    if let Some(reg) = crate::obs_out::session() {
        server.attach_obs(&reg);
    }
    let mut mds = FifoServer::new("mds-cpu");
    let (mut rpc, _) = RpcClient::mount(&mut server, ClientId(1));
    let cm = server.cost_model().clone();

    // The build tree: /build plus numbered source dirs created by the
    // untar phase itself (PhaseOp dirs address this table).
    let build_root = server.setup_dir("/build").unwrap();
    let mut dir_inos: Vec<InodeId> = vec![build_root];

    // Drain startup accounting.
    let _ = os.take_io_delta();

    let mut t = Nanos::ZERO;
    let mut phases = Vec::new();
    for phase in compile_phases(trace_scale) {
        let phase_start = t;
        let busy_before = mds.busy_time();
        let mut net_bytes: u64 = 0;
        let _ = os.take_io_delta(); // reset disk counters for the phase
        let (mut creates, mut reads) = (0u64, 0u64);

        for op in &phase.ops {
            t += phase.think;
            match op {
                PhaseOp::Mkdir { dir, name } => {
                    let parent = dir_inos[(*dir as usize) % dir_inos.len()];
                    let out = rpc.mkdir(&mut server, parent, name);
                    let ino = out.result.expect("mkdir");
                    dir_inos.push(ino);
                    for c in out.costs.iter() {
                        t = mds.serve(t, c.mds_cpu) + c.client_extra;
                        net_bytes += 2 * 1024; // request + reply
                    }
                    creates += 1;
                }
                PhaseOp::Create { dir, name } => {
                    let parent = dir_inos[(*dir as usize + 1) % dir_inos.len()];
                    let out = rpc.create(&mut server, parent, name);
                    out.result.expect("create");
                    for c in out.costs.iter() {
                        t = mds.serve(t, c.mds_cpu) + c.client_extra;
                        net_bytes += 2 * 1024;
                    }
                    creates += 1;
                }
                PhaseOp::Lookup { dir, name } | PhaseOp::Stat { dir, name } => {
                    let parent = dir_inos[(*dir as usize + 1) % dir_inos.len()];
                    let rpc_reply = server.lookup(ClientId(1), parent, name);
                    let c = rpc_reply.cost;
                    t = mds.serve(t, c.mds_cpu) + c.client_extra;
                    net_bytes += 1024;
                    reads += 1;
                }
                PhaseOp::DataWrite { bytes } => {
                    // Data goes straight from the client to the OSDs; it
                    // advances the client's clock but touches none of the
                    // *metadata server's* resources, which is what this
                    // figure reports.
                    os.append(
                        &ObjectId::new(PoolId::DATA, format!("data.{creates}")),
                        &vec![0u8; (*bytes).min(1 << 20) as usize],
                    )
                    .expect("data write");
                    t += transfer_time(*bytes, cm.network_bw);
                }
            }
        }

        let duration = t - phase_start;
        let busy = mds.busy_time() - busy_before;
        // The MDS's own disk traffic is the journal stream (calibrated
        // bytes); OSD data-pool traffic does not appear on the MDS.
        let mdlog = server.take_mdlog_stats();
        let disk_bytes = cm.journal_bytes(mdlog.events);
        let _ = os.take_io_delta();
        let secs = duration.as_secs_f64().max(1e-9);
        phases.push(PhaseReport {
            name: phase.name,
            duration,
            mds_cpu_util: busy.as_secs_f64() / secs,
            net_mbps: net_bytes as f64 / 1e6 / secs,
            disk_mbps: disk_bytes as f64 / 1e6 / secs,
            creates,
            reads,
        });
    }

    let mut rendered = String::from(
        "Figure 2: per-phase MDS resource utilization while compiling a\n\
         kernel tree in the mount (untar should dominate)\n\n",
    );
    rendered.push_str(&format!(
        "{:<10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}\n",
        "phase", "duration", "mds-cpu", "net MB/s", "dsk MB/s", "combined", "creates", "reads"
    ));
    rendered.push_str(&"-".repeat(80));
    rendered.push('\n');
    for p in &phases {
        rendered.push_str(&format!(
            "{:<10} {:>10} {:>8.1}% {:>9.2} {:>9.2} {:>9.3} {:>8} {:>8}\n",
            p.name,
            p.duration.to_string(),
            100.0 * p.mds_cpu_util,
            p.net_mbps,
            p.disk_mbps,
            p.combined(),
            p.creates,
            p.reads
        ));
    }
    Fig2 { phases, rendered }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig2 {
        run(Scale {
            files_per_client: 5_000, // 5% of a kernel tree
            runs: 1,
        })
    }

    #[test]
    fn untar_has_highest_combined_utilization() {
        let f = fig();
        let untar = f.phase("untar").combined();
        for p in &f.phases {
            if p.name != "untar" {
                assert!(
                    untar > p.combined(),
                    "untar ({untar:.3}) should beat {} ({:.3})",
                    p.name,
                    p.combined()
                );
            }
        }
    }

    #[test]
    fn untar_mds_cpu_near_saturation() {
        let f = fig();
        // Create-heavy with zero think time: the MDS CPU is the
        // bottleneck's neighbour — well above everything else.
        let untar = f.phase("untar");
        assert!(
            untar.mds_cpu_util > 0.15,
            "untar cpu {}",
            untar.mds_cpu_util
        );
        let make = f.phase("make");
        assert!(untar.mds_cpu_util > 2.0 * make.mds_cpu_util);
    }

    #[test]
    fn phases_report_plausible_op_counts() {
        let f = fig();
        assert!(f.phase("untar").creates > f.phase("configure").creates);
        assert!(f.phase("configure").reads > f.phase("configure").creates);
        assert!(f.phase("make").reads > 0);
        assert!(f.rendered.contains("untar"));
    }
}
