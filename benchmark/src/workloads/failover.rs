//! `failover_recover`: the journal/store/RADOS layers used the other way
//! round — decode, blind apply, reads — plus `mds::checkpoint`,
//! `mds::failover` and `persist`, which no other workload touches.
//!
//! Set-up writes 60 000 creates and 6 000 unlinks/renames straight through
//! a `MetadataServer` (mdlog on, a checkpoint every 8 000 flushed events)
//! into a fresh object store and shuts it down cleanly. The timed region
//! is two standby takeovers from byte-identical copies of that store: one
//! from a copy with the checkpoint objects removed (full-journal replay)
//! and one from the complete copy (manifest image + deltas + tail). Both
//! must rebuild exactly the namespace the writer had.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use cudele_journal::{FileType, InodeId};
use cudele_mds::{
    CheckpointConfig, ClientId, MdLogConfig, MetadataServer, StandbyReplay, TakeoverReport,
};
use cudele_obs::Registry;
use cudele_rados::{FencingAuthority, InMemoryStore, ObjectStore, PoolId};
use cudele_sim::CostModel;

use super::{traced_region, Assembled, Outcome, Shape, Workload};
use crate::layers::{Op, Script};
use crate::rng::Rng;
use crate::trace::{self, TimedStore};

const DIRS: usize = 16;
const CREATES: usize = 60_000;
/// One unlink or rename follows every this many creates.
const CHURN_EVERY: usize = 10;
const CLIENT: u32 = 0;

type Snapshot = BTreeMap<String, (InodeId, FileType)>;

fn dir_path(d: usize) -> String {
    format!("/recover/d{d:02}")
}

/// The ops the writer issues, with directory indices still unresolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    Create {
        dir: u16,
        name: String,
    },
    Unlink {
        dir: u16,
        name: String,
    },
    Rename {
        dir: u16,
        name: String,
        dst_dir: u16,
        dst_name: String,
    },
}

/// Generates the write phase and the namespace it must leave behind.
pub fn generate(seed: u64, scale: u64) -> (Vec<WriteOp>, Shape) {
    let mut rng = Rng::new(seed, 0xFA11);
    let mut model = Shape::new();
    model.insert("/recover".to_string(), FileType::Dir);
    for d in 0..DIRS {
        model.insert(dir_path(d), FileType::Dir);
    }
    let creates = CREATES / scale as usize;
    let mut live: Vec<(u16, String)> = Vec::with_capacity(creates);
    let mut ops = Vec::with_capacity(creates + creates / CHURN_EVERY);
    for i in 0..creates {
        let dir = rng.below(DIRS) as u16;
        let name = format!("f{i}");
        model.insert(format!("{}/{name}", dir_path(dir as usize)), FileType::File);
        live.push((dir, name.clone()));
        ops.push(WriteOp::Create { dir, name });
        if (i + 1) % CHURN_EVERY == 0 {
            let (dir, name) = live.swap_remove(rng.below(live.len()));
            model.remove(&format!("{}/{name}", dir_path(dir as usize)));
            if rng.below(2) == 0 {
                ops.push(WriteOp::Unlink { dir, name });
            } else {
                let dst_dir = rng.below(DIRS) as u16;
                let dst_name = format!("r{i}");
                model.insert(
                    format!("{}/{dst_name}", dir_path(dst_dir as usize)),
                    FileType::File,
                );
                live.push((dst_dir, dst_name.clone()));
                ops.push(WriteOp::Rename {
                    dir,
                    name,
                    dst_dir,
                    dst_name,
                });
            }
        }
    }
    (ops, model)
}

/// Copies every object of `src` whose name `keep` accepts into a fresh
/// store, byte for byte (payload and omap).
pub fn copy_store(src: &dyn ObjectStore, keep: impl Fn(&str) -> bool) -> InMemoryStore {
    let dst = InMemoryStore::paper_default();
    for pool in [PoolId::METADATA, PoolId::DATA] {
        for id in src.list(pool, "") {
            if !keep(&id.name) {
                continue;
            }
            let data = src.read(&id).expect("listed object reads");
            dst.write_full(&id, &data).expect("copy write");
            for (k, v) in src.omap_list(&id).expect("listed object omap") {
                dst.omap_set(&id, &k, &v).expect("copy omap");
            }
        }
    }
    dst
}

/// What the write phase cost, for the `mds.checkpoint.*` layer metrics.
#[derive(Debug, Clone, Copy, Default)]
struct WriteProbe {
    checkpoints: u64,
    publish_ns: u64,
    stall_ns_max: u64,
    ckpt_bytes_written: u64,
}

/// The crashed writer's durable state and what it held in memory.
struct Written {
    store: Arc<dyn ObjectStore>,
    snapshot: Snapshot,
    script: Script,
    probe: WriteProbe,
}

/// The `failover_recover` workload.
pub struct FailoverRecover {
    ops: Vec<WriteOp>,
    expected: Shape,
    scale: u64,
    generate_ns: u64,
    /// Pre-crash snapshot and the two store copies the next run recovers.
    prepared: Option<(Snapshot, InMemoryStore, InMemoryStore)>,
    /// The writer's snapshot and what the last run recovered, for
    /// [`Workload::verify`].
    recovered: Option<(Snapshot, Snapshot, Snapshot)>,
}

impl FailoverRecover {
    fn mdlog(&self) -> MdLogConfig {
        MdLogConfig {
            events_per_segment: (256 / self.scale as usize).max(4),
            dispatch_size: 8,
            trim_after_updates: None,
        }
    }

    fn checkpoints(&self) -> CheckpointConfig {
        CheckpointConfig {
            interval_events: (8_000 / self.scale).max(32),
            ..CheckpointConfig::default()
        }
    }

    /// The write phase: a server journals and checkpoints the generated
    /// ops into a fresh store and shuts down cleanly. `probe` times every
    /// op, for the checkpoint stall metrics.
    fn write(&self, probe: bool, reg: Option<&Arc<Registry>>) -> Written {
        let store: Arc<dyn ObjectStore> = if probe {
            Arc::new(TimedStore(InMemoryStore::paper_default()))
        } else {
            Arc::new(InMemoryStore::paper_default())
        };
        let mut server = MetadataServer::with_config(
            Arc::clone(&store),
            CostModel::calibrated(),
            Some(self.mdlog()),
        );
        if let Some(reg) = reg {
            server.attach_obs(reg);
        }
        server
            .enable_checkpoints(self.checkpoints())
            .expect("checkpoints on a journaling server");
        let setup_dirs: Vec<String> = (0..DIRS).map(dir_path).collect();
        let dirs: Vec<InodeId> = setup_dirs
            .iter()
            .map(|p| server.setup_dir_durable(p).expect("recoverable directory"))
            .collect();
        server.open_session(ClientId(CLIENT));
        let mut wp = WriteProbe::default();
        if probe {
            trace::enable();
        }
        for w in &self.ops {
            let op = match w {
                WriteOp::Create { dir, name } => Op::Create {
                    client: CLIENT,
                    dir: dirs[*dir as usize],
                    name: name.clone(),
                },
                WriteOp::Unlink { dir, name } => Op::Unlink {
                    client: CLIENT,
                    dir: dirs[*dir as usize],
                    name: name.clone(),
                },
                WriteOp::Rename {
                    dir,
                    name,
                    dst_dir,
                    dst_name,
                } => Op::Rename {
                    client: CLIENT,
                    src_dir: dirs[*dir as usize],
                    src_name: name.clone(),
                    dst_dir: dirs[*dst_dir as usize],
                    dst_name: dst_name.clone(),
                },
            };
            if probe {
                let epoch = server.manifest_epoch();
                let t = Instant::now();
                let r = op.issue(&mut server);
                let ns = t.elapsed().as_nanos() as u64;
                assert!(r.ok, "write-phase op failed: {op:?}");
                wp.stall_ns_max = wp.stall_ns_max.max(ns);
                if server.manifest_epoch() != epoch {
                    wp.publish_ns += ns;
                }
            } else {
                assert!(op.issue(&mut server).ok, "write-phase op failed: {op:?}");
            }
        }
        server.flush_journal();
        wp.checkpoints = server.manifest_epoch();
        if probe {
            wp.ckpt_bytes_written = trace::finish().io.ckpt_bytes_written;
        }
        // The timed region sends nothing to a server's op methods, so the
        // script carries no ops: only the journal the recoveries decode.
        let script = Script {
            setup_dirs,
            sessions: vec![CLIENT],
            mdlog: Some(self.mdlog()),
            ..Script::default()
        };
        Written {
            snapshot: server.store().snapshot(),
            store,
            script,
            probe: wp,
        }
    }

    /// The two copies a run recovers from: the journal alone, and
    /// everything.
    fn copies(store: &dyn ObjectStore) -> (InMemoryStore, InMemoryStore) {
        (
            copy_store(store, |name| !name.starts_with("ckpt.")),
            copy_store(store, |_| true),
        )
    }

    /// One standby takeover over `base`.
    fn take_over(
        &self,
        base: Arc<dyn ObjectStore>,
        keep_checkpointing: bool,
    ) -> Result<(MetadataServer, TakeoverReport), String> {
        let authority = Arc::new(FencingAuthority::new());
        let mut standby = StandbyReplay::new(
            base,
            Arc::clone(&authority),
            CostModel::calibrated(),
            Some(self.mdlog()),
        );
        if keep_checkpointing {
            standby.set_checkpoint_config(self.checkpoints());
        }
        standby
            .take_over(authority.bump())
            .map_err(|e| format!("takeover failed: {e}"))
    }

    /// The timed region: both recoveries, full-journal first.
    fn recover(
        &self,
        full: Arc<dyn ObjectStore>,
        manifest: Arc<dyn ObjectStore>,
    ) -> Result<[(MetadataServer, TakeoverReport); 2], String> {
        let a = {
            let _s = trace::span("mds.failover.full_replay");
            self.take_over(full, false)
        };
        let b = {
            let _s = trace::span("mds.failover.manifest_recover");
            self.take_over(manifest, true)
        };
        Ok([a?, b?])
    }

    /// What a recovery amounts to: one op per event recovered, or every
    /// write-phase op failed when a takeover did.
    fn outcome(
        &self,
        recovered: &Result<[(MetadataServer, TakeoverReport); 2], String>,
    ) -> Outcome {
        match recovered {
            Ok([(_, ra), (_, rb)]) => Outcome {
                attempted: ra.replayed_events + rb.checkpoint_events + rb.replayed_events,
                failed: 0,
                virtual_end_ns: 0,
                fingerprint: format!("{ra:?} {rb:?}"),
            },
            Err(why) => Outcome {
                attempted: self.ops.len() as u64,
                failed: self.ops.len() as u64,
                virtual_end_ns: 0,
                fingerprint: why.clone(),
            },
        }
    }

    /// The namespaces the two promoted servers hold (empty after a failed
    /// takeover). Read outside the timed region.
    fn snapshots(
        recovered: &Result<[(MetadataServer, TakeoverReport); 2], String>,
    ) -> (Snapshot, Snapshot) {
        match recovered {
            Ok([(a, _), (b, _)]) => (a.store().snapshot(), b.store().snapshot()),
            Err(_) => (Snapshot::new(), Snapshot::new()),
        }
    }

    fn check(pre: &Snapshot, full: &Snapshot, manifest: &Snapshot) -> Result<(), String> {
        if full != pre {
            return Err(format!(
                "full-journal recovery rebuilt {} entries, the writer had {}",
                full.len(),
                pre.len()
            ));
        }
        if manifest != pre {
            return Err(format!(
                "manifest recovery rebuilt {} entries, the writer had {}",
                manifest.len(),
                pre.len()
            ));
        }
        Ok(())
    }
}

impl Workload for FailoverRecover {
    const NAME: &'static str = "failover_recover";
    const HISTORY_MODE: &'static str = "rpc";

    fn prepare(seed: u64, scale: u64) -> FailoverRecover {
        let t = Instant::now();
        let (ops, expected) = generate(seed, scale);
        let generate_ns = t.elapsed().as_nanos() as u64;
        let mut w = FailoverRecover {
            ops,
            expected,
            scale,
            generate_ns,
            prepared: None,
            recovered: None,
        };
        let written = w.write(false, None);
        let (full, manifest) = Self::copies(written.store.as_ref());
        w.prepared = Some((written.snapshot, full, manifest));
        w
    }

    fn run(&mut self) -> Outcome {
        let (pre, full, manifest) = self.prepared.take().expect("one run per prepare");
        let recovered = self.recover(Arc::new(full), Arc::new(manifest));
        let (a, b) = Self::snapshots(&recovered);
        self.recovered = Some((pre, a, b));
        self.outcome(&recovered)
    }

    fn verify(&self) -> Result<(), String> {
        let (pre, full, manifest) = self.recovered.as_ref().ok_or("no run to verify")?;
        let shape: Shape = pre.iter().map(|(k, (_, t))| (k.clone(), *t)).collect();
        super::check_shape(&shape, &self.expected)?;
        Self::check(pre, full, manifest)
    }

    fn assemble(&mut self, traced: bool) -> Assembled {
        // A registry on the writer records its consistency history; the
        // recoveries themselves run as the untraced ones do.
        let reg = Arc::new(Registry::new());
        let written = self.write(traced, Some(&reg));
        let (full, manifest) = Self::copies(written.store.as_ref());
        let (full, manifest): (Arc<dyn ObjectStore>, Arc<dyn ObjectStore>) = if traced {
            (Arc::new(TimedStore(full)), Arc::new(TimedStore(manifest)))
        } else {
            (Arc::new(full), Arc::new(manifest))
        };
        let journal = Arc::clone(&full);
        let (recovered, recording) = traced_region(traced, || self.recover(full, manifest));
        let mut outcome = self.outcome(&recovered);
        let (a, b) = Self::snapshots(&recovered);
        if let Err(e) = Self::check(&written.snapshot, &a, &b) {
            outcome.failed = outcome.attempted;
            outcome.fingerprint = e;
        }
        let mut script = written.script;
        script.events =
            cudele_journal::read_journal(journal.as_ref(), cudele_journal::JournalId::MDLOG)
                .expect("the writer's journal reads back");
        let mut extra: BTreeMap<&'static str, f64> = BTreeMap::new();
        let wp = written.probe;
        extra.insert("mds.checkpoint.count", wp.checkpoints as f64);
        extra.insert("mds.checkpoint.publish_ns", wp.publish_ns as f64);
        extra.insert("mds.checkpoint.bytes_written", wp.ckpt_bytes_written as f64);
        extra.insert("mds.checkpoint.stall_ns_max", wp.stall_ns_max as f64);
        let dur = |name: &str| recording.durations(name).iter().sum::<u64>() as f64;
        if let Ok([(_, ra), (_, rb)]) = &recovered {
            extra.insert(
                "mds.failover.full_replay_ns_per_event",
                dur("mds.failover.full_replay") / ra.replayed_events.max(1) as f64,
            );
            extra.insert(
                "mds.failover.manifest_recover_ns",
                dur("mds.failover.manifest_recover"),
            );
            extra.insert(
                "mds.failover.replayed_events",
                (ra.replayed_events + rb.replayed_events) as f64,
            );
            extra.insert(
                "mds.failover.checkpoint_events",
                rb.checkpoint_events as f64,
            );
        }
        Assembled {
            outcome,
            shape: a.iter().map(|(k, (_, t))| (k.clone(), *t)).collect(),
            obs: reg,
            server_rpcs: 0,
            mdlog_segments: 0,
            inodes_final: a.len() as u64 + 1,
            engine_events: 0,
            sojourn_p99_ns: 0,
            script,
            recording,
            extra,
        }
    }

    fn expected(&self) -> &Shape {
        &self.expected
    }

    fn generate_ns(&self) -> u64 {
        self.generate_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        assert_eq!(generate(4, 50), generate(4, 50));
        assert_ne!(generate(4, 50).0, generate(5, 50).0);
        let (ops, model) = generate(4, 50);
        assert_eq!(ops.len(), 1200 + 120);
        // 1200 creates, 120 removed, about half of those renamed back in.
        let files = model.values().filter(|t| **t == FileType::File).count();
        assert!((1080..=1200).contains(&files), "{files}");
    }

    #[test]
    fn both_recoveries_rebuild_the_writers_namespace() {
        let mut w = FailoverRecover::prepare(9, 50);
        let out = w.run();
        assert_eq!(out.failed, 0, "{}", out.fingerprint);
        w.verify().expect("recovered namespaces equal the writer's");
        let (_, full, manifest) = w.recovered.as_ref().unwrap();
        assert_eq!(full, manifest);
        // The manifest path really was a different path.
        assert!(out.fingerprint.contains("manifest_epoch: 0"));
        assert!(!out
            .fingerprint
            .split("TakeoverReport")
            .nth(2)
            .unwrap()
            .contains("manifest_epoch: 0,"));
    }

    #[test]
    fn a_corrupted_snapshot_fails_the_output_check() {
        let mut w = FailoverRecover::prepare(9, 50);
        w.run();
        let (_, full, _) = w.recovered.as_mut().unwrap();
        let victim = full.keys().next_back().unwrap().clone();
        full.remove(&victim);
        let err = w.verify().unwrap_err();
        assert!(err.contains("full-journal recovery"), "{err}");
    }

    #[test]
    fn store_copies_are_byte_identical() {
        let w = FailoverRecover::prepare(2, 50);
        let (_, full, manifest) = w.prepared.as_ref().unwrap();
        assert!(manifest.object_count() > full.object_count());
        let again = copy_store(manifest, |_| true);
        assert_eq!(again.object_count(), manifest.object_count());
        assert_eq!(again.logical_bytes(), manifest.logical_bytes());
    }
}
