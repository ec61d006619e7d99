//! MDS failover: beacon-based failure detection, epoch fencing, and
//! standby-replay takeover.
//!
//! CephFS keeps the metadata service available through a monitor-driven
//! protocol: the active MDS sends beacons, the monitor declares it failed
//! after `mds_beacon_grace` without one, bumps the MDS epoch (the MDSMap
//! version), and promotes a standby that finishes replaying the mdlog.
//! OSDs blocklist the old epoch so a zombie primary cannot corrupt the
//! metadata pool. This module reproduces that machinery on the virtual
//! clock:
//!
//! * [`FailoverMonitor`] — per-cluster failure detector. Beacons arrive on
//!   the simulated clock; [`FailoverMonitor::check`] declares the active
//!   MDS dead once the grace expires and bumps the shared
//!   [`FencingAuthority`], which instantly fences every store handle
//!   stamped with the old epoch.
//! * [`StandbyReplay`] — tails the persisted mdlog so a takeover only has
//!   to finish replay. Takeover recovers the namespace the way a restart
//!   does (newest loadable checkpoint or the persisted image, then the
//!   journal tail — cut back to its valid prefix when it is damaged — then
//!   the inode-allocator watermark from the journaled range grants) and
//!   assembles a fresh [`MetadataServer`] writing through a [`FencedStore`]
//!   stamped with the new epoch.
//! * [`MdsCluster`] — the deterministic harness tying detector, active,
//!   zombie, and standby together for tests and `mdbench` fault drills.
//!
//! Everything is driven by explicit virtual-time steps: given the same
//! crash schedule and the same workload, two runs produce byte-identical
//! journals, identical epochs, and identical failover reports.

use std::sync::Arc;

use cudele_journal::{JournalId, JournalTool};
use cudele_obs::{Counter, Histogram, Registry};
use cudele_rados::{Epoch, FencedStore, FencingAuthority, ObjectStore, PoolId};
use cudele_sim::{CostModel, Nanos};

use crate::checkpoint::CheckpointConfig;
use crate::error::{MdsError, Result};
use crate::mdlog::{MdLog, MdLogConfig};
use crate::server::{recover_namespace, MetadataServer};

/// Failure-detection and takeover tunables, in virtual time. The defaults
/// mirror Ceph's (`mds_beacon_interval` 4 s, `mds_beacon_grace` 15 s)
/// scaled 1000x down so failover drills stay inside millisecond-scale
/// simulations.
#[derive(Debug, Clone, Copy)]
pub struct FailoverConfig {
    /// How often the active MDS beacons the monitor.
    pub beacon_interval: Nanos,
    /// `mds_beacon_grace`: how long the monitor waits without a beacon
    /// before declaring the active MDS failed.
    pub beacon_grace: Nanos,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            beacon_interval: Nanos::from_micros(4000),
            beacon_grace: Nanos::from_millis(15),
        }
    }
}

/// The monitor's verdict when the grace expires: the old epoch is fenced
/// and a takeover at `new_epoch` must begin.
#[derive(Debug, Clone, Copy)]
pub struct FailoverDecision {
    /// The epoch the replacement MDS will write at (already installed in
    /// the [`FencingAuthority`], so the old primary is fenced from this
    /// instant).
    pub new_epoch: Epoch,
    /// When the monitor last heard from the failed MDS.
    pub last_beacon: Nanos,
    /// When the grace expired and the failure was declared.
    pub detected_at: Nanos,
}

impl FailoverDecision {
    /// Time from the last successful beacon to the declaration — the
    /// failure-detection latency (lower-bounded by the beacon grace).
    pub fn detection_latency(&self) -> Nanos {
        self.detected_at - self.last_beacon
    }
}

struct MonitorObs {
    failovers: Counter,
    detection_ns: Histogram,
}

/// Monitor-side failure detector for one active MDS rank.
///
/// Deliberately small: it knows nothing about the MDS besides beacon
/// arrival times, and its only authority is bumping the epoch in the
/// shared [`FencingAuthority`] — exactly the monitor/OSD split that makes
/// fencing safe in Ceph (detection can be wrong; fencing makes a wrong
/// detection harmless rather than corrupting).
pub struct FailoverMonitor {
    config: FailoverConfig,
    authority: Arc<FencingAuthority>,
    last_beacon: Nanos,
    /// Whether the monitor currently believes the active MDS is alive.
    active_up: bool,
    failovers: u64,
    obs: Option<MonitorObs>,
}

impl FailoverMonitor {
    /// A detector over the cluster's fencing authority. The active MDS is
    /// presumed alive with a beacon at time zero.
    pub fn new(config: FailoverConfig, authority: Arc<FencingAuthority>) -> FailoverMonitor {
        FailoverMonitor {
            config,
            authority,
            last_beacon: Nanos::ZERO,
            active_up: true,
            failovers: 0,
            obs: None,
        }
    }

    /// Publishes `monitor.failovers` and `monitor.detection_ns` on `reg`.
    pub fn attach_obs(&mut self, reg: &Arc<Registry>) {
        self.obs = Some(MonitorObs {
            failovers: reg.counter("monitor.failovers"),
            detection_ns: reg.histogram("monitor.detection_ns"),
        });
    }

    /// Records a beacon from the active MDS at `now`.
    pub fn beacon(&mut self, now: Nanos) {
        if self.active_up {
            self.last_beacon = self.last_beacon.max(now);
        }
    }

    /// Evaluates the grace at `now`. Returns a decision exactly once per
    /// failure: the epoch is bumped here, so by the time the caller sees
    /// the decision the old primary is already fenced.
    pub fn check(&mut self, now: Nanos) -> Option<FailoverDecision> {
        if !self.active_up || now <= self.last_beacon {
            return None;
        }
        let silent_for = now - self.last_beacon;
        if silent_for <= self.config.beacon_grace {
            return None;
        }
        self.active_up = false;
        self.failovers += 1;
        let new_epoch = self.authority.bump();
        if let Some(o) = &self.obs {
            o.failovers.inc();
            o.detection_ns.record(silent_for.0);
        }
        Some(FailoverDecision {
            new_epoch,
            last_beacon: self.last_beacon,
            detected_at: now,
        })
    }

    /// Marks the takeover finished: the new active MDS counts as beaconing
    /// from `now`.
    pub fn takeover_complete(&mut self, now: Nanos) {
        self.active_up = true;
        self.last_beacon = now;
    }

    /// When the monitor last heard a beacon.
    pub fn last_beacon(&self) -> Nanos {
        self.last_beacon
    }

    /// Whether the monitor currently believes the active MDS is alive.
    pub fn active_up(&self) -> bool {
        self.active_up
    }

    /// Failures declared so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }
}

/// What a completed takeover looked like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TakeoverReport {
    /// The epoch the new primary writes at.
    pub epoch: Epoch,
    /// Journal events replayed on top of the persisted image (with a
    /// checkpoint manifest: only the tail past its high-water mark).
    pub replayed_events: u64,
    /// Whether the journal was damaged and its corrupt region had to be
    /// erased (lossy recovery).
    pub healed: bool,
    /// The rebuilt inode-allocator watermark — every pre-crash grant sits
    /// below it, so post-failover allocations cannot collide.
    pub alloc_watermark: cudele_journal::InodeId,
    /// The checkpoint manifest epoch recovery loaded (0 = no manifest;
    /// takeover replayed the full journal).
    pub manifest_epoch: u64,
    /// Events materialized from the manifest's image — the checkpointed
    /// share of the rebuild, proportional to namespace size rather than
    /// workload length.
    pub checkpoint_events: u64,
    /// Manifest epochs the recovery ladder had to fall back past because
    /// a checkpoint object was damaged.
    pub manifest_fallbacks: u64,
}

/// A standby MDS in replay: it follows the persisted mdlog so takeover
/// only has to finish the tail ("standby-replay" in CephFS terms).
///
/// The standby reads through the *raw* store handle — fencing only gates
/// writes, so a standby at no particular epoch can tail the journal while
/// the active MDS is still writing it.
pub struct StandbyReplay {
    base: Arc<dyn ObjectStore>,
    authority: Arc<FencingAuthority>,
    cost: CostModel,
    mdlog_config: Option<MdLogConfig>,
    /// When set, the promoted primary keeps checkpointing at this
    /// configuration (and takeover itself recovers through the manifest).
    checkpoint_config: Option<CheckpointConfig>,
    journal_id: JournalId,
    pool: PoolId,
    /// Journal events observed by the last catch-up pass.
    replayed_events: u64,
    obs: Option<Arc<Registry>>,
}

impl StandbyReplay {
    /// A standby over the cluster's shared object store.
    pub fn new(
        base: Arc<dyn ObjectStore>,
        authority: Arc<FencingAuthority>,
        cost: CostModel,
        mdlog_config: Option<MdLogConfig>,
    ) -> StandbyReplay {
        StandbyReplay {
            base,
            authority,
            cost,
            mdlog_config,
            checkpoint_config: None,
            journal_id: JournalId::MDLOG,
            pool: PoolId::METADATA,
            replayed_events: 0,
            obs: None,
        }
    }

    /// Makes servers assembled by takeover continue checkpointing at
    /// `config`. Takeover recovers through the manifest whenever one
    /// exists regardless of this setting.
    pub fn set_checkpoint_config(&mut self, config: CheckpointConfig) {
        self.checkpoint_config = Some(config);
    }

    /// Publishes `mds.standby.*` metrics on `reg` and cascades the
    /// registry to servers assembled by takeover.
    pub fn attach_obs(&mut self, reg: &Arc<Registry>) {
        self.obs = Some(Arc::clone(reg));
    }

    /// One tailing pass: re-scans the persisted mdlog and records how many
    /// events a takeover right now would replay. Uses the non-mutating
    /// journal-tool inspection — a standby must not write, so a damaged
    /// tail is counted (recoverable prefix only), never healed here.
    pub fn catch_up(&mut self) -> Result<u64> {
        let summary = JournalTool::new(self.base.as_ref(), self.journal_id)
            .inspect()
            .map_err(|e| MdsError::from_store("mdlog inspect", &e))?;
        self.replayed_events = summary.events;
        if let Some(reg) = &self.obs {
            reg.counter("mds.standby.catchups").inc();
        }
        Ok(self.replayed_events)
    }

    /// Events the last [`StandbyReplay::catch_up`] pass could see.
    pub fn replayed_events(&self) -> u64 {
        self.replayed_events
    }

    /// Completes replay and assembles the replacement primary at `epoch`.
    ///
    /// Namespace and allocator come from
    /// `server::recover_namespace` — the same fold in-place
    /// [`MetadataServer::crash_and_recover`] runs, so the two recovery
    /// paths cannot diverge — reading through the raw store and healing a
    /// damaged journal through the new epoch's fenced handle. The returned
    /// server writes through that same [`FencedStore`]: if it is itself
    /// superseded later, its writes die at the store like any other
    /// zombie's.
    pub fn take_over(&mut self, epoch: Epoch) -> Result<(MetadataServer, TakeoverReport)> {
        // Every takeover write — including a journal heal — goes through
        // a fenced handle stamped with the new epoch.
        let fenced: Arc<dyn ObjectStore> = Arc::new(FencedStore::with_epoch(
            Arc::clone(&self.base),
            Arc::clone(&self.authority),
            epoch,
        ));
        let rec = recover_namespace(
            self.base.as_ref(),
            fenced.as_ref(),
            self.pool,
            self.journal_id,
        )?;
        let report = TakeoverReport {
            epoch,
            replayed_events: rec.replayed_events,
            healed: rec.healed,
            alloc_watermark: rec.alloc.watermark(),
            manifest_epoch: rec.manifest.as_ref().map_or(0, |m| m.epoch),
            checkpoint_events: rec.checkpoint_events,
            manifest_fallbacks: rec.fallbacks,
        };
        self.replayed_events = report.replayed_events;
        if let Some(reg) = &self.obs {
            reg.counter("mds.failover.takeovers").inc();
            reg.counter("mds.failover.replayed_events")
                .add(report.replayed_events);
            if report.healed {
                reg.counter("mds.failover.healed").inc();
            }
            rec.publish(reg);
        }
        let mdlog = self
            .mdlog_config
            .map(|cfg| MdLog::after_recovery(cfg.dispatch_size, self.journal_id));
        let mut server = MetadataServer::from_parts(
            fenced,
            self.cost.clone(),
            mdlog,
            rec.store,
            rec.alloc,
            epoch,
        );
        if let Some(cfg) = self.checkpoint_config {
            if server.journal_enabled() {
                server.enable_checkpoints(cfg)?;
                // The manifest recovery actually used (possibly a fallback
                // epoch), not whatever the stored HEAD says.
                server.resume_checkpoints(rec.manifest, rec.head_version, rec.replayed_events);
            }
        }
        if let Some(reg) = &self.obs {
            server.attach_obs(reg);
        }
        Ok((server, report))
    }
}

/// One completed failover as the cluster harness saw it.
#[derive(Debug, Clone, Copy)]
pub struct FailoverReport {
    /// The monitor's decision (epoch, beacon timing).
    pub decision: FailoverDecision,
    /// What the standby replayed.
    pub takeover: TakeoverReport,
    /// When the new primary started serving, on the virtual clock:
    /// detection plus the replay time (charged per replayed event at the
    /// Volatile Apply rate — replay *is* a blind apply of the journal).
    pub completed_at: Nanos,
}

/// A deterministic one-active/one-standby MDS cluster on the virtual
/// clock: beacons on a fixed grid, monitor checks after every beacon
/// slot, fenced takeover when the grace expires.
///
/// The harness owns the zombie: after a takeover the failed instance is
/// kept (in-memory state intact, store handle fenced at its old epoch) so
/// chaos tests can drive stale writes through it and assert they die at
/// the object store.
pub struct MdsCluster {
    config: FailoverConfig,
    cost: CostModel,
    mdlog_config: Option<MdLogConfig>,
    checkpoint_config: Option<CheckpointConfig>,
    base: Arc<dyn ObjectStore>,
    authority: Arc<FencingAuthority>,
    monitor: FailoverMonitor,
    active: MetadataServer,
    zombie: Option<MetadataServer>,
    now: Nanos,
    next_beacon: Nanos,
    obs: Option<Arc<Registry>>,
    reports: Vec<FailoverReport>,
}

impl MdsCluster {
    /// A cluster over `base`, with the active MDS writing through a
    /// fenced handle at the initial epoch.
    pub fn new(
        base: Arc<dyn ObjectStore>,
        cost: CostModel,
        mdlog_config: Option<MdLogConfig>,
        config: FailoverConfig,
    ) -> MdsCluster {
        let authority = Arc::new(FencingAuthority::new());
        let fenced: Arc<dyn ObjectStore> =
            Arc::new(FencedStore::new(Arc::clone(&base), Arc::clone(&authority)));
        let active = MetadataServer::with_config(fenced, cost.clone(), mdlog_config);
        let monitor = FailoverMonitor::new(config, Arc::clone(&authority));
        MdsCluster {
            config,
            cost,
            mdlog_config,
            checkpoint_config: None,
            base,
            authority,
            monitor,
            active,
            zombie: None,
            now: Nanos::ZERO,
            next_beacon: config.beacon_interval,
            obs: None,
            reports: Vec::new(),
        }
    }

    /// Turns on checkpointing for the active MDS and every primary
    /// promoted by future takeovers.
    pub fn enable_checkpoints(&mut self, config: CheckpointConfig) -> Result<()> {
        self.active.enable_checkpoints(config)?;
        self.checkpoint_config = Some(config);
        Ok(())
    }

    /// Attaches a registry to the whole cluster: active server, monitor,
    /// and every server assembled by future takeovers.
    pub fn attach_obs(&mut self, reg: &Arc<Registry>) {
        self.active.attach_obs(reg);
        self.monitor.attach_obs(reg);
        self.obs = Some(Arc::clone(reg));
    }

    /// The serving primary.
    pub fn active(&self) -> &MetadataServer {
        &self.active
    }

    /// Mutable access to the serving primary (drive RPCs through this).
    pub fn active_mut(&mut self) -> &mut MetadataServer {
        &mut self.active
    }

    /// The fenced old primary from the most recent failover, if any.
    pub fn zombie_mut(&mut self) -> Option<&mut MetadataServer> {
        self.zombie.as_mut()
    }

    /// The cluster's current epoch.
    pub fn epoch(&self) -> Epoch {
        self.authority.current()
    }

    /// The shared fencing authority.
    pub fn authority(&self) -> &Arc<FencingAuthority> {
        &self.authority
    }

    /// The raw (unfenced) object store underneath the cluster.
    pub fn base_store(&self) -> Arc<dyn ObjectStore> {
        Arc::clone(&self.base)
    }

    /// The monitor (grace inspection in tests).
    pub fn monitor(&self) -> &FailoverMonitor {
        &self.monitor
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Completed failovers, oldest first.
    pub fn reports(&self) -> &[FailoverReport] {
        &self.reports
    }

    /// Crashes the active MDS at the current instant: it stops beaconing
    /// and starts timing out RPCs. Nothing else happens until the beacon
    /// grace expires during [`MdsCluster::advance_to`].
    pub fn crash_active(&mut self) {
        self.active.fail();
        if let Some(reg) = &self.obs {
            reg.timeline().annotate(
                "mds.crash",
                self.now,
                &format!("epoch {} active down", self.authority.current().0),
            );
        }
    }

    /// Advances virtual time to `t`, delivering beacons on the interval
    /// grid and running the monitor check after each slot. A grace expiry
    /// inside the window triggers a full takeover: epoch bump (fencing the
    /// old primary), standby replay, and promotion. Deterministic: the
    /// same crash schedule always fails over at the same grid instant.
    pub fn advance_to(&mut self, t: Nanos) -> Result<()> {
        while self.next_beacon <= t {
            let slot = self.next_beacon;
            if self.active.is_up() {
                self.monitor.beacon(slot);
            }
            if let Some(decision) = self.monitor.check(slot) {
                self.fail_over(decision)?;
            }
            self.next_beacon += self.config.beacon_interval;
        }
        self.now = self.now.max(t);
        Ok(())
    }

    /// Runs the takeover for `decision`: promotes a standby built from the
    /// persisted image + journal, retires the old primary as a fenced
    /// zombie, and records spans/metrics.
    fn fail_over(&mut self, decision: FailoverDecision) -> Result<()> {
        let mut standby = StandbyReplay::new(
            Arc::clone(&self.base),
            Arc::clone(&self.authority),
            self.cost.clone(),
            self.mdlog_config,
        );
        if let Some(cfg) = self.checkpoint_config {
            standby.set_checkpoint_config(cfg);
        }
        if let Some(reg) = &self.obs {
            standby.attach_obs(reg);
        }
        let (server, takeover) = standby.take_over(decision.new_epoch)?;
        // Replay is a blind apply of the journal: charge it at the
        // Volatile Apply per-event rate to place takeover completion on
        // the virtual clock. With a manifest, the materialized image
        // events are charged the same way — that is the bounded recovery
        // cost, flat in workload length.
        let replay_time = self.cost.volatile_apply_per_event
            * (takeover.checkpoint_events + takeover.replayed_events);
        let completed_at = decision.detected_at + replay_time;
        let report = FailoverReport {
            decision,
            takeover,
            completed_at,
        };
        if let Some(reg) = &self.obs {
            let root = reg.trace_root(90);
            reg.child_span(
                root,
                "failover.detect",
                "mds",
                decision.last_beacon,
                decision.detection_latency(),
            );
            reg.child_span(
                root,
                "failover.replay",
                "mds",
                decision.detected_at,
                replay_time,
            );
            reg.end_span(
                root,
                "failover",
                "mds",
                decision.last_beacon,
                completed_at - decision.last_beacon,
            );
            // The detect→takeover transient as timeline markers, so the
            // windowed series can be read against the failover phases.
            let tl = reg.timeline();
            tl.annotate(
                "mds.failover.detected",
                decision.detected_at,
                &format!(
                    "epoch {} after {}ns grace",
                    decision.new_epoch.0,
                    decision.detection_latency().0
                ),
            );
            tl.annotate(
                "mds.failover.takeover",
                completed_at,
                &format!(
                    "epoch {} replayed {} events ({} from checkpoint)",
                    decision.new_epoch.0,
                    report.takeover.replayed_events,
                    report.takeover.checkpoint_events
                ),
            );
        }
        let zombie = std::mem::replace(&mut self.active, server);
        self.zombie = Some(zombie);
        // The promoted MDS beacons from the moment it is chosen (CephFS
        // standbys beacon throughout up:replay), not from replay
        // completion — resuming the monitor at `completed_at` would leap
        // `last_beacon` past the grid and mask any failure that happens
        // while replay time is still being charged.
        self.monitor.takeover_complete(decision.detected_at);
        self.reports.push(report);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caps::ClientId;
    use cudele_rados::InMemoryStore;

    const C1: ClientId = ClientId(1);

    fn small_mdlog() -> MdLogConfig {
        MdLogConfig {
            events_per_segment: 8,
            dispatch_size: 2,
            trim_after_updates: None,
        }
    }

    fn cluster() -> MdsCluster {
        MdsCluster::new(
            Arc::new(InMemoryStore::paper_default()),
            CostModel::calibrated(),
            Some(small_mdlog()),
            FailoverConfig::default(),
        )
    }

    #[test]
    fn beacons_keep_the_primary_alive() {
        let mut c = cluster();
        c.advance_to(Nanos::from_millis(100)).unwrap();
        assert_eq!(c.epoch(), Epoch::INITIAL);
        assert!(c.reports().is_empty());
        assert!(c.monitor().active_up());
    }

    #[test]
    fn grace_expiry_fails_over_and_bumps_epoch() {
        let mut c = cluster();
        c.active_mut().open_session(C1);
        let dir = c.active_mut().setup_dir_durable("/work").unwrap();
        for i in 0..20 {
            c.active_mut().create(C1, dir, &format!("f{i}")).expect_ok();
        }
        c.active_mut().flush_journal();
        c.advance_to(Nanos::from_millis(10)).unwrap();
        c.crash_active();
        c.advance_to(Nanos::from_millis(60)).unwrap();
        assert_eq!(c.epoch(), Epoch(2));
        assert_eq!(c.reports().len(), 1);
        let r = c.reports()[0];
        assert!(r.decision.detection_latency() > FailoverConfig::default().beacon_grace);
        assert!(r.takeover.replayed_events >= 21);
        assert!(!r.takeover.healed);
        // The new primary serves the recovered namespace.
        c.active_mut().open_session(C1);
        assert!(c.active().store().resolve("/work").is_ok());
        let reply = c.active_mut().create(C1, dir, "after").expect_ok();
        assert!(reply.ino.0 >= r.takeover.alloc_watermark.0);
    }

    #[test]
    fn zombie_is_fenced_after_takeover() {
        let mut c = cluster();
        c.active_mut().open_session(C1);
        let dir = c.active_mut().setup_dir_durable("/z").unwrap();
        c.active_mut().create(C1, dir, "before").expect_ok();
        c.active_mut().flush_journal();
        c.crash_active();
        c.advance_to(Nanos::from_millis(60)).unwrap();
        assert_eq!(c.reports().len(), 1);
        // Resurrect the zombie process and drive writes through it. Ops
        // that only touch the buffered mdlog may "succeed" in the zombie's
        // memory, but the moment the dispatch window flushes, the append
        // dies at the fenced store.
        let zombie = c.zombie_mut().unwrap();
        zombie.restart();
        let mut fenced = false;
        for i in 0..40 {
            let r = zombie.create(C1, dir, &format!("stale{i}"));
            match r.result {
                Err(MdsError::Fenced {
                    writer: 1,
                    current: 2,
                }) => {
                    fenced = true;
                    break;
                }
                Ok(_) => {}
                other => panic!("unexpected zombie outcome: {other:?}"),
            }
        }
        assert!(fenced, "a dispatching stale write must be fenced");
        // Whatever is still buffered dies at flush, too.
        assert!(matches!(
            zombie.try_flush_journal(),
            Err(MdsError::Fenced { .. })
        ));
    }

    #[test]
    fn standby_catch_up_counts_persisted_events() {
        let os: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::paper_default());
        let authority = Arc::new(FencingAuthority::new());
        let fenced: Arc<dyn ObjectStore> =
            Arc::new(FencedStore::new(Arc::clone(&os), Arc::clone(&authority)));
        let mut mds =
            MetadataServer::with_config(fenced, CostModel::calibrated(), Some(small_mdlog()));
        mds.open_session(C1);
        let dir = mds.setup_dir_durable("/s").unwrap();
        let mut standby = StandbyReplay::new(
            Arc::clone(&os),
            Arc::clone(&authority),
            CostModel::calibrated(),
            Some(small_mdlog()),
        );
        assert_eq!(standby.catch_up().unwrap(), 0, "nothing flushed yet");
        for i in 0..10 {
            mds.create(C1, dir, &format!("f{i}")).expect_ok();
        }
        mds.flush_journal();
        let seen = standby.catch_up().unwrap();
        assert!(seen >= 11, "standby tails the flushed journal, saw {seen}");
    }

    #[test]
    fn checkpointed_takeover_replays_only_the_tail() {
        let mut c = cluster();
        c.enable_checkpoints(CheckpointConfig { interval_events: 4 })
            .unwrap();
        c.active_mut().open_session(C1);
        let dir = c.active_mut().setup_dir_durable("/ck").unwrap();
        for i in 0..200 {
            c.active_mut().create(C1, dir, &format!("f{i}")).expect_ok();
        }
        c.active_mut().flush_journal();
        c.crash_active();
        c.advance_to(Nanos::from_millis(60)).unwrap();
        let r = c.reports()[0];
        assert!(r.takeover.manifest_epoch > 0, "takeover used the manifest");
        assert!(
            r.takeover.replayed_events < 40,
            "bounded tail replay, got {}",
            r.takeover.replayed_events
        );
        assert!(r.takeover.checkpoint_events > 0);
        assert_eq!(r.takeover.manifest_fallbacks, 0);
        // The recovered namespace is complete.
        for i in 0..200 {
            assert!(c.active().store().resolve(&format!("/ck/f{i}")).is_ok());
        }
        // The promoted primary keeps checkpointing: more flushed work
        // advances the manifest epoch past what takeover resumed from.
        c.active_mut().open_session(C1);
        for i in 200..280 {
            c.active_mut().create(C1, dir, &format!("f{i}")).expect_ok();
        }
        c.active_mut().flush_journal();
        assert!(
            c.active().manifest_epoch() > r.takeover.manifest_epoch,
            "promoted primary stopped checkpointing"
        );
        // And allocations after failover never collide with recovered ones.
        let reply = c.active_mut().create(C1, dir, "fresh").expect_ok();
        assert!(reply.ino.0 >= r.takeover.alloc_watermark.0);
    }

    #[test]
    fn monitor_fires_once_per_failure() {
        let authority = Arc::new(FencingAuthority::new());
        let mut m = FailoverMonitor::new(FailoverConfig::default(), Arc::clone(&authority));
        m.beacon(Nanos::from_millis(1));
        assert!(m.check(Nanos::from_millis(10)).is_none());
        let d = m.check(Nanos::from_millis(30)).expect("grace expired");
        assert_eq!(d.new_epoch, Epoch(2));
        assert_eq!(d.last_beacon, Nanos::from_millis(1));
        // No double-fire while down.
        assert!(m.check(Nanos::from_millis(60)).is_none());
        m.takeover_complete(Nanos::from_millis(60));
        assert!(m.active_up());
        // A fresh failure fires again, at the next epoch.
        let d2 = m.check(Nanos::from_millis(90)).expect("second failure");
        assert_eq!(d2.new_epoch, Epoch(3));
        assert_eq!(m.failovers(), 2);
    }

    #[test]
    fn failover_metrics_and_spans_are_published() {
        let mut c = cluster();
        let reg = Arc::new(Registry::new());
        c.attach_obs(&reg);
        c.active_mut().open_session(C1);
        let dir = c.active_mut().setup_dir_durable("/m").unwrap();
        c.active_mut().create(C1, dir, "f").expect_ok();
        c.active_mut().flush_journal();
        c.crash_active();
        c.advance_to(Nanos::from_millis(60)).unwrap();
        assert_eq!(reg.counter_value("monitor.failovers"), Some(1));
        assert_eq!(reg.counter_value("mds.failover.takeovers"), Some(1));
        assert!(reg.counter_value("mds.failover.replayed_events").unwrap() >= 2);
        assert!(reg.histogram("monitor.detection_ns").count() == 1);
        assert!(reg.has_span("failover"));
        assert!(reg.has_span("failover.detect"));
        assert!(reg.has_span("failover.replay"));
    }
}
