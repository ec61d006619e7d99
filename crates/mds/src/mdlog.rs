//! The MDS journal ("mdlog") — the Stream durability mechanism.
//!
//! "A journal of metadata updates that streams into the resilient object
//! store. [...] The journal is striped over objects where multiple journal
//! updates can reside on the same object. There are two tunables, related
//! to groups of journal events called segments, for controlling the
//! journal: the segment size and the dispatch size (i.e. the number of
//! segments that can be dispatched at once)."
//!
//! Functionally: an event is encoded once, at submit, into the open
//! segment's frame buffer; once `dispatch_size` segments are sealed the
//! window is flushed, each segment as one append per stripe it touches plus
//! the header write ([`JournalWriter::append_frames`]). A segment leaves
//! the window only when its append is acknowledged, so a failed flush is
//! retried by the next one and drops nothing that was accepted.
//! The trimmer applies journaled updates to the object-store metadata
//! representation and logically drops them from the journal ("The metadata
//! server applies the updates in the journal to the metadata store when the
//! journal reaches a certain size").
//!
//! Timing: callers read [`MdLog::take_stats`] and charge
//! `CostModel::stream_mds_cpu_at_dispatch` per event plus object-store
//! bandwidth for flushed bytes.

use std::collections::VecDeque;

use cudele_journal::{
    trim_journal, EventRef, JournalId, JournalIoError, JournalObs, JournalWriter, Segment,
    SegmentBuilder,
};
use cudele_obs::{Counter, Registry};
use cudele_rados::ObjectStore;

use crate::error::MdsError;
use crate::persist;
use crate::store::MetadataStore;

/// Tunables for the mdlog.
#[derive(Debug, Clone, Copy)]
pub struct MdLogConfig {
    /// Events per segment (the "segment size" tunable).
    pub events_per_segment: usize,
    /// Sealed segments flushed together (the "dispatch size" tunable; the
    /// paper's recommended value is 40).
    pub dispatch_size: u32,
    /// Flushed updates accumulated before the trimmer kicks in; `None`
    /// disables trimming (most microbenchmarks run with it off so the
    /// journal survives for inspection).
    pub trim_after_updates: Option<u64>,
}

impl Default for MdLogConfig {
    fn default() -> Self {
        MdLogConfig {
            events_per_segment: SegmentBuilder::DEFAULT_EVENTS_PER_SEGMENT,
            dispatch_size: 40,
            trim_after_updates: None,
        }
    }
}

/// Counters drained by the time-accounting layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MdLogStats {
    /// Events submitted since the last drain.
    pub events: u64,
    /// Segments flushed to the object store.
    pub segments_flushed: u64,
    /// Journal bytes written to the object store (functional bytes).
    pub bytes_flushed: u64,
    /// Trim passes performed.
    pub trims: u64,
}

/// Metric handles for the mdlog, published under `mds.mdlog.*`.
///
/// Mirrors [`MdLogStats`] but accumulates into a shared
/// [`cudele_obs::Registry`] instead of being drained by the timing layer.
#[derive(Debug, Clone)]
pub struct MdLogObs {
    /// `mds.mdlog.events` — events submitted.
    pub events: Counter,
    /// `mds.mdlog.segments_flushed` — segments flushed to the object store.
    pub segments_flushed: Counter,
    /// `mds.mdlog.bytes_flushed` — functional journal bytes written.
    pub bytes_flushed: Counter,
    /// `mds.mdlog.trims` — trim passes performed.
    pub trims: Counter,
    /// Handles for the transient [`JournalWriter`]s the flush path opens.
    pub writer: JournalObs,
}

impl MdLogObs {
    /// Creates (or re-binds) the `mds.mdlog.*` metric handles on `reg`.
    pub fn attach(reg: &Registry) -> MdLogObs {
        MdLogObs {
            events: reg.counter("mds.mdlog.events"),
            segments_flushed: reg.counter("mds.mdlog.segments_flushed"),
            bytes_flushed: reg.counter("mds.mdlog.bytes_flushed"),
            trims: reg.counter("mds.mdlog.trims"),
            writer: JournalObs::attach(reg),
        }
    }
}

/// The MDS journal.
pub struct MdLog {
    config: MdLogConfig,
    id: JournalId,
    builder: SegmentBuilder,
    sealed: VecDeque<Segment>,
    /// Events in `sealed` (boundary markers included).
    sealed_events: u64,
    /// Updates flushed since the last trim (drives the trim threshold).
    updates_since_trim: u64,
    /// Total events (updates + boundary markers) flushed since the last
    /// trim — exactly the journal prefix a trim may skip.
    flushed_events_since_trim: u64,
    stats: MdLogStats,
    obs: Option<MdLogObs>,
    /// Virtual-clock hint from the server (see [`MdLog::set_now`]),
    /// forwarded to the transient journal writers the flush path opens.
    now: cudele_sim::Nanos,
}

impl MdLog {
    /// An mdlog writing to the canonical CephFS journal id.
    pub fn new(config: MdLogConfig) -> MdLog {
        MdLog::with_id(config, JournalId::MDLOG)
    }

    /// An mdlog writing to a custom journal id.
    pub fn with_id(config: MdLogConfig, id: JournalId) -> MdLog {
        MdLog {
            builder: SegmentBuilder::new(config.events_per_segment),
            config,
            id,
            sealed: VecDeque::new(),
            sealed_events: 0,
            updates_since_trim: 0,
            flushed_events_since_trim: 0,
            stats: MdLogStats::default(),
            obs: None,
            now: cudele_sim::Nanos::ZERO,
        }
    }

    /// The mdlog a recovered server resumes with — the shape both recovery
    /// paths install: default segment size, the configured dispatch size,
    /// trimmer off (the persisted stripes stay as they are).
    pub(crate) fn after_recovery(dispatch_size: u32, id: JournalId) -> MdLog {
        MdLog::with_id(
            MdLogConfig {
                dispatch_size,
                ..MdLogConfig::default()
            },
            id,
        )
    }

    /// Points the mdlog's metric handles at `reg` (`mds.mdlog.*`).
    pub fn set_obs(&mut self, reg: &Registry) {
        self.obs = Some(MdLogObs::attach(reg));
    }

    /// Sets the virtual-clock hint stamped on the flush path's windowed
    /// samples (the mdlog has no clock of its own — the serving MDS does).
    pub fn set_now(&mut self, now: cudele_sim::Nanos) {
        self.now = now;
    }

    /// The journal id this mdlog writes.
    pub fn journal_id(&self) -> JournalId {
        self.id
    }

    /// The configured dispatch size.
    pub fn dispatch_size(&self) -> u32 {
        self.config.dispatch_size
    }

    /// Whether the trimmer is configured. Checkpointing requires it off:
    /// the checkpoint manifest records high-water marks in the journal's
    /// logical coordinates, which trimming would shift.
    pub fn trim_enabled(&self) -> bool {
        self.config.trim_after_updates.is_some()
    }

    /// Events flushed to the object store by this mdlog instance (updates
    /// plus boundary markers). Drives the checkpoint interval gate.
    pub fn flushed_events(&self) -> u64 {
        self.flushed_events_since_trim
    }

    /// Submits one event. If this seals enough segments to fill the
    /// dispatch window, the window is flushed to the object store.
    pub fn submit<'a, S: ObjectStore + ?Sized>(
        &mut self,
        os: &S,
        event: impl Into<EventRef<'a>>,
    ) -> Result<(), JournalIoError> {
        self.stats.events += 1;
        if let Some(obs) = &self.obs {
            obs.events.inc();
        }
        if let Some(seg) = self.builder.push(event) {
            self.sealed_events += seg.events;
            self.sealed.push_back(seg);
        }
        if self.sealed.len() >= self.config.dispatch_size as usize {
            self.flush_window(os)?;
        }
        Ok(())
    }

    /// Flushes all sealed segments and any partial segment — called on
    /// clean shutdown and before recovery checks.
    pub fn flush<S: ObjectStore + ?Sized>(&mut self, os: &S) -> Result<(), JournalIoError> {
        if let Some(seg) = self.builder.flush() {
            self.sealed_events += seg.events;
            self.sealed.push_back(seg);
        }
        self.flush_window(os)
    }

    fn flush_window<S: ObjectStore + ?Sized>(&mut self, os: &S) -> Result<(), JournalIoError> {
        if self.sealed.is_empty() {
            return Ok(());
        }
        let mut writer = JournalWriter::open(os, self.id)?;
        if let Some(obs) = &self.obs {
            writer.set_obs(obs.writer.clone());
            writer.set_now(self.now);
        }
        // A segment stays queued until its append is acknowledged: its
        // events were accepted, so a failed flush leaves it for the next.
        while let Some(seg) = self.sealed.front() {
            let bytes = writer.append_frames(&seg.frames)?;
            self.stats.bytes_flushed += bytes;
            self.stats.segments_flushed += 1;
            if let Some(obs) = &self.obs {
                obs.bytes_flushed.add(bytes);
                obs.segments_flushed.inc();
            }
            self.updates_since_trim += seg.updates;
            self.flushed_events_since_trim += seg.events;
            self.sealed_events -= seg.events;
            self.sealed.pop_front();
        }
        Ok(())
    }

    /// Runs the trimmer if the flushed-update threshold is exceeded:
    /// persists the current in-memory store to its object representation
    /// and logically drops the journal prefix it covers. A store the
    /// persister cannot write out — the object store failing, or a dangling
    /// dentry an ill-formed client journal merged in — is the serving
    /// path's `EIO`, classified like every other store failure there.
    pub fn maybe_trim<S: ObjectStore + ?Sized>(
        &mut self,
        os: &S,
        store: &MetadataStore,
    ) -> crate::Result<bool> {
        let Some(threshold) = self.config.trim_after_updates else {
            return Ok(false);
        };
        if self.updates_since_trim < threshold {
            return Ok(false);
        }
        persist::flush_store(store, os, self.id.pool)
            .map_err(|e| MdsError::from_store("journal append", &e))?;
        // Everything flushed so far is covered by the persisted image, so
        // replay may skip exactly that journal prefix.
        trim_journal(os, self.id, self.flushed_events_since_trim)
            .map_err(|e| MdsError::from_store("journal append", &e))?;
        self.updates_since_trim = 0;
        self.flushed_events_since_trim = 0;
        self.stats.trims += 1;
        if let Some(obs) = &self.obs {
            obs.trims.inc();
        }
        Ok(true)
    }

    /// Events buffered (sealed or partial) but not yet in the object store
    /// — these are what a crash loses before Stream flushes them.
    pub fn unflushed_events(&self) -> u64 {
        self.sealed_events + self.builder.pending() as u64
    }

    /// Drains the accumulated counters.
    pub fn take_stats(&mut self) -> MdLogStats {
        std::mem::take(&mut self.stats)
    }

    /// Peeks at the counters without draining.
    pub fn stats(&self) -> MdLogStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudele_journal::{read_journal, Attrs, InodeId, JournalEvent};
    use cudele_rados::{InMemoryStore, PoolId};

    fn create(i: u64) -> JournalEvent {
        JournalEvent::Create {
            parent: InodeId::ROOT,
            name: format!("f{i}"),
            ino: InodeId(0x1000 + i),
            attrs: Attrs::file_default(),
        }
    }

    fn config(seg: usize, dispatch: u32) -> MdLogConfig {
        MdLogConfig {
            events_per_segment: seg,
            dispatch_size: dispatch,
            trim_after_updates: None,
        }
    }

    #[test]
    fn flushes_when_dispatch_window_fills() {
        let os = InMemoryStore::paper_default();
        let mut log = MdLog::new(config(4, 2));
        // 7 events: one sealed segment (4), 3 pending. Nothing flushed yet.
        for i in 0..7 {
            log.submit(&os, &create(i)).unwrap();
        }
        assert_eq!(log.stats().segments_flushed, 0);
        assert_eq!(log.unflushed_events(), 5 + 3); // 4 events + boundary, 3 pending
                                                   // 8th event seals segment 2 -> window of 2 flushes.
        log.submit(&os, &create(7)).unwrap();
        assert_eq!(log.stats().segments_flushed, 2);
        assert_eq!(log.unflushed_events(), 0);
        let persisted = read_journal(&os, JournalId::MDLOG).unwrap();
        assert_eq!(persisted.iter().filter(|e| e.is_update()).count(), 8);
    }

    /// The unit of I/O is the segment, not the event: a default dispatch
    /// window (40 × 1 024 events) costs a few store operations per segment.
    /// `scripts/bench_wallclock.py --check-only` holds the traced
    /// benchmark's `rados.store.calls` to the same bound.
    #[test]
    fn a_dispatch_window_costs_store_ops_per_segment_not_per_event() {
        let os = InMemoryStore::paper_default();
        let mut log = MdLog::new(MdLogConfig::default());
        for i in 0..40 * 1024 {
            log.submit(&os, &create(i)).unwrap();
        }
        assert_eq!(log.stats().segments_flushed, 40);
        assert_eq!(log.unflushed_events(), 0);
        let ops = os.take_io_delta().ops();
        assert!(ops <= 4 * 40 + 8, "{ops} store operations for 40 segments");
    }

    #[test]
    fn final_flush_covers_partial_segment() {
        let os = InMemoryStore::paper_default();
        let mut log = MdLog::new(config(100, 40));
        for i in 0..5 {
            log.submit(&os, &create(i)).unwrap();
        }
        assert_eq!(log.stats().segments_flushed, 0);
        log.flush(&os).unwrap();
        assert_eq!(log.stats().segments_flushed, 1);
        let persisted = read_journal(&os, JournalId::MDLOG).unwrap();
        assert_eq!(persisted.iter().filter(|e| e.is_update()).count(), 5);
    }

    #[test]
    fn stats_drain() {
        let os = InMemoryStore::paper_default();
        let mut log = MdLog::new(config(2, 1));
        for i in 0..4 {
            log.submit(&os, &create(i)).unwrap();
        }
        let s = log.take_stats();
        assert_eq!(s.events, 4);
        assert_eq!(s.segments_flushed, 2);
        assert!(s.bytes_flushed > 0);
        assert_eq!(log.stats(), MdLogStats::default());
    }

    #[test]
    fn trim_persists_store_and_drops_prefix() {
        let os = InMemoryStore::paper_default();
        let mut log = MdLog::new(MdLogConfig {
            events_per_segment: 4,
            dispatch_size: 1,
            trim_after_updates: Some(8),
        });
        let mut ms = MetadataStore::new();
        for i in 0..12 {
            let e = create(i);
            ms.apply_checked(&e).unwrap();
            log.submit(&os, &e).unwrap();
        }
        let trimmed = log.maybe_trim(&os, &ms).unwrap();
        assert!(trimmed);
        assert_eq!(log.stats().trims, 1);
        // After trim, replaying (persisted image + remaining journal) must
        // reconstruct the full namespace.
        let mut recovered = persist::load_store(&os, PoolId::METADATA).unwrap();
        for e in read_journal(&os, JournalId::MDLOG).unwrap() {
            recovered.apply_blind(&e);
        }
        assert_eq!(recovered.snapshot(), ms.snapshot());
        // Not all 12 updates remain in the journal.
        let rest = read_journal(&os, JournalId::MDLOG).unwrap();
        assert!(rest.iter().filter(|e| e.is_update()).count() < 12);
    }

    #[test]
    fn obs_mirrors_stats() {
        let os = InMemoryStore::paper_default();
        let reg = Registry::new();
        let mut log = MdLog::new(config(2, 1));
        log.set_obs(&reg);
        for i in 0..4 {
            log.submit(&os, &create(i)).unwrap();
        }
        let s = log.stats();
        assert_eq!(reg.counter_value("mds.mdlog.events"), Some(s.events));
        assert_eq!(
            reg.counter_value("mds.mdlog.segments_flushed"),
            Some(s.segments_flushed)
        );
        assert_eq!(
            reg.counter_value("mds.mdlog.bytes_flushed"),
            Some(s.bytes_flushed)
        );
        // The transient writers the flush path opens report too.
        assert!(reg.counter_value("journal.writer.appends").unwrap() > 0);
    }

    #[test]
    fn trim_disabled_by_default() {
        let os = InMemoryStore::paper_default();
        let mut log = MdLog::new(MdLogConfig::default());
        let ms = MetadataStore::new();
        for i in 0..10 {
            log.submit(&os, &create(i)).unwrap();
        }
        assert!(!log.maybe_trim(&os, &ms).unwrap());
    }
}
