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
//! The mdlog never folds or drops what it wrote: the checkpoint
//! ([`crate::checkpoint`]) is the one fold of the journal into the metadata
//! store, and its manifest is what bounds recovery. An event's index in the
//! journal is therefore its physical position.
//!
//! Counting: attached handles ([`MdLog::set_obs`]) count events,
//! flushed segments and flushed bytes under `mds.mdlog.*`; the mdlog keeps
//! no second account. Timing is the cost model's
//! (`CostModel::stream_mds_cpu_at_dispatch` per event).

use std::collections::VecDeque;
use std::sync::Arc;

use cudele_journal::{
    EventRef, JournalId, JournalIoError, JournalObs, JournalWriter, Segment, SegmentBuilder,
};
use cudele_obs::{Counter, Registry};
use cudele_rados::ObjectStore;

/// Tunables for the mdlog.
#[derive(Debug, Clone, Copy)]
pub struct MdLogConfig {
    /// Events per segment (the "segment size" tunable).
    pub events_per_segment: usize,
    /// Sealed segments flushed together (the "dispatch size" tunable; the
    /// paper's recommended value is 40).
    pub dispatch_size: u32,
    /// Must be `None`: the journal is folded only by checkpoints
    /// ([`crate::CheckpointConfig`]), and [`MdLog::with_id`] refuses
    /// `Some`. Kept only while the benchmark crate's failover workload
    /// still names it in a struct literal.
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

cudele_obs::handles! {
    /// Metric handles for the mdlog, published under `mds.mdlog.*` in a
    /// shared [`cudele_obs::Registry`], with the `journal.writer.*` ones the
    /// flush path's writers count on.
    #[derive(Debug)]
    pub struct MdLogObs(reg: &Arc<Registry>) {
        /// `mds.mdlog.events` — events submitted.
        pub events: Counter = reg.counter("mds.mdlog.events"),
        /// `mds.mdlog.segments_flushed` — segments flushed to the object
        /// store.
        pub segments_flushed: Counter = reg.counter("mds.mdlog.segments_flushed"),
        /// `mds.mdlog.bytes_flushed` — functional journal bytes written.
        pub bytes_flushed: Counter = reg.counter("mds.mdlog.bytes_flushed"),
        /// Handles for the transient [`JournalWriter`]s the flush path
        /// opens.
        pub writer: JournalObs = JournalObs::new(reg),
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
    /// Events (updates + boundary markers) this instance has flushed.
    flushed_events: u64,
    obs: Option<MdLogObs>,
}

impl MdLog {
    /// An mdlog writing to the canonical CephFS journal id.
    pub fn new(config: MdLogConfig) -> MdLog {
        MdLog::with_id(config, JournalId::MDLOG)
    }

    /// An mdlog writing to a custom journal id. Panics if
    /// `config.trim_after_updates` is `Some`.
    pub fn with_id(config: MdLogConfig, id: JournalId) -> MdLog {
        assert!(
            config.trim_after_updates.is_none(),
            "the mdlog has no trimmer: checkpoints fold the journal and bound recovery"
        );
        MdLog {
            builder: SegmentBuilder::new(config.events_per_segment),
            config,
            id,
            sealed: VecDeque::new(),
            sealed_events: 0,
            flushed_events: 0,
            obs: None,
        }
    }

    /// Counts the mdlog's events and flushes on `obs`.
    pub fn set_obs(&mut self, obs: MdLogObs) {
        self.obs = Some(obs);
    }

    /// The journal id this mdlog writes.
    pub fn journal_id(&self) -> JournalId {
        self.id
    }

    /// The configuration this mdlog was built with; a recovered server
    /// rebuilds its mdlog from it.
    pub fn config(&self) -> MdLogConfig {
        self.config
    }

    /// Events flushed to the object store by this mdlog instance (updates
    /// plus boundary markers). Drives the checkpoint interval gate.
    pub fn flushed_events(&self) -> u64 {
        self.flushed_events
    }

    /// Submits one event. If this seals enough segments to fill the
    /// dispatch window, the window is flushed to the object store.
    pub fn submit<'a, S: ObjectStore + ?Sized>(
        &mut self,
        os: &S,
        event: impl Into<EventRef<'a>>,
    ) -> Result<(), JournalIoError> {
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
        }
        // A segment stays queued until its append is acknowledged: its
        // events were accepted, so a failed flush leaves it for the next.
        while let Some(seg) = self.sealed.front() {
            let bytes = writer.append_frames(&seg.frames)?;
            if let Some(obs) = &self.obs {
                obs.bytes_flushed.add(bytes);
                obs.segments_flushed.inc();
            }
            self.flushed_events += seg.events;
            self.sealed_events -= seg.events;
            self.sealed.pop_front();
        }
        Ok(())
    }

    /// Events buffered (sealed or partial) but not yet in the object store
    /// — these are what a crash loses before Stream flushes them.
    pub fn unflushed_events(&self) -> u64 {
        self.sealed_events + self.builder.pending() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudele_journal::{read_journal, Attrs, InodeId, JournalEvent};
    use cudele_rados::InMemoryStore;

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

    /// An mdlog counting into a registry of its own.
    fn logged(config: MdLogConfig) -> (MdLog, Arc<Registry>) {
        let reg = Arc::new(Registry::new());
        let mut log = MdLog::new(config);
        log.set_obs(MdLogObs::new(&reg));
        (log, reg)
    }

    fn segments_flushed(reg: &Registry) -> u64 {
        reg.counter_value("mds.mdlog.segments_flushed").unwrap()
    }

    #[test]
    fn flushes_when_dispatch_window_fills() {
        let os = InMemoryStore::paper_default();
        let (mut log, reg) = logged(config(4, 2));
        // 7 events: one sealed segment (4), 3 pending. Nothing flushed yet.
        for i in 0..7 {
            log.submit(&os, &create(i)).unwrap();
        }
        assert_eq!(segments_flushed(&reg), 0);
        assert_eq!(log.unflushed_events(), 5 + 3); // 4 events + boundary, 3 pending
                                                   // 8th event seals segment 2 -> window of 2 flushes.
        log.submit(&os, &create(7)).unwrap();
        assert_eq!(segments_flushed(&reg), 2);
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
        let (mut log, reg) = logged(MdLogConfig::default());
        os.attach_obs(&reg);
        for i in 0..40 * 1024 {
            log.submit(&os, &create(i)).unwrap();
        }
        assert_eq!(segments_flushed(&reg), 40);
        assert_eq!(log.unflushed_events(), 0);
        let ops: u64 = ["rados.store.read_ops", "rados.store.write_ops"]
            .iter()
            .map(|name| reg.counter_value(name).unwrap())
            .sum();
        assert!(ops <= 4 * 40 + 8, "{ops} store operations for 40 segments");
    }

    #[test]
    fn final_flush_covers_partial_segment() {
        let os = InMemoryStore::paper_default();
        let (mut log, reg) = logged(config(100, 40));
        for i in 0..5 {
            log.submit(&os, &create(i)).unwrap();
        }
        assert_eq!(segments_flushed(&reg), 0);
        log.flush(&os).unwrap();
        assert_eq!(segments_flushed(&reg), 1);
        let persisted = read_journal(&os, JournalId::MDLOG).unwrap();
        assert_eq!(persisted.iter().filter(|e| e.is_update()).count(), 5);
    }

    #[test]
    fn registry_counts_events_segments_and_bytes() {
        let os = InMemoryStore::paper_default();
        let (mut log, reg) = logged(config(2, 1));
        for i in 0..4 {
            log.submit(&os, &create(i)).unwrap();
        }
        assert_eq!(reg.counter_value("mds.mdlog.events"), Some(4));
        assert_eq!(segments_flushed(&reg), 2);
        assert!(reg.counter_value("mds.mdlog.bytes_flushed").unwrap() > 0);
        // The transient writers the flush path opens report too.
        assert!(reg.counter_value("journal.writer.appends").unwrap() > 0);
    }

    #[test]
    #[should_panic(expected = "checkpoints")]
    fn a_trim_threshold_is_refused() {
        MdLog::new(MdLogConfig {
            trim_after_updates: Some(8),
            ..config(4, 1)
        });
    }
}
