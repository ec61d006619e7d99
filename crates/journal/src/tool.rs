//! The journal tool.
//!
//! CephFS ships `cephfs-journal-tool` for disaster recovery: "It can read
//! the journal, export the journal as a file, erase events, and apply
//! updates to the metadata store." Cudele's client library "is based on the
//! journal tool — it already had functions for importing, exporting, and
//! modifying the updates in the journal so we re-purposed that code to
//! implement Append Client Journal, Volatile Apply, and Nonvolatile Apply."
//!
//! This module is that tool: the client crate builds its mechanisms on it.

use cudele_rados::ObjectStore;

use crate::codec::{self, CodecError};
use crate::event::{EventRef, EventSink, JournalEvent};
use crate::store_io::{self, JournalDamage, JournalId, JournalIoError, Stripes};

/// Summary of a journal's contents (the tool's `inspect` command).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalSummary {
    /// Total decoded events, including segment boundaries. When the journal
    /// is damaged this counts the recoverable prefix only.
    pub events: u64,
    /// Events that mutate the namespace.
    pub updates: u64,
    /// Segment boundary markers seen.
    pub segments: u64,
    /// Serialized size of the journal body (functional bytes).
    pub bytes: u64,
    /// Where decoding first failed, if the journal is damaged.
    pub damage: Option<JournalDamage>,
}

/// A handle on one journal in the object store.
pub struct JournalTool<'a, S: ObjectStore + ?Sized> {
    store: &'a S,
    id: JournalId,
}

impl<'a, S: ObjectStore + ?Sized> JournalTool<'a, S> {
    /// Points the tool at journal `id` in `store`.
    pub fn new(store: &'a S, id: JournalId) -> Self {
        JournalTool { store, id }
    }

    /// Reads and decodes every event.
    pub fn read(&self) -> Result<Vec<JournalEvent>, JournalIoError> {
        store_io::read_journal(self.store, self.id)
    }

    /// Exports the journal as a standalone blob (magic + frames) —
    /// `cephfs-journal-tool journal export <file>`.
    pub fn export(&self) -> Result<Vec<u8>, JournalIoError> {
        let events = self.read()?;
        Ok(codec::encode_journal(&events).to_vec())
    }

    /// Imports a blob previously produced by [`JournalTool::export`],
    /// replacing the journal's contents.
    pub fn import(&self, blob: &[u8]) -> Result<u64, JournalIoError> {
        let events = codec::decode_journal(blob)?;
        store_io::rewrite_journal(self.store, self.id, &events)?;
        Ok(events.len() as u64)
    }

    /// Summarizes the journal without mutating it. Damage (a torn frame or
    /// failed CRC) does not fail the inspection: the summary covers the
    /// recoverable prefix and flags where decoding stopped.
    pub fn inspect(&self) -> Result<JournalSummary, JournalIoError> {
        let mut stripes = Stripes::default();
        let journal = store_io::view_journal(self.store, self.id, 0, &mut stripes)?;
        let updates = journal.tail.iter().filter(|e| e.is_update()).count() as u64;
        Ok(JournalSummary {
            events: journal.events,
            updates,
            segments: journal.events - updates,
            bytes: journal.clean.iter().map(|s| s.len() as u64).sum(),
            damage: journal.damage,
        })
    }

    /// Repairs a damaged journal in place ([`store_io::recover_journal`]
    /// with one handle for both sides): keeps the longest valid event
    /// prefix, cuts the corrupt region away, and returns the surviving
    /// events. A clean journal is returned unchanged (no write).
    pub fn recover(&self) -> Result<Vec<JournalEvent>, JournalIoError> {
        let mut stripes = Stripes::default();
        let journal = store_io::recover_journal(self.store, self.store, self.id, 0, &mut stripes)?;
        Ok(journal.tail.into_iter().map(EventRef::to_owned).collect())
    }

    /// Erases events `[from, to)` by index (the tool's `event splice`),
    /// compacting the stripes.
    pub fn erase(&self, from: usize, to: usize) -> Result<u64, JournalIoError> {
        let mut events = self.read()?;
        let to = to.min(events.len());
        let from = from.min(to);
        let erased = (to - from) as u64;
        events.drain(from..to);
        store_io::rewrite_journal(self.store, self.id, &events)?;
        Ok(erased)
    }

    /// Replays every update onto `sink` (the tool's `event apply`). Segment
    /// boundaries are skipped. Returns the number of updates applied.
    ///
    /// This is the code path Cudele reuses for its Apply mechanisms: the
    /// sink is the in-memory metadata store for Volatile Apply and the
    /// RADOS-backed store for Nonvolatile Apply.
    pub fn apply<K: EventSink>(&self, sink: &mut K) -> Result<u64, ApplyError<K::Error>> {
        let events = self.read().map_err(ApplyError::Io)?;
        let mut n = 0;
        for e in &events {
            if !e.is_update() {
                continue;
            }
            sink.apply_event(e).map_err(ApplyError::Sink)?;
            n += 1;
        }
        Ok(n)
    }

    /// Deletes the journal entirely.
    pub fn delete(&self) -> Result<(), JournalIoError> {
        store_io::delete_journal(self.store, self.id)
    }
}

/// Error from [`JournalTool::apply`]: either the journal could not be read
/// or the sink rejected an update.
#[derive(Debug)]
pub enum ApplyError<E> {
    /// The journal could not be read or decoded.
    Io(JournalIoError),
    /// The sink rejected an update.
    Sink(E),
}

impl<E: std::fmt::Debug> std::fmt::Display for ApplyError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::Io(e) => write!(f, "journal read failed: {e}"),
            ApplyError::Sink(e) => write!(f, "sink rejected update: {e:?}"),
        }
    }
}

impl<E: std::fmt::Debug> std::error::Error for ApplyError<E> {}

/// Decodes an exported blob without a store (offline inspection).
pub fn decode_export(blob: &[u8]) -> Result<Vec<JournalEvent>, CodecError> {
    codec::decode_journal(blob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Attrs, InodeId};
    use crate::store_io::JournalWriter;
    use cudele_rados::{InMemoryStore, PoolId};

    fn create(i: u64) -> JournalEvent {
        JournalEvent::Create {
            parent: InodeId::ROOT,
            name: format!("f{i}"),
            ino: InodeId(0x1000 + i),
            attrs: Attrs::file_default(),
        }
    }

    fn seeded(store: &InMemoryStore, n: u64) -> JournalId {
        let id = JournalId::new(PoolId::METADATA, 0x900);
        let mut events: Vec<_> = (0..n).map(create).collect();
        events.push(JournalEvent::SegmentBoundary { seq: 0 });
        JournalWriter::open(store, id)
            .unwrap()
            .append(&events)
            .unwrap();
        id
    }

    #[test]
    fn export_import_roundtrip() {
        let store = InMemoryStore::paper_default();
        let id = seeded(&store, 8);
        let tool = JournalTool::new(&store, id);
        let blob = tool.export().unwrap();
        let original = tool.read().unwrap();

        // Wipe and re-import.
        tool.delete().unwrap();
        assert_eq!(tool.read().unwrap(), vec![]);
        let n = tool.import(&blob).unwrap();
        assert_eq!(n, 9);
        assert_eq!(tool.read().unwrap(), original);
    }

    #[test]
    fn inspect_counts() {
        let store = InMemoryStore::paper_default();
        let id = seeded(&store, 8);
        let s = JournalTool::new(&store, id).inspect().unwrap();
        assert_eq!(s.events, 9);
        assert_eq!(s.updates, 8);
        assert_eq!(s.segments, 1);
        assert!(s.bytes > 0);
        assert_eq!(s.damage, None);
    }

    #[test]
    fn inspect_flags_damage_and_recover_erases_it() {
        let store = InMemoryStore::paper_default();
        let id = seeded(&store, 8);
        let tool = JournalTool::new(&store, id);
        let all = tool.read().unwrap();

        // Corrupt the 6th event's frame in place.
        let stripe = cudele_rados::ObjectId::journal_stripe(id.pool, id.ino, 0);
        let mut data = store.read(&stripe).unwrap().to_vec();
        let offset: usize = all[..5].iter().map(codec::framed_len).sum();
        data[offset + 8] ^= 0x40;
        store.write_full(&stripe, &data).unwrap();

        // Strict read fails; inspect survives and localizes the damage.
        assert!(tool.read().is_err());
        let s = tool.inspect().unwrap();
        assert_eq!(s.events, 5);
        let damage = s.damage.expect("damage must be flagged");
        assert_eq!(damage.stripe, 0);
        assert_eq!(damage.offset, offset);

        // Recovery keeps exactly the valid prefix and heals the journal.
        let recovered = tool.recover().unwrap();
        assert_eq!(recovered, all[..5].to_vec());
        assert_eq!(tool.read().unwrap(), all[..5].to_vec());
        assert_eq!(tool.inspect().unwrap().damage, None);
        // Recovering a clean journal is a no-op.
        assert_eq!(tool.recover().unwrap(), all[..5].to_vec());
    }

    #[test]
    fn erase_splices_events() {
        let store = InMemoryStore::paper_default();
        let id = seeded(&store, 8);
        let tool = JournalTool::new(&store, id);
        let erased = tool.erase(2, 5).unwrap();
        assert_eq!(erased, 3);
        let left = tool.read().unwrap();
        assert_eq!(left.len(), 6);
        assert_eq!(left[1], create(1));
        assert_eq!(left[2], create(5));
        // Out-of-range erase is clamped.
        assert_eq!(tool.erase(100, 200).unwrap(), 0);
    }

    #[test]
    fn apply_replays_updates_only() {
        struct Record(Vec<String>);
        impl EventSink for Record {
            type Error = String;
            fn apply_event(&mut self, e: &JournalEvent) -> Result<(), String> {
                self.0.push(e.kind().to_string());
                Ok(())
            }
        }
        let store = InMemoryStore::paper_default();
        let id = seeded(&store, 3);
        let mut sink = Record(Vec::new());
        let n = JournalTool::new(&store, id).apply(&mut sink).unwrap();
        assert_eq!(n, 3);
        assert_eq!(sink.0, vec!["create", "create", "create"]); // no "segment"
    }

    #[test]
    fn apply_propagates_sink_errors() {
        struct Strict;
        impl EventSink for Strict {
            type Error = &'static str;
            fn apply_event(&mut self, _: &JournalEvent) -> Result<(), &'static str> {
                Err("EEXIST")
            }
        }
        let store = InMemoryStore::paper_default();
        let id = seeded(&store, 1);
        let err = JournalTool::new(&store, id).apply(&mut Strict).unwrap_err();
        assert!(matches!(err, ApplyError::Sink("EEXIST")));
    }

    #[test]
    fn decode_export_offline() {
        let store = InMemoryStore::paper_default();
        let id = seeded(&store, 2);
        let blob = JournalTool::new(&store, id).export().unwrap();
        let events = decode_export(&blob).unwrap();
        assert_eq!(events.len(), 3);
    }
}
