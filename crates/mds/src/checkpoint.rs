//! Journal checkpoints: an image, a coordinate, a manifest.
//!
//! "The metadata server applies the updates in the journal to the metadata
//! store when the journal reaches a certain size." A checkpoint is that
//! step, and the only one: it folds the journal into an image, never trims
//! or rewrites the journal, and is what bounds recovery.
//!
//! Without checkpoints, recovery — in-place
//! [`crate::MetadataServer::crash_and_recover`] and standby
//! [`crate::StandbyReplay::take_over`] alike — replays the whole mdlog, so
//! failover time grows without bound with workload length. This module
//! bounds it with two kinds of object beside the journal:
//!
//! * **Image** (`ckpt.<ino>.image.<epoch>`): the canonical event sequence
//!   ([`crate::compact::emit_canonical`]) of the namespace covering a
//!   journal prefix — replayed from an empty namespace it rebuilds the
//!   covered state exactly, with every superseded update gone. The compactor
//!   cuts the next one, `previous image ⊕ journal[hw..]`, once five
//!   [`CheckpointConfig::interval_events`] of flushed events lie past the
//!   last.
//! * **Manifest** (`ckpt.<ino>.manifest` + one immutable copy per epoch):
//!   `{epoch, image_ref (with the image's length and CRC-32),
//!   journal_highwater_seq, alloc_watermark}`, CRC-protected. The HEAD
//!   pointer is advanced by a compare-and-swap on the object version
//!   *through the writer's fenced handle*, so a fenced zombie can never
//!   publish a manifest (the fence rejects the write) and a raced CAS dies
//!   on the version guard.
//!
//! There is no level between the two. The journal is never trimmed,
//! recovery has checked all of it by the time it applies anything, and a
//! manifest whose mark lies past the journal's clean prefix is purged — so
//! a copy of `journal[hw..]` in a checkpoint object could never bring back
//! an event the journal lost; it would only add a write, a reader and a
//! damage case.
//!
//! Recovery (`load_covered`) loads the newest readable manifest and
//! materializes its image from empty; the caller replays the journal tail
//! past `journal_highwater_seq` — at most one image span, flat in workload
//! length. Damage to an image or manifest object drops one manifest epoch at
//! a time (a longer tail replay, never data loss: the full log remains the
//! source of truth), and below the last rung is the full replay every
//! namespace starts from.

use std::sync::Arc;

use cudele_faults::with_retry;
use cudele_journal::{
    crc32, encode_journal, parse_journal, view_journal, EventRef, JournalId, JournalIoError,
    Stripes,
};
use cudele_obs::timeline::{Series, Timeline};
use cudele_obs::{Counter, FirstUse, Registry, SpanName};
use cudele_rados::{ObjectId, ObjectStore, RadosError};
use cudele_sim::{CostModel, Nanos};

use crate::compact::canonical_events;
use crate::error::fenced_write;
use crate::persist::remove_stale;
use crate::store::MetadataStore;

/// Intervals of flushed events between two images. Recovery applies the
/// image plus at most this much journal, so it is what the bound on replay
/// work is stated in. A constant, not a tunable: `interval_events` already
/// scales the cadence, and every caller ran the one value.
const IMAGE_SPAN_INTERVALS: u64 = 5;

/// Checkpoint tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// The unit of checkpoint cadence: the compactor cuts the next image
    /// once five of these flushed journal events lie past the last one.
    pub interval_events: u64,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            interval_events: 256,
        }
    }
}

/// Errors from checkpoint I/O and manifest handling.
#[derive(Debug)]
pub enum CheckpointError {
    /// The object store failed.
    Rados(RadosError),
    /// Journal I/O under the checkpoint failed.
    Journal(JournalIoError),
    /// A manifest object does not decode. (A damaged image is not an
    /// error: it costs a rung of the fallback ladder.)
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Rados(e) => write!(f, "object store error: {e}"),
            CheckpointError::Journal(e) => write!(f, "journal error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "checkpoint corrupt: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Rados(e) => Some(e),
            CheckpointError::Journal(e) => Some(e),
            CheckpointError::Corrupt(_) => None,
        }
    }
}

impl From<RadosError> for CheckpointError {
    fn from(e: RadosError) -> Self {
        CheckpointError::Rados(e)
    }
}

impl From<JournalIoError> for CheckpointError {
    fn from(e: JournalIoError) -> Self {
        CheckpointError::Journal(e)
    }
}

/// Magic prefix of a serialized manifest.
const MANIFEST_MAGIC: &[u8; 8] = b"CUDELEM2";

/// Bytes of a manifest payload before the image name, which runs to the end:
/// four little-endian `u64` words and the image's CRC-32.
const MANIFEST_FIXED: usize = 4 * 8 + 4;

/// The checkpoint manifest: everything recovery needs to skip the covered
/// journal prefix. The default is the empty manifest a fresh namespace
/// starts from (nothing covered).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Manifest epoch, bumped by one on every published checkpoint.
    /// Distinct from the MDS fencing epoch: this one versions the
    /// checkpoint state machine, the fencing epoch gates who may write it.
    pub epoch: u64,
    /// Object name of the image written in this epoch. `None` (the empty
    /// manifest only) means "start from the empty namespace".
    pub image_ref: Option<String>,
    /// Byte length of the image object as it was written.
    pub image_len: u64,
    /// CRC-32 of the whole image object. An image is bare CRC-framed
    /// events, so without these two a truncation between two frames would
    /// read as a shorter, valid namespace.
    pub image_crc: u32,
    /// Journal events (in [`cudele_journal::read_journal`] coordinates)
    /// the image covers; recovery replays only the tail past this mark.
    pub journal_highwater_seq: u64,
    /// Max inode-allocator watermark over every covered event. The fold
    /// into a canonical image drops `AllocRange` grants and unlinked
    /// inodes, so the watermark must ride in the manifest to keep the
    /// allocator rebuild identical to a full replay.
    pub alloc_watermark: u64,
}

impl Manifest {
    /// Serializes to the CRC-protected wire form: magic, CRC-32 of the
    /// rest, the fixed words, then the image name (empty for none).
    pub fn encode(&self) -> Vec<u8> {
        let name = self.image_ref.as_deref().unwrap_or_default();
        let mut payload = Vec::with_capacity(MANIFEST_FIXED + name.len());
        for word in [
            self.epoch,
            self.journal_highwater_seq,
            self.alloc_watermark,
            self.image_len,
        ] {
            payload.extend_from_slice(&word.to_le_bytes());
        }
        payload.extend_from_slice(&self.image_crc.to_le_bytes());
        payload.extend_from_slice(name.as_bytes());
        let mut out = Vec::with_capacity(MANIFEST_MAGIC.len() + 4 + payload.len());
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parses the wire form, rejecting bad magic, a CRC mismatch (bit
    /// flip), or a truncated payload (torn write).
    pub fn decode(data: &[u8]) -> Result<Manifest, CheckpointError> {
        let corrupt = |m: &str| CheckpointError::Corrupt(m.to_string());
        if data.len() < MANIFEST_MAGIC.len() + 4 || &data[..8] != MANIFEST_MAGIC {
            return Err(corrupt("bad manifest magic"));
        }
        let stored_crc = u32::from_le_bytes(data[8..12].try_into().unwrap());
        let payload = &data[12..];
        if crc32(payload) != stored_crc {
            return Err(corrupt("manifest CRC mismatch"));
        }
        let (fixed, name) = payload
            .split_at_checked(MANIFEST_FIXED)
            .ok_or_else(|| corrupt("manifest truncated"))?;
        let word = |i: usize| u64::from_le_bytes(fixed[8 * i..8 * i + 8].try_into().unwrap());
        let name = std::str::from_utf8(name).map_err(|_| corrupt("manifest ref not UTF-8"))?;
        Ok(Manifest {
            epoch: word(0),
            journal_highwater_seq: word(1),
            alloc_watermark: word(2),
            image_len: word(3),
            image_crc: u32::from_le_bytes(fixed[32..].try_into().unwrap()),
            image_ref: (!name.is_empty()).then(|| name.to_string()),
        })
    }
}

/// The manifest HEAD pointer for `id`'s checkpoints.
pub fn head_object(id: JournalId) -> ObjectId {
    ObjectId::new(id.pool, format!("ckpt.{:x}.manifest", id.ino))
}

/// The immutable per-epoch manifest copy (the fallback ladder's rungs).
pub fn manifest_object(id: JournalId, epoch: u64) -> ObjectId {
    ObjectId::new(id.pool, format!("ckpt.{:x}.manifest.{epoch:08x}", id.ino))
}

fn image_object(id: JournalId, epoch: u64) -> ObjectId {
    ObjectId::new(id.pool, format!("ckpt.{:x}.image.{epoch:08x}", id.ino))
}

cudele_obs::handles! {
    /// The checkpoint manager's handles, published under `mds.ckpt.*`.
    pub struct CkptObs(reg: &Arc<Registry>) {
        reg: Arc<Registry> = Arc::clone(reg),
        /// `mds.ckpt.checkpoints` — manifests published.
        checkpoints: Counter = reg.counter("mds.ckpt.checkpoints"),
        /// `mds.ckpt.replay_events_saved` — journal events newly covered by
        /// a checkpoint, i.e. events every future recovery no longer
        /// replays.
        replay_events_saved: Counter = reg.counter("mds.ckpt.replay_events_saved"),
        /// The `ckpt.compact` span, one per published manifest.
        compact_span: SpanName = reg.span_name("ckpt.compact", "mds"),
        /// Publication cadence and coverage over virtual time, plus the
        /// timeline itself for the per-manifest marker.
        tl_checkpoints: Series = reg.timeline().series("mds.ckpt.checkpoints"),
        tl_covered_events: Series = reg.timeline().series("mds.ckpt.covered_events"),
        tl: Timeline = reg.timeline(),
        /// `mds.ckpt.journal_damage`, registered by the first damaged pass.
        journal_damage: FirstUse<Counter> =
            FirstUse::new(reg, |r| r.counter("mds.ckpt.journal_damage")),
        /// `mds.ckpt.failures` — passes the store failed, registered by the
        /// first.
        failures: FirstUse<Counter> = FirstUse::new(reg, |r| r.counter("mds.ckpt.failures")),
    }
}

/// The background (virtual-time) compactor: folds images, publishes
/// manifests. Owned by the serving [`crate::MetadataServer`]; all its
/// writes go through the server's (possibly fenced) store handle.
pub struct CheckpointManager {
    config: CheckpointConfig,
    id: JournalId,
    manifest: Manifest,
    /// Object version of the HEAD pointer we last observed — the CAS
    /// expectation for the next publish (0 = "must not exist yet").
    head_version: u64,
    /// [`crate::MdLog`] flushed-event count at the last checkpoint. The
    /// counter is per-mdlog-instance, so recovery (which rebuilds the
    /// mdlog) resets this mark via [`CheckpointManager::resume`].
    flush_mark: u64,
    /// Journal events past the manifest's mark that the mdlog's counter
    /// never saw: the tail the last recovery replayed. They count towards
    /// the image span, or a server that crashes more often than once per
    /// span would never cut an image.
    backlog: u64,
    obs: Option<CkptObs>,
}

impl CheckpointManager {
    /// A manager for `id`'s checkpoints, resuming from the stored manifest
    /// (`load_head`: the HEAD, else the newest readable per-epoch copy at
    /// the HEAD's version, so the next publish still wins its CAS) so that
    /// re-enabling checkpoints on an existing namespace continues the epoch
    /// sequence instead of restarting it. When nothing decodes it resumes
    /// from the empty manifest (nothing trims the journal, so the next
    /// checkpoint covers it from the start). A store failure is
    /// returned: starting over at epoch 0 on top of published checkpoints
    /// would overwrite the immutable per-epoch objects and then lose every
    /// CAS.
    pub fn attach(
        os: &dyn ObjectStore,
        id: JournalId,
        config: CheckpointConfig,
    ) -> Result<CheckpointManager, CheckpointError> {
        let (manifest, head_version, _) = load_head(os, id)?;
        Ok(CheckpointManager {
            config,
            id,
            manifest: manifest.unwrap_or_default(),
            head_version,
            flush_mark: 0,
            backlog: 0,
            obs: None,
        })
    }

    /// Counts the manager's passes and publications on `obs`.
    pub fn set_obs(&mut self, obs: CkptObs) {
        self.obs = Some(obs);
    }

    /// The manifest this manager last published (or resumed from).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Rebinds the manager after a recovery: `manifest` is the manifest
    /// the recovery actually used (possibly a fallback epoch),
    /// `head_version` the HEAD object version observed and `replayed` the
    /// journal tail past the manifest's mark. The flush mark resets because
    /// recovery rebuilds the mdlog with fresh counters.
    pub fn resume(&mut self, manifest: Manifest, head_version: u64, replayed: u64) {
        self.manifest = manifest;
        self.head_version = head_version;
        self.flush_mark = 0;
        self.backlog = replayed;
    }

    /// Runs the compactor if one image span of flushed journal events lies
    /// past the last checkpoint. `flushed_events` is the current mdlog
    /// flushed-event counter. A pass below the span returns without touching
    /// the store. Returns whether a checkpoint was published.
    ///
    /// Checkpoints are an optimisation, so a pass the store fails is not
    /// its caller's error: it is counted (`mds.ckpt.failures`) and leaves
    /// the marks where they were, and the next flush retries it. Only a
    /// fenced write is returned.
    pub fn maybe_checkpoint(
        &mut self,
        os: &dyn ObjectStore,
        flushed_events: u64,
        now: Nanos,
        cost: &CostModel,
    ) -> Result<bool, CheckpointError> {
        let span = IMAGE_SPAN_INTERVALS.saturating_mul(self.config.interval_events);
        if self.backlog + flushed_events.saturating_sub(self.flush_mark) < span {
            return Ok(false);
        }
        match self.checkpoint(os, now, cost) {
            Ok(published) => {
                (self.flush_mark, self.backlog) = (flushed_events, 0);
                Ok(published)
            }
            Err(e) if fenced_write(&e).is_none() => {
                if let Some(o) = &self.obs {
                    o.failures.get().inc();
                }
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Cuts one checkpoint unconditionally: the previous image and the
    /// flushed journal tail past its high-water mark, replayed from empty
    /// and re-emitted in canonical order, become the next image, and the
    /// manifest naming it is published through a version CAS on the HEAD
    /// pointer. No-op when nothing new has been flushed. If the previous
    /// image is unreadable the pass self-heals by replaying the journal
    /// whole (nothing trims it).
    ///
    /// The journal is read leniently and borrowed: the covered prefix is
    /// checked and not kept, and the tail is folded straight from the
    /// stripe bytes. A frame that reached the store damaged
    /// (a silent bit flip) is not a failure of the pass: it covers the
    /// clean prefix, exactly what recovery would keep, and later passes
    /// find an empty tail until a recovery has healed the journal. A store
    /// failure (an outage, a fence) is returned;
    /// [`CheckpointManager::maybe_checkpoint`] counts and retries all but
    /// the fence.
    pub fn checkpoint(
        &mut self,
        os: &dyn ObjectStore,
        now: Nanos,
        cost: &CostModel,
    ) -> Result<bool, CheckpointError> {
        let hw = self.manifest.journal_highwater_seq;
        let mut stripes = Stripes::default();
        let journal = view_journal(os, self.id, hw, &mut stripes)?;
        if let (Some(damage), Some(o)) = (&journal.damage, &self.obs) {
            o.journal_damage.get().inc();
            o.tl.annotate("mds.ckpt.journal_damage", now, &damage.to_string());
        }
        let new_hw = journal.events;
        if new_hw <= hw {
            return Ok(false);
        }
        let tail = &journal.tail;
        let next = self.manifest.epoch + 1;
        let alloc_watermark = tail
            .iter()
            .filter_map(EventRef::alloc_watermark)
            .fold(self.manifest.alloc_watermark, |acc, w| acc.max(w.0));
        let store = match materialize(os, self.id, &self.manifest)? {
            Some((mut store, _)) => {
                store.apply_blind_all(tail);
                store
            }
            None => {
                let mut store = MetadataStore::new();
                store.apply_blind_all(&journal.all_events());
                store
            }
        };
        let folded = canonical_events(&store);
        let image = image_object(self.id, next);
        let body = encode_journal(&folded);
        with_retry(|| os.write_full(&image, &body))?;
        let m = Manifest {
            epoch: next,
            image_ref: Some(image.name),
            image_len: body.len() as u64,
            image_crc: crc32(&body),
            journal_highwater_seq: new_hw,
            alloc_watermark,
        };
        // Publish: immutable per-epoch copy first, then CAS the HEAD.
        // A crash between the two leaves the HEAD on the previous epoch
        // with only orphan objects dangling — recovery is unaffected.
        let encoded = m.encode();
        let copy = manifest_object(self.id, next);
        with_retry(|| os.write_full(&copy, &encoded))?;
        let head = head_object(self.id);
        self.head_version = with_retry(|| os.cas_write_full(&head, self.head_version, &encoded))?;
        self.manifest = m;
        if let Some(o) = &self.obs {
            o.checkpoints.inc();
            o.replay_events_saved.add(tail.len() as u64);
            // Virtual-time cost of the pass: a blind apply per event it
            // read past the mark and per event it emitted.
            let applied = (tail.len() + folded.len()) as u64;
            let span = o.reg.trace_root(91);
            o.reg.end_named(
                span,
                o.compact_span,
                now,
                cost.volatile_apply_per_event * applied,
            );
            // Publication lands on the timeline: a marker per manifest
            // plus the cadence/coverage series.
            o.tl.annotate(
                "mds.ckpt.publish",
                now,
                &format!("epoch {next} covers {new_hw} events"),
            );
            o.tl_checkpoints.add(now, 1);
            o.tl_covered_events.add(now, tail.len() as u64);
        }
        Ok(true)
    }
}

/// Loads the manifest recovery and [`CheckpointManager::attach`] start from.
/// Returns the HEAD's manifest, the HEAD's object version (the CAS
/// expectation of the next publish) and the rungs skipped on the way. Only a
/// HEAD that does not exist means a fresh namespace (`None` at version 0);
/// one that exists and does not decode drops to the newest readable
/// per-epoch copy (one rung skipped; `None` when no copy decodes either);
/// any other store failure is returned.
fn load_head(
    os: &dyn ObjectStore,
    id: JournalId,
) -> Result<(Option<Manifest>, u64, u64), CheckpointError> {
    let head = head_object(id);
    let version = match with_retry(|| os.stat(&head)) {
        Ok(stat) => stat.version,
        Err(RadosError::NoEnt(_)) => return Ok((None, 0, 0)),
        Err(e) => return Err(e.into()),
    };
    let data = with_retry(|| os.read(&head))?;
    Ok(match Manifest::decode(&data) {
        Ok(manifest) => (Some(manifest), version, 0),
        Err(_) => (newest_readable_manifest(os, id, u64::MAX), version, 1),
    })
}

/// The base a manifest rung gives recovery: the namespace covering the
/// journal prefix below the manifest's high-water mark, the manifest that
/// loaded (the HEAD's, or a fallback epoch's) and how many events its image
/// materialized (proportional to namespace size, not workload length).
pub(crate) type CoveredBase = (MetadataStore, Manifest, u64);

/// Climbs down the manifest ladder for `id`'s namespace: the HEAD's
/// manifest, then one readable per-epoch copy at a time, until one
/// materializes. Returns that base (`None` when no rung held: recovery
/// starts from the persisted image and replays the whole journal), the
/// HEAD's object version (0 = no HEAD object) and the manifest epochs
/// skipped (0 = the HEAD was clean).
pub(crate) fn load_covered(
    os: &dyn ObjectStore,
    id: JournalId,
) -> Result<(Option<CoveredBase>, u64, u64), CheckpointError> {
    let (mut rung, head_version, mut fallbacks) = load_head(os, id)?;
    while let Some(manifest) = rung {
        if let Some((store, events)) = materialize(os, id, &manifest)? {
            return Ok((Some((store, manifest, events)), head_version, fallbacks));
        }
        // A damaged image: drop one manifest epoch and replay a longer tail
        // instead.
        fallbacks += 1;
        rung = newest_readable_manifest(os, id, manifest.epoch);
    }
    Ok((None, head_version, fallbacks))
}

/// Removes every manifest object of `id` — per-epoch copies first, the HEAD
/// last, so a purge that dies is found again — *through `write`*. For a
/// lineage the journal no longer reaches: a manifest whose high-water mark
/// lies past the journal's clean prefix describes events the journal has
/// lost (at-rest damage inside the covered prefix, cut away by the heal).
/// Resuming from it would put the next appends at coordinates it calls
/// covered, and skipping it is not enough — once the journal has regrown
/// past the mark it would load again, over different events.
pub(crate) fn purge_manifests(
    read: &dyn ObjectStore,
    write: &dyn ObjectStore,
    id: JournalId,
) -> Result<(), CheckpointError> {
    let manifests = read.list(id.pool, &head_object(id).name);
    for object in manifests.iter().rev() {
        remove_stale(write, object)?;
    }
    Ok(())
}

/// Replays `manifest`'s image from an empty namespace. Returns the store and
/// how many events were materialized, or `None` when the image is damaged —
/// not there, not the bytes the manifest recorded (same length, same
/// CRC-32), or not decodable — which costs the caller a rung or a rebuild
/// from the journal; a store failure is the caller's error.
fn materialize(
    os: &dyn ObjectStore,
    id: JournalId,
    manifest: &Manifest,
) -> Result<Option<(MetadataStore, u64)>, CheckpointError> {
    let mut store = MetadataStore::new();
    let Some(name) = &manifest.image_ref else {
        return Ok(Some((store, 0)));
    };
    let data = match with_retry(|| os.read(&ObjectId::new(id.pool, name.clone()))) {
        Ok(data) => data,
        Err(RadosError::NoEnt(_)) => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if data.len() as u64 != manifest.image_len || crc32(&data) != manifest.image_crc {
        return Ok(None);
    }
    let Ok(events) = parse_journal(&data) else {
        return Ok(None);
    };
    store.apply_blind_all(&events);
    Ok(Some((store, events.len() as u64)))
}

/// The newest per-epoch manifest copy below `below` that decodes cleanly.
/// Copy names end in the zero-padded epoch, so the listing is oldest first.
fn newest_readable_manifest(os: &dyn ObjectStore, id: JournalId, below: u64) -> Option<Manifest> {
    let copies = os.list(id.pool, &format!("ckpt.{:x}.manifest.", id.ino));
    copies
        .iter()
        .rev()
        .filter_map(|copy| Manifest::decode(&with_retry(|| os.read(copy)).ok()?).ok())
        .find(|m| m.epoch < below)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{recover_namespace, RecoveredNamespace};
    use cudele_journal::{
        decode_journal, framed_len, read_journal, Attrs, InodeId, JournalEvent, JournalWriter,
    };
    use cudele_rados::{InMemoryStore, PoolId};

    fn jid() -> JournalId {
        JournalId::new(PoolId::METADATA, 0x200)
    }

    fn create(i: u64) -> JournalEvent {
        JournalEvent::Create {
            parent: InodeId::ROOT,
            name: format!("f{i}"),
            ino: InodeId(0x1000 + i),
            attrs: Attrs::file_default(),
        }
    }

    fn append(os: &InMemoryStore, events: &[JournalEvent]) {
        let mut w = JournalWriter::open(os, jid()).unwrap();
        w.append(events).unwrap();
    }

    fn manager(os: &InMemoryStore) -> CheckpointManager {
        CheckpointManager::attach(os, jid(), CheckpointConfig::default()).unwrap()
    }

    /// Appends `rounds` batches of two creates, cutting a checkpoint after
    /// each: `rounds` epochs, each with its own image.
    fn checkpointed(os: &InMemoryStore, rounds: u64) -> CheckpointManager {
        let mut mgr = manager(os);
        for round in 0..rounds {
            append(os, &[create(round * 2), create(round * 2 + 1)]);
            assert!(mgr
                .checkpoint(os, Nanos::ZERO, &CostModel::calibrated())
                .unwrap());
        }
        mgr
    }

    /// Recovery as the server runs it, reading and healing through `os`.
    fn recover(os: &InMemoryStore) -> RecoveredNamespace {
        recover_namespace(os, os, PoolId::METADATA, jid()).unwrap()
    }

    fn full_replay(os: &InMemoryStore) -> MetadataStore {
        let mut s = MetadataStore::new();
        for e in read_journal(os, jid()).unwrap() {
            s.apply_blind(&e);
        }
        s
    }

    #[test]
    fn manifest_roundtrip() {
        let m = Manifest {
            epoch: 7,
            image_ref: Some("ckpt.200.image.00000007".into()),
            image_len: 4321,
            image_crc: 0xdead_beef,
            journal_highwater_seq: 1234,
            alloc_watermark: 0x5000,
        };
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        let empty = Manifest::default();
        assert_eq!(Manifest::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn manifest_rejects_damage() {
        let mut bytes = Manifest::default().encode();
        assert!(Manifest::decode(&bytes[..bytes.len() - 1]).is_err(), "torn");
        bytes[14] ^= 0x40;
        assert!(matches!(
            Manifest::decode(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
        assert!(matches!(
            Manifest::decode(b"NOTMAGIC"),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn checkpoint_then_recover_matches_full_replay() {
        let os = InMemoryStore::paper_default();
        let mgr = checkpointed(&os, 6);
        assert_eq!(mgr.manifest().epoch, 6);
        assert_eq!(
            mgr.manifest().image_ref.as_deref(),
            Some(image_object(jid(), 6).name.as_str()),
            "a manifest names the image of its own epoch"
        );
        // A few more flushed events left as uncovered tail.
        append(&os, &[create(100), create(101)]);

        let rec = recover(&os);
        assert_eq!(rec.store.snapshot(), full_replay(&os).snapshot());
        assert_eq!(
            rec.replayed_events, 2,
            "only the uncovered tail is replayed"
        );
        assert_eq!(rec.checkpoint_events, 12);
        assert_eq!(rec.fallbacks, 0);
        assert!(!rec.healed);
        assert_eq!(rec.manifest.expect("manifest exists").epoch, 6);
    }

    #[test]
    fn damaged_image_falls_back_one_epoch() {
        let os = InMemoryStore::paper_default();
        checkpointed(&os, 3);
        // Flip a byte in the newest image object.
        let newest = image_object(jid(), 3);
        let mut data = os.read(&newest).unwrap().to_vec();
        let mid = data.len() / 2;
        data[mid] ^= 0x01;
        os.write_full(&newest, &data).unwrap();

        let rec = recover(&os);
        // Fallback to epoch 2's manifest, with the last window replayed
        // from the journal instead — zero loss.
        assert_eq!(rec.manifest.expect("manifest exists").epoch, 2);
        assert_eq!(rec.fallbacks, 1);
        assert_eq!(rec.replayed_events, 2);
        assert_eq!(rec.store.snapshot(), full_replay(&os).snapshot());
    }

    /// An image is bare CRC-framed events: cut exactly between two frames
    /// it still decodes, as a shorter namespace. The manifest's length and
    /// CRC are what tell it from the real one.
    #[test]
    fn truncated_image_is_damage_at_every_frame_boundary_and_last_frame_byte() {
        let os = InMemoryStore::paper_default();
        checkpointed(&os, 3);
        let newest = image_object(jid(), 3);
        let whole = os.read(&newest).unwrap();
        let events = decode_journal(&whole).unwrap();
        assert_eq!(events.len(), 6);
        let mut boundaries = vec![whole.len() - events.iter().map(framed_len).sum::<usize>()];
        for e in &events[..events.len() - 1] {
            boundaries.push(boundaries.last().unwrap() + framed_len(e));
        }
        let last_frame = *boundaries.last().unwrap();
        let expected = full_replay(&os).snapshot();
        for cut in boundaries.into_iter().chain(last_frame + 1..whole.len()) {
            os.write_full(&newest, &whole[..cut]).unwrap();
            let rec = recover(&os);
            assert_eq!(rec.store.snapshot(), expected, "image cut to {cut} bytes");
            assert_eq!(rec.manifest.expect("one rung down").epoch, 2, "cut {cut}");
            assert_eq!(rec.fallbacks, 1, "cut {cut}");
        }
    }

    #[test]
    fn damaged_head_uses_newest_epoch_copy() {
        let os = InMemoryStore::paper_default();
        checkpointed(&os, 1);
        os.write_full(&head_object(jid()), b"garbage").unwrap();
        let rec = recover(&os);
        assert_eq!(rec.manifest.expect("ladder holds").epoch, 1);
        assert_eq!(rec.fallbacks, 1);
        assert_eq!(rec.store.snapshot(), full_replay(&os).snapshot());
    }

    #[test]
    fn everything_damaged_falls_back_to_full_replay() {
        let os = InMemoryStore::paper_default();
        checkpointed(&os, 1);
        os.write_full(&head_object(jid()), b"garbage").unwrap();
        os.write_full(&manifest_object(jid(), 1), b"garbage")
            .unwrap();
        // No rung holds: full replay, and the skipped rungs are reported.
        let rec = recover(&os);
        assert!(rec.manifest.is_none());
        assert!(rec.fallbacks >= 1, "the bottomed-out ladder skipped rungs");
        assert_eq!(rec.replayed_events, 2);
        assert_eq!(rec.store.snapshot(), full_replay(&os).snapshot());
        // No manifest state at all: also full replay, nothing skipped.
        let fresh = InMemoryStore::paper_default();
        let rec = recover(&fresh);
        assert!(rec.manifest.is_none());
        assert_eq!((rec.fallbacks, rec.head_version), (0, 0));
    }

    #[test]
    fn nothing_new_publishes_nothing() {
        let os = InMemoryStore::paper_default();
        let cost = CostModel::calibrated();
        let mut mgr = manager(&os);
        assert!(!mgr.checkpoint(&os, Nanos::ZERO, &cost).unwrap());
        append(&os, &[create(0)]);
        assert!(mgr.checkpoint(&os, Nanos::ZERO, &cost).unwrap());
        assert!(!mgr.checkpoint(&os, Nanos::ZERO, &cost).unwrap());
    }

    #[test]
    fn manager_resumes_epoch_sequence_from_stored_head() {
        let os = InMemoryStore::paper_default();
        checkpointed(&os, 1);
        // A second manager attached later (restart) continues at epoch 2
        // and its CAS succeeds against the stored HEAD version.
        let mut b = manager(&os);
        assert_eq!(b.manifest().epoch, 1);
        append(&os, &[create(7)]);
        assert!(b
            .checkpoint(&os, Nanos::ZERO, &CostModel::calibrated())
            .unwrap());
        assert_eq!(b.manifest().epoch, 2);
    }

    #[test]
    fn alloc_watermark_survives_folds() {
        let os = InMemoryStore::paper_default();
        let cost = CostModel::calibrated();
        let mut mgr = manager(&os);
        // A grant plus a create-then-unlink: after folding, neither leaves
        // a trace in the canonical image, so only the manifest watermark
        // keeps the allocator from re-issuing those inodes.
        append(
            &os,
            &[
                JournalEvent::AllocRange {
                    client: 1,
                    start: InodeId(0x9000),
                    len: 16,
                },
                create(0),
            ],
        );
        mgr.checkpoint(&os, Nanos::ZERO, &cost).unwrap();
        append(
            &os,
            &[JournalEvent::Unlink {
                parent: InodeId::ROOT,
                name: "f0".into(),
            }],
        );
        mgr.checkpoint(&os, Nanos::ZERO, &cost).unwrap();
        append(&os, &[create(50)]);
        mgr.checkpoint(&os, Nanos::ZERO, &cost).unwrap();
        assert_eq!(recover(&os).checkpoint_events, 1, "only f50 is left");
        assert!(recover(&os).alloc.watermark() >= InodeId(0x9000 + 16));
    }
}
