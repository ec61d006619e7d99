//! Tiered journal compaction and incremental checkpoints.
//!
//! Without checkpoints, recovery — in-place
//! [`crate::MetadataServer::crash_and_recover`] and standby
//! [`crate::StandbyReplay::take_over`] alike — replays the whole mdlog, so
//! failover time grows without bound with workload length. This module
//! bounds it with a two-level scheme in the object store:
//!
//! * **L0 deltas** (`ckpt.<ino>.delta.<epoch>`): raw slices of flushed
//!   journal events, cut every [`CheckpointConfig::interval_events`]
//!   flushed events. A delta is *not* compacted in isolation: an `Unlink`
//!   or `Rename` in a window can reference state created before it, and
//!   compacting the window alone would drop it. Raw slices blind-replay
//!   correctly on top of everything before them.
//! * **L1 image** (`ckpt.<ino>.image.<epoch>`): once
//!   [`CheckpointConfig::max_deltas`] L0 deltas accumulate, the compactor
//!   folds image + deltas + the new tail into one canonical event sequence
//!   via [`crate::compact::emit_canonical`] — replayed from an empty
//!   namespace it rebuilds the covered state exactly, with every
//!   superseded update gone.
//! * **Manifest** (`ckpt.<ino>.manifest` + per-epoch copies): `{epoch,
//!   image_ref, delta_refs[], journal_highwater_seq, alloc_watermark}`,
//!   CRC-protected. The HEAD pointer is advanced by a compare-and-swap on
//!   the object version *through the writer's fenced handle*, so a fenced
//!   zombie can never publish a manifest (the fence rejects the write) and
//!   a raced CAS dies on the version guard.
//!
//! Recovery (`load_covered`) loads the newest readable manifest and
//! materializes image + deltas from empty; the caller replays only the
//! journal tail past `journal_highwater_seq` — cost flat in workload length.
//! Damage to a delta, image, or manifest object drops one manifest epoch at
//! a time (a longer tail replay, never data loss: the journal is not trimmed
//! under checkpointing, so the full log remains the source of truth), and
//! below the last rung is the full replay every namespace starts from.

use cudele_faults::with_retry;
use cudele_journal::{
    crc32, decode_journal, encode_journal, scan_journal, JournalEvent, JournalId, JournalIoError,
};
use cudele_obs::timeline::{Series, Timeline};
use cudele_obs::{Counter, Registry, SpanName};
use cudele_rados::{ObjectId, ObjectStore, RadosError};
use cudele_sim::{CostModel, Nanos};

use crate::compact::emit_canonical;
use crate::persist::remove_stale;
use crate::store::MetadataStore;

/// Checkpoint tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Flushed journal events accumulated before the compactor cuts the
    /// next checkpoint (the L0 delta granularity).
    pub interval_events: u64,
    /// L0 deltas tolerated before the compactor folds them (plus the new
    /// tail) into a fresh L1 image.
    pub max_deltas: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            interval_events: 256,
            max_deltas: 4,
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
    /// A manifest, image, or delta object is damaged beyond the fallback
    /// ladder.
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

impl CheckpointError {
    /// Whether a checkpoint object is unreadable — it does not decode or is
    /// not there — as opposed to the store failing: damage costs a rung (or
    /// a rebuild from the journal), a store failure is the caller's error.
    fn is_damage(&self) -> bool {
        matches!(
            self,
            CheckpointError::Corrupt(_) | CheckpointError::Rados(RadosError::NoEnt(_))
        )
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
const MANIFEST_MAGIC: &[u8; 8] = b"CUDELEM1";

/// The checkpoint manifest: everything recovery needs to skip the covered
/// journal prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Manifest epoch, bumped by one on every published checkpoint.
    /// Distinct from the MDS fencing epoch: this one versions the
    /// checkpoint state machine, the fencing epoch gates who may write it.
    pub epoch: u64,
    /// Object name of the L1 base image, if one has been folded.
    /// `None` means "start from the empty namespace".
    pub image_ref: Option<String>,
    /// L0 delta object names, oldest first. Replayed in order on top of
    /// the image they rebuild the covered namespace.
    pub delta_refs: Vec<String>,
    /// Journal events (in [`cudele_journal::read_journal`] coordinates)
    /// covered by image + deltas; recovery replays only the tail past this
    /// mark.
    pub journal_highwater_seq: u64,
    /// Max inode-allocator watermark over every covered event. The fold
    /// into a canonical image drops `AllocRange` grants and unlinked
    /// inodes, so the watermark must ride in the manifest to keep the
    /// allocator rebuild identical to a full replay.
    pub alloc_watermark: u64,
}

impl Manifest {
    /// The empty manifest a fresh namespace starts from (nothing covered).
    pub fn empty() -> Manifest {
        Manifest {
            epoch: 0,
            image_ref: None,
            delta_refs: Vec::new(),
            journal_highwater_seq: 0,
            alloc_watermark: 0,
        }
    }

    /// Serializes to the CRC-protected wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(64);
        payload.extend_from_slice(&self.epoch.to_le_bytes());
        payload.extend_from_slice(&self.journal_highwater_seq.to_le_bytes());
        payload.extend_from_slice(&self.alloc_watermark.to_le_bytes());
        match &self.image_ref {
            Some(name) => {
                payload.push(1);
                payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
                payload.extend_from_slice(name.as_bytes());
            }
            None => payload.push(0),
        }
        payload.extend_from_slice(&(self.delta_refs.len() as u32).to_le_bytes());
        for name in &self.delta_refs {
            payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
            payload.extend_from_slice(name.as_bytes());
        }
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
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> Result<&[u8], CheckpointError> {
            let end = at
                .checked_add(n)
                .filter(|&e| e <= payload.len())
                .ok_or_else(|| corrupt("manifest truncated"))?;
            let s = &payload[*at..end];
            *at = end;
            Ok(s)
        };
        let u64_at = |at: &mut usize| -> Result<u64, CheckpointError> {
            Ok(u64::from_le_bytes(take(at, 8)?.try_into().unwrap()))
        };
        let u32_at = |at: &mut usize| -> Result<u32, CheckpointError> {
            Ok(u32::from_le_bytes(take(at, 4)?.try_into().unwrap()))
        };
        let str_at = |at: &mut usize| -> Result<String, CheckpointError> {
            let len = u32_at(at)? as usize;
            String::from_utf8(take(at, len)?.to_vec())
                .map_err(|_| corrupt("manifest ref not UTF-8"))
        };
        let epoch = u64_at(&mut at)?;
        let journal_highwater_seq = u64_at(&mut at)?;
        let alloc_watermark = u64_at(&mut at)?;
        let image_ref = match take(&mut at, 1)?[0] {
            0 => None,
            1 => Some(str_at(&mut at)?),
            _ => return Err(corrupt("bad image flag")),
        };
        let ndeltas = u32_at(&mut at)?;
        let mut delta_refs = Vec::with_capacity(ndeltas.min(1024) as usize);
        for _ in 0..ndeltas {
            delta_refs.push(str_at(&mut at)?);
        }
        if at != payload.len() {
            return Err(corrupt("trailing bytes after manifest"));
        }
        Ok(Manifest {
            epoch,
            image_ref,
            delta_refs,
            journal_highwater_seq,
            alloc_watermark,
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

fn delta_object(id: JournalId, epoch: u64) -> ObjectId {
    ObjectId::new(id.pool, format!("ckpt.{:x}.delta.{epoch:08x}", id.ino))
}

/// Metric handles, published under `mds.ckpt.*`.
struct CkptObs {
    reg: std::sync::Arc<Registry>,
    /// `mds.ckpt.checkpoints` — manifests published.
    checkpoints: Counter,
    /// `mds.ckpt.deltas_folded` — L0 deltas folded into L1 images.
    deltas_folded: Counter,
    /// `mds.ckpt.replay_events_saved` — journal events newly covered by a
    /// checkpoint, i.e. events every future recovery no longer replays.
    replay_events_saved: Counter,
    /// The `ckpt.compact` span, one per published manifest.
    compact_span: SpanName,
    /// Publication cadence and coverage over virtual time, plus the
    /// timeline itself for the per-manifest marker.
    tl_checkpoints: Series,
    tl_covered_events: Series,
    tl: Timeline,
}

impl CkptObs {
    fn attach(reg: &std::sync::Arc<Registry>) -> CkptObs {
        let tl = reg.timeline();
        CkptObs {
            reg: std::sync::Arc::clone(reg),
            checkpoints: reg.counter("mds.ckpt.checkpoints"),
            deltas_folded: reg.counter("mds.ckpt.deltas_folded"),
            replay_events_saved: reg.counter("mds.ckpt.replay_events_saved"),
            compact_span: reg.span_name("ckpt.compact", "mds"),
            tl_checkpoints: tl.series("mds.ckpt.checkpoints"),
            tl_covered_events: tl.series("mds.ckpt.covered_events"),
            tl,
        }
    }
}

/// The background (virtual-time) compactor: cuts deltas, folds images,
/// publishes manifests. Owned by the serving [`crate::MetadataServer`]; all its
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
    obs: Option<CkptObs>,
}

impl CheckpointManager {
    /// A manager for `id`'s checkpoints, resuming from the stored manifest
    /// (`load_head`: the HEAD, else the newest readable per-epoch copy at
    /// the HEAD's version, so the next publish still wins its CAS) so that
    /// re-enabling checkpoints on an existing namespace continues the epoch
    /// sequence instead of restarting it. When nothing decodes it resumes
    /// from the empty manifest (checkpointing never trims the journal, so
    /// the next checkpoint covers it from the start). A store failure is
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
            manifest: manifest.unwrap_or_else(Manifest::empty),
            head_version,
            flush_mark: 0,
            obs: None,
        })
    }

    /// Points the manager's `mds.ckpt.*` metric handles at `reg`.
    pub fn set_obs(&mut self, reg: &std::sync::Arc<Registry>) {
        self.obs = Some(CkptObs::attach(reg));
    }

    /// The manifest this manager last published (or resumed from).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The tunables in force.
    pub fn config(&self) -> CheckpointConfig {
        self.config
    }

    /// Rebinds the manager after a recovery: `manifest` is the manifest
    /// the recovery actually used (possibly a fallback epoch) and
    /// `head_version` the HEAD object version observed. The flush mark
    /// resets because recovery rebuilds the mdlog with fresh counters.
    pub fn resume(&mut self, manifest: Manifest, head_version: u64) {
        self.manifest = manifest;
        self.head_version = head_version;
        self.flush_mark = 0;
    }

    /// Runs the compactor if at least `interval_events` journal events
    /// flushed since the last checkpoint. `flushed_events` is the current
    /// mdlog flushed-event counter. Returns whether a checkpoint was
    /// published.
    pub fn maybe_checkpoint(
        &mut self,
        os: &dyn ObjectStore,
        flushed_events: u64,
        now: Nanos,
        cost: &CostModel,
    ) -> Result<bool, CheckpointError> {
        if flushed_events.saturating_sub(self.flush_mark) < self.config.interval_events {
            return Ok(false);
        }
        let published = self.checkpoint(os, now, cost)?;
        self.flush_mark = flushed_events;
        Ok(published)
    }

    /// Cuts one checkpoint unconditionally: the flushed journal tail past
    /// the current high-water mark becomes an L0 delta (or triggers an L1
    /// fold), and a new manifest is published through a version CAS on the
    /// HEAD pointer. No-op when nothing new has been flushed.
    ///
    /// The journal is read leniently: a frame that reached the store damaged
    /// (a silent bit flip) must not fail the foreground op this pass rides
    /// on — checkpoints are an optimisation. The pass covers the clean
    /// prefix, exactly what recovery would keep, and later passes find an
    /// empty tail until a recovery has healed the journal. Store failures
    /// (an outage, a fence) still propagate.
    pub fn checkpoint(
        &mut self,
        os: &dyn ObjectStore,
        now: Nanos,
        cost: &CostModel,
    ) -> Result<bool, CheckpointError> {
        let scan = scan_journal(os, self.id)?;
        if let (Some(damage), Some(o)) = (&scan.damage, &self.obs) {
            o.reg.counter("mds.ckpt.journal_damage").inc();
            o.tl.annotate("mds.ckpt.journal_damage", now, &damage.to_string());
        }
        let journal = scan.events;
        let hw = self.manifest.journal_highwater_seq;
        let new_hw = journal.len() as u64;
        if new_hw <= hw {
            return Ok(false);
        }
        let tail = &journal[hw as usize..];
        let next = self.manifest.epoch + 1;
        let alloc_watermark = tail
            .iter()
            .filter_map(JournalEvent::alloc_watermark)
            .fold(self.manifest.alloc_watermark, |acc, w| acc.max(w.0));
        let mut m = Manifest {
            epoch: next,
            image_ref: self.manifest.image_ref.clone(),
            delta_refs: self.manifest.delta_refs.clone(),
            journal_highwater_seq: new_hw,
            alloc_watermark,
        };
        // Virtual-time cost of this compactor pass: a blind apply per event
        // materialized (the fold replays everything it folds; a plain delta
        // cut only copies the tail).
        let mut applied = tail.len() as u64;
        if self.manifest.delta_refs.len() >= self.config.max_deltas {
            // Fold image + deltas + tail into a fresh canonical image.
            let folded = self.fold(os, &journal)?;
            applied += folded.len() as u64;
            let image = image_object(self.id, next);
            let body = encode_journal(&folded);
            with_retry(|| os.write_full(&image, &body))?;
            if let Some(o) = &self.obs {
                o.deltas_folded.add(self.manifest.delta_refs.len() as u64);
            }
            m.image_ref = Some(image.name.clone());
            m.delta_refs.clear();
        } else {
            let delta = delta_object(self.id, next);
            let body = encode_journal(tail);
            with_retry(|| os.write_full(&delta, &body))?;
            m.delta_refs.push(delta.name.clone());
        }
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

    /// Materializes the canonical event sequence covering `journal` (the
    /// clean prefix just read): the current manifest's image + deltas, then
    /// the tail past its high-water mark, replayed from empty and re-emitted
    /// in canonical order. If an image or delta object is unreadable, the
    /// fold self-heals by replaying `journal` whole (checkpointing never
    /// trims it).
    fn fold(
        &self,
        os: &dyn ObjectStore,
        journal: &[JournalEvent],
    ) -> Result<Vec<JournalEvent>, CheckpointError> {
        let (mut store, rest) = match materialize(os, self.id, &self.manifest) {
            Ok((store, _)) => (
                store,
                &journal[self.manifest.journal_highwater_seq as usize..],
            ),
            Err(e) if e.is_damage() => (MetadataStore::new(), journal),
            Err(e) => return Err(e),
        };
        store.apply_blind_all(rest);
        Ok(emit_canonical(&store))
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
/// and deltas materialized (proportional to namespace size, not workload
/// length).
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
        match materialize(os, id, &manifest) {
            Ok((store, events)) => {
                return Ok((Some((store, manifest, events)), head_version, fallbacks))
            }
            // A damaged image or delta: drop one manifest epoch and
            // replay a longer tail instead.
            Err(e) if e.is_damage() => {}
            Err(e) => return Err(e),
        }
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

/// Replays `manifest`'s image + deltas from an empty namespace. Returns
/// the store and how many events were materialized.
fn materialize(
    os: &dyn ObjectStore,
    id: JournalId,
    manifest: &Manifest,
) -> Result<(MetadataStore, u64), CheckpointError> {
    let mut store = MetadataStore::new();
    let mut applied = 0u64;
    for name in manifest.image_ref.iter().chain(&manifest.delta_refs) {
        let data = with_retry(|| os.read(&ObjectId::new(id.pool, name.clone())))?;
        let events =
            decode_journal(&data).map_err(|e| CheckpointError::Corrupt(format!("{name}: {e}")))?;
        store.apply_blind_all(&events);
        applied += events.len() as u64;
    }
    Ok((store, applied))
}

/// The newest per-epoch manifest copy below `below` that decodes cleanly.
fn newest_readable_manifest(os: &dyn ObjectStore, id: JournalId, below: u64) -> Option<Manifest> {
    let prefix = format!("ckpt.{:x}.manifest.", id.ino);
    let mut best: Option<Manifest> = None;
    for obj in os.list(id.pool, &prefix) {
        let Some(m) = with_retry(|| os.read(&obj))
            .ok()
            .and_then(|d| Manifest::decode(&d).ok())
        else {
            continue;
        };
        if m.epoch < below && best.as_ref().is_none_or(|b| m.epoch > b.epoch) {
            best = Some(m);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{recover_namespace, RecoveredNamespace};
    use cudele_journal::{read_journal, Attrs, InodeId, JournalWriter};
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
            image_ref: Some("ckpt.200.image.00000005".into()),
            delta_refs: vec![
                "ckpt.200.delta.00000006".into(),
                "ckpt.200.delta.00000007".into(),
            ],
            journal_highwater_seq: 1234,
            alloc_watermark: 0x5000,
        };
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        let empty = Manifest::empty();
        assert_eq!(Manifest::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn manifest_rejects_damage() {
        let mut bytes = Manifest::empty().encode();
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
        let cost = CostModel::calibrated();
        let mut mgr = CheckpointManager::attach(
            &os,
            jid(),
            CheckpointConfig {
                interval_events: 4,
                max_deltas: 2,
            },
        )
        .unwrap();
        // Several checkpoint rounds, enough to fold an image.
        for round in 0..6u64 {
            let batch: Vec<_> = (round * 10..round * 10 + 10).map(create).collect();
            append(&os, &batch);
            assert!(mgr.checkpoint(&os, Nanos::ZERO, &cost).unwrap());
        }
        assert_eq!(mgr.manifest().epoch, 6);
        assert!(mgr.manifest().image_ref.is_some(), "a fold must have run");
        // A few more flushed events left as uncovered tail.
        append(&os, &[create(100), create(101)]);

        let rec = recover(&os);
        assert_eq!(rec.store.snapshot(), full_replay(&os).snapshot());
        assert_eq!(
            rec.replayed_events, 2,
            "only the uncovered tail is replayed"
        );
        assert_eq!(rec.fallbacks, 0);
        assert!(!rec.healed);
        assert_eq!(rec.manifest.expect("manifest exists").epoch, 6);
    }

    #[test]
    fn damaged_delta_falls_back_one_epoch() {
        let os = InMemoryStore::paper_default();
        let cost = CostModel::calibrated();
        let mut mgr = CheckpointManager::attach(
            &os,
            jid(),
            CheckpointConfig {
                interval_events: 1,
                max_deltas: 10,
            },
        )
        .unwrap();
        for round in 0..3u64 {
            append(&os, &[create(round * 2), create(round * 2 + 1)]);
            mgr.checkpoint(&os, Nanos::ZERO, &cost).unwrap();
        }
        // Flip a byte in the newest delta object.
        let newest = delta_object(jid(), 3);
        let mut data = os.read(&newest).unwrap().to_vec();
        let mid = data.len() / 2;
        data[mid] ^= 0x01;
        os.write_full(&newest, &data).unwrap();

        let rec = recover(&os);
        // Fallback to epoch 2's manifest, with the last window replayed
        // from the (untrimmed) journal instead — zero loss.
        assert_eq!(rec.manifest.expect("manifest exists").epoch, 2);
        assert_eq!(rec.fallbacks, 1);
        assert_eq!(rec.replayed_events, 2);
        assert_eq!(rec.store.snapshot(), full_replay(&os).snapshot());
    }

    #[test]
    fn damaged_head_uses_newest_epoch_copy() {
        let os = InMemoryStore::paper_default();
        let cost = CostModel::calibrated();
        let mut mgr = CheckpointManager::attach(
            &os,
            jid(),
            CheckpointConfig {
                interval_events: 1,
                max_deltas: 10,
            },
        )
        .unwrap();
        append(&os, &[create(0), create(1)]);
        mgr.checkpoint(&os, Nanos::ZERO, &cost).unwrap();
        os.write_full(&head_object(jid()), b"garbage").unwrap();
        let rec = recover(&os);
        assert_eq!(rec.manifest.expect("ladder holds").epoch, 1);
        assert_eq!(rec.fallbacks, 1);
        assert_eq!(rec.store.snapshot(), full_replay(&os).snapshot());
    }

    #[test]
    fn everything_damaged_falls_back_to_full_replay() {
        let os = InMemoryStore::paper_default();
        let cost = CostModel::calibrated();
        let mut mgr = CheckpointManager::attach(
            &os,
            jid(),
            CheckpointConfig {
                interval_events: 1,
                max_deltas: 10,
            },
        )
        .unwrap();
        append(&os, &[create(0)]);
        mgr.checkpoint(&os, Nanos::ZERO, &cost).unwrap();
        os.write_full(&head_object(jid()), b"garbage").unwrap();
        os.write_full(&manifest_object(jid(), 1), b"garbage")
            .unwrap();
        // No rung holds: full replay, and the skipped rungs are reported.
        let rec = recover(&os);
        assert!(rec.manifest.is_none());
        assert!(rec.fallbacks >= 1, "the bottomed-out ladder skipped rungs");
        assert_eq!(rec.replayed_events, 1);
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
        let mut mgr = CheckpointManager::attach(&os, jid(), CheckpointConfig::default()).unwrap();
        assert!(!mgr.checkpoint(&os, Nanos::ZERO, &cost).unwrap());
        append(&os, &[create(0)]);
        assert!(mgr.checkpoint(&os, Nanos::ZERO, &cost).unwrap());
        assert!(!mgr.checkpoint(&os, Nanos::ZERO, &cost).unwrap());
    }

    #[test]
    fn manager_resumes_epoch_sequence_from_stored_head() {
        let os = InMemoryStore::paper_default();
        let cost = CostModel::calibrated();
        let cfg = CheckpointConfig {
            interval_events: 1,
            max_deltas: 10,
        };
        let mut a = CheckpointManager::attach(&os, jid(), cfg).unwrap();
        append(&os, &[create(0)]);
        a.checkpoint(&os, Nanos::ZERO, &cost).unwrap();
        // A second manager attached later (restart) continues at epoch 2
        // and its CAS succeeds against the stored HEAD version.
        let mut b = CheckpointManager::attach(&os, jid(), cfg).unwrap();
        assert_eq!(b.manifest().epoch, 1);
        append(&os, &[create(1)]);
        assert!(b.checkpoint(&os, Nanos::ZERO, &cost).unwrap());
        assert_eq!(b.manifest().epoch, 2);
    }

    #[test]
    fn alloc_watermark_survives_folds() {
        let os = InMemoryStore::paper_default();
        let cost = CostModel::calibrated();
        let mut mgr = CheckpointManager::attach(
            &os,
            jid(),
            CheckpointConfig {
                interval_events: 1,
                max_deltas: 1,
            },
        )
        .unwrap();
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
        assert!(mgr.manifest().image_ref.is_some());
        assert!(recover(&os).alloc.watermark() >= InodeId(0x9000 + 16));
    }
}
