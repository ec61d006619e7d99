//! The object store: a trait mirroring the slice of RADOS that CephFS's
//! metadata path uses, plus an in-memory, replicated, OSD-aware
//! implementation.
//!
//! CephFS stores two kinds of metadata objects:
//!
//! * **journal stripes** — byte blobs written with `write_full`/`append`
//!   (the mdlog, and Cudele's Global Persist journals), and
//! * **directory fragments** — objects whose *omap* (a sorted key/value
//!   map attached to the object) holds one entry per dentry.
//!
//! The in-memory store places each object on `replication` OSDs chosen by a
//! stable hash and models OSD outages in virtual time (failing/reviving
//! OSDs for the durability failure-injection tests). It keeps no I/O
//! account of its own: an attached registry counts every operation under
//! `rados.store.*` and `rados.osd.<i>.*`, and the cost model, not the
//! store, times the I/O.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use cudele_obs::timeline::Series;
use cudele_obs::{Counter, Gauge, Registry};
use cudele_sim::Nanos;
use parking_lot::RwLock;

use crate::types::{ObjectId, PoolId, RadosError, Result};

/// Size and version metadata for one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectStat {
    /// Byte length of the object's data blob.
    pub size: u64,
    /// Number of omap entries.
    pub omap_entries: u64,
    /// Monotonic per-object version, bumped on every mutation.
    pub version: u64,
}

/// What [`ObjectStore::take_io_delta`] returns: nothing. The store's I/O
/// is counted by the attached registry (`rados.store.*`); the type stays
/// only while the benchmark crate's traced store still implements the
/// method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoDelta;

/// The slice of the RADOS API that the metadata path uses.
pub trait ObjectStore: Send + Sync {
    /// Replaces the object's data blob (creating the object if needed) and
    /// returns its new version.
    fn write_full(&self, id: &ObjectId, data: &[u8]) -> Result<u64>;

    /// Guarded replace: succeeds only if the object's current version is
    /// `expected` (0 = "must not exist"). RADOS exposes the same guard via
    /// compound operations; recovery tools use it to avoid clobbering
    /// concurrent updates.
    fn cas_write_full(&self, id: &ObjectId, expected: u64, data: &[u8]) -> Result<u64>;

    /// Appends to the object's data blob (creating the object if needed)
    /// and returns its new version.
    fn append(&self, id: &ObjectId, data: &[u8]) -> Result<u64>;

    /// Reads the whole data blob.
    fn read(&self, id: &ObjectId) -> Result<Bytes>;

    /// Stats an object.
    fn stat(&self, id: &ObjectId) -> Result<ObjectStat>;

    /// Removes an object (data and omap). Ok even if large.
    fn remove(&self, id: &ObjectId) -> Result<()>;

    /// Whether an object exists on at least one live OSD.
    fn exists(&self, id: &ObjectId) -> bool;

    /// Lists objects in a pool whose name starts with `prefix`, sorted.
    fn list(&self, pool: PoolId, prefix: &str) -> Vec<ObjectId>;

    /// Sets one omap key (creating the object if needed).
    fn omap_set(&self, id: &ObjectId, key: &str, value: &[u8]) -> Result<u64>;

    /// Reads one omap key.
    fn omap_get(&self, id: &ObjectId, key: &str) -> Result<Option<Bytes>>;

    /// Removes one omap key; returns whether it existed.
    fn omap_remove(&self, id: &ObjectId, key: &str) -> Result<bool>;

    /// All omap entries, sorted by key.
    fn omap_list(&self, id: &ObjectId) -> Result<Vec<(String, Bytes)>>;

    /// Always [`IoDelta`]: kept only while the benchmark crate's traced
    /// store still implements it. Read I/O counts from the registry.
    fn take_io_delta(&self) -> IoDelta {
        IoDelta
    }

    /// Attaches an observability registry: implementations that support it
    /// count their I/O into `rados.store.*` counters and per-OSD
    /// `rados.osd.<i>.*` counters/gauges — the store's one I/O account.
    /// Default: no-op, so plain stores and test doubles need not care.
    fn attach_obs(&self, _reg: &Registry) {}

    /// The store's virtual clock: outage windows open and close against
    /// it, and the per-OSD series are stamped with it. Default: always
    /// [`Nanos::ZERO`], for stores that keep no clock.
    fn now(&self) -> Nanos {
        Nanos::ZERO
    }

    /// Sets the store's virtual clock. The serving MDS is the one caller
    /// (`MetadataServer::set_now` pushes its clock through here); wrappers
    /// forward it to the store they wrap. Default: no-op.
    fn set_now(&self, _now: Nanos) {}
}

#[derive(Debug, Default)]
struct Object {
    data: Vec<u8>,
    omap: BTreeMap<String, Bytes>,
    version: u64,
    /// OSD ids this object is replicated on (fixed at creation).
    placement: Vec<usize>,
}

struct Inner {
    objects: HashMap<ObjectId, Object>,
    /// Per-OSD outage windows `[from, until)` in virtual nanoseconds, one
    /// list per OSD. An OSD is down at instant `t` iff some window
    /// contains `t`.
    outages: Vec<Vec<(u64, u64)>>,
}

/// Whether `osd` is outside every outage window at instant `now`.
fn osd_up_in(outages: &[Vec<(u64, u64)>], osd: usize, now: u64) -> bool {
    outages
        .get(osd)
        .is_none_or(|ws| !ws.iter().any(|&(from, until)| from <= now && now < until))
}

impl Inner {
    fn osd_up(&self, osd: usize, now: u64) -> bool {
        osd_up_in(&self.outages, osd, now)
    }
}

cudele_obs::handles! {
    /// Per-OSD observability handles, for OSD `i`.
    #[derive(Debug)]
    struct OsdObs(reg: &Registry, i: usize) {
        ops: Counter = reg.counter(&format!("rados.osd.{i}.ops")),
        bytes_written: Counter = reg.counter(&format!("rados.osd.{i}.bytes_written")),
        bytes_read: Counter = reg.counter(&format!("rados.osd.{i}.bytes_read")),
        /// Fraction of the cluster's written bytes that landed on this OSD —
        /// a balance indicator, refreshed on every write that touches it.
        share: Gauge = reg.gauge(&format!("rados.osd.{i}.write_share")),
        /// This OSD's windowed write throughput (`rados.osd.<i>.write_bytes`),
        /// stamped with the store's clock ([`ObjectStore::now`]).
        tl_write: Series = reg.timeline().series(&format!("rados.osd.{i}.write_bytes")),
        /// Windowed read throughput (`rados.osd.<i>.read_bytes`).
        tl_read: Series = reg.timeline().series(&format!("rados.osd.{i}.read_bytes")),
    }
}

cudele_obs::handles! {
    /// Store-wide observability handles, and each of `osds` OSDs': the
    /// store's one I/O account.
    #[derive(Debug)]
    struct StoreObs(reg: &Registry, osds: usize) {
        read_ops: Counter = reg.counter("rados.store.read_ops"),
        write_ops: Counter = reg.counter("rados.store.write_ops"),
        bytes_read: Counter = reg.counter("rados.store.bytes_read"),
        bytes_written: Counter = reg.counter("rados.store.bytes_written"),
        per_osd: Vec<OsdObs> = (0..osds).map(|i| OsdObs::new(reg, i)).collect(),
    }
}

/// In-memory replicated object store ("the RADOS cluster").
///
/// Thread safe; all methods take `&self`. The paper's testbed ran 3 OSDs,
/// which is the default here.
pub struct InMemoryStore {
    inner: RwLock<Inner>,
    replication: usize,
    /// Current virtual time (ns), as the serving MDS last set it; outage
    /// windows are evaluated against it.
    now: AtomicU64,
    obs: RwLock<Option<StoreObs>>,
}

impl InMemoryStore {
    /// A cluster with `osds` object storage daemons and `replication`
    /// copies of each object (clamped to the OSD count).
    pub fn new(osds: usize, replication: usize) -> Self {
        assert!(osds > 0, "need at least one OSD");
        InMemoryStore {
            inner: RwLock::new(Inner {
                objects: HashMap::new(),
                outages: vec![Vec::new(); osds],
            }),
            replication: replication.clamp(1, osds),
            now: AtomicU64::new(0),
            obs: RwLock::new(None),
        }
    }

    /// The paper's configuration: 3 OSDs, 1 MON, replication 1 is what the
    /// Jewel-era defaults used for the experiments' metadata pool; we keep
    /// replication 2 available for the failure tests but default to 1 so
    /// bandwidth accounting matches the calibrated model.
    pub fn paper_default() -> Self {
        InMemoryStore::new(3, 1)
    }

    /// Schedules an outage window `[from, until)` for `osd`. The OSD is
    /// down whenever the store's virtual time falls inside any scheduled
    /// window; objects whose every replica is inside a window become
    /// unavailable, and new objects avoid currently-down OSDs.
    pub fn schedule_outage(&self, osd: usize, from: Nanos, until: Nanos) {
        let mut inner = self.inner.write();
        if osd < inner.outages.len() && from < until {
            inner.outages[osd].push((from.as_nanos(), until.as_nanos()));
        }
    }

    /// Marks an OSD down from the current virtual time onward (an open
    /// outage window, ended by [`InMemoryStore::revive_osd`]).
    pub fn fail_osd(&self, osd: usize) {
        self.schedule_outage(osd, self.now(), Nanos::MAX);
    }

    /// Brings an OSD back up at the current virtual time: the active window
    /// is truncated to end now and any future windows are cancelled (its
    /// data was never lost — RADOS recovers replicas on revival, which we
    /// model as instantaneous).
    pub fn revive_osd(&self, osd: usize) {
        let now = self.now.load(Ordering::Relaxed);
        let mut inner = self.inner.write();
        if let Some(ws) = inner.outages.get_mut(osd) {
            ws.retain_mut(|w| {
                if w.0 <= now {
                    w.1 = w.1.min(now);
                    w.0 < w.1
                } else {
                    false // future window: cancelled
                }
            });
        }
    }

    /// Whether each OSD is up, by index, at the store's current virtual
    /// time (outside every outage window).
    pub fn osds_up(&self) -> Vec<bool> {
        let now = self.now.load(Ordering::Relaxed);
        let inner = self.inner.read();
        (0..inner.outages.len())
            .map(|i| inner.osd_up(i, now))
            .collect()
    }

    /// Number of objects currently stored.
    pub fn object_count(&self) -> usize {
        self.inner.read().objects.len()
    }

    /// Sum of all object data-blob sizes (excludes omap; excludes
    /// replication — this is logical bytes).
    pub fn logical_bytes(&self) -> u64 {
        self.inner
            .read()
            .objects
            .values()
            .map(|o| o.data.len() as u64)
            .sum()
    }

    /// Mirrors a write into the attached registry, if any: store-wide
    /// counters plus per-replica OSD counters and balance gauges.
    fn obs_charge_write(&self, placement: &[usize], write_bytes: u64) {
        let guard = self.obs.read();
        let Some(obs) = guard.as_ref() else { return };
        obs.write_ops.inc();
        obs.bytes_written.add(write_bytes * placement.len() as u64);
        let total = obs.bytes_written.get();
        let now = self.now();
        for &o in placement {
            if let Some(oo) = obs.per_osd.get(o) {
                oo.ops.inc();
                oo.bytes_written.add(write_bytes);
                if total > 0 {
                    oo.share.set(oo.bytes_written.get() as f64 / total as f64);
                }
                oo.tl_write.add(now, write_bytes);
            }
        }
    }

    /// Mirrors a read into the attached registry, if any.
    fn obs_charge_read(&self, primary: usize, read_bytes: u64) {
        let guard = self.obs.read();
        let Some(obs) = guard.as_ref() else { return };
        obs.read_ops.inc();
        obs.bytes_read.add(read_bytes);
        if let Some(oo) = obs.per_osd.get(primary) {
            oo.ops.inc();
            oo.bytes_read.add(read_bytes);
            oo.tl_read.add(self.now(), read_bytes);
        }
    }

    fn placement_for(name: &str, osd_count: usize, replication: usize, up: &[bool]) -> Vec<usize> {
        // Stable FNV-1a hash of the object name picks the primary; replicas
        // follow around the ring, skipping down OSDs when possible.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let primary = (h % osd_count as u64) as usize;
        let mut out = Vec::with_capacity(replication);
        let mut i = 0;
        while out.len() < replication && i < osd_count {
            let cand = (primary + i) % osd_count;
            if up[cand] {
                out.push(cand);
            }
            i += 1;
        }
        // Degraded cluster: fall back to down OSDs rather than placing
        // nowhere (writes to a fully-down cluster are rejected by callers
        // via `Unavailable` on read).
        let mut i = 0;
        while out.len() < replication && i < osd_count {
            let cand = (primary + i) % osd_count;
            if !out.contains(&cand) {
                out.push(cand);
            }
            i += 1;
        }
        out
    }

    /// The object a write lands on: the stored one, or a new one placed
    /// on the OSDs up at `now`. `Unavailable` when every replica is down —
    /// and then nothing is created, so a refused write leaves no empty
    /// object behind for a later reader to misparse.
    fn writable<'a>(
        &self,
        objects: &'a mut HashMap<ObjectId, Object>,
        outages: &[Vec<(u64, u64)>],
        id: &ObjectId,
        now: u64,
    ) -> Result<&'a mut Object> {
        let osd_count = outages.len();
        let live = |placement: &[usize]| placement.iter().any(|&o| osd_up_in(outages, o, now));
        match objects.entry(id.clone()) {
            Entry::Occupied(e) if live(&e.get().placement) => Ok(e.into_mut()),
            Entry::Occupied(_) => Err(RadosError::Unavailable(id.clone())),
            Entry::Vacant(e) => {
                let up: Vec<bool> = (0..osd_count).map(|i| osd_up_in(outages, i, now)).collect();
                let placement = Self::placement_for(&id.name, osd_count, self.replication, &up);
                if !live(&placement) {
                    return Err(RadosError::Unavailable(id.clone()));
                }
                Ok(e.insert(Object {
                    placement,
                    ..Object::default()
                }))
            }
        }
    }

    /// Runs `f` with a mutable reference to the object, creating it if
    /// absent, and charges `write_bytes` to its replicas. With `expected`,
    /// the write is guarded: the object's current version (0 when absent)
    /// must equal it, checked under the same lock and before availability.
    fn mutate<R>(
        &self,
        id: &ObjectId,
        expected: Option<u64>,
        write_bytes: u64,
        f: impl FnOnce(&mut Object) -> R,
    ) -> Result<(R, u64)> {
        let now = self.now.load(Ordering::Relaxed);
        let mut inner = self.inner.write();
        let Inner { objects, outages } = &mut *inner;
        if let Some(expected) = expected {
            let actual = objects.get(id).map_or(0, |o| o.version);
            if actual != expected {
                return Err(RadosError::VersionMismatch {
                    object: id.clone(),
                    expected,
                    actual,
                });
            }
        }
        let object = self.writable(objects, outages, id, now)?;
        let r = f(object);
        object.version += 1;
        self.obs_charge_write(&object.placement, write_bytes);
        Ok((r, object.version))
    }

    /// Replaces the object's data blob, guarded by `expected` as in
    /// [`InMemoryStore::mutate`].
    fn replace(&self, id: &ObjectId, expected: Option<u64>, data: &[u8]) -> Result<u64> {
        let ((), v) = self.mutate(id, expected, data.len() as u64, |o| {
            o.data.clear();
            o.data.extend_from_slice(data);
        })?;
        Ok(v)
    }

    /// Runs `f` with a shared reference to the object and charges
    /// `read_bytes` to its primary.
    fn inspect<R>(&self, id: &ObjectId, f: impl FnOnce(&Object) -> (R, u64)) -> Result<R> {
        let now = self.now.load(Ordering::Relaxed);
        let inner = self.inner.read();
        let object = inner
            .objects
            .get(id)
            .ok_or_else(|| RadosError::NoEnt(id.clone()))?;
        let live = object
            .placement
            .iter()
            .copied()
            .find(|&o| inner.osd_up(o, now));
        let Some(primary) = live else {
            return Err(RadosError::Unavailable(id.clone()));
        };
        let (r, read_bytes) = f(object);
        self.obs_charge_read(primary, read_bytes);
        Ok(r)
    }
}

impl ObjectStore for InMemoryStore {
    fn write_full(&self, id: &ObjectId, data: &[u8]) -> Result<u64> {
        self.replace(id, None, data)
    }

    fn cas_write_full(&self, id: &ObjectId, expected: u64, data: &[u8]) -> Result<u64> {
        self.replace(id, Some(expected), data)
    }

    fn append(&self, id: &ObjectId, data: &[u8]) -> Result<u64> {
        let bytes = data.len() as u64;
        let ((), v) = self.mutate(id, None, bytes, |o| o.data.extend_from_slice(data))?;
        Ok(v)
    }

    fn read(&self, id: &ObjectId) -> Result<Bytes> {
        self.inspect(id, |o| {
            (Bytes::copy_from_slice(&o.data), o.data.len() as u64)
        })
    }

    fn stat(&self, id: &ObjectId) -> Result<ObjectStat> {
        self.inspect(id, |o| {
            (
                ObjectStat {
                    size: o.data.len() as u64,
                    omap_entries: o.omap.len() as u64,
                    version: o.version,
                },
                0,
            )
        })
    }

    fn remove(&self, id: &ObjectId) -> Result<()> {
        let mut inner = self.inner.write();
        inner
            .objects
            .remove(id)
            .map(|_| ())
            .ok_or_else(|| RadosError::NoEnt(id.clone()))
    }

    fn exists(&self, id: &ObjectId) -> bool {
        let now = self.now.load(Ordering::Relaxed);
        let inner = self.inner.read();
        match inner.objects.get(id) {
            Some(o) => o.placement.iter().any(|&i| inner.osd_up(i, now)),
            None => false,
        }
    }

    fn list(&self, pool: PoolId, prefix: &str) -> Vec<ObjectId> {
        let inner = self.inner.read();
        let mut out: Vec<ObjectId> = inner
            .objects
            .keys()
            .filter(|id| id.pool == pool && id.name.starts_with(prefix))
            .cloned()
            .collect();
        out.sort();
        out
    }

    fn omap_set(&self, id: &ObjectId, key: &str, value: &[u8]) -> Result<u64> {
        let bytes = (key.len() + value.len()) as u64;
        let ((), v) = self.mutate(id, None, bytes, |o| {
            o.omap
                .insert(key.to_string(), Bytes::copy_from_slice(value));
        })?;
        Ok(v)
    }

    fn omap_get(&self, id: &ObjectId, key: &str) -> Result<Option<Bytes>> {
        self.inspect(id, |o| {
            let v = o.omap.get(key).cloned();
            let bytes = v.as_ref().map_or(0, |b| b.len() as u64);
            (v, bytes)
        })
    }

    fn omap_remove(&self, id: &ObjectId, key: &str) -> Result<bool> {
        let (existed, _) =
            self.mutate(id, None, key.len() as u64, |o| o.omap.remove(key).is_some())?;
        Ok(existed)
    }

    fn omap_list(&self, id: &ObjectId) -> Result<Vec<(String, Bytes)>> {
        self.inspect(id, |o| {
            let out: Vec<(String, Bytes)> =
                o.omap.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            let bytes: u64 = out.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
            (out, bytes)
        })
    }

    fn attach_obs(&self, reg: &Registry) {
        let osds = self.inner.read().outages.len();
        *self.obs.write() = Some(StoreObs::new(reg, osds));
    }

    fn now(&self) -> Nanos {
        Nanos(self.now.load(Ordering::Relaxed))
    }

    /// A plain store, not a read-modify-write: the setter runs once per
    /// request, and the one caller's clock is the only writer.
    fn set_now(&self, now: Nanos) {
        self.now.store(now.as_nanos(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> InMemoryStore {
        InMemoryStore::new(3, 2)
    }

    fn oid(name: &str) -> ObjectId {
        ObjectId::new(PoolId::METADATA, name)
    }

    #[test]
    fn write_read_roundtrip() {
        let s = store();
        s.write_full(&oid("a"), b"hello").unwrap();
        assert_eq!(s.read(&oid("a")).unwrap().as_ref(), b"hello");
    }

    #[test]
    fn attached_registry_mirrors_io() {
        let s = store(); // 3 OSDs, replication 2
        let reg = Registry::new();
        s.attach_obs(&reg);
        s.write_full(&oid("a"), b"hello").unwrap();
        s.read(&oid("a")).unwrap();
        assert_eq!(reg.counter_value("rados.store.write_ops"), Some(1));
        assert_eq!(reg.counter_value("rados.store.read_ops"), Some(1));
        // 5 bytes x 2 replicas.
        assert_eq!(reg.counter_value("rados.store.bytes_written"), Some(10));
        assert_eq!(reg.counter_value("rados.store.bytes_read"), Some(5));
        // Per-OSD counters sum to the store-wide totals and the write-share
        // gauges of the replicas sum to 1.
        let per_osd_written: u64 = (0..3)
            .map(|i| {
                reg.counter_value(&format!("rados.osd.{i}.bytes_written"))
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(per_osd_written, 10);
        let share: f64 = (0..3)
            .map(|i| {
                reg.gauge_value(&format!("rados.osd.{i}.write_share"))
                    .unwrap_or(0.0)
            })
            .sum();
        assert!((share - 1.0).abs() < 1e-9, "shares sum to {share}");
    }

    #[test]
    fn cas_write_charges_obs_too() {
        let s = store();
        let reg = Registry::new();
        s.attach_obs(&reg);
        let v = s.cas_write_full(&oid("a"), 0, b"abc").unwrap();
        s.cas_write_full(&oid("a"), v, b"defg").unwrap();
        assert_eq!(reg.counter_value("rados.store.write_ops"), Some(2));
        assert_eq!(reg.counter_value("rados.store.bytes_written"), Some(14));
    }

    #[test]
    fn append_grows_object() {
        let s = store();
        s.append(&oid("a"), b"ab").unwrap();
        s.append(&oid("a"), b"cd").unwrap();
        assert_eq!(s.read(&oid("a")).unwrap().as_ref(), b"abcd");
        assert_eq!(s.stat(&oid("a")).unwrap().size, 4);
    }

    #[test]
    fn versions_increase_monotonically() {
        let s = store();
        let v1 = s.write_full(&oid("a"), b"x").unwrap();
        let v2 = s.append(&oid("a"), b"y").unwrap();
        let v3 = s.omap_set(&oid("a"), "k", b"v").unwrap();
        assert!(v1 < v2 && v2 < v3);
    }

    #[test]
    fn missing_object_is_noent() {
        let s = store();
        assert!(matches!(s.read(&oid("nope")), Err(RadosError::NoEnt(_))));
        assert!(matches!(s.stat(&oid("nope")), Err(RadosError::NoEnt(_))));
        assert!(matches!(s.remove(&oid("nope")), Err(RadosError::NoEnt(_))));
        assert!(!s.exists(&oid("nope")));
    }

    #[test]
    fn omap_crud() {
        let s = store();
        let id = oid("dirfrag");
        s.omap_set(&id, "file-b", b"ino2").unwrap();
        s.omap_set(&id, "file-a", b"ino1").unwrap();
        assert_eq!(
            s.omap_get(&id, "file-a").unwrap().unwrap().as_ref(),
            b"ino1"
        );
        assert_eq!(s.omap_get(&id, "file-z").unwrap(), None);
        // Listing is sorted by key.
        let all = s.omap_list(&id).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, "file-a");
        assert!(s.omap_remove(&id, "file-a").unwrap());
        assert!(!s.omap_remove(&id, "file-a").unwrap());
        assert_eq!(s.stat(&id).unwrap().omap_entries, 1);
    }

    #[test]
    fn list_filters_by_pool_and_prefix() {
        let s = store();
        s.write_full(&oid("200.00000000"), b"j").unwrap();
        s.write_full(&oid("200.00000001"), b"j").unwrap();
        s.write_full(&oid("300.00000000"), b"j").unwrap();
        s.write_full(&ObjectId::new(PoolId::DATA, "200.00000009"), b"d")
            .unwrap();
        let js = s.list(PoolId::METADATA, "200.");
        assert_eq!(js.len(), 2);
        assert_eq!(js[0].name, "200.00000000"); // sorted
    }

    #[test]
    fn reads_survive_single_osd_failure_with_replication() {
        let s = InMemoryStore::new(3, 2);
        s.write_full(&oid("a"), b"safe").unwrap();
        // Fail every OSD except one replica — find placement by trying.
        for osd in 0..3 {
            s.fail_osd(osd);
            let r = s.read(&oid("a"));
            if r.is_ok() {
                // Still at least one live replica.
            }
            s.revive_osd(osd);
        }
        // With replication 2 of 3 OSDs, any single failure keeps data live.
        s.fail_osd(0);
        assert!(s.read(&oid("a")).is_ok());
    }

    #[test]
    fn unreplicated_object_unavailable_when_all_replicas_down() {
        let s = InMemoryStore::new(2, 1);
        s.write_full(&oid("a"), b"x").unwrap();
        s.fail_osd(0);
        s.fail_osd(1);
        assert!(matches!(s.read(&oid("a")), Err(RadosError::Unavailable(_))));
        assert!(!s.exists(&oid("a")));
        s.revive_osd(0);
        s.revive_osd(1);
        assert_eq!(s.read(&oid("a")).unwrap().as_ref(), b"x");
    }

    #[test]
    fn outage_window_is_virtual_time_aware() {
        let s = InMemoryStore::new(2, 1);
        s.write_full(&oid("a"), b"x").unwrap();
        // Find the single OSD holding "a" by failing each in turn.
        let holder = (0..2)
            .find(|&o| {
                s.fail_osd(o);
                let down = s.read(&oid("a")).is_err();
                s.revive_osd(o);
                down
            })
            .unwrap();
        // An outage window in the future has no effect now...
        s.schedule_outage(holder, Nanos::from_millis(10), Nanos::from_millis(20));
        assert!(s.read(&oid("a")).is_ok());
        assert!(s.exists(&oid("a")));
        // ...kicks in when virtual time enters it...
        s.set_now(Nanos::from_millis(15));
        assert!(matches!(s.read(&oid("a")), Err(RadosError::Unavailable(_))));
        assert!(!s.exists(&oid("a")));
        assert!(!s.osds_up()[holder]);
        // ...and expires when time moves past it — no revive call needed.
        s.set_now(Nanos::from_millis(20));
        assert_eq!(s.read(&oid("a")).unwrap().as_ref(), b"x");
        assert!(s.osds_up()[holder]);
    }

    #[test]
    fn reads_served_from_surviving_replica_during_outage() {
        let s = InMemoryStore::new(3, 2);
        s.write_full(&oid("a"), b"safe").unwrap();
        // With replication 2 of 3 OSDs, any single outage window leaves a
        // live replica to serve reads.
        for osd in 0..3 {
            s.schedule_outage(
                osd,
                Nanos::from_millis(osd as u64 * 10),
                Nanos::from_millis(osd as u64 * 10 + 5),
            );
        }
        for t in [0u64, 10, 20] {
            s.set_now(Nanos::from_millis(t));
            assert_eq!(s.read(&oid("a")).unwrap().as_ref(), b"safe", "at {t}ms");
        }
    }

    #[test]
    fn a_write_refused_by_an_outage_creates_nothing() {
        let s = InMemoryStore::new(2, 1);
        s.schedule_outage(0, Nanos::from_millis(1), Nanos::from_millis(2));
        s.schedule_outage(1, Nanos::from_millis(1), Nanos::from_millis(2));
        s.set_now(Nanos::from_micros(1500));
        for refused in [
            s.write_full(&oid("hdr"), b"x"),
            s.append(&oid("stripe"), b"x"),
            s.omap_set(&oid("dir"), "k", b"v"),
            s.cas_write_full(&oid("cas"), 0, b"x"),
        ] {
            assert!(matches!(refused, Err(RadosError::Unavailable(_))));
        }
        // Once the window closes, the objects are absent, not empty.
        s.set_now(Nanos::from_millis(2));
        assert_eq!(s.object_count(), 0);
        assert!(matches!(s.read(&oid("hdr")), Err(RadosError::NoEnt(_))));
        s.cas_write_full(&oid("cas"), 0, b"x").unwrap();
    }

    #[test]
    fn revive_cancels_active_and_future_windows() {
        let s = InMemoryStore::new(2, 1);
        s.write_full(&oid("a"), b"x").unwrap();
        s.fail_osd(0);
        s.fail_osd(1);
        s.schedule_outage(0, Nanos::from_secs(1), Nanos::from_secs(2));
        assert!(s.read(&oid("a")).is_err());
        s.revive_osd(0);
        s.revive_osd(1);
        assert!(s.read(&oid("a")).is_ok());
        // The future window on OSD 0 was cancelled by the revive.
        s.set_now(Nanos::from_secs(1) + Nanos::MILLI);
        assert!(s.read(&oid("a")).is_ok());
    }

    #[test]
    fn placement_is_stable_and_spreads() {
        let up = vec![true; 3];
        let p1 = InMemoryStore::placement_for("obj1", 3, 2, &up);
        let p2 = InMemoryStore::placement_for("obj1", 3, 2, &up);
        assert_eq!(p1, p2);
        assert_eq!(p1.len(), 2);
        assert_ne!(p1[0], p1[1]);
        // Different names eventually hit different primaries.
        let primaries: std::collections::HashSet<usize> = (0..32)
            .map(|i| InMemoryStore::placement_for(&format!("obj{i}"), 3, 1, &up)[0])
            .collect();
        assert!(primaries.len() > 1);
    }

    #[test]
    fn logical_bytes_and_object_count() {
        let s = store();
        s.write_full(&oid("a"), &[0; 10]).unwrap();
        s.write_full(&oid("b"), &[0; 5]).unwrap();
        assert_eq!(s.object_count(), 2);
        assert_eq!(s.logical_bytes(), 15);
        s.remove(&oid("a")).unwrap();
        assert_eq!(s.object_count(), 1);
        assert_eq!(s.logical_bytes(), 5);
    }

    #[test]
    fn cas_guards_versions() {
        let s = store();
        // expected=0: create-if-absent.
        let v1 = s.cas_write_full(&oid("a"), 0, b"first").unwrap();
        assert_eq!(s.read(&oid("a")).unwrap().as_ref(), b"first");
        // Stale expectation fails and reports the actual version.
        match s.cas_write_full(&oid("a"), 0, b"clobber") {
            Err(RadosError::VersionMismatch {
                expected: 0,
                actual,
                ..
            }) => {
                assert_eq!(actual, v1)
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        assert_eq!(s.read(&oid("a")).unwrap().as_ref(), b"first");
        // Correct expectation succeeds.
        let v2 = s.cas_write_full(&oid("a"), v1, b"second").unwrap();
        assert!(v2 > v1);
        assert_eq!(s.read(&oid("a")).unwrap().as_ref(), b"second");
    }

    #[test]
    fn cas_create_race_has_single_winner() {
        use std::sync::Arc;
        let s = Arc::new(store());
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                s.cas_write_full(&oid("lock"), 0, format!("winner-{t}").as_bytes())
                    .is_ok()
            }));
        }
        let wins: usize = handles
            .into_iter()
            .map(|h| h.join().unwrap() as usize)
            .sum();
        assert_eq!(wins, 1, "exactly one CAS create may win");
    }

    #[test]
    fn concurrent_appends_are_not_lost() {
        use std::sync::Arc;
        let s = Arc::new(store());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..250 {
                    s.append(&oid("shared"), b"x").unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.stat(&oid("shared")).unwrap().size, 1000);
    }
}
