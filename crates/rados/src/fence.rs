//! Epoch fencing: the mechanism that keeps a "zombie" metadata server —
//! one that was declared dead and replaced, but whose process is still
//! running — from corrupting the namespace.
//!
//! Real Ceph solves this with the monitor's MDSMap: every MDS instance is
//! assigned a generation by the monitor, OSDs learn the current map via
//! the blocklist, and writes from a blocklisted instance are rejected at
//! the OSD. We model the same contract with two pieces:
//!
//! * [`FencingAuthority`] — the monitor-side source of truth for the
//!   current [`Epoch`]. Takeovers call [`FencingAuthority::bump`]; the
//!   returned epoch belongs to the new primary and every older epoch is
//!   fenced from that instant on.
//! * [`FencedStore`] — an [`ObjectStore`] wrapper representing one
//!   writer's session with the cluster. Mutations carry the writer's
//!   stamped epoch; if the authority has moved past it the operation is
//!   rejected with [`RadosError::Fenced`] before touching the underlying
//!   store. Reads always pass through (a stale reader is harmless and
//!   standby replay must be able to tail the journal below the current
//!   epoch).
//!
//! Rejections are counted (drainable via [`FencedStore::fenced_writes`]
//! and mirrored to the `rados.fenced_writes` obs counter) so tests and
//! benchmarks can assert exactly how many zombie writes were turned away.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use cudele_obs::{Counter, Registry};
use cudele_sim::Nanos;
use parking_lot::RwLock;

use crate::store::{ObjectStat, ObjectStore};
use crate::types::{Epoch, ObjectId, PoolId, RadosError, Result};

/// Monitor-side source of truth for the current MDS epoch.
///
/// Shared (via `Arc`) between the monitor, every [`FencedStore`] handle,
/// and the test harness. The epoch only moves forward.
#[derive(Debug)]
pub struct FencingAuthority {
    current: AtomicU64,
}

impl Default for FencingAuthority {
    fn default() -> Self {
        FencingAuthority::new()
    }
}

impl FencingAuthority {
    /// A fresh authority at [`Epoch::INITIAL`].
    pub fn new() -> Self {
        FencingAuthority {
            current: AtomicU64::new(Epoch::INITIAL.0),
        }
    }

    /// The cluster's current epoch.
    pub fn current(&self) -> Epoch {
        Epoch(self.current.load(Ordering::SeqCst))
    }

    /// Bumps the epoch (a takeover) and returns the new one. Everything
    /// stamped with an older epoch is fenced from this instant.
    pub fn bump(&self) -> Epoch {
        Epoch(self.current.fetch_add(1, Ordering::SeqCst) + 1)
    }

    /// Whether a writer stamped with `epoch` is still allowed to mutate.
    pub fn accepts(&self, epoch: Epoch) -> bool {
        epoch.0 >= self.current.load(Ordering::SeqCst)
    }
}

cudele_obs::handles! {
    /// The fence's handle: `rados.fenced_writes`, the rejections it counts.
    pub struct FenceObs(reg: &Registry) {
        fenced_writes: Counter = reg.counter("rados.fenced_writes"),
    }
}

/// One writer's fenced session with the object store.
///
/// Wraps any [`ObjectStore`]; mutating operations are rejected with
/// [`RadosError::Fenced`] once the shared [`FencingAuthority`] has moved
/// past this handle's stamped epoch. Clone-free: share via `Arc` like any
/// other store.
pub struct FencedStore {
    inner: Arc<dyn ObjectStore>,
    authority: Arc<FencingAuthority>,
    epoch: AtomicU64,
    fenced_writes: AtomicU64,
    obs: RwLock<Option<FenceObs>>,
}

impl FencedStore {
    /// A fenced handle over `inner`, stamped with the authority's current
    /// epoch (i.e. the caller is the legitimate writer right now).
    pub fn new(inner: Arc<dyn ObjectStore>, authority: Arc<FencingAuthority>) -> Self {
        let epoch = authority.current();
        FencedStore {
            inner,
            authority,
            epoch: AtomicU64::new(epoch.0),
            fenced_writes: AtomicU64::new(0),
            obs: RwLock::new(None),
        }
    }

    /// A fenced handle stamped with an explicit epoch (a standby that has
    /// not taken over yet stamps the epoch it will own).
    pub fn with_epoch(
        inner: Arc<dyn ObjectStore>,
        authority: Arc<FencingAuthority>,
        epoch: Epoch,
    ) -> Self {
        FencedStore {
            inner,
            authority,
            epoch: AtomicU64::new(epoch.0),
            fenced_writes: AtomicU64::new(0),
            obs: RwLock::new(None),
        }
    }

    /// The epoch this handle stamps on its writes.
    pub fn epoch(&self) -> Epoch {
        Epoch(self.epoch.load(Ordering::SeqCst))
    }

    /// Re-stamps the handle (a takeover: the new primary adopts the epoch
    /// the authority just issued it).
    pub fn set_epoch(&self, epoch: Epoch) {
        self.epoch.store(epoch.0, Ordering::SeqCst);
    }

    /// The shared fencing authority.
    pub fn authority(&self) -> &Arc<FencingAuthority> {
        &self.authority
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<dyn ObjectStore> {
        &self.inner
    }

    /// Counts this handle's rejections on `obs` (the wrapped store keeps
    /// its own handles: attach it through [`ObjectStore::attach_obs`]).
    pub fn set_obs(&self, obs: FenceObs) {
        *self.obs.write() = Some(obs);
    }

    /// Total mutations rejected because this handle's epoch was stale.
    pub fn fenced_writes(&self) -> u64 {
        self.fenced_writes.load(Ordering::Relaxed)
    }

    /// Rejects the mutation if this handle's epoch is stale.
    fn guard(&self, id: &ObjectId) -> Result<()> {
        let writer = self.epoch();
        if self.authority.accepts(writer) {
            return Ok(());
        }
        self.fenced_writes.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.obs.read().as_ref() {
            o.fenced_writes.inc();
        }
        Err(RadosError::Fenced {
            object: id.clone(),
            writer,
            current: self.authority.current(),
        })
    }
}

impl ObjectStore for FencedStore {
    fn write_full(&self, id: &ObjectId, data: &[u8]) -> Result<u64> {
        self.guard(id)?;
        self.inner.write_full(id, data)
    }

    fn cas_write_full(&self, id: &ObjectId, expected: u64, data: &[u8]) -> Result<u64> {
        self.guard(id)?;
        self.inner.cas_write_full(id, expected, data)
    }

    fn append(&self, id: &ObjectId, data: &[u8]) -> Result<u64> {
        self.guard(id)?;
        self.inner.append(id, data)
    }

    fn read(&self, id: &ObjectId) -> Result<Bytes> {
        self.inner.read(id)
    }

    fn stat(&self, id: &ObjectId) -> Result<ObjectStat> {
        self.inner.stat(id)
    }

    fn remove(&self, id: &ObjectId) -> Result<()> {
        self.guard(id)?;
        self.inner.remove(id)
    }

    fn exists(&self, id: &ObjectId) -> bool {
        self.inner.exists(id)
    }

    fn list(&self, pool: PoolId, prefix: &str) -> Vec<ObjectId> {
        self.inner.list(pool, prefix)
    }

    fn omap_set(&self, id: &ObjectId, key: &str, value: &[u8]) -> Result<u64> {
        self.guard(id)?;
        self.inner.omap_set(id, key, value)
    }

    fn omap_get(&self, id: &ObjectId, key: &str) -> Result<Option<Bytes>> {
        self.inner.omap_get(id, key)
    }

    fn omap_remove(&self, id: &ObjectId, key: &str) -> Result<bool> {
        self.guard(id)?;
        self.inner.omap_remove(id, key)
    }

    fn omap_list(&self, id: &ObjectId) -> Result<Vec<(String, Bytes)>> {
        self.inner.omap_list(id)
    }

    fn attach_obs(&self, reg: &Registry) {
        self.set_obs(FenceObs::new(reg));
        self.inner.attach_obs(reg);
    }

    fn now(&self) -> Nanos {
        self.inner.now()
    }

    fn set_now(&self, now: Nanos) {
        self.inner.set_now(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::InMemoryStore;

    fn oid(name: &str) -> ObjectId {
        ObjectId::new(PoolId::METADATA, name)
    }

    fn fenced() -> (FencedStore, Arc<FencingAuthority>) {
        let auth = Arc::new(FencingAuthority::new());
        let inner: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new(3, 1));
        (FencedStore::new(inner, Arc::clone(&auth)), auth)
    }

    #[test]
    fn current_epoch_writes_pass_through() {
        let (s, _auth) = fenced();
        s.write_full(&oid("a"), b"hello").unwrap();
        s.append(&oid("a"), b"!").unwrap();
        s.omap_set(&oid("d"), "k", b"v").unwrap();
        assert_eq!(s.read(&oid("a")).unwrap().as_ref(), b"hello!");
        assert_eq!(s.fenced_writes(), 0);
    }

    #[test]
    fn stale_epoch_mutations_rejected_and_counted() {
        let (s, auth) = fenced();
        s.write_full(&oid("a"), b"pre").unwrap();
        auth.bump(); // takeover: this handle is now a zombie
        for r in [
            s.write_full(&oid("a"), b"zombie"),
            s.append(&oid("a"), b"zombie"),
            s.cas_write_full(&oid("a"), 1, b"zombie"),
            s.omap_set(&oid("d"), "k", b"v"),
        ] {
            assert!(matches!(r, Err(RadosError::Fenced { .. })), "{r:?}");
        }
        assert!(matches!(
            s.remove(&oid("a")),
            Err(RadosError::Fenced { .. })
        ));
        assert!(matches!(
            s.omap_remove(&oid("d"), "k"),
            Err(RadosError::Fenced { .. })
        ));
        assert_eq!(s.fenced_writes(), 6);
        // The object was never touched.
        assert_eq!(s.read(&oid("a")).unwrap().as_ref(), b"pre");
    }

    #[test]
    fn stale_reads_still_served() {
        let (s, auth) = fenced();
        s.write_full(&oid("a"), b"data").unwrap();
        auth.bump();
        assert_eq!(s.read(&oid("a")).unwrap().as_ref(), b"data");
        assert!(s.exists(&oid("a")));
        assert_eq!(s.stat(&oid("a")).unwrap().size, 4);
        assert_eq!(s.list(PoolId::METADATA, "").len(), 1);
        assert_eq!(s.fenced_writes(), 0);
    }

    #[test]
    fn retaking_the_epoch_unfences() {
        let (s, auth) = fenced();
        let e2 = auth.bump();
        assert!(s.write_full(&oid("a"), b"x").is_err());
        s.set_epoch(e2); // this handle is the new primary now
        s.write_full(&oid("a"), b"x").unwrap();
        assert_eq!(s.epoch(), e2);
    }

    #[test]
    fn obs_counter_mirrors_rejections() {
        let (s, auth) = fenced();
        let reg = Registry::new();
        s.attach_obs(&reg);
        auth.bump();
        let _ = s.write_full(&oid("a"), b"z");
        let _ = s.append(&oid("a"), b"z");
        assert_eq!(reg.counter_value("rados.fenced_writes"), Some(2));
    }

    #[test]
    fn authority_is_monotonic() {
        let auth = FencingAuthority::new();
        assert_eq!(auth.current(), Epoch::INITIAL);
        let e2 = auth.bump();
        assert_eq!(e2, Epoch::INITIAL.next());
        assert!(auth.accepts(e2));
        assert!(!auth.accepts(Epoch::INITIAL));
        assert!(auth.accepts(e2.next())); // future epochs never fenced
    }
}
