//! The metadata store's *object store* representation, and the Nonvolatile
//! Apply object sink.
//!
//! "In the object store, directories and their file inodes are stored
//! together in objects to improve the performance of scans." Each directory
//! fragment is one object whose omap maps dentry name to a serialized
//! (inode, attrs, policy) record. A special `root_inode` object carries the
//! root's own inode, and a `backtraces` object maps inode -> (parent, name)
//! so attribute updates can find the owning dirfrag (CephFS stores the
//! equivalent as backtrace xattrs).
//!
//! [`ObjectStoreSink`] is the Nonvolatile Apply discipline: "It works by
//! iterating over the updates in the journal and pulling all objects that
//! may be affected by the update. This means that two objects are
//! repeatedly pulled, updated, and pushed: the object that houses the
//! experiment directory and the object that contains the root directory."
//! We reproduce that faithfully — including the redundant root pull/push
//! that makes it 78x slower than the append baseline.

use bytes::{Buf, BufMut, BytesMut};
use cudele_faults::{with_retry, RetryPolicy};
use cudele_journal::{Attrs, FileType, InodeId, JournalEvent};
use cudele_obs::{Counter, Registry, TraceSink};
use cudele_rados::{ObjectId, ObjectStore, PoolId, RadosError};
use cudele_sim::Nanos;

use crate::inode::Inode;
use crate::store::MetadataStore;

/// Removes an object a rewrite must not inherit from (or a manifest that
/// must not load again), retrying transients. Already gone is fine; any
/// other failure must surface — `write_full` keeps an object's omap, so a
/// stale object that survives its removal brings back every name it still
/// lists on the next load.
pub(crate) fn remove_stale<S: ObjectStore + ?Sized>(
    os: &S,
    id: &ObjectId,
) -> cudele_rados::Result<()> {
    match with_retry(|| os.remove(id)) {
        Err(RadosError::NoEnt(_)) => Ok(()),
        other => other,
    }
}

/// Errors from persistence and recovery.
#[derive(Debug)]
pub enum PersistError {
    /// The object store failed.
    Rados(RadosError),
    /// A dirfrag object or record failed to decode.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Rados(e) => write!(f, "object store error: {e}"),
            PersistError::Corrupt(m) => write!(f, "corrupt metadata object: {m}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Rados(e) => Some(e),
            PersistError::Corrupt(_) => None,
        }
    }
}

impl From<RadosError> for PersistError {
    fn from(e: RadosError) -> Self {
        PersistError::Rados(e)
    }
}

fn root_inode_object(pool: PoolId) -> ObjectId {
    ObjectId::new(pool, "root_inode")
}

fn backtrace_object(pool: PoolId) -> ObjectId {
    ObjectId::new(pool, "backtraces")
}

/// Serializes a dentry record: ino, type, attrs, optional policy blob.
fn encode_record(ino: InodeId, ftype: FileType, attrs: &Attrs, policy: Option<&[u8]>) -> Vec<u8> {
    let mut b = BytesMut::with_capacity(48 + policy.map_or(0, |p| p.len()));
    b.put_u64_le(ino.0);
    b.put_u8(ftype.to_tag());
    b.put_u32_le(attrs.mode);
    b.put_u32_le(attrs.uid);
    b.put_u32_le(attrs.gid);
    b.put_u64_le(attrs.size);
    b.put_u64_le(attrs.mtime.as_nanos());
    match policy {
        Some(p) => {
            b.put_u8(1);
            b.put_u32_le(p.len() as u32);
            b.put_slice(p);
        }
        None => b.put_u8(0),
    }
    b.to_vec()
}

/// A decoded dentry record: inode, type, attrs, optional policy blob.
type DentryRecord = (InodeId, FileType, Attrs, Option<Vec<u8>>);

/// Decodes a dentry record.
fn decode_record(mut data: &[u8]) -> Result<DentryRecord, PersistError> {
    let need = |n: usize, data: &[u8]| {
        if data.len() < n {
            Err(PersistError::Corrupt("record truncated".into()))
        } else {
            Ok(())
        }
    };
    need(8 + 1 + 4 + 4 + 4 + 8 + 8 + 1, data)?;
    let ino = InodeId(data.get_u64_le());
    let ftype = FileType::from_tag(data.get_u8())
        .ok_or_else(|| PersistError::Corrupt("bad file type tag".into()))?;
    let attrs = Attrs {
        mode: data.get_u32_le(),
        uid: data.get_u32_le(),
        gid: data.get_u32_le(),
        size: data.get_u64_le(),
        mtime: Nanos(data.get_u64_le()),
    };
    let policy = match data.get_u8() {
        0 => None,
        1 => {
            need(4, data)?;
            let len = data.get_u32_le() as usize;
            need(len, data)?;
            let mut p = vec![0u8; len];
            data.copy_to_slice(&mut p);
            Some(p)
        }
        _ => return Err(PersistError::Corrupt("bad policy flag".into())),
    };
    Ok((ino, ftype, attrs, policy))
}

fn encode_backtrace(parent: InodeId, name: &str) -> Vec<u8> {
    let mut b = BytesMut::with_capacity(12 + name.len());
    b.put_u64_le(parent.0);
    b.put_u32_le(name.len() as u32);
    b.put_slice(name.as_bytes());
    b.to_vec()
}

fn decode_backtrace(mut data: &[u8]) -> Result<(InodeId, String), PersistError> {
    if data.len() < 12 {
        return Err(PersistError::Corrupt("backtrace truncated".into()));
    }
    let parent = InodeId(data.get_u64_le());
    let len = data.get_u32_le() as usize;
    if data.len() < len {
        return Err(PersistError::Corrupt("backtrace name truncated".into()));
    }
    let name = String::from_utf8(data[..len].to_vec())
        .map_err(|_| PersistError::Corrupt("backtrace name not UTF-8".into()))?;
    Ok((parent, name))
}

/// Writes the complete metadata store into the object store: one object per
/// directory fragment, plus the root inode and backtrace objects. This is
/// the MDS's periodic "apply the journal to the metadata store" flush.
pub fn flush_store<S: ObjectStore + ?Sized>(
    ms: &MetadataStore,
    os: &S,
    pool: PoolId,
) -> Result<(), PersistError> {
    // Remove stale dirfrag objects from a previous flush so deleted
    // directories do not resurrect on recovery.
    for id in os.list(pool, "") {
        if id.name.ends_with("_head") {
            remove_stale(os, &id)?;
        }
    }
    let root = ms
        .inode(InodeId::ROOT)
        .expect("store always has a root inode");
    let root_record = encode_record(root.ino, root.ftype, &root.attrs, root.policy.as_deref());
    with_retry(|| os.write_full(&root_inode_object(pool), &root_record))?;
    remove_stale(os, &backtrace_object(pool))?;

    // Walk every directory and persist its fragments.
    let mut stack = vec![InodeId::ROOT];
    let mut seen = std::collections::HashSet::new();
    while let Some(dir_ino) = stack.pop() {
        if !seen.insert(dir_ino) {
            continue;
        }
        let Some(dir) = ms.dir(dir_ino) else { continue };
        for (frag_idx, frag) in dir.fragments() {
            if frag.is_empty() && frag_idx != 0 {
                continue;
            }
            let obj = ObjectId::dirfrag(pool, dir_ino.0, frag_idx);
            // Ensure the object exists even when empty (frag 0 marks the
            // directory itself).
            with_retry(|| os.write_full(&obj, b""))?;
            for (name, dentry) in frag.iter() {
                let inode = ms.inode(dentry.ino).ok_or_else(|| {
                    PersistError::Corrupt(format!("dangling dentry {name} -> {}", dentry.ino))
                })?;
                let record = encode_record(
                    dentry.ino,
                    dentry.ftype,
                    &inode.attrs,
                    inode.policy.as_deref(),
                );
                with_retry(|| os.omap_set(&obj, name, &record))?;
                let backtrace = encode_backtrace(dir_ino, name);
                with_retry(|| {
                    os.omap_set(
                        &backtrace_object(pool),
                        &format!("{:x}", dentry.ino.0),
                        &backtrace,
                    )
                })?;
                if dentry.ftype == FileType::Dir {
                    stack.push(dentry.ino);
                }
            }
        }
    }
    Ok(())
}

/// Rebuilds a metadata store from its object-store representation — the
/// recovery path an MDS runs at start-up.
pub fn load_store<S: ObjectStore + ?Sized>(
    os: &S,
    pool: PoolId,
) -> Result<MetadataStore, PersistError> {
    let mut ms = MetadataStore::new();
    match with_retry(|| os.read(&root_inode_object(pool))) {
        Ok(data) => {
            let (_, _, attrs, policy) = decode_record(&data)?;
            let root = ms
                .raw_inode_mut(InodeId::ROOT)
                .expect("fresh store has root");
            root.attrs = attrs;
            root.policy = policy;
        }
        Err(RadosError::NoEnt(_)) => {}
        Err(e) => return Err(e.into()),
    }
    for obj in os.list(pool, "") {
        let Some(stripped) = obj.name.strip_suffix("_head") else {
            continue;
        };
        let Some((ino_hex, _frag)) = stripped.split_once('.') else {
            continue;
        };
        let dir_ino = InodeId(
            u64::from_str_radix(ino_hex, 16)
                .map_err(|_| PersistError::Corrupt(format!("bad dirfrag name {}", obj.name)))?,
        );
        // The directory inode itself may not have been materialized yet if
        // its own dentry lives in an object we have not read; recovery
        // inserts a placeholder that the dentry record later refines.
        if ms.inode(dir_ino).is_none() {
            ms.raw_insert_inode(Inode::dir(dir_ino, Attrs::dir_default()));
        }
        let records = with_retry(|| os.omap_list(&obj))?;
        ms.raw_reserve(dir_ino, records.len());
        for (name, value) in records {
            let (ino, ftype, attrs, policy) = decode_record(&value)?;
            let mut inode = match ftype {
                FileType::Dir => Inode::dir(ino, attrs),
                FileType::File => Inode::file(ino, attrs),
            };
            inode.policy = policy;
            ms.raw_link(dir_ino, &name, inode);
        }
    }
    Ok(ms)
}

/// Counts object operations performed by the Nonvolatile Apply sink, for
/// time accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NvaCounters {
    /// Object pulls performed.
    pub object_reads: u64,
    /// Object pushes performed.
    pub object_writes: u64,
    /// Journal updates applied.
    pub events: u64,
}

/// Applies each journal event directly to the object-store
/// representation, one update at a time — the Nonvolatile Apply mechanism.
pub struct ObjectStoreSink<'a, S: ObjectStore + ?Sized> {
    os: &'a S,
    pool: PoolId,
    /// Object-operation counters (4 per event, the paper's 78×).
    pub counters: NvaCounters,
    retry: RetryPolicy,
    /// Transient object-store failures absorbed by retries.
    pub retries: u64,
    /// Virtual-time backoff those retries accumulated; callers charge this
    /// to their clock.
    pub backoff: Nanos,
    retry_counter: Option<Counter>,
    trace: Option<TraceSink<'a>>,
}

impl<'a, S: ObjectStore + ?Sized> ObjectStoreSink<'a, S> {
    /// A sink applying events into `pool` of `os`.
    pub fn new(os: &'a S, pool: PoolId) -> Self {
        ObjectStoreSink {
            os,
            pool,
            counters: NvaCounters::default(),
            retry: RetryPolicy::default(),
            retries: 0,
            backoff: Nanos::ZERO,
            retry_counter: None,
            trace: None,
        }
    }

    /// Mirrors the sink's retries into `mds.persist.retries` in `reg`.
    pub fn set_obs(&mut self, reg: &Registry) {
        self.retry_counter = Some(reg.counter("mds.persist.retries"));
    }

    /// Attaches a causal trace sink: transient failures absorbed during
    /// apply emit `faults`-category retry spans under the sink's context.
    pub fn set_trace(&mut self, sink: TraceSink<'a>) {
        self.trace = Some(sink);
    }

    /// Runs one store operation under the sink's retry policy, charging
    /// retries and backoff to the sink's accounting.
    fn io<T>(
        &mut self,
        mut f: impl FnMut(&S) -> cudele_rados::Result<T>,
    ) -> cudele_rados::Result<T> {
        let os = self.os;
        let policy = self.retry;
        let before = self.retries;
        let trace = self.trace;
        let r = policy.run_traced(
            &mut self.retries,
            &mut self.backoff,
            trace,
            "object_io",
            || f(os),
        );
        if let Some(c) = &self.retry_counter {
            c.add(self.retries - before);
        }
        r
    }

    /// Pulls the root-inode object's bytes (the default root record when it
    /// was never written). One object read.
    fn pull_root(&mut self) -> Result<Vec<u8>, PersistError> {
        let root_obj = root_inode_object(self.pool);
        let data = match self.io(|os| os.read(&root_obj)) {
            Ok(d) => d.to_vec(),
            Err(RadosError::NoEnt(_)) => {
                let root = Inode::root();
                encode_record(root.ino, root.ftype, &root.attrs, None)
            }
            Err(e) => return Err(e.into()),
        };
        self.counters.object_reads += 1;
        Ok(data)
    }

    /// Pushes the root-inode object. One object write.
    fn push_root(&mut self, data: &[u8]) -> Result<(), PersistError> {
        let root_obj = root_inode_object(self.pool);
        self.io(|os| os.write_full(&root_obj, data))?;
        self.counters.object_writes += 1;
        Ok(())
    }

    /// Pulls and pushes the root-inode object unchanged — the redundant
    /// traffic the paper calls out as the reason NVA is "clearly inferior".
    fn touch_root(&mut self) -> Result<(), PersistError> {
        let data = self.pull_root()?;
        self.push_root(&data)
    }

    /// Pulls one omap value; a missing object or key reads as `None`. One
    /// object read either way.
    fn pull(&mut self, obj: &ObjectId, key: &str) -> Result<Option<bytes::Bytes>, PersistError> {
        let value = match self.io(|os| os.omap_get(obj, key)) {
            Ok(v) => v,
            Err(RadosError::NoEnt(_)) => None,
            Err(e) => return Err(e.into()),
        };
        self.counters.object_reads += 1;
        Ok(value)
    }

    /// The sink's one record read-modify-write: fetches `ino`'s record —
    /// the root-inode object for the root, else the dentry its backtrace
    /// names — lets `change` alter it, and pushes it back. An inode the
    /// store does not hold is a blind no-op.
    fn update_record(
        &mut self,
        ino: InodeId,
        change: impl FnOnce(&mut DentryRecord),
    ) -> Result<(), PersistError> {
        let rewrite = |data: &[u8]| -> Result<Vec<u8>, PersistError> {
            let mut record = decode_record(data)?;
            change(&mut record);
            let (ino, ftype, attrs, policy) = record;
            Ok(encode_record(ino, ftype, &attrs, policy.as_deref()))
        };
        if ino == InodeId::ROOT {
            let data = rewrite(&self.pull_root()?)?;
            return self.push_root(&data);
        }
        let Some((parent, name)) = self.lookup_backtrace(ino)? else {
            return Ok(());
        };
        let obj = self.dirfrag(parent);
        let Some(value) = self.pull(&obj, &name)? else {
            return Ok(());
        };
        let data = rewrite(&value)?;
        self.io(|os| os.omap_set(&obj, &name, &data))?;
        self.counters.object_writes += 1;
        Ok(())
    }

    fn dirfrag(&self, dir: InodeId) -> ObjectId {
        // The Nonvolatile Apply replay never splits fragments; everything
        // it writes lands in fragment 0 (a compaction pass — flush_store —
        // re-fragments).
        ObjectId::dirfrag(self.pool, dir.0, 0)
    }

    fn set_dentry(
        &mut self,
        dir: InodeId,
        name: &str,
        ino: InodeId,
        ftype: FileType,
        attrs: &Attrs,
        policy: Option<&[u8]>,
    ) -> Result<(), PersistError> {
        let obj = self.dirfrag(dir);
        // Pull the dirfrag object (the replay reads the object it will
        // touch). Functionally a stat suffices — the *time* of pulling the
        // whole object is what the cost model charges per read op.
        match self.io(|os| os.stat(&obj)) {
            Ok(_) => {}
            Err(RadosError::NoEnt(_)) => {
                self.io(|os| os.write_full(&obj, b""))?;
            }
            Err(e) => return Err(e.into()),
        }
        self.counters.object_reads += 1;
        let record = encode_record(ino, ftype, attrs, policy);
        self.io(|os| os.omap_set(&obj, name, &record))?;
        self.counters.object_writes += 1;
        let bt_obj = backtrace_object(self.pool);
        let bt = encode_backtrace(dir, name);
        self.io(|os| os.omap_set(&bt_obj, &format!("{:x}", ino.0), &bt))?;
        Ok(())
    }

    fn remove_dentry(&mut self, dir: InodeId, name: &str) -> Result<Option<InodeId>, PersistError> {
        let obj = self.dirfrag(dir);
        let Some(value) = self.pull(&obj, name)? else {
            return Ok(None);
        };
        let (ino, _, _, _) = decode_record(&value)?;
        self.io(|os| os.omap_remove(&obj, name))?;
        self.counters.object_writes += 1;
        let bt_obj = backtrace_object(self.pool);
        self.io(|os| os.omap_remove(&bt_obj, &format!("{:x}", ino.0)))?;
        Ok(Some(ino))
    }

    fn lookup_backtrace(
        &mut self,
        ino: InodeId,
    ) -> Result<Option<(InodeId, String)>, PersistError> {
        let bt_obj = backtrace_object(self.pool);
        let v = self.pull(&bt_obj, &format!("{:x}", ino.0))?;
        v.map(|b| decode_backtrace(&b)).transpose()
    }

    /// Applies one journal event; segment boundaries and inode grants are
    /// not updates and touch nothing.
    pub fn apply_event(&mut self, event: &JournalEvent) -> Result<(), PersistError> {
        if !event.is_update() {
            return Ok(());
        }
        self.counters.events += 1;
        self.touch_root()?;
        match event {
            JournalEvent::Create {
                parent,
                name,
                ino,
                attrs,
            } => self.set_dentry(*parent, name, *ino, FileType::File, attrs, None),
            JournalEvent::Mkdir {
                parent,
                name,
                ino,
                attrs,
            } => self.set_dentry(*parent, name, *ino, FileType::Dir, attrs, None),
            JournalEvent::Unlink { parent, name } | JournalEvent::Rmdir { parent, name } => {
                self.remove_dentry(*parent, name).map(|_| ())
            }
            JournalEvent::Rename {
                src_parent,
                src_name,
                dst_parent,
                dst_name,
            } => {
                let obj = self.dirfrag(*src_parent);
                let Some(value) = self.pull(&obj, src_name)? else {
                    return Ok(());
                };
                let (ino, ftype, attrs, policy) = decode_record(&value)?;
                self.io(|os| os.omap_remove(&obj, src_name))?;
                self.counters.object_writes += 1;
                self.set_dentry(*dst_parent, dst_name, ino, ftype, &attrs, policy.as_deref())
            }
            JournalEvent::SetAttr { ino, attrs } => {
                self.update_record(*ino, |(_, _, a, _)| *a = *attrs)
            }
            JournalEvent::SetPolicy { ino, policy } => {
                self.update_record(*ino, |(_, _, _, p)| *p = Some(policy.clone()))
            }
            // Non-updates are filtered out at the top of `apply_event`.
            JournalEvent::SegmentBoundary { .. } | JournalEvent::AllocRange { .. } => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudele_journal::EventRef;
    use cudele_rados::InMemoryStore;

    fn populated() -> MetadataStore {
        let mut ms = MetadataStore::new();
        ms.mkdir(InodeId::ROOT, "home", InodeId(0x1000), Attrs::dir_default())
            .unwrap();
        ms.mkdir(
            InodeId(0x1000),
            "alice",
            InodeId(0x1001),
            Attrs::dir_default(),
        )
        .unwrap();
        for i in 0..50u64 {
            ms.create(
                InodeId(0x1001),
                &format!("file-{i}"),
                InodeId(0x2000 + i),
                Attrs::file_default(),
            )
            .unwrap();
        }
        ms.apply_checked(EventRef::SetPolicy {
            ino: InodeId(0x1001),
            policy: &[42, 43],
        })
        .unwrap();
        ms.apply_checked(EventRef::SetAttr {
            ino: InodeId(0x2000),
            attrs: Attrs {
                size: 777,
                ..Attrs::file_default()
            },
        })
        .unwrap();
        ms
    }

    #[test]
    fn flush_load_roundtrip() {
        let os = InMemoryStore::paper_default();
        let ms = populated();
        flush_store(&ms, &os, PoolId::METADATA).unwrap();
        let loaded = load_store(&os, PoolId::METADATA).unwrap();
        assert_eq!(loaded.snapshot(), ms.snapshot());
        // Policy and attrs survive.
        assert_eq!(
            loaded.inode(InodeId(0x1001)).unwrap().policy.as_deref(),
            Some(&[42u8, 43][..])
        );
        assert_eq!(loaded.inode(InodeId(0x2000)).unwrap().attrs.size, 777);
    }

    #[test]
    fn flush_is_idempotent_and_removes_stale_dirs() {
        let os = InMemoryStore::paper_default();
        let mut ms = populated();
        flush_store(&ms, &os, PoolId::METADATA).unwrap();
        // Delete a whole subtree and reflush: recovery must not resurrect.
        for i in 0..50u64 {
            ms.unlink(InodeId(0x1001), &format!("file-{i}")).unwrap();
        }
        ms.apply_checked(EventRef::Rmdir {
            parent: InodeId(0x1000),
            name: "alice",
        })
        .unwrap();
        flush_store(&ms, &os, PoolId::METADATA).unwrap();
        let loaded = load_store(&os, PoolId::METADATA).unwrap();
        assert_eq!(loaded.snapshot(), ms.snapshot());
        assert!(loaded.resolve("/home/alice").is_err());
    }

    /// A client journal that links one inode under two names and unlinks
    /// one of them leaves the other dangling (Volatile Apply is blind); such
    /// a store has no object representation.
    #[test]
    fn flushing_a_dangling_dentry_is_corrupt() {
        let create = |name: &str| JournalEvent::Create {
            parent: InodeId::ROOT,
            name: name.into(),
            ino: InodeId(0x9000),
            attrs: Attrs::file_default(),
        };
        let unlink = JournalEvent::Unlink {
            parent: InodeId::ROOT,
            name: "a".into(),
        };
        let mut ms = MetadataStore::new();
        ms.apply_blind_all(&[create("a"), create("b"), unlink]);
        assert!(ms.lookup(InodeId::ROOT, "b").is_ok());
        let os = InMemoryStore::paper_default();
        let r = flush_store(&ms, &os, PoolId::METADATA);
        assert!(
            matches!(&r, Err(PersistError::Corrupt(m)) if m.starts_with("dangling dentry b ")),
            "{r:?}"
        );
    }

    #[test]
    fn load_from_empty_store_is_empty_namespace() {
        let os = InMemoryStore::paper_default();
        let ms = load_store(&os, PoolId::METADATA).unwrap();
        assert_eq!(ms.inode_count(), 1);
        assert!(ms.snapshot().is_empty());
    }

    #[test]
    fn record_roundtrip_with_and_without_policy() {
        let attrs = Attrs {
            mode: 0o640,
            uid: 1,
            gid: 2,
            size: 3,
            mtime: Nanos(4),
        };
        let with = encode_record(InodeId(9), FileType::Dir, &attrs, Some(&[1, 2]));
        let (ino, ft, a, p) = decode_record(&with).unwrap();
        assert_eq!(
            (ino, ft, a, p.as_deref()),
            (InodeId(9), FileType::Dir, attrs, Some(&[1u8, 2][..]))
        );
        let without = encode_record(InodeId(9), FileType::File, &attrs, None);
        let (_, _, _, p) = decode_record(&without).unwrap();
        assert!(p.is_none());
        assert!(decode_record(&with[..5]).is_err());
    }

    /// A file record's type byte is 0; one flipped bit makes it 2, a tag no
    /// event writes, which must load as corruption rather than as a third
    /// kind of inode.
    #[test]
    fn a_flipped_file_type_byte_is_corrupt() {
        let os = InMemoryStore::paper_default();
        let mut ms = MetadataStore::new();
        ms.create(InodeId::ROOT, "f", InodeId(0x1000), Attrs::file_default())
            .unwrap();
        flush_store(&ms, &os, PoolId::METADATA).unwrap();
        let obj = ObjectId::dirfrag(PoolId::METADATA, InodeId::ROOT.0, 0);
        let mut record = os
            .omap_get(&obj, "f")
            .unwrap()
            .expect("flushed record")
            .to_vec();
        assert_eq!(record[8], FileType::File.to_tag());
        record[8] ^= 1 << 1;
        os.omap_set(&obj, "f", &record).unwrap();
        let r = load_store(&os, PoolId::METADATA);
        assert!(
            matches!(&r, Err(PersistError::Corrupt(m)) if m == "bad file type tag"),
            "{:?}",
            r.map(|ms| ms.snapshot())
        );
    }

    #[test]
    fn nva_sink_applies_creates_and_counts_ops() {
        let os = InMemoryStore::paper_default();
        let mut sink = ObjectStoreSink::new(&os, PoolId::METADATA);
        let events = vec![
            JournalEvent::Mkdir {
                parent: InodeId::ROOT,
                name: "d".into(),
                ino: InodeId(0x1000),
                attrs: Attrs::dir_default(),
            },
            JournalEvent::Create {
                parent: InodeId(0x1000),
                name: "f".into(),
                ino: InodeId(0x1001),
                attrs: Attrs::file_default(),
            },
        ];
        for e in &events {
            sink.apply_event(e).unwrap();
        }
        assert_eq!(sink.counters.events, 2);
        // Each update pulls root + dirfrag and pushes root + dirfrag.
        assert_eq!(sink.counters.object_reads, 4);
        assert_eq!(sink.counters.object_writes, 4);

        let loaded = load_store(&os, PoolId::METADATA).unwrap();
        assert_eq!(loaded.resolve("/d/f").unwrap(), InodeId(0x1001));
    }

    #[test]
    fn nva_matches_volatile_apply_final_state() {
        // The paper: "Nonvolatile Apply (78x) and composing Volatile Apply
        // + Global Persist (1.3x) end up with the same final metadata
        // state."
        let events: Vec<JournalEvent> = std::iter::once(JournalEvent::Mkdir {
            parent: InodeId::ROOT,
            name: "job".into(),
            ino: InodeId(0x1000),
            attrs: Attrs::dir_default(),
        })
        .chain((0..40).map(|i| JournalEvent::Create {
            parent: InodeId(0x1000),
            name: format!("out-{i}"),
            ino: InodeId(0x2000 + i),
            attrs: Attrs::file_default(),
        }))
        .collect();

        // Volatile apply: blind, in memory.
        let mut volatile = MetadataStore::new();
        for e in &events {
            volatile.apply_blind(e);
        }

        // Nonvolatile apply: through the object store, then recover.
        let os = InMemoryStore::paper_default();
        let mut sink = ObjectStoreSink::new(&os, PoolId::METADATA);
        for e in &events {
            sink.apply_event(e).unwrap();
        }
        let recovered = load_store(&os, PoolId::METADATA).unwrap();
        assert_eq!(recovered.snapshot(), volatile.snapshot());
    }

    #[test]
    fn nva_unlink_rename_setattr() {
        let os = InMemoryStore::paper_default();
        let mut sink = ObjectStoreSink::new(&os, PoolId::METADATA);
        let mkdir = |name: &str, ino: u64| JournalEvent::Mkdir {
            parent: InodeId::ROOT,
            name: name.into(),
            ino: InodeId(ino),
            attrs: Attrs::dir_default(),
        };
        sink.apply_event(&mkdir("a", 0x1000)).unwrap();
        sink.apply_event(&mkdir("b", 0x1001)).unwrap();
        sink.apply_event(&JournalEvent::Create {
            parent: InodeId(0x1000),
            name: "f".into(),
            ino: InodeId(0x2000),
            attrs: Attrs::file_default(),
        })
        .unwrap();
        sink.apply_event(&JournalEvent::SetAttr {
            ino: InodeId(0x2000),
            attrs: Attrs {
                size: 123,
                ..Attrs::file_default()
            },
        })
        .unwrap();
        sink.apply_event(&JournalEvent::Rename {
            src_parent: InodeId(0x1000),
            src_name: "f".into(),
            dst_parent: InodeId(0x1001),
            dst_name: "g".into(),
        })
        .unwrap();
        sink.apply_event(&JournalEvent::Unlink {
            parent: InodeId(0x1001),
            name: "nonexistent".into(),
        })
        .unwrap(); // blind: no-op

        let ms = load_store(&os, PoolId::METADATA).unwrap();
        assert!(ms.resolve("/a/f").is_err());
        let g = ms.resolve("/b/g").unwrap();
        assert_eq!(g, InodeId(0x2000));
        assert_eq!(ms.inode(g).unwrap().attrs.size, 123);
    }

    #[test]
    fn sink_and_flush_retry_transient_faults() {
        use cudele_faults::{FaultConfig, FaultPlan, FaultyStore};
        use std::sync::Arc;
        let os = FaultyStore::new(
            Arc::new(InMemoryStore::paper_default()),
            Arc::new(FaultPlan::new(FaultConfig {
                seed: 17,
                eagain_ppm: 150_000, // 15% of ops fail EAGAIN
                ..FaultConfig::default()
            })),
        );
        let reg = Registry::new();
        let mut sink = ObjectStoreSink::new(&os, PoolId::METADATA);
        sink.set_obs(&reg);
        sink.apply_event(&JournalEvent::Mkdir {
            parent: InodeId::ROOT,
            name: "d".into(),
            ino: InodeId(0x1000),
            attrs: Attrs::dir_default(),
        })
        .unwrap();
        for i in 0..60u64 {
            sink.apply_event(&JournalEvent::Create {
                parent: InodeId(0x1000),
                name: format!("f{i}"),
                ino: InodeId(0x2000 + i),
                attrs: Attrs::file_default(),
            })
            .unwrap();
        }
        assert!(sink.retries > 0, "15% fault rate must trigger retries");
        assert!(sink.backoff > Nanos::ZERO);
        assert_eq!(
            reg.counter_value("mds.persist.retries"),
            Some(sink.retries),
            "sink retries surface in obs"
        );
        // flush/load round-trip under the same fault rate.
        let ms = populated();
        flush_store(&ms, &os, PoolId::METADATA).unwrap();
        let loaded = load_store(&os, PoolId::METADATA).unwrap();
        assert_eq!(loaded.snapshot(), ms.snapshot());
    }

    #[test]
    fn nva_policy_on_root_and_subdir_survives_setattr() {
        let os = InMemoryStore::paper_default();
        let mut sink = ObjectStoreSink::new(&os, PoolId::METADATA);
        sink.apply_event(&JournalEvent::Mkdir {
            parent: InodeId::ROOT,
            name: "d".into(),
            ino: InodeId(0x1000),
            attrs: Attrs::dir_default(),
        })
        .unwrap();
        let chmod = Attrs {
            mode: 0o700,
            ..Attrs::dir_default()
        };
        for (ino, policy) in [(InodeId::ROOT, 1u8), (InodeId(0x1000), 2)] {
            sink.apply_event(&JournalEvent::SetPolicy {
                ino,
                policy: vec![policy],
            })
            .unwrap();
            // Changing one field of a record must not reset the others.
            sink.apply_event(&JournalEvent::SetAttr { ino, attrs: chmod })
                .unwrap();
        }
        let ms = load_store(&os, PoolId::METADATA).unwrap();
        for (ino, policy) in [(InodeId::ROOT, 1u8), (InodeId(0x1000), 2)] {
            let inode = ms.inode(ino).unwrap();
            assert_eq!(inode.policy.as_deref(), Some(&[policy][..]), "{ino}");
            assert_eq!(inode.attrs, chmod, "{ino}");
        }
        // Mkdir: root + dirfrag. Each update after it: root touched, then
        // its record pulled and pushed (found through one backtrace pull
        // for the subdir).
        assert_eq!(sink.counters.object_reads, 2 + 2 * 2 + 2 * 3);
        assert_eq!(sink.counters.object_writes, 2 + 4 * 2);
    }
}
