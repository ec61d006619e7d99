//! The persisted base never panics its readers. Recovery rebuilds the
//! namespace from what the MDS flushed — one dirfrag object per directory
//! fragment (its name carries the directory's inode, its omap one record
//! per dentry), the root-inode object — and the Nonvolatile Apply sink
//! follows the `backtraces` object to the dentry it rewrites; a standby
//! reads the checkpoint manifest first. Any of these may be damaged, so
//! `load_store`, the sink and `Manifest::decode` must return — a typed
//! error, or a store whose `snapshot()` returns — on arbitrary bytes, on
//! real records cut short, and on real records swapped for one another.
//!
//! So must the checkpoint image a manifest names. An image whose length and
//! CRC-32 match its manifest passes the integrity check, and its frames are
//! what recovery blind-applies: arbitrary bytes, a real image cut at every
//! frame, and real frames reordered or swapped for another namespace's go
//! through the manifest ladder, in place and by takeover.

use std::sync::{Arc, OnceLock};

use cudele_journal::{
    crc32, decode_journal, encode_journal, framed_len, Attrs, InodeId, JournalEvent, JournalId,
};
use cudele_mds::checkpoint::head_object;
use cudele_mds::{
    flush_store, load_store, CheckpointConfig, ClientId, Manifest, MdLogConfig, MetadataServer,
    ObjectStoreSink, StandbyReplay, TakeoverReport,
};
use cudele_rados::{Epoch, FencingAuthority, InMemoryStore, ObjectId, ObjectStore, PoolId};
use cudele_sim::{CostModel, Nanos};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const POOL: PoolId = PoolId::METADATA;

/// One persisted object: its name, bytes and omap.
type Object = (String, Vec<u8>, Vec<(String, Vec<u8>)>);

/// A real persisted base: nested directories, files, a policy blob on a
/// subtree root and non-default root attributes, flushed by `flush_store`.
fn corpus() -> &'static [Object] {
    static BASE: OnceLock<Vec<Object>> = OnceLock::new();
    BASE.get_or_init(|| {
        let mut mds = MetadataServer::new(Arc::new(InMemoryStore::paper_default()));
        let c = ClientId(1);
        mds.open_session(c);
        let a = mds.setup_dir("/a/b").unwrap();
        let d = mds.setup_dir("/d").unwrap();
        for (dir, n) in [(a, 6), (d, 4), (InodeId::ROOT, 3)] {
            for i in 0..n {
                mds.create(c, dir, &format!("f{i}")).result.unwrap();
            }
        }
        mds.mkdir(c, d, "ü-é").result.unwrap();
        mds.set_subtree_policy(c, "/a", b"consistency=invisible".to_vec(), false)
            .result
            .unwrap();
        let os = InMemoryStore::paper_default();
        flush_store(mds.store(), &os, POOL).unwrap();
        os.list(POOL, "")
            .into_iter()
            .map(|id| {
                let data = os.read(&id).unwrap().to_vec();
                let omap = os
                    .omap_list(&id)
                    .unwrap()
                    .into_iter()
                    .map(|(k, v)| (k, v.to_vec()))
                    .collect();
                (id.name, data, omap)
            })
            .collect()
    })
}

/// Every real value in the base (omap values and object bytes), the pool a
/// swap draws from.
fn real_values() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for (_, data, omap) in corpus() {
        out.push(data.clone());
        out.extend(omap.iter().map(|(_, v)| v.clone()));
    }
    out.push(real_manifests()[1].clone());
    out
}

/// Real encoded manifests: the empty one, one naming an image, one with a
/// multi-byte name and extreme words.
fn real_manifests() -> Vec<Vec<u8>> {
    [
        Manifest::default(),
        Manifest {
            epoch: 3,
            image_ref: Some("ckpt.1.image.00000003".into()),
            image_len: 4096,
            image_crc: 0xdead_beef,
            journal_highwater_seq: 120,
            alloc_watermark: 0x1_0000_0040,
        },
        Manifest {
            epoch: u64::MAX,
            image_ref: Some("ü".into()),
            image_len: u64::MAX,
            image_crc: u32::MAX,
            journal_highwater_seq: u64::MAX,
            alloc_watermark: u64::MAX,
        },
    ]
    .iter()
    .map(Manifest::encode)
    .collect()
}

fn arbitrary_bytes(rng: &mut TestRng) -> Vec<u8> {
    (0..rng.index(64)).map(|_| rng.next_u64() as u8).collect()
}

/// A replacement for a real value: arbitrary bytes, the value cut short,
/// or another real value swapped in.
fn injure(rng: &mut TestRng, value: &[u8], pool: &[Vec<u8>]) -> Vec<u8> {
    match rng.index(3) {
        0 => arbitrary_bytes(rng),
        1 => value[..rng.index(value.len() + 1)].to_vec(),
        _ => pool[rng.index(pool.len())].clone(),
    }
}

/// A dirfrag-shaped object name: an inode in hex (real, huge, empty or not
/// hex), an optional fragment, the `_head` suffix.
fn dirfrag_name(rng: &mut TestRng, real_inos: &[u64]) -> String {
    let ino = match rng.index(5) {
        0 => format!("{:x}", real_inos[rng.index(real_inos.len())]),
        1 => format!("{:x}", rng.next_u64()),
        2 => "1ffffffffffffffffff".to_string(),
        3 => String::new(),
        _ => "zz".to_string(),
    };
    match rng.index(3) {
        0 => format!("{ino}.{:08x}_head", rng.next_u64() as u32),
        1 => format!("{ino}_head"),
        _ => format!("{ino}..{}_head", rng.index(3)),
    }
}

/// The base written into a fresh store, then one to four injuries among
/// the dirfrag omap values, the dirfrag object names, the root-inode object
/// and the backtraces.
fn damaged_base(seed: u64) -> InMemoryStore {
    let mut rng = TestRng::from_seed(seed);
    let mut objects = corpus().to_vec();
    let pool = real_values();
    let real_inos: Vec<u64> = objects
        .iter()
        .flat_map(|(_, _, omap)| omap.iter())
        .filter_map(|(_, v)| {
            v.get(..8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        })
        .chain([InodeId::ROOT.0])
        .collect();
    let is_dirfrag = |o: &Object| o.0.ends_with("_head");
    for _ in 0..1 + rng.index(4) {
        match rng.index(6) {
            // A dentry record.
            0 | 1 => {
                let frags: Vec<usize> = (0..objects.len())
                    .filter(|&i| is_dirfrag(&objects[i]) && !objects[i].2.is_empty())
                    .collect();
                let o = &mut objects[frags[rng.index(frags.len())]];
                let at = rng.index(o.2.len());
                o.2[at].1 = injure(&mut rng, &o.2[at].1, &pool);
            }
            // A dirfrag moved to another name, or a new one beside it.
            2 => {
                let frags: Vec<usize> = (0..objects.len())
                    .filter(|&i| is_dirfrag(&objects[i]))
                    .collect();
                let i = frags[rng.index(frags.len())];
                let mut moved = objects[i].clone();
                moved.0 = dirfrag_name(&mut rng, &real_inos);
                if rng.index(2) == 0 {
                    objects.remove(i);
                }
                objects.push(moved);
            }
            // The root-inode object.
            3 => {
                if let Some(o) = objects.iter_mut().find(|o| o.0 == "root_inode") {
                    o.1 = injure(&mut rng, &o.1, &pool);
                }
            }
            // A backtrace.
            4 => {
                if let Some(o) = objects.iter_mut().find(|o| o.0 == "backtraces") {
                    if !o.2.is_empty() {
                        let at = rng.index(o.2.len());
                        o.2[at].1 = injure(&mut rng, &o.2[at].1, &pool);
                    }
                }
            }
            // A dentry name: empty, a path, or one dentry's record under
            // another's name.
            _ => {
                let frags: Vec<usize> = (0..objects.len())
                    .filter(|&i| is_dirfrag(&objects[i]) && !objects[i].2.is_empty())
                    .collect();
                let o = &mut objects[frags[rng.index(frags.len())]];
                let at = rng.index(o.2.len());
                let name = ["", "/", "a/b", "f0", "..", "\u{0}"][rng.index(6)];
                o.2[at].0 = name.to_string();
            }
        }
    }
    let os = InMemoryStore::paper_default();
    for (name, data, omap) in &objects {
        let id = ObjectId::new(POOL, name.as_str());
        os.write_full(&id, data).unwrap();
        for (k, v) in omap {
            os.omap_set(&id, k, v).unwrap();
        }
    }
    os
}

/// Reads the base back: `load_store` must return, and a store it returns
/// must snapshot.
fn load(os: &InMemoryStore) {
    if let Ok(ms) = load_store(os, POOL) {
        let _ = ms.snapshot();
    }
}

/// Nonvolatile Apply over the damaged base: every update kind that reads a
/// backtrace, a dentry record or the root-inode object.
fn nva(os: &InMemoryStore, seed: u64) {
    let attrs = Attrs {
        mode: 0o600,
        uid: 7,
        gid: 7,
        size: seed,
        mtime: Nanos(seed),
    };
    let inos = [
        InodeId::ROOT,
        InodeId(2),
        InodeId(3),
        InodeId(4),
        InodeId(9),
    ];
    let mut events: Vec<JournalEvent> = inos
        .iter()
        .map(|&ino| JournalEvent::SetAttr { ino, attrs })
        .collect();
    events.push(JournalEvent::SetPolicy {
        ino: InodeId(2),
        policy: b"x".to_vec(),
    });
    events.push(JournalEvent::Unlink {
        parent: InodeId::ROOT,
        name: "f0".into(),
    });
    events.push(JournalEvent::Rename {
        src_parent: InodeId::ROOT,
        src_name: "f1".into(),
        dst_parent: InodeId(2),
        dst_name: "moved".into(),
    });
    events.push(JournalEvent::Create {
        parent: InodeId(3),
        name: "new".into(),
        ino: InodeId(1 << 40),
        attrs,
    });
    let mut sink = ObjectStoreSink::new(os, POOL);
    for e in &events {
        let _ = sink.apply_event(e);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_damaged_base_loads_or_is_refused(seed in any::<u64>()) {
        let os = damaged_base(seed);
        load(&os);
        nva(&os, seed);
        load(&os);
    }

    #[test]
    fn arbitrary_manifest_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Manifest::decode(&bytes);
    }

    #[test]
    fn damaged_manifests_are_refused_or_round_trip(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let manifests = real_manifests();
        let real = &manifests[rng.index(manifests.len())];
        // Cut short, bit-flipped, or a valid CRC over arbitrary payload
        // bytes (so the fields themselves are what is read).
        let bytes = match rng.index(3) {
            0 => real[..rng.index(real.len() + 1)].to_vec(),
            1 => {
                let mut b = real.clone();
                let at = rng.index(b.len());
                b[at] ^= 1 << rng.index(8);
                b
            }
            _ => {
                let mut payload: Vec<u8> = (0..rng.index(48))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
                payload.splice(0..0, real[12..12 + rng.index(real.len() - 11)].iter().copied());
                let mut b = real[..8].to_vec();
                b.extend_from_slice(&crc32(&payload).to_le_bytes());
                b.extend_from_slice(&payload);
                b
            }
        };
        if let Ok(m) = Manifest::decode(&bytes) {
            prop_assert_eq!(m.encode(), bytes);
        }
    }
}

#[test]
fn the_corpus_loads_clean() {
    let clean = InMemoryStore::paper_default();
    for (name, data, omap) in corpus() {
        let id = ObjectId::new(POOL, name.as_str());
        clean.write_full(&id, data).unwrap();
        for (k, v) in omap {
            clean.omap_set(&id, k, v).unwrap();
        }
    }
    let ms = load_store(&clean, POOL).unwrap();
    assert!(ms.snapshot().len() >= 17);
    assert!(corpus().iter().any(|o| o.0 == "root_inode"));
    assert!(corpus().iter().any(|o| o.0 == "backtraces"));
    for m in real_manifests() {
        assert_eq!(Manifest::decode(&m).unwrap().encode(), m);
    }
}

const MDLOG: MdLogConfig = MdLogConfig {
    events_per_segment: 8,
    dispatch_size: 2,
    trim_after_updates: None,
};
const CKPT: CheckpointConfig = CheckpointConfig { interval_events: 4 };

/// A checkpointed run's pool and the HEAD manifest, which names an image:
/// directories nested and moved, files created, renamed and unlinked, then
/// a tail past the last checkpoint. `tag` names every entry, so two tags
/// are two namespaces.
fn checkpointed(tag: &str) -> (Vec<Object>, Manifest) {
    let os = Arc::new(InMemoryStore::paper_default());
    let mut mds = MetadataServer::with_config(os.clone(), CostModel::calibrated(), Some(MDLOG));
    mds.enable_checkpoints(CKPT).unwrap();
    let c = ClientId(1);
    mds.open_session(c);
    let a = mds.setup_dir_durable(&format!("/{tag}a/x")).unwrap();
    let b = mds.setup_dir_durable(&format!("/{tag}b")).unwrap();
    for i in 0..40 {
        let dir = [a, b, InodeId::ROOT][i % 3];
        mds.create(c, dir, &format!("{tag}f{i}")).result.unwrap();
        match i % 5 {
            1 => drop(mds.unlink(c, dir, &format!("{tag}f{}", i - 1))),
            2 => drop(mds.rename(c, dir, &format!("{tag}f{i}"), b, &format!("{tag}r{i}"))),
            3 => drop(mds.mkdir(c, dir, &format!("{tag}d{i}"))),
            _ => {}
        }
    }
    drop(mds.rename(c, InodeId::ROOT, &format!("{tag}b"), a, "moved"));
    mds.flush_journal();
    let head = Manifest::decode(&os.read(&head_object(JournalId::MDLOG)).unwrap()).unwrap();
    assert!(head.image_ref.is_some(), "the run cut an image");
    let objects = os
        .list(POOL, "")
        .into_iter()
        .map(|id| {
            let data = os.read(&id).unwrap().to_vec();
            let omap = os
                .omap_list(&id)
                .unwrap_or_default()
                .into_iter()
                .map(|(k, v)| (k, v.to_vec()))
                .collect();
            (id.name, data, omap)
        })
        .collect();
    (objects, head)
}

fn run_a() -> &'static (Vec<Object>, Manifest) {
    static RUN: OnceLock<(Vec<Object>, Manifest)> = OnceLock::new();
    RUN.get_or_init(|| checkpointed(""))
}

/// The HEAD image's events: run A's, or another namespace's.
fn image_events(other: bool) -> &'static [JournalEvent] {
    static EVENTS: OnceLock<[Vec<JournalEvent>; 2]> = OnceLock::new();
    &EVENTS.get_or_init(|| {
        [run_a(), &checkpointed("o")].map(|(objects, head)| {
            let name = head.image_ref.as_deref().unwrap();
            let image = &objects.iter().find(|o| o.0 == name).unwrap().1;
            decode_journal(image).unwrap()
        })
    })[usize::from(other)]
}

/// Run A's pool with the HEAD's image replaced by `image` and a HEAD that
/// records its exact length and CRC-32, recovered in place and by
/// takeover: each returns, and a namespace it recovers snapshots. Returns
/// the takeover's report when it recovered.
fn recover_with_image(image: &[u8]) -> Option<TakeoverReport> {
    let mut report = None;
    let (objects, head) = run_a();
    let manifest = Manifest {
        image_len: image.len() as u64,
        image_crc: crc32(image),
        ..head.clone()
    };
    for takeover in [false, true] {
        let os = Arc::new(InMemoryStore::paper_default());
        for (name, data, omap) in objects {
            let id = ObjectId::new(POOL, name.as_str());
            os.write_full(&id, data).unwrap();
            for (k, v) in omap {
                os.omap_set(&id, k, v).unwrap();
            }
        }
        let image_id = ObjectId::new(POOL, head.image_ref.clone().unwrap());
        os.write_full(&image_id, image).unwrap();
        os.write_full(&head_object(JournalId::MDLOG), &manifest.encode())
            .unwrap();
        if takeover {
            let authority = Arc::new(FencingAuthority::new());
            let epoch = Epoch(authority.current().0 + 1);
            let mut standby =
                StandbyReplay::new(os, authority, CostModel::calibrated(), Some(MDLOG));
            standby.set_checkpoint_config(CKPT);
            if let Ok((server, took)) = standby.take_over(epoch) {
                let _ = server.store().snapshot();
                report = Some(took);
            }
        } else {
            let mut mds = MetadataServer::with_config(os, CostModel::calibrated(), Some(MDLOG));
            let _ = mds.enable_checkpoints(CKPT);
            if mds.crash_and_recover().is_ok() {
                let _ = mds.store().snapshot();
            }
        }
    }
    report
}

/// Cut at a frame boundary, the image still loads from the HEAD, holding
/// the frames before the cut; cut inside a frame (or its magic), it fails
/// to parse and recovery falls back a rung.
#[test]
fn a_real_image_cut_at_every_frame_recovers() {
    let (objects, head) = run_a();
    let events = image_events(false);
    let image = encode_journal(events);
    let name = head.image_ref.as_deref().unwrap();
    assert_eq!(objects.iter().find(|o| o.0 == name).unwrap().1, image[..]);
    let loads = |cut: usize, frames: u64| {
        let report = recover_with_image(&image[..cut]).expect("the takeover recovers");
        assert_eq!(
            (report.manifest_epoch, report.checkpoint_events),
            (head.epoch, frames),
            "cut at byte {cut}"
        );
    };
    let mut end = image.len() - events.iter().map(framed_len).sum::<usize>();
    recover_with_image(&image[..end - 1]);
    for (frames, e) in (0..).zip(events) {
        loads(end, frames);
        recover_with_image(&image[..end + 1]);
        end += framed_len(e);
    }
    loads(image.len(), events.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_image_bytes_recover_or_are_refused(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        recover_with_image(&bytes);
    }

    #[test]
    fn reordered_and_foreign_image_frames_recover(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let (own, other) = (image_events(false), image_events(true));
        let mut events = own.to_vec();
        // Shuffle, swap frames for the other namespace's, or both.
        let how = rng.index(3);
        if how != 1 {
            for i in (1..events.len()).rev() {
                events.swap(i, rng.index(i + 1));
            }
        }
        if how != 0 {
            for _ in 0..1 + rng.index(events.len()) {
                let at = rng.index(events.len());
                events[at] = other[rng.index(other.len())].clone();
            }
        }
        recover_with_image(&encode_journal(&events));
    }
}
