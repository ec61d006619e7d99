//! The persisted base never panics its readers. Recovery rebuilds the
//! namespace from what the MDS flushed — one dirfrag object per directory
//! fragment (its name carries the directory's inode, its omap one record
//! per dentry), the root-inode object — and the Nonvolatile Apply sink
//! follows the `backtraces` object to the dentry it rewrites; a standby
//! reads the checkpoint manifest first. Any of these may be damaged, so
//! `load_store`, the sink and `Manifest::decode` must return — a typed
//! error, or a store whose `snapshot()` returns — on arbitrary bytes, on
//! real records cut short, and on real records swapped for one another.

use std::sync::{Arc, OnceLock};

use cudele_journal::{crc32, Attrs, InodeId, JournalEvent};
use cudele_mds::{flush_store, load_store, ClientId, Manifest, MetadataServer, ObjectStoreSink};
use cudele_rados::{InMemoryStore, ObjectId, ObjectStore, PoolId};
use cudele_sim::Nanos;
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
