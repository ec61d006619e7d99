//! Differential test of [`MetadataStore`] against the reference namespace
//! (`cudele_model::Model`) over the whole checked + blind vocabulary, at
//! split thresholds 1, 4 and 10 000. After every op the two must agree on
//! the result class, `snapshot()`, `readdir` order, `frag_count`,
//! per-fragment membership, `parent_of` / `is_within`, `resolve` and
//! `effective_policy` of every path, and inode attributes.
//!
//! `persisted_dirfrag_objects_match_the_recorded_digest` additionally
//! drives a seeded script and digests every object `flush_store` writes.
//! HOW RECORDED: first by running this file at commit 78926ce (the
//! `BTreeMap`-fragment store), whose digests the hash-table store matched
//! unchanged. Re-recorded once, when the checked ops became `check` plus
//! the blind body: the scripts reach the model's refusals dozens of times
//! (and blind self-renames, which no longer re-insert), so this file ran
//! at commit ea5cc18 with `apply` skipping the store call wherever the
//! model now refuses and for blind self-renames, and that commit's
//! `flush_store` of the resulting namespace printed the digests below.

mod common;

use proptest::prelude::*;

use common::class;
use cudele_journal::{Attrs, FileType, InodeId, JournalEvent};
use cudele_mds::dirfrag::name_hash;
use cudele_mds::{flush_store, MetadataStore};
use cudele_model::{Model, RefInode};
use cudele_rados::{InMemoryStore, ObjectStore, PoolId};

/// Inode numbers every generated op draws from: the root, a pool small
/// enough that creates collide and targets go missing, and one number no
/// op ever creates.
const INOS: std::ops::Range<u64> = 0x1000..0x1018;
const GHOST: u64 = 0xdead;

fn compare(ms: &MetadataStore, m: &Model) -> Result<(), TestCaseError> {
    let snapshot = m.snapshot();
    prop_assert_eq!(&ms.snapshot(), &snapshot);
    prop_assert_eq!(ms.inode_count(), m.inode_count());
    for path in snapshot
        .keys()
        .map(String::as_str)
        .chain(["", "/no-such-name"])
    {
        prop_assert_eq!(
            ms.resolve(path).ok().map(|i| i.0),
            m.resolve(path),
            "resolve {}",
            path
        );
        let policy = ms.effective_policy(path).ok();
        let policy = policy.map(|o| o.map(|(ino, p)| (ino.0, p)));
        prop_assert_eq!(
            policy,
            m.effective_policy(path),
            "effective_policy {}",
            path
        );
    }
    let universe: Vec<u64> = std::iter::once(1).chain(INOS).chain([GHOST]).collect();
    for &ino in &universe {
        let id = InodeId(ino);
        prop_assert_eq!(
            ms.parent_of(id).map(|p| p.0),
            m.parent_of(ino),
            "parent_of {}",
            ino
        );
        prop_assert_eq!(ms.inode_in_use(id), m.inode(ino).is_some());
        let got = ms.inode(id).map(|i| RefInode {
            ftype: i.ftype,
            size: i.attrs.size,
            policy: i.policy.clone(),
            version: i.version,
        });
        prop_assert_eq!(got.as_ref(), m.inode(ino), "inode {}", ino);
        for &root in &universe {
            prop_assert_eq!(
                ms.is_within(id, InodeId(root)),
                m.is_within(ino, root),
                "is_within {} {}",
                ino,
                root
            );
        }
        match (ms.dir(id), m.dir(ino)) {
            (None, None) => prop_assert!(ms.readdir(id).is_err()),
            (Some(dir), Some(rd)) => {
                // The listing is the model's sorted `(name, dentry)` list —
                // empty directories and split ones (thresholds 1 and 4)
                // included — and says so through `len` / `is_empty` too.
                let listing = ms.readdir(id).unwrap();
                let listed: Vec<(&str, (u64, FileType))> = listing
                    .iter()
                    .map(|(n, d)| (n, (d.ino.0, d.ftype)))
                    .collect();
                let want: Vec<(&str, (u64, FileType))> =
                    rd.entries().iter().map(|(n, d)| (n.as_str(), *d)).collect();
                prop_assert_eq!(&listed, &want, "readdir {}", ino);
                prop_assert_eq!(listing.len(), rd.entries().len());
                prop_assert_eq!(listing.is_empty(), rd.entries().is_empty());
                prop_assert_eq!(&dir.listing(), &listing);
                prop_assert_eq!(dir.len(), rd.entries().len());
                prop_assert_eq!(dir.frag_count(), rd.frag_count(), "frag_count of {}", ino);
                let mut seen = 0;
                for (idx, frag) in dir.fragments() {
                    let got: Vec<(String, u64)> =
                        frag.iter().map(|(n, d)| (n.to_string(), d.ino.0)).collect();
                    let want: Vec<(String, u64)> = rd
                        .entries()
                        .iter()
                        .filter(|(n, _)| m.fragment_of(ino, n) == u64::from(idx))
                        .map(|(n, d)| (n.clone(), d.0))
                        .collect();
                    prop_assert_eq!(frag.len(), want.len());
                    prop_assert_eq!(got, want, "fragment {} of {}", idx, ino);
                    seen += 1;
                }
                prop_assert_eq!(seen, dir.frag_count());
                for (n, d) in rd.entries() {
                    prop_assert_eq!(ms.lookup(id, n).ok().map(|x| (x.ino.0, x.ftype)), Some(*d));
                }
                prop_assert!(ms.lookup(id, "no-such-name").is_err());
            }
            (a, b) => prop_assert!(
                false,
                "dir {} present {} vs model {}",
                ino,
                a.is_some(),
                b.is_some()
            ),
        }
    }
    Ok(())
}

/// Whether `e` renames a dentry whose inode a reused inode number already
/// took away. The parent link lives in the inode record, so there is
/// nothing to re-point; the `BTreeMap`-era store kept links in a side map
/// and would remember one for the missing inode. The generator skips the
/// case rather than pin either answer.
fn moves_a_dangling_dentry(m: &Model, e: &JournalEvent) -> bool {
    let JournalEvent::Rename {
        src_parent,
        src_name,
        ..
    } = e
    else {
        return false;
    };
    m.dir(src_parent.0)
        .and_then(|d| d.entries().get(src_name))
        .is_some_and(|d| m.inode(d.0).is_none())
}

/// Decodes four bytes into one op over small name / inode pools. Files
/// are `f*`, directories `d*`; a rename may target either pool (EISDIR,
/// overwrite, self-rename).
fn decode(m: &Model, kind: u8, a: u8, b: u8, c: u8) -> (bool, JournalEvent) {
    let dir_inos: Vec<u64> = m.dirs().map(|(ino, _)| ino).collect();
    let pick_dir = |x: u8| -> InodeId {
        match x % 8 {
            0 => InodeId(GHOST),
            1 => InodeId(INOS.start + u64::from(x) % (INOS.end - INOS.start)),
            _ => InodeId(dir_inos[usize::from(x) % dir_inos.len()]),
        }
    };
    let ino = |x: u8| {
        InodeId(if x.is_multiple_of(16) {
            GHOST
        } else {
            INOS.start + u64::from(x) % (INOS.end - INOS.start)
        })
    };
    let fname = |x: u8| format!("f{}", x % 12);
    let dname = |x: u8| format!("d{}", x % 4);
    let any_name = |x: u8| {
        if x.is_multiple_of(5) {
            dname(x)
        } else {
            fname(x)
        }
    };
    let blind = kind & 0x80 != 0;
    let event = match kind % 16 {
        0..=4 => JournalEvent::Create {
            parent: pick_dir(a),
            name: fname(b),
            ino: ino(c),
            attrs: Attrs::file_default(),
        },
        5 | 6 => JournalEvent::Mkdir {
            parent: pick_dir(a),
            name: dname(b),
            ino: ino(c),
            attrs: Attrs::dir_default(),
        },
        7 | 8 => JournalEvent::Unlink {
            parent: pick_dir(a),
            name: any_name(b),
        },
        9 => JournalEvent::Rmdir {
            parent: pick_dir(a),
            name: any_name(b),
        },
        10..=12 => {
            let src_parent = pick_dir(a);
            let src_name = any_name(b);
            let dst_parent = if c.is_multiple_of(3) {
                src_parent
            } else {
                pick_dir(c)
            };
            let dst_name = if c.is_multiple_of(7) {
                src_name.clone()
            } else {
                any_name(c.wrapping_mul(31))
            };
            JournalEvent::Rename {
                src_parent,
                src_name,
                dst_parent,
                dst_name,
            }
        }
        13 => JournalEvent::SetAttr {
            ino: ino(a),
            attrs: Attrs {
                size: u64::from(b),
                ..Attrs::file_default()
            },
        },
        14 => JournalEvent::SetPolicy {
            ino: if a.is_multiple_of(4) {
                InodeId::ROOT
            } else {
                ino(a)
            },
            policy: vec![b, c],
        },
        _ => JournalEvent::SegmentBoundary { seq: u64::from(a) },
    };
    // A blind op that would link a directory under its own subtree becomes
    // a no-op; a checked one reaches the store, which refuses a move into
    // any subtree the parent links show (`Invalid`).
    let cycles = blind && {
        let mut trial = m.clone();
        trial.blind(&event);
        !trial.walkable()
    };
    if cycles || moves_a_dangling_dentry(m, &event) {
        return (blind, JournalEvent::SegmentBoundary { seq: 0 });
    }
    (blind, event)
}

fn apply(
    ms: &mut MetadataStore,
    m: &mut Model,
    blind: bool,
    e: &JournalEvent,
) -> Result<(), TestCaseError> {
    if blind {
        ms.apply_blind(e);
        m.blind(e);
    } else {
        // Half through the typed wrappers, half through `apply_checked`.
        let got = match e {
            JournalEvent::Create {
                parent,
                name,
                ino,
                attrs,
            } if ino.0 % 2 == 0 => ms.create(*parent, name, *ino, *attrs),
            JournalEvent::Mkdir {
                parent,
                name,
                ino,
                attrs,
            } if ino.0 % 2 == 0 => ms.mkdir(*parent, name, *ino, *attrs),
            JournalEvent::Unlink { parent, name } if name.len() % 2 == 0 => {
                ms.unlink(*parent, name)
            }
            JournalEvent::Rename {
                src_parent,
                src_name,
                dst_parent,
                dst_name,
            } if src_name.len() % 2 == 0 => ms.rename(*src_parent, src_name, *dst_parent, dst_name),
            _ => ms.apply_checked(e),
        };
        prop_assert_eq!(class(got), m.checked(e), "checked {:?}", e);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn store_matches_the_reference_namespace(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..160),
        which in 0usize..3,
    ) {
        let threshold = [1usize, 4, 10_000][which];
        let mut ms = MetadataStore::with_split_threshold(threshold);
        let mut m = Model::with_fragtree(threshold, name_hash);
        for (i, &(kind, a, b, c)) in ops.iter().enumerate() {
            let (blind, e) = decode(&m, kind, a, b, c);
            apply(&mut ms, &mut m, blind, &e)?;
            // Full comparison is quadratic in the universe; do it every
            // few ops and at the end, cheap checks every op.
            if i % 8 == 7 || i + 1 == ops.len() {
                compare(&ms, &m)?;
            } else {
                prop_assert_eq!(ms.inode_count(), m.inode_count(), "after {:?}", e);
            }
        }
    }
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x100000001b3);
    }
    // Length-delimit so adjacent fields cannot run together.
    *h ^= bytes.len() as u64;
    *h = h.wrapping_mul(0x100000001b3);
}

/// Digest of everything `flush_store` leaves in the metadata pool: object
/// names in listing order, object bytes, omap keys and values.
fn persisted_digest(ms: &MetadataStore) -> u64 {
    let os = InMemoryStore::paper_default();
    let mut h = 0xcbf29ce484222325u64;
    match flush_store(ms, &os, PoolId::METADATA) {
        Ok(()) => {}
        Err(e) => panic!("scripted namespace does not flush: {e}"),
    }
    for obj in os.list(PoolId::METADATA, "") {
        fnv(&mut h, obj.name.as_bytes());
        if let Ok(data) = os.read(&obj) {
            fnv(&mut h, &data);
        }
        for (k, v) in os.omap_list(&obj).unwrap_or_default() {
            fnv(&mut h, k.as_bytes());
            fnv(&mut h, &v);
        }
    }
    h
}

/// A seeded script over the same vocabulary (SplitMix64 bytes through
/// [`decode`]), followed for the large threshold by enough creates in one
/// directory to split it twice.
fn scripted_store(threshold: usize, seed: u64) -> (MetadataStore, Model) {
    let mut ms = MetadataStore::with_split_threshold(threshold);
    let mut m = Model::with_fragtree(threshold, name_hash);
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for _ in 0..3_000 {
        let r = next();
        let (blind, e) = decode(
            &m,
            r as u8,
            (r >> 8) as u8,
            (r >> 16) as u8,
            (r >> 24) as u8,
        );
        apply(&mut ms, &mut m, blind, &e).expect("script op");
    }
    // Reused inode numbers leave dentries whose inode a later unlink took
    // away; `flush_store` refuses those, so drop them (blindly) first.
    let dangling: Vec<(u64, String)> = m
        .dirs()
        .flat_map(|(dir, d)| {
            d.entries()
                .iter()
                .map(move |(n, &(ino, _))| (dir, n.clone(), ino))
        })
        .filter(|(_, _, ino)| m.inode(*ino).is_none())
        .map(|(dir, n, _)| (dir, n))
        .collect();
    for (dir, name) in dangling {
        let e = JournalEvent::Unlink {
            parent: InodeId(dir),
            name,
        };
        apply(&mut ms, &mut m, true, &e).expect("heal");
    }
    if threshold == 10_000 {
        for i in 0..25_000u64 {
            let e = JournalEvent::Create {
                parent: InodeId::ROOT,
                name: format!("file.{}.{i}", i % 3),
                ino: InodeId(0x10_0000 + i),
                attrs: Attrs::file_default(),
            };
            apply(&mut ms, &mut m, i % 2 == 0, &e).expect("bulk create");
        }
        for i in (0..25_000u64).step_by(7) {
            let e = JournalEvent::Unlink {
                parent: InodeId::ROOT,
                name: format!("file.{}.{i}", i % 3),
            };
            apply(&mut ms, &mut m, i % 2 == 1, &e).expect("bulk unlink");
        }
    }
    (ms, m)
}

#[test]
fn persisted_dirfrag_objects_match_the_recorded_digest() {
    // (threshold, digest of the flushed pool, root fragment count).
    const RECORDED: [(usize, u64, usize); 3] = [
        (1, 0x8e56_d406_e253_409d, 64),
        (4, 0x5a94_eadf_2d39_be50, 8),
        (10_000, 0xf2a2_8f9b_84a8_a002, 4),
    ];
    let got: Vec<(usize, u64, usize)> = RECORDED
        .iter()
        .map(|&(threshold, _, _)| {
            let (ms, m) = scripted_store(threshold, 0x5eed_0000 + threshold as u64);
            assert_eq!(ms.snapshot(), m.snapshot(), "threshold {threshold}");
            let frags = ms.dir(InodeId::ROOT).unwrap().frag_count();
            assert_eq!(
                frags,
                m.dir(1).unwrap().frag_count(),
                "threshold {threshold}"
            );
            let digest = persisted_digest(&ms);
            println!("({threshold}, {digest:#018x}, {frags}),");
            (threshold, digest, frags)
        })
        .collect();
    assert_eq!(got, RECORDED);
}

/// A listing says which entries a directory holds, in name order — not in
/// which order they were inserted, and not how the directory is split.
#[test]
fn listings_of_empty_and_split_directories_match_the_model() {
    let (threshold, n) = (4usize, 300u64);
    let create = |i: u64| JournalEvent::Create {
        parent: InodeId(0x2000),
        name: format!("file.{}.{i}", i % 3),
        ino: InodeId(0x10_0000 + i),
        attrs: Attrs::file_default(),
    };
    let mkdir = JournalEvent::Mkdir {
        parent: InodeId::ROOT,
        name: "d".into(),
        ino: InodeId(0x2000),
        attrs: Attrs::dir_default(),
    };
    let mut forward = MetadataStore::with_split_threshold(threshold);
    let mut backward = MetadataStore::with_split_threshold(threshold);
    let mut m = Model::with_fragtree(threshold, name_hash);
    apply(&mut forward, &mut m, false, &mkdir).unwrap();
    backward.apply_blind(&mkdir);

    let empty = forward.readdir(InodeId(0x2000)).unwrap();
    assert!(empty.is_empty());
    assert_eq!(empty.len(), 0);
    assert_eq!(empty.iter().next(), None);
    assert_eq!(empty, backward.readdir(InodeId(0x2000)).unwrap());

    for i in 0..n {
        apply(&mut forward, &mut m, i % 2 == 0, &create(i)).unwrap();
        backward.apply_blind(&create(n - 1 - i));
    }
    let dir = forward.dir(InodeId(0x2000)).unwrap();
    assert!(dir.frag_count() > 1, "the directory should have split");
    let listing = forward.readdir(InodeId(0x2000)).unwrap();
    let listed: Vec<(&str, u64)> = listing.iter().map(|(n, d)| (n, d.ino.0)).collect();
    let want: Vec<(&str, u64)> = m
        .dir(0x2000)
        .unwrap()
        .entries()
        .iter()
        .map(|(n, d)| (n.as_str(), d.0))
        .collect();
    assert_eq!(listed, want);
    assert_eq!(listing.len(), n as usize);
    // Same entries, opposite insertion order: the same listing.
    assert_eq!(listing, backward.readdir(InodeId(0x2000)).unwrap());
    backward.apply_blind(&JournalEvent::Unlink {
        parent: InodeId(0x2000),
        name: "file.0.0".into(),
    });
    assert_ne!(listing, backward.readdir(InodeId(0x2000)).unwrap());
}
