//! Edge cases for the checkpoint's fold.
//!
//! A checkpoint image is `emit_canonical` of the namespace a journal pile
//! replays to, so any pile the canonical form cannot faithfully reproduce
//! would silently corrupt bounded recovery. These
//! tests pin the awkward shapes — rename chains that cross directories,
//! names that die and come back with a different inode, policies re-set
//! after their subtree moved — plus a property test that canonical
//! output blind-replays to the same namespace shape for arbitrary valid
//! schedules.

use cudele_journal::{Attrs, FileType, InodeId, JournalEvent};
use cudele_mds::{emit_canonical, MetadataStore};
use proptest::prelude::*;

fn replay(events: &[JournalEvent]) -> MetadataStore {
    let mut s = MetadataStore::new();
    for e in events {
        s.apply_blind(e);
    }
    s
}

fn create(parent: InodeId, name: &str, ino: u64) -> JournalEvent {
    JournalEvent::Create {
        parent,
        name: name.into(),
        ino: InodeId(ino),
        attrs: Attrs::file_default(),
    }
}

fn mkdir(parent: InodeId, name: &str, ino: u64) -> JournalEvent {
    JournalEvent::Mkdir {
        parent,
        name: name.into(),
        ino: InodeId(ino),
        attrs: Attrs::dir_default(),
    }
}

fn rename(
    src_parent: InodeId,
    src_name: &str,
    dst_parent: InodeId,
    dst_name: &str,
) -> JournalEvent {
    JournalEvent::Rename {
        src_parent,
        src_name: src_name.into(),
        dst_parent,
        dst_name: dst_name.into(),
    }
}

#[test]
fn cross_directory_rename_chain_collapses_to_final_location() {
    let (a, b, c) = (0x1000, 0x1001, 0x1002);
    let events = vec![
        mkdir(InodeId::ROOT, "a", a),
        mkdir(InodeId::ROOT, "b", b),
        mkdir(InodeId::ROOT, "c", c),
        create(InodeId(a), "f", 0x1003),
        rename(InodeId(a), "f", InodeId(b), "g"),
        rename(InodeId(b), "g", InodeId(c), "h"),
        rename(InodeId(c), "h", InodeId(a), "back"),
    ];
    let compacted = emit_canonical(&replay(&events));
    // Three mkdirs plus one create: the whole chain is redundant.
    assert_eq!(compacted.len(), 4);
    assert_eq!(events.iter().filter(|e| e.is_update()).count(), 7);
    let s = replay(&compacted);
    assert_eq!(s.snapshot(), replay(&events).snapshot());
    assert_eq!(s.lookup(InodeId(a), "back").unwrap().ino, InodeId(0x1003));
    assert!(s.lookup(InodeId(b), "g").is_err());
    assert!(s.lookup(InodeId(c), "h").is_err());
}

#[test]
fn directory_rename_carries_its_subtree() {
    let (src, dst, tree, sub) = (0x1000, 0x1001, 0x1002, 0x1003);
    let events = vec![
        mkdir(InodeId::ROOT, "src", src),
        mkdir(InodeId::ROOT, "dst", dst),
        mkdir(InodeId(src), "tree", tree),
        mkdir(InodeId(tree), "sub", sub),
        create(InodeId(sub), "leaf", 0x1004),
        rename(InodeId(src), "tree", InodeId(dst), "tree2"),
    ];
    let compacted = emit_canonical(&replay(&events));
    // src, dst, tree2, sub, leaf — one event each, rename gone.
    assert_eq!(compacted.len(), 5);
    let s = replay(&compacted);
    assert_eq!(s.snapshot(), replay(&events).snapshot());
    // The subtree re-roots under dst/tree2 with the original inodes.
    assert_eq!(s.lookup(InodeId(dst), "tree2").unwrap().ino, InodeId(tree));
    assert_eq!(s.lookup(InodeId(tree), "sub").unwrap().ino, InodeId(sub));
    assert_eq!(s.lookup(InodeId(sub), "leaf").unwrap().ino, InodeId(0x1004));
    assert!(s.lookup(InodeId(src), "tree").is_err());
    // Canonical order is parent-before-child even across the re-root: a
    // checked replay (which rejects orphan dentries) must accept it.
    let mut strict = MetadataStore::new();
    for e in &compacted {
        strict
            .apply_checked(e)
            .expect("canonical order is checked-safe");
    }
    assert_eq!(strict.snapshot(), s.snapshot());
}

#[test]
fn unlink_then_recreate_keeps_only_the_final_inode() {
    let events = vec![
        create(InodeId::ROOT, "f", 0x1000),
        JournalEvent::SetAttr {
            ino: InodeId(0x1000),
            attrs: Attrs {
                size: 111,
                ..Attrs::file_default()
            },
        },
        JournalEvent::Unlink {
            parent: InodeId::ROOT,
            name: "f".into(),
        },
        create(InodeId::ROOT, "f", 0x1001),
        JournalEvent::SetAttr {
            ino: InodeId(0x1001),
            attrs: Attrs {
                size: 222,
                ..Attrs::file_default()
            },
        },
    ];
    let compacted = emit_canonical(&replay(&events));
    // One create with the final attrs folded in; the dead generation
    // (create + setattr + unlink) vanishes entirely.
    assert_eq!(compacted.len(), 1);
    let s = replay(&compacted);
    assert_eq!(s.lookup(InodeId::ROOT, "f").unwrap().ino, InodeId(0x1001));
    assert_eq!(s.inode(InodeId(0x1001)).unwrap().attrs.size, 222);
    assert!(s.inode(InodeId(0x1000)).is_none());
    assert_eq!(s.snapshot(), replay(&events).snapshot());
}

#[test]
fn policy_reset_on_renamed_subtree_attaches_to_final_name() {
    let d = 0x1000;
    let events = vec![
        mkdir(InodeId::ROOT, "old", d),
        JournalEvent::SetPolicy {
            ino: InodeId(d),
            policy: vec![1],
        },
        rename(InodeId::ROOT, "old", InodeId::ROOT, "new"),
        JournalEvent::SetPolicy {
            ino: InodeId(d),
            policy: vec![2, 2],
        },
    ];
    let compacted = emit_canonical(&replay(&events));
    // One mkdir at the final name plus one policy with the final blob.
    assert_eq!(compacted.len(), 2);
    let s = replay(&compacted);
    assert_eq!(s.lookup(InodeId::ROOT, "new").unwrap().ino, InodeId(d));
    assert!(s.lookup(InodeId::ROOT, "old").is_err());
    assert_eq!(
        s.inode(InodeId(d)).unwrap().policy.as_deref(),
        Some(&[2u8, 2][..])
    );
    assert_eq!(s.snapshot(), replay(&events).snapshot());
}

/// One step of a schedule. Selectors are reduced modulo the live
/// directory/name pools when the op is applied.
#[derive(Debug, Clone, Copy)]
enum EOp {
    Create(u8, u8),
    Mkdir(u8, u8),
    Unlink(u8, u8),
    Rmdir(u8, u8),
    Rename(u8, u8, u8, u8),
    SetAttr(u8, u8, u8),
    SetPolicy(u8, u8, u8),
}

fn arb_eop() -> impl Strategy<Value = EOp> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
    )
        .prop_map(|(kind, a, b, c, d)| match kind % 10 {
            0..=2 => EOp::Create(a, b),
            3 | 4 => EOp::Mkdir(a, b),
            5 => EOp::Unlink(a, b),
            6 => EOp::Rmdir(a, b),
            7 => EOp::Rename(a, b, c, d),
            8 => EOp::SetAttr(a, b, c),
            _ => EOp::SetPolicy(a, b, c),
        })
}

fn name(sel: u8) -> String {
    format!("n{}", sel % 6)
}

/// One reachable path with its inode, type, attributes, and policy blob.
type ShapeRow = (String, InodeId, FileType, Attrs, Option<Vec<u8>>);

/// Full observable shape: every reachable path, strictly finer than
/// `snapshot()`.
fn deep_shape(s: &MetadataStore) -> Vec<ShapeRow> {
    s.snapshot()
        .into_iter()
        .map(|(path, (ino, ftype))| {
            let inode = s.inode(ino).expect("snapshot paths resolve");
            (path, ino, ftype, inode.attrs, inode.policy.clone())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For an arbitrary *valid* schedule (events a checked store accepts,
    /// i.e. exactly what a real journal would contain), the canonical
    /// emission blind-replays from empty to the identical deep shape, a
    /// checked replay accepts it in emitted order, and the fold is a fixed
    /// point (folding the canonical form changes nothing).
    #[test]
    fn emit_canonical_blind_replays_to_the_same_shape(
        ops in proptest::collection::vec(arb_eop(), 1..160),
    ) {
        let mut store = MetadataStore::new();
        let mut pile: Vec<JournalEvent> = Vec::new();
        let mut dirs = vec![InodeId::ROOT];
        let mut next = 0x1000u64;

        for op in &ops {
            let pick = |sel: u8| dirs[sel as usize % dirs.len()];
            let ev = match *op {
                EOp::Create(p, n) => {
                    let ino = InodeId(next);
                    next += 1;
                    JournalEvent::Create {
                        parent: pick(p),
                        name: name(n),
                        ino,
                        attrs: Attrs {
                            size: u64::from(n),
                            ..Attrs::file_default()
                        },
                    }
                }
                EOp::Mkdir(p, n) => {
                    let ino = InodeId(next);
                    next += 1;
                    JournalEvent::Mkdir {
                        parent: pick(p),
                        name: name(n),
                        ino,
                        attrs: Attrs::dir_default(),
                    }
                }
                EOp::Unlink(p, n) => JournalEvent::Unlink {
                    parent: pick(p),
                    name: name(n),
                },
                EOp::Rmdir(p, n) => JournalEvent::Rmdir {
                    parent: pick(p),
                    name: name(n),
                },
                EOp::Rename(sp, sn, dp, dn) => JournalEvent::Rename {
                    src_parent: pick(sp),
                    src_name: name(sn),
                    dst_parent: pick(dp),
                    dst_name: name(dn),
                },
                EOp::SetAttr(p, n, sz) => {
                    let Ok(dentry) = store.lookup(pick(p), &name(n)) else {
                        continue;
                    };
                    JournalEvent::SetAttr {
                        ino: dentry.ino,
                        attrs: Attrs {
                            size: u64::from(sz),
                            ..Attrs::file_default()
                        },
                    }
                }
                EOp::SetPolicy(p, n, byte) => {
                    let Ok(dentry) = store.lookup(pick(p), &name(n)) else {
                        continue;
                    };
                    JournalEvent::SetPolicy {
                        ino: dentry.ino,
                        policy: vec![byte, byte],
                    }
                }
            };
            // Invalid ops (EEXIST, ENOENT, non-empty rmdir, ...) are not
            // journaled — exactly like the server's RPC discipline.
            if store.apply_checked(&ev).is_ok() {
                if let JournalEvent::Mkdir { ino, .. } = ev {
                    dirs.push(ino);
                }
                pile.push(ev);
            }
        }

        // Blind replay of the canonical emission reproduces the store.
        let canonical = emit_canonical(&store);
        let blind = replay(&canonical);
        prop_assert_eq!(deep_shape(&blind), deep_shape(&store));

        // Checked replay accepts the emitted order (parents first).
        let mut strict = MetadataStore::new();
        for e in &canonical {
            prop_assert!(strict.apply_checked(e).is_ok(), "checked replay rejected {e:?}");
        }
        prop_assert_eq!(deep_shape(&strict), deep_shape(&store));

        // Folding a blind replay of the raw pile agrees with direct
        // emission, and the fold is a fixed point.
        let compacted = emit_canonical(&replay(&pile));
        prop_assert_eq!(&compacted, &canonical);
        let twice = emit_canonical(&replay(&compacted));
        prop_assert_eq!(&twice, &compacted);
        prop_assert!(compacted.len() <= pile.len().max(1));
    }
}
