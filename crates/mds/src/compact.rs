//! The checkpoint's fold: a namespace as its canonical event sequence.
//!
//! "The journal is a 'pile system'; writes are fast but reads are slow
//! because state must be reconstructed. Specifically, reads are slow
//! because there is more state to read, it is unorganized, and many of the
//! updates may be redundant." [`emit_canonical`] is the answer the
//! checkpoint ([`crate::checkpoint`]) gives: the pile is replayed onto a
//! metadata store, and the store is emitted as one event per surviving
//! inode in parent-before-child order. Create/unlink pairs vanish, rename
//! chains collapse to the final location, and superseded setattr/setpolicy
//! updates reduce to the final values (folded into the create/mkdir events
//! where possible). That sequence is a checkpoint image.

use cudele_journal::{EventRef, JournalEvent};

use crate::store::MetadataStore;

/// Emits the canonical event sequence reconstructing `store` from an
/// empty namespace: only `Mkdir`, `Create`, `SetAttr` (root only), and
/// `SetPolicy` events, depth-first with parents before children.
pub fn emit_canonical(store: &MetadataStore) -> Vec<JournalEvent> {
    canonical_events(store)
        .into_iter()
        .map(EventRef::to_owned)
        .collect()
}

/// [`emit_canonical`] as views borrowed from `store`: what the checkpoint
/// encodes its image from, without owning a name.
pub(crate) fn canonical_events(store: &MetadataStore) -> Vec<EventRef<'_>> {
    use cudele_journal::{Attrs, FileType, InodeId};

    let mut out = Vec::new();
    let root = store.inode(InodeId::ROOT).expect("store always has a root");
    if root.attrs != Attrs::dir_default() {
        out.push(EventRef::SetAttr {
            ino: InodeId::ROOT,
            attrs: root.attrs,
        });
    }
    if let Some(policy) = &root.policy {
        out.push(EventRef::SetPolicy {
            ino: InodeId::ROOT,
            policy,
        });
    }

    // Depth-first, name-ordered, parents before children: deterministic
    // output for deterministic inputs.
    let mut stack = vec![InodeId::ROOT];
    while let Some(dir_ino) = stack.pop() {
        let Some(dir) = store.dir(dir_ino) else {
            continue;
        };
        for (name, dentry) in dir.sorted() {
            let inode = store
                .inode(dentry.ino)
                .expect("dentries never dangle in a consistent store");
            match dentry.ftype {
                FileType::Dir => {
                    out.push(EventRef::Mkdir {
                        parent: dir_ino,
                        name,
                        ino: dentry.ino,
                        attrs: inode.attrs,
                    });
                    stack.push(dentry.ino);
                }
                FileType::File => {
                    out.push(EventRef::Create {
                        parent: dir_ino,
                        name,
                        ino: dentry.ino,
                        attrs: inode.attrs,
                    });
                }
            }
            if let Some(policy) = &inode.policy {
                out.push(EventRef::SetPolicy {
                    ino: dentry.ino,
                    policy,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudele_journal::{Attrs, InodeId};

    fn replay(events: &[JournalEvent]) -> MetadataStore {
        let mut s = MetadataStore::new();
        s.apply_blind_all(events);
        s
    }

    #[test]
    fn create_unlink_pairs_vanish() {
        let events = vec![
            JournalEvent::Create {
                parent: InodeId::ROOT,
                name: "temp".into(),
                ino: InodeId(0x1000),
                attrs: Attrs::file_default(),
            },
            JournalEvent::Unlink {
                parent: InodeId::ROOT,
                name: "temp".into(),
            },
            JournalEvent::Create {
                parent: InodeId::ROOT,
                name: "kept".into(),
                ino: InodeId(0x1001),
                attrs: Attrs::file_default(),
            },
        ];
        let compacted = emit_canonical(&replay(&events));
        // Three updates fold to one event.
        assert_eq!(compacted.len(), 1);
        assert_eq!(events.iter().filter(|e| e.is_update()).count(), 3);
        assert_eq!(replay(&compacted).snapshot(), replay(&events).snapshot());
    }

    #[test]
    fn rename_chains_collapse() {
        let mut events = vec![JournalEvent::Create {
            parent: InodeId::ROOT,
            name: "a".into(),
            ino: InodeId(0x1000),
            attrs: Attrs::file_default(),
        }];
        for (from, to) in [("a", "b"), ("b", "c"), ("c", "final")] {
            events.push(JournalEvent::Rename {
                src_parent: InodeId::ROOT,
                src_name: from.into(),
                dst_parent: InodeId::ROOT,
                dst_name: to.into(),
            });
        }
        let compacted = emit_canonical(&replay(&events));
        assert_eq!(compacted.len(), 1);
        match &compacted[0] {
            JournalEvent::Create { name, ino, .. } => {
                assert_eq!(name, "final");
                assert_eq!(*ino, InodeId(0x1000));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn setattr_supersession_folds_into_create() {
        let events = vec![
            JournalEvent::Create {
                parent: InodeId::ROOT,
                name: "f".into(),
                ino: InodeId(0x1000),
                attrs: Attrs::file_default(),
            },
            JournalEvent::SetAttr {
                ino: InodeId(0x1000),
                attrs: Attrs {
                    size: 10,
                    ..Attrs::file_default()
                },
            },
            JournalEvent::SetAttr {
                ino: InodeId(0x1000),
                attrs: Attrs {
                    size: 999,
                    ..Attrs::file_default()
                },
            },
        ];
        let compacted = emit_canonical(&replay(&events));
        assert_eq!(compacted.len(), 1);
        let s = replay(&compacted);
        assert_eq!(s.inode(InodeId(0x1000)).unwrap().attrs.size, 999);
    }

    #[test]
    fn directories_emitted_before_children() {
        let events = vec![
            JournalEvent::Mkdir {
                parent: InodeId::ROOT,
                name: "d".into(),
                ino: InodeId(0x1000),
                attrs: Attrs::dir_default(),
            },
            JournalEvent::Mkdir {
                parent: InodeId(0x1000),
                name: "e".into(),
                ino: InodeId(0x1001),
                attrs: Attrs::dir_default(),
            },
            JournalEvent::Create {
                parent: InodeId(0x1001),
                name: "f".into(),
                ino: InodeId(0x1002),
                attrs: Attrs::file_default(),
            },
        ];
        let compacted = emit_canonical(&replay(&events));
        assert_eq!(compacted.len(), 3);
        // Parent-before-child: a *checked* replay must succeed too.
        let mut strict = MetadataStore::new();
        for e in &compacted {
            strict
                .apply_checked(e)
                .expect("canonical order is checked-safe");
        }
        assert_eq!(strict.snapshot(), replay(&events).snapshot());
    }

    #[test]
    fn policies_and_root_attrs_survive() {
        let events = vec![
            JournalEvent::SetAttr {
                ino: InodeId::ROOT,
                attrs: Attrs {
                    mode: 0o700,
                    ..Attrs::dir_default()
                },
            },
            JournalEvent::Mkdir {
                parent: InodeId::ROOT,
                name: "sub".into(),
                ino: InodeId(0x1000),
                attrs: Attrs::dir_default(),
            },
            JournalEvent::SetPolicy {
                ino: InodeId(0x1000),
                policy: vec![1, 2, 3],
            },
            JournalEvent::SetPolicy {
                ino: InodeId::ROOT,
                policy: vec![9],
            },
        ];
        let compacted = emit_canonical(&replay(&events));
        let a = replay(&compacted);
        let b = replay(&events);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.inode(InodeId::ROOT).unwrap().attrs.mode, 0o700);
        assert_eq!(
            a.inode(InodeId::ROOT).unwrap().policy.as_deref(),
            Some(&[9u8][..])
        );
        assert_eq!(
            a.inode(InodeId(0x1000)).unwrap().policy.as_deref(),
            Some(&[1u8, 2, 3][..])
        );
    }

    #[test]
    fn segment_boundaries_dropped() {
        let events = vec![
            JournalEvent::SegmentBoundary { seq: 0 },
            JournalEvent::Create {
                parent: InodeId::ROOT,
                name: "f".into(),
                ino: InodeId(0x1000),
                attrs: Attrs::file_default(),
            },
            JournalEvent::SegmentBoundary { seq: 1 },
        ];
        let compacted = emit_canonical(&replay(&events));
        assert_eq!(compacted.len(), 1);
        assert_eq!(events.iter().filter(|e| e.is_update()).count(), 1);
    }

    #[test]
    fn empty_pile_compacts_to_nothing() {
        assert!(emit_canonical(&replay(&[])).is_empty());
    }
}
