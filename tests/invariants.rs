//! Property tests over the stateful protocol machines: the capability
//! table, the monitor's resolution rules, namespace/store internal
//! consistency under arbitrary operation interleavings, and the mdlog's
//! flush/trim bookkeeping.

use proptest::prelude::*;

use cudele::{normalize_path, Monitor, Policy};
use cudele_journal::{Attrs, InodeId, JournalEvent};
use cudele_mds::{CapTable, ClientId, MetadataStore};

// ---------------------------------------------------------------------
// Capability table
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// At most one client ever holds a directory's read-caching cap, and
    /// a client that just triggered a revocation never simultaneously
    /// receives the cap.
    #[test]
    fn caps_single_holder_invariant(
        ops in proptest::collection::vec((0u32..4, 0u64..3), 1..300),
        regrant in 1u64..50,
    ) {
        let mut table = CapTable::with_regrant_after(regrant);
        let clients: Vec<ClientId> = (0..4).map(ClientId).collect();
        let dirs: Vec<InodeId> = (0..3).map(|i| InodeId(0x1000 + i)).collect();
        for (c, d) in ops {
            let client = clients[c as usize];
            let dir = dirs[d as usize];
            let outcome = table.on_dir_write(dir, client);
            if let Some(revoked) = outcome.revoked_from {
                prop_assert_ne!(revoked, client, "cannot revoke from the writer");
                prop_assert!(!outcome.writer_has_cache,
                    "writer cannot gain the cap in the op that revokes it");
            }
            // Single-holder: if this writer has the cap, nobody else does.
            if outcome.writer_has_cache {
                for other in &clients {
                    if *other != client {
                        prop_assert!(!table.holds_cache(dir, *other));
                    }
                }
            }
        }
    }

    /// Grants and revocations are consistent: a dir written by only one
    /// client never revokes; total grants >= total revocations.
    #[test]
    fn caps_sole_writer_never_revoked(ops in 1u64..500) {
        let mut table = CapTable::new();
        let dir = InodeId(0x1000);
        for _ in 0..ops {
            let o = table.on_dir_write(dir, ClientId(1));
            prop_assert!(o.writer_has_cache);
            prop_assert_eq!(o.revoked_from, None);
        }
        prop_assert_eq!(table.revocations(), 0);
        prop_assert_eq!(table.grants(), 1);
    }
}

// ---------------------------------------------------------------------
// Monitor resolution
// ---------------------------------------------------------------------

fn arb_path() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z]{1,6}", 1..4).prop_map(|comps| format!("/{}", comps.join("/")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Resolution always returns the longest matching prefix, and version
    /// numbers strictly increase across changes.
    #[test]
    fn monitor_longest_prefix_and_versions(
        subtrees in proptest::collection::btree_set(arb_path(), 1..8),
        probe in arb_path(),
    ) {
        let mut m = Monitor::new();
        let mut last_version = m.version();
        for path in &subtrees {
            let v = m.set_policy(path, Policy::batchfs());
            prop_assert!(v > last_version);
            last_version = v;
        }
        if let Some((root, _)) = m.resolve(&probe) {
            let norm = normalize_path(&probe);
            // Returned root is a registered subtree and a component-wise
            // prefix of the probe.
            prop_assert!(subtrees.contains(root));
            let root_prefix = format!("{root}/");
            prop_assert!(norm == root || norm.starts_with(&root_prefix));
            // No *longer* registered prefix exists.
            for other in &subtrees {
                let is_prefix = norm == *other || norm.starts_with(&format!("{other}/"));
                if is_prefix {
                    prop_assert!(other.len() <= root.len(),
                        "{} is a longer prefix of {} than {}", other, norm, root);
                }
            }
        } else {
            // No registered subtree is a prefix of the probe.
            let norm = normalize_path(&probe);
            for other in &subtrees {
                let other_prefix = format!("{other}/");
                prop_assert!(!(norm == *other || norm.starts_with(&other_prefix)));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Metadata store internal consistency
// ---------------------------------------------------------------------

/// Checks deep internal consistency of a store: every dentry's inode
/// exists; every reachable dir has a fragtree; parent links agree with
/// the tree; snapshot size matches inode count.
fn check_store_consistency(ms: &MetadataStore) -> Result<(), TestCaseError> {
    let snapshot = ms.snapshot();
    // Reachable entries resolve and agree with parent links.
    let mut reachable = 0usize;
    let mut stack = vec![(String::new(), InodeId::ROOT)];
    while let Some((prefix, ino)) = stack.pop() {
        if let Some(dir) = ms.dir(ino) {
            for (name, dentry) in dir.listing().iter() {
                reachable += 1;
                prop_assert!(
                    ms.inode(dentry.ino).is_some(),
                    "dangling dentry {prefix}/{name}"
                );
                prop_assert_eq!(
                    ms.parent_of(dentry.ino),
                    Some(ino),
                    "parent link mismatch for {}/{}",
                    prefix,
                    name
                );
                prop_assert!(ms.is_within(dentry.ino, ino));
                prop_assert!(ms.is_within(dentry.ino, InodeId::ROOT));
                if dentry.ftype == cudele_journal::FileType::Dir {
                    prop_assert!(ms.dir(dentry.ino).is_some(), "dir without fragtree");
                    stack.push((format!("{prefix}/{name}"), dentry.ino));
                }
            }
        }
    }
    prop_assert_eq!(snapshot.len(), reachable);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary interleavings of checked and blind operations keep the
    /// store internally consistent (no dangling dentries, no stale parent
    /// links, snapshot complete).
    #[test]
    fn store_consistent_under_mixed_ops(
        steps in proptest::collection::vec((0u8..6, 0u16..32, any::<bool>()), 1..150)
    ) {
        let mut ms = MetadataStore::new();
        let mut dirs = vec![InodeId::ROOT];
        let mut next = 0x1000u64;
        for (op, sel, blind) in steps {
            let parent = dirs[sel as usize % dirs.len()];
            let name = format!("n{}", sel % 8);
            match op {
                0 => {
                    let ino = InodeId(next);
                    next += 1;
                    let e = JournalEvent::Mkdir { parent, name, ino, attrs: Attrs::dir_default() };
                    if blind {
                        ms.apply_blind(&e);
                        dirs.push(ino);
                    } else if ms.apply_checked(&e).is_ok() {
                        dirs.push(ino);
                    }
                }
                1 | 2 => {
                    let ino = InodeId(next);
                    next += 1;
                    let e = JournalEvent::Create { parent, name, ino, attrs: Attrs::file_default() };
                    if blind {
                        ms.apply_blind(&e);
                    } else {
                        let _ = ms.apply_checked(&e);
                    }
                }
                3 => {
                    let e = JournalEvent::Unlink { parent, name };
                    if blind {
                        ms.apply_blind(&e);
                    } else {
                        let _ = ms.apply_checked(&e);
                    }
                }
                4 => {
                    let dst = dirs[(sel as usize + 1) % dirs.len()];
                    let e = JournalEvent::Rename {
                        src_parent: parent,
                        src_name: name,
                        dst_parent: dst,
                        dst_name: format!("r{}", sel % 8),
                    };
                    if blind {
                        ms.apply_blind(&e);
                    } else {
                        let _ = ms.apply_checked(&e);
                    }
                }
                _ => {
                    let _ = ms.setattr(parent, Attrs::dir_default());
                }
            }
            // Drop dirs that a blind op may have displaced.
            dirs.retain(|d| ms.inode(*d).is_some());
            if dirs.is_empty() {
                dirs.push(InodeId::ROOT);
            }
        }
        check_store_consistency(&ms)?;
    }

    /// resolve() and effective_policy() agree with the snapshot for every
    /// reachable path.
    #[test]
    fn resolve_agrees_with_snapshot(
        steps in proptest::collection::vec((0u8..2, 0u16..16), 1..60)
    ) {
        let mut ms = MetadataStore::new();
        let mut dirs = vec![InodeId::ROOT];
        let mut next = 0x1000u64;
        for (op, sel) in steps {
            let parent = dirs[sel as usize % dirs.len()];
            let ino = InodeId(next);
            next += 1;
            let name = format!("x{next}");
            if op == 0 {
                ms.mkdir(parent, &name, ino, Attrs::dir_default()).unwrap();
                dirs.push(ino);
            } else {
                ms.create(parent, &name, ino, Attrs::file_default()).unwrap();
            }
        }
        for (path, (ino, _)) in ms.snapshot() {
            prop_assert_eq!(ms.resolve(&path).unwrap(), ino);
        }
    }
}

// ---------------------------------------------------------------------
// Journal segment bookkeeping
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Segmenting preserves event order and count; every segment except
    /// possibly the last is full; boundary markers carry sequential ids.
    #[test]
    fn segmentation_preserves_stream(
        n in 0u64..300,
        seg_size in 1usize..64,
    ) {
        use cudele_journal::{decode_frames, segment_events};
        let events: Vec<JournalEvent> = (0..n)
            .map(|i| JournalEvent::Create {
                parent: InodeId::ROOT,
                name: format!("f{i}"),
                ino: InodeId(0x1000 + i),
                attrs: Attrs::file_default(),
            })
            .collect();
        let segments = segment_events(&events, seg_size);
        // Order and count preserved.
        let mut flattened = Vec::new();
        for (i, seg) in segments.iter().enumerate() {
            prop_assert_eq!(seg.seq, i as u64);
            let decoded = decode_frames(&seg.frames).unwrap();
            prop_assert_eq!(decoded.len() as u64, seg.events);
            prop_assert_eq!(
                decoded.last(),
                Some(&JournalEvent::SegmentBoundary { seq: i as u64 })
            );
            let updates: Vec<JournalEvent> =
                decoded.into_iter().filter(|e| e.is_update()).collect();
            prop_assert_eq!(updates.len() as u64, seg.updates);
            if i + 1 < segments.len() {
                prop_assert_eq!(updates.len(), seg_size);
            }
            flattened.extend(updates);
        }
        prop_assert_eq!(flattened, events);
    }
}
