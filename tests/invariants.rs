//! Property tests over the stateful protocol machines: the capability
//! table, the monitor's resolution rules, and the mdlog's segment
//! bookkeeping. The metadata store's consistency is checked against the
//! reference model (`crates/mds/tests/store_diff.rs`).

use proptest::prelude::*;

use cudele::{normalize_path, Monitor, Policy};
use cudele_journal::{Attrs, InodeId, JournalEvent};
use cudele_mds::{CapTable, ClientId};

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
        use cudele_journal::{decode_frames, SegmentBuilder};
        let events: Vec<JournalEvent> = (0..n)
            .map(|i| JournalEvent::Create {
                parent: InodeId::ROOT,
                name: format!("f{i}"),
                ino: InodeId(0x1000 + i),
                attrs: Attrs::file_default(),
            })
            .collect();
        let mut builder = SegmentBuilder::new(seg_size);
        let mut segments: Vec<_> = events.iter().filter_map(|e| builder.push(e)).collect();
        segments.extend(builder.flush());
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
            prop_assert_eq!(updates.len() as u64 + 1, seg.events);
            if i + 1 < segments.len() {
                prop_assert_eq!(updates.len(), seg_size);
            }
            flattened.extend(updates);
        }
        prop_assert_eq!(flattened, events);
    }
}
