//! Property-based tests (proptest) over the core invariants:
//!
//! * journal codec round-trips arbitrary event sequences;
//! * replaying a journal reproduces the namespace that produced it;
//! * the object-store representation round-trips the namespace;
//! * Nonvolatile Apply and Volatile Apply converge to the same state;
//! * policy files and DSL compositions round-trip;
//! * directory fragtrees never lose or duplicate entries;
//! * fault-free speculation is invisible: the same workload with
//!   speculation on and off lands byte-identical namespaces and
//!   identically-clean histories.

use std::collections::VecDeque;
use std::sync::Arc;

use proptest::prelude::*;

use cudele::{parse_policies, render_policies, Composition, Policy};
use cudele_client::{AckOutcome, RpcClient, SpecObs, SpeculativeClient};
use cudele_journal::{decode_journal, encode_journal, Attrs, InodeId, JournalEvent};
use cudele_mds::{
    emit_canonical, flush_store, load_store, ClientId, MetadataServer, MetadataStore,
    ObjectStoreSink,
};
use cudele_rados::{InMemoryStore, PoolId};
use cudele_sim::Nanos;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn arb_name() -> impl Strategy<Value = String> {
    // Dentry names: non-empty, no '/', printable-ish plus unicode.
    proptest::string::string_regex("[a-zA-Z0-9._\\-]{1,24}|[α-ωあ-ん]{1,8}").unwrap()
}

fn arb_attrs() -> impl Strategy<Value = Attrs> {
    (
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(mode, uid, gid, size, mtime)| Attrs {
            mode: mode as u32,
            uid,
            gid,
            size: size as u64,
            mtime: Nanos(mtime as u64),
        })
}

fn arb_event() -> impl Strategy<Value = JournalEvent> {
    let ino = (2u64..1 << 40).prop_map(InodeId);
    prop_oneof![
        (ino.clone(), arb_name(), ino.clone(), arb_attrs()).prop_map(
            |(parent, name, ino, attrs)| JournalEvent::Create {
                parent,
                name,
                ino,
                attrs
            }
        ),
        (ino.clone(), arb_name(), ino.clone(), arb_attrs()).prop_map(
            |(parent, name, ino, attrs)| JournalEvent::Mkdir {
                parent,
                name,
                ino,
                attrs
            }
        ),
        (ino.clone(), arb_name()).prop_map(|(parent, name)| JournalEvent::Unlink { parent, name }),
        (ino.clone(), arb_name()).prop_map(|(parent, name)| JournalEvent::Rmdir { parent, name }),
        (ino.clone(), arb_name(), ino.clone(), arb_name()).prop_map(
            |(src_parent, src_name, dst_parent, dst_name)| JournalEvent::Rename {
                src_parent,
                src_name,
                dst_parent,
                dst_name,
            }
        ),
        (ino.clone(), arb_attrs()).prop_map(|(ino, attrs)| JournalEvent::SetAttr { ino, attrs }),
        (ino, proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(ino, policy)| JournalEvent::SetPolicy { ino, policy }),
        any::<u32>().prop_map(|seq| JournalEvent::SegmentBoundary { seq: seq as u64 }),
    ]
}

/// A *well-formed* workload: a sequence of creates/mkdirs/unlinks against
/// an evolving namespace, so checked-apply always succeeds.
fn arb_workload() -> impl Strategy<Value = Vec<JournalEvent>> {
    proptest::collection::vec((any::<u16>(), arb_name(), any::<u8>()), 1..120).prop_map(|steps| {
        let mut events = Vec::new();
        let mut dirs = vec![InodeId::ROOT];
        let mut files: Vec<(InodeId, String)> = Vec::new();
        let mut next_ino = 0x1000u64;
        for (sel, name, action) in steps {
            let parent = dirs[sel as usize % dirs.len()];
            match action % 4 {
                0 => {
                    // mkdir (fresh unique name via ino suffix)
                    let ino = InodeId(next_ino);
                    next_ino += 1;
                    let name = format!("{name}.d{next_ino}");
                    events.push(JournalEvent::Mkdir {
                        parent,
                        name,
                        ino,
                        attrs: Attrs::dir_default(),
                    });
                    dirs.push(ino);
                }
                1 | 2 => {
                    let ino = InodeId(next_ino);
                    next_ino += 1;
                    let name = format!("{name}.f{next_ino}");
                    events.push(JournalEvent::Create {
                        parent,
                        name: name.clone(),
                        ino,
                        attrs: Attrs::file_default(),
                    });
                    files.push((parent, name));
                }
                _ => {
                    if let Some((parent, name)) = files.pop() {
                        events.push(JournalEvent::Unlink { parent, name });
                    }
                }
            }
        }
        events
    })
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_roundtrip_arbitrary_events(events in proptest::collection::vec(arb_event(), 0..60)) {
        let blob = encode_journal(&events);
        let decoded = decode_journal(&blob).unwrap();
        prop_assert_eq!(decoded, events);
    }

    #[test]
    fn codec_rejects_any_single_byte_corruption(
        events in proptest::collection::vec(arb_event(), 1..8),
        pos_seed in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let blob = encode_journal(&events).to_vec();
        // Corrupt one byte past the magic.
        let pos = 8 + (pos_seed as usize % (blob.len() - 8));
        let mut bad = blob.clone();
        bad[pos] ^= flip;
        // Decode must either fail or, if the flip landed in a length field
        // making framing misalign, still not panic. It must never silently
        // return the original events with different bytes accepted.
        if let Ok(decoded) = decode_journal(&bad) { prop_assert_ne!(decoded, events, "corruption at {} accepted", pos) }
    }

    #[test]
    fn replay_reconstructs_namespace(events in arb_workload()) {
        // Apply the workload checked; replay the journal blind into a
        // fresh store; the namespaces must be identical.
        let mut original = MetadataStore::new();
        for e in &events {
            original.apply_checked(e).unwrap();
        }
        let blob = encode_journal(&events);
        let mut replayed = MetadataStore::new();
        for e in &decode_journal(&blob).unwrap() {
            replayed.apply_blind(e);
        }
        prop_assert_eq!(original.snapshot(), replayed.snapshot());
    }

    /// A journal batch whose retry re-lands the frames an earlier attempt
    /// had already got into the store reads back as `prefix ++ whole
    /// batch`; blind replay must not care.
    #[test]
    fn replaying_a_landed_prefix_twice_changes_nothing(
        events in arb_workload(),
        cut in any::<u16>(),
    ) {
        let landed = &events[..cut as usize % (events.len() + 1)];
        let mut once = MetadataStore::new();
        let mut twice = MetadataStore::new();
        events.iter().for_each(|e| once.apply_blind(e));
        landed.iter().chain(&events).for_each(|e| twice.apply_blind(e));
        prop_assert_eq!(twice.snapshot(), once.snapshot());
    }

    #[test]
    fn object_store_roundtrip(events in arb_workload()) {
        let mut ms = MetadataStore::new();
        for e in &events {
            ms.apply_checked(e).unwrap();
        }
        let os = InMemoryStore::paper_default();
        flush_store(&ms, &os, PoolId::METADATA).unwrap();
        let loaded = load_store(&os, PoolId::METADATA).unwrap();
        prop_assert_eq!(loaded.snapshot(), ms.snapshot());
    }

    #[test]
    fn nva_and_va_converge(events in arb_workload()) {
        // Volatile apply in memory...
        let mut volatile = MetadataStore::new();
        for e in &events {
            volatile.apply_blind(e);
        }
        // ...vs the Nonvolatile Apply object path + recovery.
        let os = InMemoryStore::paper_default();
        let mut sink = ObjectStoreSink::new(&os, PoolId::METADATA);
        for e in &events {
            sink.apply_event(e).unwrap();
        }
        let recovered = load_store(&os, PoolId::METADATA).unwrap();
        prop_assert_eq!(recovered.snapshot(), volatile.snapshot());
    }

    #[test]
    fn compaction_preserves_namespace_and_never_grows(events in arb_workload()) {
        // The checkpoint's fold: a blind replay, emitted canonically.
        let mut original = MetadataStore::new();
        let updates = original.apply_blind_all(&events);
        let compacted = emit_canonical(&original);
        // Same final namespace under blind replay.
        let mut replayed = MetadataStore::new();
        for e in &compacted {
            replayed.apply_blind(e);
        }
        prop_assert_eq!(original.snapshot(), replayed.snapshot());
        // Never larger than the pile it replaced.
        prop_assert!(compacted.len() as u64 <= updates);
        // Canonical order is checked-safe (parents before children, no
        // duplicate names).
        let mut strict = MetadataStore::new();
        for e in &compacted {
            strict.apply_checked(e).map_err(|err| {
                proptest::test_runner::TestCaseError::fail(format!("checked replay failed: {err}"))
            })?;
        }
        prop_assert_eq!(strict.snapshot(), original.snapshot());
    }

    #[test]
    fn policy_file_roundtrip(
        cons in 0u8..3,
        dur in 0u8..3,
        inodes in 1u64..1_000_000,
        block in any::<bool>(),
    ) {
        use cudele::{Consistency, Durability, InterferePolicy};
        let policy = Policy {
            consistency: [Consistency::Invisible, Consistency::Weak, Consistency::Strong][cons as usize],
            durability: [Durability::None, Durability::Local, Durability::Global][dur as usize],
            allocated_inodes: inodes,
            interfere: if block { InterferePolicy::Block } else { InterferePolicy::Allow },
            custom_composition: None,
        };
        let text = render_policies(&policy);
        prop_assert_eq!(parse_policies(&text).unwrap(), policy);
    }

    #[test]
    fn dsl_roundtrip(stages in proptest::collection::vec(
        proptest::collection::vec(0usize..7, 1..3), 1..4)
    ) {
        use cudele::Mechanism;
        let comp = Composition::from_stages(
            stages
                .into_iter()
                .map(|stage| stage.into_iter().map(|i| Mechanism::ALL[i]).collect())
                .collect(),
        );
        let printed = comp.to_string();
        let parsed: Composition = printed.parse().unwrap();
        prop_assert_eq!(parsed, comp);
    }

    #[test]
    fn dirfrag_split_preserves_entries(names in proptest::collection::hash_set(arb_name(), 1..400)) {
        use cudele_mds::{Dentry, Dir};
        use cudele_journal::FileType;
        let mut dir = Dir::with_split_threshold(16);
        for (i, name) in names.iter().enumerate() {
            dir.insert(name, Dentry { ino: InodeId(100 + i as u64), ftype: FileType::File });
        }
        prop_assert_eq!(dir.len(), names.len());
        for name in &names {
            prop_assert!(dir.get(name).is_some(), "lost {}", name);
        }
        // listing() is sorted and complete.
        let listed = dir.listing();
        prop_assert_eq!(listed.len(), names.len());
        let mut sorted: Vec<&str> = names.iter().map(String::as_str).collect();
        sorted.sort();
        let listed_names: Vec<&str> = listed.iter().map(|(n, _)| n).collect();
        prop_assert_eq!(listed_names, sorted);
    }

    #[test]
    fn speculation_on_and_off_are_equivalent_without_faults(
        ops in 1u64..80,
        depth in 1usize..24,
        ndirs in 1usize..4,
        eager in proptest::collection::vec(any::<bool>(), 80..81),
    ) {
        // The same create workload twice: a stalling RPC client (the
        // server records its history), and a speculative client running
        // `depth` ops ahead with an arbitrary ack-delivery interleaving
        // (the client records its history at commit). Fault-free, the
        // two must land byte-identical namespaces — same names bound to
        // the same inode numbers — and both histories must pass the
        // linearizability checker over the same number of ops.
        let t_of = |i: u64| Nanos::from_micros(100 * (i + 1));

        let plain_reg = Arc::new(cudele_obs::Registry::new());
        let mut plain = MetadataServer::new(Arc::new(InMemoryStore::paper_default()));
        let mut pdirs = Vec::new();
        for d in 0..ndirs {
            pdirs.push(plain.setup_dir(&format!("/d{d}")).unwrap());
        }
        plain.attach_obs(&plain_reg);
        let (mut rc, _) = RpcClient::mount(&mut plain, ClientId(1));
        for i in 0..ops {
            plain.set_now(t_of(i));
            rc.create(&mut plain, pdirs[(i % ndirs as u64) as usize], &format!("f{i}"))
                .result
                .unwrap();
        }

        let spec_reg = Arc::new(cudele_obs::Registry::new());
        let mut spec = MetadataServer::new(Arc::new(InMemoryStore::paper_default()));
        let mut sdirs = Vec::new();
        for d in 0..ndirs {
            sdirs.push(spec.setup_dir(&format!("/d{d}")).unwrap());
        }
        let (sc, _) = SpeculativeClient::mount(&mut spec, ClientId(1));
        let mut sc = sc.unwrap();
        sc.set_obs(SpecObs::new(&spec_reg));
        let mut pending: VecDeque<u64> = VecDeque::new();
        for i in 0..ops {
            sc.set_now(t_of(i));
            let (seq, _) =
                sc.issue_create(&mut spec, sdirs[(i % ndirs as u64) as usize], &format!("f{i}"));
            pending.push_back(seq);
            // The interleaving is arbitrary (FIFO order, but *when* each
            // ack lands varies): drain early when the generator says so,
            // always when the window is full.
            if eager[i as usize] || pending.len() >= depth {
                sc.set_now(t_of(i) + Nanos::from_micros(10));
                let s = pending.pop_front().unwrap();
                prop_assert!(matches!(sc.deliver_ack(s, false), AckOutcome::Committed(_)));
            }
        }
        let mut t = t_of(ops);
        while let Some(s) = pending.pop_front() {
            t += Nanos::from_micros(10);
            sc.set_now(t);
            sc.deliver_ack(s, false);
        }
        prop_assert_eq!(sc.committed(), ops);

        // Byte-identical final namespaces (names, inode numbers, attrs).
        prop_assert_eq!(plain.store().snapshot(), spec.store().snapshot());

        // Identical history verdicts (both linearizable), and the same
        // create observations: the plain client additionally records its
        // cold-start lookups — the very RPCs speculation skips — so only
        // the create events are compared, name for name, inode for inode.
        let ph = cudele_obs::history::History::parse(&plain_reg.history_json("rpc")).unwrap();
        let sh = cudele_obs::history::History::parse(&spec_reg.history_json("rpc")).unwrap();
        let pr = cudele_check::check_history(&ph);
        let sr = cudele_check::check_history(&sh);
        prop_assert!(pr.clean(), "rpc history dirty: {}", pr.violations[0]);
        prop_assert!(sr.clean(), "speculative history dirty: {}", sr.violations[0]);
        let creates = |h: &cudele_obs::history::History| {
            let mut v: Vec<(String, u64)> = h
                .events
                .iter()
                .filter_map(|e| match &e.op {
                    cudele_obs::history::HistoryOp::Create { name, .. } => {
                        Some((name.clone(), e.ino))
                    }
                    _ => None,
                })
                .collect();
            v.sort();
            v
        };
        let (pc, sc_events) = (creates(&ph), creates(&sh));
        prop_assert_eq!(pc.len() as u64, ops);
        prop_assert_eq!(pc, sc_events);
    }

    #[test]
    fn merge_priority_decoupled_wins(n in 1usize..30) {
        // Whatever interleaving of RPC-created and merged names occurs,
        // blind apply means the merged (decoupled) inode owns the name.
        let mut ms = MetadataStore::new();
        for i in 0..n {
            ms.create(InodeId::ROOT, &format!("f{i}"), InodeId(0x100 + i as u64), Attrs::file_default()).unwrap();
        }
        for i in 0..n {
            ms.apply_blind(&JournalEvent::Create {
                parent: InodeId::ROOT,
                name: format!("f{i}"),
                ino: InodeId(0x10_000 + i as u64),
                attrs: Attrs::file_default(),
            });
        }
        for i in 0..n {
            let d = ms.lookup(InodeId::ROOT, &format!("f{i}")).unwrap();
            prop_assert_eq!(d.ino, InodeId(0x10_000 + i as u64));
            // The displaced RPC inode is gone, not leaked.
            prop_assert!(!ms.inode_in_use(InodeId(0x100 + i as u64)));
        }
    }
}
