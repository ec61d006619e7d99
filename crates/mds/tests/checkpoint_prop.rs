//! Property: checkpoints are an *optimization*, never a semantic.
//!
//! For an arbitrary op schedule (creates, mkdirs, unlinks, journal
//! flushes) interleaved with arbitrary crash points and an arbitrary
//! checkpoint interval:
//!
//! 1. A server recovering through the manifest (image + journal tail) ends
//!    byte-equal — namespace snapshot and inode-allocator
//!    watermark — to a server that replays the full journal.
//! 2. A standby takeover assembled from the shared store's manifest is
//!    indistinguishable from in-place `crash_and_recover` on the crashed
//!    instance (extends `failover_prop.rs` to the checkpointed path).
//!
//! Together these pin the ISSUE's equivalence claim: bounded recovery
//! replays less, but can never recover *differently*.
//!
//! Damage is one more input to both: an arbitrary subset of the checkpoint
//! objects (HEAD, per-epoch manifest copies, images) deleted, truncated at an
//! arbitrary offset or bit-flipped at the crash, and optionally the journal's
//! last stripe torn — the same tear on every server compared. Whatever rungs
//! that costs, the journal as it reads is what both sides recover.

use std::sync::Arc;

use proptest::prelude::*;

use cudele_mds::{CheckpointConfig, ClientId, MdLogConfig, MetadataServer, StandbyReplay};
use cudele_rados::{Epoch, FencedStore, FencingAuthority, InMemoryStore, ObjectStore, PoolId};
use cudele_sim::CostModel;

#[derive(Debug, Clone, Copy)]
enum Op {
    Create(u8),
    Mkdir(u8),
    Unlink(u8),
    Flush,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (any::<u8>(), any::<u8>()).prop_map(|(kind, i)| match kind % 7 {
        0..=2 => Op::Create(i % 40),
        3 | 4 => Op::Mkdir(i % 8),
        5 => Op::Unlink(i % 40),
        _ => Op::Flush,
    })
}

const C1: ClientId = ClientId(1);

/// What to do to the checkpoint objects and the journal at a crash:
/// `(which, how, at)` per hurt object — `which` indexes the sorted `ckpt.*`
/// listing, `how` is delete / truncate to `at` bytes / flip — and how many
/// bytes to tear off the journal's last stripe, if any.
type Damage = (Vec<(u16, u8, u16)>, Option<u16>);

fn arb_damage() -> impl Strategy<Value = Damage> {
    (
        proptest::collection::vec((any::<u16>(), any::<u8>(), any::<u16>()), 0..4),
        (any::<bool>(), any::<u16>()),
    )
        .prop_map(|(hurt, (tear, by))| (hurt, tear.then_some(by)))
}

fn hurt_checkpoint_objects(os: &dyn ObjectStore, hurt: &[(u16, u8, u16)]) {
    for &(which, how, at) in hurt {
        let objects = os.list(PoolId::METADATA, "ckpt.");
        if objects.is_empty() {
            return;
        }
        let id = &objects[which as usize % objects.len()];
        let data = os.read(id).unwrap().to_vec();
        match how % 3 {
            0 => os.remove(id).unwrap(),
            // An object already cut to nothing has no byte left to lose.
            _ if data.is_empty() => os.remove(id).unwrap(),
            // Anywhere, a cut exactly between two of an image's frames
            // included: the manifest records the image's length and CRC.
            1 => {
                os.write_full(id, &data[..at as usize % data.len()])
                    .unwrap();
            }
            _ => {
                let mut flipped = data;
                let mid = flipped.len() / 2;
                flipped[mid] ^= 0x10;
                os.write_full(id, &flipped).unwrap();
            }
        }
    }
}

/// Cuts `by` bytes (at most all of them) off the mdlog's last stripe.
fn tear_journal(os: &dyn ObjectStore, by: u16) {
    let Some(last) = os.list(PoolId::METADATA, "200.").pop() else {
        return;
    };
    let data = os.read(&last).unwrap();
    let keep = data.len().saturating_sub(by as usize);
    os.write_full(&last, &data[..keep]).unwrap();
}

fn apply(mds: &mut MetadataServer, dir: cudele_journal::InodeId, ops: &[Op]) {
    // Individual ops may fail (EEXIST, ENOENT) — that is part of the
    // schedule, not an error.
    for op in ops {
        match *op {
            Op::Create(i) => {
                let _ = mds.create(C1, dir, &format!("f{i}"));
            }
            Op::Mkdir(i) => {
                let _ = mds.mkdir(C1, dir, &format!("d{i}"));
            }
            Op::Unlink(i) => {
                let _ = mds.unlink(C1, dir, &format!("f{i}"));
            }
            Op::Flush => mds.flush_journal(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Two servers run the same schedule; one checkpoints, one does not.
    /// Both crash mid-schedule *and* at the end — so recovery resumes the
    /// compactor and later recoveries see manifests published both before
    /// and after a recovery — and must stay indistinguishable throughout.
    #[test]
    fn checkpointed_recovery_equals_full_replay(
        ops in proptest::collection::vec(arb_op(), 1..120),
        crash_at in any::<u16>(),
        interval in 1u64..10,
        seg in 4usize..16,
        dispatch in 1u32..4,
        damage in arb_damage(),
    ) {
        let (hurt, tear) = damage;
        let cfg = MdLogConfig {
            events_per_segment: seg,
            dispatch_size: dispatch,
            trim_after_updates: None,
        };
        let build = |checkpoints: bool| {
            let os: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::paper_default());
            let mut mds =
                MetadataServer::with_config(os.clone(), CostModel::calibrated(), Some(cfg));
            if checkpoints {
                mds.enable_checkpoints(CheckpointConfig {
                    interval_events: interval,
                })
                .unwrap();
            }
            mds.open_session(C1);
            let dir = mds.setup_dir_durable("/p").unwrap();
            (mds, dir, os)
        };
        let (mut ckpt, dir_a, os_a) = build(true);
        let (mut full, dir_b, os_b) = build(false);
        prop_assert_eq!(dir_a, dir_b); // allocation is deterministic

        let cut = crash_at as usize % (ops.len() + 1);
        apply(&mut ckpt, dir_a, &ops[..cut]);
        apply(&mut full, dir_b, &ops[..cut]);

        // The damage lands at the first crash; the second recovery then
        // runs over whatever lineage the first one resumed.
        hurt_checkpoint_objects(os_a.as_ref(), &hurt);
        if let Some(by) = tear {
            tear_journal(os_a.as_ref(), by);
            tear_journal(os_b.as_ref(), by);
        }
        ckpt.fail();
        ckpt.crash_and_recover().unwrap();
        full.fail();
        full.crash_and_recover().unwrap();
        prop_assert_eq!(ckpt.store().snapshot(), full.store().snapshot());
        prop_assert_eq!(ckpt.alloc_watermark(), full.alloc_watermark());

        // Keep going past the recovery: the compactor resumed from the
        // stored head and must keep extending the same manifest lineage.
        ckpt.open_session(C1);
        full.open_session(C1);
        apply(&mut ckpt, dir_a, &ops[cut..]);
        apply(&mut full, dir_b, &ops[cut..]);

        ckpt.fail();
        ckpt.crash_and_recover().unwrap();
        full.fail();
        full.crash_and_recover().unwrap();
        prop_assert_eq!(ckpt.store().snapshot(), full.store().snapshot());
        prop_assert_eq!(ckpt.alloc_watermark(), full.alloc_watermark());
    }

    /// A standby that takes over from the manifest recovers exactly what
    /// the crashed instance recovers in place.
    #[test]
    fn checkpointed_takeover_equals_in_place_recovery(
        ops in proptest::collection::vec(arb_op(), 1..120),
        crash_at in any::<u16>(),
        interval in 1u64..10,
        seg in 4usize..16,
        dispatch in 1u32..4,
        damage in arb_damage(),
    ) {
        let (hurt, tear) = damage;
        let os: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::paper_default());
        let authority = Arc::new(FencingAuthority::new());
        let fenced: Arc<dyn ObjectStore> = Arc::new(FencedStore::new(
            Arc::clone(&os),
            Arc::clone(&authority),
        ));
        let cfg = MdLogConfig {
            events_per_segment: seg,
            dispatch_size: dispatch,
            trim_after_updates: None,
        };
        let mut mds = MetadataServer::with_config(fenced, CostModel::calibrated(), Some(cfg));
        mds.enable_checkpoints(CheckpointConfig {
            interval_events: interval,
        })
        .unwrap();
        mds.open_session(C1);
        let dir = mds.setup_dir_durable("/p").unwrap();

        let cut = crash_at as usize % (ops.len() + 1);
        apply(&mut mds, dir, &ops[..cut]);

        hurt_checkpoint_objects(os.as_ref(), &hurt);
        if let Some(by) = tear {
            tear_journal(os.as_ref(), by);
        }

        // Path A: standby takeover from the shared store. It writes only to
        // heal a damaged journal, cutting it to the prefix path B would
        // read anyway, so path B still recovers from the same state.
        let mut standby = StandbyReplay::new(
            Arc::clone(&os),
            Arc::clone(&authority),
            CostModel::calibrated(),
            Some(cfg),
        );
        standby.set_checkpoint_config(CheckpointConfig {
            interval_events: interval,
        });
        let (standby_server, report) = standby
            .take_over(Epoch(authority.current().0 + 1))
            .unwrap();

        // Path B: in-place recovery on the crashed instance.
        mds.fail();
        mds.crash_and_recover().unwrap();

        prop_assert_eq!(standby_server.store().snapshot(), mds.store().snapshot());
        prop_assert_eq!(standby_server.alloc_watermark(), mds.alloc_watermark());
        prop_assert_eq!(report.alloc_watermark, mds.alloc_watermark());
        // Both recoveries walked the same manifest lineage.
        prop_assert_eq!(standby_server.manifest_epoch(), mds.manifest_epoch());
        if hurt.is_empty() && tear.is_none() {
            prop_assert_eq!(report.manifest_fallbacks, 0);
        }
        // Bounded replay: the tail past the manifest is what both paths
        // replayed, and everything the manifest covered was materialized.
        prop_assert_eq!(
            report.manifest_epoch > 0,
            report.checkpoint_events > 0
        );
    }
}
