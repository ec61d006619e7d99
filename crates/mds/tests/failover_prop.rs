//! Property: for an arbitrary op schedule (creates, mkdirs, unlinks,
//! renames — self-renames included — and journal flushes) cut at an
//! arbitrary crash point, a standby takeover assembled from the shared
//! object store is indistinguishable from the in-place
//! `crash_and_recover` path: identical namespace (paths, inode numbers,
//! file types) and identical inode-allocator watermark.
//!
//! Half the cases also flip one byte in the flushed journal before either
//! recovery runs: the takeover must heal through the journal tool (writing
//! through its fenced handle) and say so in its report, and the in-place
//! path, run second on the shared store, recovers from the healed journal
//! to the same state.
//!
//! This pins the invariant that the two recovery paths share one ladder
//! (persisted image + blind journal replay with tool-heal + allocator
//! reconstruction from journaled grants) — a standby can never "recover
//! differently" from the instance it replaces.

use std::sync::Arc;

use proptest::prelude::*;

use cudele_journal::{read_journal, JournalId};
use cudele_mds::{ClientId, MdLogConfig, MetadataServer, StandbyReplay};
use cudele_rados::{Epoch, FencedStore, FencingAuthority, InMemoryStore, ObjectId, ObjectStore};
use cudele_sim::CostModel;

#[derive(Debug, Clone, Copy)]
enum Op {
    Create(u8),
    Mkdir(u8),
    Unlink(u8),
    /// `f{from}` → `f{to}`; `from == to` is the self-rename that once made
    /// checked apply and blind replay disagree.
    Rename(u8, u8),
    Flush,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(kind, i, j)| match kind % 9 {
        0..=2 => Op::Create(i % 40),
        3 | 4 => Op::Mkdir(i % 8),
        5 => Op::Unlink(i % 40),
        6 | 7 => Op::Rename(i % 40, if j % 4 == 0 { i % 40 } else { j % 40 }),
        _ => Op::Flush,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn standby_takeover_equals_in_place_recovery(
        ops in proptest::collection::vec(arb_op(), 1..120),
        crash_at in any::<u16>(),
        seg in 4usize..16,
        dispatch in 1u32..4,
        damage in any::<bool>(),
        damage_at in any::<u16>(),
    ) {
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
        let client = ClientId(1);
        mds.open_session(client);
        let dir = mds.setup_dir_durable("/p").unwrap();

        // Apply an arbitrary prefix of the schedule: the crash lands at an
        // arbitrary point in the op stream. Individual ops may fail
        // (EEXIST, ENOENT) — that is part of the schedule, not an error.
        let cut = crash_at as usize % (ops.len() + 1);
        for op in &ops[..cut] {
            match *op {
                Op::Create(i) => { let _ = mds.create(client, dir, &format!("f{i}")); }
                Op::Mkdir(i) => { let _ = mds.mkdir(client, dir, &format!("d{i}")); }
                Op::Unlink(i) => { let _ = mds.unlink(client, dir, &format!("f{i}")); }
                Op::Rename(i, j) => {
                    let _ = mds.rename(client, dir, &format!("f{i}"), dir, &format!("f{j}"));
                }
                Op::Flush => mds.flush_journal(),
            }
        }

        // Damage: one byte flipped somewhere in the first flushed stripe
        // (if anything was flushed at all). Every byte of a stripe sits in
        // a CRC-framed event, so a strict replay must now fail.
        let stripe = ObjectId::journal_stripe(JournalId::MDLOG.pool, JournalId::MDLOG.ino, 0);
        let mut damaged = false;
        if let (true, Ok(data)) = (damage, os.read(&stripe)) {
            if !data.is_empty() {
                let mut data = data.to_vec();
                let at = damage_at as usize % data.len();
                data[at] ^= 0x40;
                os.write_full(&stripe, &data).unwrap();
                damaged = true;
                prop_assert!(read_journal(os.as_ref(), JournalId::MDLOG).is_err());
            }
        }

        // Path A: standby takeover from the shared store (read-only when
        // the journal is undamaged, so path B still sees pristine state;
        // a damaged journal is healed in place, so path B sees the heal).
        let mut standby = StandbyReplay::new(
            Arc::clone(&os),
            Arc::clone(&authority),
            CostModel::calibrated(),
            Some(cfg),
        );
        let (standby_server, report) = standby
            .take_over(Epoch(authority.current().0 + 1))
            .unwrap();

        prop_assert_eq!(report.healed, damaged);
        prop_assert!(read_journal(os.as_ref(), JournalId::MDLOG).is_ok());

        // Path B: in-place recovery on the crashed instance.
        mds.fail();
        mds.crash_and_recover().unwrap();

        prop_assert_eq!(standby_server.store().snapshot(), mds.store().snapshot());
        prop_assert_eq!(standby_server.alloc_watermark(), mds.alloc_watermark());
        prop_assert_eq!(report.alloc_watermark, mds.alloc_watermark());
    }
}
