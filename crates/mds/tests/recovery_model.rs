//! Property: what a crash loses is exactly an unflushed journal suffix.
//!
//! One server runs an arbitrary schedule (creates, mkdirs, unlinks,
//! renames — self-renames included — journal flushes, and outages that take
//! every OSD out over the next few ops), with checkpoints on or off, while
//! the reference model (`cudele_model::Model`) applies every op checked
//! beside it and must agree on each result: an op that passes `check` is
//! accepted whether or not its flush or checkpoint lands. Every op the
//! server acks appends its event to the model's acked log. Each op advances
//! the server's clock by a millisecond; an explicit flush inside an outage
//! is refused and covers nothing, and one outside it must land. The server
//! crashes mid-schedule and again at the end, each time after the outage
//! has closed; a standby takes over from the shared store and the crashed
//! instance also recovers in place. After every recovery:
//!
//! - the journal's update events are a prefix of the acked log, and hold
//!   every op acked before the last flush unless the recovery healed
//!   damage (the header's committed mark makes a lost tail damage);
//! - both recovered namespaces equal the model's fold of that prefix, inode
//!   count included; both paths agree on the manifest epoch; and both hold
//!   the allocator watermark a checkpoint-free full replay of the journal
//!   rebuilds;
//! - the takeover heals exactly when the journal did not read cleanly, and
//!   afterwards it does; it falls back past no manifest when nothing was
//!   damaged; and it loaded a manifest exactly when it materialized
//!   checkpointed events.
//!
//! Damage is one more input: at the first crash, an arbitrary subset of the
//! checkpoint objects (HEAD, per-epoch manifest copies, images) deleted,
//! truncated at an arbitrary offset or bit-flipped, and optionally the
//! journal's last stripe torn or one byte of its first stripe flipped (which
//! a strict read must then refuse). The second phase runs on whichever
//! recovered server the schedule picks, the standby or the instance
//! recovered in place; either way its compactor resumed the manifest
//! lineage its recovery used.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use common::class;
use cudele_journal::{read_journal, Attrs, InodeId, JournalEvent, JournalId};
use cudele_mds::{CheckpointConfig, ClientId, MdLogConfig, MetadataServer, StandbyReplay};
use cudele_model::{Class, Model};
use cudele_rados::{Epoch, FencedStore, FencingAuthority, InMemoryStore, ObjectStore, PoolId};
use cudele_sim::{CostModel, Nanos};

#[derive(Debug, Clone, Copy)]
enum Op {
    Create(u8),
    Mkdir(u8),
    /// Unlinks `f{i}`, or the directory `d{i % 8}` (`EISDIR`) when `i % 10 == 9`.
    Unlink(u8),
    /// `f{from}` → `f{to}`; `from == to` is the self-rename that once made
    /// checked apply and blind replay disagree.
    Rename(u8, u8),
    Flush,
    /// Every OSD out over the next `n` ops.
    Outage(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(kind, i, j)| match kind % 10 {
        0..=2 => Op::Create(i % 40),
        3 | 4 => Op::Mkdir(i % 8),
        5 => Op::Unlink(i % 40),
        6 | 7 => Op::Rename(i % 40, if j % 4 == 0 { i % 40 } else { j % 40 }),
        8 => Op::Flush,
        _ => Op::Outage(1 + i % 6),
    })
}

const C1: ClientId = ClientId(1);

/// What to do at the first crash: `(which, how, at)` per hurt checkpoint
/// object — `which` indexes the sorted `ckpt.*` listing, `how` is delete /
/// truncate to `at` bytes / flip — and, optionally, `(flip, at)` for the
/// journal: flip the bit at byte `at` of its first stripe, or tear `at`
/// bytes off its last.
type Damage = (Vec<(u16, u8, u16)>, Option<(bool, u16)>);

fn arb_damage() -> impl Strategy<Value = Damage> {
    (
        proptest::collection::vec((any::<u16>(), any::<u8>(), any::<u16>()), 0..4),
        (any::<u8>(), any::<bool>(), any::<u16>()),
    )
        .prop_map(|(hurt, (journal, flip, at))| (hurt, (journal % 3 == 0).then_some((flip, at))))
}

fn hurt_checkpoint_objects(os: &dyn ObjectStore, hurt: &[(u16, u8, u16)]) {
    for &(which, how, at) in hurt {
        let objects = os.list(PoolId::METADATA, "ckpt.");
        if objects.is_empty() {
            return;
        }
        let id = &objects[which as usize % objects.len()];
        let mut data = os.read(id).unwrap().to_vec();
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
                let mid = data.len() / 2;
                data[mid] ^= 0x10;
                os.write_full(id, &data).unwrap();
            }
        }
    }
}

/// Flips a bit in the mdlog's first stripe (every byte of a stripe sits in
/// a CRC-framed event), or cuts `at` bytes (at most all) off its last.
/// Returns whether it flipped a bit.
fn hurt_journal(os: &dyn ObjectStore, flip: bool, at: u16) -> bool {
    let stripes = os.list(PoolId::METADATA, "200.");
    let Some(stripe) = (if flip {
        stripes.first()
    } else {
        stripes.last()
    }) else {
        return false;
    };
    let mut data = os.read(stripe).unwrap().to_vec();
    if data.is_empty() {
        return false;
    }
    if flip {
        let at = at as usize % data.len();
        data[at] ^= 0x40;
    } else {
        data.truncate(data.len().saturating_sub(at as usize));
    }
    os.write_full(stripe, &data).unwrap();
    flip
}

/// The server and the model under one schedule: the OSDs, the serving
/// instance's fenced handle on the shared store a standby takes over from,
/// the clock and the end of the last outage, the model's acked log, and how
/// much of it was acked before the last flush that landed.
struct Run {
    osds: Arc<InMemoryStore>,
    fenced: Arc<FencedStore>,
    now: Nanos,
    outage_until: Nanos,
    cfg: MdLogConfig,
    checkpoints: Option<CheckpointConfig>,
    mds: MetadataServer,
    dir: InodeId,
    model: Model,
    acked: Vec<JournalEvent>,
    flushed: usize,
}

impl Run {
    /// Runs `ops`, checking each result against the model's. An acked
    /// create or mkdir journals the inode the server allocated; a refused
    /// one is checked at an inode no op allocates.
    fn apply(&mut self, ops: &[Op]) -> Result<(), TestCaseError> {
        let dir = self.dir;
        for op in ops {
            self.now += Nanos::MILLI;
            self.mds.set_now(self.now);
            let (event, got) = match *op {
                Op::Create(i) | Op::Mkdir(i) => {
                    let name = format!("{}{i}", if matches!(op, Op::Mkdir(_)) { 'd' } else { 'f' });
                    let r = match op {
                        Op::Mkdir(_) => self.mds.mkdir(C1, dir, &name),
                        _ => self.mds.create(C1, dir, &name),
                    };
                    let ino = r.result.as_ref().map_or(InodeId(u64::MAX), |c| c.ino);
                    let event = match op {
                        Op::Mkdir(_) => JournalEvent::Mkdir {
                            parent: dir,
                            name,
                            ino,
                            attrs: Attrs::dir_default(),
                        },
                        _ => JournalEvent::Create {
                            parent: dir,
                            name,
                            ino,
                            attrs: Attrs::file_default(),
                        },
                    };
                    (event, class(r.result.map(|_| ())))
                }
                Op::Unlink(i) => {
                    let name = if i % 10 == 9 {
                        format!("d{}", i % 8)
                    } else {
                        format!("f{i}")
                    };
                    let got = class(self.mds.unlink(C1, dir, &name).result);
                    (JournalEvent::Unlink { parent: dir, name }, got)
                }
                Op::Rename(i, j) => {
                    let (src_name, dst_name) = (format!("f{i}"), format!("f{j}"));
                    let got = class(self.mds.rename(C1, dir, &src_name, dir, &dst_name).result);
                    let event = JournalEvent::Rename {
                        src_parent: dir,
                        src_name,
                        dst_parent: dir,
                        dst_name,
                    };
                    (event, got)
                }
                Op::Flush => {
                    match self.mds.try_flush_journal() {
                        Ok(()) => self.flushed = self.acked.len(),
                        Err(e) => prop_assert!(self.now < self.outage_until, "{}", e),
                    }
                    continue;
                }
                Op::Outage(n) => {
                    let from = self.now + Nanos::MILLI;
                    let until = from + Nanos::MILLI * u64::from(n);
                    for osd in 0..self.osds.osds_up().len() {
                        self.osds.schedule_outage(osd, from, until);
                    }
                    self.outage_until = self.outage_until.max(until);
                    continue;
                }
            };
            prop_assert_eq!(got, self.model.checked(&event), "{:?}", event);
            if got == Class::Ok {
                self.acked.push(event);
            }
        }
        Ok(())
    }

    /// Moves the clock past the last outage, so that whatever follows —
    /// damage, a crash, recovery — reads a store that is up.
    fn close_outage(&mut self) {
        self.now = self.now.max(self.outage_until);
        self.mds.set_now(self.now);
    }

    /// Crashes the server: a standby takes over from the shared store, the
    /// crashed instance recovers in place, both are checked against the
    /// model, and the standby serves on unless `in_place`, when the
    /// in-place instance does under a new epoch. `undamaged`: nothing was
    /// hurt at any crash.
    fn crash(&mut self, undamaged: bool, in_place: bool) -> Result<(), TestCaseError> {
        let (os, authority) = (self.fenced.inner(), self.fenced.authority());
        let damaged = read_journal(os.as_ref(), JournalId::MDLOG).is_err();
        let mut standby = StandbyReplay::new(
            Arc::clone(os),
            Arc::clone(authority),
            CostModel::calibrated(),
            Some(self.cfg),
        );
        if let Some(c) = self.checkpoints {
            standby.set_checkpoint_config(c);
        }
        let epoch = Epoch(authority.current().0 + 1);
        let (standby, report) = standby.take_over(epoch).unwrap();
        prop_assert_eq!(report.healed, damaged);
        let journal = read_journal(os.as_ref(), JournalId::MDLOG).unwrap();
        self.mds.fail();
        self.mds.crash_and_recover().unwrap();

        let kept: Vec<JournalEvent> = journal.iter().filter(|e| e.is_update()).cloned().collect();
        prop_assert!(
            kept.len() <= self.acked.len(),
            "journal longer than the acked log"
        );
        prop_assert_eq!(&kept[..], &self.acked[..kept.len()]);
        prop_assert!(
            report.healed || kept.len() >= self.flushed,
            "a flushed op was lost"
        );
        prop_assert!(!undamaged || report.manifest_fallbacks == 0);
        let model = Model::replay(&kept);
        // The watermark a checkpoint-free full replay of the journal
        // rebuilds: past every journaled grant, allocated inode and live
        // inode, and never below the first dynamic inode.
        let watermark = journal
            .iter()
            .filter_map(JournalEvent::alloc_watermark)
            .chain(model.snapshot().values().map(|&(ino, _)| ino.next()))
            .fold(InodeId::FIRST_DYNAMIC, InodeId::max);
        for server in [&standby, &self.mds] {
            prop_assert_eq!(server.store().snapshot(), model.snapshot());
            prop_assert_eq!(server.store().inode_count(), model.inode_count());
            prop_assert_eq!(server.alloc_watermark(), watermark);
        }
        prop_assert_eq!(report.alloc_watermark, watermark);
        prop_assert_eq!(standby.manifest_epoch(), self.mds.manifest_epoch());
        prop_assert_eq!(report.manifest_epoch > 0, report.checkpoint_events > 0);

        if in_place {
            // The monitor hands the recovered instance a newer epoch than
            // the standby's, fencing the standby out.
            self.fenced.set_epoch(self.fenced.authority().bump());
        } else {
            self.mds = standby;
        }
        self.mds.open_session(C1);
        self.model = model;
        self.acked = kept;
        self.flushed = self.acked.len();
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn recovery_keeps_a_prefix_of_the_acked_log_and_equals_the_model_there(
        ops in proptest::collection::vec(arb_op(), 1..120),
        crash_at in any::<u16>(),
        interval in 0u64..10,
        seg in 4usize..16,
        dispatch in 1u32..4,
        damage in arb_damage(),
        in_place in any::<bool>(),
    ) {
        let (hurt, journal_damage) = damage;
        let cfg = MdLogConfig {
            events_per_segment: seg,
            dispatch_size: dispatch,
            trim_after_updates: None,
        };
        // Interval 0 is checkpoints off.
        let checkpoints = (interval > 0).then_some(CheckpointConfig { interval_events: interval });
        let osds = Arc::new(InMemoryStore::paper_default());
        let os: Arc<dyn ObjectStore> = osds.clone();
        let fenced = Arc::new(FencedStore::new(Arc::clone(&os), Arc::new(FencingAuthority::new())));
        let mut mds = MetadataServer::with_config(fenced.clone(), CostModel::calibrated(), Some(cfg));
        if let Some(c) = checkpoints {
            mds.enable_checkpoints(c).unwrap();
        }
        mds.open_session(C1);
        let dir = mds.setup_dir_durable("/p").unwrap();
        mds.flush_journal();
        let acked = vec![JournalEvent::Mkdir {
            parent: InodeId::ROOT,
            name: "p".into(),
            ino: dir,
            attrs: Attrs::dir_default(),
        }];
        let mut run = Run {
            osds,
            fenced,
            now: Nanos::ZERO,
            outage_until: Nanos::ZERO,
            cfg,
            checkpoints,
            mds,
            dir,
            model: Model::replay(&acked),
            acked,
            flushed: 1,
        };

        let cut = crash_at as usize % (ops.len() + 1);
        run.apply(&ops[..cut])?;
        run.close_outage();
        hurt_checkpoint_objects(os.as_ref(), &hurt);
        if let Some((flip, at)) = journal_damage {
            if hurt_journal(os.as_ref(), flip, at) {
                prop_assert!(read_journal(os.as_ref(), JournalId::MDLOG).is_err());
            }
        }
        let undamaged = hurt.is_empty() && journal_damage.is_none();
        run.crash(undamaged, in_place)?;

        run.apply(&ops[cut..])?;
        run.close_outage();
        // Nothing serves past the second crash: which server would is moot.
        run.crash(undamaged, false)?;
    }
}
