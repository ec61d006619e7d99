//! Recovery digests: what a seeded checkpointed run recovers to, in place
//! and by standby takeover, under each kind of damage the ladder has a rung
//! for. One digest per artifact (`funnel.rs` style), so a change to the
//! recovery path is held to every component it does not mean to move. The
//! `namespace` and `watermark` digests are the ones recorded before recovery
//! was rewritten as one fold and have not moved since — not when the delta
//! level was deleted either, which is the proof the fold still applies the
//! same events; the layout-dependent components (report, counters, object
//! names and bytes) were re-recorded with it, once.

use std::sync::Arc;

use cudele_journal::{read_journal, InodeId, JournalId};
use cudele_mds::checkpoint::{head_object, manifest_object};
use cudele_mds::{
    CheckpointConfig, ClientId, Manifest, MdLogConfig, MetadataServer, StandbyReplay,
};
use cudele_obs::Registry;
use cudele_rados::{FencedStore, FencingAuthority, InMemoryStore, ObjectId, ObjectStore, PoolId};
use cudele_sim::{CostModel, Nanos};

const C1: ClientId = ClientId(1);
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64-bit.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Damage {
    Clean,
    /// One byte flipped in the image the HEAD manifest names.
    Image,
    /// The HEAD pointer overwritten with garbage (its per-epoch copy holds).
    Head,
    /// The journal's last stripe cut five bytes short, inside the tail no
    /// manifest covers.
    TornTail,
    /// HEAD and every per-epoch copy overwritten: the ladder bottoms out.
    EveryManifest,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    InPlace,
    Takeover,
}

/// One digest per artifact a recovery leaves behind.
#[derive(Debug, PartialEq)]
struct Digests {
    /// The recovered namespace snapshot.
    namespace: u64,
    /// The rebuilt allocator watermark.
    watermark: u64,
    /// Takeover: the `TakeoverReport`'s `Debug` text. In place: the manifest
    /// epoch the compactor resumed from.
    report: u64,
    /// The `mds.ckpt.*` and `mds.failover.*` counters, absent ones included.
    counters: u64,
    /// Every object in the metadata pool after recovery: name, then bytes.
    objects: u64,
    /// The same after 64 more creates and a flush, plus the manifest epoch
    /// reached: the compactor resumed where recovery says it did. (Re-
    /// recorded once, in all ten rows, when a recovered mdlog began keeping
    /// its configured segment size instead of the default.)
    resumed: u64,
}

const COUNTERS: [&str; 8] = [
    "mds.ckpt.checkpoints",
    "mds.ckpt.replay_events_saved",
    "mds.ckpt.recoveries",
    "mds.ckpt.fallbacks",
    "mds.ckpt.journal_damage",
    "mds.failover.takeovers",
    "mds.failover.replayed_events",
    "mds.failover.healed",
];

fn flip_middle_byte(os: &InMemoryStore, name: &str) {
    let id = ObjectId::new(PoolId::METADATA, name);
    let mut data = os.read(&id).unwrap().to_vec();
    let mid = data.len() / 2;
    data[mid] ^= 0x20;
    os.write_full(&id, &data).unwrap();
}

fn objects_digest(os: &InMemoryStore) -> u64 {
    let mut ids = os.list(PoolId::METADATA, "");
    ids.sort_by(|a, b| a.name.cmp(&b.name));
    ids.iter().fold(FNV_BASIS, |h, id| {
        fnv1a(fnv1a(h, id.name.as_bytes()), &os.read(id).unwrap())
    })
}

/// 700 seeded requests (create / mkdir / unlink / rename / flush) against a
/// checkpointing server, a flush, a dozen creates a crash will lose, then
/// `damage`, then recovery along `path`.
fn run(damage: Damage, path: Path) -> Digests {
    let base = Arc::new(InMemoryStore::paper_default());
    let shared: Arc<dyn ObjectStore> = base.clone();
    let authority = Arc::new(FencingAuthority::new());
    let fenced: Arc<dyn ObjectStore> = Arc::new(FencedStore::new(
        Arc::clone(&shared),
        Arc::clone(&authority),
    ));
    let mdlog = MdLogConfig {
        events_per_segment: 8,
        dispatch_size: 2,
        trim_after_updates: None,
    };
    let ckpt = CheckpointConfig {
        interval_events: 16,
    };
    let mut mds = MetadataServer::with_config(fenced, CostModel::calibrated(), Some(mdlog));
    let reg = Arc::new(Registry::new());
    mds.attach_obs(&reg);
    mds.enable_checkpoints(ckpt).unwrap();
    mds.open_session(C1);
    let dirs: Vec<InodeId> = ["/a", "/b", "/c"]
        .iter()
        .map(|d| mds.setup_dir_durable(d).unwrap())
        .collect();
    let mut rng = Rng(0x5eed_f01d);
    for step in 0..700u64 {
        mds.set_now(Nanos::from_micros(step * 25));
        let dir = dirs[rng.below(3) as usize];
        let name = format!("n{}", rng.below(40));
        // Individual requests may fail (EEXIST, ENOENT): part of the script.
        match rng.below(12) {
            0..=5 => drop(mds.create(C1, dir, &name)),
            6 => drop(mds.mkdir(C1, dir, &format!("s{}", rng.below(4)))),
            7 | 8 => drop(mds.unlink(C1, dir, &name)),
            9 | 10 => {
                let dst = dirs[rng.below(3) as usize];
                drop(mds.rename(C1, dir, &name, dst, &format!("n{}", rng.below(40))));
            }
            _ => mds.flush_journal(),
        }
    }
    mds.flush_journal();
    for i in 0..12 {
        drop(mds.create(C1, dirs[0], &format!("lost{i}")));
    }

    let id = JournalId::MDLOG;
    let head = Manifest::decode(&base.read(&head_object(id)).unwrap()).unwrap();
    let journal_len = read_journal(base.as_ref(), id).unwrap().len() as u64;
    assert!(
        head.image_ref.is_some() && head.epoch >= 3,
        "rungs to spare"
    );
    assert!(
        journal_len > head.journal_highwater_seq,
        "an uncovered tail"
    );
    match damage {
        Damage::Clean => {}
        Damage::Image => flip_middle_byte(&base, head.image_ref.as_ref().unwrap()),
        Damage::Head => drop(base.write_full(&head_object(id), b"garbage").unwrap()),
        Damage::TornTail => {
            let stripe = base
                .list(PoolId::METADATA, "200.")
                .pop()
                .expect("the mdlog has a stripe");
            let data = base.read(&stripe).unwrap();
            base.write_full(&stripe, &data[..data.len() - 5]).unwrap();
        }
        Damage::EveryManifest => {
            base.write_full(&head_object(id), b"garbage").unwrap();
            for epoch in 1..=head.epoch {
                base.write_full(&manifest_object(id, epoch), b"garbage")
                    .unwrap();
            }
        }
    }

    let (mut mds, report) = match path {
        Path::InPlace => {
            mds.fail();
            mds.crash_and_recover().unwrap();
            let report = format!("manifest_epoch={}", mds.manifest_epoch());
            (mds, report)
        }
        Path::Takeover => {
            let mut standby = StandbyReplay::new(
                Arc::clone(&shared),
                Arc::clone(&authority),
                CostModel::calibrated(),
                Some(mdlog),
            );
            standby.set_checkpoint_config(ckpt);
            standby.attach_obs(&reg);
            let (server, report) = standby.take_over(authority.bump()).unwrap();
            (server, format!("{report:?}"))
        }
    };
    let one = |bytes: &[u8]| fnv1a(FNV_BASIS, bytes);
    let counters = COUNTERS.iter().fold(FNV_BASIS, |h, name| {
        fnv1a(
            h,
            format!("{name}={:?};", reg.counter_value(name)).as_bytes(),
        )
    });
    let mut digests = Digests {
        namespace: one(format!("{:?}", mds.store().snapshot()).as_bytes()),
        watermark: one(&mds.alloc_watermark().0.to_le_bytes()),
        report: one(report.as_bytes()),
        counters,
        objects: objects_digest(&base),
        resumed: 0,
    };
    mds.open_session(C1);
    for i in 0..64 {
        mds.create(C1, dirs[1], &format!("after{i}")).expect_ok();
    }
    mds.flush_journal();
    digests.resumed = fnv1a(objects_digest(&base), &mds.manifest_epoch().to_le_bytes());
    digests
}

#[rustfmt::skip]
fn recorded() -> Vec<(Damage, Path, Digests)> {
    use Damage::*;
    use Path::*;
    // `objects` and `resumed` digest the journal header's bytes, whose last
    // word became the committed mark (the last stripe's end) where it was
    // a zero: re-recorded once for that. `namespace`, `watermark`, `report`
    // and `counters` did not move.
    vec![
        (Clean, InPlace, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0x0c621eb171979813, counters: 0x042e2d975ccd5591, objects: 0x4b94d421ba757664, resumed: 0xe5d26f7391ebd5bd }),
        (Clean, Takeover, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0x6505ecbe95615737, counters: 0x1dc58b9443115e27, objects: 0x4b94d421ba757664, resumed: 0xe5d26f7391ebd5bd }),
        (Image, InPlace, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0x0c6223b17197a092, counters: 0xa2a6263ce5fb7ed6, objects: 0xb95d1a2fe5e48684, resumed: 0xfc26eaa79a588b7d }),
        (Image, Takeover, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0x76d3ffa77f710e70, counters: 0x3bc56f0c013bc004, objects: 0xb95d1a2fe5e48684, resumed: 0xfc26eaa79a588b7d }),
        (Head, InPlace, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0x0c621eb171979813, counters: 0xa2a6263ce5fb7ed6, objects: 0x31c2e407e3dc23f8, resumed: 0xe5d26f7391ebd5bd }),
        (Head, Takeover, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0x6daf15be9a48ca8c, counters: 0xe66776d292bf7a82, objects: 0x31c2e407e3dc23f8, resumed: 0xe5d26f7391ebd5bd }),
        (TornTail, InPlace, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0x0c621eb171979813, counters: 0x042e2d975ccd5591, objects: 0x2cffa3f83538e3e6, resumed: 0xf500bde6757c60dd }),
        (TornTail, Takeover, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0x7307895c097a1bff, counters: 0x6e585d23a4122d44, objects: 0x2cffa3f83538e3e6, resumed: 0xf500bde6757c60dd }),
        // A bottomed-out ladder reports the rungs it skipped
        // (`manifest_fallbacks`, `mds.ckpt.fallbacks`), and in place the
        // compactor resumes from the empty manifest at the HEAD's version,
        // as the takeover does — the two `resumed` digests are equal.
        (EveryManifest, InPlace, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0x0c6222b171979edf, counters: 0x281aceee6c2443ea, objects: 0x9c6c15db9ce16182, resumed: 0xbd58be21134e1029 }),
        (EveryManifest, Takeover, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0xd11e3638cb5b2939, counters: 0xd445c097435a0046, objects: 0x9c6c15db9ce16182, resumed: 0xbd58be21134e1029 }),
    ]
}

#[test]
fn recovery_reproduces_the_digests_recorded_at_the_parent() {
    let mut got = Vec::new();
    for damage in [
        Damage::Clean,
        Damage::Image,
        Damage::Head,
        Damage::TornTail,
        Damage::EveryManifest,
    ] {
        for path in [Path::InPlace, Path::Takeover] {
            got.push((damage, path, run(damage, path)));
        }
    }
    let table: String = got
        .iter()
        .map(|(d, p, x)| {
            format!(
                "        ({d:?}, {p:?}, Digests {{ namespace: {:#018x}, watermark: {:#018x}, \
report: {:#018x}, counters: {:#018x}, objects: {:#018x}, resumed: {:#018x} }}),\n",
                x.namespace, x.watermark, x.report, x.counters, x.objects, x.resumed
            )
        })
        .collect();
    assert!(got == recorded(), "recovery digests:\n{table}");
}

/// Whatever the damage, both paths recover the same namespace and
/// allocator, and — every flushed event being in the journal — the same as
/// the clean run's.
#[test]
fn every_rung_recovers_the_same_namespace() {
    let clean = run(Damage::Clean, Path::InPlace);
    for damage in [Damage::Image, Damage::Head, Damage::EveryManifest] {
        for path in [Path::InPlace, Path::Takeover] {
            let got = run(damage, path);
            assert_eq!(
                (got.namespace, got.watermark),
                (clean.namespace, clean.watermark),
                "{damage:?} {path:?}"
            );
        }
    }
    let torn = run(Damage::TornTail, Path::InPlace);
    let torn_takeover = run(Damage::TornTail, Path::Takeover);
    assert_eq!(
        (torn.namespace, torn.watermark),
        (torn_takeover.namespace, torn_takeover.watermark)
    );
}
