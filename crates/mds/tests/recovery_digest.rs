//! Recovery digests: what a seeded checkpointed run recovers to, in place
//! and by standby takeover, under each kind of damage the ladder has a rung
//! for. One digest per artifact (`funnel.rs` style), recorded on a scratch
//! clone of the commit *before* recovery was rewritten as one fold, so a
//! change to the recovery path is held to every component it does not mean
//! to move. The components that did move are marked where they are recorded.

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
    /// One byte flipped in the newest L0 delta the HEAD manifest names.
    NewestDelta,
    /// One byte flipped in the L1 image the HEAD manifest names.
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
    /// reached: the compactor resumed where recovery says it did.
    resumed: u64,
}

const COUNTERS: [&str; 9] = [
    "mds.ckpt.checkpoints",
    "mds.ckpt.deltas_folded",
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
        interval_events: 48,
        max_deltas: 2,
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
    assert!(head.image_ref.is_some() && !head.delta_refs.is_empty());
    assert!(
        journal_len > head.journal_highwater_seq,
        "an uncovered tail"
    );
    match damage {
        Damage::Clean => {}
        Damage::NewestDelta => flip_middle_byte(&base, head.delta_refs.last().unwrap()),
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
    vec![
        (Clean, InPlace, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0x0c621fb1719799c6, counters: 0x8845c12ed60054c2, objects: 0xfeabf052625f5457, resumed: 0x79d6ffe3ad64d255 }),
        (Clean, Takeover, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0xb5c8e1aeb54b32c4, counters: 0xaad88a4b920d419b, objects: 0xfeabf052625f5457, resumed: 0x79d6ffe3ad64d255 }),
        (NewestDelta, InPlace, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0x0c6220b171979b79, counters: 0x1fd58e14ee97411d, objects: 0xd3f9c8245d4f6df7, resumed: 0xa4b0adc4c2a7a49a }),
        (NewestDelta, Takeover, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0xdf0c579941f348cb, counters: 0x04cd60faa15cae23, objects: 0xd3f9c8245d4f6df7, resumed: 0xa4b0adc4c2a7a49a }),
        (Image, InPlace, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0x0c621db171979660, counters: 0x7c45db1c85113300, objects: 0xd5d76f10acf7d2f7, resumed: 0x7011f42f2eb4b29a }),
        (Image, Takeover, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0xcbd316de218c8a5e, counters: 0xc7bbd596b2aa8f9d, objects: 0xd5d76f10acf7d2f7, resumed: 0x7011f42f2eb4b29a }),
        (Head, InPlace, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0x0c621fb1719799c6, counters: 0x1fd58e14ee97411d, objects: 0xf08fffa9b4a58eec, resumed: 0x79d6ffe3ad64d255 }),
        (Head, Takeover, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0xad1fb8aeb063bf6f, counters: 0x748303925e69bc52, objects: 0xf08fffa9b4a58eec, resumed: 0x79d6ffe3ad64d255 }),
        (TornTail, InPlace, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0x0c621fb1719799c6, counters: 0x8845c12ed60054c2, objects: 0xc2f38c170a182840, resumed: 0x7ae8c0d72eea354f }),
        (TornTail, Takeover, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0xf4c5e193c4410ab2, counters: 0xa029f7358b83e258, objects: 0xc2f38c170a182840, resumed: 0x7ae8c0d72eea354f }),
        // The two rows the fold was meant to move (all else as recorded at
        // the parent). A bottomed-out ladder now reports the rungs it
        // skipped: `manifest_fallbacks` in the takeover report (0xd8ee…abce
        // before) and `mds.ckpt.fallbacks` in the counters (0x5e84…50e7 in
        // place, 0xe0c6…5507 by takeover). In place, the compactor used to
        // keep its pre-crash manifest (report 0x0c62…99c6) and flush mark
        // (resumed 0xabc6…4a8f); it now resumes from the empty manifest at
        // the HEAD's version, as the takeover always did — the two
        // `resumed` digests are equal.
        (EveryManifest, InPlace, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0x0c6222b171979edf, counters: 0xd13e8f14dadd9bbb, objects: 0x1f5eacb30ad1707d, resumed: 0x25d6e448f702a1c9 }),
        (EveryManifest, Takeover, Digests { namespace: 0x550923c06eeb4b8d, watermark: 0x4f316ac903be1c6f, report: 0xd11e3638cb5b2939, counters: 0x586f347f653352c3, objects: 0x1f5eacb30ad1707d, resumed: 0x25d6e448f702a1c9 }),
    ]
}

#[test]
fn recovery_reproduces_the_digests_recorded_at_the_parent() {
    let mut got = Vec::new();
    for damage in [
        Damage::Clean,
        Damage::NewestDelta,
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
    for damage in [
        Damage::NewestDelta,
        Damage::Image,
        Damage::Head,
        Damage::EveryManifest,
    ] {
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
