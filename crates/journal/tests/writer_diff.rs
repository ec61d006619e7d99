//! Differential test of the run-at-a-time journal writer against the writer
//! it replaced, which issued one object-store `append` per event. The old
//! per-event loop lives on here — and only here — as the reference. Over
//! arbitrary event lists, arbitrary splits into `append` batches (with the
//! writer reopened at arbitrary batch boundaries) and stripe capacities
//! small enough that runs roll over mid-batch and a frame larger than what
//! is left of its stripe rolls alone, the two must leave the same object
//! names, the same bytes in every object and the same header: only the
//! number of store calls may differ.
//!
//! The second half drives the new writer through a [`FaultyStore`]: under
//! transient errors and torn appends — including cuts that land after one
//! or more whole frames of a multi-frame run — every acknowledged event
//! reads back and no partial frame is left behind; a silent bit flip
//! damages exactly the one frame it lands in.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

use cudele_faults::{FaultConfig, FaultPlan, FaultyStore};
use cudele_journal::{
    encode_event, read_journal, scan_journal, CodecError, JournalEvent, JournalId, JournalWriter,
};
use cudele_rados::{
    InMemoryStore, IoDelta, ObjectId, ObjectStat, ObjectStore, PoolId, RadosError,
    Result as RadosResult,
};

mod common;
use common::{arb_event, whole_frames};

const ID: JournalId = JournalId {
    pool: PoolId::METADATA,
    ino: 0xd1ff,
};

// ---------------------------------------------------------------------
// Reference model: one store append per event.
// ---------------------------------------------------------------------

struct RefWriter<'a> {
    store: &'a InMemoryStore,
    stripe_bytes: usize,
    stripes: u64,
    current_stripe_len: usize,
}

impl RefWriter<'_> {
    fn append(&mut self, events: &[JournalEvent]) {
        for e in events {
            let mut frame = BytesMut::new();
            encode_event(&mut frame, e);
            if self.stripes == 0 || self.current_stripe_len + frame.len() > self.stripe_bytes {
                self.stripes += 1;
                self.current_stripe_len = 0;
            }
            let stripe = ObjectId::journal_stripe(ID.pool, ID.ino, self.stripes - 1);
            self.store.append(&stripe, &frame).unwrap();
            self.current_stripe_len += frame.len();
        }
        let mut header = b"CUDELEH1".to_vec();
        header.extend_from_slice(&self.stripes.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes()); // nothing trimmed
        let header_object = ObjectId::new(ID.pool, format!("{:x}_header", ID.ino));
        self.store.write_full(&header_object, &header).unwrap();
    }
}

/// Every object in the metadata pool, by name, with its bytes.
fn objects(store: &InMemoryStore) -> Vec<(String, Vec<u8>)> {
    store
        .list(PoolId::METADATA, "")
        .into_iter()
        .map(|id| {
            let data = store.read(&id).unwrap().to_vec();
            (id.name, data)
        })
        .collect()
}

/// Cuts `events` into consecutive batches of the given sizes; whatever is
/// left over is the last batch.
fn batches<'a>(events: &'a [JournalEvent], sizes: &[usize]) -> Vec<&'a [JournalEvent]> {
    let mut rest = events;
    let mut out = Vec::new();
    for &n in sizes {
        let (head, tail) = rest.split_at(n.min(rest.len()));
        out.push(head);
        rest = tail;
    }
    out.push(rest);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn run_writer_leaves_the_same_objects_as_the_per_event_writer(
        events in proptest::collection::vec(arb_event(), 0..60),
        sizes in proptest::collection::vec(0usize..16, 0..6),
        reopen in any::<u8>(),
        stripe_bytes in 1usize..700,
    ) {
        let want = InMemoryStore::paper_default();
        let got = InMemoryStore::paper_default();
        let mut reference = RefWriter {
            store: &want,
            stripe_bytes,
            stripes: 0,
            current_stripe_len: 0,
        };
        let mut writer = JournalWriter::open_with_stripe(&got, ID, stripe_bytes).unwrap();
        for (i, batch) in batches(&events, &sizes).into_iter().enumerate() {
            if reopen >> i & 1 == 1 {
                writer = JournalWriter::open_with_stripe(&got, ID, stripe_bytes).unwrap();
            }
            reference.append(batch);
            writer.append(batch).unwrap();
            prop_assert_eq!(writer.stripes(), reference.stripes);
        }
        prop_assert_eq!(objects(&got), objects(&want));
        prop_assert_eq!(read_journal(&got, ID).unwrap(), events);
    }
}

// ---------------------------------------------------------------------
// The new writer under injected faults.
// ---------------------------------------------------------------------

/// The store underneath the [`FaultyStore`]: it sees what actually lands,
/// so it can tell when a torn append cut a run past its first frame.
struct Landing {
    inner: InMemoryStore,
    /// Appends that landed one or more whole frames and then a partial one.
    cuts_past_a_frame: AtomicU64,
}

impl ObjectStore for Landing {
    fn append(&self, id: &ObjectId, data: &[u8]) -> RadosResult<u64> {
        let (whole, partial) = whole_frames(data);
        if whole > 0 && partial > 0 {
            self.cuts_past_a_frame.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.append(id, data)
    }
    fn write_full(&self, id: &ObjectId, data: &[u8]) -> RadosResult<u64> {
        self.inner.write_full(id, data)
    }
    fn cas_write_full(&self, id: &ObjectId, expected: u64, data: &[u8]) -> RadosResult<u64> {
        self.inner.cas_write_full(id, expected, data)
    }
    fn read(&self, id: &ObjectId) -> RadosResult<Bytes> {
        self.inner.read(id)
    }
    fn stat(&self, id: &ObjectId) -> RadosResult<ObjectStat> {
        self.inner.stat(id)
    }
    fn remove(&self, id: &ObjectId) -> RadosResult<()> {
        self.inner.remove(id)
    }
    fn exists(&self, id: &ObjectId) -> bool {
        self.inner.exists(id)
    }
    fn list(&self, pool: PoolId, prefix: &str) -> Vec<ObjectId> {
        self.inner.list(pool, prefix)
    }
    fn omap_set(&self, id: &ObjectId, key: &str, value: &[u8]) -> RadosResult<u64> {
        self.inner.omap_set(id, key, value)
    }
    fn omap_get(&self, id: &ObjectId, key: &str) -> RadosResult<Option<Bytes>> {
        self.inner.omap_get(id, key)
    }
    fn omap_remove(&self, id: &ObjectId, key: &str) -> RadosResult<bool> {
        self.inner.omap_remove(id, key)
    }
    fn omap_list(&self, id: &ObjectId) -> RadosResult<Vec<(String, Bytes)>> {
        self.inner.omap_list(id)
    }
    fn take_io_delta(&self) -> IoDelta {
        self.inner.take_io_delta()
    }
}

fn faulty(config: FaultConfig) -> FaultyStore<Landing> {
    FaultyStore::new(
        Arc::new(Landing {
            inner: InMemoryStore::paper_default(),
            cuts_past_a_frame: AtomicU64::new(0),
        }),
        Arc::new(FaultPlan::new(config)),
    )
}

/// Appends `events` in batches through transient errors and torn appends,
/// then checks that every event reads back and the journal scans clean.
/// Returns how many torn appends cut a run past its first frame.
fn survives_eagain_and_tears(
    events: &[JournalEvent],
    sizes: &[usize],
    stripe_bytes: usize,
    seed: u64,
) -> u64 {
    let store = faulty(FaultConfig {
        seed,
        eagain_ppm: 50_000,
        torn_write_ppm: 150_000,
        ..FaultConfig::default()
    });
    let mut writer = JournalWriter::open_with_stripe(&store, ID, stripe_bytes).unwrap();
    for batch in batches(events, sizes) {
        writer.append(batch).unwrap();
    }
    assert_eq!(read_journal(store.inner().as_ref(), ID).unwrap(), events);
    assert_eq!(
        scan_journal(store.inner().as_ref(), ID).unwrap().damage,
        None
    );
    store.inner().cuts_past_a_frame.load(Ordering::Relaxed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn acknowledged_events_survive_eagain_and_torn_runs(
        events in proptest::collection::vec(arb_event(), 1..60),
        sizes in proptest::collection::vec(0usize..16, 0..6),
        stripe_bytes in 1usize..700,
        seed in any::<u64>(),
    ) {
        survives_eagain_and_tears(&events, &sizes, stripe_bytes, seed);
    }

    /// Every append flips one bit, and a batch that fits its stripe is one
    /// append: exactly one frame is damaged, the scan returns the events
    /// before it and points at it, and every other frame is intact.
    #[test]
    fn a_bit_flip_damages_exactly_the_frame_it_lands_in(
        events in proptest::collection::vec(arb_event(), 1..60),
        seed in any::<u64>(),
    ) {
        let store = faulty(FaultConfig {
            seed,
            bitflip_ppm: 1_000_000,
            ..FaultConfig::default()
        });
        JournalWriter::open(&store, ID).unwrap().append(&events).unwrap();
        prop_assert_eq!(store.injected(), (0, 0, 1));

        let mut clean = BytesMut::new();
        let mut starts = Vec::new();
        for e in &events {
            starts.push(clean.len());
            encode_event(&mut clean, e);
        }
        let stored = store.inner().read(&ObjectId::journal_stripe(ID.pool, ID.ino, 0)).unwrap();
        prop_assert_eq!(stored.len(), clean.len());
        let flipped: Vec<usize> = (0..clean.len()).filter(|&i| stored[i] != clean[i]).collect();
        prop_assert_eq!(flipped.len(), 1);
        let damaged = starts.partition_point(|&s| s <= flipped[0]) - 1;

        let scan = scan_journal(store.inner().as_ref(), ID).unwrap();
        prop_assert_eq!(scan.events.as_slice(), &events[..damaged]);
        let damage = scan.damage.expect("the flip is detected");
        prop_assert_eq!((damage.stripe, damage.offset), (0, starts[damaged]));
        prop_assert!(matches!(
            read_journal(store.inner().as_ref(), ID),
            Err(cudele_journal::JournalIoError::Codec(_))
        ));
        // A flip in the length field can make the frame look truncated
        // instead of failing its checksum.
        prop_assert!(matches!(
            damage.error,
            CodecError::BadCrc { .. } | CodecError::UnexpectedEof
        ));
    }
}

/// The proptest above leaves it to the fault plan where a tear lands; this
/// sweep pins that the interesting case — a multi-frame run cut after one
/// or more whole frames, so the repair has whole unacknowledged frames to
/// take back, not just a partial one — is actually among the cases checked.
#[test]
fn torn_runs_cut_past_a_whole_frame_are_repaired() {
    let events: Vec<JournalEvent> = (0..48)
        .map(|i| JournalEvent::Unlink {
            parent: cudele_journal::InodeId(2 + i),
            name: format!("name-{i}"),
        })
        .collect();
    let cuts: u64 = (0..32)
        .map(|seed| survives_eagain_and_tears(&events, &[6, 6, 6, 6, 6, 6, 6], 4096, seed))
        .sum();
    assert!(cuts > 5, "only {cuts} tears landed past a whole frame");
}

/// Exhausting the retry budget is an error, not a torn journal: the writer
/// cuts the stripe back before giving up, so the next writer appends to a
/// stripe of whole acknowledged frames.
#[test]
fn giving_up_on_a_torn_run_leaves_no_partial_frame_behind() {
    let events: Vec<JournalEvent> = (0..12)
        .map(|i| JournalEvent::SegmentBoundary { seq: i })
        .collect();
    let store = faulty(FaultConfig {
        seed: 3,
        torn_write_ppm: 1_000_000,
        ..FaultConfig::default()
    });
    let mut writer = JournalWriter::open(&store, ID).unwrap();
    assert!(matches!(
        writer.append(&events),
        Err(cudele_journal::JournalIoError::Rados(
            RadosError::Transient(_)
        ))
    ));
    assert_eq!(store.injected().1, 9, "first attempt + 8 retries all tore");
    let scan = scan_journal(store.inner().as_ref(), ID).unwrap();
    assert_eq!((scan.events.len(), scan.damage), (0, None));

    // A healthy writer picks the journal up where the acknowledged bytes end.
    let inner = store.inner().as_ref();
    JournalWriter::open(inner, ID)
        .unwrap()
        .append(&events)
        .unwrap();
    assert_eq!(read_journal(inner, ID).unwrap(), events);
}
