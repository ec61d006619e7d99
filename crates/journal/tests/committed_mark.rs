//! The header's committed mark: the byte end, in the last stripe, of the
//! last run the writer landed before its header write. A last stripe that
//! ends short of it, cut at a frame boundary or lost whole, has lost
//! acknowledged events: the strict read refuses it, recovery reports the
//! damage and heals to the cut, and the healed journal reads clean.

use cudele_journal::{
    codec, read_journal, recover_journal, Attrs, InodeId, JournalEvent, JournalId, JournalWriter,
    Stripes,
};
use cudele_rados::{InMemoryStore, ObjectId, ObjectStore, PoolId};

const ID: JournalId = JournalId {
    pool: PoolId::METADATA,
    ino: 0x3a7c,
};

fn create(i: u64) -> JournalEvent {
    JournalEvent::Create {
        parent: InodeId::ROOT,
        name: format!("f{i}"),
        ino: InodeId(1000 + i),
        attrs: Attrs::file_default(),
    }
}

fn stripe(seq: u64) -> ObjectId {
    ObjectId::journal_stripe(ID.pool, ID.ino, seq)
}

/// A journal of `n` acknowledged creates over stripes of `stripe_bytes`,
/// and the number of its stripes.
fn journal(n: u64, stripe_bytes: usize) -> (InMemoryStore, Vec<JournalEvent>, u64) {
    let store = InMemoryStore::paper_default();
    let events: Vec<_> = (0..n).map(create).collect();
    let mut w = JournalWriter::open_with_stripe(&store, ID, stripe_bytes).unwrap();
    w.append(&events).unwrap();
    let stripes = w.stripes();
    (store, events, stripes)
}

fn frames_in(data: &[u8]) -> usize {
    codec::decode_frames(data).unwrap().len()
}

/// Events whose frames sit in stripes below `last`.
fn events_below(store: &InMemoryStore, last: u64) -> usize {
    (0..last)
        .map(|seq| frames_in(&store.read(&stripe(seq)).unwrap()))
        .sum()
}

/// The strict read refuses the journal, recovery reports damage at
/// `(stripe, offset)` and keeps `kept` events, and the healed journal reads
/// clean and takes the next append after the cut.
fn lost_tail_is_damage(
    store: &InMemoryStore,
    events: &[JournalEvent],
    at: (u64, usize),
    kept: usize,
) {
    assert!(
        read_journal(store, ID).is_err(),
        "a lost acknowledged tail is not a shorter journal"
    );
    let mut stripes = Stripes::default();
    let recovered = recover_journal(store, store, ID, 0, &mut stripes).unwrap();
    let damage = recovered.damage.clone().expect("recovery reports the loss");
    assert_eq!((damage.stripe, damage.offset), at);
    assert_eq!(recovered.events, kept as u64);
    drop(recovered);
    assert_eq!(read_journal(store, ID).unwrap(), events[..kept].to_vec());
    JournalWriter::open(store, ID)
        .unwrap()
        .append(&[create(99)])
        .unwrap();
    let healed = [&events[..kept], &[create(99)]].concat();
    assert_eq!(read_journal(store, ID).unwrap(), healed);
}

#[test]
fn a_last_stripe_cut_at_a_frame_boundary_is_damage() {
    for stripe_bytes in [256, 4096] {
        let (store, events, stripes) = journal(12, stripe_bytes);
        let last = stripe(stripes - 1);
        let data = store.read(&last).unwrap();
        let below = events_below(&store, stripes - 1);
        let in_last = frames_in(&data);
        assert!(in_last >= 2, "the last stripe holds a frame to cut");
        let cut = data.len() - codec::framed_len(&events[below + in_last - 1]);
        store.write_full(&last, &data[..cut]).unwrap();
        lost_tail_is_damage(&store, &events, (stripes - 1, cut), below + in_last - 1);
    }
}

#[test]
fn a_deleted_last_stripe_is_damage() {
    for stripe_bytes in [256, 4096] {
        let (store, events, stripes) = journal(12, stripe_bytes);
        let below = events_below(&store, stripes - 1);
        store.remove(&stripe(stripes - 1)).unwrap();
        lost_tail_is_damage(&store, &events, (stripes - 1, 0), below);
    }
}

/// Bytes past the mark were never acknowledged (a writer died between its
/// append and its header write): they read as any others, as before the
/// mark existed.
#[test]
fn frames_past_the_mark_still_read() {
    let (store, mut events, stripes) = journal(5, 4096);
    let mut frame = bytes::BytesMut::new();
    codec::encode_event(&mut frame, &create(5));
    store.append(&stripe(stripes - 1), &frame).unwrap();
    events.push(create(5));
    assert_eq!(read_journal(&store, ID).unwrap(), events);
    let mut stripes = Stripes::default();
    let recovered = recover_journal(&store, &store, ID, 0, &mut stripes).unwrap();
    assert_eq!((recovered.damage, recovered.events), (None, 6));
}
