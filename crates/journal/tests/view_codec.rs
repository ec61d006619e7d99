//! The codec's one encoder is written against the borrowed view
//! ([`EventRef`]); owned events reach it by conversion. This file is the
//! referee for that move: an encoder written here from the wire layout in
//! `codec.rs`'s module docs — independent of both `EventRef` and
//! `encode_event` — must produce the same bytes as encoding the owned event
//! and as encoding its view, for every variant, and decoding those bytes
//! must give the event back.
//!
//! Reading is the mirror move: one borrowed parser ([`parse_frames`]) that
//! every owned decoder wraps. The second half holds the walk and the owned
//! decoders to the same events, damage offset and error on arbitrary bytes,
//! well-framed garbage, and encoded journals with a flipped bit or a cut.

use bytes::BytesMut;
use proptest::prelude::*;

use cudele_journal::codec::MAGIC;
use cudele_journal::{
    crc32, decode_frames, decode_journal, encode_event, parse_frames, parse_journal, Attrs,
    EventRef, JournalEvent,
};

mod common;
use common::arb_any_event;

/// `len:u32 crc:u32 payload`, payload per the layout table; all integers
/// little-endian, strings and blobs `len:u32` prefixed.
fn reference_frame(event: &JournalEvent) -> Vec<u8> {
    fn string(p: &mut Vec<u8>, s: &[u8]) {
        p.extend_from_slice(&(s.len() as u32).to_le_bytes());
        p.extend_from_slice(s);
    }
    fn attrs(p: &mut Vec<u8>, a: &Attrs) {
        p.extend_from_slice(&a.mode.to_le_bytes());
        p.extend_from_slice(&a.uid.to_le_bytes());
        p.extend_from_slice(&a.gid.to_le_bytes());
        p.extend_from_slice(&a.size.to_le_bytes());
        p.extend_from_slice(&a.mtime.0.to_le_bytes());
    }
    let mut p = Vec::new();
    match event {
        JournalEvent::Create {
            parent,
            name,
            ino,
            attrs: a,
        }
        | JournalEvent::Mkdir {
            parent,
            name,
            ino,
            attrs: a,
        } => {
            p.push(if matches!(event, JournalEvent::Create { .. }) {
                1
            } else {
                2
            });
            p.extend_from_slice(&parent.0.to_le_bytes());
            string(&mut p, name.as_bytes());
            p.extend_from_slice(&ino.0.to_le_bytes());
            attrs(&mut p, a);
        }
        JournalEvent::Unlink { parent, name } | JournalEvent::Rmdir { parent, name } => {
            p.push(if matches!(event, JournalEvent::Unlink { .. }) {
                3
            } else {
                4
            });
            p.extend_from_slice(&parent.0.to_le_bytes());
            string(&mut p, name.as_bytes());
        }
        JournalEvent::Rename {
            src_parent,
            src_name,
            dst_parent,
            dst_name,
        } => {
            p.push(5);
            p.extend_from_slice(&src_parent.0.to_le_bytes());
            string(&mut p, src_name.as_bytes());
            p.extend_from_slice(&dst_parent.0.to_le_bytes());
            string(&mut p, dst_name.as_bytes());
        }
        JournalEvent::SetAttr { ino, attrs: a } => {
            p.push(6);
            p.extend_from_slice(&ino.0.to_le_bytes());
            attrs(&mut p, a);
        }
        JournalEvent::SetPolicy { ino, policy } => {
            p.push(7);
            p.extend_from_slice(&ino.0.to_le_bytes());
            string(&mut p, policy);
        }
        JournalEvent::SegmentBoundary { seq } => {
            p.push(8);
            p.extend_from_slice(&seq.to_le_bytes());
        }
        JournalEvent::AllocRange { client, start, len } => {
            p.push(9);
            p.extend_from_slice(&client.to_le_bytes());
            p.extend_from_slice(&start.0.to_le_bytes());
            p.extend_from_slice(&len.to_le_bytes());
        }
    }
    let mut frame = (p.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&crc32(&p).to_le_bytes());
    frame.extend_from_slice(&p);
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn owned_and_borrowed_encode_to_the_reference_bytes_and_decode_back(
        events in proptest::collection::vec(arb_any_event(), 0..24),
    ) {
        let (mut owned, mut viewed, mut want) = (BytesMut::new(), BytesMut::new(), Vec::new());
        for e in &events {
            encode_event(&mut owned, e);
            encode_event(&mut viewed, EventRef::from(e));
            want.extend_from_slice(&reference_frame(e));
            prop_assert_eq!(&EventRef::from(e).to_owned(), e);
        }
        prop_assert_eq!(&owned[..], &want[..]);
        prop_assert_eq!(&viewed[..], &want[..]);
        prop_assert_eq!(decode_frames(&want).unwrap(), events);
    }
}

// ---------------------------------------------------------------------
// The borrowed walk against the owned decoders, on damaged input.
// ---------------------------------------------------------------------

/// What the borrowed walk yields for `bytes`, kept as owned events, must be
/// what every owned decoder returns: the same events before the damage, the
/// same damage offset and error, and — with the magic in front — the same
/// strict verdict from the blob-level parse and decode.
fn walks_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut views = Vec::new();
    let damage = parse_frames(bytes, |e| views.push(e));
    let viewed: Vec<JournalEvent> = views.iter().copied().map(EventRef::to_owned).collect();
    let clean = damage.as_ref().map_or(bytes.len(), |d| d.offset);
    prop_assert_eq!(decode_frames(&bytes[..clean]), Ok(viewed.clone()));
    let strict = match &damage {
        None => Ok(viewed.clone()),
        Some(d) => Err(d.error.clone()),
    };
    prop_assert_eq!(decode_frames(bytes), strict.clone());

    let mut blob = MAGIC.to_vec();
    blob.extend_from_slice(bytes);
    prop_assert_eq!(decode_journal(&blob), strict.clone());
    let parsed = parse_journal(&blob).map(|v| v.into_iter().map(EventRef::to_owned).collect());
    prop_assert_eq!(parsed, strict);
    Ok(())
}

/// Frames each payload with its true length and CRC, so the payload parser
/// itself (tag, fields, UTF-8, trailing bytes) is what meets the garbage.
fn framed(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for p in payloads {
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(p).to_le_bytes());
        out.extend_from_slice(p);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn borrowed_walk_equals_owned_decode_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        walks_agree(&bytes)?;
    }

    /// Well-framed garbage: a tag byte from the real range (or just past
    /// it), then arbitrary fields.
    #[test]
    fn borrowed_walk_equals_owned_decode_on_framed_garbage(
        payloads in proptest::collection::vec(
            (0u8..11, proptest::collection::vec(any::<u8>(), 0..48)),
            0..6,
        ),
    ) {
        let payloads: Vec<Vec<u8>> = payloads
            .into_iter()
            .map(|(tag, rest)| [&[tag][..], &rest].concat())
            .collect();
        walks_agree(&framed(&payloads))?;
    }

    /// An encoded journal with one bit flipped, or cut short: both walks
    /// keep exactly the events before the damaged frame and report it at
    /// that frame's first byte.
    #[test]
    fn borrowed_walk_equals_owned_decode_on_damaged_journals(
        events in proptest::collection::vec(arb_any_event(), 1..24),
        at in any::<usize>(),
        bit in 0u8..8,
        cut in any::<bool>(),
    ) {
        let mut bytes = BytesMut::new();
        let mut starts = Vec::new();
        for e in &events {
            starts.push(bytes.len());
            encode_event(&mut bytes, e);
        }
        let mut bytes = bytes.to_vec();
        let at = at % bytes.len();
        if cut {
            bytes.truncate(at);
        } else {
            bytes[at] ^= 1 << bit;
        }
        walks_agree(&bytes)?;

        let mut views = Vec::new();
        let damage = parse_frames(&bytes, |e| views.push(e.to_owned()));
        let hit = starts.partition_point(|&s| s <= at) - 1;
        if cut && starts[hit] == at {
            // Cut on a frame boundary: a shorter, clean stream.
            prop_assert_eq!(damage, None);
            prop_assert_eq!(views.as_slice(), &events[..hit]);
        } else {
            let damage = damage.expect("the damage is found");
            prop_assert_eq!(damage.offset, starts[hit]);
            prop_assert_eq!(views.as_slice(), &events[..hit]);
        }
    }
}
